//! OFDM symbol synthesis and the ranging preamble.
//!
//! The paper's ranging preamble is built from a single OFDM symbol whose
//! in-band bins (1–5 kHz at a 44.1 kHz sampling rate) are filled with a
//! Zadoff–Chu sequence. Four identical copies of that symbol are
//! concatenated, each multiplied by one element of the ±1 PN sequence
//! `[1, 1, -1, 1]`, and a cyclic prefix is inserted in front of every copy
//! to absorb inter-symbol interference from the long underwater delay
//! spread. Symbol length is 1920 samples and the cyclic prefix is 540
//! samples, matching §2.2.1.

use crate::complex::Complex64;
use crate::fft::{bin_for_freq, ifft_any};
use crate::zc::zadoff_chu;
use crate::{DspError, Result, BAND_HIGH_HZ, BAND_LOW_HZ, SAMPLE_RATE};

/// Number of samples in one OFDM symbol (paper §2.2.1).
pub const SYMBOL_LEN: usize = 1920;

/// Number of samples in the cyclic prefix (paper §2.2.1).
pub const CYCLIC_PREFIX_LEN: usize = 540;

/// PN sign sequence applied to the four preamble symbols (paper §2.2.1).
pub const PN_SIGNS: [f64; 4] = [1.0, 1.0, -1.0, 1.0];

/// Parameters describing an OFDM preamble / symbol design.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OfdmConfig {
    /// Audio sampling rate in Hz.
    pub sample_rate: f64,
    /// Length of one OFDM symbol in samples (FFT length is the next power
    /// of two).
    pub symbol_len: usize,
    /// Cyclic-prefix length in samples.
    pub cyclic_prefix: usize,
    /// Lower edge of the occupied band in Hz.
    pub band_low_hz: f64,
    /// Upper edge of the occupied band in Hz.
    pub band_high_hz: f64,
    /// Zadoff–Chu root used to fill the occupied bins.
    pub zc_root: usize,
    /// Number of repeated symbols in the preamble.
    pub n_symbols: usize,
}

impl Default for OfdmConfig {
    fn default() -> Self {
        Self {
            sample_rate: SAMPLE_RATE,
            symbol_len: SYMBOL_LEN,
            cyclic_prefix: CYCLIC_PREFIX_LEN,
            band_low_hz: BAND_LOW_HZ,
            band_high_hz: BAND_HIGH_HZ,
            zc_root: 25,
            n_symbols: PN_SIGNS.len(),
        }
    }
}

impl OfdmConfig {
    /// FFT length used for modulation. The transform length equals the
    /// symbol length (1920 samples in the paper's design) so the synthesised
    /// symbol is exactly one transform period — no truncation artifacts.
    pub fn fft_len(&self) -> usize {
        self.symbol_len
    }

    /// Indices of the occupied (in-band) FFT bins.
    pub fn occupied_bins(&self) -> std::ops::Range<usize> {
        let n = self.fft_len();
        let lo = bin_for_freq(self.band_low_hz, n, self.sample_rate).max(1);
        let hi = bin_for_freq(self.band_high_hz, n, self.sample_rate);
        lo..hi.max(lo + 1)
    }

    /// Total length of the preamble in samples: `n_symbols` symbols each
    /// preceded by a cyclic prefix.
    pub fn preamble_len(&self) -> usize {
        self.n_symbols * (self.symbol_len + self.cyclic_prefix)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.symbol_len == 0 {
            return Err(DspError::InvalidParameter {
                reason: "symbol length must be positive",
            });
        }
        if self.sample_rate <= 0.0 {
            return Err(DspError::InvalidParameter {
                reason: "sample rate must be positive",
            });
        }
        if self.band_low_hz <= 0.0 || self.band_high_hz <= self.band_low_hz {
            return Err(DspError::InvalidParameter {
                reason: "band edges must satisfy 0 < low < high",
            });
        }
        if self.band_high_hz >= self.sample_rate / 2.0 {
            return Err(DspError::InvalidParameter {
                reason: "band exceeds Nyquist frequency",
            });
        }
        if self.n_symbols < 2 {
            return Err(DspError::InvalidParameter {
                reason: "preamble needs at least two symbols",
            });
        }
        Ok(())
    }

    /// PN sign sequence for the preamble symbols. Uses the paper's
    /// `[1, 1, -1, 1]` pattern, extended periodically for longer preambles.
    pub fn pn_signs(&self) -> Vec<f64> {
        (0..self.n_symbols)
            .map(|i| PN_SIGNS[i % PN_SIGNS.len()])
            .collect()
    }
}

/// Frequency-domain description of one OFDM symbol: the complex value
/// loaded on each occupied bin.
#[derive(Debug, Clone)]
pub struct SymbolSpectrum {
    /// FFT length.
    pub fft_len: usize,
    /// First occupied bin index.
    pub first_bin: usize,
    /// Complex values on the occupied bins.
    pub bins: Vec<Complex64>,
}

impl SymbolSpectrum {
    /// Builds the full conjugate-symmetric spectrum (length `fft_len`) so
    /// the time-domain symbol is real-valued.
    pub fn to_full_spectrum(&self) -> Vec<Complex64> {
        let mut spec = vec![Complex64::ZERO; self.fft_len];
        for (i, &v) in self.bins.iter().enumerate() {
            let k = self.first_bin + i;
            if k == 0 || k >= self.fft_len {
                continue;
            }
            spec[k] = v;
            spec[self.fft_len - k] = v.conj();
        }
        spec
    }
}

/// Builds the frequency-domain content of the base OFDM symbol: the
/// occupied bins carry the Zadoff–Chu sequence.
pub fn base_symbol_spectrum(config: &OfdmConfig) -> Result<SymbolSpectrum> {
    config.validate()?;
    let bins_range = config.occupied_bins();
    let n_bins = bins_range.len();
    if n_bins < 2 {
        return Err(DspError::InvalidParameter {
            reason: "occupied band contains too few bins",
        });
    }
    // Use a ZC length equal to the largest prime ≤ n_bins for the ideal
    // CAZAC property, repeating the tail if needed.
    let zc_len = largest_prime_at_most(n_bins).max(3);
    let root = config.zc_root % zc_len;
    let root = if root == 0 { 1 } else { root };
    let zc = zadoff_chu(zc_len, root)?;
    let bins: Vec<Complex64> = (0..n_bins).map(|i| zc[i % zc_len]).collect();
    Ok(SymbolSpectrum {
        fft_len: config.fft_len(),
        first_bin: bins_range.start,
        bins,
    })
}

/// Synthesises the time-domain base symbol (length `config.symbol_len`,
/// peak-normalised to ±1).
pub fn base_symbol(config: &OfdmConfig) -> Result<Vec<f64>> {
    let spectrum = base_symbol_spectrum(config)?;
    let full = spectrum.to_full_spectrum();
    let time = ifft_any(&full)?;
    let mut samples: Vec<f64> = time.iter().take(config.symbol_len).map(|c| c.re).collect();
    let peak = samples.iter().fold(0.0f64, |m, &s| m.max(s.abs()));
    if peak > 0.0 {
        for s in samples.iter_mut() {
            *s /= peak;
        }
    }
    Ok(samples)
}

/// Prepends a cyclic prefix (the last `cp_len` samples) to a symbol.
pub fn add_cyclic_prefix(symbol: &[f64], cp_len: usize) -> Result<Vec<f64>> {
    if cp_len > symbol.len() {
        return Err(DspError::InvalidLength {
            reason: "cyclic prefix longer than the symbol",
        });
    }
    let mut out = Vec::with_capacity(symbol.len() + cp_len);
    out.extend_from_slice(&symbol[symbol.len() - cp_len..]);
    out.extend_from_slice(symbol);
    Ok(out)
}

/// Builds the full ranging preamble: `n_symbols` PN-signed copies of the
/// base symbol, each preceded by a cyclic prefix.
pub fn build_preamble(config: &OfdmConfig) -> Result<Vec<f64>> {
    let symbol = base_symbol(config)?;
    let signs = config.pn_signs();
    let mut out = Vec::with_capacity(config.preamble_len());
    for sign in signs {
        let signed: Vec<f64> = symbol.iter().map(|&s| s * sign).collect();
        out.extend(add_cyclic_prefix(&signed, config.cyclic_prefix)?);
    }
    Ok(out)
}

/// Demodulates one received OFDM symbol (cyclic prefix already removed) to
/// its occupied-bin values. The symbol is zero-padded to the FFT length and
/// transformed through a caller-held [`crate::plan::FftPlan`], so the chirp
/// setup for the non-power-of-two symbol length is paid once, not per
/// symbol. The plan must have been built for `config.fft_len()`.
pub fn demodulate_symbol_with(
    plan: &mut crate::plan::FftPlan,
    config: &OfdmConfig,
    symbol: &[f64],
) -> Result<Vec<Complex64>> {
    config.validate()?;
    if symbol.len() < config.symbol_len {
        return Err(DspError::InvalidLength {
            reason: "received symbol shorter than the symbol length",
        });
    }
    let n_fft = config.fft_len();
    if plan.len() != n_fft {
        return Err(DspError::InvalidLength {
            reason: "FFT plan length does not match the OFDM FFT length",
        });
    }
    let mut buf = vec![Complex64::ZERO; n_fft];
    for (b, &s) in buf.iter_mut().zip(symbol.iter().take(config.symbol_len)) {
        *b = Complex64::from_re(s);
    }
    plan.process_forward(&mut buf)?;
    let range = config.occupied_bins();
    Ok(buf[range].to_vec())
}

/// Largest prime number ≤ `n` (returns 2 for n < 2... callers guarantee n ≥ 3).
fn largest_prime_at_most(n: usize) -> usize {
    fn is_prime(x: usize) -> bool {
        if x < 2 {
            return false;
        }
        let mut d = 2;
        while d * d <= x {
            if x.is_multiple_of(d) {
                return false;
            }
            d += 1;
        }
        true
    }
    let mut k = n;
    while k >= 2 {
        if is_prime(k) {
            return k;
        }
        k -= 1;
    }
    2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::{argmax, xcorr_normalized};
    use crate::fft::rfft_any;
    use crate::plan::FftPlan;

    #[test]
    fn default_config_matches_paper() {
        let c = OfdmConfig::default();
        assert_eq!(c.symbol_len, 1920);
        assert_eq!(c.cyclic_prefix, 540);
        assert_eq!(c.n_symbols, 4);
        assert_eq!(c.preamble_len(), 4 * (1920 + 540));
        c.validate().unwrap();
        assert_eq!(c.fft_len(), c.symbol_len);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = OfdmConfig {
            symbol_len: 0,
            ..OfdmConfig::default()
        };
        assert!(c.validate().is_err());
        c = OfdmConfig {
            band_low_hz: 5000.0,
            band_high_hz: 1000.0,
            ..OfdmConfig::default()
        };
        assert!(c.validate().is_err());
        c = OfdmConfig {
            band_high_hz: 30_000.0,
            ..OfdmConfig::default()
        };
        assert!(c.validate().is_err());
        c = OfdmConfig {
            n_symbols: 1,
            ..OfdmConfig::default()
        };
        assert!(c.validate().is_err());
        c = OfdmConfig {
            sample_rate: 0.0,
            ..OfdmConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn base_symbol_energy_is_in_band() {
        let config = OfdmConfig::default();
        let symbol = base_symbol(&config).unwrap();
        assert_eq!(symbol.len(), config.symbol_len);
        let n_fft = config.fft_len();
        let spec = rfft_any(&symbol, n_fft).unwrap();
        let total: f64 = spec.iter().take(n_fft / 2).map(|c| c.norm_sqr()).sum();
        let band = config.occupied_bins();
        // Allow a couple of bins of slack on each side for spectral leakage
        // caused by truncating the IFFT output to the symbol length.
        let slack = 8;
        let in_band: f64 = spec
            .iter()
            .take(n_fft / 2)
            .enumerate()
            .filter(|(i, _)| *i + slack >= band.start && *i < band.end + slack)
            .map(|(_, c)| c.norm_sqr())
            .sum();
        assert!(
            in_band / total > 0.95,
            "in-band fraction {}",
            in_band / total
        );
    }

    #[test]
    fn preamble_has_expected_length_and_pn_structure() {
        let config = OfdmConfig::default();
        let preamble = build_preamble(&config).unwrap();
        assert_eq!(preamble.len(), config.preamble_len());
        // Symbols 0 and 1 have the same sign; symbol 2 is negated.
        let block = config.symbol_len + config.cyclic_prefix;
        let s0 = &preamble[config.cyclic_prefix..block];
        let s1 = &preamble[block + config.cyclic_prefix..2 * block];
        let s2 = &preamble[2 * block + config.cyclic_prefix..3 * block];
        for i in 0..config.symbol_len {
            assert!((s0[i] - s1[i]).abs() < 1e-12);
            assert!((s0[i] + s2[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn cyclic_prefix_roundtrip() {
        let symbol: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let with_cp = add_cyclic_prefix(&symbol, 20).unwrap();
        assert_eq!(with_cp.len(), 120);
        assert_eq!(&with_cp[..20], &symbol[80..]);
        assert!(add_cyclic_prefix(&symbol, 200).is_err());
    }

    #[test]
    fn preamble_correlates_sharply_with_itself() {
        let config = OfdmConfig::default();
        let preamble = build_preamble(&config).unwrap();
        let mut signal = vec![0.0; preamble.len() + 4000];
        let offset = 1234;
        for (i, &p) in preamble.iter().enumerate() {
            signal[offset + i] = p;
        }
        let corr = xcorr_normalized(&signal, &preamble).unwrap();
        let (idx, peak) = argmax(&corr).unwrap();
        assert_eq!(idx, offset);
        assert!(peak > 0.99);
    }

    #[test]
    fn demodulated_clean_symbol_recovers_zc_bins() {
        let config = OfdmConfig::default();
        let spectrum = base_symbol_spectrum(&config).unwrap();
        let symbol = base_symbol(&config).unwrap();
        let mut plan = FftPlan::new(config.fft_len()).unwrap();
        let rx = demodulate_symbol_with(&mut plan, &config, &symbol).unwrap();
        assert_eq!(rx.len(), spectrum.bins.len());
        // Phases should match the transmitted ZC bins (up to a common scale);
        // compare normalised inner product.
        let mut num = Complex64::ZERO;
        let mut da = 0.0;
        let mut db = 0.0;
        for (r, t) in rx.iter().zip(spectrum.bins.iter()) {
            num += *r * t.conj();
            da += r.norm_sqr();
            db += t.norm_sqr();
        }
        let coherence = num.abs() / (da.sqrt() * db.sqrt());
        assert!(coherence > 0.95, "coherence {coherence}");
    }

    #[test]
    fn largest_prime_helper() {
        assert_eq!(largest_prime_at_most(10), 7);
        assert_eq!(largest_prime_at_most(7), 7);
        assert_eq!(largest_prime_at_most(2), 2);
        assert_eq!(largest_prime_at_most(1), 2);
        assert_eq!(largest_prime_at_most(100), 97);
    }

    #[test]
    fn demodulate_rejects_short_input() {
        let config = OfdmConfig::default();
        let mut plan = FftPlan::new(config.fft_len()).unwrap();
        assert!(demodulate_symbol_with(&mut plan, &config, &[0.0; 10]).is_err());
    }
}
