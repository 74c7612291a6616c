//! Per-subcarrier SNR estimation (paper Fig. 22 and appendix).
//!
//! The appendix estimates per-subcarrier SNR by transmitting a longer
//! preamble (8 OFDM symbols), applying frequency-domain channel estimation,
//! and comparing the signal power on each occupied bin against the noise
//! power measured on the same bins when no signal is present.

use crate::fft::freq_for_bin;
use crate::ofdm::{demodulate_symbol_with, OfdmConfig};
use crate::plan::FftPlan;
use crate::{DspError, Result};

/// SNR estimate for one OFDM subcarrier.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SubcarrierSnr {
    /// Subcarrier centre frequency in Hz.
    pub freq_hz: f64,
    /// Estimated SNR in dB.
    pub snr_db: f64,
}

/// Estimates per-subcarrier SNR by comparing the average in-bin power during
/// the received symbols (`received_symbols`, each of symbol length) against
/// the in-bin power of a noise-only segment of the same length.
pub fn per_subcarrier_snr(
    config: &OfdmConfig,
    received_symbols: &[Vec<f64>],
    noise_segment: &[f64],
) -> Result<Vec<SubcarrierSnr>> {
    config.validate()?;
    if received_symbols.is_empty() {
        return Err(DspError::InvalidLength {
            reason: "need at least one received symbol",
        });
    }
    if noise_segment.len() < config.symbol_len {
        return Err(DspError::InvalidLength {
            reason: "noise segment shorter than one symbol",
        });
    }
    let n_fft = config.fft_len();
    let bins = config.occupied_bins();

    // One plan (Bluestein for the paper's 1920-sample symbols) serves every
    // symbol demodulation plus the noise FFT.
    let mut plan = FftPlan::new(n_fft)?;

    // Average signal power per occupied bin across the received symbols.
    let mut signal_power = vec![0.0; bins.len()];
    for symbol in received_symbols {
        let rx_bins = demodulate_symbol_with(&mut plan, config, symbol)?;
        for (p, b) in signal_power.iter_mut().zip(rx_bins.iter()) {
            *p += b.norm_sqr();
        }
    }
    for p in signal_power.iter_mut() {
        *p /= received_symbols.len() as f64;
    }

    // Noise power per occupied bin.
    let noise_bins =
        demodulate_symbol_with(&mut plan, config, &noise_segment[..config.symbol_len])?;
    let mut out = Vec::with_capacity(bins.len());
    for ((i, bin), noise_bin) in bins.enumerate().zip(noise_bins.iter()) {
        let noise_power = noise_bin.norm_sqr().max(1e-20);
        // The averaged symbols contain signal + noise; subtract the noise
        // floor (clamped at a small positive value) before the ratio.
        let signal_only = (signal_power[i] - noise_power).max(1e-20);
        let snr_db = 10.0 * (signal_only / noise_power).log10();
        out.push(SubcarrierSnr {
            freq_hz: freq_for_bin(bin, n_fft, config.sample_rate),
            snr_db,
        });
    }
    Ok(out)
}

/// Average SNR in dB across subcarriers (power-domain average).
pub fn mean_snr_db(subcarriers: &[SubcarrierSnr]) -> Option<f64> {
    if subcarriers.is_empty() {
        return None;
    }
    let mean_linear = subcarriers
        .iter()
        .map(|s| 10f64.powf(s.snr_db / 10.0))
        .sum::<f64>()
        / subcarriers.len() as f64;
    Some(10.0 * mean_linear.log10())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ofdm::{base_symbol, OfdmConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noise(n: usize, amp: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| amp * rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn snr_increases_with_signal_amplitude() {
        let config = OfdmConfig::default();
        let symbol = base_symbol(&config).unwrap();
        let noise_seg = noise(config.symbol_len, 0.05, 1);

        let make_rx = |gain: f64, seed: u64| -> Vec<Vec<f64>> {
            (0..4)
                .map(|k| {
                    let n = noise(config.symbol_len, 0.05, seed + k);
                    symbol
                        .iter()
                        .zip(n.iter())
                        .map(|(s, w)| gain * s + w)
                        .collect()
                })
                .collect()
        };

        let strong = per_subcarrier_snr(&config, &make_rx(1.0, 10), &noise_seg).unwrap();
        let weak = per_subcarrier_snr(&config, &make_rx(0.1, 20), &noise_seg).unwrap();
        let strong_mean = mean_snr_db(&strong).unwrap();
        let weak_mean = mean_snr_db(&weak).unwrap();
        assert!(
            strong_mean > weak_mean + 10.0,
            "strong {strong_mean} dB vs weak {weak_mean} dB"
        );
        assert!(strong_mean > 10.0);
    }

    #[test]
    fn snr_frequencies_are_in_band() {
        let config = OfdmConfig::default();
        let symbol = base_symbol(&config).unwrap();
        let rx = vec![symbol.clone(); 2];
        let noise_seg = noise(config.symbol_len, 0.01, 3);
        let snrs = per_subcarrier_snr(&config, &rx, &noise_seg).unwrap();
        assert!(!snrs.is_empty());
        for s in &snrs {
            assert!(s.freq_hz >= config.band_low_hz - 50.0);
            assert!(s.freq_hz <= config.band_high_hz + 50.0);
        }
    }

    #[test]
    fn error_cases() {
        let config = OfdmConfig::default();
        let noise_seg = noise(config.symbol_len, 0.05, 1);
        assert!(per_subcarrier_snr(&config, &[], &noise_seg).is_err());
        assert!(per_subcarrier_snr(&config, &[vec![0.0; 10]], &noise_seg).is_err());
        assert!(per_subcarrier_snr(&config, &[vec![0.0; config.symbol_len]], &[0.0; 10]).is_err());
        assert!(mean_snr_db(&[]).is_none());
    }
}
