//! Cross-correlation and auto-correlation primitives.
//!
//! Preamble detection in the paper uses two correlation stages:
//!
//! 1. **Cross-correlation** of the microphone stream with the known
//!    transmitted preamble. A peak indicates a candidate arrival, but spiky
//!    underwater noise (bubbles, boat engines) produces false positives and
//!    the peak height varies widely with SNR.
//! 2. **Auto-correlation validation**: the preamble consists of 4 identical
//!    OFDM symbols multiplied by a ±1 PN sequence. The received stream is
//!    split into the 4 symbol segments, each segment is re-multiplied by the
//!    PN sign, and the segments are correlated against each other. Because
//!    all 4 symbols experience nearly the same multipath, genuine preambles
//!    correlate strongly across segments while impulsive noise does not.
//!
//! Both direct (`O(N·M)`) and FFT-based (`O(N log N)`) cross-correlation are
//! provided; the FFT path is used for the long microphone streams.

use crate::complex::Complex64;
use crate::fft::{fft_in_place, ifft_in_place, next_pow2};
use crate::{DspError, Result};

/// Full linear cross-correlation computed directly.
///
/// Returns a vector of length `signal.len() - template.len() + 1` where
/// element `k` is `sum_j signal[k + j] * template[j]` — i.e. the "valid"
/// correlation lags. Use this for short templates; prefer
/// [`xcorr_fft`] for long ones.
pub fn xcorr_direct(signal: &[f64], template: &[f64]) -> Result<Vec<f64>> {
    if template.is_empty() || signal.is_empty() {
        return Err(DspError::InvalidLength {
            reason: "correlation inputs must be non-empty",
        });
    }
    if template.len() > signal.len() {
        return Err(DspError::InvalidLength {
            reason: "template longer than signal",
        });
    }
    let n = signal.len() - template.len() + 1;
    let mut out = vec![0.0; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (j, &t) in template.iter().enumerate() {
            acc += signal[k + j] * t;
        }
        *o = acc;
    }
    Ok(out)
}

/// Valid-lag cross-correlation via FFT (identical output to
/// [`xcorr_direct`] up to floating-point rounding).
pub fn xcorr_fft(signal: &[f64], template: &[f64]) -> Result<Vec<f64>> {
    if template.is_empty() || signal.is_empty() {
        return Err(DspError::InvalidLength {
            reason: "correlation inputs must be non-empty",
        });
    }
    if template.len() > signal.len() {
        return Err(DspError::InvalidLength {
            reason: "template longer than signal",
        });
    }
    let n_lin = signal.len() + template.len() - 1;
    let n_fft = next_pow2(n_lin);

    let mut a = vec![Complex64::ZERO; n_fft];
    for (slot, &s) in a.iter_mut().zip(signal.iter()) {
        *slot = Complex64::from_re(s);
    }
    // Correlation = convolution with the time-reversed template, which in the
    // frequency domain is multiplication by the conjugate spectrum.
    let mut b = vec![Complex64::ZERO; n_fft];
    for (slot, &t) in b.iter_mut().zip(template.iter()) {
        *slot = Complex64::from_re(t);
    }
    fft_in_place(&mut a)?;
    fft_in_place(&mut b)?;
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x *= y.conj();
    }
    ifft_in_place(&mut a)?;

    let n_out = signal.len() - template.len() + 1;
    Ok(a.iter().take(n_out).map(|c| c.re).collect())
}

/// Normalised cross-correlation: each valid lag is divided by the L2 norms
/// of the template and of the corresponding signal window, yielding values
/// in `[-1, 1]`. Robust to overall amplitude (useful when the received
/// level varies by tens of dB with distance).
pub fn xcorr_normalized(signal: &[f64], template: &[f64]) -> Result<Vec<f64>> {
    let raw = xcorr_fft(signal, template)?;
    let t_norm: f64 = template.iter().map(|t| t * t).sum::<f64>().sqrt();
    if t_norm == 0.0 {
        return Err(DspError::InvalidParameter {
            reason: "template has zero energy",
        });
    }
    // Sliding window energy of the signal via prefix sums.
    let mut prefix = vec![0.0; signal.len() + 1];
    for (i, &s) in signal.iter().enumerate() {
        prefix[i + 1] = prefix[i] + s * s;
    }
    let m = template.len();
    let mut out = Vec::with_capacity(raw.len());
    for (k, &r) in raw.iter().enumerate() {
        let win_energy = prefix[k + m] - prefix[k];
        let denom = t_norm * win_energy.sqrt();
        out.push(if denom > 0.0 { r / denom } else { 0.0 });
    }
    Ok(out)
}

/// A segment read under a ±1 sign, with the two per-segment terms of a
/// Pearson coefficient: the signed segment's mean and centred energy.
/// Flipping a sign is exact, so these are the bits a sign-flipped copy of
/// the segment would give.
struct Centred<'a> {
    x: &'a [f64],
    sign: f64,
    mean: f64,
    energy: f64,
}

impl<'a> Centred<'a> {
    fn new(x: &'a [f64], sign: f64) -> Self {
        let mean = x.iter().map(|&v| v * sign).sum::<f64>() / x.len() as f64;
        let energy = x.iter().fold(0.0, |e, &v| {
            let c = v * sign - mean;
            e + c * c
        });
        Self {
            x,
            sign,
            mean,
            energy,
        }
    }

    /// Pearson correlation with an equal-length segment (0 when either is
    /// constant).
    fn correlation(&self, other: &Centred) -> f64 {
        let num = self.x.iter().zip(other.x).fold(0.0, |acc, (&x, &y)| {
            acc + (x * self.sign - self.mean) * (y * other.sign - other.mean)
        });
        let denom = (self.energy * other.energy).sqrt();
        if denom > 0.0 {
            num / denom
        } else {
            0.0
        }
    }
}

/// Auto-correlation validation score for a candidate preamble start.
///
/// Symbol `i` is `stream[i · stride ..][..symbol_len]`, read in place:
/// `stride` is the symbol length for back-to-back symbols, or the symbol
/// plus cyclic-prefix length to skip each prefix. Each symbol is
/// multiplied by its PN sign and the mean pairwise Pearson correlation
/// across all symbol pairs is returned; each symbol's mean and centred
/// energy are computed once. Genuine preambles score close to 1;
/// impulsive noise and random signals score near 0.
pub fn autocorr_validation(
    stream: &[f64],
    stride: usize,
    symbol_len: usize,
    pn_signs: &[f64],
) -> Result<f64> {
    let n_symbols = pn_signs.len();
    if n_symbols < 2 {
        return Err(DspError::InvalidParameter {
            reason: "need at least two PN symbols",
        });
    }
    if symbol_len == 0 {
        return Err(DspError::InvalidParameter {
            reason: "symbol length must be positive",
        });
    }
    if stream.len() < (n_symbols - 1) * stride + symbol_len {
        return Err(DspError::InvalidLength {
            reason: "segment shorter than the PN-coded preamble",
        });
    }
    let symbols: Vec<Centred> = pn_signs
        .iter()
        .enumerate()
        .map(|(i, &sign)| Centred::new(&stream[i * stride..i * stride + symbol_len], sign))
        .collect();
    let mut total = 0.0;
    let mut pairs = 0usize;
    for (i, a) in symbols.iter().enumerate() {
        for b in &symbols[i + 1..] {
            total += a.correlation(b);
            pairs += 1;
        }
    }
    Ok(total / pairs as f64)
}

/// Index and value of the maximum element.
///
/// Returns `None` on an empty slice or if every element is NaN.
pub fn argmax(values: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in values.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, b)) if v <= b => {}
            _ => best = Some((i, v)),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_and_fft_correlation_agree() {
        let signal: Vec<f64> = (0..500)
            .map(|i| ((i as f64) * 0.173).sin() + 0.01 * i as f64)
            .collect();
        let template: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.31).cos()).collect();
        let d = xcorr_direct(&signal, &template).unwrap();
        let f = xcorr_fft(&signal, &template).unwrap();
        assert_eq!(d.len(), f.len());
        for (a, b) in d.iter().zip(f.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn correlation_peak_locates_embedded_template() {
        let template: Vec<f64> = (0..128)
            .map(|i| ((i as f64) * 0.4).sin() * ((i as f64) * 0.013).cos())
            .collect();
        let mut signal = vec![0.0; 1000];
        let offset = 337;
        for (i, &t) in template.iter().enumerate() {
            signal[offset + i] += t;
        }
        let corr = xcorr_fft(&signal, &template).unwrap();
        let (idx, _) = argmax(&corr).unwrap();
        assert_eq!(idx, offset);
    }

    #[test]
    fn normalized_correlation_is_scale_invariant() {
        let template: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.7).sin()).collect();
        let mut signal = vec![0.0; 400];
        for (i, &t) in template.iter().enumerate() {
            signal[100 + i] = 0.001 * t; // heavily attenuated copy
        }
        let corr = xcorr_normalized(&signal, &template).unwrap();
        let (idx, val) = argmax(&corr).unwrap();
        assert_eq!(idx, 100);
        assert!(val > 0.99, "normalized peak should be ~1, got {val}");
    }

    #[test]
    fn autocorr_validation_high_for_repeated_symbols() {
        let symbol: Vec<f64> = (0..200).map(|i| ((i as f64) * 0.29).sin()).collect();
        let signs = [1.0, 1.0, -1.0, 1.0];
        let mut stream = Vec::new();
        for &s in &signs {
            stream.extend(symbol.iter().map(|&x| x * s));
        }
        let score = autocorr_validation(&stream, symbol.len(), symbol.len(), &signs).unwrap();
        assert!(score > 0.999, "score {score}");
    }

    #[test]
    fn autocorr_validation_low_for_noise() {
        // Deterministic pseudo-random noise.
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let stream: Vec<f64> = (0..800).map(|_| next()).collect();
        let signs = [1.0, 1.0, -1.0, 1.0];
        let score = autocorr_validation(&stream, 200, 200, &signs).unwrap();
        assert!(
            score.abs() < 0.3,
            "noise should not validate, score {score}"
        );
    }

    #[test]
    fn error_cases() {
        assert!(xcorr_direct(&[], &[1.0]).is_err());
        assert!(xcorr_direct(&[1.0], &[]).is_err());
        assert!(xcorr_direct(&[1.0], &[1.0, 2.0]).is_err());
        assert!(xcorr_normalized(&[1.0, 2.0, 3.0], &[0.0, 0.0]).is_err());
        assert!(autocorr_validation(&[0.0; 10], 5, 5, &[1.0]).is_err());
        assert!(autocorr_validation(&[0.0; 10], 0, 0, &[1.0, 1.0]).is_err());
        assert!(autocorr_validation(&[0.0; 10], 50, 50, &[1.0, 1.0]).is_err());
        assert!(autocorr_validation(&[0.0; 10], 6, 5, &[1.0, 1.0]).is_err());
    }

    #[test]
    fn argmax_handles_nan_and_empty() {
        assert!(argmax(&[]).is_none());
        assert!(argmax(&[f64::NAN, f64::NAN]).is_none());
        assert_eq!(argmax(&[1.0, f64::NAN, 3.0, 2.0]).unwrap().0, 2);
    }
}
