//! Fractional delay and sample-rate-offset resampling.
//!
//! The appendix of the paper shows that the dominant timing error on real
//! devices comes from the difference between the nominal 44.1 kHz sampling
//! rate and the actual speaker/microphone clock rates (1–80 ppm on Android
//! hardware). To reproduce that behaviour, the device simulator resamples
//! transmitted and received waveforms by `1 ± ppm·1e-6` and applies
//! sub-sample propagation delays. Linear interpolation is sufficient at
//! these tiny rate offsets and for the ~90 Hz-wide correlation peaks we
//! detect.

use crate::{DspError, Result};

/// Delays a signal by a (possibly fractional) number of samples using linear
/// interpolation. Samples before the signal start are zero.
pub fn fractional_delay(signal: &[f64], delay_samples: f64) -> Result<Vec<f64>> {
    if delay_samples < 0.0 {
        return Err(DspError::InvalidParameter {
            reason: "delay must be non-negative",
        });
    }
    if !delay_samples.is_finite() {
        return Err(DspError::InvalidParameter {
            reason: "delay must be finite",
        });
    }
    let n = signal.len();
    let mut out = vec![0.0; n];
    for (i, o) in out.iter_mut().enumerate() {
        let src = i as f64 - delay_samples;
        if src < 0.0 {
            continue;
        }
        let lo = src.floor() as usize;
        let frac = src - lo as f64;
        let a = signal.get(lo).copied().unwrap_or(0.0);
        let b = signal.get(lo + 1).copied().unwrap_or(0.0);
        *o = a * (1.0 - frac) + b * frac;
    }
    Ok(out)
}

/// Resamples a signal by `ratio` (output rate / input rate) using linear
/// interpolation. `ratio` slightly different from 1.0 models a clock-skewed
/// converter.
pub fn resample(signal: &[f64], ratio: f64) -> Result<Vec<f64>> {
    if !(ratio.is_finite() && ratio > 0.0) {
        return Err(DspError::InvalidParameter {
            reason: "resampling ratio must be positive and finite",
        });
    }
    if signal.is_empty() {
        return Ok(Vec::new());
    }
    let out_len = ((signal.len() as f64) * ratio).floor() as usize;
    let mut out = Vec::with_capacity(out_len);
    for i in 0..out_len {
        let src = i as f64 / ratio;
        let lo = src.floor() as usize;
        let frac = src - lo as f64;
        let a = signal.get(lo).copied().unwrap_or(0.0);
        let b = signal
            .get(lo + 1)
            .copied()
            .unwrap_or(*signal.last().unwrap());
        out.push(a * (1.0 - frac) + b * frac);
    }
    Ok(out)
}

/// Applies a parts-per-million clock skew: `ppm > 0` means the device clock
/// runs fast, so it produces more samples per true second.
pub fn apply_ppm_skew(signal: &[f64], ppm: f64) -> Result<Vec<f64>> {
    resample(signal, 1.0 + ppm * 1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_delay_shifts_exactly() {
        let signal = vec![1.0, 2.0, 3.0, 4.0, 0.0, 0.0];
        let delayed = fractional_delay(&signal, 2.0).unwrap();
        assert_eq!(delayed, vec![0.0, 0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn fractional_delay_interpolates() {
        let signal = vec![0.0, 1.0, 2.0, 3.0];
        let delayed = fractional_delay(&signal, 0.5).unwrap();
        assert!((delayed[1] - 0.5).abs() < 1e-12);
        assert!((delayed[2] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn delay_rejects_negative_or_nan() {
        assert!(fractional_delay(&[1.0], -1.0).is_err());
        assert!(fractional_delay(&[1.0], f64::NAN).is_err());
    }

    #[test]
    fn unity_resample_is_identity() {
        let signal: Vec<f64> = (0..100).map(|i| (i as f64 * 0.1).sin()).collect();
        let out = resample(&signal, 1.0).unwrap();
        assert_eq!(out.len(), signal.len());
        for (a, b) in signal.iter().zip(out.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn resample_changes_length_proportionally() {
        let signal = vec![0.0; 1000];
        assert_eq!(resample(&signal, 2.0).unwrap().len(), 2000);
        assert_eq!(resample(&signal, 0.5).unwrap().len(), 500);
        assert!(resample(&signal, 0.0).is_err());
        assert!(resample(&signal, f64::NAN).is_err());
        assert!(resample(&[], 1.0).unwrap().is_empty());
    }

    #[test]
    fn ppm_skew_is_tiny_for_tone() {
        // 50 ppm over 44100 samples changes the length by ~2 samples.
        let signal = vec![0.0; 44_100];
        let skewed = apply_ppm_skew(&signal, 50.0).unwrap();
        assert!((skewed.len() as i64 - 44_102).abs() <= 1);
        let skewed = apply_ppm_skew(&signal, -50.0).unwrap();
        assert!((skewed.len() as i64 - 44_097).abs() <= 2);
    }

    #[test]
    fn resampled_tone_keeps_frequency_scaled() {
        // Resampling by ratio r should scale apparent frequency by 1/r.
        let fs = 8000.0;
        let f = 400.0;
        let signal: Vec<f64> = (0..4000)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin())
            .collect();
        let out = resample(&signal, 1.25).unwrap();
        // Count zero crossings as a crude frequency estimate.
        let crossings = |v: &[f64]| v.windows(2).filter(|w| w[0] <= 0.0 && w[1] > 0.0).count();
        let in_freq = crossings(&signal) as f64 * fs / signal.len() as f64;
        let out_freq = crossings(&out) as f64 * fs / out.len() as f64;
        assert!((in_freq - 400.0).abs() < 10.0);
        assert!((out_freq - 320.0).abs() < 10.0);
    }
}
