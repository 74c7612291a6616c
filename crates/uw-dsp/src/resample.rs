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
    check_ratio(ratio)?;
    Ok((0..resampled_len(signal, ratio))
        .map(|i| {
            let (lo, frac) = source_position(i, ratio);
            interpolate(signal, lo, frac)
        })
        .collect())
}

/// Resamples the two microphone streams of one capture by the same
/// `ratio`: each output is [`resample`]'s of its stream, bit for bit, but
/// each output index's source position is divided out once for both
/// streams. The streams may differ in length; each keeps its own output
/// length and its own edge sample.
pub fn resample_pair(first: &[f64], second: &[f64], ratio: f64) -> Result<[Vec<f64>; 2]> {
    check_ratio(ratio)?;
    let lens = [resampled_len(first, ratio), resampled_len(second, ratio)];
    let mut out = lens.map(Vec::with_capacity);
    let (mut lo, mut frac) = ([0usize; POSITION_BLOCK], [0.0f64; POSITION_BLOCK]);
    let total = lens[0].max(lens[1]);
    for start in (0..total).step_by(POSITION_BLOCK) {
        let block = POSITION_BLOCK.min(total - start);
        for k in 0..block {
            (lo[k], frac[k]) = source_position(start + k, ratio);
        }
        // Near unity ratio the source position mostly advances one sample
        // per output, so both interpolation taps are contiguous slices.
        let contiguous = lo[..block].iter().enumerate().all(|(k, &l)| l == lo[0] + k);
        for ((signal, len), out) in [first, second].into_iter().zip(lens).zip(&mut out) {
            let m = block.min(len.saturating_sub(start));
            if contiguous && lo[0] + m < signal.len() {
                let (a, b) = (&signal[lo[0]..lo[0] + m], &signal[lo[0] + 1..=lo[0] + m]);
                out.extend(
                    a.iter()
                        .zip(b)
                        .zip(&frac[..m])
                        .map(|((&a, &b), &frac)| a * (1.0 - frac) + b * frac),
                );
            } else {
                out.extend((0..m).map(|k| interpolate(signal, lo[k], frac[k])));
            }
        }
    }
    Ok(out)
}

/// Applies a parts-per-million clock skew to both microphone streams of a
/// capture: `ppm > 0` means the device clock runs fast, so it produces
/// more samples per true second.
pub fn apply_ppm_skew(mic1: &[f64], mic2: &[f64], ppm: f64) -> Result<[Vec<f64>; 2]> {
    resample_pair(mic1, mic2, 1.0 + ppm * 1e-6)
}

/// Output samples [`resample_pair`] places at once: their divisions
/// vectorize, and so does each stream's interpolation where their source
/// positions run contiguously.
const POSITION_BLOCK: usize = 64;

fn check_ratio(ratio: f64) -> Result<()> {
    if ratio.is_finite() && ratio > 0.0 {
        Ok(())
    } else {
        Err(DspError::InvalidParameter {
            reason: "resampling ratio must be positive and finite",
        })
    }
}

/// Output length of a signal resampled by `ratio` (none for an empty one).
fn resampled_len(signal: &[f64], ratio: f64) -> usize {
    ((signal.len() as f64) * ratio).floor() as usize
}

/// Output sample `i`'s source position: its integer sample and fraction.
fn source_position(i: usize, ratio: f64) -> (usize, f64) {
    let src = i as f64 / ratio;
    let lo = src.floor() as usize;
    (lo, src - lo as f64)
}

/// Linear interpolation at `lo + frac`; past the end the last sample holds.
fn interpolate(signal: &[f64], lo: usize, frac: f64) -> f64 {
    let a = signal.get(lo).copied().unwrap_or(0.0);
    let b = signal
        .get(lo + 1)
        .or(signal.last())
        .copied()
        .expect("only a non-empty signal is interpolated");
    a * (1.0 - frac) + b * frac
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
        let [skewed, _] = apply_ppm_skew(&signal, &signal, 50.0).unwrap();
        assert!((skewed.len() as i64 - 44_102).abs() <= 1);
        let [skewed, _] = apply_ppm_skew(&signal, &signal, -50.0).unwrap();
        assert!((skewed.len() as i64 - 44_097).abs() <= 2);
    }

    #[test]
    fn pair_resample_matches_two_single_stream_calls_bitwise() {
        // Both skew directions at the importer's and the simulator's
        // ratios, on streams up to three samples apart in length (an
        // off-axis capture's microphones differ by 1–3 samples), either
        // one the longer.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut noise = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                })
                .collect()
        };
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        for ppm in [1.0, 50.0, 150.0, 200.0f64]
            .into_iter()
            .flat_map(|p| [p, -p])
        {
            for ratio in [1.0 + ppm * 1e-6, 1.0 / (1.0 + ppm * 1e-6)] {
                for len in [1, 2, 3, 14_112] {
                    for gap in 0..=3 {
                        let (a, b) = (noise(len), noise(len + gap));
                        for (first, second) in [(&a, &b), (&b, &a)] {
                            let [p1, p2] = resample_pair(first, second, ratio).unwrap();
                            let case = format!("{ppm} ppm, ratio {ratio}, {len} + {gap}");
                            assert_eq!(bits(&p1), bits(&resample(first, ratio).unwrap()), "{case}");
                            assert_eq!(
                                bits(&p2),
                                bits(&resample(second, ratio).unwrap()),
                                "{case}"
                            );
                        }
                    }
                }
            }
        }
        let [one, none] = resample_pair(&[0.5], &[], 2.0).unwrap();
        assert_eq!((one, none.len()), (vec![0.5, 0.5], 0));
        assert!(resample_pair(&[1.0], &[1.0], f64::NAN).is_err());
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
