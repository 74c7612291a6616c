//! Least-squares channel estimation (§2.2.1).
//!
//! After coarse synchronisation the receiver segments the four received OFDM
//! symbols out of the microphone stream, FFTs them, and estimates the
//! channel on each occupied bin as
//!
//! ```text
//! Ĥ(k) = 1/4 · Σᵢ Yᵢ(k) / (PNᵢ · X(k))
//! ```
//!
//! where `X(k)` are the transmitted ZC bin values and `PNᵢ` the ±1 symbol
//! signs. The time-domain impulse response (the "channel profile") is the
//! inverse FFT of `Ĥ`, and its magnitude is what the direct-path search in
//! [`crate::los`] operates on. MUSIC-style super-resolution estimators are
//! deliberately avoided — the paper notes they are both fragile in the
//! extremely dense underwater channel and too expensive for a phone.

use crate::preamble::RangingPreamble;
use crate::{RangingError, Result};
use uw_dsp::complex::Complex64;
use uw_dsp::fixed::{ComplexQ15, NumericPath, Q15};
use uw_dsp::float32::Complex32;

/// A channel estimate derived from one received preamble.
#[derive(Debug, Clone)]
pub struct ChannelEstimate {
    /// Complex channel gain on each occupied OFDM bin.
    pub freq_response: Vec<Complex64>,
    /// Magnitude of the time-domain impulse response, length
    /// `preamble.config.symbol_len` taps (one tap per sample period).
    pub impulse_magnitude: Vec<f64>,
}

/// Number of trailing taps used to estimate the channel noise floor (the
/// paper averages the last 100 taps).
pub const NOISE_TAIL_TAPS: usize = 100;

/// Estimates the channel from `stream`, given that the preamble is assumed
/// to start at sample `start` (coarse synchronisation, possibly shifted
/// earlier by a backoff so the true direct path lands at a positive tap).
pub fn ls_channel_estimate(
    stream: &[f64],
    preamble: &RangingPreamble,
    start: usize,
) -> Result<ChannelEstimate> {
    let block = preamble.block_len();
    let n_symbols = preamble.pn_signs.len();
    let needed = start
        + (n_symbols - 1) * block
        + preamble.config.cyclic_prefix
        + preamble.config.symbol_len;
    if needed > stream.len() {
        return Err(RangingError::InvalidInput {
            reason: format!(
                "stream of {} samples too short for channel estimation starting at {start} (need {needed})",
                stream.len()
            ),
        });
    }

    match preamble.numeric_path() {
        NumericPath::Q15 => return ls_channel_estimate_q15(stream, preamble, start),
        NumericPath::F32 => return ls_channel_estimate_f32(stream, preamble, start),
        NumericPath::F64 => {}
    }

    let n_fft = preamble.config.fft_len();
    let bins = preamble.config.occupied_bins();
    let n_bins = preamble.base_bins.len();

    // All five transforms (4 symbol FFTs + 1 inverse) run through the
    // preamble's pooled symbol-length plan: the Bluestein chirp state for
    // the 1920-point transform is built once per preamble, and one scratch
    // buffer is reused across the symbols.
    preamble.with_symbol_plan(|plan| {
        let mut buf = vec![Complex64::ZERO; n_fft];

        // Accumulate Y_i(k) / (PN_i · X(k)) over the symbols.
        let mut acc = vec![Complex64::ZERO; n_bins];
        for (i, &sign) in preamble.pn_signs.iter().enumerate() {
            let sym_start = start + i * block + preamble.config.cyclic_prefix;
            for (b, &s) in buf
                .iter_mut()
                .zip(stream[sym_start..sym_start + preamble.config.symbol_len].iter())
            {
                *b = Complex64::from_re(s);
            }
            for b in buf[preamble.config.symbol_len.min(n_fft)..].iter_mut() {
                *b = Complex64::ZERO;
            }
            plan.process_forward(&mut buf)?;
            for (j, k) in bins.clone().enumerate() {
                let x = preamble.base_bins[j] * sign;
                // X(k) is a unit-magnitude ZC value, so dividing is stable.
                let inv = x.inv().unwrap_or(Complex64::ZERO);
                acc[j] += buf[k] * inv;
            }
        }
        let freq_response: Vec<Complex64> = acc.into_iter().map(|c| c / n_symbols as f64).collect();

        // Time-domain impulse response: place Ĥ on the occupied bins of a
        // full conjugate-symmetric spectrum and inverse-FFT.
        for b in buf.iter_mut() {
            *b = Complex64::ZERO;
        }
        for (j, k) in bins.clone().enumerate() {
            buf[k] = freq_response[j];
            buf[n_fft - k] = freq_response[j].conj();
        }
        plan.process_inverse(&mut buf)?;
        let impulse_magnitude: Vec<f64> = buf
            .iter()
            .take(preamble.config.symbol_len)
            .map(|c| c.abs())
            .collect();

        Ok(ChannelEstimate {
            freq_response,
            impulse_magnitude,
        })
    })?
}

/// The fixed-point variant of [`ls_channel_estimate`]: every symbol FFT and
/// the impulse-response inverse FFT run on the Q15 block-floating-point
/// plan. Symbols are quantised by their own peak (capture-side AGC), bin
/// equalisation multiplies by the conjugate ZC value (the exact inverse,
/// since `|X(k)| = 1`), and the per-symbol block scales are reconciled in
/// floating point only at the accumulation boundary — the same place a
/// phone implementation would align block exponents.
fn ls_channel_estimate_q15(
    stream: &[f64],
    preamble: &RangingPreamble,
    start: usize,
) -> Result<ChannelEstimate> {
    let n_fft = preamble.config.fft_len();
    let bins = preamble.config.occupied_bins();
    let n_bins = preamble.base_bins.len();
    let block = preamble.block_len();
    let n_symbols = preamble.pn_signs.len();

    preamble.with_fixed_symbol_plan(|plan| -> Result<ChannelEstimate> {
        let mut buf = vec![ComplexQ15::ZERO; n_fft];
        let mut acc = vec![Complex64::ZERO; n_bins];
        for (i, &sign) in preamble.pn_signs.iter().enumerate() {
            let sym_start = start + i * block + preamble.config.cyclic_prefix;
            let window = &stream[sym_start..sym_start + preamble.config.symbol_len];
            let peak = window.iter().fold(0.0f64, |m, &s| m.max(s.abs()));
            if peak == 0.0 {
                continue; // an all-zero symbol contributes nothing
            }
            for (b, &s) in buf.iter_mut().zip(window.iter()) {
                *b = ComplexQ15::new(Q15::from_f64(s / peak), Q15::ZERO);
            }
            for b in buf[preamble.config.symbol_len.min(n_fft)..].iter_mut() {
                *b = ComplexQ15::ZERO;
            }
            let scale = plan.process_forward(&mut buf)? * peak;
            for (j, k) in bins.clone().enumerate() {
                // X(k) is a unit-magnitude ZC value: its exact inverse is
                // the conjugate, quantised once per bin.
                let x_inv = ComplexQ15::from_complex64((preamble.base_bins[j] * sign).conj());
                let y = buf[k].saturating_mul(x_inv);
                acc[j] += y.to_complex64() * scale;
            }
        }
        let freq_response: Vec<Complex64> = acc.into_iter().map(|c| c / n_symbols as f64).collect();

        // Time-domain impulse response through the fixed inverse transform:
        // quantise the conjugate-symmetric spectrum by its peak and let the
        // BFP scale carry the magnitude back out.
        let mut spec = vec![Complex64::ZERO; n_fft];
        for (j, k) in bins.clone().enumerate() {
            spec[k] = freq_response[j];
            spec[n_fft - k] = freq_response[j].conj();
        }
        let peak = spec
            .iter()
            .map(|c| c.re.abs().max(c.im.abs()))
            .fold(0.0f64, f64::max);
        let quant = if peak > 0.0 { peak } else { 1.0 };
        for (b, s) in buf.iter_mut().zip(spec.iter()) {
            *b = ComplexQ15::from_complex64(*s / quant);
        }
        let scale = plan.process_inverse(&mut buf)? * quant;
        let impulse_magnitude: Vec<f64> = buf
            .iter()
            .take(preamble.config.symbol_len)
            .map(|c| c.to_complex64().abs() * scale)
            .collect();

        Ok(ChannelEstimate {
            freq_response,
            impulse_magnitude,
        })
    })?
}

/// The single-precision variant of [`ls_channel_estimate`]: every symbol
/// FFT and the impulse-response inverse FFT run on the f32 plan through the
/// `[f32; 8]` lane kernels. Symbols are cast to f32 once at the load
/// boundary; bin equalisation multiplies by the conjugate ZC value (the
/// exact inverse, since `|X(k)| = 1`); the accumulation across symbols is
/// widened to f64 so four symbols' worth of rounding does not stack.
fn ls_channel_estimate_f32(
    stream: &[f64],
    preamble: &RangingPreamble,
    start: usize,
) -> Result<ChannelEstimate> {
    let n_fft = preamble.config.fft_len();
    let bins = preamble.config.occupied_bins();
    let n_bins = preamble.base_bins.len();
    let block = preamble.block_len();
    let n_symbols = preamble.pn_signs.len();

    preamble.with_f32_symbol_plan(|plan| -> Result<ChannelEstimate> {
        let mut buf = vec![Complex32::ZERO; n_fft];
        let mut acc = vec![Complex64::ZERO; n_bins];
        for (i, &sign) in preamble.pn_signs.iter().enumerate() {
            let sym_start = start + i * block + preamble.config.cyclic_prefix;
            for (b, &s) in buf
                .iter_mut()
                .zip(stream[sym_start..sym_start + preamble.config.symbol_len].iter())
            {
                *b = Complex32::from_re(s as f32);
            }
            for b in buf[preamble.config.symbol_len.min(n_fft)..].iter_mut() {
                *b = Complex32::ZERO;
            }
            plan.process_forward(&mut buf)?;
            for (j, k) in bins.clone().enumerate() {
                // X(k) is a unit-magnitude ZC value: its exact inverse is
                // the conjugate, rounded to f32 once per bin.
                let x_inv = Complex32::from_complex64((preamble.base_bins[j] * sign).conj());
                acc[j] += (buf[k] * x_inv).to_complex64();
            }
        }
        let freq_response: Vec<Complex64> = acc.into_iter().map(|c| c / n_symbols as f64).collect();

        // Time-domain impulse response: conjugate-symmetric spectrum,
        // inverse FFT on the f32 plan.
        for b in buf.iter_mut() {
            *b = Complex32::ZERO;
        }
        for (j, k) in bins.clone().enumerate() {
            buf[k] = Complex32::from_complex64(freq_response[j]);
            buf[n_fft - k] = Complex32::from_complex64(freq_response[j].conj());
        }
        plan.process_inverse(&mut buf)?;
        let impulse_magnitude: Vec<f64> = buf
            .iter()
            .take(preamble.config.symbol_len)
            .map(|c| c.abs() as f64)
            .collect();

        Ok(ChannelEstimate {
            freq_response,
            impulse_magnitude,
        })
    })?
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use uw_dsp::peaks::normalize_profile;

    /// The reason of a wrong-path symbol-plan error.
    fn wrong_path(result: Result<()>) -> String {
        match result {
            Err(RangingError::InvalidInput { reason }) => reason,
            _ => panic!("expected a wrong-path error"),
        }
    }

    /// Builds a stream containing the preamble convolved with a sparse
    /// channel (given as (delay_samples, gain) taps) plus noise.
    fn synth_stream(
        preamble: &RangingPreamble,
        start: usize,
        taps: &[(usize, f64)],
        noise_amp: f64,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let total = start + preamble.len() + 4000;
        let mut stream: Vec<f64> = (0..total)
            .map(|_| noise_amp * rng.gen_range(-1.0..1.0))
            .collect();
        for &(delay, gain) in taps {
            for (i, &p) in preamble.waveform.iter().enumerate() {
                let idx = start + delay + i;
                if idx < total {
                    stream[idx] += gain * p;
                }
            }
        }
        stream
    }

    #[test]
    fn single_path_channel_peaks_at_the_delay() {
        let p = RangingPreamble::default_paper().unwrap();
        let stream = synth_stream(&p, 1000, &[(30, 1.0)], 0.005, 1);
        let est = ls_channel_estimate(&stream, &p, 1000).unwrap();
        assert_eq!(est.impulse_magnitude.len(), p.config.symbol_len);
        let norm = normalize_profile(&est.impulse_magnitude);
        let (peak_idx, _) = norm
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert!((peak_idx as i64 - 30).abs() <= 1, "peak at {peak_idx}");
    }

    #[test]
    fn two_path_channel_shows_both_taps() {
        let p = RangingPreamble::default_paper().unwrap();
        let stream = synth_stream(&p, 500, &[(20, 0.8), (90, 1.0)], 0.005, 2);
        let est = ls_channel_estimate(&stream, &p, 500).unwrap();
        let norm = normalize_profile(&est.impulse_magnitude);
        assert!(norm[20] > 0.5, "direct tap {}", norm[20]);
        assert!(norm[90] > 0.8, "reflection tap {}", norm[90]);
        // Elsewhere the profile is low.
        assert!(norm[400] < 0.2);
    }

    #[test]
    fn noise_floor_is_low_in_clean_channel() {
        let p = RangingPreamble::default_paper().unwrap();
        let stream = synth_stream(&p, 200, &[(10, 1.0)], 0.01, 3);
        let est = ls_channel_estimate(&stream, &p, 200).unwrap();
        let norm = normalize_profile(&est.impulse_magnitude);
        let tail_mean: f64 =
            norm[norm.len() - NOISE_TAIL_TAPS..].iter().sum::<f64>() / NOISE_TAIL_TAPS as f64;
        assert!(tail_mean < 0.1, "tail mean {tail_mean}");
    }

    #[test]
    fn frequency_response_is_flat_for_pure_delay() {
        let p = RangingPreamble::default_paper().unwrap();
        let stream = synth_stream(&p, 300, &[(0, 1.0)], 0.001, 4);
        let est = ls_channel_estimate(&stream, &p, 300).unwrap();
        let mags: Vec<f64> = est.freq_response.iter().map(|c| c.abs()).collect();
        let mean = mags.iter().sum::<f64>() / mags.len() as f64;
        // Truncating the IFFT output to the 1920-sample symbol (the FFT
        // length is 2048) plus the transmit edge ramp introduces some ripple;
        // the response should still stay within a factor of ~2 of the mean.
        for (i, m) in mags.iter().enumerate() {
            assert!(
                *m > 0.4 * mean && *m < 2.0 * mean,
                "bin {i}: {m} vs mean {mean}"
            );
        }
    }

    #[test]
    fn q15_channel_estimate_matches_the_f64_profile_shape() {
        let p = RangingPreamble::default_paper().unwrap();
        let q = RangingPreamble::default_paper_q15().unwrap();
        let stream = synth_stream(&p, 800, &[(25, 1.0), (110, 0.6)], 0.01, 5);
        let est_f64 = ls_channel_estimate(&stream, &p, 800).unwrap();
        let est_q15 = ls_channel_estimate(&stream, &q, 800).unwrap();
        assert_eq!(est_q15.impulse_magnitude.len(), p.config.symbol_len);
        let nf = normalize_profile(&est_f64.impulse_magnitude);
        let nq = normalize_profile(&est_q15.impulse_magnitude);
        // The dominant taps land in the same places with comparable height.
        for tap in [25usize, 110] {
            assert!(
                (nf[tap] - nq[tap]).abs() < 0.1,
                "tap {tap}: f64 {} vs q15 {}",
                nf[tap],
                nq[tap]
            );
        }
        // The fixed-point noise floor stays small relative to the peak.
        let tail: f64 =
            nq[nq.len() - NOISE_TAIL_TAPS..].iter().sum::<f64>() / NOISE_TAIL_TAPS as f64;
        assert!(tail < 0.1, "q15 tail mean {tail}");
        // Each preamble carries only its own path's plans, and the error
        // names the path it was built for.
        assert_eq!(
            wrong_path(p.with_fixed_symbol_plan(|_| ())),
            "preamble was built for the f64 path; no fixed-point plans exist"
        );
        assert_eq!(
            wrong_path(q.with_symbol_plan(|_| ())),
            "preamble was built for the q15 path; no f64 plans exist"
        );
        assert_eq!(
            wrong_path(q.with_f32_symbol_plan(|_| ())),
            "preamble was built for the q15 path; no f32 plans exist"
        );
    }

    #[test]
    fn f32_channel_estimate_matches_the_f64_profile_shape() {
        let p = RangingPreamble::default_paper().unwrap();
        let f = RangingPreamble::default_paper_f32().unwrap();
        let stream = synth_stream(&p, 800, &[(25, 1.0), (110, 0.6)], 0.01, 5);
        let est_f64 = ls_channel_estimate(&stream, &p, 800).unwrap();
        let est_f32 = ls_channel_estimate(&stream, &f, 800).unwrap();
        assert_eq!(est_f32.impulse_magnitude.len(), p.config.symbol_len);
        let nf = normalize_profile(&est_f64.impulse_magnitude);
        let ns = normalize_profile(&est_f32.impulse_magnitude);
        // Single precision tracks the oracle far tighter than Q15 does.
        for (i, (a, b)) in nf.iter().zip(ns.iter()).enumerate() {
            assert!((a - b).abs() < 1e-3, "tap {i}: f64 {a} vs f32 {b}");
        }
        // The f64 preamble has no f32 plans and vice versa.
        assert_eq!(
            wrong_path(p.with_f32_symbol_plan(|_| ())),
            "preamble was built for the f64 path; no f32 plans exist"
        );
        assert_eq!(
            wrong_path(f.with_symbol_plan(|_| ())),
            "preamble was built for the f32 path; no f64 plans exist"
        );
        assert_eq!(
            wrong_path(f.with_fixed_symbol_plan(|_| ())),
            "preamble was built for the f32 path; no fixed-point plans exist"
        );
    }

    #[test]
    fn too_short_stream_is_rejected() {
        let p = RangingPreamble::default_paper().unwrap();
        let stream = vec![0.0; p.len() - 1];
        assert!(ls_channel_estimate(&stream, &p, 0).is_err());
        let stream = vec![0.0; p.len() + 10];
        assert!(ls_channel_estimate(&stream, &p, 100).is_err());
    }
}
