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
//! where `Yᵢ` is the DFT of the `i`-th received symbol body, `X(k)` are the
//! transmitted ZC bin values and `PNᵢ` the ±1 symbol signs. The time-domain
//! impulse response (the "channel profile") is the inverse FFT of `Ĥ`, and
//! its magnitude is what the direct-path search in [`crate::los`] operates
//! on. MUSIC-style super-resolution estimators are deliberately avoided —
//! the paper notes they are both fragile in the extremely dense underwater
//! channel and too expensive for a phone.
//!
//! ## Two transforms per link on the float paths
//!
//! Evaluated as written, the formula costs four forward transforms and one
//! inverse per microphone: ten 1,920-point Bluestein transforms for a
//! link's two microphones. The f64 and f32 paths compute the same estimate
//! with two:
//!
//! - **Linearity.** `PNᵢ = ±1` and the DFT is linear, so
//!   `Σᵢ Yᵢ(k) / (PNᵢ · X(k)) = DFT(Σᵢ PNᵢ · yᵢ)(k) / X(k)`. The four
//!   sign-weighted symbol bodies are summed in `f64` and transformed once.
//! - **Two real streams in one complex transform.** Both microphones' sums
//!   `s₁`, `s₂` are real and start at the same sample, so `z = s₁ + i·s₂`
//!   is transformed once and split with `S₁(k) = (Z(k) + conj Z(N−k)) / 2`
//!   and `S₂(k) = (Z(k) − conj Z(N−k)) / 2i`. Each estimate is placed on a
//!   conjugate-symmetric spectrum, whose inverse is real, so one inverse of
//!   `Ĥ₁ + i·Ĥ₂` returns `ĥ₁` in the real part and `ĥ₂` in the imaginary
//!   part: `|ĥ₁| = |Re|`, `|ĥ₂| = |Im|`.
//!
//! [`ls_channel_estimate`] runs the same core with the second stream empty
//! (packed as zeros). Against the formula evaluated symbol by symbol, the
//! profiles differ only by rounding: the unit tests hold them to a
//! per-symbol reference within 1e-13 (f64) and 1e-5 (f32) of each
//! profile's peak, with identical direct-path taps.
//!
//! ## Q15 keeps per-symbol transforms
//!
//! The Q15 path quantises each symbol by its own peak before its transform,
//! as a phone's capture-side AGC would, so every symbol uses the full 16-bit
//! mantissa whatever the level of the other three. Summing the symbols
//! first would let the loudest one set the quantisation scale of all four,
//! and packing two microphones into one transform would make them share
//! one block exponent. So Q15 keeps four forward transforms and one inverse
//! per microphone.

use crate::preamble::RangingPreamble;
use crate::{RangingError, Result};
use uw_dsp::complex::Complex64;
use uw_dsp::fixed::{ComplexQ15, NumericPath, Q15};
use uw_dsp::plan::{Float, Plan};

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
    check_span(stream, preamble, start)?;
    if preamble.numeric_path() == NumericPath::Q15 {
        return ls_channel_estimate_q15(stream, preamble, start);
    }
    let [estimate, _] = ls_channel_estimate_float(stream, &[], preamble, start)?;
    Ok(estimate)
}

/// Estimates both microphone channels of a link from one common `start`:
/// on the float paths in one packed forward and one inverse transform, on
/// Q15 one stream after the other.
pub(crate) fn ls_channel_estimate_pair(
    mic1: &[f64],
    mic2: &[f64],
    preamble: &RangingPreamble,
    start: usize,
) -> Result<[ChannelEstimate; 2]> {
    check_span(mic1, preamble, start)?;
    check_span(mic2, preamble, start)?;
    if preamble.numeric_path() == NumericPath::Q15 {
        return Ok([
            ls_channel_estimate_q15(mic1, preamble, start)?,
            ls_channel_estimate_q15(mic2, preamble, start)?,
        ]);
    }
    ls_channel_estimate_float(mic1, mic2, preamble, start)
}

/// Fails unless all four symbol bodies from `start` lie inside `stream`.
fn check_span(stream: &[f64], preamble: &RangingPreamble, start: usize) -> Result<()> {
    let needed = start
        + (preamble.pn_signs.len() - 1) * preamble.block_len()
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
    Ok(())
}

/// Runs [`ls_packed`] on the preamble's pooled symbol-length plan: f32 on
/// an f32 preamble, f64 otherwise.
fn ls_channel_estimate_float(
    mic1: &[f64],
    mic2: &[f64],
    preamble: &RangingPreamble,
    start: usize,
) -> Result<[ChannelEstimate; 2]> {
    if preamble.numeric_path() == NumericPath::F32 {
        preamble.with_f32_symbol_plan(|plan| ls_packed(plan, mic1, mic2, preamble, start))?
    } else {
        preamble.with_symbol_plan(|plan| ls_packed(plan, mic1, mic2, preamble, start))?
    }
}

/// The float paths' core (see the module docs): the PN-weighted symbol sums
/// of `mic1` and `mic2` packed as one complex sequence, one forward
/// transform, the split and per-bin equalisation in `f64`, and one inverse
/// of both estimates. The samples are rounded to the plan's precision once,
/// after the `f64` sums, and the estimates once, before the inverse. An
/// empty `mic2` packs as zeros; its estimate is then meaningless.
fn ls_packed<T: Float>(
    plan: &mut Plan<T>,
    mic1: &[f64],
    mic2: &[f64],
    preamble: &RangingPreamble,
    start: usize,
) -> Result<[ChannelEstimate; 2]> {
    let n_fft = preamble.config.fft_len();
    let symbol_len = preamble.config.symbol_len;
    let bins = preamble.config.occupied_bins();
    let body = |i: usize| start + i * preamble.block_len() + preamble.config.cyclic_prefix;
    let narrow = |c: Complex64| T::join(T::from_f64(c.re), T::from_f64(c.im));
    let widen = |c: T::Complex| {
        let (re, im) = T::split(c);
        Complex64::new(T::to_f64(re), T::to_f64(im))
    };

    // z(t) = Σᵢ PNᵢ · (mic1 + i·mic2)(body(i) + t).
    let mut buf = vec![narrow(Complex64::ZERO); n_fft];
    for (t, z) in buf.iter_mut().take(symbol_len).enumerate() {
        let mut sum = Complex64::ZERO;
        for (i, &sign) in preamble.pn_signs.iter().enumerate() {
            sum.re += sign * mic1[body(i) + t];
            if !mic2.is_empty() {
                sum.im += sign * mic2[body(i) + t];
            }
        }
        *z = narrow(sum);
    }
    plan.process_forward(&mut buf)?;

    // Split Z into S₁(k) = (Z(k) + conj Z(N−k)) / 2 and
    // S₂(k) = (Z(k) − conj Z(N−k)) / 2i, then Ĥ(k) = S(k) / (n_symbols · X(k)).
    // X(k) is a unit-magnitude ZC value, so dividing is stable.
    let n_symbols = preamble.pn_signs.len() as f64;
    let (mut h1, mut h2) = (
        Vec::with_capacity(bins.len()),
        Vec::with_capacity(bins.len()),
    );
    for (x, k) in preamble.base_bins.iter().zip(bins.clone()) {
        let z = widen(buf[k]);
        let z_mirror = widen(buf[n_fft - k]).conj();
        let eq = x.inv().unwrap_or(Complex64::ZERO) * (0.5 / n_symbols);
        let (sum, diff) = (z + z_mirror, z - z_mirror);
        h1.push(sum * eq);
        h2.push(Complex64::new(diff.im, -diff.re) * eq);
    }

    // Ĥ₁ + i·Ĥ₂ on the occupied bins and conj(Ĥ₁) + i·conj(Ĥ₂) on their
    // mirrors: the inverse is ĥ₁ + i·ĥ₂ with both impulse responses real.
    buf.fill(narrow(Complex64::ZERO));
    for ((a, b), k) in h1.iter().zip(&h2).zip(bins) {
        buf[k] = narrow(Complex64::new(a.re - b.im, a.im + b.re));
        buf[n_fft - k] = narrow(Complex64::new(a.re + b.im, b.re - a.im));
    }
    plan.process_inverse(&mut buf)?;
    let (p1, p2) = buf
        .iter()
        .take(symbol_len)
        .map(|&c| {
            let c = widen(c);
            (c.re.abs(), c.im.abs())
        })
        .unzip();
    Ok([
        ChannelEstimate {
            freq_response: h1,
            impulse_magnitude: p1,
        },
        ChannelEstimate {
            freq_response: h2,
            impulse_magnitude: p2,
        },
    ])
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::los::{dual_mic_los, LosConfig};
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
        // Either stream of a pair being short fails the pair.
        let long = vec![0.0; p.len() + 200];
        assert!(ls_channel_estimate_pair(&long, &stream, &p, 100).is_err());
        assert!(ls_channel_estimate_pair(&stream, &long, &p, 100).is_err());
        assert!(ls_channel_estimate_pair(&long, &long, &p, 100).is_ok());
    }

    /// A two-microphone capture: each (delay, gain) path arrives at
    /// `start + delay` on mic 1 and `offset` taps later on mic 2, over
    /// independent noise.
    fn two_mic_capture(
        p: &RangingPreamble,
        start: usize,
        paths: &[(usize, f64)],
        offset: i64,
        noise_amp: f64,
        seed: u64,
    ) -> (Vec<f64>, Vec<f64>) {
        let shifted: Vec<(usize, f64)> = paths
            .iter()
            .map(|&(delay, gain)| ((delay as i64 + offset) as usize, gain))
            .collect();
        (
            synth_stream(p, start, paths, noise_amp, seed),
            synth_stream(p, start, &shifted, noise_amp, seed + 1000),
        )
    }

    /// The §2.2.1 formula evaluated as written on one stream: four forward
    /// transforms, per-bin division by `PNᵢ · X(k)`, the average over the
    /// symbols, and one inverse transform of the conjugate-symmetric
    /// spectrum.
    fn per_symbol_reference<T: Float>(
        plan: &mut Plan<T>,
        stream: &[f64],
        p: &RangingPreamble,
        start: usize,
    ) -> ChannelEstimate {
        let n_fft = p.config.fft_len();
        let symbol_len = p.config.symbol_len;
        let bins = p.config.occupied_bins();
        let narrow = |c: Complex64| T::join(T::from_f64(c.re), T::from_f64(c.im));
        let widen = |c: T::Complex| {
            let (re, im) = T::split(c);
            Complex64::new(T::to_f64(re), T::to_f64(im))
        };
        let mut acc = vec![Complex64::ZERO; bins.len()];
        for (i, &sign) in p.pn_signs.iter().enumerate() {
            let body = &stream[start + p.symbol_start(i)..][..symbol_len];
            let mut buf: Vec<T::Complex> = (0..n_fft)
                .map(|t| narrow(Complex64::from_re(body.get(t).copied().unwrap_or(0.0))))
                .collect();
            plan.process_forward(&mut buf).unwrap();
            for ((a, &x), k) in acc.iter_mut().zip(&p.base_bins).zip(bins.clone()) {
                *a += widen(buf[k]) / (x * sign);
            }
        }
        let freq_response: Vec<Complex64> =
            acc.iter().map(|&a| a / p.pn_signs.len() as f64).collect();
        let mut buf = vec![narrow(Complex64::ZERO); n_fft];
        for (&h, k) in freq_response.iter().zip(bins) {
            buf[k] = narrow(h);
            buf[n_fft - k] = narrow(h.conj());
        }
        plan.process_inverse(&mut buf).unwrap();
        let impulse_magnitude = buf
            .iter()
            .take(symbol_len)
            .map(|&c| widen(c).abs())
            .collect();
        ChannelEstimate {
            freq_response,
            impulse_magnitude,
        }
    }

    /// [`per_symbol_reference`] on the preamble's own path and plan.
    fn reference(stream: &[f64], p: &RangingPreamble, start: usize) -> ChannelEstimate {
        if p.numeric_path() == NumericPath::F32 {
            p.with_f32_symbol_plan(|plan| per_symbol_reference(plan, stream, p, start))
        } else {
            p.with_symbol_plan(|plan| per_symbol_reference(plan, stream, p, start))
        }
        .unwrap()
    }

    /// Largest |Δ| between two estimates' profiles and between their
    /// frequency responses, each relative to `want`'s peak magnitude.
    fn gaps(got: &ChannelEstimate, want: &ChannelEstimate) -> (f64, f64) {
        fn gap(diffs: impl Iterator<Item = f64>, peaks: impl Iterator<Item = f64>) -> f64 {
            diffs.fold(0.0, f64::max) / peaks.fold(0.0, f64::max)
        }
        let profile = gap(
            got.impulse_magnitude
                .iter()
                .zip(&want.impulse_magnitude)
                .map(|(a, b)| (a - b).abs()),
            want.impulse_magnitude.iter().copied(),
        );
        let response = gap(
            got.freq_response
                .iter()
                .zip(&want.freq_response)
                .map(|(&a, &b)| (a - b).abs()),
            want.freq_response.iter().map(|c| c.abs()),
        );
        (profile, response)
    }

    /// The packed core against the formula evaluated symbol by symbol, on
    /// 42 seeded two-microphone captures: 1–3 paths, direct delays spread
    /// across the 1,920 taps, inter-mic offsets −3…+3 taps, and gains of
    /// 0.08–1 over noise amplitudes of 0.01 and 0.05 (the usable SNRs of
    /// the evaluation matrix). Each profile and frequency response stays
    /// within `tol` of its peak, the direct-path search picks the same
    /// taps, and the single-stream entry stays within `tol` of the pair.
    #[test]
    fn packed_core_matches_the_per_symbol_formula() {
        let start = 600;
        let los = LosConfig::default();
        for (p, tol) in [
            (RangingPreamble::default_paper().unwrap(), 1e-13),
            (RangingPreamble::default_paper_f32().unwrap(), 1e-5),
        ] {
            let path = p.numeric_path().slug();
            let mut rng = StdRng::seed_from_u64(19);
            for case in 0..42usize {
                let direct = 3 + case * 1897 / 42;
                let mut paths = vec![(direct, rng.gen_range(0.08..1.0))];
                for _ in 0..case % 3 {
                    paths.push((direct + rng.gen_range(10..400), rng.gen_range(0.08..1.0)));
                }
                let offset = (case / 3 % 7) as i64 - 3;
                let noise_amp = [0.01, 0.05][case % 2];
                let (mic1, mic2) =
                    two_mic_capture(&p, start, &paths, offset, noise_amp, case as u64);
                let pair = ls_channel_estimate_pair(&mic1, &mic2, &p, start).unwrap();
                let per_symbol = [reference(&mic1, &p, start), reference(&mic2, &p, start)];
                let mics = [&mic1, &mic2].into_iter().zip(&pair).zip(&per_symbol);
                for (m, ((mic, est), want)) in mics.enumerate() {
                    let (profile, response) = gaps(est, want);
                    let single = ls_channel_estimate(mic, &p, start).unwrap();
                    let (single_profile, single_response) = gaps(&single, est);
                    assert!(
                        profile <= tol && response <= tol,
                        "{path} case {case} mic {}: profile {profile:e}, response {response:e}",
                        m + 1
                    );
                    assert!(
                        single_profile <= tol && single_response <= tol,
                        "{path} case {case} mic {}: single stream {single_profile:e}, {single_response:e}",
                        m + 1
                    );
                }
                assert_eq!(
                    dual_mic_los(&pair[0].impulse_magnitude, &pair[1].impulse_magnitude, &los),
                    dual_mic_los(
                        &per_symbol[0].impulse_magnitude,
                        &per_symbol[1].impulse_magnitude,
                        &los
                    ),
                    "{path} case {case}: direct-path taps"
                );
            }
        }
    }

    /// 64-bit FNV-1a over the bits of both estimates of a pair.
    fn digest_pair(p: &RangingPreamble) -> u64 {
        let (mic1, mic2) = two_mic_capture(p, 1200, &[(20, 0.6), (57, 0.25)], 2, 0.05, 11);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for est in ls_channel_estimate_pair(&mic1, &mic2, p, 1200).unwrap() {
            let words = est.freq_response.iter().flat_map(|c| [c.re, c.im]);
            for w in words.chain(est.impulse_magnitude) {
                for b in w.to_bits().to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Output bits of the pair entry on each path (the single-stream entry
    /// is pinned in `uw-dsp`'s `path_digests`).
    #[test]
    fn pair_estimates_are_bit_pinned() {
        for (p, want) in [
            (
                RangingPreamble::default_paper().unwrap(),
                0x09fe_ade9_4605_48c4,
            ),
            (
                RangingPreamble::default_paper_f32().unwrap(),
                0xfcee_4b13_1e1c_f82b,
            ),
            (
                RangingPreamble::default_paper_q15().unwrap(),
                0xb0a9_6840_d1a8_0253,
            ),
        ] {
            assert_eq!(digest_pair(&p), want, "{}", p.numeric_path().slug());
        }
    }
}
