//! Three-way differential-testing harness: the single-precision f32 and
//! Q15 fixed-point paths against the f64 oracle.
//!
//! Every reduced-precision primitive in `uw_dsp::fixed` and
//! `uw_dsp::float32` is property-tested here against its double-precision
//! reference with SNR-style tolerance bounds. (The bitwise lane-vs-scalar
//! pins live in the plan unit tests of each path, which run every power of
//! two up to 4096.) The documented tolerances (asserted below, so they
//! cannot drift from this comment):
//!
//! | primitive                         | bound vs f64 oracle                          |
//! |-----------------------------------|----------------------------------------------|
//! | `Q15` round-trip                  | |Δ| ≤ ½ LSB = 2⁻¹⁶                           |
//! | `ComplexQ15::saturating_mul`      | |Δ| ≤ 4 LSB per component                    |
//! | BFP radix-2 forward FFT           | SQNR ≥ 60 dB (lengths ≤ 2048)                |
//! | BFP radix-2 FFT→IFFT round-trip   | SQNR ≥ 58 dB (≤ 1024), ≥ 55 dB (2048)        |
//! | BFP Bluestein forward (1920 etc.) | SQNR ≥ 50 dB (two extra quantised multiplies)|
//! | `Q15MatchedFilter` peak location  | within ±1 sample of the f64 peak             |
//! | `Q15MatchedFilter` peak value     | |Δ| ≤ 0.02 normalised correlation            |
//! | f32 radix-2 forward FFT           | SQNR ≥ 100 dB (lengths ≤ 2048)               |
//! | f32 radix-2 FFT→IFFT round-trip   | SQNR ≥ 95 dB                                 |
//! | f32 Bluestein forward             | SQNR ≥ 85 dB                                 |
//! | `F32MatchedFilter` peak location  | within ±1 sample of the f64 peak             |
//! | `F32MatchedFilter` peak value     | |Δ| ≤ 1e-3 normalised correlation            |
//! | saturation edge cases             | exact (±1.0 inputs never wrap, zeros stay 0) |
//!
//! The matched-filter peak properties draw the signal length as well as the
//! offset, so every rung of each filter's block-length ladder is checked.
//!
//! The SQNR bounds hold for signals exercising at least a few percent of
//! full scale — the proptest generators below draw amplitudes from
//! [0.05, 0.95], covering everything the automatic per-call gain
//! normalisation in the hot path can produce.

use proptest::prelude::*;
use uw_dsp::complex::Complex64;
use uw_dsp::correlation::argmax;
use uw_dsp::fft::{fft, fft_any};
use uw_dsp::fixed::{ComplexQ15, FixedFftPlan, NumericPath, Q15MatchedFilter, Q15, Q15_ONE};
use uw_dsp::float32::{Complex32, F32FftPlan, F32MatchedFilter};
use uw_dsp::MatchedFilter;

fn quantize(signal: &[Complex64]) -> Vec<ComplexQ15> {
    signal
        .iter()
        .map(|&c| ComplexQ15::from_complex64(c))
        .collect()
}

fn dequantize(data: &[ComplexQ15], scale: f64) -> Vec<Complex64> {
    data.iter().map(|c| c.to_complex64() * scale).collect()
}

fn to_f32(signal: &[Complex64]) -> Vec<Complex32> {
    signal
        .iter()
        .map(|&c| Complex32::from_complex64(c))
        .collect()
}

fn from_f32(data: &[Complex32]) -> Vec<Complex64> {
    data.iter().map(|c| c.to_complex64()).collect()
}

/// Signal-to-quantisation-noise ratio (dB) of `fix` against `reference`.
fn sqnr_db(reference: &[Complex64], fix: &[Complex64]) -> f64 {
    let sig: f64 = reference.iter().map(|c| c.norm_sqr()).sum();
    let err: f64 = reference
        .iter()
        .zip(fix.iter())
        .map(|(r, f)| (*r - *f).norm_sqr())
        .sum();
    10.0 * (sig / err.max(f64::MIN_POSITIVE)).log10()
}

/// A deterministic multi-tone complex test signal parameterised by the
/// proptest-drawn amplitude and phase increments.
fn tone_signal(n: usize, amp: f64, w1: f64, w2: f64) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            Complex64::new(
                amp * (i as f64 * w1).sin(),
                amp * 0.7 * (i as f64 * w2).cos(),
            )
        })
        .collect()
}

/// Template length of the matched-filter properties: over 512 samples, so
/// the Q15 ladder has three rungs (1024, 2048 and 4096 points) and the
/// float paths' two (1024 and 2048).
const PEAK_TEMPLATE_LEN: usize = 600;

/// A pseudo-noise template planted at a drawn offset in a signal of drawn
/// length. The signal fills between half and all of a `1024 << rung`
/// sample block beyond the template, so for `rung` 0–2 its lags run on
/// that Q15 rung and no shorter one, and for `rung` 3 they span more
/// than one top block. The noise is deterministic in the drawn seed (the vendored
/// proptest drives this generator, so cases reproduce).
fn planted(
    rung: u32,
    fill: f64,
    offset_frac: f64,
    template_seed: u64,
    gain: f64,
    noise_amp: f64,
) -> (Vec<f64>, Vec<f64>) {
    let m = PEAK_TEMPLATE_LEN;
    let template: Vec<f64> = (0..m)
        .map(|i| {
            ((i as f64 * 0.29 + template_seed as f64) * 1.7).sin() * ((i as f64) * 0.031).cos()
        })
        .collect();
    let total = m + (((1024usize << rung) - m) as f64 * fill) as usize;
    let mut signal: Vec<f64> = (0..total)
        .map(|i| {
            noise_amp
                * ((i as f64 * 0.613 + template_seed as f64 * 7.3).sin() + (i as f64 * 1.77).cos())
                / 2.0
        })
        .collect();
    let offset = ((total - m) as f64 * offset_frac) as usize;
    for (i, &t) in template.iter().enumerate() {
        signal[offset + i] += gain * t;
    }
    (template, signal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn q15_roundtrip_is_within_half_lsb(x in -0.99997f64..0.99997) {
        let q = Q15::from_f64(x);
        prop_assert!((q.to_f64() - x).abs() <= 0.5 / Q15_ONE + 1e-12,
            "{x} -> {}", q.to_f64());
    }

    #[test]
    fn q15_saturates_instead_of_wrapping(x in 1.0f64..100.0) {
        prop_assert_eq!(Q15::from_f64(x), Q15::MAX);
        prop_assert_eq!(Q15::from_f64(-x), Q15::MIN);
        // Products at the extremes stay in range.
        let a = Q15::from_f64(-x);
        prop_assert_eq!(a.saturating_mul(a), Q15::MAX);
    }

    #[test]
    fn complex_q15_product_tracks_f64(
        ar in -0.7f64..0.7, ai in -0.7f64..0.7,
        br in -0.7f64..0.7, bi in -0.7f64..0.7,
    ) {
        let a = Complex64::new(ar, ai);
        let b = Complex64::new(br, bi);
        let truth = a * b;
        let got = ComplexQ15::from_complex64(a)
            .saturating_mul(ComplexQ15::from_complex64(b))
            .to_complex64();
        prop_assert!((got.re - truth.re).abs() <= 4.0 / Q15_ONE, "re {} vs {}", got.re, truth.re);
        prop_assert!((got.im - truth.im).abs() <= 4.0 / Q15_ONE, "im {} vs {}", got.im, truth.im);
    }

    #[test]
    fn radix2_forward_sqnr_at_least_60_db(
        exp in 4u32..12, amp in 0.05f64..0.95, w1 in 0.1f64..3.0, w2 in 0.1f64..3.0,
    ) {
        let n = 1usize << exp;
        let signal = tone_signal(n, amp, w1, w2);
        let reference = fft(&signal).unwrap();
        let mut data = quantize(&signal);
        let mut plan = FixedFftPlan::new(n).unwrap();
        let scale = plan.process_forward(&mut data).unwrap();
        let snr = sqnr_db(&reference, &dequantize(&data, scale));
        prop_assert!(snr >= 60.0, "n={n} amp={amp:.2}: forward SQNR {snr:.1} dB");
    }

    #[test]
    fn radix2_roundtrip_sqnr_at_least_58_db(
        exp in 4u32..12, amp in 0.05f64..0.95, w1 in 0.1f64..3.0, w2 in 0.1f64..3.0,
    ) {
        let n = 1usize << exp;
        let signal = tone_signal(n, amp, w1, w2);
        let mut data = quantize(&signal);
        let mut plan = FixedFftPlan::new(n).unwrap();
        let s1 = plan.process_forward(&mut data).unwrap();
        let s2 = plan.process_inverse(&mut data).unwrap();
        let snr = sqnr_db(&signal, &dequantize(&data, s1 * s2));
        // Two transforms' rounding noise; the 2048-point correlator block
        // is the worst case and sits just below the smaller sizes.
        let bound = if n <= 1024 { 58.0 } else { 55.0 };
        prop_assert!(snr >= bound, "n={n} amp={amp:.2}: round-trip SQNR {snr:.1} dB");
    }

    #[test]
    fn bluestein_forward_sqnr_at_least_50_db(
        n in 3usize..2000, amp in 0.05f64..0.95, w1 in 0.1f64..3.0, w2 in 0.1f64..3.0,
    ) {
        prop_assume!(!n.is_power_of_two());
        let signal = tone_signal(n, amp, w1, w2);
        let reference = fft_any(&signal).unwrap();
        let mut data = quantize(&signal);
        let mut plan = FixedFftPlan::new(n).unwrap();
        let scale = plan.process_forward(&mut data).unwrap();
        let snr = sqnr_db(&reference, &dequantize(&data, scale));
        prop_assert!(snr >= 50.0, "n={n} amp={amp:.2}: Bluestein SQNR {snr:.1} dB");
    }

    #[test]
    fn matched_filter_peak_index_within_one_sample(
        rung in 0u32..4,            // block length 1024 << rung; see `planted`
        fill in 0.5f64..1.0,
        offset_frac in 0.0f64..1.0,
        template_seed in 1u64..50,
        gain in 0.08f64..1.0,       // template gain over a 0.05 noise floor:
        noise_amp in 0.01f64..0.05, // SNR range of the matrix's usable cells
    ) {
        let (template, signal) = planted(rung, fill, offset_frac, template_seed, gain, noise_amp);
        let f64_filter = MatchedFilter::new(&template).unwrap();
        let q15_filter = Q15MatchedFilter::new(&template).unwrap();
        let reference = f64_filter.correlate_normalized(&signal).unwrap();
        let fixed = q15_filter.correlate_normalized(&signal).unwrap();
        prop_assert_eq!(reference.len(), fixed.len());
        let (ref_idx, ref_peak) = argmax(&reference).unwrap();
        let (fix_idx, fix_peak) = argmax(&fixed).unwrap();
        prop_assert!(
            (ref_idx as i64 - fix_idx as i64).abs() <= 1,
            "peak at {ref_idx} (f64) vs {fix_idx} (q15), gain {gain:.2}"
        );
        prop_assert!(
            (ref_peak - fix_peak).abs() <= 0.02,
            "peak value {ref_peak:.4} (f64) vs {fix_peak:.4} (q15)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn f32_radix2_forward_sqnr_at_least_100_db(
        exp in 4u32..12, amp in 0.05f64..0.95, w1 in 0.1f64..3.0, w2 in 0.1f64..3.0,
    ) {
        let n = 1usize << exp;
        let signal = tone_signal(n, amp, w1, w2);
        let reference = fft(&signal).unwrap();
        let mut data = to_f32(&signal);
        let mut plan = F32FftPlan::new(n).unwrap();
        plan.process_forward(&mut data).unwrap();
        let snr = sqnr_db(&reference, &from_f32(&data));
        prop_assert!(snr >= 100.0, "n={n} amp={amp:.2}: f32 forward SQNR {snr:.1} dB");
    }

    #[test]
    fn f32_radix2_roundtrip_sqnr_at_least_95_db(
        exp in 4u32..12, amp in 0.05f64..0.95, w1 in 0.1f64..3.0, w2 in 0.1f64..3.0,
    ) {
        let n = 1usize << exp;
        let signal = tone_signal(n, amp, w1, w2);
        let mut data = to_f32(&signal);
        let mut plan = F32FftPlan::new(n).unwrap();
        plan.process_forward(&mut data).unwrap();
        plan.process_inverse(&mut data).unwrap();
        let snr = sqnr_db(&signal, &from_f32(&data));
        prop_assert!(snr >= 95.0, "n={n} amp={amp:.2}: f32 round-trip SQNR {snr:.1} dB");
    }

    #[test]
    fn f32_bluestein_forward_sqnr_at_least_85_db(
        n in 3usize..2000, amp in 0.05f64..0.95, w1 in 0.1f64..3.0, w2 in 0.1f64..3.0,
    ) {
        prop_assume!(!n.is_power_of_two());
        let signal = tone_signal(n, amp, w1, w2);
        let reference = fft_any(&signal).unwrap();
        let mut data = to_f32(&signal);
        let mut plan = F32FftPlan::new(n).unwrap();
        plan.process_forward(&mut data).unwrap();
        let snr = sqnr_db(&reference, &from_f32(&data));
        prop_assert!(snr >= 85.0, "n={n} amp={amp:.2}: f32 Bluestein SQNR {snr:.1} dB");
    }

    #[test]
    fn f32_matched_filter_peak_within_one_sample(
        rung in 0u32..4,
        fill in 0.5f64..1.0,
        offset_frac in 0.0f64..1.0,
        template_seed in 1u64..50,
        gain in 0.08f64..1.0,
        noise_amp in 0.01f64..0.05,
    ) {
        let (template, signal) = planted(rung, fill, offset_frac, template_seed, gain, noise_amp);
        let f64_filter = MatchedFilter::new(&template).unwrap();
        let f32_filter = F32MatchedFilter::new(&template).unwrap();
        let reference = f64_filter.correlate_normalized(&signal).unwrap();
        let single = f32_filter.correlate_normalized(&signal).unwrap();
        prop_assert_eq!(reference.len(), single.len());
        let (ref_idx, ref_peak) = argmax(&reference).unwrap();
        let (f32_idx, f32_peak) = argmax(&single).unwrap();
        prop_assert!(
            (ref_idx as i64 - f32_idx as i64).abs() <= 1,
            "peak at {ref_idx} (f64) vs {f32_idx} (f32), gain {gain:.2}"
        );
        prop_assert!(
            (ref_peak - f32_peak).abs() <= 1e-3,
            "peak value {ref_peak:.6} (f64) vs {f32_peak:.6} (f32)"
        );
    }
}

#[test]
fn saturating_arithmetic_edge_cases() {
    // ±1.0 inputs: quantisation saturates cleanly and the FFT's BFP guard
    // absorbs the growth without wrapping.
    let n = 512;
    let square: Vec<Complex64> = (0..n)
        .map(|i| Complex64::from_re(if i % 2 == 0 { 1.0 } else { -1.0 }))
        .collect();
    let reference = fft(&square).unwrap();
    let mut data = quantize(&square);
    assert!(data.iter().all(|c| c.re == Q15::MAX || c.re == Q15::MIN));
    let mut plan = FixedFftPlan::new(n).unwrap();
    let scale = plan.process_forward(&mut data).unwrap();
    let snr = sqnr_db(&reference, &dequantize(&data, scale));
    assert!(snr >= 55.0, "full-scale square-wave SQNR {snr:.1} dB");

    // All-zero buffers: transforms and correlators return exact zeros.
    let mut zeros = vec![ComplexQ15::ZERO; n];
    let scale = plan.process_forward(&mut zeros).unwrap();
    assert!(scale.is_finite());
    assert!(zeros.iter().all(|c| *c == ComplexQ15::ZERO));

    let filter = Q15MatchedFilter::new(&[1.0, -1.0, 0.25, 0.5]).unwrap();
    let out = filter.correlate_normalized(&vec![0.0; 128]).unwrap();
    assert!(out.iter().all(|&v| v == 0.0));

    // A ±1.0 square template correlated against itself: the peak is exactly
    // at lag 0 with normalised value ≈ 1 on both paths.
    let template: Vec<f64> = (0..64)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let mut signal = template.clone();
    signal.extend(std::iter::repeat_n(0.0, 512));
    let q15 = Q15MatchedFilter::new(&template).unwrap();
    let f64f = MatchedFilter::new(&template).unwrap();
    let (qi, qp) = argmax(&q15.correlate_normalized(&signal).unwrap()).unwrap();
    let (fi, fp) = argmax(&f64f.correlate_normalized(&signal).unwrap()).unwrap();
    assert_eq!(qi, 0);
    assert_eq!(fi, 0);
    assert!((qp - fp).abs() < 0.01, "q15 {qp} vs f64 {fp}");
    assert!(qp > 0.99, "self-correlation peak {qp}");
}

#[test]
fn numeric_path_knob_is_exported_through_the_stack() {
    // The knob the higher layers thread down is this crate's type.
    assert_eq!(NumericPath::default(), NumericPath::F64);
    assert_eq!(NumericPath::F64.slug(), "f64");
    assert_eq!(NumericPath::F32.slug(), "f32");
    assert_eq!(NumericPath::Q15.slug(), "q15");
}

/// The normalised correlation values of the two paths agree tightly at
/// every lag whose window carries meaningful energy. (Quiet lags inside an
/// overlap-save block that also contains a loud template inherit the
/// block's BFP noise floor — bounded separately in `uw_dsp::fixed`'s unit
/// tests — and stay far below detection thresholds.)
#[test]
fn normalized_correlation_agrees_on_energetic_windows() {
    let template: Vec<f64> = (0..300).map(|i| ((i as f64) * 0.7).sin()).collect();
    let f64_filter = MatchedFilter::new(&template).unwrap();
    let q15_filter = Q15MatchedFilter::new(&template).unwrap();
    // Several blocks long, template embedded mid-stream over a uniform
    // noise floor so every window has energy.
    let total = q15_filter.block_len() * 3 + 77;
    let mut signal: Vec<f64> = (0..total)
        .map(|i| 0.05 * ((i as f64) * 0.377).sin() + 0.04 * ((i as f64) * 1.13).cos())
        .collect();
    let offset = q15_filter.block_len() + 13;
    for (i, &t) in template.iter().enumerate() {
        signal[offset + i] += 0.8 * t;
    }
    let reference = f64_filter.correlate_normalized(&signal).unwrap();
    let fixed = q15_filter.correlate_normalized(&signal).unwrap();
    let max_err = reference
        .iter()
        .zip(fixed.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_err < 0.02, "max normalised-corr error {max_err}");
    let (ri, _) = argmax(&reference).unwrap();
    let (fi, _) = argmax(&fixed).unwrap();
    assert_eq!(ri, offset);
    assert!((ri as i64 - fi as i64).abs() <= 1);
}
