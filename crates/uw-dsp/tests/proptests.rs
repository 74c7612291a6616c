//! Property-based tests for the DSP substrate.
//!
//! These check invariants that must hold for *any* input, not just the
//! hand-picked vectors in the unit tests: FFT round-trips and linearity,
//! correlation peak location, Zadoff–Chu CAZAC properties, CRC and
//! bit-field round-trips, and percentile ordering.

use proptest::prelude::*;
use uw_dsp::coding::{crc16, push_uint, read_uint};
use uw_dsp::complex::{to_complex, Complex64};
use uw_dsp::correlation::{argmax, xcorr_direct, xcorr_fft, xcorr_normalized};
use uw_dsp::fft::{fft, ifft, next_pow2, rfft};
use uw_dsp::peaks::{percentile, ErrorStats};
use uw_dsp::resample::{fractional_delay, resample};
use uw_dsp::zc::{circular_autocorr, gcd, zadoff_chu};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_ifft_roundtrip(signal in prop::collection::vec(-100.0f64..100.0, 1..256)) {
        let n = next_pow2(signal.len());
        let mut padded = signal.clone();
        padded.resize(n, 0.0);
        let spec = fft(&to_complex(&padded)).unwrap();
        let back = ifft(&spec).unwrap();
        for (a, b) in padded.iter().zip(back.iter()) {
            prop_assert!((a - b.re).abs() < 1e-8);
            prop_assert!(b.im.abs() < 1e-8);
        }
    }

    #[test]
    fn fft_preserves_energy(signal in prop::collection::vec(-10.0f64..10.0, 1..200)) {
        let n = next_pow2(signal.len());
        let spec = rfft(&signal, n).unwrap();
        let time_energy: f64 = signal.iter().map(|s| s * s).sum();
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((time_energy - freq_energy).abs() < 1e-6 * (1.0 + time_energy));
    }

    #[test]
    fn direct_and_fft_xcorr_agree(
        signal in prop::collection::vec(-5.0f64..5.0, 32..200),
        tmpl_len in 2usize..30,
    ) {
        let tmpl_len = tmpl_len.min(signal.len());
        let template: Vec<f64> = signal.iter().take(tmpl_len).map(|s| s * 0.7 + 0.1).collect();
        let d = xcorr_direct(&signal, &template).unwrap();
        let f = xcorr_fft(&signal, &template).unwrap();
        prop_assert_eq!(d.len(), f.len());
        for (a, b) in d.iter().zip(f.iter()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn normalized_xcorr_finds_embedded_template(
        template in prop::collection::vec(-1.0f64..1.0, 16..64),
        offset in 0usize..100,
        gain in 0.01f64..10.0,
    ) {
        // Skip degenerate templates with almost no energy.
        let energy: f64 = template.iter().map(|t| t * t).sum();
        prop_assume!(energy > 0.5);
        let mut signal = vec![0.0; offset + template.len() + 50];
        for (i, &t) in template.iter().enumerate() {
            signal[offset + i] = gain * t;
        }
        let corr = xcorr_normalized(&signal, &template).unwrap();
        let (idx, peak) = argmax(&corr).unwrap();
        prop_assert_eq!(idx, offset);
        prop_assert!(peak > 0.999);
    }

    #[test]
    fn zc_is_cazac(root in 1usize..30, len_sel in 0usize..4) {
        let lens = [31usize, 61, 127, 139];
        let n = lens[len_sel];
        prop_assume!(gcd(root, n) == 1 && root < n);
        let seq = zadoff_chu(n, root).unwrap();
        for c in &seq {
            prop_assert!((c.abs() - 1.0).abs() < 1e-10);
        }
        for lag in [1usize, 2, n / 2, n - 1] {
            prop_assert!(circular_autocorr(&seq, lag).unwrap() < 1e-7);
        }
    }

    #[test]
    fn crc_differs_on_any_single_flip(bits in prop::collection::vec(any::<bool>(), 8..128), flip in 0usize..128) {
        let idx = flip % bits.len();
        let mut corrupted = bits.clone();
        corrupted[idx] = !corrupted[idx];
        prop_assert_ne!(crc16(&bits), crc16(&corrupted));
    }

    #[test]
    fn uint_fields_roundtrip(vals in prop::collection::vec((0u64..1024, 1usize..16), 1..20)) {
        let mut bits = Vec::new();
        let mut expected = Vec::new();
        for &(v, w) in &vals {
            let masked = v & ((1u64 << w) - 1);
            push_uint(&mut bits, masked, w);
            expected.push((masked, w));
        }
        let mut offset = 0;
        for (v, w) in expected {
            let (got, next) = read_uint(&bits, offset, w).unwrap();
            prop_assert_eq!(got, v);
            offset = next;
        }
    }

    #[test]
    fn percentiles_are_ordered(samples in prop::collection::vec(0.0f64..100.0, 1..200)) {
        let p25 = percentile(&samples, 25.0);
        let p50 = percentile(&samples, 50.0);
        let p95 = percentile(&samples, 95.0);
        prop_assert!(p25 <= p50 + 1e-12);
        prop_assert!(p50 <= p95 + 1e-12);
        let stats = ErrorStats::from_samples(&samples).unwrap();
        prop_assert!(stats.median <= stats.p95 + 1e-12);
        prop_assert!(stats.p95 <= stats.max + 1e-12);
        prop_assert!(stats.mean <= stats.max + 1e-12);
    }

    #[test]
    fn fractional_delay_preserves_energy_bound(
        signal in prop::collection::vec(-1.0f64..1.0, 8..100),
        delay in 0.0f64..20.0,
    ) {
        let delayed = fractional_delay(&signal, delay).unwrap();
        prop_assert_eq!(delayed.len(), signal.len());
        let e_in: f64 = signal.iter().map(|s| s * s).sum();
        let e_out: f64 = delayed.iter().map(|s| s * s).sum();
        // Linear interpolation plus truncation can only lose energy.
        prop_assert!(e_out <= e_in + 1e-9);
    }

    #[test]
    fn resample_length_matches_ratio(len in 10usize..500, ratio in 0.5f64..2.0) {
        let signal = vec![1.0; len];
        let out = resample(&signal, ratio).unwrap();
        let expected = (len as f64 * ratio).floor() as usize;
        prop_assert_eq!(out.len(), expected);
    }

    #[test]
    fn complex_field_axioms(re1 in -10.0f64..10.0, im1 in -10.0f64..10.0, re2 in -10.0f64..10.0, im2 in -10.0f64..10.0) {
        let a = Complex64::new(re1, im1);
        let b = Complex64::new(re2, im2);
        // Commutativity.
        let ab = a * b;
        let ba = b * a;
        prop_assert!((ab.re - ba.re).abs() < 1e-9 && (ab.im - ba.im).abs() < 1e-9);
        // |ab| = |a||b|
        prop_assert!((ab.abs() - a.abs() * b.abs()).abs() < 1e-6);
        // conj(ab) = conj(a) conj(b)
        let lhs = ab.conj();
        let rhs = a.conj() * b.conj();
        prop_assert!((lhs.re - rhs.re).abs() < 1e-9 && (lhs.im - rhs.im).abs() < 1e-9);
    }
}
