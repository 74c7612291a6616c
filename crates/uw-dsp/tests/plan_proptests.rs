//! Property-based tests for the plan-based DSP execution layer.
//!
//! The plan layer (`FftPlan` / `MatchedFilter`) must be a
//! drop-in replacement for the one-shot reference path: identical output to
//! `fft` / `fft_any` / `xcorr_normalized` across arbitrary (including odd)
//! lengths, clean rejection of mismatched buffer lengths, and stability
//! under plan reuse.

use proptest::prelude::*;
use uw_dsp::complex::{to_complex, Complex64};
use uw_dsp::correlation::{xcorr_fft, xcorr_normalized};
use uw_dsp::fft::{fft_any, ifft_any};
use uw_dsp::matched::MatchedFilter;
use uw_dsp::plan::FftPlan;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plan_forward_matches_fft_any_on_any_length(
        signal in prop::collection::vec(-50.0f64..50.0, 1..300),
    ) {
        let cx = to_complex(&signal);
        let reference = fft_any(&cx).unwrap();
        let mut plan = FftPlan::new(cx.len()).unwrap();
        let mut buf = cx.clone();
        plan.process_forward(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(reference.iter()) {
            prop_assert!((a.re - b.re).abs() < 1e-9 * (1.0 + b.abs()));
            prop_assert!((a.im - b.im).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn plan_inverse_matches_ifft_any_and_roundtrips(
        signal in prop::collection::vec(-20.0f64..20.0, 1..256),
    ) {
        let cx = to_complex(&signal);
        let reference = ifft_any(&cx).unwrap();
        let mut plan = FftPlan::new(cx.len()).unwrap();
        let mut buf = cx.clone();
        plan.process_inverse(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(reference.iter()) {
            prop_assert!((a.re - b.re).abs() < 1e-9);
            prop_assert!((a.im - b.im).abs() < 1e-9);
        }
        // Forward ∘ inverse through the same plan is the identity.
        let mut rt = cx.clone();
        plan.process_forward(&mut rt).unwrap();
        plan.process_inverse(&mut rt).unwrap();
        for (a, b) in rt.iter().zip(cx.iter()) {
            prop_assert!((a.re - b.re).abs() < 1e-9);
            prop_assert!((a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn plan_rejects_mismatched_lengths_cleanly(
        plan_len in 1usize..128,
        data_len in 1usize..128,
    ) {
        prop_assume!(plan_len != data_len);
        let mut plan = FftPlan::new(plan_len).unwrap();
        let mut wrong = vec![Complex64::ZERO; data_len];
        prop_assert!(plan.process_forward(&mut wrong).is_err());
        prop_assert!(plan.process_inverse(&mut wrong).is_err());
        // The rejection must not poison the plan.
        let mut right = vec![Complex64::ONE; plan_len];
        prop_assert!(plan.process_forward(&mut right).is_ok());
    }

    #[test]
    fn matched_filter_matches_one_shot_normalized_correlation(
        signal in prop::collection::vec(-5.0f64..5.0, 64..400),
        tmpl_len in 3usize..60,
    ) {
        let tmpl_len = tmpl_len.min(signal.len());
        let template: Vec<f64> = signal.iter().take(tmpl_len).map(|s| s * 0.8 + 0.05).collect();
        let energy: f64 = template.iter().map(|t| t * t).sum();
        prop_assume!(energy > 1e-6);
        let reference = xcorr_normalized(&signal, &template).unwrap();
        let filter = MatchedFilter::new(&template).unwrap();
        let streamed = filter.correlate_normalized(&signal).unwrap();
        prop_assert_eq!(streamed.len(), reference.len());
        for (a, b) in streamed.iter().zip(reference.iter()) {
            prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
        }
    }

    #[test]
    fn matched_filter_raw_matches_xcorr_fft(
        signal in prop::collection::vec(-3.0f64..3.0, 32..300),
        tmpl_len in 2usize..40,
    ) {
        let tmpl_len = tmpl_len.min(signal.len());
        let template: Vec<f64> = signal.iter().rev().take(tmpl_len).map(|s| s + 0.1).collect();
        let energy: f64 = template.iter().map(|t| t * t).sum();
        prop_assume!(energy > 1e-6);
        let reference = xcorr_fft(&signal, &template).unwrap();
        let filter = MatchedFilter::new(&template).unwrap();
        let mut out = Vec::new();
        filter.correlate_into(&signal, &mut out).unwrap();
        prop_assert_eq!(out.len(), reference.len());
        let scale: f64 = 1.0 + reference.iter().fold(0.0f64, |m, r| m.max(r.abs()));
        for (a, b) in out.iter().zip(reference.iter()) {
            prop_assert!((a - b).abs() < 1e-9 * scale, "{} vs {}", a, b);
        }
    }

    #[test]
    fn matched_filter_rejects_short_signals(
        tmpl_len in 2usize..50,
        deficit in 1usize..10,
    ) {
        let template: Vec<f64> = (0..tmpl_len).map(|i| (i as f64 * 0.4).sin() + 0.2).collect();
        let filter = MatchedFilter::new(&template).unwrap();
        let short_len = tmpl_len.saturating_sub(deficit).max(1);
        prop_assume!(short_len < tmpl_len);
        let short = vec![1.0; short_len];
        prop_assert!(filter.correlate_normalized(&short).is_err());
    }
}
