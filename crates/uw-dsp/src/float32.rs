//! Single-precision (f32) numeric path for the ranging hot loop.
//!
//! Phone DSPs and mobile NEON pipelines run float audio work in `f32`:
//! half the memory traffic of `f64` and **twice the SIMD lanes per
//! register** (`[f32; 8]` vs `[f64; 4]` in one AVX2/dual-NEON register).
//! This module is the f32 path's half of the generic plan core
//! ([`crate::plan`]) and matched-filter driver ([`crate::matched`]):
//!
//! * [`Complex32`] — the single-precision complex sample.
//! * The `f32` [`Path`]: the butterfly schedule and lane kernels it
//!   shares with the `f64` oracle (the first three stages in one sweep of
//!   8-point cells, later stages two at a time, through the generic float
//!   kernels of the crate's `lanes` module at `[f32; 8]` width), behind the
//!   [`F32Radix2Plan`] / [`F32FftPlan`] / [`F32PlanPool`] aliases.
//! * [`F32MatchedFilter`]: the generic overlap-save filter on this path.
//!   Each block runs on the shortest rung of its block-length ladder that
//!   covers the block, through the half-length real-input leg this path
//!   shares with the `f64` oracle ([`crate::matched::RealLeg`]).
//!
//! ## Precision contract
//!
//! All twiddle, chirp, and chirp-spectrum tables are computed in `f64` and
//! rounded to `f32` once, so table error is ½ ULP rather than accumulated.
//! The differential harness (`tests/fixed_vs_float.rs`) pins this path
//! against the `f64` oracle: ≥ 100 dB SQNR for radix-2 forward transforms,
//! ≥ 95 dB for round-trips, ≥ 85 dB for Bluestein at the paper's symbol
//! length, and matched-filter peak position within ±1 sample — inside the
//! acoustic SNR budget. Wall-clock, the f32 filter runs the same blocks as
//! the f64 oracle with half-width samples, so twice the lanes per register
//! and half the memory traffic: on the paper preamble it takes about 0.8×
//! the f64 filter's time per call (0.13 against 0.17 ms on a 14,112-sample
//! capture, 0.37 against 0.46 ms on a 29,840-sample one; both filters in
//! one process on a 2-vCPU AVX-512 x86-64 VM).
//!
//! Normalised correlation divides by sliding window energies accumulated
//! as `f64` prefix sums **of the f32-cast samples**, so numerator and
//! denominator see the same quantisation — the same policy the Q15 path
//! uses ([`crate::fixed::Q15MatchedFilter`]).

use crate::complex::Complex64;
use crate::lanes;
use crate::matched::OverlapSave;
use crate::plan::{float_stages, Float, Path, Plan, Pool, Radix2};

/// A single-precision complex number (mirror of [`Complex64`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex32 {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

impl Complex32 {
    /// The additive identity.
    pub const ZERO: Complex32 = Complex32 { re: 0.0, im: 0.0 };

    /// Creates a complex number from parts.
    #[inline]
    pub fn new(re: f32, im: f32) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub fn from_re(re: f32) -> Self {
        Self { re, im: 0.0 }
    }

    /// Rounds a [`Complex64`] to single precision.
    #[inline]
    pub fn from_complex64(c: Complex64) -> Self {
        Self {
            re: c.re as f32,
            im: c.im as f32,
        }
    }

    /// Widens back to double precision.
    #[inline]
    pub fn to_complex64(self) -> Complex64 {
        Complex64::new(self.re as f64, self.im as f64)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm_sqr(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f32 {
        self.norm_sqr().sqrt()
    }
}

impl std::ops::Add for Complex32 {
    type Output = Complex32;
    #[inline]
    fn add(self, rhs: Complex32) -> Complex32 {
        Complex32::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex32 {
    type Output = Complex32;
    #[inline]
    fn sub(self, rhs: Complex32) -> Complex32 {
        Complex32::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for Complex32 {
    type Output = Complex32;
    #[inline]
    fn mul(self, rhs: Complex32) -> Complex32 {
        Complex32::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl std::ops::Mul<f32> for Complex32 {
    type Output = Complex32;
    #[inline]
    fn mul(self, rhs: f32) -> Complex32 {
        Complex32::new(self.re * rhs, self.im * rhs)
    }
}

impl Path for f32 {
    type Real = f32;
    type Complex = Complex32;
    type Shift = ();
    type Scale = ();

    #[inline]
    fn quantize(c: Complex64) -> Complex32 {
        Complex32::from_complex64(c)
    }
    #[inline]
    fn conj(c: Complex32) -> Complex32 {
        c.conj()
    }
    #[inline]
    fn split(c: Complex32) -> (f32, f32) {
        (c.re, c.im)
    }
    #[inline]
    fn join(re: f32, im: f32) -> Complex32 {
        Complex32::new(re, im)
    }
    fn stages(re: &mut [f32], im: &mut [f32], twr: &[f32], twi: &[f32]) -> i32 {
        float_stages::<Self>(re, im, twr, twi)
    }
    fn normalize(re: &mut [f32], im: &mut [f32], n: usize) {
        lanes::scale::<Self>(re, im, Self::recip_len(n));
    }
    fn mul_spectrum(x_re: &mut [f32], x_im: &mut [f32], t_re: &[f32], t_im: &[f32]) {
        lanes::cmul::<Self>(x_re, x_im, t_re, t_im);
    }
    fn shift(_: i32) {}
    fn scale(_: i32, _: f64, _: usize) {}
}

impl Float for f32 {
    const LANES: usize = 8;

    #[inline]
    fn recip_len(n: usize) -> f32 {
        1.0 / n as f32
    }
    #[inline]
    fn from_f64(x: f64) -> f32 {
        x as f32
    }
    #[inline]
    fn to_f64(x: f32) -> f64 {
        x as f64
    }
}

/// The single-precision radix-2 plan, executed through the `[f32; 8]`
/// lane kernels with fused stages.
pub type F32Radix2Plan = Radix2<f32>;

/// The single-precision FFT plan: radix-2 or Bluestein, any length ≥ 1.
pub type F32FftPlan = Plan<f32>;

/// The pool of single-precision FFT plans.
pub type F32PlanPool = Pool<f32>;

/// The single-precision matched filter: `f64` at the API boundary (the
/// capture layer hands over `f64` streams), `f32` SoA inside, through the
/// shared real-input leg ([`crate::matched::RealLeg`]) at up to
/// `next_pow2(2 · template_len)`. The template is cast once per rung,
/// incoming signals once per block, and the normalisation denominator uses
/// `f64` prefix sums **of the f32-cast samples**, so numerator and
/// denominator see the same quantisation.
pub type F32MatchedFilter = OverlapSave<f32>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{fft, fft_any};

    fn cast(signal: &[Complex64]) -> Vec<Complex32> {
        signal
            .iter()
            .map(|&c| Complex32::from_complex64(c))
            .collect()
    }

    /// Signal-to-quantisation-noise ratio (dB) of the f32 result against the
    /// f64 reference.
    fn sqnr_db(reference: &[Complex64], got: &[Complex32]) -> f64 {
        let sig: f64 = reference.iter().map(|c| c.norm_sqr()).sum();
        let err: f64 = reference
            .iter()
            .zip(got.iter())
            .map(|(r, f)| (*r - f.to_complex64()).norm_sqr())
            .sum();
        10.0 * (sig / err.max(f64::MIN_POSITIVE)).log10()
    }

    fn test_signal(n: usize, amp: f64) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                Complex64::new(
                    amp * (i as f64 * 0.37).sin(),
                    amp * 0.5 * (i as f64 * 0.11).cos(),
                )
            })
            .collect()
    }

    #[test]
    fn complex32_arithmetic() {
        let a = Complex32::new(1.5, -0.5);
        let b = Complex32::new(-2.0, 0.25);
        assert_eq!(a + b, Complex32::new(-0.5, -0.25));
        assert_eq!(a - b, Complex32::new(3.5, -0.75));
        let p = a * b;
        assert!((p.re - (1.5 * -2.0 - -0.5 * 0.25)).abs() < 1e-6);
        assert!((p.im - (1.5 * 0.25 + -0.5 * -2.0)).abs() < 1e-6);
        assert_eq!(a.conj().im, 0.5);
        assert!((a.norm_sqr() - 2.5).abs() < 1e-6);
        assert!((Complex32::from_re(3.0).abs() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn radix2_forward_tracks_the_oracle() {
        for n in [4usize, 64, 256, 2048] {
            let signal = test_signal(n, 0.5);
            let reference = fft(&signal).unwrap();
            let mut data = cast(&signal);
            let plan = F32Radix2Plan::new(n).unwrap();
            plan.forward(&mut data).unwrap();
            let snr = sqnr_db(&reference, &data);
            assert!(snr >= 100.0, "n={n}: SQNR {snr:.1} dB");
        }
    }

    #[test]
    fn lane_path_is_bit_identical_to_the_scalar_reference() {
        // Every power of two up to 4096, so every boundary of the stage
        // schedule (fused first stages, stage pairs, a final odd stage) is
        // pinned.
        for n in (0..=12).map(|s| 1usize << s) {
            let signal = test_signal(n, 0.8);
            let plan = F32Radix2Plan::new(n).unwrap();
            let mut lane = cast(&signal);
            let mut scalar = lane.clone();
            plan.forward(&mut lane).unwrap();
            plan.forward_scalar(&mut scalar).unwrap();
            assert_eq!(lane, scalar, "forward n={n}");
            plan.inverse(&mut lane).unwrap();
            plan.inverse_scalar(&mut scalar).unwrap();
            assert_eq!(lane, scalar, "inverse n={n}");
        }
    }

    #[test]
    fn soa_entry_points_match_the_interleaved_wrappers() {
        for n in [4usize, 64, 1024] {
            let signal = test_signal(n, 0.6);
            let plan = F32Radix2Plan::new(n).unwrap();
            let mut aos = cast(&signal);
            let mut re: Vec<f32> = aos.iter().map(|c| c.re).collect();
            let mut im: Vec<f32> = aos.iter().map(|c| c.im).collect();
            plan.forward(&mut aos).unwrap();
            plan.forward_soa(&mut re, &mut im).unwrap();
            for (c, (r, x)) in aos.iter().zip(re.iter().zip(im.iter())) {
                assert_eq!(c.re, *r);
                assert_eq!(c.im, *x);
            }
        }
    }

    #[test]
    fn roundtrip_preserves_the_signal() {
        for n in [64usize, 1024, 2048] {
            let signal = test_signal(n, 0.7);
            let mut data = cast(&signal);
            let mut plan = F32FftPlan::new(n).unwrap();
            plan.process_forward(&mut data).unwrap();
            plan.process_inverse(&mut data).unwrap();
            let snr = sqnr_db(&signal, &data);
            assert!(snr >= 95.0, "n={n}: round-trip SQNR {snr:.1} dB");
        }
    }

    #[test]
    fn bluestein_handles_the_symbol_length() {
        for n in [45usize, 97, 1920] {
            let signal = test_signal(n, 0.6);
            let reference = fft_any(&signal).unwrap();
            let mut data = cast(&signal);
            let mut plan = F32FftPlan::new(n).unwrap();
            plan.process_forward(&mut data).unwrap();
            let snr = sqnr_db(&reference, &data);
            assert!(snr >= 85.0, "n={n}: Bluestein SQNR {snr:.1} dB");
        }
    }

    #[test]
    fn plan_rejects_bad_lengths() {
        assert!(F32FftPlan::new(0).is_err());
        assert!(F32Radix2Plan::new(0).is_err());
        assert!(F32Radix2Plan::new(48).is_err());
        assert!(F32PlanPool::new(0).is_err());
        let mut plan = F32FftPlan::new(64).unwrap();
        let mut wrong = vec![Complex32::ZERO; 32];
        assert!(plan.process_forward(&mut wrong).is_err());
        assert!(plan.process_inverse(&mut wrong).is_err());
        let radix = F32Radix2Plan::new(64).unwrap();
        assert!(radix.forward_soa(&mut [0.0; 32], &mut [0.0; 64]).is_err());
        assert!(radix.inverse_soa(&mut [0.0; 64], &mut [0.0; 32]).is_err());
        assert!(radix.forward_scalar(&mut [Complex32::ZERO; 16]).is_err());
        assert!(radix.inverse_scalar(&mut [Complex32::ZERO; 16]).is_err());
    }

    #[test]
    fn pool_shares_and_replenishes() {
        let pool = F32PlanPool::new(1920).unwrap();
        assert_eq!(pool.len(), 1920);
        let signal = test_signal(1920, 0.6);
        let reference = fft_any(&signal).unwrap();
        let out = pool.with(|outer| {
            let mut a = cast(&signal);
            outer.process_forward(&mut a).unwrap();
            let b = pool.with(|inner| {
                let mut b = cast(&signal);
                inner.process_forward(&mut b).unwrap();
                b
            });
            (a, b)
        });
        assert!(sqnr_db(&reference, &out.0) >= 85.0);
        assert!(sqnr_db(&reference, &out.1) >= 85.0);
    }

    #[test]
    fn matched_filter_finds_the_template() {
        let template: Vec<f64> = (0..257).map(|i| ((i as f64) * 0.31).cos()).collect();
        let mut signal: Vec<f64> = (0..4001)
            .map(|i| 0.01 * ((i as f64) * 0.377).sin())
            .collect();
        for (i, &t) in template.iter().enumerate() {
            signal[900 + i] += t;
        }
        let filter = F32MatchedFilter::new(&template).unwrap();
        let corr = filter.correlate_normalized(&signal).unwrap();
        let (idx, peak) = crate::correlation::argmax(&corr).unwrap();
        assert_eq!(idx, 900);
        assert!(peak > 0.9, "peak {peak}");
        let reference = crate::correlation::xcorr_normalized(&signal, &template).unwrap();
        assert_eq!(corr.len(), reference.len());
        let max_err = corr
            .iter()
            .zip(reference.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-3, "max normalised-corr error {max_err}");
    }

    #[test]
    fn matched_filter_edge_cases() {
        assert!(F32MatchedFilter::new(&[]).is_err());
        assert!(F32MatchedFilter::new(&[0.0; 32]).is_err());
        let filter = F32MatchedFilter::new(&[1.0, -1.0, 0.5]).unwrap();
        let mut out = Vec::new();
        assert!(filter.correlate_into(&[], &mut out).is_err());
        assert!(filter.correlate_into(&[1.0, 2.0], &mut out).is_err());
        assert_eq!(filter.output_len(10).unwrap(), 8);
        let zeros = vec![0.0; 64];
        filter.correlate_normalized_into(&zeros, &mut out).unwrap();
        assert!(out.iter().all(|&v| v == 0.0));
        // Pool reuse and clones are bit-identical.
        let template: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.9).sin()).collect();
        let filter = F32MatchedFilter::new(&template).unwrap();
        let signal: Vec<f64> = (0..1200).map(|i| ((i as f64) * 0.23).sin()).collect();
        let first = filter.correlate_normalized(&signal).unwrap();
        for _ in 0..3 {
            assert_eq!(filter.correlate_normalized(&signal).unwrap(), first);
        }
        assert_eq!(filter.clone().correlate_normalized(&signal).unwrap(), first);
    }
}
