//! Single-precision (f32) numeric path for the ranging hot loop.
//!
//! Phone DSPs and mobile NEON pipelines run float audio work in `f32`:
//! half the memory traffic of `f64` and **twice the SIMD lanes per
//! register** (`[f32; 8]` vs `[f64; 4]` in one AVX2/dual-NEON register).
//! This module is the f32 path's half of the generic plan core
//! ([`crate::plan`]) and matched-filter driver ([`crate::matched`]):
//!
//! * [`Complex32`] — the single-precision complex sample.
//! * The `f32` [`Path`]: fused butterfly stages (the first three stages
//!   in one sweep of 8-point cells, later stages two at a time) through
//!   the `[f32; 8]` lane kernels in [`crate::lanes`], behind the
//!   [`F32Radix2Plan`] / [`F32FftPlan`] / [`F32PlanPool`] aliases.
//! * The `f32` [`Correlate`] block behind [`F32MatchedFilter`]: a
//!   half-length real-input transform with a half-size tail leg.
//!
//! ## Precision contract
//!
//! All twiddle, chirp, and chirp-spectrum tables are computed in `f64` and
//! rounded to `f32` once, so table error is ½ ULP rather than accumulated.
//! The differential harness (`tests/fixed_vs_float.rs`) pins this path
//! against the `f64` oracle: ≥ 100 dB SQNR for radix-2 forward transforms,
//! ≥ 95 dB for round-trips, ≥ 85 dB for Bluestein at the paper's symbol
//! length, and matched-filter peak position within ±1 sample — inside the
//! acoustic SNR budget. Wall-clock, the 65k detection-stream correlation
//! runs ~6× faster than the f64 matched filter (~0.5 ms vs ~3.2 ms in
//! `BENCH_pipeline.json`): half-width samples double the lanes, and the
//! real-input half-length transform halves the FFT work again.
//!
//! Normalised correlation divides by sliding window energies accumulated
//! as `f64` prefix sums **of the f32-cast samples**, so numerator and
//! denominator see the same quantisation — the same policy the Q15 path
//! uses ([`crate::fixed::Q15MatchedFilter`]).

use crate::complex::Complex64;
use crate::fft::next_pow2;
use crate::lanes;
use crate::matched::{divide_by_windows, prefix_sums, Correlate, FloatScratch, OverlapSave};
use crate::plan::{for_each_group, stage_twiddles, Float, Path, Plan, Pool, Radix2};
use crate::Result;

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
        let n = re.len();
        let mut half = 1usize;
        if n >= 8 {
            // Stages half=1,2,4 fused into one sweep of closed 8-point
            // cells (see `butterfly_f32_first3`).
            lanes::butterfly_f32_first3(re, im, &twr[0..7], &twi[0..7]);
            half = 8;
        }
        while half < n {
            let (swr, swi) = stage_twiddles(twr, twi, half);
            if half < lanes::F32_LANES {
                // Tiny transforms (n < 8) never reach the fused pass; run
                // the whole sub-lane stage in one flat kernel pass.
                lanes::butterfly_f32_small(re, im, swr, swi);
                half <<= 1;
            } else if half * 2 < n {
                // Two more stages exist: fuse this stage with the next one
                // into a single radix-4-cell sweep.
                let (nwr, nwi) = stage_twiddles(twr, twi, 2 * half);
                lanes::butterfly_f32_pair(re, im, swr, swi, nwr, nwi);
                half <<= 2;
            } else {
                for_each_group(re, im, half, |er, ei, or, oi| {
                    lanes::butterfly_f32(er, ei, or, oi, swr, swi)
                });
                half <<= 1;
            }
        }
        0
    }
    fn normalize(re: &mut [f32], im: &mut [f32], n: usize) {
        lanes::scale_f32(re, im, Self::recip_len(n));
    }
    fn mul_spectrum(x_re: &mut [f32], x_im: &mut [f32], t_re: &[f32], t_im: &[f32]) {
        lanes::cmul_f32(x_re, x_im, t_re, t_im);
    }
    fn shift(_: i32) {}
    fn scale(_: i32, _: f64, _: usize) {}
}

impl Float for f32 {
    #[inline]
    fn recip_len(n: usize) -> f32 {
        1.0 / n as f32
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
/// capture layer hands over `f64` streams), `f32` SoA inside. The template
/// is cast once at construction, incoming signals once per block, and the
/// normalisation denominator uses `f64` prefix sums **of the f32-cast
/// samples**, so numerator and denominator see the same quantisation.
///
/// ## Real-input transform
///
/// Both the block and the template are real, so each overlap-save block
/// runs a **real-input FFT**: the `fft_len` real samples are packed as
/// `z[j] = x[2j] + i·x[2j+1]` into one complex transform of length
/// `fft_len / 2`, untangled to the physical half-spectrum, multiplied by
/// the conjugated template half-spectrum, re-packed, and inverted through
/// a second half-length transform whose output interleaves the real
/// correlation samples. Untangle, spectrum product and re-pack are fused
/// into a single symmetric pass, so a block costs two half-length FFTs
/// plus one O(fft_len/2) sweep — about 2.5× less transform work than the
/// complex-FFT formulation, with exactly the same convolution in exact
/// arithmetic (the pack identities are algebraic, not approximate).
///
/// ## Two-leg block plan
///
/// The filter carries two overlap-save configurations: a *main* leg with
/// block length `next_pow2(2·template_len)` and, when that is a longer
/// power of two than `next_pow2(template_len)`, a half-size *tail* leg.
/// The final block of a stream rarely has a full step of lags left, so
/// once the remaining output fits the tail's step the block runs through
/// the half-size transform at roughly half the cost. Block positions
/// always advance by the main step.
pub type F32MatchedFilter = OverlapSave<f32>;

/// The f32 filter's template state: the main leg and, when the template
/// allows a shorter power of two, the half-size tail leg.
#[derive(Clone)]
pub struct F32Template {
    main: F32Leg,
    tail: Option<F32Leg>,
}

/// One real-input overlap-save configuration of the f32 matched filter: a
/// block length, the template half-spectrum at that length, the untangle
/// twist table, and the half-length complex plan.
#[derive(Clone)]
struct F32Leg {
    /// Overlap-save block length in real samples (a power of two).
    fft_len: usize,
    /// Valid lags produced per block: `fft_len − template_len + 1`.
    step: usize,
    /// Conjugated template **half**-spectrum, SoA halves, `fft_len/2 + 1`
    /// bins (bins 0 and `fft_len/2` are real), pre-scaled by the inverse
    /// transform's 1/(fft_len/2) normalisation.
    tspec_re: Vec<f32>,
    tspec_im: Vec<f32>,
    /// Untangle twist factors `e^(−2πik/fft_len)` for `k = 0 ..= fft_len/2`,
    /// computed in f64 and rounded once.
    twist_re: Vec<f32>,
    twist_im: Vec<f32>,
    /// Half-length complex plan (`fft_len / 2`).
    plan: Radix2<f32>,
}

impl F32Leg {
    /// Precomputes one leg: the twist table, the conjugated (and
    /// 1/H-scaled) template half-spectrum at `fft_len`, and the
    /// half-length plan. Requires `fft_len ≥ template.len()`.
    fn build(template: &[f64], fft_len: usize) -> Result<Self> {
        let m = template.len();
        let half = fft_len / 2;
        let plan = Radix2::<f32>::new(half)?;

        // Untangle twist factors, f64-computed, rounded once.
        let mut twist_re = Vec::with_capacity(half + 1);
        let mut twist_im = Vec::with_capacity(half + 1);
        for k in 0..=half {
            let ang = -2.0 * std::f64::consts::PI * k as f64 / fft_len as f64;
            twist_re.push(ang.cos() as f32);
            twist_im.push(ang.sin() as f32);
        }

        // Template half-spectrum: pack the f32-cast template into the
        // half-length transform and untangle to the physical bins.
        let mut pack_re = vec![0.0f32; half];
        let mut pack_im = vec![0.0f32; half];
        for (j, &t) in template.iter().enumerate() {
            let tf = t as f32;
            if j % 2 == 0 {
                pack_re[j / 2] = tf;
            } else {
                pack_im[j / 2] = tf;
            }
        }
        plan.soa(&mut pack_re, &mut pack_im, true)?;
        let mut tspec_re = vec![0.0f32; half + 1];
        let mut tspec_im = vec![0.0f32; half + 1];
        let inv_h = 1.0 / half as f32;
        for k in 0..=half {
            let j = (half - k) % half;
            let (zr, zi) = (pack_re[k % half], pack_im[k % half]);
            let (yr, yi) = (pack_re[j], pack_im[j]);
            // X[k] = (Z[k] + conj(Z[h−k]))/2 − i·W^k·(Z[k] − conj(Z[h−k]))/2
            let xer = 0.5 * (zr + yr);
            let xei = 0.5 * (zi - yi);
            let xor_ = 0.5 * (zi + yi);
            let xoi = -0.5 * (zr - yr);
            let (wr, wi) = (twist_re[k], twist_im[k]);
            // Conjugated in place (the correlator multiplies by conj(T)) and
            // pre-scaled by 1/(fft_len/2): the half-length inverse transform
            // in `block` runs unnormalised, so its 1/H factor lives here,
            // applied once at construction instead of twice per block.
            tspec_re[k] = (xer + wr * xor_ - wi * xoi) * inv_h;
            tspec_im[k] = -(xei + wr * xoi + wi * xor_) * inv_h;
        }

        Ok(Self {
            fft_len,
            step: fft_len - m + 1,
            tspec_re,
            tspec_im,
            twist_re,
            twist_im,
            plan,
        })
    }

    /// Appends the `take` lags of the overlap-save block at lag `p`,
    /// computed in f32 through the lane kernels via the half-length
    /// real-input transform. `re` / `im` are the main leg's scratch; a
    /// tail leg borrows a prefix.
    fn block(
        &self,
        signal: &[f64],
        p: usize,
        take: usize,
        out: &mut Vec<f64>,
        re: &mut [f32],
        im: &mut [f32],
    ) -> Result<()> {
        let h = self.fft_len / 2;
        let re = &mut re[..h];
        let im = &mut im[..h];
        // Pack the real block: even samples → re, odd samples → im.
        let available = (signal.len() - p).min(self.fft_len);
        let block = &signal[p..p + available];
        let mut pairs = block.chunks_exact(2);
        let mut j = 0usize;
        for pair in &mut pairs {
            re[j] = pair[0] as f32;
            im[j] = pair[1] as f32;
            j += 1;
        }
        if let [last] = pairs.remainder() {
            re[j] = *last as f32;
            im[j] = 0.0;
            j += 1;
        }
        re[j..].fill(0.0);
        im[j..].fill(0.0);
        self.plan.soa(re, im, true)?;

        // Fused untangle → spectrum product → inverse re-pack, one
        // symmetric pass over the half-spectrum. For each mirror pair
        // (k, h−k): untangle Z to the physical bins X[k], X[h−k],
        // multiply by the conjugated template spectrum, then fold the
        // products Y straight back into the packed form the half-length
        // inverse transform expects (z[j] = y[2j] + i·y[2j+1] spectrum).
        //
        // Bin 0 pairs with bin h (both real-valued products):
        // X[0] = Re Z[0] + Im Z[0], X[h] = Re Z[0] − Im Z[0].
        let x0 = re[0] + im[0];
        let xh = re[0] - im[0];
        let y0 = x0 * self.tspec_re[0];
        let yh = xh * self.tspec_re[h];
        re[0] = 0.5 * (y0 + yh);
        im[0] = 0.5 * (y0 - yh);
        for k in 1..h / 2 + 1 {
            let j = h - k;
            let (zkr, zki) = (re[k], im[k]);
            let (zjr, zji) = (re[j], im[j]);
            let (wr, wi) = (self.twist_re[k], self.twist_im[k]);

            // Untangle both mirror bins: X[k] = Xe + W^k·Xo with
            // Xe = (Z[k] + conj(Z[j]))/2, Xo = −i·(Z[k] − conj(Z[j]))/2,
            // and X[j] = conj(Xe) + W^j·conj(Xo), W^j = −conj(W^k).
            let xer = 0.5 * (zkr + zjr);
            let xei = 0.5 * (zki - zji);
            let xor_ = 0.5 * (zki + zji);
            let xoi = -0.5 * (zkr - zjr);
            let xkr = xer + wr * xor_ - wi * xoi;
            let xki = xei + wr * xoi + wi * xor_;
            let xjr = xer - (wr * xor_ - wi * xoi);
            let xji = -xei + (wr * xoi + wi * xor_);

            // Pointwise product with the conjugated template spectrum.
            let (tkr, tki) = (self.tspec_re[k], self.tspec_im[k]);
            let (tjr, tji) = (self.tspec_re[j], self.tspec_im[j]);
            let ykr = xkr * tkr - xki * tki;
            let yki = xkr * tki + xki * tkr;
            let yjr = xjr * tjr - xji * tji;
            let yji = xjr * tji + xji * tjr;

            // Re-pack for the inverse: z[k] = Ye + i·Yo with
            // Ye = (Y[k] + conj(Y[j]))/2, Yo = conj(W^k)·(Y[k] − conj(Y[j]))/2,
            // and the mirror z[j] likewise with conjugated parts.
            let yer = 0.5 * (ykr + yjr);
            let yei = 0.5 * (yki - yji);
            let ydr = 0.5 * (ykr - yjr);
            let ydi = 0.5 * (yki + yji);
            let yor_ = wr * ydr + wi * ydi;
            let yoi = wr * ydi - wi * ydr;
            re[k] = yer - yoi;
            im[k] = yei + yor_;
            re[j] = yer + yoi;
            im[j] = -yei + yor_;
        }

        // Unscaled: the 1/H factor is folded into the template spectrum.
        self.plan.soa(re, im, false)?;
        // The inverse output interleaves the real correlation samples:
        // y[2j] = re[j], y[2j+1] = im[j].
        let start = out.len();
        out.resize(start + take, 0.0);
        let dst = &mut out[start..];
        for j in 0..take / 2 {
            dst[2 * j] = re[j] as f64;
            dst[2 * j + 1] = im[j] as f64;
        }
        if take % 2 == 1 {
            dst[take - 1] = re[take / 2] as f64;
        }
        Ok(())
    }
}

impl Correlate for f32 {
    type Template = F32Template;
    type Scratch = FloatScratch<f32>;

    fn template(template: &[f64]) -> Result<(F32Template, f64)> {
        let m = template.len();
        let norm_sq: f64 = template
            .iter()
            .map(|&t| {
                let tf = t as f32;
                tf as f64 * tf as f64
            })
            .fold(0.0, |acc, e| acc + e);
        // The real-input formulation halves the transform work, so the
        // optimum block is shorter than the complex filter's 4m: 2m keeps
        // the half-length transforms cache-resident at the preamble's size.
        let main_len = next_pow2(2 * m).max(1024);
        let main = F32Leg::build(template, main_len)?;
        // The shortest power of two that still holds the template gives the
        // cheap leg for the final partial block.
        let tail_len = next_pow2(m).max(1024);
        let tail = if tail_len < main_len {
            Some(F32Leg::build(template, tail_len)?)
        } else {
            None
        };
        Ok((F32Template { main, tail }, norm_sq.sqrt()))
    }

    fn block_len(t: &F32Template) -> usize {
        t.main.fft_len
    }

    fn scratch(t: &F32Template) -> FloatScratch<f32> {
        FloatScratch::new(t.main.fft_len / 2)
    }

    fn block(
        t: &F32Template,
        signal: &[f64],
        p: usize,
        take: usize,
        out: &mut Vec<f64>,
        s: &mut FloatScratch<f32>,
    ) -> Result<()> {
        // The half-size tail leg once the remaining lags fit its step.
        let leg = match &t.tail {
            Some(tail) if take <= tail.step => tail,
            _ => &t.main,
        };
        let (re, im) = s.lanes.split();
        leg.block(signal, p, take, out, re, im)
    }

    fn normalize_lags(
        signal: &[f64],
        out: &mut [f64],
        template_norm: f64,
        m: usize,
        s: &mut FloatScratch<f32>,
    ) {
        // The f32 cast here matches the quantisation the numerator saw.
        let energy = |&x: &f64| {
            let xf = x as f32;
            xf as f64 * xf as f64
        };
        prefix_sums(&mut s.prefix, signal.iter().map(energy));
        divide_by_windows(out, &s.prefix, m, template_norm, |hi, lo| hi - lo);
    }
}

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
        for n in [1usize, 2, 16, 256, 2048] {
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
