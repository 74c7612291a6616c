//! Fixed-point (Q15) numeric path for the ranging hot loop.
//!
//! The rest of this crate computes in `f64`, which is the right oracle for
//! correctness but not what commodity phones ship: production mobile DSP
//! runs on 16-bit fixed-point samples with 32/64-bit integer accumulators.
//! This module is that path's half of the generic plan core
//! ([`crate::plan`]) and matched-filter driver ([`crate::matched`]):
//!
//! * [`Q15`] — a 16-bit fixed-point sample in `[-1, 1)` with saturating,
//!   rounding arithmetic.
//! * [`ComplexQ15`] — a complex Q15 value whose products are computed in
//!   wide integer accumulators and rounded back to Q15.
//! * The `Q15` [`Path`]: block-floating-point (BFP) butterfly stages,
//!   half-scaled pointwise products and the scale bookkeeping, behind the
//!   [`FixedRadix2Plan`] / [`FixedFftPlan`] / [`FixedPlanPool`] aliases.
//!   Transforms return the accumulated scale factor so callers can
//!   reconstruct absolute magnitudes.
//! * The `Q15` [`Correlate`] block behind [`Q15MatchedFilter`]: one
//!   complex BFP leg per rung of the filter's block-length ladder, per-call
//!   quantisation of the stream and the BFP scale of every block.
//! * [`NumericPath`] — the knob higher layers thread through to select
//!   between the `f64` oracle, the f32 phone-float path
//!   ([`crate::float32`]) and this fixed-point path.
//!
//! ## Scaling strategy (block floating point)
//!
//! A radix-2 butterfly can grow a component by at most `1 + √2` per stage
//! (the even term plus a twiddle-rotated odd term). Before each stage the
//! plan scans the block's maximum component magnitude and right-shifts the
//! whole block (with rounding) until `max · (1 + √2) ≤ 32767`, so no
//! butterfly can saturate. The number of shifts is accumulated into the
//! scale factor the transform returns: the true spectrum equals the
//! dequantised output times `2^shifts` (inverse transforms fold the `1/N`
//! into the same factor). Every transform first renormalises the block
//! *up* to the guard ceiling — a quiet input, or a block shrunk by a
//! pointwise spectrum product, would otherwise run its early stages on a
//! short mantissa — again tracked in the scale. The result is a fixed
//! 16-bit mantissa with one shared exponent per block — the classic BFP
//! FFT phones and DSPs ship. The differential-testing harness
//! (`tests/fixed_vs_float.rs`) bounds this path against the `f64` oracle:
//! ≥ 60 dB SQNR for radix-2 forward transforms (≥ 55 dB for full
//! round-trips at the largest block) and matched-filter peak agreement
//! within ±1 sample.
//!
//! ## Lane-kernel execution
//!
//! The hot loops run in structure-of-arrays form: Q15 mantissas are
//! widened into separate `re[i32]` / `im[i32]` buffers and processed
//! through the `[i32; 8]` kernels in the crate's `lanes` module (BFP butterfly with
//! the per-stage shift fused, half-scaled pointwise products, and the
//! guard-scan block maximum). Unlike the float paths, Q15 runs one stage
//! per sweep: each stage scans the block for its guard shift before it
//! runs, so stages cannot be fused. The scalar BFP transforms remain as
//! test-only references (`forward_scalar` / `inverse_raw_scalar`), and the
//! unit tests pin the interleaved and SoA entry points **bit-identical** to
//! them at every power of two up to 65,536 — integer arithmetic leaves no
//! rounding slack, so neither vectorization nor the tiled bit reversal can
//! change a single sample.

use crate::complex::Complex64;
use crate::lanes;
use crate::matched::{divide_by_windows, prefix_sums, Correlate, OverlapSave};
use crate::plan::{
    for_each_group, soa_zeros, stage_twiddles, Lanes, Path, Plan, Pool, Radix2, Soa,
};
use crate::Result;
use serde::{Deserialize, Serialize};

/// Which numeric implementation the ranging hot loop runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum NumericPath {
    /// The double-precision reference path (the repository's oracle).
    #[default]
    F64,
    /// The single-precision float path ([`crate::float32`]) — what phone
    /// DSP runs when not in fixed point, with twice the SIMD lanes of f64.
    F32,
    /// The on-device Q15 fixed-point path in this module.
    Q15,
}

impl NumericPath {
    /// Identifier fragment used in matrix cell ids and reports.
    pub fn slug(&self) -> &'static str {
        match self {
            NumericPath::F64 => "f64",
            NumericPath::F32 => "f32",
            NumericPath::Q15 => "q15",
        }
    }

    /// The path whose [`NumericPath::slug`] is `slug`, if any.
    pub fn from_slug(slug: &str) -> Option<Self> {
        [NumericPath::F64, NumericPath::F32, NumericPath::Q15]
            .into_iter()
            .find(|p| p.slug() == slug)
    }
}

/// Scale of the Q15 representation: `raw = round(value · 32768)`.
pub const Q15_ONE: f64 = 32768.0;

/// Largest block component magnitude that survives one radix-2 stage
/// (growth ≤ 1 + √2) without saturating: `⌊32767 / (1 + √2)⌋`.
const STAGE_GUARD: i32 = 13572;

#[inline]
fn sat16(v: i64) -> i16 {
    v.clamp(i16::MIN as i64, i16::MAX as i64) as i16
}

/// A 16-bit fixed-point sample in `[-1, 1)` (Q15 format).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Q15(i16);

impl Q15 {
    /// Zero.
    pub const ZERO: Q15 = Q15(0);
    /// The largest representable value, `32767/32768 ≈ 0.99997`.
    pub const MAX: Q15 = Q15(i16::MAX);
    /// The most negative representable value, exactly `-1.0`.
    pub const MIN: Q15 = Q15(i16::MIN);

    /// Quantises an `f64` to Q15 with rounding; values outside `[-1, 1)`
    /// saturate (non-finite input saturates by sign, NaN becomes 0).
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        if x.is_nan() {
            return Q15(0);
        }
        Q15(sat16((x * Q15_ONE).round() as i64))
    }

    /// Dequantises back to `f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / Q15_ONE
    }

    /// The raw two's-complement representation.
    #[inline]
    pub fn raw(self) -> i16 {
        self.0
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Q15) -> Q15 {
        Q15(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Q15) -> Q15 {
        Q15(self.0.saturating_sub(rhs.0))
    }

    /// Saturating Q15 product: a 32-bit accumulate rounded back by 15 bits.
    /// `(-1) · (-1)` saturates to [`Q15::MAX`] instead of wrapping.
    #[inline]
    pub fn saturating_mul(self, rhs: Q15) -> Q15 {
        let acc = self.0 as i32 * rhs.0 as i32;
        Q15(sat16(((acc + (1 << 14)) >> 15) as i64))
    }
}

/// A complex number with [`Q15`] real and imaginary parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComplexQ15 {
    /// Real part.
    pub re: Q15,
    /// Imaginary part.
    pub im: Q15,
}

impl ComplexQ15 {
    /// The additive identity.
    pub const ZERO: ComplexQ15 = ComplexQ15 {
        re: Q15::ZERO,
        im: Q15::ZERO,
    };

    /// Creates a complex Q15 from parts.
    #[inline]
    pub fn new(re: Q15, im: Q15) -> Self {
        Self { re, im }
    }

    /// Quantises a [`Complex64`]; each component saturates independently.
    #[inline]
    pub fn from_complex64(c: Complex64) -> Self {
        Self {
            re: Q15::from_f64(c.re),
            im: Q15::from_f64(c.im),
        }
    }

    /// Dequantises to a [`Complex64`].
    #[inline]
    pub fn to_complex64(self) -> Complex64 {
        Complex64::new(self.re.to_f64(), self.im.to_f64())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: Q15(self.im.0.saturating_neg()),
        }
    }

    /// Saturating complex product rounded back to Q15 (both cross terms are
    /// accumulated in 64-bit before the single rounding shift).
    #[inline]
    pub fn saturating_mul(self, rhs: ComplexQ15) -> ComplexQ15 {
        let (ar, ai) = (self.re.0 as i64, self.im.0 as i64);
        let (br, bi) = (rhs.re.0 as i64, rhs.im.0 as i64);
        ComplexQ15 {
            re: Q15(sat16((ar * br - ai * bi + (1 << 14)) >> 15)),
            im: Q15(sat16((ar * bi + ai * br + (1 << 14)) >> 15)),
        }
    }
}

/// Largest component magnitude in a block (0 for an empty/zero block).
/// Scalar form, used by the BFP reference transform.
#[cfg(test)]
fn block_max(data: &[ComplexQ15]) -> i32 {
    data.iter()
        .map(|c| (c.re.0 as i32).abs().max((c.im.0 as i32).abs()))
        .max()
        .unwrap_or(0)
}

/// Left-shifts the block to restore headroom after magnitude-shrinking
/// steps, keeping the maximum at or below the stage guard. Returns the
/// number of shifts applied (the true value scale shrinks by `2^k`).
/// Scalar form, used by the BFP reference transform.
#[cfg(test)]
fn renormalize_up(data: &mut [ComplexQ15]) -> u32 {
    let max = block_max(data);
    if max == 0 {
        return 0;
    }
    let mut k = 0u32;
    while (max << (k + 1)) <= STAGE_GUARD {
        k += 1;
    }
    if k > 0 {
        for c in data.iter_mut() {
            c.re = Q15(c.re.0 << k);
            c.im = Q15(c.im.0 << k);
        }
    }
    k
}

/// The right shift that keeps a block whose largest component is `max`
/// within the stage guard: each shift halves the maximum (rounding up).
fn guard_shift(mut max: i32) -> u32 {
    let mut k = 0u32;
    while max > STAGE_GUARD {
        k += 1;
        max = (max + 1) >> 1;
    }
    k
}

impl Path for Q15 {
    type Real = i32;
    type Complex = ComplexQ15;
    type Shift = i32;
    type Scale = f64;
    const PRODUCT_SHIFT: i32 = 1;

    #[inline]
    fn quantize(c: Complex64) -> ComplexQ15 {
        ComplexQ15::from_complex64(c)
    }
    #[inline]
    fn conj(c: ComplexQ15) -> ComplexQ15 {
        c.conj()
    }
    #[inline]
    fn split(c: ComplexQ15) -> (i32, i32) {
        (c.re.0 as i32, c.im.0 as i32)
    }
    #[inline]
    fn join(re: i32, im: i32) -> ComplexQ15 {
        // Stage and product outputs are always saturated into i16 range.
        ComplexQ15::new(Q15(re as i16), Q15(im as i16))
    }
    fn stages(re: &mut [i32], im: &mut [i32], twr: &[i32], twi: &[i32]) -> i32 {
        // A quiet block would otherwise run the early stages on a short
        // mantissa; pull it up to the guard ceiling first (negative shift).
        let mut shifts = -(lanes::renormalize_up_i32(re, im, STAGE_GUARD) as i32);
        let mut half = 1usize;
        while half < re.len() {
            // Block-floating-point guard: pick the per-stage shift so the
            // coming stage's worst-case growth (1 + √2) cannot saturate.
            // The shift is folded into the butterfly itself, so each stage
            // output is rounded exactly once from the wide accumulator.
            let k = guard_shift(lanes::block_max_i32(re, im));
            shifts += k as i32;
            let (swr, swi) = stage_twiddles(twr, twi, half);
            if half < lanes::I32_LANES {
                // Early stages have sub-lane groups; run the whole stage in
                // one flat kernel pass instead of n/(2·half) tiny calls.
                lanes::butterfly_q15_small(re, im, swr, swi, k);
            } else {
                for_each_group(re, im, half, |er, ei, or, oi| {
                    lanes::butterfly_q15(er, ei, or, oi, swr, swi, k)
                });
            }
            half <<= 1;
        }
        shifts
    }
    fn normalize(_: &mut [i32], _: &mut [i32], _: usize) {}
    fn mul_spectrum(x_re: &mut [i32], x_im: &mut [i32], t_re: &[i32], t_im: &[i32]) {
        lanes::cmul_half_q15(x_re, x_im, t_re, t_im);
    }
    /// Half-scaled product: both cross terms accumulate in 64 bits before
    /// one rounding shift by 16, so the product cannot saturate.
    #[inline]
    fn mul(x: (i32, i32), w: (i32, i32)) -> (i32, i32) {
        let (ar, ai) = (x.0 as i64, x.1 as i64);
        let (br, bi) = (w.0 as i64, w.1 as i64);
        let bias = 1i64 << 15;
        (
            lanes::sat16_i64((ar * br - ai * bi + bias) >> 16),
            lanes::sat16_i64((ar * bi + ai * br + bias) >> 16),
        )
    }
    /// Spectrum tables are quantised against their peak component, and the
    /// peak is carried in the transform's scale.
    fn spectrum_gain(spec: &[Complex64]) -> f64 {
        spec.iter()
            .map(|c| c.re.abs().max(c.im.abs()))
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE)
    }
    fn shift(shift: i32) -> i32 {
        shift
    }
    fn scale(shift: i32, gain: f64, divisor: usize) -> f64 {
        2f64.powi(shift) * gain / divisor as f64
    }
}

/// The block-floating-point radix-2 plan over widened Q15 mantissas,
/// executed through the `[i32; 8]` lane kernels. Its transforms return the
/// net right-shift count.
pub type FixedRadix2Plan = Radix2<Q15>;

/// The BFP FFT plan for any length ≥ 1 (radix-2, or Bluestein against a
/// Q15 chirp). Transforms return a scale factor `s` such that the true
/// transform equals the dequantised output times `s`.
pub type FixedFftPlan = Plan<Q15>;

/// The pool of BFP FFT plans.
pub type FixedPlanPool = Pool<Q15>;

impl Radix2<Q15> {
    /// In-place conjugate-twiddle BFP transform **without** the `1/N`
    /// normalisation: the true inverse DFT equals the dequantised output
    /// times `2^shifts / N`. Exposed raw so composites (Bluestein, the
    /// matched filter) can fold `1/N` into their own scale once.
    pub fn inverse_raw(&self, data: &mut [ComplexQ15]) -> Result<i32> {
        self.interleaved(data, false)
    }
}

#[cfg(test)]
impl Radix2<Q15> {
    /// The one-lane-per-sample forward BFP transform, kept as the
    /// reference the tests pin the lane kernels against (bit-identical
    /// output required — integer arithmetic leaves no rounding slack).
    pub(crate) fn forward_scalar(&self, data: &mut [ComplexQ15]) -> Result<i32> {
        self.check(data.len())?;
        Ok(self.bfp_scalar(data, true))
    }

    /// The scalar raw inverse transform; reference twin of
    /// [`FixedRadix2Plan::inverse_raw`].
    pub(crate) fn inverse_raw_scalar(&self, data: &mut [ComplexQ15]) -> Result<i32> {
        self.check(data.len())?;
        Ok(self.bfp_scalar(data, false))
    }

    fn bfp_scalar(&self, data: &mut [ComplexQ15], forward: bool) -> i32 {
        let n = self.len();
        if n == 1 {
            return 0;
        }
        crate::plan::swap_bit_reversed(data);
        let (twr, twi) = self.tables(forward);
        let mut shifts = -(renormalize_up(data) as i32);
        let mut half = 1usize;
        while half < n {
            let k = guard_shift(block_max(data));
            shifts += k as i32;
            let (swr, swi) = stage_twiddles(twr, twi, half);
            let shift = 15 + k;
            let bias = 1i64 << (shift - 1);
            for start in (0..n).step_by(2 * half) {
                for j in 0..half {
                    let even = data[start + j];
                    let odd = data[start + j + half];
                    // Twiddle products kept at full Q30 precision; the even
                    // term is aligned up so the single rounding shift at the
                    // end covers both the Q15 renormalisation and the BFP
                    // stage shift.
                    let pr = odd.re.0 as i64 * swr[j] as i64 - odd.im.0 as i64 * swi[j] as i64;
                    let pi = odd.re.0 as i64 * swi[j] as i64 + odd.im.0 as i64 * swr[j] as i64;
                    let er = (even.re.0 as i64) << 15;
                    let ei = (even.im.0 as i64) << 15;
                    data[start + j] = ComplexQ15::new(
                        Q15(sat16((er + pr + bias) >> shift)),
                        Q15(sat16((ei + pi + bias) >> shift)),
                    );
                    data[start + j + half] = ComplexQ15::new(
                        Q15(sat16((er - pr + bias) >> shift)),
                        Q15(sat16((ei - pi + bias) >> shift)),
                    );
                }
            }
            half <<= 1;
        }
        shifts
    }
}

/// The Q15 overlap-save matched filter, in widened SoA form through the
/// `[i32; 8]` lane kernels.
///
/// The template is quantised to Q15 by its peak, and its conjugated
/// spectrum at each block length of the ladder, from `next_pow2(m)` up to
/// `next_pow2(4m)` for an `m`-sample template, is stored as Q15 with a
/// block-floating-point scale. A block that owes fewer lags runs on a
/// shorter rung, with fewer BFP stages. Every per-block
/// step (forward BFP FFT, pointwise integer product, inverse BFP FFT) runs
/// in 16-bit data with wide integer accumulators. Incoming `f64` signals
/// are quantised once per call by their peak — the automatic-gain-control
/// step a phone's capture path performs — and the sliding-window energies
/// used for normalisation are exact 64-bit integer prefix sums of the
/// quantised samples, so numerator and denominator see the same
/// quantisation.
pub type Q15MatchedFilter = OverlapSave<Q15>;

/// One rung of the Q15 filter: a complex block-floating-point leg. The
/// template's conjugated spectrum at one block length, the radix-2 plan
/// that runs it, and the spectrum's scale.
#[derive(Clone)]
pub struct Q15Rung {
    spec: Soa<i32>,
    plan: Radix2<Q15>,
    /// True template spectrum = dequantised spectrum × this factor (BFP
    /// shifts of the template transform × the template's peak).
    scale: f64,
}

/// Per-call buffers of the Q15 filter.
pub struct Q15Scratch {
    lanes: Lanes<i32>,
    /// The whole signal, quantised once per call.
    qsig: Vec<i16>,
    /// Exact integer prefix sums of the squared quantised samples.
    prefix: Vec<i64>,
    /// The call's quantisation gain (the signal's peak).
    gain: f64,
}

/// The template's peak and the template quantised to Q15 by it.
fn quantized(template: &[f64]) -> (f64, impl Iterator<Item = Q15> + '_) {
    let peak = template.iter().fold(0.0f64, |m, &t| m.max(t.abs()));
    (peak, template.iter().map(move |&t| Q15::from_f64(t / peak)))
}

impl Correlate for Q15 {
    type Rung = Q15Rung;
    type Scratch = Q15Scratch;
    const SPAN: usize = 4;

    fn norm(template: &[f64]) -> f64 {
        let (peak, q) = quantized(template);
        q.fold(0.0f64, |acc, q| {
            let tq = q.to_f64() * peak;
            acc + tq * tq
        })
        .sqrt()
    }

    fn rung(template: &[f64], len: usize) -> Result<Q15Rung> {
        let plan = Radix2::new(len)?;
        let (peak, q) = quantized(template);
        let (mut re, mut im) = soa_zeros(len);
        for (slot, q) in re.iter_mut().zip(q) {
            *slot = q.0 as i32;
        }
        let shift = plan.soa(&mut re, &mut im, true)?;
        for (r, i) in re.iter_mut().zip(im.iter_mut()) {
            (*r, *i) = Q15::split(Q15::join(*r, *i).conj());
        }
        Ok(Q15Rung {
            spec: (re, im),
            plan,
            scale: 2f64.powi(shift) * peak,
        })
    }

    fn scratch(len: usize) -> Q15Scratch {
        Q15Scratch {
            lanes: Lanes::new(len),
            qsig: Vec::new(),
            prefix: Vec::new(),
            gain: 1.0,
        }
    }

    fn prepare(signal: &[f64], s: &mut Q15Scratch) {
        // Per-call gain: quantise the stream by its peak (the AGC a phone's
        // capture path applies before fixed-point processing).
        let peak = signal.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        let gain = if peak > 0.0 { peak } else { 1.0 };
        s.gain = gain;
        s.qsig.clear();
        s.qsig
            .extend(signal.iter().map(|&x| Q15::from_f64(x / gain).raw()));
    }

    fn block(
        rung: &Q15Rung,
        _signal: &[f64],
        p: usize,
        take: usize,
        out: &mut Vec<f64>,
        s: &mut Q15Scratch,
    ) -> Result<()> {
        let l = rung.plan.len();
        let block = &s.qsig[p..s.qsig.len().min(p + l)];
        let (re, im) = s.lanes.split();
        let (re, im) = (&mut re[..l], &mut im[..l]);
        for (slot, &q) in re.iter_mut().zip(block) {
            *slot = q as i32;
        }
        re[block.len()..].fill(0);
        im.fill(0);
        let shift = rung.plan.soa(re, im, true)?;
        Q15::mul_spectrum(re, im, &rung.spec.0, &rung.spec.1);
        let shift = shift + rung.plan.soa(re, im, false)? + Q15::PRODUCT_SHIFT;
        // Undo the BFP shifts, the template's scale and the signal's
        // quantisation gain at the boundary.
        let scale = Q15::scale(shift, rung.scale * s.gain, l);
        out.extend(re[..take].iter().map(|&v| v as f64 / Q15_ONE * scale));
        Ok(())
    }

    /// The window energies are exact integer sums of the *quantised*
    /// samples, so numerator and denominator share the quantisation error.
    fn normalize_lags(
        _signal: &[f64],
        out: &mut [f64],
        template_norm: f64,
        m: usize,
        s: &mut Q15Scratch,
    ) {
        prefix_sums(&mut s.prefix, s.qsig.iter().map(|&q| q as i64 * q as i64));
        let unit = s.gain / Q15_ONE;
        divide_by_windows(out, &s.prefix, m, template_norm, |hi, lo| {
            (hi - lo) as f64 * unit * unit
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{fft, fft_any};

    fn quantize(signal: &[Complex64]) -> Vec<ComplexQ15> {
        signal
            .iter()
            .map(|&c| ComplexQ15::from_complex64(c))
            .collect()
    }

    fn dequantize(data: &[ComplexQ15], scale: f64) -> Vec<Complex64> {
        data.iter().map(|c| c.to_complex64() * scale).collect()
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
    fn q15_conversion_and_saturation() {
        assert_eq!(Q15::from_f64(0.0), Q15::ZERO);
        assert_eq!(Q15::from_f64(-1.0), Q15::MIN);
        assert_eq!(Q15::from_f64(1.0), Q15::MAX);
        assert_eq!(Q15::from_f64(5.0), Q15::MAX);
        assert_eq!(Q15::from_f64(-5.0), Q15::MIN);
        assert_eq!(Q15::from_f64(f64::NAN).raw(), 0);
        assert!((Q15::from_f64(0.5).to_f64() - 0.5).abs() < 1.0 / Q15_ONE);
        // Saturating ops never wrap.
        assert_eq!(Q15::MAX.saturating_add(Q15::MAX), Q15::MAX);
        assert_eq!(Q15::MIN.saturating_sub(Q15::MAX), Q15::MIN);
        assert_eq!(Q15::MIN.saturating_mul(Q15::MIN), Q15::MAX);
        let half = Q15::from_f64(0.5);
        assert!((half.saturating_mul(half).to_f64() - 0.25).abs() < 2.0 / Q15_ONE);
    }

    #[test]
    fn complex_mul_matches_f64_expansion() {
        let a = Complex64::new(0.31, -0.52);
        let b = Complex64::new(-0.44, 0.17);
        let qa = ComplexQ15::from_complex64(a);
        let qb = ComplexQ15::from_complex64(b);
        let prod = qa.saturating_mul(qb).to_complex64();
        let truth = a * b;
        assert!((prod.re - truth.re).abs() < 4.0 / Q15_ONE, "{prod:?}");
        assert!((prod.im - truth.im).abs() < 4.0 / Q15_ONE, "{prod:?}");
        // Conjugate of the most negative imaginary saturates, not wraps.
        let edge = ComplexQ15::new(Q15::ZERO, Q15::MIN);
        assert_eq!(edge.conj().im, Q15::MAX);
    }

    #[test]
    fn radix2_forward_tracks_the_oracle() {
        for n in [4usize, 64, 256, 2048] {
            let signal = test_signal(n, 0.5);
            let reference = fft(&signal).unwrap();
            let mut data = quantize(&signal);
            let plan = FixedRadix2Plan::new(n).unwrap();
            let shifts = plan.forward(&mut data).unwrap();
            let got = dequantize(&data, 2f64.powi(shifts));
            let snr = sqnr_db(&reference, &got);
            assert!(snr >= 60.0, "n={n}: SQNR {snr:.1} dB");
        }
    }

    #[test]
    fn lane_path_is_bit_identical_to_the_scalar_reference() {
        // Every power of two up to 65,536, so every stage count, the
        // switch from whole-stage kernels to per-group lanes at half = 8,
        // every tile side of the bit reversal and the filter's rungs
        // (16,384 to 65,536) are pinned, on the interleaved and on the SoA
        // entry points alike.
        for n in (0..=16).map(|s| 1usize << s) {
            for amp in [0.01, 0.5, 0.98] {
                let signal = test_signal(n, amp);
                let plan = FixedRadix2Plan::new(n).unwrap();
                let mut lane = quantize(&signal);
                let mut scalar = lane.clone();
                let widened = |v: &[ComplexQ15]| -> (Vec<i32>, Vec<i32>) {
                    v.iter().map(|c| (c.re.0 as i32, c.im.0 as i32)).unzip()
                };
                let (mut re, mut im) = widened(&lane);
                let s_lane = plan.forward(&mut lane).unwrap();
                let s_soa = plan.forward_soa(&mut re, &mut im).unwrap();
                let s_scalar = plan.forward_scalar(&mut scalar).unwrap();
                assert_eq!(s_lane, s_scalar, "forward shifts n={n} amp={amp}");
                assert_eq!(s_soa, s_scalar, "forward_soa shifts n={n} amp={amp}");
                assert_eq!(lane, scalar, "forward n={n} amp={amp}");
                assert_eq!(
                    widened(&scalar),
                    (re.clone(), im.clone()),
                    "forward_soa n={n} amp={amp}"
                );
                let s_lane = plan.inverse_raw(&mut lane).unwrap();
                let s_soa = plan.inverse_raw_soa(&mut re, &mut im).unwrap();
                let s_scalar = plan.inverse_raw_scalar(&mut scalar).unwrap();
                assert_eq!(s_lane, s_scalar, "inverse shifts n={n} amp={amp}");
                assert_eq!(s_soa, s_scalar, "inverse_raw_soa shifts n={n} amp={amp}");
                assert_eq!(lane, scalar, "inverse n={n} amp={amp}");
                assert_eq!(
                    widened(&scalar),
                    (re.clone(), im.clone()),
                    "inverse_raw_soa n={n} amp={amp}"
                );
            }
        }
    }

    #[test]
    fn fixed_plan_roundtrip_preserves_the_signal() {
        for n in [64usize, 1024, 2048] {
            let signal = test_signal(n, 0.7);
            let mut data = quantize(&signal);
            let mut plan = FixedFftPlan::new(n).unwrap();
            let s1 = plan.process_forward(&mut data).unwrap();
            let s2 = plan.process_inverse(&mut data).unwrap();
            let got = dequantize(&data, s1 * s2);
            let snr = sqnr_db(&signal, &got);
            // Round-trips pay two transforms' rounding noise; 2048 (the
            // correlator block) is the worst case at ~60 dB.
            assert!(snr >= 58.0, "n={n}: round-trip SQNR {snr:.1} dB");
        }
    }

    #[test]
    fn bluestein_fixed_plan_handles_the_symbol_length() {
        for n in [45usize, 97, 1920] {
            let signal = test_signal(n, 0.6);
            let reference = fft_any(&signal).unwrap();
            let mut data = quantize(&signal);
            let mut plan = FixedFftPlan::new(n).unwrap();
            let scale = plan.process_forward(&mut data).unwrap();
            let got = dequantize(&data, scale);
            let snr = sqnr_db(&reference, &got);
            assert!(snr >= 50.0, "n={n}: Bluestein SQNR {snr:.1} dB");
        }
    }

    #[test]
    fn full_scale_input_does_not_saturate_the_fft() {
        // ±1.0 square-ish input: the BFP guard must absorb the growth.
        let n = 256;
        let signal: Vec<Complex64> = (0..n)
            .map(|i| Complex64::from_re(if i % 2 == 0 { 1.0 } else { -1.0 }))
            .collect();
        let reference = fft(&signal).unwrap();
        let mut data = quantize(&signal);
        let mut plan = FixedFftPlan::new(n).unwrap();
        let scale = plan.process_forward(&mut data).unwrap();
        let got = dequantize(&data, scale);
        // The single full-scale bin must land at the right place with the
        // right magnitude.
        let snr = sqnr_db(&reference, &got);
        assert!(snr >= 55.0, "full-scale SQNR {snr:.1} dB");
    }

    #[test]
    fn zero_input_stays_zero() {
        let mut data = vec![ComplexQ15::ZERO; 512];
        let mut plan = FixedFftPlan::new(512).unwrap();
        let scale = plan.process_forward(&mut data).unwrap();
        assert!(scale.is_finite());
        assert!(data.iter().all(|c| *c == ComplexQ15::ZERO));
        let scale = plan.process_inverse(&mut data).unwrap();
        assert!(scale.is_finite());
        assert!(data.iter().all(|c| *c == ComplexQ15::ZERO));
    }

    #[test]
    fn plan_rejects_bad_lengths() {
        assert!(FixedFftPlan::new(0).is_err());
        assert!(FixedRadix2Plan::new(0).is_err());
        assert!(FixedRadix2Plan::new(48).is_err());
        assert!(FixedPlanPool::new(0).is_err());
        let mut plan = FixedFftPlan::new(64).unwrap();
        let mut wrong = vec![ComplexQ15::ZERO; 32];
        assert!(plan.process_forward(&mut wrong).is_err());
        assert!(plan.process_inverse(&mut wrong).is_err());
        let radix = FixedRadix2Plan::new(64).unwrap();
        assert!(radix.forward_soa(&mut [0; 32], &mut [0; 64]).is_err());
        assert!(radix.inverse_raw_soa(&mut [0; 64], &mut [0; 32]).is_err());
        assert!(radix.forward_scalar(&mut [ComplexQ15::ZERO; 16]).is_err());
        assert!(radix
            .inverse_raw_scalar(&mut [ComplexQ15::ZERO; 16])
            .is_err());
    }

    #[test]
    fn fixed_pool_shares_and_replenishes() {
        let pool = FixedPlanPool::new(1920).unwrap();
        assert_eq!(pool.len(), 1920);
        let signal = test_signal(1920, 0.6);
        let reference = fft_any(&signal).unwrap();
        let out = pool.with(|outer| {
            let mut a = quantize(&signal);
            let sa = outer.process_forward(&mut a).unwrap();
            let b = pool.with(|inner| {
                let mut b = quantize(&signal);
                let sb = inner.process_forward(&mut b).unwrap();
                dequantize(&b, sb)
            });
            (dequantize(&a, sa), b)
        });
        assert!(sqnr_db(&reference, &out.0) >= 50.0);
        assert!(sqnr_db(&reference, &out.1) >= 50.0);
    }

    #[test]
    fn q15_matched_filter_finds_the_template() {
        let template: Vec<f64> = (0..257).map(|i| ((i as f64) * 0.31).cos()).collect();
        let mut signal: Vec<f64> = (0..4001)
            .map(|i| 0.01 * ((i as f64) * 0.377).sin())
            .collect();
        for (i, &t) in template.iter().enumerate() {
            signal[900 + i] += t;
        }
        let filter = Q15MatchedFilter::new(&template).unwrap();
        let corr = filter.correlate_normalized(&signal).unwrap();
        let (idx, peak) = crate::correlation::argmax(&corr).unwrap();
        assert_eq!(idx, 900);
        assert!(peak > 0.9, "peak {peak}");
        // Against the f64 oracle: same definition, quantisation-level gap
        // at the peak. Quiet lags sharing an overlap-save block with the
        // loud template inherit the block's BFP noise floor and their tiny
        // window energies amplify it, so the global bound is looser — the
        // noise there stays far below the detector's 0.15 candidate
        // threshold.
        let reference = crate::correlation::xcorr_normalized(&signal, &template).unwrap();
        assert_eq!(corr.len(), reference.len());
        assert!(
            (corr[900] - reference[900]).abs() < 0.01,
            "peak value {} vs {}",
            corr[900],
            reference[900]
        );
        let max_err = corr
            .iter()
            .zip(reference.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 0.12, "max normalised-corr error {max_err}");
    }

    #[test]
    fn q15_matched_filter_edge_cases() {
        assert!(Q15MatchedFilter::new(&[]).is_err());
        assert!(Q15MatchedFilter::new(&[0.0; 32]).is_err());
        let filter = Q15MatchedFilter::new(&[1.0, -1.0, 0.5]).unwrap();
        let mut out = Vec::new();
        assert!(filter.correlate_into(&[], &mut out).is_err());
        assert!(filter.correlate_into(&[1.0, 2.0], &mut out).is_err());
        assert_eq!(filter.output_len(10).unwrap(), 8);
        // All-zero signal: raw and normalised outputs are exactly zero.
        let zeros = vec![0.0; 64];
        filter.correlate_normalized_into(&zeros, &mut out).unwrap();
        assert!(out.iter().all(|&v| v == 0.0));
        filter.correlate_into(&zeros, &mut out).unwrap();
        assert!(out.iter().all(|&v| v == 0.0));
        // Repeated calls through the pooled scratch are bit-identical; a
        // clone starts with an empty pool but computes the same result.
        let template: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.9).sin()).collect();
        let filter = Q15MatchedFilter::new(&template).unwrap();
        let signal: Vec<f64> = (0..1200).map(|i| ((i as f64) * 0.23).sin()).collect();
        let first = filter.correlate_normalized(&signal).unwrap();
        for _ in 0..3 {
            assert_eq!(filter.correlate_normalized(&signal).unwrap(), first);
        }
        assert_eq!(filter.clone().correlate_normalized(&signal).unwrap(), first);
    }

    #[test]
    fn numeric_path_slugs() {
        assert_eq!(NumericPath::F64.slug(), "f64");
        assert_eq!(NumericPath::F32.slug(), "f32");
        assert_eq!(NumericPath::Q15.slug(), "q15");
        assert_eq!(NumericPath::default(), NumericPath::F64);
    }
}
