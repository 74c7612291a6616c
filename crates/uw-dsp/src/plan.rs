//! Plan-based FFT execution, one core for all three numeric paths.
//!
//! The free functions in [`crate::fft`] recompute twiddle factors (and, for
//! non-power-of-two lengths, the entire Bluestein chirp setup) on every
//! call and allocate fresh buffers throughout. That is fine for one-off
//! transforms, but the ranging hot path runs the *same* transform sizes
//! thousands of times per session: 8,192- to 65,536-point FFTs inside the
//! correlators and 1920-point Bluestein transforms for every OFDM symbol.
//!
//! A [`Plan`] precomputes everything that depends only on the length —
//! per-stage twiddle tables (forward and inverse), and for Bluestein
//! lengths the chirp sequence, the chirp's padded spectrum, and a scratch
//! buffer — so steady-state [`Plan::process_forward`] /
//! [`Plan::process_inverse`] calls are allocation-free. The bit-reversal
//! permutation needs no table: one tiled routine computes it in place.
//! [`Pool`] shares plans of one fixed length across threads without
//! serialising the transforms themselves.
//!
//! ## One core, three paths
//!
//! [`Radix2`], the Bluestein wrapper, [`Plan`] and [`Pool`] are generic
//! over a [`Path`]: `f64` (the oracle), `f32` (the phone-float path in
//! [`crate::float32`]) and [`crate::fixed::Q15`] (block floating point in
//! [`crate::fixed`]). The core owns the tables, the bit reversal, the
//! structure-of-arrays scratch, the chirp-z algorithm and the pooling; a
//! path supplies only what really differs — how a table entry is rounded,
//! its butterfly stages (the float paths share one fused schedule,
//! `float_stages`, in `[f64; 4]` or `[f32; 8]` lanes; Q15 runs
//! `[i32; 8]` stages with per-stage BFP guard shifts), its pointwise
//! products, and what an inverse does with `1/N` (the float paths scale
//! the buffer, Q15 folds it into the scale the transform returns). The
//! public names callers use are type aliases over the core:
//! [`Radix2Plan`], [`FftPlan`] and [`PlanPool`] here, their `F32*` twins in
//! [`crate::float32`] and their `Fixed*` twins in [`crate::fixed`].
//!
//! The butterflies run in structure-of-arrays form on split `re[]` /
//! `im[]` buffers through the fixed-width kernels in the crate's `lanes`
//! module. Every radix-2 transform, on every path, opens with one
//! in-place bit reversal per lane (`bit_reverse`): it exchanges 16 × 16
//! tiles through stack buffers, so every read and write runs along cache
//! lines instead of swapping samples a transform length apart. The
//! interleaved entry points split the samples into a pooled SoA scratch
//! in natural order, run the SoA transform, and join back; SoA callers
//! such as the matched filters use [`Radix2::forward_soa`] directly and
//! never interleave. The one-lane-per-sample transforms remain as
//! test-only reference methods (`forward_scalar` / `inverse_scalar` on
//! the float paths, a BFP twin on Q15) with their own index-by-index
//! swap, and the unit tests pin both the interleaved and the SoA entry
//! points bit-identical to them at every power of two up to 65,536, so
//! neither vectorization nor the tiled permutation can silently change
//! answers.

use crate::complex::Complex64;
use crate::fft::{is_pow2, next_pow2};
use crate::lanes;
use crate::{DspError, Result};
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::Mutex;

/// The arithmetic of one numeric path, as the generic plan core needs it.
///
/// Implemented by `f64`, `f32` and [`crate::fixed::Q15`]. Everything that
/// depends only on the transform length lives in the core; a path supplies
/// its sample types, table rounding, butterfly stages, pointwise products
/// and the bookkeeping of its scale.
pub trait Path: Copy + Send + Sync + 'static {
    /// One lane of a structure-of-arrays buffer: `f64`, `f32`, or the Q15
    /// mantissa widened to `i32`.
    type Real: Copy
        + Default
        + Send
        + Sync
        + Add<Output = Self::Real>
        + Sub<Output = Self::Real>
        + Mul<Output = Self::Real>
        + Neg<Output = Self::Real>;
    /// The interleaved complex sample the public entry points take.
    type Complex: Copy;
    /// What a radix-2 transform reports: nothing on the float paths, the
    /// net right-shift count on Q15.
    type Shift;
    /// What a [`Plan`] transform reports: nothing on the float paths; on
    /// Q15 the factor that turns the dequantised output into the true
    /// transform.
    type Scale;
    /// Right shift one pointwise-product pass contributes: Q15 products
    /// are half-scaled, float products are exact to rounding.
    const PRODUCT_SHIFT: i32 = 0;

    /// Rounds a table entry computed in `f64` (twiddle, chirp, spectrum).
    fn quantize(c: Complex64) -> Self::Complex;
    /// Complex conjugate.
    fn conj(c: Self::Complex) -> Self::Complex;
    /// Splits a sample into its SoA lanes.
    fn split(c: Self::Complex) -> (Self::Real, Self::Real);
    /// Joins SoA lanes into a sample.
    fn join(re: Self::Real, im: Self::Real) -> Self::Complex;
    /// Runs every butterfly stage on bit-reversed data of length ≥ 2 with
    /// the concatenated per-stage twiddle tables; returns the net right
    /// shift applied (0 on the float paths).
    fn stages(
        re: &mut [Self::Real],
        im: &mut [Self::Real],
        twr: &[Self::Real],
        twi: &[Self::Real],
    ) -> i32;
    /// Pays an inverse transform's `1/n` in place. The float paths scale
    /// the buffer; Q15 leaves it to the scale it returns.
    fn normalize(re: &mut [Self::Real], im: &mut [Self::Real], n: usize);
    /// Pointwise product `x[k] ← x[k] · t[k]` with a precomputed spectrum.
    fn mul_spectrum(
        x_re: &mut [Self::Real],
        x_im: &mut [Self::Real],
        t_re: &[Self::Real],
        t_im: &[Self::Real],
    );
    /// One complex product `x · w` (the Bluestein chirp multiply).
    #[inline]
    fn mul(x: (Self::Real, Self::Real), w: (Self::Real, Self::Real)) -> (Self::Real, Self::Real) {
        (x.0 * w.0 - x.1 * w.1, x.0 * w.1 + x.1 * w.0)
    }
    /// Gain a precomputed spectrum is divided by before rounding: 1 on the
    /// float paths, the peak component on Q15 (whose tables must fit the
    /// mantissa).
    fn spectrum_gain(_spec: &[Complex64]) -> f64 {
        1.0
    }
    /// The radix-2 report for a net right shift.
    fn shift(shift: i32) -> Self::Shift;
    /// The plan report for a transform that applied a net right `shift`,
    /// carries a table `gain` and still owes a division by `divisor`.
    fn scale(shift: i32, gain: f64, divisor: usize) -> Self::Scale;
}

/// The IEEE paths (`f64`, `f32`): nothing to track beyond the samples,
/// and inverse transforms pay `1/N` in the buffer. Both run the same lane
/// kernels (the crate's `lanes` module) and the same stage schedule
/// (`float_stages`); only the lane width differs.
pub trait Float: Path<Shift = (), Scale = ()> {
    /// Samples per lane block of the float kernels: one AVX2 register,
    /// `[f64; 4]` or `[f32; 8]`.
    const LANES: usize;
    /// `1 / n` in this precision.
    fn recip_len(n: usize) -> Self::Real;
    /// Rounds an `f64` sample to this precision.
    fn from_f64(x: f64) -> Self::Real;
    /// Widens a sample back to `f64`.
    fn to_f64(x: Self::Real) -> f64;
}

impl Path for f64 {
    type Real = f64;
    type Complex = Complex64;
    type Shift = ();
    type Scale = ();

    #[inline]
    fn quantize(c: Complex64) -> Complex64 {
        c
    }
    #[inline]
    fn conj(c: Complex64) -> Complex64 {
        c.conj()
    }
    #[inline]
    fn split(c: Complex64) -> (f64, f64) {
        (c.re, c.im)
    }
    #[inline]
    fn join(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }
    fn stages(re: &mut [f64], im: &mut [f64], twr: &[f64], twi: &[f64]) -> i32 {
        float_stages::<Self>(re, im, twr, twi)
    }
    fn normalize(re: &mut [f64], im: &mut [f64], n: usize) {
        lanes::scale::<Self>(re, im, Self::recip_len(n));
    }
    fn mul_spectrum(x_re: &mut [f64], x_im: &mut [f64], t_re: &[f64], t_im: &[f64]) {
        lanes::cmul::<Self>(x_re, x_im, t_re, t_im);
    }
    fn shift(_: i32) {}
    fn scale(_: i32, _: f64, _: usize) {}
}

impl Float for f64 {
    const LANES: usize = 4;

    #[inline]
    fn recip_len(n: usize) -> f64 {
        1.0 / n as f64
    }
    #[inline]
    fn from_f64(x: f64) -> f64 {
        x
    }
    #[inline]
    fn to_f64(x: f64) -> f64 {
        x
    }
}

/// Stage `half`'s slice of a concatenated twiddle table: stage `s` (half
/// width `2^s`) occupies indices `2^s − 1 .. 2^(s+1) − 1`.
#[inline]
pub(crate) fn stage_twiddles<'a, R>(twr: &'a [R], twi: &'a [R], half: usize) -> (&'a [R], &'a [R]) {
    (&twr[half - 1..2 * half - 1], &twi[half - 1..2 * half - 1])
}

/// The butterfly stages of both float paths, on bit-reversed data of length
/// `n ≥ 2`: the first three stages fused into one sweep of closed 8-point
/// cells when `n ≥ 8`, then two stages per sweep (`lanes::butterfly_pair`
/// at halves 8, 32, 128, …; a flat pass at 8 and 32, a call per group
/// above), and a last odd stage on its own. Every fused kernel evaluates
/// the plain butterfly's expressions on the same operands, so the output
/// is bit-identical to running one stage per sweep. (Q15 cannot fuse: each
/// of its stages scans the block for its guard shift first.)
pub(crate) fn float_stages<T: Float>(
    re: &mut [T::Real],
    im: &mut [T::Real],
    twr: &[T::Real],
    twi: &[T::Real],
) -> i32 {
    let n = re.len();
    let mut half = 1usize;
    if n >= 8 {
        lanes::butterfly_first3::<T>(re, im, &twr[..7], &twi[..7]);
        half = 8;
    }
    while half < n {
        let (swr, swi) = stage_twiddles(twr, twi, half);
        if 2 * half < n {
            let (nwr, nwi) = stage_twiddles(twr, twi, 2 * half);
            lanes::butterfly_pair::<T>(re, im, swr, swi, nwr, nwi);
            half <<= 2;
        } else {
            for_each_group(re, im, half, |er, ei, or, oi| {
                lanes::butterfly::<T>(er, ei, or, oi, swr, swi)
            });
            half <<= 1;
        }
    }
    0
}

/// Calls `f(even_re, even_im, odd_re, odd_im)` for every butterfly group
/// of one stage with half width `half`.
#[inline]
pub(crate) fn for_each_group<R>(
    re: &mut [R],
    im: &mut [R],
    half: usize,
    mut f: impl FnMut(&mut [R], &mut [R], &mut [R], &mut [R]),
) {
    for (gre, gim) in re
        .chunks_exact_mut(2 * half)
        .zip(im.chunks_exact_mut(2 * half))
    {
        let (er, or) = gre.split_at_mut(half);
        let (ei, oi) = gim.split_at_mut(half);
        f(er, ei, or, oi);
    }
}

/// A mutex-guarded stash of reusable values: [`Stash::with`] checks one
/// out (building a fresh one only when every stashed value is in use),
/// runs the closure, and puts it back. In steady state the stash holds as
/// many values as the peak concurrency, so checkouts never allocate.
pub(crate) struct Stash<X>(Mutex<Vec<X>>);

impl<X> Stash<X> {
    pub(crate) fn new(items: Vec<X>) -> Self {
        Stash(Mutex::new(items))
    }

    pub(crate) fn with<R>(&self, make: impl FnOnce() -> X, f: impl FnOnce(&mut X) -> R) -> R {
        let item = self.0.lock().expect("stash poisoned").pop();
        let mut item = item.unwrap_or_else(make);
        let result = f(&mut item);
        self.0.lock().expect("stash poisoned").push(item);
        result
    }
}

/// A structure-of-arrays complex table: real lanes, imaginary lanes.
pub(crate) type Soa<R> = (Vec<R>, Vec<R>);

/// A zeroed SoA table of `n` samples.
pub(crate) fn soa_zeros<R: Copy + Default>(n: usize) -> Soa<R> {
    (vec![R::default(); n], vec![R::default(); n])
}

/// Reusable SoA scratch: a real and an imaginary lane of `n` samples cut
/// from one allocation, both 64-byte aligned, the imaginary lane starting
/// one cache line after the real lane's end. Butterfly partners sit
/// power-of-two strides apart, so lanes whose distance is a multiple of
/// 2 KiB make stores to one lane falsely alias loads from the other
/// (4K aliasing); separate allocations land there by chance and cost the
/// f32 correlator up to ~20%.
#[derive(Clone)]
pub(crate) struct Lanes<R> {
    buf: Vec<R>,
    n: usize,
}

impl<R: Copy + Default> Lanes<R> {
    /// Samples per 64-byte cache line.
    const LINE: usize = 64 / std::mem::size_of::<R>();

    pub(crate) fn new(n: usize) -> Self {
        Self {
            buf: vec![R::default(); 2 * n + 2 * Self::LINE],
            n,
        }
    }

    /// Lane length.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// The real and imaginary lanes.
    pub(crate) fn split(&mut self) -> (&mut [R], &mut [R]) {
        let skew = self.buf.as_ptr() as usize % 64 / std::mem::size_of::<R>();
        let start = (Self::LINE - skew) % Self::LINE;
        let (re, rest) = self.buf[start..].split_at_mut(self.n);
        (re, &mut rest[Self::LINE..Self::LINE + self.n])
    }
}

fn length_error() -> DspError {
    DspError::InvalidLength {
        reason: "buffer length does not match the FFT plan length",
    }
}

fn positive(n: usize) -> Result<()> {
    if n == 0 {
        return Err(DspError::InvalidLength {
            reason: "FFT plan length must be positive",
        });
    }
    Ok(())
}

/// A radix-2 decimation-in-time FFT on one numeric path, with
/// structure-of-arrays twiddle tables (computed in `f64` and rounded once)
/// and a tiled in-place bit reversal that needs no table. The tables are
/// read-only after construction; the small internal SoA scratch behind
/// the interleaved entry points is mutex-guarded, so one plan can serve
/// many threads concurrently.
pub struct Radix2<T: Path> {
    n: usize,
    /// Forward and inverse twiddles, real and imaginary lanes, concatenated
    /// per stage (see [`stage_twiddles`]).
    tw_fwd: Soa<T::Real>,
    tw_inv: Soa<T::Real>,
    /// Pooled SoA buffers for the interleaved entry points.
    scratch: Stash<Lanes<T::Real>>,
}

/// The `f64` radix-2 plan, executed through the `[f64; 4]` lane kernels.
pub type Radix2Plan = Radix2<f64>;

impl<T: Path> std::fmt::Debug for Radix2<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Radix2")
            .field("path", &std::any::type_name::<T>())
            .field("n", &self.n)
            .finish()
    }
}

impl<T: Path> Clone for Radix2<T> {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            tw_fwd: self.tw_fwd.clone(),
            tw_inv: self.tw_inv.clone(),
            scratch: Stash::new(vec![Lanes::new(self.n)]),
        }
    }
}

impl<T: Path> Radix2<T> {
    /// Builds a plan for a power-of-two length `n ≥ 1`.
    pub fn new(n: usize) -> Result<Self> {
        positive(n)?;
        if !is_pow2(n) {
            return Err(DspError::InvalidLength {
                reason: "radix-2 plan length must be a power of two",
            });
        }
        // One table entry per butterfly twiddle; n-1 in total.
        let mut tw_fwd = (Vec::with_capacity(n - 1), Vec::with_capacity(n - 1));
        let mut tw_inv = (Vec::with_capacity(n - 1), Vec::with_capacity(n - 1));
        let mut half = 1usize;
        while half < n {
            let ang = std::f64::consts::PI / half as f64;
            for k in 0..half {
                let w = T::quantize(Complex64::from_angle(-ang * k as f64));
                let (re, im) = T::split(w);
                tw_fwd.0.push(re);
                tw_fwd.1.push(im);
                let (re, im) = T::split(T::conj(w));
                tw_inv.0.push(re);
                tw_inv.1.push(im);
            }
            half <<= 1;
        }
        Ok(Self {
            n,
            tw_fwd,
            tw_inv,
            scratch: Stash::new(vec![Lanes::new(n)]),
        })
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns true for the degenerate length-0 plan (never constructable).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward FFT (unnormalised). Allocation-free in steady
    /// state. On Q15 returns the net right-shift count (negative when a
    /// quiet block is first shifted *up* to a full mantissa): the true DFT
    /// equals the dequantised output times `2^shifts`.
    pub fn forward(&self, data: &mut [T::Complex]) -> Result<T::Shift> {
        self.interleaved(data, true).map(T::shift)
    }

    /// In-place forward FFT on split real/imaginary buffers. The native
    /// SoA entry point: no interleaving, no scratch checkout,
    /// allocation-free.
    pub fn forward_soa(&self, re: &mut [T::Real], im: &mut [T::Real]) -> Result<T::Shift> {
        self.soa(re, im, true).map(T::shift)
    }

    /// In-place conjugate-twiddle transform on split buffers **without**
    /// the `1/N` normalisation: the true inverse DFT equals the output
    /// times `1/N` (and, on Q15, times `2^shifts`). Composites that fold
    /// `1/N` into a precomputed spectrum or a tracked scale use this.
    pub fn inverse_raw_soa(&self, re: &mut [T::Real], im: &mut [T::Real]) -> Result<T::Shift> {
        self.soa(re, im, false).map(T::shift)
    }

    pub(crate) fn check(&self, len: usize) -> Result<()> {
        if len != self.n {
            return Err(length_error());
        }
        Ok(())
    }

    pub(crate) fn tables(&self, forward: bool) -> (&[T::Real], &[T::Real]) {
        let (re, im) = if forward { &self.tw_fwd } else { &self.tw_inv };
        (re, im)
    }

    /// Interleaved transform through the pooled SoA scratch: the samples
    /// are split in natural order and run through [`Radix2::soa`].
    /// Inverses pay the path's `1/N` ([`Path::normalize`]).
    pub(crate) fn interleaved(&self, data: &mut [T::Complex], forward: bool) -> Result<i32> {
        self.check(data.len())?;
        let n = self.n;
        self.scratch.with(
            || Lanes::new(n),
            |lanes| {
                let (re, im) = lanes.split();
                for ((r, x), c) in re.iter_mut().zip(im.iter_mut()).zip(data.iter()) {
                    (*r, *x) = T::split(*c);
                }
                let shift = self.soa(re, im, forward)?;
                if !forward {
                    T::normalize(re, im, n);
                }
                for (c, (r, x)) in data.iter_mut().zip(re.iter().zip(im.iter())) {
                    *c = T::join(*r, *x);
                }
                Ok(shift)
            },
        )
    }

    /// In-place SoA transform (no `1/N` on inverses).
    pub(crate) fn soa(&self, re: &mut [T::Real], im: &mut [T::Real], forward: bool) -> Result<i32> {
        if re.len() != self.n || im.len() != self.n {
            return Err(length_error());
        }
        if self.n == 1 {
            return Ok(0);
        }
        bit_reverse(re);
        bit_reverse(im);
        let (twr, twi) = self.tables(forward);
        Ok(T::stages(re, im, twr, twi))
    }
}

/// `x` with its low `bits` bits reversed (`x < 2^bits`).
#[inline]
fn reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits()
        .checked_shr(usize::BITS - bits)
        .unwrap_or(0)
}

/// In-place bit-reversal permutation of a power-of-two-length lane,
/// exchanged in square tiles so every read and write runs along cache
/// lines.
///
/// With `n = 2^b`, tile side `T = 2^q` (`q = min(4, ⌊b/2⌋)`) and
/// `i = a·2^(b−q) + m·T + c`, the reversed index is
/// `rev(c)·2^(b−q) + rev(m)·T + rev(a)`. Tile `m` is the `T` rows of `T`
/// contiguous samples at `a·2^(b−q) + m·T`, so the permutation swaps tile
/// `m` with tile `rev(m)` and transposes both, reversing row and column
/// order. Each tile pair passes through two stack buffers: no table, no
/// heap allocation, and one routine for every `n ≥ 1`. From 256 points
/// up `T = 16`, one 64-byte line per tile row on `f32` and `i32` lanes.
/// The side is a constant of each instance, so the row copies and the
/// transposed writes compile to fixed-length loops.
pub(crate) fn bit_reverse<R: Copy + Default>(x: &mut [R]) {
    debug_assert!(
        x.len().is_power_of_two(),
        "lane length must be a power of two"
    );
    match x.len().trailing_zeros() / 2 {
        0 => tiles::<R, 1>(x),
        1 => tiles::<R, 2>(x),
        2 => tiles::<R, 4>(x),
        3 => tiles::<R, 8>(x),
        _ => tiles::<R, 16>(x),
    }
}

/// [`bit_reverse`] with tile side `S = 2^q`.
fn tiles<R: Copy + Default, const S: usize>(x: &mut [R]) {
    let q = S.trailing_zeros();
    let stride = x.len() >> q;
    let middle = x.len().trailing_zeros() - 2 * q;
    // `load` leaves tile row `a` in buffer row `rev(a)`, so destination
    // row `a′`, column `c′` reads buffer row `c′`, column `rev(a′)`.
    let load = |x: &[R], m: usize, buf: &mut [[R; S]; S]| {
        for a in 0..S {
            let row = a * stride + m * S;
            buf[reverse(a, q)].copy_from_slice(&x[row..row + S]);
        }
    };
    let store = |x: &mut [R], m: usize, buf: &[[R; S]; S]| {
        for a in 0..S {
            let col = reverse(a, q);
            let row = a * stride + m * S;
            for (y, src) in x[row..row + S].iter_mut().zip(buf) {
                *y = src[col];
            }
        }
    };
    let mut own = [[R::default(); S]; S];
    let mut partner = [[R::default(); S]; S];
    for m in 0..1usize << middle {
        let rm = reverse(m, middle);
        if rm < m {
            continue;
        }
        load(x, m, &mut own);
        if rm == m {
            store(x, m, &own);
        } else {
            load(x, rm, &mut partner);
            store(x, m, &partner);
            store(x, rm, &own);
        }
    }
}

/// The index-by-index bit-reversal permutation the scalar reference
/// transforms run: independent of [`bit_reverse`], which the tests pin
/// against it.
#[cfg(test)]
pub(crate) fn swap_bit_reversed<X>(data: &mut [X]) {
    let bits = data.len().trailing_zeros();
    for i in 0..data.len() {
        let j = i
            .reverse_bits()
            .checked_shr(usize::BITS - bits)
            .unwrap_or(0);
        if j > i {
            data.swap(i, j);
        }
    }
}

impl<T: Float> Radix2<T> {
    /// In-place inverse FFT (normalised by 1/N). Allocation-free in steady
    /// state.
    pub fn inverse(&self, data: &mut [T::Complex]) -> Result<()> {
        self.interleaved(data, false).map(drop)
    }

    /// In-place inverse FFT on split real/imaginary buffers (normalised by
    /// 1/N). Allocation-free.
    pub fn inverse_soa(&self, re: &mut [T::Real], im: &mut [T::Real]) -> Result<()> {
        self.soa(re, im, false)?;
        T::normalize(re, im, self.n);
        Ok(())
    }
}

#[cfg(test)]
impl<T: Float> Radix2<T> {
    /// The one-lane-per-sample forward transform, kept as the reference
    /// the tests pin the lane kernels against (bit-identical output
    /// required).
    pub(crate) fn forward_scalar(&self, data: &mut [T::Complex]) -> Result<()> {
        self.check(data.len())?;
        self.scalar(data, true);
        Ok(())
    }

    /// The one-lane-per-sample inverse transform (normalised by 1/N);
    /// reference twin of [`Radix2::inverse`].
    pub(crate) fn inverse_scalar(&self, data: &mut [T::Complex]) -> Result<()> {
        self.check(data.len())?;
        self.scalar(data, false);
        let s = T::recip_len(self.n);
        for x in data.iter_mut() {
            let (re, im) = T::split(*x);
            *x = T::join(re * s, im * s);
        }
        Ok(())
    }

    fn scalar(&self, data: &mut [T::Complex], forward: bool) {
        let n = self.n;
        if n == 1 {
            return;
        }
        swap_bit_reversed(data);
        let (twr, twi) = self.tables(forward);
        let mut half = 1usize;
        while half < n {
            let (swr, swi) = stage_twiddles(twr, twi, half);
            for start in (0..n).step_by(2 * half) {
                for k in 0..half {
                    let (er, ei) = T::split(data[start + k]);
                    let (or, oi) = T::split(data[start + k + half]);
                    let pr = or * swr[k] - oi * swi[k];
                    let pi = or * swi[k] + oi * swr[k];
                    data[start + k] = T::join(er + pr, ei + pi);
                    data[start + k + half] = T::join(er - pr, ei - pi);
                }
            }
            half <<= 1;
        }
    }
}

/// Bluestein (chirp-z) state for one non-power-of-two length `n`, held in
/// SoA form so every step runs through the path's lane kernels.
#[derive(Clone)]
struct Bluestein<T: Path> {
    /// Inner radix-2 plan of length `m = next_pow2(2n − 1)`.
    inner: Radix2<T>,
    /// The chirp `w[j] = exp(−iπ j²/n)`, length `n`.
    chirp: Soa<T::Real>,
    /// FFT of the symmetrically extended conjugate chirp, length `m`,
    /// computed in `f64` and divided by `gain` before rounding.
    spec: Soa<T::Real>,
    gain: f64,
    /// Reusable SoA convolution buffers, length `m`.
    scratch: Lanes<T::Real>,
}

impl<T: Path> Bluestein<T> {
    fn new(n: usize) -> Result<Self> {
        let m = next_pow2(2 * n - 1);
        let chirp: Vec<Complex64> = (0..n)
            .map(|j| {
                // j² mod 2n keeps the phase argument small and exact.
                let jj = (j * j) % (2 * n);
                Complex64::from_angle(-std::f64::consts::PI * jj as f64 / n as f64)
            })
            .collect();
        // The chirp spectrum is computed once at full f64 precision and
        // rounded once, so the convolution kernel carries table rounding
        // only, not a reduced-precision FFT's accumulated error.
        let mut spec = vec![Complex64::ZERO; m];
        for (j, c) in chirp.iter().enumerate() {
            spec[j] = c.conj();
            if j != 0 {
                spec[m - j] = c.conj();
            }
        }
        Radix2::<f64>::new(m)?.forward(&mut spec)?;
        let gain = T::spectrum_gain(&spec);
        Ok(Self {
            inner: Radix2::new(m)?,
            chirp: chirp.iter().map(|&c| T::split(T::quantize(c))).unzip(),
            spec: spec
                .iter()
                .map(|&c| T::split(T::quantize(c / gain)))
                .unzip(),
            gain,
            scratch: Lanes::new(m),
        })
    }

    /// In-place DFT of length `n` via chirp-z; the inverse runs as
    /// `conj(DFT(conj(x))) / n`. Allocation-free.
    fn run(&mut self, data: &mut [T::Complex], inverse: bool) -> Result<T::Scale> {
        let n = data.len();
        let m = self.scratch.len();
        let (s_re, s_im) = self.scratch.split();
        let (c_re, c_im) = (&self.chirp.0, &self.chirp.1);
        for (j, d) in data.iter().enumerate() {
            let d = if inverse { T::conj(*d) } else { *d };
            (s_re[j], s_im[j]) = T::mul(T::split(d), (c_re[j], c_im[j]));
        }
        s_re[n..].fill(T::Real::default());
        s_im[n..].fill(T::Real::default());
        let shift = self.inner.soa(s_re, s_im, true)?;
        T::mul_spectrum(s_re, s_im, &self.spec.0, &self.spec.1);
        let shift = shift + self.inner.soa(s_re, s_im, false)?;
        T::normalize(s_re, s_im, m);
        for j in 0..n {
            (s_re[j], s_im[j]) = T::mul((s_re[j], s_im[j]), (c_re[j], c_im[j]));
        }
        if inverse {
            T::normalize(&mut s_re[..n], &mut s_im[..n], n);
        }
        for (j, d) in data.iter_mut().enumerate() {
            let c = T::join(s_re[j], s_im[j]);
            *d = if inverse { T::conj(c) } else { c };
        }
        // Three pointwise products: chirp in, spectrum, chirp out.
        let divisor = if inverse { m * n } else { m };
        Ok(T::scale(shift + 3 * T::PRODUCT_SHIFT, self.gain, divisor))
    }
}

#[derive(Clone)]
enum Kind<T: Path> {
    Radix2(Radix2<T>),
    Bluestein(Bluestein<T>),
}

/// A reusable FFT plan on one numeric path for one fixed transform length
/// (any length ≥ 1).
///
/// Power-of-two lengths run the table-driven radix-2 path; other lengths run
/// Bluestein's chirp-z algorithm against cached chirp state. `process_*`
/// calls on a constructed plan perform **no heap allocation** — the scratch
/// the Bluestein path needs lives inside the plan, which is why the
/// processing methods take `&mut self`. On Q15 each transform returns a
/// scale `s` such that the true transform equals the dequantised output
/// times `s`: an exact power of two on the radix-2 path, times the chirp
/// spectrum's quantisation gain on the Bluestein path.
#[derive(Clone)]
pub struct Plan<T: Path> {
    len: usize,
    kind: Kind<T>,
}

/// The `f64` FFT plan: radix-2 or Bluestein, any length ≥ 1.
pub type FftPlan = Plan<f64>;

impl<T: Path> std::fmt::Debug for Plan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.kind {
            Kind::Radix2(_) => "radix-2",
            Kind::Bluestein(_) => "bluestein",
        };
        f.debug_struct("Plan")
            .field("path", &std::any::type_name::<T>())
            .field("len", &self.len)
            .field("kind", &kind)
            .finish()
    }
}

impl<T: Path> Plan<T> {
    /// Builds a plan for transforms of length `n` (any `n ≥ 1`).
    pub fn new(n: usize) -> Result<Self> {
        positive(n)?;
        let kind = if is_pow2(n) {
            Kind::Radix2(Radix2::new(n)?)
        } else {
            Kind::Bluestein(Bluestein::new(n)?)
        };
        Ok(Self { len: n, kind })
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true for the degenerate length-0 plan (never constructable).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// In-place forward DFT (unnormalised). Fails cleanly when `data` does
    /// not match the plan length; allocation-free otherwise.
    pub fn process_forward(&mut self, data: &mut [T::Complex]) -> Result<T::Scale> {
        if data.len() != self.len {
            return Err(length_error());
        }
        match &mut self.kind {
            Kind::Radix2(p) => Ok(T::scale(p.interleaved(data, true)?, 1.0, 1)),
            Kind::Bluestein(p) => p.run(data, false),
        }
    }

    /// In-place inverse DFT (normalised by 1/N — in the buffer on the float
    /// paths, in the returned scale on Q15). Fails cleanly when `data`
    /// does not match the plan length; allocation-free otherwise.
    pub fn process_inverse(&mut self, data: &mut [T::Complex]) -> Result<T::Scale> {
        if data.len() != self.len {
            return Err(length_error());
        }
        match &mut self.kind {
            Kind::Radix2(p) => Ok(T::scale(p.interleaved(data, false)?, 1.0, self.len)),
            Kind::Bluestein(p) => p.run(data, true),
        }
    }
}

/// A thread-safe pool of [`Plan`]s for **one fixed length**.
///
/// `with` checks a plan out of the pool (building a fresh one only when
/// every pooled plan is in use), runs the closure, and returns the plan to
/// the pool. Concurrent users therefore never serialise on a shared plan's
/// scratch, and in steady state the pool size equals the peak concurrency —
/// no per-call allocation.
pub struct Pool<T: Path> {
    len: usize,
    plans: Stash<Plan<T>>,
}

/// The pool of `f64` FFT plans.
pub type PlanPool = Pool<f64>;

impl<T: Path> std::fmt::Debug for Pool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("path", &std::any::type_name::<T>())
            .field("len", &self.len)
            .finish()
    }
}

impl<T: Path> Clone for Pool<T> {
    fn clone(&self) -> Self {
        Self {
            len: self.len,
            plans: Stash::new(Vec::new()),
        }
    }
}

impl<T: Path> Pool<T> {
    /// Creates a pool for transforms of length `n`, with one plan built
    /// eagerly so the first caller does not pay construction cost.
    pub fn new(n: usize) -> Result<Self> {
        let first = Plan::new(n)?;
        Ok(Self {
            len: n,
            plans: Stash::new(vec![first]),
        })
    }

    /// The transform length of every plan in this pool.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true for the degenerate length-0 pool (never constructable).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Runs `f` with a checked-out plan.
    pub fn with<R>(&self, f: impl FnOnce(&mut Plan<T>) -> R) -> R {
        self.plans.with(
            || Plan::new(self.len).expect("pool length was validated at construction"),
            f,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{fft, fft_any, ifft_any};

    fn assert_spectra_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x.re - y.re).abs() <= tol, "{} vs {}", x.re, y.re);
            assert!((x.im - y.im).abs() <= tol, "{} vs {}", x.im, y.im);
        }
    }

    fn test_signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos() * 0.5))
            .collect()
    }

    #[test]
    fn radix2_plan_matches_reference_fft() {
        for n in [1usize, 2, 4, 64, 256, 2048] {
            let signal = test_signal(n);
            let reference = fft(&signal).unwrap();
            let mut buf = signal.clone();
            let plan = Radix2Plan::new(n).unwrap();
            plan.forward(&mut buf).unwrap();
            assert_spectra_close(&buf, &reference, 1e-9);
            plan.inverse(&mut buf).unwrap();
            assert_spectra_close(&buf, &signal, 1e-9);
        }
    }

    #[test]
    fn lane_path_is_bit_identical_to_the_scalar_reference() {
        // Every power of two up to 65,536, the largest rung a matched
        // filter builds, so every boundary of the stage schedule (fused
        // first stages, stage pairs, a final odd stage) and every tile side
        // of the bit reversal is pinned, on the interleaved and on the SoA
        // entry points alike.
        for n in (0..=16).map(|s| 1usize << s) {
            let signal = test_signal(n);
            let plan = Radix2Plan::new(n).unwrap();
            let mut lane = signal.clone();
            let mut scalar = signal.clone();
            let (mut re, mut im): (Vec<f64>, Vec<f64>) =
                signal.iter().map(|c| (c.re, c.im)).unzip();
            let joined = |re: &[f64], im: &[f64]| -> Vec<Complex64> {
                re.iter()
                    .zip(im)
                    .map(|(&r, &i)| Complex64::new(r, i))
                    .collect()
            };
            plan.forward(&mut lane).unwrap();
            plan.forward_soa(&mut re, &mut im).unwrap();
            plan.forward_scalar(&mut scalar).unwrap();
            assert_eq!(lane, scalar, "forward n={n}");
            assert_eq!(joined(&re, &im), scalar, "forward_soa n={n}");
            plan.inverse(&mut lane).unwrap();
            plan.inverse_soa(&mut re, &mut im).unwrap();
            plan.inverse_scalar(&mut scalar).unwrap();
            assert_eq!(lane, scalar, "inverse n={n}");
            assert_eq!(joined(&re, &im), scalar, "inverse_soa n={n}");
        }
    }

    #[test]
    fn bit_reversal_matches_reverse_bits_at_every_size() {
        fn check<R: Copy + Default + PartialEq + std::fmt::Debug>(lane: impl Fn(usize) -> R) {
            for bits in 0..=16u32 {
                let n = 1usize << bits;
                let mut x: Vec<R> = (0..n).map(&lane).collect();
                bit_reverse(&mut x);
                for (j, &y) in x.iter().enumerate() {
                    let i = j
                        .reverse_bits()
                        .checked_shr(usize::BITS - bits)
                        .unwrap_or(0);
                    assert_eq!(y, lane(i), "n={n} j={j}");
                }
            }
        }
        check(|i| i as f64);
        check(|i| i as f32);
        check(|i| i as i32);
    }

    #[test]
    fn bluestein_plan_matches_reference_on_paper_symbol_length() {
        let n = 1920;
        let signal = test_signal(n);
        let reference = fft_any(&signal).unwrap();
        let mut plan = FftPlan::new(n).unwrap();
        let mut buf = signal.clone();
        plan.process_forward(&mut buf).unwrap();
        assert_spectra_close(&buf, &reference, 1e-8);
        plan.process_inverse(&mut buf).unwrap();
        assert_spectra_close(&buf, &signal, 1e-9);
    }

    #[test]
    fn plan_handles_odd_and_prime_lengths() {
        for n in [3usize, 5, 45, 97, 139, 961] {
            let signal = test_signal(n);
            let fwd_ref = fft_any(&signal).unwrap();
            let inv_ref = ifft_any(&signal).unwrap();
            let mut plan = FftPlan::new(n).unwrap();
            let mut buf = signal.clone();
            plan.process_forward(&mut buf).unwrap();
            assert_spectra_close(&buf, &fwd_ref, 1e-7);
            let mut buf = signal.clone();
            plan.process_inverse(&mut buf).unwrap();
            assert_spectra_close(&buf, &inv_ref, 1e-7);
        }
    }

    #[test]
    fn plan_is_reusable_without_drift() {
        let n = 1920;
        let signal = test_signal(n);
        let mut plan = FftPlan::new(n).unwrap();
        let mut first = signal.clone();
        plan.process_forward(&mut first).unwrap();
        for _ in 0..5 {
            let mut buf = signal.clone();
            plan.process_forward(&mut buf).unwrap();
            assert_spectra_close(&buf, &first, 0.0);
        }
    }

    #[test]
    fn mismatched_lengths_are_rejected_cleanly() {
        let mut plan = FftPlan::new(1920).unwrap();
        let mut wrong = vec![Complex64::ZERO; 1024];
        assert!(plan.process_forward(&mut wrong).is_err());
        assert!(plan.process_inverse(&mut wrong).is_err());
        // The plan still works after a rejected call.
        let mut right = vec![Complex64::ZERO; 1920];
        plan.process_forward(&mut right).unwrap();

        let plan2 = Radix2Plan::new(64).unwrap();
        assert!(plan2.forward(&mut vec![Complex64::ZERO; 32]).is_err());
        assert!(plan2.inverse(&mut vec![Complex64::ZERO; 128]).is_err());
        assert!(plan2
            .forward_soa(&mut vec![0.0; 32], &mut vec![0.0; 64])
            .is_err());
        assert!(plan2
            .inverse_soa(&mut vec![0.0; 64], &mut vec![0.0; 32])
            .is_err());
        assert!(plan2
            .forward_scalar(&mut vec![Complex64::ZERO; 16])
            .is_err());
        assert!(plan2
            .inverse_scalar(&mut vec![Complex64::ZERO; 16])
            .is_err());

        assert!(FftPlan::new(0).is_err());
        assert!(Radix2Plan::new(0).is_err());
        assert!(Radix2Plan::new(48).is_err());
        assert!(PlanPool::new(0).is_err());
    }

    #[test]
    fn plan_pool_shares_and_replenishes() {
        let pool = PlanPool::new(1920).unwrap();
        assert_eq!(pool.len(), 1920);
        let signal = test_signal(1920);
        let reference = fft_any(&signal).unwrap();
        // Nested checkout forces the pool to build a second plan.
        let out = pool.with(|outer| {
            let mut a = signal.clone();
            outer.process_forward(&mut a).unwrap();
            let b = pool.with(|inner| {
                let mut b = signal.clone();
                inner.process_forward(&mut b).unwrap();
                b
            });
            (a, b)
        });
        assert_spectra_close(&out.0, &reference, 1e-8);
        assert_spectra_close(&out.1, &reference, 1e-8);
    }
}
