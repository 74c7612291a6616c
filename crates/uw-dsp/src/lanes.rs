//! Fixed-width structure-of-arrays (SoA) lane kernels for the hot DSP loops.
//!
//! The plan layer's butterflies, the matched filters' pointwise spectrum
//! products, and the Q15 block-floating-point scaling scans all used to walk
//! arrays of complex structs one element at a time. Interleaved `{re, im}`
//! storage forces the autovectorizer to emit shuffle-heavy code (or give up),
//! because the real and imaginary streams share cache lines but want
//! different arithmetic. This module provides the same inner loops in
//! **structure-of-arrays** form — separate `re[]` / `im[]` slices — processed
//! in fixed-width blocks the LLVM autovectorizer can lower to SIMD:
//!
//! * the float kernels are written once, generic over [`Float`], in blocks
//!   of [`Float::LANES`] samples: `[f64; 4]` (one AVX2 register / two NEON
//!   registers) for the f64 oracle path and `[f32; 8]` for the f32
//!   phone-DSP path;
//! * `[i32; 8]` blocks (widened Q15 mantissas) for the fixed-point path,
//!   with `i64` product accumulators exactly as the scalar code uses.
//!
//! No intrinsics and no new dependencies: each kernel is a plain loop over
//! small fixed-size arrays with a scalar tail, and degrades to the scalar
//! code path on targets without SIMD. A plain loop is not a guarantee,
//! though: LLVM vectorizes a loop that stores to one stream and loads from
//! another only when it can rule out an overlap, and a runtime overlap
//! check it adds may be hoisted out of an enclosing loop and widened until
//! it always fails. The fused two-stage [`butterfly_pair`] hit exactly
//! that and ran one lane at a time on every pass spanning more than one
//! group; its doc says what keeps it vectorized now. (On the float paths
//! the single-stage [`butterfly`] only runs as the last stage, one group.)
//! Whether a kernel vectorizes is measured per pass in a release build,
//! not assumed from its shape. Every kernel computes
//! **the same expressions in the same order** as its scalar counterpart,
//! so results are bit-identical — pinned by the tests in this module
//! (including the pair kernel against two single-stage passes at every
//! half the schedule runs) and by the plan unit tests of each path, which
//! compare whole transforms against the scalar reference at every power of
//! two up to 65,536. Vectorization can never silently change answers.
//!
//! Production code reaches the kernels through [`crate::plan`] (whose
//! `float_stages` is the one butterfly schedule of both float paths),
//! [`crate::float32`], [`crate::fixed`] and [`crate::matched`].

use crate::plan::Float;

/// Lane width of the widened-Q15 integer kernels: `[i32; 8]` is one AVX2
/// register.
pub const I32_LANES: usize = 8;

/// Saturates a wide accumulator to the Q15 mantissa range `[-32768, 32767]`.
#[inline]
pub fn sat16_i64(v: i64) -> i32 {
    v.clamp(i16::MIN as i64, i16::MAX as i64) as i32
}

// ---------------------------------------------------------------------------
// Float kernels (f64 and f32)
// ---------------------------------------------------------------------------

/// One radix-2 butterfly group in SoA form, in [`Float::LANES`]-wide blocks.
///
/// For each `k`: `p = odd[k] · w[k]`, then `even[k] ← even[k] + p` and
/// `odd[k] ← even[k] − p` — the exact expressions of the scalar
/// decimation-in-time butterfly, so the output is bit-identical to the
/// scalar path.
///
/// All six slices must have the same length (the stage half-width).
#[inline]
pub fn butterfly<T: Float>(
    e_re: &mut [T::Real],
    e_im: &mut [T::Real],
    o_re: &mut [T::Real],
    o_im: &mut [T::Real],
    w_re: &[T::Real],
    w_im: &[T::Real],
) {
    let half = e_re.len();
    assert!(
        e_im.len() == half
            && o_re.len() == half
            && o_im.len() == half
            && w_re.len() == half
            && w_im.len() == half,
        "butterfly slice lengths must match"
    );
    // `chunks_exact` hands LLVM compile-time `[T; LANES]` blocks with no
    // bounds checks, which it lowers to packed SIMD; the remainder runs the
    // same expressions one lane at a time.
    let mut er_b = e_re.chunks_exact_mut(T::LANES);
    let mut ei_b = e_im.chunks_exact_mut(T::LANES);
    let mut or_b = o_re.chunks_exact_mut(T::LANES);
    let mut oi_b = o_im.chunks_exact_mut(T::LANES);
    let mut wr_b = w_re.chunks_exact(T::LANES);
    let mut wi_b = w_im.chunks_exact(T::LANES);
    for ((((er_c, ei_c), or_c), oi_c), (wr_c, wi_c)) in (&mut er_b)
        .zip(&mut ei_b)
        .zip(&mut or_b)
        .zip(&mut oi_b)
        .zip((&mut wr_b).zip(&mut wi_b))
    {
        for j in 0..T::LANES {
            let pr = or_c[j] * wr_c[j] - oi_c[j] * wi_c[j];
            let pi = or_c[j] * wi_c[j] + oi_c[j] * wr_c[j];
            let er = er_c[j];
            let ei = ei_c[j];
            er_c[j] = er + pr;
            ei_c[j] = ei + pi;
            or_c[j] = er - pr;
            oi_c[j] = ei - pi;
        }
    }
    for ((((er, ei), or_), oi), (wr, wi)) in er_b
        .into_remainder()
        .iter_mut()
        .zip(ei_b.into_remainder().iter_mut())
        .zip(or_b.into_remainder().iter_mut())
        .zip(oi_b.into_remainder().iter_mut())
        .zip(wr_b.remainder().iter().zip(wi_b.remainder().iter()))
    {
        let pr = *or_ * *wr - *oi * *wi;
        let pi = *or_ * *wi + *oi * *wr;
        let er0 = *er;
        let ei0 = *ei;
        *er = er0 + pr;
        *ei = ei0 + pi;
        *or_ = er0 - pr;
        *oi = ei0 - pi;
    }
}

/// The first three butterfly stages (halves 1, 2 and 4) fused into a single
/// pass over 8-element blocks. Each block is a closed 8-point sub-transform
/// at this depth, so all three stages run in registers between one load and
/// one store — one memory sweep instead of three. The expressions are
/// exactly the generic butterfly's, evaluated on exactly the same operands,
/// so outputs stay bit-identical to the scalar reference.
///
/// `tw_re`/`tw_im` are the first 7 entries of the stage-major twiddle table
/// (stage half=1 at `[0..1]`, half=2 at `[1..3]`, half=4 at `[3..7]`);
/// `re.len()` must be a multiple of 8.
#[inline]
pub fn butterfly_first3<T: Float>(
    re: &mut [T::Real],
    im: &mut [T::Real],
    tw_re: &[T::Real],
    tw_im: &[T::Real],
) {
    debug_assert!(tw_re.len() >= 7 && tw_im.len() >= 7);
    debug_assert_eq!(re.len() % 8, 0);
    debug_assert_eq!(re.len(), im.len());
    let mut w = [T::Real::default(); 14];
    w[..7].copy_from_slice(&tw_re[..7]);
    w[7..].copy_from_slice(&tw_im[..7]);
    for (rc, ic) in re.chunks_exact_mut(8).zip(im.chunks_exact_mut(8)) {
        let mut r = [T::Real::default(); 8];
        let mut q = [T::Real::default(); 8];
        r.copy_from_slice(rc);
        q.copy_from_slice(ic);
        // Stage half=1: pairs (0,1) (2,3) (4,5) (6,7), twiddle w[0].
        for b in [0usize, 2, 4, 6] {
            let pr = r[b + 1] * w[0] - q[b + 1] * w[7];
            let pi = r[b + 1] * w[7] + q[b + 1] * w[0];
            let er = r[b];
            let ei = q[b];
            r[b] = er + pr;
            q[b] = ei + pi;
            r[b + 1] = er - pr;
            q[b + 1] = ei - pi;
        }
        // Stage half=2: groups (0..4) and (4..8), twiddles w[1], w[2].
        for b in [0usize, 4] {
            for k in 0..2 {
                let (wr, wi) = (w[1 + k], w[8 + k]);
                let pr = r[b + 2 + k] * wr - q[b + 2 + k] * wi;
                let pi = r[b + 2 + k] * wi + q[b + 2 + k] * wr;
                let er = r[b + k];
                let ei = q[b + k];
                r[b + k] = er + pr;
                q[b + k] = ei + pi;
                r[b + 2 + k] = er - pr;
                q[b + 2 + k] = ei - pi;
            }
        }
        // Stage half=4: one group, twiddles w[3..7].
        for k in 0..4 {
            let (wr, wi) = (w[3 + k], w[10 + k]);
            let pr = r[4 + k] * wr - q[4 + k] * wi;
            let pi = r[4 + k] * wi + q[4 + k] * wr;
            let er = r[k];
            let ei = q[k];
            r[k] = er + pr;
            q[k] = ei + pi;
            r[4 + k] = er - pr;
            q[4 + k] = ei - pi;
        }
        rc.copy_from_slice(&r);
        ic.copy_from_slice(&q);
    }
}

/// Two consecutive butterfly stages (halves `h = wa_re.len()` and `2h`)
/// fused into a single pass: each group of `4h` elements is processed as
/// closed radix-4 cells `(k, h+k, 2h+k, 3h+k)`, running the half-`h`
/// butterflies and then the half-`2h` butterflies on the intermediate
/// values while they are still in registers — one memory sweep for two
/// stages. Every cell is [`pair_cell`], the generic butterfly's
/// expressions on the same operands, so outputs stay bit-identical to the
/// scalar reference.
///
/// What keeps the pass vectorized (measured per pass, not assumed): the
/// cell loop only compiles to packed arithmetic when LLVM knows that the
/// quarter-streams a cell stores do not overlap the ones the next cell
/// loads. Quarters cut from one slice inside a loop over groups leave it
/// an overlap check, which it hoists out of the group loop and widens to
/// all groups; from two groups up that check always fails, and the cells
/// ran one lane at a time, 2.7–8.2× slower than here. So the cells run in
/// one of two loops, neither of which needs the check:
///
/// * `h = 8` and `h = 32`: [`pair_pass_flat`], one flat pass over all
///   groups at a constant half, every quarter a constant offset into its
///   group;
/// * every other half (`h = 1` at `n = 4`, then 128, 512, …): one call of
///   [`pair_group`] per group, each quarter-stream and twiddle stream its
///   own argument.
///
/// `re.len()` must be a multiple of `4h`; `wb_*` must hold the `2h`
/// twiddles of the second stage.
#[inline]
pub fn butterfly_pair<T: Float>(
    re: &mut [T::Real],
    im: &mut [T::Real],
    wa_re: &[T::Real],
    wa_im: &[T::Real],
    wb_re: &[T::Real],
    wb_im: &[T::Real],
) {
    let h = wa_re.len();
    debug_assert_eq!(wa_im.len(), h);
    debug_assert_eq!(wb_re.len(), 2 * h);
    debug_assert_eq!(wb_im.len(), 2 * h);
    debug_assert_eq!(re.len() % (4 * h).max(1), 0);
    let (w0_re, w1_re) = wb_re.split_at(h);
    let (w0_im, w1_im) = wb_im.split_at(h);
    let w = [wa_re, wa_im, w0_re, w0_im, w1_re, w1_im];
    // A call per group of 32 or 128 samples ran these two halves about 2×
    // (h = 8) and 1.3× (h = 32) slower per pass than the flat pass.
    match h {
        8 => pair_pass_flat::<T, 8>(re, im, w),
        32 => pair_pass_flat::<T, 32>(re, im, w),
        _ => {
            for (rg, ig) in re.chunks_exact_mut(4 * h).zip(im.chunks_exact_mut(4 * h)) {
                let (r01, r23) = rg.split_at_mut(2 * h);
                let (r0, r1) = r01.split_at_mut(h);
                let (r2, r3) = r23.split_at_mut(h);
                let (i01, i23) = ig.split_at_mut(2 * h);
                let (i0, i1) = i01.split_at_mut(h);
                let (i2, i3) = i23.split_at_mut(h);
                let [war, wai, w0r, w0i, w1r, w1i] = w;
                pair_group::<T>(r0, r1, r2, r3, i0, i1, i2, i3, war, wai, w0r, w0i, w1r, w1i);
            }
        }
    }
}

/// The cells of one group of the fused pair pass, each of its eight
/// quarter-streams and six twiddle streams (all of length `h`) passed as
/// an argument of its own. Rust tells LLVM that no `&mut` argument
/// aliases another, so the loop vectorizes without an overlap check.
/// Kept out of line so that the guarantee comes from its own signature,
/// whatever the caller it would be inlined into knows.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn pair_group<T: Float>(
    r0: &mut [T::Real],
    r1: &mut [T::Real],
    r2: &mut [T::Real],
    r3: &mut [T::Real],
    i0: &mut [T::Real],
    i1: &mut [T::Real],
    i2: &mut [T::Real],
    i3: &mut [T::Real],
    wa_re: &[T::Real],
    wa_im: &[T::Real],
    w0_re: &[T::Real],
    w0_im: &[T::Real],
    w1_re: &[T::Real],
    w1_im: &[T::Real],
) {
    let h = wa_re.len();
    let (r0, r1, r2, r3) = (&mut r0[..h], &mut r1[..h], &mut r2[..h], &mut r3[..h]);
    let (i0, i1, i2, i3) = (&mut i0[..h], &mut i1[..h], &mut i2[..h], &mut i3[..h]);
    let (wa_im, w0_re, w0_im) = (&wa_im[..h], &w0_re[..h], &w0_im[..h]);
    let (w1_re, w1_im) = (&w1_re[..h], &w1_im[..h]);
    for k in 0..h {
        let (r, i) = pair_cell::<T>(
            [r0[k], r1[k], r2[k], r3[k]],
            [i0[k], i1[k], i2[k], i3[k]],
            (wa_re[k], wa_im[k]),
            (w0_re[k], w0_im[k]),
            (w1_re[k], w1_im[k]),
        );
        [r0[k], r1[k], r2[k], r3[k]] = r;
        [i0[k], i1[k], i2[k], i3[k]] = i;
    }
}

/// The fused pair pass at a constant half `H`, flat over all groups: the
/// twiddles are copied to the stack once, where no store to `re` or `im`
/// can reach them, and each cell reads and writes its group at the
/// constant offsets `k`, `H+k`, `2H+k` and `3H+k`. Kept out of line so
/// that `re` and `im` are its own arguments, which LLVM knows do not
/// alias: inlined into a caller whose lanes were not arguments, it
/// measured no faster than a scalar cell loop.
#[inline(never)]
fn pair_pass_flat<T: Float, const H: usize>(
    re: &mut [T::Real],
    im: &mut [T::Real],
    w: [&[T::Real]; 6],
) {
    let mut tw = [[T::Real::default(); H]; 6];
    for (t, s) in tw.iter_mut().zip(w) {
        t.copy_from_slice(s);
    }
    let [war, wai, w0r, w0i, w1r, w1i] = &tw;
    for (rc, ic) in re.chunks_exact_mut(4 * H).zip(im.chunks_exact_mut(4 * H)) {
        for k in 0..H {
            let (r, i) = pair_cell::<T>(
                [rc[k], rc[H + k], rc[2 * H + k], rc[3 * H + k]],
                [ic[k], ic[H + k], ic[2 * H + k], ic[3 * H + k]],
                (war[k], wai[k]),
                (w0r[k], w0i[k]),
                (w1r[k], w1i[k]),
            );
            [rc[k], rc[H + k], rc[2 * H + k], rc[3 * H + k]] = r;
            [ic[k], ic[H + k], ic[2 * H + k], ic[3 * H + k]] = i;
        }
    }
}

/// One radix-4 cell of the fused pair pass on the samples at `k`, `h+k`,
/// `2h+k` and `3h+k` (real parts `r`, imaginary parts `i`): the first
/// stage's butterflies `(k, h+k)` and `(2h+k, 3h+k)` with twiddle `wa`,
/// then the second stage's `(k, 2h+k)` with `w0` and `(h+k, 3h+k)` with
/// `w1`. Returns the four outputs in the same order.
#[inline(always)]
fn pair_cell<T: Float>(
    [r0, r1, r2, r3]: [T::Real; 4],
    [i0, i1, i2, i3]: [T::Real; 4],
    (war, wai): (T::Real, T::Real),
    (w0r, w0i): (T::Real, T::Real),
    (w1r, w1i): (T::Real, T::Real),
) -> ([T::Real; 4], [T::Real; 4]) {
    // First stage, group [0..2h): butterfly (k, h+k).
    let pr = r1 * war - i1 * wai;
    let pi = r1 * wai + i1 * war;
    let ar = r0 + pr;
    let ai = i0 + pi;
    let br = r0 - pr;
    let bi = i0 - pi;
    // First stage, group [2h..4h): butterfly (2h+k, 3h+k).
    let qr = r3 * war - i3 * wai;
    let qi = r3 * wai + i3 * war;
    let cr = r2 + qr;
    let ci = i2 + qi;
    let dr = r2 - qr;
    let di = i2 - qi;
    // Second stage: butterflies (k, 2h+k) and (h+k, 3h+k).
    let ur = cr * w0r - ci * w0i;
    let ui = cr * w0i + ci * w0r;
    let vr = dr * w1r - di * w1i;
    let vi = dr * w1i + di * w1r;
    (
        [ar + ur, br + vr, ar - ur, br - vr],
        [ai + ui, bi + vi, ai - ui, bi - vi],
    )
}

/// Pointwise complex product `x[k] ← x[k] · t[k]` in SoA form, in
/// [`Float::LANES`]-wide blocks.
#[inline]
pub fn cmul<T: Float>(
    x_re: &mut [T::Real],
    x_im: &mut [T::Real],
    t_re: &[T::Real],
    t_im: &[T::Real],
) {
    let n = x_re.len();
    assert!(
        x_im.len() == n && t_re.len() == n && t_im.len() == n,
        "cmul slice lengths must match"
    );
    let mut k = 0usize;
    while k + T::LANES <= n {
        for j in 0..T::LANES {
            let xr = x_re[k + j];
            let xi = x_im[k + j];
            x_re[k + j] = xr * t_re[k + j] - xi * t_im[k + j];
            x_im[k + j] = xr * t_im[k + j] + xi * t_re[k + j];
        }
        k += T::LANES;
    }
    while k < n {
        let xr = x_re[k];
        let xi = x_im[k];
        x_re[k] = xr * t_re[k] - xi * t_im[k];
        x_im[k] = xr * t_im[k] + xi * t_re[k];
        k += 1;
    }
}

/// Scales both components by a real factor.
#[inline]
pub fn scale<T: Float>(re: &mut [T::Real], im: &mut [T::Real], s: T::Real) {
    for x in re.iter_mut() {
        *x = *x * s;
    }
    for x in im.iter_mut() {
        *x = *x * s;
    }
}

// ---------------------------------------------------------------------------
// Q15 (widened to i32 lanes) kernels
// ---------------------------------------------------------------------------

/// One block-floating-point radix-2 butterfly group in SoA form, `[i32; 8]`
/// lanes over widened Q15 mantissas.
///
/// The per-stage BFP shift `stage_shift` is fused into the butterfly: twiddle
/// products are accumulated at full Q30 precision in `i64`, the even term is
/// aligned up by 15 bits, and the sum is rounded **once** by
/// `15 + stage_shift` bits with saturation — exactly the scalar BFP
/// butterfly, so outputs are bit-identical. Inputs must be in the Q15
/// mantissa range (`[-32768, 32767]`); outputs are saturated back into it.
#[inline]
pub fn butterfly_q15(
    e_re: &mut [i32],
    e_im: &mut [i32],
    o_re: &mut [i32],
    o_im: &mut [i32],
    w_re: &[i32],
    w_im: &[i32],
    stage_shift: u32,
) {
    let half = e_re.len();
    assert!(
        e_im.len() == half
            && o_re.len() == half
            && o_im.len() == half
            && w_re.len() == half
            && w_im.len() == half,
        "butterfly_q15 slice lengths must match"
    );
    let shift = 15 + stage_shift;
    let bias = 1i64 << (shift - 1);
    let mut er_b = e_re.chunks_exact_mut(I32_LANES);
    let mut ei_b = e_im.chunks_exact_mut(I32_LANES);
    let mut or_b = o_re.chunks_exact_mut(I32_LANES);
    let mut oi_b = o_im.chunks_exact_mut(I32_LANES);
    let mut wr_b = w_re.chunks_exact(I32_LANES);
    let mut wi_b = w_im.chunks_exact(I32_LANES);
    for ((((er_c, ei_c), or_c), oi_c), (wr_c, wi_c)) in (&mut er_b)
        .zip(&mut ei_b)
        .zip(&mut or_b)
        .zip(&mut oi_b)
        .zip((&mut wr_b).zip(&mut wi_b))
    {
        for j in 0..I32_LANES {
            let pr = or_c[j] as i64 * wr_c[j] as i64 - oi_c[j] as i64 * wi_c[j] as i64;
            let pi = or_c[j] as i64 * wi_c[j] as i64 + oi_c[j] as i64 * wr_c[j] as i64;
            let er = (er_c[j] as i64) << 15;
            let ei = (ei_c[j] as i64) << 15;
            er_c[j] = sat16_i64((er + pr + bias) >> shift);
            ei_c[j] = sat16_i64((ei + pi + bias) >> shift);
            or_c[j] = sat16_i64((er - pr + bias) >> shift);
            oi_c[j] = sat16_i64((ei - pi + bias) >> shift);
        }
    }
    for ((((er, ei), or_), oi), (wr, wi)) in er_b
        .into_remainder()
        .iter_mut()
        .zip(ei_b.into_remainder().iter_mut())
        .zip(or_b.into_remainder().iter_mut())
        .zip(oi_b.into_remainder().iter_mut())
        .zip(wr_b.remainder().iter().zip(wi_b.remainder().iter()))
    {
        let pr = *or_ as i64 * *wr as i64 - *oi as i64 * *wi as i64;
        let pi = *or_ as i64 * *wi as i64 + *oi as i64 * *wr as i64;
        let er0 = (*er as i64) << 15;
        let ei0 = (*ei as i64) << 15;
        *er = sat16_i64((er0 + pr + bias) >> shift);
        *ei = sat16_i64((ei0 + pi + bias) >> shift);
        *or_ = sat16_i64((er0 - pr + bias) >> shift);
        *oi = sat16_i64((ei0 - pi + bias) >> shift);
    }
}

/// One whole small-half BFP butterfly stage (`half = w_re.len() < I32_LANES`)
/// in a single flat pass: the per-group loop lives inside the kernel, so the
/// early FFT stages (tens of thousands of one- to four-element groups) pay
/// the call/setup cost once per stage instead of once per group. The stage
/// shift is fused exactly as in [`butterfly_q15`].
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn butterfly_q15_small(
    re: &mut [i32],
    im: &mut [i32],
    w_re: &[i32],
    w_im: &[i32],
    stage_shift: u32,
) {
    debug_assert_eq!(w_re.len(), w_im.len());
    debug_assert_eq!(re.len() % (2 * w_re.len().max(1)), 0);
    match w_re.len() {
        1 => small_stage_q15::<1>(re, im, w_re, w_im, stage_shift),
        2 => small_stage_q15::<2>(re, im, w_re, w_im, stage_shift),
        4 => small_stage_q15::<4>(re, im, w_re, w_im, stage_shift),
        half => {
            let mut start = 0usize;
            while start < re.len() {
                let (e_re, o_re) = re[start..start + 2 * half].split_at_mut(half);
                let (e_im, o_im) = im[start..start + 2 * half].split_at_mut(half);
                butterfly_q15(e_re, e_im, o_re, o_im, w_re, w_im, stage_shift);
                start += half << 1;
            }
        }
    }
}

#[inline]
fn small_stage_q15<const HALF: usize>(
    re: &mut [i32],
    im: &mut [i32],
    w_re: &[i32],
    w_im: &[i32],
    stage_shift: u32,
) {
    let mut wr = [0i32; HALF];
    let mut wi = [0i32; HALF];
    wr.copy_from_slice(&w_re[..HALF]);
    wi.copy_from_slice(&w_im[..HALF]);
    let shift = 15 + stage_shift;
    let bias = 1i64 << (shift - 1);
    for (rc, ic) in re
        .chunks_exact_mut(2 * HALF)
        .zip(im.chunks_exact_mut(2 * HALF))
    {
        for k in 0..HALF {
            let pr = rc[k + HALF] as i64 * wr[k] as i64 - ic[k + HALF] as i64 * wi[k] as i64;
            let pi = rc[k + HALF] as i64 * wi[k] as i64 + ic[k + HALF] as i64 * wr[k] as i64;
            let er = (rc[k] as i64) << 15;
            let ei = (ic[k] as i64) << 15;
            rc[k] = sat16_i64((er + pr + bias) >> shift);
            ic[k] = sat16_i64((ei + pi + bias) >> shift);
            rc[k + HALF] = sat16_i64((er - pr + bias) >> shift);
            ic[k + HALF] = sat16_i64((ei - pi + bias) >> shift);
        }
    }
}

/// Pointwise half-scaled complex product `x[k] ← (x[k] · t[k]) >> 16` in SoA
/// form, `[i32; 8]` lanes — the lane form of the scalar `cmul_half`: the
/// extra halving guarantees the product fits Q15 for any inputs, and the
/// factor of two is returned to the caller through the block scale.
#[inline]
pub fn cmul_half_q15(x_re: &mut [i32], x_im: &mut [i32], t_re: &[i32], t_im: &[i32]) {
    let n = x_re.len();
    assert!(
        x_im.len() == n && t_re.len() == n && t_im.len() == n,
        "cmul_half_q15 slice lengths must match"
    );
    let bias = 1i64 << 15;
    let mut k = 0usize;
    while k + I32_LANES <= n {
        for j in 0..I32_LANES {
            let ar = x_re[k + j] as i64;
            let ai = x_im[k + j] as i64;
            let br = t_re[k + j] as i64;
            let bi = t_im[k + j] as i64;
            x_re[k + j] = sat16_i64((ar * br - ai * bi + bias) >> 16);
            x_im[k + j] = sat16_i64((ar * bi + ai * br + bias) >> 16);
        }
        k += I32_LANES;
    }
    while k < n {
        let ar = x_re[k] as i64;
        let ai = x_im[k] as i64;
        let br = t_re[k] as i64;
        let bi = t_im[k] as i64;
        x_re[k] = sat16_i64((ar * br - ai * bi + bias) >> 16);
        x_im[k] = sat16_i64((ar * bi + ai * br + bias) >> 16);
        k += 1;
    }
}

/// Largest component magnitude across both SoA halves of a Q15 block
/// (0 for an empty block) — the BFP guard scan, `[i32; 8]` lanes.
#[inline]
pub fn block_max_i32(re: &[i32], im: &[i32]) -> i32 {
    assert_eq!(re.len(), im.len(), "block_max_i32 slice lengths must match");
    let n = re.len();
    let mut acc = [0i32; I32_LANES];
    let mut k = 0usize;
    while k + I32_LANES <= n {
        for j in 0..I32_LANES {
            acc[j] = acc[j].max(re[k + j].abs()).max(im[k + j].abs());
        }
        k += I32_LANES;
    }
    let mut max = acc.iter().copied().max().unwrap_or(0);
    while k < n {
        max = max.max(re[k].abs()).max(im[k].abs());
        k += 1;
    }
    max
}

/// Left-shifts a Q15 SoA block up to the BFP stage guard to restore
/// headroom after magnitude-shrinking steps, mirroring the scalar
/// `renormalize_up`. Returns the number of shifts applied (the true value
/// scale shrinks by `2^k`). `guard` is the stage-guard ceiling.
#[inline]
pub fn renormalize_up_i32(re: &mut [i32], im: &mut [i32], guard: i32) -> u32 {
    let max = block_max_i32(re, im);
    if max == 0 {
        return 0;
    }
    let mut k = 0u32;
    while (max << (k + 1)) <= guard {
        k += 1;
    }
    if k > 0 {
        for x in re.iter_mut() {
            *x <<= k;
        }
        for x in im.iter_mut() {
            *x <<= k;
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::for_each_group;

    fn seq<T: Float>(n: usize, phase: f64) -> Vec<T::Real> {
        (0..n)
            .map(|i| T::from_f64(((i as f64) * 0.37 + phase).sin()))
            .collect()
    }

    /// Widens a float lane to `f64` exactly, so `==` compares the bits.
    fn wide<T: Float>(v: &[T::Real]) -> Vec<f64> {
        v.iter().map(|&x| T::to_f64(x)).collect()
    }

    /// The lane butterfly must be bit-identical to a naive scalar loop over
    /// the same expressions, including the non-multiple-of-lane tail. One
    /// generic body, run at both lane widths.
    fn butterfly_matches_scalar<T: Float>() {
        for half in [1usize, 3, 4, 7, 8, 9, 13, 16, 64, 100] {
            let mut e_re = seq::<T>(half, 0.0);
            let mut e_im = seq::<T>(half, 1.0);
            let mut o_re = seq::<T>(half, 2.0);
            let mut o_im = seq::<T>(half, 3.0);
            let w_re = seq::<T>(half, 4.0);
            let w_im = seq::<T>(half, 5.0);
            let (mut se_re, mut se_im) = (e_re.clone(), e_im.clone());
            let (mut so_re, mut so_im) = (o_re.clone(), o_im.clone());
            for k in 0..half {
                let pr = so_re[k] * w_re[k] - so_im[k] * w_im[k];
                let pi = so_re[k] * w_im[k] + so_im[k] * w_re[k];
                let er = se_re[k];
                let ei = se_im[k];
                se_re[k] = er + pr;
                se_im[k] = ei + pi;
                so_re[k] = er - pr;
                so_im[k] = ei - pi;
            }
            butterfly::<T>(&mut e_re, &mut e_im, &mut o_re, &mut o_im, &w_re, &w_im);
            assert_eq!(wide::<T>(&e_re), wide::<T>(&se_re), "half={half}");
            assert_eq!(wide::<T>(&e_im), wide::<T>(&se_im), "half={half}");
            assert_eq!(wide::<T>(&o_re), wide::<T>(&so_re), "half={half}");
            assert_eq!(wide::<T>(&o_im), wide::<T>(&so_im), "half={half}");
        }
    }

    #[test]
    fn f64_butterfly_matches_scalar_bitwise() {
        butterfly_matches_scalar::<f64>();
    }

    #[test]
    fn f32_butterfly_matches_scalar_bitwise() {
        butterfly_matches_scalar::<f32>();
    }

    fn bits<T: Float>(v: &[T::Real]) -> Vec<u64> {
        wide::<T>(v).iter().map(|x| x.to_bits()).collect()
    }

    /// The fused pair kernel must equal two passes of the single-stage
    /// butterfly bit for bit at every half the schedule runs: the per-group
    /// loop (h = 1, 128, 512, 2048, 8192) and both constant-half flat
    /// passes (h = 8, 32). Three groups, each with its own samples, and
    /// six distinct twiddle streams, so a cell that reads the wrong group,
    /// quarter or twiddle stream shows.
    fn pair_matches_two_single_stages<T: Float>() {
        for h in [1usize, 8, 32, 128, 512, 2048, 8192] {
            let n = 3 * 4 * h;
            let (mut re, mut im) = (seq::<T>(n, 0.5), seq::<T>(n, 1.5));
            let (wa_re, wa_im) = (seq::<T>(h, 2.5), seq::<T>(h, 3.5));
            let (wb_re, wb_im) = (seq::<T>(2 * h, 4.5), seq::<T>(2 * h, 5.5));
            let (mut s_re, mut s_im) = (re.clone(), im.clone());
            for_each_group(&mut s_re, &mut s_im, h, |er, ei, or, oi| {
                butterfly::<T>(er, ei, or, oi, &wa_re, &wa_im)
            });
            for_each_group(&mut s_re, &mut s_im, 2 * h, |er, ei, or, oi| {
                butterfly::<T>(er, ei, or, oi, &wb_re, &wb_im)
            });
            butterfly_pair::<T>(&mut re, &mut im, &wa_re, &wa_im, &wb_re, &wb_im);
            assert_eq!(bits::<T>(&re), bits::<T>(&s_re), "h={h}");
            assert_eq!(bits::<T>(&im), bits::<T>(&s_im), "h={h}");
        }
    }

    #[test]
    fn f64_pair_matches_two_single_stages_bitwise() {
        pair_matches_two_single_stages::<f64>();
    }

    #[test]
    fn f32_pair_matches_two_single_stages_bitwise() {
        pair_matches_two_single_stages::<f32>();
    }

    #[test]
    fn q15_butterfly_matches_scalar_bitwise() {
        // Q15-range inputs, including saturation-edge values.
        for half in [1usize, 5, 8, 11, 64] {
            for stage_shift in [0u32, 1, 2] {
                let gen = |p: i64| -> Vec<i32> {
                    (0..half)
                        .map(|i| {
                            let v = ((i as i64 * 9973 + p * 31) % 65536) - 32768;
                            v as i32
                        })
                        .collect()
                };
                let mut e_re = gen(0);
                let mut e_im = gen(1);
                let mut o_re = gen(2);
                let mut o_im = gen(3);
                let w_re = gen(4);
                let w_im = gen(5);
                let (mut se_re, mut se_im) = (e_re.clone(), e_im.clone());
                let (mut so_re, mut so_im) = (o_re.clone(), o_im.clone());
                let shift = 15 + stage_shift;
                let bias = 1i64 << (shift - 1);
                for k in 0..half {
                    let pr = so_re[k] as i64 * w_re[k] as i64 - so_im[k] as i64 * w_im[k] as i64;
                    let pi = so_re[k] as i64 * w_im[k] as i64 + so_im[k] as i64 * w_re[k] as i64;
                    let er = (se_re[k] as i64) << 15;
                    let ei = (se_im[k] as i64) << 15;
                    se_re[k] = sat16_i64((er + pr + bias) >> shift);
                    se_im[k] = sat16_i64((ei + pi + bias) >> shift);
                    so_re[k] = sat16_i64((er - pr + bias) >> shift);
                    so_im[k] = sat16_i64((ei - pi + bias) >> shift);
                }
                butterfly_q15(
                    &mut e_re,
                    &mut e_im,
                    &mut o_re,
                    &mut o_im,
                    &w_re,
                    &w_im,
                    stage_shift,
                );
                assert_eq!(e_re, se_re);
                assert_eq!(e_im, se_im);
                assert_eq!(o_re, so_re);
                assert_eq!(o_im, so_im);
            }
        }
    }

    fn cmul_matches_scalar<T: Float>(n: usize) {
        let mut x_re = seq::<T>(n, 0.3);
        let mut x_im = seq::<T>(n, 1.3);
        let t_re = seq::<T>(n, 2.3);
        let t_im = seq::<T>(n, 3.3);
        let (mut sx_re, mut sx_im) = (x_re.clone(), x_im.clone());
        for k in 0..n {
            let xr = sx_re[k];
            let xi = sx_im[k];
            sx_re[k] = xr * t_re[k] - xi * t_im[k];
            sx_im[k] = xr * t_im[k] + xi * t_re[k];
        }
        cmul::<T>(&mut x_re, &mut x_im, &t_re, &t_im);
        assert_eq!(wide::<T>(&x_re), wide::<T>(&sx_re));
        assert_eq!(wide::<T>(&x_im), wide::<T>(&sx_im));
    }

    #[test]
    fn pointwise_products_match_scalar_bitwise() {
        let n = 37; // exercises both the lane body and the tail
        cmul_matches_scalar::<f64>(n);
        cmul_matches_scalar::<f32>(n);

        let mut q_re: Vec<i32> = (0..n).map(|i| ((i * 991) % 65536) as i32 - 32768).collect();
        let mut q_im: Vec<i32> = (0..n).map(|i| ((i * 457) % 65536) as i32 - 32768).collect();
        let u_re: Vec<i32> = (0..n).map(|i| ((i * 313) % 65536) as i32 - 32768).collect();
        let u_im: Vec<i32> = (0..n).map(|i| ((i * 107) % 65536) as i32 - 32768).collect();
        let (mut sq_re, mut sq_im) = (q_re.clone(), q_im.clone());
        for k in 0..n {
            let ar = sq_re[k] as i64;
            let ai = sq_im[k] as i64;
            let br = u_re[k] as i64;
            let bi = u_im[k] as i64;
            sq_re[k] = sat16_i64((ar * br - ai * bi + (1 << 15)) >> 16);
            sq_im[k] = sat16_i64((ar * bi + ai * br + (1 << 15)) >> 16);
        }
        cmul_half_q15(&mut q_re, &mut q_im, &u_re, &u_im);
        assert_eq!(q_re, sq_re);
        assert_eq!(q_im, sq_im);
    }

    #[test]
    fn block_max_and_renormalize_match_scalar_semantics() {
        let re: Vec<i32> = vec![3, -120, 44, 0, -7, 99, 5, 2, 1, -6, 80];
        let im: Vec<i32> = vec![1, 8, -130, 2, 0, -3, 7, 9, 4, 2, -1];
        assert_eq!(block_max_i32(&re, &im), 130);
        assert_eq!(block_max_i32(&[], &[]), 0);

        let mut re2 = re.clone();
        let mut im2 = im.clone();
        let guard = 13572;
        let k = renormalize_up_i32(&mut re2, &mut im2, guard);
        // 130 << 6 = 8320 ≤ guard < 130 << 7 = 16640 → 6 shifts.
        assert_eq!(k, 6);
        assert!(block_max_i32(&re2, &im2) <= guard);
        for (a, b) in re.iter().zip(re2.iter()) {
            assert_eq!(*a << k, *b);
        }

        let mut zr = vec![0i32; 8];
        let mut zi = vec![0i32; 8];
        assert_eq!(renormalize_up_i32(&mut zr, &mut zi, guard), 0);
        assert!(zr.iter().all(|&v| v == 0));
    }

    #[test]
    fn saturation_clamps_exactly() {
        assert_eq!(sat16_i64(1 << 40), 32767);
        assert_eq!(sat16_i64(-(1 << 40)), -32768);
        assert_eq!(sat16_i64(32767), 32767);
        assert_eq!(sat16_i64(-32768), -32768);
        assert_eq!(sat16_i64(0), 0);
    }
}
