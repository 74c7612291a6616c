//! # uw-dsp — signal-processing substrate for underwater acoustic positioning
//!
//! Everything the ranging and protocol layers need is implemented here
//! from scratch (the workspace deliberately avoids external DSP crates):
//!
//! * [`complex`] — a small `Complex64` type with the arithmetic the FFT needs.
//! * [`fft`] — iterative radix-2 FFT / inverse FFT and real-signal helpers.
//! * [`correlation`] — direct and FFT-based cross-correlation, normalised
//!   correlation, and the 4-segment auto-correlation validation used for
//!   preamble detection.
//! * [`zc`] — Zadoff–Chu sequences used to fill the OFDM bins of the preamble.
//! * [`ofdm`] — OFDM symbol synthesis, cyclic prefixes, and the paper's
//!   4-symbol PN-signed preamble.
//! * [`chirp`] — linear chirps and FMCW sweeps for the BeepBeep / CAT
//!   baselines.
//! * [`coding`] — the CRC-16 and MSB-first bit fields of the report each
//!   device sends the leader.
//! * [`peaks`] — peak detection and noise-floor estimation used by the
//!   dual-microphone direct-path search.
//! * [`resample`] — fractional-delay and sample-rate-offset resampling used
//!   to model clock skew between devices.
//! * [`spectrum`] — per-subcarrier SNR estimation (paper Fig. 22).
//! * [`plan`] — the generic FFT core: [`plan::Radix2`], a Bluestein
//!   wrapper, [`plan::Plan`] and [`plan::Pool`] over a small per-path
//!   [`plan::Path`] trait, with precomputed twiddle tables, cached chirp
//!   state and one tiled in-place bit reversal for every path.
//!   [`FftPlan`] / [`PlanPool`] are its `f64` aliases.
//! * [`matched`] — the generic overlap-save driver [`matched::OverlapSave`]
//!   over a per-path [`matched::Correlate`] block: streaming correlation
//!   against a fixed template with folded normalisation, each block on the
//!   shortest of a ladder of block lengths that covers it.
//!   [`MatchedFilter`] is its `f64` alias.
//! * [`fixed`] — the on-device Q15 fixed-point path: [`Q15`]/[`ComplexQ15`]
//!   saturating integer arithmetic and the block-floating-point hooks
//!   behind [`FixedFftPlan`] and [`Q15MatchedFilter`], selected through
//!   the [`NumericPath`] knob higher layers thread down.
//! * [`float32`] — the single-precision phone-float path: [`Complex32`]
//!   and the hooks behind [`F32FftPlan`] / [`F32MatchedFilter`], with
//!   twice the SIMD lanes per register.
//! * `lanes` (crate-private) — the fixed-width structure-of-arrays lane
//!   kernels (`[f64; 4]`/`[f32; 8]` from one generic float set, `[i32; 8]`
//!   for Q15) all three numeric paths execute their butterflies and
//!   pointwise products through.
//!
//! All functions operate on `f64` sample buffers at a nominal 44.1 kHz
//! sampling rate (the rate exposed by commodity smart devices underwater).
//! The [`fixed`] module quantises at its boundaries and computes its hot
//! loops in 16-bit integers, modelling what shipping phone DSP does.
//!
//! ## Performance notes: one core, per-path hooks
//!
//! The free functions in [`fft`] and [`correlation`] are **one-shot
//! reference paths**: correct, simple, and self-contained, but they rebuild
//! twiddle factors (and, for non-power-of-two lengths, the whole Bluestein
//! chirp setup) and allocate fresh buffers on every call. The plan layer
//! exists because the ranging hot path repeats the *same* transform shapes
//! thousands of times per localization session, on whichever numeric path
//! the session runs.
//!
//! * **One core.** The radix-2 driver, the Bluestein wrapper, the plan,
//!   the plan pool and the overlap-save filter are each written once,
//!   generic over the path. `f64`, `f32` and [`Q15`] plug in only what
//!   really differs: how a table entry is rounded, the butterfly stages
//!   (one fused schedule for both float paths, which differ only in lane
//!   width; per-stage guard shifts on Q15), the pointwise
//!   products, and one overlap-save block (one half-length real-input
//!   block for both float paths; Q15's complex block with its per-call
//!   quantisation and scale bookkeeping). The generic filter alone picks
//!   each block's length from a ladder of powers of two, so a short
//!   input runs a short transform on every path. The public names —
//!   `FftPlan`, `F32FftPlan`, `FixedFftPlan` and the rest — are type
//!   aliases over the core.
//! * **Repeated transforms of one length** → hold an [`FftPlan`] (or its
//!   twin on another path). Construction precomputes per-stage twiddle
//!   tables (forward and inverse) and — for lengths like the paper's
//!   1920-sample OFDM symbol — the Bluestein chirp, its padded spectrum,
//!   and the convolution scratch. The bit-reversal permutation needs no
//!   table: it exchanges 16 × 16 tiles through stack buffers, so its
//!   reads and writes run along cache lines (at 16,384 points a fifth to
//!   a sixth of the time index-pair swaps through a table take). Steady-state
//!   `process_forward` / `process_inverse` calls are **allocation-free**
//!   (enforced by a counting-allocator test) and skip the table and chirp
//!   set-up that the one-shot [`fft::fft_any`] repeats on every call.
//! * **Correlating many streams against one template** → build a
//!   [`MatchedFilter`] once. It stores the template's conjugated spectrum
//!   at every block length of its ladder (from `next_pow2(m)` to
//!   `next_pow2(2m)` for an `m`-sample template) and correlates
//!   arbitrarily long signals by overlap-save — cached-plan FFTs sized to
//!   the lags each block owes instead of one `next_pow2(signal + template)`
//!   monster FFT per call — with the prefix-sum normalisation of
//!   [`correlation::xcorr_normalized`] folded into the same pass. On the
//!   paper preamble (9,840 samples) a 14,112-sample per-link capture costs
//!   one 8,192-point complex transform pair. Use one-shot
//!   [`correlation::xcorr_fft`] only for ad-hoc correlations where the
//!   template changes every call.
//! * **Sharing plans across threads** → [`PlanPool`] checks plans in and
//!   out (building a fresh one only under contention), so parallel ranging
//!   exchanges reuse precomputed state without serialising on a shared
//!   scratch buffer. The matched filters pool their scratch the same way.
//!
//! The one-shot functions remain the ground truth the property tests
//! compare the plan layer against (`tests/plan_proptests.rs`), and
//! `tests/path_digests.rs` pins the exact output bits of every path.
//!
//! ## Performance notes: the Q15 path's hooks and scaling strategy
//!
//! The [`fixed`] module's hooks run the core in 16-bit fixed point for
//! on-device deployment studies. Its scaling strategy is **block floating
//! point** (BFP): one shared exponent per buffer, a 16-bit mantissa per
//! sample.
//!
//! * **Quantisation at the boundary.** Streams are quantised once per call
//!   by their peak (modelling capture-side AGC); templates and twiddle/
//!   chirp tables are quantised once at plan build. Everything in between
//!   is `i16` data with `i32`/`i64` accumulators and a single rounding
//!   shift per product.
//! * **Per-stage guard scaling.** A radix-2 butterfly grows a component by
//!   at most `1 + √2`. Before each stage the plan scans the block maximum
//!   and right-shifts everything (with rounding) until
//!   `max · (1 + √2) ≤ 32767`, so saturation is impossible mid-stage; the
//!   shift count accumulates into the scale factor the transform returns.
//! * **Renormalisation up.** Every transform first shifts the block *up*
//!   to the guard ceiling (tracked in the same scale), so a quiet input or
//!   a block shrunk by a pointwise spectrum product keeps a full mantissa.
//!   Without this, the matched filter loses ~2 bits per overlap-save block.
//! * **Accuracy envelope.** The differential harness
//!   (`tests/fixed_vs_float.rs`) pins the path against the f64 oracle:
//!   ≥ 60 dB SQNR for radix-2 forward transforms, ≥ 55 dB for full
//!   round-trips at the largest (2048-point) correlator block (≥ 58 dB at
//!   smaller sizes), ≥ 50 dB for the Bluestein 1920-point symbol
//!   transform (two extra quantised multiplies), matched-filter peak
//!   indices within ±1 sample of the f64 peak at matrix SNRs, and exact
//!   saturation behaviour at ±1.0.
//! * **What the perf axis records.** On x86 the Q15 matched filter costs
//!   about three times the f64 one (0.60 vs 0.19 ms per 14,112-sample
//!   link capture, `uw-dsp.correlate_ms.q15` vs `uw-dsp.correlate_ms.f64`
//!   in a traced perfbench `field-rounds` run), because the float paths
//!   run a half-length real-input leg that Q15 does not have, and their
//!   two-stage butterfly passes are packed while Q15 runs one stage per
//!   sweep behind a guard scan. The point of the axis was
//!   never an x86 speedup: it models the numeric behaviour of the integer
//!   DSPs phones actually ship and tracks both paths' costs over time.
//!
//! ## Performance notes: structure-of-arrays lane kernels
//!
//! All three numeric paths execute their hot loops through the fixed-width
//! lane kernels in the crate-private `lanes` module: structure-of-arrays `re[]` / `im[]` buffers
//! processed in `[f64; 4]` / `[f32; 8]` / `[i32; 8]` blocks with scalar
//! tails.
//!
//! * **Why SoA.** Interleaved `{re, im}` structs make the autovectorizer
//!   emit shuffle-heavy code or give up: the real and imaginary streams
//!   share cache lines but want different arithmetic. Split buffers turn
//!   every butterfly and pointwise product into independent contiguous
//!   streams that lower to packed SIMD loads/stores directly.
//! * **Fixed-width blocks, no intrinsics.** Each kernel walks the SoA
//!   buffers in compile-time-width chunks (zipped `chunks_exact`
//!   iterators), so LLVM sees fixed-trip-count inner loops with no bounds
//!   checks — a shape it can lower to packed SIMD, but only when it can
//!   also rule out that the streams a loop stores overlap the ones it
//!   loads. The fused two-stage pass could not: it ran one lane at a time
//!   on every pass spanning more than one group, 2.7–8.2× slower than now,
//!   until each group's quarter-streams and twiddle streams became
//!   separate arguments of one out-of-line cell loop (and halves 8 and 32
//!   a flat pass at constant offsets). That was found by timing each pass
//!   of a release transform, which is how vectorization is checked here;
//!   the kernel's shape alone proves nothing. The crate stays
//!   dependency-free and `forbid(unsafe_code)`, and the same loops
//!   degrade to scalar code on targets without SIMD.
//! * **One float schedule.** The f64 and f32 kernels are one generic set,
//!   and both paths run one butterfly schedule: the first three stages
//!   fused into one sweep of closed 8-point cells, then two stages per
//!   sweep, then a last odd stage — so no float stage narrower than a
//!   lane block is left (transforms shorter than 8 points run the pair
//!   and plain kernels). Q15 cannot fuse, because each of its stages
//!   scans the block for its guard shift first; its early stages
//!   (`half < 8`) run through const-generic whole-stage kernels instead
//!   of per-group calls.
//! * **Bit-identical by construction.** Every kernel computes the same
//!   expressions in the same order as the test-only one-lane-per-sample
//!   reference transforms (one generic `forward_scalar` /
//!   `inverse_scalar` for the two float paths, a BFP twin for Q15); the
//!   unit tests assert `==` on the outputs of the interleaved and the SoA
//!   entry points at every power of two up to 65,536, so neither
//!   vectorization nor the tiled bit reversal can silently change
//!   answers. The interleaved entry points split into pooled SoA scratch
//!   in natural order at the boundary and run the SoA transform;
//!   SoA-native callers (the matched filters) never interleave.
//! * **Measured effect** (one traced 40-s run of
//!   `python3 perfbench/run.py --workload field-rounds --seed 81 --trace 1`
//!   on a 2-vCPU AVX-512 x86-64 VM). Whole correlations gained more from
//!   transform length than from lane width: every path runs each block at
//!   the shortest length that covers its lags, and both float paths run
//!   the real-input leg, so correlating a 14,112-sample link capture
//!   takes 0.19 ms on f64, 0.14 ms on f32 and 0.60 ms on Q15
//!   (`uw-dsp.correlate_ms.*`; see [`matched`]), against 0.30, 0.27 and
//!   0.59 ms in the same-seed run before the two-stage pass was
//!   vectorized (Q15 does not run it).
//!
//! ## Example
//!
//! ```
//! use uw_dsp::{Complex64, FftPlan};
//!
//! // Plan once for the paper's 1920-sample OFDM symbol length, then
//! // transform repeatedly without further allocation.
//! let mut plan = FftPlan::new(1920).unwrap();
//! let mut data: Vec<Complex64> = (0..1920)
//!     .map(|i| Complex64::new((i as f64 * 0.31).sin(), 0.0))
//!     .collect();
//! let original = data.clone();
//! plan.process_forward(&mut data).unwrap();
//! plan.process_inverse(&mut data).unwrap();
//! // Forward + inverse round-trips to the input.
//! for (a, b) in data.iter().zip(original.iter()) {
//!     assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chirp;
pub mod coding;
pub mod complex;
pub mod correlation;
pub mod fft;
pub mod fixed;
pub mod float32;
mod lanes;
pub mod matched;
pub mod ofdm;
pub mod peaks;
pub mod plan;
pub mod resample;
pub mod spectrum;
pub mod zc;

pub use complex::Complex64;
pub use fixed::{ComplexQ15, FixedFftPlan, FixedPlanPool, NumericPath, Q15MatchedFilter, Q15};
pub use float32::{Complex32, F32FftPlan, F32MatchedFilter, F32PlanPool};
pub use matched::MatchedFilter;
pub use plan::{FftPlan, PlanPool};

/// Nominal audio sampling rate of commodity smart devices (Hz).
pub const SAMPLE_RATE: f64 = 44_100.0;

/// Lower edge of the usable underwater band on smart devices (Hz).
pub const BAND_LOW_HZ: f64 = 1_000.0;

/// Upper edge of the usable underwater band on smart devices (Hz).
pub const BAND_HIGH_HZ: f64 = 5_000.0;

/// Errors produced by the DSP layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DspError {
    /// The input length was invalid (empty, not a power of two where one is
    /// required, or mismatched with a paired buffer).
    InvalidLength {
        /// Human-readable description of the constraint that was violated.
        reason: &'static str,
    },
    /// A parameter was outside its legal range.
    InvalidParameter {
        /// Human-readable description of the parameter problem.
        reason: &'static str,
    },
}

impl core::fmt::Display for DspError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DspError::InvalidLength { reason } => write!(f, "invalid length: {reason}"),
            DspError::InvalidParameter { reason } => write!(f, "invalid parameter: {reason}"),
        }
    }
}

impl std::error::Error for DspError {}

/// Convenience result alias for the DSP layer.
pub type Result<T> = std::result::Result<T, DspError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn band_constants_are_sane() {
        assert!(BAND_LOW_HZ < BAND_HIGH_HZ);
        assert!(BAND_HIGH_HZ < SAMPLE_RATE / 2.0);
    }

    #[test]
    fn error_display_is_informative() {
        let e = DspError::InvalidLength {
            reason: "empty input",
        };
        assert!(e.to_string().contains("empty input"));
        let e = DspError::InvalidParameter {
            reason: "negative rate",
        };
        assert!(e.to_string().contains("negative rate"));
    }
}
