//! Streaming matched filter: overlap-save block correlation against a
//! fixed template, one driver for all three numeric paths.
//!
//! Preamble detection correlates every incoming microphone stream against
//! the *same* ~10 k-sample preamble. The one-shot [`crate::correlation`]
//! path pays, per call, two forward FFTs and one inverse FFT at
//! `next_pow2(signal + template)` — recomputing the template spectrum and
//! reallocating every buffer each time. [`OverlapSave`] instead:
//!
//! * precomputes the template's conjugated spectrum **once** at a fixed
//!   block length,
//! * correlates arbitrarily long signals by **overlap-save**: each block of
//!   `L` input samples yields `L − template_len + 1` valid lags from one
//!   forward + one inverse FFT through a cached table-driven plan,
//! * folds the prefix-sum normalisation of
//!   [`crate::correlation::xcorr_normalized`] into the same pass, and
//! * keeps its scratch in an internal pool, so steady-state calls are
//!   allocation-free and concurrent callers do not serialise on shared
//!   buffers.
//!
//! Output has the same definition as `xcorr_normalized` / `xcorr_fft`
//! (valid lags only), to within the rounding of the path it runs on.
//!
//! ## One driver, per-path blocks
//!
//! The driver — validation, the scratch pool, the walk over blocks, the
//! normalisation — is generic over a [`Correlate`] path; a path supplies
//! its template spectra, its per-call set-up and one block. The `f64`
//! oracle ([`MatchedFilter`]) and Q15 ([`crate::fixed::Q15MatchedFilter`])
//! run one complex [`Leg`] at `next_pow2(4 · template_len)`: the real block
//! loaded into the SoA real lanes, a forward FFT, the pointwise product
//! with the conjugated template spectrum, an inverse FFT. Q15 adds its
//! per-call quantisation and BFP scale bookkeeping. The f32 path
//! ([`crate::float32::F32MatchedFilter`]) runs a half-length real-input
//! transform with a half-size tail leg for the final block.

use crate::fft::next_pow2;
use crate::plan::{soa_zeros, Lanes, Path, Radix2, Soa, Stash};
use crate::{DspError, Result};
use std::ops::Add;

/// The per-path half of the overlap-save matched filter: template spectra,
/// per-call set-up, one block, and the window energies the normalisation
/// divides by.
pub trait Correlate: Path {
    /// The template's precomputed spectra, plans and scales on this path.
    type Template: Clone;
    /// Per-call buffers, pooled by the filter.
    type Scratch;

    /// Precomputes the spectra of a non-empty `template`; returns them with
    /// the template's L2 norm as this path quantises it.
    fn template(template: &[f64]) -> Result<(Self::Template, f64)>;
    /// Overlap-save block length in samples.
    fn block_len(t: &Self::Template) -> usize;
    /// Fresh per-call buffers.
    fn scratch(t: &Self::Template) -> Self::Scratch;
    /// Per-call set-up before the first block (Q15 quantises the signal).
    fn prepare(_signal: &[f64], _s: &mut Self::Scratch) {}
    /// Appends lags `p .. p + take` of the raw correlation to `out`.
    fn block(
        t: &Self::Template,
        signal: &[f64],
        p: usize,
        take: usize,
        out: &mut Vec<f64>,
        s: &mut Self::Scratch,
    ) -> Result<()>;
    /// Divides each raw lag of `out` by `template_norm` times the root of
    /// its `m`-sample signal window's energy, as this path quantises the
    /// signal (0 where the window is silent). Runs after the blocks, so
    /// the energies are computed while the division reads them hot.
    fn normalize_lags(
        signal: &[f64],
        out: &mut [f64],
        template_norm: f64,
        m: usize,
        s: &mut Self::Scratch,
    );
}

/// A precomputed overlap-save matched filter for one fixed template, on
/// one numeric path. `f64` at the API boundary on every path: signals
/// arrive from the capture layer as `f64`.
pub struct OverlapSave<T: Correlate> {
    template_len: usize,
    /// L2 norm of the template as the path sees it (for normalisation).
    template_norm: f64,
    /// Valid lags produced per block: `block_len − template_len + 1`.
    step: usize,
    template: T::Template,
    pool: Stash<T::Scratch>,
}

/// The `f64` matched filter: one complex leg at
/// `next_pow2(4 · template_len)` through the `[f64; 4]` lane kernels.
pub type MatchedFilter = OverlapSave<f64>;

impl<T: Correlate> std::fmt::Debug for OverlapSave<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OverlapSave")
            .field("path", &std::any::type_name::<T>())
            .field("template_len", &self.template_len)
            .field("block_len", &self.block_len())
            .finish()
    }
}

impl<T: Correlate> Clone for OverlapSave<T> {
    fn clone(&self) -> Self {
        Self {
            template_len: self.template_len,
            template_norm: self.template_norm,
            step: self.step,
            template: self.template.clone(),
            pool: Stash::new(Vec::new()),
        }
    }
}

impl<T: Correlate> OverlapSave<T> {
    /// Builds a matched filter for `template`. The template must be
    /// non-empty and carry non-zero energy (a zero template cannot be
    /// normalised against).
    pub fn new(template: &[f64]) -> Result<Self> {
        if template.is_empty() {
            return Err(DspError::InvalidLength {
                reason: "matched-filter template must be non-empty",
            });
        }
        let (state, template_norm) = T::template(template)?;
        if template_norm == 0.0 {
            return Err(DspError::InvalidParameter {
                reason: "template has zero energy",
            });
        }
        Ok(Self {
            template_len: template.len(),
            template_norm,
            step: T::block_len(&state) - template.len() + 1,
            template: state,
            pool: Stash::new(Vec::new()),
        })
    }

    /// Length of the template this filter was built for.
    pub fn template_len(&self) -> usize {
        self.template_len
    }

    /// Returns true for the degenerate empty-template filter (never
    /// constructable).
    pub fn is_empty(&self) -> bool {
        self.template_len == 0
    }

    /// FFT block length used internally (on the f32 path the main leg's;
    /// the final block of a stream may run through a half-size tail leg).
    pub fn block_len(&self) -> usize {
        T::block_len(&self.template)
    }

    /// Number of valid correlation lags for a signal of `signal_len`
    /// samples, or an error when the signal is shorter than the template.
    pub fn output_len(&self, signal_len: usize) -> Result<usize> {
        if signal_len < self.template_len {
            return Err(DspError::InvalidLength {
                reason: "template longer than signal",
            });
        }
        Ok(signal_len - self.template_len + 1)
    }

    /// Raw valid-lag cross-correlation (same definition as
    /// [`crate::correlation::xcorr_fft`]) into a caller buffer. Steady-state
    /// allocation-free when `out` has capacity.
    pub fn correlate_into(&self, signal: &[f64], out: &mut Vec<f64>) -> Result<()> {
        self.run(signal, out, false)
    }

    /// Normalised valid-lag cross-correlation (same definition as
    /// [`crate::correlation::xcorr_normalized`]) into a caller buffer.
    /// Steady-state allocation-free when `out` has capacity.
    pub fn correlate_normalized_into(&self, signal: &[f64], out: &mut Vec<f64>) -> Result<()> {
        self.run(signal, out, true)
    }

    /// Convenience wrapper returning a fresh vector of normalised
    /// correlations.
    pub fn correlate_normalized(&self, signal: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.correlate_normalized_into(signal, &mut out)?;
        Ok(out)
    }

    fn run(&self, signal: &[f64], out: &mut Vec<f64>, normalize: bool) -> Result<()> {
        if signal.is_empty() {
            return Err(DspError::InvalidLength {
                reason: "correlation inputs must be non-empty",
            });
        }
        let n_out = self.output_len(signal.len())?;
        self.pool.with(
            || T::scratch(&self.template),
            |s| self.run_with(signal, n_out, out, normalize, s),
        )
    }

    fn run_with(
        &self,
        signal: &[f64],
        n_out: usize,
        out: &mut Vec<f64>,
        normalize: bool,
        s: &mut T::Scratch,
    ) -> Result<()> {
        T::prepare(signal, s);
        out.clear();
        out.reserve(n_out);
        // Overlap-save: block `p` covers signal[p .. p+L); its circular
        // correlation is linear (wrap-free) on the first L − m + 1 lags.
        for p in (0..n_out).step_by(self.step) {
            T::block(&self.template, signal, p, self.step.min(n_out - p), out, s)?;
        }
        if normalize {
            T::normalize_lags(signal, out, self.template_norm, self.template_len, s);
        }
        Ok(())
    }
}

/// Replaces `prefix` with the running sums of `energies`, starting at 0.
pub(crate) fn prefix_sums<E: Copy + Default + Add<Output = E>>(
    prefix: &mut Vec<E>,
    energies: impl ExactSizeIterator<Item = E>,
) {
    prefix.clear();
    prefix.reserve(energies.len() + 1);
    let mut acc = E::default();
    prefix.push(acc);
    for e in energies {
        acc = acc + e;
        prefix.push(acc);
    }
}

/// Divides each raw lag `out[k]` by `template_norm` times the root of its
/// window energy, `energy(prefix[k + m], prefix[k])` over running sums of
/// the squared samples; lags whose window has no energy become 0.
pub(crate) fn divide_by_windows<E: Copy>(
    out: &mut [f64],
    prefix: &[E],
    m: usize,
    template_norm: f64,
    energy: impl Fn(E, E) -> f64,
) {
    for ((r, &hi), &lo) in out.iter_mut().zip(&prefix[m..]).zip(prefix) {
        let denom = template_norm * energy(hi, lo).sqrt();
        *r = if denom > 0.0 { *r / denom } else { 0.0 };
    }
}

/// Per-call buffers of the float paths: one SoA block and the sliding
/// window energies as `f64` prefix sums.
pub struct FloatScratch<R> {
    pub(crate) lanes: Lanes<R>,
    pub(crate) prefix: Vec<f64>,
}

impl<R: Copy + Default> FloatScratch<R> {
    pub(crate) fn new(block: usize) -> Self {
        Self {
            lanes: Lanes::new(block),
            prefix: Vec::new(),
        }
    }
}

/// One overlap-save leg over the complex transform: the conjugated
/// template spectrum at one block length and the radix-2 plan that runs
/// it. The f64 and Q15 filters each run one.
#[derive(Clone)]
pub struct Leg<T: Path> {
    spec: Soa<T::Real>,
    plan: Radix2<T>,
}

impl<T: Path> Leg<T> {
    /// The block length `next_pow2(4·m)` (at least 1024) for an `m`-sample
    /// template: each block's two transforms yield ≥ 3m valid lags.
    pub(crate) fn block_len(m: usize) -> usize {
        next_pow2(4 * m).max(1024)
    }

    /// Transforms the template, already on this path, at `fft_len` and
    /// conjugates its spectrum. Returns the leg and the transform's shift.
    pub(crate) fn new(
        template: impl Iterator<Item = T::Real>,
        fft_len: usize,
    ) -> Result<(Self, i32)> {
        let plan = Radix2::new(fft_len)?;
        let (mut re, mut im) = soa_zeros(fft_len);
        for (slot, t) in re.iter_mut().zip(template) {
            *slot = t;
        }
        let shift = plan.soa(&mut re, &mut im, true)?;
        for (r, i) in re.iter_mut().zip(im.iter_mut()) {
            (*r, *i) = T::split(T::conj(T::join(*r, *i)));
        }
        Ok((
            Self {
                spec: (re, im),
                plan,
            },
            shift,
        ))
    }

    /// Block length in samples.
    pub(crate) fn len(&self) -> usize {
        self.plan.len()
    }

    /// Correlates `block` (at most [`Leg::len`] samples, zero-padded)
    /// against the template, leaving the circular correlation in `re`.
    /// Returns the net right shift (0 on the float paths).
    pub(crate) fn correlate<S: Copy>(
        &self,
        block: &[S],
        load: impl Fn(S) -> T::Real,
        re: &mut [T::Real],
        im: &mut [T::Real],
    ) -> Result<i32> {
        for (slot, &x) in re.iter_mut().zip(block) {
            *slot = load(x);
        }
        re[block.len()..].fill(T::Real::default());
        im.fill(T::Real::default());
        let shift = self.plan.soa(re, im, true)?;
        T::mul_spectrum(re, im, &self.spec.0, &self.spec.1);
        let shift = shift + self.plan.soa(re, im, false)?;
        T::normalize(re, im, self.len());
        Ok(shift + T::PRODUCT_SHIFT)
    }
}

impl Correlate for f64 {
    type Template = Leg<f64>;
    type Scratch = FloatScratch<f64>;

    fn template(template: &[f64]) -> Result<(Leg<f64>, f64)> {
        let norm = template.iter().map(|t| t * t).sum::<f64>().sqrt();
        let (leg, _) = Leg::new(
            template.iter().copied(),
            Leg::<f64>::block_len(template.len()),
        )?;
        Ok((leg, norm))
    }

    fn block_len(t: &Leg<f64>) -> usize {
        t.len()
    }

    fn scratch(t: &Leg<f64>) -> FloatScratch<f64> {
        FloatScratch::new(t.len())
    }

    fn block(
        t: &Leg<f64>,
        signal: &[f64],
        p: usize,
        take: usize,
        out: &mut Vec<f64>,
        s: &mut FloatScratch<f64>,
    ) -> Result<()> {
        let end = signal.len().min(p + t.len());
        let (re, im) = s.lanes.split();
        t.correlate(&signal[p..end], |x| x, re, im)?;
        out.extend_from_slice(&re[..take]);
        Ok(())
    }

    fn normalize_lags(
        signal: &[f64],
        out: &mut [f64],
        template_norm: f64,
        m: usize,
        s: &mut FloatScratch<f64>,
    ) {
        prefix_sums(&mut s.prefix, signal.iter().map(|&x| x * x));
        divide_by_windows(out, &s.prefix, m, template_norm, |hi, lo| hi - lo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::{argmax, xcorr_fft, xcorr_normalized};

    fn signal_with_template(template: &[f64], offset: usize, total: usize) -> Vec<f64> {
        let mut signal: Vec<f64> = (0..total)
            .map(|i| 0.01 * ((i as f64) * 0.377).sin())
            .collect();
        for (i, &t) in template.iter().enumerate() {
            signal[offset + i] += t;
        }
        signal
    }

    #[test]
    fn matches_one_shot_raw_correlation() {
        let template: Vec<f64> = (0..257).map(|i| ((i as f64) * 0.31).cos()).collect();
        let signal = signal_with_template(&template, 900, 4001);
        let reference = xcorr_fft(&signal, &template).unwrap();
        let filter = MatchedFilter::new(&template).unwrap();
        let mut out = Vec::new();
        filter.correlate_into(&signal, &mut out).unwrap();
        assert_eq!(out.len(), reference.len());
        for (a, b) in out.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn matches_one_shot_normalized_correlation_across_block_boundaries() {
        // A signal long enough that overlap-save needs several blocks.
        let template: Vec<f64> = (0..300).map(|i| ((i as f64) * 0.7).sin()).collect();
        let filter = MatchedFilter::new(&template).unwrap();
        let total = filter.block_len() * 3 + 77;
        let signal = signal_with_template(&template, filter.block_len() + 13, total);
        let reference = xcorr_normalized(&signal, &template).unwrap();
        let streamed = filter.correlate_normalized(&signal).unwrap();
        assert_eq!(streamed.len(), reference.len());
        for (a, b) in streamed.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn peak_lands_on_the_embedded_template() {
        let template: Vec<f64> = (0..128)
            .map(|i| ((i as f64) * 0.4).sin() * ((i as f64) * 0.013).cos())
            .collect();
        let signal = signal_with_template(&template, 733, 5000);
        let filter = MatchedFilter::new(&template).unwrap();
        let corr = filter.correlate_normalized(&signal).unwrap();
        let (idx, peak) = argmax(&corr).unwrap();
        assert_eq!(idx, 733);
        assert!(peak > 0.9, "peak {peak}");
    }

    #[test]
    fn scratch_pool_reuse_is_consistent() {
        let template: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.9).sin()).collect();
        let filter = MatchedFilter::new(&template).unwrap();
        let signal = signal_with_template(&template, 100, 1200);
        let first = filter.correlate_normalized(&signal).unwrap();
        // Repeated calls reuse pooled scratch and must be bit-identical.
        for _ in 0..3 {
            let again = filter.correlate_normalized(&signal).unwrap();
            assert_eq!(first, again);
        }
        // A clone starts with an empty pool but computes the same result.
        let cloned = filter.clone();
        assert_eq!(cloned.correlate_normalized(&signal).unwrap(), first);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(MatchedFilter::new(&[]).is_err());
        assert!(MatchedFilter::new(&[0.0; 32]).is_err());
        let filter = MatchedFilter::new(&[1.0, -1.0, 0.5]).unwrap();
        let mut out = Vec::new();
        assert!(filter.correlate_into(&[], &mut out).is_err());
        assert!(filter.correlate_into(&[1.0, 2.0], &mut out).is_err());
        assert!(filter.output_len(2).is_err());
        assert_eq!(filter.output_len(10).unwrap(), 8);
    }

    #[test]
    fn short_signal_single_block_path() {
        // Signal barely longer than the template: one block, partial take.
        let template: Vec<f64> = (0..50).map(|i| (i as f64 * 0.23).cos()).collect();
        let signal = signal_with_template(&template, 3, 60);
        let filter = MatchedFilter::new(&template).unwrap();
        let reference = xcorr_normalized(&signal, &template).unwrap();
        let streamed = filter.correlate_normalized(&signal).unwrap();
        for (a, b) in streamed.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }
}
