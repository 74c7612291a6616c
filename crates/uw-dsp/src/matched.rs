//! Streaming matched filter: overlap-save block correlation against a
//! fixed template, one driver for all three numeric paths.
//!
//! Preamble detection correlates every incoming microphone stream against
//! the *same* ~10 k-sample preamble. The one-shot [`crate::correlation`]
//! path pays, per call, two forward FFTs and one inverse FFT at
//! `next_pow2(signal + template)` — recomputing the template spectrum and
//! reallocating every buffer each time. [`OverlapSave`] instead:
//!
//! * precomputes the template's conjugated spectrum **once**, at a ladder
//!   of power-of-two block lengths,
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
//! ## One generic filter, a ladder of block lengths
//!
//! The driver — validation, the scratch pool, the walk over blocks, the
//! choice of block length, the normalisation — is generic over a
//! [`Correlate`] path; a path supplies its template spectrum at one block
//! length (a *rung*), its per-call set-up and one block. The ladder runs
//! from the shortest power of two that holds the template
//! (`next_pow2(template_len)`, at least 1024) up to the path's top length
//! `next_pow2(SPAN · template_len)`. Block positions always advance by the
//! top rung's step, so the output never depends on how a caller split its
//! input; each block runs on the shortest rung whose valid lags cover the
//! lags that block still owes. A signal much shorter than a top block —
//! a per-link capture — therefore pays for one short transform pair
//! instead of one mostly zero-padded long one, and a stream's final
//! partial block runs on a cheaper rung.
//!
//! The two float paths (`f64`, the oracle [`MatchedFilter`], and `f32`,
//! [`crate::float32::F32MatchedFilter`]) run every block through one
//! [`RealLeg`]: a half-length real-input transform, top length
//! `next_pow2(2 · template_len)`. Q15 ([`crate::fixed::Q15MatchedFilter`])
//! runs a complex block-floating-point leg, top length
//! `next_pow2(4 · template_len)`, with its per-call quantisation and BFP
//! scale bookkeeping.

use crate::fft::next_pow2;
use crate::plan::{soa_zeros, Float, Lanes, Path, Radix2, Soa, Stash};
use crate::{DspError, Result};
use std::ops::Add;

/// The per-path half of the overlap-save matched filter: template spectra,
/// per-call set-up, one block, and the window energies the normalisation
/// divides by.
pub trait Correlate: Path {
    /// The template's spectrum at one block length, with the plan that
    /// runs it.
    type Rung: Clone;
    /// Per-call buffers, pooled by the filter.
    type Scratch;
    /// The top rung's block length is `next_pow2(SPAN · template_len)`, at
    /// least 1024: each top block yields over `(SPAN − 1) · template_len`
    /// lags.
    const SPAN: usize;

    /// The L2 norm of a non-empty `template` as this path quantises it.
    fn norm(template: &[f64]) -> f64;
    /// Precomputes the template's spectrum at block length `len`, a power
    /// of two no shorter than the template.
    fn rung(template: &[f64], len: usize) -> Result<Self::Rung>;
    /// Fresh per-call buffers for blocks of up to `len` samples.
    fn scratch(len: usize) -> Self::Scratch;
    /// Per-call set-up before the first block (Q15 quantises the signal).
    fn prepare(_signal: &[f64], _s: &mut Self::Scratch) {}
    /// Appends lags `p .. p + take` of the raw correlation to `out`,
    /// computed on `rung`, whose valid lags cover `take`.
    fn block(
        rung: &Self::Rung,
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
    /// The ladder, shortest first: each rung with its block length.
    rungs: Vec<(usize, T::Rung)>,
    pool: Stash<T::Scratch>,
}

/// The `f64` matched filter: the real-input leg at up to
/// `next_pow2(2 · template_len)` through the `[f64; 4]` lane kernels.
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
            rungs: self.rungs.clone(),
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
        let template_norm = T::norm(template);
        if template_norm == 0.0 {
            return Err(DspError::InvalidParameter {
                reason: "template has zero energy",
            });
        }
        let m = template.len();
        let top = next_pow2(T::SPAN * m).max(1024);
        let mut rungs = Vec::new();
        let mut len = next_pow2(m).max(1024);
        while len <= top {
            rungs.push((len, T::rung(template, len)?));
            len *= 2;
        }
        Ok(Self {
            template_len: m,
            template_norm,
            rungs,
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

    /// The top rung's block length: block positions advance by its
    /// `block_len − template_len + 1` valid lags, although a block that
    /// owes fewer lags runs on a shorter rung.
    pub fn block_len(&self) -> usize {
        self.rungs[self.rungs.len() - 1].0
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
            || T::scratch(self.block_len()),
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
        let m = self.template_len;
        let step = self.block_len() - m + 1;
        // Overlap-save: block `p` covers signal[p .. p+L); its circular
        // correlation is linear (wrap-free) on the first L − m + 1 lags.
        for p in (0..n_out).step_by(step) {
            let take = step.min(n_out - p);
            // The shortest rung whose valid lags cover what the block owes.
            let k = self.rungs.partition_point(|&(len, _)| len - m + 1 < take);
            T::block(&self.rungs[k].1, signal, p, take, out, s)?;
        }
        if normalize {
            T::normalize_lags(signal, out, self.template_norm, m, s);
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
    lanes: Lanes<R>,
    prefix: Vec<f64>,
}

/// One rung of the float paths: an overlap-save block of `len` real
/// samples run as a **real-input FFT**.
///
/// Both the block and the template are real, so the `len` samples are
/// packed as `z[j] = x[2j] + i·x[2j+1]` into one complex transform of
/// length `len / 2`, untangled to the physical half-spectrum, multiplied by
/// the conjugated template half-spectrum, re-packed, and inverted through
/// a second half-length transform whose output interleaves the real
/// correlation samples. Untangle, spectrum product and re-pack are fused
/// into a single symmetric pass, so a block costs two half-length FFTs
/// plus one O(len/2) sweep — about 2.5× less transform work than the
/// complex-FFT formulation, with exactly the same convolution in exact
/// arithmetic (the pack identities are algebraic, not approximate). The
/// half-length transforms also keep the preamble's top block
/// cache-resident, which is why the float paths' top length is
/// `next_pow2(2m)` rather than `next_pow2(4m)`.
#[derive(Clone)]
pub struct RealLeg<T: Float> {
    /// Conjugated template **half**-spectrum, `len/2 + 1` bins (bins 0 and
    /// `len/2` are real), pre-scaled by the inverse transform's
    /// 1/(len/2) normalisation.
    spec: Soa<T::Real>,
    /// Untangle twist factors `e^(−2πik/len)` for `k = 0 ..= len/2`,
    /// computed in f64 and rounded once.
    twist: Soa<T::Real>,
    /// Half-length complex plan (`len / 2`).
    plan: Radix2<T>,
}

impl<T: Float> RealLeg<T> {
    /// Precomputes the twist table, the conjugated (and 1/H-scaled)
    /// template half-spectrum at `len`, and the half-length plan.
    fn new(template: &[f64], len: usize) -> Result<Self> {
        let half = len / 2;
        let plan = Radix2::<T>::new(half)?;
        let twist: Soa<T::Real> = (0..=half)
            .map(|k| {
                let ang = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
                (T::from_f64(ang.cos()), T::from_f64(ang.sin()))
            })
            .unzip();

        // Template half-spectrum: pack the rounded template into the
        // half-length transform and untangle to the physical bins.
        let (mut re, mut im) = soa_zeros::<T::Real>(half);
        for (j, &t) in template.iter().enumerate() {
            let lane = if j % 2 == 0 { &mut re } else { &mut im };
            lane[j / 2] = T::from_f64(t);
        }
        plan.soa(&mut re, &mut im, true)?;
        let h = T::from_f64(0.5);
        let inv_h = T::recip_len(half);
        let spec = (0..=half)
            .map(|k| {
                let j = (half - k) % half;
                let (zr, zi) = (re[k % half], im[k % half]);
                let (yr, yi) = (re[j], im[j]);
                // X[k] = (Z[k] + conj(Z[h−k]))/2 − i·W^k·(Z[k] − conj(Z[h−k]))/2
                let xer = h * (zr + yr);
                let xei = h * (zi - yi);
                let xor_ = h * (zi + yi);
                let xoi = -h * (zr - yr);
                let (wr, wi) = (twist.0[k], twist.1[k]);
                // Conjugated (the correlator multiplies by conj(T)) and
                // pre-scaled by 1/(len/2): the half-length inverse in
                // `block` runs unnormalised, so its 1/H factor lives here,
                // applied once at construction instead of twice per block.
                (
                    (xer + wr * xor_ - wi * xoi) * inv_h,
                    -(xei + wr * xoi + wi * xor_) * inv_h,
                )
            })
            .unzip();
        Ok(Self { spec, twist, plan })
    }

    /// Appends the `take` lags of the overlap-save block at lag `p`. `re`
    /// / `im` are the top rung's scratch; a lower rung borrows a prefix.
    fn block(
        &self,
        signal: &[f64],
        p: usize,
        take: usize,
        out: &mut Vec<f64>,
        re: &mut [T::Real],
        im: &mut [T::Real],
    ) -> Result<()> {
        let h = self.plan.len();
        let re = &mut re[..h];
        let im = &mut im[..h];
        let zero = T::Real::default();
        // Pack the real block: even samples → re, odd samples → im.
        let available = (signal.len() - p).min(2 * h);
        let block = &signal[p..p + available];
        let mut pairs = block.chunks_exact(2);
        let mut j = 0usize;
        for pair in &mut pairs {
            re[j] = T::from_f64(pair[0]);
            im[j] = T::from_f64(pair[1]);
            j += 1;
        }
        if let [last] = pairs.remainder() {
            re[j] = T::from_f64(*last);
            im[j] = zero;
            j += 1;
        }
        re[j..].fill(zero);
        im[j..].fill(zero);
        self.plan.soa(re, im, true)?;

        // Fused untangle → spectrum product → inverse re-pack, one
        // symmetric pass over the half-spectrum. For each mirror pair
        // (k, h−k): untangle Z to the physical bins X[k], X[h−k],
        // multiply by the conjugated template spectrum, then fold the
        // products Y straight back into the packed form the half-length
        // inverse transform expects (z[j] = y[2j] + i·y[2j+1] spectrum).
        let half = T::from_f64(0.5);
        let (t_re, t_im) = (&self.spec.0, &self.spec.1);
        let (w_re, w_im) = (&self.twist.0, &self.twist.1);
        // Bin 0 pairs with bin h (both real-valued products):
        // X[0] = Re Z[0] + Im Z[0], X[h] = Re Z[0] − Im Z[0].
        let x0 = re[0] + im[0];
        let xh = re[0] - im[0];
        let y0 = x0 * t_re[0];
        let yh = xh * t_re[h];
        re[0] = half * (y0 + yh);
        im[0] = half * (y0 - yh);
        for k in 1..h / 2 + 1 {
            let j = h - k;
            let (zkr, zki) = (re[k], im[k]);
            let (zjr, zji) = (re[j], im[j]);
            let (wr, wi) = (w_re[k], w_im[k]);

            // Untangle both mirror bins: X[k] = Xe + W^k·Xo with
            // Xe = (Z[k] + conj(Z[j]))/2, Xo = −i·(Z[k] − conj(Z[j]))/2,
            // and X[j] = conj(Xe) + W^j·conj(Xo), W^j = −conj(W^k).
            let xer = half * (zkr + zjr);
            let xei = half * (zki - zji);
            let xor_ = half * (zki + zji);
            let xoi = -half * (zkr - zjr);
            let xkr = xer + wr * xor_ - wi * xoi;
            let xki = xei + wr * xoi + wi * xor_;
            let xjr = xer - (wr * xor_ - wi * xoi);
            let xji = -xei + (wr * xoi + wi * xor_);

            // Pointwise product with the conjugated template spectrum.
            let (tkr, tki) = (t_re[k], t_im[k]);
            let (tjr, tji) = (t_re[j], t_im[j]);
            let ykr = xkr * tkr - xki * tki;
            let yki = xkr * tki + xki * tkr;
            let yjr = xjr * tjr - xji * tji;
            let yji = xjr * tji + xji * tjr;

            // Re-pack for the inverse: z[k] = Ye + i·Yo with
            // Ye = (Y[k] + conj(Y[j]))/2, Yo = conj(W^k)·(Y[k] − conj(Y[j]))/2,
            // and the mirror z[j] likewise with conjugated parts.
            let yer = half * (ykr + yjr);
            let yei = half * (yki - yji);
            let ydr = half * (ykr - yjr);
            let ydi = half * (yki + yji);
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
            dst[2 * j] = T::to_f64(re[j]);
            dst[2 * j + 1] = T::to_f64(im[j]);
        }
        if take % 2 == 1 {
            dst[take - 1] = T::to_f64(re[take / 2]);
        }
        Ok(())
    }
}

/// The energy of one sample as a float path sees it: rounded to the
/// path's precision, squared in `f64`.
fn rounded_energy<T: Float>(&x: &f64) -> f64 {
    let r = T::to_f64(T::from_f64(x));
    r * r
}

/// The float paths: the template is rounded once per rung, incoming
/// signals once per block, and the normalisation denominator uses `f64`
/// prefix sums **of the rounded samples**, so numerator and denominator
/// see the same quantisation (the identity on `f64`).
impl<T: Float> Correlate for T {
    type Rung = RealLeg<T>;
    type Scratch = FloatScratch<T::Real>;
    const SPAN: usize = 2;

    fn norm(template: &[f64]) -> f64 {
        template
            .iter()
            .map(rounded_energy::<T>)
            .fold(0.0, |acc, e| acc + e)
            .sqrt()
    }

    fn rung(template: &[f64], len: usize) -> Result<RealLeg<T>> {
        RealLeg::new(template, len)
    }

    fn scratch(len: usize) -> FloatScratch<T::Real> {
        FloatScratch {
            lanes: Lanes::new(len / 2),
            prefix: Vec::new(),
        }
    }

    fn block(
        leg: &RealLeg<T>,
        signal: &[f64],
        p: usize,
        take: usize,
        out: &mut Vec<f64>,
        s: &mut FloatScratch<T::Real>,
    ) -> Result<()> {
        let (re, im) = s.lanes.split();
        leg.block(signal, p, take, out, re, im)
    }

    fn normalize_lags(
        signal: &[f64],
        out: &mut [f64],
        template_norm: f64,
        m: usize,
        s: &mut FloatScratch<T::Real>,
    ) {
        prefix_sums(&mut s.prefix, signal.iter().map(rounded_energy::<T>));
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

    /// `signal`, then two signals per rung of `filter`'s ladder: one block
    /// of that rung long, whose lags run on that rung and would not fit
    /// the rung below, and one sample longer, whose last lag the rung
    /// cannot cover.
    fn and_signals_at_each_rung(
        filter: &MatchedFilter,
        template: &[f64],
        signal: Vec<f64>,
    ) -> Vec<Vec<f64>> {
        let mut signals = vec![signal];
        for &(len, _) in &filter.rungs {
            for total in [len, len + 1] {
                let offset = (total - template.len()) / 2;
                signals.push(signal_with_template(template, offset, total));
            }
        }
        signals
    }

    #[test]
    fn matches_one_shot_raw_correlation() {
        // Longer than 512 samples, so the ladder has two rungs.
        let template: Vec<f64> = (0..700).map(|i| ((i as f64) * 0.31).cos()).collect();
        let filter = MatchedFilter::new(&template).unwrap();
        assert_eq!(filter.rungs.len(), 2);
        let signal = signal_with_template(&template, 900, 4001);
        let mut out = Vec::new();
        for signal in and_signals_at_each_rung(&filter, &template, signal) {
            let reference = xcorr_fft(&signal, &template).unwrap();
            filter.correlate_into(&signal, &mut out).unwrap();
            assert_eq!(out.len(), reference.len());
            for (a, b) in out.iter().zip(reference.iter()) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn matches_one_shot_normalized_correlation_across_block_boundaries() {
        // A signal long enough that overlap-save needs several blocks, the
        // last on the lower rung, then signals at each rung's boundary.
        let template: Vec<f64> = (0..600).map(|i| ((i as f64) * 0.7).sin()).collect();
        let filter = MatchedFilter::new(&template).unwrap();
        assert_eq!(filter.rungs.len(), 2);
        let total = filter.block_len() * 3 + 77;
        let signal = signal_with_template(&template, filter.block_len() + 13, total);
        for signal in and_signals_at_each_rung(&filter, &template, signal) {
            let reference = xcorr_normalized(&signal, &template).unwrap();
            let streamed = filter.correlate_normalized(&signal).unwrap();
            assert_eq!(streamed.len(), reference.len());
            for (a, b) in streamed.iter().zip(reference.iter()) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
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
