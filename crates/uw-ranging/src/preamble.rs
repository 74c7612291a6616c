//! The ranging preamble and its transmit-side representation.
//!
//! Wraps the OFDM preamble construction from `uw-dsp` together with the
//! quantities the receiver needs repeatedly (the base symbol spectrum for
//! LS channel estimation, PN signs, block boundaries), so they are computed
//! once per configuration instead of per packet.
//!
//! The preamble also owns the receive-side *execution state*: a
//! [`MatchedFilter`] whose template spectrum is computed once and reused by
//! every detection, and a [`PlanPool`] of symbol-length FFT plans shared by
//! the LS channel estimator. Both are internally pooled, so one
//! `RangingPreamble` can serve many concurrent ranging exchanges without
//! serialising their transforms.
//!
//! A preamble built with [`RangingPreamble::new_with_path`] and
//! [`NumericPath::Q15`] additionally owns the fixed-point execution state
//! (a [`Q15MatchedFilter`] and a pool of symbol-length
//! [`uw_dsp::FixedFftPlan`]s) and routes detection correlation and channel
//! estimation through the on-device Q15 path instead of the `f64` oracle.
//! With [`NumericPath::F32`] it owns the single-precision state
//! ([`F32MatchedFilter`], [`uw_dsp::F32FftPlan`] pool) instead — exactly
//! one path's execution state exists per preamble.

use crate::{RangingError, Result};
use uw_dsp::complex::Complex64;
use uw_dsp::fixed::{FixedFftPlan, FixedPlanPool, NumericPath, Q15MatchedFilter};
use uw_dsp::float32::{F32FftPlan, F32MatchedFilter, F32PlanPool};
use uw_dsp::ofdm::{base_symbol_spectrum, build_preamble, OfdmConfig};
use uw_dsp::plan::{FftPlan, PlanPool};
use uw_dsp::MatchedFilter;

/// A fully-built ranging preamble.
#[derive(Debug, Clone)]
pub struct RangingPreamble {
    /// The OFDM design parameters.
    pub config: OfdmConfig,
    /// Time-domain transmit waveform (PN-signed symbols with cyclic
    /// prefixes, edge-ramped).
    pub waveform: Vec<f64>,
    /// Frequency-domain values on the occupied bins of the base symbol
    /// (before PN signing) — the `X(k)` of the LS estimator.
    pub base_bins: Vec<Complex64>,
    /// First occupied FFT bin index.
    pub first_bin: usize,
    /// PN signs of the preamble symbols.
    pub pn_signs: Vec<f64>,
    /// The receive-side execution state of the one numeric path this
    /// preamble was built for.
    state: PathState,
}

/// One numeric path's receive-side execution state: the overlap-save
/// correlator with the waveform's spectrum precomputed, and the pooled
/// symbol-length FFT plans (Bluestein for 1920) the LS channel estimator
/// checks out.
#[derive(Debug, Clone)]
enum PathState {
    F64(MatchedFilter, PlanPool),
    F32(F32MatchedFilter, F32PlanPool),
    Q15(Q15MatchedFilter, FixedPlanPool),
}

impl RangingPreamble {
    /// Builds the preamble for a configuration on the `f64` reference path.
    pub fn new(config: OfdmConfig) -> Result<Self> {
        Self::new_with_path(config, NumericPath::F64)
    }

    /// Builds the preamble for a configuration on the chosen numeric path.
    /// With [`NumericPath::Q15`], detection correlation and channel
    /// estimation run on the fixed-point DSP in [`uw_dsp::fixed`].
    pub fn new_with_path(config: OfdmConfig, numeric_path: NumericPath) -> Result<Self> {
        let spectrum = base_symbol_spectrum(&config)?;
        let mut waveform = build_preamble(&config)?;
        // A 2 ms raised-cosine up-ramp at the start avoids a speaker click.
        // It only touches the first symbol's cyclic prefix, so the channel
        // estimate — which operates on the symbol bodies — is unaffected.
        // The tail is left unramped: ramping the last symbol's samples would
        // distort the LS channel estimate and create spurious early taps.
        let ramp = ((0.002 * config.sample_rate) as usize).min(config.cyclic_prefix / 2);
        for (i, s) in waveform.iter_mut().take(ramp).enumerate() {
            *s *= 0.5 * (1.0 - (std::f64::consts::PI * i as f64 / ramp as f64).cos());
        }
        let pn_signs = config.pn_signs();
        // Exactly one path's execution state is built: a Q15 preamble
        // carries no (unused) f64 filter or plans and vice versa.
        let n_fft = config.fft_len();
        let state = match numeric_path {
            NumericPath::F64 => {
                PathState::F64(MatchedFilter::new(&waveform)?, PlanPool::new(n_fft)?)
            }
            NumericPath::F32 => {
                PathState::F32(F32MatchedFilter::new(&waveform)?, F32PlanPool::new(n_fft)?)
            }
            NumericPath::Q15 => PathState::Q15(
                Q15MatchedFilter::new(&waveform)?,
                FixedPlanPool::new(n_fft)?,
            ),
        };
        Ok(Self {
            config,
            waveform,
            base_bins: spectrum.bins,
            first_bin: spectrum.first_bin,
            pn_signs,
            state,
        })
    }

    /// Builds the preamble with the paper's default parameters
    /// (4 × 1920-sample ZC-OFDM symbols, 540-sample cyclic prefixes,
    /// 1–5 kHz).
    pub fn default_paper() -> Result<Self> {
        Self::new(OfdmConfig::default())
    }

    /// Paper-default preamble on the on-device Q15 fixed-point path.
    pub fn default_paper_q15() -> Result<Self> {
        Self::new_with_path(OfdmConfig::default(), NumericPath::Q15)
    }

    /// Paper-default preamble on the single-precision f32 path.
    pub fn default_paper_f32() -> Result<Self> {
        Self::new_with_path(OfdmConfig::default(), NumericPath::F32)
    }

    /// The numeric path receive-side processing runs on.
    pub fn numeric_path(&self) -> NumericPath {
        match self.state {
            PathState::F64(..) => NumericPath::F64,
            PathState::F32(..) => NumericPath::F32,
            PathState::Q15(..) => NumericPath::Q15,
        }
    }

    /// Length of one symbol block (cyclic prefix + symbol) in samples.
    pub fn block_len(&self) -> usize {
        self.config.symbol_len + self.config.cyclic_prefix
    }

    /// Total preamble length in samples.
    pub fn len(&self) -> usize {
        self.waveform.len()
    }

    /// Returns true when the preamble contains no samples (never the case
    /// for a successfully-built preamble).
    pub fn is_empty(&self) -> bool {
        self.waveform.is_empty()
    }

    /// Duration of the preamble in seconds.
    pub fn duration_s(&self) -> f64 {
        self.len() as f64 / self.config.sample_rate
    }

    /// Start offset of the `i`-th OFDM symbol (excluding its cyclic prefix)
    /// within the preamble.
    pub fn symbol_start(&self, i: usize) -> usize {
        i * self.block_len() + self.config.cyclic_prefix
    }

    /// Normalised cross-correlation of `stream` against the preamble
    /// waveform through the precomputed matched filter (identical output to
    /// `uw_dsp::correlation::xcorr_normalized`, computed in streaming
    /// blocks against the cached template spectrum). On a
    /// [`NumericPath::Q15`] preamble this runs the fixed-point correlator;
    /// its peak positions agree with the `f64` path to within ±1 sample
    /// (bounded by `uw-dsp`'s differential test suite).
    pub fn correlate_normalized(&self, stream: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.correlate_normalized_into(stream, &mut out)?;
        Ok(out)
    }

    /// As [`Self::correlate_normalized`] but reusing a caller-provided
    /// output buffer (allocation-free in steady state).
    pub fn correlate_normalized_into(&self, stream: &[f64], out: &mut Vec<f64>) -> Result<()> {
        Ok(match &self.state {
            PathState::F64(filter, _) => filter.correlate_normalized_into(stream, out),
            PathState::F32(filter, _) => filter.correlate_normalized_into(stream, out),
            PathState::Q15(filter, _) => filter.correlate_normalized_into(stream, out),
        }?)
    }

    /// Runs `f` with a checked-out symbol-length FFT plan (1920-point
    /// Bluestein for the paper's parameters). Concurrent callers receive
    /// distinct plans from the pool instead of serialising. Fails on a
    /// preamble built for another path, which carries no f64 plans — use
    /// [`Self::with_f32_symbol_plan`] or [`Self::with_fixed_symbol_plan`]
    /// there.
    pub fn with_symbol_plan<R>(&self, f: impl FnOnce(&mut FftPlan) -> R) -> Result<R> {
        match &self.state {
            PathState::F64(_, pool) => Ok(pool.with(f)),
            _ => Err(self.no_plans("f64")),
        }
    }

    /// Runs `f` with a checked-out **fixed-point** symbol-length FFT plan.
    /// Fails on a preamble built for another path, which carries no
    /// fixed-point state.
    pub fn with_fixed_symbol_plan<R>(&self, f: impl FnOnce(&mut FixedFftPlan) -> R) -> Result<R> {
        match &self.state {
            PathState::Q15(_, pool) => Ok(pool.with(f)),
            _ => Err(self.no_plans("fixed-point")),
        }
    }

    /// Runs `f` with a checked-out **single-precision** symbol-length FFT
    /// plan. Fails on a preamble built for another path, which carries no
    /// f32 state.
    pub fn with_f32_symbol_plan<R>(&self, f: impl FnOnce(&mut F32FftPlan) -> R) -> Result<R> {
        match &self.state {
            PathState::F32(_, pool) => Ok(pool.with(f)),
            _ => Err(self.no_plans("f32")),
        }
    }

    /// The single-precision matched filter of a preamble built for
    /// [`NumericPath::F32`]; `None` on the other paths, which carry none.
    pub fn f32_matched_filter(&self) -> Option<&F32MatchedFilter> {
        match &self.state {
            PathState::F32(filter, _) => Some(filter),
            _ => None,
        }
    }

    /// The error for a request for `kind` symbol plans this preamble's
    /// path does not carry, naming the path it was built for.
    fn no_plans(&self, kind: &str) -> RangingError {
        RangingError::InvalidInput {
            reason: format!(
                "preamble was built for the {} path; no {kind} plans exist",
                self.numeric_path().slug()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_preamble_matches_paper_dimensions() {
        let p = RangingPreamble::default_paper().unwrap();
        assert_eq!(p.len(), 4 * (1920 + 540));
        assert_eq!(p.block_len(), 2460);
        assert!(!p.is_empty());
        assert_eq!(p.pn_signs, vec![1.0, 1.0, -1.0, 1.0]);
        assert!(p.duration_s() > 0.2 && p.duration_s() < 0.25);
        assert!(!p.base_bins.is_empty());
        assert!(p.first_bin > 0);
    }

    #[test]
    fn symbol_start_offsets() {
        let p = RangingPreamble::default_paper().unwrap();
        assert_eq!(p.symbol_start(0), 540);
        assert_eq!(p.symbol_start(1), 2460 + 540);
        assert_eq!(p.symbol_start(3), 3 * 2460 + 540);
        assert!(p.symbol_start(3) + p.config.symbol_len <= p.len());
    }

    #[test]
    fn waveform_start_is_ramped() {
        let p = RangingPreamble::default_paper().unwrap();
        // The up-ramp starts from silence and only spans part of the first
        // cyclic prefix.
        assert!(p.waveform[0].abs() < 1e-9);
        let ramp = (0.002 * p.config.sample_rate) as usize;
        assert!(ramp < p.config.cyclic_prefix);
        // Peak is still ~1 in the interior.
        let peak = p.waveform.iter().fold(0.0f64, |m, &s| m.max(s.abs()));
        assert!(peak > 0.9);
        // Beyond the ramp the waveform matches the unramped construction.
        let raw = uw_dsp::ofdm::build_preamble(&p.config).unwrap();
        for (w, r) in p.waveform.iter().zip(raw.iter()).skip(ramp) {
            assert!((w - r).abs() < 1e-12);
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let config = OfdmConfig {
            n_symbols: 1,
            ..OfdmConfig::default()
        };
        assert!(RangingPreamble::new(config).is_err());
    }
}
