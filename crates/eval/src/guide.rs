//! The figure-by-figure reproduction guide and its acceptance bands.
//!
//! [`FIGURE_MAP`] is the single source of truth linking each paper
//! figure/claim to what reproduces it — a matrix cell and the metric to
//! read, or a probe in [`crate::probes`] — and the acceptance band the
//! reproduction must stay inside. Three things are generated from it so
//! they can never drift apart:
//!
//! * `docs/EVALUATION.md` — the human-readable guide
//!   ([`generate_guide`]),
//! * the band check the `eval_matrix` binary runs with `--check`
//!   ([`check_bands`]),
//! * the tier-1 smoke test (`smoke_bands_hold` in this crate), which
//!   re-runs the dock/boathouse cells on every `cargo test`.

use crate::probes;
use crate::report::{CellReport, EvalReport};
use uw_core::Result;

/// Which scalar of a [`CellReport`] a band constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandMetric {
    /// Median per-device 2D localization error (m).
    Median2dM,
    /// 90th-percentile 2D localization error (m).
    P90_2dM,
    /// Median absolute pairwise ranging error (m).
    MedianRangingM,
    /// Fraction of rounds with correct flipping disambiguation.
    FlipRate,
    /// Acoustic phase latency of one round (s).
    AcousticLatencyS,
    /// Mean links dropped by outlier detection per round.
    MeanDroppedLinks,
    /// Devices excluded by churn in the final round.
    ChurnExcluded,
}

impl BandMetric {
    /// Reads the metric from a cell report.
    pub fn read(&self, cell: &CellReport) -> f64 {
        match self {
            BandMetric::Median2dM => cell.error_2d.median,
            BandMetric::P90_2dM => cell.error_2d.p90,
            BandMetric::MedianRangingM => cell.ranging_median_m,
            BandMetric::FlipRate => cell.flip_rate,
            BandMetric::AcousticLatencyS => cell.latency_acoustic_s,
            BandMetric::MeanDroppedLinks => cell.mean_dropped_links,
            BandMetric::ChurnExcluded => cell.churn_excluded as f64,
        }
    }

    /// Short label used in the guide table.
    pub fn label(&self) -> &'static str {
        match self {
            BandMetric::Median2dM => "median 2D error (m)",
            BandMetric::P90_2dM => "p90 2D error (m)",
            BandMetric::MedianRangingM => "median ranging error (m)",
            BandMetric::FlipRate => "flip accuracy",
            BandMetric::AcousticLatencyS => "acoustic latency (s)",
            BandMetric::MeanDroppedLinks => "dropped links/round",
            BandMetric::ChurnExcluded => "devices excluded",
        }
    }
}

/// Where a row of the guide reads its number.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// One scalar of a matrix cell's report: the cell id and the metric.
    Cell(&'static str, BandMetric),
    /// A probe in [`crate::probes`], measured once per full run: its
    /// function name, what it measures with its unit, and the function.
    Probe(&'static str, &'static str, fn() -> Result<f64>),
}

impl Source {
    /// The cell id, or the probe's name.
    pub fn id(&self) -> &'static str {
        match self {
            Source::Cell(id, _) => id,
            Source::Probe(name, ..) => name,
        }
    }

    /// Short label of the metric, used in the guide table.
    pub fn metric_label(&self) -> &'static str {
        match self {
            Source::Cell(_, metric) => metric.label(),
            Source::Probe(_, metric, _) => metric,
        }
    }
}

/// The value of every probe one run measured, by probe name: the number,
/// or why the probe failed.
pub type ProbeValues = Vec<(&'static str, Result<f64>)>;

/// Runs every probe row of [`FIGURE_MAP`], in map order.
pub fn run_probes() -> ProbeValues {
    FIGURE_MAP
        .iter()
        .filter_map(|claim| match claim.source {
            Source::Probe(name, _, run) => Some((name, run())),
            Source::Cell(..) => None,
        })
        .collect()
}

/// One row of the reproduction guide: a paper figure or claim, the matrix
/// cell or probe that reproduces it, and the acceptance band.
#[derive(Debug, Clone, Copy)]
pub struct FigureClaim {
    /// Paper figure/table ("Fig. 18a") or "ext." for matrix extensions.
    pub figure: &'static str,
    /// What the paper (or the extension) claims.
    pub claim: &'static str,
    /// The cell or probe that reproduces it.
    pub source: Source,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
    /// Whether the tier-1 smoke test re-checks this band on every
    /// `cargo test` (the dock/boathouse headline cells).
    pub smoke: bool,
}

impl FigureClaim {
    /// The row's current number: `None` when its cell or probe was not
    /// run, an error when its probe failed.
    fn current(&self, report: &EvalReport, probes: &ProbeValues) -> Option<Result<f64>> {
        match self.source {
            Source::Cell(id, metric) => report.cell(id).map(|cell| Ok(metric.read(cell))),
            Source::Probe(name, ..) => probes
                .iter()
                .find(|(probe, _)| *probe == name)
                .map(|(_, value)| value.clone()),
        }
    }
}

/// The full figure → cell or probe → band mapping.
///
/// Bands are deliberately wider than the paper's point estimates: the
/// statistical channel model is calibrated to the paper's medians but the
/// PRNG stream differs per seed, so the bands absorb seed-to-seed spread
/// while still catching regressions (a broken solver or channel model
/// lands far outside them). Each probe band contains the probe's value at
/// every base seed from 1 to 10; where the reproduction disagrees with
/// the paper, the claim says what it measures and the band pins that.
pub const FIGURE_MAP: &[FigureClaim] = &[
    FigureClaim {
        figure: "Fig. 18a",
        claim: "Dock 5-device testbed: median 2D localization error 0.9 m",
        source: Source::Cell("dock/5dev/clear/static/s1", BandMetric::Median2dM),
        lo: 0.3,
        hi: 1.8,
        smoke: true,
    },
    FigureClaim {
        figure: "Fig. 18a",
        claim: "Dock 5-device testbed: 90th-percentile 2D error stays bounded",
        source: Source::Cell("dock/5dev/clear/static/s1", BandMetric::P90_2dM),
        lo: 0.5,
        hi: 5.0,
        smoke: true,
    },
    FigureClaim {
        figure: "Fig. 18b",
        claim: "Boathouse 5-device testbed: median 2D error 1.0 m (noisier site)",
        source: Source::Cell("boathouse/5dev/clear/static/s1", BandMetric::Median2dM),
        lo: 0.3,
        hi: 2.4,
        smoke: true,
    },
    FigureClaim {
        figure: "Fig. 18b",
        claim: "Boathouse 5-device testbed: 90th-percentile 2D error stays bounded (paper p95 4.9 m)",
        source: Source::Cell("boathouse/5dev/clear/static/s1", BandMetric::P90_2dM),
        lo: 2.5,
        hi: 5.5,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 18",
        claim: "4-device dock network localizes with comparable accuracy",
        source: Source::Cell("dock/4dev/clear/static/s1", BandMetric::Median2dM),
        lo: 0.2,
        hi: 2.2,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 11",
        claim: "Pairwise ranging: median error sub-metre across the testbed",
        source: Source::Cell("dock/5dev/clear/static/s1", BandMetric::MedianRangingM),
        lo: 0.1,
        hi: 1.0,
        smoke: true,
    },
    FigureClaim {
        figure: "Tab. flipping",
        claim: "Margin-weighted voting resolves flipping in ≥80% of rounds",
        source: Source::Cell("dock/5dev/clear/static/s1", BandMetric::FlipRate),
        lo: 0.8,
        hi: 1.0,
        smoke: true,
    },
    FigureClaim {
        figure: "Tab. latency",
        claim: "5-device acoustic round: Δ0 + 4·Δ1 = 1.88 s (paper measures 1.9 s)",
        source: Source::Cell("dock/5dev/clear/static/s1", BandMetric::AcousticLatencyS),
        lo: 1.85,
        hi: 1.91,
        smoke: true,
    },
    FigureClaim {
        figure: "Tab. latency",
        claim: "3-device acoustic round: Δ0 + 2·Δ1 = 1.24 s (paper measures 1.2 s)",
        source: Source::Cell("dock/3dev/clear/static/s1", BandMetric::AcousticLatencyS),
        lo: 1.21,
        hi: 1.27,
        smoke: false,
    },
    FigureClaim {
        figure: "Tab. latency",
        claim: "7-device acoustic round: Δ0 + 6·Δ1 = 2.52 s (paper measures 2.5 s)",
        source: Source::Cell("dock/7dev/clear/static/s1", BandMetric::AcousticLatencyS),
        lo: 2.49,
        hi: 2.55,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 19a",
        claim: "Solid-sheet occlusion of the leader link: Algorithm 1 keeps the median bounded",
        source: Source::Cell("dock/5dev/occluded/static/s1", BandMetric::Median2dM),
        lo: 0.3,
        hi: 2.5,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 19a",
        claim: "The occluded link is detected and dropped in every round, and nothing else is",
        source: Source::Cell("dock/5dev/occluded/static/s1", BandMetric::MeanDroppedLinks),
        lo: 0.8,
        hi: 1.2,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 19a",
        claim: "Occluded leader link, 6 m bias: p95 2D error with outlier detection is 6.2–11.3 m here (paper 3.4 m)",
        source: Source::Probe(
            "fig19_occluded_p95_with_detection",
            "p95 2D error (m)",
            probes::fig19_occluded_p95_with_detection,
        ),
        lo: 5.5,
        hi: 12.0,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 19a",
        claim: "The same rounds without outlier detection: p95 5.1–8.8 m, below the p95 with it in 9 of 10 seeds (paper: a long tail without it)",
        source: Source::Probe(
            "fig19_occluded_p95_without_detection",
            "p95 2D error (m)",
            probes::fig19_occluded_p95_without_detection,
        ),
        lo: 4.5,
        hi: 9.5,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 19b",
        claim: "One missing (out-of-range) link is tolerated by weighted SMACOF",
        source: Source::Cell("dock/5dev/misslink/static/s1", BandMetric::Median2dM),
        lo: 0.3,
        hi: 2.5,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 19b",
        claim: "One missing link: 90th-percentile 2D error stays bounded (paper p95 with a link dropped 6.2 m)",
        source: Source::Cell("dock/5dev/misslink/static/s1", BandMetric::P90_2dM),
        lo: 3.0,
        hi: 8.5,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 20",
        claim: "One device on a rope at 40 cm/s: modest error increase (0.4 → 0.8 m)",
        source: Source::Cell("dock/5dev/clear/rope40/s1", BandMetric::Median2dM),
        lo: 0.3,
        hi: 2.8,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 11a",
        claim: "Dual-mic median 1D error at 10 m is 0.21 m here, a near-constant +6-sample offset (paper 0.48 m)",
        source: Source::Probe("fig11_median_10m", "median 1D error (m)", probes::fig11_median_10m),
        lo: 0.15,
        hi: 0.3,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 11a",
        claim: "Dual-mic median 1D error at 20 m is 0.22–0.50 m here (paper 0.80 m)",
        source: Source::Probe("fig11_median_20m", "median 1D error (m)", probes::fig11_median_20m),
        lo: 0.15,
        hi: 0.6,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 11a",
        claim: "Dual-mic median 1D error at 35 m is 0.23 m here (paper 0.86 m)",
        source: Source::Probe("fig11_median_35m", "median 1D error (m)", probes::fig11_median_35m),
        lo: 0.15,
        hi: 0.35,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 12a",
        claim: "FMCW power detector at 10 dB in the busy boathouse misses 3–8% of preambles",
        source: Source::Probe(
            "fig12_fmcw_false_negative_rate",
            "false-negative rate",
            probes::fig12_fmcw_false_negative_rate,
        ),
        lo: 0.0,
        hi: 0.15,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 12a",
        claim: "FMCW power detector at 10 dB fires on 89% of noise-only captures",
        source: Source::Probe(
            "fig12_fmcw_false_positive_rate",
            "false-positive rate",
            probes::fig12_fmcw_false_positive_rate,
        ),
        lo: 0.8,
        hi: 0.95,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 12b",
        claim: "Boathouse at 20 m: our dual-mic mean 1D error is 0.22 m (paper: ours below BeepBeep below CAT)",
        source: Source::Probe(
            "fig12_ours_mean_20m",
            "mean 1D error (m)",
            probes::fig12_ours_mean_20m,
        ),
        lo: 0.15,
        hi: 0.3,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 12b",
        claim: "Boathouse at 20 m: BeepBeep's mean 1D error is 0.05 m here, below ours",
        source: Source::Probe(
            "fig12_beepbeep_mean_20m",
            "mean 1D error (m)",
            probes::fig12_beepbeep_mean_20m,
        ),
        lo: 0.0,
        hi: 0.1,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 12b",
        claim: "Boathouse at 20 m: CAT (FMCW) mean 1D error is 8.8–16.7 m, far above both",
        source: Source::Probe(
            "fig12_cat_mean_20m",
            "mean 1D error (m)",
            probes::fig12_cat_mean_20m,
        ),
        lo: 7.0,
        hi: 18.0,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 13a",
        claim: "Both devices 5 m deep, 18 m apart: median 1D error 0.20 m (paper 0.28 m, the best depth)",
        source: Source::Probe(
            "fig13_median_5m_depth",
            "median 1D error (m)",
            probes::fig13_median_5m_depth,
        ),
        lo: 0.15,
        hi: 0.3,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 13b",
        claim: "Smartwatch depth gauge: mean depth error 0.10–0.12 m (paper 0.15 m)",
        source: Source::Probe(
            "fig13_watch_depth_error",
            "mean depth error (m)",
            probes::fig13_watch_depth_error,
        ),
        lo: 0.08,
        hi: 0.15,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 13b",
        claim: "Phone pressure sensor: mean depth error 0.30–0.33 m (paper 0.42 m)",
        source: Source::Probe(
            "fig13_phone_depth_error",
            "mean depth error (m)",
            probes::fig13_phone_depth_error,
        ),
        lo: 0.25,
        hi: 0.4,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 14a",
        claim: "Sender rotated 90° at 20 m: median 1D error 0.22–0.37 m here (paper 0.54–1.25 m across orientations)",
        source: Source::Probe(
            "fig14_rotated_median",
            "median 1D error (m)",
            probes::fig14_rotated_median,
        ),
        lo: 0.15,
        hi: 0.45,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 14a",
        claim: "Sender facing the surface at 20 m: median 1D error 0.22 m here (paper: the worst orientation, 1.25 m)",
        source: Source::Probe(
            "fig14_upward_median",
            "median 1D error (m)",
            probes::fig14_upward_median,
        ),
        lo: 0.15,
        hi: 0.3,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 15",
        claim: "Sender swept at 32 and 56 cm/s: median 1D error 0.23 m over the pings that range (paper 0.51 m)",
        source: Source::Probe(
            "fig15_moving_median",
            "median 1D error (m)",
            probes::fig15_moving_median,
        ),
        lo: 0.15,
        hi: 0.35,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 15",
        claim: "The same sweeps: p95 1D error 0.34–0.57 m over the pings that range (paper 1.17 m)",
        source: Source::Probe("fig15_moving_p95", "p95 1D error (m)", probes::fig15_moving_p95),
        lo: 0.25,
        hi: 0.7,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 15",
        claim: "24 of the 40 pings fail to range: off the receiver's mic bisector its two mic streams differ in length (ROADMAP item 1)",
        source: Source::Probe(
            "fig15_unranged_pings",
            "pings not ranged",
            probes::fig15_unranged_pings,
        ),
        lo: 24.0,
        hi: 24.0,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 22",
        claim: "Boathouse, 8-symbol preamble at 10 m: mean subcarrier SNR 22–31 dB (paper 30–40 dB)",
        source: Source::Probe("fig22_mean_snr_10m", "mean SNR (dB)", probes::fig22_mean_snr_10m),
        lo: 20.0,
        hi: 33.0,
        smoke: false,
    },
    FigureClaim {
        figure: "Fig. 22",
        claim: "The same at 28 m: 14–24 dB here, far above the paper's 0–10 dB",
        source: Source::Probe("fig22_mean_snr_28m", "mean SNR (dB)", probes::fig22_mean_snr_28m),
        lo: 12.0,
        hi: 26.0,
        smoke: false,
    },
    FigureClaim {
        figure: "Tab. battery",
        claim: "Apple Watch Ultra, 4.5 h of continuous siren: 94.5% drained (paper 90%; the model adds idle drain)",
        source: Source::Probe(
            "battery_watch_drain_pct",
            "4.5 h drain (%)",
            probes::battery_watch_drain_pct,
        ),
        lo: 93.0,
        hi: 96.0,
        smoke: false,
    },
    FigureClaim {
        figure: "Tab. battery",
        claim: "Galaxy S9, 4.5 h of one preamble every 3 s: 66.6% drained (paper 63%)",
        source: Source::Probe(
            "battery_phone_drain_pct",
            "4.5 h drain (%)",
            probes::battery_phone_drain_pct,
        ),
        lo: 65.0,
        hi: 68.0,
        smoke: false,
    },
    FigureClaim {
        figure: "ext. swimmer",
        claim: "A diver swimming a circuit at 40 cm/s degrades gracefully",
        source: Source::Cell("dock/5dev/clear/swim40/s1", BandMetric::Median2dM),
        lo: 0.3,
        hi: 3.0,
        smoke: false,
    },
    FigureClaim {
        figure: "ext. churn",
        claim: "A device falling silent mid-session is excluded; the rest keep localizing",
        source: Source::Cell("dock/5dev/churn/static/s1", BandMetric::Median2dM),
        lo: 0.3,
        hi: 2.2,
        smoke: false,
    },
    FigureClaim {
        figure: "ext. churn",
        claim: "Exactly one device is excluded after the churn round",
        source: Source::Cell("dock/5dev/churn/static/s1", BandMetric::ChurnExcluded),
        lo: 1.0,
        hi: 1.0,
        smoke: false,
    },
    FigureClaim {
        figure: "ext. open water",
        claim: "Deep open-water site (weak reverb): accuracy holds at 5 devices",
        source: Source::Cell("openwater/5dev/clear/static/s1", BandMetric::Median2dM),
        lo: 0.2,
        hi: 2.2,
        smoke: false,
    },
    FigureClaim {
        figure: "ext. tidal",
        claim: "Strong-current drift site: the group drifts yet stays localizable",
        source: Source::Cell("tidal/5dev/clear/drift30/s1", BandMetric::Median2dM),
        lo: 0.2,
        hi: 3.0,
        smoke: false,
    },
    FigureClaim {
        figure: "ext. q15",
        claim: "On-device Q15 fixed-point DSP (hybrid dock cell) keeps the median in the f64 band",
        source: Source::Cell("dock/5dev/clear/static/q15/s1", BandMetric::Median2dM),
        lo: 0.2,
        hi: 2.2,
        smoke: false,
    },
    FigureClaim {
        figure: "ext. f32",
        claim: "Single-precision f32 lane-kernel DSP (hybrid dock cell) keeps the median in the f64 band",
        source: Source::Cell("dock/5dev/clear/static/f32/s1", BandMetric::Median2dM),
        lo: 0.2,
        hi: 2.2,
        smoke: false,
    },
];

/// A band the current numbers violate.
#[derive(Debug, Clone)]
pub struct BandViolation {
    /// The violated claim.
    pub claim: FigureClaim,
    /// The measured value (NaN when the cell or probe was not run), or
    /// why the probe failed.
    pub measured: Result<f64>,
}

impl std::fmt::Display for BandViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let claim = &self.claim;
        write!(
            f,
            "{} [{}] {}: ",
            claim.source.id(),
            claim.figure,
            claim.source.metric_label()
        )?;
        match &self.measured {
            Ok(v) => write!(f, "measured {v:.3}")?,
            Err(e) => write!(f, "failed: {e}")?,
        }
        write!(f, ", band [{}, {}]", claim.lo, claim.hi)
    }
}

/// Checks every claim whose cell is in the report or whose probe is in
/// `probes`; a failed probe is a violation. Claims that were not run are
/// violations only when `require_all` is set (the full run must measure
/// every row, a smoke slice only some).
pub fn check_bands(
    report: &EvalReport,
    probes: &ProbeValues,
    require_all: bool,
) -> Vec<BandViolation> {
    let mut violations = Vec::new();
    for claim in FIGURE_MAP {
        let measured = match claim.current(report, probes) {
            Some(Ok(v)) if v >= claim.lo && v <= claim.hi => continue,
            Some(measured) => measured,
            None if require_all => Ok(f64::NAN),
            None => continue,
        };
        violations.push(BandViolation {
            claim: *claim,
            measured,
        });
    }
    violations
}

/// Renders `docs/EVALUATION.md` from the figure map, the current cell
/// numbers in `report` and the probe values.
pub fn generate_guide(report: &EvalReport, probes: &ProbeValues) -> String {
    let mut out = String::new();
    out.push_str(
        "# Reproducing the paper's evaluation, figure by figure\n\
         \n\
         <!-- GENERATED FILE — do not edit by hand.\n\
              Regenerate with: ./scripts/eval_matrix.sh\n\
              (runs the full scenario matrix and rewrites this guide with\n\
              current numbers). The table below is rendered from\n\
              `uw_eval::guide::FIGURE_MAP`, the same constant the tier-1\n\
              smoke test and the `--check` gate read, so the documented\n\
              bands cannot drift from the enforced ones. -->\n\
         \n\
         Every figure/claim from **Underwater 3D positioning on smart\n\
         devices** (SIGCOMM 2023) that this repository reproduces maps to\n\
         one cell of the scenario matrix (see `crates/eval`) or to one\n\
         probe (see [below](#probes-the-waveform-level-figures)). Run the\n\
         whole grid and every probe with:\n\
         \n\
         ```sh\n\
         ./scripts/eval_matrix.sh          # full matrix + probes → BENCH_eval_matrix.json + this guide\n\
         cargo test -p uw-eval             # tier-1 smoke slice: re-checks the ☑ bands\n\
         ```\n\
         \n\
         Rows marked ☑ are re-verified by the tier-1 smoke test on every\n\
         `cargo test`; the remaining rows are checked by the full run\n\
         (`--check` makes band violations fail the command). `ext.` rows\n\
         are matrix extensions beyond the paper's campaign (open-water and\n\
         tidal-channel sites, swimmer mobility, device churn), motivated\n\
         by arXiv:2209.01780 and arXiv:2208.10569.\n\
         \n",
    );
    out.push_str(
        "| Figure | Claim | Matrix cell or probe | Metric | Acceptance band | Current | ☑ |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for claim in FIGURE_MAP {
        let current = match claim.current(report, probes) {
            Some(Ok(v)) if v.is_finite() => format!("{v:.2}"),
            Some(Ok(_)) => "n/a".into(),
            Some(Err(_)) => "failed".into(),
            None => "(not run)".into(),
        };
        let source = match claim.source {
            Source::Cell(id, _) => format!("`{id}`"),
            Source::Probe(name, ..) => format!("`probes::{name}`"),
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | [{}, {}] | {} | {} |\n",
            claim.figure,
            claim.claim,
            source,
            claim.source.metric_label(),
            claim.lo,
            claim.hi,
            current,
            if claim.smoke { "☑" } else { "" },
        ));
    }
    out.push_str(
        "\n## Reading a cell id\n\
         \n\
         `dock/5dev/occluded/static/s1` = dock environment, 5-device\n\
         topology, occluded leader link, static devices, seed 1. The axes\n\
         and their values are defined in `uw_eval::matrix`; every cell's\n\
         full statistics (median/p90/p99, error CDF points, flip rate,\n\
         drop decisions, latency) are in `BENCH_eval_matrix.json`.\n\
         \n\
         ## The `NumericPath` knob (f32 and fixed-point cells)\n\
         \n\
         Cells with an `f32` or `q15` segment\n\
         (`dock/5dev/clear/static/f32/s1`,\n\
         `dock/5dev/clear/static/q15/s1`) run the waveform DSP —\n\
         detection correlation and LS channel estimation — on the\n\
         single-precision lane-kernel path in `uw_dsp::float32` or the\n\
         on-device Q15 fixed-point path in `uw_dsp::fixed` instead of the\n\
         `f64` oracle. Non-f64 cells must run at hybrid fidelity (the\n\
         statistical model never touches the DSP); select the path via\n\
         `ScenarioMatrix::numeric_paths` or `SystemConfig::numeric_path`.\n\
         Run the pinned alternate-path cells alone with:\n\
         \n\
         ```sh\n\
         cargo test -p uw-eval --test q15_cell_band   # Q15-vs-f64 band check\n\
         cargo test -p uw-eval --test f32_cell_band   # f32-vs-f64 band check\n\
         cargo test -p uw-dsp --test fixed_vs_float   # primitive-level differential suite\n\
         ```\n\
         \n\
         ## Streaming cells instead of batching them\n\
         \n\
         Every cell above can also be *served*: the async serving layer\n\
         (`uw-serve`) accepts localization jobs over bounded queues and\n\
         streams each round's result the moment it completes, then\n\
         finalizes statistics that are byte-identical to the batch\n\
         runner's (both drive `uw_eval::CellExecution`). Stream the dock\n\
         headline cell and watch rounds arrive with the fifth example:\n\
         \n\
         ```sh\n\
         cargo run --release --example streaming_eval\n\
         ```\n\
         \n\
         Queue semantics, shard tuning, backpressure/cancellation\n\
         behaviour and the streamed-event → report-field mapping are in\n\
         `docs/SERVING.md`; `./scripts/serve_bench.sh` records the\n\
         serve-vs-batch throughput/latency trajectory in\n\
         `BENCH_serve.json`.\n\
         \n\
         ## Importing a recording instead of simulating\n\
         \n\
         Cells with an `import` segment\n\
         (`dock/5dev/clear/static/import/s1`) take their leader-link\n\
         audio from one continuous 2-channel campaign WAV instead of the\n\
         channel simulator: `uw_eval::scan_campaign` finds every preamble\n\
         burst blind, places it on the TDMA grid and fits each device's\n\
         clock skew, and `uw_eval::load_campaign` slices and compensates\n\
         the captures — on any numeric path, since captures are\n\
         path-independent. `uw_eval::render_campaign_wav` writes such a\n\
         campaign from a recorded cell. The golden dock cell, rendered and\n\
         imported blind, must land within 0.1 m of the simulated cell's\n\
         median on the f64 and Q15 paths, and f32 within 0.1 m of f64; its\n\
         PCM16 rendering is pinned by digest. Both are enforced on every\n\
         `cargo test` by `crates/eval/tests/import_golden.rs`. Try it:\n\
         \n\
         ```sh\n\
         cargo run --release --example import_recording   # record → campaign WAV → blind import (f64 + q15)\n\
         python3 perfbench/run.py --workload field-rounds # decode, scan and import timed end to end\n\
         ```\n\
         \n\
         ## Probes: the waveform-level figures\n\
         \n\
         The 1D ranging, detection, depth, SNR and battery figures (Fig.\n\
         11–15 and 22, the battery table) are not network rounds, so no\n\
         matrix cell reproduces them. Each headline number of theirs is a\n\
         probe in `uw_eval::probes`: a plain function that runs the\n\
         library at fixed seeds (base seed 1) and returns one number. The\n\
         full run measures every probe once, after the cells, and the\n\
         `probes::…` rows above show and gate them like any cell row; the\n\
         tier-1 smoke slice runs none of them. Each probe band contains the\n\
         probe's value at every base seed from 1 to 10, and where the\n\
         reproduction disagrees with the paper the claim says what it\n\
         measures. A probe fails, and its row with it, when any of its\n\
         trials fails; the Fig. 15 rows instead gate how many of their\n\
         pings fail to range.\n\
         \n\
         Four headlines are gated by tests instead, because they need the\n\
         localization crate or a whole-figure trend:\n\
         \n\
         * Fig. 6 (analytical evaluation): the trends and the 6-device\n\
           reference point at ε₁D = 0.8 m, in\n\
           `tests/physical_pipeline.rs::analytical_topology_evaluation_matches_fig6_trends`.\n\
         * Fig. 11b (dual microphones trim the tail):\n\
           `tests/physical_pipeline.rs::dual_mic_beats_single_mic_at_long_range`.\n\
         * Fig. 12a (our detector in the busy boathouse):\n\
           `tests/physical_pipeline.rs::detection_is_robust_in_the_busy_boathouse_environment`.\n\
         * Tab. flipping with one voter:\n\
           `tests/end_to_end.rs::one_voter_flipping_accuracy_matches_its_sign_error_rate`.\n\
         \n\
         Fig. 16 (human pointing accuracy) has no row: sessions draw the\n\
         leader's pointing error from `SystemConfig::pointing_error_std_rad`\n\
         (5°) in every cell.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ErrorSummary;

    fn report_with(id: &str, median: f64) -> EvalReport {
        let mut cell = crate::report::cell_report_skeleton(
            &crate::matrix::ScenarioMatrix::smoke().expand().unwrap()[0],
        );
        cell.id = id.into();
        cell.error_2d = ErrorSummary::from_samples(&[median]);
        cell.ranging_median_m = 0.5;
        cell.flip_rate = 1.0;
        cell.latency_acoustic_s = 1.88;
        EvalReport::new(vec![cell])
    }

    #[test]
    fn figure_map_is_internally_consistent() {
        let probes: Vec<&str> = FIGURE_MAP
            .iter()
            .filter(|c| matches!(c.source, Source::Probe(..)))
            .map(|c| c.source.id())
            .collect();
        assert!(FIGURE_MAP.len() - probes.len() >= 15 && probes.len() >= 20);
        for claim in FIGURE_MAP {
            let id = claim.source.id();
            assert!(claim.lo <= claim.hi, "{id}: inverted band");
            assert!(!claim.figure.is_empty() && !claim.claim.is_empty());
            // A claim is one markdown table cell.
            assert!(!claim.claim.contains('|'), "{id}: '|' in the claim");
            match claim.source {
                // Cell ids follow the env/topology/condition/mobility/seed
                // shape, with an extra numeric-path segment on f32/Q15
                // cells.
                Source::Cell(..) => {
                    let segments = id.split('/').count();
                    assert!(
                        segments == 5
                            || (segments == 6 && (id.contains("/q15/") || id.contains("/f32/"))),
                        "{id}"
                    );
                }
                // Probes run only in the full run, under a unique name
                // that is their function's.
                Source::Probe(_, metric, _) => {
                    assert!(!claim.smoke, "{id}: probes are not in the smoke slice");
                    assert!(!metric.is_empty());
                    assert!(id
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
                    assert_eq!(probes.iter().filter(|p| **p == id).count(), 1, "{id}");
                }
            }
        }
        // Every smoke-checked claim points at a cell the smoke matrix
        // itself runs — the same slice `smoke_bands_hold` executes.
        let smoke_cells: Vec<String> = crate::matrix::ScenarioMatrix::smoke()
            .expand()
            .unwrap()
            .iter()
            .map(|c| c.id.clone())
            .collect();
        for claim in FIGURE_MAP.iter().filter(|c| c.smoke) {
            assert!(
                smoke_cells.iter().any(|id| id == claim.source.id()),
                "smoke claim {} has no smoke cell",
                claim.source.id()
            );
        }
    }

    #[test]
    fn every_mapped_cell_exists_in_the_full_suite() {
        let mut suite_ids: Vec<String> = Vec::new();
        for m in crate::matrix::ScenarioMatrix::full_suite() {
            suite_ids.extend(m.expand().unwrap().iter().map(|c| c.id.clone()));
        }
        for claim in FIGURE_MAP {
            if let Source::Cell(id, _) = claim.source {
                assert!(
                    suite_ids.iter().any(|suite_id| suite_id == id),
                    "claim cell {id} is not produced by the full suite"
                );
            }
        }
    }

    #[test]
    fn band_check_flags_out_of_band_cells() {
        let ok = report_with("dock/5dev/clear/static/s1", 0.9);
        let violations = check_bands(&ok, &Vec::new(), false);
        // The in-band median passes; flip/latency/ranging in the synthetic
        // report are set to passing values, p90 of one sample equals the
        // median (in band).
        assert!(
            violations.is_empty(),
            "unexpected violations: {violations:?}"
        );
        let bad = report_with("dock/5dev/clear/static/s1", 25.0);
        let violations = check_bands(&bad, &Vec::new(), false);
        assert!(!violations.is_empty());
        assert!(violations[0].to_string().contains("measured 25.000"));
    }

    #[test]
    fn band_check_flags_out_of_band_and_failed_probes() {
        let report = report_with("dock/5dev/clear/static/s1", 0.9);
        let failure = uw_core::SystemError::Layer {
            layer: "probe",
            reason: "3 of 20 trials failed".into(),
        };
        let probes: ProbeValues = vec![
            ("fig11_median_10m", Ok(0.21)),
            ("fig11_median_20m", Ok(42.0)),
            ("fig22_mean_snr_10m", Err(failure)),
        ];
        let violations = check_bands(&report, &probes, false);
        let lines: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].starts_with("fig11_median_20m [Fig. 11a]"));
        assert!(lines[0].contains("measured 42.000"));
        assert!(lines[1].starts_with("fig22_mean_snr_10m [Fig. 22]"));
        assert!(lines[1].contains("failed: probe layer error: 3 of 20 trials failed"));
        // The guide shows the failure instead of a number.
        assert!(generate_guide(&report, &probes).contains("| failed |"));
    }

    #[test]
    fn require_all_reports_missing_cells() {
        let empty = EvalReport::new(Vec::new());
        assert!(check_bands(&empty, &Vec::new(), false).is_empty());
        let missing = check_bands(&empty, &Vec::new(), true);
        assert_eq!(missing.len(), FIGURE_MAP.len());
        assert!(missing
            .iter()
            .all(|v| v.measured.as_ref().unwrap().is_nan()));
    }

    #[test]
    fn guide_renders_every_claim() {
        let report = report_with("dock/5dev/clear/static/s1", 0.9);
        let guide = generate_guide(&report, &Vec::new());
        assert!(guide.contains("GENERATED FILE"));
        assert!(guide.contains("| Figure | Claim |"));
        assert!(guide.contains("streaming_eval"));
        assert!(guide.contains("import_recording"));
        assert!(guide.contains("import_golden"));
        for claim in FIGURE_MAP {
            let id = claim.source.id();
            assert!(guide.contains(id), "missing {id}");
        }
        // Cells missing from the report render as "(not run)".
        assert!(guide.contains("(not run)"));
        assert!(guide.contains("| 0.90 |"));
    }
}
