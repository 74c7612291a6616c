//! Aggregated evaluation reports and their JSON serialisation.
//!
//! [`EvalReport::to_json`] writes through the crate's one JSON writer
//! ([`crate::json`]): deterministic field order, six decimals, `null` for
//! non-finite floats. The output lands in `BENCH_eval_matrix.json`-style
//! artifacts.

use crate::json::{self, Layout, Seq};
use crate::matrix::EvalCell;

/// Schema identifier stamped into every report.
pub const REPORT_SCHEMA: &str = "uwgps-eval-matrix-v3";

/// Frozen pre-fix reference points serialised into every report, so the
/// artifact itself records how far a correctness overhaul moved a cell.
/// `(cell id, short label, median 2D error m, max 2D error m)` — measured
/// on the commit immediately before the fix landed.
pub const BASELINES: &[(&str, &str, f64, f64)] = &[(
    "dock/5dev/occluded/static/s1",
    "pre drop-validation overhaul",
    2.193,
    29.247,
)];

/// Summary statistics of one error series (metres).
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorSummary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Mean.
    pub mean: f64,
    /// Maximum.
    pub max: f64,
}

impl ErrorSummary {
    /// Builds the summary from raw samples (non-finite samples are
    /// ignored). An empty series yields NaN statistics with `count == 0`.
    pub fn from_samples(samples: &[f64]) -> Self {
        let finite: Vec<f64> = samples.iter().copied().filter(|e| e.is_finite()).collect();
        if finite.is_empty() {
            return Self {
                count: 0,
                median: f64::NAN,
                p90: f64::NAN,
                p99: f64::NAN,
                mean: f64::NAN,
                max: f64::NAN,
            };
        }
        let mut sorted = finite;
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Self {
            count: sorted.len(),
            median: uw_core::metrics::percentile(&sorted, 50.0),
            p90: uw_core::metrics::percentile(&sorted, 90.0),
            p99: uw_core::metrics::percentile(&sorted, 99.0),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            max: *sorted.last().unwrap(),
        }
    }
}

/// Aggregated result of running one matrix cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Stable cell identifier (`dock/5dev/clear/static/s1`).
    pub id: String,
    /// Environment slug.
    pub environment: String,
    /// Group size.
    pub n_devices: usize,
    /// Condition slug.
    pub condition: String,
    /// Mobility slug.
    pub mobility: String,
    /// Numeric-path slug (`f64`, `f32` or `q15`).
    pub numeric_path: String,
    /// Where the cell's audio came from: `sim` (channel simulator) or
    /// `import` (a blind import of a continuous field recording). Derived
    /// from the cell id by [`source_from_id`].
    pub source: String,
    /// RNG seed.
    pub seed: u64,
    /// Rounds requested.
    pub rounds: usize,
    /// Rounds that completed successfully.
    pub rounds_completed: usize,
    /// Rounds that failed outright (e.g. too few audible devices).
    pub rounds_failed: usize,
    /// Per-device 2D localization error statistics over all rounds.
    pub error_2d: ErrorSummary,
    /// Down-sampled empirical CDF of the 2D errors: `(error_m, fraction)`.
    pub error_cdf: Vec<(f64, f64)>,
    /// Median absolute pairwise ranging error (m).
    pub ranging_median_m: f64,
    /// Fraction of rounds whose flipping disambiguation was correct.
    pub flip_rate: f64,
    /// Mean number of links dropped by outlier detection per round.
    pub mean_dropped_links: f64,
    /// Devices configured (by churn) to be silent in the cell's final
    /// round.
    pub churn_excluded: usize,
    /// Acoustic phase latency of one round (s).
    pub latency_acoustic_s: f64,
    /// Total round latency including the report phase (s).
    pub latency_total_s: f64,
}

impl CellReport {
    /// One human-readable summary row (used by the CLI).
    pub fn row(&self) -> String {
        format!(
            "{:<38} rounds={:<3} median={:>6.2} m  p90={:>6.2} m  flip={:>4.0}%  drops={:>4.2}  lat={:>5.2} s",
            self.id,
            self.rounds_completed,
            self.error_2d.median,
            self.error_2d.p90,
            self.flip_rate * 100.0,
            self.mean_dropped_links,
            self.latency_total_s,
        )
    }
}

/// A full evaluation report: every cell of a matrix (or suite of
/// matrices), in expansion order.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Schema identifier ([`REPORT_SCHEMA`]).
    pub schema: String,
    /// Per-cell results.
    pub cells: Vec<CellReport>,
}

impl EvalReport {
    /// Creates a report over the given cells.
    pub fn new(cells: Vec<CellReport>) -> Self {
        Self {
            schema: REPORT_SCHEMA.into(),
            cells,
        }
    }

    /// Looks up a cell by its identifier.
    pub fn cell(&self, id: &str) -> Option<&CellReport> {
        self.cells.iter().find(|c| c.id == id)
    }

    /// Serialises the report to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        json::document(|o| {
            o.key("schema").str(&self.schema);
            o.key("baselines").array(Layout::Lines, |rows| {
                for (id, label, median, max) in BASELINES {
                    rows.item().object(Layout::Padded, |row| {
                        row.key("id").str(id);
                        row.key("label").str(label);
                        row.key("median_m").fixed(*median, DECIMALS);
                        row.key("max_m").fixed(*max, DECIMALS);
                    });
                }
            });
            o.key("cells").array(Layout::Lines, |cells| {
                for cell in &self.cells {
                    cells.item().object(Layout::Lines, |c| cell_json(c, cell));
                }
            });
        })
    }
}

/// Digits after the point of every float in the report.
const DECIMALS: usize = 6;

fn cell_json(o: &mut Seq<'_>, c: &CellReport) {
    o.key("id").str(&c.id);
    o.key("environment").str(&c.environment);
    o.key("n_devices").raw(c.n_devices);
    o.key("condition").str(&c.condition);
    o.key("mobility").str(&c.mobility);
    o.key("numeric_path").str(&c.numeric_path);
    o.key("source").str(&c.source);
    o.key("seed").raw(c.seed);
    o.key("rounds").raw(c.rounds);
    o.key("rounds_completed").raw(c.rounds_completed);
    o.key("rounds_failed").raw(c.rounds_failed);
    o.key("error_2d").object(Layout::Line, |e| {
        e.key("count").raw(c.error_2d.count);
        e.key("median_m").fixed(c.error_2d.median, DECIMALS);
        e.key("p90_m").fixed(c.error_2d.p90, DECIMALS);
        e.key("p99_m").fixed(c.error_2d.p99, DECIMALS);
        e.key("mean_m").fixed(c.error_2d.mean, DECIMALS);
        e.key("max_m").fixed(c.error_2d.max, DECIMALS);
    });
    o.key("error_cdf").array(Layout::Line, |cdf| {
        for &(v, f) in &c.error_cdf {
            cdf.item().array(Layout::Line, |point| {
                point.item().fixed(v, DECIMALS);
                point.item().fixed(f, DECIMALS);
            });
        }
    });
    o.key("ranging_median_m")
        .fixed(c.ranging_median_m, DECIMALS);
    o.key("flip_rate").fixed(c.flip_rate, DECIMALS);
    o.key("mean_dropped_links")
        .fixed(c.mean_dropped_links, DECIMALS);
    o.key("churn_excluded").raw(c.churn_excluded);
    o.key("latency_acoustic_s")
        .fixed(c.latency_acoustic_s, DECIMALS);
    o.key("latency_total_s").fixed(c.latency_total_s, DECIMALS);
}

/// Audio provenance of a cell, read off its id segments: an `import`
/// segment marks a blind-imported field recording, anything else the
/// channel simulator.
pub fn source_from_id(id: &str) -> &'static str {
    if id
        .split('/')
        .any(|seg| seg == crate::import::IMPORT_SEGMENT)
    {
        "import"
    } else {
        "sim"
    }
}

/// Seeds a [`CellReport`] with the cell's axes (statistics zeroed; the
/// runner fills them in).
pub fn cell_report_skeleton(cell: &EvalCell) -> CellReport {
    CellReport {
        id: cell.id.clone(),
        environment: cell.environment.slug().into(),
        n_devices: cell.n_devices,
        condition: cell.condition.slug().into(),
        mobility: cell.mobility.slug(),
        numeric_path: cell.numeric_path.slug().into(),
        source: source_from_id(&cell.id).into(),
        seed: cell.seed,
        rounds: cell.rounds,
        rounds_completed: 0,
        rounds_failed: 0,
        error_2d: ErrorSummary::from_samples(&[]),
        error_cdf: Vec::new(),
        ranging_median_m: f64::NAN,
        flip_rate: 0.0,
        mean_dropped_links: 0.0,
        churn_excluded: 0,
        latency_acoustic_s: f64::NAN,
        latency_total_s: f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell() -> CellReport {
        CellReport {
            id: "dock/5dev/clear/static/s1".into(),
            environment: "dock".into(),
            n_devices: 5,
            condition: "clear".into(),
            mobility: "static".into(),
            numeric_path: "f64".into(),
            source: "sim".into(),
            seed: 1,
            rounds: 12,
            rounds_completed: 12,
            rounds_failed: 0,
            error_2d: ErrorSummary::from_samples(&[0.2, 0.4, 0.6, 0.8, 1.0]),
            error_cdf: vec![(0.2, 0.2), (1.0, 1.0)],
            ranging_median_m: 0.5,
            flip_rate: 1.0,
            mean_dropped_links: 0.25,
            churn_excluded: 0,
            latency_acoustic_s: 1.88,
            latency_total_s: 3.0,
        }
    }

    #[test]
    fn summary_statistics_are_order_free_and_skip_non_finite() {
        let a = ErrorSummary::from_samples(&[3.0, 1.0, 2.0, f64::NAN]);
        let b = ErrorSummary::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
        assert_eq!(a.count, 3);
        assert_eq!(a.median, 2.0);
        assert_eq!(a.max, 3.0);
        let empty = ErrorSummary::from_samples(&[]);
        assert_eq!(empty.count, 0);
        assert!(empty.median.is_nan());
    }

    #[test]
    fn json_is_well_formed_and_deterministic() {
        let report = EvalReport::new(vec![sample_cell()]);
        let json = report.to_json();
        assert_eq!(json, report.to_json());
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"schema\": \"uwgps-eval-matrix-v3\""));
        assert!(json.contains("\"source\": \"sim\""));
        assert!(json.contains("\"numeric_path\": \"f64\""));
        assert!(json.contains("\"id\": \"dock/5dev/clear/static/s1\""));
        assert!(json.contains("\"median_m\": 0.600000"));
        // Balanced braces/brackets (cheap well-formedness check — the
        // emitter never nests strings containing braces).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut cell = sample_cell();
        cell.ranging_median_m = f64::NAN;
        let json = EvalReport::new(vec![cell]).to_json();
        assert!(json.contains("\"ranging_median_m\": null"));
    }
}
