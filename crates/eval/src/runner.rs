//! Cell execution: one steppable core shared by batch and streamed runs.
//!
//! [`CellExecution`] is the single place a matrix cell is actually run:
//! it owns the cell's [`Session`], steps it one localization round at a
//! time (emitting a [`RoundSummary`] per round), accumulates the error /
//! flip / drop statistics incrementally, and finalizes into the same
//! [`CellReport`] the batch runner always produced. The batch entry points
//! ([`run_cell`], [`run_matrix`], [`run_suite`]) drive it to completion in
//! a loop; the async serving layer (`uw-serve`) drives the *same* core
//! round by round, interleaving rounds of many cells across a worker pool
//! and streaming each `RoundSummary` out as it happens. Because both paths
//! share this core, a streamed run reconstructs a byte-identical
//! [`EvalReport`] to the batch run of the same cells.
//!
//! Batch execution fans cells out over rayon. Cells are independent
//! sessions, so they parallelise perfectly; the process-wide waveform
//! assets in `uw_core::waveform` (preamble matched filter, symbol FFT
//! plans) are built once and shared by every hybrid-fidelity cell, so
//! parallel cells reuse precomputed DSP state instead of rebuilding it per
//! cell.
//!
//! Execution is deterministic: each cell's RNG stream is fully determined
//! by its seed and round index (never by which thread or shard runs it),
//! and reports keep cells in expansion/submission order, so the same
//! matrix always produces byte-identical JSON reports — batched or
//! streamed, in-order or out-of-order.

use crate::matrix::{EvalCell, ScenarioMatrix};
use crate::report::{cell_report_skeleton, CellReport, ErrorSummary, EvalReport};
use rayon::prelude::*;
use uw_core::metrics::cdf_points;
use uw_core::prelude::*;
use uw_core::Result;

/// Number of points kept from each cell's error CDF.
pub const CDF_POINTS: usize = 12;

/// What one localization round of a cell produced, as observable mid-cell
/// by a streaming consumer. The full statistics (percentiles, CDF) only
/// exist once the cell finalizes; the summary carries what is known the
/// moment the round completes.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSummary {
    /// 0-based round index within the cell.
    pub round: usize,
    /// Whether the round completed (a failed round — e.g. too few audible
    /// devices after churn — still yields a summary with `ok == false`).
    pub ok: bool,
    /// Median per-device 2D error of this round alone (m); NaN when the
    /// round failed or produced no finite errors.
    pub median_error_2d_m: f64,
    /// Links dropped by outlier detection this round.
    pub dropped_links: usize,
    /// Whether flipping disambiguation was correct this round (false for
    /// failed rounds).
    pub flipping_correct: bool,
}

/// The steppable execution state of one cell: a session plus incremental
/// aggregation of everything a [`CellReport`] needs.
///
/// ```
/// use uw_eval::runner::CellExecution;
/// use uw_eval::ScenarioMatrix;
///
/// let mut matrix = ScenarioMatrix::smoke();
/// matrix.rounds_per_cell = 2;
/// let cell = matrix.expand().unwrap().remove(0);
/// let mut exec = CellExecution::new(&cell).unwrap();
/// while let Some(summary) = exec.step() {
///     assert!(summary.ok);
/// }
/// let report = exec.finalize();
/// assert_eq!(report.rounds_completed, 2);
/// ```
#[derive(Debug)]
pub struct CellExecution {
    cell: EvalCell,
    session: Session,
    report: CellReport,
    errors_2d: Vec<f64>,
    ranging: Vec<f64>,
    flips_correct: usize,
    dropped_links: usize,
}

impl CellExecution {
    /// Prepares a cell for execution (validates the configuration and
    /// builds the session; an imported cell's decoded audio is installed
    /// as the session's recorded-link source). No rounds run yet.
    pub fn new(cell: &EvalCell) -> Result<Self> {
        let mut session = Session::new(cell.scenario.config().clone())?;
        if let Some(replay) = &cell.replay {
            session.set_audio_source(std::sync::Arc::clone(replay) as _);
        }
        if let Some(faults) = &cell.faults {
            session.set_fault_schedule(faults.clone())?;
        }
        Ok(Self {
            cell: cell.clone(),
            session,
            report: cell_report_skeleton(cell),
            errors_2d: Vec::new(),
            ranging: Vec::new(),
            flips_correct: 0,
            dropped_links: 0,
        })
    }

    /// The cell being executed.
    pub fn cell(&self) -> &EvalCell {
        &self.cell
    }

    /// Rounds executed so far (completed + failed).
    pub fn rounds_run(&self) -> usize {
        self.report.rounds_completed + self.report.rounds_failed
    }

    /// Whether every requested round has run.
    pub fn is_complete(&self) -> bool {
        self.rounds_run() >= self.cell.rounds
    }

    /// Runs the next localization round and folds its statistics into the
    /// aggregate state. Returns `None` once the cell is complete; a round
    /// that fails outright still returns a summary (`ok == false`) so
    /// streaming consumers observe it.
    pub fn step(&mut self) -> Option<RoundSummary> {
        if self.is_complete() {
            return None;
        }
        let round = self.rounds_run();
        match self.session.run(self.cell.scenario.network()) {
            Ok(outcome) => {
                self.report.rounds_completed += 1;
                let round_errors: Vec<f64> = outcome
                    .errors_2d
                    .iter()
                    .copied()
                    .filter(|e| e.is_finite())
                    .collect();
                self.errors_2d.extend_from_slice(&round_errors);
                self.ranging.extend(outcome.ranging_errors.iter().copied());
                if outcome.flipping_correct {
                    self.flips_correct += 1;
                }
                self.dropped_links += outcome.localization.dropped_links.len();
                self.report.latency_acoustic_s = outcome.latency.acoustic_s;
                self.report.latency_total_s = outcome.latency.total_s();
                Some(RoundSummary {
                    round,
                    ok: true,
                    median_error_2d_m: ErrorSummary::from_samples(&round_errors).median,
                    dropped_links: outcome.localization.dropped_links.len(),
                    flipping_correct: outcome.flipping_correct,
                })
            }
            Err(_) => {
                self.report.rounds_failed += 1;
                Some(RoundSummary {
                    round,
                    ok: false,
                    median_error_2d_m: f64::NAN,
                    dropped_links: 0,
                    flipping_correct: false,
                })
            }
        }
    }

    /// Finalizes the aggregate statistics into the cell's report. Callable
    /// at any point — mid-cell finalization (after cancellation) reports
    /// the rounds that actually ran.
    pub fn finalize(self) -> CellReport {
        let mut report = self.report;
        // Churn exclusions come from the cell's configuration (what is
        // silent in the final round), not from the last *successful* round
        // — the two differ when late rounds fail outright.
        report.churn_excluded = (0..self.cell.n_devices)
            .filter(|&i| {
                self.cell
                    .scenario
                    .network()
                    .device_silent_in_round(i, self.cell.rounds.saturating_sub(1))
            })
            .count();
        report.error_2d = ErrorSummary::from_samples(&self.errors_2d);
        report.error_cdf = cdf_points(&self.errors_2d, CDF_POINTS);
        report.ranging_median_m = ErrorSummary::from_samples(&self.ranging).median;
        if report.rounds_completed > 0 {
            report.flip_rate = self.flips_correct as f64 / report.rounds_completed as f64;
            report.mean_dropped_links = self.dropped_links as f64 / report.rounds_completed as f64;
        }
        report
    }
}

/// Runs one expanded cell to completion and aggregates its statistics.
pub fn run_cell(cell: &EvalCell) -> Result<CellReport> {
    let mut exec = CellExecution::new(cell)?;
    while exec.step().is_some() {}
    Ok(exec.finalize())
}

/// Expands a matrix and runs every cell in parallel.
pub fn run_matrix(matrix: &ScenarioMatrix) -> Result<EvalReport> {
    let cells = matrix.expand()?;
    run_cells(&cells)
}

/// Runs a suite of matrices and merges the reports (the first matrix to
/// produce a given cell id wins, so targeted matrices can be layered over
/// broad grids without double-running shared cells).
pub fn run_suite(matrices: &[ScenarioMatrix]) -> Result<EvalReport> {
    let mut cells: Vec<EvalCell> = Vec::new();
    for matrix in matrices {
        for cell in matrix.expand()? {
            if !cells.iter().any(|c| c.id == cell.id) {
                cells.push(cell);
            }
        }
    }
    run_cells(&cells)
}

fn run_cells(cells: &[EvalCell]) -> Result<EvalReport> {
    let reports: Vec<Result<CellReport>> = cells.par_iter().map(run_cell).collect();
    let mut out = Vec::with_capacity(reports.len());
    for r in reports {
        out.push(r?);
    }
    Ok(EvalReport::new(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{LinkProfile, MobilityProfile, Topology};
    use uw_core::config::Fidelity;

    fn tiny_matrix() -> ScenarioMatrix {
        ScenarioMatrix {
            environments: vec![EnvironmentKind::Dock],
            topologies: vec![Topology::FiveDevice],
            conditions: vec![LinkProfile::Clear],
            mobilities: vec![MobilityProfile::Static],
            numeric_paths: vec![uw_core::config::NumericPath::F64],
            faults: vec![None],
            seeds: vec![3],
            recordings: vec![],
            rounds_per_cell: 4,
            fidelity: Fidelity::Statistical,
        }
    }

    #[test]
    fn single_cell_runs_and_aggregates() {
        let report = run_matrix(&tiny_matrix()).unwrap();
        assert_eq!(report.cells.len(), 1);
        let cell = &report.cells[0];
        assert_eq!(cell.rounds_completed, 4);
        assert_eq!(cell.rounds_failed, 0);
        // 4 rounds × 4 non-leader devices.
        assert_eq!(cell.error_2d.count, 16);
        assert!(cell.error_2d.median > 0.0 && cell.error_2d.median < 5.0);
        assert!(cell.error_2d.p90 >= cell.error_2d.median);
        assert!(cell.error_2d.p99 >= cell.error_2d.p90);
        assert!(!cell.error_cdf.is_empty());
        assert!(cell.ranging_median_m > 0.0);
        assert!((cell.latency_acoustic_s - 1.88).abs() < 0.01);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_matrix(&tiny_matrix()).unwrap();
        let b = run_matrix(&tiny_matrix()).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn stepped_execution_matches_run_cell() {
        let cell = tiny_matrix().expand().unwrap().remove(0);
        let batch = run_cell(&cell).unwrap();
        let mut exec = CellExecution::new(&cell).unwrap();
        let mut summaries = Vec::new();
        while let Some(s) = exec.step() {
            summaries.push(s);
        }
        assert!(exec.is_complete());
        assert_eq!(summaries.len(), cell.rounds);
        for (k, s) in summaries.iter().enumerate() {
            assert_eq!(s.round, k);
            assert!(s.ok);
            assert!(s.median_error_2d_m.is_finite());
        }
        let streamed = exec.finalize();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn mid_cell_finalization_reports_partial_rounds() {
        let cell = tiny_matrix().expand().unwrap().remove(0);
        let mut exec = CellExecution::new(&cell).unwrap();
        exec.step().unwrap();
        exec.step().unwrap();
        assert!(!exec.is_complete());
        let report = exec.finalize();
        assert_eq!(report.rounds_completed, 2);
        // 2 rounds × 4 non-leader devices.
        assert_eq!(report.error_2d.count, 8);
        assert_eq!(report.rounds, 4);
    }

    #[test]
    fn churn_cells_report_exclusions() {
        let mut m = tiny_matrix();
        m.conditions = vec![LinkProfile::DeviceChurn { after_round: 1 }];
        m.rounds_per_cell = 3;
        let report = run_matrix(&m).unwrap();
        let cell = &report.cells[0];
        assert_eq!(cell.rounds_completed, 3);
        assert_eq!(cell.churn_excluded, 1);
        // Errors from the churned device's silent rounds are excluded, so
        // rounds contribute 4 + 3 + 3 device errors.
        assert_eq!(cell.error_2d.count, 10);
    }

    #[test]
    fn suite_merging_avoids_duplicate_cells() {
        let report = run_suite(&[tiny_matrix(), tiny_matrix()]).unwrap();
        assert_eq!(report.cells.len(), 1);
    }
}
