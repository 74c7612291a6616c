//! # uw-eval — scenario-matrix evaluation engine
//!
//! The paper evaluates across four sites, two group sizes, occlusion,
//! mobility and latency sweeps. This crate turns that into a declarative,
//! repeatable grid over the whole workspace:
//!
//! * [`matrix`] — [`matrix::ScenarioMatrix`]: the cross product of
//!   environments × topologies × link conditions × mobility profiles ×
//!   numeric paths × seeds, expanded into concrete [`uw_core::Scenario`]s
//!   (paper-measured layouts where they exist, deterministic spiral
//!   layouts elsewhere). The numeric-path axis
//!   ([`uw_core::config::NumericPath`]) selects between the `f64` DSP
//!   oracle and the on-device Q15 fixed-point path for hybrid-fidelity
//!   cells.
//! * [`runner`] — the steppable cell-execution core
//!   ([`runner::CellExecution`]: one round per [`runner::CellExecution::step`],
//!   incremental aggregation, [`runner::RoundSummary`] per round) plus the
//!   batch entry points built on it ([`runner::run_matrix`] /
//!   [`runner::run_suite`]: rayon fan-out with per-cell round counts).
//!   The async serving layer (`uw-serve`) drives the same core round by
//!   round, so streamed and batch runs produce byte-identical reports.
//!   Hybrid-fidelity cells share the process-wide waveform assets (the
//!   preamble's pooled `uw_dsp::MatchedFilter` and symbol
//!   `uw_dsp::FftPlan`s) built once in [`uw_core::waveform`].
//! * [`replay`] — real-audio ingestion: [`replay::record_cell`] renders a
//!   hybrid cell's leader-link exchanges to a 2-channel WAV (via
//!   `uw-audio`'s hand-rolled codec) and [`matrix::EvalCell::from_recording`]
//!   wraps a decoded [`replay::Recording`] into a *replay cell* — same
//!   rounds, same statistics, but detection and channel estimation run on
//!   the recorded audio instead of simulator output (`replay` id segment,
//!   both numeric paths). The committed golden fixture under
//!   `tests/fixtures/` is generated this way.
//! * [`soak`] — the fleet-scale fault soak: [`soak::SoakPlan`] expands a
//!   master seed into hundreds of dive-group cells under scripted
//!   [`uw_core::faults::FaultSchedule`]s (loss, churn, clock skew, leader
//!   failover, cross-network interference), [`soak::run_plan`] checks
//!   invariants after every round, re-runs each cell to prove bitwise
//!   `(seed, schedule)` reproducibility, and emits `BENCH_soak.json`
//!   (see `docs/FAULTS.md`).
//! * [`report`] — [`report::EvalReport`]: per-cell median/p90/p99 error
//!   statistics, CDF points, flip rates, drop decisions and latency,
//!   serialised to deterministic JSON (`BENCH_eval_matrix.json`).
//! * [`guide`] — [`guide::FIGURE_MAP`]: the figure → cell → acceptance-band
//!   mapping from which `docs/EVALUATION.md`, the `--check` gate and the
//!   tier-1 smoke test are all generated, so documentation and enforcement
//!   cannot drift apart.
//!
//! The matrix extends the paper's axes with two new environments
//! ([`uw_channel::environment::EnvironmentKind::OpenWater`],
//! [`uw_channel::environment::EnvironmentKind::TidalChannel`]), a
//! device-churn link condition and a swimmer mobility profile
//! ([`uw_device::mobility::swimmer_circuit`]).
//!
//! ## Example
//!
//! ```
//! use uw_eval::matrix::{LinkProfile, MobilityProfile, ScenarioMatrix, Topology};
//! use uw_eval::runner::run_matrix;
//! use uw_core::prelude::EnvironmentKind;
//! use uw_core::config::{Fidelity, NumericPath};
//!
//! // A one-cell matrix: the dock testbed, clear links, static devices,
//! // the f64 reference DSP path.
//! let matrix = ScenarioMatrix {
//!     environments: vec![EnvironmentKind::Dock],
//!     topologies: vec![Topology::FiveDevice],
//!     conditions: vec![LinkProfile::Clear],
//!     mobilities: vec![MobilityProfile::Static],
//!     numeric_paths: vec![NumericPath::F64],
//!     faults: vec![None],
//!     seeds: vec![1],
//!     recordings: vec![],
//!     rounds_per_cell: 2,
//!     fidelity: Fidelity::Statistical,
//! };
//! let report = run_matrix(&matrix).unwrap();
//! assert_eq!(report.cells.len(), 1);
//! assert_eq!(report.cells[0].id, "dock/5dev/clear/static/s1");
//! assert!(report.cells[0].error_2d.median.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod guide;
pub mod import;
pub mod matrix;
pub mod replay;
pub mod report;
pub mod runner;
pub mod soak;

pub use import::{
    import_campaign, load_campaign, render_campaign_wav, scan_campaign, CampaignLayout,
    ImportParams, ImportReport, ImportedCampaign, RenderOptions,
};
pub use matrix::{EvalCell, LinkProfile, MobilityProfile, ScenarioMatrix, Topology};
pub use replay::{record_cell, Recording, ReplayAudio};
pub use report::{CellReport, EvalReport};
pub use runner::{run_matrix, run_suite, CellExecution, RoundSummary};
pub use soak::{SoakCell, SoakPlan, SoakReport};
/// The shared bounded byte codec of `uw-audio`, re-exported so that
/// `uw-serve`'s wire format reaches it through its existing dependency.
pub use uw_audio::codec;

#[cfg(test)]
mod tests {
    use super::*;

    /// The tier-1 smoke test behind `docs/EVALUATION.md`: re-runs the
    /// dock/boathouse 5-device headline cells and asserts every
    /// smoke-marked band in [`guide::FIGURE_MAP`] holds (smoke claims may
    /// only reference cells of [`ScenarioMatrix::smoke`] — enforced here
    /// and by `figure_map_is_internally_consistent`). If a solver or
    /// channel change moves the numbers out of the documented bands, this
    /// fails `cargo test`.
    #[test]
    fn smoke_bands_hold() {
        let report = run_matrix(&ScenarioMatrix::smoke()).unwrap();
        let smoke_claims: Vec<_> = guide::FIGURE_MAP.iter().filter(|c| c.smoke).collect();
        assert!(!smoke_claims.is_empty());
        // Every smoke claim's cell must actually be in the smoke slice.
        for claim in &smoke_claims {
            assert!(
                report.cell(claim.cell_id).is_some(),
                "smoke slice does not run {}",
                claim.cell_id
            );
        }
        let violations = guide::check_bands(&report, false);
        assert!(
            violations.is_empty(),
            "documented acceptance bands violated:\n{}",
            violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
