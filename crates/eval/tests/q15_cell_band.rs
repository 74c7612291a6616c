//! End-to-end differential band: the Q15 fixed-point dock cell against the
//! f64 dock cell.
//!
//! This is the system-level leg of the differential-testing harness (the
//! primitive-level legs live in `uw-dsp/tests/fixed_vs_float.rs`): the
//! same dock scenario runs once with the waveform DSP on the `f64` oracle
//! and once on the on-device Q15 path, both at hybrid fidelity, and the
//! Q15 cell's median 2D error must stay within [`Q15_MEDIAN_BAND_M`] of
//! the f64 cell's.
//!
//! Measured at this revision the two cells are *identical*: the Q15
//! pipeline's ≥ 50 dB SQNR keeps every integer tap decision (detection
//! peak, direct-path taps) on the same sample as the f64 path at testbed
//! SNRs, so the half-sample-quantised arrival estimates agree exactly.
//! The band exists to catch regressions that push fixed-point noise far
//! enough to move taps.

use uw_core::config::NumericPath;
use uw_eval::guide::{check_bands, Source, FIGURE_MAP};
use uw_eval::runner::run_matrix;
use uw_eval::ScenarioMatrix;

/// Maximum allowed gap between the Q15 and f64 dock-cell median 2D errors
/// (metres). Documented in `docs/EVALUATION.md`'s `ext. q15` row.
pub const Q15_MEDIAN_BAND_M: f64 = 0.5;

#[test]
fn q15_dock_cell_median_stays_within_the_f64_band() {
    let q15_matrix = ScenarioMatrix::q15_dock();
    let f64_matrix = ScenarioMatrix {
        numeric_paths: vec![NumericPath::F64],
        ..ScenarioMatrix::q15_dock()
    };
    let q15_report = run_matrix(&q15_matrix).unwrap();
    let f64_report = run_matrix(&f64_matrix).unwrap();
    let q15 = &q15_report.cells[0];
    let f64_cell = &f64_report.cells[0];
    assert_eq!(q15.id, "dock/5dev/clear/static/q15/s1");
    assert_eq!(f64_cell.id, "dock/5dev/clear/static/s1");
    assert_eq!(q15.numeric_path, "q15");
    assert_eq!(f64_cell.numeric_path, "f64");

    // Both cells complete every round: the Q15 pipeline detects and ranges
    // on every leader link the f64 pipeline does.
    assert_eq!(q15.rounds_completed, q15.rounds, "{q15:?}");
    assert_eq!(f64_cell.rounds_completed, f64_cell.rounds);

    // The differential band: fixed-point quantisation may not move the
    // cell median by more than the documented band.
    let gap = (q15.error_2d.median - f64_cell.error_2d.median).abs();
    assert!(
        gap <= Q15_MEDIAN_BAND_M,
        "Q15 median {:.3} m vs f64 median {:.3} m: gap {gap:.3} m exceeds {} m",
        q15.error_2d.median,
        f64_cell.error_2d.median,
        Q15_MEDIAN_BAND_M
    );
    // Ranging accuracy likewise stays at the oracle's level.
    let ranging_gap = (q15.ranging_median_m - f64_cell.ranging_median_m).abs();
    assert!(ranging_gap <= 0.25, "ranging gap {ranging_gap:.3} m");

    // The guide's `ext. q15` acceptance band holds for the cell.
    let (claim, metric) = FIGURE_MAP
        .iter()
        .find_map(|c| match c.source {
            Source::Cell("dock/5dev/clear/static/q15/s1", metric) => Some((c, metric)),
            _ => None,
        })
        .expect("the guide maps the Q15 cell");
    let measured = metric.read(q15);
    assert!(
        measured >= claim.lo && measured <= claim.hi,
        "Q15 cell median {measured:.3} outside guide band [{}, {}]",
        claim.lo,
        claim.hi
    );
    assert!(check_bands(&q15_report, &Vec::new(), false).is_empty());
}

#[test]
fn q15_cell_is_deterministic() {
    let matrix = ScenarioMatrix::q15_dock();
    let a = run_matrix(&matrix).unwrap();
    let b = run_matrix(&matrix).unwrap();
    assert_eq!(a.to_json(), b.to_json());
}
