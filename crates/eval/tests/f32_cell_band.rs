//! End-to-end differential band: the single-precision f32 dock cell
//! against the f64 dock cell.
//!
//! This is the system-level leg of the f32 differential-testing harness
//! (the primitive-level legs live in `uw-dsp/tests/fixed_vs_float.rs`):
//! the same dock scenario runs once with the waveform DSP on the `f64`
//! oracle and once on the f32 lane-kernel path, both at hybrid fidelity,
//! and the f32 cell's median 2D error must stay within
//! [`F32_MEDIAN_BAND_M`] of the f64 cell's.
//!
//! Single precision carries ~100 dB of SQNR through the correlator — some
//! 50 dB above Q15 — so its band is a fifth of the fixed-point one.
//! Measured at this revision the two cells are *identical*: every integer
//! tap decision (detection peak, direct-path taps) lands on the same
//! sample as the f64 path at testbed SNRs, so the half-sample-quantised
//! arrival estimates agree exactly. The band exists to catch regressions
//! that push single-precision rounding far enough to move taps.

use uw_core::config::NumericPath;
use uw_eval::guide::{check_bands, Source, FIGURE_MAP};
use uw_eval::runner::run_matrix;
use uw_eval::ScenarioMatrix;

/// Maximum allowed gap between the f32 and f64 dock-cell median 2D errors
/// (metres). Documented in `docs/EVALUATION.md`'s `ext. f32` row.
pub const F32_MEDIAN_BAND_M: f64 = 0.1;

#[test]
fn f32_dock_cell_median_stays_within_the_f64_band() {
    let f32_matrix = ScenarioMatrix::f32_dock();
    let f64_matrix = ScenarioMatrix {
        numeric_paths: vec![NumericPath::F64],
        ..ScenarioMatrix::f32_dock()
    };
    let f32_report = run_matrix(&f32_matrix).unwrap();
    let f64_report = run_matrix(&f64_matrix).unwrap();
    let f32_cell = &f32_report.cells[0];
    let f64_cell = &f64_report.cells[0];
    assert_eq!(f32_cell.id, "dock/5dev/clear/static/f32/s1");
    assert_eq!(f64_cell.id, "dock/5dev/clear/static/s1");
    assert_eq!(f32_cell.numeric_path, "f32");
    assert_eq!(f64_cell.numeric_path, "f64");

    // Both cells complete every round: the f32 pipeline detects and ranges
    // on every leader link the f64 pipeline does.
    assert_eq!(f32_cell.rounds_completed, f32_cell.rounds, "{f32_cell:?}");
    assert_eq!(f64_cell.rounds_completed, f64_cell.rounds);

    // The differential band: single-precision rounding may not move the
    // cell median by more than the documented band.
    let gap = (f32_cell.error_2d.median - f64_cell.error_2d.median).abs();
    assert!(
        gap <= F32_MEDIAN_BAND_M,
        "f32 median {:.4} m vs f64 median {:.4} m: gap {gap:.4} m exceeds {} m",
        f32_cell.error_2d.median,
        f64_cell.error_2d.median,
        F32_MEDIAN_BAND_M
    );
    // Ranging accuracy likewise stays at the oracle's level, with a band
    // half the Q15 test's.
    let ranging_gap = (f32_cell.ranging_median_m - f64_cell.ranging_median_m).abs();
    assert!(ranging_gap <= 0.1, "ranging gap {ranging_gap:.4} m");

    // The guide's `ext. f32` acceptance band holds for the cell.
    let (claim, metric) = FIGURE_MAP
        .iter()
        .find_map(|c| match c.source {
            Source::Cell("dock/5dev/clear/static/f32/s1", metric) => Some((c, metric)),
            _ => None,
        })
        .expect("the guide maps the f32 cell");
    let measured = metric.read(f32_cell);
    assert!(
        measured >= claim.lo && measured <= claim.hi,
        "f32 cell median {measured:.3} outside guide band [{}, {}]",
        claim.lo,
        claim.hi
    );
    assert!(check_bands(&f32_report, &Vec::new(), false).is_empty());
}

#[test]
fn f32_cell_is_deterministic() {
    let matrix = ScenarioMatrix::f32_dock();
    let a = run_matrix(&matrix).unwrap();
    let b = run_matrix(&matrix).unwrap();
    assert_eq!(a.to_json(), b.to_json());
}
