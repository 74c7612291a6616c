//! Quickstart: reproduce Fig. 18 (dock + boathouse localization CDFs) in
//! one command.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Runs the scenario matrix's two headline cells — the paper's dock and
//! boathouse 5-device testbeds — through the evaluation engine, prints the
//! per-cell statistics and CDF points behind Fig. 18, then walks one dock
//! round in detail: the dive leader runs the distributed timestamp
//! protocol, collects pairwise distances and depth reports, solves the
//! topology and prints every diver's position next to the ground truth.

use uwgps::core::prelude::*;
use uwgps::eval::guide::{Source, FIGURE_MAP};
use uwgps::eval::{run_matrix, ScenarioMatrix};

fn main() {
    // --- Fig. 18 via the scenario matrix (the tier-1 smoke slice). ---
    let matrix = ScenarioMatrix::smoke();
    let report = run_matrix(&matrix).expect("smoke matrix runs");
    println!("Fig. 18 — 2D localization error across the paper's testbeds\n");
    for cell in &report.cells {
        println!("{}", cell.row());
        print!("  CDF:");
        for (value, frac) in &cell.error_cdf {
            print!("  {value:.2} m@{frac:.2}");
        }
        println!("\n");
    }
    for claim in FIGURE_MAP.iter().filter(|c| c.smoke) {
        let Source::Cell(id, metric) = claim.source else {
            continue;
        };
        if let Some(cell) = report.cell(id) {
            let v = metric.read(cell);
            println!(
                "[{}] {}: {:.2} (band [{}, {}])",
                claim.figure,
                metric.label(),
                v,
                claim.lo,
                claim.hi
            );
        }
    }

    // --- One dock round in detail. ---
    let scenario = Scenario::dock_five_devices(42);
    let mut session = Session::new(scenario.config().clone()).expect("valid configuration");
    let outcome = session
        .run(scenario.network())
        .expect("localization round succeeds");

    println!("\nOne round on {} in detail:", scenario.name());
    println!(
        "protocol round: {:.2} s acoustic + {:.2} s report = {:.2} s total\n",
        outcome.latency.acoustic_s,
        outcome.latency.report_s,
        outcome.latency.total_s()
    );

    let truth = scenario
        .network()
        .positions_at(outcome.latency.acoustic_s / 2.0);
    let leader_truth = truth[0];
    println!(
        "{:<8} {:>22} {:>22} {:>10}",
        "device", "estimated (x, y, z) m", "ground truth (m)", "2D error"
    );
    for (id, estimate) in outcome.positions.iter().enumerate() {
        let t = truth[id];
        let rel = Point3::new(t.x - leader_truth.x, t.y - leader_truth.y, t.z);
        let err = if id == 0 {
            0.0
        } else {
            outcome.errors_2d[id - 1]
        };
        println!(
            "{:<8} ({:>6.2}, {:>6.2}, {:>5.2}) ({:>6.2}, {:>6.2}, {:>5.2}) {:>8.2} m",
            if id == 0 {
                "leader".to_string()
            } else {
                format!("diver {id}")
            },
            estimate.x,
            estimate.y,
            estimate.z,
            rel.x,
            rel.y,
            rel.z,
            err
        );
    }
    println!(
        "\nmeasured pairwise links: {}, flipping correct: {}",
        outcome.distances.link_count(),
        outcome.flipping_correct
    );
    println!("full grid + reproduction guide: ./scripts/eval_matrix.sh (see docs/EVALUATION.md)");
}
