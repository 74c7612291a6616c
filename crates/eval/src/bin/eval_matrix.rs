//! Runs the scenario-matrix evaluation suite and emits its artifacts.
//!
//! ```text
//! cargo run --release -p uw-eval --bin eval_matrix -- \
//!     [--smoke] [--rounds N] [--out BENCH_eval_matrix.json] \
//!     [--guide docs/EVALUATION.md] [--check]
//! ```
//!
//! * `--smoke`  — run only the tier-1 smoke slice instead of the full suite
//!   and no probes.
//! * `--rounds N` — override every matrix's default rounds per cell.
//! * `--out PATH` — write the JSON [`uw_eval::EvalReport`].
//! * `--guide PATH` — regenerate the figure-by-figure reproduction guide.
//! * `--check` — exit non-zero if any documented acceptance band is
//!   violated. Every band whose cell or probe was run is checked; with the
//!   full suite, a mapped cell missing from the report and a failed probe
//!   are violations too.
//!
//! The full run also measures every probe row of
//! [`uw_eval::guide::FIGURE_MAP`] (the waveform-level figures, see
//! [`uw_eval::probes`]) and prints its value after the cell rows.

use std::process::ExitCode;
use uw_eval::guide::{check_bands, generate_guide, run_probes};
use uw_eval::runner::run_suite;
use uw_eval::ScenarioMatrix;

struct Args {
    smoke: bool,
    rounds: Option<usize>,
    out: Option<String>,
    guide: Option<String>,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        rounds: None,
        out: None,
        guide: None,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--rounds" => {
                let v = it.next().ok_or("--rounds needs a value")?;
                args.rounds = Some(v.parse().map_err(|_| format!("bad --rounds value {v}"))?);
            }
            "--out" => args.out = Some(it.next().ok_or("--out needs a path")?),
            "--guide" => args.guide = Some(it.next().ok_or("--guide needs a path")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eval_matrix: {e}");
            return ExitCode::from(2);
        }
    };

    let mut matrices = if args.smoke {
        vec![ScenarioMatrix::smoke(), ScenarioMatrix::latency_sweep()]
    } else {
        ScenarioMatrix::full_suite()
    };
    if let Some(rounds) = args.rounds {
        for m in &mut matrices {
            m.rounds_per_cell = rounds;
        }
    }
    let n_cells: usize = matrices.iter().map(|m| m.cell_count()).sum();
    println!(
        "running {} matrices ({n_cells} cells before dedup){}",
        matrices.len(),
        if args.smoke { " [smoke slice]" } else { "" }
    );

    let report = match run_suite(&matrices) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("eval_matrix: suite failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for cell in &report.cells {
        println!("{}", cell.row());
    }
    println!("{} cells evaluated", report.cells.len());
    let probes = if args.smoke { Vec::new() } else { run_probes() };
    for (name, value) in &probes {
        match value {
            Ok(v) => println!("probe {name:<40} {v:>9.3}"),
            Err(e) => println!("probe {name:<40} failed: {e}"),
        }
    }

    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("eval_matrix: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(path) = &args.guide {
        if let Err(e) = std::fs::write(path, generate_guide(&report, &probes)) {
            eprintln!("eval_matrix: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if args.check {
        // The full run must measure every row; the smoke slice checks
        // only the bands whose cells it ran.
        let violations = check_bands(&report, &probes, !args.smoke);
        if !violations.is_empty() {
            eprintln!("{} acceptance band(s) violated:", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            return ExitCode::FAILURE;
        }
        println!("all documented acceptance bands hold");
    }
    ExitCode::SUCCESS
}
