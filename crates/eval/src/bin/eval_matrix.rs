//! Runs the scenario-matrix evaluation suite and emits its artifacts.
//!
//! ```text
//! cargo run --release -p uw-eval --bin eval_matrix -- \
//!     [--smoke] [--out BENCH_eval_matrix.json] \
//!     [--guide docs/EVALUATION.md] [--check]
//! ```
//!
//! * `--smoke`  — run only the tier-1 smoke slice instead of the full suite
//!   and no probes.
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
    out: Option<String>,
    guide: Option<String>,
    check: bool,
}

/// Parses the arguments after the program name. A path may not look like
/// a flag, so `--out --check` is an error rather than a report written to
/// a file named `--check` with no band checked.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        out: None,
        guide: None,
        check: false,
    };
    while let Some(arg) = it.next() {
        let mut path = |name: &str| match it.next() {
            Some(v) if !v.starts_with('-') => Ok(v),
            _ => Err(format!("{name} needs a path")),
        };
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--out" => args.out = Some(path("--out")?),
            "--guide" => args.guide = Some(path("--guide")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eval_matrix: {e}");
            return ExitCode::from(2);
        }
    };

    let matrices = if args.smoke {
        vec![ScenarioMatrix::smoke(), ScenarioMatrix::latency_sweep()]
    } else {
        ScenarioMatrix::full_suite()
    };
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

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn parse(args: &[&str]) -> Result<super::Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn a_flag_is_never_taken_as_a_path() {
        assert_eq!(
            parse(&["--out", "--check"]).err().unwrap(),
            "--out needs a path"
        );
        assert_eq!(
            parse(&["--guide", "--check"]).err().unwrap(),
            "--guide needs a path"
        );
        assert!(parse(&["--rounds", "3"]).is_err());
        let args = parse(&["--out", "report.json", "--check"]).unwrap();
        assert_eq!(args.out.as_deref(), Some("report.json"));
        assert!(args.check);
    }
}
