//! Fleet-scale soak harness: hundreds of dive-group cells under scripted
//! fault schedules, invariant-checked after every round.
//!
//! ```text
//! uw_soak [--fleets N] [--seed N] [--out PATH] [--no-recheck]
//!         [--sabotage nan] [--cell 'env:n:rounds:seed:<schedule>']
//! ```
//!
//! The default mode generates `--fleets` fleets from `--seed` (see
//! `uw_eval::soak::SoakPlan::generate`), runs every cell, re-runs it to
//! confirm bitwise reproducibility, and writes a `BENCH_soak.json`
//! artifact when `--out` is given. Exit status is non-zero if any
//! invariant is violated; every violation prints a one-line repro
//! command. `--cell` replays exactly one cell (the repro mode those
//! commands use).

use std::process::ExitCode;

use uw_eval::soak::{run_cell, run_plan, Sabotage, SoakCell, SoakPlan};

struct Args {
    fleets: usize,
    seed: u64,
    out: Option<String>,
    recheck: bool,
    sabotage: Sabotage,
    cell: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        fleets: 200,
        seed: 1,
        out: None,
        recheck: true,
        sabotage: Sabotage::None,
        cell: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--fleets" => {
                args.fleets = value("--fleets")?
                    .parse()
                    .map_err(|e| format!("--fleets: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => args.out = Some(value("--out")?),
            "--no-recheck" => args.recheck = false,
            "--sabotage" => {
                args.sabotage =
                    Sabotage::parse(&value("--sabotage")?).map_err(|e| e.to_string())?;
            }
            "--cell" => args.cell = Some(value("--cell")?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Replays one cell verbosely (the mode a violation's repro line uses).
fn run_single(spec: &str, sabotage: Sabotage) -> Result<bool, String> {
    let cell = SoakCell::parse(spec).map_err(|e| e.to_string())?;
    println!("cell       {}", cell.spec());
    println!(
        "scenario   {} × {} devices, {} rounds, seed {}",
        cell.environment.slug(),
        cell.n_devices,
        cell.rounds,
        cell.seed
    );
    match &cell.faults {
        Some(f) => println!("faults     {}", f.to_spec()),
        None => println!("faults     (none — control cell)"),
    }
    let result = run_cell(&cell, sabotage).map_err(|e| e.to_string())?;
    let recheck = run_cell(&cell, sabotage).map_err(|e| e.to_string())?;
    println!(
        "rounds     {} ok, {} failed gracefully",
        result.rounds_ok, result.rounds_failed
    );
    println!("median 2D  {:.2} m", result.median_error_2d_m);
    println!(
        "digest     {:016x} (re-run {})",
        result.digest,
        if recheck.digest == result.digest {
            "matches"
        } else {
            "DIFFERS"
        }
    );
    for v in &result.violations {
        println!("VIOLATION  round {}: {}", v.round, v.detail);
    }
    if result.violations.is_empty() && recheck.digest == result.digest {
        println!("ok — no invariant violations");
        Ok(true)
    } else {
        Ok(false)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("uw_soak: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(spec) = &args.cell {
        return match run_single(spec, args.sabotage) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("uw_soak: {e}");
                ExitCode::FAILURE
            }
        };
    }

    println!("=== uw_soak — fleet-scale fault soak ===");
    println!(
        "Scripted packet loss, churn, clock skew, leader failover and \
         cross-network interference; invariants checked after every round\n"
    );
    let plan = SoakPlan::generate(args.seed, args.fleets);
    println!(
        "plan: {} fleets → {} cells (master seed {}), recheck {}",
        plan.fleets,
        plan.cells.len(),
        plan.master_seed,
        if args.recheck { "on" } else { "off" },
    );
    let report = match run_plan(&plan, args.sabotage, args.recheck) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("uw_soak: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "cells: {} run ({} control), rounds: {} ok / {} failed gracefully",
        report.cells_run, report.control_cells, report.rounds_ok, report.rounds_failed
    );
    let fault_summary = report
        .fault_rounds
        .iter()
        .map(|(label, count)| format!("{label}={count}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("fault-rounds injected: {fault_summary}");
    println!(
        "reproducible: {}, invariant violations: {}",
        report.reproducible,
        report.violations.len()
    );
    for v in &report.violations {
        println!();
        println!("VIOLATION in {} (round {}):", v.cell_spec, v.round);
        println!("  {}", v.detail);
        println!("  repro: {}", v.repro);
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("uw_soak: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("report written to {path}");
    }
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
