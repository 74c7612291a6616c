//! End-to-end and per-layer benchmark of the uwgps workspace.
//!
//! ```text
//! python3 perfbench/run.py --workload <field-rounds|serve-tcp> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.py` builds this package and runs the binary from the repository
//! root. A run starts helper processes of the same binary: one renders the
//! seed's inputs to disk (`--role inputs`), then [`SETUP_PROBES`] fresh
//! processes each time one cold set-up on them (`--role setup`); the
//! measured run then loads the inputs and times the workload. With
//! `--trace 0` the last line of standard output is one JSON object
//! carrying every end-to-end metric; with `--trace 1` the workload runs
//! twice — untraced, then with the span recorder on — and the JSON carries
//! every per-layer metric. Every workload checks its outputs; a failed
//! check makes the run exit non-zero. See `perfbench/README.md`.

mod calib;
mod field;
mod layers;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;
use trace::Tracer;

/// Workload names, as listed in `BENCHMARK.json`.
const WORKLOADS: [&str; 2] = ["field-rounds", "serve-tcp"];

/// Cold set-ups per run, each in a fresh process; `setup_s` is the median.
const SETUP_PROBES: usize = 5;
/// Reference slices a set-up probe times once its set-up is done.
const PROBE_SLICES: usize = 5;

/// Digests of the fixed warm-up slice of each workload, one
/// `<workload> <hex>` line each.
const PINNED_DIGESTS: &str = include_str!("../digests.txt");

/// Reported metrics: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

/// One cold set-up, timed in a fresh process.
#[derive(Debug, Clone, Copy)]
pub struct SetupProbe {
    /// Wall time of the set-up (s).
    pub setup_s: f64,
    /// Median reference slice timed right after it (ms).
    pub slice_ms: f64,
    /// Stolen share of the busy CPU time during the set-up.
    pub steal_share: f64,
}

impl SetupProbe {
    /// The set-up time at reference speed.
    fn scaled_s(&self) -> f64 {
        self.setup_s * (1.0 - self.steal_share) * calib::REFERENCE_MS / self.slice_ms
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Cold set-ups timed in fresh processes (untraced runs only).
    pub setup_probes: Vec<SetupProbe>,
    /// Wall time of the measured process's own set-up, after it loaded its
    /// inputs (s); printed, not reported.
    pub own_setup_s: f64,
    /// Latency of every timed operation (ms).
    pub latencies_ms: Vec<f64>,
    /// Timed wall time (s).
    pub timed_wall_s: f64,
    /// Operations completed in the timed window.
    pub completed: usize,
    /// Seconds of capture ingested per second of ingest (`field-rounds`),
    /// or simulated dive seconds per second of server execution
    /// (`serve-tcp`).
    pub x_realtime: f64,
    /// The measured process's high-water resident memory at the end of the
    /// timed loop (MiB).
    pub peak_rss_mib: f64,
    /// Per-round (or per-job) median 2D errors over the first pass of the
    /// seed's inputs (m).
    pub errors_m: Vec<f64>,
    /// Operations attempted, including failed ones.
    pub attempted: usize,
    /// Operations that failed.
    pub failed: usize,
    /// Correctness-gate failures, one line each.
    pub problems: Vec<String>,
    /// Digest of the timed loop's reports in operation order (`serve-tcp`
    /// folds the digest of each job's `Finalized` frame).
    pub digest: String,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<String, f64>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
    /// Whether the workload is a closed loop: compute on one thread, so
    /// its timings share one factor (steal and the reference slice) and
    /// its throughput moves with the machine's speed. An open loop's
    /// timings are scaled job by job, and its throughput is the offered
    /// load.
    pub closed_loop: bool,
    /// Reference-load slices timed in a closed loop, while no operation
    /// was in flight, and the steal over the timed part (printed, not
    /// applied, for an open loop).
    pub calibration: calib::Calibration,
    /// An open loop's factor to reference speed for each operation,
    /// parallel to `latencies_ms`, from the reference slices timed in the
    /// idle gaps nearest its due time (`calib::GapSlices`). Empty in a
    /// closed loop, whose timings share one factor.
    pub latency_factors: Vec<f64>,
    /// An open loop's factor to reference speed for `x_realtime`: its
    /// operations' factors weighted by their execution time.
    pub x_realtime_factor: f64,
}

impl Outcome {
    /// Checks a warm-up slice's digest against the pinned value.
    pub fn gate(&mut self, workload: &str, digest: &stats::Digest) {
        let pinned = PINNED_DIGESTS
            .lines()
            .filter_map(|l| l.split_once(' '))
            .find(|(w, _)| *w == workload)
            .map(|(_, d)| d.trim());
        if pinned != Some(digest.hex().as_str()) {
            self.problems.push(format!(
                "{workload}: warm-up digest {} does not match pinned {}",
                digest.hex(),
                pinned.unwrap_or("<none>")
            ));
        }
    }

    /// The end-to-end metrics: at reference speed (each timing corrected
    /// by what was measured in the same process and part of the run; an
    /// open loop's latency operation by operation), or as measured on the
    /// wall clock.
    fn end_to_end(&self, at_reference: bool) -> Vec<(&'static str, f64, &'static str)> {
        let f = match (at_reference, self.closed_loop) {
            (false, _) => 1.0,
            (true, true) => self.calibration.factor(),
            (true, false) => self.x_realtime_factor,
        };
        let lat: Vec<f64> = if at_reference && !self.closed_loop {
            self.latencies_ms
                .iter()
                .zip(&self.latency_factors)
                .map(|(l, k)| l * k)
                .collect()
        } else {
            self.latencies_ms.iter().map(|l| l * f).collect()
        };
        let setup: Vec<f64> = self
            .setup_probes
            .iter()
            .map(|p| {
                if at_reference {
                    p.scaled_s()
                } else {
                    p.setup_s
                }
            })
            .collect();
        let lat = stats::sorted(&lat);
        let throughput = self.completed as f64 / self.timed_wall_s;
        vec![
            ("setup_s", stats::median(&setup), "s"),
            (
                "latency_ms_p50",
                stats::percentile(&lat, 50.0).unwrap_or(f64::NAN),
                "ms",
            ),
            (
                "throughput_per_s",
                if self.closed_loop {
                    throughput / f
                } else {
                    throughput
                },
                "1/s",
            ),
            ("x_realtime", self.x_realtime / f, "x"),
            ("peak_rss_mib", self.peak_rss_mib, "MiB"),
        ]
    }
}

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// `run` (the measured run), `inputs` (render the inputs to disk) or
    /// `setup` (one cold set-up on inputs already on disk).
    pub role: String,
    /// Directory for the rendered inputs and the traced run's spans.
    pub work_dir: PathBuf,
}

impl Args {
    /// Where this seed's inputs are rendered.
    fn inputs_dir(&self) -> PathBuf {
        self.work_dir
            .join(format!("inputs-{}-{}", self.workload, self.seed))
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        role: "run".into(),
        work_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?
            }
            "--trace" => args.trace = value == "1",
            "--role" => args.role = value,
            "--work-dir" => args.work_dir = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !["run", "inputs", "setup"].contains(&args.role.as_str()) {
        return Err("--role must be run, inputs or setup".into());
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run_workload(args: &Args, seconds: f64, tracer: Option<&mut Tracer>) -> Outcome {
    let window = Duration::from_secs_f64(seconds);
    match args.workload.as_str() {
        "field-rounds" => field::run(&args.inputs_dir(), window, tracer),
        _ => serve::run(args.seed, window, tracer),
    }
}

/// Process high-water resident memory, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs this binary in `role` for the same workload and seed, waits for it
/// and returns its standard output.
fn run_role(args: &Args, role: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--role", role, "--work-dir"])
        .arg(&args.work_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {role} process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if out.status.success() {
        Ok(stdout)
    } else {
        Err(format!(
            "{role} process failed ({}): {}",
            out.status,
            stdout.trim()
        ))
    }
}

/// Reads a set-up probe's report: `problem <text>` lines, then one
/// `setup <seconds> <slice ms> <steal share>` line.
fn parse_probe(stdout: &str) -> Result<SetupProbe, Vec<String>> {
    let mut problems = Vec::new();
    let mut probe = None;
    for line in stdout.lines() {
        if let Some(p) = line.strip_prefix("problem ") {
            problems.push(p.to_string());
        } else if let Some(rest) = line.strip_prefix("setup ") {
            let v: Vec<f64> = rest
                .split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect();
            if let [setup_s, slice_ms, steal_share] = v[..] {
                probe = Some(SetupProbe {
                    setup_s,
                    slice_ms,
                    steal_share,
                });
            }
        }
    }
    match probe {
        Some(p) if problems.is_empty() => Ok(p),
        None if problems.is_empty() => {
            Err(vec![format!("set-up probe printed no result: {stdout:?}")])
        }
        _ => Err(problems),
    }
}

/// The helper roles: render the inputs, or time one cold set-up.
fn helper(args: &Args) -> i32 {
    if args.role == "inputs" {
        if args.workload != "field-rounds" {
            return 0;
        }
        return match field::make_inputs(args.seed, &args.inputs_dir()) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench: cannot write inputs: {e}");
                1
            }
        };
    }
    let mut cal = calib::Calibration::default();
    let (took, problems) = match args.workload.as_str() {
        "field-rounds" => field::probe_setup(&args.inputs_dir(), &mut cal),
        _ => serve::probe_setup(&mut cal),
    };
    for _ in 0..PROBE_SLICES {
        cal.sample();
    }
    for p in &problems {
        println!("problem {p}");
    }
    println!(
        "setup {} {} {}",
        took.as_secs_f64(),
        cal.median_ms(),
        cal.steal_share
    );
    i32::from(!problems.is_empty())
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.role != "run" {
        std::process::exit(helper(&args));
    }
    // Inputs first, in a process of their own; the measured run and the
    // set-up probes load them from disk.
    if let Err(e) = run_role(&args, "inputs") {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let mut probe_problems = Vec::new();
    let mut probes = Vec::new();
    if !args.trace {
        for _ in 0..SETUP_PROBES {
            match run_role(&args, "setup")
                .map_err(|e| vec![e])
                .and_then(|out| parse_probe(&out))
            {
                Ok(p) => probes.push(p),
                Err(e) => probe_problems.extend(e),
            }
        }
    }
    let (mut outcome, metrics) = measure(&args);
    let _ = std::fs::remove_dir_all(args.inputs_dir());
    outcome.setup_probes = probes;
    outcome.problems.extend(probe_problems);
    let metrics = metrics.unwrap_or_else(|| {
        outcome
            .end_to_end(true)
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect()
    });
    std::process::exit(report(&args, &outcome, metrics));
}

/// The measured run. A traced run also returns its per-layer metrics.
fn measure(args: &Args) -> (Outcome, Option<Metrics>) {
    if !args.trace {
        return (run_workload(args, args.seconds, None), None);
    }
    // Untraced half first, then the traced half on the same inputs: the
    // gap between the two is the tracing overhead.
    let plain = run_workload(args, args.seconds / 2.0, None);
    let mut tracer = Tracer::new();
    let traced = run_workload(args, args.seconds / 2.0, Some(&mut tracer));
    println!("tracing overhead (untraced | traced):");
    for ((name, a, unit), (_, b, _)) in plain.end_to_end(true).iter().zip(traced.end_to_end(true)) {
        if matches!(*name, "latency_ms_p50" | "throughput_per_s" | "x_realtime") {
            println!("  {name:<20} {a:>12.4} | {b:>12.4} {unit}");
        }
    }
    let p50 =
        |o: &Outcome| stats::percentile(&stats::sorted(&o.latencies_ms), 50.0).unwrap_or(f64::NAN);
    let mut layers = traced.layers.clone();
    layers.insert(
        "uw-localization.error_2d_median_m".into(),
        stats::median(&traced.errors_m),
    );
    layers.insert(
        "trace.overhead_pct".into(),
        100.0 * (p50(&traced) / p50(&plain) - 1.0),
    );
    let spans = args
        .work_dir
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&spans) {
        Ok(()) => println!("spans written to {}", spans.display()),
        Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", spans.display()),
    }
    let mut merged = traced;
    merged.attempted += plain.attempted;
    merged.failed += plain.failed;
    merged.problems.extend(plain.problems);
    let metrics = layers
        .into_iter()
        .map(|(name, value)| {
            let unit = layer_unit(&name);
            (name, value, unit)
        })
        .collect();
    (merged, Some(metrics))
}

/// Prints the run's notes, checks and JSON result; returns the exit code.
fn report(args: &Args, outcome: &Outcome, metrics: Metrics) -> i32 {
    println!(
        "workload {} seed {}: {} attempted, {} failed, digest {}",
        args.workload, args.seed, outcome.attempted, outcome.failed, outcome.digest
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    let probe_slices: Vec<f64> = outcome.setup_probes.iter().map(|p| p.slice_ms).collect();
    println!(
        "  set-up: {} cold probes; {:.4} s in the measured process after loading its inputs",
        outcome.setup_probes.len(),
        outcome.own_setup_s
    );
    let probe_steal: Vec<f64> = outcome.setup_probes.iter().map(|p| p.steal_share).collect();
    println!(
        "  steal: {:.4} of busy CPU time in the set-up probes (median), {:.4} in the run",
        stats::median(&probe_steal),
        outcome.calibration.steal_share
    );
    println!(
        "  reference load: median slice {:.4} ms after the set-up probes, {:.4} ms in the run, \
         against {} ms; wall-clock values:",
        stats::median(&probe_slices),
        outcome.calibration.median_ms(),
        calib::REFERENCE_MS,
    );
    for (name, value, unit) in outcome.end_to_end(false) {
        println!("    {name:<20} {value:>14.6} {unit}");
    }
    let lat = stats::sorted(&outcome.latencies_ms);
    let q = |p: f64| stats::percentile(&lat, p).unwrap_or(f64::NAN);
    println!(
        "  latency over {} operations: p10 {:.3} p50 {:.3} p90 {:.3} max {:.3} ms; p95 {}",
        lat.len(),
        q(10.0),
        q(50.0),
        q(90.0),
        q(100.0),
        stats::tail_percentile(&lat, 95.0, stats::MIN_TAIL_SAMPLES)
            .map_or("n/a (under 10 samples beyond)".to_string(), |v| format!(
                "{v:.3} ms"
            ))
    );
    println!(
        "  error_2d_median_m {} (first pass over the seed's inputs)",
        stats::median(&outcome.errors_m)
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<40} {value:>14.6} {unit}");
    }
    // Every failed check counts as one failed operation.
    let mut problems = outcome.problems.clone();
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            problems.push(format!("metric {name} is not a finite number"));
        }
    }
    let failed = outcome.failed + problems.len();
    let attempted = outcome.attempted.max(failed).max(1);
    problems.sort();
    problems.dedup();
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    println!("  failed_ratio {}", failed as f64 / attempted as f64);
    let correct = failed == 0;
    let clean: Vec<(String, f64, &str)> = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&clean)
    );
    i32::from(!correct)
}

/// Unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("msamples_per_s") {
        "Msamples/s"
    } else if name.ends_with("_us") {
        "us"
    } else if name.contains("_ms") {
        "ms"
    } else if name.ends_with("_m") {
        "m"
    } else if name.ends_with("_ppm_max") {
        "ppm"
    } else if name.ends_with("bytes_per_job") {
        "bytes"
    } else if name.ends_with("_ratio") {
        "ratio"
    } else {
        "count"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_probe_report_parses_and_its_problems_fail_it() {
        let p = parse_probe("setup 0.5 2.0 0.25\n").expect("clean probe");
        assert_eq!((p.setup_s, p.slice_ms, p.steal_share), (0.5, 2.0, 0.25));
        assert_eq!(p.scaled_s(), 0.5 * 0.75 * calib::REFERENCE_MS / 2.0);
        assert_eq!(
            parse_probe("problem digest differs\nsetup 0.5 2.0 0\n").unwrap_err(),
            vec!["digest differs".to_string()]
        );
        assert_eq!(parse_probe("").unwrap_err().len(), 1);
        assert_eq!(parse_probe("setup 0.5 2.0\n").unwrap_err().len(), 1);
    }
}
