//! `serve-tcp`: an open-loop client against the TCP front end.
//!
//! One client holds one loopback connection to a `TcpServer` in default
//! configuration: a sender thread submits statistical clear-link jobs
//! (12 rounds, 4 devices, six sites) for 16 tenants, alternating Live and
//! Replay priority, at a fixed 100 jobs/s; a receiver thread timestamps
//! every frame. Each job is timed from its due time to its `Finalized`
//! frame, so a stall also delays the jobs queued behind it. Execution is
//! light, so admission, fair-queue dispatch, work stealing, the wire codec
//! and the connection writer are a visible share of latency.
//!
//! In the idle gaps of the loop, once every job sent so far has reached
//! its terminal frame, the sender times one part of the reference slice
//! if it fits before the next job is due; each job's timings are scaled by
//! the slices nearest its due time (see `calib.rs`).

use crate::calib::{Calibration, GapSlices};
use crate::layers::{self, RoundProbe};
use crate::stats::{self, Digest, Schedule};
use crate::trace::Tracer;
use crate::Outcome;
use std::collections::BTreeMap;
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};
use uw_core::config::{Fidelity, NumericPath};
use uw_core::prelude::EnvironmentKind;
use uw_eval::runner::{run_cell, CellExecution};
use uw_eval::{CellReport, EvalReport, LinkProfile, MobilityProfile, ScenarioMatrix, Topology};
use uw_serve::tcp::{ClientReceiver, ClientSender};
use uw_serve::wire::{decode_frame, encode_frame};
use uw_serve::{JobSpec, Priority, ShardStats, TcpClient, TcpConfig, TcpServer, WireMessage};

/// Offered load, jobs per second (well below saturation on two cores).
const RATE_PER_S: u64 = 100;
/// Tenants the jobs bill to, round robin.
const TENANTS: u64 = 16;
/// Distinct specs per site in the seed's pool.
const SEEDS_PER_SITE: u64 = 64;
/// Rounds per job.
const ROUNDS: usize = 12;
/// Seed and per-site seed count of the fixed warm-up slice.
const GATE_SEED: u64 = 0x5eed;
const GATE_SEEDS: u64 = 8;
/// The generator has fallen behind its schedule when its median lateness
/// exceeds a tenth of the inter-arrival period, or its p99 five periods.
const LATE_P50_LIMIT_MS: f64 = 1.0;
const LATE_P99_LIMIT_MS: f64 = 50.0;
/// How long to wait for the last job's terminal frame.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Samples of each reference-slice part timed back to back before and
/// after the timed loop, while no job is in flight.
const IDLE_SLICES: usize = 5;

fn specs(environments: Vec<EnvironmentKind>, seeds: Vec<u64>) -> Vec<JobSpec> {
    ScenarioMatrix {
        environments,
        topologies: vec![Topology::FourDevice],
        conditions: vec![LinkProfile::Clear],
        mobilities: vec![MobilityProfile::Static],
        numeric_paths: vec![NumericPath::F64],
        faults: vec![None],
        seeds,
        recordings: vec![],
        rounds_per_cell: ROUNDS,
        fidelity: Fidelity::Statistical,
    }
    .expand()
    .expect("serve specs expand")
    .iter()
    .map(|cell| JobSpec::from_cell(cell).expect("simulated cells have wire specs"))
    .collect()
}

fn submit(tag: u64, spec: &JobSpec) -> WireMessage {
    WireMessage::Submit {
        tag,
        tenant: format!("tenant-{}", tag % TENANTS),
        priority: if tag.is_multiple_of(2) {
            Priority::Live
        } else {
            Priority::Replay
        },
        deadline_ms: None,
        spec: spec.clone(),
    }
}

/// The batch runner's report for each spec.
fn batch_reports(specs: &[JobSpec]) -> Vec<CellReport> {
    specs
        .iter()
        .map(|s| run_cell(&s.to_cell().expect("spec expands")).expect("batch cell runs"))
        .collect()
}

fn json(report: &CellReport) -> String {
    EvalReport::new(vec![report.clone()]).to_json()
}

/// A bound server plus a handshaken, split client connection.
struct Connection {
    server: TcpServer,
    sender: ClientSender,
    receiver: ClientReceiver,
}

fn connect() -> Connection {
    let server = TcpServer::bind("127.0.0.1:0", TcpConfig::default()).expect("bind loopback");
    let mut client = TcpClient::connect(server.local_addr()).expect("connect loopback");
    client.hello("perfbench").expect("handshake");
    let (sender, receiver) = client.split();
    Connection {
        server,
        sender,
        receiver,
    }
}

/// Sends `Goodbye`, reads to EOF and stops the server.
fn close(mut conn: Connection) -> Vec<ShardStats> {
    let _ = conn.sender.send(&WireMessage::Goodbye);
    while let Ok(Some(_)) = conn.receiver.recv() {}
    conn.server.shutdown()
}

/// Closed-loop warm-up: one job at a time. Returns the served reports as
/// JSON, in tag order (empty for a job that did not finalize).
fn warm_up(conn: &mut Connection, specs: &[JobSpec], problems: &mut Vec<String>) -> Vec<String> {
    let mut reports = Vec::with_capacity(specs.len());
    for (tag, spec) in (0u64..).zip(specs) {
        conn.sender
            .send(&submit(tag, spec))
            .expect("warm-up submit");
        let report = loop {
            match conn.receiver.recv() {
                Ok(Some(WireMessage::Finalized { tag: t, report })) if t == tag => {
                    break json(&report)
                }
                Ok(Some(WireMessage::Started { .. } | WireMessage::Round { .. })) => {}
                other => {
                    problems.push(format!("warm-up job {tag} ended with {other:?}"));
                    break String::new();
                }
            }
        };
        reports.push(report);
    }
    reports
}

/// The set-up: bind, handshake and the closed-loop warm-up slice. Returns
/// the connection and the warm-up's served reports; their digest must
/// match the pinned one.
fn set_up(gate: &[JobSpec], out: &mut Outcome) -> (Connection, Vec<String>) {
    let mut conn = connect();
    let reports = warm_up(&mut conn, gate, &mut out.problems);
    let mut digest = Digest::default();
    for r in &reports {
        digest.update(r.as_bytes());
    }
    out.gate("serve-tcp", &digest);
    (conn, reports)
}

/// The fixed warm-up specs (independent of `--seed`).
fn gate_specs() -> Vec<JobSpec> {
    specs(
        EnvironmentKind::ALL.to_vec(),
        (0..GATE_SEEDS).map(|s| GATE_SEED + s).collect(),
    )
}

/// One cold set-up in a fresh process: the set-up's wall time and any
/// failed checks. Steal is counted into `cal` over the set-up. The server
/// is stopped before the caller times the reference load.
pub fn probe_setup(cal: &mut Calibration) -> (Duration, Vec<String>) {
    let mut out = Outcome::default();
    let gate = gate_specs();
    cal.start_steal();
    let t = Instant::now();
    let (conn, _) = set_up(&gate, &mut out);
    let took = t.elapsed();
    cal.end_steal();
    close(conn);
    (took, out.problems)
}

/// What the client keeps of a finalized job: a digest of its frame rather
/// than the report, so the client's memory stays flat however long the
/// run and the process's high-water mark is set by the server.
struct Finished {
    /// When the `Finalized` frame arrived.
    at: Instant,
    /// Digest of the `Finalized` frame's wire encoding, which carries every
    /// f64 as its raw bits: equal digests mean bit-identical reports.
    frame: Digest,
    /// Simulated dive seconds the job covered.
    dive_s: f64,
    /// The report's median 2D error (m).
    error_m: f64,
}

/// Digest of the wire encoding of `report` finalized under `tag`.
fn frame_digest(tag: u64, report: &CellReport) -> Digest {
    let mut d = Digest::default();
    d.update(&encode_frame(&WireMessage::Finalized {
        tag,
        report: report.clone(),
    }));
    d
}

/// What the receiver thread saw, per tag.
#[derive(Default)]
struct Received {
    started: BTreeMap<u64, Instant>,
    finalized: BTreeMap<u64, Finished>,
    failed: BTreeMap<u64, String>,
    /// Every frame, kept for the traced run's codec re-timing.
    frames: Vec<WireMessage>,
}

/// How many jobs have reached a terminal frame: set by the receiver,
/// waited on by the sender for an idle gap.
#[derive(Default)]
struct Terminal {
    count: Mutex<usize>,
    changed: Condvar,
}

impl Terminal {
    fn set(&self, count: usize) {
        *self.count.lock().expect("terminal count") = count;
        self.changed.notify_all();
    }

    /// Waits until `count` jobs are terminal or `until` passes; returns
    /// whether they are.
    fn wait_for(&self, count: usize, until: Instant) -> bool {
        let guard = self.count.lock().expect("terminal count");
        let timeout = until.saturating_duration_since(Instant::now());
        let (guard, _) = self
            .changed
            .wait_timeout_while(guard, timeout, |done| *done < count)
            .expect("terminal count");
        *guard >= count
    }
}

/// Reads frames until `jobs` jobs have reached a terminal frame.
fn receive(
    receiver: &mut ClientReceiver,
    jobs: usize,
    keep_frames: bool,
    terminal: &Terminal,
) -> Received {
    let mut got = Received::default();
    while got.finalized.len() + got.failed.len() < jobs {
        let msg = match receiver.recv() {
            Ok(Some(msg)) => msg,
            Ok(None) | Err(_) => break,
        };
        let now = Instant::now();
        match &msg {
            WireMessage::Started { tag, .. } => {
                got.started.insert(*tag, now);
            }
            WireMessage::Finalized { tag, report } => {
                let mut frame = Digest::default();
                frame.update(&encode_frame(&msg));
                got.finalized.insert(
                    *tag,
                    Finished {
                        at: now,
                        frame,
                        dive_s: report.latency_total_s * report.rounds_completed as f64,
                        error_m: report.error_2d.median,
                    },
                );
            }
            WireMessage::Round { .. } => {}
            other => {
                let tag = match other {
                    WireMessage::Failed { tag, .. }
                    | WireMessage::Rejected { tag, .. }
                    | WireMessage::Cancelled { tag, .. } => *tag,
                    _ => u64::MAX,
                };
                got.failed.insert(tag, format!("{other:?}"));
            }
        }
        if matches!(
            msg,
            WireMessage::Finalized { .. }
                | WireMessage::Failed { .. }
                | WireMessage::Rejected { .. }
                | WireMessage::Cancelled { .. }
        ) {
            terminal.set(got.finalized.len() + got.failed.len());
        }
        if keep_frames {
            got.frames.push(msg);
        }
    }
    got
}

/// What the sender thread did.
struct Sent {
    /// Due instant of every job sent, by tag.
    due: Vec<Instant>,
    /// Send instant of every job sent, by tag.
    sent_at: Vec<Instant>,
    /// How late each job went out against its due time (ms).
    late_ms: Vec<f64>,
}

/// Sends `jobs` jobs on `schedule`, timing a reference-slice part in each
/// idle gap it fits; stops early if the connection breaks.
fn send(
    sender: &mut ClientSender,
    pool: &[JobSpec],
    jobs: u64,
    schedule: &Schedule,
    terminal: &Terminal,
    slices: &mut GapSlices,
) -> Sent {
    let mut out = Sent {
        due: Vec::with_capacity(jobs as usize),
        sent_at: Vec::with_capacity(jobs as usize),
        late_ms: Vec::with_capacity(jobs as usize),
    };
    for tag in 0..jobs {
        let due = schedule.due(tag);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        out.late_ms
            .push(schedule.lateness(tag, sent).as_secs_f64() * 1e3);
        out.due.push(due);
        out.sent_at.push(sent);
        if sender
            .send(&submit(tag, &pool[tag as usize % pool.len()]))
            .is_err()
        {
            break;
        }
        let next = schedule.due(tag + 1);
        if let Some(until) = next.checked_sub(slices.shortest_need()) {
            if terminal.wait_for(tag as usize + 1, until) {
                slices.sample_in_gap(next);
            }
        }
    }
    out
}

pub fn run(seed: u64, window: Duration, tracer: Option<&mut Tracer>) -> Outcome {
    let mut outcome = Outcome::default();
    let base = seed.wrapping_mul(SEEDS_PER_SITE);
    let pool = specs(
        EnvironmentKind::ALL.to_vec(),
        (1..=SEEDS_PER_SITE).map(|s| base.wrapping_add(s)).collect(),
    );
    let gate = gate_specs();

    // Set-up (its cold time is measured in separate processes); the same
    // connection carries the timed run.
    let t = Instant::now();
    let (conn, gate_served) = set_up(&gate, &mut outcome);
    outcome.own_setup_s = t.elapsed().as_secs_f64();
    let Connection {
        server,
        mut sender,
        mut receiver,
    } = conn;

    // Timed open loop, between idle slices.
    let keep_frames = tracer.is_some();
    let mut slices = GapSlices::default();
    slices.sample_idle(IDLE_SLICES);
    let terminal = Terminal::default();
    outcome.calibration.start_steal();
    let start = Instant::now();
    let schedule = Schedule::new(start, RATE_PER_S);
    let jobs = schedule.count_within(window);
    let (done_tx, done_rx) = mpsc::channel();
    let (received, sent, shard_stats) = std::thread::scope(|scope| {
        let terminal = &terminal;
        let rx_thread = scope.spawn(move || {
            let got = receive(&mut receiver, jobs as usize, keep_frames, terminal);
            let _ = done_tx.send(());
            (got, receiver)
        });
        let sent = send(&mut sender, &pool, jobs, &schedule, terminal, &mut slices);
        // A job that never reaches a terminal frame must not hang the run:
        // past the drain timeout the server is stopped, which ends the
        // receiver's stream.
        match done_rx.recv_timeout(DRAIN_TIMEOUT) {
            Ok(()) => {
                let (got, receiver) = rx_thread.join().expect("receiver thread");
                let stats = close(Connection {
                    server,
                    sender,
                    receiver,
                });
                (got, sent, stats)
            }
            Err(_) => {
                let stats = server.shutdown();
                (rx_thread.join().expect("receiver thread").0, sent, stats)
            }
        }
    });
    outcome.calibration.end_steal();
    outcome.peak_rss_mib = crate::peak_rss_mib();
    slices.sample_idle(IDLE_SLICES);

    // Accounting: latency from due time to the Finalized frame; execution
    // from the Started frame to the Finalized frame. Each job is scaled by
    // the slices nearest its due time.
    let mut dive_s = 0.0;
    let mut exec_s = 0.0;
    let mut exec_at_reference_s = 0.0;
    let mut digest = Digest::default();
    let mut served: Vec<(u64, Digest)> = Vec::new();
    for (i, due) in (0u64..).zip(&sent.due) {
        match received.finalized.get(&i) {
            Some(done) => {
                let factor = slices.factor_at(*due);
                outcome
                    .latencies_ms
                    .push((done.at - *due).as_secs_f64() * 1e3);
                outcome.latency_factors.push(factor);
                if let Some(started) = received.started.get(&i) {
                    let exec_s_job = (done.at - *started).as_secs_f64();
                    dive_s += done.dive_s;
                    exec_s += exec_s_job;
                    exec_at_reference_s += exec_s_job * factor;
                }
                if (i as usize) < pool.len() {
                    outcome.errors_m.push(done.error_m);
                }
                digest.update(done.frame.hex().as_bytes());
                served.push((i, done.frame));
            }
            None => outcome.failed += 1,
        }
    }
    outcome.attempted = jobs as usize;
    outcome.failed += (jobs as usize).saturating_sub(sent.due.len());
    outcome.completed = served.len();
    outcome.timed_wall_s = received
        .finalized
        .values()
        .map(|done| done.at)
        .max()
        .map_or(0.0, |last| (last - start).as_secs_f64());
    outcome.x_realtime = dive_s / exec_s;
    outcome.x_realtime_factor = exec_at_reference_s / exec_s;
    let [arithmetic, decode] = slices.counts();
    let factors = stats::sorted(&outcome.latency_factors);
    let q = |p: f64| stats::percentile(&factors, p).unwrap_or(f64::NAN);
    outcome.notes.push(format!(
        "reference slice in idle gaps: {arithmetic} arithmetic and {decode} decode parts \
         ({IDLE_SLICES} of each before and after the loop); job factor p10 {:.4} p50 {:.4} p90 {:.4}",
        q(10.0),
        q(50.0),
        q(90.0),
    ));
    outcome.digest = digest.hex();
    for (tag, why) in received.failed.iter().take(3) {
        outcome.notes.push(format!("job {tag} failed: {why}"));
    }

    // The served reports, warm-up and timed, must equal the batch
    // runner's for the same specs, in tag order.
    let gate_expected: Vec<String> = batch_reports(&gate).iter().map(json).collect();
    if gate_served != gate_expected {
        outcome
            .problems
            .push("warm-up: served reports differ from the batch runner".into());
    }
    let used = pool.len().min(jobs as usize);
    let expected = batch_reports(&pool[..used]);
    let mismatches = served
        .iter()
        .filter(|(tag, d)| *d != frame_digest(*tag, &expected[*tag as usize % pool.len()]))
        .count();
    if mismatches > 0 {
        outcome.problems.push(format!(
            "{mismatches} served reports differ from the batch runner"
        ));
    }

    // Open-loop validity: a generator that fell behind its schedule did not
    // offer the stated load, so the run is not reported.
    let late_sorted = stats::sorted(&sent.late_ms);
    let late_p50 = stats::percentile(&late_sorted, 50.0).unwrap_or(0.0);
    let late_p99 = stats::percentile(&late_sorted, 99.0).unwrap_or(0.0);
    if late_p50 > LATE_P50_LIMIT_MS || late_p99 > LATE_P99_LIMIT_MS {
        outcome.problems.push(format!(
            "load generator fell behind its schedule: lateness p50 {late_p50:.3} ms, \
             p99 {late_p99:.3} ms (limits {LATE_P50_LIMIT_MS}, {LATE_P99_LIMIT_MS} ms)"
        ));
    }
    outcome.notes.push(format!(
        "{jobs} jobs offered at {RATE_PER_S}/s; generator lateness \
         p50 {late_p50:.4} ms, p99 {late_p99:.4} ms, max {:.4} ms",
        late_sorted.last().copied().unwrap_or(0.0)
    ));

    if let Some(tracer) = tracer {
        outcome.layers = layer_metrics(tracer, &pool[..used], &received, &sent, &shard_stats);
        outcome
            .layers
            .insert("loadgen.late_ms_p99".into(), late_p99);
    }
    outcome
}

/// The per-layer table of a traced `serve-tcp` run: client-side
/// timestamps split each job into queue wait and execution, the wire
/// codec is re-timed on the frames the client saw, and the same specs are
/// re-run in process through the batch runner and the round probe.
fn layer_metrics(
    tracer: &mut Tracer,
    specs: &[JobSpec],
    received: &Received,
    sent: &Sent,
    shard_stats: &[ShardStats],
) -> BTreeMap<String, f64> {
    let mut m = layers::zero_table();
    let mut queue = Vec::new();
    let mut exec = Vec::new();
    let (mut live, mut replay) = (Vec::new(), Vec::new());
    for (i, (sent_at, due)) in (0u64..).zip(sent.sent_at.iter().zip(&sent.due)) {
        let (Some(started), Some(Finished { at: done, .. })) =
            (received.started.get(&i), received.finalized.get(&i))
        else {
            continue;
        };
        queue.push((*started - *sent_at).as_secs_f64() * 1e3);
        exec.push((*done - *started).as_secs_f64() * 1e3);
        let latency = (*done - *due).as_secs_f64() * 1e3;
        if i.is_multiple_of(2) {
            live.push(latency);
        } else {
            replay.push(latency);
        }
    }
    let p = |v: &[f64], q: f64| stats::percentile(&stats::sorted(v), q).unwrap_or(0.0);
    m.insert("uw-serve.queue_wait_ms_p50".into(), p(&queue, 50.0));
    m.insert(
        "uw-serve.queue_wait_ms_p95".into(),
        stats::tail_percentile(&stats::sorted(&queue), 95.0, stats::MIN_TAIL_SAMPLES)
            .unwrap_or(0.0),
    );
    m.insert("uw-serve.exec_ms_p50".into(), p(&exec, 50.0));
    m.insert("uw-serve.live_latency_ms_p50".into(), p(&live, 50.0));
    m.insert("uw-serve.replay_latency_ms_p50".into(), p(&replay, 50.0));

    // Wire codec on the frames this connection carried, plus the submits.
    let submits: Vec<WireMessage> = (0u64..)
        .zip(&sent.sent_at)
        .map(|(i, _)| submit(i, &specs[i as usize % specs.len()]))
        .collect();
    let frames: Vec<&WireMessage> = submits.iter().chain(&received.frames).collect();
    let mut bytes = 0usize;
    for msg in &frames {
        let (frame, _) = tracer.time("uw-serve.wire.encode", None, || encode_frame(msg));
        bytes += frame.len();
        let _ = tracer.time("uw-serve.wire.decode", None, || decode_frame(&frame));
    }
    let times = tracer.self_times_ms();
    let mean_us = |name: &str| times.get(name).map_or(0.0, |v| stats::mean(v) * 1e3);
    m.insert(
        "uw-serve.wire.encode_us".into(),
        mean_us("uw-serve.wire.encode"),
    );
    m.insert(
        "uw-serve.wire.decode_us".into(),
        mean_us("uw-serve.wire.decode"),
    );
    m.insert(
        "uw-serve.wire.bytes_per_job".into(),
        bytes as f64 / sent.sent_at.len().max(1) as f64,
    );
    let jobs: usize = shard_stats.iter().map(|s| s.jobs).sum();
    let stolen: usize = shard_stats.iter().map(|s| s.stolen).sum();
    m.insert(
        "uw-serve.steal_ratio".into(),
        stolen as f64 / jobs.max(1) as f64,
    );

    // The same specs in process: whole cells through the batch runner,
    // then round by round through the probe.
    let mut cell_ms = Vec::with_capacity(specs.len());
    for spec in specs {
        let cell = spec.to_cell().expect("spec expands");
        let _ = tracer.time("uw-eval.cell", None, || run_cell(&cell));
        let mut exec = CellExecution::new(&cell).expect("cell is runnable");
        let mut probe = RoundProbe::new(&cell);
        loop {
            let t = Instant::now();
            let Some(summary) = exec.step() else { break };
            let end = Instant::now();
            probe.retime(tracer, &cell, &summary, (t, end), &[]);
        }
    }
    let times = tracer.self_times_ms();
    if let Some(v) = times.get("uw-eval.cell") {
        cell_ms.extend(v);
    }
    m.insert("uw-eval.cell_ms_p50".into(), p(&cell_ms, 50.0));
    layers::common_metrics(&mut m, tracer);
    m
}
