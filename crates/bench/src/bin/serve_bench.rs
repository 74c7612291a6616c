//! Serving-layer throughput/latency benchmark: batch runner vs. `uw-serve`.
//!
//! ```text
//! cargo run --release -p uw-bench --bin serve_bench -- [--socket] [BENCH_serve.json]
//! ```
//!
//! Three sections, all written into one deterministic JSON artifact next
//! to `BENCH_pipeline.json` / `BENCH_eval_matrix.json`:
//!
//! * **batch / pools** — the same job set (one dock 5-device cell per
//!   seed) through the batch rayon runner and through the in-process
//!   sharded serving layer at several pool sizes, recording jobs/sec and
//!   the submit→terminal latency distribution (queueing included).
//! * **contention** — a tenant-count × shard-count grid where every
//!   tenant drains its job events through a small bounded queue at a
//!   fixed per-event rate (the exact structure the TCP front end gives a
//!   slow client: workers block in the per-job sink, an *I/O* wait, not
//!   a CPU wait). This is what lets shard counts differentiate even on a
//!   single-core CI runner.
//! * **socket** (`--socket` only) — the fleet run: thousands of simulated
//!   tenants over loopback TCP on a handful of connections, one job per
//!   tenant, half live / half replay priority. Asserts zero non-shed
//!   drops and that the reconstructed `EvalReport` is byte-identical to
//!   the batch runner's JSON, and records per-priority latency
//!   percentiles.
//!
//! Environment overrides: `UWGPS_JOBS` (default 24 jobs),
//! `UWGPS_ROUNDS` (default 4 rounds per job), `UWGPS_TENANTS` (default
//! 1200 fleet tenants), `UWGPS_CONNS` (default 16 fleet connections),
//! `UWGPS_SOCKET_SHARDS` (default 4), `UWGPS_CONT_JOBS` (default 3 jobs
//! per contention tenant).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uw_core::config::{Fidelity, NumericPath};
use uw_core::prelude::EnvironmentKind;
use uw_eval::runner::run_matrix;
use uw_eval::{EvalReport, LinkProfile, MobilityProfile, ScenarioMatrix, Topology};
use uw_serve::wire::JobSpec;
use uw_serve::{
    CellUpdate, JobQueue, LocalizationJob, Priority, ServeConfig, Server, SubmitOptions, TcpClient,
    TcpConfig, TcpServer, WireMessage,
};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(1)
}

/// One cell per seed: identical work in batch and served form.
fn workload(jobs: usize, rounds: usize) -> ScenarioMatrix {
    ScenarioMatrix {
        environments: vec![EnvironmentKind::Dock],
        topologies: vec![Topology::FiveDevice],
        conditions: vec![LinkProfile::Clear],
        mobilities: vec![MobilityProfile::Static],
        numeric_paths: vec![NumericPath::F64],
        faults: vec![None],
        seeds: (1..=jobs as u64).collect(),
        recordings: vec![],
        rounds_per_cell: rounds,
        fidelity: Fidelity::Statistical,
    }
}

struct PoolRun {
    shards: usize,
    wall: Duration,
    latencies_ms: Vec<f64>,
}

/// Streams the workload through a pool of `shards` workers, timing each
/// job from submission to its terminal event.
fn run_pool(matrix: &ScenarioMatrix, shards: usize) -> PoolRun {
    let cells = matrix.expand().expect("workload expands");
    let n = cells.len();
    let (server, updates) = Server::start(ServeConfig::with_shards(shards));
    let t0 = Instant::now();
    // Collector: timestamp every terminal event as it arrives.
    let collector = std::thread::spawn(move || {
        let mut done: Vec<(uw_serve::JobId, Instant)> = Vec::with_capacity(n);
        while done.len() < n {
            match updates.recv() {
                Some(update) if update.is_terminal() => done.push((update.job(), Instant::now())),
                Some(_) => {}
                None => break,
            }
        }
        done
    });
    let mut submitted: Vec<(uw_serve::JobId, Instant)> = Vec::with_capacity(n);
    for cell in cells {
        // Stamp *before* submitting: time blocked inside submit (shard
        // backpressure) is queueing and must count towards job latency.
        let t_submit = Instant::now();
        let handle = server.submit(LocalizationJob::Cell(cell));
        submitted.push((handle.id(), t_submit));
    }
    let done = collector.join().expect("collector thread");
    let wall = t0.elapsed();
    server.shutdown();
    assert_eq!(done.len(), n, "every job must reach a terminal event");

    let mut latencies_ms: Vec<f64> = done
        .iter()
        .map(|(job, finished)| {
            let (_, started) = submitted
                .iter()
                .find(|(id, _)| id == job)
                .expect("terminal event for a submitted job");
            finished.duration_since(*started).as_secs_f64() * 1e3
        })
        .collect();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    PoolRun {
        shards,
        wall,
        latencies_ms,
    }
}

fn jobs_per_s(jobs: usize, wall: Duration) -> f64 {
    jobs as f64 / wall.as_secs_f64()
}

fn percentiles(latencies_ms: &mut [f64]) -> (f64, f64) {
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    (
        uw_dsp::peaks::percentile_sorted(latencies_ms, 50.0),
        uw_dsp::peaks::percentile_sorted(latencies_ms, 99.0),
    )
}

struct ContentionRun {
    tenants: usize,
    shards: usize,
    jobs: usize,
    wall: Duration,
    p50: f64,
    p99: f64,
}

/// Tenants whose event consumption is the bottleneck: each tenant drains
/// its jobs' updates through a 2-slot bounded queue at a fixed per-event
/// delay, so workers block *in the sink* — the same wait the TCP writer
/// queue imposes when a client reads slowly. Blocked workers hold no
/// CPU, which is why added shards keep paying off on a 1-core runner.
fn run_contention(tenants: usize, shards: usize, jobs_per_tenant: usize) -> ContentionRun {
    const DRAIN_DELAY: Duration = Duration::from_micros(300);
    let rounds = 2usize;
    let matrix = workload(tenants * jobs_per_tenant, rounds);
    let cells = matrix.expand().expect("contention workload expands");

    let (server, updates) = Server::start(ServeConfig {
        shards,
        queue_capacity: 64,
    });
    let t0 = Instant::now();
    let mut consumers = Vec::new();
    let mut handles = Vec::new();
    let mut submitted: Vec<(uw_serve::JobId, Instant)> = Vec::new();
    for (t, chunk) in cells.chunks(jobs_per_tenant).enumerate() {
        let sink_queue: Arc<JobQueue<CellUpdate>> = Arc::new(JobQueue::bounded(2));
        let drain = Arc::clone(&sink_queue);
        consumers.push(std::thread::spawn(move || {
            let mut finished: Vec<(uw_serve::JobId, Instant)> = Vec::new();
            while let Some(update) = drain.pop() {
                if update.is_terminal() {
                    finished.push((update.job(), Instant::now()));
                }
                // The tenant's "device" takes this long per event.
                std::thread::sleep(DRAIN_DELAY);
            }
            finished
        }));
        for cell in chunk {
            let q = Arc::clone(&sink_queue);
            let options = SubmitOptions {
                tenant: Some(format!("tenant-{t}")),
                events: Some(Arc::new(move |update: CellUpdate| {
                    let _ = q.push(update);
                })),
                ..SubmitOptions::default()
            };
            let t_submit = Instant::now();
            let handle = server.submit_with(LocalizationJob::Cell(cell.clone()), options);
            submitted.push((handle.id(), t_submit));
            handles.push((handle, Arc::clone(&sink_queue)));
        }
    }
    // Wait for every job, then release the per-tenant consumers.
    let mut queues: Vec<Arc<JobQueue<CellUpdate>>> = Vec::new();
    for (handle, q) in handles {
        assert!(
            handle.wait().report().is_some(),
            "contention jobs must complete"
        );
        queues.push(q);
    }
    for q in queues {
        q.close();
    }
    let mut latencies_ms = Vec::new();
    for consumer in consumers {
        for (job, finished) in consumer.join().expect("consumer thread") {
            let (_, started) = submitted
                .iter()
                .find(|(id, _)| *id == job)
                .expect("finished job was submitted");
            latencies_ms.push(finished.duration_since(*started).as_secs_f64() * 1e3);
        }
    }
    let wall = t0.elapsed();
    server.shutdown();
    drop(updates);
    assert_eq!(latencies_ms.len(), tenants * jobs_per_tenant);
    let (p50, p99) = percentiles(&mut latencies_ms);
    ContentionRun {
        tenants,
        shards,
        jobs: jobs_per_tenant,
        wall,
        p50,
        p99,
    }
}

struct FleetRun {
    tenants: usize,
    connections: usize,
    shards: usize,
    wall: Duration,
    batch_wall: Duration,
    live_p50: f64,
    live_p99: f64,
    replay_p50: f64,
    replay_p99: f64,
}

/// The fleet: `tenants` simulated tenants multiplexed over `connections`
/// loopback-TCP connections, one 1-round job per tenant, tags equal to
/// matrix-expansion indices. Asserts the two ISSUE acceptance
/// properties: zero non-shed drops, and an `EvalReport` reconstructed
/// from the frames that is byte-identical to the batch runner's JSON.
fn run_socket_fleet(tenants: usize, connections: usize, shards: usize) -> FleetRun {
    let matrix = workload(tenants, 1);
    let t0 = Instant::now();
    let baseline = run_matrix(&matrix).expect("fleet baseline runs").to_json();
    let batch_wall = t0.elapsed();

    let cells = matrix.expand().expect("fleet workload expands");
    let specs: Vec<JobSpec> = cells
        .iter()
        .map(|cell| JobSpec::from_cell(cell).expect("simulated cells have wire specs"))
        .collect();

    let server = TcpServer::bind(
        "127.0.0.1:0",
        TcpConfig {
            serve: ServeConfig {
                shards,
                queue_capacity: 128,
            },
            conn_queue: 256,
        },
    )
    .expect("bind loopback fleet server");
    let addr = server.local_addr();

    let t0 = Instant::now();
    let clients: Vec<_> = (0..connections)
        .map(|c| {
            // Connection c serves tenants c, c+connections, c+2·connections…
            let mine: Vec<(u64, JobSpec)> = specs
                .iter()
                .enumerate()
                .filter(|(i, _)| i % connections == c)
                .map(|(i, spec)| (i as u64, spec.clone()))
                .collect();
            std::thread::spawn(move || {
                let mut client = TcpClient::connect(addr).expect("fleet connect");
                client
                    .hello(&format!("fleet-conn-{c}"))
                    .expect("fleet handshake");
                let mut submits: HashMap<u64, Instant> = HashMap::with_capacity(mine.len());
                let expected = mine.len();
                for (tag, spec) in mine {
                    submits.insert(tag, Instant::now());
                    client
                        .send(&WireMessage::Submit {
                            tag,
                            tenant: format!("tenant-{tag}"),
                            // Half the fleet is a live dive, half replay.
                            priority: if tag % 2 == 0 {
                                Priority::Live
                            } else {
                                Priority::Replay
                            },
                            deadline_ms: None,
                            spec,
                        })
                        .expect("fleet submit");
                }
                let mut finished = Vec::with_capacity(expected);
                while finished.len() < expected {
                    match client.recv().expect("fleet event stream") {
                        Some(WireMessage::Finalized { tag, report }) => {
                            let latency_ms = submits[&tag].elapsed().as_secs_f64() * 1e3;
                            finished.push((tag, latency_ms, report));
                        }
                        Some(WireMessage::Started { .. }) | Some(WireMessage::Round { .. }) => {}
                        other => panic!("fleet job dropped or errored: {other:?}"),
                    }
                }
                client.send(&WireMessage::Goodbye).expect("fleet goodbye");
                finished
            })
        })
        .collect();
    let mut finished: Vec<(u64, f64, uw_eval::CellReport)> = Vec::with_capacity(tenants);
    for client in clients {
        finished.extend(client.join().expect("fleet connection thread"));
    }
    let wall = t0.elapsed();
    server.shutdown();

    // Zero dropped non-shed jobs: every tenant's job came back exactly once.
    assert_eq!(finished.len(), tenants, "fleet lost jobs");
    finished.sort_by_key(|(tag, _, _)| *tag);
    let served = EvalReport::new(finished.iter().map(|(_, _, r)| r.clone()).collect()).to_json();
    assert_eq!(
        served, baseline,
        "fleet report must be byte-identical to the batch runner"
    );

    let mut live: Vec<f64> = finished
        .iter()
        .filter(|(tag, _, _)| tag % 2 == 0)
        .map(|(_, l, _)| *l)
        .collect();
    let mut replay: Vec<f64> = finished
        .iter()
        .filter(|(tag, _, _)| tag % 2 == 1)
        .map(|(_, l, _)| *l)
        .collect();
    let (live_p50, live_p99) = percentiles(&mut live);
    let (replay_p50, replay_p99) = percentiles(&mut replay);
    FleetRun {
        tenants,
        connections,
        shards,
        wall,
        batch_wall,
        live_p50,
        live_p99,
        replay_p50,
        replay_p99,
    }
}

fn main() {
    let mut socket = false;
    let mut out = "BENCH_serve.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--socket" {
            socket = true;
        } else {
            out = arg;
        }
    }
    let jobs = env_usize("UWGPS_JOBS", 24);
    let rounds = env_usize("UWGPS_ROUNDS", 4);
    let matrix = workload(jobs, rounds);

    println!("serve_bench: {jobs} jobs x {rounds} rounds");

    // Batch baseline: the rayon matrix runner over the identical cells.
    let t0 = Instant::now();
    let batch_report = run_matrix(&matrix).expect("batch workload runs");
    let batch_wall = t0.elapsed();
    assert_eq!(batch_report.cells.len(), jobs);
    println!(
        "  batch (rayon):        {:7.1} ms  {:6.1} jobs/s",
        batch_wall.as_secs_f64() * 1e3,
        jobs_per_s(jobs, batch_wall),
    );

    // Served pools: at least two sizes (acceptance criterion), spanning
    // serial to the batch runner's parallelism regime.
    let pool_sizes = [1usize, 2, 4];
    let mut pools = Vec::new();
    for &shards in &pool_sizes {
        let run = run_pool(&matrix, shards);
        // run_pool already sorted the latencies.
        let p50 = uw_dsp::peaks::percentile_sorted(&run.latencies_ms, 50.0);
        let p99 = uw_dsp::peaks::percentile_sorted(&run.latencies_ms, 99.0);
        println!(
            "  serve  ({} shard{}):   {:7.1} ms  {:6.1} jobs/s  p50 {:6.1} ms  p99 {:6.1} ms",
            run.shards,
            if run.shards == 1 { " " } else { "s" },
            run.wall.as_secs_f64() * 1e3,
            jobs_per_s(jobs, run.wall),
            p50,
            p99,
        );
        pools.push((run, p50, p99));
    }

    // Contention grid: I/O-waiting tenants (slow bounded-sink drains) so
    // shard counts separate even when only one core is available.
    let cont_jobs = env_usize("UWGPS_CONT_JOBS", 3);
    let mut contention = Vec::new();
    for tenants in [4usize, 16] {
        for shards in [1usize, 2, 4] {
            let run = run_contention(tenants, shards, cont_jobs);
            println!(
                "  contend ({:2} tenants x {} shard{}): {:7.1} ms  p50 {:6.1} ms  p99 {:6.1} ms",
                run.tenants,
                run.shards,
                if run.shards == 1 { " " } else { "s" },
                run.wall.as_secs_f64() * 1e3,
                run.p50,
                run.p99,
            );
            contention.push(run);
        }
    }

    // Fleet over loopback TCP (opt-in: it is the long pole of the bench).
    let fleet = if socket {
        let tenants = env_usize("UWGPS_TENANTS", 1200);
        let conns = env_usize("UWGPS_CONNS", 16);
        let shards = env_usize("UWGPS_SOCKET_SHARDS", 4);
        let run = run_socket_fleet(tenants, conns, shards);
        println!(
            "  fleet  ({} tenants / {} conns / {} shards): {:7.1} ms  {:6.1} jobs/s  \
             live p50 {:6.1} p99 {:6.1}  replay p50 {:6.1} p99 {:6.1}  (byte-identical)",
            run.tenants,
            run.connections,
            run.shards,
            run.wall.as_secs_f64() * 1e3,
            jobs_per_s(run.tenants, run.wall),
            run.live_p50,
            run.live_p99,
            run.replay_p50,
            run.replay_p99,
        );
        Some(run)
    } else {
        None
    };

    // Deterministic hand-rolled JSON (the vendored serde is a no-op).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"uwgps-serve-bench-v2\",\n");
    json.push_str(&format!("  \"jobs\": {jobs},\n"));
    json.push_str(&format!("  \"rounds_per_job\": {rounds},\n"));
    json.push_str(&format!(
        "  \"batch\": {{\"wall_ms\": {:.3}, \"jobs_per_s\": {:.3}}},\n",
        batch_wall.as_secs_f64() * 1e3,
        jobs_per_s(jobs, batch_wall),
    ));
    json.push_str("  \"pools\": [\n");
    for (k, (run, p50, p99)) in pools.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {}, \"wall_ms\": {:.3}, \"jobs_per_s\": {:.3}, \
             \"latency_p50_ms\": {:.3}, \"latency_p99_ms\": {:.3}}}{}\n",
            run.shards,
            run.wall.as_secs_f64() * 1e3,
            jobs_per_s(jobs, run.wall),
            p50,
            p99,
            if k + 1 < pools.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"contention\": [\n");
    for (k, run) in contention.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tenants\": {}, \"shards\": {}, \"jobs_per_tenant\": {}, \
             \"wall_ms\": {:.3}, \"jobs_per_s\": {:.3}, \
             \"latency_p50_ms\": {:.3}, \"latency_p99_ms\": {:.3}}}{}\n",
            run.tenants,
            run.shards,
            run.jobs,
            run.wall.as_secs_f64() * 1e3,
            jobs_per_s(run.tenants * run.jobs, run.wall),
            run.p50,
            run.p99,
            if k + 1 < contention.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    match &fleet {
        Some(run) => {
            json.push_str(&format!(
                "  \"socket\": {{\"tenants\": {}, \"connections\": {}, \"shards\": {}, \
                 \"wall_ms\": {:.3}, \"jobs_per_s\": {:.3}, \"batch_wall_ms\": {:.3}, \
                 \"byte_identical\": true, \"dropped\": 0,\n    \
                 \"live\": {{\"latency_p50_ms\": {:.3}, \"latency_p99_ms\": {:.3}}},\n    \
                 \"replay\": {{\"latency_p50_ms\": {:.3}, \"latency_p99_ms\": {:.3}}}}}\n",
                run.tenants,
                run.connections,
                run.shards,
                run.wall.as_secs_f64() * 1e3,
                jobs_per_s(run.tenants, run.wall),
                run.batch_wall.as_secs_f64() * 1e3,
                run.live_p50,
                run.live_p99,
                run.replay_p50,
                run.replay_p99,
            ));
        }
        None => json.push_str("  \"socket\": null\n"),
    }
    json.push_str("}\n");
    std::fs::write(&out, json).expect("write benchmark artifact");
    println!("wrote {out}");
}
