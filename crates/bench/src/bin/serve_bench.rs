//! Serving-layer throughput/latency benchmark: batch runner vs. `uw-serve`.
//!
//! ```text
//! cargo run --release -p uw-bench --bin serve_bench -- [BENCH_serve.json]
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
//! * **socket** — the fleet run: over a thousand simulated
//!   tenants over loopback TCP on a handful of connections, one job per
//!   tenant, half live / half replay priority. Asserts zero non-shed
//!   drops and that the reconstructed `EvalReport` is byte-identical to
//!   the batch runner's JSON, and records per-priority latency
//!   percentiles.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uw_core::config::{Fidelity, NumericPath};
use uw_core::prelude::EnvironmentKind;
use uw_eval::json::{self, Layout};
use uw_eval::runner::run_matrix;
use uw_eval::{EvalReport, LinkProfile, MobilityProfile, ScenarioMatrix, Topology};
use uw_serve::wire::JobSpec;
use uw_serve::{
    CellUpdate, JobQueue, LocalizationJob, Priority, ServeConfig, Server, SubmitOptions, TcpClient,
    TcpConfig, TcpServer, WireMessage,
};

/// Jobs in the batch-vs-pools set, and rounds per job.
const JOBS: usize = 24;
const ROUNDS: usize = 4;
/// Jobs per tenant in the contention grid.
const CONTENTION_JOBS: usize = 3;
/// The fleet: tenants, loopback-TCP connections and worker shards.
const FLEET_TENANTS: usize = 1200;
const FLEET_CONNECTIONS: usize = 16;
const FLEET_SHARDS: usize = 4;

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
    /// (p50, p99) submit → terminal latency, ms.
    latency: (f64, f64),
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
    PoolRun {
        shards,
        wall,
        latency: percentiles(&mut latencies_ms),
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
    /// (p50, p99) submit → terminal latency, ms.
    latency: (f64, f64),
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
    ContentionRun {
        tenants,
        shards,
        jobs: jobs_per_tenant,
        wall,
        latency: percentiles(&mut latencies_ms),
    }
}

struct FleetRun {
    tenants: usize,
    connections: usize,
    shards: usize,
    wall: Duration,
    batch_wall: Duration,
    /// (p50, p99) latency of the live-priority jobs, ms.
    live: (f64, f64),
    /// (p50, p99) latency of the replay-priority jobs, ms.
    replay: (f64, f64),
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
    FleetRun {
        tenants,
        connections,
        shards,
        wall,
        batch_wall,
        live: percentiles(&mut live),
        replay: percentiles(&mut replay),
    }
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".into());
    if out.starts_with('-') {
        eprintln!("serve_bench: takes no flags, only the output path (got {out})");
        std::process::exit(2);
    }
    let matrix = workload(JOBS, ROUNDS);

    println!("serve_bench: {JOBS} jobs x {ROUNDS} rounds");

    // Batch baseline: the rayon matrix runner over the identical cells.
    let t0 = Instant::now();
    let batch_report = run_matrix(&matrix).expect("batch workload runs");
    let batch_wall = t0.elapsed();
    assert_eq!(batch_report.cells.len(), JOBS);
    println!(
        "  batch (rayon):        {:7.1} ms  {:6.1} jobs/s",
        batch_wall.as_secs_f64() * 1e3,
        jobs_per_s(JOBS, batch_wall),
    );

    // Served pools: at least two sizes (acceptance criterion), spanning
    // serial to the batch runner's parallelism regime.
    let pool_sizes = [1usize, 2, 4];
    let mut pools = Vec::new();
    for &shards in &pool_sizes {
        let run = run_pool(&matrix, shards);
        println!(
            "  serve  ({} shard{}):   {:7.1} ms  {:6.1} jobs/s  p50 {:6.1} ms  p99 {:6.1} ms",
            run.shards,
            if run.shards == 1 { " " } else { "s" },
            run.wall.as_secs_f64() * 1e3,
            jobs_per_s(JOBS, run.wall),
            run.latency.0,
            run.latency.1,
        );
        pools.push(run);
    }

    // Contention grid: I/O-waiting tenants (slow bounded-sink drains) so
    // shard counts separate even when only one core is available.
    let mut contention = Vec::new();
    for tenants in [4usize, 16] {
        for shards in [1usize, 2, 4] {
            let run = run_contention(tenants, shards, CONTENTION_JOBS);
            println!(
                "  contend ({:2} tenants x {} shard{}): {:7.1} ms  p50 {:6.1} ms  p99 {:6.1} ms",
                run.tenants,
                run.shards,
                if run.shards == 1 { " " } else { "s" },
                run.wall.as_secs_f64() * 1e3,
                run.latency.0,
                run.latency.1,
            );
            contention.push(run);
        }
    }

    // Fleet over loopback TCP.
    let fleet = run_socket_fleet(FLEET_TENANTS, FLEET_CONNECTIONS, FLEET_SHARDS);
    println!(
        "  fleet  ({} tenants / {} conns / {} shards): {:7.1} ms  {:6.1} jobs/s  \
         live p50 {:6.1} p99 {:6.1}  replay p50 {:6.1} p99 {:6.1}  (byte-identical)",
        fleet.tenants,
        fleet.connections,
        fleet.shards,
        fleet.wall.as_secs_f64() * 1e3,
        jobs_per_s(fleet.tenants, fleet.wall),
        fleet.live.0,
        fleet.live.1,
        fleet.replay.0,
        fleet.replay.1,
    );

    let ms = |wall: Duration| wall.as_secs_f64() * 1e3;
    let json = json::document(|o| {
        o.key("schema").str("uwgps-serve-bench-v2");
        o.key("jobs").raw(JOBS);
        o.key("rounds_per_job").raw(ROUNDS);
        o.key("batch").object(Layout::Line, |b| {
            b.key("wall_ms").fixed(ms(batch_wall), 3);
            b.key("jobs_per_s").fixed(jobs_per_s(JOBS, batch_wall), 3);
        });
        o.key("pools").array(Layout::Lines, |rows| {
            for run in &pools {
                rows.item().object(Layout::Line, |row| {
                    row.key("shards").raw(run.shards);
                    row.key("wall_ms").fixed(ms(run.wall), 3);
                    row.key("jobs_per_s").fixed(jobs_per_s(JOBS, run.wall), 3);
                    row.key("latency_p50_ms").fixed(run.latency.0, 3);
                    row.key("latency_p99_ms").fixed(run.latency.1, 3);
                });
            }
        });
        o.key("contention").array(Layout::Lines, |rows| {
            for run in &contention {
                rows.item().object(Layout::Line, |row| {
                    row.key("tenants").raw(run.tenants);
                    row.key("shards").raw(run.shards);
                    row.key("jobs_per_tenant").raw(run.jobs);
                    row.key("wall_ms").fixed(ms(run.wall), 3);
                    let served = run.tenants * run.jobs;
                    row.key("jobs_per_s").fixed(jobs_per_s(served, run.wall), 3);
                    row.key("latency_p50_ms").fixed(run.latency.0, 3);
                    row.key("latency_p99_ms").fixed(run.latency.1, 3);
                });
            }
        });
        o.key("socket").object(Layout::Line, |s| {
            s.key("tenants").raw(fleet.tenants);
            s.key("connections").raw(fleet.connections);
            s.key("shards").raw(fleet.shards);
            s.key("wall_ms").fixed(ms(fleet.wall), 3);
            s.key("jobs_per_s")
                .fixed(jobs_per_s(fleet.tenants, fleet.wall), 3);
            s.key("batch_wall_ms").fixed(ms(fleet.batch_wall), 3);
            s.key("byte_identical").raw(true);
            s.key("dropped").raw(0);
            for (class, (p50, p99)) in [("live", fleet.live), ("replay", fleet.replay)] {
                s.key(class).object(Layout::Line, |l| {
                    l.key("latency_p50_ms").fixed(p50, 3);
                    l.key("latency_p99_ms").fixed(p99, 3);
                });
            }
        });
    });
    std::fs::write(&out, json).expect("write benchmark artifact");
    println!("wrote {out}");
}
