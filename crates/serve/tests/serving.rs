//! Integration tests of the serving layer against the batch runner.
//!
//! The three acceptance properties of the serving PR live here:
//!
//! 1. **Determinism** — streaming a mini-matrix through the sharded
//!    server reconstructs an `EvalReport` byte-identical to the batch
//!    rayon runner, regardless of shard count / completion order.
//! 2. **Backpressure** — bounded shard queues block producers instead of
//!    dropping jobs.
//! 3. **Cancellation** — a job cancelled mid-cell finalizes partial
//!    statistics and leaves the pool serving subsequent jobs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use uw_core::config::{Fidelity, NumericPath};
use uw_core::prelude::EnvironmentKind;
use uw_eval::runner::run_matrix;
use uw_eval::{LinkProfile, MobilityProfile, ScenarioMatrix, Topology};
use uw_serve::{serve_matrix, CellUpdate, JobOutcome, LocalizationJob, ServeConfig, Server};

/// Dock/boathouse × 4/5 devices: four quick statistical cells.
fn four_cell_matrix() -> ScenarioMatrix {
    ScenarioMatrix {
        environments: vec![EnvironmentKind::Dock, EnvironmentKind::Boathouse],
        topologies: vec![Topology::FourDevice, Topology::FiveDevice],
        conditions: vec![LinkProfile::Clear],
        mobilities: vec![MobilityProfile::Static],
        numeric_paths: vec![NumericPath::F64],
        faults: vec![None],
        seeds: vec![1],
        recordings: vec![],
        rounds_per_cell: 3,
        fidelity: Fidelity::Statistical,
    }
}

#[test]
fn streamed_matrix_matches_batch_byte_for_byte() {
    let matrix = four_cell_matrix();
    assert_eq!(matrix.cell_count(), 4);
    let batch_json = run_matrix(&matrix).unwrap().to_json();
    // Several shard counts: 1 (fully serial), 3 (cells complete out of
    // order and must be re-merged by submission order).
    for shards in [1, 3] {
        let streamed = serve_matrix(&matrix, ServeConfig::with_shards(shards)).unwrap();
        assert_eq!(
            streamed.to_json(),
            batch_json,
            "streamed report diverged from batch with {shards} shard(s)"
        );
    }
}

#[test]
fn per_job_event_order_is_started_rounds_terminal() {
    let matrix = four_cell_matrix();
    let cells = matrix.expand().unwrap();
    let (server, updates) = Server::start(ServeConfig::with_shards(2));
    let handles: Vec<_> = cells
        .into_iter()
        .map(|c| server.submit(LocalizationJob::Cell(c)))
        .collect();
    for h in &handles {
        assert!(h.wait().is_completed());
    }
    server.shutdown();

    let mut per_job: std::collections::BTreeMap<_, Vec<CellUpdate>> = Default::default();
    while let Some(update) = updates.recv() {
        per_job.entry(update.job()).or_default().push(update);
    }
    assert_eq!(per_job.len(), handles.len());
    for (job, events) in per_job {
        assert!(
            matches!(events[0], CellUpdate::CellStarted { rounds: 3, .. }),
            "{job}: first event {:?}",
            events[0]
        );
        assert_eq!(events.len(), 5, "{job}: started + 3 rounds + terminal");
        for (k, event) in events[1..4].iter().enumerate() {
            match event {
                CellUpdate::RoundCompleted { summary, .. } => {
                    assert_eq!(summary.round, k);
                    assert!(summary.ok);
                }
                other => panic!("{job}: expected round {k}, got {other:?}"),
            }
        }
        assert!(matches!(events[4], CellUpdate::CellFinalized { .. }));
    }
}

#[test]
fn scenario_and_stream_jobs_run_outside_any_matrix() {
    let (server, _updates) = Server::start(ServeConfig::with_shards(1));
    let scenario = uw_core::Scenario::dock_five_devices(11);
    let handle = server.submit(LocalizationJob::Scenario {
        scenario: scenario.clone(),
        rounds: 2,
    });
    let outcome = handle.wait();
    let report = outcome.report().expect("scenario job yields a report");
    assert_eq!(report.rounds_completed, 2);
    assert_eq!(report.id, scenario.name());

    // A stream job with a max-rounds safety stop runs like a fixed job
    // when never cancelled.
    let handle = server.submit(LocalizationJob::Stream {
        scenario,
        max_rounds: 2,
    });
    assert!(handle.wait().is_completed());
    let stats = server.shutdown();
    assert_eq!(stats.iter().map(|s| s.jobs).sum::<usize>(), 2);
}

#[test]
fn bounded_queue_blocks_producers_and_drops_nothing() {
    // One shard with a one-slot queue: job A occupies the worker, job B
    // fills the queue, so submitting job C must block until A finishes
    // and the worker pops B.
    let (server, _updates) = Server::start(ServeConfig {
        shards: 1,
        queue_capacity: 1,
    });
    let server = Arc::new(server);
    // Long enough that the job cannot finish inside the sleeps below even
    // in release (~0.5 ms/round → ~2 s); the test cancels it right after
    // the assertions, so the actual runtime stays ~0.2 s.
    let mut long_matrix = four_cell_matrix();
    long_matrix.rounds_per_cell = 4000;
    let long_cell = long_matrix.expand().unwrap().remove(0);
    let mut quick_matrix = four_cell_matrix();
    quick_matrix.rounds_per_cell = 1;
    let quick_cell = quick_matrix.expand().unwrap().remove(1);

    let a = server.submit(LocalizationJob::Cell(long_cell.clone()));
    // Give the worker a moment to pop A so B lands in the empty queue.
    std::thread::sleep(Duration::from_millis(50));
    let b = server.submit(LocalizationJob::Cell(quick_cell.clone()));

    let c_submitted = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&c_submitted);
    let submitter = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let c = server.submit(LocalizationJob::Cell(quick_cell)); // must block: queue full
            flag.store(true, Ordering::SeqCst);
            c.wait()
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !c_submitted.load(Ordering::SeqCst),
        "submit did not backpressure on a full shard queue"
    );
    assert!(!a.is_finished(), "long job finished before the check");

    // Unblock: cancel the long job; the worker finalizes it, pops B, and
    // the blocked producer gets its slot.
    a.cancel();
    let c_outcome = submitter.join().unwrap();
    assert!(c_submitted.load(Ordering::SeqCst));

    // No drops: every job reached a terminal state.
    assert!(matches!(a.wait(), JobOutcome::Cancelled(_)));
    assert!(b.wait().is_completed());
    assert!(c_outcome.is_completed());
    let server = Arc::into_inner(server).unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].jobs, 3);
    assert_eq!(stats[0].cancelled, 1);
}

#[test]
fn mid_cell_cancellation_leaves_the_pool_reusable() {
    let (server, updates) = Server::start(ServeConfig::with_shards(1));
    let mut matrix = four_cell_matrix();
    matrix.rounds_per_cell = 400;
    let long_cell = matrix.expand().unwrap().remove(0);
    let total_rounds = long_cell.rounds;
    let handle = server.submit(LocalizationJob::Cell(long_cell));

    // Wait until at least two rounds have streamed, then cancel mid-cell.
    let mut rounds_seen = 0;
    while rounds_seen < 2 {
        match updates.recv().expect("stream open") {
            CellUpdate::RoundCompleted { summary, .. } => {
                assert!(summary.ok);
                rounds_seen += 1;
            }
            CellUpdate::CellStarted { .. } => {}
            other => panic!("unexpected event before cancel: {other:?}"),
        }
    }
    handle.cancel();
    let outcome = handle.wait();
    let partial = match &outcome {
        JobOutcome::Cancelled(partial) => partial,
        other => panic!("expected cancellation, got {other:?}"),
    };
    assert!(partial.rounds_completed >= 2);
    assert!(
        partial.rounds_completed < total_rounds,
        "cancellation did not cut the cell short"
    );
    // Partial statistics are real aggregates of the rounds that ran.
    assert_eq!(
        partial.error_2d.count,
        partial.rounds_completed * (partial.n_devices - 1)
    );
    assert!(partial.error_2d.median.is_finite());

    // The pool is immediately reusable: a fresh job on the same shard
    // completes normally.
    let mut quick = four_cell_matrix();
    quick.rounds_per_cell = 2;
    let fresh = server.submit(LocalizationJob::Cell(quick.expand().unwrap().remove(3)));
    let outcome = fresh.wait();
    assert!(outcome.is_completed());
    assert_eq!(outcome.report().unwrap().rounds_completed, 2);

    let stats = server.shutdown();
    assert_eq!(stats[0].jobs, 2);
    assert_eq!(stats[0].cancelled, 1);
    // The terminal event of the cancelled job carries the same partial.
    let mut saw_cancelled = false;
    while let Some(update) = updates.recv() {
        if let CellUpdate::JobCancelled { partial: p, .. } = update {
            assert_eq!(&p, partial);
            saw_cancelled = true;
        }
    }
    assert!(saw_cancelled);
}

#[test]
fn graceful_shutdown_drains_queued_jobs() {
    let (server, updates) = Server::start(ServeConfig {
        shards: 1,
        queue_capacity: 8,
    });
    let mut matrix = four_cell_matrix();
    matrix.rounds_per_cell = 1;
    let handles: Vec<_> = matrix
        .expand()
        .unwrap()
        .into_iter()
        .map(|c| server.submit(LocalizationJob::Cell(c)))
        .collect();
    // Shut down immediately: everything already queued must still run.
    let stats = server.shutdown();
    assert_eq!(stats[0].jobs, 4);
    for h in &handles {
        assert!(h.is_finished());
        assert!(h.wait().is_completed());
    }
    // The stream terminates after delivering every event.
    let mut terminals = 0;
    while let Some(update) = updates.recv() {
        if update.is_terminal() {
            terminals += 1;
        }
    }
    assert_eq!(terminals, 4);
}

#[test]
fn replay_cells_serve_identically_to_batch() {
    // A cell replaying recorded audio — a blind-imported campaign standing
    // in for the simulator — is just another EvalCell to the serving
    // layer: the job carries its decoded captures, shards attach them to
    // their sessions, and the streamed report is byte-identical to the
    // batch run of the same imported cell.
    let hybrid = ScenarioMatrix {
        environments: vec![EnvironmentKind::Dock],
        topologies: vec![Topology::FiveDevice],
        conditions: vec![LinkProfile::Clear],
        mobilities: vec![MobilityProfile::Static],
        numeric_paths: vec![NumericPath::F64],
        faults: vec![None],
        seeds: vec![1],
        recordings: vec![],
        rounds_per_cell: 2,
        fidelity: Fidelity::Hybrid,
    };
    let recording = uw_eval::record_cell(&hybrid.expand().unwrap()[0]).unwrap();
    let wav = uw_eval::render_campaign_wav(&recording, &uw_eval::RenderOptions::default()).unwrap();
    let params = uw_eval::ImportParams::new(EnvironmentKind::Dock, 5, 1);
    let (campaign, _) = uw_eval::import_campaign(&wav, &params).unwrap();
    let imported_cell = campaign.cell().unwrap();
    assert_eq!(imported_cell.id, "dock/5dev/clear/static/import/s1");

    let batch = uw_eval::runner::run_cell(&imported_cell).unwrap();
    let (server, updates) = Server::start(ServeConfig::with_shards(2));
    let handle = server.submit(LocalizationJob::Cell(imported_cell));
    let outcome = handle.wait();
    server.shutdown();
    drop(updates);
    let streamed = outcome.report().expect("imported job completes").clone();
    assert_eq!(streamed, batch);
    assert_eq!(streamed.rounds_completed, 2);
}
