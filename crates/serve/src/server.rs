//! The sharded, multi-tenant localization server.
//!
//! [`Server::start`] spawns one worker thread per shard, each with its own
//! bounded [`FairQueue`] intake. [`Server::submit`] routes a job to a
//! shard by hashing its cell id — stable affinity, so repeated
//! submissions of the same cell land on a shard that has already ensured
//! its waveform assets are warm — and returns a [`JobHandle`] that can be
//! cancelled or waited on. [`Server::submit_with`] is the
//! tenant-aware entry point: it attaches a tenant, a priority class, an
//! optional deadline, an overload policy and an optional per-job event
//! sink (see [`SubmitOptions`]). Workers drive the shared cell-execution
//! core ([`uw_eval::CellExecution`]) one round at a time, publishing
//! [`CellUpdate`] events as they go.
//!
//! Design invariants:
//!
//! * **Backpressure by default, shedding on request** — shard queues are
//!   bounded; `submit` blocks when the target shard is at capacity.
//!   Under [`OverloadPolicy::Shed`] a full queue instead rejects the
//!   arriving job deterministically with
//!   [`RejectReason::Overloaded`] — the job that would
//!   have blocked is the job that is shed, nothing queued is evicted.
//! * **Fairness** — each shard dequeues through a weighted-fair,
//!   strict-priority scheduler (see [`crate::tenant`]): live-dive jobs
//!   overtake replay, tenants share a shard by configured weight, and a
//!   single tenant at one priority degrades to exact FIFO (the
//!   historical behaviour).
//! * **Deadlines cost nothing** — expiry is checked when a worker
//!   *dequeues* a job: an expired job is shed with
//!   [`RejectReason::DeadlineExpired`] before any DSP runs, so a dead
//!   job never occupies a shard.
//! * **Work stealing** — a worker whose own intake stays empty for a
//!   beat scans sibling shards (most-backlogged first) and steals their
//!   queued jobs, so one hot shard cannot serialize the pool.
//! * **Determinism** — a cell's RNG stream depends only on its seed and
//!   round index, never on which shard runs it or when; out-of-order
//!   completions are re-merged by submission order in the sink, so a
//!   streamed matrix reproduces the batch runner's report byte for byte
//!   — with or without stealing.
//! * **Cooperative cancellation** — workers check the cancel flag between
//!   rounds; a cancelled job finalizes partial statistics and the pool
//!   keeps serving.
//! * **Graceful shutdown** — [`Server::shutdown`] closes the intakes,
//!   lets every queued job drain, joins the workers and then ends the
//!   update stream (receivers see `None` after the last event).

use crate::job::{
    CellUpdate, JobHandle, JobId, JobOutcome, JobState, LocalizationJob, RejectReason,
};
use crate::queue::JobQueue;
use crate::sink::ReportBuilder;
use crate::tenant::{FairQueue, PopWait, Priority, TenantConfig, TenantRegistry, DEFAULT_TENANT};
use crate::wire::JobSpec;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};
use uw_core::config::{Fidelity, NumericPath};
use uw_core::{Result, SystemError};
use uw_eval::runner::CellExecution;
use uw_eval::{EvalCell, EvalReport, ImportedCampaign, ScenarioMatrix};

/// How long an idle worker waits on its own intake before sweeping the
/// sibling shards for stealable work.
const STEAL_IDLE: Duration = Duration::from_millis(1);

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards. Each shard is one worker thread with its own bounded
    /// intake queue and its own lazily-warmed waveform-asset state.
    /// Clamped to ≥ 1.
    pub shards: usize,
    /// Capacity of each shard's intake queue; producers block (are
    /// backpressured) while their target shard is full. Clamped to ≥ 1.
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    /// One shard per available core (capped at 8 — localization cells are
    /// coarse; more shards than cells buys nothing), queues of 64.
    fn default() -> Self {
        Self {
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(8),
            queue_capacity: 64,
        }
    }
}

impl ServeConfig {
    /// A config with the given shard count and the default queue capacity.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
    }
}

/// What to do when a job's target shard queue is full at submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Block the submitter until space frees (backpressure; nothing is
    /// ever dropped). The historical — and default — behaviour; over
    /// TCP it composes with the socket's own receive-window
    /// backpressure.
    #[default]
    Block,
    /// Reject the arriving job immediately with
    /// [`RejectReason::Overloaded`]. Deterministic: the shed job is
    /// exactly the one that would otherwise have blocked; queued jobs
    /// are never evicted.
    Shed,
}

/// A per-job event sink: when a job is submitted with one (see
/// [`SubmitOptions::events`]), every one of its [`CellUpdate`]s goes to
/// this closure *instead of* the server-wide [`UpdateStream`]. The TCP
/// front end uses this to fan each connection's events back to its own
/// socket — and, because the closure may block (e.g. on a bounded
/// per-connection queue), a slow consumer throttles only its own jobs.
pub type UpdateFn = Arc<dyn Fn(CellUpdate) + Send + Sync>;

/// Tenancy, scheduling and delivery options for [`Server::submit_with`].
/// `SubmitOptions::default()` reproduces plain [`Server::submit`]: the
/// `"default"` tenant, replay priority, no deadline, blocking
/// backpressure, events to the shared stream.
#[derive(Clone, Default)]
pub struct SubmitOptions {
    /// Tenant the job bills to (admission control + fair-share lane).
    /// `None` means the unlimited [`DEFAULT_TENANT`].
    pub tenant: Option<String>,
    /// Priority class; [`Priority::Live`] overtakes [`Priority::Replay`].
    pub priority: Priority,
    /// Time budget measured from submission: if no worker has *started*
    /// the job when it expires, the job is shed (never partially run).
    pub deadline: Option<Duration>,
    /// Full-queue behaviour: block (default) or shed deterministically.
    pub overload: OverloadPolicy,
    /// Per-job event sink; `None` delivers to the shared [`UpdateStream`].
    pub events: Option<UpdateFn>,
}

impl SubmitOptions {
    /// Options for `tenant` at `priority`, otherwise default.
    pub fn tenant(tenant: &str, priority: Priority) -> Self {
        Self {
            tenant: Some(tenant.to_string()),
            priority,
            ..Self::default()
        }
    }
}

impl std::fmt::Debug for SubmitOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitOptions")
            .field("tenant", &self.tenant)
            .field("priority", &self.priority)
            .field("deadline", &self.deadline)
            .field("overload", &self.overload)
            .field("events", &self.events.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

/// Counters a shard worker reports when it exits (returned by
/// [`Server::shutdown`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Jobs this shard ran to a terminal state (incl. cancelled/failed).
    pub jobs: usize,
    /// Localization rounds this shard executed.
    pub rounds: usize,
    /// Jobs that ended by cancellation on this shard.
    pub cancelled: usize,
    /// Numeric paths this shard *ensured* were warm before running a
    /// hybrid job (the underlying waveform assets are process-wide: the
    /// first shard to check a path pays the build, later shards' checks
    /// are no-ops but still counted here).
    pub warmed_paths: usize,
    /// Jobs this worker stole from sibling shards' intakes.
    pub stolen: usize,
    /// Jobs this worker shed at dequeue because their deadline had
    /// already expired.
    pub shed: usize,
}

/// The receiving end of the server's [`CellUpdate`] stream (an unbounded
/// [`JobQueue`] under the hood — same close-and-drain semantics as the
/// shard intakes).
///
/// Events are delivered in emission order (per job: `CellStarted`, the
/// `RoundCompleted`s, then one terminal event). The stream is unbounded —
/// consumers that fall behind cost memory, not correctness; drain it from
/// a dedicated thread in long-running deployments. Jobs submitted with a
/// per-job sink ([`SubmitOptions::events`]) bypass this stream entirely.
/// After [`Server::shutdown`] the remaining events are still delivered,
/// then [`UpdateStream::recv`] returns `None`.
pub struct UpdateStream {
    events: JobQueue<CellUpdate>,
}

impl UpdateStream {
    /// Blocks until the next event, or `None` once the server has shut
    /// down and every event has been delivered.
    pub fn recv(&self) -> Option<CellUpdate> {
        self.events.pop()
    }
}

/// A job as it sits in a shard's intake queue.
struct QueuedJob {
    id: JobId,
    cell: EvalCell,
    state: Arc<JobState>,
    tenant: String,
    deadline: Option<Instant>,
    sink: Option<UpdateFn>,
}

/// The async localization server: sharded workers behind bounded
/// weighted-fair queues, streaming [`CellUpdate`]s.
///
/// ```
/// use uw_serve::{LocalizationJob, ServeConfig, Server};
/// use uw_eval::ScenarioMatrix;
///
/// let mut matrix = ScenarioMatrix::smoke();
/// matrix.rounds_per_cell = 2;
/// let cell = matrix.expand().unwrap().remove(0);
///
/// let (server, updates) = Server::start(ServeConfig::with_shards(2));
/// let handle = server.submit(LocalizationJob::Cell(cell));
/// let outcome = handle.wait();
/// assert!(outcome.is_completed());
/// server.shutdown();
/// // Drain the stream: started, 2 rounds, finalized.
/// let mut events = Vec::new();
/// while let Some(update) = updates.recv() {
///     events.push(update);
/// }
/// assert_eq!(events.len(), 4);
/// assert!(events.last().unwrap().is_terminal());
/// ```
pub struct Server {
    shards: Vec<FairQueue<QueuedJob>>,
    workers: Vec<std::thread::JoinHandle<ShardStats>>,
    events: JobQueue<CellUpdate>,
    tenants: Arc<TenantRegistry>,
    recordings: RwLock<HashMap<String, Arc<ImportedCampaign>>>,
    next_id: AtomicU64,
}

impl Server {
    /// Spawns the worker pool and returns the server plus the single
    /// consumer handle for its update stream.
    pub fn start(config: ServeConfig) -> (Self, UpdateStream) {
        let n_shards = config.shards.max(1);
        let events: JobQueue<CellUpdate> = JobQueue::unbounded();
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            shards.push(FairQueue::bounded(config.queue_capacity));
        }
        let mut workers = Vec::with_capacity(n_shards);
        for shard in 0..n_shards {
            let own = shards[shard].clone();
            let siblings: Vec<(usize, FairQueue<QueuedJob>)> = shards
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != shard)
                .map(|(i, q)| (i, q.clone()))
                .collect();
            let worker_events = events.clone();
            let handle = std::thread::Builder::new()
                .name(format!("uw-serve-shard-{shard}"))
                .spawn(move || shard_worker(shard, own, siblings, worker_events))
                .expect("spawn shard worker");
            workers.push(handle);
        }
        (
            Self {
                shards,
                workers,
                events: events.clone(),
                tenants: Arc::new(TenantRegistry::new()),
                recordings: RwLock::new(HashMap::new()),
                next_id: AtomicU64::new(0),
            },
            UpdateStream { events },
        )
    }

    /// Installs (or replaces) a tenant's admission and fair-share
    /// configuration. Unconfigured tenants are unlimited at weight 1.
    pub fn configure_tenant(&self, config: TenantConfig) {
        self.tenants.configure(config);
    }

    /// Registers (or replaces) an imported field-recording campaign under
    /// `name`. Wire jobs whose [`JobSpec::recording`] names it are run
    /// against the campaign's recorded audio instead of the simulator;
    /// the audio itself never travels over the wire. Returns the name it
    /// was registered under (the manifest's recording name when `name` is
    /// empty).
    pub fn register_recording(&self, name: &str, campaign: Arc<ImportedCampaign>) -> String {
        let key = if name.is_empty() {
            campaign.manifest.recording.clone()
        } else {
            name.to_string()
        };
        self.recordings
            .write()
            .expect("recording registry poisoned")
            .insert(key.clone(), campaign);
        key
    }

    /// Looks up a registered campaign by name.
    pub fn recording(&self, name: &str) -> Option<Arc<ImportedCampaign>> {
        self.recordings
            .read()
            .expect("recording registry poisoned")
            .get(name)
            .cloned()
    }

    /// Expands a wire spec into a runnable cell, resolving
    /// [`JobSpec::recording`] references through the registry. A
    /// recording job must agree with the registered campaign on every
    /// manifest axis (environment, device count, condition, mobility,
    /// seed, rounds) — only the numeric path selects among the campaign's
    /// cells — so a stale or mistargeted spec fails loudly instead of
    /// silently running someone else's audio.
    pub fn resolve_spec(&self, spec: &JobSpec) -> Result<EvalCell> {
        let name = match &spec.recording {
            None => return spec.to_cell(),
            Some(name) => name,
        };
        let campaign = self
            .recording(name)
            .ok_or_else(|| SystemError::InvalidConfig {
                reason: format!("no recording registered under {name:?}"),
            })?;
        let mut mismatches = Vec::new();
        if spec.environment != campaign.environment {
            mismatches.push("environment");
        }
        if spec.n_devices as usize != campaign.n_devices {
            mismatches.push("n_devices");
        }
        if spec.condition != campaign.condition {
            mismatches.push("condition");
        }
        if spec.mobility != campaign.mobility {
            mismatches.push("mobility");
        }
        if spec.seed != campaign.seed {
            mismatches.push("seed");
        }
        if spec.rounds as usize != campaign.rounds {
            mismatches.push("rounds");
        }
        if spec.fidelity != Fidelity::Hybrid {
            mismatches.push("fidelity");
        }
        if spec.faults.is_some() {
            mismatches.push("faults");
        }
        if !mismatches.is_empty() {
            return Err(SystemError::InvalidConfig {
                reason: format!(
                    "job disagrees with recording {name:?} on: {}",
                    mismatches.join(", ")
                ),
            });
        }
        campaign.cell_with_path(spec.numeric_path)
    }

    /// Submits a job, blocking while the target shard's queue is at
    /// capacity (backpressure — jobs are never dropped). The shard is
    /// chosen by hashing the job's cell id, so identical cells always
    /// land on the same shard and reuse its warmed DSP state. Equivalent
    /// to [`Server::submit_with`] with [`SubmitOptions::default`].
    pub fn submit(&self, job: LocalizationJob) -> JobHandle {
        self.submit_with(job, SubmitOptions::default())
    }

    /// Tenant-aware submission: admission control, priority class,
    /// deadline and overload policy per [`SubmitOptions`]. A rejected
    /// job (admission or [`OverloadPolicy::Shed`]) resolves its handle
    /// to [`JobOutcome::Rejected`] immediately and emits a single
    /// [`CellUpdate::JobRejected`] event.
    pub fn submit_with(&self, job: LocalizationJob, options: SubmitOptions) -> JobHandle {
        let cell = job.into_cell();
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let state = JobState::new();
        let handle = JobHandle::new(id, cell.id.clone(), Arc::clone(&state));
        let tenant = options.tenant.unwrap_or_else(|| DEFAULT_TENANT.to_string());

        let now = Instant::now();
        if let Err(reason) = self.tenants.admit(&tenant, now) {
            self.reject(id, &cell.id, &tenant, reason, &options.events, &state);
            return handle;
        }

        let weight = self.tenants.weight(&tenant);
        let deadline = options.deadline.map(|budget| now + budget);
        let shard = shard_for(&cell.id, self.shards.len());
        let queue = &self.shards[shard];
        let queued = QueuedJob {
            id,
            cell,
            state: Arc::clone(&state),
            tenant: tenant.clone(),
            deadline,
            sink: options.events.clone(),
        };
        match options.overload {
            OverloadPolicy::Block => {
                queue
                    .push(queued, &tenant, options.priority, weight)
                    .unwrap_or_else(|_| unreachable!("shard queues outlive the server handle"));
            }
            OverloadPolicy::Shed => {
                if let Err(rejected) = queue.try_push(queued, &tenant, options.priority, weight) {
                    let reason = RejectReason::Overloaded {
                        queued: queue.len(),
                        capacity: queue.capacity(),
                    };
                    self.reject(
                        rejected.id,
                        &rejected.cell.id,
                        &tenant,
                        reason,
                        &options.events,
                        &state,
                    );
                }
            }
        }
        handle
    }

    /// Emits the rejection event (to the per-job sink if one was given,
    /// else the shared stream) and resolves the handle.
    fn reject(
        &self,
        id: JobId,
        cell_id: &str,
        tenant: &str,
        reason: RejectReason,
        sink: &Option<UpdateFn>,
        state: &Arc<JobState>,
    ) {
        let update = CellUpdate::JobRejected {
            job: id,
            cell_id: cell_id.to_string(),
            tenant: tenant.to_string(),
            reason: reason.clone(),
        };
        match sink {
            Some(f) => f(update),
            None => emit(&self.events, update),
        }
        state.complete(JobOutcome::Rejected(reason));
    }

    /// Graceful shutdown: closes every shard's intake (new submissions
    /// are impossible — `shutdown` consumes the server), waits for all
    /// queued jobs to drain and the workers to exit, then ends the update
    /// stream. Returns per-shard counters.
    pub fn shutdown(mut self) -> Vec<ShardStats> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Vec<ShardStats> {
        for queue in &self.shards {
            queue.close();
        }
        let mut stats = Vec::with_capacity(self.workers.len());
        let mut panicked = 0usize;
        for worker in self.workers.drain(..) {
            match worker.join() {
                Ok(s) => stats.push(s),
                Err(_) => panicked += 1,
            }
        }
        stats.sort_by_key(|s| s.shard);
        self.events.close();
        // A worker panic must surface — but never while another panic is
        // already unwinding (a panic inside Drop would abort the process
        // and mask the original one).
        if panicked > 0 && !std::thread::panicking() {
            panic!("{panicked} shard worker(s) panicked during shutdown");
        }
        stats
    }
}

impl Drop for Server {
    /// Dropping the server without calling [`Server::shutdown`] performs
    /// the same graceful drain, so update streams always terminate.
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_inner();
        }
    }
}

/// Stable cell-id → shard mapping (`DefaultHasher` is deterministic
/// within a process, which is all affinity needs).
fn shard_for(cell_id: &str, n_shards: usize) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    cell_id.hash(&mut hasher);
    (hasher.finish() % n_shards as u64) as usize
}

fn path_slot(path: NumericPath) -> usize {
    match path {
        NumericPath::F64 => 0,
        NumericPath::Q15 => 1,
        NumericPath::F32 => 2,
    }
}

/// Publishes an update to the shared stream. The stream is unbounded
/// (never blocks) and is closed only after every worker has been joined,
/// so emitting from a live worker cannot fail.
fn emit(events: &JobQueue<CellUpdate>, update: CellUpdate) {
    events
        .push(update)
        .unwrap_or_else(|_| unreachable!("update stream closed before workers were joined"));
}

/// One shard's worker loop: pop from its own fair queue (stealing from
/// the most-backlogged sibling when idle) → shed if past deadline → warm
/// assets → step rounds (streaming a `RoundCompleted` per round and
/// honouring cancellation between rounds) → finalize → emit the terminal
/// event and resolve the handle. Exits when every intake is closed and
/// drained.
fn shard_worker(
    shard: usize,
    own: FairQueue<QueuedJob>,
    siblings: Vec<(usize, FairQueue<QueuedJob>)>,
    events: JobQueue<CellUpdate>,
) -> ShardStats {
    let mut stats = ShardStats {
        shard,
        jobs: 0,
        rounds: 0,
        cancelled: 0,
        warmed_paths: 0,
        stolen: 0,
        shed: 0,
    };
    let mut warmed = [false; 3];
    // Steal sweep: siblings ordered most-backlogged first, one job per
    // sweep (taken in the victim's own fair order).
    let steal = |stats: &mut ShardStats| -> Option<QueuedJob> {
        let mut order: Vec<(usize, usize)> = siblings
            .iter()
            .enumerate()
            .map(|(slot, (_, q))| (q.len(), slot))
            .filter(|(len, _)| *len > 0)
            .collect();
        order.sort_by(|a, b| b.cmp(a));
        for (_, slot) in order {
            if let Some(job) = siblings[slot].1.try_pop() {
                stats.stolen += 1;
                return Some(job);
            }
        }
        None
    };
    loop {
        let own_drained;
        let job = match own.pop_timeout(STEAL_IDLE) {
            PopWait::Item(job) => {
                own_drained = false;
                Some(job)
            }
            PopWait::TimedOut => {
                own_drained = false;
                steal(&mut stats)
            }
            PopWait::Drained => {
                own_drained = true;
                steal(&mut stats)
            }
        };
        let Some(job) = job else {
            // Nothing local, nothing stealable. Exit only once the whole
            // pool is closed and drained; otherwise wait out a beat (the
            // own-intake wait already elapsed unless it is drained, in
            // which case pop_timeout returned immediately).
            if own.is_drained() && siblings.iter().all(|(_, q)| q.is_drained()) {
                return stats;
            }
            if own_drained {
                std::thread::sleep(STEAL_IDLE);
            }
            continue;
        };
        stats.jobs += 1;
        let QueuedJob {
            id,
            cell,
            state,
            tenant,
            deadline,
            sink,
        } = job;
        // Route this job's events: per-job sink if the submitter gave
        // one, the shared stream otherwise.
        let send = |update: CellUpdate| match &sink {
            Some(f) => f(update),
            None => emit(&events, update),
        };

        // Deadline shedding happens *here*, at dequeue: the job has cost
        // nothing but queue space so far, and a job whose answer is
        // already stale must not occupy the shard.
        if let Some(deadline) = deadline {
            let now = Instant::now();
            if now >= deadline {
                stats.shed += 1;
                let late_ms = now.saturating_duration_since(deadline).as_millis() as u64;
                let reason = RejectReason::DeadlineExpired { late_ms };
                send(CellUpdate::JobRejected {
                    job: id,
                    cell_id: cell.id.clone(),
                    tenant,
                    reason: reason.clone(),
                });
                state.complete(JobOutcome::Rejected(reason));
                continue;
            }
        }

        // Per-shard waveform-asset affinity: the first hybrid job on a
        // numeric path builds the process-wide preamble assets from this
        // shard, so the cost lands here once instead of inside a round.
        let path = cell.scenario.config().numeric_path;
        if cell.scenario.config().fidelity == Fidelity::Hybrid && !warmed[path_slot(path)] {
            uw_core::waveform::warm_assets(path);
            warmed[path_slot(path)] = true;
            stats.warmed_paths += 1;
        }

        let mut exec = match CellExecution::new(&cell) {
            Ok(exec) => exec,
            Err(e) => {
                send(CellUpdate::JobFailed {
                    job: id,
                    cell_id: cell.id.clone(),
                    reason: e.to_string(),
                });
                state.complete(JobOutcome::Failed(e.to_string()));
                continue;
            }
        };

        // Cancelled while still queued: finalize an empty report without
        // starting the cell.
        if state.is_cancelled() {
            stats.cancelled += 1;
            let partial = exec.finalize();
            send(CellUpdate::JobCancelled {
                job: id,
                partial: partial.clone(),
            });
            state.complete(JobOutcome::Cancelled(partial));
            continue;
        }

        send(CellUpdate::CellStarted {
            job: id,
            cell_id: cell.id.clone(),
            rounds: cell.rounds,
        });
        let mut was_cancelled = false;
        while let Some(summary) = exec.step() {
            stats.rounds += 1;
            send(CellUpdate::RoundCompleted {
                job: id,
                cell_id: cell.id.clone(),
                summary,
            });
            // A cancel that lands during the *final* round must not
            // demote a fully-run cell: its statistics are complete.
            if state.is_cancelled() && !exec.is_complete() {
                was_cancelled = true;
                break;
            }
        }
        let report = exec.finalize();
        if was_cancelled {
            stats.cancelled += 1;
            send(CellUpdate::JobCancelled {
                job: id,
                partial: report.clone(),
            });
            state.complete(JobOutcome::Cancelled(report));
        } else {
            send(CellUpdate::CellFinalized {
                job: id,
                report: report.clone(),
            });
            state.complete(JobOutcome::Completed(report));
        }
    }
}

/// Streams every cell of a matrix through a server and reassembles the
/// deterministic report: submit in expansion order, let shards complete
/// out of order, merge by submission order. The result is byte-identical
/// (`EvalReport::to_json`) to [`uw_eval::run_matrix`] on the same matrix.
///
/// Fails if any cell fails to run (mirroring the batch runner's error
/// propagation).
pub fn serve_matrix(matrix: &ScenarioMatrix, config: ServeConfig) -> Result<EvalReport> {
    let cells = matrix.expand()?;
    let expected = cells.len();
    let (server, updates) = Server::start(config);
    let mut handles = Vec::with_capacity(expected);
    for cell in cells {
        handles.push(server.submit(LocalizationJob::Cell(cell)));
    }
    let mut builder = ReportBuilder::new();
    while builder.terminals() < expected {
        match updates.recv() {
            Some(update) => builder.ingest(&update),
            None => break,
        }
    }
    server.shutdown();
    if let Some((job, reason)) = builder.failures().first() {
        return Err(SystemError::Layer {
            layer: "serve",
            reason: format!("{job} failed: {reason}"),
        });
    }
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for n in 1..5 {
            for id in ["dock/5dev/clear/static/s1", "a", ""] {
                let s = shard_for(id, n);
                assert!(s < n);
                assert_eq!(s, shard_for(id, n));
            }
        }
    }

    #[test]
    fn default_config_is_sane() {
        let c = ServeConfig::default();
        assert!(c.shards >= 1 && c.shards <= 8);
        assert!(c.queue_capacity >= 1);
        assert_eq!(ServeConfig::with_shards(3).shards, 3);
    }

    #[test]
    fn default_options_reproduce_plain_submit() {
        let o = SubmitOptions::default();
        assert!(o.tenant.is_none());
        assert_eq!(o.priority, Priority::Replay);
        assert!(o.deadline.is_none());
        assert_eq!(o.overload, OverloadPolicy::Block);
        assert!(o.events.is_none());
        let t = SubmitOptions::tenant("diver-7", Priority::Live);
        assert_eq!(t.tenant.as_deref(), Some("diver-7"));
        assert_eq!(t.priority, Priority::Live);
    }
}
