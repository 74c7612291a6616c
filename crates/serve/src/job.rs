//! Jobs, job handles and the streamed `CellUpdate` events.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use uw_core::prelude::Scenario;
use uw_eval::runner::RoundSummary;
use uw_eval::{CellReport, EvalCell};

/// Identifier of a submitted job, assigned monotonically at submission.
/// Ordering job ids recovers submission order, which is how the sink
/// merges out-of-order shard completions back into a deterministic report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// A unit of localization work accepted by the server.
#[derive(Debug, Clone)]
pub enum LocalizationJob {
    /// One expanded matrix cell, run for its configured number of rounds.
    Cell(EvalCell),
    /// An ad-hoc [`Scenario`] run for a fixed number of rounds (wrapped
    /// into a cell via [`EvalCell::from_scenario`]).
    Scenario {
        /// The deployment to localize.
        scenario: Scenario,
        /// Localization rounds to run.
        rounds: usize,
    },
    /// A repeated-session stream: rounds arrive continuously (as in the
    /// companion ranging/messaging systems) until `max_rounds` or
    /// cancellation — cancellation is the *expected* way such a stream
    /// ends, and still finalizes partial statistics.
    Stream {
        /// The deployment to localize.
        scenario: Scenario,
        /// Upper bound on rounds (a safety stop for unattended streams).
        max_rounds: usize,
    },
}

/// Why the server refused to run a job. Rejections are *structured* —
/// clients and sinks can tell an admission-control denial (retry later,
/// slower) from a deadline miss (the answer is stale, don't retry) from
/// overload shedding (the cluster is saturated, back off) without
/// parsing strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's token bucket was empty at submission: the tenant is
    /// over its configured rate/burst. The job never entered a queue.
    AdmissionDenied {
        /// The throttled tenant.
        tenant: String,
    },
    /// The job's deadline passed while it was still queued. A worker
    /// dequeued it, observed the expiry and shed it without running a
    /// single round — a dead job never occupies a shard.
    DeadlineExpired {
        /// How far past the deadline it was when shed, in milliseconds.
        late_ms: u64,
    },
    /// The target queue was full and the job was submitted with
    /// [`crate::server::OverloadPolicy::Shed`]: deterministic load
    /// shedding instead of blocking backpressure.
    Overloaded {
        /// Jobs queued at the moment of rejection.
        queued: usize,
        /// The queue's capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::AdmissionDenied { tenant } => {
                write!(f, "admission denied: tenant {tenant} over rate limit")
            }
            RejectReason::DeadlineExpired { late_ms } => {
                write!(f, "deadline expired {late_ms} ms before a shard was free")
            }
            RejectReason::Overloaded { queued, capacity } => {
                write!(f, "overloaded: {queued}/{capacity} jobs queued")
            }
        }
    }
}

impl LocalizationJob {
    /// The cell id / scenario name this job will report under.
    pub fn cell_id(&self) -> &str {
        match self {
            LocalizationJob::Cell(cell) => &cell.id,
            LocalizationJob::Scenario { scenario, .. }
            | LocalizationJob::Stream { scenario, .. } => scenario.name(),
        }
    }

    /// Converts the job into the cell the execution core runs.
    pub(crate) fn into_cell(self) -> EvalCell {
        match self {
            LocalizationJob::Cell(cell) => cell,
            LocalizationJob::Scenario { scenario, rounds } => {
                EvalCell::from_scenario(scenario, rounds)
            }
            LocalizationJob::Stream {
                scenario,
                max_rounds,
            } => EvalCell::from_scenario(scenario, max_rounds),
        }
    }
}

/// One event of a job's progress stream.
///
/// Every job emits `CellStarted`, then one `RoundCompleted` per round,
/// then exactly one terminal event (`CellFinalized`, `JobCancelled`,
/// `JobFailed` or `JobRejected` — a rejected job emits *only* the
/// rejection). Events of a single job are totally ordered; events of
/// different jobs interleave arbitrarily (shards complete out of order —
/// the [`crate::sink::ReportBuilder`] restores submission order).
///
/// ```
/// use uw_serve::CellUpdate;
/// use uw_serve::job::JobId;
///
/// # fn classify(update: &CellUpdate) -> &'static str {
/// match update {
///     CellUpdate::CellStarted { .. } => "started",
///     CellUpdate::RoundCompleted { .. } => "round",
///     CellUpdate::CellFinalized { .. } => "done",
///     CellUpdate::JobCancelled { .. } => "cancelled",
///     CellUpdate::JobFailed { .. } => "failed",
///     CellUpdate::JobRejected { .. } => "rejected",
/// }
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum CellUpdate {
    /// A worker picked the job up and is about to run its first round.
    CellStarted {
        /// The job.
        job: JobId,
        /// Cell id it reports under.
        cell_id: String,
        /// Rounds the job is configured to run.
        rounds: usize,
    },
    /// One localization round finished (successfully or not — see
    /// [`RoundSummary::ok`]).
    RoundCompleted {
        /// The job.
        job: JobId,
        /// Cell id it reports under.
        cell_id: String,
        /// What the round produced.
        summary: RoundSummary,
    },
    /// Every round ran; the cell's statistics are final.
    CellFinalized {
        /// The job.
        job: JobId,
        /// The finalized per-cell report (identical to the batch runner's).
        report: CellReport,
    },
    /// The job was cancelled; `partial` aggregates the rounds that ran
    /// before cancellation took effect (possibly zero).
    JobCancelled {
        /// The job.
        job: JobId,
        /// Statistics over the rounds that completed before cancellation.
        partial: CellReport,
    },
    /// The job could not run (e.g. an invalid scenario configuration).
    JobFailed {
        /// The job.
        job: JobId,
        /// Cell id it reports under.
        cell_id: String,
        /// Why it failed.
        reason: String,
    },
    /// The server refused to run the job (admission control, deadline
    /// expiry, or overload shedding). Emitted as the job's *only* event:
    /// a rejected job never starts, so there is no `CellStarted` before
    /// it and no rounds after.
    JobRejected {
        /// The job.
        job: JobId,
        /// Cell id it would have reported under.
        cell_id: String,
        /// The tenant that submitted it.
        tenant: String,
        /// The structured rejection.
        reason: RejectReason,
    },
}

impl CellUpdate {
    /// The job this event belongs to.
    pub fn job(&self) -> JobId {
        match self {
            CellUpdate::CellStarted { job, .. }
            | CellUpdate::RoundCompleted { job, .. }
            | CellUpdate::CellFinalized { job, .. }
            | CellUpdate::JobCancelled { job, .. }
            | CellUpdate::JobFailed { job, .. }
            | CellUpdate::JobRejected { job, .. } => *job,
        }
    }

    /// Whether this is a job's terminal event (finalized / cancelled /
    /// failed / rejected — exactly one per job).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            CellUpdate::CellFinalized { .. }
                | CellUpdate::JobCancelled { .. }
                | CellUpdate::JobFailed { .. }
                | CellUpdate::JobRejected { .. }
        )
    }
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// All rounds ran; the report is complete.
    Completed(CellReport),
    /// Cancelled mid-cell; the report covers the rounds that ran.
    Cancelled(CellReport),
    /// The job never produced a report.
    Failed(String),
    /// The server refused to run the job (see [`RejectReason`]); not a
    /// single round ran.
    Rejected(RejectReason),
}

impl JobOutcome {
    /// The report, if the job produced one (complete or partial).
    pub fn report(&self) -> Option<&CellReport> {
        match self {
            JobOutcome::Completed(r) | JobOutcome::Cancelled(r) => Some(r),
            JobOutcome::Failed(_) | JobOutcome::Rejected(_) => None,
        }
    }

    /// Whether the job ran every requested round.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed(_))
    }
}

/// A one-shot value: set once by a worker, waited for by any thread.
struct Completion<T> {
    value: Mutex<Option<T>>,
    ready: Condvar,
}

impl<T: Clone> Completion<T> {
    fn new() -> Self {
        Self {
            value: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// Resolves the completion and wakes every waiter. Later calls are
    /// ignored (first value wins).
    fn set(&self, value: T) {
        let mut slot = self.value.lock().expect("completion lock");
        if slot.is_none() {
            *slot = Some(value);
            self.ready.notify_all();
        }
    }

    /// Blocks the calling thread until the completion resolves.
    fn wait(&self) -> T {
        let mut slot = self.value.lock().expect("completion lock");
        loop {
            if let Some(value) = &*slot {
                return value.clone();
            }
            slot = self.ready.wait(slot).expect("completion lock");
        }
    }

    /// Whether the completion has resolved.
    fn is_set(&self) -> bool {
        self.value.lock().expect("completion lock").is_some()
    }
}

/// Shared state between a [`JobHandle`] and the worker running the job.
pub(crate) struct JobState {
    cancelled: AtomicBool,
    outcome: Completion<JobOutcome>,
}

impl JobState {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            cancelled: AtomicBool::new(false),
            outcome: Completion::new(),
        })
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    pub(crate) fn complete(&self, outcome: JobOutcome) {
        self.outcome.set(outcome);
    }
}

/// A handle to a submitted job: cancel it, or block until it resolves.
pub struct JobHandle {
    id: JobId,
    cell_id: String,
    state: Arc<JobState>,
}

impl JobHandle {
    pub(crate) fn new(id: JobId, cell_id: String, state: Arc<JobState>) -> Self {
        Self { id, cell_id, state }
    }

    /// The job's id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The cell id the job reports under.
    pub fn cell_id(&self) -> &str {
        &self.cell_id
    }

    /// Requests cooperative cancellation. The worker observes the flag
    /// between rounds: the in-flight round always finishes, later rounds
    /// do not start, and the job resolves to [`JobOutcome::Cancelled`]
    /// with the partial statistics. Cancelling a job that already
    /// finished — or one still queued — is safe; a queued job is dropped
    /// when a worker dequeues it.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Release);
    }

    /// Whether the job has resolved.
    pub fn is_finished(&self) -> bool {
        self.state.outcome.is_set()
    }

    /// Blocks the calling thread until the job resolves.
    pub fn wait(&self) -> JobOutcome {
        self.state.outcome.wait()
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("cell_id", &self.cell_id)
            .field("finished", &self.is_finished())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_order_by_submission() {
        assert!(JobId(1) < JobId(2));
        assert_eq!(JobId(3).to_string(), "job-3");
    }

    #[test]
    fn jobs_expose_their_cell_id() {
        let scenario = Scenario::dock_five_devices(1);
        let name = scenario.name().to_string();
        let job = LocalizationJob::Scenario {
            scenario,
            rounds: 3,
        };
        assert_eq!(job.cell_id(), name);
        let cell = job.into_cell();
        assert_eq!(cell.rounds, 3);
        assert_eq!(cell.n_devices, 5);
    }

    #[test]
    fn handles_resolve_through_the_shared_state() {
        let state = JobState::new();
        let handle = JobHandle::new(JobId(1), "x".into(), Arc::clone(&state));
        assert!(!handle.is_finished());
        handle.cancel();
        assert!(state.is_cancelled());
        state.complete(JobOutcome::Failed("nope".into()));
        assert!(handle.is_finished());
        assert_eq!(handle.wait(), JobOutcome::Failed("nope".into()));
    }

    #[test]
    fn wait_blocks_until_set_and_first_value_wins() {
        let completion = Arc::new(Completion::new());
        assert!(!completion.is_set());
        let setter = Arc::clone(&completion);
        let worker = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            setter.set(1);
            setter.set(2); // ignored
        });
        assert_eq!(completion.wait(), 1);
        worker.join().unwrap();
        assert_eq!(completion.wait(), 1);
        assert!(completion.is_set());
    }
}
