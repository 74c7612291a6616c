//! # uw-serve — the async localization serving layer
//!
//! The paper's system localizes a dive network in real time; the matrix
//! engine in [`uw_eval`] runs the same workload as a closed rayon batch.
//! This crate is the architectural split between the two: **computing a
//! cell** (the shared steppable core, [`uw_eval::CellExecution`]) and
//! **running a workload** (this crate's job server) are now separate
//! layers, which is what lets the same execution core serve a streaming
//! front end — localization jobs arriving continuously over a queue, as
//! ranging/messaging rounds do in the authors' companion systems
//! (arXiv:2209.01780, arXiv:2208.10569) — instead of only closed grids.
//!
//! The container this workspace builds in has no registry access, so
//! there is no tokio; the async machinery is hand-rolled from `std` in
//! the spirit of the vendored-deps approach (see `vendor/README.md`):
//!
//! * [`queue`] — [`queue::JobQueue`], a bounded MPMC queue
//!   (`Mutex` + `Condvar`): producers block at capacity (backpressure,
//!   never drops), `close()` drains gracefully.
//! * [`executor`] — [`executor::block_on`], a thread-parking
//!   futures-on-threads executor built on the stable [`std::task::Wake`]
//!   trait; job handles are real `Future`s.
//! * [`job`] — [`job::LocalizationJob`] (a matrix cell, a raw
//!   [`uw_core::Scenario`], or a repeated-session stream),
//!   [`job::JobHandle`] (cancel / wait / `.await`), and the streamed
//!   [`job::CellUpdate`] events: cell started → round completed (one per
//!   localization round, mid-cell) → cell stats finalized.
//! * [`server`] — [`server::Server`]: a sharded worker pool. Jobs route
//!   to shards by cell-id hash (per-shard waveform-asset affinity: a
//!   shard warms the `uw_core::waveform` preamble/plan assets for the
//!   numeric paths it serves), workers honour cooperative cancellation
//!   between rounds, steal from backlogged sibling shards when idle, and
//!   [`server::Server::shutdown`] drains and joins gracefully.
//!   [`server::Server::submit_with`] is the tenant-aware entry point:
//!   priority classes, per-job deadlines (shed at dequeue, never
//!   occupying a shard), and an overload policy (block or shed).
//! * [`tenant`] — multi-tenancy: [`tenant::TenantConfig`] token-bucket
//!   admission control, and [`tenant::FairQueue`], the weighted-fair
//!   strict-priority scheduling queue every shard dequeues through
//!   (live-dive jobs overtake replay; tenants share by weight; a single
//!   tenant degrades to FIFO).
//! * [`wire`] — the versioned binary wire format: length-prefixed
//!   CRC-checked frames ([`wire::encode_frame`] / [`wire::FrameReader`])
//!   carrying jobs as declarative [`wire::JobSpec`] matrix coordinates
//!   and events as mirrors of [`job::CellUpdate`]. Explicit — the
//!   vendored serde is a no-op — and written, like replay's `uwRD`
//!   directory and the `uwCM` manifest, in the shared bounded codec
//!   [`uw_eval::codec`].
//! * [`tcp`] — [`tcp::TcpServer`]: the wire protocol over
//!   `std::net::TcpListener` (one acceptor; per-connection reader/writer
//!   threads; bounded per-connection event queues so a slow client
//!   throttles only its own jobs) and [`tcp::TcpClient`].
//! * [`sink`] — [`sink::ReportBuilder`]: merges out-of-order shard
//!   completions back into submission order. Streaming a matrix through
//!   [`server::serve_matrix`] reconstructs an [`uw_eval::EvalReport`]
//!   **byte-identical** to the batch runner's JSON — a property that
//!   holds through the loopback-TCP path too (pinned by
//!   `crates/serve/tests/tcp_loopback.rs`).
//!
//! Operational semantics (queue sizing, shard tuning, backpressure and
//! cancellation behaviour, shutdown ordering) and the wire-format
//! specification (frame layout, version negotiation, shedding semantics)
//! are documented in `docs/SERVING.md`; the crate-by-crate architecture
//! map is `docs/ARCHITECTURE.md`.
//!
//! ## Example: stream a cell and watch rounds arrive
//!
//! ```
//! use uw_eval::ScenarioMatrix;
//! use uw_serve::{CellUpdate, LocalizationJob, ServeConfig, Server};
//!
//! // The dock headline cell, shortened to 3 rounds.
//! let mut matrix = ScenarioMatrix::smoke();
//! matrix.rounds_per_cell = 3;
//! let cell = matrix.expand().unwrap().remove(0);
//!
//! let (server, updates) = Server::start(ServeConfig::with_shards(2));
//! let handle = server.submit(LocalizationJob::Cell(cell));
//!
//! // Rounds are observable the moment they complete, mid-cell.
//! let mut rounds_seen = 0;
//! loop {
//!     match updates.recv().unwrap() {
//!         CellUpdate::RoundCompleted { summary, .. } => {
//!             assert!(summary.ok);
//!             rounds_seen += 1;
//!         }
//!         CellUpdate::CellFinalized { report, .. } => {
//!             assert_eq!(report.rounds_completed, 3);
//!             break;
//!         }
//!         _ => {}
//!     }
//! }
//! assert_eq!(rounds_seen, 3);
//! assert!(handle.wait().is_completed());
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod job;
pub mod queue;
pub mod server;
pub mod sink;
pub mod tcp;
pub mod tenant;
pub mod wire;

pub use executor::block_on;
pub use job::{CellUpdate, JobHandle, JobId, JobOutcome, LocalizationJob, RejectReason};
pub use queue::JobQueue;
pub use server::{
    serve_matrix, OverloadPolicy, ServeConfig, Server, ShardStats, SubmitOptions, UpdateFn,
    UpdateStream,
};
pub use sink::ReportBuilder;
pub use tcp::{TcpClient, TcpConfig, TcpServer};
pub use tenant::{FairQueue, Priority, TenantConfig, TenantRegistry};
pub use wire::{FrameReader, JobSpec, WireError, WireMessage};
