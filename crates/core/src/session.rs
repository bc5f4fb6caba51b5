//! The streaming session API: pluggable event sources and the unified
//! engine trait.
//!
//! The paper's defining property is that a synthetic database is published
//! **at every timestamp** of an infinite stream (§III-D, Algorithm 1).
//! This module shapes the public API around that deployment pattern:
//!
//! - an [`EventSource`] hands the engine one batch of [`UserEvent`]s per
//!   timestamp — from a prebuilt [`EventTimeline`], an iterator, a
//!   closure, or a bounded channel fed by a live producer thread;
//! - a [`StreamingEngine`] ingests each batch with
//!   [`step`](StreamingEngine::step), exposes the current synthetic
//!   database between steps as a borrowed, zero-copy
//!   [`snapshot`](StreamingEngine::snapshot), and
//!   [`release`](StreamingEngine::release)s the accumulated database —
//!   mid-stream or at the horizon — without consuming the engine;
//! - [`drive`](StreamingEngine::drive) wires a source to an engine, so
//!   batch mode (`run(&dataset)`) is just the special case of driving a
//!   [`TimelineSource`] derived from a recorded dataset.
//!
//! Both [`RetraSyn`](crate::RetraSyn) and the
//! [`LdpIds`](crate::baselines::LdpIds) baselines implement
//! [`StreamingEngine`], so benchmarks, metrics and deployment glue are
//! written once, generically.
//!
//! ```
//! use retrasyn_core::{RetraSyn, RetraSynConfig, StreamingEngine, TimelineSource};
//! use retrasyn_geo::Grid;
//! use rand::{rngs::StdRng, SeedableRng};
//! # use retrasyn_datagen::RandomWalkConfig;
//! # let dataset = RandomWalkConfig { users: 50, timestamps: 10, ..Default::default() }
//! #     .generate(&mut StdRng::seed_from_u64(1));
//! let grid = Grid::unit(4);
//! let gridded = dataset.discretize(&grid);
//! let mut engine =
//!     RetraSyn::population_division(RetraSynConfig::new(1.0, 5), grid, 7);
//! let mut source = TimelineSource::from_gridded(&gridded);
//! // Ingest one timestamp at a time; observe the live database in between.
//! use retrasyn_core::EventSource;
//! while let Some(batch) = source.next_batch() {
//!     let outcome = engine.step(engine.next_timestamp(), batch);
//!     let snapshot = engine.snapshot(); // borrowed, zero-copy
//!     assert_eq!(snapshot.active_count(), outcome.active);
//! }
//! let released = engine.release();
//! assert_eq!(released.horizon(), gridded.horizon());
//! ```

use crate::pool::PoolError;
use crate::store::SnapshotView;
use crate::wal::{Recovery, WalError};
use retrasyn_geo::{
    EventTimeline, GriddedDataset, StreamDataset, Topology, TransitionState, TransitionTable,
    UserEvent,
};
use retrasyn_ldp::WEventLedger;
use std::fmt;
use std::path::Path;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SendError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

/// Why a single [`UserEvent`] was rejected — the shared vocabulary of the
/// engines' hard validation ([`StreamingEngine::try_step`]) and the
/// [`ValidatedSource`](crate::ingest::ValidatedSource) screening layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventFault {
    /// A cell index outside the engine's compiled discretization.
    OutOfDomain,
    /// A `Move` between two cells that are not adjacent in the topology.
    NonAdjacentMove,
    /// A second report from the same user within one batch.
    DuplicateReporter,
    /// A `Move` or `Quit` from a user that never entered the stream.
    NotEntered,
    /// An `Enter` from a user that is already active.
    ReEnter,
}

impl fmt::Display for EventFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EventFault::OutOfDomain => "cell outside the discretization",
            EventFault::NonAdjacentMove => "movement between non-adjacent cells",
            EventFault::DuplicateReporter => "duplicate report from one user in a single batch",
            EventFault::NotEntered => "report from a user that never entered the stream",
            EventFault::ReEnter => "re-entry of an already active user",
        })
    }
}

/// Typed failure of a fallible session operation
/// ([`try_step`](StreamingEngine::try_step) /
/// [`try_release`](StreamingEngine::try_release) /
/// [`try_run_gridded`](StreamingEngine::try_run_gridded)).
///
/// The panicking wrappers (`step`, `release`, `run_gridded`) panic with
/// exactly the [`Display`](fmt::Display) rendering of these variants, so
/// pre-existing callers observe the same messages they always did.
///
/// Variants split into two classes. *Pre-state* errors
/// ([`TimestampGap`](Self::TimestampGap),
/// [`TimestampRegression`](Self::TimestampRegression),
/// [`Released`](Self::Released), [`TopologyMismatch`](Self::TopologyMismatch),
/// [`MidSession`](Self::MidSession), [`InvalidEvent`](Self::InvalidEvent))
/// are detected *before* any engine state mutates: the session is untouched
/// and further steps may proceed. *Mid-step* errors
/// ([`Collection`](Self::Collection), [`Pool`](Self::Pool)) leave the
/// engine in an unspecified state — recover the session from its WAL
/// (e.g. via a [`Supervisor`](crate::supervise::Supervisor)) or
/// [`reset`](StreamingEngine::reset) it.
#[derive(Debug)]
pub enum SessionError {
    /// The step's timestamp is ahead of the expected consecutive timestamp.
    TimestampGap {
        /// The timestamp the engine expected ([`StreamingEngine::next_timestamp`]).
        expected: u64,
        /// The timestamp the caller supplied.
        got: u64,
    },
    /// The step's timestamp is behind the expected consecutive timestamp.
    TimestampRegression {
        /// The timestamp the engine expected ([`StreamingEngine::next_timestamp`]).
        expected: u64,
        /// The timestamp the caller supplied.
        got: u64,
    },
    /// The session was already released; `reset()` starts a new one.
    Released,
    /// A dataset's discretization does not match the engine's topology.
    TopologyMismatch {
        /// Descriptor of the engine's compiled topology.
        expected: String,
        /// Descriptor of the dataset's discretization.
        got: String,
    },
    /// A full-dataset replay was requested on an engine that is not fresh.
    MidSession {
        /// The timestamp the engine would ingest next.
        next: u64,
    },
    /// A batch contained an event that fails hard validation. Detected
    /// before any state mutates — the offending batch was not ingested.
    InvalidEvent {
        /// The timestamp of the offending batch.
        t: u64,
        /// The reporting user.
        user: u64,
        /// What was wrong with the event.
        fault: EventFault,
    },
    /// The LDP collection round failed mid-step.
    Collection {
        /// The underlying mechanism error.
        detail: String,
    },
    /// A worker pool died mid-step (a worker panicked or hung up). The
    /// owning engine drops the poisoned pool; a fresh one is spawned on
    /// the next parallel step after recovery.
    Pool(PoolError),
    /// A checkpoint could not be written or restored.
    Checkpoint {
        /// The underlying failure.
        detail: String,
    },
    /// A WAL operation failed while the session was being persisted or
    /// recovered.
    Wal(WalError),
}

impl SessionError {
    /// Classify a non-consecutive timestamp as gap (ahead) or regression
    /// (behind).
    pub(crate) fn timestamp(expected: u64, got: u64) -> Self {
        if got > expected {
            SessionError::TimestampGap { expected, got }
        } else {
            SessionError::TimestampRegression { expected, got }
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::TimestampGap { expected, got } => write!(
                f,
                "timestamps must be consecutive from 0: expected {expected}, got {got} (gap)"
            ),
            SessionError::TimestampRegression { expected, got } => write!(
                f,
                "timestamps must be consecutive from 0: expected {expected}, got {got} (regression)"
            ),
            SessionError::Released => f.write_str(
                "engine already released its session; call reset() to start a new stream",
            ),
            SessionError::TopologyMismatch { expected, got } => write!(
                f,
                "dataset discretization mismatch: engine compiled {expected}, dataset carries {got}"
            ),
            SessionError::MidSession { next } => write!(
                f,
                "run replays a dataset from t = 0 but the engine is mid-session or \
                 already released (next timestamp {next}); call reset() to start a fresh \
                 session (or feed the remaining batches through drive())"
            ),
            SessionError::InvalidEvent { t, user, fault } => {
                write!(f, "invalid event at t = {t} from user {user}: {fault}")
            }
            SessionError::Collection { detail } => write!(f, "collection round failed: {detail}"),
            SessionError::Pool(e) => write!(f, "{e}"),
            SessionError::Checkpoint { detail } => write!(f, "checkpoint failure: {detail}"),
            SessionError::Wal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Pool(e) => Some(e),
            SessionError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PoolError> for SessionError {
    fn from(e: PoolError) -> Self {
        SessionError::Pool(e)
    }
}

impl From<WalError> for SessionError {
    fn from(e: WalError) -> Self {
        SessionError::Wal(e)
    }
}

/// Hard per-event validation shared by every engine's
/// [`try_step`](StreamingEngine::try_step), fused with resolving each
/// event's state to its dense index in `table`: cell indices must lie
/// inside the compiled topology and `Move`s must connect adjacent cells.
/// On `Ok`, `resolved[i]` is the domain index of `events[i]`.
///
/// Runs as a pure pre-pass — before any engine state (timestamps,
/// registries, RNG streams) mutates — so a failed batch leaves the
/// session untouched and steppable; `resolved` is scratch and holds a
/// prefix on `Err`.
///
/// Lifecycle faults (duplicates, moves of never-entered users) are *not*
/// checked here: the engines tolerate them by construction, and the
/// [`ValidatedSource`](crate::ingest::ValidatedSource) screening layer
/// handles them at the ingest boundary.
pub(crate) fn resolve_events(
    table: &TransitionTable,
    t: u64,
    events: &[UserEvent],
    resolved: &mut Vec<usize>,
) -> Result<(), SessionError> {
    let cells = table.num_cells();
    resolved.clear();
    resolved.reserve(events.len());
    for e in events {
        let index = match e.state {
            TransitionState::Move { from, to } => {
                if from.index() >= cells || to.index() >= cells {
                    Err(EventFault::OutOfDomain)
                } else {
                    // Each block's targets ascend, so a hit's position in
                    // the block is the move's offset from the block start.
                    let block = table.move_block(from);
                    table
                        .move_targets(from)
                        .binary_search(&to)
                        .map(|pos| block.start + pos)
                        .map_err(|_| EventFault::NonAdjacentMove)
                }
            }
            TransitionState::Enter(c) if c.index() < cells => Ok(table.enter_index(c)),
            TransitionState::Quit(c) if c.index() < cells => Ok(table.quit_index(c)),
            TransitionState::Enter(_) | TransitionState::Quit(_) => Err(EventFault::OutOfDomain),
        };
        match index {
            Ok(index) => resolved.push(index),
            Err(fault) => return Err(SessionError::InvalidEvent { t, user: e.user, fault }),
        }
    }
    Ok(())
}

/// What one completed [`StreamingEngine::step`] reports back to the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// The timestamp that was just ingested.
    pub t: u64,
    /// Live synthetic streams after the step.
    pub active: usize,
    /// Synthetic streams terminated so far (live + finished is the size of
    /// the database a release at this point would contain).
    pub finished: usize,
}

/// A per-timestamp feed of transition events — the engine-facing shape of
/// "users report their states at every timestamp" (Algorithm 1 line 1).
///
/// A source yields batches for *consecutive* timestamps: the `n`-th call to
/// [`next_batch`](EventSource::next_batch) is the event batch the driving
/// engine ingests at its `n`-th step. `None` ends the stream. Sources may
/// block (e.g. [`ChannelSource`] waits for a live producer), so the engine
/// never needs a materialized dataset.
pub trait EventSource {
    /// The next timestamp's batch, or `None` when the stream ends. The
    /// returned slice borrows the source's internal buffer and is valid
    /// until the next call.
    fn next_batch(&mut self) -> Option<&[UserEvent]>;
}

/// Forwarding impl so `drive(&mut source)` can resume the same source later
/// (e.g. alternate between driving and manual stepping).
impl<S: EventSource + ?Sized> EventSource for &mut S {
    fn next_batch(&mut self) -> Option<&[UserEvent]> {
        (**self).next_batch()
    }
}

/// [`EventSource`] over a prebuilt [`EventTimeline`] — the batch-mode
/// adapter: replays a recorded dataset one timestamp at a time.
#[derive(Debug, Clone)]
pub struct TimelineSource {
    timeline: EventTimeline,
    next: u64,
}

impl TimelineSource {
    /// Replay `timeline` from timestamp 0.
    pub fn new(timeline: EventTimeline) -> Self {
        TimelineSource { timeline, next: 0 }
    }

    /// Derive the timeline of a discretized dataset and replay it.
    pub fn from_gridded(dataset: &GriddedDataset) -> Self {
        Self::new(EventTimeline::build(dataset))
    }
}

impl EventSource for TimelineSource {
    fn next_batch(&mut self) -> Option<&[UserEvent]> {
        if self.next >= self.timeline.horizon() {
            return None;
        }
        let batch = self.timeline.at(self.next);
        self.next += 1;
        Some(batch)
    }
}

/// [`EventSource`] over any iterator of per-timestamp batches (e.g. a
/// decoder yielding one `Vec<UserEvent>` per tick).
#[derive(Debug)]
pub struct IterSource<I> {
    iter: I,
    buf: Vec<UserEvent>,
}

impl<I> IterSource<I>
where
    I: Iterator<Item = Vec<UserEvent>>,
{
    /// Wrap an iterator of batches.
    pub fn new(iter: I) -> Self {
        IterSource { iter, buf: Vec::new() }
    }
}

impl<I> EventSource for IterSource<I>
where
    I: Iterator<Item = Vec<UserEvent>>,
{
    fn next_batch(&mut self) -> Option<&[UserEvent]> {
        self.buf = self.iter.next()?;
        Some(&self.buf)
    }
}

/// [`EventSource`] backed by a closure `FnMut(u64) -> Option<Vec<UserEvent>>`
/// called with the 0-based batch index — the lightest way to synthesize a
/// live feed ("at tick `t`, these users report …").
#[derive(Debug)]
pub struct FnSource<F> {
    f: F,
    t: u64,
    buf: Vec<UserEvent>,
}

impl<F> FnSource<F>
where
    F: FnMut(u64) -> Option<Vec<UserEvent>>,
{
    /// Wrap a batch-producing closure.
    pub fn new(f: F) -> Self {
        FnSource { f, t: 0, buf: Vec::new() }
    }
}

impl<F> EventSource for FnSource<F>
where
    F: FnMut(u64) -> Option<Vec<UserEvent>>,
{
    fn next_batch(&mut self) -> Option<&[UserEvent]> {
        self.buf = (self.f)(self.t)?;
        self.t += 1;
        Some(&self.buf)
    }
}

/// [`EventSource`] over a bounded channel: a producer thread (collector
/// frontend, network ingest, simulator) sends one `Vec<UserEvent>` per
/// timestamp and the engine consumes them in order, blocking when the
/// producer is slower and back-pressuring it when the engine is. Dropping
/// the sender ends the stream.
///
/// [`ChannelSource::bounded`] allocates one `Vec` per batch on the
/// producer side; [`ChannelSource::recycling`] adds a return channel that
/// sends consumed batch buffers back to the producer, so a long-lived
/// session reaches a steady state of zero allocations per batch.
#[derive(Debug)]
pub struct ChannelSource {
    rx: Receiver<Vec<UserEvent>>,
    buf: Vec<UserEvent>,
    /// Return channel for consumed buffers (the recycling variant).
    ret: Option<SyncSender<Vec<UserEvent>>>,
    /// How long to wait for a producer before invoking the stall policy.
    deadline: Option<Duration>,
    /// What a deadline expiry does to the stream.
    stall: StallPolicy,
    /// How many deadlines have expired so far.
    stalls: u64,
}

/// What a [`ChannelSource`] with a deadline does when the producer misses
/// it (no batch arrives within the configured window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StallPolicy {
    /// Synthesize an empty heartbeat batch: the engine steps the timestamp
    /// with zero reports (every active synthetic stream extends from the
    /// unchanged model) and the stream keeps its consecutive-timestamp
    /// contract. A producer that wakes back up resumes seamlessly — its
    /// batches simply land at later timestamps.
    #[default]
    Heartbeat,
    /// End the stream (as if the producer hung up): `next_batch` returns
    /// `None`, and the driver releases whatever was synthesized so far.
    EndStream,
}

impl ChannelSource {
    /// A bounded channel holding at most `capacity` in-flight batches;
    /// returns the producer handle and the source.
    pub fn bounded(capacity: usize) -> (SyncSender<Vec<UserEvent>>, ChannelSource) {
        let (tx, rx) = std::sync::mpsc::sync_channel(capacity);
        (tx, ChannelSource::new(rx, None))
    }

    /// Like [`ChannelSource::bounded`], but consumed batch buffers flow
    /// back to the producer through a return channel: ask the
    /// [`BatchSender`] for a [`buffer`](BatchSender::buffer), fill it, and
    /// [`send`](BatchSender::send) it. Once the pipeline is warm every
    /// batch reuses a previously sent allocation.
    pub fn recycling(capacity: usize) -> (BatchSender, ChannelSource) {
        let (tx, rx) = std::sync::mpsc::sync_channel(capacity);
        // One extra slot so the consumer's return of batch n never blocks
        // while the producer still holds slot capacity.
        let (ret_tx, ret_rx) = std::sync::mpsc::sync_channel(capacity + 1);
        (BatchSender { tx, pool: ret_rx }, ChannelSource::new(rx, Some(ret_tx)))
    }

    fn new(rx: Receiver<Vec<UserEvent>>, ret: Option<SyncSender<Vec<UserEvent>>>) -> Self {
        ChannelSource {
            rx,
            buf: Vec::new(),
            ret,
            deadline: None,
            stall: StallPolicy::default(),
            stalls: 0,
        }
    }

    /// Bound how long the engine waits for the producer: if no batch
    /// arrives within `deadline`, apply `policy` (synthesize an empty
    /// heartbeat batch, or end the stream) instead of blocking forever on
    /// a wedged producer. Composes with both the
    /// [`bounded`](ChannelSource::bounded) and
    /// [`recycling`](ChannelSource::recycling) constructors.
    pub fn with_deadline(mut self, deadline: Duration, policy: StallPolicy) -> Self {
        self.deadline = Some(deadline);
        self.stall = policy;
        self
    }

    /// How many producer deadlines have expired so far (each one either
    /// produced a heartbeat batch or ended the stream, per the policy).
    pub fn stalls(&self) -> u64 {
        self.stalls
    }
}

impl EventSource for ChannelSource {
    fn next_batch(&mut self) -> Option<&[UserEvent]> {
        // Recycle the previous batch's buffer before blocking on the next
        // one. `try_send` so a slow (or gone) producer can never wedge the
        // engine — worst case the buffer is simply dropped.
        if let Some(ret) = &self.ret {
            if self.buf.capacity() > 0 {
                let mut spare = std::mem::take(&mut self.buf);
                spare.clear();
                if let Err(TrySendError::Full(b) | TrySendError::Disconnected(b)) =
                    ret.try_send(spare)
                {
                    drop(b);
                }
            }
        }
        match self.deadline {
            None => self.buf = self.rx.recv().ok()?,
            Some(deadline) => match self.rx.recv_timeout(deadline) {
                Ok(batch) => self.buf = batch,
                Err(RecvTimeoutError::Disconnected) => return None,
                Err(RecvTimeoutError::Timeout) => {
                    self.stalls += 1;
                    match self.stall {
                        StallPolicy::Heartbeat => self.buf.clear(),
                        StallPolicy::EndStream => return None,
                    }
                }
            },
        }
        Some(&self.buf)
    }
}

/// Producer handle of [`ChannelSource::recycling`]: a bounded batch sender
/// plus the pool of buffers the consumer has handed back.
#[derive(Debug)]
pub struct BatchSender {
    tx: SyncSender<Vec<UserEvent>>,
    pool: Receiver<Vec<UserEvent>>,
}

impl BatchSender {
    /// An empty batch buffer: a recycled one if the consumer has returned
    /// any, otherwise fresh. The buffer arrives cleared with its capacity
    /// intact.
    pub fn buffer(&self) -> Vec<UserEvent> {
        self.pool.try_recv().unwrap_or_default()
    }

    /// Send the batch for the next timestamp, blocking while the channel
    /// is at capacity. Fails only when the consumer is gone.
    pub fn send(&self, batch: Vec<UserEvent>) -> Result<(), SendError<Vec<UserEvent>>> {
        self.tx.send(batch)
    }
}

/// The unified streaming interface of every synthesis engine
/// ([`RetraSyn`](crate::RetraSyn) and the four
/// [`LdpIds`](crate::baselines::LdpIds) baselines).
///
/// A session is: zero or more [`step`](Self::step)s at consecutive
/// timestamps, with [`snapshot`](Self::snapshot) available between any two
/// of them, ended by one [`release`](Self::release). After a release the
/// engine refuses further steps with a descriptive panic until
/// [`reset`](Self::reset) begins a new session (re-seeded, so an identical
/// replay produces an identical release).
///
/// Batch mode is a special case: [`run`](Self::run) /
/// [`run_gridded`](Self::run_gridded) replay a recorded dataset through
/// [`drive`](Self::drive) with a [`TimelineSource`].
pub trait StreamingEngine {
    /// The compiled spatial discretization this engine synthesizes over —
    /// a uniform grid, a quad tree, or any other space compiled into a
    /// [`Topology`].
    fn topology(&self) -> &Arc<Topology>;

    /// The timestamp the next [`step`](Self::step) must carry (0 for a
    /// fresh engine; timestamps are consecutive within a session).
    fn next_timestamp(&self) -> u64;

    /// Ingest the event batch of timestamp `t` and advance the synthetic
    /// database by one timestamp.
    ///
    /// Fails with a typed [`SessionError`] instead of panicking: on a
    /// *pre-state* error (wrong timestamp, released session, invalid
    /// event) the engine is untouched and remains steppable; on a
    /// *mid-step* error (collection / pool failure) the session state is
    /// unspecified and must be recovered or [`reset`](Self::reset) — see
    /// the [`SessionError`] variant docs for the classification.
    ///
    /// Validation of the batch itself is a pure pre-pass (no RNG is
    /// consumed, no state mutates), so for well-formed input `try_step` is
    /// bit-identical to what [`step`](Self::step) always did.
    fn try_step(&mut self, t: u64, events: &[UserEvent]) -> Result<StepOutcome, SessionError>;

    /// Ingest the event batch of timestamp `t` and advance the synthetic
    /// database by one timestamp — the panicking wrapper over
    /// [`try_step`](Self::try_step).
    ///
    /// # Panics
    ///
    /// If `t` is not [`next_timestamp`](Self::next_timestamp), if the
    /// session was already released (call [`reset`](Self::reset) first),
    /// or on any other [`SessionError`] — the panic message is the error's
    /// [`Display`](std::fmt::Display) rendering.
    fn step(&mut self, t: u64, events: &[UserEvent]) -> StepOutcome {
        match self.try_step(t, events) {
            Ok(outcome) => outcome,
            // xtask:allow(ERR001, documented panicking wrapper; callers needing errors use the try_* twin and the message is should_panic-pinned)
            Err(e) => panic!("{e}"),
        }
    }

    /// Borrowed, zero-copy view of the synthetic database as of the last
    /// completed step — the per-timestamp release of Algorithm 1. Reading
    /// it is post-processing (Theorem 2): no additional privacy cost.
    ///
    /// # Panics
    ///
    /// If the session was already released — the streams moved out with
    /// the release, so an empty view here would misread as a population
    /// collapse.
    fn snapshot(&self) -> SnapshotView<'_>;

    /// Terminate the session and hand out everything synthesized so far as
    /// an id-sorted [`GriddedDataset`] with horizon
    /// [`next_timestamp`](Self::next_timestamp). Zero-copy (the cells move
    /// out of the engine's store) and callable mid-stream; afterwards the
    /// engine is in the *released* state: `step`/`snapshot`/`release`
    /// refuse until [`reset`](Self::reset), while plain accessors (ledger,
    /// topology, timings) keep reporting the closed session.
    ///
    /// Fails with [`SessionError::Released`] if the session was already
    /// released.
    fn try_release(&mut self) -> Result<GriddedDataset, SessionError>;

    /// Terminate the session — the panicking wrapper over
    /// [`try_release`](Self::try_release).
    ///
    /// # Panics
    ///
    /// If the session was already released.
    fn release(&mut self) -> GriddedDataset {
        match self.try_release() {
            Ok(dataset) => dataset,
            // xtask:allow(ERR001, documented panicking wrapper; callers needing errors use the try_* twin and the message is should_panic-pinned)
            Err(e) => panic!("{e}"),
        }
    }

    /// The runtime w-event privacy ledger of the current session.
    fn ledger(&self) -> &WEventLedger;

    /// Begin a new session: restore the engine to its freshly-constructed
    /// state, re-seeded with the construction seed (an identical replay
    /// yields a bit-identical release). Warm resources — worker pools,
    /// scratch buffers, arena chunks — are retained, so resetting (and
    /// recovery replay, which starts with one) is cheap.
    fn reset(&mut self);

    /// FNV-1a hash of the session's immutable identity: seed, engine
    /// kind, configuration (everything output-affecting, including the
    /// synthesis thread count; purely operational settings such as the
    /// collection thread count are left out) and discretization. Two engines with equal fingerprints produce
    /// bit-identical sessions from the same events; the WAL header records
    /// it so a log can only be replayed into a matching engine.
    fn fingerprint(&self) -> u64;

    /// Serialize the engine's full mutable state for a
    /// [`Checkpointer`](crate::wal::Checkpointer), or `None` if this
    /// engine does not support checkpoints (recovery then always replays
    /// the full WAL).
    fn checkpoint_bytes(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restore state serialized by [`checkpoint_bytes`](Self::checkpoint_bytes).
    /// On error the engine may be partially mutated — callers must
    /// [`reset`](Self::reset) before relying on it (recovery does).
    fn restore_checkpoint(&mut self, _payload: &[u8]) -> Result<(), String> {
        Err("this engine does not support checkpoints".to_string())
    }

    /// Reconstruct the session recorded in the WAL at `wal_path`:
    /// validate the header fingerprint against this engine, restore the
    /// newest usable checkpoint sidecar (if any), and replay the logged
    /// batches through [`step`](Self::step). Determinism makes the result
    /// bit-identical to the uninterrupted run over the same prefix; a
    /// torn or corrupt WAL tail truncates the session to the last intact
    /// timestamp (see [`Recovery::truncated`]) instead of failing.
    ///
    /// The engine must be constructed exactly as the logged session was
    /// (same seed, config, discretization — enforced via
    /// [`fingerprint`](Self::fingerprint)); any prior state is discarded
    /// with [`reset`](Self::reset). To *continue* the recovered session
    /// durably, [`WalWriter::reopen`](crate::wal::WalWriter::reopen) the
    /// same WAL and keep feeding through a
    /// [`WalSource`](crate::wal::WalSource).
    fn recover(&mut self, wal_path: &Path) -> Result<Recovery, WalError> {
        crate::wal::recover_engine(self, wal_path)
    }

    /// Drive this engine from `source` until it is exhausted, then
    /// [`release`](Self::release). Pass `&mut source` to keep the source
    /// (and continue it later); pass by value to consume it.
    fn drive<S: EventSource>(&mut self, mut source: S) -> GriddedDataset
    where
        Self: Sized,
    {
        while let Some(batch) = source.next_batch() {
            self.step(self.next_timestamp(), batch);
        }
        self.release()
    }

    /// Batch mode over a raw dataset: discretize against
    /// [`topology`](Self::topology), derive the event timeline, drive every
    /// timestamp and release.
    ///
    /// # Panics
    ///
    /// If the engine is mid-session (a dataset replay starts at `t = 0`,
    /// so the engine must be fresh — [`reset`](Self::reset) first).
    fn run(&mut self, dataset: &StreamDataset) -> GriddedDataset
    where
        Self: Sized,
    {
        let gridded = dataset.discretize(self.topology());
        self.run_gridded(&gridded)
    }

    /// Batch mode over an already-discretized dataset.
    ///
    /// # Panics
    ///
    /// If the engine is mid-session (a dataset replay starts at `t = 0`,
    /// so the engine must be fresh — [`reset`](Self::reset) first), or if
    /// the dataset's discretization does not match the engine's topology.
    fn run_gridded(&mut self, dataset: &GriddedDataset) -> GriddedDataset
    where
        Self: Sized,
    {
        match self.try_run_gridded(dataset) {
            Ok(released) => released,
            // xtask:allow(ERR001, documented panicking wrapper; callers needing errors use the try_* twin and the message is should_panic-pinned)
            Err(e) => panic!("{e}"),
        }
    }

    /// Batch mode over an already-discretized dataset, with typed errors:
    /// the fallible counterpart of [`run_gridded`](Self::run_gridded).
    /// Fails with [`SessionError::TopologyMismatch`] if the dataset's
    /// discretization differs from the engine's,
    /// [`SessionError::MidSession`] if the engine is not fresh, or any
    /// error a [`try_step`](Self::try_step) / [`try_release`](Self::try_release)
    /// along the replay reports.
    fn try_run_gridded(&mut self, dataset: &GriddedDataset) -> Result<GriddedDataset, SessionError>
    where
        Self: Sized,
    {
        if dataset.topology().descriptor() != self.topology().descriptor() {
            return Err(SessionError::TopologyMismatch {
                expected: format!("{:?}", self.topology().descriptor()),
                got: format!("{:?}", dataset.topology().descriptor()),
            });
        }
        if self.next_timestamp() != 0 {
            return Err(SessionError::MidSession { next: self.next_timestamp() });
        }
        let mut source = TimelineSource::from_gridded(dataset);
        while let Some(batch) = source.next_batch() {
            self.try_step(self.next_timestamp(), batch)?;
        }
        self.try_release()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retrasyn_geo::{CellId, TransitionState};

    fn batch(users: &[u64]) -> Vec<UserEvent> {
        users
            .iter()
            .map(|&u| UserEvent { user: u, state: TransitionState::Enter(CellId(0)) })
            .collect()
    }

    /// Every state of the domain resolves to the index `index_of` gives
    /// it, and the first malformed event is the reported fault.
    #[test]
    fn resolve_matches_index_of_and_reports_the_first_fault() {
        let table = TransitionTable::new(&retrasyn_geo::Grid::unit(4));
        let events: Vec<UserEvent> = (0..table.len())
            .map(|i| UserEvent { user: i as u64, state: table.state_of(i) })
            .collect();
        let mut resolved = Vec::new();
        resolve_events(&table, 3, &events, &mut resolved).unwrap();
        let want: Vec<usize> = events.iter().map(|e| table.index_of(e.state).unwrap()).collect();
        assert_eq!(resolved, want);
        assert_eq!(resolved, (0..table.len()).collect::<Vec<_>>());

        let far =
            UserEvent { user: 7, state: TransitionState::Move { from: CellId(0), to: CellId(15) } };
        let out = UserEvent { user: 8, state: TransitionState::Quit(CellId(16)) };
        for (bad, fault) in [(far, EventFault::NonAdjacentMove), (out, EventFault::OutOfDomain)] {
            let batch = [events[0], bad, far, out];
            let err = resolve_events(&table, 3, &batch, &mut resolved).unwrap_err();
            assert!(
                matches!(err, SessionError::InvalidEvent { t: 3, user, fault: f }
                    if user == bad.user && f == fault),
                "{err:?}"
            );
        }
    }

    #[test]
    fn iter_source_yields_batches_in_order() {
        let batches = vec![batch(&[1, 2]), batch(&[3])];
        let mut src = IterSource::new(batches.into_iter());
        assert_eq!(src.next_batch().unwrap().len(), 2);
        assert_eq!(src.next_batch().unwrap()[0].user, 3);
        assert!(src.next_batch().is_none());
    }

    #[test]
    fn fn_source_counts_timestamps() {
        let mut src = FnSource::new(|t| if t < 3 { Some(batch(&[t])) } else { None });
        let mut seen = Vec::new();
        while let Some(b) = src.next_batch() {
            seen.push(b[0].user);
        }
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn channel_source_ends_on_disconnect() {
        let (tx, mut src) = ChannelSource::bounded(2);
        let producer = std::thread::spawn(move || {
            for t in 0..4u64 {
                tx.send(batch(&[t])).unwrap();
            }
            // Dropping tx ends the stream.
        });
        let mut seen = Vec::new();
        while let Some(b) = src.next_batch() {
            seen.push(b[0].user);
        }
        producer.join().unwrap();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn recycling_channel_source_reuses_buffers() {
        let (sender, mut src) = ChannelSource::recycling(2);
        // First two batches: fresh allocations (pool is empty).
        let mut b1 = sender.buffer();
        b1.reserve(64);
        b1.extend(batch(&[1]));
        let p1 = b1.as_ptr();
        sender.send(b1).unwrap();
        let mut b2 = sender.buffer();
        b2.extend(batch(&[2]));
        sender.send(b2).unwrap();
        // Consume both: b1's buffer is returned to the pool when the
        // consumer moves on to b2.
        assert_eq!(src.next_batch().unwrap()[0].user, 1);
        assert_eq!(src.next_batch().unwrap()[0].user, 2);
        // The producer now gets b1's allocation back: same pointer, same
        // capacity, cleared.
        let b3 = sender.buffer();
        assert_eq!(b3.as_ptr(), p1, "buffer was not recycled");
        assert!(b3.capacity() >= 64);
        assert!(b3.is_empty());
        // The plain bounded variant never recycles.
        let (tx, mut plain) = ChannelSource::bounded(1);
        tx.send(batch(&[7])).unwrap();
        drop(tx);
        assert_eq!(plain.next_batch().unwrap()[0].user, 7);
        assert!(plain.next_batch().is_none());
    }

    #[test]
    fn recycling_consumer_never_blocks_on_full_pool() {
        // Producer sends but never drains the pool: the consumer's
        // try_send path must drop buffers instead of wedging.
        let (sender, mut src) = ChannelSource::recycling(1);
        for t in 0..5u64 {
            sender.send(batch(&[t])).unwrap();
            assert_eq!(src.next_batch().unwrap()[0].user, t);
        }
        drop(sender);
        assert!(src.next_batch().is_none());
    }

    #[test]
    fn mut_ref_source_forwards() {
        // A `&mut S` is itself a source (S = &mut IterSource here), so
        // generic drivers can borrow a source instead of consuming it.
        fn drain<S: EventSource>(mut s: S) -> Vec<u64> {
            let mut out = Vec::new();
            while let Some(b) = s.next_batch() {
                out.extend(b.iter().map(|e| e.user));
            }
            out
        }
        let mut src = IterSource::new(vec![batch(&[9]), batch(&[4])].into_iter());
        assert_eq!(drain(&mut src), vec![9, 4]);
        assert!(src.next_batch().is_none(), "the borrowed source was fully drained");
    }
}
