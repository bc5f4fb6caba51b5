//! RetraSyn core: the paper's primary contribution.
//!
//! - [`GlobalMobilityModel`] (§III-B): curator-side movement / entering /
//!   quitting distributions over the reachability-constrained transition
//!   domain, maintained from debiased OUE estimates (Eq. 6).
//! - [`dmu`] (§III-C): the Dynamic Mobility Update mechanism — selects the
//!   *significant transitions* whose approximation bias exceeds the OUE
//!   perturbation variance (Eq. 7) and refreshes only those.
//! - [`SyntheticDb`] (§III-D): real-time synthesis — Markov-chain point
//!   generation with length-reweighted termination (Eq. 8) and size
//!   adjustment against the live population.
//! - [`allocation`] (§III-E): portion-based adaptive allocation (Eq. 9–10)
//!   plus the Uniform / Sample / one-report-per-window comparison
//!   strategies, in both budget-division and population-division forms.
//! - [`UserRegistry`] (§III-F): the dynamic active-user set with w-window
//!   recycling of Algorithm 1.
//! - [`RetraSyn`] (§III-F, Algorithm 1): the end-to-end streaming engine,
//!   with runtime w-event accounting and per-component timing (Table V).
//! - [`baselines`]: the four LDP-IDS mechanisms (LBD, LBA, LPD, LPA)
//!   adapted to transition-state collection exactly as the paper describes
//!   (§V-A), sharing the Markov synthesizer but without enter/quit
//!   modelling.
//! - [`sampler`]: the alias-table sampler subsystem behind the real-time
//!   budget (§IV-B) — O(1) movement/enter draws through a [`SamplerCache`]
//!   owned by the model and rebuilt incrementally after each DMU step.
//! - [`session`]: the streaming session API — the [`StreamingEngine`]
//!   trait unifying [`RetraSyn`] and the [`LdpIds`] baselines
//!   (`step` / `snapshot` / `release` / `ledger`), plus pluggable
//!   [`EventSource`]s (timeline replay, iterator / closure feeds, bounded
//!   channels) so an engine can be driven live without ever materializing
//!   a dataset; batch `run(&dataset)` is the special case of driving a
//!   [`TimelineSource`].
//! - [`store`]: the columnar [`SyntheticDb`] stream storage — SoA head
//!   columns, a chunked append-only tail arena, and an O(1) finished
//!   region feeding the zero-copy release path — and its public read-only
//!   view layer: the borrowed per-timestamp [`SnapshotView`] the session
//!   API publishes between steps.
//! - [`wal`]: the durable event write-ahead log — CRC-framed per-timestamp
//!   batches behind a [`WalSource`] tee, crash recovery via
//!   [`StreamingEngine::recover`] (bit-identical replay, torn tails
//!   truncated to the last intact timestamp), and [`Checkpointer`]
//!   sidecars bounding replay time.
//! - [`compact`]: epoch compaction — finished chains drain out of the tail
//!   arena into frozen flat storage under a [`CompactionPolicy`] high-water
//!   mark, so resident memory tracks the live population while snapshots
//!   and release stay bit-identical to the non-compacting path.
//! - [`ingest`]: validation and quarantine for untrusted live sources —
//!   [`ValidatedSource`] screens every batch against the engine input
//!   contract (domain, adjacency, uniqueness, lifecycle), diverting bad
//!   events to a bounded quarantine under a pluggable [`IngestPolicy`].
//! - [`supervise`]: crash-supervised sessions — [`Supervisor`] runs each
//!   step under `catch_unwind` with WAL-backed retry/recovery and
//!   quarantines deterministic poison batches to a sidecar, so one bad
//!   batch can no longer take down a long-running stream.
//!
//! Ablation variants are configuration flags: `dmu: false` reproduces
//! *AllUpdate*, `enter_quit: false` reproduces *NoEQ* (Table IV).
//!
//! # Determinism contract
//!
//! Every draw comes from the session's seeded `StdRng`, or from a Philox
//! key drawn from it once per per-user collection round. The modules
//! listed in `xtask.toml` read no clock and no ambient entropy, which
//! `cargo run -p xtask -- check` enforces.
//!
//! | # | Invariant | Success criterion |
//! |---|---|---|
//! | D1 | Same seed and events give the same bytes | Two engines built from the same seed, configuration and discretization and fed the same batches release equal datasets and write equal checkpoint bytes (`tests/storage_snapshot.rs`, `tests/determinism.rs`, the `durable_session` release hash in CI) |
//! | D2 | The fingerprint covers exactly the output-affecting settings | Changing the seed, division, any [`RetraSynConfig`] knob except `compaction`, or the discretization changes [`StreamingEngine::fingerprint`]; changing `compaction` does not (`recover_rejects_mismatched_sessions`, `compaction_bounds_resident_cells_over_long_stream`) |
//! | D3 | A reset replays bit-identically | [`StreamingEngine::reset`] followed by the same batches releases the same dataset, and WAL recovery equals the uninterrupted run (`tests/session_api.rs`, `tests/recovery.rs`) |
//! | D4 | The w-event ledger holds | [`WEventLedger::verify`](retrasyn_ldp::WEventLedger::verify) returns `Ok` after every session (`tests/determinism.rs`, the engine unit tests) |
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod baselines;
pub mod compact;
pub mod config;
pub mod dmu;
pub mod engine;
mod ids;
pub mod ingest;
pub mod model;
pub mod population;
pub mod sampler;
pub mod session;
pub mod store;
pub mod supervise;
pub mod synthesis;
pub mod wal;

pub use allocation::AllocationKind;
pub use baselines::{BaselineKind, LdpIds, LdpIdsConfig};
pub use compact::{CompactionPolicy, CompactionStats, FrozenEpochs};
pub use config::{Division, RetraSynConfig};
pub use engine::{RetraSyn, StepTimings, TimingReport};
pub use ingest::{IngestPolicy, IngestStats, QuarantinedEvent, ValidatedSource};
pub use model::GlobalMobilityModel;
pub use population::{UserRegistry, UserStatus};
pub use sampler::{AliasTable, SamplerCache};
pub use session::{
    BatchSender, ChannelSource, EventFault, EventSource, FnSource, IterSource, SessionError,
    StallPolicy, StepOutcome, StreamingEngine, TimelineSource,
};
pub use store::{SnapshotStream, SnapshotView};
pub use supervise::{StepVerdict, SuperviseError, Supervisor, SupervisorStats};
pub use synthesis::SyntheticDb;
pub use wal::{
    CheckpointUse, Checkpointer, FsyncPolicy, Recovery, WalContents, WalError, WalSource, WalWriter,
};
