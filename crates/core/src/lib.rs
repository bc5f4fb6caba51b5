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
//!
//! # On-disk formats
//!
//! A durable session keeps its state in four files: the WAL, the
//! checkpoint sidecar `<wal>.ckpt`, the frozen-epoch file `<wal>.frozen`
//! and, under a [`Supervisor`], the poison sidecar `<wal>.poison`. This
//! table is their one specification; [`wal`] explains the protocol that
//! writes and reads them. Integers are little-endian. A *frame* is a body
//! closed by a 4-byte trailer, the IEEE CRC32 of the body; every framed
//! row below goes through the one frame layer (`wal::codec`). A file is
//! read only within the length it has, so a length field never reserves
//! more than the bytes present. `tests/on_disk_format.rs` pins the length
//! and CRC32 of the WAL, sidecar and frozen file a small compacting
//! session writes; a format change bumps the magic of the file it changes.
//!
//! | # | Format | Magic | Fields and bounds | CRC covers | Pinned by |
//! |---|---|---|---|---|---|
//! | F1 | WAL header, the WAL's first 28 bytes | `RSWAL002` | seed u64, fingerprint u64; a short, misspelled or damaged header is a hard error | magic, seed and fingerprint | `wal::tests::bit_flips_detected_everywhere`, `wal::tests::truncation_keeps_valid_prefix`, `tests/on_disk_format.rs` |
//! | F2 | WAL record, one per timestamp after F1 | — (F1's) | `len` u32, then a `len`-byte payload: `t` u64 (the next timestamp), `count` u32, `count` × F3; `len = 12 + 17·count`. Reading stops at the first torn or failing record and keeps the prefix | the length prefix and the payload | `wal::tests::record_decoder_keeps_intact_prefix_of_arbitrary_framed_payloads`, `wal::tests::bit_flips_detected_everywhere`, `tests/on_disk_format.rs` |
//! | F3 | Event, 17 bytes inside F2 | — | user u64, tag u8 (0 = Move, 1 = Enter, 2 = Quit), cell `a` u32, cell `b` u32 (0 unless Move); recovery rejects an event outside the transition domain (`TransitionTable::index_of`: a cell outside the grid or a non-adjacent move) before stepping, naming its `EventFault` | (by F2) | `wal::tests::roundtrip_write_read`, `tests/tail_recovery.rs` (`crc_valid_but_semantically_invalid_batch_is_an_error`) |
//! | F4 | Sidecar `<wal>.ckpt` | `RSCKPT02` | fingerprint u64, `t` u64, `len` u64 (the file is `len + 36` bytes), then the payload: blocks u64, frozen_len u64, frozen_crc u32, engine state ([`StreamingEngine::checkpoint_by_ref`]). A sidecar of another magic, session or length is ignored (full replay) | every byte before the trailer | `wal::tests::checkpoint_sidecar_roundtrip_and_corruption`, `wal::tests::decoders_reject_arbitrary_payloads_in_valid_framing`, `tests/frozen_epochs.rs` (`format_01_sidecar_is_ignored`), `tests/on_disk_format.rs` |
//! | F5 | `<wal>.ckpt.tmp` | `RSCKPT02` | F4's bytes, written and synced, then renamed over F4; never read; deleted by [`WalWriter::create`] | as F4 | `wal::tests::public_save_returns_after_the_rename`, `tests/fault_injection.rs` (`crash_mid_checkpoint_leaves_recovery_intact`) |
//! | F6 | Frozen header, the first 16 bytes of `<wal>.frozen` | `RSFRZ001` | fingerprint u64; a file naming another session holds no block | none of its own: F4's frozen_crc is the CRC32 of the first frozen_len bytes with every F7 trailer left out | `tests/frozen_epochs.rs` (`well_formed_substitute_block_is_rejected`), the CI kill drill's flipped byte, `tests/on_disk_format.rs` |
//! | F7 | Epoch block, appended once per compaction after F6 | — (F6's) | epoch u64, streams u64, cells u64, then streams × id u64, streams × start u64, streams × length u32 (each ≥ 1, summing to cells), cells × cell u32; the fixed fields must equal the epoch mark in F4's engine state | the fixed fields and the columns | `compact::tests::epoch_blocks_round_trip_and_reject_damage`, `compact::tests::huge_cell_count_is_an_error_not_an_abort`, `wal::tests::decoders_reject_arbitrary_payloads_in_valid_framing`, `tests/on_disk_format.rs` |
//! | F8 | Poison sidecar `<wal>.poison` | — (text) | one line per quarantined batch, `t=<t> attempts=<n> events=<count> fault=<message>` (line breaks in the message flattened); write-only, never read back; deleted by [`WalWriter::create`] | — | `tests/fault_injection.rs` (`poison_batch_is_quarantined_once_and_session_continues`), `supervise::tests::create_removes_a_stale_poison_sidecar` |
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
