//! Crash-supervised streaming sessions: WAL-backed retry, recovery and
//! poison-batch quarantine.
//!
//! [`Supervisor`] owns an engine together with its [`WalWriter`] and
//! (optionally) a [`Checkpointer`], and runs every step under
//! [`catch_unwind`](std::panic::catch_unwind). The durable WAL makes the
//! engine *unwind-safe by reconstruction*: whatever inconsistent state a
//! panic leaves behind is never observed, because the supervisor rebuilds
//! the session from the log before touching the engine again.
//!
//! ```text
//!                         step(batch)
//!                             │
//!              write batch to WAL, hand its fsync
//!              to the writer's I/O thread
//!                             │
//!          ┌──────────────────┴──────────────────┐
//!          ▼                                     ▼
//!     try_step (caught)               WAL I/O thread: sync_data
//!          │                                     │
//!          └──────────────► wait for sync ◄──────┘
//!                   (failed sync → Err(SuperviseError::Wal))
//!                             │
//!          Ok  ┌──────────────┴──────────────┐  panic / SessionError
//!              ▼                             ▼
//!        ┌──────────┐            roll the batch out of the WAL
//!        │ Stepped  │            recover() engine from the log
//!        └──────────┘                        │
//!        (+checkpoint               ┌────────┴───────┐
//!         encoded on interval)      │ attempts left? │
//!                                   └────────┬───────┘
//!                                yes │              │ no
//!                                    ▼              ▼
//!                      re-append batch (synced)   write poison record
//!                      retry try_step             to `<wal>.poison`
//!                                    │              │
//!                                Ok  ▼              ▼
//!                             ┌───────────┐   ┌──────────┐
//!                             │ Recovered │   │ Poisoned │  (batch skipped,
//!                             └───────────┘   └──────────┘   session continues)
//! ```
//!
//! The batch's sync runs while the engine steps, so a durable step costs
//! the longer of the two rather than their sum. The step is acknowledged,
//! checkpointed or rolled back only after the sync has finished: an
//! acknowledged batch is as durable as the [`FsyncPolicy`] promises, and a
//! checkpoint never covers a record that is not yet on disk. A retry
//! re-appends its batch with an inline sync.
//!
//! A checkpoint step only encodes; the [`Checkpointer`]'s own I/O thread
//! writes the checkpoint while the following steps run:
//!
//! ```text
//!  checkpoint step at t          later steps                  next wait point
//!  ────────────────────────      ─────────────────────────    ──────────────────
//!  wait for the last         ┌─► checkpoint I/O thread:   ─┐  a checkpoint step,
//!  checkpoint; encode the    │   cut, append and sync      │  a rollback, release,
//!  engine state and the      │   `<wal>.frozen`; CRC,      ├► into_engine or drop
//!  epochs `<wal>.frozen`     │   write, sync and rename    │  waits for it; its
//!  lacks; hand them over  ───┘   the sidecar `<wal>.ckpt`  ─┘  error surfaces there
//! ```
//!
//! The checkpoint I/O thread is not the WAL's, so the next step's sync
//! never queues behind a checkpoint. A rollback waits for the checkpoint
//! before it truncates the log, so recovery restores the newest one.
//!
//! A batch that crashes the engine on every attempt (default: 2) is a
//! *poison batch*: it is quarantined — removed from the WAL, recorded in
//! the `<wal>.poison` sidecar with timestamp, attempt count and fault —
//! and the session continues with the next batch taking its timestamp.
//! The supervised session over a stream with poison batches is therefore
//! bit-identical to an unsupervised session over the same stream with
//! those batches deleted.
//!
//! Only step faults are absorbed; faults of the supervision machinery
//! itself (WAL I/O, checkpoint I/O, sidecar I/O) surface as
//! [`SuperviseError`] — losing durability silently would turn every later
//! recovery promise into a lie. A failed WAL sync or checkpoint is one of
//! them; see [`Supervisor::step`] for when each surfaces and what it
//! leaves behind.

use std::fmt;
use std::fs;
use std::io::Write;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use retrasyn_geo::{GriddedDataset, UserEvent};

use crate::session::{EventSource, SessionError, StepOutcome, StreamingEngine};
use crate::wal::{
    poison_file, recover_wal, Checkpointer, FsyncPolicy, Recovery, WalError, WalWriter,
};

/// Failure of the supervision machinery itself (never of a supervised
/// step — those are retried, recovered or quarantined).
#[derive(Debug)]
pub enum SuperviseError {
    /// The WAL could not be appended, rolled back or replayed.
    Wal(WalError),
    /// The session refused an operation outside a supervised step (e.g.
    /// releasing an already-released session).
    Session(SessionError),
    /// The poison sidecar could not be written.
    Io(std::io::Error),
}

impl fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuperviseError::Wal(e) => write!(f, "supervisor WAL failure: {e}"),
            SuperviseError::Session(e) => write!(f, "supervisor session failure: {e}"),
            SuperviseError::Io(e) => write!(f, "supervisor poison-sidecar I/O failure: {e}"),
        }
    }
}

impl std::error::Error for SuperviseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SuperviseError::Wal(e) => Some(e),
            SuperviseError::Session(e) => Some(e),
            SuperviseError::Io(e) => Some(e),
        }
    }
}

impl From<WalError> for SuperviseError {
    fn from(e: WalError) -> Self {
        SuperviseError::Wal(e)
    }
}

impl From<SessionError> for SuperviseError {
    fn from(e: SessionError) -> Self {
        SuperviseError::Session(e)
    }
}

impl From<std::io::Error> for SuperviseError {
    fn from(e: std::io::Error) -> Self {
        SuperviseError::Io(e)
    }
}

/// How a supervised step concluded. Every variant leaves the session
/// steppable; none loses durability.
#[derive(Debug)]
pub enum StepVerdict {
    /// The step succeeded on the first attempt.
    Stepped(StepOutcome),
    /// The step crashed at least once; the engine was rebuilt from the
    /// WAL and a retry succeeded. The session is bit-identical to one
    /// that never crashed.
    Recovered {
        /// Outcome of the successful retry.
        outcome: StepOutcome,
        /// Total attempts, including the successful one.
        attempts: u32,
        /// Rendering of the last fault (panic message or error display).
        fault: String,
    },
    /// The batch crashed the engine on every attempt and was quarantined:
    /// rolled out of the WAL, recorded in the poison sidecar, and
    /// skipped. The engine still expects timestamp `t` — the next batch
    /// takes the poisoned batch's place.
    Poisoned {
        /// Timestamp the batch would have covered.
        t: u64,
        /// Attempts made before giving up.
        attempts: u32,
        /// Rendering of the last fault.
        fault: String,
    },
}

/// Cumulative counters kept by a [`Supervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SupervisorStats {
    /// Steps that completed (first-attempt or after recovery).
    pub steps: u64,
    /// Steps that needed at least one crash-recovery before succeeding.
    pub recovered: u64,
    /// Batches quarantined as poison.
    pub poisoned: u64,
    /// Checkpoints taken: counted at the step that encoded them, before
    /// the checkpoint I/O thread has written them (one that then fails
    /// surfaces at a later wait point; see [`Supervisor::step`]).
    pub checkpoints: u64,
}

/// Default number of attempts per batch (one retry after the first
/// crash).
const DEFAULT_MAX_ATTEMPTS: u32 = 2;

/// Runs a [`StreamingEngine`] under crash supervision. See the
/// [module docs](self) for the step state machine.
#[derive(Debug)]
pub struct Supervisor<E> {
    engine: E,
    wal: WalWriter,
    wal_path: PathBuf,
    checkpointer: Option<Checkpointer>,
    max_attempts: u32,
    stats: SupervisorStats,
    poison_path: PathBuf,
}

impl<E: StreamingEngine> Supervisor<E> {
    /// Supervise `engine` over a fresh WAL created at `wal_path` (see
    /// [`WalWriter::create`]; `seed` is recorded in the header alongside
    /// the engine fingerprint). The engine must be fresh
    /// (`next_timestamp() == 0`).
    pub fn create(
        engine: E,
        wal_path: impl AsRef<Path>,
        seed: u64,
        policy: FsyncPolicy,
    ) -> Result<Self, WalError> {
        assert_eq!(
            engine.next_timestamp(),
            0,
            "a fresh WAL requires a fresh engine; use Supervisor::resume to continue a session"
        );
        let wal_path = wal_path.as_ref().to_path_buf();
        let wal = WalWriter::create(&wal_path, seed, engine.fingerprint(), policy)?;
        Ok(Supervisor {
            engine,
            wal,
            poison_path: Self::poison_sidecar(&wal_path),
            wal_path,
            checkpointer: None,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            stats: SupervisorStats::default(),
        })
    }

    /// Supervise a session recovered from an existing WAL: recover
    /// `engine` from it (which must be constructed exactly as the logged
    /// session was — fingerprints are checked) and continue appending to
    /// the same log.
    ///
    /// The log is read once, exactly as [`StreamingEngine::recover`] reads
    /// it: with a usable checkpoint sidecar, only the records after the
    /// checkpoint. The writer then reopens at the end of the intact prefix
    /// recovery found; a torn or corrupt tail after it is cut off, and the
    /// next step takes its timestamp.
    pub fn resume(
        engine: E,
        wal_path: impl AsRef<Path>,
        policy: FsyncPolicy,
    ) -> Result<(Self, Recovery), WalError> {
        let wal_path = wal_path.as_ref().to_path_buf();
        let mut engine = engine;
        let (recovery, valid_len) = recover_wal(&mut engine, &wal_path)?;
        let (fingerprint, next_t) = (engine.fingerprint(), recovery.next_timestamp());
        let wal = WalWriter::reopen_at(&wal_path, fingerprint, valid_len, next_t, policy)?;
        let supervisor = Supervisor {
            engine,
            wal,
            poison_path: Self::poison_sidecar(&wal_path),
            wal_path,
            checkpointer: None,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            stats: SupervisorStats::default(),
        };
        Ok((supervisor, recovery))
    }

    /// The conventional poison sidecar path for a WAL: `<wal>.poison`.
    pub fn poison_sidecar(wal_path: impl AsRef<Path>) -> PathBuf {
        poison_file(wal_path.as_ref())
    }

    /// Checkpoint the engine every `every` timestamps (`every ≥ 1`) into
    /// the WAL's conventional sidecar, bounding recovery replay time. The
    /// checkpoint step encodes; a [`Checkpointer`] I/O thread writes (see
    /// the [module docs](self)).
    pub fn with_checkpoints(mut self, every: u64) -> Self {
        self.checkpointer = Some(Checkpointer::new(&self.wal_path, every));
        self
    }

    /// Attempts per batch before it is quarantined as poison (`n ≥ 1`;
    /// default 2 — one retry after the first crash).
    pub fn with_max_attempts(mut self, n: u32) -> Self {
        assert!(n >= 1, "at least one attempt per batch is required");
        self.max_attempts = n;
        self
    }

    /// The supervised engine (read-only: stepping it directly would
    /// bypass the WAL and void the recovery guarantee).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Cumulative supervision counters.
    pub fn stats(&self) -> &SupervisorStats {
        &self.stats
    }

    /// The WAL this supervisor appends to.
    pub fn wal_path(&self) -> &Path {
        &self.wal_path
    }

    /// The poison sidecar records are appended to (one line per
    /// quarantined batch; the file exists only if a batch was poisoned).
    pub fn poison_path(&self) -> &Path {
        &self.poison_path
    }

    /// Ingest the next batch under supervision. The timestamp is implied:
    /// always [`next_timestamp`](StreamingEngine::next_timestamp), so a
    /// poisoned batch's successor slides into its place.
    ///
    /// The batch is written to the WAL first. Its sync, if the
    /// [`FsyncPolicy`] asks for one, runs on the writer's I/O thread while
    /// the engine steps, and the verdict is returned only after both have
    /// finished (see the [module docs](self)): `Ok` means the batch is as
    /// durable as the policy promises.
    ///
    /// On the checkpoint interval the step then encodes a checkpoint and
    /// hands it to the checkpoint I/O thread, which writes it while later
    /// steps run. The step waits for the previous checkpoint first.
    ///
    /// Returns the [`StepVerdict`]; `Err` only for faults of the
    /// supervision machinery itself (WAL/checkpoint/sidecar I/O), after
    /// which the session should be abandoned or
    /// [`resume`](Supervisor::resume)d from the log. A failed sync is such
    /// a fault, reported as [`SuperviseError::Wal`]. It leaves the engine
    /// one step ahead of what the log is known to hold: the batch was
    /// stepped (or its step crashed), and its record was written but may
    /// not be on disk. `resume` rebuilds the session from whatever the log
    /// does hold.
    ///
    /// A checkpoint that fails on the I/O thread is reported as
    /// [`SuperviseError::Wal`] by the next call that waits for it: the
    /// next checkpoint step (its batch durable and stepped), a step that
    /// rolls back (after the rollback and recovery), or
    /// [`release`](Supervisor::release) / [`into_engine`](Supervisor::into_engine).
    /// Only the checkpoint is missing: `resume` recovers from the log,
    /// from the last checkpoint on disk or from its start. Dropping the
    /// supervisor waits for the checkpoint too, but its error is lost
    /// there.
    pub fn step(&mut self, events: &[UserEvent]) -> Result<StepVerdict, SuperviseError> {
        let t = self.engine.next_timestamp();
        let base = self.wal.offset();
        self.wal.append_deferred(t, events)?;
        let mut fault = String::new();
        for attempt in 1..=self.max_attempts {
            // Unwind safety: if the closure panics, the engine is rebuilt
            // from the WAL below before anything observes it.
            let result = panic::catch_unwind(AssertUnwindSafe(|| self.engine.try_step(t, events)));
            // The first attempt ran beside the batch's sync. Nothing may be
            // acknowledged, checkpointed or rolled back before it is durable.
            self.wal.wait_sync()?;
            match result {
                Ok(Ok(outcome)) => {
                    self.stats.steps += 1;
                    if let Some(ck) = &self.checkpointer {
                        if ck.maybe_save_deferred(&self.engine)? {
                            self.stats.checkpoints += 1;
                        }
                    }
                    if attempt == 1 {
                        return Ok(StepVerdict::Stepped(outcome));
                    }
                    self.stats.recovered += 1;
                    return Ok(StepVerdict::Recovered { outcome, attempts: attempt, fault });
                }
                Ok(Err(e)) => fault = e.to_string(),
                Err(payload) => fault = panic_message(payload.as_ref()),
            }
            // The step crashed or errored: roll the suspect batch out of
            // the durable log and rebuild the session from the prefix, once
            // the checkpoint recovery restores is on disk. A failed
            // checkpoint leaves the files recoverable; it is reported after
            // the rollback, so a resumed session never replays the batch.
            let checkpoint = self.wait_checkpoint();
            self.wal.truncate_to(base, t)?;
            self.engine.recover(&self.wal_path)?;
            checkpoint?;
            debug_assert_eq!(self.engine.next_timestamp(), t);
            if attempt < self.max_attempts {
                self.wal.append_batch(t, events)?;
            }
        }
        self.record_poison(t, events.len(), &fault)?;
        self.stats.poisoned += 1;
        Ok(StepVerdict::Poisoned { t, attempts: self.max_attempts, fault })
    }

    /// Drive the session from `source` until it is exhausted, then
    /// [`release`](Supervisor::release). Poisoned batches are skipped
    /// (check [`stats`](Supervisor::stats) afterwards); machinery faults
    /// abort.
    pub fn drive<S: EventSource>(
        &mut self,
        mut source: S,
    ) -> Result<GriddedDataset, SuperviseError> {
        while let Some(batch) = source.next_batch() {
            self.step(batch)?;
        }
        self.release()
    }

    /// Sync the WAL, wait for the checkpoint still being written, and
    /// terminate the session, handing out everything synthesized so far.
    /// A checkpoint that failed since the last wait point (see
    /// [`step`](Supervisor::step)) is returned here as
    /// [`SuperviseError::Wal`], and the session is not released.
    pub fn release(&mut self) -> Result<GriddedDataset, SuperviseError> {
        self.wal.sync()?;
        self.wait_checkpoint()?;
        Ok(self.engine.try_release()?)
    }

    /// Dissolve the supervisor, returning the engine. The WAL is synced
    /// first so the log matches the engine's ingested prefix, and the
    /// checkpoint still being written is waited for; a failure of either
    /// is [`SuperviseError::Wal`], as for [`release`](Supervisor::release).
    pub fn into_engine(mut self) -> Result<E, SuperviseError> {
        self.wal.sync()?;
        self.wait_checkpoint()?;
        Ok(self.engine)
    }

    /// Wait for the checkpoint in flight, if any, and return its error.
    fn wait_checkpoint(&self) -> Result<(), WalError> {
        match &self.checkpointer {
            Some(ck) => ck.wait(),
            None => Ok(()),
        }
    }

    /// Append one quarantine record to the poison sidecar and sync it:
    /// `t=<t> attempts=<n> events=<len> fault=<message>`, newline
    /// terminated (newlines inside the fault are flattened).
    fn record_poison(&mut self, t: u64, events: usize, fault: &str) -> Result<(), SuperviseError> {
        let fault: String =
            fault.chars().map(|c| if c == '\n' || c == '\r' { ' ' } else { c }).collect();
        let mut file = fs::OpenOptions::new().create(true).append(true).open(&self.poison_path)?;
        writeln!(file, "t={t} attempts={} events={events} fault={fault}", self.max_attempts)?;
        file.sync_data()?;
        Ok(())
    }
}

/// Best-effort rendering of a panic payload (panics via `panic!("{e}")`
/// and string literals cover everything this crate raises).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RetraSyn, RetraSynConfig};
    use retrasyn_geo::{CellId, TransitionState, UniformGrid};

    /// A supervised session created over a path that still holds a dead
    /// session's `<wal>.poison` starts a poison sidecar of its own: after
    /// one batch is quarantined it holds exactly that one record.
    #[test]
    fn create_removes_a_stale_poison_sidecar() {
        let path = std::env::temp_dir()
            .join(format!("retrasyn-supervise-{}-stale-poison.wal", std::process::id()));
        let poison = Supervisor::<RetraSyn>::poison_sidecar(&path);
        fs::write(&poison, "t=3 attempts=2 events=1 fault=an earlier session\n").unwrap();

        let engine =
            RetraSyn::population_division(RetraSynConfig::new(1.0, 4), UniformGrid::unit(4), 5);
        let mut sup = Supervisor::create(engine, &path, 5, FsyncPolicy::Never).unwrap();
        let enter = |user, cell| UserEvent { user, state: TransitionState::Enter(CellId(cell)) };
        assert!(matches!(sup.step(&[enter(1, 2)]).unwrap(), StepVerdict::Stepped(_)));
        let verdict = sup.step(&[enter(2, 999)]).unwrap();
        assert!(matches!(verdict, StepVerdict::Poisoned { t: 1, .. }), "{verdict:?}");

        let records = fs::read_to_string(&poison).unwrap();
        let _ = fs::remove_file(&poison);
        drop(sup);
        let _ = fs::remove_file(&path);
        assert_eq!(records.lines().count(), 1, "{records:?}");
        assert!(records.starts_with("t=1 "), "{records:?}");
    }
}
