//! Recovery: rebuild an engine from its WAL, from the last usable
//! checkpoint on when there is one (see the [`wal`](super) module docs).

use std::io::Read;
use std::path::{Path, PathBuf};

use super::checkpoint::{load_checkpoint, restore_sidecar};
use super::{Checkpointer, Records, WalError, WalFile};
use crate::session::StreamingEngine;
use retrasyn_geo::{Topology, TransitionState, UserEvent};

/// How a recovery used the checkpoint sidecar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointUse {
    /// No checkpoint sidecar existed.
    None,
    /// State was restored from a checkpoint taken after timestamp
    /// `at − 1`; only the WAL suffix from `at` was replayed.
    Restored {
        /// First replayed timestamp.
        at: u64,
    },
    /// A sidecar existed but could not be used (corrupt, mismatched, or
    /// ahead of the WAL's valid prefix); recovery fell back to full
    /// replay.
    Ignored {
        /// Why the checkpoint was unusable.
        reason: String,
    },
}

/// Outcome of [`StreamingEngine::recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// First timestamp replayed from the WAL (0 unless a checkpoint was
    /// restored).
    pub resumed_from: u64,
    /// Number of batches replayed through `step`.
    pub replayed: u64,
    /// Whether a torn/corrupt WAL tail was discarded — the session is the
    /// bit-identical prefix up to the last intact timestamp. Only the
    /// replayed records are read, so after a checkpoint restore this says
    /// nothing about the records the checkpoint covers.
    pub truncated: bool,
    /// Checkpoint usage.
    pub checkpoint: CheckpointUse,
}

impl Recovery {
    /// The session's next timestamp after recovery (= batches replayed +
    /// checkpoint base).
    pub fn next_timestamp(&self) -> u64 {
        self.resumed_from + self.replayed
    }
}

/// Validate that a batch only contains events the engine can ingest
/// without panicking: cells inside the discretization and movements
/// between adjacent cells. CRC framing makes reaching this check with bad
/// data astronomically unlikely; it converts the residual risk into a
/// descriptive error instead of a replay panic. `offset` is where the
/// batch's record starts.
fn validate_batch(
    topo: &Topology,
    t: u64,
    offset: u64,
    events: &[UserEvent],
) -> Result<(), WalError> {
    let cells = topo.num_cells();
    let bad = |detail: String| WalError::Corrupt {
        offset,
        detail: format!("batch t={t} passed its checksum but is semantically invalid: {detail}"),
    };
    for e in events {
        match e.state {
            TransitionState::Move { from, to } => {
                if from.index() >= cells || to.index() >= cells {
                    return Err(bad(format!("move {from:?}->{to:?} outside the grid")));
                }
                if !topo.are_adjacent(from, to) {
                    return Err(bad(format!("move {from:?}->{to:?} between non-adjacent cells")));
                }
            }
            TransitionState::Enter(c) | TransitionState::Quit(c) => {
                if c.index() >= cells {
                    return Err(bad(format!("cell {c:?} outside the grid")));
                }
            }
        }
    }
    Ok(())
}

impl<R: Read> Records<R> {
    /// [`next_batch`](Self::next_batch), with the batch's timestamp, after
    /// [`validate_batch`] accepted it for `topo`.
    fn next_valid(&mut self, topo: &Topology) -> Result<Option<(u64, &[UserEvent])>, WalError> {
        let (t, offset) = (self.next_t, self.valid_len);
        match self.next_batch()? {
            Some(batch) => {
                validate_batch(topo, t, offset, batch)?;
                Ok(Some((t, batch)))
            }
            None => Ok(None),
        }
    }
}

/// Step every batch `records` yields into `engine`, each validated before
/// it is stepped, and return how many were stepped.
fn replay<E: StreamingEngine + ?Sized, R: Read>(
    engine: &mut E,
    records: &mut Records<R>,
) -> Result<u64, WalError> {
    let mut replayed = 0;
    while let Some((t, batch)) = records.next_valid(engine.topology())? {
        engine.step(t, batch);
        replayed += 1;
    }
    Ok(replayed)
}

/// Whether records `0..t` of `wal` are all intact (and valid for `topo`),
/// read from the header.
fn reaches(wal: &mut WalFile, t: u64, topo: &Topology) -> Result<bool, WalError> {
    let mut records = wal.records()?;
    while records.next_t < t {
        if records.next_valid(topo)?.is_none() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Shared implementation behind [`StreamingEngine::recover`] and
/// [`Supervisor::resume`](crate::Supervisor::resume): recover `engine`
/// from the WAL at `wal_path` and return the byte length of the WAL prefix
/// the session now covers, where a writer continues.
///
/// A WAL that fails its header or fingerprint check leaves the engine
/// untouched; any later error resets it, so a half-replayed session is
/// never handed back.
pub(crate) fn recover_wal<E: StreamingEngine + ?Sized>(
    engine: &mut E,
    wal_path: &Path,
) -> Result<(Recovery, u64), WalError> {
    let mut wal = WalFile::open(wal_path)?;
    let fingerprint = engine.fingerprint();
    if wal.fingerprint != fingerprint {
        return Err(WalError::Mismatch {
            detail: format!(
                "WAL {} was recorded by session {:#018x}, this engine is {fingerprint:#018x} \
                 (seed, engine kind, config and discretization must all match)",
                wal_path.display(),
                wal.fingerprint
            ),
        });
    }
    engine.reset();
    let files = (Checkpointer::sidecar(wal_path), Checkpointer::frozen_file(wal_path));
    let result = restore_and_replay(engine, &mut wal, &files);
    if result.is_err() {
        engine.reset();
    }
    result
}

/// Recovery after the header checked out, into a freshly reset `engine`.
///
/// With a usable checkpoint for timestamp `t`, only the checkpoint and the
/// records from `t` on are read: [`WalFile::hop`] skips records `0..t`, and
/// the landing is accepted if it is the end of the file or an intact
/// record carrying timestamp `t`. A hop past the end of the file, or a
/// failed landing check, falls back to reading the prefix, and to a full
/// replay from the header if the prefix does not reach `t`.
fn restore_and_replay<E: StreamingEngine + ?Sized>(
    engine: &mut E,
    wal: &mut WalFile,
    (sidecar, frozen): &(PathBuf, PathBuf),
) -> Result<(Recovery, u64), WalError> {
    let mut checkpoint = CheckpointUse::None;
    // Set when the WAL could not be followed to the checkpoint's
    // timestamp; the reason names the valid length once replay knows it.
    let mut unreached = None;
    match load_checkpoint(sidecar, engine.fingerprint()) {
        Ok(None) => {}
        Err(e) => {
            let reason = format!("checkpoint {}: {e}", sidecar.display());
            checkpoint = CheckpointUse::Ignored { reason };
        }
        Ok(Some(saved)) => match wal.hop(saved.t)? {
            None => unreached = Some(saved.t),
            Some(at) => match restore_sidecar(engine, saved.payload(), frozen) {
                // A partial restore may have touched state: start over
                // from a clean reset and replay everything.
                Err(reason) => {
                    engine.reset();
                    checkpoint = CheckpointUse::Ignored { reason };
                }
                Ok(()) => {
                    let t = saved.t;
                    debug_assert_eq!(engine.next_timestamp(), t);
                    drop(saved);
                    let mut tail = Records::new(&mut wal.src, at, wal.len, t);
                    let replayed = replay(engine, &mut tail)?;
                    let (truncated, valid_len) = (tail.truncated, tail.valid_len);
                    // Nothing replayed and a bad record at the landing:
                    // either record `t` is torn, or a damaged length
                    // prefix sent the hop astray. Only the prefix tells.
                    if replayed > 0 || !truncated || reaches(wal, t, engine.topology())? {
                        let recovery = Recovery {
                            resumed_from: t,
                            replayed,
                            truncated,
                            checkpoint: CheckpointUse::Restored { at: t },
                        };
                        return Ok((recovery, valid_len));
                    }
                    engine.reset();
                    unreached = Some(t);
                }
            },
        },
    }

    let mut records = wal.records()?;
    let replayed = replay(engine, &mut records)?;
    if let Some(t) = unreached {
        checkpoint = CheckpointUse::Ignored {
            reason: format!(
                "checkpoint covers t={t} but the WAL only has {replayed} valid timestamps"
            ),
        };
    }
    let recovery = Recovery { resumed_from: 0, replayed, truncated: records.truncated, checkpoint };
    Ok((recovery, records.valid_len))
}
