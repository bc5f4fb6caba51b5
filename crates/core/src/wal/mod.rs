//! Durable event write-ahead log (WAL) for streaming sessions.
//!
//! Because a session is bit-deterministic from `(seed, events)`, durability
//! reduces to logging the events: replaying a recorded WAL through a
//! freshly constructed engine reproduces the *exact* session — every
//! snapshot, every release, bit for bit. This module provides the log
//! itself, a tee adapter so any [`EventSource`] gains durability, and the
//! checkpoint sidecar that bounds replay time.
//!
//! A WAL file is a header naming the session, then one record per
//! timestamp, in timestamp order. Two files sit beside it: the checkpoint
//! sidecar `<wal>.ckpt` and the frozen-epoch file `<wal>.frozen` (see
//! [Checkpoints](#checkpoints)). A supervised session adds the write-only
//! `<wal>.poison`. The byte layout of every file is tabled once, under
//! *On-disk formats* in the [crate docs](crate). Each header, record,
//! sidecar and epoch block is a *frame*, closed by the CRC32 of its bytes,
//! so any single-bit corruption — the framing included — is detected. The
//! header's `fingerprint` is the engine's
//! [`fingerprint`](crate::StreamingEngine::fingerprint): an FNV-1a hash
//! over seed, engine kind, configuration and the discretization
//! descriptor, so a WAL can only be replayed into an identically
//! configured session.
//!
//! # Torn and corrupt tails
//!
//! A crash can leave a partially written record at the end of the file.
//! Records are read in order, streamed one at a time, and reading stops at
//! the first framing or CRC failure, keeping the valid prefix: recovery
//! yields the session as of the last fully persisted timestamp instead of
//! failing outright ([`Recovery::truncated`], [`WalContents::truncated`]).
//! Only a corrupt *header* is a hard error — nothing after it can be
//! trusted. A batch that passes its CRC but names a cell outside the grid
//! or a move between non-adjacent cells is a hard error too, raised before
//! the batch is stepped; the engine is left reset.
//!
//! # Fsync policy
//!
//! [`FsyncPolicy`] trades durability for throughput: `EveryBatch` fsyncs
//! after each timestamp (a crash loses nothing that was acknowledged),
//! `EveryN(k)` fsyncs every `k` batches (bounded loss window), `Never`
//! leaves flushing to the OS (contents survive process crashes but not
//! host crashes). Every record is handed to the OS as soon as it is
//! appended, whatever the policy; the policy decides only when
//! `fdatasync` runs.
//!
//! [`WalWriter::append_batch`] syncs inline: when it returns, the record
//! is as durable as the policy promises. A [`Supervisor`](crate::Supervisor)
//! instead hands the sync to the writer's I/O thread and runs the engine
//! step meanwhile, then waits for the sync before it acknowledges the
//! step, checkpoints or rolls the record back. The thread is started the
//! first time a sync is deferred, so a writer that only ever syncs
//! inline runs none. It is not the checkpointer's I/O thread (see
//! [Checkpoints](#checkpoints)): a sync never waits behind a checkpoint.
//!
//! # Checkpoints
//!
//! Replay from t=0 is O(session length). A [`Checkpointer`] serializes
//! the engine's full mutable state (store columns, model, ledger,
//! registry, allocator, RNG) to an atomically replaced sidecar file every
//! `k` timestamps; the frozen compaction epochs go to the frozen file,
//! once each. [`recover`](crate::StreamingEngine::recover) then reads
//! only the WAL header, the checkpoint and the records after it: it hops
//! over the 4-byte length prefixes of the records the checkpoint covers
//! (no payload read, no CRC) and accepts the landing if it is the end of
//! the file or an intact record carrying the checkpoint's timestamp.
//! Recovery time is proportional to the tail, not to the history.
//!
//! Anything else falls back to reading the log from the header: a missing,
//! corrupt, mismatched or unrestorable checkpoint, a hop past the end of
//! the file, or a failed landing check (a torn first tail record, or a
//! damaged length prefix). If that read reaches the checkpoint's
//! timestamp the checkpoint is still used; otherwise recovery reports it
//! in [`Recovery::checkpoint`] and replays the valid prefix in full. A
//! corrupt or stale checkpoint is *never* fatal.
//!
//! Because the covered prefix is not read, damage inside it that leaves
//! the length prefixes intact (a flipped payload or CRC bit) is not
//! detected once a usable checkpoint covers it. The CRC-checked checkpoint
//! *is* the session state for that prefix, so the recovered session is
//! still the uninterrupted one; [`Recovery::truncated`] describes only the
//! replayed records. [`WalWriter::create`] deletes any sidecar, frozen
//! file and poison file left by an earlier session at the same path, so a
//! checkpoint always belongs to the log beside it.
//!
//! Compacted history is written once, not into every checkpoint. Each
//! [`Checkpointer::save`] first brings `<wal>.frozen` in line with the
//! engine's epochs: it hops the blocks already there by their fixed
//! fields (reading no columns), keeps them up to the first whose stamp
//! and counts differ from the engine's epoch, cuts the file there, appends
//! the engine's remaining epochs and syncs the file. Only then is the
//! sidecar written to a temporary file, synced and renamed over the old
//! one. Everything the save needs is read from the file itself, so no
//! state goes stale across [`reset`](crate::StreamingEngine::reset), a crash, a
//! resumed session or a reused `Checkpointer`.
//!
//! A save is split between two threads. The saving thread waits for the
//! previous save, encodes the engine state, hops the frozen file and
//! encodes the blocks it lacks. The
//! checkpointer's I/O thread (started by the first save, joined on drop)
//! then does the file work in the order above: the cut, the append and
//! the sync of the frozen file, then the sidecar's CRC, write, sync and
//! rename. [`Checkpointer::save`] waits for it and returns after the
//! rename. A [`Supervisor`](crate::Supervisor) does not: its checkpoint
//! step returns once the checkpoint is encoded, and the I/O overlaps the
//! steps after it. The supervisor waits for the checkpoint before the
//! next one, before rolling back a batch and recovering, and when it is
//! released, dissolved or dropped. The bytes written are the same either
//! way.
//!
//! Recovery reads exactly the referenced prefix of the frozen file. The
//! checkpoint is rejected — `Ignored`, full replay, as for a corrupt
//! sidecar — if the file is missing or shorter than the prefix, if its
//! header names another session, if the prefix does not frame exactly
//! `blocks` blocks or fails its CRC, or if a block fails its own CRC or
//! disagrees with the epoch mark the engine state carries for it. Bytes
//! past the prefix are ignored: a crash between the append and the rename
//! leaves them, and the next save cuts or reuses them.
//! [`WalWriter::reopen`] (and so [`Supervisor::resume`](crate::Supervisor::resume))
//! keeps only the blocks stamped before the timestamp the log continues
//! at: a later block may stem from records a host crash took from the log
//! under a relaxed [`FsyncPolicy`].

use std::fmt;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Mutex};
use std::thread;

mod checkpoint;
pub(crate) mod codec;
mod recover;

pub use checkpoint::Checkpointer;
pub(crate) use codec::{Dec, Enc};
pub(crate) use recover::recover_wal;
pub use recover::{CheckpointUse, Recovery};

use crate::session::EventSource;
use codec::{open, seal, CRC_LEN};
use retrasyn_geo::{CellId, SpaceDescriptor, TransitionState, UserEvent};

/// Magic bytes opening every WAL file.
const WAL_MAGIC: &[u8; 8] = b"RSWAL002";
/// Header: magic + seed + fingerprint + crc32.
const HEADER_LEN: usize = 8 + 8 + 8 + CRC_LEN;
/// Fixed per-event encoding size: user u64 + tag u8 + two u32 operands.
const EVENT_LEN: usize = 8 + 1 + 4 + 4;
/// Fixed payload prefix: t u64 + count u32.
const PAYLOAD_PREFIX: usize = 8 + 4;

/// A file beside the WAL at `wal`: `<wal><suffix>`.
fn beside(wal: &Path, suffix: &str) -> PathBuf {
    let mut os = wal.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// The poison sidecar of the WAL at `wal`: `<wal>.poison` (see
/// [`Supervisor::poison_sidecar`](crate::Supervisor::poison_sidecar)).
pub(crate) fn poison_file(wal: &Path) -> PathBuf {
    beside(wal, ".poison")
}

// ---------------------------------------------------------------------------
// FNV-1a fingerprinting (session identity).

/// Incremental FNV-1a hasher used to fingerprint a session's immutable
/// identity (seed, engine kind, config, discretization). Not cryptographic
/// — it guards against accidental mismatches, not adversaries.
#[derive(Debug, Clone)]
pub(crate) struct Fingerprint(u64);

impl Fingerprint {
    pub(crate) fn new(kind: &str) -> Self {
        let mut f = Fingerprint(0xCBF2_9CE4_8422_2325);
        f.bytes(kind.as_bytes());
        f
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    pub(crate) fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub(crate) fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub(crate) fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Fold a discretization's full identity in: the variant tag, the
    /// exact bit patterns of the bounding box, and the structure — grid
    /// resolution for uniform spaces; depth and every leaf for quad
    /// spaces, so changing a single split changes the fingerprint.
    pub(crate) fn space(&mut self, d: &SpaceDescriptor) -> &mut Self {
        match d {
            SpaceDescriptor::Uniform { k, bbox } => {
                self.u64(0).u64(*k as u64);
                self.f64(bbox.min.x).f64(bbox.min.y).f64(bbox.max.x).f64(bbox.max.y)
            }
            SpaceDescriptor::Quad { bbox, depth, leaves } => {
                self.u64(1).u64(*depth as u64);
                self.f64(bbox.min.x).f64(bbox.min.y).f64(bbox.max.x).f64(bbox.max.y);
                self.usize(leaves.len());
                for l in leaves {
                    self.u64(l.x as u64).u64(l.y as u64).u64(l.depth as u64);
                }
                self
            }
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Errors.

/// Failure reading, writing or replaying a WAL or checkpoint.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file's contents are invalid at `offset` (header damage,
    /// semantic corruption that survived the CRC, or a corrupt
    /// checkpoint). Torn/corrupt *tail records* are not errors — they
    /// truncate the replay to the valid prefix instead.
    Corrupt {
        /// Byte offset of the first invalid content.
        offset: u64,
        /// Human-readable description of what failed to validate.
        detail: String,
    },
    /// The WAL belongs to a differently configured session (fingerprint
    /// mismatch).
    Mismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::Corrupt { offset, detail } => {
                write!(f, "corrupt WAL data at byte {offset}: {detail}")
            }
            WalError::Mismatch { detail } => write!(f, "WAL/session mismatch: {detail}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Event encoding.

/// Write `e` into its `EVENT_LEN` bytes of a record: user, tag, then the
/// cells (the second 0 unless a move).
fn encode_event(out: &mut [u8; EVENT_LEN], e: &UserEvent) {
    let (tag, a, b) = match e.state {
        TransitionState::Move { from, to } => (0, from.0, to.0),
        TransitionState::Enter(c) => (1, c.0, 0),
        TransitionState::Quit(c) => (2, c.0, 0),
    };
    out[..8].copy_from_slice(&e.user.to_le_bytes());
    out[8] = tag;
    out[9..13].copy_from_slice(&a.to_le_bytes());
    out[13..].copy_from_slice(&b.to_le_bytes());
}

fn decode_event(dec: &mut Dec<'_>) -> Result<UserEvent, String> {
    let user = dec.u64()?;
    let tag = dec.u8()?;
    let a = dec.u32()?;
    let b = dec.u32()?;
    let state = match tag {
        0 => TransitionState::Move { from: CellId(a), to: CellId(b) },
        1 => TransitionState::Enter(CellId(a)),
        2 => TransitionState::Quit(CellId(a)),
        other => return Err(format!("invalid event tag {other}")),
    };
    Ok(UserEvent { user, state })
}

// ---------------------------------------------------------------------------
// Writer.

/// When the WAL writer forces appended records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` every appended batch: an acknowledged timestamp is never
    /// lost, at one sync per step. [`WalWriter::append_batch`] syncs
    /// before it returns; a [`Supervisor`](crate::Supervisor) overlaps
    /// the sync with the engine step and acknowledges the step only
    /// after both have finished.
    EveryBatch,
    /// `fsync` after every `k` batches (`k ≥ 1`): at most `k − 1` recent
    /// timestamps can be lost to a host crash.
    EveryN(u64),
    /// Never force; the OS flushes at its leisure. Survives process
    /// crashes (the kernel holds the pages) but not host crashes.
    Never,
}

/// Appends length-prefixed, CRC-framed per-timestamp batches to a WAL
/// file. Create with [`WalWriter::create`] for a fresh session or
/// [`WalWriter::reopen`] to continue a recovered one.
#[derive(Debug)]
pub struct WalWriter {
    file: fs::File,
    path: PathBuf,
    policy: FsyncPolicy,
    next_t: u64,
    since_sync: u64,
    buf: Vec<u8>,
    /// Byte offset the next record will be written at — the length of the
    /// header plus every appended record. Lets a supervisor roll back a
    /// suspect batch with [`WalWriter::truncate_to`].
    offset: u64,
    /// The I/O thread deferred syncs run on; started by the first one.
    syncer: Option<IoThread<()>>,
}

impl WalWriter {
    /// Create (truncating) a WAL at `path` for a session identified by
    /// `(seed, fingerprint)`. The header is written and synced
    /// immediately. A checkpoint sidecar, its temporary file, the
    /// frozen-epoch file and the poison sidecar left at `path` by an
    /// earlier session are deleted first: recovery would otherwise
    /// restore that session's state into this one whenever the two
    /// fingerprints agree, and a supervisor would append its quarantine
    /// records after the dead session's.
    pub fn create(
        path: impl AsRef<Path>,
        seed: u64,
        fingerprint: u64,
        policy: FsyncPolicy,
    ) -> Result<Self, WalError> {
        let path = path.as_ref().to_path_buf();
        let sidecar = Checkpointer::sidecar(&path);
        let mut removed = false;
        for stale in [
            Checkpointer::temp(&sidecar),
            sidecar,
            Checkpointer::frozen_file(&path),
            poison_file(&path),
        ] {
            match fs::remove_file(&stale) {
                Ok(()) => removed = true,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        // The removal must be durable before the new header is: a crash
        // must not pair the new log with the old checkpoint.
        if removed {
            sync_parent_dir(&path)?;
        }
        let mut file =
            fs::OpenOptions::new().write(true).create(true).truncate(true).open(&path)?;
        let mut header = Enc { buf: Vec::with_capacity(HEADER_LEN) };
        header.buf.extend_from_slice(WAL_MAGIC);
        header.u64(seed);
        header.u64(fingerprint);
        seal(&mut header.buf, 0);
        file.write_all(&header.buf)?;
        file.sync_data()?;
        Ok(Self::at(file, path, policy, 0, HEADER_LEN as u64))
    }

    /// Reopen an existing WAL to continue appending after recovery. The
    /// torn/corrupt tail (everything past `contents.valid_len`) is
    /// truncated away and the writer positions at the end of the valid
    /// prefix, expecting timestamp `contents.batches.len()` next. The
    /// frozen-epoch file keeps only the epochs compacted before that
    /// timestamp (see the [module docs](self)).
    pub fn reopen(
        contents: &WalContents,
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
    ) -> Result<Self, WalError> {
        let next_t = contents.batches.len() as u64;
        Self::reopen_at(path.as_ref(), contents.fingerprint, contents.valid_len, next_t, policy)
    }

    /// [`reopen`](Self::reopen) the WAL of session `fingerprint` from a
    /// valid prefix of `valid_len` bytes holding timestamps `0..next_t`,
    /// as recovery found it.
    pub(crate) fn reopen_at(
        path: &Path,
        fingerprint: u64,
        valid_len: u64,
        next_t: u64,
        policy: FsyncPolicy,
    ) -> Result<Self, WalError> {
        let mut file = fs::OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        checkpoint::trim_frozen(&Checkpointer::frozen_file(path), fingerprint, next_t)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Self::at(file, path.to_path_buf(), policy, next_t, valid_len))
    }

    /// A writer appending at `offset` of `file`, timestamp `next_t` next.
    fn at(file: fs::File, path: PathBuf, policy: FsyncPolicy, next_t: u64, offset: u64) -> Self {
        if let FsyncPolicy::EveryN(k) = policy {
            assert!(k >= 1, "FsyncPolicy::EveryN requires k >= 1");
        }
        let buf = Vec::new();
        WalWriter { file, path, policy, next_t, since_sync: 0, buf, offset, syncer: None }
    }

    /// Append the batch for timestamp `t`, which must be the next
    /// consecutive timestamp, and sync it if the policy asks: when this
    /// returns, the record is as durable as the [`FsyncPolicy`] promises.
    pub fn append_batch(&mut self, t: u64, events: &[UserEvent]) -> Result<(), WalError> {
        if self.write_record(t, events)? {
            self.sync()?;
        }
        Ok(())
    }

    /// [`append_batch`](Self::append_batch), except that a sync the policy
    /// asks for runs on the writer's I/O thread (started on first use)
    /// and this returns as soon as the record is written. The record is
    /// durable only once [`wait_sync`](Self::wait_sync) returns `Ok`;
    /// `sync`, `truncate_to` and dropping the writer wait too.
    pub(crate) fn append_deferred(&mut self, t: u64, events: &[UserEvent]) -> Result<(), WalError> {
        if self.write_record(t, events)? {
            self.wait_sync()?;
            let syncer = match self.syncer.take() {
                Some(syncer) => syncer,
                None => {
                    let file = self.file.try_clone()?;
                    IoThread::spawn("wal-sync", move |()| file.sync_data())?
                }
            };
            self.syncer.insert(syncer).request(())?;
            self.since_sync = 0;
        }
        Ok(())
    }

    /// Wait for the sync [`append_deferred`](Self::append_deferred) handed
    /// to the I/O thread, if one is in flight, and return its result. A
    /// failed sync, or an I/O thread that is gone, is [`WalError::Io`].
    pub(crate) fn wait_sync(&mut self) -> Result<(), WalError> {
        Ok(self.syncer.as_mut().map_or(Ok(()), IoThread::wait)?)
    }

    /// Encode, frame and write the record for `t`, handing it to the OS
    /// in one write. Returns whether the policy wants it synced now.
    fn write_record(&mut self, t: u64, events: &[UserEvent]) -> Result<bool, WalError> {
        assert_eq!(t, self.next_t, "WAL batches must cover consecutive timestamps");
        let payload_len = PAYLOAD_PREFIX + EVENT_LEN * events.len();
        assert!(payload_len <= u32::MAX as usize, "batch too large for WAL framing");
        let buf = &mut self.buf;
        buf.clear();
        buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
        buf.extend_from_slice(&t.to_le_bytes());
        buf.extend_from_slice(&(events.len() as u32).to_le_bytes());
        let head = buf.len();
        buf.resize(head + EVENT_LEN * events.len(), 0);
        for (out, e) in buf[head..].as_chunks_mut().0.iter_mut().zip(events) {
            encode_event(out, e);
        }
        seal(buf, 0);
        self.file.write_all(&self.buf)?;
        self.offset += self.buf.len() as u64;
        self.next_t += 1;
        self.since_sync += 1;
        Ok(match self.policy {
            FsyncPolicy::EveryBatch => true,
            FsyncPolicy::EveryN(k) => self.since_sync >= k,
            FsyncPolicy::Never => false,
        })
    }

    /// Force every appended record to stable storage (after waiting for
    /// a deferred sync still in flight).
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.wait_sync()?;
        self.file.sync_data()?;
        self.since_sync = 0;
        Ok(())
    }

    /// Number of batches appended so far (equivalently: the next expected
    /// timestamp).
    pub fn batches_written(&self) -> u64 {
        self.next_t
    }

    /// Byte offset the next record will land at (header plus every record
    /// appended so far). A supervisor captures it before an append to be
    /// able to roll that append back (crate-internal `truncate_to`).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Roll the WAL back to `offset` (a value previously returned by
    /// [`offset`](Self::offset)), discarding every record appended since,
    /// and rewind the expected timestamp to `next_t`. A deferred sync
    /// still in flight is waited for first. The truncation is synced
    /// before returning, so a crash immediately afterwards recovers the
    /// rolled-back log, never the suspect records. Used by the supervisor
    /// to remove a batch whose replay keeps crashing the engine.
    pub(crate) fn truncate_to(&mut self, offset: u64, next_t: u64) -> Result<(), WalError> {
        debug_assert!(offset >= HEADER_LEN as u64 && offset <= self.offset);
        self.wait_sync()?;
        self.file.set_len(offset)?;
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.sync_data()?;
        self.offset = offset;
        self.next_t = next_t;
        self.since_sync = 0;
        Ok(())
    }

    /// The WAL file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WalWriter {
    /// Wait for a deferred sync still in flight, then stop and join the
    /// I/O thread. A sync error has no caller left to reach here; call
    /// [`sync`](WalWriter::sync) before dropping to observe it.
    fn drop(&mut self) {
        if let Some(syncer) = self.syncer.take() {
            syncer.shut_down();
        }
    }
}

/// An I/O thread that runs one kind of job for its owner, so the owner
/// can overlap the job's I/O with other work: a [`WalWriter`]'s runs
/// `sync_data` on a cloned handle of the log, a [`Checkpointer`]'s writes
/// a checkpoint. Owners start it the first time they defer a job. At most
/// one job is in flight; the thread sends back each job's result and
/// drops the job. It ends when `requests` is dropped.
#[derive(Debug)]
struct IoThread<J> {
    requests: mpsc::Sender<J>,
    /// Behind a `Mutex` only so the owner stays `Sync`; it is reached
    /// through `get_mut` and never locked.
    results: Mutex<mpsc::Receiver<io::Result<()>>>,
    handle: thread::JoinHandle<()>,
    in_flight: bool,
}

impl<J: Send + 'static> IoThread<J> {
    /// Start a thread named `name` that calls `run` on each job it is
    /// handed.
    fn spawn(
        name: &str,
        mut run: impl FnMut(J) -> io::Result<()> + Send + 'static,
    ) -> io::Result<Self> {
        let (requests, inbox) = mpsc::channel::<J>();
        let (outbox, results) = mpsc::channel();
        let handle = thread::Builder::new().name(name.to_string()).spawn(move || {
            while let Ok(job) = inbox.recv() {
                if outbox.send(run(job)).is_err() {
                    break;
                }
            }
        })?;
        Ok(IoThread { requests, results: Mutex::new(results), handle, in_flight: false })
    }

    /// Hand `job` to the thread. The caller has waited for the previous
    /// one.
    fn request(&mut self, job: J) -> io::Result<()> {
        self.requests.send(job).map_err(|_| io_thread_gone())?;
        self.in_flight = true;
        Ok(())
    }

    /// Wait for the job in flight, if any, and return its result. A
    /// thread that is gone is an error too.
    fn wait(&mut self) -> io::Result<()> {
        if !std::mem::take(&mut self.in_flight) {
            return Ok(());
        }
        let results = self.results.get_mut().map_err(|_| io_thread_gone())?;
        results.recv().map_err(|_| io_thread_gone())?
    }

    /// Wait for the job in flight, then close the queue and join the
    /// thread. The job's error has no caller left to reach here.
    fn shut_down(mut self) {
        let _ = self.wait();
        let IoThread { requests, handle, .. } = self;
        drop(requests);
        let _ = handle.join();
    }
}

fn io_thread_gone() -> io::Error {
    io::Error::other("a WAL I/O thread is gone (it panicked or its channel closed)")
}

/// Force the directory entry changes under `path`'s parent directory to
/// stable storage (a no-op where directories cannot be opened as files).
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    if cfg!(unix) {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
        fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Reader.

/// A parsed WAL: the session identity from the header plus every fully
/// persisted batch, in timestamp order.
#[derive(Debug, Clone)]
pub struct WalContents {
    /// Seed recorded in the header.
    pub seed: u64,
    /// Session fingerprint recorded in the header.
    pub fingerprint: u64,
    /// One event batch per timestamp, `batches[t]` covering timestamp `t`.
    pub batches: Vec<Vec<UserEvent>>,
    /// Byte length of the valid prefix (header + intact records).
    pub valid_len: u64,
    /// Whether a torn or corrupt tail was discarded after `valid_len`.
    pub truncated: bool,
}

impl WalContents {
    /// Read and validate a WAL file. A corrupt header is an error; a torn
    /// or corrupt tail truncates to the last intact timestamp and sets
    /// [`WalContents::truncated`].
    pub fn read(path: impl AsRef<Path>) -> Result<Self, WalError> {
        let wal = WalFile::open(path.as_ref())?;
        let records = Records::new(wal.src, HEADER_LEN as u64, wal.len, 0);
        Self::collect(wal.seed, wal.fingerprint, records)
    }

    /// Parse an in-memory WAL image (see [`WalContents::read`]).
    pub fn parse(bytes: &[u8]) -> Result<Self, WalError> {
        let (seed, fingerprint) = parse_header(&bytes[..bytes.len().min(HEADER_LEN)])?;
        let records = Records::new(&bytes[HEADER_LEN..], HEADER_LEN as u64, bytes.len() as u64, 0);
        Self::collect(seed, fingerprint, records)
    }

    fn collect<R: Read>(
        seed: u64,
        fingerprint: u64,
        mut records: Records<R>,
    ) -> Result<Self, WalError> {
        let mut batches = Vec::new();
        while let Some(batch) = records.next_batch()? {
            batches.push(batch.to_vec());
        }
        Ok(WalContents {
            seed,
            fingerprint,
            batches,
            valid_len: records.valid_len,
            truncated: records.truncated,
        })
    }
}

/// Check a WAL header — `head` is the file's first `HEADER_LEN` bytes, or
/// all of it if the file is shorter — and return its seed and fingerprint.
fn parse_header(head: &[u8]) -> Result<(u64, u64), WalError> {
    let corrupt = |offset: u64, detail: String| WalError::Corrupt { offset, detail };
    if head.len() < HEADER_LEN {
        let detail =
            format!("file is {} bytes, shorter than the {HEADER_LEN}-byte header", head.len());
        return Err(corrupt(head.len() as u64, detail));
    }
    if &head[..8] != WAL_MAGIC {
        return Err(corrupt(0, format!("bad magic {:02x?}, expected \"RSWAL002\"", &head[..8])));
    }
    let body = open(&head[..HEADER_LEN]).map_err(|e| corrupt(0, format!("header {e}")))?;
    let mut dec = Dec::new(&body[8..]);
    dec.u64().and_then(|seed| Ok((seed, dec.u64()?))).map_err(|e| corrupt(8, e))
}

/// An open WAL file whose header checked out, positioned at its first
/// record.
struct WalFile {
    src: io::BufReader<fs::File>,
    /// File length in bytes.
    len: u64,
    seed: u64,
    fingerprint: u64,
}

impl WalFile {
    /// Open `path` and check its header from one `HEADER_LEN`-byte read.
    fn open(path: &Path) -> Result<Self, WalError> {
        let file = fs::File::open(path)?;
        let len = file.metadata()?.len();
        let mut src = io::BufReader::new(file);
        let mut head = Vec::with_capacity(HEADER_LEN);
        (&mut src).take(HEADER_LEN as u64).read_to_end(&mut head)?;
        let (seed, fingerprint) = parse_header(&head)?;
        Ok(WalFile { src, len, seed, fingerprint })
    }

    /// The records from timestamp 0, read from just past the header.
    fn records(&mut self) -> Result<Records<&mut io::BufReader<fs::File>>, WalError> {
        self.src.seek(SeekFrom::Start(HEADER_LEN as u64))?;
        Ok(Records::new(&mut self.src, HEADER_LEN as u64, self.len, 0))
    }

    /// Skip records `0..t` from the header by their length prefixes alone
    /// (no payload read, no CRC) and return the offset where record `t`
    /// starts, or `None` if a hop runs past the end of the file. Nothing
    /// here proves the landing is a record boundary; the caller checks.
    fn hop(&mut self, t: u64) -> Result<Option<u64>, WalError> {
        self.src.seek(SeekFrom::Start(HEADER_LEN as u64))?;
        let mut offset = HEADER_LEN as u64;
        let mut prefix = [0u8; 4];
        for _ in 0..t {
            if self.len - offset < 4 {
                return Ok(None);
            }
            self.src.read_exact(&mut prefix)?;
            let skip = u64::from(u32::from_le_bytes(prefix)) + CRC_LEN as u64;
            offset += 4 + skip;
            if offset > self.len {
                return Ok(None);
            }
            self.src.seek_relative(skip as i64)?;
        }
        Ok(Some(offset))
    }
}

/// Streams WAL records one timestamp at a time, parsing each into a
/// reused event buffer. It stops at the end of the data or at the first
/// torn or corrupt record, so what it yields is always an intact prefix.
/// [`WalContents`] collects it; recovery replays it batch by batch, so
/// no recovery path holds the whole log in memory.
struct Records<R> {
    src: R,
    /// Byte length of the whole image: a record whose length prefix runs
    /// past it is torn, and is never allocated.
    end: u64,
    /// Byte offset just past the last intact record.
    valid_len: u64,
    /// Timestamp the next record must carry.
    next_t: u64,
    /// Whether reading stopped at a torn or corrupt record.
    truncated: bool,
    record: Vec<u8>,
    events: Vec<UserEvent>,
}

impl<R: Read> Records<R> {
    /// Records read from `src`, which is positioned at byte `offset` of an
    /// `end`-byte image, at the record expected to carry timestamp `next_t`.
    fn new(src: R, offset: u64, end: u64, next_t: u64) -> Self {
        Records {
            src,
            end,
            valid_len: offset,
            next_t,
            truncated: false,
            record: Vec::new(),
            events: Vec::new(),
        }
    }

    /// The next intact batch, or `None` at the end of the data or at the
    /// first torn or corrupt record (which sets `truncated`).
    fn next_batch(&mut self) -> Result<Option<&[UserEvent]>, WalError> {
        if self.truncated || self.valid_len == self.end {
            return Ok(None);
        }
        if self.read_record()? && parse_record(&self.record, self.next_t, &mut self.events).is_ok()
        {
            self.valid_len += self.record.len() as u64;
            self.next_t += 1;
            return Ok(Some(&self.events));
        }
        // Any framing/CRC/semantic failure in a record: keep the prefix up
        // to the previous record. Framing past a flip can't be trusted, so
        // no attempt is made to resynchronize.
        self.truncated = true;
        Ok(None)
    }

    /// Read the record at `valid_len` into `self.record`; `false` if it is
    /// torn (runs past the end of the image).
    fn read_record(&mut self) -> io::Result<bool> {
        let left = self.end - self.valid_len;
        if left < 4 {
            return Ok(false);
        }
        let mut prefix = [0u8; 4];
        self.src.read_exact(&mut prefix)?;
        let len = 4 + u64::from(u32::from_le_bytes(prefix)) + CRC_LEN as u64;
        if len > left {
            return Ok(false);
        }
        self.record.clear();
        self.record.extend_from_slice(&prefix);
        self.record.resize(len as usize, 0);
        self.src.read_exact(&mut self.record[4..])?;
        Ok(true)
    }
}

/// Parse one framed record (length prefix, payload, CRC) into `events`,
/// or describe why it is corrupt.
fn parse_record(record: &[u8], expected_t: u64, events: &mut Vec<UserEvent>) -> Result<(), String> {
    let mut dec = Dec::new(open(record)?);
    let payload_len = dec.u32()? as usize;
    let t = dec.u64()?;
    if t != expected_t {
        return Err(format!("record timestamp {t}, expected {expected_t}"));
    }
    let count = dec.u32()? as usize;
    if payload_len != PAYLOAD_PREFIX + EVENT_LEN * count {
        return Err(format!("payload length {payload_len} disagrees with event count {count}"));
    }
    events.clear();
    events.reserve(count);
    for _ in 0..count {
        events.push(decode_event(&mut dec)?);
    }
    dec.finish()
}

// ---------------------------------------------------------------------------
// Tee source.

/// Tee adapter giving any [`EventSource`] durability: every batch the
/// inner source yields is appended to the WAL before the engine sees it,
/// so the log always covers at least what the session has ingested.
///
/// A WAL write failure panics with a descriptive message rather than
/// silently dropping events — a WAL that quietly diverges from the
/// session it claims to record would defeat the purpose of having one.
#[derive(Debug)]
pub struct WalSource<S> {
    inner: S,
    writer: WalWriter,
    next_t: u64,
}

impl<S: EventSource> WalSource<S> {
    /// Wrap `inner`, logging every yielded batch to `writer`. The writer's
    /// next expected timestamp must match the inner source's next batch
    /// (0 for a fresh session; the recovery point when continuing after
    /// [`WalWriter::reopen`]).
    pub fn tee(inner: S, writer: WalWriter) -> Self {
        let next_t = writer.batches_written();
        WalSource { inner, writer, next_t }
    }

    /// Unwrap, returning the inner source and the writer (e.g. to `sync`
    /// at session end).
    pub fn into_parts(self) -> (S, WalWriter) {
        (self.inner, self.writer)
    }

    /// The underlying writer.
    pub fn writer(&mut self) -> &mut WalWriter {
        &mut self.writer
    }
}

impl<S: EventSource> EventSource for WalSource<S> {
    fn next_batch(&mut self) -> Option<&[UserEvent]> {
        let batch = self.inner.next_batch()?;
        self.writer
            .append_batch(self.next_t, batch)
            // xtask:allow(ERR001, EventSource has no error channel; the supervisor catches the unwind and rolls the WAL back)
            .unwrap_or_else(|e| panic!("failed to append batch t={} to WAL: {e}", self.next_t));
        self.next_t += 1;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::checkpoint::{
        frozen_blocks, frozen_header, load_checkpoint, restore_sidecar, FrozenRef, CKPT_MAGIC,
    };
    use super::codec::{crc32, crc32_combine, crc32_extend, CRC_TABLES};
    use super::*;
    use crate::session::StreamingEngine;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique temp path per test invocation (no tempfile crate offline).
    pub(crate) fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("retrasyn-wal-{}-{tag}-{n}.wal", std::process::id()))
    }

    fn sample_batches() -> Vec<Vec<UserEvent>> {
        vec![
            vec![
                UserEvent { user: 3, state: TransitionState::Enter(CellId(5)) },
                UserEvent { user: 9, state: TransitionState::Enter(CellId(0)) },
            ],
            vec![],
            vec![
                UserEvent {
                    user: 3,
                    state: TransitionState::Move { from: CellId(5), to: CellId(6) },
                },
                UserEvent { user: 9, state: TransitionState::Quit(CellId(0)) },
            ],
        ]
    }

    fn write_sample(path: &Path, policy: FsyncPolicy) -> Vec<Vec<UserEvent>> {
        let batches = sample_batches();
        let mut w = WalWriter::create(path, 42, 0xDEAD_BEEF, policy).unwrap();
        for (t, b) in batches.iter().enumerate() {
            w.append_batch(t as u64, b).unwrap();
        }
        w.sync().unwrap();
        batches
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// CRC32 of `a ‖ bytes` given `crc = crc32(a)`, one byte at a time:
    /// the definition the sliced and laned kernel must equal.
    fn crc32_bytewise(crc: u32, bytes: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// `len` bytes of a hashed counter.
    fn crc_data(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect()
    }

    /// A starting CRC other than 0: lanes 1–3 start from the empty CRC, not
    /// from this, and only a nonzero start tells the two apart.
    const CRC_START: u32 = 0x1234_5678;

    /// The kernel equals the bytewise definition at every length from 0 to
    /// 4,160 (the lane threshold is 1,024) and at 64 KiB + 13 and
    /// 1 MiB + 5, at every alignment, from 0 and from a nonzero starting
    /// CRC, so the 8-byte steps, the lanes, their join and the tail meet
    /// correctly. Miri runs a sample around the threshold.
    #[test]
    fn crc32_matches_bytewise_reference() {
        let lens: Vec<usize> = if cfg!(miri) {
            (0..=40).chain([1_023, 1_024, 1_025, 1_031, 1_057, 2_049]).collect()
        } else {
            (0..=4_160).chain([65_536 + 13, (1 << 20) + 5]).collect()
        };
        let data = crc_data(lens.iter().max().unwrap() + 8);
        for start in 0..8 {
            for &len in &lens {
                let bytes = &data[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(0, bytes), "{start}+{len}");
                assert_eq!(
                    crc32_extend(CRC_START, bytes),
                    crc32_bytewise(CRC_START, bytes),
                    "{start}+{len} from {CRC_START:#x}"
                );
            }
        }
    }

    /// Extending in pieces equals extending over the whole, at splits on
    /// and off the lane threshold and the 8-byte grid.
    #[test]
    fn crc32_extend_chains_across_uneven_splits() {
        let data = crc_data(if cfg!(miri) { 2_100 } else { 200_003 });
        let whole = crc32_extend(CRC_START, &data);
        let splits = [0, 1, 7, 1_023, 1_024, 1_025, 2_099, 65_541, 199_999];
        for (i, &a) in splits.iter().enumerate().filter(|&(_, &a)| a <= data.len()) {
            let head = crc32_extend(CRC_START, &data[..a]);
            assert_eq!(crc32_extend(head, &data[a..]), whole, "{a}");
            for &b in splits[i..].iter().filter(|&&b| b <= data.len()) {
                let mid = crc32_extend(head, &data[a..b]);
                assert_eq!(crc32_extend(mid, &data[b..]), whole, "{a}, {b}");
            }
        }
    }

    #[test]
    fn crc32_combine_matches_crc_of_concatenation() {
        let lens_b: &[usize] = if cfg!(miri) {
            &[0, 1, 7, 8, 9, 1_023, 1_024, 1_025]
        } else {
            &[0, 1, 7, 8, 9, 255, 256, 300, 1_023, 1_024, 1_025, 65_537, 1 << 20]
        };
        let data = crc_data(600 + lens_b.iter().max().unwrap());
        for len_a in [0, 1, 300, 600] {
            for &len_b in lens_b {
                let (a, b) = data[..len_a + len_b].split_at(len_a);
                let crc = crc32(&data[..len_a + len_b]);
                assert_eq!(crc32_combine(crc32(a), crc32(b), len_b as u64), crc, "{len_a}+{len_b}");
                // x^(8n) repeats when n grows by 2^32 - 1, which the x^(2^k)
                // table's wrap at 32 relies on.
                let wrapped = len_b as u64 + 3 * u64::from(u32::MAX);
                assert_eq!(crc32_combine(crc32(a), crc32(b), wrapped), crc, "{len_a}+{len_b}");
            }
        }
    }

    #[test]
    fn roundtrip_write_read() {
        let path = temp_path("roundtrip");
        let batches = write_sample(&path, FsyncPolicy::EveryBatch);
        let wal = WalContents::read(&path).unwrap();
        assert_eq!(wal.seed, 42);
        assert_eq!(wal.fingerprint, 0xDEAD_BEEF);
        assert_eq!(wal.batches, batches);
        assert!(!wal.truncated);
        assert_eq!(wal.valid_len, fs::metadata(&path).unwrap().len());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn every_n_and_never_policies_accept_appends() {
        for policy in [FsyncPolicy::EveryN(2), FsyncPolicy::Never] {
            let path = temp_path("policy");
            let batches = write_sample(&path, policy);
            let wal = WalContents::read(&path).unwrap();
            assert_eq!(wal.batches, batches);
            let _ = fs::remove_file(&path);
        }
    }

    /// Deferred syncs go to one lazily started I/O thread, only when the
    /// policy asks for a sync; inline appends never start it. Every record
    /// reads back whichever way it was appended.
    #[test]
    fn deferred_syncs_follow_the_policy_on_one_lazy_thread() {
        let batches: Vec<Vec<UserEvent>> = sample_batches().into_iter().cycle().take(7).collect();
        for (policy, deferred_syncs) in
            [(FsyncPolicy::EveryBatch, 6), (FsyncPolicy::EveryN(3), 2), (FsyncPolicy::Never, 0)]
        {
            let path = temp_path("deferred");
            let mut w = WalWriter::create(&path, 42, 0xDEAD_BEEF, policy).unwrap();
            w.append_batch(0, &batches[0]).unwrap();
            assert!(w.syncer.is_none(), "{policy:?}: an inline append started the I/O thread");
            let mut requested = 0;
            for (t, b) in batches.iter().enumerate().skip(1) {
                w.append_deferred(t as u64, b).unwrap();
                requested += usize::from(w.syncer.as_ref().is_some_and(|s| s.in_flight));
                w.wait_sync().unwrap();
            }
            assert_eq!(requested, deferred_syncs, "{policy:?}");
            assert_eq!(w.syncer.is_some(), deferred_syncs > 0, "{policy:?}");
            drop(w);
            assert_eq!(WalContents::read(&path).unwrap().batches, batches, "{policy:?}");
            let _ = fs::remove_file(&path);
        }
    }

    /// An I/O thread whose queue is closed before the first request.
    fn closed_io_thread<J: Send + 'static>() -> IoThread<J> {
        let (requests, inbox) = mpsc::channel::<J>();
        let (_outbox, results) = mpsc::channel();
        drop(inbox);
        let handle = thread::spawn(|| {});
        IoThread { requests, results: Mutex::new(results), handle, in_flight: false }
    }

    /// An I/O thread that panics on its first job.
    fn panicking_io_thread<J: Send + 'static>() -> IoThread<J> {
        let (requests, inbox) = mpsc::channel::<J>();
        let (outbox, results) = mpsc::channel::<io::Result<()>>();
        let handle = thread::spawn(move || {
            let _keep = outbox;
            let _ = inbox.recv();
            panic!("injected I/O thread panic");
        });
        IoThread { requests, results: Mutex::new(results), handle, in_flight: false }
    }

    /// An I/O thread that is gone — its channel closed before a request,
    /// or it panicked with a sync in flight — is `WalError::Io`, never a
    /// hang or a panic of the caller; dropping the writer still joins it.
    #[test]
    fn lost_sync_thread_is_an_io_error() {
        let path = temp_path("lost-sync");
        let batches = sample_batches();
        let mut w = WalWriter::create(&path, 42, 0xDEAD_BEEF, FsyncPolicy::EveryBatch).unwrap();

        w.syncer = Some(closed_io_thread());
        assert!(matches!(w.append_deferred(0, &batches[0]), Err(WalError::Io(_))));

        w.syncer = Some(panicking_io_thread());
        w.append_deferred(1, &batches[1]).unwrap();
        assert!(matches!(w.wait_sync(), Err(WalError::Io(_))));
        drop(w);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncation_keeps_valid_prefix() {
        let path = temp_path("truncate");
        write_sample(&path, FsyncPolicy::Never);
        let full = fs::read(&path).unwrap();
        let wal = WalContents::parse(&full).unwrap();
        assert_eq!(wal.batches.len(), 3);
        // Chop every byte length from just-after-header to full-1: each
        // must parse to a prefix (never error, never panic).
        for cut in HEADER_LEN..full.len() {
            let part = WalContents::parse(&full[..cut]).unwrap();
            assert!(part.batches.len() <= wal.batches.len());
            assert_eq!(part.batches[..], wal.batches[..part.batches.len()]);
            assert!(part.valid_len <= cut as u64);
            // Re-parsing only the valid prefix is clean.
            let clean = WalContents::parse(&full[..part.valid_len as usize]).unwrap();
            assert!(!clean.truncated);
            assert_eq!(clean.batches, part.batches);
        }
        // Chopping into the header is a hard, descriptive error.
        for cut in 0..HEADER_LEN {
            let err = WalContents::parse(&full[..cut]).unwrap_err();
            assert!(matches!(err, WalError::Corrupt { .. }), "cut={cut}: {err}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn bit_flips_detected_everywhere() {
        let path = temp_path("bitflip");
        write_sample(&path, FsyncPolicy::Never);
        let full = fs::read(&path).unwrap();
        let baseline = WalContents::parse(&full).unwrap();
        for offset in 0..full.len() {
            for bit in [0u8, 3, 7] {
                let mut corrupted = full.clone();
                corrupted[offset] ^= 1 << bit;
                match WalContents::parse(&corrupted) {
                    // Header flips must error out.
                    Err(WalError::Corrupt { .. }) => assert!(offset < HEADER_LEN),
                    Err(e) => panic!("unexpected error kind at offset {offset}: {e}"),
                    // Record flips must truncate to a strict prefix that
                    // matches the baseline bit-for-bit.
                    Ok(wal) => {
                        assert!(offset >= HEADER_LEN, "header flip at {offset} not caught");
                        assert!(wal.truncated);
                        assert!(wal.batches.len() < baseline.batches.len());
                        assert_eq!(wal.batches[..], baseline.batches[..wal.batches.len()]);
                    }
                }
            }
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn reopen_truncates_torn_tail_and_continues() {
        let path = temp_path("reopen");
        write_sample(&path, FsyncPolicy::Never);
        // Tear the last record.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        let wal = WalContents::read(&path).unwrap();
        assert!(wal.truncated);
        assert_eq!(wal.batches.len(), 2);
        // Reopen and append the repaired timestamp 2 plus a new one.
        let mut w = WalWriter::reopen(&wal, &path, FsyncPolicy::EveryBatch).unwrap();
        assert_eq!(w.batches_written(), 2);
        let repaired = sample_batches()[2].clone();
        w.append_batch(2, &repaired).unwrap();
        w.append_batch(3, &[]).unwrap();
        drop(w);
        let wal = WalContents::read(&path).unwrap();
        assert!(!wal.truncated);
        assert_eq!(wal.batches.len(), 4);
        assert_eq!(wal.batches[2], repaired);
        let _ = fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "consecutive timestamps")]
    fn writer_rejects_timestamp_gaps() {
        let path = temp_path("gap");
        let mut w = WalWriter::create(&path, 1, 2, FsyncPolicy::Never).unwrap();
        let _ = fs::remove_file(&path);
        w.append_batch(5, &[]).unwrap();
    }

    #[test]
    fn tee_logs_what_it_yields() {
        use crate::session::IterSource;
        let path = temp_path("tee");
        let batches = sample_batches();
        let writer = WalWriter::create(&path, 7, 11, FsyncPolicy::EveryBatch).unwrap();
        let mut src = WalSource::tee(IterSource::new(batches.clone().into_iter()), writer);
        let mut n = 0;
        while src.next_batch().is_some() {
            n += 1;
        }
        assert_eq!(n, batches.len());
        let (_, mut writer) = src.into_parts();
        writer.sync().unwrap();
        let wal = WalContents::read(&path).unwrap();
        assert_eq!((wal.seed, wal.fingerprint), (7, 11));
        assert_eq!(wal.batches, batches);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_sidecar_roundtrip_and_corruption() {
        let path = temp_path("ckpt");
        let ckpt = Checkpointer::sidecar(&path);
        assert!(ckpt.to_string_lossy().ends_with(".wal.ckpt"));
        // Missing file: Ok(None).
        assert!(load_checkpoint(&ckpt, 1).unwrap().is_none());
        // Hand-rolled valid sidecar.
        let payload = vec![1u8, 2, 3, 4, 5];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(CKPT_MAGIC);
        bytes.extend_from_slice(&9u64.to_le_bytes()); // fingerprint
        bytes.extend_from_slice(&17u64.to_le_bytes()); // t
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        fs::write(&ckpt, &bytes).unwrap();
        let saved = load_checkpoint(&ckpt, 9).unwrap().expect("sidecar");
        assert_eq!((saved.t, saved.payload()), (17, &payload[..]));
        // Fingerprint mismatch.
        assert!(matches!(load_checkpoint(&ckpt, 8), Err(WalError::Mismatch { .. })));
        // Any single-bit flip: descriptive error, never Ok.
        for offset in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[offset] ^= 0x10;
            fs::write(&ckpt, &bad).unwrap();
            assert!(load_checkpoint(&ckpt, 9).is_err(), "flip at {offset} accepted");
        }
        let _ = fs::remove_file(&ckpt);
    }

    /// The checkpoint I/O thread starts with the first checkpoint, not
    /// with the checkpointer, an off-interval call, or an engine that has
    /// nothing to checkpoint; one thread serves every later save.
    #[test]
    fn checkpoint_thread_starts_lazily() {
        let path = temp_path("ckpt-lazy");
        let ckpt = Checkpointer::new(&path, 4);
        let started = |c: &Checkpointer| c.io.lock().unwrap().is_some();
        assert!(!started(&ckpt), "new() started the I/O thread");
        let mut released = compacted_engine(8);
        released.release();
        assert!(!ckpt.save(&released).unwrap(), "a released engine has no checkpoint");
        assert!(!started(&ckpt), "a save with nothing to write started the I/O thread");
        let engine = compacted_engine(6);
        assert!(!ckpt.maybe_save(&engine).unwrap(), "t=6 is off the interval of 4");
        assert!(!started(&ckpt), "an off-interval call started the I/O thread");
        assert!(ckpt.save(&engine).unwrap());
        assert!(started(&ckpt), "the first checkpoint runs on the I/O thread");
        let thread_id =
            |c: &Checkpointer| c.io.lock().unwrap().as_ref().unwrap().handle.thread().id();
        let first = thread_id(&ckpt);
        assert!(ckpt.save(&compacted_engine(8)).unwrap());
        assert_eq!(thread_id(&ckpt), first, "a second save started another thread");
        drop(ckpt);
        for file in [Checkpointer::sidecar(&path), Checkpointer::frozen_file(&path)] {
            let _ = fs::remove_file(file);
        }
    }

    /// The public `save` returns only after the rename: the sidecar reads
    /// back at once with the engine's timestamp and state, no temporary
    /// file is left, and the frozen file holds every referenced block.
    /// A deferred save writes the same bytes once it is waited for.
    #[test]
    fn public_save_returns_after_the_rename() {
        let path = temp_path("ckpt-sync");
        let engine = compacted_engine(24);
        let fingerprint = engine.fingerprint();
        let ckpt = Checkpointer::new(&path, 8);
        let sidecar = Checkpointer::sidecar(&path);
        let (state, _) = engine.checkpoint_by_ref().expect("engine checkpoints");
        for round in 0..3 {
            assert!(ckpt.save(&engine).unwrap(), "round {round}");
            assert!(!Checkpointer::temp(&sidecar).exists(), "round {round}: temp file left");
            let saved = load_checkpoint(&sidecar, fingerprint).unwrap().expect("sidecar");
            assert_eq!(saved.t, 24, "round {round}");
            let (_, stored) = FrozenRef::split(saved.payload()).unwrap();
            assert_eq!(stored, &state[..], "round {round}");
            let mut restored = compacted_engine(1);
            let frozen = Checkpointer::frozen_file(&path);
            restore_sidecar(&mut restored, saved.payload(), &frozen).unwrap();
            assert_eq!(restored.checkpoint_bytes(), engine.checkpoint_bytes(), "round {round}");
        }
        let saved =
            (fs::read(&sidecar).unwrap(), fs::read(Checkpointer::frozen_file(&path)).unwrap());
        fs::remove_file(&sidecar).unwrap();
        fs::remove_file(Checkpointer::frozen_file(&path)).unwrap();
        assert!(ckpt.save_deferred(&engine).unwrap());
        ckpt.wait().unwrap();
        let deferred =
            (fs::read(&sidecar).unwrap(), fs::read(Checkpointer::frozen_file(&path)).unwrap());
        assert!(saved == deferred, "a deferred save wrote different bytes");
        drop(ckpt);
        let _ = fs::remove_file(&sidecar);
        let _ = fs::remove_file(Checkpointer::frozen_file(&path));
    }

    /// A checkpoint I/O thread that is gone — its channel closed, or it
    /// panicked with a checkpoint in flight — is `WalError::Io` from the
    /// save (or the wait) that meets it, never a hang or a panic of the
    /// caller; so is a job that fails. Dropping the checkpointer still
    /// joins the thread.
    #[test]
    fn lost_checkpoint_thread_is_an_io_error() {
        let path = temp_path("ckpt-lost");
        let engine = compacted_engine(8);
        let ckpt = Checkpointer::new(&path, 8);
        *ckpt.io.lock().unwrap() = Some(closed_io_thread());
        assert!(matches!(ckpt.save(&engine), Err(WalError::Io(_))));
        assert!(matches!(ckpt.maybe_save_deferred(&engine), Err(WalError::Io(_))));

        *ckpt.io.lock().unwrap() = Some(panicking_io_thread());
        assert!(ckpt.save_deferred(&engine).unwrap(), "the request itself is accepted");
        assert!(matches!(ckpt.wait(), Err(WalError::Io(_))));
        assert!(matches!(ckpt.save(&engine), Err(WalError::Io(_))), "the thread stays gone");

        // A real thread whose job fails: the temporary file is a directory.
        *ckpt.io.lock().unwrap() = None;
        let temp = Checkpointer::temp(&Checkpointer::sidecar(&path));
        fs::create_dir(&temp).unwrap();
        assert!(ckpt.save_deferred(&engine).unwrap());
        assert!(matches!(ckpt.wait(), Err(WalError::Io(_))));
        assert!(!Checkpointer::sidecar(&path).exists());
        fs::remove_dir(&temp).unwrap();
        assert!(ckpt.save(&engine).unwrap(), "the thread outlives a failed job");
        drop(ckpt);
        let _ = fs::remove_file(Checkpointer::sidecar(&path));
        let _ = fs::remove_file(Checkpointer::frozen_file(&path));
    }

    /// A small compacting session's engine, stepped `steps` times.
    fn compacted_engine(steps: u64) -> crate::RetraSyn {
        use rand::SeedableRng;
        let grid = retrasyn_geo::UniformGrid::unit(4);
        let gridded = retrasyn_datagen::RandomWalkConfig {
            users: 30,
            timestamps: steps,
            churn: 0.15,
            ..Default::default()
        }
        .generate(&mut rand::rngs::StdRng::seed_from_u64(3))
        .discretize(&grid);
        let config = crate::RetraSynConfig::new(1.0, 4).with_lambda(6.0).with_compaction(120);
        let mut engine = crate::RetraSyn::population_division(config, grid, 5);
        let mut source = crate::TimelineSource::from_gridded(&gridded);
        while let Some(batch) = source.next_batch() {
            engine.step(engine.next_timestamp(), batch);
        }
        assert!(steps < 20 || engine.compaction_stats().runs >= 2, "the session compacts");
        engine
    }

    proptest::proptest! {
        /// Arbitrary bytes inside valid CRC framing — an epoch block whose
        /// fixed fields match its mark, a frozen-file prefix whose CRC the
        /// reference vouches for, a sidecar payload, and a real checkpoint
        /// with an arbitrary tail — are always an `Err`: never a panic,
        /// never an allocation the bytes cannot back.
        #[test]
        fn decoders_reject_arbitrary_payloads_in_valid_framing(
            body in proptest::prop::collection::vec(0u8..=255, 0..160),
            shape in (0u64..4, 0u64..12, 0u64..1000),
            exact in 0u8..2,
            cut in 0usize..100_000,
        ) {
            use crate::compact::{FrozenStore, BLOCK_HEADER_LEN};
            let (streams, extra, epoch) = shape;
            let cells = streams + extra;

            // The block decoder, behind a matching mark.
            let mut marks = Enc::default();
            marks.usize(1);
            marks.u64(epoch);
            marks.usize(streams as usize);
            marks.usize(cells as usize);
            let mut block = Vec::new();
            for v in [epoch, streams, cells] {
                block.extend_from_slice(&v.to_le_bytes());
            }
            block.extend_from_slice(&body);
            if exact == 1 {
                block.resize(BLOCK_HEADER_LEN + (20 * streams + 4 * cells) as usize, 0x5A);
            }
            let crc = crc32(&block);
            block.extend_from_slice(&crc.to_le_bytes());
            let mut store = FrozenStore::default();
            let decoded = store
                .decode_from(&mut Dec::new(&marks.buf))
                .and_then(|()| store.decode_blocks(&block));
            proptest::prop_assert!(decoded.is_err());

            // The frozen-file prefix reader.
            let mut prefix = frozen_header(9).to_vec();
            prefix.extend_from_slice(&body);
            let reference = FrozenRef {
                blocks: 1 + u64::from(exact),
                len: prefix.len() as u64,
                crc: crc32(&prefix),
            };
            proptest::prop_assert!(frozen_blocks(&prefix, 9, reference).is_err());

            // The checkpoint decoder: an arbitrary sidecar payload (no
            // frozen reference), and a real checkpoint cut at `cut` with
            // `body` as its tail.
            let mut engine = compacted_engine(1);
            let mut payload = Enc::default();
            FrozenRef::default().encode_into(&mut payload);
            payload.buf.extend_from_slice(&body);
            proptest::prop_assert!(restore_sidecar(&mut engine, &payload.buf, Path::new("")).is_err());
            let real = compacted_engine(24).checkpoint_bytes().expect("engine checkpoints");
            let mut spliced = real[..cut % real.len()].to_vec();
            spliced.extend_from_slice(&body);
            proptest::prop_assume!(spliced != real);
            proptest::prop_assert!(engine.restore_checkpoint(&spliced).is_err());
            let (state, blocks) = spliced.split_at(spliced.len().min(cut % 997));
            proptest::prop_assert!(engine.restore_checkpoint_by_ref(state, blocks).is_err());
        }

        /// Arbitrary payload bytes framed with a correct length prefix and
        /// CRC, appended to an intact log, always parse to `Ok` with the
        /// intact prefix: the record either decodes as the next batch or is
        /// counted as a truncated tail. Never a panic, and the event buffer
        /// never reserves more than the record's bytes can back. `lead`
        /// steers the payload past the checksum: raw bytes, the expected
        /// timestamp with an arbitrary event count, or the expected
        /// timestamp with the count its length implies and event tags
        /// folded mostly into range (so records also decode).
        #[test]
        fn record_decoder_keeps_intact_prefix_of_arbitrary_framed_payloads(
            mut body in proptest::prop::collection::vec(0u8..=255, 0..160),
            lead in 0u8..3,
            count in 0u32..=u32::MAX,
        ) {
            static IMAGE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
            let image = IMAGE.get_or_init(|| {
                let path = temp_path("fuzz-record");
                write_sample(&path, FsyncPolicy::Never);
                let bytes = fs::read(&path).unwrap();
                let _ = fs::remove_file(&path);
                bytes
            });
            let intact = sample_batches();
            let next_t = intact.len() as u64;
            let mut payload = Vec::new();
            match lead {
                0 => {}
                1 => {
                    payload.extend_from_slice(&next_t.to_le_bytes());
                    payload.extend_from_slice(&count.to_le_bytes());
                }
                _ => {
                    let events = body.len() / EVENT_LEN;
                    payload.extend_from_slice(&next_t.to_le_bytes());
                    payload.extend_from_slice(&(events as u32).to_le_bytes());
                    body.truncate(events * EVENT_LEN);
                    for event in body.chunks_mut(EVENT_LEN) {
                        event[8] %= 4;
                    }
                }
            }
            payload.extend_from_slice(&body);
            let mut record = (payload.len() as u32).to_le_bytes().to_vec();
            record.extend_from_slice(&payload);
            let crc = crc32(&record);
            record.extend_from_slice(&crc.to_le_bytes());
            let mut bytes = image.clone();
            bytes.extend_from_slice(&record);

            let wal = WalContents::parse(&bytes).expect("an intact header always parses");
            proptest::prop_assert_eq!(&wal.batches[..intact.len()], &intact[..]);
            if wal.batches.len() > intact.len() {
                proptest::prop_assert_eq!(wal.batches.len(), intact.len() + 1);
                proptest::prop_assert!(!wal.truncated);
                proptest::prop_assert_eq!(wal.valid_len, bytes.len() as u64);
                let decoded = wal.batches[intact.len()].len();
                proptest::prop_assert_eq!(payload.len(), PAYLOAD_PREFIX + EVENT_LEN * decoded);
            } else {
                proptest::prop_assert!(wal.truncated);
                proptest::prop_assert_eq!(wal.valid_len, image.len() as u64);
            }

            // The reused event buffer holds at most what the largest
            // record's bytes can back (a lying count must not size it).
            let end = bytes.len() as u64;
            let mut records = Records::new(&bytes[HEADER_LEN..], HEADER_LEN as u64, end, 0);
            while records.next_batch().unwrap().is_some() {}
            let backed = intact.iter().map(Vec::len).max().unwrap_or(0).max(body.len() / EVENT_LEN);
            proptest::prop_assert!(
                records.events.capacity() <= backed.max(8),
                "event buffer reserved {} events; the bytes back {backed}",
                records.events.capacity()
            );
        }
    }
}
