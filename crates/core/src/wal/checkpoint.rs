//! Checkpoints: the [`Checkpointer`], its sidecar `<wal>.ckpt` and the
//! frozen-epoch file `<wal>.frozen` — how a save plans, writes and cuts
//! them, and how recovery loads them back (see the [`wal`](super) module
//! docs for the protocol and the crate docs for the layouts).

use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use super::codec::{
    chain_frame, chain_head, check_head, open, open_existing, read_prefix, read_trailer, Dec, Enc,
    FrameWriter, CRC_LEN,
};
use super::{beside, sync_parent_dir, IoThread, WalError};
use crate::compact::{BlockHeader, FrozenEpochs, BLOCK_HEADER_LEN};
use crate::session::StreamingEngine;

/// Magic bytes opening every checkpoint sidecar.
pub(super) const CKPT_MAGIC: &[u8; 8] = b"RSCKPT02";
/// Sidecar fixed fields: magic + fingerprint + t + payload length.
const CKPT_HEAD_LEN: usize = 8 + 8 + 8 + 8;
/// Magic bytes opening every frozen-epoch file.
const FROZEN_MAGIC: &[u8; 8] = b"RSFRZ001";
/// Frozen-epoch file header: magic + fingerprint.
const FROZEN_HEADER_LEN: usize = 8 + 8;
/// A sidecar's reference to the frozen file: blocks u64 + length u64 +
/// crc32 u32.
const FROZEN_REF_LEN: usize = 8 + 8 + 4;

/// Writes the engine's serialized state to an atomically replaced sidecar
/// file (`<wal>.ckpt`) every `every` timestamps, bounding recovery replay
/// to the last checkpoint interval. Frozen compaction epochs are written
/// once each to `<wal>.frozen` and referenced from the sidecar (see the
/// [module docs](super)). The file I/O runs on the checkpointer's own I/O
/// thread, started by the first save and joined on drop; dropping a
/// checkpointer waits for a checkpoint still being written.
#[derive(Debug)]
pub struct Checkpointer {
    files: CheckpointFiles,
    every: u64,
    /// The I/O thread, started by the first save. Every save locks it;
    /// one owner saves at a time, so it is uncontended.
    pub(super) io: Mutex<Option<IoThread<CheckpointJob>>>,
}

/// The files a checkpoint writes.
#[derive(Debug, Clone)]
struct CheckpointFiles {
    sidecar: PathBuf,
    temp: PathBuf,
    frozen: PathBuf,
}

impl Checkpointer {
    /// Checkpoint the session of the WAL at `wal_path` every `every`
    /// timestamps (`every ≥ 1`) into the conventional sidecar path.
    pub fn new(wal_path: impl AsRef<Path>, every: u64) -> Self {
        assert!(every >= 1, "checkpoint interval must be >= 1");
        let wal_path = wal_path.as_ref();
        let sidecar = Self::sidecar(wal_path);
        let files = CheckpointFiles {
            temp: Self::temp(&sidecar),
            sidecar,
            frozen: Self::frozen_file(wal_path),
        };
        Checkpointer { files, every, io: Mutex::default() }
    }

    /// The conventional checkpoint sidecar path for a WAL: `<wal>.ckpt`.
    pub fn sidecar(wal_path: impl AsRef<Path>) -> PathBuf {
        beside(wal_path.as_ref(), ".ckpt")
    }

    /// The frozen-epoch file beside a WAL: `<wal>.frozen`.
    pub fn frozen_file(wal_path: impl AsRef<Path>) -> PathBuf {
        beside(wal_path.as_ref(), ".frozen")
    }

    /// The temporary file a checkpoint is written to before it is renamed
    /// over `sidecar`: `<wal>.ckpt.tmp`.
    pub(super) fn temp(sidecar: &Path) -> PathBuf {
        beside(sidecar, ".tmp")
    }

    /// The sidecar file this checkpointer writes.
    pub fn path(&self) -> &Path {
        &self.files.sidecar
    }

    /// Save a checkpoint if the engine's clock is on the interval. Call
    /// after each `step`. Returns whether a checkpoint was written
    /// (`false` off-interval or for engines without checkpoint support).
    pub fn maybe_save<E: StreamingEngine + ?Sized>(&self, engine: &E) -> Result<bool, WalError> {
        Ok(self.due(engine) && self.save(engine)?)
    }

    /// Save a checkpoint unconditionally (`false` only for engines
    /// without checkpoint support). Epochs not yet in the frozen file are
    /// appended to it and synced first. The sidecar is then written to a
    /// temporary file, synced, and renamed over the old checkpoint — a
    /// crash mid-write leaves the previous checkpoint intact. Returns
    /// after the rename.
    pub fn save<E: StreamingEngine + ?Sized>(&self, engine: &E) -> Result<bool, WalError> {
        let saved = self.save_deferred(engine)?;
        self.wait()?;
        Ok(saved)
    }

    /// Whether the engine's clock is on the interval.
    fn due<E: StreamingEngine + ?Sized>(&self, engine: &E) -> bool {
        let t = engine.next_timestamp();
        t != 0 && t.is_multiple_of(self.every)
    }

    /// [`maybe_save`](Self::maybe_save), deferred like
    /// [`save_deferred`](Self::save_deferred).
    pub(crate) fn maybe_save_deferred<E: StreamingEngine + ?Sized>(
        &self,
        engine: &E,
    ) -> Result<bool, WalError> {
        Ok(self.due(engine) && self.save_deferred(engine)?)
    }

    /// [`save`](Self::save), except that the file I/O runs on the I/O
    /// thread and this returns once the checkpoint is encoded. It first
    /// waits for the previous checkpoint and returns that one's error, if
    /// it failed. The frozen file is hopped here, so the job appends
    /// exactly the blocks it lacks. The checkpoint is on disk once
    /// [`wait`](Self::wait) returns `Ok`; dropping the checkpointer waits
    /// too.
    pub(crate) fn save_deferred<E: StreamingEngine + ?Sized>(
        &self,
        engine: &E,
    ) -> Result<bool, WalError> {
        let mut io = self.lock()?;
        io.as_mut().map_or(Ok(()), IoThread::wait)?;
        let Some((state, frozen)) = engine.checkpoint_by_ref() else {
            return Ok(false);
        };
        let fingerprint = engine.fingerprint();
        let (reference, frozen) = plan_frozen(&self.files.frozen, fingerprint, &frozen)?;
        let job =
            CheckpointJob { fingerprint, t: engine.next_timestamp(), reference, state, frozen };
        let thread = match io.take() {
            Some(thread) => thread,
            None => {
                let files = self.files.clone();
                IoThread::spawn("wal-checkpoint", move |job: CheckpointJob| job.run(&files))?
            }
        };
        io.insert(thread).request(job)?;
        Ok(true)
    }

    /// Wait for the checkpoint [`save_deferred`](Self::save_deferred)
    /// handed to the I/O thread, if one is in flight, and return its
    /// result. A failed checkpoint, or an I/O thread that is gone, is
    /// [`WalError::Io`].
    pub(crate) fn wait(&self) -> Result<(), WalError> {
        Ok(self.lock()?.as_mut().map_or(Ok(()), IoThread::wait)?)
    }

    fn lock(&self) -> Result<std::sync::MutexGuard<'_, Option<IoThread<CheckpointJob>>>, WalError> {
        self.io.lock().map_err(|_| {
            WalError::Io(io::Error::other(
                "a checkpoint save panicked; the checkpointer is unusable",
            ))
        })
    }
}

impl Drop for Checkpointer {
    /// Wait for a checkpoint still being written, then stop and join the
    /// I/O thread. Its error has no caller left to reach here.
    fn drop(&mut self) {
        let io = self.io.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(thread) = io.take() {
            thread.shut_down();
        }
    }
}

/// One checkpoint: encoded by the saving thread, written by the
/// checkpoint I/O thread.
#[derive(Debug)]
pub(super) struct CheckpointJob {
    fingerprint: u64,
    t: u64,
    reference: FrozenRef,
    /// The engine state.
    state: Vec<u8>,
    /// The frozen file's edit, if the checkpoint references any epoch.
    frozen: Option<FrozenEdit>,
}

/// How a checkpoint job brings the frozen file in line with the engine.
#[derive(Debug)]
struct FrozenEdit {
    /// End of the blocks the file keeps. The file is cut here if `cut`,
    /// and `appended` is written here.
    end: u64,
    /// The file holds bytes past `end`.
    cut: bool,
    /// The file is started anew: `appended` opens with its header, and
    /// its directory entry is synced.
    created: bool,
    /// The file header if the file is started anew, then the epoch
    /// blocks the file lacks.
    appended: Vec<u8>,
}

/// Find what the frozen file at `path` lacks of the engine's epochs and
/// encode it, returning the reference the sidecar makes to the file once
/// the edit is written, and the edit (`None` when the engine has no
/// epoch). The blocks already there are found by hopping their fixed
/// fields; the file is kept up to the first block that disagrees with the
/// engine's epoch (which also drops unreferenced bytes a crash left after
/// the last save), and the engine's remaining epochs follow it.
fn plan_frozen(
    path: &Path,
    fingerprint: u64,
    frozen: &FrozenEpochs<'_>,
) -> Result<(FrozenRef, Option<FrozenEdit>), WalError> {
    let Some(store) = frozen.store.filter(|s| !s.epochs.is_empty()) else {
        return Ok((FrozenRef::default(), None));
    };
    let epochs = store.epochs.len();
    let (size, kept, end, mut crc) = match open_existing(path, false)? {
        Some(mut file) => {
            hop_file(&mut file, fingerprint, epochs, |i, h| *h == store.block_header(i))?
        }
        None => (0, 0, 0, 0),
    };
    let created = end == 0;
    let mut appended = Vec::new();
    if created {
        appended.extend_from_slice(&frozen_header(fingerprint));
        crc = chain_head(&appended);
    }
    for i in kept..epochs {
        let start = appended.len();
        let stored = store.encode_block(i, &mut appended);
        crc = chain_frame(crc, (appended.len() - start) as u64, stored);
    }
    let reference = FrozenRef { blocks: epochs as u64, len: end + appended.len() as u64, crc };
    Ok((reference, Some(FrozenEdit { end, cut: end < size, created, appended })))
}

impl CheckpointJob {
    /// Persist the checkpoint, on the I/O thread: cut the frozen file,
    /// append the blocks it lacks and sync it; then frame the sidecar into
    /// a temporary file, sync that and rename it over the old sidecar.
    /// Each buffer is freed once the OS has its bytes, before the sync:
    /// the steps running meanwhile need not hold it too.
    fn run(self, files: &CheckpointFiles) -> io::Result<()> {
        let CheckpointJob { fingerprint, t, reference, state, frozen } = self;
        if let Some(FrozenEdit { end, cut, created, appended }) = frozen {
            let mut file = fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&files.frozen)?;
            if cut {
                file.set_len(end)?;
            }
            file.seek(SeekFrom::Start(end))?;
            file.write_all(&appended)?;
            let dirty = cut || !appended.is_empty();
            drop(appended);
            if dirty {
                file.sync_data()?;
            }
            if created {
                sync_parent_dir(&files.frozen)?;
            }
        }
        let mut head = Enc { buf: Vec::with_capacity(CKPT_HEAD_LEN + FROZEN_REF_LEN) };
        head.buf.extend_from_slice(CKPT_MAGIC);
        head.u64(fingerprint);
        head.u64(t);
        head.usize(FROZEN_REF_LEN + state.len());
        reference.encode_into(&mut head);
        let mut frame = FrameWriter::new(fs::File::create(&files.temp)?);
        frame.write_all(&head.buf)?;
        frame.write_all(&state)?;
        let f = frame.finish()?;
        drop(state);
        f.sync_data()?;
        drop(f);
        fs::rename(&files.temp, &files.sidecar)
    }
}

/// The header of a frozen-epoch file for session `fingerprint`.
pub(super) fn frozen_header(fingerprint: u64) -> [u8; FROZEN_HEADER_LEN] {
    let mut header = [0u8; FROZEN_HEADER_LEN];
    header[..8].copy_from_slice(FROZEN_MAGIC);
    header[8..].copy_from_slice(&fingerprint.to_le_bytes());
    header
}

/// [`hop_blocks`] over the frozen file `file` of session `fingerprint`,
/// read from its start, with the file's size first. A file whose header
/// names no such session holds no block: it hops to offset 0.
fn hop_file(
    file: &mut fs::File,
    fingerprint: u64,
    max: usize,
    keep: impl FnMut(usize, &BlockHeader) -> bool,
) -> io::Result<(u64, usize, u64, u32)> {
    let size = file.metadata()?.len();
    let mut head = [0u8; FROZEN_HEADER_LEN];
    let intact = size >= FROZEN_HEADER_LEN as u64 && {
        file.read_exact(&mut head)?;
        check_head(&head, FROZEN_MAGIC, fingerprint).is_ok()
    };
    let (kept, end, crc) = match intact {
        true => hop_blocks(file, fingerprint, size, max, keep)?,
        false => (0, 0, 0),
    };
    Ok((size, kept, end, crc))
}

/// What a checkpoint stands on in the frozen file: its first `len` bytes,
/// the header and `blocks` epoch blocks, and `crc`, their body chain (the
/// CRC32 without the blocks' trailers; see [`chain_head`]). All zero when
/// the checkpoint holds no epoch apart.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct FrozenRef {
    pub(super) blocks: u64,
    pub(super) len: u64,
    pub(super) crc: u32,
}

impl FrozenRef {
    pub(super) fn encode_into(self, enc: &mut Enc) {
        enc.u64(self.blocks);
        enc.u64(self.len);
        enc.u32(self.crc);
    }

    /// Split a sidecar payload into the reference and the engine state.
    pub(super) fn split(payload: &[u8]) -> Result<(FrozenRef, &[u8]), String> {
        let mut dec = Dec::new(payload);
        let reference = FrozenRef { blocks: dec.u64()?, len: dec.u64()?, crc: dec.u32()? };
        Ok((reference, dec.rest()))
    }
}

/// Walk the epoch blocks of the frozen file of session `fingerprint`, from
/// just past its header, by their fixed fields alone: for each block the
/// fixed fields and the stored trailer are read and the columns skipped,
/// and the trailer extends the body chain. Stops after `max` blocks,
/// before the first block `keep` rejects, or before one that runs past
/// `end`; returns the blocks walked, the offset after them and the body
/// chain up to it (see [`FrozenRef`]).
fn hop_blocks<R: Read + Seek>(
    src: &mut R,
    fingerprint: u64,
    end: u64,
    max: usize,
    mut keep: impl FnMut(usize, &BlockHeader) -> bool,
) -> io::Result<(usize, u64, u32)> {
    let mut offset = FROZEN_HEADER_LEN as u64;
    let mut crc = chain_head(&frozen_header(fingerprint));
    let mut fixed = [0u8; BLOCK_HEADER_LEN];
    src.seek(SeekFrom::Start(offset))?;
    for i in 0..max {
        if end - offset < BLOCK_HEADER_LEN as u64 {
            return Ok((i, offset, crc));
        }
        src.read_exact(&mut fixed)?;
        let header = BlockHeader::decode(&mut Dec::new(&fixed)).map_err(io::Error::other)?;
        let len = header.block_len().filter(|&len| len <= end - offset);
        let Some(len) = len.filter(|_| keep(i, &header)) else {
            return Ok((i, offset, crc));
        };
        crc = chain_frame(crc, len, read_trailer(src, offset + len)?);
        offset += len;
    }
    Ok((max, offset, crc))
}

/// Check `prefix`, a frozen file's first `reference.len` bytes in memory,
/// against the `reference` a checkpoint of session `fingerprint` made to it
/// and return its epoch blocks: the header must name the session,
/// `reference.blocks` whole blocks must end exactly at `reference.len`, and
/// their body chain must match. The engine then decodes each block,
/// checking its trailer against its bytes and its fixed fields against its
/// epoch mark.
pub(super) fn frozen_blocks(
    prefix: &[u8],
    fingerprint: u64,
    reference: FrozenRef,
) -> Result<&[u8], String> {
    if reference.blocks == 0 {
        return match reference == FrozenRef::default() && prefix.is_empty() {
            true => Ok(&[]),
            false => Err("a reference to no epoch block must be empty".to_string()),
        };
    }
    check_head(prefix, FROZEN_MAGIC, fingerprint).map_err(|e| e.to_string())?;
    let blocks = usize::try_from(reference.blocks).unwrap_or(usize::MAX);
    let (walked, end, crc) =
        hop_blocks(&mut io::Cursor::new(prefix), fingerprint, reference.len, blocks, |_, _| true)
            .map_err(|e| e.to_string())?;
    if walked != blocks || end != reference.len {
        return Err(format!(
            "the checkpoint references {} blocks in {} bytes, the file frames {walked} in {end}",
            reference.blocks, reference.len
        ));
    }
    if crc != reference.crc {
        return Err("checksum of the referenced prefix mismatch".to_string());
    }
    Ok(&prefix[FROZEN_HEADER_LEN..])
}

/// Restore `engine` from a sidecar `payload`: the frozen reference, then
/// the engine state with the epoch blocks the reference names, read from
/// the frozen file at `frozen` (nothing when it names none).
pub(super) fn restore_sidecar<E: StreamingEngine + ?Sized>(
    engine: &mut E,
    payload: &[u8],
    frozen: &Path,
) -> Result<(), String> {
    let (reference, state) = FrozenRef::split(payload)?;
    let in_file = |e: String| format!("frozen epochs {}: {e}", frozen.display());
    let prefix = match reference.blocks {
        0 => Vec::new(),
        _ => fs::File::open(frozen)
            .and_then(|file| read_prefix(file, Some(reference.len)))
            .map_err(|e| in_file(e.to_string()))?,
    };
    let blocks = frozen_blocks(&prefix, engine.fingerprint(), reference).map_err(in_file)?;
    engine.restore_checkpoint_by_ref(state, blocks)
}

/// Cut the frozen file at `path` back to the epoch blocks stamped before
/// `next_t`, the timestamp a reopened WAL of session `fingerprint`
/// continues at. Those blocks were compacted from records the log still
/// holds. A later one may come from records a host crash took from the
/// log, and the continued session could freeze different streams under
/// the same stamp and counts. A file whose header names no such session
/// is emptied.
pub(super) fn trim_frozen(path: &Path, fingerprint: u64, next_t: u64) -> Result<(), WalError> {
    let Some(mut file) = open_existing(path, true)? else {
        return Ok(());
    };
    let (size, _, end, _) = hop_file(&mut file, fingerprint, usize::MAX, |_, h| h.epoch < next_t)?;
    if end < size {
        file.set_len(end)?;
        file.sync_data()?;
    }
    Ok(())
}

/// A checkpoint sidecar that checked out, in the buffer it was read into.
#[derive(Debug)]
pub(super) struct Sidecar {
    /// The timestamp the checkpoint resumes at.
    pub(super) t: u64,
    frame: Vec<u8>,
}

impl Sidecar {
    /// The payload: the frozen reference, then the engine state.
    pub(super) fn payload(&self) -> &[u8] {
        &self.frame[CKPT_HEAD_LEN..self.frame.len() - CRC_LEN]
    }
}

/// Load and validate the checkpoint sidecar at `path`. `Ok(None)` if the
/// file does not exist; `Err` if it exists but is corrupt or belongs to a
/// different session (callers fall back to full WAL replay).
pub(super) fn load_checkpoint(path: &Path, fingerprint: u64) -> Result<Option<Sidecar>, WalError> {
    let Some(file) = open_existing(path, false)? else {
        return Ok(None);
    };
    let frame = read_prefix(file, None)?;
    Ok(Some(Sidecar { t: sidecar_t(&frame, fingerprint)?, frame }))
}

/// Check a sidecar's frame, head and length field, and return its
/// timestamp.
fn sidecar_t(frame: &[u8], fingerprint: u64) -> Result<u64, WalError> {
    let corrupt = |offset: u64| move |detail: String| WalError::Corrupt { offset, detail };
    let body = open(frame).map_err(corrupt(0))?;
    check_head(body, CKPT_MAGIC, fingerprint)?;
    let mut dec = Dec::new(&body[16..]);
    let t = dec.u64().map_err(corrupt(16))?;
    let len = dec.u64().map_err(corrupt(24))?;
    if len != dec.remaining() as u64 {
        return Err(corrupt(24)(format!("payload length field {len} disagrees with file size")));
    }
    Ok(t)
}
