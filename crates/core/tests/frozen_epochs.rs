//! Write-once frozen epochs: a `Checkpointer` writes each compaction epoch
//! once to `<wal>.frozen` and the sidecar references a CRC-checked prefix
//! of it. These tests pin when recovery trusts that prefix (and when it
//! falls back to a full replay), that bytes past the referenced prefix are
//! ignored and later cut, that a stale file never outlives `create`, and
//! that checkpointing by reference is bit-identical at every cadence.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_core::wal::{CheckpointUse, Checkpointer, FsyncPolicy, WalSource, WalWriter};
use retrasyn_core::{
    Division, EventSource, RetraSyn, RetraSynConfig, StreamingEngine, Supervisor, TimelineSource,
};
use retrasyn_datagen::RandomWalkConfig;
use retrasyn_geo::{GriddedDataset, UniformGrid};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const HORIZON: usize = 40;
/// Resident-cell mark low enough that every session below compacts into
/// at least three epochs before its last checkpoint.
const MARK: usize = 900;

/// Unique temp path per call (no tempfile crate offline).
fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("retrasyn-frozen-{}-{tag}-{n}.wal", std::process::id()))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(Checkpointer::sidecar(path));
    let _ = std::fs::remove_file(Checkpointer::frozen_file(path));
    let _ = std::fs::remove_file(Supervisor::<RetraSyn>::poison_sidecar(path));
}

fn dataset(seed: u64) -> GriddedDataset {
    RandomWalkConfig { users: 60, timestamps: HORIZON as u64, churn: 0.08, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(seed))
        .discretize(&UniformGrid::unit(5))
}

fn engine(division: Division) -> RetraSyn {
    let config = RetraSynConfig::new(1.0, 5).with_lambda(10.0).with_compaction(MARK);
    RetraSyn::new(config, UniformGrid::unit(5), division, 7)
}

/// Log the first `upto` timestamps of `gridded` into a fresh WAL at
/// `path`, checkpointing every `every` timestamps, and return the engine
/// (not released).
fn logged(
    division: Division,
    gridded: &GriddedDataset,
    path: &Path,
    upto: usize,
    every: u64,
) -> RetraSyn {
    let mut e = engine(division);
    let writer =
        WalWriter::create(path, 7, e.fingerprint(), FsyncPolicy::EveryBatch).expect("create WAL");
    let mut source = WalSource::tee(TimelineSource::from_gridded(gridded), writer);
    let ckpt = Checkpointer::new(path, every);
    for _ in 0..upto {
        let Some(batch) = source.next_batch() else { break };
        e.step(e.next_timestamp(), batch);
        ckpt.maybe_save(&e).expect("checkpoint save");
    }
    let (_, mut writer) = source.into_parts();
    writer.sync().expect("final sync");
    e
}

/// The uninterrupted engine after the first `upto` timestamps.
fn uninterrupted(division: Division, gridded: &GriddedDataset, upto: usize) -> RetraSyn {
    let mut e = engine(division);
    let mut source = TimelineSource::from_gridded(gridded);
    for _ in 0..upto {
        let Some(batch) = source.next_batch() else { break };
        e.step(e.next_timestamp(), batch);
    }
    e
}

/// The sessions below freeze at least three epochs.
fn assert_epochs(e: &RetraSyn) {
    let runs = e.compaction_stats().runs;
    assert!(runs >= 3, "only {runs} compactions; lower MARK");
}

/// A missing, truncated or damaged frozen file rejects the checkpoint:
/// recovery reports `Ignored`, replays the whole log and releases the
/// uninterrupted session bit for bit.
#[test]
fn missing_truncated_or_flipped_frozen_file_is_ignored() {
    let gridded = dataset(1);
    let path = temp_path("damaged");
    let logged = logged(Division::Population, &gridded, &path, HORIZON, 8);
    assert_epochs(&logged);
    let expected = uninterrupted(Division::Population, &gridded, HORIZON).release();
    let frozen = Checkpointer::frozen_file(&path);
    let intact = std::fs::read(&frozen).expect("checkpoints wrote the frozen file");

    let mut damages: Vec<(String, Option<Vec<u8>>)> = vec![
        ("missing".to_string(), None),
        ("truncated by one byte".to_string(), Some(intact[..intact.len() - 1].to_vec())),
        ("cut inside the header".to_string(), Some(intact[..9].to_vec())),
    ];
    // The magic, the fingerprint, a block's fixed fields, its columns and
    // its CRC, and the last byte.
    for offset in [0, 12, 16, 30, intact.len() / 2, intact.len() - 1] {
        let mut bad = intact.clone();
        bad[offset] ^= 0x20;
        damages.push((format!("bit flip at {offset}"), Some(bad)));
    }
    for (what, bytes) in damages {
        match &bytes {
            None => std::fs::remove_file(&frozen).expect("remove frozen file"),
            Some(bytes) => std::fs::write(&frozen, bytes).expect("damage frozen file"),
        }
        let mut recovered = engine(Division::Population);
        let recovery = recovered.recover(&path).expect("recover");
        assert!(
            matches!(recovery.checkpoint, CheckpointUse::Ignored { .. }),
            "{what}: {:?}",
            recovery.checkpoint
        );
        assert_eq!((recovery.resumed_from, recovery.replayed), (0, HORIZON as u64), "{what}");
        assert_eq!(recovered.release(), expected, "{what}: release differs");
    }
    std::fs::write(&frozen, &intact).expect("restore frozen file");
    let mut recovered = engine(Division::Population);
    let recovery = recovered.recover(&path).expect("recover");
    assert_eq!(recovery.checkpoint, CheckpointUse::Restored { at: 40 });
    cleanup(&path);
}

/// Frozen file header: magic and fingerprint.
const FROZEN_HEADER: usize = 16;

/// Offset, stamp and byte length of every whole block of a frozen file.
fn blocks(bytes: &[u8]) -> Vec<(usize, u64, usize)> {
    let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let mut out = Vec::new();
    let mut at = FROZEN_HEADER;
    while at + 24 <= bytes.len() {
        let len = 28 + 20 * field(at + 8) as usize + 4 * field(at + 16) as usize;
        if at + len > bytes.len() {
            break;
        }
        out.push((at, field(at), len));
        at += len;
    }
    out
}

/// Bytewise IEEE CRC32.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    !c
}

/// A block replaced by a well-formed one — same stamp and counts, a
/// valid CRC of its own, other cells — is what a save of a diverged
/// session that crashed before its rename would leave. The sidecar's
/// checksum over the referenced prefix rejects it.
#[test]
fn well_formed_substitute_block_is_rejected() {
    let gridded = dataset(7);
    let path = temp_path("substitute");
    assert_epochs(&logged(Division::Population, &gridded, &path, HORIZON, 8));
    let frozen = Checkpointer::frozen_file(&path);
    let mut bytes = std::fs::read(&frozen).expect("frozen file");
    let (at, _, len) = blocks(&bytes)[1];
    let last_cell = at + len - 8;
    bytes[last_cell] ^= 0x01;
    let crc = crc32(&bytes[at..at + len - 4]);
    bytes[at + len - 4..at + len].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&frozen, &bytes).expect("substitute block");

    let mut recovered = engine(Division::Population);
    let recovery = recovered.recover(&path).expect("recover");
    assert!(
        matches!(&recovery.checkpoint, CheckpointUse::Ignored { reason } if reason.contains("checksum")),
        "{:?}",
        recovery.checkpoint
    );
    assert_eq!(
        recovered.release(),
        uninterrupted(Division::Population, &gridded, HORIZON).release()
    );
    cleanup(&path);
}

/// A sidecar of the earlier format (`RSCKPT01`, frozen cells inline) is
/// not read: recovery ignores it and replays the whole log.
#[test]
fn format_01_sidecar_is_ignored() {
    let gridded = dataset(9);
    let path = temp_path("format-01");
    logged(Division::Population, &gridded, &path, HORIZON, 8);
    let sidecar = Checkpointer::sidecar(&path);
    let mut bytes = std::fs::read(&sidecar).expect("sidecar");
    assert_eq!(&bytes[..8], b"RSCKPT02");
    bytes[7] = b'1';
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&sidecar, &bytes).expect("rewrite sidecar");

    let mut recovered = engine(Division::Population);
    let recovery = recovered.recover(&path).expect("recover");
    assert!(
        matches!(&recovery.checkpoint, CheckpointUse::Ignored { reason } if reason.contains("bad magic")),
        "{:?}",
        recovery.checkpoint
    );
    assert_eq!(recovery.replayed, HORIZON as u64);
    assert_eq!(
        recovered.release(),
        uninterrupted(Division::Population, &gridded, HORIZON).release()
    );
    cleanup(&path);
}

/// Resuming a log that lost its last records keeps only the blocks
/// stamped before the timestamp it continues at: later blocks were
/// compacted from records that are gone.
#[test]
fn resume_keeps_only_blocks_the_log_still_holds() {
    let gridded = dataset(8);
    let path = temp_path("lost-tail");
    logged(Division::Population, &gridded, &path, HORIZON, 8);
    let frozen = Checkpointer::frozen_file(&path);
    let before = blocks(&std::fs::read(&frozen).expect("frozen file"));
    let cut_t = 22u64;
    assert!(before.iter().any(|&(_, epoch, _)| epoch >= cut_t), "an epoch after the cut");
    assert!(before.iter().any(|&(_, epoch, _)| epoch < cut_t), "an epoch before the cut");
    // Keep the WAL's first `cut_t` records, as a host crash under a
    // relaxed fsync policy could.
    let wal = std::fs::read(&path).expect("WAL");
    let mut end = 28;
    for _ in 0..cut_t {
        end += 8 + u32::from_le_bytes(wal[end..end + 4].try_into().expect("4 bytes")) as usize;
    }
    std::fs::write(&path, &wal[..end]).expect("lose the tail");

    let (resumed, recovery) =
        Supervisor::resume(engine(Division::Population), &path, FsyncPolicy::EveryBatch)
            .expect("resume");
    assert!(matches!(recovery.checkpoint, CheckpointUse::Ignored { .. }), "sidecar is ahead");
    assert_eq!(recovery.next_timestamp(), cut_t);
    let after = std::fs::read(&frozen).expect("frozen file");
    let kept: Vec<_> = before.iter().filter(|&&(_, epoch, _)| epoch < cut_t).copied().collect();
    assert_eq!(blocks(&after), kept);
    assert_eq!(after.len(), kept.last().map_or(FROZEN_HEADER, |&(at, _, len)| at + len));
    drop(resumed);
    cleanup(&path);
}

/// A crash after the frozen file was appended to but before the new
/// sidecar was renamed leaves bytes the surviving sidecar does not
/// reference: recovery restores that sidecar regardless, and the next
/// save cuts the unreferenced bytes.
#[test]
fn unreferenced_trailing_bytes_are_ignored_then_cut() {
    let gridded = dataset(2);
    let path = temp_path("trailing");
    let sidecar = Checkpointer::sidecar(&path);
    let frozen = Checkpointer::frozen_file(&path);

    // The sidecar of t = 16, then the frozen file as the session left it
    // (epochs frozen up to t = 40), plus a torn block.
    let early = logged(Division::Population, &gridded, &path, 16, 8);
    assert!(early.compaction_stats().runs >= 1, "an epoch before the first sidecar");
    let early_sidecar = std::fs::read(&sidecar).expect("sidecar at 16");
    let early_frozen = std::fs::read(&frozen).expect("frozen file at 16");
    let full = logged(Division::Population, &gridded, &path, HORIZON, 8);
    assert_epochs(&full);
    let full_frozen = std::fs::read(&frozen).expect("frozen file at 40");
    assert!(full_frozen.len() > early_frozen.len());
    assert_eq!(full_frozen[..early_frozen.len()], early_frozen[..], "epochs are written once");
    std::fs::write(&sidecar, &early_sidecar).expect("roll the sidecar back");
    let mut torn = full_frozen.clone();
    torn.extend_from_slice(&[0xA5; 37]);
    std::fs::write(&frozen, &torn).expect("append a torn block");

    let expected = uninterrupted(Division::Population, &gridded, HORIZON);
    let mut recovered = engine(Division::Population);
    let recovery = recovered.recover(&path).expect("recover");
    assert_eq!(recovery.checkpoint, CheckpointUse::Restored { at: 16 });
    assert_eq!(recovery.replayed, 24);
    assert_eq!(recovered.checkpoint_bytes(), expected.checkpoint_bytes());

    // The next save keeps the blocks that match the engine's epochs and
    // cuts the torn one.
    Checkpointer::new(&path, 8).save(&recovered).expect("save");
    assert_eq!(std::fs::read(&frozen).expect("frozen file"), full_frozen);
    let mut again = engine(Division::Population);
    assert_eq!(
        again.recover(&path).expect("recover").checkpoint,
        CheckpointUse::Restored { at: 40 }
    );
    assert_eq!(again.release(), recovered.release());
    cleanup(&path);
}

/// Regression twin of `stale_checkpoint_is_not_restored_into_a_new_session`
/// for the frozen file: `WalWriter::create` deletes an earlier session's
/// `<wal>.frozen`, and the new session never restores from it.
#[test]
fn stale_frozen_file_is_deleted_by_create_and_never_restored() {
    let path = temp_path("stale");
    let frozen = Checkpointer::frozen_file(&path);
    assert_epochs(&logged(Division::Population, &dataset(3), &path, HORIZON, 8));
    let stale = std::fs::read(&frozen).expect("session A froze epochs");

    // Session B: same engine, other data; the frozen file is gone as soon
    // as its log is created.
    let other = dataset(4);
    let fingerprint = engine(Division::Population).fingerprint();
    let writer =
        WalWriter::create(&path, 7, fingerprint, FsyncPolicy::EveryBatch).expect("create WAL");
    assert!(!frozen.exists(), "create removes the stale frozen file");
    drop(writer);
    let b = logged(Division::Population, &other, &path, HORIZON, 8);
    assert_epochs(&b);
    assert_ne!(std::fs::read(&frozen).expect("session B froze epochs"), stale);

    let mut recovered = engine(Division::Population);
    let recovery = recovered.recover(&path).expect("recover session B");
    assert_eq!(recovery.checkpoint, CheckpointUse::Restored { at: 40 });
    assert_eq!(recovered.release(), uninterrupted(Division::Population, &other, HORIZON).release());
    cleanup(&path);
}

/// A session killed mid-stream, resumed with `Supervisor::resume` and
/// checkpointed further recovers from its newest sidecar to the
/// uninterrupted release.
#[test]
fn supervisor_resume_then_more_checkpoints_restores_the_uninterrupted_release() {
    let gridded = dataset(5);
    let expected = uninterrupted(Division::Population, &gridded, HORIZON).release();
    let path = temp_path("resume");
    let mut first =
        Supervisor::create(engine(Division::Population), &path, 7, FsyncPolicy::EveryBatch)
            .expect("create")
            .with_checkpoints(6);
    let mut source = TimelineSource::from_gridded(&gridded);
    for _ in 0..21 {
        first.step(source.next_batch().expect("within horizon")).expect("step");
    }
    drop(first); // the "kill"

    let (resumed, recovery) =
        Supervisor::resume(engine(Division::Population), &path, FsyncPolicy::EveryBatch)
            .expect("resume");
    assert_eq!(recovery.checkpoint, CheckpointUse::Restored { at: 18 });
    let mut resumed = resumed.with_checkpoints(6);
    while let Some(batch) = source.next_batch() {
        resumed.step(batch).expect("step");
    }
    assert_epochs(resumed.engine());
    assert_eq!(resumed.stats().checkpoints, 3);
    let released = resumed.release().expect("release");
    assert_eq!(released, expected);

    let mut recovered = engine(Division::Population);
    let recovery = recovered.recover(&path).expect("recover");
    assert_eq!(recovery.checkpoint, CheckpointUse::Restored { at: 36 });
    assert_eq!(recovery.replayed, 4);
    assert_eq!(recovered.release(), expected);
    cleanup(&path);
}

/// At cadences 1, 5 and 13 in both divisions, recovery from a sidecar
/// that references the frozen file is bit-identical to the uninterrupted
/// session, and the recovered engine's self-contained checkpoint bytes
/// equal the uninterrupted engine's and round-trip through a restore.
#[test]
fn frozen_references_are_bit_identical_across_cadences() {
    let gridded = dataset(6);
    for division in [Division::Population, Division::Budget] {
        let reference = uninterrupted(division, &gridded, HORIZON);
        assert_epochs(&reference);
        let bytes = reference.checkpoint_bytes().expect("engine checkpoints");
        for every in [1u64, 5, 13] {
            let path = temp_path("cadence");
            logged(division, &gridded, &path, HORIZON, every);
            let mut recovered = engine(division);
            let recovery = recovered.recover(&path).expect("recover");
            let at = HORIZON as u64 / every * every;
            assert_eq!(
                recovery.checkpoint,
                CheckpointUse::Restored { at },
                "{division:?} k={every}"
            );
            assert_eq!(
                recovered.checkpoint_bytes().as_ref(),
                Some(&bytes),
                "{division:?} k={every}"
            );

            let mut restored = engine(division);
            restored.restore_checkpoint(&bytes).expect("restore self-contained bytes");
            assert_eq!(restored.checkpoint_bytes().as_ref(), Some(&bytes));
            assert_eq!(recovered.release(), restored.release(), "{division:?} k={every}");
            cleanup(&path);
        }
        let mut reference = reference;
        let mut restored = engine(division);
        restored.restore_checkpoint(&bytes).expect("restore");
        assert_eq!(restored.release(), reference.release(), "{division:?}");
    }
}
