//! Tail-only recovery: with a usable checkpoint, recovery reads the WAL
//! header, the checkpoint and only the records after it. These tests pin
//! what that path reads (and does not), when it falls back to a full
//! replay, how it treats batches that pass their CRC but are semantically
//! invalid, and `Supervisor::resume`, which continues a log after it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_core::wal::{
    CheckpointUse, Checkpointer, FsyncPolicy, WalContents, WalError, WalSource, WalWriter,
};
use retrasyn_core::{
    Division, EventSource, RetraSyn, RetraSynConfig, StepVerdict, StreamingEngine, Supervisor,
    TimelineSource,
};
use retrasyn_datagen::RandomWalkConfig;
use retrasyn_geo::{CellId, GriddedDataset, TransitionState, UniformGrid, UserEvent};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// WAL header length: magic, seed, fingerprint, CRC.
const HEADER_LEN: usize = 28;

/// Unique temp path per call (no tempfile crate offline).
fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("retrasyn-tail-{}-{tag}-{n}.wal", std::process::id()))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(Checkpointer::sidecar(path));
    let _ = std::fs::remove_file(Supervisor::<RetraSyn>::poison_sidecar(path));
}

fn dataset(seed: u64, timestamps: u64) -> GriddedDataset {
    RandomWalkConfig { users: 60, timestamps, churn: 0.08, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(seed))
        .discretize(&UniformGrid::unit(5))
}

fn engine(division: Division) -> RetraSyn {
    RetraSyn::new(RetraSynConfig::new(1.0, 5).with_lambda(10.0), UniformGrid::unit(5), division, 7)
}

/// Log the first `upto` timestamps of `gridded` into a fresh WAL at
/// `path`, checkpointing every `ckpt_every` timestamps when given, and
/// return the released session.
fn logged(
    division: Division,
    gridded: &GriddedDataset,
    path: &Path,
    upto: usize,
    ckpt_every: Option<u64>,
) -> GriddedDataset {
    let mut e = engine(division);
    let writer =
        WalWriter::create(path, 7, e.fingerprint(), FsyncPolicy::EveryBatch).expect("create WAL");
    let mut source = WalSource::tee(TimelineSource::from_gridded(gridded), writer);
    let ckpt = ckpt_every.map(|k| Checkpointer::new(path, k));
    for _ in 0..upto {
        let Some(batch) = source.next_batch() else { break };
        e.step(e.next_timestamp(), batch);
        if let Some(c) = &ckpt {
            c.maybe_save(&e).expect("checkpoint save");
        }
    }
    let (_, mut writer) = source.into_parts();
    writer.sync().expect("final sync");
    e.release()
}

/// The uninterrupted session over the first `upto` timestamps, released.
fn reference(division: Division, gridded: &GriddedDataset, upto: usize) -> GriddedDataset {
    let mut e = engine(division);
    let mut source = TimelineSource::from_gridded(gridded);
    for _ in 0..upto {
        let Some(batch) = source.next_batch() else { break };
        e.step(e.next_timestamp(), batch);
    }
    e.release()
}

/// Byte offset where each record of the WAL image starts, followed by the
/// end of the last whole record.
fn record_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = vec![HEADER_LEN];
    let mut pos = HEADER_LEN;
    while pos + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        pos += 4 + len + 4;
        if pos > bytes.len() {
            break;
        }
        starts.push(pos);
    }
    starts
}

/// Regression: `WalWriter::create` must not leave an earlier session's
/// checkpoint next to the new log. Session A (checkpointed) and session B
/// (same engine, other data, no checkpoints) share a path; recovering B
/// must replay B, not restore A's state and replay B's tail.
#[test]
fn stale_checkpoint_is_not_restored_into_a_new_session() {
    let path = temp_path("stale");
    logged(Division::Population, &dataset(1, 20), &path, 20, Some(8));
    assert!(Checkpointer::sidecar(&path).exists(), "session A checkpointed");
    let tmp = {
        let mut os = Checkpointer::sidecar(&path).into_os_string();
        os.push(".tmp");
        PathBuf::from(os)
    };
    std::fs::write(&tmp, b"half-written checkpoint").expect("tmp litter");

    let other = dataset(2, 20);
    let expected = logged(Division::Population, &other, &path, 20, None);
    assert!(!Checkpointer::sidecar(&path).exists(), "create removes the stale sidecar");
    assert!(!tmp.exists(), "create removes the stale temporary checkpoint");

    let mut recovered = engine(Division::Population);
    let recovery = recovered.recover(&path).expect("recover session B");
    assert_eq!(recovery.checkpoint, CheckpointUse::None);
    assert_eq!(recovery.replayed, 20);
    assert_eq!(recovered.release(), expected);
    cleanup(&path);
}

/// Overwrite every byte of the checkpoint-covered records except their
/// length prefixes: recovery still restores, replays the tail and matches
/// the uninterrupted run, so it never read those bytes.
#[test]
fn covered_prefix_payloads_are_never_read() {
    let gridded = dataset(3, 30);
    let path = temp_path("scrub");
    let expected = logged(Division::Population, &gridded, &path, 30, Some(8));
    let mut bytes = std::fs::read(&path).expect("read WAL");
    let starts = record_starts(&bytes);
    for r in 0..24 {
        for b in &mut bytes[starts[r] + 4..starts[r + 1]] {
            *b = 0xA5;
        }
    }
    std::fs::write(&path, &bytes).expect("scrub prefix");

    let mut recovered = engine(Division::Population);
    let recovery = recovered.recover(&path).expect("recover");
    assert_eq!(recovery.checkpoint, CheckpointUse::Restored { at: 24 });
    assert_eq!((recovery.resumed_from, recovery.replayed), (24, 6));
    assert!(!recovery.truncated);
    assert_eq!(recovered.release(), expected);
    cleanup(&path);
}

/// A flipped bit in any length prefix the hop follows either still lands
/// on record `t` (a correct restore) or falls back to the full replay,
/// which stops at the damaged record: the result is never wrong.
#[test]
fn flipped_length_prefix_in_covered_prefix_is_never_wrong() {
    const HORIZON: usize = 20;
    let gridded = dataset(4, HORIZON as u64);
    let path = temp_path("hop");
    let expected = logged(Division::Budget, &gridded, &path, HORIZON, Some(8));
    let refs: Vec<GriddedDataset> =
        (0..=HORIZON).map(|n| reference(Division::Budget, &gridded, n)).collect();
    let full = std::fs::read(&path).expect("read WAL");
    let starts = record_starts(&full);
    for r in 0..16 {
        for byte in 0..4 {
            for bit in 0..8 {
                let mut bytes = full.clone();
                bytes[starts[r] + byte] ^= 1 << bit;
                std::fs::write(&path, &bytes).expect("flip");
                let mut e = engine(Division::Budget);
                let recovery = e.recover(&path).expect("record damage never fails recovery");
                let n = recovery.next_timestamp() as usize;
                match recovery.checkpoint {
                    CheckpointUse::Restored { at } => {
                        assert_eq!((at, n), (16, HORIZON), "record {r} byte {byte} bit {bit}");
                    }
                    CheckpointUse::Ignored { .. } => {
                        assert_eq!(recovery.resumed_from, 0);
                        assert_eq!(n, r, "full replay stops at the damaged record {r}");
                        assert!(recovery.truncated);
                    }
                    CheckpointUse::None => panic!("the sidecar exists"),
                }
                assert_eq!(e.release(), refs[n], "record {r} byte {byte} bit {bit}");
            }
        }
    }
    assert_eq!(refs[HORIZON], expected);
    cleanup(&path);
}

/// A torn or corrupt first record after the checkpoint fails the landing
/// check; reading the prefix shows the hop was right, so the checkpoint
/// is still restored and nothing is replayed.
#[test]
fn damaged_first_record_after_checkpoint_restores_with_empty_tail() {
    let gridded = dataset(5, 23);
    let path = temp_path("torn-first");
    logged(Division::Population, &gridded, &path, 23, Some(5));
    let full = std::fs::read(&path).expect("read WAL");
    let starts = record_starts(&full);
    let expected = reference(Division::Population, &gridded, 20);

    let torn = full[..starts[20] + 9].to_vec();
    let mut flipped = full.clone();
    flipped[starts[20] + 10] ^= 0x04;
    for (what, bytes) in [("torn", torn), ("flipped", flipped)] {
        std::fs::write(&path, &bytes).expect("damage record 20");
        let mut e = engine(Division::Population);
        let recovery = e.recover(&path).expect("recover");
        assert_eq!(recovery.checkpoint, CheckpointUse::Restored { at: 20 }, "{what}");
        assert_eq!((recovery.resumed_from, recovery.replayed), (20, 0), "{what}");
        assert!(recovery.truncated, "{what}");
        assert_eq!(e.release(), expected, "{what}");
    }
    cleanup(&path);
}

/// A checkpoint on the last record lands the hop exactly at the end of
/// the file: an empty tail, nothing truncated.
#[test]
fn checkpoint_on_last_record_replays_an_empty_tail() {
    let gridded = dataset(6, 20);
    let path = temp_path("last");
    let expected = logged(Division::Population, &gridded, &path, 20, Some(5));
    let mut e = engine(Division::Population);
    let recovery = e.recover(&path).expect("recover");
    assert_eq!(recovery.checkpoint, CheckpointUse::Restored { at: 20 });
    assert_eq!((recovery.replayed, recovery.truncated), (0, false));
    assert_eq!(e.release(), expected);
    cleanup(&path);
}

#[test]
fn tail_recovery_is_bit_identical_across_cadences() {
    const HORIZON: u64 = 30;
    let gridded = dataset(7, HORIZON);
    for division in [Division::Budget, Division::Population] {
        for every in [1u64, 5, 13] {
            let path = temp_path("cadence");
            let expected = logged(division, &gridded, &path, HORIZON as usize, Some(every));
            let at = HORIZON / every * every;
            let mut e = engine(division);
            let recovery = e.recover(&path).expect("recover");
            assert_eq!(recovery.checkpoint, CheckpointUse::Restored { at }, "{division:?}/{every}");
            assert_eq!(recovery.replayed, HORIZON - at);
            assert!(!recovery.truncated);
            assert_eq!(e.release(), expected, "{division:?} every {every}");
            cleanup(&path);
        }
    }
}

/// A batch that passes its CRC but cannot be ingested — a cell outside
/// the grid, or a move between non-adjacent cells — is an error naming
/// its timestamp, whether it sits in the checkpoint's tail or in a full
/// replay. It is never stepped, and the engine is left reset.
#[test]
fn crc_valid_but_semantically_invalid_batch_is_an_error() {
    let gridded = dataset(8, 12);
    let bad_batches = [
        vec![UserEvent { user: 1, state: TransitionState::Enter(CellId(999)) }],
        vec![UserEvent {
            user: 1,
            state: TransitionState::Move { from: CellId(0), to: CellId(24) },
        }],
    ];
    for bad in &bad_batches {
        for checkpointed in [true, false] {
            // Timestamps 0..10 are real and checkpointed at 8; 10 is bad.
            let path = temp_path("semantic");
            logged(Division::Population, &gridded, &path, 10, Some(8));
            if !checkpointed {
                std::fs::remove_file(Checkpointer::sidecar(&path)).expect("drop sidecar");
            }
            let contents = WalContents::read(&path).expect("read WAL");
            let mut writer =
                WalWriter::reopen(&contents, &path, FsyncPolicy::EveryBatch).expect("reopen WAL");
            writer.append_batch(10, bad).expect("the writer does not validate");
            writer.append_batch(11, &[]).expect("append");
            drop(writer);

            let mut e = engine(Division::Population);
            match e.recover(&path) {
                Err(WalError::Corrupt { detail, .. }) => {
                    assert!(detail.contains("t=10"), "{detail}");
                    assert!(detail.contains("semantically invalid"), "{detail}");
                }
                other => panic!("checkpointed={checkpointed}: want Corrupt, got {other:?}"),
            }
            assert_eq!(e.next_timestamp(), 0, "checkpointed={checkpointed}");
            cleanup(&path);
        }
    }
}

/// Drive `sup` through batches `from..to` of `gridded`; every step must
/// succeed first time.
fn supervise(sup: &mut Supervisor<RetraSyn>, gridded: &GriddedDataset, from: usize, to: usize) {
    let mut source = TimelineSource::from_gridded(gridded);
    for _ in 0..from {
        source.next_batch();
    }
    for _ in from..to {
        let batch = source.next_batch().expect("within horizon");
        match sup.step(batch).expect("supervised step") {
            StepVerdict::Stepped(_) => {}
            other => panic!("unexpected verdict {other:?}"),
        }
    }
}

#[test]
fn supervisor_resume_continues_to_the_uninterrupted_release() {
    const HORIZON: usize = 24;
    let gridded = dataset(9, HORIZON as u64);
    let expected = reference(Division::Population, &gridded, HORIZON);
    let path = temp_path("resume");
    let mut first =
        Supervisor::create(engine(Division::Population), &path, 7, FsyncPolicy::EveryBatch)
            .expect("create")
            .with_checkpoints(4);
    supervise(&mut first, &gridded, 0, 14);
    drop(first); // the "kill"

    let (resumed, recovery) =
        Supervisor::resume(engine(Division::Population), &path, FsyncPolicy::EveryBatch)
            .expect("resume");
    assert_eq!(recovery.checkpoint, CheckpointUse::Restored { at: 12 });
    assert_eq!((recovery.replayed, recovery.truncated), (2, false));
    let mut resumed = resumed.with_checkpoints(4);
    supervise(&mut resumed, &gridded, 14, HORIZON);
    assert_eq!(resumed.release().expect("release"), expected);
    cleanup(&path);
}

#[test]
fn supervisor_resume_after_torn_tail_appends_after_valid_prefix() {
    const HORIZON: usize = 24;
    let gridded = dataset(10, HORIZON as u64);
    let expected = reference(Division::Budget, &gridded, HORIZON);
    let path = temp_path("resume-torn");
    let mut first = Supervisor::create(engine(Division::Budget), &path, 7, FsyncPolicy::EveryBatch)
        .expect("create")
        .with_checkpoints(5);
    supervise(&mut first, &gridded, 0, 13);
    drop(first);
    let full = std::fs::read(&path).expect("read WAL");
    std::fs::write(&path, &full[..full.len() - 3]).expect("tear the last record");

    let (mut resumed, recovery) =
        Supervisor::resume(engine(Division::Budget), &path, FsyncPolicy::EveryBatch)
            .expect("resume");
    assert_eq!(recovery.checkpoint, CheckpointUse::Restored { at: 10 });
    assert!(recovery.truncated);
    assert_eq!(recovery.next_timestamp(), 12, "the torn record is dropped");
    supervise(&mut resumed, &gridded, 12, HORIZON);
    assert_eq!(resumed.release().expect("release"), expected);

    let contents = WalContents::read(&path).expect("read WAL");
    assert!(!contents.truncated, "appends start right after the valid prefix");
    assert_eq!(contents.batches.len(), HORIZON);
    let mut again = engine(Division::Budget);
    let recovery = again.recover(&path).expect("recover the continued log");
    assert_eq!(recovery.next_timestamp(), HORIZON as u64);
    assert!(!recovery.truncated);
    assert_eq!(again.release(), expected);
    cleanup(&path);
}
