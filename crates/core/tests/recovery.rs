//! Crash-recovery equivalence: a session reconstructed from its WAL (with
//! or without a checkpoint, after a kill at any point, and continued
//! afterwards) is bit-identical to the uninterrupted run.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_core::wal::{
    CheckpointUse, Checkpointer, FsyncPolicy, WalContents, WalError, WalSource, WalWriter,
};
use retrasyn_core::{
    BaselineKind, Division, EventSource, LdpIds, LdpIdsConfig, RetraSyn, RetraSynConfig,
    StreamingEngine, TimelineSource,
};
use retrasyn_datagen::RandomWalkConfig;
use retrasyn_geo::{Grid, GriddedDataset};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique temp path per call (no tempfile crate offline).
fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("retrasyn-recovery-{}-{tag}-{n}.wal", std::process::id()))
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(Checkpointer::sidecar(path));
}

fn dataset(seed: u64, users: usize, timestamps: u64) -> GriddedDataset {
    RandomWalkConfig { users, timestamps, churn: 0.08, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(seed))
        .discretize(&Grid::unit(5))
}

fn engine(division: Division, threads: usize, seed: u64) -> RetraSyn {
    let config = RetraSynConfig::new(1.0, 5)
        .with_lambda(10.0)
        .with_synthesis_threads(threads)
        .with_collection_threads(threads);
    RetraSyn::new(config, Grid::unit(5), division, seed)
}

/// Drive `engine` through the first `upto` timestamps of `gridded`,
/// logging every batch to a WAL at `path`; checkpoint every `ckpt_every`
/// timestamps when given.
fn drive_logged(
    engine: &mut RetraSyn,
    gridded: &GriddedDataset,
    path: &PathBuf,
    upto: usize,
    ckpt_every: Option<u64>,
) {
    let writer = WalWriter::create(path, 7, engine.fingerprint(), FsyncPolicy::EveryBatch)
        .expect("create WAL");
    let mut source = WalSource::tee(TimelineSource::from_gridded(gridded), writer);
    let ckpt = ckpt_every.map(|k| Checkpointer::new(path, k));
    for _ in 0..upto {
        let Some(batch) = source.next_batch() else { break };
        engine.step(engine.next_timestamp(), batch);
        if let Some(c) = &ckpt {
            c.maybe_save(engine).expect("checkpoint save");
        }
    }
    let (_, mut writer) = source.into_parts();
    writer.sync().expect("final sync");
}

/// The uninterrupted reference: a fresh engine over the first `upto`
/// timestamps, released.
fn reference(
    division: Division,
    threads: usize,
    gridded: &GriddedDataset,
    upto: usize,
) -> retrasyn_geo::GriddedDataset {
    let mut e = engine(division, threads, 7);
    let mut source = TimelineSource::from_gridded(gridded);
    for _ in 0..upto {
        let Some(batch) = source.next_batch() else { break };
        e.step(e.next_timestamp(), batch);
    }
    e.release()
}

#[test]
fn recover_is_bit_identical_both_divisions() {
    let gridded = dataset(1, 120, 25);
    for division in [Division::Budget, Division::Population] {
        let path = temp_path("clean");
        let mut original = engine(division, 1, 7);
        drive_logged(&mut original, &gridded, &path, 25, None);
        let expected = original.release();

        let mut recovered = engine(division, 1, 7);
        let recovery = recovered.recover(&path).expect("recover");
        assert_eq!(recovery.resumed_from, 0);
        assert_eq!(recovery.replayed, 25);
        assert!(!recovery.truncated);
        assert_eq!(recovery.checkpoint, CheckpointUse::None);
        assert_eq!(recovery.next_timestamp(), 25);
        assert_eq!(recovered.next_timestamp(), 25);
        assert_eq!(recovered.release(), expected, "{division:?}");
        cleanup(&path);
    }
}

#[test]
fn recover_with_checkpoint_matches_full_replay() {
    let gridded = dataset(2, 150, 30);
    let path = temp_path("ckpt");
    let mut original = engine(Division::Population, 1, 7);
    drive_logged(&mut original, &gridded, &path, 30, Some(8));
    let expected = original.release();

    // Checkpoint restored: only the suffix replays.
    let mut recovered = engine(Division::Population, 1, 7);
    let recovery = recovered.recover(&path).expect("recover with checkpoint");
    assert_eq!(recovery.checkpoint, CheckpointUse::Restored { at: 24 });
    assert_eq!(recovery.resumed_from, 24);
    assert_eq!(recovery.replayed, 6);
    assert_eq!(recovered.release(), expected);

    // Ledger state must survive the checkpoint round-trip too.
    let mut again = engine(Division::Population, 1, 7);
    again.recover(&path).expect("recover");
    again.ledger().verify().expect("w-event invariant after checkpointed recovery");

    // A corrupt sidecar is never fatal: recovery reports it and falls
    // back to full replay with the identical result.
    let ckpt = Checkpointer::sidecar(&path);
    let mut bytes = std::fs::read(&ckpt).expect("sidecar exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&ckpt, &bytes).expect("rewrite sidecar");
    let mut fallback = engine(Division::Population, 1, 7);
    let recovery = fallback.recover(&path).expect("recover past corrupt checkpoint");
    assert!(
        matches!(recovery.checkpoint, CheckpointUse::Ignored { .. }),
        "corrupt sidecar not reported: {:?}",
        recovery.checkpoint
    );
    assert_eq!(recovery.resumed_from, 0);
    assert_eq!(fallback.release(), expected);

    // Garbage that fails even magic validation: same graceful fallback.
    std::fs::write(&ckpt, b"not a checkpoint at all").expect("rewrite sidecar");
    let mut garbage = engine(Division::Population, 1, 7);
    let recovery = garbage.recover(&path).expect("recover past garbage checkpoint");
    assert!(matches!(recovery.checkpoint, CheckpointUse::Ignored { .. }));
    assert_eq!(garbage.release(), expected);
    cleanup(&path);
}

#[test]
fn recover_parallel_session_bit_identical() {
    // Above MIN_PARALLEL live streams so the sharded synthesis path (and
    // its per-shard RNG streams) is actually exercised by the replay.
    let gridded = dataset(3, 2600, 8);
    let path = temp_path("parallel");
    let mut original = engine(Division::Population, 4, 7);
    drive_logged(&mut original, &gridded, &path, 8, None);
    let expected = original.release();

    let mut recovered = engine(Division::Population, 4, 7);
    recovered.recover(&path).expect("recover");
    assert_eq!(recovered.release(), expected);
    cleanup(&path);
}

/// `collection_threads` is left out of the fingerprint because it never
/// changes the output: a per-user session logged and checkpointed at four
/// collection threads recovers into a one-thread engine — from the
/// checkpoint or by full replay — with the same release and checkpoint
/// bytes.
#[test]
fn per_user_wal_recovers_across_collection_threads() {
    let gridded = dataset(8, 150, 24);
    let per_user = |threads: usize| {
        let config = RetraSynConfig::new(1.0, 5)
            .with_lambda(10.0)
            .per_user_reports()
            .with_collection_threads(threads);
        RetraSyn::new(config, Grid::unit(5), Division::Population, 7)
    };
    let path = temp_path("collection-threads");
    let mut original = per_user(4);
    drive_logged(&mut original, &gridded, &path, 24, Some(10));
    let expected_ckpt = original.checkpoint_bytes().expect("engine checkpoints");
    let expected = original.release();
    original.ledger().verify().expect("w-event invariant");

    let mut restored = per_user(1);
    let recovery = restored.recover(&path).expect("recover at one collection thread");
    assert_eq!(recovery.checkpoint, CheckpointUse::Restored { at: 20 });
    assert_eq!(restored.checkpoint_bytes(), Some(expected_ckpt.clone()));
    assert_eq!(restored.release(), expected);
    restored.ledger().verify().expect("w-event invariant after recovery");

    std::fs::remove_file(Checkpointer::sidecar(&path)).expect("remove sidecar");
    let mut replayed = per_user(1);
    let recovery = replayed.recover(&path).expect("full replay at one collection thread");
    assert_eq!(recovery.checkpoint, CheckpointUse::None);
    assert_eq!(replayed.checkpoint_bytes(), Some(expected_ckpt));
    assert_eq!(replayed.release(), expected);
    cleanup(&path);
}

#[test]
fn recover_rejects_mismatched_sessions() {
    let gridded = dataset(4, 80, 10);
    let path = temp_path("mismatch");
    let mut original = engine(Division::Budget, 1, 7);
    drive_logged(&mut original, &gridded, &path, 10, None);

    // Different seed, different config, different division: all rejected.
    for mut other in [
        engine(Division::Budget, 1, 8),
        engine(Division::Population, 1, 7),
        engine(Division::Budget, 4, 7),
    ] {
        match other.recover(&path) {
            Err(WalError::Mismatch { detail }) => {
                assert!(detail.contains("fingerprint") || detail.contains("session"), "{detail}");
            }
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
    }
    cleanup(&path);
}

#[test]
fn recover_truncated_tail_yields_prefix_session() {
    let gridded = dataset(5, 100, 20);
    let path = temp_path("torn");
    let mut original = engine(Division::Population, 1, 7);
    drive_logged(&mut original, &gridded, &path, 20, None);
    drop(original);

    // Tear mid-record: recovery must land on the longest intact prefix.
    let full = std::fs::read(&path).expect("read WAL");
    std::fs::write(&path, &full[..full.len() - 5]).expect("tear WAL");
    let mut recovered = engine(Division::Population, 1, 7);
    let recovery = recovered.recover(&path).expect("recover torn WAL");
    assert!(recovery.truncated);
    let prefix_len = recovery.next_timestamp();
    assert_eq!(prefix_len, 19, "one torn record discards exactly one timestamp");
    let expected = reference(Division::Population, 1, &gridded, prefix_len as usize);
    assert_eq!(recovered.release(), expected);
    cleanup(&path);
}

#[test]
fn baseline_recover_is_bit_identical() {
    let gridded = dataset(6, 100, 20);
    for kind in [BaselineKind::Lbd, BaselineKind::Lpa] {
        let path = temp_path("baseline");
        let mut original = LdpIds::new(kind, LdpIdsConfig::new(1.0, 5), Grid::unit(5), 11);
        let writer = WalWriter::create(&path, 11, original.fingerprint(), FsyncPolicy::EveryBatch)
            .expect("create WAL");
        let mut source = WalSource::tee(TimelineSource::from_gridded(&gridded), writer);
        while let Some(batch) = source.next_batch() {
            original.step(original.next_timestamp(), batch);
        }
        let expected = original.release();

        // Baselines have no checkpoint support: recovery is a full replay.
        let mut recovered = LdpIds::new(kind, LdpIdsConfig::new(1.0, 5), Grid::unit(5), 11);
        let recovery = recovered.recover(&path).expect("recover baseline");
        assert_eq!(recovery.checkpoint, CheckpointUse::None);
        assert_eq!(recovery.resumed_from, 0);
        assert_eq!(recovered.release(), expected, "{kind:?}");
        cleanup(&path);
    }
}

#[test]
fn reset_reuses_engine_without_respawning_state() {
    // Two back-to-back sessions on one engine equal two fresh engines:
    // the in-place reset keeps pools/scratch but no session state.
    let gridded = dataset(7, 120, 15);
    let mut reused = engine(Division::Population, 2, 7);
    let first = reused.run_gridded(&gridded);
    reused.reset();
    let second = reused.run_gridded(&gridded);
    assert_eq!(first, second, "a reset session must replay bit-identically");
    let fresh = engine(Division::Population, 2, 7).run_gridded(&gridded);
    assert_eq!(first, fresh, "a reset engine must equal a fresh one");
}

proptest! {
    /// Kill the process at an arbitrary timestamp, recover from the WAL
    /// (checkpointed or not), continue the stream durably to the horizon:
    /// the final release is bit-for-bit the uninterrupted run. Exercised
    /// across both divisions and thread counts 1 and 4.
    #[test]
    fn kill_recover_continue_equals_uninterrupted(
        data_seed in 0u64..1000,
        kill_frac in 0.0f64..1.0,
        division_pick in 0u8..2,
        threads_pick in 0u8..2,
        ckpt_pick in 0u8..3,
    ) {
        let division = if division_pick == 0 { Division::Budget } else { Division::Population };
        let threads = if threads_pick == 0 { 1 } else { 4 };
        let horizon = 14usize;
        let gridded = dataset(data_seed, 60, horizon as u64);
        let kill_at = ((kill_frac * horizon as f64) as usize).min(horizon - 1);
        let ckpt_every = match ckpt_pick {
            0 => None,
            1 => Some(3),
            _ => Some(5),
        };

        let expected = reference(division, threads, &gridded, horizon);

        // Phase 1: run to the kill point with a WAL (and checkpoints).
        let path = temp_path("prop");
        let mut doomed = engine(division, threads, 7);
        drive_logged(&mut doomed, &gridded, &path, kill_at, ckpt_every);
        drop(doomed); // the "kill": all in-memory state is gone

        // Phase 2: recover into a fresh engine and continue durably.
        let mut survivor = engine(division, threads, 7);
        let recovery = survivor.recover(&path).map_err(|e| {
            TestCaseError::fail(format!("recover failed: {e}"))
        })?;
        prop_assert_eq!(recovery.next_timestamp(), kill_at as u64);
        prop_assert_eq!(survivor.next_timestamp(), kill_at as u64);

        let contents = WalContents::read(&path).map_err(|e| {
            TestCaseError::fail(format!("reread failed: {e}"))
        })?;
        let writer = WalWriter::reopen(&contents, &path, FsyncPolicy::EveryBatch).map_err(|e| {
            TestCaseError::fail(format!("reopen failed: {e}"))
        })?;
        let mut rest = TimelineSource::from_gridded(&gridded);
        for _ in 0..kill_at {
            rest.next_batch();
        }
        let mut tee = WalSource::tee(rest, writer);
        while let Some(batch) = tee.next_batch() {
            survivor.step(survivor.next_timestamp(), batch);
        }
        prop_assert_eq!(survivor.next_timestamp(), horizon as u64);
        let continued = survivor.release();
        prop_assert_eq!(&continued, &expected);

        // The WAL now covers the whole session: a second recovery of the
        // full log reproduces it again.
        let mut again = engine(division, threads, 7);
        again.recover(&path).map_err(|e| {
            TestCaseError::fail(format!("full recover failed: {e}"))
        })?;
        prop_assert_eq!(&again.release(), &expected);
        cleanup(&path);
    }
}
