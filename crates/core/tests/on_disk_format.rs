//! The on-disk bytes of a durable session, pinned. A small supervised
//! session that compacts and checkpoints leaves three files — the WAL,
//! `<wal>.ckpt` and `<wal>.frozen` — and this test asserts the length and
//! CRC32 of each against constants recorded from the format as specified
//! in the `retrasyn_core` crate docs ("On-disk formats"). A refactor of the
//! codec must leave all three unchanged; a deliberate format change must
//! bump the magic of the file it changes and re-record its constants here.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_core::wal::{Checkpointer, FsyncPolicy};
use retrasyn_core::{
    EventSource, RetraSyn, RetraSynConfig, StepVerdict, StreamingEngine, Supervisor, TimelineSource,
};
use retrasyn_datagen::RandomWalkConfig;
use retrasyn_geo::UniformGrid;
use std::path::{Path, PathBuf};

/// `(length, CRC32)` of the WAL, the sidecar and the frozen-epoch file.
const WAL: (usize, u32) = (18_291, 0x48E8_5019);
const SIDECAR: (usize, u32) = (15_924, 0x2144_DF1C);
const FROZEN: (usize, u32) = (4_132, 0x0B68_F55B);

/// Bytewise IEEE CRC32, independent of the crate's own.
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

fn temp_path() -> PathBuf {
    std::env::temp_dir().join(format!("retrasyn-format-{}.wal", std::process::id()))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(Checkpointer::sidecar(path));
    let _ = std::fs::remove_file(Checkpointer::frozen_file(path));
}

/// Length and CRC32 of the file at `path`.
fn pin(path: &Path) -> (usize, u32) {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    (bytes.len(), crc32(&bytes))
}

#[test]
fn durable_session_bytes_are_pinned() {
    let grid = UniformGrid::unit(4);
    let gridded = RandomWalkConfig { users: 30, timestamps: 30, churn: 0.15, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(3))
        .discretize(&grid);
    let config = RetraSynConfig::new(1.0, 4).with_lambda(6.0).with_compaction(120);
    let engine = RetraSyn::population_division(config, grid, 5);
    let path = temp_path();
    let mut supervisor = Supervisor::create(engine, &path, 5, FsyncPolicy::EveryBatch)
        .expect("create WAL")
        .with_checkpoints(8);
    let mut source = TimelineSource::from_gridded(&gridded);
    while let Some(batch) = source.next_batch() {
        let verdict = supervisor.step(batch).expect("supervised step");
        assert!(matches!(verdict, StepVerdict::Stepped(_)), "{verdict:?}");
    }
    let engine = supervisor.into_engine().expect("sync and wait for the checkpoint");
    assert_eq!(engine.next_timestamp(), 30);
    assert!(engine.compaction_stats().runs >= 2, "the session compacts");

    let pinned = [
        ("WAL", pin(&path), WAL),
        ("sidecar", pin(&Checkpointer::sidecar(&path)), SIDECAR),
        ("frozen", pin(&Checkpointer::frozen_file(&path)), FROZEN),
    ];
    cleanup(&path);
    let moved: Vec<String> = pinned
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(file, got, want)| format!("{file}: (length, crc32) is {got:?}, pinned {want:?}"))
        .collect();
    assert!(moved.is_empty(), "{moved:#?}");
}
