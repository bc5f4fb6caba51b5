//! A durable streaming session: every ingested batch is written to a
//! write-ahead log, checkpoints bound replay time, and a killed process
//! resumes bit-identically from the log.
//!
//! `--run` and `--recover` drive the session through a `Supervisor`,
//! whose WAL sync overlaps each engine step; the demo without arguments
//! tees the source into a `WalWriter` by hand.
//!
//! ```sh
//! # Self-contained demo (records, "crashes", recovers, compares):
//! cargo run --release --example durable_session
//!
//! # Crash drill (what the CI smoke job does):
//! cargo run --release --example durable_session -- --run /tmp/demo.wal
//! cargo run --release --example durable_session -- --run /tmp/demo.wal --slow-ms 200 &
//! kill -9 <pid mid-stream>
//! cargo run --release --example durable_session -- --recover /tmp/demo.wal
//! # release-hash printed by --recover equals the uninterrupted run's.
//! ```
//!
//! The session compacts (a 4 000-cell mark), so its checkpoints reference
//! frozen epochs in `<wal>.frozen`; damaging that file makes `--recover`
//! ignore the checkpoint and replay the whole log to the same hash.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn::geo::GriddedDataset;
use retrasyn::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Duration;

const SEED: u64 = 42;
const USERS: usize = 300;
const HORIZON: u64 = 60;
const CKPT_EVERY: u64 = 10;

fn dataset() -> GriddedDataset {
    RandomWalkConfig { users: USERS, timestamps: HORIZON, churn: 0.06, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(SEED))
        .discretize(&UniformGrid::unit(6))
}

fn engine() -> RetraSyn {
    let config = RetraSynConfig::new(1.0, 10).with_lambda(12.0).with_compaction(4_000);
    RetraSyn::population_division(config, UniformGrid::unit(6), SEED)
}

/// FNV-1a over the released database — a stable identity for "these two
/// sessions produced the same output, bit for bit".
fn release_hash(db: &GriddedDataset) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(db.horizon());
    eat(db.num_streams() as u64);
    for s in db.iter() {
        eat(s.id);
        eat(s.start);
        eat(s.cells.len() as u64);
        for &c in s.cells {
            eat(c.index() as u64);
        }
    }
    h
}

/// Record a fresh session into `wal` under a [`Supervisor`]: one fsynced
/// batch per timestamp (the sync overlaps the engine step), checkpointing
/// every [`CKPT_EVERY`] timestamps. `slow_ms` throttles the stream so an
/// outside observer can `kill -9` mid-flight.
fn run(wal: &Path, slow_ms: u64) {
    let gridded = dataset();
    let mut supervisor = Supervisor::create(engine(), wal, SEED, FsyncPolicy::EveryBatch)
        .expect("create WAL")
        .with_checkpoints(CKPT_EVERY);
    let mut source = TimelineSource::from_gridded(&gridded);
    while let Some(batch) = source.next_batch() {
        let t = supervisor.engine().next_timestamp();
        let outcome = stepped(supervisor.step(batch).expect("supervised step"));
        println!("t={t:>2}  active={:>4}  (durable)", outcome.active);
        if slow_ms > 0 {
            std::thread::sleep(Duration::from_millis(slow_ms));
        }
    }
    finish(&mut supervisor);
}

/// Rebuild the session from `wal` (checkpoint + replay), then continue the
/// interrupted stream to the horizon under supervision and release.
fn recover(wal: &Path) {
    let gridded = dataset();
    let (supervisor, recovery) =
        Supervisor::resume(engine(), wal, FsyncPolicy::EveryBatch).expect("recover session");
    let mut supervisor = supervisor.with_checkpoints(CKPT_EVERY);
    println!(
        "recovered: resumed_from={} replayed={} truncated={} checkpoint={:?}",
        recovery.resumed_from, recovery.replayed, recovery.truncated, recovery.checkpoint
    );

    // Continue where the crash left off, still logging durably.
    let mut source = TimelineSource::from_gridded(&gridded);
    for _ in 0..recovery.next_timestamp() {
        source.next_batch(); // already ingested before the crash
    }
    while let Some(batch) = source.next_batch() {
        let t = supervisor.engine().next_timestamp();
        let outcome = stepped(supervisor.step(batch).expect("supervised step"));
        println!("t={t:>2}  active={:>4}  (resumed)", outcome.active);
    }
    finish(&mut supervisor);
}

/// The outcome of a supervised step. This engine never crashes, so any
/// verdict but `Stepped` means the drill itself is broken.
fn stepped(verdict: StepVerdict) -> StepOutcome {
    match verdict {
        StepVerdict::Stepped(outcome) => outcome,
        other => panic!("unexpected supervised verdict {other:?}"),
    }
}

fn finish(supervisor: &mut Supervisor<RetraSyn>) {
    let released = supervisor.release().expect("sync and release");
    let engine = supervisor.engine();
    engine.ledger().verify().expect("w-event accounting holds");
    let stats = engine.compaction_stats();
    println!("compaction: runs={} frozen_cells={}", stats.runs, stats.frozen_cells);
    println!("release-hash: {:016x}", release_hash(&released));
}

/// Self-contained demo: record, tear the log mid-record (a simulated
/// crash), recover, continue, and show the hash matches the clean run.
fn demo() {
    let wal = std::env::temp_dir().join(format!("retrasyn-durable-{}.wal", std::process::id()));
    let gridded = dataset();

    println!("== clean run (no crash) ==");
    let mut clean = engine();
    let expected = {
        let mut source = TimelineSource::from_gridded(&gridded);
        while let Some(batch) = source.next_batch() {
            clean.step(clean.next_timestamp(), batch);
        }
        clean.release()
    };
    println!("release-hash: {:016x}", release_hash(&expected));

    println!("\n== durable run, killed after 37 timestamps + a torn final record ==");
    let mut doomed = engine();
    let writer = WalWriter::create(&wal, SEED, doomed.fingerprint(), FsyncPolicy::EveryBatch)
        .expect("create WAL");
    let ckpt = Checkpointer::new(&wal, CKPT_EVERY);
    let mut source = WalSource::tee(TimelineSource::from_gridded(&gridded), writer);
    for _ in 0..37 {
        let batch = source.next_batch().expect("within horizon");
        doomed.step(doomed.next_timestamp(), batch);
        ckpt.maybe_save(&doomed).expect("checkpoint");
    }
    drop(doomed); // the "process" dies here
    let bytes = std::fs::read(&wal).expect("read WAL");
    std::fs::write(&wal, &bytes[..bytes.len() - 9]).expect("tear the tail");

    println!("\n== recovery ==");
    let mut revived = engine();
    let recovery = revived.recover(&wal).expect("recover");
    println!(
        "resumed_from={} replayed={} truncated={} checkpoint={:?}",
        recovery.resumed_from, recovery.replayed, recovery.truncated, recovery.checkpoint
    );
    assert!(recovery.truncated, "the torn record must be detected");

    // Continue to the horizon and compare against the clean session.
    let contents = WalContents::read(&wal).expect("reread");
    let writer = WalWriter::reopen(&contents, &wal, FsyncPolicy::EveryBatch).expect("reopen");
    let mut timeline = TimelineSource::from_gridded(&gridded);
    for _ in 0..recovery.next_timestamp() {
        timeline.next_batch();
    }
    let mut source = WalSource::tee(timeline, writer);
    while let Some(batch) = source.next_batch() {
        revived.step(revived.next_timestamp(), batch);
    }
    let resumed = revived.release();
    assert_eq!(resumed, expected, "recovery must be bit-identical");
    println!("release-hash: {:016x}  (bit-identical to the clean run)", release_hash(&resumed));

    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(Checkpointer::sidecar(&wal));
    let _ = std::fs::remove_file(Checkpointer::frozen_file(&wal));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<(&str, PathBuf)> = None;
    let mut slow_ms = 0u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--run" => {
                mode = Some(("run", PathBuf::from(args.get(i + 1).expect("--run <wal>"))));
                i += 2;
            }
            "--recover" => {
                mode = Some(("recover", PathBuf::from(args.get(i + 1).expect("--recover <wal>"))));
                i += 2;
            }
            "--slow-ms" => {
                slow_ms = args.get(i + 1).expect("--slow-ms <n>").parse().expect("integer");
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    match mode {
        None => demo(),
        Some(("run", wal)) => run(&wal, slow_ms),
        Some(("recover", wal)) => recover(&wal),
        Some(_) => unreachable!(),
    }
}
