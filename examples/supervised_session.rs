//! A hardened live session: a flaky producer feeds malformed batches
//! through a deadline-guarded channel, a [`ValidatedSource`] quarantines
//! everything the engine must never see, and a [`Supervisor`] keeps the
//! session durable — retrying crashed steps from the WAL and poisoning
//! batches that crash every replay.
//!
//! ```sh
//! cargo run --release --example supervised_session
//! ```
//!
//! The ingestion stack, bottom to top:
//!
//! 1. [`ChannelSource`] with a deadline: a stalled producer yields empty
//!    heartbeat batches instead of wedging the engine.
//! 2. [`ValidatedSource`]: out-of-domain cells, non-adjacent moves,
//!    duplicate reporters and lifecycle violations are diverted to a
//!    bounded quarantine with per-reason counters.
//! 3. [`Supervisor`]: every step runs under `catch_unwind` with the batch
//!    already durable in the WAL; a crash rolls the batch back, rebuilds
//!    the engine from the log, and retries.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn::geo::{EventTimeline, TransitionState};
use retrasyn::prelude::*;
use std::thread;
use std::time::Duration;

fn main() {
    // A recorded stream, replayed as if it arrived from an untrusted
    // producer that occasionally corrupts what it sends.
    let mut rng = StdRng::seed_from_u64(11);
    let dataset =
        RandomWalkConfig { users: 400, timestamps: 40, churn: 0.08, ..Default::default() }
            .generate(&mut rng);
    let grid = UniformGrid::unit(5);
    let gridded = dataset.discretize(&grid);
    let timeline = EventTimeline::build(&gridded);
    let num_cells = gridded.topology().num_cells() as u32;

    let config = RetraSynConfig::new(1.0, 10).with_lambda(gridded.avg_length());
    let engine = RetraSyn::population_division(config, grid.clone(), 23);
    let topology = engine.topology().clone();

    // --- The flaky producer -------------------------------------------
    let (tx, source) = ChannelSource::bounded(4);
    let producer_batches: Vec<Vec<UserEvent>> =
        (0..timeline.horizon()).map(|t| timeline.at(t).to_vec()).collect();
    let producer = thread::spawn(move || {
        for (t, mut batch) in producer_batches.into_iter().enumerate() {
            // Every 7th batch is corrupted: a report from a cell that does
            // not exist and a movement teleporting across the grid.
            if t % 7 == 3 {
                batch.push(UserEvent {
                    user: 900_000 + t as u64,
                    state: TransitionState::Enter(CellId(num_cells + 17)),
                });
                batch.push(UserEvent {
                    user: 900_100 + t as u64,
                    state: TransitionState::Move { from: CellId(0), to: CellId(num_cells - 1) },
                });
            }
            if tx.send(batch).is_err() {
                return;
            }
            // One mid-stream stall, longer than the consumer's deadline.
            if t == 20 {
                thread::sleep(Duration::from_millis(60));
            }
        }
    });

    // --- The hardened ingestion stack ---------------------------------
    let guarded = source.with_deadline(Duration::from_millis(25), StallPolicy::Heartbeat);
    let mut validated = ValidatedSource::new(guarded, topology, IngestPolicy::DropEvents);

    let wal_path = std::env::temp_dir()
        .join(format!("retrasyn-supervised-example-{}.wal", std::process::id()));
    let mut supervisor = Supervisor::create(engine, &wal_path, 23, FsyncPolicy::EveryN(8))
        .expect("create supervised session")
        .with_checkpoints(10);

    while let Some(batch) = validated.next_batch() {
        match supervisor.step(batch).expect("supervision machinery") {
            StepVerdict::Stepped(outcome) => {
                if outcome.t.is_multiple_of(10) {
                    println!(
                        "t={:2}  active={:4}  finished={:4}",
                        outcome.t, outcome.active, outcome.finished
                    );
                }
            }
            StepVerdict::Recovered { outcome, attempts, .. } => {
                println!("t={:2}  recovered after {attempts} attempts", outcome.t);
            }
            StepVerdict::Poisoned { t, attempts, fault } => {
                println!("t={t:2}  POISONED after {attempts} attempts: {fault}");
            }
        }
    }

    let released = supervisor.release().expect("release supervised session");
    println!(
        "released     : {} streams over {} timestamps",
        released.num_streams(),
        released.horizon()
    );

    // --- What the stack absorbed --------------------------------------
    let ingest = *validated.stats();
    println!(
        "ingest       : {} events in, {} passed, {} quarantined ({} out-of-domain, {} non-adjacent)",
        ingest.events,
        ingest.passed,
        ingest.diverted(),
        ingest.out_of_domain,
        ingest.non_adjacent_moves,
    );
    let stalls = validated.inner().stalls();
    println!("stalls       : {stalls} heartbeat batch(es) synthesized for a stalled producer");
    let sup = *supervisor.stats();
    println!(
        "supervisor   : {} steps, {} recovered, {} poisoned, {} checkpoints",
        sup.steps, sup.recovered, sup.poisoned, sup.checkpoints
    );

    producer.join().expect("producer thread");
    assert!(ingest.diverted() > 0, "the corrupted batches must have been screened");
    assert!(stalls > 0, "the stall must have been absorbed as a heartbeat");
    assert_eq!(sup.poisoned, 0, "screened input never poisons the engine");

    // The WAL now holds exactly the screened session: a fresh engine
    // replays it to a bit-identical database.
    let config = RetraSynConfig::new(1.0, 10).with_lambda(gridded.avg_length());
    let mut replayed = RetraSyn::population_division(config, grid, 23);
    replayed.recover(&wal_path).expect("replay the supervised WAL");
    assert_eq!(replayed.release(), released, "WAL replay is bit-identical");
    println!("durability   : WAL replay reproduced the released database bit-identically");

    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_file(Checkpointer::sidecar(&wal_path));
    let _ = std::fs::remove_file(Supervisor::<RetraSyn>::poison_sidecar(&wal_path));
}
