//! A live streaming session: the engine consumes event batches from a
//! bounded channel fed by a producer thread — no dataset is ever
//! materialized on the consumer side — and answers per-timestamp queries
//! from the borrowed `snapshot()` between steps.
//!
//! ```sh
//! cargo run --release --example live_session
//! ```
//!
//! Demonstrates the three pillars of the session API:
//!
//! 1. **Pluggable ingestion** ([`EventSource`]): the same engine code is
//!    driven first by a [`ChannelSource`] (live producer thread with
//!    back-pressure), then — after a `reset()` — by an [`IterSource`] over
//!    the recorded batches, producing a bit-identical release.
//! 2. **Per-timestamp observation**: `snapshot()` is a borrowed, zero-copy
//!    view of the evolving synthetic database; reading it is
//!    post-processing with no privacy cost.
//! 3. **Non-consuming release**: `release()` hands out the accumulated
//!    database and the engine object survives for the next session.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn::geo::EventTimeline;
use retrasyn::prelude::*;
use std::thread;

fn main() {
    // The "real world": a recorded stream we replay as if it arrived live.
    let mut rng = StdRng::seed_from_u64(5);
    let dataset =
        RandomWalkConfig { users: 800, timestamps: 50, churn: 0.08, ..Default::default() }
            .generate(&mut rng);
    let grid = UniformGrid::unit(5);
    let gridded = dataset.discretize(&grid);
    let timeline = EventTimeline::build(&gridded);
    let batches: Vec<Vec<UserEvent>> =
        (0..timeline.horizon()).map(|t| timeline.at(t).to_vec()).collect();

    let config = RetraSynConfig::new(1.0, 10).with_lambda(gridded.avg_length());
    let mut engine = RetraSyn::population_division(config, grid.clone(), 23);

    // --- Session 1: a producer thread feeds a bounded channel. ---------
    // Capacity 4 ⇒ the producer back-pressures when the engine lags.
    let (tx, mut source) = ChannelSource::bounded(4);
    let producer_batches = batches.clone();
    let producer = thread::spawn(move || {
        for batch in producer_batches {
            if tx.send(batch).is_err() {
                return; // consumer hung up
            }
        }
        // Dropping the sender ends the stream.
    });

    let mut scratch = Vec::new();
    while let Some(batch) = source.next_batch() {
        let outcome = engine.step(engine.next_timestamp(), batch);
        // Live queries between steps, straight off the borrowed view.
        let snapshot = engine.snapshot();
        if outcome.t.is_multiple_of(10) {
            // Longest live synthetic trajectory right now (zero-copy walk
            // of the arena chains, newest cell first).
            let longest = snapshot.live().map(|s| s.len()).max().unwrap_or(0);
            snapshot.occupancy_into(gridded.topology().num_cells(), &mut scratch);
            let occupied = scratch.iter().filter(|&&c| c > 0).count();
            println!(
                "t={:2}  active={:4}  finished={:4}  longest-live={:2}  occupied-cells={}",
                outcome.t, outcome.active, outcome.finished, longest, occupied
            );
        }
    }
    producer.join().expect("producer thread");

    let live_release = engine.release();
    engine.ledger().verify().expect("w-event accounting (live)");
    println!("live session : {} streams released", live_release.num_streams());

    // --- Session 2: same engine object, reset, iterator-backed feed. ---
    engine.reset();
    let replay = engine.drive(IterSource::new(batches.into_iter()));
    engine.ledger().verify().expect("w-event accounting (replay)");
    println!("replay       : {} streams released", replay.num_streams());

    // Same seed, same events ⇒ bit-identical synthetic database, no matter
    // which source delivered the batches.
    assert_eq!(live_release, replay, "channel and iterator sessions must agree");
    println!("determinism  : channel-fed and iterator-fed sessions are bit-identical");
}
