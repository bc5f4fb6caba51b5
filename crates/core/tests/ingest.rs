//! Hardened-ingest suite: `ChannelSource` deadlines, producer failure
//! modes, and the `ValidatedSource` screening guarantee — arbitrary
//! (adversarial) event batches can only yield typed errors or quarantine
//! records, never a panic, in debug *and* release builds.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use proptest::prelude::*;
use retrasyn_core::{
    ChannelSource, EventSource, IngestPolicy, RetraSyn, RetraSynConfig, SessionError, StallPolicy,
    StreamingEngine, ValidatedSource,
};
use retrasyn_geo::{
    BoundingBox, CellId, Point, QuadGrid, Space, Topology, TransitionState, UniformGrid, UserEvent,
};

fn enter(user: u64, cell: u32) -> UserEvent {
    UserEvent { user, state: TransitionState::Enter(CellId(cell)) }
}

fn topo() -> Arc<Topology> {
    UniformGrid::unit(4).compile_shared()
}

// ---------------------------------------------------------------------------
// ChannelSource deadlines.

#[test]
fn deadline_heartbeat_keeps_session_stepping() {
    let (tx, src) = ChannelSource::bounded(4);
    let mut src = src.with_deadline(Duration::from_millis(20), StallPolicy::Heartbeat);

    tx.send(vec![enter(1, 0)]).unwrap();
    assert_eq!(src.next_batch().unwrap().len(), 1);

    // Producer stalls: the deadline expires and the source synthesizes an
    // empty heartbeat batch instead of blocking the engine forever.
    assert_eq!(src.next_batch().unwrap().len(), 0);
    assert_eq!(src.stalls(), 1);

    // A recovered producer resumes the stream on the same source.
    tx.send(vec![enter(2, 5)]).unwrap();
    assert_eq!(src.next_batch().unwrap().len(), 1);
    assert_eq!(src.stalls(), 1);

    // A dropped producer still ends the stream (no heartbeat forever).
    drop(tx);
    assert!(src.next_batch().is_none());
}

#[test]
fn deadline_end_stream_terminates_on_stall() {
    let (tx, src) = ChannelSource::bounded(4);
    let mut src = src.with_deadline(Duration::from_millis(20), StallPolicy::EndStream);

    tx.send(vec![enter(1, 0)]).unwrap();
    assert_eq!(src.next_batch().unwrap().len(), 1);

    // Producer stalls past the deadline: the stream ends.
    assert!(src.next_batch().is_none());
    assert_eq!(src.stalls(), 1);
}

#[test]
fn sender_dropped_mid_stream_ends_cleanly() {
    let (tx, mut src) = ChannelSource::bounded(2);
    let producer = thread::spawn(move || {
        tx.send(vec![enter(1, 0)]).unwrap();
        tx.send(vec![enter(2, 3)]).unwrap();
        // The producer dies here (tx dropped) while the consumer is still
        // reading: the stream must end, not hang or panic.
    });
    assert_eq!(src.next_batch().unwrap().len(), 1);
    assert_eq!(src.next_batch().unwrap().len(), 1);
    assert!(src.next_batch().is_none());
    producer.join().unwrap();
}

// ---------------------------------------------------------------------------
// Screening guarantee under adversarial input.

/// Decode one fuzzed tuple into a (possibly invalid) event: cells range
/// over 0..40 against a 16-cell grid (and a 28-cell quad tree), so
/// out-of-domain, non-adjacent, duplicate and lifecycle faults all occur.
fn decode(((user, tag), (a, b)): ((u64, u8), (u32, u32))) -> UserEvent {
    let state = match tag {
        0 => TransitionState::Move { from: CellId(a), to: CellId(b) },
        1 => TransitionState::Enter(CellId(a)),
        _ => TransitionState::Quit(CellId(a)),
    };
    UserEvent { user, state }
}

/// A quad tree whose leaves differ in size, so adjacency rows differ in
/// length and the domain rule runs its adjacency-row search.
fn quad() -> Arc<Topology> {
    let pts: Vec<Point> =
        (0..200).map(|i| Point::new((i as f64 * 0.013) % 0.5, (i as f64 * 0.031) % 0.6)).collect();
    let topo = QuadGrid::fit(BoundingBox::unit(), &pts, 20, 4).compile_shared();
    assert_eq!(topo.num_cells(), 28);
    topo
}

/// The screened topologies: the paper's uniform grid and a quad tree.
fn topologies() -> [Arc<Topology>; 2] {
    [topo(), quad()]
}

fn small_engine(topo: &Arc<Topology>, seed: u64) -> RetraSyn {
    RetraSyn::population_division(RetraSynConfig::new(1.0, 4), Arc::clone(topo), seed)
}

proptest! {
    /// Arbitrary batches through `ValidatedSource` + `try_step`: the
    /// screened stream always steps `Ok`, the raw stream only ever yields
    /// typed errors (after which the engine remains steppable), and
    /// `IngestStats` accounts for every single event.
    #[test]
    fn arbitrary_batches_never_panic(
        raw in prop::collection::vec(
            prop::collection::vec(((0u64..6, 0u8..3), (0u32..40, 0u32..40)), 0..8),
            1..6,
        ),
        seed in 0u64..16,
    ) {
        let batches: Vec<Vec<UserEvent>> =
            raw.iter().map(|b| b.iter().map(|&e| decode(e)).collect()).collect();
        let total_events: u64 = batches.iter().map(|b| b.len() as u64).sum();

        for topo in topologies() {
            // Screened path: every delivered batch satisfies the engine
            // input contract, so stepping can never fail or panic.
            let mut screened = ValidatedSource::new(
                retrasyn_core::IterSource::new(batches.clone().into_iter()),
                Arc::clone(&topo),
                IngestPolicy::DropEvents,
            );
            let mut engine = small_engine(&topo, seed);
            while let Some(batch) = screened.next_batch() {
                let t = engine.next_timestamp();
                prop_assert!(engine.try_step(t, batch).is_ok());
            }
            let stats = *screened.stats();
            prop_assert_eq!(stats.events, total_events);
            prop_assert_eq!(stats.passed + stats.diverted(), total_events);
            prop_assert_eq!(stats.diverted(), screened.quarantine().count() as u64
                + stats.quarantine_dropped);

            // Raw path: invalid batches surface as typed errors; the
            // engine is untouched by a pre-state error and keeps stepping.
            let mut engine = small_engine(&topo, seed + 1000);
            for batch in &batches {
                let t = engine.next_timestamp();
                match engine.try_step(t, batch) {
                    Ok(_) => {}
                    Err(SessionError::InvalidEvent { t: et, .. }) => {
                        prop_assert_eq!(et, t);
                        // Still steppable at the same timestamp.
                        prop_assert!(engine.try_step(t, &[]).is_ok());
                    }
                    Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
                }
            }
        }
    }

    /// `RejectBatch` delivers only empty heartbeats for tainted batches,
    /// and a `Strict` source latches the first fault as a typed error.
    #[test]
    fn policies_hold_under_arbitrary_input(
        raw in prop::collection::vec(
            prop::collection::vec(((0u64..6, 0u8..3), (0u32..40, 0u32..40)), 0..6),
            1..5,
        ),
    ) {
        let batches: Vec<Vec<UserEvent>> =
            raw.iter().map(|b| b.iter().map(|&e| decode(e)).collect()).collect();

        for topo in topologies() {
            let mut reject = ValidatedSource::new(
                retrasyn_core::IterSource::new(batches.clone().into_iter()),
                Arc::clone(&topo),
                IngestPolicy::RejectBatch,
            );
            let mut delivered = 0u64;
            while let Some(batch) = reject.next_batch() {
                delivered += batch.len() as u64;
            }
            let stats = *reject.stats();
            prop_assert_eq!(delivered, stats.passed);
            prop_assert_eq!(stats.events, stats.passed + stats.diverted() + stats.rejected_events);

            let mut strict = ValidatedSource::new(
                retrasyn_core::IterSource::new(batches.clone().into_iter()),
                topo,
                IngestPolicy::Strict,
            );
            while strict.next_batch().is_some() {}
            if stats.diverted() > 0 {
                prop_assert!(matches!(strict.error(), Some(SessionError::InvalidEvent { .. })));
            } else {
                prop_assert!(strict.error().is_none());
            }
        }
    }
}
