//! Contract tests of the streaming session API.
//!
//! The load-bearing invariant: the per-timestamp `snapshot()` is a
//! *prefix* of the final `release()` — for every timestamp `t`, every
//! stream visible in the snapshot reappears in the released dataset with
//! identical id/start and the snapshot's cells as a bit-for-bit prefix of
//! its released cells, and the snapshot contains exactly the streams the
//! release says had started by `t`. Pinned across both divisions, the
//! pooled synthesis path (`threads ∈ {1, 4}`) and the NoEQ ablation.
//!
//! Also pinned: the `StreamingEngine`-generic driver reproduces the manual
//! step loop bit-for-bit (for RetraSyn and every baseline), post-release
//! misuse fails with a descriptive panic instead of the old confusing
//! `next_t` assert on a gutted synthesizer, and `reset()` replays
//! identically.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_core::{
    BaselineKind, EventSource, FnSource, IterSource, LdpIds, LdpIdsConfig, RetraSyn,
    RetraSynConfig, StreamingEngine, TimelineSource,
};
use retrasyn_datagen::RandomWalkConfig;
use retrasyn_geo::{CellId, EventTimeline, Grid, GriddedDataset, UserEvent};
use std::collections::BTreeMap;

fn dataset(users: usize, timestamps: u64, seed: u64) -> GriddedDataset {
    let ds = RandomWalkConfig { users, timestamps, churn: 0.06, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(seed));
    ds.discretize(&Grid::unit(5))
}

/// Materialized snapshot content: (id, start, cells) per stream.
fn materialize(engine: &RetraSyn) -> Vec<(u64, u64, Vec<CellId>)> {
    let snap = engine.snapshot();
    let mut out: Vec<(u64, u64, Vec<CellId>)> = snap
        .streams()
        .map(|s| {
            let mut cells = Vec::new();
            s.cells_into(&mut cells);
            assert_eq!(cells.len(), s.len());
            assert_eq!(*cells.last().unwrap(), s.head());
            (s.id(), s.start(), cells)
        })
        .collect();
    out.sort_unstable_by_key(|&(id, _, _)| id);
    out
}

/// Drive `engine` over `gridded`, capturing a materialized snapshot after
/// every step, then check each against the final release.
fn check_prefix_property(mut engine: RetraSyn, gridded: &GriddedDataset) {
    let timeline = EventTimeline::build(gridded);
    let mut per_t: Vec<Vec<(u64, u64, Vec<CellId>)>> = Vec::new();
    for t in 0..gridded.horizon() {
        let outcome = engine.step(t, timeline.at(t));
        let snap = engine.snapshot();
        assert_eq!(snap.horizon(), t + 1);
        assert_eq!(snap.active_count(), outcome.active);
        assert_eq!(snap.finished_count(), outcome.finished);
        per_t.push(materialize(&engine));
    }
    let released = engine.release();
    let by_id: BTreeMap<u64, _> = released.iter().map(|s| (s.id, s)).collect();
    for (t, snapshot) in per_t.iter().enumerate() {
        // Exactly the streams that had started by t, by construction of
        // the release: no stream may appear in the snapshot and vanish.
        let expected: usize = released.iter().filter(|s| s.start <= t as u64).count();
        assert_eq!(snapshot.len(), expected, "stream set mismatch at t={t}");
        for (id, start, cells) in snapshot {
            let fin = by_id.get(id).unwrap_or_else(|| panic!("stream {id} missing from release"));
            assert_eq!(fin.start, *start, "start drifted for stream {id} at t={t}");
            assert!(
                fin.cells.len() >= cells.len(),
                "released stream {id} shorter than its t={t} snapshot"
            );
            assert_eq!(
                &fin.cells[..cells.len()],
                cells.as_slice(),
                "snapshot at t={t} is not a prefix of the release for stream {id}"
            );
        }
    }
}

#[test]
fn snapshots_are_prefixes_of_release_population() {
    let gridded = dataset(400, 25, 1);
    let config = RetraSynConfig::new(1.0, 5).with_lambda(gridded.avg_length());
    check_prefix_property(RetraSyn::population_division(config, Grid::unit(5), 7), &gridded);
}

#[test]
fn snapshots_are_prefixes_of_release_budget() {
    let gridded = dataset(400, 25, 2);
    let config = RetraSynConfig::new(1.0, 5).with_lambda(gridded.avg_length());
    check_prefix_property(RetraSyn::budget_division(config, Grid::unit(5), 7), &gridded);
}

#[test]
fn snapshots_are_prefixes_of_release_pooled() {
    // Large enough to cross the parallel threshold (MIN_PARALLEL = 2048).
    let gridded = dataset(2600, 8, 3);
    for threads in [1usize, 4] {
        let config = RetraSynConfig::new(1.0, 4)
            .with_lambda(gridded.avg_length())
            .with_synthesis_threads(threads);
        check_prefix_property(RetraSyn::population_division(config, Grid::unit(5), 9), &gridded);
    }
}

#[test]
fn snapshots_are_prefixes_of_release_noeq() {
    let gridded = dataset(300, 20, 4);
    let config = RetraSynConfig::new(1.0, 5).with_lambda(gridded.avg_length()).no_eq();
    check_prefix_property(RetraSyn::population_division(config, Grid::unit(5), 11), &gridded);
}

#[test]
fn generic_driver_reproduces_manual_loop() {
    // The trait-generic driver (TimelineSource -> drive -> release) must be
    // bit-identical to hand-rolling the step loop, for every engine type.
    let gridded = dataset(300, 20, 5);
    fn generic(engine: &mut impl StreamingEngine, ds: &GriddedDataset) -> GriddedDataset {
        engine.run_gridded(ds)
    }

    let mk_retra = || {
        let config = RetraSynConfig::new(1.0, 5).with_lambda(gridded.avg_length());
        RetraSyn::population_division(config, Grid::unit(5), 13)
    };
    let mut manual_engine = mk_retra();
    let timeline = EventTimeline::build(&gridded);
    for t in 0..gridded.horizon() {
        manual_engine.step(t, timeline.at(t));
    }
    let manual = manual_engine.release();
    assert_eq!(generic(&mut mk_retra(), &gridded), manual);

    for kind in BaselineKind::ALL {
        let mk = || LdpIds::new(kind, LdpIdsConfig::new(1.0, 5), Grid::unit(5), 13);
        let mut manual_engine = mk();
        for t in 0..gridded.horizon() {
            manual_engine.step(t, timeline.at(t));
        }
        let manual = manual_engine.release();
        assert_eq!(generic(&mut mk(), &gridded), manual, "{}", kind.name());
    }
}

#[test]
fn all_sources_feed_identically() {
    let gridded = dataset(250, 15, 6);
    let timeline = EventTimeline::build(&gridded);
    let batches: Vec<Vec<UserEvent>> =
        (0..timeline.horizon()).map(|t| timeline.at(t).to_vec()).collect();
    let run = |src: &mut dyn FnMut(&mut RetraSyn) -> GriddedDataset| {
        let config = RetraSynConfig::new(1.0, 5).with_lambda(gridded.avg_length());
        let mut engine = RetraSyn::population_division(config, Grid::unit(5), 17);
        src(&mut engine)
    };
    let via_timeline = run(&mut |e| e.drive(TimelineSource::from_gridded(&gridded)));
    let via_iter = run(&mut |e| e.drive(IterSource::new(batches.clone().into_iter())));
    let b = batches.clone();
    let via_fn = run(&mut |e| e.drive(FnSource::new(|t| b.get(t as usize).cloned())));
    assert_eq!(via_timeline, via_iter);
    assert_eq!(via_timeline, via_fn);
}

#[test]
fn drive_resumes_a_partially_consumed_source() {
    // Step the first half manually off the source, then hand the rest to
    // drive() — same release as driving it whole.
    let gridded = dataset(250, 16, 7);
    let config = RetraSynConfig::new(1.0, 5).with_lambda(gridded.avg_length());
    let mut whole = RetraSyn::population_division(config.clone(), Grid::unit(5), 19);
    let expected = whole.run_gridded(&gridded);

    let mut engine = RetraSyn::population_division(config, Grid::unit(5), 19);
    let mut source = TimelineSource::from_gridded(&gridded);
    for _ in 0..8 {
        let batch = source.next_batch().expect("first half");
        engine.step(engine.next_timestamp(), batch);
    }
    let out = engine.drive(&mut source);
    assert_eq!(out, expected);
}

#[test]
fn mid_stream_release_is_a_prefix_run() {
    // Releasing at t < horizon equals running only the first t timestamps.
    let gridded = dataset(250, 20, 8);
    let config = RetraSynConfig::new(1.0, 5).with_lambda(gridded.avg_length());
    let timeline = EventTimeline::build(&gridded);

    let mut engine = RetraSyn::population_division(config.clone(), Grid::unit(5), 21);
    for t in 0..12 {
        engine.step(t, timeline.at(t));
    }
    let mid = engine.release();
    assert_eq!(mid.horizon(), 12);

    let mut control = RetraSyn::population_division(config, Grid::unit(5), 21);
    for t in 0..12 {
        control.step(t, timeline.at(t));
    }
    assert_eq!(control.release(), mid);
}

#[test]
fn reset_replays_bit_identically() {
    let gridded = dataset(250, 15, 9);
    let config = RetraSynConfig::new(1.0, 5).with_lambda(gridded.avg_length());
    let mut engine = RetraSyn::population_division(config, Grid::unit(5), 23);
    let first = engine.run_gridded(&gridded);
    engine.reset();
    assert_eq!(engine.next_timestamp(), 0);
    let second = engine.run_gridded(&gridded);
    assert_eq!(first, second, "reset must re-seed with the construction seed");

    let mut baseline = LdpIds::new(BaselineKind::Lbd, LdpIdsConfig::new(1.0, 5), Grid::unit(5), 3);
    let first = baseline.run_gridded(&gridded);
    baseline.reset();
    assert_eq!(first, baseline.run_gridded(&gridded));
}

// --- Post-release misuse: descriptive panics, not a confusing t assert. ---

#[test]
#[should_panic(expected = "already released")]
fn step_after_release_panics_descriptively() {
    let gridded = dataset(100, 8, 10);
    let config = RetraSynConfig::new(1.0, 4).with_lambda(5.0);
    let mut engine = RetraSyn::population_division(config, Grid::unit(5), 1);
    let _ = engine.run_gridded(&gridded);
    engine.step(engine.next_timestamp(), &[]);
}

#[test]
#[should_panic(expected = "call reset()")]
fn run_twice_panics_descriptively() {
    // The PR-5 regression: this used to die in the synthesizer's internals
    // (a `next_t` assert on an engine whose synthetic DB had been taken).
    let gridded = dataset(100, 8, 11);
    let config = RetraSynConfig::new(1.0, 4).with_lambda(5.0);
    let mut engine = RetraSyn::population_division(config, Grid::unit(5), 1);
    let _ = engine.run_gridded(&gridded);
    let _ = engine.run_gridded(&gridded);
}

#[test]
#[should_panic(expected = "mid-session")]
fn run_on_a_mid_session_engine_panics_descriptively() {
    // A dataset replay starts at t = 0: feeding it to an engine that has
    // already stepped would silently shift every batch by the engine's
    // current timestamp. The guard makes it loud instead.
    let gridded = dataset(100, 8, 15);
    let config = RetraSynConfig::new(1.0, 4).with_lambda(5.0);
    let mut engine = RetraSyn::population_division(config, Grid::unit(5), 1);
    let timeline = EventTimeline::build(&gridded);
    engine.step(0, timeline.at(0));
    let _ = engine.run_gridded(&gridded);
}

#[test]
#[should_panic(expected = "already released")]
fn occupancy_after_release_panics_descriptively() {
    // The occupancy read goes through the same guarded snapshot of the
    // (now emptied) store.
    let gridded = dataset(100, 8, 17);
    let config = RetraSynConfig::new(1.0, 4).with_lambda(5.0);
    let mut engine = RetraSyn::population_division(config, Grid::unit(5), 1);
    let _ = engine.run_gridded(&gridded);
    let _ = engine.snapshot().occupancy(Grid::unit(5).num_cells());
}

#[test]
#[should_panic(expected = "already released")]
fn snapshot_after_release_panics_descriptively() {
    // A released engine's store is empty: a silent empty view would read
    // as "population collapsed", so snapshot() refuses loudly instead.
    let gridded = dataset(100, 8, 16);
    let config = RetraSynConfig::new(1.0, 4).with_lambda(5.0);
    let mut engine = RetraSyn::population_division(config, Grid::unit(5), 1);
    let _ = engine.run_gridded(&gridded);
    let _ = engine.snapshot();
}

#[test]
#[should_panic(expected = "already released")]
fn release_twice_panics_descriptively() {
    let gridded = dataset(100, 8, 12);
    let config = RetraSynConfig::new(1.0, 4).with_lambda(5.0);
    let mut engine = RetraSyn::population_division(config, Grid::unit(5), 1);
    let _ = engine.run_gridded(&gridded);
    let _ = engine.release();
}

#[test]
#[should_panic(expected = "already released")]
fn baseline_step_after_release_panics_descriptively() {
    let gridded = dataset(100, 8, 13);
    let mut engine = LdpIds::new(BaselineKind::Lpa, LdpIdsConfig::new(1.0, 4), Grid::unit(5), 1);
    let _ = engine.run_gridded(&gridded);
    engine.step(engine.next_timestamp(), &[]);
}

#[test]
fn run_after_reset_is_supported() {
    // Engine reuse is explicit: release -> reset -> run works.
    let gridded = dataset(100, 8, 14);
    let config = RetraSynConfig::new(1.0, 4).with_lambda(5.0);
    let mut engine = RetraSyn::population_division(config, Grid::unit(5), 1);
    let a = engine.run_gridded(&gridded);
    engine.reset();
    let b = engine.run_gridded(&gridded);
    assert_eq!(a, b);
    engine.ledger().verify().expect("fresh ledger after reset");
}
