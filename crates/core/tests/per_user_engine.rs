//! Determinism and distribution pins for engines that collect per-user
//! reports. Every per-user round runs the counter-based kernel under one
//! key drawn from the session RNG, so a full engine run (released bytes and
//! checkpoint bytes) must be identical for a fixed seed in both divisions,
//! and the per-user engine must learn what the `Aggregate` engine learns.

mod common;

use common::{chi2_crit, two_sample_chi_square};
use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_core::{Division, RetraSyn, RetraSynConfig, StreamingEngine};
use retrasyn_datagen::RandomWalkConfig;
use retrasyn_geo::{Space, UniformGrid};

fn walk_dataset(seed: u64) -> retrasyn_geo::StreamDataset {
    RandomWalkConfig { users: 400, timestamps: 30, churn: 0.08, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(seed))
}

/// A full population-division engine run is bit-identical for a fixed
/// seed in both report modes, and the seed still matters.
#[test]
fn engine_bit_identical_per_seed_in_both_report_modes() {
    let ds = walk_dataset(51);
    let grid = UniformGrid::unit(5);
    let run = |per_user: bool, seed: u64| {
        let mut config = RetraSynConfig::new(1.0, 5).with_lambda(10.0);
        if per_user {
            config = config.per_user_reports();
        }
        let mut engine = RetraSyn::population_division(config, grid.clone(), seed);
        let out = engine.run(&ds);
        engine.ledger().verify().expect("w-event invariant");
        out
    };
    for per_user in [false, true] {
        let expect = run(per_user, 42);
        assert_eq!(expect, run(per_user, 42), "per_user={per_user}");
        assert_ne!(expect, run(per_user, 43), "per_user={per_user}: the seed must matter");
    }
}

/// Regression pin for the RandomReport strategy, whose per-user report
/// slots live in an ordered map: a full engine run — released bytes
/// *and* checkpoint bytes — must be bit-identical across runs. The slot
/// map is consulted inside the eligibility filter every timestamp, so any
/// iteration-order leak from the container into the draw sequence would
/// break this pin.
#[test]
fn random_report_engine_bit_identical_across_runs() {
    use retrasyn_core::AllocationKind;
    let ds = walk_dataset(55);
    let grid = UniformGrid::unit(5);
    let run = || {
        let config = RetraSynConfig::new(1.0, 5)
            .with_lambda(10.0)
            .with_allocation(AllocationKind::RandomReport)
            .per_user_reports();
        let engine = RetraSyn::population_division(config, grid.clone(), 77);
        run_with_checkpoint(engine, &ds, &grid)
    };
    let (out, ckpt) = run();
    let (out_b, ckpt_b) = run();
    assert_eq!(out, out_b, "released bytes must pin");
    assert_eq!(ckpt, ckpt_b, "checkpoint bytes must pin");
}

/// Step `engine` through every timestamp of `ds`, then return its release
/// and the checkpoint taken just before it, after verifying the ledger.
fn run_with_checkpoint(
    mut engine: RetraSyn,
    ds: &retrasyn_geo::StreamDataset,
    grid: &UniformGrid,
) -> (retrasyn_geo::GriddedDataset, Vec<u8>) {
    let gridded = ds.discretize(grid);
    let timeline = retrasyn_geo::EventTimeline::build(&gridded);
    for t in 0..gridded.horizon() {
        engine.step(t, timeline.at(t));
    }
    let ckpt = engine.checkpoint_bytes().expect("engine checkpoints");
    let out = engine.release();
    engine.ledger().verify().expect("w-event invariant");
    (out, ckpt)
}

/// The acceptance pin of the per-user kernel: released bytes *and*
/// checkpoint bytes reproduce across runs in both divisions (budget
/// division: everyone reports at ε_t; population division: a sampled
/// group at the full ε), because a round's randomness is one key drawn
/// from the session RNG.
#[test]
fn per_user_engine_bit_identical_in_both_divisions() {
    let ds = walk_dataset(54);
    let grid = UniformGrid::unit(5);
    for division in [Division::Budget, Division::Population] {
        let run = || {
            let config = RetraSynConfig::new(1.0, 5).with_lambda(10.0).per_user_reports();
            run_with_checkpoint(RetraSyn::new(config, grid.clone(), division, 42), &ds, &grid)
        };
        let (out, ckpt) = run();
        let (out_b, ckpt_b) = run();
        assert_eq!(out, out_b, "{division:?}: released bytes");
        assert_eq!(ckpt, ckpt_b, "{division:?}: checkpoint bytes");
    }
}

/// The per-user kernel must not distort what the engine learns: a
/// per-user engine's released occupancy (summed over all timestamps) may
/// differ from the `Aggregate` engine's only by about as much as two
/// `Aggregate` runs with different seeds differ from each other —
/// self-calibrated, because within-run occupancy is correlated and a raw
/// two-sample chi-square bound would reject even seed-to-seed noise.
#[test]
fn per_user_engine_releases_similar_occupancy() {
    let ds = walk_dataset(53);
    let grid = UniformGrid::unit(4).compile();
    let occupancy = |per_user: bool, seed: u64| {
        let mut config = RetraSynConfig::new(2.0, 5).with_lambda(10.0);
        if per_user {
            config = config.per_user_reports();
        }
        let mut engine = RetraSyn::population_division(config, grid.clone(), seed);
        let gridded = ds.discretize(&grid);
        let timeline = retrasyn_geo::EventTimeline::build(&gridded);
        let mut acc = vec![0u64; grid.num_cells()];
        for t in 0..gridded.horizon() {
            engine.step(t, timeline.at(t));
            for (a, x) in acc.iter_mut().zip(engine.snapshot().occupancy(grid.num_cells())) {
                *a += x;
            }
        }
        acc
    };
    let chi_of = |a: &[u64], b: &[u64]| {
        let (na, nb) = (a.iter().sum::<u64>(), b.iter().sum::<u64>());
        assert!(na > 1000 && nb > 1000, "populations too small: {na} vs {nb}");
        two_sample_chi_square(a, b, na, nb)
    };
    // Null scale: aggregate runs under two different seeds.
    let agg_a = occupancy(false, 7);
    let agg_b = occupancy(false, 8);
    let (chi_null, dof) = chi_of(&agg_a, &agg_b);
    // Test statistic: aggregate vs per-user at the same seed.
    let per_user = occupancy(true, 7);
    let (chi_test, _) = chi_of(&agg_a, &per_user);
    assert!(
        chi_test < 3.0 * chi_null.max(chi2_crit(dof)),
        "per-user occupancy diverges: chi={chi_test:.1} vs null chi={chi_null:.1} dof={dof}"
    );
}
