//! Reproducibility: the whole pipeline — generation, discretization,
//! engines, metric workloads — is a pure function of its seeds.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn::core::{BaselineKind, Division};
use retrasyn::prelude::*;

fn generate(seed: u64) -> StreamDataset {
    TDriveConfig { taxis: 200, timestamps: 50, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(seed))
}

#[test]
fn generators_are_deterministic() {
    let a = generate(5);
    let b = generate(5);
    assert_eq!(a.trajectories().len(), b.trajectories().len());
    for (x, y) in a.trajectories().iter().zip(b.trajectories()) {
        assert_eq!(x, y);
    }
    let c = generate(6);
    assert!(
        !(a.trajectories().len() == c.trajectories().len() && a.trajectories() == c.trajectories()),
        "different seeds should differ"
    );
}

#[test]
fn discretization_is_deterministic() {
    let ds = generate(7);
    let grid = UniformGrid::unit(7);
    let a = ds.discretize(&grid);
    let b = ds.discretize(&grid);
    assert_eq!(a, b);
}

#[test]
fn retrasyn_release_is_deterministic() {
    let ds = generate(8);
    let grid = UniformGrid::unit(5);
    let orig = ds.discretize(&grid);
    let release = |seed: u64| {
        let config = RetraSynConfig::new(1.0, 8).with_lambda(orig.avg_length());
        let mut engine = RetraSyn::population_division(config, grid.clone(), seed);
        engine.run_gridded(&orig)
    };
    let a = release(99);
    let b = release(99);
    assert_eq!(a, b);
}

#[test]
fn baseline_release_is_deterministic() {
    let ds = generate(9);
    let grid = UniformGrid::unit(5);
    let orig = ds.discretize(&grid);
    let release = |seed: u64| {
        let mut engine =
            LdpIds::new(BaselineKind::Lba, LdpIdsConfig::new(1.0, 8), grid.clone(), seed);
        engine.run_gridded(&orig)
    };
    assert_eq!(release(4), release(4));
}

#[test]
fn metric_evaluation_is_deterministic() {
    let ds = generate(10);
    let grid = UniformGrid::unit(5);
    let orig = ds.discretize(&grid);
    let config = RetraSynConfig::new(1.0, 8).with_lambda(orig.avg_length());
    let mut engine = RetraSyn::new(config, grid.clone(), Division::Budget, 2);
    let syn = engine.run_gridded(&orig);
    let suite = MetricSuite::new(SuiteConfig { phi: 5, ..Default::default() });
    let a = suite.evaluate(&orig, &syn);
    let b = suite.evaluate(&orig, &syn);
    assert_eq!(a, b);
}

#[test]
fn per_user_engine_release_deterministic_under_shrink_heavy_churn() {
    // High churn retires many real streams per step, so the synthetic
    // target repeatedly drops and the two-phase shrink (quit draws, then
    // Efraimidis–Spirakis victim selection) runs on the critical path,
    // while every round collects per-user reports.
    // Across several engine seeds every release must reproduce
    // bit-for-bit and every session must keep its w-event ledger.
    let ds = RandomWalkConfig { users: 9_000, timestamps: 15, churn: 0.2, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(18));
    let grid = UniformGrid::unit(5);
    let orig = ds.discretize(&grid);
    let release = |seed: u64| {
        let config = RetraSynConfig::new(1.0, 6).with_lambda(orig.avg_length()).per_user_reports();
        let mut engine = RetraSyn::population_division(config, grid.clone(), seed);
        let released = engine.run_gridded(&orig);
        engine.ledger().verify().expect("w-event invariant");
        released
    };
    for seed in [55u64, 56, 57, 58] {
        assert_eq!(release(seed), release(seed), "seed {seed} did not reproduce");
    }
}

#[test]
fn engine_seed_isolation_from_dataset_seed() {
    // Same data, different engine seeds -> different synthetic noise;
    // same engine seed -> identical output regardless of when it runs.
    let ds = generate(11);
    let grid = UniformGrid::unit(5);
    let orig = ds.discretize(&grid);
    let run = |seed: u64| {
        let config = RetraSynConfig::new(1.0, 8).with_lambda(orig.avg_length());
        let mut engine = RetraSyn::population_division(config, grid.clone(), seed);
        engine.run_gridded(&orig)
    };
    let a1 = run(1);
    let a2 = run(1);
    let b = run(2);
    assert_eq!(a1, a2);
    assert_ne!(a1, b);
}
