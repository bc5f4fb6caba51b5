//! Determinism and distribution pins for the sharded per-user collection
//! pipeline. Every per-user round runs the counter-based kernel under one
//! key, so a pooled round must equal the unsharded one bit for bit, a full
//! engine run (released bytes and checkpoint bytes) must be identical at
//! every `collection_threads` value in both divisions, and the pooled
//! counts must follow the per-bit OUE distribution of the sequential
//! reference kernel.

mod common;

use common::{chi2_crit, two_sample_chi_square};
use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_core::{CollectionPool, Division, RetraSyn, RetraSynConfig, StreamingEngine};
use retrasyn_datagen::RandomWalkConfig;
use retrasyn_geo::Grid;
use retrasyn_ldp::{Oue, Philox};
use std::sync::Arc;

fn skewed_values(n: usize, domain: usize) -> Vec<usize> {
    (0..n).map(|i| (i * i + 7 * i) % domain).collect()
}

/// A fixed key must give bit-identical counts across runs, pool
/// instances, reused pools and thread counts; a different key changes
/// them. Covers the domain-sharded dense regime (ε = 1) and the
/// reporter-sharded sparse regime (ε = 3.5).
#[test]
fn pooled_collection_deterministic_per_seed_and_threads() {
    let domain = 64;
    let values = skewed_values(700, domain);
    for eps in [1.0, 3.5] {
        let oracle = Arc::new(Oue::new(eps, domain).unwrap());
        let run = |threads: usize, key: u64| {
            let mut pool = CollectionPool::new(threads);
            let mut ones = Vec::new();
            pool.collect_ones_blocked(&oracle, &values, &Philox::new(key), &mut ones).unwrap();
            ones
        };
        let expect = run(4, 5);
        assert_eq!(expect, run(4, 5), "eps={eps}");
        assert_ne!(expect, run(4, 6), "eps={eps}: the key must matter");
        for threads in [1usize, 2, 3] {
            assert_eq!(expect, run(threads, 5), "eps={eps} threads={threads}");
        }
        // Reusing one pool across rounds must not perturb determinism
        // (buffers shuttle between caller and workers).
        let mut pool = CollectionPool::new(3);
        let (mut first, mut again) = (Vec::new(), Vec::new());
        pool.collect_ones_blocked(&oracle, &values, &Philox::new(5), &mut first).unwrap();
        pool.collect_ones_blocked(&oracle, &values, &Philox::new(5), &mut again).unwrap();
        assert_eq!(first, expect, "eps={eps}");
        assert_eq!(again, expect, "eps={eps}");
    }
}

/// Pooled estimates agree with the truth to within a few standard
/// deviations of Eq. 3.
#[test]
fn sharded_estimates_agree_with_truth() {
    let domain = 10;
    let oracle = Arc::new(Oue::new(1.0, domain).unwrap());
    let n = 4000usize;
    let values = skewed_values(n, domain);
    let mut truth = vec![0.0; domain];
    for &v in &values {
        truth[v] += 1.0 / n as f64;
    }
    let mut pool = CollectionPool::new(4);
    let mut ones = Vec::new();
    pool.collect_ones_blocked(&oracle, &values, &Philox::new(21), &mut ones).unwrap();
    let mut freqs = Vec::new();
    oracle.debias_into(&ones, n as u64, &mut freqs);
    let sd = oracle.variance(n as u64).sqrt();
    for j in 0..domain {
        assert!(
            (freqs[j] - truth[j]).abs() < 4.5 * sd,
            "j={j}: {} vs {} (sd {sd})",
            freqs[j],
            truth[j]
        );
    }
}

fn walk_dataset(seed: u64) -> retrasyn_geo::StreamDataset {
    RandomWalkConfig { users: 400, timestamps: 30, churn: 0.08, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(seed))
}

/// A full population-division engine run is bit-identical for a fixed
/// seed at every `collection_threads` value, in both report modes: the
/// per-user kernel's draws are addressed, and the O(domain) `Aggregate`
/// shortcut never touches the pool. The seed still matters.
#[test]
fn engine_bit_identical_per_seed_and_collection_threads() {
    let ds = walk_dataset(51);
    let grid = Grid::unit(5);
    let run = |threads: usize, per_user: bool, seed: u64| {
        let mut config =
            RetraSynConfig::new(1.0, 5).with_lambda(10.0).with_collection_threads(threads);
        if per_user {
            config = config.per_user_reports();
        }
        let mut engine = RetraSyn::population_division(config, grid.clone(), seed);
        let out = engine.run(&ds);
        engine.ledger().verify().expect("w-event invariant");
        out
    };
    for per_user in [false, true] {
        let expect = run(1, per_user, 42);
        assert_eq!(expect, run(1, per_user, 42), "per_user={per_user}");
        for threads in [2usize, 4] {
            assert_eq!(expect, run(threads, per_user, 42), "threads={threads} per_user={per_user}");
        }
        assert_ne!(expect, run(1, per_user, 43), "per_user={per_user}: the seed must matter");
    }
}

/// Regression pin for the RandomReport strategy, whose per-user report
/// slots live in an ordered map: a full engine run — released bytes
/// *and* checkpoint bytes — must be bit-identical across runs and across
/// `collection_threads ∈ {1, 4}`. The slot map is consulted inside the
/// eligibility filter every timestamp, so any iteration-order leak from
/// the container into the draw sequence would break this pin.
#[test]
fn random_report_engine_bit_identical_per_thread_count() {
    use retrasyn_core::AllocationKind;
    let ds = walk_dataset(55);
    let grid = Grid::unit(5);
    let run = |threads: usize| {
        let config = RetraSynConfig::new(1.0, 5)
            .with_lambda(10.0)
            .with_collection_threads(threads)
            .with_allocation(AllocationKind::RandomReport)
            .per_user_reports();
        let engine = RetraSyn::population_division(config, grid.clone(), 77);
        run_with_checkpoint(engine, &ds, &grid)
    };
    let (out, ckpt) = run(1);
    for threads in [1usize, 4] {
        let (out_b, ckpt_b) = run(threads);
        assert_eq!(out, out_b, "threads={threads}: released bytes must pin");
        assert_eq!(ckpt, ckpt_b, "threads={threads}: checkpoint bytes must pin");
    }
}

/// Budget division shards too (everyone reports, ε_t per step), and is
/// just as thread-count invariant.
#[test]
fn budget_division_engine_deterministic_with_pooled_collection() {
    let ds = walk_dataset(52);
    let grid = Grid::unit(5);
    let run = |threads: usize| {
        let config = RetraSynConfig::new(1.0, 5)
            .with_lambda(10.0)
            .with_collection_threads(threads)
            .per_user_reports();
        let mut engine = RetraSyn::budget_division(config, grid.clone(), 17);
        let out = engine.run(&ds);
        engine.ledger().verify().expect("w-event invariant");
        out
    };
    let expect = run(1);
    assert_eq!(expect, run(1));
    assert_eq!(expect, run(2));
    assert_eq!(expect, run(4));
}

/// The pooled blocked round must put its 1s at the same positions (in
/// distribution) as the sequential reference kernel
/// (`Oue::perturb_tally_into`) — both sample the identical per-bit OUE
/// process from different random streams.
#[test]
fn pooled_blocked_counts_match_sequential_kernel_distribution() {
    let domain = 96;
    let oracle = Arc::new(Oue::new(1.0, domain).unwrap());
    let values = skewed_values(1200, domain);
    let mut pool = CollectionPool::new(4);
    let mut seq_hist = vec![0u64; domain];
    let mut blk_hist = vec![0u64; domain];
    let mut rng = StdRng::seed_from_u64(300);
    let mut ones = Vec::new();
    for round in 0..8u64 {
        for &v in &values {
            oracle.perturb_tally_into(v, &mut seq_hist, &mut rng).unwrap();
        }
        let ph = Philox::new(0x00de_fec8_0000_0000 | round);
        pool.collect_ones_blocked(&oracle, &values, &ph, &mut ones).unwrap();
        for (acc, &x) in blk_hist.iter_mut().zip(&ones) {
            *acc += x;
        }
    }
    let (sn, bn) = (seq_hist.iter().sum::<u64>(), blk_hist.iter().sum::<u64>());
    assert!(sn > 10_000 && bn > 10_000, "too few ones: {sn} vs {bn}");
    let (chi, dof) = two_sample_chi_square(&seq_hist, &blk_hist, sn, bn);
    assert!(
        chi < chi2_crit(dof),
        "pooled blocked counts diverge: chi={chi:.1} dof={dof} (crit {:.1})",
        chi2_crit(dof)
    );
}

/// Step `engine` through every timestamp of `ds`, then return its release
/// and the checkpoint taken just before it, after verifying the ledger.
fn run_with_checkpoint(
    mut engine: RetraSyn,
    ds: &retrasyn_geo::StreamDataset,
    grid: &Grid,
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

/// The acceptance pin of the single per-user kernel: released bytes *and*
/// checkpoint bytes are identical across `collection_threads ∈ {1, 2, 4}`
/// in both divisions, because a round's randomness is one addressed key,
/// not a sharded stream.
#[test]
fn blocked_engine_bit_identical_across_collection_threads() {
    let ds = walk_dataset(54);
    let grid = Grid::unit(5);
    for division in [Division::Budget, Division::Population] {
        let run = |threads: usize| {
            let config = RetraSynConfig::new(1.0, 5)
                .with_lambda(10.0)
                .with_collection_threads(threads)
                .per_user_reports();
            run_with_checkpoint(RetraSyn::new(config, grid.clone(), division, 42), &ds, &grid)
        };
        let (out, ckpt) = run(1);
        for threads in [2usize, 4] {
            let (out_t, ckpt_t) = run(threads);
            assert_eq!(out, out_t, "{division:?} threads={threads}: released bytes");
            assert_eq!(ckpt, ckpt_t, "{division:?} threads={threads}: checkpoint bytes");
        }
    }
}

/// `collection_threads` never changes the output, so it is left out of
/// the session fingerprint (a WAL logged at 4 collection threads recovers
/// at 1). Knobs that do shape the output — the report mode and the
/// synthesis thread count — still change it.
#[test]
fn fingerprint_ignores_collection_threads() {
    let grid = Grid::unit(4);
    let fp = |config: RetraSynConfig| {
        RetraSyn::population_division(config, grid.clone(), 7).fingerprint()
    };
    let base = || RetraSynConfig::new(1.0, 5).with_lambda(10.0).per_user_reports();
    let expect = fp(base());
    for threads in [2usize, 4] {
        assert_eq!(expect, fp(base().with_collection_threads(threads)), "threads={threads}");
    }
    assert_ne!(expect, fp(RetraSynConfig::new(1.0, 5).with_lambda(10.0)));
    assert_ne!(expect, fp(base().with_synthesis_threads(4)));
}

/// The per-user kernel must not distort what the engine learns: a pooled
/// per-user engine's released occupancy (summed over all timestamps) may
/// differ from the `Aggregate` engine's only by about as much as two
/// `Aggregate` runs with different seeds differ from each other —
/// self-calibrated, because within-run occupancy is correlated and a raw
/// two-sample chi-square bound would reject even seed-to-seed noise.
#[test]
fn pooled_engine_releases_similar_occupancy() {
    let ds = walk_dataset(53);
    let grid = Grid::unit(4);
    let occupancy = |per_user: bool, seed: u64| {
        let mut config = RetraSynConfig::new(2.0, 5).with_lambda(10.0);
        if per_user {
            config = config.per_user_reports().with_collection_threads(4);
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
    // Test statistic: aggregate vs pooled per-user at the same seed.
    let per_user = occupancy(true, 7);
    let (chi_test, _) = chi_of(&agg_a, &per_user);
    assert!(
        chi_test < 3.0 * chi_null.max(chi2_crit(dof)),
        "per-user occupancy diverges: chi={chi_test:.1} vs null chi={chi_null:.1} dof={dof}"
    );
}
