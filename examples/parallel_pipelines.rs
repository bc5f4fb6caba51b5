//! Parallel pipelines: sharded LDP collection + sharded synthesis.
//!
//! ```sh
//! cargo run --release --example parallel_pipelines
//! ```
//!
//! Runs the same private stream with the worker pools off and on
//! (`collection_threads` shards the per-user OUE round,
//! `synthesis_threads` shards the synthesis step) and demonstrates the
//! determinism contract. The per-user collection kernel addresses every
//! draw by (key, reporter row, position), so its output is bit-identical
//! *across* collection thread counts. Sharded synthesis consumes one seed
//! per shard, so a fixed `(seed, synthesis_threads)` pair is bit-identical
//! run to run while the pooled stream diverges from the sequential one.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn::prelude::*;

fn run(
    dataset: &StreamDataset,
    grid: &Grid,
    collection_threads: usize,
    synthesis_threads: usize,
) -> retrasyn::geo::GriddedDataset {
    // Exact per-user reports so the per-user collection kernel (not the
    // aggregate binomial shortcut) is what the collection pool shards.
    let config = RetraSynConfig::new(1.0, 10)
        .with_lambda(15.0)
        .per_user_reports()
        .with_collection_threads(collection_threads)
        .with_synthesis_threads(synthesis_threads);
    let mut engine = RetraSyn::population_division(config, grid.clone(), 42);
    let synthetic = engine.run(dataset);
    engine.ledger().verify().expect("w-event LDP accounting holds");
    let report = engine.timing_report();
    println!(
        "collection_threads={collection_threads} synthesis_threads={synthesis_threads}: \
         streams={} user_side={:.4}ms/ts synthesis={:.4}ms/ts",
        synthetic.num_streams(),
        1e3 * report.user_side,
        1e3 * report.synthesis,
    );
    synthetic
}

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let dataset =
        RandomWalkConfig { users: 3000, timestamps: 40, ..Default::default() }.generate(&mut rng);
    let grid = Grid::unit(8);

    let sequential = run(&dataset, &grid, 1, 1);
    let collection_pooled = run(&dataset, &grid, 4, 1);
    assert!(
        sequential.iter().eq(collection_pooled.iter()),
        "collection must be bit-identical across collection thread counts"
    );
    println!("invariance : 1 and 4 collection threads are bit-identical");

    let pooled = run(&dataset, &grid, 4, 4);
    let pooled_again = run(&dataset, &grid, 4, 4);
    assert!(pooled.iter().eq(pooled_again.iter()), "fixed (seed, threads) must be bit-identical");
    println!("determinism: threads=4 reruns are bit-identical");
    assert!(
        !sequential.iter().eq(pooled.iter()),
        "the pooled synthesis stream should diverge from the sequential one"
    );
    println!("divergence : pooled synthesis stream differs from sequential (pool engaged)");
}
