//! Historical data release on network-constrained traffic — comparing
//! RetraSyn with an LDP-IDS baseline on the trajectory-level metrics that
//! only a synthesis framework with enter/quit modelling can preserve
//! (paper §V-B "Historical Metrics" and Table III's bottom rows).
//!
//! ```sh
//! cargo run --release --example historical_release
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn::core::BaselineKind;
use retrasyn::metrics::{kendall, length, trip};
use retrasyn::prelude::*;

fn main() {
    // Brinkhoff-style network traffic (a small Oldenburg).
    let mut rng = StdRng::seed_from_u64(3);
    let dataset = BrinkhoffConfig {
        initial_objects: 800,
        new_per_ts: 40,
        timestamps: 120,
        ..Default::default()
    }
    .generate(&mut rng);
    let grid = UniformGrid::unit(6);
    let orig = dataset.discretize(&grid);
    println!("original: {}", orig.stats());

    // RetraSyn with population division.
    let config = RetraSynConfig::new(1.0, 20).with_lambda(orig.avg_length());
    let mut engine = RetraSyn::population_division(config, grid.clone(), 17);
    let retrasyn_release = engine.run_gridded(&orig);
    engine.ledger().verify().expect("w-event accounting");

    // LDP-IDS (LPA) with the same budget, adapted as in the paper.
    let mut baseline = LdpIds::new(BaselineKind::Lpa, LdpIdsConfig::new(1.0, 20), grid, 17);
    let baseline_release = baseline.run_gridded(&orig);
    baseline.ledger().verify().expect("baseline accounting");

    println!("\ntrajectory-level utility (entire traces, not slices):");
    println!("{:<14} {:>10} {:>10} {:>12}", "method", "kendall", "trip_err", "length_err");
    for (name, syn) in [("RetraSynp", &retrasyn_release), ("LPA", &baseline_release)] {
        println!(
            "{:<14} {:>10.4} {:>10.4} {:>12.4}",
            name,
            kendall::kendall_tau(&orig, syn),
            trip::trip_error(&orig, syn),
            length::length_error(&orig, syn, 20),
        );
    }
    println!(
        "\nNote the baseline's length error ≈ ln 2 = 0.6931: without \
         quitting events its synthetic trajectories never terminate, so the \
         travel-distance distributions have disjoint support (Table III)."
    );
}
