//! Persist a private release to disk, reload it, and run downstream
//! analytics — demonstrating that the synthetic database is a durable,
//! reusable artifact: every analysis below is post-processing (Theorem 2)
//! and costs no additional privacy budget.
//!
//! ```sh
//! cargo run --release --example release_analytics
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn::geo::io;
use retrasyn::metrics::analytics;
use retrasyn::prelude::*;

fn main() {
    // Produce a private release of a day of taxi traffic.
    let mut rng = StdRng::seed_from_u64(31);
    let dataset =
        TDriveConfig { taxis: 900, timestamps: 144, ..Default::default() }.generate(&mut rng);
    let grid = UniformGrid::unit(6);
    let orig = dataset.discretize(&grid);
    let config = RetraSynConfig::new(1.0, 20).with_lambda(orig.avg_length());
    let mut engine = RetraSyn::population_division(config, grid.clone(), 8);
    let release = engine.run_gridded(&orig);
    engine.ledger().verify().expect("w-event accounting");

    // Persist and reload (simple text format, no extra dependencies).
    let path = std::env::temp_dir().join("retrasyn_release.txt");
    io::save_gridded(&release, &path).expect("save release");
    let reloaded = io::load_gridded(&path).expect("load release");
    println!(
        "release: {} streams, {} bytes at {}",
        reloaded.num_streams(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        path.display()
    );

    // Downstream analytics on the reloaded release — all privacy-free.
    let top = analytics::top_k_trips(&reloaded, 3);
    println!("\ntop trips (start cell -> end cell: count):");
    for ((a, b), count) in top {
        println!("  cell{:<3} -> cell{:<3}: {count}", a.0, b.0);
    }

    let centre: Vec<_> =
        [(2, 2), (3, 2), (2, 3), (3, 3)].iter().map(|&(x, y)| grid.cell_at(x, y)).collect();
    let suburb: Vec<_> =
        [(0, 4), (1, 4), (0, 5), (1, 5)].iter().map(|&(x, y)| grid.cell_at(x, y)).collect();
    let inbound = analytics::flow_series(&reloaded, &suburb, &centre);
    let peak = inbound.iter().enumerate().max_by_key(|&(_, c)| *c).unwrap();
    println!("\nsuburb -> centre commuter flow peaks at t={} ({} moves)", peak.0, peak.1);

    println!("mean dwell time: {:.2} timestamps", analytics::mean_dwell_time(&reloaded));
    let rg = analytics::radius_of_gyration(&reloaded);
    let mean_rg = rg.iter().sum::<f64>() / rg.len().max(1) as f64;
    println!("mean radius of gyration: {mean_rg:.4}");

    let profile = analytics::periodic_occupancy(&reloaded, &centre, 12);
    println!("\ncentre occupancy by 2h-of-day slot: {profile:.1?}");

    std::fs::remove_file(&path).ok();
}
