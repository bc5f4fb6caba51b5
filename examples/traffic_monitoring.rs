//! Streaming traffic monitoring on taxi-like data — the paper's motivating
//! application (§I: "trajectory streams continuously generated by vehicles
//! can be used to monitor the dynamic traffic flow").
//!
//! ```sh
//! cargo run --release --example traffic_monitoring
//! ```
//!
//! Drives the engine through the streaming session API (the deployment
//! pattern: the curator does not see the future): a [`TimelineSource`]
//! feeds one event batch per timestamp, and between steps the borrowed
//! zero-copy `snapshot()` answers live queries **from the synthetic
//! database only** — the current hotspot ranking, the populations of two
//! monitored districts, and a live occupancy-divergence monitor. Thanks
//! to post-processing (Theorem 2), all of it is free of any additional
//! privacy cost.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn::metrics::live;
use retrasyn::prelude::*;

fn main() {
    // Taxi-like stream: hotspots + rush hours + GPS dropout.
    let mut rng = StdRng::seed_from_u64(11);
    let dataset =
        TDriveConfig { taxis: 1200, timestamps: 144, ..Default::default() }.generate(&mut rng);
    let grid = UniformGrid::unit(6);
    let gridded = dataset.discretize(&grid);
    println!("monitoring {} streams over one simulated day", gridded.stats().streams);

    let config = RetraSynConfig::new(1.0, 20).with_lambda(gridded.avg_length());
    let mut engine = RetraSyn::population_division(config, grid.clone(), 99);

    // Two monitored districts: city centre and north-west suburb.
    let centre = grid.cell_at(3, 3);
    let suburb = grid.cell_at(1, 4);

    // Reused scratch for the allocation-free monitoring loop.
    let (mut occ, mut weights) = (Vec::new(), Vec::new());

    let mut source = TimelineSource::from_gridded(&gridded);
    while let Some(batch) = source.next_batch() {
        let t = engine.next_timestamp();
        let outcome = engine.step(t, batch);
        // Report every 2 simulated hours.
        if !t.is_multiple_of(12) {
            continue;
        }
        // The per-timestamp release: a borrowed view over the live head
        // columns — no copies, no extra budget.
        let snapshot = engine.snapshot();
        let real = gridded.snapshot_counts(t);
        let jsd = live::occupancy_jsd_into(&real, &snapshot, &mut occ, &mut weights);
        // `occ` now holds the snapshot's per-cell occupancy.
        let top = occ.iter().enumerate().max_by_key(|&(_, c)| *c).map(|(i, c)| (i, *c)).unwrap();
        println!(
            "t={t:3}  active={:5}  hotspot=cell{:<3} ({:4} taxis)  centre={:4}  suburb={:4}  live-JSD={jsd:.3}",
            outcome.active,
            top.0,
            top.1,
            live::region_population(&snapshot, &[centre]),
            live::region_population(&snapshot, &[suburb]),
        );
    }

    // Release everything synthesized so far; the engine survives (a loud
    // panic guards accidental reuse, `reset()` begins the next session).
    let released = engine.release();
    engine.ledger().verify().expect("w-event accounting");
    println!(
        "\nreleased {} synthetic streams over {} timestamps",
        released.num_streams(),
        released.horizon()
    );
    println!("w-event LDP verified; timings: {}", engine.timing_report());
}
