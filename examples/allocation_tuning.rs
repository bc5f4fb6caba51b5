//! Choosing an allocation strategy (paper §III-E and Fig. 3): Adaptive vs
//! Uniform vs Sample vs one-random-report-per-window, on a stream whose
//! dynamics shift abruptly halfway through.
//!
//! ```sh
//! cargo run --release --example allocation_tuning
//! ```
//!
//! The regime-shift workload is exactly the situation the adaptive
//! allocator targets: spending evenly wastes budget while the stream is
//! static and under-spends right after the shift.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn::core::AllocationKind;
use retrasyn::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(23);
    let dataset = RegimeShiftConfig { users: 1200, timestamps: 80, shift_at: 40, step: 0.05 }
        .generate(&mut rng);
    let grid = UniformGrid::unit(6);
    let orig = dataset.discretize(&grid);
    println!("regime-shift stream: {}", orig.stats());
    println!("(flow flips from eastward to southward at t = 40)\n");

    let suite = MetricSuite::new(SuiteConfig { phi: 10, ..Default::default() });
    println!(
        "{:<14} {:>14} {:>14} {:>12}",
        "allocation", "density_err", "transition_err", "kendall"
    );
    for kind in [
        AllocationKind::Adaptive,
        AllocationKind::Uniform,
        AllocationKind::Sample,
        AllocationKind::RandomReport,
    ] {
        let config =
            RetraSynConfig::new(1.0, 10).with_lambda(orig.avg_length()).with_allocation(kind);
        let mut engine = RetraSyn::population_division(config, grid.clone(), 5);
        let syn = engine.run_gridded(&orig);
        engine.ledger().verify().expect("w-event accounting");
        let r = suite.evaluate(&orig, &syn);
        println!(
            "{:<14} {:>14.4} {:>14.4} {:>12.4}",
            format!("{kind:?}"),
            r.density_error,
            r.transition_error,
            r.kendall_tau
        );
    }
}
