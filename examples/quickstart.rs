//! Quickstart: private real-time synthesis of a small trajectory stream.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a random-walk stream, runs RetraSyn with population division
//! under w-event LDP, verifies the privacy ledger, and prints utility
//! metrics of the released synthetic database.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn::prelude::*;

fn main() {
    // 1. A workload: 500 users walking for 60 timestamps with churn.
    let mut rng = StdRng::seed_from_u64(7);
    let dataset =
        RandomWalkConfig { users: 500, timestamps: 60, ..Default::default() }.generate(&mut rng);
    let grid = UniformGrid::unit(6);
    let stats = dataset.stats();
    println!("original : {stats}");

    // 2. Configure RetraSyn: eps = 1 over any window of w = 10 timestamps.
    let config = RetraSynConfig::new(1.0, 10).with_lambda(stats.avg_length);

    // 3. Run the private streaming pipeline end to end.
    let mut engine = RetraSyn::population_division(config, grid.clone(), 42);
    let synthetic = engine.run(&dataset);
    println!("synthetic: {}", synthetic.stats());

    // 4. The accounting ledger proves the w-event guarantee held.
    engine.ledger().verify().expect("w-event eps-LDP accounting");
    println!(
        "privacy  : w-event {}-LDP verified over {} user reports",
        engine.ledger().eps_total(),
        engine.ledger().total_user_reports()
    );

    // 5. Evaluate the release against the original stream.
    let suite = MetricSuite::new(SuiteConfig { phi: 10, ..Default::default() });
    let orig = dataset.discretize(&grid);
    let report = suite.evaluate(&orig, &synthetic);
    println!("utility  : {report}");
}
