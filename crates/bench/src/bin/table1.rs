//! Table I — dataset statistics (size, #points, average length,
//! timestamps) for the three generated datasets.
//!
//! Usage: `cargo run -p retrasyn-bench --release --bin table1 -- --scale 0.05`

use retrasyn_bench::{Args, DatasetKind, Params};

fn main() {
    let args = Args::from_env();
    let params = Params::from_args(&args);
    println!("# Table I — dataset statistics (scale = {})", params.scale);
    println!();
    println!("| Dataset | Size | # of Points | Average Length | Timestamps |");
    println!("|---|---:|---:|---:|---:|");
    for kind in DatasetKind::ALL {
        let ds = kind.generate(params.scale, params.seed);
        let stats = ds.stats();
        println!(
            "| {} | {} | {} | {:.2} | {} |",
            kind.name(),
            stats.streams,
            stats.points,
            stats.avg_length,
            stats.timestamps
        );
    }
    println!();
    println!(
        "Paper (scale 1.0): T-Drive 232,640 / 3,167,316 / 13.61 / 886; \
         Oldenburg 260,000 / 15,597,242 / 59.98 / 500; \
         SanJoaquin 1,010,000 / 55,854,936 / 55.30 / 1,000."
    );
}
