//! Table V — component efficiency of RetraSyn_p: average per-timestamp
//! microseconds for user-side computation, mobility model construction,
//! DMU and real-time synthesis, each to at least three significant digits.
//!
//! Usage: `cargo run -p retrasyn-bench --release --bin table5 -- --scale 0.05`

use retrasyn_bench::output::micros;
use retrasyn_bench::{Args, DatasetKind, MethodSpec, Params};
use retrasyn_core::Division;
use retrasyn_geo::UniformGrid;

fn main() {
    let args = Args::from_env();
    let params = Params::from_args(&args);
    println!(
        "# Table V — component efficiency of RetraSynp (µs per timestamp, scale={}, K={})",
        params.scale, params.k
    );
    println!();
    println!("| Procedure | T-Drive | Oldenburg | SanJoaquin |");
    println!("|---|---:|---:|---:|");
    let mut rows: Vec<[f64; 3]> = vec![[0.0; 3]; 5];
    for (col, kind) in DatasetKind::ALL.iter().enumerate() {
        let ds = kind.generate(params.scale, params.seed);
        let orig = ds.discretize(&UniformGrid::unit(params.k));
        let spec = MethodSpec::retrasyn(Division::Population);
        let (_syn, timings) = spec.run(&orig, params.eps, params.w, params.seed);
        let t = timings.expect("RetraSyn reports timings");
        rows[0][col] = t.user_side;
        rows[1][col] = t.model_construction;
        rows[2][col] = t.dmu;
        rows[3][col] = t.synthesis;
        rows[4][col] = t.total;
    }
    let names = [
        "User-side Computation",
        "Mobility Model Construction",
        "Dynamic Mobility Update",
        "Real-time Synthesis",
        "Total",
    ];
    for (name, row) in names.iter().zip(&rows) {
        println!("| {} | {} | {} | {} |", name, micros(row[0]), micros(row[1]), micros(row[2]));
    }
    println!();
    println!(
        "Paper (full scale): totals 185100 / 1652300 / 2955800 µs (0.1851 / 1.6523 / 2.9558 s) \
         with synthesis dominating."
    );
}
