//! Figure 7 — scalability: average runtime per timestamp as the dataset
//! size grows from 20% to 100% (of the configured scale), for both
//! RetraSyn divisions.
//!
//! Usage: `cargo run -p retrasyn-bench --release --bin fig7 -- --scale 0.05`

use retrasyn_bench::{output, Args, DatasetKind, MethodSpec, Params};
use retrasyn_core::Division;
use retrasyn_geo::UniformGrid;

fn main() {
    let args = Args::from_env();
    let params = Params::from_args(&args);
    println!(
        "# Figure 7 — scalability (eps={}, w={}, base scale={})",
        params.eps, params.w, params.scale
    );
    let points: Vec<String> =
        Params::SIZE_RANGE.iter().map(|f| format!("{:.0}%", f * 100.0)).collect();
    for kind in DatasetKind::ALL {
        let ds = kind.generate(params.scale, params.seed);
        let grid = UniformGrid::unit(params.k);
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut series: Vec<String> = Vec::new();
        for division in [Division::Budget, Division::Population] {
            let spec = MethodSpec::retrasyn(division);
            let mut row = Vec::with_capacity(points.len());
            for &fraction in &Params::SIZE_RANGE {
                let sub = ds.subsample(fraction);
                let orig = sub.discretize(&grid);
                let start = std::time::Instant::now();
                let (_syn, _) = spec.run(&orig, params.eps, params.w, params.seed);
                row.push(start.elapsed().as_secs_f64() / orig.horizon().max(1) as f64);
            }
            series.push(spec.name());
            rows.push(row);
        }
        print!(
            "{}",
            output::sweep_table(
                &format!("{} — Avg runtime (s/ts) vs dataset size", kind.name()),
                "size",
                &series,
                &points,
                &rows
            )
        );
    }
}
