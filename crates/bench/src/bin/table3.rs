//! Table III — overall utility of all six methods across privacy budgets
//! and datasets.
//!
//! Usage:
//! `cargo run -p retrasyn-bench --release --bin table3 -- --scale 0.05 [--dataset t-drive] [--eps-sweep]`
//!
//! By default sweeps ε ∈ {0.5, 1.0, 1.5, 2.0} on all three datasets; a
//! single dataset can be selected with `--dataset`.

use retrasyn_bench::{output, runner, Args, Cell, DatasetKind, MethodSpec, Params};
use retrasyn_geo::UniformGrid;
use retrasyn_metrics::SuiteConfig;

fn main() {
    let args = Args::from_env();
    let params = Params::from_args(&args);
    let workers = runner::default_workers(&args);
    let datasets: Vec<DatasetKind> = match args.get("dataset") {
        Some(name) => vec![DatasetKind::parse(name).expect("unknown dataset")],
        None => DatasetKind::ALL.to_vec(),
    };
    let eps_values: Vec<f64> = match args.get("eps") {
        Some(v) => vec![v.parse().expect("bad --eps")],
        None => Params::EPS_RANGE.to_vec(),
    };

    println!(
        "# Table III — overall utility (scale={}, w={}, K={}, phi={})",
        params.scale, params.w, params.k, params.phi
    );
    for kind in datasets {
        let ds = kind.generate(params.scale, params.seed);
        let grid = UniformGrid::unit(params.k);
        let orig = ds.discretize(&grid);
        let suite = SuiteConfig {
            phi: params.phi,
            num_queries: params.workload,
            num_ranges: params.workload,
            seed: params.seed,
            ..Default::default()
        };
        for &eps in &eps_values {
            let cells: Vec<Cell> = MethodSpec::table3()
                .into_iter()
                .map(|spec| Cell { label: spec.name(), spec, eps, w: params.w, seed: params.seed })
                .collect();
            let results = runner::run_cells(&cells, &orig, &suite, workers);
            print!("{}", output::metric_table(&format!("{} — eps = {eps}", kind.name()), &results));
            output::maybe_write_csv(&args, &format!("table3_{}_eps{eps}", kind.name()), &results);
        }
    }
}
