//! Table IV — impact of significant-transition selection (AllUpdate) and
//! entering/quitting events (NoEQ), at the default ε = 1.
//!
//! Usage: `cargo run -p retrasyn-bench --release --bin table4 -- --scale 0.05`

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

    println!(
        "# Table IV — ablations (eps={}, w={}, K={}, scale={})",
        params.eps, params.w, params.k, params.scale
    );
    for kind in datasets {
        let ds = kind.generate(params.scale, params.seed);
        let orig = ds.discretize(&UniformGrid::unit(params.k));
        let suite = SuiteConfig {
            phi: params.phi,
            num_queries: params.workload,
            num_ranges: params.workload,
            seed: params.seed,
            ..Default::default()
        };
        let cells: Vec<Cell> = MethodSpec::table4()
            .into_iter()
            .map(|spec| Cell {
                label: spec.name(),
                spec,
                eps: params.eps,
                w: params.w,
                seed: params.seed,
            })
            .collect();
        let results = runner::run_cells(&cells, &orig, &suite, workers);
        print!("{}", output::metric_table(kind.name(), &results));
        output::maybe_write_csv(&args, &format!("table4_{}", kind.name()), &results);
    }
}
