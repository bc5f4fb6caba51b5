//! Figure 3 — impact of the allocation strategy (Adaptive / Uniform /
//! Sample, both divisions) on query error, transition error and Kendall
//! tau, for T-Drive and Oldenburg.
//!
//! Usage: `cargo run -p retrasyn-bench --release --bin fig3 -- --scale 0.05`

use retrasyn_bench::{output, runner, Args, Cell, DatasetKind, MethodSpec, Params};
use retrasyn_core::{AllocationKind, Division};
use retrasyn_geo::UniformGrid;
use retrasyn_metrics::SuiteConfig;

fn main() {
    let args = Args::from_env();
    let params = Params::from_args(&args);
    let workers = runner::default_workers(&args);
    println!(
        "# Figure 3 — allocation strategies (eps={}, w={}, scale={})",
        params.eps, params.w, params.scale
    );
    let strategies = [
        (AllocationKind::Adaptive, Division::Budget),
        (AllocationKind::Adaptive, Division::Population),
        (AllocationKind::Uniform, Division::Budget),
        (AllocationKind::Uniform, Division::Population),
        (AllocationKind::Sample, Division::Population),
        (AllocationKind::RandomReport, Division::Population),
    ];
    for kind in [DatasetKind::TDrive, DatasetKind::Oldenburg] {
        let ds = kind.generate(params.scale, params.seed);
        let orig = ds.discretize(&UniformGrid::unit(params.k));
        let suite = SuiteConfig {
            phi: params.phi,
            num_queries: params.workload,
            num_ranges: params.workload,
            seed: params.seed,
            ..Default::default()
        };
        let cells: Vec<Cell> = strategies
            .iter()
            .map(|&(allocation, division)| {
                let spec = MethodSpec::retrasyn_with(division, allocation);
                Cell { label: spec.name(), spec, eps: params.eps, w: params.w, seed: params.seed }
            })
            .collect();
        let results = runner::run_cells(&cells, &orig, &suite, workers);
        // The figure reports three metrics; the full table is printed for
        // completeness (Query Error, Transition Error, Kendall Tau are the
        // figure's panels).
        print!("{}", output::metric_table(kind.name(), &results));
        output::maybe_write_csv(&args, &format!("fig3_{}", kind.name()), &results);
    }
}
