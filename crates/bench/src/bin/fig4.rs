//! Figure 4 — impact of window size w ∈ {10..50} on transition error,
//! query error and trip error (T-Drive and Oldenburg), all six methods.
//!
//! Usage: `cargo run -p retrasyn-bench --release --bin fig4 -- --scale 0.05`

use retrasyn_bench::{output, runner, Args, Cell, DatasetKind, MethodSpec, Params};
use retrasyn_geo::UniformGrid;
use retrasyn_metrics::SuiteConfig;

fn main() {
    let args = Args::from_env();
    let params = Params::from_args(&args);
    let workers = runner::default_workers(&args);
    println!("# Figure 4 — window size sweep (eps={}, scale={})", params.eps, params.scale);
    let methods = MethodSpec::table3();
    let series: Vec<String> = methods.iter().map(|m| m.name()).collect();
    let points: Vec<String> = Params::W_RANGE.iter().map(|w| w.to_string()).collect();
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
        // metric index: 1 = query_error, 3 = transition_error, 6 = trip_error
        let mut transition = vec![vec![0.0; points.len()]; series.len()];
        let mut query = vec![vec![0.0; points.len()]; series.len()];
        let mut trip = vec![vec![0.0; points.len()]; series.len()];
        for (wi, &w) in Params::W_RANGE.iter().enumerate() {
            let cells: Vec<Cell> = methods
                .iter()
                .map(|&spec| Cell {
                    label: spec.name(),
                    spec,
                    eps: params.eps,
                    w,
                    seed: params.seed,
                })
                .collect();
            let results = runner::run_cells(&cells, &orig, &suite, workers);
            for (mi, r) in results.iter().enumerate() {
                transition[mi][wi] = r.report.transition_error;
                query[mi][wi] = r.report.query_error;
                trip[mi][wi] = r.report.trip_error;
            }
            output::maybe_write_csv(&args, &format!("fig4_{}_w{w}", kind.name()), &results);
        }
        print!(
            "{}",
            output::sweep_table(
                &format!("{} — Transition Error vs w", kind.name()),
                "w",
                &series,
                &points,
                &transition
            )
        );
        print!(
            "{}",
            output::sweep_table(
                &format!("{} — Query Error vs w", kind.name()),
                "w",
                &series,
                &points,
                &query
            )
        );
        print!(
            "{}",
            output::sweep_table(
                &format!("{} — Trip Error vs w", kind.name()),
                "w",
                &series,
                &points,
                &trip
            )
        );
    }
}
