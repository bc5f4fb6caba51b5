//! Figure 5 — impact of the evaluation time range φ ∈ {5..100} on query
//! error, pattern F1 and hotspot NDCG (T-Drive and Oldenburg).
//!
//! Usage: `cargo run -p retrasyn-bench --release --bin fig5 -- --scale 0.05`

use retrasyn_bench::{output, runner, Args, DatasetKind, MethodSpec, Params};
use retrasyn_geo::UniformGrid;
use retrasyn_metrics::SuiteConfig;

fn main() {
    let args = Args::from_env();
    let params = Params::from_args(&args);
    let workers = runner::default_workers(&args);
    println!(
        "# Figure 5 — evaluation range sweep (eps={}, w={}, scale={})",
        params.eps, params.w, params.scale
    );
    let methods = MethodSpec::table3();
    let series: Vec<String> = methods.iter().map(|m| m.name()).collect();
    let points: Vec<String> = Params::PHI_RANGE.iter().map(|p| p.to_string()).collect();
    for kind in [DatasetKind::TDrive, DatasetKind::Oldenburg] {
        let ds = kind.generate(params.scale, params.seed);
        let orig = ds.discretize(&UniformGrid::unit(params.k));
        // The synthetic databases do not depend on φ, so run each method
        // once and evaluate under every φ.
        let runs: Vec<(String, retrasyn_geo::GriddedDataset)> = methods
            .iter()
            .map(|&spec| {
                let (syn, _) = spec.run(&orig, params.eps, params.w, params.seed);
                (spec.name(), syn)
            })
            .collect();
        let mut query = vec![vec![0.0; points.len()]; series.len()];
        let mut pattern = vec![vec![0.0; points.len()]; series.len()];
        let mut hotspot = vec![vec![0.0; points.len()]; series.len()];
        for (pi, &phi) in Params::PHI_RANGE.iter().enumerate() {
            let suite = SuiteConfig {
                phi,
                num_queries: params.workload,
                num_ranges: params.workload,
                seed: params.seed,
                ..Default::default()
            };
            let cells: Vec<runner::CellResult> = runs
                .iter()
                .map(|(label, syn)| runner::CellResult {
                    label: label.clone(),
                    report: retrasyn_metrics::MetricSuite::new(suite.clone()).evaluate(&orig, syn),
                    timings: None,
                    run_seconds: 0.0,
                })
                .collect();
            for (mi, r) in cells.iter().enumerate() {
                query[mi][pi] = r.report.query_error;
                pattern[mi][pi] = r.report.pattern_f1;
                hotspot[mi][pi] = r.report.hotspot_ndcg;
            }
            output::maybe_write_csv(&args, &format!("fig5_{}_phi{phi}", kind.name()), &cells);
            let _ = workers; // evaluation is cheap; runs were sequential above
        }
        print!(
            "{}",
            output::sweep_table(
                &format!("{} — Query Error vs phi", kind.name()),
                "phi",
                &series,
                &points,
                &query
            )
        );
        print!(
            "{}",
            output::sweep_table(
                &format!("{} — Pattern F1 vs phi", kind.name()),
                "phi",
                &series,
                &points,
                &pattern
            )
        );
        print!(
            "{}",
            output::sweep_table(
                &format!("{} — Hotspot NDCG vs phi", kind.name()),
                "phi",
                &series,
                &points,
                &hotspot
            )
        );
    }
}
