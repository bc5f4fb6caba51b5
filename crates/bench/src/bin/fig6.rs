//! Figure 6 — impact of the discretization granularity K ∈ {2..18}:
//! query error (utility) and average runtime per timestamp, for both
//! RetraSyn divisions.
//!
//! Usage: `cargo run -p retrasyn-bench --release --bin fig6 -- --scale 0.05`

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_bench::{output, Args, DatasetKind, MethodSpec, Params};
use retrasyn_core::Division;
use retrasyn_geo::{BoundingBox, UniformGrid};
use retrasyn_metrics::query;

fn main() {
    let args = Args::from_env();
    let params = Params::from_args(&args);
    println!(
        "# Figure 6 — granularity sweep (eps={}, w={}, scale={})",
        params.eps, params.w, params.scale
    );
    println!(
        "\nQuery error uses *continuous-space* queries against the raw \
         stream (the LDPTrace convention the paper follows), so both the \
         coarse-grid localization loss and the fine-grid noise loss are \
         visible."
    );
    let points: Vec<String> = Params::K_RANGE.iter().map(|k| k.to_string()).collect();
    for division in [Division::Budget, Division::Population] {
        let spec = MethodSpec::retrasyn(division);
        println!("\n## {}", spec.name());
        for kind in DatasetKind::ALL {
            let ds = kind.generate(params.scale, params.seed);
            let mut qrng = StdRng::seed_from_u64(params.seed);
            let queries = query::gen_continuous_queries(
                &BoundingBox::unit(),
                ds.horizon(),
                params.phi,
                params.workload,
                &mut qrng,
            );
            let mut query_row = Vec::with_capacity(points.len());
            let mut runtime_row = Vec::with_capacity(points.len());
            for &k in &Params::K_RANGE {
                // Re-discretize the same raw data at each granularity.
                let orig = ds.discretize(&UniformGrid::unit(k));
                let start = std::time::Instant::now();
                let (syn, _) = spec.run(&orig, params.eps, params.w, params.seed);
                let elapsed = start.elapsed().as_secs_f64();
                query_row.push(query::continuous_query_error(&ds, &syn, &queries, 0.001));
                runtime_row.push(elapsed / orig.horizon().max(1) as f64);
            }
            print!(
                "{}",
                output::sweep_table(
                    &format!("{} — Query Error vs K", kind.name()),
                    "K",
                    &[spec.name()],
                    &points,
                    &[query_row]
                )
            );
            print!(
                "{}",
                output::sweep_table(
                    &format!("{} — Avg runtime (s/ts) vs K", kind.name()),
                    "K",
                    &[spec.name()],
                    &points,
                    &[runtime_row]
                )
            );
        }
    }
}
