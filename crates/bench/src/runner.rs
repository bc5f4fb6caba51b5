//! Experiment execution: run a method on a dataset, evaluate the metric
//! suite, and fan cells out over a small thread pool.

use crate::methods::MethodSpec;
use retrasyn_core::TimingReport;
use retrasyn_geo::GriddedDataset;
use retrasyn_metrics::{MetricReport, MetricSuite, SuiteConfig};

/// One experiment cell: a method at a parameter point.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Row/series label shown in the output table.
    pub label: String,
    /// The method to run.
    pub spec: MethodSpec,
    /// Privacy budget ε.
    pub eps: f64,
    /// Window size w.
    pub w: usize,
    /// Mechanism seed.
    pub seed: u64,
}

/// The outcome of one cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell's label.
    pub label: String,
    /// All eight utility metrics.
    pub report: MetricReport,
    /// Component timings (RetraSyn only).
    pub timings: Option<TimingReport>,
    /// Wall-clock seconds for the streaming run (excludes evaluation).
    pub run_seconds: f64,
}

/// Run one method and evaluate the full suite against the original data.
pub fn evaluate_method(
    spec: MethodSpec,
    orig: &GriddedDataset,
    eps: f64,
    w: usize,
    seed: u64,
    suite: &SuiteConfig,
) -> (MetricReport, Option<TimingReport>, f64) {
    let start = std::time::Instant::now();
    let (syn, timings) = spec.run(orig, eps, w, seed);
    let run_seconds = start.elapsed().as_secs_f64();
    let report = MetricSuite::new(suite.clone()).evaluate(orig, &syn);
    (report, timings, run_seconds)
}

/// Run a batch of cells against a shared original dataset using `workers`
/// threads (order of results matches the input order).
pub fn run_cells(
    cells: &[Cell],
    orig: &GriddedDataset,
    suite: &SuiteConfig,
    workers: usize,
) -> Vec<CellResult> {
    let workers = workers.max(1);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<CellResult>>> =
        cells.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let cell = &cells[i];
                let (report, timings, run_seconds) =
                    evaluate_method(cell.spec, orig, cell.eps, cell.w, cell.seed, suite);
                *results[i].lock().unwrap() =
                    Some(CellResult { label: cell.label.clone(), report, timings, run_seconds });
            });
        }
    });
    results.into_iter().map(|m| m.into_inner().unwrap().expect("cell executed")).collect()
}

/// Number of worker threads to use (`--workers` flag, default: available
/// parallelism).
pub fn default_workers(args: &crate::cli::Args) -> usize {
    args.get_usize("workers", std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use retrasyn_core::Division;
    use retrasyn_datagen::RandomWalkConfig;
    use retrasyn_geo::UniformGrid;

    fn tiny() -> GriddedDataset {
        let ds = RandomWalkConfig { users: 60, timestamps: 12, ..Default::default() }
            .generate(&mut StdRng::seed_from_u64(2));
        ds.discretize(&UniformGrid::unit(4))
    }

    fn suite() -> SuiteConfig {
        SuiteConfig { phi: 4, num_queries: 10, num_ranges: 10, ..Default::default() }
    }

    #[test]
    fn evaluate_method_produces_sane_metrics() {
        let orig = tiny();
        let (report, timings, secs) =
            evaluate_method(MethodSpec::retrasyn(Division::Population), &orig, 1.0, 4, 1, &suite());
        assert!(secs > 0.0);
        assert!(timings.is_some());
        assert!(report.density_error.is_finite());
        assert!((0.0..=1.0).contains(&report.hotspot_ndcg));
        assert!((-1.0..=1.0).contains(&report.kendall_tau));
    }

    #[test]
    fn run_cells_preserves_order_and_parallelizes() {
        let orig = tiny();
        let cells: Vec<Cell> = MethodSpec::table3()
            .into_iter()
            .map(|spec| Cell { label: spec.name(), spec, eps: 1.0, w: 4, seed: 1 })
            .collect();
        let results = run_cells(&cells, &orig, &suite(), 2);
        assert_eq!(results.len(), 6);
        for (cell, result) in cells.iter().zip(&results) {
            assert_eq!(cell.label, result.label);
        }
    }

    #[test]
    fn run_cells_deterministic_across_worker_counts() {
        let orig = tiny();
        let cells: Vec<Cell> = vec![
            Cell {
                label: "a".into(),
                spec: MethodSpec::retrasyn(Division::Budget),
                eps: 1.0,
                w: 4,
                seed: 9,
            },
            Cell {
                label: "b".into(),
                spec: MethodSpec::retrasyn(Division::Population),
                eps: 1.0,
                w: 4,
                seed: 9,
            },
        ];
        let r1 = run_cells(&cells, &orig, &suite(), 1);
        let r2 = run_cells(&cells, &orig, &suite(), 4);
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(a.report, b.report, "{}", a.label);
        }
    }
}
