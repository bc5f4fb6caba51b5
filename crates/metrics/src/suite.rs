//! One-call evaluation of all eight metrics (a Table-III row).

use crate::hotspot::{gen_time_ranges, TimeRange};
use crate::query::{gen_queries, RangeQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_geo::{GriddedDataset, TransitionTable};

/// Configuration of the metric suite (paper defaults in parentheses).
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Evaluation time-range size φ (10).
    pub phi: u64,
    /// Number of random range queries (100).
    pub num_queries: usize,
    /// Number of random time ranges for hotspot / pattern metrics (100).
    pub num_ranges: usize,
    /// Hotspot list size n_h (10).
    pub nh: usize,
    /// Top-N frequent patterns (100).
    pub top_n_patterns: usize,
    /// Maximum mined pattern length (4).
    pub max_pattern_len: usize,
    /// Histogram bins for the length metric (20).
    pub length_bins: usize,
    /// Sanity bound as a fraction of total points (0.001).
    pub sanity_fraction: f64,
    /// Seed for the query/range workloads.
    pub seed: u64,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            phi: 10,
            num_queries: 100,
            num_ranges: 100,
            nh: 10,
            top_n_patterns: 100,
            max_pattern_len: 4,
            length_bins: 20,
            sanity_fraction: 0.001,
            seed: 0xC0FFEE,
        }
    }
}

impl SuiteConfig {
    /// Override φ.
    pub fn with_phi(mut self, phi: u64) -> Self {
        self.phi = phi;
        self
    }

    /// Override the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// All eight utility metrics of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricReport {
    /// Mean per-timestamp density JSD (smaller is better).
    pub density_error: f64,
    /// Mean relative range-query error (smaller is better).
    pub query_error: f64,
    /// Mean hotspot NDCG@n_h (larger is better).
    pub hotspot_ndcg: f64,
    /// Mean per-timestamp transition JSD (smaller is better).
    pub transition_error: f64,
    /// Mean top-N pattern F1 (larger is better).
    pub pattern_f1: f64,
    /// Kendall τ-b of cell popularity (larger is better).
    pub kendall_tau: f64,
    /// Trip-distribution JSD (smaller is better).
    pub trip_error: f64,
    /// Travel-distance JSD (smaller is better).
    pub length_error: f64,
}

impl MetricReport {
    /// Metric names in report order.
    pub const NAMES: [&'static str; 8] = [
        "density_error",
        "query_error",
        "hotspot_ndcg",
        "transition_error",
        "pattern_f1",
        "kendall_tau",
        "trip_error",
        "length_error",
    ];

    /// Values in the order of [`Self::NAMES`].
    pub fn values(&self) -> [f64; 8] {
        [
            self.density_error,
            self.query_error,
            self.hotspot_ndcg,
            self.transition_error,
            self.pattern_f1,
            self.kendall_tau,
            self.trip_error,
            self.length_error,
        ]
    }

    /// Whether larger is better for metric `i` (by `NAMES` order).
    pub fn larger_is_better(i: usize) -> bool {
        matches!(i, 2 | 4 | 5)
    }
}

impl std::fmt::Display for MetricReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = self.values();
        for (i, name) in Self::NAMES.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{name}={:.4}", v[i])?;
        }
        Ok(())
    }
}

/// The metric suite: holds the seeded workloads so repeated evaluations (of
/// different methods on the same dataset) are comparable.
#[derive(Debug, Clone)]
pub struct MetricSuite {
    config: SuiteConfig,
}

impl MetricSuite {
    /// Create a suite from configuration.
    pub fn new(config: SuiteConfig) -> Self {
        MetricSuite { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SuiteConfig {
        &self.config
    }

    /// Build the seeded query workload for a dataset shape.
    pub fn queries(&self, orig: &GriddedDataset) -> Vec<RangeQuery> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        gen_queries(
            orig.topology(),
            orig.horizon().max(1),
            self.config.phi,
            self.config.num_queries,
            &mut rng,
        )
    }

    /// Build the seeded time-range workload for a dataset shape.
    pub fn time_ranges(&self, orig: &GriddedDataset) -> Vec<TimeRange> {
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(1));
        gen_time_ranges(orig.horizon().max(1), self.config.phi, self.config.num_ranges, &mut rng)
    }

    /// Evaluate all eight metrics of `syn` against `orig`.
    pub fn evaluate(&self, orig: &GriddedDataset, syn: &GriddedDataset) -> MetricReport {
        assert_eq!(orig.topology(), syn.topology(), "datasets must share a discretization");
        let table = TransitionTable::new(orig.topology());
        let queries = self.queries(orig);
        let ranges = self.time_ranges(orig);
        MetricReport {
            density_error: crate::density::density_error(orig, syn),
            query_error: crate::query::query_error(
                orig,
                syn,
                &queries,
                self.config.sanity_fraction,
            ),
            hotspot_ndcg: crate::hotspot::hotspot_ndcg(orig, syn, &ranges, self.config.nh),
            transition_error: crate::transition::transition_error(orig, syn, &table),
            pattern_f1: crate::pattern::pattern_f1(
                orig,
                syn,
                &ranges,
                self.config.top_n_patterns,
                self.config.max_pattern_len,
            ),
            kendall_tau: crate::kendall::kendall_tau(orig, syn),
            trip_error: crate::trip::trip_error(orig, syn),
            length_error: crate::length::length_error(orig, syn, self.config.length_bins),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retrasyn_geo::{GriddedStream, UniformGrid};

    fn dataset(grid: &UniformGrid) -> GriddedDataset {
        let streams: Vec<GriddedStream> = (0..20)
            .map(|i| {
                let x = (i % 4) as u32;
                let y = (i % 3) as u32;
                GriddedStream {
                    id: i,
                    start: (i % 5),
                    cells: vec![
                        grid.cell_at(x, y),
                        grid.cell_at(x + 1, y),
                        grid.cell_at(x + 1, y + 1),
                    ],
                }
            })
            .collect();
        GriddedDataset::from_streams(grid.clone(), streams, 10)
    }

    #[test]
    fn self_evaluation_is_perfect() {
        let grid = UniformGrid::unit(6);
        let ds = dataset(&grid);
        let suite = MetricSuite::new(SuiteConfig { phi: 4, ..Default::default() });
        let r = suite.evaluate(&ds, &ds);
        assert!(r.density_error < 1e-12);
        assert!(r.query_error < 1e-12);
        assert!((r.hotspot_ndcg - 1.0).abs() < 1e-12);
        assert!(r.transition_error < 1e-12);
        assert!((r.pattern_f1 - 1.0).abs() < 1e-12);
        assert!((r.kendall_tau - 1.0).abs() < 1e-12);
        assert!(r.trip_error < 1e-12);
        assert!(r.length_error < 1e-12);
    }

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let grid = UniformGrid::unit(6);
        let ds = dataset(&grid);
        let suite = MetricSuite::new(SuiteConfig::default());
        assert_eq!(suite.queries(&ds), suite.queries(&ds));
        let other = MetricSuite::new(SuiteConfig::default().with_seed(7));
        assert_ne!(suite.queries(&ds), other.queries(&ds));
    }

    #[test]
    fn report_display_and_values() {
        let r = MetricReport {
            density_error: 0.1,
            query_error: 0.5,
            hotspot_ndcg: 0.4,
            transition_error: 0.4,
            pattern_f1: 0.39,
            kendall_tau: 0.7,
            trip_error: 0.3,
            length_error: 0.2,
        };
        let s = r.to_string();
        for name in MetricReport::NAMES {
            assert!(s.contains(name), "missing {name}");
        }
        assert_eq!(r.values().len(), 8);
        assert!(MetricReport::larger_is_better(2));
        assert!(!MetricReport::larger_is_better(0));
    }

    #[test]
    fn config_builders() {
        let c = SuiteConfig::default().with_phi(50).with_seed(3);
        assert_eq!(c.phi, 50);
        assert_eq!(c.seed, 3);
    }
}
