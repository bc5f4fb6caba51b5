//! Utility metrics for trajectory synthesis evaluation (paper §V-B).
//!
//! Streaming metrics (global level):
//! - [`density::density_error`] — per-timestamp Jensen–Shannon divergence of
//!   cell-occupancy distributions.
//! - [`query::query_error`] — mean relative error of random spatio-temporal
//!   range queries over windows of size φ, with a sanity bound.
//! - [`hotspot::hotspot_ndcg`] — NDCG@n_h of the synthetic ranking of the
//!   most popular cells within random time ranges.
//!
//! Streaming metrics (semantic level):
//! - [`transition::transition_error`] — per-timestamp JSD of single-step
//!   movement distributions.
//! - [`pattern::pattern_f1`] — F1 overlap of the top-N frequent multi-step
//!   patterns (consecutive cell sequences) within random time ranges.
//!
//! Historical (trajectory-level) metrics:
//! - [`kendall::kendall_tau`] — Kendall τ-b correlation of cell popularity
//!   rankings.
//! - [`trip::trip_error`] — JSD of (start, end) trip distributions.
//! - [`length::length_error`] — JSD of travel-distance distributions.
//!
//! All divergences use the natural logarithm, so the maximum JSD is
//! `ln 2 ≈ 0.6931` — the value the paper reports for baselines whose
//! synthetic length distributions have disjoint support from the real ones.
//!
//! Live (streaming-session) monitors:
//! - [`live`] — per-timestamp scores over the engine's borrowed
//!   `SnapshotView` (occupancy JSD, population error, region counts), for
//!   consumers that watch the synthetic database between steps instead of
//!   waiting for the released dataset.
//!
//! [`MetricSuite`] bundles everything with seeded query/range workloads so a
//! whole Table-III row is one call.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
pub mod density;
pub mod divergence;
pub mod hotspot;
pub mod kendall;
pub mod length;
pub mod live;
pub mod pattern;
pub mod query;
pub mod suite;
pub mod transition;
pub mod trip;

pub use query::RangeQuery;
pub use suite::{MetricReport, MetricSuite, SuiteConfig};

use retrasyn_geo::GriddedDataset;

/// Per-timestamp, per-cell occupancy counts — the shared accumulation most
/// metrics start from. `counts[t][cell]` is the number of active streams in
/// `cell` at time `t`.
pub fn per_ts_cell_counts(dataset: &GriddedDataset) -> Vec<Vec<u32>> {
    let horizon = dataset.horizon() as usize;
    let cells = dataset.topology().num_cells();
    let mut counts = vec![vec![0u32; cells]; horizon];
    for s in dataset.iter() {
        for (i, c) in s.cells.iter().enumerate() {
            let t = s.start as usize + i;
            if t < horizon {
                counts[t][c.index()] += 1;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use retrasyn_geo::{GriddedDataset, GriddedStream, UniformGrid};

    #[test]
    fn per_ts_cell_counts_accumulates() {
        let grid = UniformGrid::unit(2);
        let streams = vec![
            GriddedStream { id: 0, start: 0, cells: vec![grid.cell_at(0, 0), grid.cell_at(1, 0)] },
            GriddedStream { id: 1, start: 1, cells: vec![grid.cell_at(1, 0)] },
        ];
        let ds = GriddedDataset::from_streams(grid.clone(), streams, 3);
        let counts = per_ts_cell_counts(&ds);
        assert_eq!(counts.len(), 3);
        assert_eq!(counts[0][grid.cell_at(0, 0).index()], 1);
        assert_eq!(counts[1][grid.cell_at(1, 0).index()], 2);
        assert_eq!(counts[2].iter().sum::<u32>(), 0);
    }
}
