//! Length error: JSD between travel-distance distributions (paper §V-B,
//! "length error use JSD to measure the difference between… travel distance
//! distribution in T_orig and T_syn").
//!
//! Travel distance is measured in grid hops (Chebyshev steps), histogrammed
//! into shared bins spanning the union of both datasets' ranges. Synthetic
//! trajectories that never terminate (the LDP-IDS baselines and the NoEQ
//! ablation) produce distances far beyond the real ones, driving this metric
//! to its maximum `ln 2 ≈ 0.6931` — exactly the constant the paper reports
//! for every baseline.

use crate::divergence::jsd;
use retrasyn_geo::GriddedDataset;

/// Travel distances (grid hops) of all streams.
pub fn travel_distances(dataset: &GriddedDataset) -> Vec<u64> {
    let topology = dataset.topology();
    dataset.iter().map(|s| s.hop_distance(topology)).collect()
}

/// Histogram values into `bins` equal-width buckets over `[0, max]`.
fn histogram(values: &[u64], max: u64, bins: usize) -> Vec<f64> {
    let mut hist = vec![0.0; bins];
    if values.is_empty() {
        return hist;
    }
    let width = ((max + 1) as f64 / bins as f64).max(1.0);
    for &v in values {
        let b = ((v as f64 / width) as usize).min(bins - 1);
        hist[b] += 1.0;
    }
    hist
}

/// JSD between travel-distance histograms with `bins` shared buckets.
pub fn length_error(orig: &GriddedDataset, syn: &GriddedDataset, bins: usize) -> f64 {
    assert!(bins >= 2, "need at least two bins");
    assert_eq!(orig.topology(), syn.topology(), "datasets must share a discretization");
    let od = travel_distances(orig);
    let sd = travel_distances(syn);
    let max = od.iter().chain(sd.iter()).copied().max().unwrap_or(0);
    let oh = histogram(&od, max, bins);
    let sh = histogram(&sd, max, bins);
    jsd(&oh, &sh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use retrasyn_geo::{GriddedStream, UniformGrid};
    use std::f64::consts::LN_2;

    fn walk(grid: &UniformGrid, id: u64, len: usize) -> GriddedStream {
        // A straight march of `len` cells along x from (0,0), bouncing at
        // the boundary.
        let k = grid.k();
        let cells = (0..len)
            .map(|i| {
                let phase = (i as u32) % (2 * (k - 1)).max(1);
                let x = if phase < k { phase } else { 2 * (k - 1) - phase };
                grid.cell_at(x, 0)
            })
            .collect();
        GriddedStream { id, start: 0, cells }
    }

    fn ds(grid: &UniformGrid, lens: &[usize]) -> GriddedDataset {
        let streams: Vec<GriddedStream> =
            lens.iter().enumerate().map(|(i, &l)| walk(grid, i as u64, l)).collect();
        let horizon = streams.iter().map(|s| s.end() + 1).max().unwrap_or(0);
        GriddedDataset::from_streams(grid.clone(), streams, horizon)
    }

    #[test]
    fn identical_lengths_zero_error() {
        let grid = UniformGrid::unit(6);
        let a = ds(&grid, &[3, 5, 8, 8]);
        assert!(length_error(&a, &a, 10) < 1e-12);
    }

    #[test]
    fn never_terminating_synthetic_hits_ln2() {
        let grid = UniformGrid::unit(6);
        // Real streams: short (distances 2-7); synthetic: one enormous
        // stream (distance ~ 500) — disjoint histograms.
        let orig = ds(&grid, &[3, 5, 8]);
        let syn = ds(&grid, &[500]);
        let e = length_error(&orig, &syn, 20);
        assert!((e - LN_2).abs() < 1e-9, "e={e}");
    }

    #[test]
    fn similar_distributions_small_error() {
        let grid = UniformGrid::unit(6);
        let a = ds(&grid, &[3, 5, 8, 12]);
        let b = ds(&grid, &[3, 5, 8, 13]);
        let e = length_error(&a, &b, 10);
        assert!(e < 0.2, "e={e}");
    }

    #[test]
    fn travel_distance_values() {
        let grid = UniformGrid::unit(6);
        let d = travel_distances(&ds(&grid, &[1, 4]));
        // len 1 -> 0 hops; len 4 -> 3 hops.
        assert_eq!(d, vec![0, 3]);
    }

    #[test]
    fn empty_sides() {
        let grid = UniformGrid::unit(4);
        let empty = GriddedDataset::from_streams(grid.clone(), vec![], 1);
        let a = ds(&grid, &[3]);
        assert_eq!(length_error(&empty, &empty, 5), 0.0);
        assert!((length_error(&a, &empty, 5) - LN_2).abs() < 1e-9);
    }

    #[test]
    fn histogram_bins_cover_range() {
        let h = histogram(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 9, 5);
        assert_eq!(h.iter().sum::<f64>() as u64, 10);
        for b in &h {
            assert_eq!(*b as u64, 2);
        }
    }
}
