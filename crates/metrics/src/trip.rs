//! Trip error: JSD between (start, end) trip distributions (paper §V-B,
//! "Trip error… use JSD to measure the difference between start/end
//! points… in T_orig and T_syn").

use crate::divergence::jsd;
use retrasyn_geo::GriddedDataset;
use std::collections::HashMap;

/// Count trips as (first cell, last cell) pairs.
pub fn trip_counts(dataset: &GriddedDataset) -> HashMap<(u32, u32), u64> {
    let mut counts = HashMap::new();
    for s in dataset.iter() {
        *counts.entry((s.first_cell().0, s.last_cell().0)).or_insert(0) += 1;
    }
    counts
}

/// JSD between the trip distributions over the union of observed trips.
pub fn trip_error(orig: &GriddedDataset, syn: &GriddedDataset) -> f64 {
    assert_eq!(orig.topology(), syn.topology(), "datasets must share a discretization");
    let oc = trip_counts(orig);
    let sc = trip_counts(syn);
    let mut keys: Vec<(u32, u32)> = oc.keys().chain(sc.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    let o: Vec<f64> = keys.iter().map(|k| *oc.get(k).unwrap_or(&0) as f64).collect();
    let s: Vec<f64> = keys.iter().map(|k| *sc.get(k).unwrap_or(&0) as f64).collect();
    jsd(&o, &s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use retrasyn_geo::{GriddedStream, UniformGrid};
    use std::f64::consts::LN_2;

    fn ds(grid: &UniformGrid, trips: Vec<(Vec<(u32, u32)>, usize)>) -> GriddedDataset {
        let mut streams = Vec::new();
        let mut id = 0u64;
        for (path, copies) in trips {
            for _ in 0..copies {
                streams.push(GriddedStream {
                    id,
                    start: 0,
                    cells: path.iter().map(|&(x, y)| grid.cell_at(x, y)).collect(),
                });
                id += 1;
            }
        }
        let horizon = streams.iter().map(|s| s.end() + 1).max().unwrap_or(0);
        GriddedDataset::from_streams(grid.clone(), streams, horizon)
    }

    #[test]
    fn identical_trips_zero_error() {
        let grid = UniformGrid::unit(3);
        let a = ds(&grid, vec![(vec![(0, 0), (1, 0), (2, 0)], 3), (vec![(2, 2), (1, 2)], 1)]);
        assert!(trip_error(&a, &a) < 1e-12);
    }

    #[test]
    fn disjoint_trips_max_error() {
        let grid = UniformGrid::unit(3);
        let a = ds(&grid, vec![(vec![(0, 0), (1, 0)], 2)]);
        let b = ds(&grid, vec![(vec![(2, 2), (1, 2)], 2)]);
        assert!((trip_error(&a, &b) - LN_2).abs() < 1e-9);
    }

    #[test]
    fn trip_is_endpoints_only() {
        // Different intermediate routes with the same endpoints are the
        // same trip.
        let grid = UniformGrid::unit(3);
        let a = ds(&grid, vec![(vec![(0, 0), (1, 0), (2, 0)], 1)]);
        let b = ds(&grid, vec![(vec![(0, 0), (1, 1), (2, 0)], 1)]);
        assert!(trip_error(&a, &b) < 1e-12);
    }

    #[test]
    fn single_point_stream_is_self_trip() {
        let grid = UniformGrid::unit(3);
        let counts = trip_counts(&ds(&grid, vec![(vec![(1, 1)], 2)]));
        let c = grid.cell_at(1, 1).0;
        assert_eq!(counts[&(c, c)], 2);
    }

    #[test]
    fn proportions_matter() {
        let grid = UniformGrid::unit(3);
        let orig = ds(&grid, vec![(vec![(0, 0), (1, 0)], 9), (vec![(2, 2), (1, 2)], 1)]);
        let balanced = ds(&grid, vec![(vec![(0, 0), (1, 0)], 5), (vec![(2, 2), (1, 2)], 5)]);
        let matched = ds(&grid, vec![(vec![(0, 0), (1, 0)], 18), (vec![(2, 2), (1, 2)], 2)]);
        assert!(trip_error(&orig, &matched) < 1e-12);
        let e = trip_error(&orig, &balanced);
        assert!(e > 0.05 && e < LN_2, "e={e}");
    }
}
