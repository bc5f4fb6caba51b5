//! Density error: JSD between per-timestamp spatial density distributions
//! (paper §V-B, "Density Error").

use crate::divergence::jsd_counts;
use crate::per_ts_cell_counts;
use retrasyn_geo::GriddedDataset;

/// Density error at a single timestamp.
pub fn density_error_at(orig: &GriddedDataset, syn: &GriddedDataset, t: u64) -> f64 {
    let o: Vec<u32> = orig.snapshot_counts(t).iter().map(|&c| c as u32).collect();
    let s: Vec<u32> = syn.snapshot_counts(t).iter().map(|&c| c as u32).collect();
    jsd_counts(&o, &s)
}

/// Mean density error over all timestamps where either database is active.
pub fn density_error(orig: &GriddedDataset, syn: &GriddedDataset) -> f64 {
    assert_eq!(orig.topology(), syn.topology(), "datasets must share a discretization");
    let horizon = orig.horizon().max(syn.horizon());
    let oc = per_ts_cell_counts(orig);
    let sc = per_ts_cell_counts(syn);
    let empty = vec![0u32; orig.topology().num_cells()];
    let mut total = 0.0;
    let mut used = 0usize;
    for t in 0..horizon as usize {
        let o = oc.get(t).unwrap_or(&empty);
        let s = sc.get(t).unwrap_or(&empty);
        let o_active = o.iter().any(|&x| x > 0);
        let s_active = s.iter().any(|&x| x > 0);
        if o_active || s_active {
            total += jsd_counts(o, s);
            used += 1;
        }
    }
    if used == 0 {
        0.0
    } else {
        total / used as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retrasyn_geo::{GriddedStream, UniformGrid};
    use std::f64::consts::LN_2;

    fn ds(grid: &UniformGrid, cells: Vec<Vec<(u32, u32)>>) -> GriddedDataset {
        // One stream per inner vec, all starting at t=0.
        let streams: Vec<GriddedStream> = cells
            .into_iter()
            .enumerate()
            .map(|(i, cs)| GriddedStream {
                id: i as u64,
                start: 0,
                cells: cs.into_iter().map(|(x, y)| grid.cell_at(x, y)).collect(),
            })
            .collect();
        let horizon = streams.iter().map(|s| s.end() + 1).max().unwrap_or(0);
        GriddedDataset::from_streams(grid.clone(), streams, horizon)
    }

    #[test]
    fn identical_datasets_zero_error() {
        let grid = UniformGrid::unit(3);
        let a = ds(&grid, vec![vec![(0, 0), (1, 0)], vec![(2, 2), (2, 1)]]);
        assert!(density_error(&a, &a) < 1e-12);
        assert!(density_error_at(&a, &a, 0) < 1e-12);
    }

    #[test]
    fn disjoint_datasets_max_error() {
        let grid = UniformGrid::unit(3);
        let a = ds(&grid, vec![vec![(0, 0), (0, 0)]]);
        let b = ds(&grid, vec![vec![(2, 2), (2, 2)]]);
        assert!((density_error(&a, &b) - LN_2).abs() < 1e-9);
    }

    #[test]
    fn partial_overlap_intermediate() {
        let grid = UniformGrid::unit(3);
        let a = ds(&grid, vec![vec![(0, 0)], vec![(1, 1)]]);
        let b = ds(&grid, vec![vec![(0, 0)], vec![(2, 2)]]);
        let e = density_error(&a, &b);
        assert!(e > 0.0 && e < LN_2, "e={e}");
    }

    #[test]
    fn timestamps_where_both_empty_are_skipped() {
        let grid = UniformGrid::unit(2);
        // Streams active only at t=0; horizons padded to 5.
        let mut a = ds(&grid, vec![vec![(0, 0)]]);
        let mut b = ds(&grid, vec![vec![(0, 0)]]);
        a = GriddedDataset::from_streams(grid.clone(), a.to_streams(), 5);
        b = GriddedDataset::from_streams(grid.clone(), b.to_streams(), 5);
        assert!(density_error(&a, &b) < 1e-12);
    }

    #[test]
    fn one_sided_activity_counts_as_max() {
        let grid = UniformGrid::unit(2);
        let a = ds(&grid, vec![vec![(0, 0), (0, 1)]]);
        // b is active only at t=0.
        let b = GriddedDataset::from_streams(
            grid.clone(),
            vec![GriddedStream { id: 0, start: 0, cells: vec![grid.cell_at(0, 0)] }],
            2,
        );
        // t=0 identical (0), t=1 one-sided (ln 2) -> mean ln2/2.
        let e = density_error(&a, &b);
        assert!((e - LN_2 / 2.0).abs() < 1e-9, "e={e}");
    }
}
