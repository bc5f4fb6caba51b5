//! Downstream location-based analytics over (synthetic) gridded databases.
//!
//! The paper's central versatility claim (§V-B) is that a synthesized
//! database "supports arbitrary downstream tasks without consuming any
//! additional privacy budget". This module provides the analyses the
//! introduction motivates — traffic flows, OD demand, dwell behaviour —
//! all of which are post-processing (Theorem 2) when run on a released
//! `T_syn`.

use retrasyn_geo::{CellId, GriddedDataset};
use std::collections::HashMap;

/// Origin–destination demand matrix: trip counts keyed by
/// (first cell, last cell).
pub fn od_matrix(dataset: &GriddedDataset) -> HashMap<(CellId, CellId), u64> {
    let mut od = HashMap::new();
    for s in dataset.iter() {
        *od.entry((s.first_cell(), s.last_cell())).or_insert(0) += 1;
    }
    od
}

/// The `k` most frequent trips, by count (descending; deterministic tie
/// order).
pub fn top_k_trips(dataset: &GriddedDataset, k: usize) -> Vec<((CellId, CellId), u64)> {
    let mut entries: Vec<((CellId, CellId), u64)> = od_matrix(dataset).into_iter().collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    entries.truncate(k);
    entries
}

/// Per-timestamp count of movements from `from_region` into `to_region`
/// (e.g. inbound commuter flow). Regions are arbitrary cell sets.
pub fn flow_series(
    dataset: &GriddedDataset,
    from_region: &[CellId],
    to_region: &[CellId],
) -> Vec<u64> {
    let from: std::collections::HashSet<CellId> = from_region.iter().copied().collect();
    let to: std::collections::HashSet<CellId> = to_region.iter().copied().collect();
    let mut series = vec![0u64; dataset.horizon() as usize];
    for s in dataset.iter() {
        for (i, w) in s.cells.windows(2).enumerate() {
            let t = s.start as usize + i + 1;
            if t < series.len() && from.contains(&w[0]) && to.contains(&w[1]) {
                series[t] += 1;
            }
        }
    }
    series
}

/// Mean dwell time: the average length of maximal same-cell runs, in
/// timestamps (how long travellers linger before moving on).
pub fn mean_dwell_time(dataset: &GriddedDataset) -> f64 {
    let mut runs = 0u64;
    let mut total = 0u64;
    for s in dataset.iter() {
        let mut run_len = 1u64;
        for w in s.cells.windows(2) {
            if w[0] == w[1] {
                run_len += 1;
            } else {
                runs += 1;
                total += run_len;
                run_len = 1;
            }
        }
        runs += 1;
        total += run_len;
    }
    if runs == 0 {
        0.0
    } else {
        total as f64 / runs as f64
    }
}

/// Radius of gyration per stream (in continuous units via cell centers):
/// the classic human-mobility statistic
/// `r_g = sqrt(mean_t |x_t − centroid|²)`.
pub fn radius_of_gyration(dataset: &GriddedDataset) -> Vec<f64> {
    let topology = dataset.topology();
    dataset
        .iter()
        .map(|s| {
            let pts: Vec<_> = s.cells.iter().map(|&c| topology.center(c)).collect();
            let n = pts.len() as f64;
            let cx = pts.iter().map(|p| p.x).sum::<f64>() / n;
            let cy = pts.iter().map(|p| p.y).sum::<f64>() / n;
            (pts.iter().map(|p| (p.x - cx).powi(2) + (p.y - cy).powi(2)).sum::<f64>() / n).sqrt()
        })
        .collect()
}

/// Hourly (or any-periodic) occupancy profile of a region: mean number of
/// active streams inside the region per phase of a `period`-timestamp day.
pub fn periodic_occupancy(dataset: &GriddedDataset, region: &[CellId], period: u64) -> Vec<f64> {
    assert!(period >= 1, "period must be >= 1");
    let cells: std::collections::HashSet<CellId> = region.iter().copied().collect();
    let mut totals = vec![0u64; period as usize];
    let mut samples = vec![0u64; period as usize];
    let counts = crate::per_ts_cell_counts(dataset);
    for (t, row) in counts.iter().enumerate() {
        let phase = (t as u64 % period) as usize;
        let inside: u64 = cells.iter().map(|c| row[c.index()] as u64).sum();
        totals[phase] += inside;
        samples[phase] += 1;
    }
    totals
        .iter()
        .zip(&samples)
        .map(|(&tot, &n)| if n == 0 { 0.0 } else { tot as f64 / n as f64 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use retrasyn_geo::{GriddedStream, UniformGrid};

    fn dataset(grid: &UniformGrid) -> GriddedDataset {
        GriddedDataset::from_streams(
            grid.clone(),
            vec![
                // Trip A: (0,0) -> (1,0), twice.
                GriddedStream {
                    id: 0,
                    start: 0,
                    cells: vec![grid.cell_at(0, 0), grid.cell_at(1, 0)],
                },
                GriddedStream {
                    id: 1,
                    start: 1,
                    cells: vec![grid.cell_at(0, 0), grid.cell_at(1, 0)],
                },
                // Trip B: dwell at (2,2) for 3 ticks.
                GriddedStream { id: 2, start: 0, cells: vec![grid.cell_at(2, 2); 3] },
            ],
            4,
        )
    }

    #[test]
    fn od_matrix_counts_trips() {
        let grid = UniformGrid::unit(4);
        let ds = dataset(&grid);
        let od = od_matrix(&ds);
        assert_eq!(od[&(grid.cell_at(0, 0), grid.cell_at(1, 0))], 2);
        assert_eq!(od[&(grid.cell_at(2, 2), grid.cell_at(2, 2))], 1);
        assert_eq!(od.len(), 2);
    }

    #[test]
    fn top_k_orders_by_count() {
        let grid = UniformGrid::unit(4);
        let top = top_k_trips(&dataset(&grid), 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].0, (grid.cell_at(0, 0), grid.cell_at(1, 0)));
        assert_eq!(top[0].1, 2);
    }

    #[test]
    fn flow_series_counts_region_crossings() {
        let grid = UniformGrid::unit(4);
        let ds = dataset(&grid);
        let flow = flow_series(&ds, &[grid.cell_at(0, 0)], &[grid.cell_at(1, 0)]);
        // Stream 0 crosses at t=1, stream 1 at t=2.
        assert_eq!(flow, vec![0, 1, 1, 0]);
        // No flow in the reverse direction.
        let reverse = flow_series(&ds, &[grid.cell_at(1, 0)], &[grid.cell_at(0, 0)]);
        assert_eq!(reverse.iter().sum::<u64>(), 0);
    }

    #[test]
    fn dwell_time_mixes_runs() {
        let grid = UniformGrid::unit(4);
        // Runs: stream0: [1,1]; stream1: [1,1]; stream2: [3].
        // Mean = (1+1+1+1+3)/5 = 1.4.
        let d = mean_dwell_time(&dataset(&grid));
        assert!((d - 1.4).abs() < 1e-12, "d={d}");
        let empty = GriddedDataset::from_streams(grid, vec![], 1);
        assert_eq!(mean_dwell_time(&empty), 0.0);
    }

    #[test]
    fn gyration_zero_for_stationary() {
        let grid = UniformGrid::unit(4);
        let rg = radius_of_gyration(&dataset(&grid));
        assert_eq!(rg.len(), 3);
        // The dwelling stream never moves.
        assert!(rg[2] < 1e-12);
        // The movers have positive radius.
        assert!(rg[0] > 0.0);
    }

    #[test]
    fn periodic_occupancy_profiles() {
        let grid = UniformGrid::unit(4);
        let ds = dataset(&grid);
        let profile = periodic_occupancy(&ds, &[grid.cell_at(2, 2)], 2);
        // (2,2) occupied at t=0,1,2 -> phase 0 has t=0 (1) and t=2 (1)
        // -> mean 1; phase 1 has t=1 (1) and t=3 (0) -> mean 0.5.
        assert_eq!(profile.len(), 2);
        assert!((profile[0] - 1.0).abs() < 1e-12);
        assert!((profile[1] - 0.5).abs() < 1e-12);
    }
}
