//! Transition error: JSD between single-timestamp movement distributions
//! (paper §V-B, "Transition Error").

use crate::divergence::jsd;
use retrasyn_geo::{GriddedDataset, TransitionTable};

/// Per-timestamp movement-state counts: `counts[t][move_index]` over the
/// table's movement block (enter/quit states are not part of this metric).
pub fn per_ts_move_counts(dataset: &GriddedDataset, table: &TransitionTable) -> Vec<Vec<u32>> {
    let horizon = dataset.horizon() as usize;
    let mut counts = vec![vec![0u32; table.num_moves()]; horizon];
    for s in dataset.iter() {
        for (i, w) in s.cells.windows(2).enumerate() {
            let t = s.start as usize + i + 1;
            if t >= horizon {
                continue;
            }
            let idx = table
                .index_of(retrasyn_geo::TransitionState::Move { from: w[0], to: w[1] })
                .expect("gridded streams are adjacency-respecting");
            counts[t][idx] += 1;
        }
    }
    counts
}

/// Transition error at one timestamp.
pub fn transition_error_at(
    orig: &GriddedDataset,
    syn: &GriddedDataset,
    table: &TransitionTable,
    t: u64,
) -> f64 {
    let oc = per_ts_move_counts(orig, table);
    let sc = per_ts_move_counts(syn, table);
    let empty = vec![0u32; table.num_moves()];
    let o = oc.get(t as usize).unwrap_or(&empty);
    let s = sc.get(t as usize).unwrap_or(&empty);
    crate::divergence::jsd_counts(o, s)
}

/// Mean transition error over timestamps where either side has movement.
pub fn transition_error(
    orig: &GriddedDataset,
    syn: &GriddedDataset,
    table: &TransitionTable,
) -> f64 {
    assert_eq!(orig.topology(), syn.topology(), "datasets must share a discretization");
    let horizon = orig.horizon().max(syn.horizon()) as usize;
    let oc = per_ts_move_counts(orig, table);
    let sc = per_ts_move_counts(syn, table);
    let empty = vec![0u32; table.num_moves()];
    let mut total = 0.0;
    let mut used = 0usize;
    for t in 0..horizon {
        let o = oc.get(t).unwrap_or(&empty);
        let s = sc.get(t).unwrap_or(&empty);
        let o_active = o.iter().any(|&x| x > 0);
        let s_active = s.iter().any(|&x| x > 0);
        if o_active || s_active {
            let of: Vec<f64> = o.iter().map(|&x| x as f64).collect();
            let sf: Vec<f64> = s.iter().map(|&x| x as f64).collect();
            total += jsd(&of, &sf);
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

    fn line_ds(grid: &UniformGrid, dir: (i32, i32)) -> GriddedDataset {
        // 3 streams marching in direction `dir` from (1,1).
        let streams: Vec<GriddedStream> = (0..3)
            .map(|i| {
                let cells = (0..3)
                    .map(|s| grid.cell_at((1 + dir.0 * s) as u32, (1 + dir.1 * s) as u32))
                    .collect();
                GriddedStream { id: i, start: 0, cells }
            })
            .collect();
        GriddedDataset::from_streams(grid.clone(), streams, 3)
    }

    #[test]
    fn identical_movement_zero_error() {
        let grid = UniformGrid::unit(4);
        let t = TransitionTable::new(&grid);
        let a = line_ds(&grid, (1, 0));
        assert!(transition_error(&a, &a, &t) < 1e-12);
    }

    #[test]
    fn opposite_flows_max_error() {
        let grid = UniformGrid::unit(4);
        let t = TransitionTable::new(&grid);
        let right = line_ds(&grid, (1, 0));
        let down = line_ds(&grid, (0, 1));
        assert!((transition_error(&right, &down, &t) - LN_2).abs() < 1e-9);
    }

    #[test]
    fn move_counts_shape() {
        let grid = UniformGrid::unit(4);
        let t = TransitionTable::new(&grid);
        let ds = line_ds(&grid, (1, 0));
        let counts = per_ts_move_counts(&ds, &t);
        assert_eq!(counts.len(), 3);
        // No moves at t=0 (entering), 3 moves at t=1 and t=2.
        assert_eq!(counts[0].iter().sum::<u32>(), 0);
        assert_eq!(counts[1].iter().sum::<u32>(), 3);
        assert_eq!(counts[2].iter().sum::<u32>(), 3);
    }

    #[test]
    fn self_moves_are_counted() {
        let grid = UniformGrid::unit(3);
        let t = TransitionTable::new(&grid);
        let ds = GriddedDataset::from_streams(
            grid.clone(),
            vec![GriddedStream {
                id: 0,
                start: 0,
                cells: vec![grid.cell_at(1, 1), grid.cell_at(1, 1)],
            }],
            2,
        );
        let counts = per_ts_move_counts(&ds, &t);
        let self_idx = t
            .index_of(retrasyn_geo::TransitionState::Move {
                from: grid.cell_at(1, 1),
                to: grid.cell_at(1, 1),
            })
            .unwrap();
        assert_eq!(counts[1][self_idx], 1);
    }

    #[test]
    fn single_timestamp_variant() {
        let grid = UniformGrid::unit(4);
        let t = TransitionTable::new(&grid);
        let right = line_ds(&grid, (1, 0));
        let down = line_ds(&grid, (0, 1));
        assert!(transition_error_at(&right, &right, &t, 1) < 1e-12);
        assert!((transition_error_at(&right, &down, &t, 1) - LN_2).abs() < 1e-9);
        // t=0 has no moves on either side -> both empty -> 0.
        assert_eq!(transition_error_at(&right, &down, &t, 0), 0.0);
    }
}
