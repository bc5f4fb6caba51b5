//! Frequent-pattern preservation: top-N pattern F1 (paper §V-B,
//! "Pattern F1").
//!
//! A pattern is an ordered sequence of consecutive cells (length ≥ 2). For
//! a time range, the top-N most frequent patterns are mined from both
//! databases and compared by F1 score on the two sets.

use crate::hotspot::TimeRange;
use retrasyn_geo::{CellId, GriddedDataset};
use std::collections::HashMap;

/// Mine pattern counts (lengths `2..=max_len`) within `[t0, t1]`.
pub fn pattern_counts(
    dataset: &GriddedDataset,
    range: &TimeRange,
    max_len: usize,
) -> HashMap<Vec<CellId>, u64> {
    assert!(max_len >= 2, "patterns have length >= 2");
    let mut counts: HashMap<Vec<CellId>, u64> = HashMap::new();
    for s in dataset.iter() {
        // Clip the stream to the time range.
        if s.end() < range.t0 || s.start > range.t1 {
            continue;
        }
        let lo = range.t0.max(s.start) - s.start;
        let hi = range.t1.min(s.end()) - s.start;
        let cells = &s.cells[lo as usize..=hi as usize];
        for len in 2..=max_len.min(cells.len()) {
            for window in cells.windows(len) {
                *counts.entry(window.to_vec()).or_insert(0) += 1;
            }
        }
    }
    counts
}

/// Top-`n` patterns by count (ties broken lexicographically for
/// determinism).
pub fn top_patterns(counts: &HashMap<Vec<CellId>, u64>, n: usize) -> Vec<Vec<CellId>> {
    let mut entries: Vec<(&Vec<CellId>, &u64)> = counts.iter().collect();
    entries.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
    entries.into_iter().take(n).map(|(p, _)| p.clone()).collect()
}

/// F1 overlap of the two top-N sets.
fn set_f1(a: &[Vec<CellId>], b: &[Vec<CellId>]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let sa: std::collections::HashSet<&Vec<CellId>> = a.iter().collect();
    let inter = b.iter().filter(|p| sa.contains(p)).count() as f64;
    // precision = inter/|b| (synthetic picks), recall = inter/|a|.
    let p = inter / b.len() as f64;
    let r = inter / a.len() as f64;
    if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    }
}

/// Pattern F1 for one time range.
pub fn pattern_f1_at(
    orig: &GriddedDataset,
    syn: &GriddedDataset,
    range: &TimeRange,
    n: usize,
    max_len: usize,
) -> f64 {
    let oc = pattern_counts(orig, range, max_len);
    let sc = pattern_counts(syn, range, max_len);
    set_f1(&top_patterns(&oc, n), &top_patterns(&sc, n))
}

/// Mean pattern F1 over the given time ranges (paper: N = 100 patterns, 100
/// random ranges of size φ).
pub fn pattern_f1(
    orig: &GriddedDataset,
    syn: &GriddedDataset,
    ranges: &[TimeRange],
    n: usize,
    max_len: usize,
) -> f64 {
    assert_eq!(orig.topology(), syn.topology(), "datasets must share a discretization");
    if ranges.is_empty() {
        return 0.0;
    }
    ranges.iter().map(|r| pattern_f1_at(orig, syn, r, n, max_len)).sum::<f64>()
        / ranges.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use retrasyn_geo::{GriddedStream, UniformGrid};

    fn ds(grid: &UniformGrid, paths: Vec<Vec<(u32, u32)>>) -> GriddedDataset {
        let streams: Vec<GriddedStream> = paths
            .into_iter()
            .enumerate()
            .map(|(i, p)| GriddedStream {
                id: i as u64,
                start: 0,
                cells: p.into_iter().map(|(x, y)| grid.cell_at(x, y)).collect(),
            })
            .collect();
        let horizon = streams.iter().map(|s| s.end() + 1).max().unwrap_or(0);
        GriddedDataset::from_streams(grid.clone(), streams, horizon)
    }

    #[test]
    fn pattern_counts_window_lengths() {
        let grid = UniformGrid::unit(4);
        let d = ds(&grid, vec![vec![(0, 0), (1, 0), (2, 0)]]);
        let counts = pattern_counts(&d, &TimeRange { t0: 0, t1: 2 }, 3);
        // Length-2: (00,10), (10,20); length-3: (00,10,20).
        assert_eq!(counts.len(), 3);
        assert_eq!(counts[&vec![grid.cell_at(0, 0), grid.cell_at(1, 0)]], 1);
        assert_eq!(counts[&vec![grid.cell_at(0, 0), grid.cell_at(1, 0), grid.cell_at(2, 0)]], 1);
    }

    #[test]
    fn time_range_clips_streams() {
        let grid = UniformGrid::unit(4);
        let d = ds(&grid, vec![vec![(0, 0), (1, 0), (2, 0), (3, 0)]]);
        // Range covering only t=1..2 -> only the middle pair.
        let counts = pattern_counts(&d, &TimeRange { t0: 1, t1: 2 }, 3);
        assert_eq!(counts.len(), 1);
        assert!(counts.contains_key(&vec![grid.cell_at(1, 0), grid.cell_at(2, 0)]));
    }

    #[test]
    fn identical_datasets_f1_one() {
        let grid = UniformGrid::unit(4);
        let d = ds(&grid, vec![vec![(0, 0), (1, 0), (2, 0)], vec![(3, 3), (3, 2)]]);
        let r = [TimeRange { t0: 0, t1: 2 }];
        assert!((pattern_f1(&d, &d, &r, 10, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_patterns_f1_zero() {
        let grid = UniformGrid::unit(4);
        let a = ds(&grid, vec![vec![(0, 0), (1, 0), (2, 0)]]);
        let b = ds(&grid, vec![vec![(3, 3), (3, 2), (3, 1)]]);
        let r = [TimeRange { t0: 0, t1: 2 }];
        assert_eq!(pattern_f1(&a, &b, &r, 10, 3), 0.0);
    }

    #[test]
    fn partial_overlap_between_zero_and_one() {
        let grid = UniformGrid::unit(4);
        let a = ds(&grid, vec![vec![(0, 0), (1, 0)], vec![(3, 3), (3, 2)]]);
        let b = ds(&grid, vec![vec![(0, 0), (1, 0)], vec![(2, 2), (2, 1)]]);
        let r = [TimeRange { t0: 0, t1: 1 }];
        let f1 = pattern_f1(&a, &b, &r, 10, 2);
        assert!((f1 - 0.5).abs() < 1e-12, "f1={f1}");
    }

    #[test]
    fn top_patterns_ranked_by_count() {
        let grid = UniformGrid::unit(4);
        // Pattern (0,0)->(1,0) occurs twice, (3,3)->(3,2) once.
        let d = ds(&grid, vec![vec![(0, 0), (1, 0)], vec![(0, 0), (1, 0)], vec![(3, 3), (3, 2)]]);
        let counts = pattern_counts(&d, &TimeRange { t0: 0, t1: 1 }, 2);
        let top = top_patterns(&counts, 1);
        assert_eq!(top[0], vec![grid.cell_at(0, 0), grid.cell_at(1, 0)]);
    }

    #[test]
    fn empty_sides() {
        let grid = UniformGrid::unit(3);
        let empty = GriddedDataset::from_streams(grid.clone(), vec![], 2);
        let d = ds(&grid, vec![vec![(0, 0), (1, 0)]]);
        let r = [TimeRange { t0: 0, t1: 1 }];
        assert_eq!(pattern_f1(&empty, &empty, &r, 5, 2), 1.0);
        assert_eq!(pattern_f1(&d, &empty, &r, 5, 2), 0.0);
    }

    #[test]
    fn single_point_streams_have_no_patterns() {
        let grid = UniformGrid::unit(3);
        let d = ds(&grid, vec![vec![(0, 0)]]);
        let counts = pattern_counts(&d, &TimeRange { t0: 0, t1: 0 }, 3);
        assert!(counts.is_empty());
    }
}
