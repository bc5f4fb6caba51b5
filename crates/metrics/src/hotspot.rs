//! Hotspot preservation via NDCG@n_h (paper §V-B, "Hotspot NDCG").
//!
//! For a random time range, the `n_h` cells the *synthetic* data ranks as
//! most popular are scored against the *original* data's popularity as
//! graded relevance; the score is normalized by the original data's own
//! ideal ranking (so 1.0 means the synthetic top-n_h is a perfect hotspot
//! ranking).

use rand::Rng;
use retrasyn_geo::GriddedDataset;

/// A closed time range `[t0, t1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeRange {
    /// Inclusive start.
    pub t0: u64,
    /// Inclusive end.
    pub t1: u64,
}

/// Generate `count` random time ranges of size `phi` within the horizon.
pub fn gen_time_ranges<R: Rng + ?Sized>(
    horizon: u64,
    phi: u64,
    count: usize,
    rng: &mut R,
) -> Vec<TimeRange> {
    assert!(horizon > 0, "cannot sample ranges from an empty horizon");
    let phi = phi.clamp(1, horizon);
    (0..count)
        .map(|_| {
            let t0 = rng.random_range(0..=(horizon - phi));
            TimeRange { t0, t1: t0 + phi - 1 }
        })
        .collect()
}

/// Aggregate per-cell counts over a time range from precomputed snapshots.
fn aggregate(counts: &[Vec<u32>], range: &TimeRange, num_cells: usize) -> Vec<u64> {
    let mut agg = vec![0u64; num_cells];
    let t1 = (range.t1 as usize).min(counts.len().saturating_sub(1));
    for row in counts.iter().take(t1 + 1).skip(range.t0 as usize) {
        for (a, &c) in agg.iter_mut().zip(row) {
            *a += c as u64;
        }
    }
    agg
}

/// Top-`n` cell indices by count (descending; ties by cell index).
fn top_cells(agg: &[u64], n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..agg.len()).collect();
    idx.sort_by(|&a, &b| agg[b].cmp(&agg[a]).then(a.cmp(&b)));
    idx.truncate(n);
    idx
}

/// DCG of a ranked cell list with relevance from `rel`.
fn dcg(ranked: &[usize], rel: &[u64]) -> f64 {
    ranked.iter().enumerate().map(|(i, &c)| rel[c] as f64 / (i as f64 + 2.0).log2()).sum()
}

/// NDCG@`nh` of `syn`'s hotspot ranking for a single time range.
pub fn hotspot_ndcg_at(
    orig_counts: &[Vec<u32>],
    syn_counts: &[Vec<u32>],
    num_cells: usize,
    range: &TimeRange,
    nh: usize,
) -> f64 {
    let orig_agg = aggregate(orig_counts, range, num_cells);
    let syn_agg = aggregate(syn_counts, range, num_cells);
    let ideal = top_cells(&orig_agg, nh);
    let idcg = dcg(&ideal, &orig_agg);
    if idcg == 0.0 {
        // No activity in the original data: any ranking is vacuously ideal.
        return 1.0;
    }
    let picked = top_cells(&syn_agg, nh);
    dcg(&picked, &orig_agg) / idcg
}

/// Mean NDCG@`nh` over the given time ranges.
pub fn hotspot_ndcg(
    orig: &GriddedDataset,
    syn: &GriddedDataset,
    ranges: &[TimeRange],
    nh: usize,
) -> f64 {
    assert_eq!(orig.topology(), syn.topology(), "datasets must share a discretization");
    if ranges.is_empty() {
        return 0.0;
    }
    let oc = crate::per_ts_cell_counts(orig);
    let sc = crate::per_ts_cell_counts(syn);
    let cells = orig.topology().num_cells();
    ranges.iter().map(|r| hotspot_ndcg_at(&oc, &sc, cells, r, nh)).sum::<f64>()
        / ranges.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use retrasyn_geo::{GriddedStream, UniformGrid};

    fn hotspot_ds(grid: &UniformGrid, hot: (u32, u32), copies: usize) -> GriddedDataset {
        // `copies` streams sitting in the hot cell + 1 stream elsewhere.
        let mut streams: Vec<GriddedStream> = (0..copies)
            .map(|i| GriddedStream {
                id: i as u64,
                start: 0,
                cells: vec![grid.cell_at(hot.0, hot.1); 4],
            })
            .collect();
        streams.push(GriddedStream { id: 99, start: 0, cells: vec![grid.cell_at(0, 0); 4] });
        GriddedDataset::from_streams(grid.clone(), streams, 4)
    }

    #[test]
    fn identical_datasets_score_one() {
        let grid = UniformGrid::unit(4);
        let ds = hotspot_ds(&grid, (2, 2), 5);
        let ranges = [TimeRange { t0: 0, t1: 3 }];
        assert!((hotspot_ndcg(&ds, &ds, &ranges, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wrong_hotspot_scores_lower() {
        let grid = UniformGrid::unit(4);
        let orig = hotspot_ds(&grid, (2, 2), 5);
        let syn_right = hotspot_ds(&grid, (2, 2), 5);
        let syn_wrong = hotspot_ds(&grid, (3, 0), 5);
        let ranges = [TimeRange { t0: 0, t1: 3 }];
        let right = hotspot_ndcg(&orig, &syn_right, &ranges, 2);
        let wrong = hotspot_ndcg(&orig, &syn_wrong, &ranges, 2);
        assert!(right > wrong, "right={right} wrong={wrong}");
        assert!(wrong < 0.7);
    }

    #[test]
    fn empty_original_scores_one() {
        let grid = UniformGrid::unit(3);
        let empty = GriddedDataset::from_streams(grid.clone(), vec![], 4);
        let syn = hotspot_ds(&grid, (1, 1), 2);
        let ranges = [TimeRange { t0: 0, t1: 3 }];
        assert_eq!(hotspot_ndcg(&empty, &syn, &ranges, 2), 1.0);
    }

    #[test]
    fn gen_ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for r in gen_time_ranges(50, 10, 100, &mut rng) {
            assert!(r.t0 <= r.t1 && r.t1 < 50);
            assert_eq!(r.t1 - r.t0 + 1, 10);
        }
        // phi larger than horizon clamps.
        for r in gen_time_ranges(5, 100, 10, &mut rng) {
            assert_eq!((r.t0, r.t1), (0, 4));
        }
    }

    #[test]
    fn dcg_ordering_matters() {
        // Putting the most relevant cell first scores higher.
        let rel = vec![0u64, 10, 5];
        let good = dcg(&[1, 2], &rel);
        let bad = dcg(&[2, 1], &rel);
        assert!(good > bad);
    }

    #[test]
    fn top_cells_tie_break_deterministic() {
        let agg = vec![5u64, 5, 5, 1];
        assert_eq!(top_cells(&agg, 2), vec![0, 1]);
    }
}
