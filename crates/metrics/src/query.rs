//! Spatio-temporal range query error (paper §V-B, "Query Error").
//!
//! A query counts the spatial points falling inside a random cell-aligned
//! rectangle during a time range of size φ. The error of one query is the
//! relative error with a *sanity bound* (following AdaTrace/LDPTrace):
//!
//! ```text
//! err(Q) = |Q(T_orig) − Q(T_syn)| / max(Q(T_orig), sanity)
//! ```
//!
//! where `sanity` is a small fraction of the total point count, preventing
//! queries with near-zero true answers from dominating the average.

use rand::Rng;
use retrasyn_geo::{GriddedDataset, Topology};

/// A cell-aligned spatio-temporal range query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeQuery {
    /// Inclusive cell-x range.
    pub x0: u16,
    /// Inclusive upper cell-x.
    pub x1: u16,
    /// Inclusive cell-y range.
    pub y0: u16,
    /// Inclusive upper cell-y.
    pub y1: u16,
    /// Inclusive time range start.
    pub t0: u64,
    /// Inclusive time range end.
    pub t1: u64,
}

impl RangeQuery {
    /// Whether the query region contains a cell.
    ///
    /// # Panics
    ///
    /// Cell-aligned queries are defined on uniform topologies only; use
    /// [`ContinuousQuery`] for adaptive discretizations.
    pub fn contains_cell(&self, topology: &Topology, cell: retrasyn_geo::CellId) -> bool {
        let k = uniform_k(topology);
        let (x, y) = (cell.0 % k, cell.0 / k);
        x >= self.x0 as u32 && x <= self.x1 as u32 && y >= self.y0 as u32 && y <= self.y1 as u32
    }
}

/// The uniform granularity of a topology, for cell-aligned workloads.
fn uniform_k(topology: &Topology) -> u32 {
    topology.uniform_k().expect(
        "cell-aligned range queries require a uniform topology; \
         use continuous queries for adaptive discretizations",
    )
}

/// Generate `count` random queries: rectangles covering 20–50% of each axis,
/// time ranges of size `phi` (clipped to the horizon).
pub fn gen_queries<R: Rng + ?Sized>(
    topology: &Topology,
    horizon: u64,
    phi: u64,
    count: usize,
    rng: &mut R,
) -> Vec<RangeQuery> {
    assert!(horizon > 0, "cannot query an empty horizon");
    let k = uniform_k(topology) as u16;
    let phi = phi.clamp(1, horizon);
    (0..count)
        .map(|_| {
            let span_x =
                ((k as f64 * (0.2 + 0.3 * rng.random::<f64>())).round() as u16).clamp(1, k);
            let span_y =
                ((k as f64 * (0.2 + 0.3 * rng.random::<f64>())).round() as u16).clamp(1, k);
            let x0 = rng.random_range(0..=(k - span_x));
            let y0 = rng.random_range(0..=(k - span_y));
            let t0 = rng.random_range(0..=(horizon - phi));
            RangeQuery { x0, x1: x0 + span_x - 1, y0, y1: y0 + span_y - 1, t0, t1: t0 + phi - 1 }
        })
        .collect()
}

/// Evaluate one query against precomputed per-timestamp cell counts.
pub fn answer(counts: &[Vec<u32>], topology: &Topology, q: &RangeQuery) -> u64 {
    let k = uniform_k(topology);
    let mut total = 0u64;
    let t1 = (q.t1 as usize).min(counts.len().saturating_sub(1));
    for row in counts.iter().take(t1 + 1).skip(q.t0 as usize) {
        for y in q.y0..=q.y1 {
            for x in q.x0..=q.x1 {
                total += row[(y as u32 * k + x as u32) as usize] as u64;
            }
        }
    }
    total
}

/// A continuous-space spatio-temporal range query (used for the
/// granularity sweep, Fig. 6, where cell-aligned queries would mask the
/// localization error of coarse grids).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContinuousQuery {
    /// Spatial rectangle `[x0, x1] × [y0, y1]` in data coordinates.
    pub x0: f64,
    /// Upper x bound.
    pub x1: f64,
    /// Lower y bound.
    pub y0: f64,
    /// Upper y bound.
    pub y1: f64,
    /// Inclusive time range start.
    pub t0: u64,
    /// Inclusive time range end.
    pub t1: u64,
}

/// Generate `count` random continuous queries over `bbox` (20–50% spans).
pub fn gen_continuous_queries<R: Rng + ?Sized>(
    bbox: &retrasyn_geo::BoundingBox,
    horizon: u64,
    phi: u64,
    count: usize,
    rng: &mut R,
) -> Vec<ContinuousQuery> {
    assert!(horizon > 0, "cannot query an empty horizon");
    let phi = phi.clamp(1, horizon);
    (0..count)
        .map(|_| {
            let sx = bbox.width() * (0.2 + 0.3 * rng.random::<f64>());
            let sy = bbox.height() * (0.2 + 0.3 * rng.random::<f64>());
            let x0 = bbox.min.x + rng.random::<f64>() * (bbox.width() - sx);
            let y0 = bbox.min.y + rng.random::<f64>() * (bbox.height() - sy);
            let t0 = rng.random_range(0..=(horizon - phi));
            ContinuousQuery { x0, x1: x0 + sx, y0, y1: y0 + sy, t0, t1: t0 + phi - 1 }
        })
        .collect()
}

/// Exact answer over raw continuous trajectories.
pub fn continuous_answer_raw(dataset: &retrasyn_geo::StreamDataset, q: &ContinuousQuery) -> u64 {
    let mut total = 0u64;
    for traj in dataset.trajectories() {
        let lo = q.t0.max(traj.start);
        let hi = q.t1.min(traj.end());
        for t in lo..=hi.min(traj.end()) {
            if lo > hi {
                break;
            }
            if let Some(p) = traj.point_at(t) {
                if p.x >= q.x0 && p.x <= q.x1 && p.y >= q.y0 && p.y <= q.y1 {
                    total += 1;
                }
            }
        }
    }
    total
}

/// Expected answer over a gridded database: each occupant of a cell is
/// assumed uniform within the cell (the LDPTrace convention), so a cell
/// contributes `count × |cell ∩ rect| / |cell|`.
pub fn continuous_answer_gridded(dataset: &GriddedDataset, q: &ContinuousQuery) -> f64 {
    let topology = dataset.topology();
    // Fractional overlap between the query rectangle and each cell's
    // region; works for any topology (uniform or adaptive) via cell_rect.
    let counts = crate::per_ts_cell_counts(dataset);
    let mut total = 0.0;
    let t1 = (q.t1 as usize).min(counts.len().saturating_sub(1));
    for row in counts.iter().take(t1 + 1).skip(q.t0 as usize) {
        for cell in topology.cells() {
            let c = row[cell.index()];
            if c == 0 {
                continue;
            }
            let r = topology.cell_rect(cell);
            let ox = (q.x1.min(r.max.x) - q.x0.max(r.min.x)).max(0.0);
            let oy = (q.y1.min(r.max.y) - q.y0.max(r.min.y)).max(0.0);
            total += c as f64 * (ox * oy) / (r.width() * r.height());
        }
    }
    total
}

/// Mean relative error of continuous queries: exact counts on the raw
/// original stream vs expected counts on the gridded synthetic release.
pub fn continuous_query_error(
    orig: &retrasyn_geo::StreamDataset,
    syn: &GriddedDataset,
    queries: &[ContinuousQuery],
    sanity_fraction: f64,
) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    let total_points: usize = orig.trajectories().iter().map(|t| t.len()).sum();
    let sanity = (sanity_fraction * total_points as f64).max(1.0);
    let mut sum = 0.0;
    for q in queries {
        let o = continuous_answer_raw(orig, q) as f64;
        let s = continuous_answer_gridded(syn, q);
        sum += (o - s).abs() / o.max(sanity);
    }
    sum / queries.len() as f64
}

/// Mean relative query error with sanity bound `sanity_fraction · |points|`.
pub fn query_error(
    orig: &GriddedDataset,
    syn: &GriddedDataset,
    queries: &[RangeQuery],
    sanity_fraction: f64,
) -> f64 {
    assert_eq!(orig.topology(), syn.topology(), "datasets must share a discretization");
    if queries.is_empty() {
        return 0.0;
    }
    let topology = orig.topology();
    let oc = crate::per_ts_cell_counts(orig);
    let sc = crate::per_ts_cell_counts(syn);
    let total_points: u64 = oc.iter().map(|row| row.iter().map(|&c| c as u64).sum::<u64>()).sum();
    let sanity = (sanity_fraction * total_points as f64).max(1.0);
    let mut sum = 0.0;
    for q in queries {
        let o = answer(&oc, topology, q) as f64;
        let s = answer(&sc, topology, q) as f64;
        sum += (o - s).abs() / o.max(sanity);
    }
    sum / queries.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use retrasyn_geo::{GriddedStream, Point, Space, StreamDataset, Trajectory, UniformGrid};

    fn dataset(grid: &UniformGrid) -> GriddedDataset {
        let streams = vec![
            GriddedStream { id: 0, start: 0, cells: vec![grid.cell_at(0, 0), grid.cell_at(1, 1)] },
            GriddedStream { id: 1, start: 1, cells: vec![grid.cell_at(3, 3), grid.cell_at(3, 2)] },
        ];
        GriddedDataset::from_streams(grid.clone(), streams, 3)
    }

    #[test]
    fn answer_counts_points_in_box() {
        let grid = UniformGrid::unit(4);
        let ds = dataset(&grid);
        let counts = crate::per_ts_cell_counts(&ds);
        let topo = ds.topology();
        // Whole space, whole time: all 4 points.
        let all = RangeQuery { x0: 0, x1: 3, y0: 0, y1: 3, t0: 0, t1: 2 };
        assert_eq!(answer(&counts, topo, &all), 4);
        // Bottom-left quadrant over t=0..1: cells (0,0),(1,1) -> 2 points.
        let bl = RangeQuery { x0: 0, x1: 1, y0: 0, y1: 1, t0: 0, t1: 1 };
        assert_eq!(answer(&counts, topo, &bl), 2);
        // t=1 only, top-right: (3,3) and (1,1) not in box... (3,2..3) -> 1.
        let tr = RangeQuery { x0: 2, x1: 3, y0: 2, y1: 3, t0: 1, t1: 1 };
        assert_eq!(answer(&counts, topo, &tr), 1);
        // Beyond-horizon end is clipped.
        let over = RangeQuery { x0: 0, x1: 3, y0: 0, y1: 3, t0: 0, t1: 99 };
        assert_eq!(answer(&counts, topo, &over), 4);
    }

    #[test]
    fn identical_datasets_zero_error() {
        let grid = UniformGrid::unit(4);
        let ds = dataset(&grid);
        let mut rng = StdRng::seed_from_u64(1);
        let queries = gen_queries(ds.topology(), 3, 2, 50, &mut rng);
        assert_eq!(query_error(&ds, &ds, &queries, 0.001), 0.0);
    }

    #[test]
    fn empty_synthetic_gives_error_one_on_covered_queries() {
        let grid = UniformGrid::unit(4);
        let orig = dataset(&grid);
        let syn = GriddedDataset::from_streams(grid.clone(), vec![], 3);
        // A query covering everything: |4 - 0| / max(4, sanity) = 1.
        let q = RangeQuery { x0: 0, x1: 3, y0: 0, y1: 3, t0: 0, t1: 2 };
        let e = query_error(&orig, &syn, &[q], 0.001);
        assert!((e - 1.0).abs() < 1e-12, "e={e}");
    }

    #[test]
    fn sanity_bound_caps_small_queries() {
        let grid = UniformGrid::unit(4);
        let orig = dataset(&grid);
        // Synthetic has one extra point where orig has none.
        let syn = GriddedDataset::from_streams(
            grid.clone(),
            vec![GriddedStream { id: 9, start: 0, cells: vec![grid.cell_at(0, 3)] }],
            3,
        );
        let q = RangeQuery { x0: 0, x1: 0, y0: 3, y1: 3, t0: 0, t1: 0 };
        // True answer 0; with sanity = max(0.5 * 4, 1) = 2 the error is 1/2.
        let e = query_error(&orig, &syn, &[q], 0.5);
        assert!((e - 0.5).abs() < 1e-12, "e={e}");
    }

    #[test]
    fn gen_queries_are_well_formed() {
        let topo = UniformGrid::unit(10).compile();
        let mut rng = StdRng::seed_from_u64(2);
        for q in gen_queries(&topo, 100, 10, 200, &mut rng) {
            assert!(q.x0 <= q.x1 && q.x1 < 10);
            assert!(q.y0 <= q.y1 && q.y1 < 10);
            assert!(q.t0 <= q.t1 && q.t1 < 100);
            assert_eq!(q.t1 - q.t0 + 1, 10);
        }
    }

    #[test]
    fn gen_queries_phi_clamped_to_horizon() {
        let topo = UniformGrid::unit(5).compile();
        let mut rng = StdRng::seed_from_u64(3);
        let qs = gen_queries(&topo, 4, 100, 10, &mut rng);
        for q in qs {
            assert!(q.t1 < 4);
        }
    }

    #[test]
    fn contains_cell() {
        let grid = UniformGrid::unit(4);
        let topo = grid.compile();
        let q = RangeQuery { x0: 1, x1: 2, y0: 1, y1: 2, t0: 0, t1: 0 };
        assert!(q.contains_cell(&topo, grid.cell_at(1, 2)));
        assert!(!q.contains_cell(&topo, grid.cell_at(0, 0)));
        assert!(!q.contains_cell(&topo, grid.cell_at(3, 1)));
    }

    #[test]
    fn continuous_queries_well_formed() {
        let bbox = retrasyn_geo::BoundingBox::unit();
        let mut rng = StdRng::seed_from_u64(8);
        for q in gen_continuous_queries(&bbox, 50, 10, 100, &mut rng) {
            assert!(q.x0 < q.x1 && q.x1 <= 1.0 && q.x0 >= 0.0);
            assert!(q.y0 < q.y1 && q.y1 <= 1.0 && q.y0 >= 0.0);
            assert_eq!(q.t1 - q.t0 + 1, 10);
        }
    }

    #[test]
    fn continuous_answer_raw_counts_points() {
        let ds = StreamDataset::new(vec![Trajectory::new(
            0,
            0,
            vec![Point::new(0.1, 0.1), Point::new(0.6, 0.6), Point::new(0.9, 0.9)],
        )]);
        let q = ContinuousQuery { x0: 0.0, x1: 0.7, y0: 0.0, y1: 0.7, t0: 0, t1: 2 };
        assert_eq!(continuous_answer_raw(&ds, &q), 2);
        let q_t = ContinuousQuery { x0: 0.0, x1: 1.0, y0: 0.0, y1: 1.0, t0: 1, t1: 1 };
        assert_eq!(continuous_answer_raw(&ds, &q_t), 1);
    }

    #[test]
    fn continuous_answer_gridded_uses_overlap_fraction() {
        let grid = UniformGrid::unit(2);
        // One stream sitting in cell (0,0) (covering [0,0.5]^2) at t=0.
        let ds = GriddedDataset::from_streams(
            grid.clone(),
            vec![GriddedStream { id: 0, start: 0, cells: vec![grid.cell_at(0, 0)] }],
            1,
        );
        // Query covering the left half of that cell: expect 0.5 points.
        let q = ContinuousQuery { x0: 0.0, x1: 0.25, y0: 0.0, y1: 0.5, t0: 0, t1: 0 };
        let ans = continuous_answer_gridded(&ds, &q);
        assert!((ans - 0.5).abs() < 1e-12, "ans={ans}");
        // Query covering the whole cell: expect exactly 1.
        let q_full = ContinuousQuery { x0: 0.0, x1: 0.5, y0: 0.0, y1: 0.5, t0: 0, t1: 0 };
        assert!((continuous_answer_gridded(&ds, &q_full) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn continuous_error_zero_for_matching_uniform_data() {
        // Raw points at cell centers vs their own gridding: the expected
        // overlap answer differs only by the within-cell approximation;
        // for a full-cover query the error is exactly zero.
        let grid = UniformGrid::unit(4);
        let ds = StreamDataset::new(vec![Trajectory::new(
            0,
            0,
            vec![Point::new(0.4, 0.4), Point::new(0.6, 0.6)],
        )]);
        let gd = ds.discretize(&grid);
        let q = ContinuousQuery { x0: 0.0, x1: 1.0, y0: 0.0, y1: 1.0, t0: 0, t1: 1 };
        let e = continuous_query_error(&ds, &gd, &[q], 0.001);
        assert!(e < 1e-12, "e={e}");
    }

    #[test]
    fn coarse_grid_cannot_localize() {
        // A tight cluster of raw points; the K=1 gridding smears them over
        // the whole space, so a small query far from the cluster sees
        // phantom mass -> large continuous error. A fine grid localizes.
        let points: Vec<Point> = (0..50).map(|_| Point::new(0.05, 0.05)).collect();
        let ds = StreamDataset::new(vec![Trajectory::new(0, 0, points)]);
        let q = ContinuousQuery { x0: 0.6, x1: 0.9, y0: 0.6, y1: 0.9, t0: 0, t1: 49 };
        let coarse =
            continuous_query_error(&ds, &ds.discretize(&UniformGrid::unit(1)), &[q], 0.001);
        let fine = continuous_query_error(&ds, &ds.discretize(&UniformGrid::unit(10)), &[q], 0.001);
        assert!(coarse > 10.0 * fine.max(1e-9), "coarse={coarse} fine={fine}");
    }

    #[test]
    fn query_error_from_raw_trajectories() {
        // End-to-end: raw points -> gridded -> query error vs a shifted copy.
        let grid = UniformGrid::unit(5);
        let orig = StreamDataset::new(vec![Trajectory::new(
            0,
            0,
            vec![Point::new(0.1, 0.1), Point::new(0.3, 0.1), Point::new(0.5, 0.1)],
        )])
        .discretize(&grid);
        let shifted = StreamDataset::new(vec![Trajectory::new(
            0,
            0,
            vec![Point::new(0.1, 0.9), Point::new(0.3, 0.9), Point::new(0.5, 0.9)],
        )])
        .discretize(&grid);
        let q = RangeQuery { x0: 0, x1: 4, y0: 0, y1: 0, t0: 0, t1: 2 };
        let e = query_error(&orig, &shifted, &[q], 0.001);
        assert!((e - 1.0).abs() < 1e-12);
    }
}
