//! Property-based tests for the geospatial substrate.

use proptest::prelude::*;
use retrasyn_geo::{
    BoundingBox, CellId, EventTimeline, GriddedDataset, GriddedStream, Point, QuadGrid, Space,
    StreamDataset, Trajectory, TransitionState, TransitionTable, UniformGrid,
};

proptest! {
    /// Every point in the box maps to a valid cell, and the cell's center
    /// maps back to the same cell.
    #[test]
    fn cell_of_always_valid(k in 1u32..=32, x in 0.0f64..1.0, y in 0.0f64..1.0) {
        let g = UniformGrid::unit(k).compile();
        let c = g.cell_of(&Point::new(x, y));
        prop_assert!(c.index() < g.num_cells());
        prop_assert_eq!(g.cell_of(&g.center(c)), c);
    }

    /// Out-of-box points clamp to valid cells.
    #[test]
    fn cell_of_clamps(k in 1u32..=16, x in -10.0f64..10.0, y in -10.0f64..10.0) {
        let g = UniformGrid::unit(k).compile();
        prop_assert!(g.cell_of(&Point::new(x, y)).index() < g.num_cells());
    }

    /// Adjacency is symmetric and reflexive; neighborhoods agree with it.
    #[test]
    fn adjacency_properties(k in 1u32..=12, a in 0usize..144, b in 0usize..144) {
        let g = UniformGrid::unit(k).compile();
        let n = g.num_cells();
        let a = CellId((a % n) as u32);
        let b = CellId((b % n) as u32);
        prop_assert!(g.are_adjacent(a, a));
        prop_assert_eq!(g.are_adjacent(a, b), g.are_adjacent(b, a));
        prop_assert_eq!(g.are_adjacent(a, b), g.neighbors(a).contains(&b));
    }

    /// The transition index is a bijection over the whole domain.
    #[test]
    fn transition_index_bijection(k in 1u32..=10) {
        let g = UniformGrid::unit(k);
        let t = TransitionTable::new(&g);
        for idx in 0..t.len() {
            prop_assert_eq!(t.index_of(t.state_of(idx)), Some(idx));
        }
    }

    /// Domain size formula: moves + 2|C|, with moves <= 9|C|.
    #[test]
    fn transition_domain_size(k in 1u32..=16) {
        let t = TransitionTable::new(&UniformGrid::unit(k));
        prop_assert_eq!(t.len(), t.num_moves() + 2 * t.num_cells());
        prop_assert!(t.num_moves() <= 9 * t.num_cells());
        // Lower bound: every cell at least reaches itself... and for k >= 2
        // at least 4 cells (2x2 block).
        let min_block = if k == 1 { 1 } else { 4 };
        prop_assert!(t.num_moves() >= min_block * t.num_cells());
    }

    /// Discretization splits produce only adjacency-respecting segments, and
    /// segment cells/points are conserved.
    #[test]
    fn discretize_preserves_points(
        k in 2u32..=8,
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..40),
        start in 0u64..10,
    ) {
        let g = UniformGrid::unit(k).compile();
        let points: Vec<Point> = seed_pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let ds = StreamDataset::new(vec![Trajectory::new(0, start, points.clone())]);
        let gd = ds.discretize(&g);
        // Total cells = total raw points.
        let total: usize = gd.iter().map(|s| s.len()).sum();
        prop_assert_eq!(total, points.len());
        // Segments respect adjacency and tile the time axis contiguously.
        let mut expected_next = start;
        for s in gd.iter() {
            prop_assert_eq!(s.start, expected_next);
            for w in s.cells.windows(2) {
                prop_assert!(g.are_adjacent(w[0], w[1]));
            }
            expected_next = s.end() + 1;
        }
    }

    /// Timeline events per stream: 1 enter + (len−1) moves + at most 1 quit;
    /// every move is adjacent; every event indexes into the domain.
    #[test]
    fn timeline_event_structure(
        k in 2u32..=6,
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..30),
    ) {
        let g = UniformGrid::unit(k);
        let points: Vec<Point> = seed_pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let n_points = points.len();
        let ds = StreamDataset::new(vec![Trajectory::new(0, 0, points)]);
        let gd = ds.discretize(&g);
        let table = TransitionTable::new(&g);
        let tl = EventTimeline::build(&gd);
        let mut enters = 0usize;
        let mut moves = 0usize;
        let mut quits = 0usize;
        for t in 0..tl.horizon() {
            for e in tl.at(t) {
                prop_assert!(table.index_of(e.state).is_some());
                match e.state {
                    TransitionState::Enter(_) => enters += 1,
                    TransitionState::Move { .. } => moves += 1,
                    TransitionState::Quit(_) => quits += 1,
                }
            }
        }
        let segs = gd.num_streams();
        prop_assert_eq!(enters, segs);
        prop_assert_eq!(moves, n_points - segs);
        // The final segment survives to the horizon (no quit recorded);
        // all earlier segments quit.
        prop_assert_eq!(quits, segs - 1);
    }

    /// The arena-backed columnar constructor is equivalent to flattening
    /// owned rows: building a dataset via `from_columns` yields exactly the
    /// same views, owned round-trips, and aggregate counts as
    /// `from_streams` over the same content.
    #[test]
    fn arena_backed_dataset_matches_from_streams(
        k in 2u32..=6,
        specs in prop::collection::vec((0u64..20, 1usize..12, 0usize..1000), 1..25),
    ) {
        let g = UniformGrid::unit(k).compile();
        let mut streams = Vec::new();
        let (mut ids, mut starts, mut offsets, mut cells) =
            (Vec::new(), Vec::new(), vec![0usize], Vec::new());
        for (i, &(start, len, seed)) in specs.iter().enumerate() {
            // Deterministic adjacency-respecting walk from a seeded cell.
            let mut cur = CellId((seed % g.num_cells()) as u32);
            let mut walk = vec![cur];
            for step in 1..len {
                let neigh = g.neighbors(cur);
                cur = neigh[(seed + step) % neigh.len()];
                walk.push(cur);
            }
            ids.push(i as u64);
            starts.push(start);
            cells.extend_from_slice(&walk);
            offsets.push(cells.len());
            streams.push(GriddedStream { id: i as u64, start, cells: walk });
        }
        let horizon = streams.iter().map(|s| s.end() + 1).max().unwrap();
        let rows = GriddedDataset::from_streams(g.clone(), streams.clone(), horizon);
        let cols = GriddedDataset::from_columns(g.clone(), ids, starts, offsets, cells, horizon);
        prop_assert_eq!(&rows, &cols);
        prop_assert!(rows.iter().eq(cols.iter()));
        prop_assert_eq!(cols.to_streams(), streams);
        prop_assert_eq!(rows.total_counts(), cols.total_counts());
        for t in 0..horizon {
            prop_assert_eq!(rows.snapshot_counts(t), cols.snapshot_counts(t));
            prop_assert_eq!(rows.active_count(t), cols.active_count(t));
        }
    }

    /// Quad-tree leaves tile the bounding box exactly: in max-depth integer
    /// units the leaf areas sum to the full square and never overlap
    /// (`fit` + `try_from_leaves` agree), and every point maps to exactly
    /// one leaf whose rect contains it (point→cell is total).
    #[test]
    fn quad_leaves_tile_and_locate(
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..80),
        cap in 1usize..12,
        depth in 1u8..=5,
        probe in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let points: Vec<Point> = seed_pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let quad = QuadGrid::fit(BoundingBox::unit(), &points, cap, depth);
        // Exact tiling in integer units.
        let total = 1u64 << (2 * depth);
        let covered: u64 = quad
            .leaves()
            .iter()
            .map(|l| {
                let s = l.side(depth) as u64;
                s * s
            })
            .sum();
        prop_assert_eq!(covered, total);
        // from_leaves accepts its own output (overlap/hole detector).
        let rebuilt = QuadGrid::from_leaves(BoundingBox::unit(), depth, quad.leaves().to_vec());
        prop_assert_eq!(&quad, &rebuilt);
        // point→cell is total and consistent with the rect geometry.
        let topo = quad.compile();
        let p = Point::new(probe.0, probe.1);
        let c = topo.cell_of(&p);
        prop_assert!(c.index() < topo.num_cells());
        prop_assert!(topo.cell_rect(c).contains(&p));
    }

    /// Quad-tree adjacency is symmetric, self-inclusive, and each row is
    /// strictly ascending.
    #[test]
    fn quad_adjacency_invariants(
        seed_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..60),
        cap in 1usize..10,
        depth in 1u8..=4,
    ) {
        let points: Vec<Point> = seed_pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let topo = QuadGrid::fit(BoundingBox::unit(), &points, cap, depth).compile();
        for a in topo.cells() {
            let row = topo.neighbors(a);
            prop_assert!(row.binary_search(&a).is_ok(), "row of {:?} missing self", a);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row of {:?} not ascending", a);
            for &b in row {
                prop_assert!(topo.are_adjacent(b, a), "asymmetric adjacency {:?} {:?}", a, b);
            }
        }
    }

    /// Subsampling keeps the requested fraction within rounding.
    #[test]
    fn subsample_fraction(n in 1usize..200, denom in 1usize..10) {
        let fraction = 1.0 / denom as f64;
        let trajs: Vec<Trajectory> = (0..n)
            .map(|i| Trajectory::new(i as u64, 0, vec![Point::new(0.5, 0.5)]))
            .collect();
        let ds = StreamDataset::new(trajs);
        let sub = ds.subsample(fraction);
        let expected = n.div_ceil(denom);
        prop_assert_eq!(sub.trajectories().len(), expected);
    }
}

/// Pinned: the compiled uniform topology keeps the legacy neighbor
/// order for every cell — each row is exactly the cells within Chebyshev
/// distance 1, ascending (the y-major 3×3 scan) — the bit-compatibility
/// contract that keeps blessed snapshots valid.
#[test]
fn uniform_topology_matches_legacy_neighborhood() {
    for k in [1u32, 2, 3, 32] {
        let topo = UniformGrid::unit(k).compile();
        assert_eq!(topo.num_cells(), (k * k) as usize, "k={k}");
        for c in topo.cells() {
            let (cx, cy) = (c.0 % k, c.0 / k);
            let oracle: Vec<CellId> = (0..k * k)
                .map(CellId)
                .filter(|d| (d.0 % k).abs_diff(cx) <= 1 && (d.0 / k).abs_diff(cy) <= 1)
                .collect();
            assert_eq!(topo.neighbors(c), oracle, "neighbor order diverged at k={k}, cell {c:?}");
        }
    }
}

#[test]
fn bbox_grid_interop_nonunit() {
    let bb = BoundingBox::new(Point::new(100.0, -50.0), Point::new(300.0, 75.0));
    let g = UniformGrid::new(12, bb).compile();
    for c in g.cells() {
        assert_eq!(g.cell_of(&g.center(c)), c);
    }
}

/// The discretizer as it was before uniform adjacency was answered from
/// coordinates: each trajectory's cells staged in a buffer, split at every
/// pair the CSR row binary search calls non-adjacent.
fn discretize_by_csr(dataset: &StreamDataset, space: &UniformGrid) -> Vec<GriddedStream> {
    let topo = space.compile();
    let mut out = Vec::new();
    for traj in dataset.trajectories() {
        let seg: Vec<CellId> = traj.points.iter().map(|p| topo.cell_of(p)).collect();
        let mut from = 0;
        for i in 1..=seg.len() {
            if i == seg.len() || topo.neighbors(seg[i - 1]).binary_search(&seg[i]).is_err() {
                let (id, start) = (out.len() as u64, traj.start + from as u64);
                out.push(GriddedStream { id, start, cells: seg[from..i].to_vec() });
                from = i;
            }
        }
    }
    out
}

proptest! {
    /// Uniform adjacency from cell coordinates agrees with the CSR row
    /// binary search on every cell pair, and discretization splits
    /// streams exactly where the staged CSR-based discretizer did, for
    /// points inside the box, on cell edges and corners, and outside it.
    #[test]
    fn uniform_adjacency_matches_csr_search(
        k in 1u32..=12,
        (x0, y0) in (-100.0f64..100.0, -100.0f64..100.0),
        (w, h) in (0.01f64..50.0, 0.01f64..50.0),
        pts in prop::collection::vec(
            (0u8..4, (0u32..=12, 0u32..=12), (-0.5f64..1.5, -0.5f64..1.5)),
            2..60,
        ),
    ) {
        let bbox = BoundingBox::new(Point::new(x0, y0), Point::new(x0 + w, y0 + h));
        let grid = UniformGrid::new(k, bbox);
        let topo = grid.compile();
        for a in topo.cells() {
            for b in topo.cells() {
                let csr = topo.neighbors(a).binary_search(&b).is_ok();
                prop_assert_eq!(topo.are_adjacent(a, b), csr, "k={} {:?} {:?}", k, a, b);
            }
        }
        // A cell edge as the compiled rects place it (outer edges exact).
        let edge = |i: u32, lo: f64, hi: f64| match i % (k + 1) {
            0 => lo,
            i if i == k => hi,
            i => lo + i as f64 / k as f64 * (hi - lo),
        };
        let (min, max) = (bbox.min, bbox.max);
        let points: Vec<Point> = pts
            .iter()
            .map(|&(kind, (i, j), (fx, fy))| {
                let free = (min.x + fx * w, min.y + fy * h);
                let (ex, ey) = (edge(i, min.x, max.x), edge(j, min.y, max.y));
                let (x, y) = match kind {
                    0 => free,
                    1 => (ex, free.1),
                    2 => (free.0, ey),
                    _ => (ex, ey),
                };
                Point::new(x, y)
            })
            .collect();
        let half = points.len() / 2;
        let dataset = StreamDataset::new(vec![
            Trajectory::new(0, 3, points[..half].to_vec()),
            Trajectory::new(1, 0, vec![points[0]]),
            Trajectory::new(2, 5, points[half..].to_vec()),
        ]);
        let gridded = GriddedDataset::from_dataset(&dataset, &grid);
        prop_assert_eq!(gridded.to_streams(), discretize_by_csr(&dataset, &grid));
    }
}
