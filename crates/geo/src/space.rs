//! Pluggable discretization: compile any space into a flat [`Topology`].
//!
//! The paper fixes a uniform K×K grid (§III-B). Everything downstream of
//! discretization, though, only ever needs four facts about the space:
//! how many cells there are, which cells are adjacent (the reachability
//! constraint), which cell contains a point, and what continuous region a
//! cell covers. A [`Space`] is anything that can *compile* those facts
//! into a [`Topology`] — a dense cell universe plus a CSR adjacency — and
//! the rest of the system (transition domain, sampler tables, metrics,
//! I/O) is driven entirely by the compiled tables.
//!
//! Two compilers ship today:
//!
//! - [`UniformGrid`]: the paper's K×K grid (row-major ids, 3×3
//!   neighborhoods; the layout contract is stated on the type).
//! - [`QuadGrid`]: a density-adaptive quad tree in the PrivTrace style —
//!   cells split while their (public / first-round) population estimate
//!   exceeds a threshold, so the space stays coarse where data is thin and
//!   refines where it is dense. Adjacency is Chebyshev-style: two leaves
//!   are adjacent when their closed squares touch (corners included), so
//!   leaves of different depths interconnect correctly.
//!
//! A road network is just a third compiler: nodes or segments become
//! cells, graph edges become the CSR rows.

use crate::grid::CellId;
use crate::point::{BoundingBox, Point};
use std::sync::Arc;

/// Deepest supported quad-tree refinement (`4^12` ≈ 16.7M leaves — far
/// past what a `u32` cell universe needs headroom for).
pub const MAX_QUAD_DEPTH: u8 = 12;

/// A discretization of continuous space that can be compiled into a flat
/// [`Topology`].
///
/// Implementors describe the space; [`Space::compile`] lowers it into the
/// dense table form every downstream consumer operates on. Compiling is
/// deterministic: the same space always yields the same cell numbering
/// and adjacency.
pub trait Space {
    /// Compile this space into its table-driven topology.
    fn compile(&self) -> Topology;

    /// Compile into a shared handle. Spaces that already *are* compiled
    /// (a [`Topology`] behind an `Arc`) override this to avoid cloning
    /// the tables.
    fn compile_shared(&self) -> Arc<Topology> {
        Arc::new(self.compile())
    }
}

impl<S: Space + ?Sized> Space for &S {
    fn compile(&self) -> Topology {
        (**self).compile()
    }

    fn compile_shared(&self) -> Arc<Topology> {
        (**self).compile_shared()
    }
}

impl Space for Topology {
    fn compile(&self) -> Topology {
        self.clone()
    }
}

impl Space for Arc<Topology> {
    fn compile(&self) -> Topology {
        (**self).clone()
    }

    fn compile_shared(&self) -> Arc<Topology> {
        Arc::clone(self)
    }
}

/// Compact, comparable description of how a [`Topology`] was built.
///
/// Two topologies are equal exactly when their descriptors are equal (the
/// compiled tables are a pure function of the descriptor), so sessions,
/// WAL fingerprints and dataset headers carry the descriptor rather than
/// the tables.
#[derive(Debug, Clone, PartialEq)]
pub enum SpaceDescriptor {
    /// A uniform K×K grid over a bounding box.
    Uniform {
        /// Grid granularity K.
        k: u32,
        /// Covered bounding box.
        bbox: BoundingBox,
    },
    /// An adaptive quad tree over a bounding box.
    Quad {
        /// Covered bounding box.
        bbox: BoundingBox,
        /// Maximum refinement depth D (leaf coordinates are expressed in
        /// `2^D × 2^D` integer units).
        depth: u8,
        /// The leaves, in canonical `(y, x)` order.
        leaves: Vec<QuadLeaf>,
    },
}

/// One quad-tree leaf: an axis-aligned square anchored at `(x, y)` in
/// max-depth integer units (`2^D` units per bbox side), covering
/// `2^(D − depth)` units per side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadLeaf {
    /// Anchor column in max-depth units (a multiple of the leaf side).
    pub x: u32,
    /// Anchor row in max-depth units (a multiple of the leaf side).
    pub y: u32,
    /// Depth of this leaf (0 = the whole box, D = finest).
    pub depth: u8,
}

impl QuadLeaf {
    /// Side length in max-depth units within a tree of depth `max_depth`.
    #[inline]
    pub fn side(&self, max_depth: u8) -> u32 {
        1u32 << (max_depth - self.depth)
    }
}

/// Point→cell lookup strategy of a compiled topology.
#[derive(Debug, Clone)]
enum Locator {
    /// Row-major arithmetic (see [`UniformGrid`]).
    Uniform { k: u32 },
    /// Bit-walk descent through the quad tree. `nodes[i][q]` is either a
    /// leaf id (`>= 0`) or the negated index of the child node (`< 0`);
    /// empty means the tree is the single root leaf.
    Quad { depth: u8, nodes: Vec<[i64; 4]> },
}

/// A discretization compiled to flat tables: the dense cell universe,
/// per-cell geometry, a CSR adjacency, and a point locator.
///
/// Cell ids are dense (`0..num_cells`). Adjacency rows are ascending and
/// always include the cell itself — the paper's reachability constraint
/// generalized beyond the 3×3 window.
#[derive(Debug, Clone)]
pub struct Topology {
    descriptor: SpaceDescriptor,
    bbox: BoundingBox,
    rects: Vec<BoundingBox>,
    adj_offsets: Vec<u32>,
    adj: Vec<CellId>,
    locator: Locator,
}

impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        // Tables are a pure function of the descriptor.
        self.descriptor == other.descriptor
    }
}

impl Topology {
    /// How this topology was built.
    #[inline]
    pub fn descriptor(&self) -> &SpaceDescriptor {
        &self.descriptor
    }

    /// The covered bounding box.
    #[inline]
    pub fn bbox(&self) -> &BoundingBox {
        &self.bbox
    }

    /// Number of cells in the dense universe.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.rects.len()
    }

    /// The continuous region cell `c` covers. Cells tile the bounding box
    /// exactly (shared edges repeat between neighbors).
    #[inline]
    pub fn cell_rect(&self, c: CellId) -> &BoundingBox {
        &self.rects[c.index()]
    }

    /// Continuous center point of a cell.
    pub fn center(&self, c: CellId) -> Point {
        let r = self.cell_rect(c);
        Point::new((r.min.x + r.max.x) * 0.5, (r.min.y + r.max.y) * 0.5)
    }

    /// Uniformly random point inside a cell (two `f64` draws: x then y).
    pub fn random_point_in<R: rand::Rng + ?Sized>(&self, c: CellId, rng: &mut R) -> Point {
        let r = self.cell_rect(c);
        Point::new(
            r.min.x + rng.random::<f64>() * r.width(),
            r.min.y + rng.random::<f64>() * r.height(),
        )
    }

    /// Cell containing point `p` (points outside the box are clamped in).
    pub fn cell_of(&self, p: &Point) -> CellId {
        match self.locator {
            Locator::Uniform { k } => {
                let p = self.bbox.clamp(*p);
                let fx = (p.x - self.bbox.min.x) / self.bbox.width();
                let fy = (p.y - self.bbox.min.y) / self.bbox.height();
                let x = ((fx * k as f64) as u32).min(k - 1);
                let y = ((fy * k as f64) as u32).min(k - 1);
                CellId(y * k + x)
            }
            Locator::Quad { depth, ref nodes } => {
                if nodes.is_empty() {
                    return CellId(0);
                }
                let side = 1u32 << depth;
                let p = self.bbox.clamp(*p);
                let fx = (p.x - self.bbox.min.x) / self.bbox.width();
                let fy = (p.y - self.bbox.min.y) / self.bbox.height();
                let ux = ((fx * side as f64) as u32).min(side - 1);
                let uy = ((fy * side as f64) as u32).min(side - 1);
                let mut node = 0usize;
                let mut level = 0u8;
                loop {
                    let shift = depth - 1 - level;
                    let q = ((((uy >> shift) & 1) << 1) | ((ux >> shift) & 1)) as usize;
                    match nodes[node][q] {
                        v if v >= 0 => return CellId(v as u32),
                        v => {
                            node = (-v) as usize;
                            level += 1;
                        }
                    }
                }
            }
        }
    }

    /// The adjacency row `N(c)`: every cell reachable from `c` in one
    /// step, ascending, `c` itself included.
    #[inline]
    pub fn neighbors(&self, c: CellId) -> &[CellId] {
        let i = c.index();
        &self.adj[self.adj_offsets[i] as usize..self.adj_offsets[i + 1] as usize]
    }

    /// Whether two cells are adjacent (a cell is adjacent to itself).
    ///
    /// Uniform topologies answer from cell coordinates (Chebyshev distance
    /// ≤ 1, as their adjacency rows are built); others binary-search the
    /// adjacency row of `a`.
    #[inline]
    pub fn are_adjacent(&self, a: CellId, b: CellId) -> bool {
        if let Locator::Uniform { k } = self.locator {
            return a.index().max(b.index()) < self.num_cells() && chebyshev(k, a, b) <= 1;
        }
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// CSR row offsets of the adjacency: row `i` spans
    /// `csr_offsets()[i]..csr_offsets()[i+1]` inside [`Self::csr_targets`].
    #[inline]
    pub fn csr_offsets(&self) -> &[u32] {
        &self.adj_offsets
    }

    /// Concatenated adjacency rows (ascending within each row).
    #[inline]
    pub fn csr_targets(&self) -> &[CellId] {
        &self.adj
    }

    /// Iterator over all cells in dense order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> {
        (0..self.num_cells() as u32).map(CellId)
    }

    /// Minimum number of single-step transitions between two cells.
    ///
    /// Uniform topologies answer in O(1) (Chebyshev distance); other
    /// topologies answer adjacent pairs in O(log deg) and fall back to a
    /// breadth-first search (returns `u64::MAX` if disconnected). Stream
    /// consumers only ever ask about consecutive — hence adjacent — cells,
    /// so the fallback stays off the hot paths.
    pub fn hop_distance(&self, a: CellId, b: CellId) -> u64 {
        if a == b {
            return 0;
        }
        if let Locator::Uniform { k } = self.locator {
            return chebyshev(k, a, b) as u64;
        }
        if self.are_adjacent(a, b) {
            return 1;
        }
        // BFS over the CSR rows.
        let mut dist = vec![u64::MAX; self.num_cells()];
        let mut queue = std::collections::VecDeque::new();
        dist[a.index()] = 0;
        queue.push_back(a);
        while let Some(c) = queue.pop_front() {
            let d = dist[c.index()];
            for &n in self.neighbors(c) {
                if dist[n.index()] == u64::MAX {
                    if n == b {
                        return d + 1;
                    }
                    dist[n.index()] = d + 1;
                    queue.push_back(n);
                }
            }
        }
        u64::MAX
    }

    /// The grid granularity K, when this topology is a uniform grid.
    pub fn uniform_k(&self) -> Option<u32> {
        match self.descriptor {
            SpaceDescriptor::Uniform { k, .. } => Some(k),
            SpaceDescriptor::Quad { .. } => None,
        }
    }
}

/// Chebyshev distance between two cells of a row-major K×K grid.
#[inline]
pub(crate) fn chebyshev(k: u32, a: CellId, b: CellId) -> u32 {
    (a.0 % k).abs_diff(b.0 % k).max((a.0 / k).abs_diff(b.0 / k))
}

/// Exact tiling rect for the span `[lo, hi]` out of `total` integer units
/// along each axis: interior edges come from the subdivision arithmetic,
/// outer edges reuse the bbox bounds so the tiles cover it exactly.
fn unit_rect(bbox: &BoundingBox, lo: (u32, u32), hi: (u32, u32), total: u32) -> BoundingBox {
    let edge = |frac_num: u32, min: f64, max: f64| -> f64 {
        if frac_num == 0 {
            min
        } else if frac_num == total {
            max
        } else {
            min + frac_num as f64 / total as f64 * (max - min)
        }
    };
    BoundingBox::new(
        Point::new(edge(lo.0, bbox.min.x, bbox.max.x), edge(lo.1, bbox.min.y, bbox.max.y)),
        Point::new(edge(hi.0, bbox.min.x, bbox.max.x), edge(hi.1, bbox.min.y, bbox.max.y)),
    )
}

/// The paper's uniform K×K grid (§III-B) as a [`Space`] compiler.
///
/// Layout contract, relied on by every blessed snapshot and checkpoint:
/// cell ids are row-major (`y·K + x`, see [`Self::cell_at`]); a point
/// maps to column `min(⌊fx·K⌋, K−1)` and row `min(⌊fy·K⌋, K−1)`, where
/// `fx`, `fy` are its fractional position after clamping into the box;
/// and the adjacency row of a cell is its 3×3 window (Chebyshev distance
/// ≤ 1, itself included) scanned y-major, so rows ascend. All other
/// queries go through the compiled [`Topology`].
#[derive(Debug, Clone, PartialEq)]
pub struct UniformGrid {
    k: u32,
    bbox: BoundingBox,
}

impl UniformGrid {
    /// A K×K grid over `bbox`; `k` must be in `[1, 65535]` so the cell
    /// universe fits `u32`.
    pub fn new(k: u32, bbox: BoundingBox) -> Self {
        assert!((1..=65535).contains(&k), "grid granularity k={k} out of range [1, 65535]");
        UniformGrid { k, bbox }
    }

    /// A K×K grid over the unit square.
    pub fn unit(k: u32) -> Self {
        UniformGrid::new(k, BoundingBox::unit())
    }

    /// Grid granularity K.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The covered bounding box.
    pub fn bbox(&self) -> &BoundingBox {
        &self.bbox
    }

    /// Cell at grid column `x`, row `y`: the row-major id `y·K + x`.
    #[inline]
    pub fn cell_at(&self, x: u32, y: u32) -> CellId {
        debug_assert!(x < self.k && y < self.k, "cell ({x}, {y}) outside a {0}×{0} grid", self.k);
        CellId(y * self.k + x)
    }
}

impl Space for UniformGrid {
    fn compile(&self) -> Topology {
        let k = self.k;
        let n = k as usize * k as usize;
        let mut rects = Vec::with_capacity(n);
        let mut adj_offsets = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(n.saturating_mul(9));
        adj_offsets.push(0u32);
        for y in 0..k {
            for x in 0..k {
                rects.push(unit_rect(&self.bbox, (x, y), (x + 1, y + 1), k));
                // The 3×3 window, y-major: yields ascending dense indices.
                for dy in -1i64..=1 {
                    let ny = y as i64 + dy;
                    if ny < 0 || ny >= k as i64 {
                        continue;
                    }
                    for dx in -1i64..=1 {
                        let nx = x as i64 + dx;
                        if nx < 0 || nx >= k as i64 {
                            continue;
                        }
                        adj.push(CellId(ny as u32 * k + nx as u32));
                    }
                }
                adj_offsets.push(adj.len() as u32);
            }
        }
        Topology {
            descriptor: SpaceDescriptor::Uniform { k, bbox: self.bbox },
            bbox: self.bbox,
            rects,
            adj_offsets,
            adj,
            locator: Locator::Uniform { k },
        }
    }
}

/// A density-adaptive quad-tree space (PrivTrace-style).
///
/// Built by [`QuadGrid::fit`] from a public (or first-round, privately
/// estimated) point sample: every region holding more than
/// `max_leaf_population` sample points splits into four quadrants, down
/// to `max_depth`. Dense areas get fine cells, sparse areas stay coarse,
/// so the transition domain — and with it the LDP budget split across
/// states — scales with where the data actually is.
#[derive(Debug, Clone, PartialEq)]
pub struct QuadGrid {
    bbox: BoundingBox,
    depth: u8,
    leaves: Vec<QuadLeaf>,
}

impl QuadGrid {
    /// Fit a quad tree to a point sample: split every region whose sample
    /// population exceeds `max_leaf_population` (≥ 1), down to
    /// `max_depth` (≤ [`MAX_QUAD_DEPTH`]).
    pub fn fit(
        bbox: BoundingBox,
        points: &[Point],
        max_leaf_population: usize,
        max_depth: u8,
    ) -> Self {
        assert!(max_depth <= MAX_QUAD_DEPTH, "max_depth {max_depth} > {MAX_QUAD_DEPTH}");
        assert!(max_leaf_population >= 1, "max_leaf_population must be >= 1");
        let side = 1u32 << max_depth;
        let mut coords: Vec<(u32, u32)> = points
            .iter()
            .map(|p| {
                let p = bbox.clamp(*p);
                let fx = (p.x - bbox.min.x) / bbox.width();
                let fy = (p.y - bbox.min.y) / bbox.height();
                (
                    ((fx * side as f64) as u32).min(side - 1),
                    ((fy * side as f64) as u32).min(side - 1),
                )
            })
            .collect();
        let mut leaves = Vec::new();
        split_region(&mut coords, 0, 0, 0, max_depth, max_leaf_population, &mut leaves);
        leaves.sort_unstable_by_key(|l| (l.y, l.x));
        QuadGrid { bbox, depth: max_depth, leaves }
    }

    /// Rebuild from an explicit leaf set (I/O round-trips). Leaves are
    /// canonicalized to `(y, x)` order; panics unless they tile the box
    /// exactly.
    pub fn from_leaves(bbox: BoundingBox, depth: u8, leaves: Vec<QuadLeaf>) -> Self {
        Self::try_from_leaves(bbox, depth, leaves).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Self::from_leaves`] for untrusted input
    /// (e.g. parsed files): returns a description of the defect instead
    /// of panicking.
    pub fn try_from_leaves(
        bbox: BoundingBox,
        depth: u8,
        mut leaves: Vec<QuadLeaf>,
    ) -> Result<Self, String> {
        if depth > MAX_QUAD_DEPTH {
            return Err(format!("quad depth {depth} > {MAX_QUAD_DEPTH}"));
        }
        leaves.sort_unstable_by_key(|l| (l.y, l.x));
        // Validates tiling and overlap as a side effect.
        build_quad_nodes(depth, &leaves)?;
        Ok(QuadGrid { bbox, depth, leaves })
    }

    /// The covered bounding box.
    pub fn bbox(&self) -> &BoundingBox {
        &self.bbox
    }

    /// Maximum refinement depth D.
    #[inline]
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// The leaves in canonical `(y, x)` order — leaf `i` compiles to cell
    /// id `i`.
    pub fn leaves(&self) -> &[QuadLeaf] {
        &self.leaves
    }

    /// Number of leaves (= compiled cells).
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }
}

/// Recursively split the region anchored at `(x, y)` (depth `d`, in
/// max-depth units) while it over-populates, pushing finished leaves.
fn split_region(
    pts: &mut [(u32, u32)],
    x: u32,
    y: u32,
    d: u8,
    max_depth: u8,
    cap: usize,
    out: &mut Vec<QuadLeaf>,
) {
    if d == max_depth || pts.len() <= cap {
        out.push(QuadLeaf { x, y, depth: d });
        return;
    }
    let half = 1u32 << (max_depth - d - 1);
    let (mid_x, mid_y) = (x + half, y + half);
    let split = partition(pts, |&(_, py)| py < mid_y);
    let (low, high) = pts.split_at_mut(split);
    let lx = partition(low, |&(px, _)| px < mid_x);
    let hx = partition(high, |&(px, _)| px < mid_x);
    let (ll, lr) = low.split_at_mut(lx);
    let (hl, hr) = high.split_at_mut(hx);
    split_region(ll, x, y, d + 1, max_depth, cap, out);
    split_region(lr, mid_x, y, d + 1, max_depth, cap, out);
    split_region(hl, x, mid_y, d + 1, max_depth, cap, out);
    split_region(hr, mid_x, mid_y, d + 1, max_depth, cap, out);
}

/// In-place unstable partition: true-elements first, returns their count.
fn partition<T, F: Fn(&T) -> bool>(xs: &mut [T], pred: F) -> usize {
    let mut i = 0;
    for j in 0..xs.len() {
        if pred(&xs[j]) {
            xs.swap(i, j);
            i += 1;
        }
    }
    i
}

/// Build the locator node table for a leaf set, reporting overlap,
/// misalignment, or incomplete tiling.
fn build_quad_nodes(depth: u8, leaves: &[QuadLeaf]) -> Result<Vec<[i64; 4]>, String> {
    const EMPTY: i64 = i64::MIN;
    if leaves.is_empty() {
        return Err("quad tree must have at least one leaf".into());
    }
    if leaves.len() == 1 {
        let l = leaves[0];
        if l.depth != 0 || l.x != 0 || l.y != 0 {
            return Err("a single quad leaf must cover the whole box".into());
        }
        return Ok(Vec::new());
    }
    let total = 1u32 << depth;
    let mut nodes: Vec<[i64; 4]> = vec![[EMPTY; 4]];
    for (id, l) in leaves.iter().enumerate() {
        if !(1..=depth).contains(&l.depth) {
            return Err(format!("quad leaf depth {} out of range [1, {depth}]", l.depth));
        }
        let side = l.side(depth);
        if l.x % side != 0 || l.y % side != 0 || l.x > total - side || l.y > total - side {
            return Err(format!(
                "quad leaf ({}, {}, d{}) misaligned for depth {depth}",
                l.x, l.y, l.depth
            ));
        }
        let mut node = 0usize;
        for level in 0..l.depth {
            let shift = depth - 1 - level;
            let q = (((((l.y >> shift) & 1) << 1) | ((l.x >> shift) & 1)) & 0b11) as usize;
            if level + 1 == l.depth {
                if nodes[node][q] != EMPTY {
                    return Err("quad leaves overlap".into());
                }
                nodes[node][q] = id as i64;
            } else {
                node = match nodes[node][q] {
                    EMPTY => {
                        nodes.push([EMPTY; 4]);
                        let next = nodes.len() - 1;
                        nodes[node][q] = -(next as i64);
                        next
                    }
                    v if v < 0 => (-v) as usize,
                    _ => return Err("quad leaves overlap".into()),
                };
            }
        }
    }
    for slots in &nodes {
        for &s in slots {
            if s == EMPTY {
                return Err("quad leaves do not tile the space".into());
            }
        }
    }
    Ok(nodes)
}

impl Space for QuadGrid {
    fn compile(&self) -> Topology {
        let depth = self.depth;
        let total = 1u32 << depth;
        let n = self.leaves.len();
        let nodes =
            build_quad_nodes(depth, &self.leaves).expect("leaf set was validated at construction");
        let mut rects = Vec::with_capacity(n);
        for l in &self.leaves {
            let s = l.side(depth);
            rects.push(unit_rect(&self.bbox, (l.x, l.y), (l.x + s, l.y + s), total));
        }
        // Closed squares that touch (corners included) are adjacent —
        // Chebyshev adjacency generalized across depths. O(L²) build.
        let mut adj_offsets = Vec::with_capacity(n + 1);
        let mut adj = Vec::new();
        adj_offsets.push(0u32);
        for a in &self.leaves {
            let sa = a.side(depth);
            for (j, b) in self.leaves.iter().enumerate() {
                let sb = b.side(depth);
                if a.x <= b.x + sb && b.x <= a.x + sa && a.y <= b.y + sb && b.y <= a.y + sa {
                    adj.push(CellId(j as u32));
                }
            }
            adj_offsets.push(adj.len() as u32);
        }
        Topology {
            descriptor: SpaceDescriptor::Quad {
                bbox: self.bbox,
                depth,
                leaves: self.leaves.clone(),
            },
            bbox: self.bbox,
            rects,
            adj_offsets,
            adj,
            locator: Locator::Quad { depth, nodes },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference for a uniform adjacency row: every cell
    /// within Chebyshev distance 1 of `c`, in ascending id order.
    fn chebyshev_row(k: u32, c: CellId) -> Vec<CellId> {
        let (cx, cy) = (c.0 % k, c.0 / k);
        (0..k * k)
            .map(CellId)
            .filter(|d| (d.0 % k).abs_diff(cx) <= 1 && (d.0 / k).abs_diff(cy) <= 1)
            .collect()
    }

    #[test]
    fn uniform_matches_legacy_grid() {
        for k in [1u32, 2, 3, 5, 8] {
            let topo = UniformGrid::unit(k).compile();
            assert_eq!(topo.num_cells(), (k * k) as usize);
            for c in topo.cells() {
                assert_eq!(topo.neighbors(c), chebyshev_row(k, c), "k={k} cell {c:?}");
            }
        }
    }

    #[test]
    fn uniform_locator_matches_grid_cell_of() {
        let bbox = BoundingBox::new(Point::new(-2.0, 1.0), Point::new(3.0, 4.0));
        let grid = UniformGrid::new(7, bbox);
        let topo = grid.compile();
        // Reference locator: clamp, then `min(⌊f·K⌋, K−1)` per axis.
        let axis = |v: f64, lo: f64, hi: f64| ((v.clamp(lo, hi) - lo) / (hi - lo) * 7.0) as u32;
        for i in 0..200 {
            let p = Point::new(-2.5 + i as f64 * 0.03, 0.5 + i as f64 * 0.02);
            let x = axis(p.x, -2.0, 3.0).min(6);
            let y = axis(p.y, 1.0, 4.0).min(6);
            assert_eq!(topo.cell_of(&p), grid.cell_at(x, y), "point {p:?}");
        }
    }

    #[test]
    fn uniform_rects_tile_and_locate() {
        let topo = UniformGrid::unit(4).compile();
        for c in topo.cells() {
            assert_eq!(topo.cell_of(&topo.center(c)), c);
        }
        assert_eq!(topo.cell_rect(CellId(0)).min, Point::new(0.0, 0.0));
        assert_eq!(topo.cell_rect(CellId(15)).max, Point::new(1.0, 1.0));
        assert_eq!(topo.uniform_k(), Some(4));
    }

    #[test]
    fn quad_uniform_point_sample_refines_evenly() {
        // A dense uniform sample forces the split all the way down.
        let pts: Vec<Point> = (0..64)
            .flat_map(|i| (0..64).map(move |j| Point::new(i as f64 / 64.0, j as f64 / 64.0)))
            .collect();
        let quad = QuadGrid::fit(BoundingBox::unit(), &pts, 100, 3);
        // 4096 points, cap 100: depth-2 regions hold 256 (> 100, split),
        // depth-3 leaves hold 64 each.
        assert_eq!(quad.num_leaves(), 64);
        let topo = quad.compile();
        assert_eq!(topo.num_cells(), 64);
        assert!(topo.uniform_k().is_none());
    }

    #[test]
    fn quad_skew_refines_only_dense_corner() {
        // All mass in the lower-left corner: that quadrant refines, the
        // rest stays coarse.
        let pts: Vec<Point> = (0..1000).map(|i| Point::new(i as f64 * 1e-5, 0.001)).collect();
        let quad = QuadGrid::fit(BoundingBox::unit(), &pts, 10, 4);
        let topo = quad.compile();
        assert!(topo.num_cells() < 256, "skewed fit should stay far below 4^4");
        // Coarse top-right leaf exists at depth 1.
        let tr = topo.cell_of(&Point::new(0.9, 0.9));
        let r = topo.cell_rect(tr);
        assert!(r.width() >= 0.5 - 1e-12);
    }

    #[test]
    fn quad_adjacency_symmetric_self_inclusive_sorted() {
        let pts: Vec<Point> = (0..500)
            .map(|i| Point::new((i as f64 * 0.37) % 0.3, (i as f64 * 0.11) % 1.0))
            .collect();
        let topo = QuadGrid::fit(BoundingBox::unit(), &pts, 20, 4).compile();
        for a in topo.cells() {
            let row = topo.neighbors(a);
            assert!(row.binary_search(&a).is_ok(), "row must include self");
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row must ascend");
            for &b in row {
                assert!(topo.are_adjacent(b, a), "adjacency must be symmetric");
            }
        }
    }

    #[test]
    fn quad_point_lookup_total_and_consistent() {
        let pts: Vec<Point> =
            (0..300).map(|i| Point::new((i % 17) as f64 / 17.0, (i % 13) as f64 / 13.0)).collect();
        let topo = QuadGrid::fit(BoundingBox::unit(), &pts, 25, 5).compile();
        for i in 0..40 {
            for j in 0..40 {
                let p = Point::new(i as f64 / 39.0, j as f64 / 39.0);
                let c = topo.cell_of(&p);
                assert!(c.index() < topo.num_cells());
                assert!(topo.cell_rect(c).contains(&p), "point {p:?} outside its cell rect");
            }
        }
    }

    #[test]
    fn quad_single_leaf_space() {
        let quad = QuadGrid::fit(BoundingBox::unit(), &[], 5, 4);
        assert_eq!(quad.num_leaves(), 1);
        let topo = quad.compile();
        assert_eq!(topo.num_cells(), 1);
        assert_eq!(topo.cell_of(&Point::new(0.3, 0.8)), CellId(0));
        assert_eq!(topo.neighbors(CellId(0)), &[CellId(0)]);
    }

    #[test]
    fn from_leaves_roundtrip() {
        let pts: Vec<Point> = (0..200).map(|i| Point::new((i as f64 * 0.013) % 1.0, 0.2)).collect();
        let quad = QuadGrid::fit(BoundingBox::unit(), &pts, 15, 3);
        let rebuilt = QuadGrid::from_leaves(*quad.bbox(), quad.depth(), quad.leaves().to_vec());
        assert_eq!(quad, rebuilt);
        assert_eq!(quad.compile(), rebuilt.compile());
    }

    #[test]
    #[should_panic(expected = "tile")]
    fn from_leaves_rejects_holes() {
        // Only three quadrants of the unit square.
        let leaves = vec![
            QuadLeaf { x: 0, y: 0, depth: 1 },
            QuadLeaf { x: 1, y: 0, depth: 1 },
            QuadLeaf { x: 0, y: 1, depth: 1 },
        ];
        let _ = QuadGrid::from_leaves(BoundingBox::unit(), 1, leaves);
    }

    #[test]
    fn hop_distance_uniform_and_quad() {
        let topo = UniformGrid::unit(6).compile();
        assert_eq!(topo.hop_distance(CellId(0), CellId(0)), 0);
        assert_eq!(topo.hop_distance(CellId(0), CellId(7)), 1);
        // (0,0) -> (5,3): Chebyshev 5.
        assert_eq!(topo.hop_distance(CellId(0), CellId(3 * 6 + 5)), 5);

        let pts: Vec<Point> = (0..400).map(|i| Point::new((i % 20) as f64 / 20.0, 0.1)).collect();
        let qt = QuadGrid::fit(BoundingBox::unit(), &pts, 30, 3).compile();
        let a = qt.cell_of(&Point::new(0.05, 0.05));
        let b = qt.cell_of(&Point::new(0.95, 0.95));
        let d = qt.hop_distance(a, b);
        assert!(d >= 1 && d != u64::MAX);
        assert_eq!(qt.hop_distance(a, a), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn uniform_zero_rejected() {
        let _ = UniformGrid::unit(0);
    }
}
