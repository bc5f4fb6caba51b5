//! The transition-state domain `S = {m_ij} ∪ {e_i} ∪ {q_j}` (§III-B).
//!
//! A user's mobility status at each timestamp is exactly one
//! [`TransitionState`]: a movement between adjacent cells (including
//! staying), an entering event, or a quitting event. [`TransitionTable`]
//! lays these out in a dense index space so the whole domain can be fed to
//! a frequency oracle:
//!
//! ```text
//! [ move block of cell 0 | move block of cell 1 | … | enters | quits ]
//! ```
//!
//! where the move block of cell `i` holds one slot per neighbor in `N(i)`
//! (ascending cell order, self included). Only reachable (adjacent)
//! movements exist, so `|S| = Σ|N(i)| + 2|C|` — `O(9|C|)` on a uniform
//! grid, and whatever the compiled adjacency yields on other spaces.
//!
//! The move blocks are exactly the CSR adjacency rows of the compiled
//! [`Topology`], so the table borrows the topology's tables instead of
//! rebuilding them. [`TransitionTable::index_of`] is the domain's one
//! membership test: on a uniform grid it places a move from cell
//! coordinates, elsewhere it binary-searches the adjacency row.

use crate::grid::CellId;
use crate::space::{chebyshev, Space, Topology};
use std::sync::Arc;

/// A user's mobility status at one timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionState {
    /// Movement `m_ij` from `from` to the adjacent (or same) cell `to`.
    Move {
        /// Previous cell `c_i`.
        from: CellId,
        /// Current cell `c_j` (adjacent to `from`).
        to: CellId,
    },
    /// Entering event `e_i`: a new stream begins at this cell.
    Enter(CellId),
    /// Quitting event `q_j`: the stream ended with this final cell.
    Quit(CellId),
}

/// Dense, bijective indexing of the reachability-constrained transition
/// domain for a compiled topology.
#[derive(Debug, Clone)]
pub struct TransitionTable {
    topology: Arc<Topology>,
    /// The grid granularity K when the topology is a uniform grid.
    uniform_k: Option<u32>,
}

impl TransitionTable {
    /// Build the table for any [`Space`] (a
    /// [`UniformGrid`](crate::UniformGrid), a quad tree, a compiled
    /// [`Topology`], …).
    pub fn new(space: &impl Space) -> Self {
        let topology = space.compile_shared();
        TransitionTable { uniform_k: topology.uniform_k(), topology }
    }

    /// The compiled topology this table indexes.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// Number of cells `|C|`.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.topology.num_cells()
    }

    /// Number of movement states `Σ_i |N(i)|`.
    #[inline]
    pub fn num_moves(&self) -> usize {
        self.topology.csr_targets().len()
    }

    /// Total domain size `|S| = num_moves + 2|C|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.num_moves() + 2 * self.num_cells()
    }

    /// The domain is never empty for a valid topology.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dense index range of cell `from`'s move block.
    #[inline]
    pub fn move_block(&self, from: CellId) -> std::ops::Range<usize> {
        let offsets = self.topology.csr_offsets();
        let i = from.index();
        offsets[i] as usize..offsets[i + 1] as usize
    }

    /// Row offsets of every move block: `move_offsets()[i]` is the first
    /// dense index of cell `i`'s block and `move_offsets()[num_cells()]`
    /// equals [`Self::num_moves`]. Lets samplers mirror the dense move
    /// layout without per-cell calls.
    #[inline]
    pub fn move_offsets(&self) -> &[u32] {
        self.topology.csr_offsets()
    }

    /// The concatenated destination cells of all move blocks (parallel to
    /// the dense move index space).
    #[inline]
    pub fn neighbor_cells(&self) -> &[CellId] {
        self.topology.csr_targets()
    }

    /// Source cell owning the movement state at dense `index`
    /// (`index < num_moves()`); O(log |C|).
    #[inline]
    pub fn move_source_of(&self, index: usize) -> CellId {
        debug_assert!(index < self.num_moves());
        let offsets = self.topology.csr_offsets();
        let cell = match offsets.binary_search(&(index as u32)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        CellId(cell as u32)
    }

    /// Destination cells of `from`'s move block (parallel to
    /// [`Self::move_block`]).
    #[inline]
    pub fn move_targets(&self, from: CellId) -> &[CellId] {
        self.topology.neighbors(from)
    }

    /// Dense index of the entering state `e_c`.
    #[inline]
    pub fn enter_index(&self, c: CellId) -> usize {
        self.num_moves() + c.index()
    }

    /// Dense index of the quitting state `q_c`.
    #[inline]
    pub fn quit_index(&self, c: CellId) -> usize {
        self.num_moves() + self.num_cells() + c.index()
    }

    /// Dense index of an arbitrary state. Returns `None` for a state that
    /// is not in the domain: a cell outside the topology, or a movement
    /// between non-adjacent cells (unreachable).
    // Inlinable across crates: a caller that only tests membership drops
    // the index arithmetic.
    #[inline]
    pub fn index_of(&self, state: TransitionState) -> Option<usize> {
        let cells = self.num_cells();
        match state {
            TransitionState::Move { from, to } if from.index() < cells && to.index() < cells => {
                let start = self.move_offsets()[from.index()] as usize;
                let Some(k) = self.uniform_k else {
                    // Each block's targets ascend, so a hit's position in
                    // the block is the move's offset from the block start.
                    return Some(start + self.move_targets(from).binary_search(&to).ok()?);
                };
                if chebyshev(k, from, to) > 1 {
                    return None;
                }
                // The block is `from`'s 3×3 window clipped to the grid,
                // y-major: `w` cells per row from column `x0`, rows from
                // `y0`. Adjacency puts `to` inside it, so nothing wraps.
                let (fx, fy, tx, ty) = (from.0 % k, from.0 / k, to.0 % k, to.0 / k);
                let (x0, y0) = (fx.saturating_sub(1), fy.saturating_sub(1));
                let w = (fx + 1).min(k - 1) - x0 + 1;
                Some(start + ((ty - y0) * w + (tx - x0)) as usize)
            }
            TransitionState::Move { .. } => None,
            TransitionState::Enter(c) if c.index() < cells => Some(self.enter_index(c)),
            TransitionState::Quit(c) if c.index() < cells => Some(self.quit_index(c)),
            TransitionState::Enter(_) | TransitionState::Quit(_) => None,
        }
    }

    /// Inverse of [`Self::index_of`].
    ///
    /// # Panics
    /// Panics if `index ≥ self.len()`.
    pub fn state_of(&self, index: usize) -> TransitionState {
        let moves = self.num_moves();
        let cells = self.num_cells();
        if index < moves {
            // Binary search for the owning block.
            let offsets = self.topology.csr_offsets();
            let from = match offsets.binary_search(&(index as u32)) {
                Ok(i) => {
                    // `index` is the start of block i — but trailing empty
                    // blocks can't occur (every cell has >= 1 neighbor), so
                    // block i is the owner.
                    i
                }
                Err(i) => i - 1,
            };
            TransitionState::Move {
                from: CellId(from as u32),
                to: self.topology.csr_targets()[index],
            }
        } else if index < moves + cells {
            TransitionState::Enter(CellId((index - moves) as u32))
        } else if index < moves + 2 * cells {
            TransitionState::Quit(CellId((index - moves - cells) as u32))
        } else {
            panic!("transition index {index} out of range {}", self.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{BoundingBox, Point};
    use crate::space::{QuadGrid, UniformGrid};

    #[test]
    fn domain_size_small_grids() {
        // k=1: one cell, one self-move, one enter, one quit.
        let t = TransitionTable::new(&UniformGrid::unit(1));
        assert_eq!(t.num_moves(), 1);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        // k=2: every cell adjacent to every cell -> 16 moves + 8.
        let t = TransitionTable::new(&UniformGrid::unit(2));
        assert_eq!(t.num_moves(), 16);
        assert_eq!(t.len(), 24);
        // k=3: corners 4, edges 6, center 9 -> 4*4 + 4*6 + 9 = 49.
        let t = TransitionTable::new(&UniformGrid::unit(3));
        assert_eq!(t.num_moves(), 49);
        assert_eq!(t.len(), 49 + 18);
    }

    #[test]
    fn domain_is_o_9c() {
        let t = TransitionTable::new(&UniformGrid::unit(10));
        assert!(t.num_moves() <= 9 * t.num_cells());
        // Interior dominates: 8x8 interior cells with 9 neighbors.
        assert_eq!(t.num_moves(), 64 * 9 + 4 * 4 + 32 * 6);
    }

    #[test]
    fn index_bijection() {
        let grid = UniformGrid::unit(5);
        let t = TransitionTable::new(&grid);
        for idx in 0..t.len() {
            let state = t.state_of(idx);
            assert_eq!(t.index_of(state), Some(idx), "state {state:?}");
        }
    }

    #[test]
    fn index_bijection_on_quad_topology() {
        let pts: Vec<Point> = (0..600)
            .map(|i| Point::new((i as f64 * 0.017) % 0.4, (i as f64 * 0.029) % 1.0))
            .collect();
        let quad = QuadGrid::fit(BoundingBox::unit(), &pts, 40, 4);
        let t = TransitionTable::new(&quad);
        assert_eq!(t.num_cells(), quad.num_leaves());
        for idx in 0..t.len() {
            let state = t.state_of(idx);
            assert_eq!(t.index_of(state), Some(idx), "state {state:?}");
        }
    }

    #[test]
    fn move_indices_cover_neighbors() {
        let t = TransitionTable::new(&UniformGrid::unit(4));
        for from in t.topology().cells() {
            let block = t.move_block(from);
            let targets = t.move_targets(from);
            assert_eq!(block.len(), t.topology().neighbors(from).len());
            assert_eq!(targets.len(), block.len());
            for (pos, &to) in targets.iter().enumerate() {
                assert_eq!(t.index_of(TransitionState::Move { from, to }), Some(block.start + pos));
            }
        }
    }

    #[test]
    fn non_adjacent_move_not_in_domain() {
        let grid = UniformGrid::unit(5);
        let t = TransitionTable::new(&grid);
        let state = TransitionState::Move { from: grid.cell_at(0, 0), to: grid.cell_at(3, 3) };
        assert_eq!(t.index_of(state), None);
    }

    #[test]
    fn move_from_outside_topology_not_in_domain() {
        let t = TransitionTable::new(&UniformGrid::unit(3));
        let outside = CellId(t.num_cells() as u32);
        assert_eq!(t.index_of(TransitionState::Move { from: outside, to: CellId(0) }), None);
        assert_eq!(t.index_of(TransitionState::Move { from: CellId(0), to: outside }), None);
    }

    #[test]
    fn enter_outside_topology_does_not_alias_a_quit_state() {
        let t = TransitionTable::new(&UniformGrid::unit(3));
        let outside = CellId(t.num_cells() as u32);
        assert_eq!(t.index_of(TransitionState::Enter(outside)), None);
    }

    #[test]
    fn quit_outside_topology_not_in_domain() {
        let t = TransitionTable::new(&UniformGrid::unit(3));
        for c in [t.num_cells() as u32, u32::MAX] {
            assert_eq!(t.index_of(TransitionState::Quit(CellId(c))), None);
        }
    }

    #[test]
    fn enter_quit_blocks_disjoint() {
        let t = TransitionTable::new(&UniformGrid::unit(3));
        let mut seen = std::collections::HashSet::new();
        for c in t.topology().cells() {
            assert!(seen.insert(t.enter_index(c)));
            assert!(seen.insert(t.quit_index(c)));
        }
        for idx in seen {
            assert!(idx >= t.num_moves() && idx < t.len());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn state_of_out_of_range_panics() {
        let t = TransitionTable::new(&UniformGrid::unit(2));
        let _ = t.state_of(t.len());
    }
}
