//! Cell identifiers of a discretized space.
//!
//! The uniform K×K grid of §III-B ("Geospatial Discretization") is
//! [`crate::space::UniformGrid`]; every query on it (point lookup,
//! centers, the 3×3 reachability neighborhood, hop distance) goes
//! through the compiled [`crate::space::Topology`].

/// Identifier of a cell in a dense cell universe.
///
/// For a uniform grid this is the row-major index `y·K + x`; adaptive
/// topologies assign ids in their own canonical order. `u32` leaves
/// headroom for fine adaptive discretizations that overflow `u16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

impl CellId {
    /// The dense index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

// The uniform grid's geometry and reachability, queried through its
// compiled topology.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{BoundingBox, Point};
    use crate::space::{QuadGrid, Space, UniformGrid};

    #[test]
    fn cell_of_corners_and_interior() {
        let grid = UniformGrid::unit(4);
        let topo = grid.compile();
        assert_eq!(topo.cell_of(&Point::new(0.0, 0.0)), CellId(0));
        // Max corner clamps into the last cell.
        assert_eq!(topo.cell_of(&Point::new(1.0, 1.0)), CellId(15));
        assert_eq!(topo.cell_of(&Point::new(0.3, 0.6)), grid.cell_at(1, 2));
        // Out-of-box points clamp.
        assert_eq!(topo.cell_of(&Point::new(-5.0, 9.0)), grid.cell_at(0, 3));
    }

    #[test]
    fn xy_roundtrip() {
        // `cell_at(x, y)` is the cell whose center sits in column x, row y.
        let grid = UniformGrid::unit(7);
        let topo = grid.compile();
        for y in 0..7 {
            for x in 0..7 {
                let c = grid.cell_at(x, y);
                assert_eq!(c, CellId(y * 7 + x));
                let p = topo.center(c);
                assert_eq!(((p.x * 7.0) as u32, (p.y * 7.0) as u32), (x, y));
            }
        }
    }

    #[test]
    fn center_maps_back_to_cell() {
        let bbox = BoundingBox::new(Point::new(-3.0, 2.0), Point::new(5.0, 10.0));
        let topo = UniformGrid::new(9, bbox).compile();
        for c in topo.cells() {
            assert_eq!(topo.cell_of(&topo.center(c)), c);
        }
    }

    #[test]
    fn neighborhood_sizes() {
        let grid = UniformGrid::unit(5);
        let topo = grid.compile();
        // Corner: 4 neighbors (itself + 3).
        assert_eq!(topo.neighbors(grid.cell_at(0, 0)).len(), 4);
        // Edge: 6.
        assert_eq!(topo.neighbors(grid.cell_at(2, 0)).len(), 6);
        // Interior: 9.
        assert_eq!(topo.neighbors(grid.cell_at(2, 2)).len(), 9);
        // k = 1: single cell, neighborhood is itself.
        assert_eq!(UniformGrid::unit(1).compile().neighbors(CellId(0)), &[CellId(0)]);
    }

    #[test]
    fn neighborhood_sorted_and_contains_self() {
        let topo = UniformGrid::unit(6).compile();
        for c in topo.cells() {
            let n = topo.neighbors(c);
            assert!(n.contains(&c));
            for w in n.windows(2) {
                assert!(w[0] < w[1], "not sorted at {c:?}");
            }
        }
    }

    #[test]
    fn adjacency_symmetry_matches_neighborhood() {
        let topo = UniformGrid::unit(4).compile();
        for a in topo.cells() {
            for b in topo.cells() {
                let adj = topo.are_adjacent(a, b);
                assert_eq!(adj, topo.are_adjacent(b, a));
                assert_eq!(adj, topo.neighbors(a).contains(&b));
            }
        }
    }

    #[test]
    fn k2_all_cells_mutually_adjacent() {
        let topo = UniformGrid::unit(2).compile();
        for a in topo.cells() {
            for b in topo.cells() {
                assert!(topo.are_adjacent(a, b));
            }
        }
    }

    #[test]
    fn chebyshev_distance() {
        let grid = UniformGrid::unit(10);
        let topo = grid.compile();
        assert_eq!(topo.hop_distance(grid.cell_at(0, 0), grid.cell_at(3, 5)), 5);
        assert_eq!(topo.hop_distance(grid.cell_at(4, 4), grid.cell_at(4, 4)), 0);
    }

    #[test]
    fn random_point_lands_in_cell() {
        use rand::{rngs::StdRng, SeedableRng};
        let pts: Vec<Point> =
            (0..300).map(|i| Point::new((i % 23) as f64 / 23.0, (i % 7) as f64 / 70.0)).collect();
        let quad = QuadGrid::fit(BoundingBox::unit(), &pts, 20, 4).compile();
        assert!(quad.uniform_k().is_none());
        let mut rng = StdRng::seed_from_u64(1);
        for topo in [UniformGrid::unit(8).compile(), quad] {
            for c in topo.cells() {
                for _ in 0..5 {
                    let p = topo.random_point_in(c, &mut rng);
                    assert_eq!(topo.cell_of(&p), c);
                }
            }
        }
    }
}
