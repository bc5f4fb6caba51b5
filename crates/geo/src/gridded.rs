//! Discretized trajectory streams — the representation every mechanism and
//! metric operates on.
//!
//! Discretization maps each continuous location to its cell and then
//! *splits* any stream whose consecutive cells are not adjacent. This
//! mirrors the paper's preprocessing ("For trajectories including
//! non-adjacent timestamps, we add quitting events and split them into
//! multiple streams") extended to spatial jumps, which keeps every movement
//! representable in the reachability-constrained transition domain.
//!
//! **Storage.** A [`GriddedDataset`] is columnar: per-stream metadata lives
//! in parallel `ids`/`starts`/`offsets` columns and every cell of every
//! stream lives in one flat `cells` column, sliced per stream by
//! `offsets`. Consumers iterate through borrowed [`StreamView`]s — walking
//! a million-stream database touches three contiguous columns and performs
//! zero allocation. The synthesizer's release path and the I/O parser both
//! build the columns directly ([`GriddedDataset::from_columns`]), so
//! handing a finished database to the metrics suite never materializes one
//! `Vec` per stream; [`GriddedStream`] remains as the owned row type for
//! construction and tests.
//!
//! The dataset carries its discretization as a compiled shared
//! [`Topology`], so uniform grids, quad trees and future spaces all flow
//! through the same columns.

use crate::grid::CellId;
use crate::space::{Space, Topology};
use crate::stream::{DatasetStats, StreamDataset};
use std::sync::Arc;

/// An owned discretized stream: one cell per timestamp starting at
/// `start`. The construction/I-O currency; datasets store streams
/// columnar and iterate them as [`StreamView`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GriddedStream {
    /// Stream id, unique within a [`GriddedDataset`].
    pub id: u64,
    /// Entering timestamp.
    pub start: u64,
    /// One cell per timestamp `start, start+1, …`.
    pub cells: Vec<CellId>,
}

impl GriddedStream {
    /// Number of reported cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Streams are never empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Last active timestamp (inclusive).
    pub fn end(&self) -> u64 {
        self.start + self.cells.len() as u64 - 1
    }

    /// Whether the stream reports at `t`.
    pub fn active_at(&self, t: u64) -> bool {
        t >= self.start && t <= self.end()
    }

    /// Cell at timestamp `t`, if active.
    pub fn cell_at(&self, t: u64) -> Option<CellId> {
        if self.active_at(t) {
            Some(self.cells[(t - self.start) as usize])
        } else {
            None
        }
    }

    /// First (entering) cell.
    pub fn first_cell(&self) -> CellId {
        self.cells[0]
    }

    /// Last (quitting) cell.
    pub fn last_cell(&self) -> CellId {
        *self.cells.last().unwrap()
    }

    /// Travel distance in single-step hops (Chebyshev on uniform grids).
    pub fn hop_distance(&self, topology: &Topology) -> u64 {
        self.cells.windows(2).map(|w| topology.hop_distance(w[0], w[1])).sum()
    }

    /// Borrow this stream as a view.
    pub fn view(&self) -> StreamView<'_> {
        StreamView { id: self.id, start: self.start, cells: &self.cells }
    }
}

/// A borrowed view of one stream inside a [`GriddedDataset`] — the
/// iteration currency of every metric and release consumer. Views borrow
/// the dataset's columnar storage, so walking a database never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamView<'a> {
    /// Stream id, unique within the dataset.
    pub id: u64,
    /// Entering timestamp.
    pub start: u64,
    /// One cell per timestamp `start, start+1, …`.
    pub cells: &'a [CellId],
}

impl<'a> StreamView<'a> {
    /// Number of reported cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Streams are never empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Last active timestamp (inclusive).
    pub fn end(&self) -> u64 {
        self.start + self.cells.len() as u64 - 1
    }

    /// Whether the stream reports at `t`.
    pub fn active_at(&self, t: u64) -> bool {
        t >= self.start && t <= self.end()
    }

    /// Cell at timestamp `t`, if active.
    pub fn cell_at(&self, t: u64) -> Option<CellId> {
        if self.active_at(t) {
            Some(self.cells[(t - self.start) as usize])
        } else {
            None
        }
    }

    /// First (entering) cell.
    pub fn first_cell(&self) -> CellId {
        self.cells[0]
    }

    /// Last (quitting) cell.
    pub fn last_cell(&self) -> CellId {
        *self.cells.last().unwrap()
    }

    /// Travel distance in single-step hops (Chebyshev on uniform grids).
    pub fn hop_distance(&self, topology: &Topology) -> u64 {
        self.cells.windows(2).map(|w| topology.hop_distance(w[0], w[1])).sum()
    }

    /// An owned copy of this stream.
    pub fn to_owned(&self) -> GriddedStream {
        GriddedStream { id: self.id, start: self.start, cells: self.cells.to_vec() }
    }
}

/// A database of discretized streams sharing a topology, over
/// `0..horizon`.
///
/// Stored columnar: `ids`/`starts` hold per-stream metadata, `cells` holds
/// every cell of every stream back to back, and `offsets` (length
/// `num_streams + 1`) slices `cells` per stream.
#[derive(Debug, Clone, PartialEq)]
pub struct GriddedDataset {
    topology: Arc<Topology>,
    ids: Vec<u64>,
    starts: Vec<u64>,
    offsets: Vec<usize>,
    cells: Vec<CellId>,
    horizon: u64,
}

impl GriddedDataset {
    /// Assemble from owned pre-gridded streams (flattened into the columnar
    /// layout). Streams must already respect the space's adjacency; this is
    /// checked in debug builds.
    pub fn from_streams<S: Space>(space: S, streams: Vec<GriddedStream>, horizon: u64) -> Self {
        let total: usize = streams.iter().map(GriddedStream::len).sum();
        let mut ids = Vec::with_capacity(streams.len());
        let mut starts = Vec::with_capacity(streams.len());
        let mut offsets = Vec::with_capacity(streams.len() + 1);
        let mut cells = Vec::with_capacity(total);
        offsets.push(0);
        for s in streams {
            ids.push(s.id);
            starts.push(s.start);
            cells.extend_from_slice(&s.cells);
            offsets.push(cells.len());
        }
        Self::from_columns(space, ids, starts, offsets, cells, horizon)
    }

    /// Assemble directly from columnar storage — the synthesizer's
    /// zero-copy release path and the I/O parser's target:
    /// `offsets[i]..offsets[i+1]` bounds stream `i`'s cells inside the
    /// flat `cells` column. Adjacency and cell bounds are checked in debug
    /// builds; the offset structure and the horizon always.
    pub fn from_columns<S: Space>(
        space: S,
        ids: Vec<u64>,
        starts: Vec<u64>,
        offsets: Vec<usize>,
        cells: Vec<CellId>,
        horizon: u64,
    ) -> Self {
        let topology = space.compile_shared();
        assert_eq!(ids.len(), starts.len(), "column length mismatch");
        assert_eq!(offsets.len(), ids.len() + 1, "offsets must bound every stream");
        assert_eq!(*offsets.first().unwrap_or(&0), 0, "offsets must begin at 0");
        assert_eq!(*offsets.last().unwrap_or(&0), cells.len(), "offsets must end at cells.len()");
        assert!(offsets.windows(2).all(|w| w[0] < w[1]), "streams are non-empty and ordered");
        debug_assert!(cells.iter().all(|c| c.index() < topology.num_cells()));
        debug_assert!(offsets
            .windows(2)
            .all(|w| { cells[w[0]..w[1]].windows(2).all(|p| topology.are_adjacent(p[0], p[1])) }));
        let computed = starts
            .iter()
            .zip(offsets.windows(2))
            .map(|(&s, w)| s + (w[1] - w[0]) as u64)
            .max()
            .unwrap_or(0);
        assert!(horizon >= computed, "horizon {horizon} < last report {computed}");
        GriddedDataset { topology, ids, starts, offsets, cells, horizon }
    }

    /// Discretize a raw dataset against a space, splitting streams at
    /// non-adjacent cell jumps.
    pub fn from_dataset(dataset: &StreamDataset, space: &impl Space) -> Self {
        let topology = space.compile_shared();
        // Every point becomes one cell; splits only add streams.
        let points: usize = dataset.trajectories().iter().map(|t| t.points.len()).sum();
        let streams = dataset.trajectories().len();
        let mut ids = Vec::with_capacity(streams);
        let mut starts = Vec::with_capacity(streams);
        let mut offsets = Vec::with_capacity(streams + 1);
        offsets.push(0usize);
        let mut cells: Vec<CellId> = Vec::with_capacity(points);
        // Cells go straight into `cells`; a stream closes at a
        // non-adjacent jump and at the end of its trajectory.
        let mut close = |end: usize, start: u64| {
            ids.push(ids.len() as u64);
            starts.push(start);
            offsets.push(end);
        };
        for traj in dataset.trajectories() {
            let base = cells.len();
            let mut seg_start = base;
            for p in &traj.points {
                let c = topology.cell_of(p);
                if cells.len() > seg_start && !topology.are_adjacent(cells[cells.len() - 1], c) {
                    close(cells.len(), traj.start + (seg_start - base) as u64);
                    seg_start = cells.len();
                }
                cells.push(c);
            }
            if cells.len() > seg_start {
                close(cells.len(), traj.start + (seg_start - base) as u64);
            }
        }
        GriddedDataset { topology, ids, starts, offsets, cells, horizon: dataset.horizon() }
    }

    /// The shared compiled topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// Number of streams.
    pub fn num_streams(&self) -> usize {
        self.ids.len()
    }

    /// Whether the database holds no streams.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Borrowed view of stream `i` (release order).
    pub fn stream(&self, i: usize) -> StreamView<'_> {
        StreamView {
            id: self.ids[i],
            start: self.starts[i],
            cells: &self.cells[self.offsets[i]..self.offsets[i + 1]],
        }
    }

    /// Borrowed iteration over every stream, in release order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = StreamView<'_>> + Clone {
        (0..self.ids.len()).map(|i| self.stream(i))
    }

    /// Materialize every stream as an owned row (I/O and test helper; the
    /// hot paths iterate views instead).
    pub fn to_streams(&self) -> Vec<GriddedStream> {
        self.iter().map(|s| s.to_owned()).collect()
    }

    /// Number of timestamps.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Number of streams active at `t`.
    pub fn active_count(&self, t: u64) -> usize {
        self.starts
            .iter()
            .zip(self.offsets.windows(2))
            .filter(|(&s, w)| t >= s && t < s + (w[1] - w[0]) as u64)
            .count()
    }

    /// Per-cell occupancy counts at timestamp `t`.
    pub fn snapshot_counts(&self, t: u64) -> Vec<u64> {
        let mut counts = vec![0u64; self.topology.num_cells()];
        for (&start, w) in self.starts.iter().zip(self.offsets.windows(2)) {
            if t >= start && t < start + (w[1] - w[0]) as u64 {
                counts[self.cells[w[0] + (t - start) as usize].index()] += 1;
            }
        }
        counts
    }

    /// Per-cell visit counts aggregated over all timestamps.
    pub fn total_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.topology.num_cells()];
        for c in &self.cells {
            counts[c.index()] += 1;
        }
        counts
    }

    /// Table-I statistics of the discretized database.
    pub fn stats(&self) -> DatasetStats {
        let points = self.cells.len();
        let n = self.ids.len();
        DatasetStats {
            streams: n,
            points,
            avg_length: if n == 0 { 0.0 } else { points as f64 / n as f64 },
            timestamps: self.horizon,
        }
    }

    /// Mean stream length (the paper sets the termination factor λ to this).
    pub fn avg_length(&self) -> f64 {
        self.stats().avg_length
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{BoundingBox, Point};
    use crate::space::QuadGrid;
    use crate::space::UniformGrid;
    use crate::trajectory::Trajectory;

    #[test]
    fn adjacent_stream_stays_whole() {
        let grid = UniformGrid::unit(4);
        // 0.1 -> cell x=0; 0.3 -> x=1; 0.6 -> x=2 : adjacent steps.
        let ds = StreamDataset::new(vec![Trajectory::new(
            0,
            2,
            vec![Point::new(0.1, 0.1), Point::new(0.3, 0.1), Point::new(0.6, 0.1)],
        )]);
        let g = ds.discretize(&grid);
        assert_eq!(g.num_streams(), 1);
        let s = g.stream(0);
        assert_eq!(s.start, 2);
        assert_eq!(s.cells, &[grid.cell_at(0, 0), grid.cell_at(1, 0), grid.cell_at(2, 0)]);
        assert_eq!(s.end(), 4);
        assert_eq!(s.first_cell(), grid.cell_at(0, 0));
        assert_eq!(s.last_cell(), grid.cell_at(2, 0));
    }

    #[test]
    fn jump_splits_stream() {
        let grid = UniformGrid::unit(4);
        // x jumps from cell 0 to cell 3: Chebyshev 3 -> split.
        let ds = StreamDataset::new(vec![Trajectory::new(
            0,
            0,
            vec![Point::new(0.1, 0.1), Point::new(0.9, 0.1), Point::new(0.9, 0.3)],
        )]);
        let g = ds.discretize(&grid);
        assert_eq!(g.num_streams(), 2);
        assert_eq!(g.stream(0).len(), 1);
        assert_eq!(g.stream(1).len(), 2);
        assert_eq!(g.stream(1).start, 1);
        // Ids are unique.
        assert_ne!(g.stream(0).id, g.stream(1).id);
    }

    #[test]
    fn discretize_against_quad_space() {
        // Dense strip along the bottom; coarse elsewhere.
        let pts: Vec<Point> = (0..400).map(|i| Point::new((i % 40) as f64 / 40.0, 0.05)).collect();
        let quad = QuadGrid::fit(BoundingBox::unit(), &pts, 30, 3);
        let ds = StreamDataset::new(vec![Trajectory::new(
            0,
            0,
            vec![Point::new(0.1, 0.05), Point::new(0.12, 0.05), Point::new(0.9, 0.9)],
        )]);
        let g = ds.discretize(&quad);
        assert_eq!(g.topology().num_cells(), quad.num_leaves());
        // Every stored step respects the compiled adjacency.
        for s in g.iter() {
            for w in s.cells.windows(2) {
                assert!(g.topology().are_adjacent(w[0], w[1]));
            }
        }
    }

    #[test]
    fn snapshot_and_total_counts() {
        let grid = UniformGrid::unit(2);
        let ds = StreamDataset::new(vec![
            Trajectory::new(0, 0, vec![Point::new(0.2, 0.2), Point::new(0.2, 0.2)]),
            Trajectory::new(1, 1, vec![Point::new(0.8, 0.8)]),
        ]);
        let g = ds.discretize(&grid);
        let snap0 = g.snapshot_counts(0);
        assert_eq!(snap0[grid.cell_at(0, 0).index()], 1);
        assert_eq!(snap0.iter().sum::<u64>(), 1);
        let snap1 = g.snapshot_counts(1);
        assert_eq!(snap1.iter().sum::<u64>(), 2);
        let totals = g.total_counts();
        assert_eq!(totals[grid.cell_at(0, 0).index()], 2);
        assert_eq!(totals[grid.cell_at(1, 1).index()], 1);
        assert_eq!(g.active_count(1), 2);
    }

    #[test]
    fn hop_distance() {
        let grid = UniformGrid::unit(5);
        let topo = crate::space::Space::compile(&grid);
        let s = GriddedStream {
            id: 0,
            start: 0,
            cells: vec![grid.cell_at(0, 0), grid.cell_at(1, 1), grid.cell_at(1, 2)],
        };
        assert_eq!(s.hop_distance(&topo), 2);
        assert_eq!(s.view().hop_distance(&topo), 2);
    }

    #[test]
    fn stats_of_discretized() {
        let grid = UniformGrid::unit(4);
        let ds = StreamDataset::new(vec![Trajectory::new(
            0,
            0,
            vec![Point::new(0.1, 0.1), Point::new(0.9, 0.1)],
        )]);
        let g = ds.discretize(&grid);
        let s = g.stats();
        assert_eq!(s.streams, 2); // split by the jump
        assert_eq!(s.points, 2);
        assert!((g.avg_length() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_streams_roundtrip() {
        let grid = UniformGrid::unit(3);
        let streams = vec![GriddedStream {
            id: 0,
            start: 1,
            cells: vec![grid.cell_at(0, 0), grid.cell_at(1, 0)],
        }];
        let g = GriddedDataset::from_streams(grid.clone(), streams.clone(), 5);
        assert_eq!(g.horizon(), 5);
        assert_eq!(g.num_streams(), 1);
        assert_eq!(g.stream(0).cell_at(2), Some(grid.cell_at(1, 0)));
        assert_eq!(g.stream(0).cell_at(0), None);
        // Views round-trip to the owned rows they were built from.
        assert_eq!(g.to_streams(), streams);
    }

    #[test]
    fn from_columns_matches_from_streams() {
        let grid = UniformGrid::unit(3);
        let streams = vec![
            GriddedStream { id: 4, start: 0, cells: vec![grid.cell_at(0, 0), grid.cell_at(1, 1)] },
            GriddedStream { id: 7, start: 2, cells: vec![grid.cell_at(2, 2)] },
        ];
        let a = GriddedDataset::from_streams(grid.clone(), streams, 4);
        let b = GriddedDataset::from_columns(
            grid.clone(),
            vec![4, 7],
            vec![0, 2],
            vec![0, 2, 3],
            vec![grid.cell_at(0, 0), grid.cell_at(1, 1), grid.cell_at(2, 2)],
            4,
        );
        assert_eq!(a, b);
        assert!(a.iter().eq(b.iter()));
    }

    #[test]
    #[should_panic(expected = "offsets must end")]
    fn from_columns_rejects_ragged_offsets() {
        let grid = UniformGrid::unit(2);
        let _ = GriddedDataset::from_columns(
            grid.clone(),
            vec![0],
            vec![0],
            vec![0, 2],
            vec![grid.cell_at(0, 0)],
            3,
        );
    }
}
