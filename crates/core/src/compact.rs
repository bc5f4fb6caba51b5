//! Epoch compaction: memory-bounding the tail arena for unbounded streams.
//!
//! The paper's setting is an in-principle endless stream, but the
//! [`TailArena`](crate::store) is append-only for the life of a session:
//! every cell a finished stream ever reported stays resident, so memory
//! grows with *total history* rather than the live population. Compaction
//! fixes that by draining the finished region out of the arena into
//! epoch-stamped **frozen** storage:
//!
//! 1. every finished stream's chain is walked once, backward, and written
//!    forward into a flat cell column (`FrozenStore`) stamped with the
//!    timestamp the compaction ran at;
//! 2. the arena is rebuilt to hold only the live chains (O(live cells)),
//!    and the spare arena's chunks are recycled between runs so steady-state
//!    compaction allocates nothing.
//!
//! After a compaction, resident arena memory is exactly the live
//! population's history; frozen cells are flat, contiguous, and never
//! touched again until release. `SnapshotView` and
//! `StreamStore::into_dataset` serve transparently across both regions, so
//! snapshots and the released dataset are **bit-for-bit identical** whether
//! or not compaction ever ran (the release path merges regions by stream
//! id, which is unique).
//!
//! The engine triggers compaction from a [`CompactionPolicy`] high-water
//! mark on resident cells, checked after each step. If the *live*
//! population alone exceeds the mark, compaction cannot get below it; the
//! engine records the overflow in [`CompactionStats`] and keeps going
//! (graceful degradation — log and compact, never abort).

use crate::store::{SnapshotStream, StreamStore, TailArena, TailNode, NO_LINK};
use crate::wal::{Dec, Enc};
use retrasyn_geo::CellId;

/// When to run epoch compaction: once the store's resident cells (arena
/// nodes + head rows) exceed `high_water_cells` after a step.
///
/// Pick the mark from the memory budget: resident cells cost ~8 bytes each
/// in the arena. Compaction itself is O(resident), so a mark well above
/// the expected live population amortizes to a small constant per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Resident-cell high-water mark that triggers a compaction.
    pub high_water_cells: usize,
}

impl CompactionPolicy {
    /// Policy triggering compaction above `high_water_cells` resident
    /// cells.
    pub fn new(high_water_cells: usize) -> Self {
        CompactionPolicy { high_water_cells }
    }
}

/// Counters describing the compactions a session has run (informational;
/// compaction never changes released output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Number of compactions run.
    pub runs: u64,
    /// Streams drained into the frozen region, total.
    pub frozen_streams: u64,
    /// Cells drained into the frozen region, total.
    pub frozen_cells: u64,
    /// Steps that ended above the high-water mark even after compacting —
    /// the live population alone exceeds the mark (graceful-degradation
    /// path: logged, never fatal).
    pub overflows: u64,
}

/// Boundary of one compaction epoch inside the frozen region: streams
/// `..streams_end` / cells `..cells_end` were frozen at or before
/// timestamp `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EpochMark {
    pub(crate) epoch: u64,
    pub(crate) streams_end: usize,
    pub(crate) cells_end: usize,
}

/// Flat, forward-ordered storage for compacted (frozen) streams. Appended
/// to only by compaction, read by snapshots and release; cells of stream
/// `i` are the contiguous slice `cells[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrozenStore {
    pub(crate) ids: Vec<u64>,
    pub(crate) starts: Vec<u64>,
    /// `ids.len() + 1` entries once non-empty; `offsets[0] == 0`.
    pub(crate) offsets: Vec<usize>,
    pub(crate) cells: Vec<CellId>,
    /// Epoch stamps, in compaction order.
    pub(crate) epochs: Vec<EpochMark>,
}

impl FrozenStore {
    /// Number of frozen streams.
    #[inline]
    pub(crate) fn num_streams(&self) -> usize {
        self.ids.len()
    }

    /// Total frozen cells.
    #[inline]
    pub(crate) fn total_cells(&self) -> usize {
        self.cells.len()
    }

    /// Cells of frozen stream `i`, oldest first.
    #[inline]
    pub(crate) fn cells_of(&self, i: usize) -> &[CellId] {
        &self.cells[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Frozen stream `i` as a snapshot stream.
    #[inline]
    pub(crate) fn stream(&self, i: usize) -> SnapshotStream<'_> {
        SnapshotStream::from_flat(self.ids[i], self.starts[i], self.cells_of(i))
    }

    /// Drop all frozen streams, keeping buffer capacity.
    pub(crate) fn clear(&mut self) {
        self.ids.clear();
        self.starts.clear();
        self.offsets.clear();
        self.cells.clear();
        self.epochs.clear();
    }

    /// Append one stream's cells (oldest first).
    fn push_stream(&mut self, id: u64, start: u64, cells: &[CellId]) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.ids.push(id);
        self.starts.push(start);
        self.cells.extend_from_slice(cells);
        self.offsets.push(self.cells.len());
    }

    /// Serialize the frozen region (checkpoint format): per-stream header
    /// columns with lengths, the flat cell column, the epoch marks.
    pub(crate) fn encode_into(&self, enc: &mut Enc) {
        let n = self.num_streams();
        enc.usize(n);
        for i in 0..n {
            enc.u64(self.ids[i]);
            enc.u64(self.starts[i]);
            enc.usize(self.cells_of(i).len());
        }
        enc.usize(self.cells.len());
        for &c in &self.cells {
            enc.u32(c.0);
        }
        enc.usize(self.epochs.len());
        for m in &self.epochs {
            enc.u64(m.epoch);
            enc.usize(m.streams_end);
            enc.usize(m.cells_end);
        }
    }

    /// Rebuild from [`Self::encode_into`] output, reusing allocations. All
    /// structural invariants (offset consistency, epoch-mark bounds) are
    /// re-derived or checked — an inconsistent payload is an `Err`, never a
    /// panic.
    pub(crate) fn decode_from(&mut self, dec: &mut Dec) -> Result<(), String> {
        self.clear();
        let n = dec.usize()?;
        for i in 0..n {
            if self.offsets.is_empty() {
                self.offsets.push(0);
            }
            self.ids.push(dec.u64()?);
            self.starts.push(dec.u64()?);
            let len = dec.usize()?;
            if len == 0 {
                return Err(format!("frozen stream {i} has length 0"));
            }
            let last = *self.offsets.last().expect("seeded above");
            self.offsets
                .push(last.checked_add(len).ok_or_else(|| "frozen offsets overflow".to_string())?);
        }
        let total = dec.usize()?;
        if n > 0 && total != self.offsets[n] {
            return Err(format!(
                "frozen cell count {total} disagrees with stream lengths ({})",
                self.offsets[n]
            ));
        }
        if n == 0 && total != 0 {
            return Err(format!("frozen region has {total} cells but no streams"));
        }
        self.cells.reserve(total.min(dec.remaining() / 4));
        for _ in 0..total {
            self.cells.push(CellId(dec.u32()?));
        }
        let marks = dec.usize()?;
        let mut prev = EpochMark { epoch: 0, streams_end: 0, cells_end: 0 };
        for i in 0..marks {
            let mark =
                EpochMark { epoch: dec.u64()?, streams_end: dec.usize()?, cells_end: dec.usize()? };
            let monotone = mark.streams_end > prev.streams_end
                && mark.cells_end >= prev.cells_end
                && mark.streams_end <= n
                && mark.cells_end <= total;
            if !monotone {
                return Err(format!("epoch mark {i} out of order or out of bounds"));
            }
            self.epochs.push(mark);
            prev = mark;
        }
        if marks > 0 && (prev.streams_end != n || prev.cells_end != total) {
            return Err("last epoch mark does not cover the frozen region".to_string());
        }
        if marks == 0 && n > 0 {
            return Err("frozen streams present without an epoch mark".to_string());
        }
        Ok(())
    }
}

impl StreamStore {
    /// Run one epoch compaction stamped with timestamp `epoch`: drain the
    /// finished region into the frozen store and rebuild the tail arena
    /// with only the live chains. `spare` is the arena to rebuild into
    /// (swapped with the current one, so chunk allocations are recycled
    /// across runs); `scratch` is a reusable cell buffer.
    ///
    /// Returns `(streams_frozen, cells_frozen)`. Snapshots and release
    /// output are bit-for-bit unchanged by this call.
    pub(crate) fn compact(
        &mut self,
        epoch: u64,
        spare: &mut TailArena,
        scratch: &mut Vec<CellId>,
    ) -> (usize, usize) {
        // Phase 1: freeze the finished region.
        let n = self.finished.len();
        let cells_before = self.frozen.total_cells();
        for i in 0..n {
            let len = self.finished.lens[i] as usize;
            scratch.clear();
            scratch.resize(len, CellId(0));
            self.write_cells(self.finished.heads[i], len, self.finished.links[i], scratch);
            let (id, start) = (self.finished.ids[i], self.finished.starts[i]);
            self.frozen.push_stream(id, start, scratch);
        }
        if n > 0 {
            self.frozen.epochs.push(EpochMark {
                epoch,
                streams_end: self.frozen.num_streams(),
                cells_end: self.frozen.total_cells(),
            });
        }
        self.finished.clear();

        // Phase 2: rebuild the arena with only the live chains. Each chain
        // is walked backward into `scratch` (oldest first), then re-linked
        // forward into `spare` — addresses change, lengths and cells do
        // not.
        spare.clear();
        for i in 0..self.live.len() {
            let len = self.live.lens[i] as usize;
            if len == 1 {
                debug_assert_eq!(self.live.links[i], NO_LINK);
                continue;
            }
            scratch.clear();
            scratch.resize(len - 1, CellId(0));
            let mut addr = self.live.links[i];
            for slot in scratch.iter_mut().rev() {
                let node = self.tail.get(addr);
                *slot = node.cell;
                addr = node.prev;
            }
            debug_assert_eq!(addr, NO_LINK, "chain length disagrees with len column");
            let mut link = NO_LINK;
            for &cell in scratch.iter() {
                link = spare.push(TailNode { cell, prev: link });
            }
            self.live.links[i] = link;
        }
        std::mem::swap(&mut self.tail, spare);
        (n, self.frozen.total_cells() - cells_before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retrasyn_geo::Grid;

    /// Build a store with a mix of finished and live streams, extended
    /// enough to have real chains. Cells stay inside a 2×2 sub-grid where
    /// every pair is adjacent, so releases satisfy the reachability
    /// invariant regardless of row reordering.
    fn build_store(grid: &Grid) -> StreamStore {
        let mut store = StreamStore::default();
        for id in 0..6u64 {
            store.spawn(id, id % 3, grid.cell_at((id % 2) as u16, 0));
        }
        for round in 1..5u16 {
            let n = store.live.len();
            for row in 0..n {
                let StreamStore { live, tail, .. } = &mut store;
                live.extend_row(row, grid.cell_at(round % 2, (row % 2) as u16), tail);
            }
            // Retire one stream per round.
            let StreamStore { live, finished, .. } = &mut store;
            if live.len() > 2 {
                live.swap_remove_into(0, finished);
            }
        }
        store
    }

    fn snapshot_sorted(store: &StreamStore) -> Vec<(u64, u64, Vec<CellId>)> {
        let mut out: Vec<_> = store
            .snapshot(10)
            .streams()
            .map(|s| {
                let mut cells = Vec::new();
                s.cells_into(&mut cells);
                (s.id(), s.start(), cells)
            })
            .collect();
        out.sort_by_key(|&(id, ..)| id);
        out
    }

    #[test]
    fn compaction_preserves_snapshot_and_release() {
        let grid = Grid::unit(4);
        let plain = build_store(&grid);
        let mut compacted = build_store(&grid);

        let before = snapshot_sorted(&compacted);
        let mut spare = TailArena::default();
        let mut scratch = Vec::new();
        let (streams, cells) = compacted.compact(4, &mut spare, &mut scratch);
        assert_eq!(streams, plain.finished.len());
        assert!(cells >= streams); // every stream has >= 1 cell
        assert_eq!(compacted.finished.len(), 0);
        assert_eq!(compacted.frozen.num_streams(), streams);
        assert_eq!(compacted.frozen.epochs.len(), 1);
        assert_eq!(compacted.frozen.epochs[0].epoch, 4);

        // The arena now holds only live chains.
        let live_tail: usize = compacted.live.lens.iter().map(|&l| l as usize - 1).sum();
        assert_eq!(compacted.tail.len(), live_tail);
        assert!(compacted.resident_cells() < plain.resident_cells());

        // Snapshots are identical (modulo region ordering) before and
        // after, and against the non-compacting store.
        assert_eq!(snapshot_sorted(&compacted), before);
        assert_eq!(snapshot_sorted(&compacted), snapshot_sorted(&plain));
        assert_eq!(compacted.snapshot(10).finished_count(), plain.snapshot(10).finished_count());

        // Release is bit-identical.
        let a = plain.into_dataset(grid.clone(), 10);
        let b = compacted.into_dataset(grid.clone(), 10);
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_compaction_is_idempotent_when_nothing_finished() {
        let grid = Grid::unit(4);
        let mut store = build_store(&grid);
        let mut spare = TailArena::default();
        let mut scratch = Vec::new();
        store.compact(4, &mut spare, &mut scratch);
        let snap = snapshot_sorted(&store);
        let resident = store.resident_cells();
        // Nothing finished since: freezes nothing, no new epoch mark.
        let (streams, cells) = store.compact(5, &mut spare, &mut scratch);
        assert_eq!((streams, cells), (0, 0));
        assert_eq!(store.frozen.epochs.len(), 1);
        assert_eq!(store.resident_cells(), resident);
        assert_eq!(snapshot_sorted(&store), snap);
    }

    #[test]
    fn reset_clears_frozen_region() {
        let grid = Grid::unit(4);
        let mut store = build_store(&grid);
        let mut spare = TailArena::default();
        let mut scratch = Vec::new();
        store.compact(4, &mut spare, &mut scratch);
        assert!(store.frozen.num_streams() > 0);
        store.reset();
        assert_eq!(store.frozen.num_streams(), 0);
        assert_eq!(store.resident_cells(), 0);
        assert!(store.snapshot(0).is_empty());
    }

    /// A crafted cell count used to size the cell reservation directly
    /// and abort with `capacity overflow`; it must be a decode error.
    #[test]
    fn huge_cell_count_is_an_error_not_an_abort() {
        let huge = 1usize << 62;
        let mut enc = Enc::default();
        enc.usize(1); // one frozen stream
        enc.u64(7); // id
        enc.u64(0); // start
        enc.usize(huge); // its length
        enc.usize(huge); // total cells, consistent with the length
        let mut frozen = FrozenStore::default();
        let err = frozen.decode_from(&mut Dec::new(&enc.buf)).unwrap_err();
        assert!(err.contains("unexpected end of data"), "{err}");
    }
}
