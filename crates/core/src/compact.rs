//! Epoch compaction: memory-bounding the tail arena for unbounded streams.
//!
//! The paper's setting is an in-principle endless stream, but the
//! [`TailArena`](crate::store) is append-only for the life of a session:
//! every cell a finished stream ever reported stays resident, so memory
//! grows with *total history* rather than the live population. Compaction
//! fixes that by draining the finished region out of the arena into
//! epoch-stamped **frozen** storage:
//!
//! 1. the finished streams are appended to a flat cell column
//!    (`FrozenStore`) stamped with the timestamp the compaction ran at:
//!    each stream's range follows from its length, so the column grows
//!    once and the chains are walked straight into place, interleaved
//!    ([`TailArena::walk_chains`](crate::store));
//! 2. the arena is rebuilt to hold only the live chains (O(live cells)):
//!    each chain's addresses in the spare arena are reserved from the
//!    lengths before it and its nodes written in place by the same
//!    interleaved walk, and the spare arena's chunks are recycled between
//!    runs so steady-state compaction allocates nothing.
//!
//! After a compaction, resident arena memory is exactly the live
//! population's history; frozen cells are flat, contiguous, and never
//! touched again until release. `SnapshotView` and
//! `StreamStore::into_dataset` serve transparently across both regions, so
//! snapshots and the released dataset are **bit-for-bit identical** whether
//! or not compaction ever ran (the release path merges regions by stream
//! id, which is unique).
//!
//! Frozen epochs are also persisted once. A checkpoint carries only the
//! epoch marks; each epoch's streams travel as one framed block
//! (`FrozenStore::encode_block`, the one block codec), which a
//! [`Checkpointer`](crate::wal::Checkpointer) appends to the WAL's
//! `<wal>.frozen` file the first time it sees the epoch and references from
//! every later sidecar, and which
//! [`checkpoint_bytes`](crate::StreamingEngine::checkpoint_bytes) appends
//! inline. A checkpoint's cost thus follows the live state and the new
//! epochs, not the compacted history (see [`crate::wal`]).
//!
//! The engine triggers compaction from a [`CompactionPolicy`] high-water
//! mark on resident cells, checked after each step. If the *live*
//! population alone exceeds the mark, compaction cannot get below it; the
//! engine records the overflow in [`CompactionStats`] and keeps going
//! (graceful degradation — log, never abort). Every later step that ends
//! above the mark compacts again, rebuilding every live chain, so a mark
//! below the live population costs a full compaction per step.

use crate::store::{Addr, ChainJob, SnapshotStream, StreamStore, TailArena, TailNode, NO_LINK};
use crate::wal::codec::{open, seal, Dec, Enc, CRC_LEN};
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

    /// Serialize the epoch marks (checkpoint format). The marks are the
    /// part of the frozen region a checkpoint always carries; the epochs'
    /// cells travel as blocks ([`Self::encode_block`]), inline after the
    /// rest of the checkpoint or once each in the WAL's frozen file.
    pub(crate) fn encode_into(&self, enc: &mut Enc) {
        enc.usize(self.epochs.len());
        for m in &self.epochs {
            enc.u64(m.epoch);
            enc.usize(m.streams_end);
            enc.usize(m.cells_end);
        }
    }

    /// Byte length of [`Self::encode_into`] output.
    pub(crate) fn encoded_len(&self) -> usize {
        8 + 24 * self.epochs.len()
    }

    /// Restore the epoch marks from [`Self::encode_into`] output and drop
    /// every frozen stream; [`Self::decode_blocks`] then fills the columns.
    /// Marks out of order are an `Err`.
    pub(crate) fn decode_from(&mut self, dec: &mut Dec) -> Result<(), String> {
        self.clear();
        let marks = dec.usize()?;
        self.epochs.reserve(marks.min(dec.remaining() / 24));
        let mut prev = EpochMark { epoch: 0, streams_end: 0, cells_end: 0 };
        for i in 0..marks {
            let mark =
                EpochMark { epoch: dec.u64()?, streams_end: dec.usize()?, cells_end: dec.usize()? };
            // Every epoch freezes at least one stream of at least one cell.
            let monotone = mark.streams_end > prev.streams_end
                && mark.cells_end >= prev.cells_end
                && mark.cells_end - prev.cells_end >= mark.streams_end - prev.streams_end;
            if !monotone {
                return Err(format!("epoch mark {i} out of order"));
            }
            self.epochs.push(mark);
            prev = mark;
        }
        Ok(())
    }

    /// The fixed fields of epoch `i`'s block.
    pub(crate) fn block_header(&self, i: usize) -> BlockHeader {
        let (streams_start, cells_start) = self.epoch_start(i);
        let m = self.epochs[i];
        BlockHeader {
            epoch: m.epoch,
            streams: (m.streams_end - streams_start) as u64,
            cells: (m.cells_end - cells_start) as u64,
        }
    }

    /// First stream and first cell of epoch `i`.
    fn epoch_start(&self, i: usize) -> (usize, usize) {
        i.checked_sub(1).map_or((0, 0), |p| (self.epochs[p].streams_end, self.epochs[p].cells_end))
    }

    /// Byte length of every epoch block together.
    pub(crate) fn blocks_len(&self) -> usize {
        let (streams, cells) = (self.num_streams(), self.total_cells());
        self.epochs.len() * (BLOCK_HEADER_LEN + CRC_LEN) + 20 * streams + 4 * cells
    }

    /// Append epoch `i` as one frame to `out`: the header, the id, start
    /// and length columns of its streams and its flat cell column, closed
    /// by their CRC32, which is returned.
    pub(crate) fn encode_block(&self, i: usize, out: &mut Vec<u8>) -> u32 {
        let (s0, c0) = self.epoch_start(i);
        let (s1, c1) = (self.epochs[i].streams_end, self.epochs[i].cells_end);
        let header = self.block_header(i);
        let start = out.len();
        out.reserve(
            header.block_len().expect("an in-memory epoch has a representable size") as usize
        );
        for v in [header.epoch, header.streams, header.cells] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for &id in &self.ids[s0..s1] {
            out.extend_from_slice(&id.to_le_bytes());
        }
        for &start in &self.starts[s0..s1] {
            out.extend_from_slice(&start.to_le_bytes());
        }
        for w in self.offsets[s0..=s1].windows(2) {
            let len = u32::try_from(w[1] - w[0]).expect("stream lengths come from a u32 column");
            out.extend_from_slice(&len.to_le_bytes());
        }
        for &c in &self.cells[c0..c1] {
            out.extend_from_slice(&c.0.to_le_bytes());
        }
        seal(out, start)
    }

    /// Fill the frozen columns from `bytes`, which must hold exactly one
    /// block per epoch mark (as [`Self::encode_block`] writes them), in
    /// order. Each block must pass its CRC and carry the stamp and counts
    /// its mark implies. Every reservation is checked against the bytes
    /// present first, so a crafted mark cannot over-allocate; any
    /// inconsistency is an `Err`, never a panic.
    pub(crate) fn decode_blocks(&mut self, bytes: &[u8]) -> Result<(), String> {
        let (streams, cells) = self.epochs.last().map_or((0, 0), |m| (m.streams_end, m.cells_end));
        let fits = streams
            .checked_mul(20)
            .zip(cells.checked_mul(4))
            .and_then(|(a, b)| a.checked_add(b))
            .is_some_and(|need| need <= bytes.len());
        if !fits {
            return Err(format!(
                "{streams} frozen streams of {cells} cells do not fit in {} bytes",
                bytes.len()
            ));
        }
        self.ids.reserve(streams);
        self.starts.reserve(streams);
        self.offsets.reserve(streams + 1);
        self.cells.reserve(cells);
        if streams > 0 {
            self.offsets.push(0);
        }
        let mut rest = Dec::new(bytes);
        for i in 0..self.epochs.len() {
            let want = self.block_header(i);
            let len = want.block_len().and_then(|l| usize::try_from(l).ok());
            let Some(frame) = len.and_then(|len| rest.take(len).ok()) else {
                return Err(format!("epoch block {i} is truncated"));
            };
            let mut block = Dec::new(open(frame).map_err(|e| format!("epoch block {i}: {e}"))?);
            let got = BlockHeader::decode(&mut block)?;
            if got != want {
                return Err(format!("epoch block {i} is {got:?}, its mark says {want:?}"));
            }
            let n = want.streams as usize;
            self.ids.extend(block.column(n, u64::from_le_bytes)?);
            self.starts.extend(block.column(n, u64::from_le_bytes)?);
            let mut end = *self.offsets.last().expect("seeded above");
            for len in block.column(n, u32::from_le_bytes)? {
                if len == 0 {
                    return Err(format!("epoch block {i} holds a stream of length 0"));
                }
                end = end.saturating_add(len as usize);
                self.offsets.push(end);
            }
            if end != self.epochs[i].cells_end {
                return Err(format!(
                    "stream lengths of epoch block {i} disagree with its cell count"
                ));
            }
            let cells = block.column(want.cells as usize, u32::from_le_bytes)?;
            self.cells.extend(cells.map(CellId));
        }
        if rest.remaining() > 0 {
            return Err(format!("{} trailing bytes after the last epoch block", rest.remaining()));
        }
        Ok(())
    }
}

/// Bytes of the fixed fields opening every epoch block.
pub(crate) const BLOCK_HEADER_LEN: usize = 24;

/// The fixed fields opening an epoch block: the compaction's timestamp
/// and how many streams and cells it froze.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockHeader {
    pub(crate) epoch: u64,
    pub(crate) streams: u64,
    pub(crate) cells: u64,
}

impl BlockHeader {
    /// Read the fields opening a block's body.
    pub(crate) fn decode(dec: &mut Dec) -> Result<Self, String> {
        Ok(BlockHeader { epoch: dec.u64()?, streams: dec.u64()?, cells: dec.u64()? })
    }

    /// Byte length of the whole frame — fixed fields, columns and CRC
    /// trailer — or `None` if the counts overflow it.
    pub(crate) fn block_len(&self) -> Option<u64> {
        self.streams
            .checked_mul(20)?
            .checked_add(self.cells.checked_mul(4)?)?
            .checked_add((BLOCK_HEADER_LEN + CRC_LEN) as u64)
    }
}

/// The frozen epochs of an engine's synthetic store, borrowed for a
/// [`Checkpointer`](crate::wal::Checkpointer), which writes each epoch
/// once to the WAL's frozen file instead of into every checkpoint (see
/// [`StreamingEngine::checkpoint_by_ref`](crate::StreamingEngine::checkpoint_by_ref)).
/// The default holds no epochs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrozenEpochs<'a> {
    pub(crate) store: Option<&'a FrozenStore>,
}

impl<'a> FrozenEpochs<'a> {
    pub(crate) fn new(store: &'a FrozenStore) -> Self {
        FrozenEpochs { store: Some(store) }
    }
}

impl StreamStore {
    /// Run one epoch compaction stamped with timestamp `epoch`: drain the
    /// finished region into the frozen store and rebuild the tail arena
    /// with only the live chains. `spare` is the arena to rebuild into
    /// (swapped with the current one, so chunk allocations are recycled
    /// across runs).
    ///
    /// Returns `(streams_frozen, cells_frozen)`. Snapshots and release
    /// output are bit-for-bit unchanged by this call.
    pub(crate) fn compact(&mut self, epoch: u64, spare: &mut TailArena) -> (usize, usize) {
        let StreamStore { live, finished, tail, frozen } = self;

        // Phase 1: freeze the finished region. Each stream's range of the
        // flat cell column is known from its length, so the column grows
        // once, the heads go to the ends of their ranges and the chains
        // are walked, interleaved, straight into place.
        let n = finished.len();
        let cells_before = frozen.total_cells();
        if n > 0 && frozen.offsets.is_empty() {
            frozen.offsets.push(0);
        }
        frozen.ids.extend_from_slice(&finished.ids);
        frozen.starts.extend_from_slice(&finished.starts);
        let mut end = cells_before;
        frozen.offsets.extend(finished.lens.iter().map(|&len| {
            end += len as usize;
            end
        }));
        frozen.cells.resize(end, CellId(0));
        let ends = &frozen.offsets[frozen.offsets.len() - n..];
        for (&head, &end) in finished.heads.iter().zip(ends) {
            frozen.cells[end - 1] = head;
        }
        let jobs =
            finished.links.iter().zip(&finished.lens).zip(ends).map(|((&link, &len), &end)| {
                ChainJob { link, end: end - 1, count: len as usize - 1 }
            });
        tail.walk_chains(jobs, |pos, cell, _| frozen.cells[pos] = cell);
        if n > 0 {
            frozen.epochs.push(EpochMark {
                epoch,
                streams_end: frozen.num_streams(),
                cells_end: frozen.total_cells(),
            });
        }
        finished.clear();

        // Phase 2: rebuild the arena with only the live chains, in live
        // order, each oldest first. A chain's addresses in `spare` follow
        // from the lengths before it, so they are reserved up front and
        // every node is written in place with its backward link: the same
        // layout, byte for byte, as pushing each chain oldest first.
        spare.clear();
        spare.push_placeholders(live.lens.iter().map(|&len| len as usize - 1).sum());
        let mut end = 0;
        let jobs = live.links.iter().zip(&live.lens).map(|(&link, &len)| {
            let count = len as usize - 1;
            end += count;
            ChainJob { link, end, count }
        });
        tail.walk_chains(jobs, |pos, cell, lo| {
            let prev = if pos == lo { NO_LINK } else { (pos - 1) as Addr };
            spare.set(pos, TailNode { cell, prev });
        });
        let mut end = 0;
        for (link, &len) in live.links.iter_mut().zip(&live.lens) {
            end += len as usize - 1;
            *link = if len == 1 { NO_LINK } else { (end - 1) as Addr };
        }
        std::mem::swap(tail, spare);
        (n, frozen.total_cells() - cells_before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Columns, LANES};
    use retrasyn_geo::UniformGrid;

    /// Build a store with a mix of finished and live streams, extended
    /// enough to have real chains. Cells stay inside a 2×2 sub-grid where
    /// every pair is adjacent, so releases satisfy the reachability
    /// invariant regardless of row reordering.
    fn build_store(grid: &UniformGrid) -> StreamStore {
        let mut store = StreamStore::default();
        for id in 0..6u64 {
            store.spawn(id, id % 3, grid.cell_at((id % 2) as u32, 0));
        }
        for round in 1..5u32 {
            let n = store.live.len();
            for row in 0..n {
                let StreamStore { live, tail, .. } = &mut store;
                live.extend_row(row, grid.cell_at(round % 2, (row % 2) as u32), tail);
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
        let grid = UniformGrid::unit(4);
        let plain = build_store(&grid);
        let mut compacted = build_store(&grid);

        let before = snapshot_sorted(&compacted);
        let mut spare = TailArena::default();
        let (streams, cells) = compacted.compact(4, &mut spare);
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
        let grid = UniformGrid::unit(4);
        let mut store = build_store(&grid);
        let mut spare = TailArena::default();
        store.compact(4, &mut spare);
        let snap = snapshot_sorted(&store);
        let resident = store.resident_cells();
        // Nothing finished since: freezes nothing, no new epoch mark.
        let (streams, cells) = store.compact(5, &mut spare);
        assert_eq!((streams, cells), (0, 0));
        assert_eq!(store.frozen.epochs.len(), 1);
        assert_eq!(store.resident_cells(), resident);
        assert_eq!(snapshot_sorted(&store), snap);
    }

    #[test]
    fn reset_clears_frozen_region() {
        let grid = UniformGrid::unit(4);
        let mut store = build_store(&grid);
        let mut spare = TailArena::default();
        store.compact(4, &mut spare);
        assert!(store.frozen.num_streams() > 0);
        store.reset();
        assert_eq!(store.frozen.num_streams(), 0);
        assert_eq!(store.resident_cells(), 0);
        assert!(store.snapshot(0).is_empty());
    }

    /// The chain-at-a-time compaction the lane kernel replaced: each
    /// finished chain walked into a buffer and appended to the frozen
    /// region, each live chain walked into a buffer and re-pushed into the
    /// spare arena. Compaction must match it byte for byte.
    fn reference_compact(store: &mut StreamStore, epoch: u64, spare: &mut TailArena) {
        let StreamStore { live, finished, tail, frozen } = store;
        let chain = |cols: &Columns, i: usize| {
            let mut cells = vec![cols.heads[i]];
            let mut addr = cols.links[i];
            for _ in 1..cols.lens[i] {
                let node = tail.get(addr);
                cells.push(node.cell);
                addr = node.prev;
            }
            assert_eq!(addr, NO_LINK, "chain length disagrees with len column");
            cells.reverse();
            cells
        };
        for i in 0..finished.len() {
            if frozen.offsets.is_empty() {
                frozen.offsets.push(0);
            }
            frozen.ids.push(finished.ids[i]);
            frozen.starts.push(finished.starts[i]);
            frozen.cells.extend(chain(finished, i));
            frozen.offsets.push(frozen.cells.len());
        }
        if finished.len() > 0 {
            let (streams_end, cells_end) = (frozen.num_streams(), frozen.total_cells());
            frozen.epochs.push(EpochMark { epoch, streams_end, cells_end });
        }
        finished.clear();
        spare.clear();
        for i in 0..live.len() {
            let cells = chain(live, i);
            let mut link = NO_LINK;
            for &cell in &cells[..cells.len() - 1] {
                link = spare.push(TailNode { cell, prev: link });
            }
            live.links[i] = link;
        }
        std::mem::swap(tail, spare);
    }

    /// Everything a store holds, as a checkpoint carries it: the arena in
    /// address order, both row regions and the epoch marks, then every
    /// frozen epoch's block.
    fn image(store: &StreamStore) -> Vec<u8> {
        let mut enc = Enc::default();
        store.encode_into(&mut enc);
        for i in 0..store.frozen.epochs.len() {
            store.frozen.encode_block(i, &mut enc.buf);
        }
        enc.buf
    }

    /// Compact both stores at `t`, `lanes` with the lane kernel and
    /// `reference` with [`reference_compact`]: they must come out
    /// identical, and `lanes` must show the snapshot it showed before.
    fn compact_both(
        t: u64,
        (lanes, spare_lanes): (&mut StreamStore, &mut TailArena),
        (reference, spare_reference): (&mut StreamStore, &mut TailArena),
    ) -> Result<(), String> {
        let before = snapshot_sorted(lanes);
        lanes.compact(t, spare_lanes);
        reference_compact(reference, t, spare_reference);
        if image(lanes) != image(reference) {
            return Err(format!("compaction at t={t} diverged from the reference"));
        }
        if snapshot_sorted(lanes) != before {
            return Err(format!("compaction at t={t} changed the snapshot"));
        }
        Ok(())
    }

    /// Replay a random store history on two stores in lockstep, one
    /// compacted by the lane kernel and one by the reference, checking
    /// after every compaction that they agree byte for byte, then release
    /// both. `shape` picks the history: 0 a random mix, 1 only length-1
    /// chains, 2 one very long chain among short ones, 3 an empty store,
    /// 4 a store whose every stream ends frozen.
    fn lane_history(seed: u64, shape: u8, streams: usize) -> Result<(), String> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let grid = UniformGrid::unit(4);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lanes = StreamStore::default();
        let mut reference = StreamStore::default();
        let (mut spare_lanes, mut spare_reference) = (TailArena::default(), TailArena::default());
        let mut next_id = 0u64;
        let mut t = 0u64;
        let steps = match shape {
            3 => 0,
            2 => 3 * LANES,
            _ => 6 * streams + 1,
        };
        // A cell inside a 2×2 block, so any sequence is a valid path.
        let cell = |rng: &mut StdRng| grid.cell_at(rng.random_range(0..2), rng.random_range(0..2));
        let both = |a: &mut StreamStore, b: &mut StreamStore, f: &dyn Fn(&mut StreamStore)| {
            f(a);
            f(b);
        };
        for _ in 0..steps {
            t += 1;
            let op = rng.random_range(0..100u32);
            let rows = lanes.live.len();
            if (next_id as usize) < streams && (op < 30 || rows == 0) {
                let (id, c) = (next_id, cell(&mut rng));
                both(&mut lanes, &mut reference, &|s| s.spawn(id, t, c));
                next_id += 1;
            } else if op < 70 && shape != 1 && rows > 0 {
                // One step: every live stream moves (interleaving chains
                // in the arena, as the synthesizer does), or one does.
                let moves: Vec<(usize, CellId)> = if op < 55 {
                    (0..rows).map(|row| (row, cell(&mut rng))).collect()
                } else {
                    vec![(rng.random_range(0..rows), cell(&mut rng))]
                };
                both(&mut lanes, &mut reference, &|s| {
                    for &(row, to) in &moves {
                        let StreamStore { live, tail, .. } = s;
                        live.extend_row(row, to, tail);
                    }
                });
            } else if op < 90 && shape != 2 && rows > 0 {
                let row = rng.random_range(0..rows);
                both(&mut lanes, &mut reference, &|s| {
                    let StreamStore { live, finished, .. } = s;
                    live.swap_remove_into(row, finished);
                });
            } else {
                compact_both(
                    t,
                    (&mut lanes, &mut spare_lanes),
                    (&mut reference, &mut spare_reference),
                )?;
            }
        }
        if shape == 2 {
            // One chain far longer than the rest: it outlives every lane
            // refill and is walked alone at the end.
            if lanes.live.len() == 0 {
                both(&mut lanes, &mut reference, &|s| s.spawn(next_id, t, grid.cell_at(0, 0)));
                next_id += 1;
            }
            let to = grid.cell_at(1, 1);
            for _ in 0..5000 {
                let StreamStore { live, tail, .. } = &mut lanes;
                live.extend_row(0, to, tail);
                let StreamStore { live, tail, .. } = &mut reference;
                live.extend_row(0, to, tail);
            }
        }
        if shape == 4 {
            for s in [&mut lanes, &mut reference] {
                while s.live.len() > 0 {
                    let StreamStore { live, finished, .. } = s;
                    live.swap_remove_into(0, finished);
                }
            }
        }
        if shape >= 2 {
            compact_both(
                t + 1,
                (&mut lanes, &mut spare_lanes),
                (&mut reference, &mut spare_reference),
            )?;
        }
        if shape == 4 && (lanes.tail.len() != 0 || lanes.finished.len() != 0) {
            return Err("an all-frozen store kept arena nodes or finished rows".into());
        }
        lanes.check_dense_ids(next_id)?;
        let want = snapshot_sorted(&lanes);
        if snapshot_sorted(&reference) != want {
            return Err("snapshots diverged from the reference".into());
        }
        let horizon = want.iter().map(|(_, start, cells)| start + cells.len() as u64).max();
        let horizon = horizon.unwrap_or(0);
        for store in [lanes, reference] {
            let ds = store.into_dataset(grid.clone(), horizon);
            let got: Vec<(u64, u64, Vec<CellId>)> =
                ds.iter().map(|s| (s.id, s.start, s.cells.to_vec())).collect();
            if got != want {
                return Err("release differs from the id-sorted snapshot".into());
            }
        }
        Ok(())
    }

    proptest::proptest! {
        /// The lane kernel against the chain-at-a-time reference over
        /// random store histories: compaction leaves the same arena, rows,
        /// marks and frozen columns, and release equals the snapshot's
        /// streams sorted by id. Up to 5 × `LANES` streams, so lanes refill
        /// many times; the shapes cover length-1 chains, one very long
        /// chain, an empty store and an all-frozen one.
        #[test]
        fn lane_kernel_matches_the_chain_at_a_time_reference(
            seed in 0u64..u64::MAX,
            shape in 0u8..5,
            streams in 0usize..5 * LANES,
        ) {
            if let Err(e) = lane_history(seed, shape, streams) {
                proptest::prop_assert!(false, "seed {seed} shape {shape} streams {streams}: {e}");
            }
        }

        /// Whole sessions in both divisions, compacting at a random mark:
        /// the release equals the last snapshot's streams sorted by id.
        #[test]
        fn lane_kernel_release_matches_the_last_snapshot_in_both_divisions(
            seed in 0u64..u64::MAX,
            mark in 0usize..400,
            budget in 0u8..2,
        ) {
            use crate::{EventSource, RetraSyn, RetraSynConfig, StreamingEngine, TimelineSource};
            use rand::SeedableRng;
            let gridded = retrasyn_datagen::RandomWalkConfig {
                users: 40,
                timestamps: 24,
                churn: 0.2,
                ..Default::default()
            }
            .generate(&mut rand::rngs::StdRng::seed_from_u64(seed))
            .discretize(&UniformGrid::unit(4));
            let config = RetraSynConfig::new(1.0, 4).with_lambda(6.0).with_compaction(mark);
            let grid = UniformGrid::unit(4);
            let mut engine = if budget == 1 {
                RetraSyn::budget_division(config, grid, seed)
            } else {
                RetraSyn::population_division(config, grid, seed)
            };
            let mut source = TimelineSource::from_gridded(&gridded);
            while let Some(batch) = source.next_batch() {
                engine.step(engine.next_timestamp(), batch);
            }
            let mut want: Vec<(u64, u64, Vec<CellId>)> = engine
                .snapshot()
                .streams()
                .map(|s| {
                    let mut cells = Vec::new();
                    s.cells_into(&mut cells);
                    (s.id(), s.start(), cells)
                })
                .collect();
            want.sort_by_key(|&(id, ..)| id);
            let released = engine.release();
            let got: Vec<(u64, u64, Vec<CellId>)> =
                released.iter().map(|s| (s.id, s.start, s.cells.to_vec())).collect();
            proptest::prop_assert!(got == want, "seed {seed} mark {mark} budget {budget}");
        }
    }

    /// A crafted cell count used to size the cell reservation directly
    /// and abort with `capacity overflow`; it must be a decode error.
    #[test]
    fn huge_cell_count_is_an_error_not_an_abort() {
        let huge = 1usize << 62;
        let mut enc = Enc::default();
        enc.usize(1); // one epoch mark
        enc.u64(7); // its stamp
        enc.usize(1); // one frozen stream
        enc.usize(huge); // of `huge` cells
        let mut frozen = FrozenStore::default();
        frozen.decode_from(&mut Dec::new(&enc.buf)).expect("the marks alone are consistent");
        let err = frozen.decode_blocks(&[0u8; 64]).unwrap_err();
        assert!(err.contains("do not fit"), "{err}");
    }

    /// Blocks round-trip through the one codec, and the decoder rejects
    /// a block whose header disagrees with its mark or whose bytes were
    /// flipped.
    #[test]
    fn epoch_blocks_round_trip_and_reject_damage() {
        let grid = UniformGrid::unit(4);
        let mut store = build_store(&grid);
        let mut spare = TailArena::default();
        store.compact(4, &mut spare);
        let StreamStore { live, finished, tail, .. } = &mut store;
        live.extend_row(0, grid.cell_at(1, 1), tail);
        live.swap_remove_into(0, finished);
        store.compact(5, &mut spare);
        let frozen = &store.frozen;
        assert_eq!(frozen.epochs.len(), 2);

        let mut marks = Enc::default();
        frozen.encode_into(&mut marks);
        assert_eq!(marks.buf.len(), frozen.encoded_len());
        let mut blocks = Vec::new();
        for i in 0..frozen.epochs.len() {
            frozen.encode_block(i, &mut blocks);
        }
        assert_eq!(blocks.len(), frozen.blocks_len());

        let decode = |blocks: &[u8]| {
            let mut back = FrozenStore::default();
            back.decode_from(&mut Dec::new(&marks.buf))?;
            back.decode_blocks(blocks).map(|()| back)
        };
        let back = decode(&blocks).expect("round trip");
        assert_eq!((&back.ids, &back.starts), (&frozen.ids, &frozen.starts));
        assert_eq!((&back.offsets, &back.cells), (&frozen.offsets, &frozen.cells));
        assert_eq!(back.epochs, frozen.epochs);

        for offset in 0..blocks.len() {
            let mut bad = blocks.clone();
            bad[offset] ^= 0x04;
            assert!(decode(&bad).is_err(), "flip at {offset} accepted");
        }
        assert!(decode(&blocks[..blocks.len() - 1]).is_err());
        let mut longer = blocks.clone();
        longer.push(0);
        assert!(decode(&longer).is_err());
    }
}
