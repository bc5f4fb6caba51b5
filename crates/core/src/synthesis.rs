//! Real-time trajectory synthesis (§III-D).
//!
//! The synthetic database is advanced once per timestamp in two phases:
//!
//! 1. **New point generation** — every live synthetic stream first draws a
//!    termination decision with the length-reweighted quit probability
//!    (Eq. 8); survivors extend by one cell sampled from the Markov
//!    movement distribution (Eq. 6, conditioned on not quitting).
//! 2. **Size adjustment** — the live count is matched to the real active
//!    population: missing streams enter at cells drawn from the entering
//!    distribution `E`; excess streams are terminated with probability
//!    proportional to the quitting distribution `Q` at their last location.
//!
//! **Storage.** Live streams are columnar (`StreamStore`): the fused
//! pass walks the contiguous head/len columns and appends one tail-arena
//! node per survivor — no per-stream heap pointer chase, O(1) retirement,
//! and a release path that never materializes a per-stream `Vec`.
//!
//! **Hot-path cost.** When the model's [`SamplerCache`] is fresh (the
//! engine rebuilds it after every model update), each per-user decision is
//! O(1): a cached quit probability and one alias draw, with no heap
//! allocation. Without a fresh cache the code falls back to the O(k) scan
//! over a reused scratch buffer, so standalone callers that never call
//! [`GlobalMobilityModel::rebuild_samplers`] still get correct output.
//!
//! The *NoEQ* mode ([`SyntheticDb::step_no_eq`]) reproduces the baselines
//! and the Table-IV ablation: a fixed-size database initialized at random
//! whose streams never terminate.

use crate::compact::FrozenStore;
use crate::model::GlobalMobilityModel;
use crate::sampler::{sample_weighted, SamplerCache};
use crate::store::{Columns, SnapshotView, StreamStore, TailArena};
use crate::wal::{Dec, Enc};
use rand::Rng;
use retrasyn_geo::{CellId, GriddedDataset, Space, TransitionTable};
use std::cmp::Ordering;

/// Floor for Efraimidis–Spirakis weights so zero-mass cells keep a strict
/// ordering.
const MIN_SHRINK_WEIGHT: f64 = 1e-12;

/// Descending order over Efraimidis–Spirakis keys with a deterministic
/// position tiebreak, so the top-`excess` cut selects a unique victim set
/// regardless of `select_nth_unstable_by`'s internal ordering. Keys are
/// compared in the log domain (`ln(u)/w` rather than `u^{1/w}` — the same
/// ordering, but `u^{1/w}` underflows to exactly 0 for the tiny weights a
/// large grid produces, which would silently turn big one-tick shrinks
/// into positional selection). With `u ∈ [0, 1)` and `w > 0` a key is in
/// `[−∞, 0)`: never NaN.
fn cmp_keys_desc(a: &(f64, u32), b: &(f64, u32)) -> Ordering {
    b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal).then_with(|| a.1.cmp(&b.1))
}

/// One in-place termination pass (Eq. 8, cached quit probabilities):
/// quitters are `swap_remove`d into the `finished` columns (the swapped-in
/// stream is decided next, so the pass moves O(quits) rows), survivors
/// optionally extend in the same pass.
fn quit_pass_cols<R: Rng + ?Sized>(
    cols: &mut Columns,
    finished: &mut Columns,
    tail: &mut TailArena,
    cache: &SamplerCache,
    lambda: f64,
    extend: bool,
    rng: &mut R,
) {
    let inv_lambda = 1.0 / lambda;
    let mut i = 0;
    while i < cols.len() {
        let from = cols.heads[i];
        let q = cols.lens[i] as f64 * inv_lambda * cache.base_quit_prob(from);
        if rng.random::<f64>() >= q {
            if extend {
                let to = cache.sample_move(from, rng);
                cols.extend_row(i, to, tail);
            }
            i += 1;
        } else {
            cols.swap_remove_into(i, finished); // xtask:allow(DET003, retirement visits rows in deterministic index order; the row permutation is seed-determined)
        }
    }
}

/// The evolving synthetic trajectory database `T_syn`.
#[derive(Debug, Clone, Default)]
pub struct SyntheticDb {
    store: StreamStore,
    next_id: u64,
    initialized: bool,
    /// Reused O(k) probability buffer for the scan fallback.
    scan_buf: Vec<f64>,
    /// Reused `(key, position)` buffer for the shrink cut.
    keyed: Vec<(f64, u32)>,
    /// Reused victim-position buffer for the shrink path.
    victims: Vec<u32>,
    /// Reused spare arena epoch compaction rebuilds into (swapped with the
    /// store's, so chunk allocations recycle across runs).
    compact_spare: TailArena,
}

impl SyntheticDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live synthetic streams.
    pub fn active_count(&self) -> usize {
        self.store.live.len()
    }

    /// Number of completed synthetic streams so far (including streams
    /// drained into the frozen region by epoch compaction).
    pub fn finished_count(&self) -> usize {
        self.store.frozen.num_streams() + self.store.finished.len()
    }

    /// Cells resident in mutable storage: tail-arena nodes plus live and
    /// finished head rows. This is the quantity epoch compaction bounds;
    /// frozen cells are excluded (they are the compactor's flat output).
    pub fn resident_cells(&self) -> usize {
        self.store.resident_cells()
    }

    /// Run one epoch compaction stamped `epoch` (see [`crate::compact`]):
    /// finished streams drain into frozen storage and the arena is rebuilt
    /// around the live chains. Returns `(streams_frozen, cells_frozen)`.
    /// Snapshots and released output are bit-for-bit unchanged.
    pub fn compact(&mut self, epoch: u64) -> (usize, usize) {
        self.store.compact(epoch, &mut self.compact_spare)
    }

    /// Reset to a fresh, uninitialized session in place: all stream
    /// storage is dropped (ids restart at 0) while the arena chunks and
    /// every scratch buffer keep their allocations.
    pub fn reset(&mut self) {
        self.store.reset();
        self.next_id = 0;
        self.initialized = false;
    }

    /// Serialize the synthesis state for a checkpoint: the counters and
    /// the stream store, whose frozen epochs go out separately as blocks
    /// (see [`Self::frozen`]).
    pub(crate) fn encode_into(&self, enc: &mut Enc) {
        enc.u64(self.next_id);
        enc.u8(self.initialized as u8);
        self.store.encode_into(enc);
    }

    /// Byte length of [`Self::encode_into`] output.
    pub(crate) fn encoded_len(&self) -> usize {
        8 + 1 + self.store.encoded_len()
    }

    /// Restore from [`Self::encode_into`] output, keeping the scratch
    /// buffers. The frozen region then needs its blocks
    /// ([`Self::decode_frozen`]).
    pub(crate) fn decode_from(&mut self, dec: &mut Dec) -> Result<(), String> {
        self.next_id = dec.u64()?;
        self.initialized = dec.u8()? != 0;
        self.store.decode_from(dec)
    }

    /// The epoch-compacted region of the store.
    pub(crate) fn frozen(&self) -> &FrozenStore {
        &self.store.frozen
    }

    /// Finish a restore: fill the frozen region from its epoch blocks
    /// ([`FrozenStore::decode_blocks`]), then check that the restored
    /// stream ids are exactly `0..next_id`, as this database hands them
    /// out and as release ranks them.
    pub(crate) fn decode_frozen(&mut self, blocks: &[u8]) -> Result<(), String> {
        self.store.frozen.decode_blocks(blocks)?;
        self.store.check_dense_ids(self.next_id)
    }

    /// The whole stream store, for tests that craft a broken one.
    #[cfg(test)]
    pub(crate) fn store_mut(&mut self) -> &mut StreamStore {
        &mut self.store
    }

    /// Per-cell occupancy of the live synthetic population (the real-time
    /// view a streaming consumer monitors; post-processing, no privacy
    /// cost). One contiguous scan of the head column.
    pub fn occupancy(&self, num_cells: usize) -> Vec<u64> {
        let mut counts = vec![0u64; num_cells];
        for head in &self.store.live.heads {
            counts[head.index()] += 1;
        }
        counts
    }

    /// Advance one timestamp with full enter/quit modelling (§III-D).
    /// `target` is the real active-stream count at `t` (known to the
    /// curator from participation metadata, not from reports).
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        t: u64,
        model: &GlobalMobilityModel,
        table: &TransitionTable,
        target: usize,
        lambda: f64,
        rng: &mut R,
    ) {
        let cache = model.sampler();
        if !self.initialized {
            // Initialization of T_syn (Alg. 1 line 5): spawn `target`
            // streams from the entering distribution.
            self.spawn(t, model, table, cache, target, rng);
            self.initialized = true;
            return;
        }
        if self.store.live.len() <= target {
            // Fast path (the steady state: the population is not
            // shrinking, so downward adjustment is impossible no matter
            // how the quit draws fall): termination and extension fuse
            // into ONE compacting pass — per stream, one cached quit
            // probability, one alias draw, zero allocations, contiguous
            // column traffic.
            self.quit_and_extend_fused(model, table, cache, lambda, rng);
        } else {
            // Phase 1a: natural termination via Eq. 8.
            self.quit_phase(model, table, cache, lambda, rng);
            // Phase 2a: size adjustment downward *before* extension, so
            // the terminated streams end at their `t−1` location.
            self.shrink_to_target(model, table, cache, target, rng);
            // Phase 1b: extension — survivors move to a neighbor drawn
            // from the movement distribution conditioned on not quitting.
            self.extend_all(model, table, cache, rng);
        }
        // Phase 2b: size adjustment upward via the entering distribution.
        if self.store.live.len() < target {
            let missing = target - self.store.live.len();
            self.spawn(t, model, table, cache, missing, rng);
        }
    }

    /// Fused phases 1a + 1b for steps that cannot shrink: decide
    /// termination and extend survivors in a single in-place pass. Only
    /// valid when no downward size adjustment can occur
    /// (`live.len() <= target` before the quit draws).
    ///
    /// Survivors stay in place; a quitter's columns are `swap_remove`d and
    /// the row swapped into its slot is decided next, so the pass moves
    /// O(quits) rows instead of compacting all n. The draw order is a
    /// deterministic function of the quit pattern — identical for a fixed
    /// seed.
    fn quit_and_extend_fused<R: Rng + ?Sized>(
        &mut self,
        model: &GlobalMobilityModel,
        table: &TransitionTable,
        cache: Option<&SamplerCache>,
        lambda: f64,
        rng: &mut R,
    ) {
        let StreamStore { live, finished, tail, .. } = &mut self.store;
        match cache {
            Some(cache) => {
                quit_pass_cols(live, finished, tail, cache, lambda, true, rng);
            }
            None => {
                let mut buf = std::mem::take(&mut self.scan_buf);
                let mut i = 0;
                while i < live.len() {
                    let from = live.heads[i];
                    let q = model.quit_prob(table, from, live.lens[i] as u64, lambda);
                    if rng.random::<f64>() >= q {
                        model.move_probs_into(table, from, &mut buf);
                        let pos = sample_weighted(&buf, rng);
                        live.extend_row(i, table.move_targets(from)[pos], tail);
                        i += 1;
                    } else {
                        live.swap_remove_into(i, finished); // xtask:allow(DET003, retirement visits rows in deterministic index order; the row permutation is seed-determined)
                    }
                }
                self.scan_buf = buf;
            }
        }
    }

    /// Phase 1b: extend every live stream by one movement draw.
    fn extend_all<R: Rng + ?Sized>(
        &mut self,
        model: &GlobalMobilityModel,
        table: &TransitionTable,
        cache: Option<&SamplerCache>,
        rng: &mut R,
    ) {
        let StreamStore { live, tail, .. } = &mut self.store;
        match cache {
            Some(cache) => {
                for i in 0..live.len() {
                    let to = cache.sample_move(live.heads[i], rng);
                    live.extend_row(i, to, tail);
                }
            }
            None => {
                let mut buf = std::mem::take(&mut self.scan_buf);
                for i in 0..live.len() {
                    let from = live.heads[i];
                    model.move_probs_into(table, from, &mut buf);
                    let pos = sample_weighted(&buf, rng);
                    live.extend_row(i, table.move_targets(from)[pos], tail);
                }
                self.scan_buf = buf;
            }
        }
    }

    /// Phase 1a: draw per-stream termination decisions and retire quitters.
    ///
    /// One in-place pass moving O(quits) rows: survivors stay put, a
    /// quitter is `swap_remove`d and the swapped-in stream decided next —
    /// deterministic for a fixed seed, no per-step allocation.
    fn quit_phase<R: Rng + ?Sized>(
        &mut self,
        model: &GlobalMobilityModel,
        table: &TransitionTable,
        cache: Option<&SamplerCache>,
        lambda: f64,
        rng: &mut R,
    ) {
        let StreamStore { live, finished, tail, .. } = &mut self.store;
        if let Some(cache) = cache {
            return quit_pass_cols(live, finished, tail, cache, lambda, false, rng);
        }
        let mut i = 0;
        while i < live.len() {
            let from = live.heads[i];
            let q = model.quit_prob(table, from, live.lens[i] as u64, lambda);
            if rng.random::<f64>() >= q {
                i += 1;
            } else {
                live.swap_remove_into(i, finished); // xtask:allow(DET003, retirement visits rows in deterministic index order; the row permutation is seed-determined)
            }
        }
    }

    /// Phase 2a: weighted sampling without replacement of `excess` victims
    /// (Efraimidis–Spirakis keys, keep the largest), retiring them at
    /// their `t−1` location with probability proportional to the quitting
    /// distribution.
    ///
    /// With a fresh cache the per-stream weight is an O(1) lookup into the
    /// cached quitting distribution; only the cold fallback allocates the
    /// O(cells) vector. Victim selection is a partial
    /// `select_nth_unstable_by` — only the `excess` largest keys are
    /// needed, not a full sort.
    fn shrink_to_target<R: Rng + ?Sized>(
        &mut self,
        model: &GlobalMobilityModel,
        table: &TransitionTable,
        cache: Option<&SamplerCache>,
        target: usize,
        rng: &mut R,
    ) {
        if self.store.live.len() <= target {
            return;
        }
        let excess = self.store.live.len() - target;
        self.keyed.clear();
        match cache {
            Some(cache) => {
                for (i, &head) in self.store.live.heads.iter().enumerate() {
                    let w = cache.quit_weight(head).max(MIN_SHRINK_WEIGHT);
                    let u: f64 = rng.random::<f64>();
                    self.keyed.push((u.ln() / w, i as u32));
                }
            }
            None => {
                let quit_dist = model.quit_distribution(table);
                for (i, &head) in self.store.live.heads.iter().enumerate() {
                    let w = quit_dist[head.index()].max(MIN_SHRINK_WEIGHT);
                    let u: f64 = rng.random::<f64>();
                    self.keyed.push((u.ln() / w, i as u32));
                }
            }
        }
        if excess < self.keyed.len() {
            self.keyed.select_nth_unstable_by(excess - 1, cmp_keys_desc);
        }
        self.victims.clear();
        self.victims.extend(self.keyed[..excess].iter().map(|&(_, i)| i));
        // `swap_remove` from the highest position down: each removal moves
        // the current last row, which sits past every remaining (smaller)
        // victim position.
        self.victims.sort_unstable_by(|a, b| b.cmp(a));
        let StreamStore { live, finished, .. } = &mut self.store;
        for k in 0..self.victims.len() {
            live.swap_remove_into(self.victims[k] as usize, finished); // xtask:order(victims are sorted descending just above, so removals never disturb pending positions)
        }
        self.victims.clear();
    }

    /// Advance one timestamp in NoEQ / baseline mode: fixed size
    /// (`init_size` at the first call), random initialization, no
    /// termination, no size adjustment.
    pub fn step_no_eq<R: Rng + ?Sized>(
        &mut self,
        t: u64,
        model: &GlobalMobilityModel,
        table: &TransitionTable,
        init_size: usize,
        rng: &mut R,
    ) {
        if !self.initialized {
            let cells = table.num_cells() as u32;
            for _ in 0..init_size {
                self.store.spawn(self.next_id, t, CellId(rng.random_range(0..cells)));
                self.next_id += 1;
            }
            self.initialized = true;
            return;
        }
        self.extend_all(model, table, model.sampler(), rng);
    }

    fn spawn<R: Rng + ?Sized>(
        &mut self,
        t: u64,
        model: &GlobalMobilityModel,
        table: &TransitionTable,
        cache: Option<&SamplerCache>,
        count: usize,
        rng: &mut R,
    ) {
        match cache {
            Some(cache) => {
                for _ in 0..count {
                    let cell = cache.sample_enter(rng);
                    self.store.spawn(self.next_id, t, cell);
                    self.next_id += 1;
                }
            }
            None => {
                let enter_dist = model.enter_distribution(table);
                for _ in 0..count {
                    let cell = CellId(sample_weighted(&enter_dist, rng) as u32);
                    self.store.spawn(self.next_id, t, cell);
                    self.next_id += 1;
                }
            }
        }
    }

    /// Borrow the current synthetic database as a read-only per-timestamp
    /// view covering `0..horizon` — the streaming release surface.
    /// Zero-copy: the view walks the live head columns, the finished
    /// region and the tail arena in place.
    pub fn snapshot(&self, horizon: u64) -> SnapshotView<'_> {
        self.store.snapshot(horizon)
    }

    /// Close all live streams and assemble the released synthetic
    /// database: one id-sorted columnar [`GriddedDataset`] built straight
    /// from the store. Every cell is copied once into the dataset's flat
    /// column — no per-stream `Vec` — and the store itself (its tail
    /// arena, row columns and frozen region) is freed here.
    ///
    /// Non-consuming: afterwards the database is reset to a fresh,
    /// uninitialized session (ids restart at 0) while the scratch buffers
    /// and the spare compaction arena keep their capacity, so a long-lived
    /// service can release one stream and immediately begin the next.
    pub fn release<S: Space>(&mut self, space: S, horizon: u64) -> GriddedDataset {
        let store = std::mem::take(&mut self.store);
        self.initialized = false;
        self.next_id = 0;
        store.into_dataset(space, horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use retrasyn_geo::{TransitionState, UniformGrid};

    fn setup() -> (UniformGrid, TransitionTable, GlobalMobilityModel) {
        let grid = UniformGrid::unit(4);
        let table = TransitionTable::new(&grid);
        let model = GlobalMobilityModel::new(table.len());
        (grid, table, model)
    }

    /// Model where everyone enters at (0,0), marches right, and quits at
    /// the east edge.
    fn eastward_model(grid: &UniformGrid, table: &TransitionTable) -> GlobalMobilityModel {
        let mut est = vec![0.0; table.len()];
        est[table.enter_index(grid.cell_at(0, 0))] = 1.0;
        for y in 0..4 {
            for x in 0..4 {
                let from = grid.cell_at(x, y);
                if x + 1 < 4 {
                    let to = grid.cell_at(x + 1, y);
                    let idx = table.index_of(TransitionState::Move { from, to }).unwrap();
                    est[idx] = 0.5;
                } else {
                    est[table.quit_index(from)] = 0.5;
                }
            }
        }
        let mut model = GlobalMobilityModel::new(table.len());
        model.replace_all(&est);
        model
    }

    /// Same model with the alias sampler cache built.
    fn eastward_model_cached(grid: &UniformGrid, table: &TransitionTable) -> GlobalMobilityModel {
        let mut model = eastward_model(grid, table);
        model.rebuild_samplers(table);
        model
    }

    #[test]
    fn initialization_spawns_target_from_enter_dist() {
        let (grid, table, _) = setup();
        let model = eastward_model(&grid, &table);
        let mut db = SyntheticDb::new();
        let mut rng = StdRng::seed_from_u64(1);
        db.step(0, &model, &table, 50, 10.0, &mut rng);
        assert_eq!(db.active_count(), 50);
        let released = db.release(&grid, 1);
        for s in released.iter() {
            assert_eq!(s.first_cell(), grid.cell_at(0, 0));
            assert_eq!(s.start, 0);
        }
    }

    #[test]
    fn initialization_spawns_from_cached_enter_dist() {
        let (grid, table, _) = setup();
        let model = eastward_model_cached(&grid, &table);
        let mut db = SyntheticDb::new();
        let mut rng = StdRng::seed_from_u64(1);
        db.step(0, &model, &table, 50, 10.0, &mut rng);
        assert_eq!(db.active_count(), 50);
        let released = db.release(&grid, 1);
        for s in released.iter() {
            assert_eq!(s.first_cell(), grid.cell_at(0, 0));
        }
    }

    #[test]
    fn size_adjustment_matches_target_exactly() {
        let (grid, table, _) = setup();
        for cached in [false, true] {
            let model = if cached {
                eastward_model_cached(&grid, &table)
            } else {
                eastward_model(&grid, &table)
            };
            let mut db = SyntheticDb::new();
            let mut rng = StdRng::seed_from_u64(2);
            db.step(0, &model, &table, 30, 100.0, &mut rng);
            for (t, target) in [(1u64, 45usize), (2, 10), (3, 10), (4, 60), (5, 0), (6, 5)] {
                db.step(t, &model, &table, target, 100.0, &mut rng);
                assert_eq!(db.active_count(), target, "cached={cached} t={t}");
            }
        }
    }

    #[test]
    fn streams_follow_movement_distribution() {
        let (grid, table, _) = setup();
        for cached in [false, true] {
            let model = if cached {
                eastward_model_cached(&grid, &table)
            } else {
                eastward_model(&grid, &table)
            };
            let mut db = SyntheticDb::new();
            let mut rng = StdRng::seed_from_u64(3);
            for t in 0..4 {
                db.step(t, &model, &table, 40, 1000.0, &mut rng);
            }
            let released = db.release(&grid, 4);
            // Every move in every stream is rightward (the only nonzero
            // moves): one hop, same row, larger x.
            let topo = table.topology();
            for s in released.iter() {
                for w in s.cells.windows(2) {
                    let (a, b) = (topo.center(w[0]), topo.center(w[1]));
                    assert_eq!(topo.hop_distance(w[0], w[1]), 1, "cached={cached}");
                    assert_eq!(b.y, a.y, "cached={cached}");
                    assert!(b.x > a.x, "cached={cached}");
                }
            }
        }
    }

    #[test]
    fn eq8_no_quitting_when_lambda_huge() {
        let (grid, table, _) = setup();
        let model = eastward_model(&grid, &table);
        let mut db = SyntheticDb::new();
        let mut rng = StdRng::seed_from_u64(4);
        db.step(0, &model, &table, 20, 1e12, &mut rng);
        db.step(1, &model, &table, 20, 1e12, &mut rng);
        // With lambda -> inf nothing quits naturally, and target is stable,
        // so no stream finished.
        assert_eq!(db.finished_count(), 0);
    }

    #[test]
    fn eq8_short_lambda_terminates_streams() {
        let (grid, table, _) = setup();
        let model = eastward_model_cached(&grid, &table);
        let mut db = SyntheticDb::new();
        let mut rng = StdRng::seed_from_u64(5);
        for t in 0..10 {
            db.step(t, &model, &table, 50, 1.0, &mut rng);
        }
        // lambda = 1 makes quitting aggressive once streams hit the east
        // edge; finished streams accumulate while size stays on target.
        assert!(db.finished_count() > 0);
        assert_eq!(db.active_count(), 50);
    }

    #[test]
    fn no_eq_mode_never_terminates_and_keeps_size() {
        let (grid, table, model) = setup();
        let mut db = SyntheticDb::new();
        let mut rng = StdRng::seed_from_u64(6);
        for t in 0..20 {
            db.step_no_eq(t, &model, &table, 25, &mut rng);
        }
        assert_eq!(db.active_count(), 25);
        assert_eq!(db.finished_count(), 0);
        let released = db.release(&grid, 20);
        for s in released.iter() {
            assert_eq!(s.len(), 20);
            assert_eq!(s.start, 0);
        }
    }

    #[test]
    fn uninformed_model_still_synthesizes_adjacent_moves() {
        let (grid, table, mut model) = setup();
        // Build the cache for the all-zero model: uniform fallbacks.
        model.rebuild_samplers(&table);
        let mut db = SyntheticDb::new();
        let mut rng = StdRng::seed_from_u64(7);
        for t in 0..6 {
            db.step(t, &model, &table, 15, 10.0, &mut rng);
        }
        let released = db.release(&grid, 6);
        for s in released.iter() {
            for w in s.cells.windows(2) {
                assert!(table.topology().are_adjacent(w[0], w[1]));
            }
        }
    }

    #[test]
    fn finish_produces_sorted_complete_dataset() {
        let (grid, table, _) = setup();
        let model = eastward_model(&grid, &table);
        let mut db = SyntheticDb::new();
        let mut rng = StdRng::seed_from_u64(8);
        for t in 0..5 {
            db.step(t, &model, &table, 10, 2.0, &mut rng);
        }
        let total_streams = db.finished_count() + db.active_count();
        let released = db.release(&grid, 5);
        assert_eq!(released.num_streams(), total_streams);
        assert_eq!(released.horizon(), 5);
        let ids: Vec<u64> = released.iter().map(|s| s.id).collect();
        for w in ids.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn shrink_selection_survives_key_underflow_regime() {
        // 32×32 grid, uniform quitting distribution: per-cell weight ≈ 1e-3,
        // exactly the regime where naive `u^{1/w}` keys underflow to 0.0 and
        // a large one-tick shrink would degrade into positional tie-breaking
        // (victims taken from position 0 upward). With log-domain keys the
        // selection stays weighted-random, so every id quarter keeps roughly
        // its proportional share of survivors.
        let grid = UniformGrid::unit(32);
        let table = TransitionTable::new(&grid);
        let mut model = GlobalMobilityModel::new(table.len());
        model.rebuild_samplers(&table); // uninformed: uniform fallbacks
        let mut db = SyntheticDb::new();
        let mut rng = StdRng::seed_from_u64(77);
        db.step(0, &model, &table, 4096, 1e12, &mut rng);
        db.step(1, &model, &table, 1024, 1e12, &mut rng);
        assert_eq!(db.active_count(), 1024);
        let released = db.release(&grid, 2);
        // Streams were spawned with ids 0..4096 in order and never
        // reordered before the shrink, so id / 1024 is the stream's
        // position quarter.
        let mut kept = [0u32; 4];
        for s in released.iter() {
            let survived = s.start + s.cells.len() as u64 - 1 == 1;
            if survived {
                kept[(s.id / 1024) as usize] += 1;
            }
        }
        // Hypergeometric per quarter: mean 256, sd ≈ 12; the bounds are
        // ±~9 sd.
        for (quarter, &k) in kept.iter().enumerate() {
            assert!(
                (150..=370).contains(&(k as usize)),
                "quarter {quarter} kept {k} of 1024 survivors (expected ≈256): {kept:?}"
            );
        }
    }

    #[test]
    fn weighted_sampling_respects_weights() {
        let mut rng = StdRng::seed_from_u64(9);
        let weights = [0.0, 0.0, 1.0, 0.0];
        for _ in 0..100 {
            assert_eq!(sample_weighted(&weights, &mut rng), 2);
        }
        // Zero mass falls back to uniform but stays in range.
        let zeros = [0.0; 5];
        for _ in 0..100 {
            assert!(sample_weighted(&zeros, &mut rng) < 5);
        }
    }
}
