//! Dense slots for opaque stream ids.
//!
//! A stream id is an opaque `u64`: sparse, arbitrary, never assumed dense
//! or ordered by arrival. Per-user bookkeeping keys flat `Vec`s by a dense
//! `u32` *slot* instead, handed out in first-seen order by an [`IdIndex`].
//! A layer looks each event's id up once per step and carries the slot
//! from there on, so the per-user state transitions are vector indexing
//! rather than map operations.
//!
//! The index is an open-addressing table of `slot + 1` entries (0 marks an
//! empty bucket) over the dense slot → id column, grown whenever it would
//! pass a quarter full (`SPARSITY`). The layout is a pure function of the
//! ids interned, in order — no per-process hash seed.
//!
//! **Addressing keeps id order.** Correctness never relies on it, but ids
//! are usually dense in practice (a dataset numbers its streams `0..n`)
//! and a step's events arrive in id order, so the home bucket of `id` in a table of `2^b` buckets is
//! `(id + mix(id >> b)) mod 2^b`: ids inside one table-sized window keep
//! their order and spacing, and only the window number is hashed. A step's
//! lookups then walk the table, and the slot column, front to back instead
//! of missing the cache once per id. Dense ids fill runs of adjacent
//! buckets, so a linear probe — or any fixed stride, which can stay inside
//! the run — would turn a run into one long cluster. Every probe after the
//! home therefore re-mixes: probe `i` is `mix(id ^ i·φ) mod 2^b`, a fresh
//! bucket at a quarter-full table's odds, wherever the home lies. The
//! price of determinism stays as it was: the mixer is public and
//! invertible, so a producer that knows it can choose ids whose probe
//! sequences collide and make each lookup linear in their number.
//!
//! [`IdIndex::get_batch`] looks a whole batch up in two passes — every home
//! bucket, then every candidate id — so the loads of different ids
//! overlap, and leaves what the home bucket does not settle to the ordered
//! [`IdIndex::get`] / [`IdIndex::intern`]. On `tdrive_live` (241,263 ids,
//! 3.46M lookups per session, 7.0% of them first sightings) the batch
//! leaves 6.98% of the lookups unresolved, in the first session and in
//! one after `clear` alike: about the first sightings alone.
//!
//! [`IdIndex::iter`] sorts the `(id, slot)` pairs when it is called:
//! checkpoint encoders, its only callers, write ids in ascending order.

/// Smallest non-empty table.
const MIN_BUCKETS: usize = 16;

/// The table holds at most one id per `SPARSITY` buckets.
const SPARSITY: usize = 4;

/// An id [`IdIndex::get_batch`] did not resolve.
pub(crate) const UNRESOLVED: u32 = u32::MAX;

/// Bijection between the stream ids seen so far and dense slots
/// `0..len()`. Slots are never reused until [`IdIndex::clear`].
#[derive(Debug, Clone, Default)]
pub(crate) struct IdIndex {
    /// Open-addressing buckets: `slot + 1`, or 0 when empty. Empty or a
    /// power of two at most `1 / SPARSITY` full.
    buckets: Vec<u32>,
    /// The id interned at each slot.
    ids: Vec<u64>,
}

/// The murmur3 64-bit finalizer: every input bit flips each output bit
/// with probability ≈ ½, so sequential and strided inputs spread evenly
/// over the low bits that pick a bucket.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// ⌊2⁶⁴/φ⌋, odd: `i·PROBE_KEY` differs for every probe number `i`.
const PROBE_KEY: u64 = 0x9e37_79b9_7f4a_7c15;

/// The home bucket of `id` in a table of `mask + 1` (a power of two)
/// buckets: the id itself, offset by a mix of its window number, so ids in
/// one table-sized window keep their order and spacing.
#[inline]
fn home(id: u64, mask: usize) -> usize {
    id.wrapping_add(mix(id >> mask.count_ones())) as usize & mask
}

/// The bucket a lookup of `id` inspects after `i ≥ 1` occupied ones: a
/// fresh mix per probe, so probes leave a dense run at once.
#[inline]
fn reprobe(id: u64, i: u64, mask: usize) -> usize {
    mix(id ^ i.wrapping_mul(PROBE_KEY)) as usize & mask
}

impl IdIndex {
    /// The slot of `id`, or the empty bucket where it would go. The table
    /// must be non-empty.
    #[inline]
    fn find(&self, id: u64) -> Result<u32, usize> {
        let mask = self.buckets.len() - 1;
        let mut bucket = home(id, mask);
        let mut probe = 0;
        loop {
            match self.buckets[bucket] {
                0 => return Err(bucket),
                entry if self.ids[(entry - 1) as usize] == id => return Ok(entry - 1),
                _ => {
                    probe += 1;
                    bucket = reprobe(id, probe, mask);
                }
            }
        }
    }

    /// The slot of `id`, if it was interned.
    #[inline]
    pub(crate) fn get(&self, id: u64) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        self.find(id).ok()
    }

    /// Look up a batch of ids at once, for a caller about to resolve them
    /// in order: `slots[i]` (cleared and filled here) is the slot of the
    /// `i`-th id if its first probe finds it, else [`UNRESOLVED`] — a new
    /// id, or one displaced by a collision. The first pass loads every
    /// id's bucket before the second reads any slot's id, so the loads of
    /// different ids overlap instead of queueing one behind the other.
    /// Resolve the misses with [`Self::get`] or [`Self::intern`] in event
    /// order, which keeps slots first-seen; a found slot stays right
    /// however the table changes later, since slots are never reused.
    pub(crate) fn get_batch<I>(&self, ids: I, slots: &mut Vec<u32>)
    where
        I: Iterator<Item = u64> + Clone,
    {
        slots.clear();
        let Some(last) = self.ids.len().checked_sub(1) else {
            slots.extend(ids.map(|_| UNRESOLVED));
            return;
        };
        let mask = self.buckets.len() - 1;
        slots.extend(ids.clone().map(|id| self.buckets[home(id, mask)]));
        for (slot, id) in slots.iter_mut().zip(ids) {
            let entry = *slot;
            let candidate = entry.wrapping_sub(1);
            let found = entry != 0 && self.ids[(candidate as usize).min(last)] == id;
            *slot = if found { candidate } else { UNRESOLVED };
        }
    }

    /// The slot of `id`, assigning the next free one on first sight.
    ///
    /// # Panics
    ///
    /// If `u32::MAX` distinct ids are already interned.
    #[inline]
    pub(crate) fn intern(&mut self, id: u64) -> u32 {
        if self.buckets.is_empty() {
            self.rebuild(MIN_BUCKETS);
        }
        let mut bucket = match self.find(id) {
            Ok(slot) => return slot,
            Err(bucket) => bucket,
        };
        assert!(self.ids.len() < u32::MAX as usize, "more than u32::MAX - 1 distinct stream ids");
        let slot = self.ids.len() as u32;
        if SPARSITY * (self.ids.len() + 1) > self.buckets.len() {
            self.rebuild(2 * self.buckets.len());
            bucket = self.find(id).expect_err("a new id is not in the table");
        }
        self.buckets[bucket] = slot + 1;
        self.ids.push(id);
        slot
    }

    /// Make room for `additional` more ids without regrowing the table.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.ids.reserve(additional);
        let need = (SPARSITY * (self.ids.len() + additional)).max(MIN_BUCKETS).next_power_of_two();
        if need > self.buckets.len() {
            self.rebuild(need);
        }
    }

    /// Re-address every interned id into `buckets` empty buckets.
    fn rebuild(&mut self, buckets: usize) {
        debug_assert!(buckets.is_power_of_two() && SPARSITY * self.ids.len() <= buckets);
        self.buckets.clear();
        self.buckets.resize(buckets, 0);
        let mask = buckets - 1;
        for (slot, &id) in self.ids.iter().enumerate() {
            let (mut bucket, mut probe) = (home(id, mask), 0);
            while self.buckets[bucket] != 0 {
                probe += 1;
                bucket = reprobe(id, probe, mask);
            }
            self.buckets[bucket] = slot as u32 + 1;
        }
    }

    /// The id interned at `slot`.
    #[inline]
    pub(crate) fn id(&self, slot: u32) -> u64 {
        self.ids[slot as usize]
    }

    /// Number of interned ids (slots are `0..len()`).
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Every `(id, slot)` pair in ascending id order. Sorts a copy of the
    /// slot column, so it costs O(n log n) per call. Ids are distinct, so
    /// the unstable sort is deterministic.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u32)> {
        let mut pairs: Vec<(u64, u32)> =
            self.ids.iter().enumerate().map(|(slot, &id)| (id, slot as u32)).collect();
        pairs.sort_unstable_by_key(|&(id, _)| id);
        pairs.into_iter()
    }

    /// Forget every id, keeping the table and the slot column's capacity.
    pub(crate) fn clear(&mut self) {
        self.buckets.fill(0);
        self.ids.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    impl IdIndex {
        /// Buckets a lookup of `id` inspects, counting the final one.
        fn probe_len(&self, id: u64) -> usize {
            let mask = self.buckets.len() - 1;
            let mut bucket = home(id, mask);
            let mut probes = 1;
            while self.buckets[bucket] != 0 && self.id(self.buckets[bucket] - 1) != id {
                bucket = reprobe(id, probes, mask);
                probes += 1;
            }
            probes as usize
        }
    }

    #[test]
    fn slots_are_dense_in_first_seen_order() {
        let mut index = IdIndex::default();
        assert_eq!(index.get(0), None, "an empty index finds nothing");
        let ids = [u64::MAX, 0, 1 << 63, 42, 0, u64::MAX];
        let slots: Vec<u32> = ids.iter().map(|&id| index.intern(id)).collect();
        assert_eq!(slots, [0, 1, 2, 3, 1, 0]);
        assert_eq!(index.len(), 4);
        assert_eq!(index.get(42), Some(3));
        assert_eq!(index.get(7), None);
        assert_eq!(index.id(2), 1 << 63);
        let sorted: Vec<(u64, u32)> = index.iter().collect();
        assert_eq!(sorted, [(0, 1), (42, 3), (1 << 63, 2), (u64::MAX, 0)]);
        index.clear();
        assert_eq!(index.len(), 0);
        assert_eq!(index.get(42), None);
        assert_eq!(index.intern(42), 0);
    }

    /// Ids that stress a weak bucket function: the extremes, high-bit
    /// and 2³²-strided values, dense runs, and a fixed non-monotone
    /// bijection of a dense run.
    fn hostile_ids() -> Vec<u64> {
        let mut ids = vec![0, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1];
        ids.extend((1..64u64).map(|k| k << 32));
        ids.extend((0..64u64).map(|k| u64::MAX - k));
        ids.extend(1000..1064u64);
        ids.extend((0..64u64).map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        ids.extend((0..64u64).map(u64::reverse_bits));
        ids
    }

    /// Random intern/get/id/len/iter/clear sequences agree with a
    /// `BTreeMap` reference at every operation. Batched lookups resolved
    /// the way their callers do — misses through `intern` or `get`, in
    /// order — assign the same slots as one-by-one calls, including a new
    /// id repeated within a batch, ids displaced by `hostile_ids`
    /// collisions, and a table that regrows in the middle of a batch.
    #[test]
    fn matches_an_ordered_map_model() {
        let pool = hostile_ids();
        let (mut repeats, mut displaced, mut regrown) = (0, 0, 0);
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut index = IdIndex::default();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            let mut order: Vec<u64> = Vec::new();
            let mut slots = Vec::new();
            for _ in 0..4000 {
                let id = if rng.random_bool(0.7) {
                    pool[rng.random_range(0..pool.len())]
                } else {
                    rng.random::<u64>()
                };
                match rng.random_range(0..110u32) {
                    100..=109 => {
                        // A batch of known, new and repeated ids.
                        let mut batch: Vec<u64> = (0..rng.random_range(1..80usize))
                            .map(|_| match rng.random_range(0..4u32) {
                                0 => rng.random::<u64>(),
                                _ => pool[rng.random_range(0..pool.len())],
                            })
                            .collect();
                        batch.push(id);
                        batch.push(id);
                        if !model.contains_key(&id) {
                            repeats += 1;
                        }
                        let known: Vec<bool> =
                            batch.iter().map(|&id| index.get(id).is_some()).collect();
                        index.get_batch(batch.iter().copied(), &mut slots);
                        assert_eq!(slots.len(), batch.len());
                        let interning = rng.random_bool(0.5);
                        let buckets = index.buckets.len();
                        for ((&id, &found), &known) in batch.iter().zip(&slots).zip(&known) {
                            if found != UNRESOLVED {
                                assert_eq!(model.get(&id), Some(&found), "batch found {id}");
                            } else if known {
                                displaced += 1;
                            }
                            if interning {
                                let next = order.len() as u32;
                                let want = *model.entry(id).or_insert(next);
                                if want == next {
                                    order.push(id);
                                }
                                let got =
                                    if found != UNRESOLVED { found } else { index.intern(id) };
                                assert_eq!(got, want, "batch intern {id}");
                            } else {
                                let got =
                                    if found != UNRESOLVED { Some(found) } else { index.get(id) };
                                assert_eq!(got, model.get(&id).copied(), "batch get {id}");
                            }
                        }
                        if index.buckets.len() != buckets {
                            regrown += 1;
                        }
                    }
                    0..=54 => {
                        let next = order.len() as u32;
                        let want = *model.entry(id).or_insert(next);
                        if want == next {
                            order.push(id);
                        }
                        assert_eq!(index.intern(id), want, "intern {id}");
                    }
                    55..=84 => assert_eq!(index.get(id), model.get(&id).copied(), "get {id}"),
                    85..=94 => {
                        if let Some(slot) =
                            (!order.is_empty()).then(|| rng.random_range(0..order.len()))
                        {
                            assert_eq!(index.id(slot as u32), order[slot]);
                        }
                    }
                    95..=98 => {
                        let want: Vec<(u64, u32)> = model.iter().map(|(&i, &s)| (i, s)).collect();
                        assert_eq!(index.iter().collect::<Vec<_>>(), want);
                    }
                    _ => {
                        let buckets = index.buckets.len();
                        let ids = index.ids.capacity();
                        index.clear();
                        model.clear();
                        order.clear();
                        assert_eq!(index.buckets.len(), buckets, "clear keeps the table");
                        assert_eq!(index.ids.capacity(), ids, "clear keeps the slot column");
                    }
                }
                assert_eq!(index.len(), model.len());
            }
        }
        assert!(repeats > 0 && displaced > 0 && regrown > 0, "{repeats} {displaced} {regrown}");
    }

    /// Every family interns `2^20` ids (the dense-run family `2^20` plus
    /// `2^18` random ones), then looks up each of them and `10^5` random
    /// absent ids. Dense runs fill adjacent home buckets, so a probe
    /// sequence that steps through the table — linearly or by a fixed
    /// stride — from a home inside a run stays in it: the dense-run family
    /// and the absent lookups catch that clustering.
    #[test]
    fn probes_stay_short_on_sequential_and_strided_ids() {
        const N: u64 = 1 << 20;
        let mut rng = StdRng::seed_from_u64(7);
        let random: Vec<u64> = (0..N / 4).map(|_| rng.random()).collect();
        let absent: Vec<u64> = (0..100_000).map(|_| rng.random()).collect();
        let families: [(&str, Vec<u64>); 5] = [
            ("sequential", (0..N).collect()),
            ("stride 2^32", (0..N).map(|i| i << 32).collect()),
            ("stride 1000", (0..N).map(|i| i * 1000).collect()),
            ("bijection", (0..N).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect()),
            ("dense run + random", (0..N).chain(random.iter().copied()).collect()),
        ];
        for (name, ids) in families {
            let mut index = IdIndex::default();
            for (slot, &id) in ids.iter().enumerate() {
                assert_eq!(index.intern(id), slot as u32, "{name}: distinct ids");
            }
            assert!(SPARSITY * index.len() <= index.buckets.len(), "{name}: load above 1/SPARSITY");
            let longest = ids.iter().map(|&id| index.probe_len(id)).max().unwrap();
            assert!(longest <= 64, "{name}: longest probe {longest}");
            assert!(absent.iter().all(|&id| index.get(id).is_none()), "{name}: absent ids");
            let longest = absent.iter().map(|&id| index.probe_len(id)).max().unwrap();
            assert!(longest <= 64, "{name}: longest absent probe {longest}");
        }
    }

    /// Ids from one table-sized window each have a home bucket of their
    /// own, so however they were interned, a batched lookup of them
    /// resolves every one on its first probe.
    #[test]
    fn batches_of_interned_dense_ids_resolve_at_home() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut slots = Vec::new();
        for base in [0, 7 << 40] {
            let mut ids: Vec<u64> = (base..base + 5000).collect();
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.random_range(0..=i));
            }
            let mut index = IdIndex::default();
            for &id in &ids {
                index.intern(id);
            }
            index.get_batch(base..base + 5000, &mut slots);
            assert!(!slots.contains(&UNRESOLVED), "base {base}");
            let want: Vec<u32> = (base..base + 5000).map(|id| index.get(id).unwrap()).collect();
            assert_eq!(slots, want, "base {base}");
        }
    }

    /// Slots depend on the intern order alone: tables of different sizes
    /// assign the same slots and list the same `(id, slot)` pairs.
    #[test]
    fn table_size_does_not_change_slots() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ids = hostile_ids();
        ids.extend(0..3000u64);
        ids.extend((0..3000).map(|_| rng.random::<u64>()));
        ids.extend(ids.clone().iter().rev());
        let mut indexes = [0, ids.len(), 16 * ids.len()].map(|additional| {
            let mut index = IdIndex::default();
            index.reserve(additional);
            index
        });
        let slots: Vec<Vec<u32>> = indexes
            .iter_mut()
            .map(|index| ids.iter().map(|&id| index.intern(id)).collect())
            .collect();
        let buckets: Vec<usize> = indexes.iter().map(|index| index.buckets.len()).collect();
        assert!(buckets[0] < buckets[1] && buckets[1] < buckets[2], "{buckets:?}");
        assert!(slots.iter().all(|s| *s == slots[0]));
        let pairs: Vec<Vec<(u64, u32)>> =
            indexes.iter().map(|index| index.iter().collect()).collect();
        assert!(pairs.iter().all(|p| *p == pairs[0]));
    }

    #[test]
    fn reserve_sizes_the_table_once() {
        let mut index = IdIndex::default();
        index.reserve(1000);
        let buckets = index.buckets.len();
        assert!(buckets >= 2000);
        for id in 0..1000u64 {
            index.intern(id << 40);
        }
        assert_eq!(index.buckets.len(), buckets, "no regrowth within the reservation");
        index.reserve(0);
        assert_eq!(index.buckets.len(), buckets);
        assert!((0..1000u64).all(|id| index.get(id << 40) == Some(id as u32)));
    }
}
