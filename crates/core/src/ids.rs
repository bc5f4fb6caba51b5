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
//! empty bucket) over the dense slot → id column. Buckets are addressed by
//! a fixed 64-bit finalizer, so the layout is a pure function of the ids
//! interned — no per-process hash seed — and probing is linear, growing
//! the table whenever it would pass half full. A lookup is one mix, one
//! table read and one id compare in the common case. The price of that
//! determinism: the mixer is public and invertible, so a producer that
//! knows it can choose ids that share one probe run and make each lookup
//! linear in their number.
//!
//! The table has no order, so [`IdIndex::iter`] sorts the `(id, slot)`
//! pairs when it is called: checkpoint encoders, its only callers, write
//! ids in ascending order.

/// Smallest non-empty table.
const MIN_BUCKETS: usize = 16;

/// Bijection between the stream ids seen so far and dense slots
/// `0..len()`. Slots are never reused until [`IdIndex::clear`].
#[derive(Debug, Clone, Default)]
pub(crate) struct IdIndex {
    /// Open-addressing buckets: `slot + 1`, or 0 when empty. Empty or a
    /// power of two at most half full.
    buckets: Vec<u32>,
    /// The id interned at each slot.
    ids: Vec<u64>,
}

/// The murmur3 64-bit finalizer: every input bit flips each output bit
/// with probability ≈ ½, so sequential and strided ids spread evenly over
/// the low bits that pick a bucket.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

impl IdIndex {
    /// The slot of `id`, or the empty bucket where it would go. The table
    /// must be non-empty.
    #[inline]
    fn find(&self, id: u64) -> Result<u32, usize> {
        let mask = self.buckets.len() - 1;
        let mut bucket = mix(id) as usize & mask;
        loop {
            match self.buckets[bucket] {
                0 => return Err(bucket),
                entry if self.ids[(entry - 1) as usize] == id => return Ok(entry - 1),
                _ => bucket = (bucket + 1) & mask,
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
        if 2 * (self.ids.len() + 1) > self.buckets.len() {
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
        let need = (2 * (self.ids.len() + additional)).max(MIN_BUCKETS).next_power_of_two();
        if need > self.buckets.len() {
            self.rebuild(need);
        }
    }

    /// Re-address every interned id into `buckets` empty buckets.
    fn rebuild(&mut self, buckets: usize) {
        debug_assert!(buckets.is_power_of_two() && 2 * self.ids.len() <= buckets);
        self.buckets.clear();
        self.buckets.resize(buckets, 0);
        let mask = buckets - 1;
        for (slot, &id) in self.ids.iter().enumerate() {
            let mut bucket = mix(id) as usize & mask;
            while self.buckets[bucket] != 0 {
                bucket = (bucket + 1) & mask;
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
            let mut bucket = mix(id) as usize & mask;
            let mut probes = 1;
            while self.buckets[bucket] != 0 && self.id(self.buckets[bucket] - 1) != id {
                bucket = (bucket + 1) & mask;
                probes += 1;
            }
            probes
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
    /// `BTreeMap` reference at every operation.
    #[test]
    fn matches_an_ordered_map_model() {
        let pool = hostile_ids();
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut index = IdIndex::default();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            let mut order: Vec<u64> = Vec::new();
            for _ in 0..4000 {
                let id = if rng.random_bool(0.7) {
                    pool[rng.random_range(0..pool.len())]
                } else {
                    rng.random::<u64>()
                };
                match rng.random_range(0..100u32) {
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
    }

    #[test]
    fn probes_stay_short_on_sequential_and_strided_ids() {
        const N: u64 = 1 << 20;
        type IdOf = fn(u64) -> u64;
        let families: [(&str, IdOf); 4] = [
            ("sequential", |i| i),
            ("stride 2^32", |i| i << 32),
            ("stride 1000", |i| i * 1000),
            ("bijection", |i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        ];
        for (name, id_of) in families {
            let mut index = IdIndex::default();
            for i in 0..N {
                assert_eq!(index.intern(id_of(i)), i as u32);
            }
            assert!(2 * index.len() <= index.buckets.len(), "{name}: load above one half");
            let longest = (0..N).map(|i| index.probe_len(id_of(i))).max().unwrap();
            assert!(longest <= 64, "{name}: longest probe {longest}");
        }
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
