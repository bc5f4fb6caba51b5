//! Dense slots for opaque stream ids.
//!
//! A stream id is an opaque `u64`: sparse, arbitrary, never assumed dense
//! or ordered by arrival. Per-user bookkeeping keys flat `Vec`s by a dense
//! `u32` *slot* instead, handed out in first-seen order by an [`IdIndex`].
//! A layer looks each event's id up once per step and carries the slot
//! from there on, so the per-user state transitions are vector indexing
//! rather than ordered-map operations.
//!
//! The index itself is an ordered map, so [`IdIndex::iter`] walks ids in
//! ascending order — the order every checkpoint encoder writes them in.

use std::collections::BTreeMap;

/// Bijection between the stream ids seen so far and dense slots
/// `0..len()`. Slots are never reused until [`IdIndex::clear`].
#[derive(Debug, Clone, Default)]
pub(crate) struct IdIndex {
    slots: BTreeMap<u64, u32>,
    ids: Vec<u64>,
}

impl IdIndex {
    /// The slot of `id`, if it was interned.
    pub(crate) fn get(&self, id: u64) -> Option<u32> {
        self.slots.get(&id).copied()
    }

    /// The slot of `id`, assigning the next free one on first sight.
    ///
    /// # Panics
    ///
    /// If more than `u32::MAX` distinct ids are interned.
    pub(crate) fn intern(&mut self, id: u64) -> u32 {
        let next = self.ids.len();
        let slot = *self.slots.entry(id).or_insert_with(|| {
            u32::try_from(next).expect("more than u32::MAX distinct stream ids")
        });
        if slot as usize == next {
            self.ids.push(id);
        }
        slot
    }

    /// The id interned at `slot`.
    pub(crate) fn id(&self, slot: u32) -> u64 {
        self.ids[slot as usize]
    }

    /// Number of interned ids (slots are `0..len()`).
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Every `(id, slot)` pair in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.slots.iter().map(|(&id, &slot)| (id, slot))
    }

    /// Forget every id, keeping the slot vector's capacity.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.ids.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_dense_in_first_seen_order() {
        let mut index = IdIndex::default();
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
        assert_eq!(index.intern(42), 0);
    }
}
