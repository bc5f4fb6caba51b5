//! The dynamic active-user set of Algorithm 1 (§III-E/F).
//!
//! Users (stream entities) move through three states:
//!
//! - **Active** — eligible for sampling;
//! - **Inactive** — reported within the current window; recycled (set back
//!   to Active) exactly `w` timestamps after reporting (Alg. 1 line 9),
//!   which is what makes population division satisfy w-event LDP;
//! - **Quitted** — delivered the final `Quit` report (or silently left);
//!   never reports again.
//!
//! **Slot layout.** Stream ids are opaque `u64`s. The registry interns each
//! id once into a dense `u32` slot ([`UserRegistry::intern`], first-seen
//! order) and keeps every per-user field in a flat `Vec` indexed by slot:
//! the status column, and the report ring below. The engine looks a
//! step's users up together (`UserRegistry::slots_of`), interns the ones
//! that lookup leaves unresolved in event order, and carries each slot
//! through eligibility, sampling and [`UserRegistry::mark_reported`], so a
//! state transition is a vector write, not an ordered-map operation. The active population is
//! a counter maintained on every transition, so
//! [`UserRegistry::active_count`] is O(1).
//!
//! Report-time bookkeeping is a *ring buffer* of `w` slots: a user that
//! reports at `t` lands in ring slot `t mod w` and is recycled exactly `w`
//! steps later from the same ring slot, whose buffer is drained and reused
//! — recycling allocates nothing in steady state.
//!
//! The layout is invisible in checkpoints: the encoder writes statuses in
//! ascending id order and ring members as ids, so the bytes depend on the
//! ids alone, never on the order slots were assigned in.

use crate::ids::IdIndex;
use crate::wal::{Dec, Enc};

/// One ring-buffer slot: the users that reported at `t`, recycled when the
/// window wraps back around to `t mod w`.
#[derive(Debug, Clone, Default)]
struct ReportSlot {
    /// The timestamp these reporters are from (slots are reused every `w`
    /// steps; `u64::MAX` marks a never-used slot).
    t: u64,
    /// The reporters' registry slots, drained on recycle with capacity
    /// retained.
    users: Vec<u32>,
}

/// Lifecycle state of a reporting unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserStatus {
    /// Eligible for sampling.
    Active,
    /// Reported recently; waiting to be recycled.
    Inactive,
    /// Left the stream; permanently retired.
    Quitted,
}

/// Registry tracking every observed user's status for a fixed recycling
/// window `w`, keyed by dense slot (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct UserRegistry {
    /// Stream id ↔ slot.
    ids: IdIndex,
    /// Status per slot; `None` for an interned user never registered.
    status: Vec<Option<UserStatus>>,
    /// Number of slots with a status.
    seen: usize,
    /// Number of Active slots.
    active: usize,
    /// Window size `w`: a reporter at `t` is recycled at `t + w`.
    window: u64,
    /// Ring of `w` report slots; a reporter at `t` lives in slot
    /// `t mod w` until recycled.
    ring: Vec<ReportSlot>,
}

impl UserRegistry {
    /// Empty registry for recycling window `w` (≥ 1).
    pub fn new(w: usize) -> Self {
        assert!(w >= 1, "window must be >= 1");
        UserRegistry {
            ids: IdIndex::default(),
            status: Vec::new(),
            seen: 0,
            active: 0,
            window: w as u64,
            ring: vec![ReportSlot { t: u64::MAX, users: Vec::new() }; w],
        }
    }

    /// The slot of stream id `user`, assigned on first sight. Interning
    /// alone does not register the user (its status stays `None`).
    pub fn intern(&mut self, user: u64) -> u32 {
        let slot = self.ids.intern(user);
        if self.status.len() < self.ids.len() {
            self.status.push(None);
        }
        slot
    }

    /// The slots of a batch of users, [`UNRESOLVED`](crate::ids::UNRESOLVED)
    /// where one probe did not find it (see [`IdIndex::get_batch`]): the
    /// caller interns those in order.
    pub(crate) fn slots_of<I>(&self, users: I, slots: &mut Vec<u32>)
    where
        I: Iterator<Item = u64> + Clone,
    {
        self.ids.get_batch(users, slots);
    }

    /// The slot of `user`, if it was interned.
    pub fn slot_of(&self, user: u64) -> Option<u32> {
        self.ids.get(user)
    }

    /// The stream id interned at `slot`.
    pub fn user(&self, slot: u32) -> u64 {
        self.ids.id(slot)
    }

    /// Register a newly arrived user as Active (no effect if it already
    /// has a status).
    pub fn register(&mut self, slot: u32) {
        let status = &mut self.status[slot as usize];
        if status.is_none() {
            *status = Some(UserStatus::Active);
            self.seen += 1;
            self.active += 1;
        }
    }

    /// Current status, if the user has been registered (or retired).
    pub fn status(&self, slot: u32) -> Option<UserStatus> {
        self.status[slot as usize]
    }

    /// Mark a user as having reported at `t` (Active → Inactive).
    ///
    /// The caller must recycle (`[Self::recycle]` at `t`) before marking
    /// new reporters at `t`, as Algorithm 1 does: the ring slot being
    /// claimed is the one the reporters from `t − w` just vacated.
    pub fn mark_reported(&mut self, slot: u32, t: u64) {
        let was = self.status[slot as usize].replace(UserStatus::Inactive);
        debug_assert_eq!(was, Some(UserStatus::Active), "slot {slot}");
        match was {
            Some(UserStatus::Active) => self.active -= 1,
            None => self.seen += 1,
            Some(_) => {}
        }
        let idx = (t % self.window) as usize;
        let ring = &mut self.ring[idx];
        if ring.t != t {
            debug_assert!(
                ring.users.is_empty(),
                "ring slot {idx} still holds unrecycled reporters from t={}",
                ring.t
            );
            ring.users.clear();
            ring.t = t;
        }
        ring.users.push(slot);
    }

    /// Permanently retire a user (registering it as Quitted if it had no
    /// status).
    pub fn mark_quitted(&mut self, slot: u32) {
        match self.status[slot as usize].replace(UserStatus::Quitted) {
            Some(UserStatus::Active) => self.active -= 1,
            None => self.seen += 1,
            Some(_) => {}
        }
    }

    /// Recycle users that reported at `t − w` (Alg. 1 line 9): Inactive →
    /// Active. Quitted users stay quitted. Allocation-free: the slot's
    /// buffer is drained in place and its capacity reused by the
    /// reporters at `t`.
    pub fn recycle(&mut self, t: u64) {
        let Some(report_t) = t.checked_sub(self.window) else {
            return;
        };
        let idx = (report_t % self.window) as usize;
        let ring = &mut self.ring[idx];
        if ring.t != report_t {
            return;
        }
        for &slot in &ring.users {
            let status = &mut self.status[slot as usize];
            if *status == Some(UserStatus::Inactive) {
                *status = Some(UserStatus::Active);
                self.active += 1;
            }
        }
        ring.users.clear();
    }

    /// Number of Active users — O(1), maintained incrementally.
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// Number of users ever registered or retired.
    pub fn total_seen(&self) -> usize {
        self.seen
    }

    /// Forget every user in place, keeping the window and every allocation
    /// (the slot columns and the ring-slot buffers).
    pub fn reset(&mut self) {
        self.ids.clear();
        self.status.clear();
        self.seen = 0;
        self.active = 0;
        for ring in &mut self.ring {
            ring.t = u64::MAX;
            ring.users.clear();
        }
    }

    /// Serialize the registry for a checkpoint: every status in ascending
    /// id order (the index sorts its ids here, so the bytes are the same
    /// whatever order the ids were interned in), then the ring slots in
    /// index order with their members as ids. The window is not
    /// serialized — it is pinned by the session fingerprint.
    pub(crate) fn encode_into(&self, enc: &mut Enc) {
        enc.usize(self.seen);
        for (user, slot) in self.ids.iter() {
            if let Some(status) = self.status[slot as usize] {
                enc.u64(user);
                enc.u8(match status {
                    UserStatus::Active => 0,
                    UserStatus::Inactive => 1,
                    UserStatus::Quitted => 2,
                });
            }
        }
        enc.usize(self.ring.len());
        for ring in &self.ring {
            enc.u64(ring.t);
            enc.usize(ring.users.len());
            for &slot in &ring.users {
                enc.u64(self.ids.id(slot));
            }
        }
    }

    /// Byte length of [`Self::encode_into`] output.
    pub(crate) fn encoded_len(&self) -> usize {
        let ring: usize = self.ring.iter().map(|r| 16 + 8 * r.users.len()).sum();
        8 + 9 * self.seen + 8 + ring
    }

    /// Restore from [`Self::encode_into`] output. Slots are reassigned in
    /// decode order; they are internal, so only ids reach the bytes.
    /// Untrusted counts never size an allocation beyond the bytes left,
    /// and a ring member without a status is an `Err`.
    pub(crate) fn decode_from(&mut self, dec: &mut Dec) -> Result<(), String> {
        self.reset();
        let seen = dec.usize()?;
        // One table allocation for the whole restore. A status record is
        // 9 bytes, so a count the payload cannot hold reserves no more
        // than the bytes left.
        let reserve = seen.min(dec.remaining() / 9);
        self.ids.reserve(reserve);
        self.status.reserve(reserve);
        for _ in 0..seen {
            let user = dec.u64()?;
            let status = match dec.u8()? {
                0 => UserStatus::Active,
                1 => UserStatus::Inactive,
                2 => UserStatus::Quitted,
                other => return Err(format!("unknown user status tag {other}")),
            };
            let slot = self.intern(user);
            if self.status[slot as usize].replace(status).is_some() {
                return Err(format!("user {user} appears twice in the checkpoint"));
            }
            self.seen += 1;
            if status == UserStatus::Active {
                self.active += 1;
            }
        }
        let slots = dec.usize()?;
        if slots != self.ring.len() {
            return Err(format!(
                "checkpoint ring has {slots} slots, this session's window needs {}",
                self.ring.len()
            ));
        }
        for ring in &mut self.ring {
            ring.t = dec.u64()?;
            let n = dec.usize()?;
            ring.users.reserve(n.min(dec.remaining() / 8));
            for _ in 0..n {
                let user = dec.u64()?;
                let slot = self.ids.get(user).ok_or_else(|| {
                    format!("ring member {user} (t={}) has no status in the checkpoint", ring.t)
                })?;
                ring.users.push(slot);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The incrementally maintained counters must always agree with a
    /// full scan of the status column.
    fn check_consistency(r: &UserRegistry) {
        let active = r.status.iter().filter(|&&s| s == Some(UserStatus::Active)).count();
        let seen = r.status.iter().filter(|s| s.is_some()).count();
        assert_eq!(r.active_count(), active);
        assert_eq!(r.total_seen(), seen);
    }

    /// Intern and register `user`, returning its slot.
    fn arrive(r: &mut UserRegistry, user: u64) -> u32 {
        let slot = r.intern(user);
        r.register(slot);
        slot
    }

    #[test]
    fn lifecycle() {
        let mut r = UserRegistry::new(5);
        let a = arrive(&mut r, 1);
        assert_eq!(r.status(a), Some(UserStatus::Active));
        assert_eq!(r.slot_of(2), None);
        let b = r.intern(2);
        assert_eq!(r.status(b), None, "interning alone does not register");
        r.mark_reported(a, 5);
        assert_eq!(r.status(a), Some(UserStatus::Inactive));
        // Recycled exactly w steps later.
        r.recycle(9); // t - w = 4: nothing
        assert_eq!(r.status(a), Some(UserStatus::Inactive));
        r.recycle(10); // t - w = 5: user 1
        assert_eq!(r.status(a), Some(UserStatus::Active));
        assert_eq!(r.user(a), 1);
        check_consistency(&r);
    }

    #[test]
    fn register_does_not_reset_status() {
        let mut r = UserRegistry::new(5);
        let a = arrive(&mut r, 1);
        r.mark_reported(a, 0);
        assert_eq!(r.intern(1), a, "an id keeps its slot");
        r.register(a);
        assert_eq!(r.status(a), Some(UserStatus::Inactive));
        assert_eq!(r.active_count(), 0);
    }

    #[test]
    fn quitted_users_are_not_recycled() {
        let mut r = UserRegistry::new(5);
        let a = arrive(&mut r, 1);
        r.mark_reported(a, 3);
        r.mark_quitted(a);
        r.recycle(8);
        assert_eq!(r.status(a), Some(UserStatus::Quitted));
        assert_eq!(r.active_count(), 0);
    }

    #[test]
    fn active_and_seen_are_counted() {
        let mut r = UserRegistry::new(5);
        let slots: Vec<u32> = [5, 1, 9, 3].iter().map(|&u| arrive(&mut r, u)).collect();
        r.mark_reported(slots[3], 0);
        // Quitting a never-registered user counts it as seen.
        let q = r.intern(7);
        r.mark_quitted(q);
        assert_eq!(r.active_count(), 3);
        assert_eq!(r.total_seen(), 5);
        check_consistency(&r);
    }

    #[test]
    fn recycle_underflow_is_safe() {
        let mut r = UserRegistry::new(10);
        let a = arrive(&mut r, 1);
        r.recycle(3); // t < w: no-op
        assert_eq!(r.status(a), Some(UserStatus::Active));
    }

    #[test]
    fn multiple_users_same_report_time() {
        let mut r = UserRegistry::new(5);
        for u in 0..4 {
            let s = arrive(&mut r, u);
            r.mark_reported(s, 2);
        }
        r.recycle(7);
        assert_eq!(r.active_count(), 4);
    }

    #[test]
    fn ring_recycles_across_many_window_wraps() {
        // Drive the ring through several full wrap-arounds with the
        // engine's call pattern (recycle at t, then report at t): every
        // reporter must come back exactly w steps later, never earlier,
        // and slot reuse must not leak or double-recycle users.
        let w = 4usize;
        let mut r = UserRegistry::new(w);
        for u in 0..8 {
            arrive(&mut r, u);
        }
        let mut inactive_until: BTreeMap<u64, u64> = BTreeMap::new();
        for t in 0..40u64 {
            r.recycle(t);
            for (&u, &until) in &inactive_until {
                let expect = if t < until { UserStatus::Inactive } else { UserStatus::Active };
                let slot = r.slot_of(u).unwrap();
                assert_eq!(r.status(slot), Some(expect), "user {u} at t={t}");
            }
            // Users 0..w report on a rotating schedule: u reports whenever
            // t % w == u % w (each exactly once per window).
            for u in 0..4u64 {
                if t % w as u64 == u % w as u64 {
                    let slot = r.slot_of(u).unwrap();
                    assert_eq!(r.status(slot), Some(UserStatus::Active), "u={u} t={t}");
                    r.mark_reported(slot, t);
                    inactive_until.insert(u, t + w as u64);
                }
            }
            check_consistency(&r);
        }
    }

    #[test]
    fn counters_track_churn() {
        // A churn-heavy schedule interleaving every transition; the
        // maintained counters must agree with a full scan at every point.
        let mut r = UserRegistry::new(5);
        for u in 0..50 {
            arrive(&mut r, u);
        }
        check_consistency(&r);
        for u in (0..50).step_by(3) {
            r.mark_reported(r.slot_of(u).unwrap(), 1);
        }
        check_consistency(&r);
        for u in (0..50).step_by(7) {
            r.mark_quitted(r.slot_of(u).unwrap());
        }
        check_consistency(&r);
        r.recycle(6); // reporters at t=1 recycle, quitted stay out
        check_consistency(&r);
        // Quitting an Inactive user must not touch the active count.
        let late = arrive(&mut r, 100);
        r.mark_reported(late, 6);
        let before = r.active_count();
        r.mark_quitted(late);
        assert_eq!(r.active_count(), before);
        check_consistency(&r);
        // mark_quitted on an Active user removes exactly that user.
        r.mark_quitted(r.slot_of(1).unwrap());
        assert_eq!(r.active_count(), before - 1);
        check_consistency(&r);
    }

    /// Checkpoint bytes are written in id order whatever order the ids
    /// arrived in, and decode restores every status and ring member.
    #[test]
    fn encoding_is_id_ordered_and_round_trips() {
        let build = |order: &[u64]| {
            let mut r = UserRegistry::new(3);
            for &u in order {
                arrive(&mut r, u);
            }
            r.mark_reported(r.slot_of(u64::MAX).unwrap(), 4);
            r.mark_reported(r.slot_of(0).unwrap(), 4);
            r.mark_quitted(r.slot_of(1 << 63).unwrap());
            r
        };
        let a = build(&[u64::MAX, 0, 1 << 63, 17]);
        let b = build(&[17, 1 << 63, 0, u64::MAX]);
        let (mut ea, mut eb) = (Enc::default(), Enc::default());
        a.encode_into(&mut ea);
        b.encode_into(&mut eb);
        assert_eq!(ea.buf, eb.buf, "bytes depend on ids, not slots");

        let mut restored = UserRegistry::new(3);
        restored.decode_from(&mut Dec::new(&ea.buf)).unwrap();
        let mut again = Enc::default();
        restored.encode_into(&mut again);
        assert_eq!(again.buf, ea.buf);
        check_consistency(&restored);
        assert_eq!(restored.active_count(), 1);
        restored.recycle(7);
        let top = restored.slot_of(u64::MAX).unwrap();
        assert_eq!(restored.status(top), Some(UserStatus::Active));
    }

    /// A crafted ring count used to size a reservation directly and
    /// abort with `capacity overflow`; it must be a decode error.
    #[test]
    fn huge_ring_count_is_an_error_not_an_abort() {
        let mut enc = Enc::default();
        enc.usize(0); // no statuses
        enc.usize(1); // one ring slot (w = 1)
        enc.u64(0); // slot t
        enc.u64(1 << 61); // member count
        let mut r = UserRegistry::new(1);
        let err = r.decode_from(&mut Dec::new(&enc.buf)).unwrap_err();
        assert!(err.contains("unexpected end of data"), "{err}");
    }

    /// A crafted status count is capped by the payload before it sizes
    /// the id table or the status column.
    #[test]
    fn huge_seen_count_is_an_error_not_an_abort() {
        let mut enc = Enc::default();
        enc.usize(1 << 61); // status count
        enc.u64(9);
        enc.u8(0); // one real record
        let mut r = UserRegistry::new(1);
        let err = r.decode_from(&mut Dec::new(&enc.buf)).unwrap_err();
        assert!(err.contains("unexpected end of data"), "{err}");
        assert!(r.status.capacity() <= 16, "reserved {}", r.status.capacity());
    }

    #[test]
    fn ring_member_without_status_is_rejected() {
        let mut enc = Enc::default();
        enc.usize(1);
        enc.u64(9);
        enc.u8(1); // user 9 Inactive
        enc.usize(1);
        enc.u64(0);
        enc.usize(2);
        enc.u64(9);
        enc.u64(4); // user 4 was never given a status
        let mut r = UserRegistry::new(1);
        let err = r.decode_from(&mut Dec::new(&enc.buf)).unwrap_err();
        assert!(err.contains("ring member 4"), "{err}");
    }
}
