//! Privacy budgets and runtime *w-event ε-LDP* accounting.
//!
//! Definition 3 of the paper requires that for any sliding window of `w`
//! consecutive timestamps, the composed privacy loss for every user is at
//! most `ε`. The two allocation families satisfy this differently:
//!
//! - **Budget division** (Theorem 1, sequential composition): every user may
//!   report at every timestamp, but the per-timestamp budgets `ε_t` must sum
//!   to at most `ε` over any window of `w` timestamps.
//! - **Population division**: each report spends the *full* `ε`, so a user
//!   must report at most once within any window of `w` timestamps (users are
//!   "recycled" `w` steps after reporting; see Algorithm 1, line 9).
//!
//! [`WEventLedger`] records both kinds of events and verifies the invariant,
//! turning the privacy proof of Theorem 3 into an executable check.

use crate::error::LdpError;

/// A validated privacy budget ε > 0.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct PrivacyBudget(f64);

impl PrivacyBudget {
    /// Create a budget; rejects non-positive or non-finite values.
    pub fn new(eps: f64) -> Result<Self, LdpError> {
        if !eps.is_finite() || eps <= 0.0 {
            return Err(LdpError::InvalidBudget(eps));
        }
        Ok(PrivacyBudget(eps))
    }

    /// The raw ε value.
    #[inline]
    pub fn eps(self) -> f64 {
        self.0
    }

    /// Sequential composition (Theorem 1): the combined mechanism consumes
    /// the sum of the component budgets.
    pub fn compose(parts: &[PrivacyBudget]) -> f64 {
        parts.iter().map(|b| b.0).sum()
    }

    /// Split the budget into a fraction `portion` and the remainder.
    /// Returns `(portion·ε, (1−portion)·ε)`.
    pub fn split(self, portion: f64) -> (f64, f64) {
        assert!((0.0..=1.0).contains(&portion), "portion={portion}");
        (self.0 * portion, self.0 * (1.0 - portion))
    }
}

impl TryFrom<f64> for PrivacyBudget {
    type Error = LdpError;
    fn try_from(v: f64) -> Result<Self, Self::Error> {
        PrivacyBudget::new(v)
    }
}

/// Numerical slack for floating-point budget sums.
const EPS_TOLERANCE: f64 = 1e-9;

/// Records per-timestamp budget spends and per-user report times, and checks
/// the w-event invariant for both.
///
/// Population-division reports go to an append-only `(user, t)` log in
/// recording order: recording one is a single push, with no per-user
/// structure to look up or grow on the engine's hot path. The log is
/// sorted by `(user, t)` only where order matters — in [`Self::verify`]
/// and [`Self::export_state`], which sort a copy — so reported violations
/// and exported state never depend on recording order. Checkpoints borrow
/// the log in recording order instead ([`Self::user_reports`]).
#[derive(Debug, Clone)]
pub struct WEventLedger {
    eps_total: f64,
    w: usize,
    /// ε spent at each timestamp by the *budget-division* path
    /// (index = timestamp).
    per_ts_eps: Vec<f64>,
    /// For the *population-division* path: every `(user, t)` report, in
    /// recording order (each report spends `eps_total`).
    user_reports: Vec<(u64, u64)>,
}

impl WEventLedger {
    /// New ledger for total budget `eps` and window size `w ≥ 1`.
    pub fn new(eps: f64, w: usize) -> Self {
        assert!(w >= 1, "window size must be >= 1");
        assert!(eps.is_finite() && eps > 0.0, "eps must be positive");
        WEventLedger { eps_total: eps, w, per_ts_eps: Vec::new(), user_reports: Vec::new() }
    }

    /// Total budget ε.
    pub fn eps_total(&self) -> f64 {
        self.eps_total
    }

    /// Window size w.
    pub fn w(&self) -> usize {
        self.w
    }

    /// Record a budget-division spend of `eps` at timestamp `t` (applied to
    /// every reporting user).
    pub fn record_budget(&mut self, t: u64, eps: f64) {
        assert!(eps >= 0.0 && eps.is_finite(), "eps spend must be >= 0");
        let t = t as usize;
        if self.per_ts_eps.len() <= t {
            self.per_ts_eps.resize(t + 1, 0.0);
        }
        self.per_ts_eps[t] += eps;
    }

    /// Record that `user` reported at timestamp `t` with the full budget
    /// (population division).
    pub fn record_user_report(&mut self, user: u64, t: u64) {
        self.user_reports.push((user, t));
    }

    /// Sum of budget-division spends in the window ending at `t`
    /// (`[t−w+1, t]`, saturating at 0).
    pub fn window_spend(&self, t: u64) -> f64 {
        let t = t as usize;
        let lo = (t + 1).saturating_sub(self.w);
        self.per_ts_eps
            .iter()
            .enumerate()
            .skip(lo)
            .take_while(|(i, _)| *i <= t)
            .map(|(_, e)| *e)
            .sum()
    }

    /// Budget still available at timestamp `t` for the window ending at `t`,
    /// excluding `t` itself: `ε − Σ_{i=t−w+1}^{t−1} ε_i` (paper §III-E).
    pub fn remaining_budget(&self, t: u64) -> f64 {
        let t = t as usize;
        let lo = (t + 1).saturating_sub(self.w);
        let spent: f64 = self
            .per_ts_eps
            .iter()
            .enumerate()
            .skip(lo)
            .take_while(|(i, _)| *i < t)
            .map(|(_, e)| *e)
            .sum();
        (self.eps_total - spent).max(0.0)
    }

    /// Verify the w-event invariant over everything recorded so far.
    pub fn verify(&self) -> Result<(), LdpError> {
        // Budget division: every window sums to <= eps.
        for t in 0..self.per_ts_eps.len() {
            let spend = self.window_spend(t as u64);
            if spend > self.eps_total + EPS_TOLERANCE {
                return Err(LdpError::WEventViolation(format!(
                    "window ending at t={t} spends {spend:.6} > eps={:.6}",
                    self.eps_total
                )));
            }
        }
        // Population division: each user's reports are >= w apart, so any
        // w-window contains at most one full-eps report per user. The scan
        // runs over the log sorted by (user, t), so when several users
        // violate the invariant the reported one is always the smallest id
        // — error messages are reproducible across runs and platforms. A
        // duplicate report is a gap of 0 < w.
        let mut sorted = self.user_reports.clone();
        sorted.sort_unstable();
        for pair in sorted.windows(2) {
            let ((user, t0), (next_user, t1)) = (pair[0], pair[1]);
            if user == next_user && t1 - t0 < self.w as u64 {
                return Err(LdpError::WEventViolation(format!(
                    "user {user} reported at t={t0} and t={t1} (< w={} apart)",
                    self.w
                )));
            }
        }
        Ok(())
    }

    /// Number of reports recorded in the population-division path.
    pub fn total_user_reports(&self) -> usize {
        self.user_reports.len()
    }

    /// Forget everything recorded, in place; ε and `w` are untouched and
    /// buffer capacity is retained.
    pub fn reset(&mut self) {
        self.per_ts_eps.clear();
        self.user_reports.clear();
    }

    /// Export the recorded state in a deterministic order for external
    /// serialization (checkpoints): the per-timestamp spend column, and
    /// every `(user, t)` report pair sorted by user then time.
    pub fn export_state(&self) -> (Vec<f64>, Vec<(u64, u64)>) {
        let mut reports = self.user_reports.clone();
        reports.sort_unstable();
        (self.per_ts_eps.clone(), reports)
    }

    /// The budget-division spend column (index = timestamp), borrowed.
    pub fn budget_spends(&self) -> &[f64] {
        &self.per_ts_eps
    }

    /// Every population-division `(user, t)` report, borrowed, in
    /// recording order — deterministic for a deterministic session, and
    /// restored as is by [`Self::import_state`].
    pub fn user_reports(&self) -> &[(u64, u64)] {
        &self.user_reports
    }

    /// Replace the recorded state with a previously exported one
    /// (inverse of [`Self::export_state`]).
    pub fn import_state(&mut self, per_ts_eps: &[f64], reports: &[(u64, u64)]) {
        self.reset();
        self.per_ts_eps.extend_from_slice(per_ts_eps);
        self.user_reports.extend_from_slice(reports);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_validation() {
        assert!(PrivacyBudget::new(1.0).is_ok());
        assert!(PrivacyBudget::new(0.0).is_err());
        assert!(PrivacyBudget::new(-0.5).is_err());
        assert!(PrivacyBudget::new(f64::NAN).is_err());
        assert!(PrivacyBudget::new(f64::INFINITY).is_err());
    }

    #[test]
    fn compose_sums() {
        let parts = [
            PrivacyBudget::new(0.5).unwrap(),
            PrivacyBudget::new(0.25).unwrap(),
            PrivacyBudget::new(0.25).unwrap(),
        ];
        assert!((PrivacyBudget::compose(&parts) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn split_fractions() {
        let b = PrivacyBudget::new(2.0).unwrap();
        let (a, rest) = b.split(0.25);
        assert!((a - 0.5).abs() < 1e-12);
        assert!((rest - 1.5).abs() < 1e-12);
    }

    #[test]
    fn budget_window_accounting() {
        let mut ledger = WEventLedger::new(1.0, 3);
        ledger.record_budget(0, 0.4);
        ledger.record_budget(1, 0.3);
        ledger.record_budget(2, 0.3);
        assert!((ledger.window_spend(2) - 1.0).abs() < 1e-12);
        assert!(ledger.verify().is_ok());
        // t=3 window is [1,2,3]: 0.3 + 0.3 spent, 0.4 remains.
        assert!((ledger.remaining_budget(3) - 0.4).abs() < 1e-12);
        ledger.record_budget(3, 0.4);
        assert!(ledger.verify().is_ok());
        // Overspend in window [2,3,4].
        ledger.record_budget(4, 0.5);
        assert!(ledger.verify().is_err());
    }

    #[test]
    fn remaining_budget_at_start() {
        let ledger = WEventLedger::new(1.5, 10);
        assert!((ledger.remaining_budget(0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn population_spacing_ok() {
        let mut ledger = WEventLedger::new(1.0, 4);
        ledger.record_user_report(7, 0);
        ledger.record_user_report(7, 4);
        ledger.record_user_report(7, 9);
        ledger.record_user_report(8, 2);
        assert!(ledger.verify().is_ok());
        assert_eq!(ledger.total_user_reports(), 4);
    }

    #[test]
    fn population_spacing_violation() {
        let mut ledger = WEventLedger::new(1.0, 4);
        ledger.record_user_report(7, 0);
        ledger.record_user_report(7, 3); // gap 3 < w = 4
        let err = ledger.verify().unwrap_err();
        assert!(err.to_string().contains("user 7"));
    }

    #[test]
    fn population_duplicate_report_violation() {
        let mut ledger = WEventLedger::new(1.0, 1);
        // w = 1: duplicates at the same timestamp are still violations.
        ledger.record_user_report(3, 5);
        ledger.record_user_report(3, 5);
        let err = ledger.verify().unwrap_err();
        assert_eq!(
            err.to_string(),
            "w-event LDP violation: user 3 reported at t=5 and t=5 (< w=1 apart)"
        );
    }

    #[test]
    fn out_of_order_reports_are_sorted() {
        let mut ledger = WEventLedger::new(1.0, 2);
        ledger.record_user_report(1, 10);
        ledger.record_user_report(1, 2);
        ledger.record_user_report(1, 6);
        assert!(ledger.verify().is_ok());
    }

    /// Regression: with several violating users, the reported violation
    /// used to follow HashMap iteration order — a different user (and a
    /// different error message) run to run. The ledger now scans users
    /// in id order, so the smallest violating id is always the one
    /// reported, regardless of recording order.
    #[test]
    fn violation_reporting_is_deterministic() {
        // Record in three different orders; every permutation must
        // produce the identical error message.
        let users: [&[u64]; 3] = [&[30, 20, 10], &[10, 30, 20], &[20, 10, 30]];
        let mut messages = Vec::new();
        for order in users {
            let mut ledger = WEventLedger::new(1.0, 5);
            for &u in order {
                ledger.record_user_report(u, 0);
                ledger.record_user_report(u, 2); // gap 2 < w = 5: violation
            }
            messages.push(ledger.verify().unwrap_err().to_string());
        }
        assert_eq!(messages[0], messages[1]);
        assert_eq!(messages[1], messages[2]);
        assert!(messages[0].contains("user 10"), "smallest id wins: {}", messages[0]);
    }

    #[test]
    fn window_spend_partial_window() {
        let mut ledger = WEventLedger::new(1.0, 5);
        ledger.record_budget(0, 0.2);
        ledger.record_budget(1, 0.2);
        // Window ending at 1 only covers t=0,1.
        assert!((ledger.window_spend(1) - 0.4).abs() < 1e-12);
    }
}
