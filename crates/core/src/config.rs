//! Configuration of the RetraSyn engine.

use crate::allocation::AllocationKind;
use crate::compact::CompactionPolicy;
use retrasyn_ldp::ReportMode;

/// How the w-event budget is spread over the window (§III-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Division {
    /// Budget division: every user reports at every timestamp with a
    /// per-timestamp budget `ε_t`, `Σ_window ε_t ≤ ε` (RetraSyn_b).
    Budget,
    /// Population division: a sampled user group reports with the full `ε`;
    /// each user reports at most once per window (RetraSyn_p).
    Population,
}

/// Full engine configuration. Defaults follow the paper's experimental
/// setup (§V-A): `α = 8`, `κ = 5`, `p_max = 0.6`, adaptive allocation.
#[derive(Debug, Clone)]
pub struct RetraSynConfig {
    /// Privacy budget ε for any window of `w` timestamps.
    pub eps: f64,
    /// Window size w.
    pub w: usize,
    /// Allocation strategy (Adaptive / Uniform / Sample / RandomReport).
    pub allocation: AllocationKind,
    /// Adaptive-allocation scale hyperparameter α (Eq. 10).
    pub alpha: f64,
    /// Number of recent timestamps κ considered by Eq. 9–10.
    pub kappa: usize,
    /// Maximum portion `p_max` per timestamp (Eq. 10).
    pub p_max: f64,
    /// Termination restriction factor λ (Eq. 8); the paper sets it to the
    /// dataset's average stream length.
    pub lambda: f64,
    /// Report simulation mode (see `retrasyn_ldp::ReportMode`).
    /// [`ReportMode::PerUser`] rounds run the counter-based Philox kernel
    /// (`Oue::collect_ones_blocked`) under one key drawn from the session
    /// RNG per round; [`ReportMode::Aggregate`] rounds sample the
    /// position counts from their binomial distribution in O(domain).
    pub report_mode: ReportMode,
    /// Enable the DMU significant-transition selection (§III-C). Disabling
    /// reproduces the *AllUpdate* ablation of Table IV.
    pub dmu: bool,
    /// Model entering/quitting transitions (§III-B/D). Disabling reproduces
    /// the *NoEQ* ablation of Table IV: movement-only domain, fixed-size
    /// randomly-initialized synthetic database that never terminates.
    pub enter_quit: bool,
    /// Epoch compaction policy (`None` = never compact, the default).
    /// When set, a step that leaves more resident cells than the policy's
    /// high-water mark drains finished streams out of the tail arena into
    /// frozen storage, bounding resident memory by the live population.
    /// Purely operational: released output and snapshots are bit-for-bit
    /// unaffected, so it is deliberately excluded from the session
    /// fingerprint (a recovered session may use a different mark).
    pub compaction: Option<CompactionPolicy>,
}

impl RetraSynConfig {
    /// Paper-default configuration for budget `eps` and window `w`.
    pub fn new(eps: f64, w: usize) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "eps must be positive");
        assert!(w >= 1, "window must be >= 1");
        RetraSynConfig {
            eps,
            w,
            allocation: AllocationKind::Adaptive,
            alpha: 8.0,
            kappa: 5,
            p_max: 0.6,
            lambda: 20.0,
            report_mode: ReportMode::Aggregate,
            dmu: true,
            enter_quit: true,
            compaction: None,
        }
    }

    /// Set the termination factor λ (usually the dataset's average length).
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        assert!(lambda > 0.0, "lambda must be positive");
        self.lambda = lambda;
        self
    }

    /// Set the allocation strategy.
    pub fn with_allocation(mut self, allocation: AllocationKind) -> Self {
        self.allocation = allocation;
        self
    }

    /// Disable DMU (the *AllUpdate* ablation).
    pub fn all_update(mut self) -> Self {
        self.dmu = false;
        self
    }

    /// Disable enter/quit modelling (the *NoEQ* ablation).
    pub fn no_eq(mut self) -> Self {
        self.enter_quit = false;
        self
    }

    /// Use exact per-user report simulation (slower; for validation).
    pub fn per_user_reports(mut self) -> Self {
        self.report_mode = ReportMode::PerUser;
        self
    }

    /// Enable epoch compaction above `high_water_cells` resident cells.
    pub fn with_compaction(mut self, high_water_cells: usize) -> Self {
        assert!(high_water_cells >= 1, "high-water mark must be >= 1");
        self.compaction = Some(CompactionPolicy::new(high_water_cells));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = RetraSynConfig::new(1.0, 20);
        assert_eq!(c.alpha, 8.0);
        assert_eq!(c.kappa, 5);
        assert_eq!(c.p_max, 0.6);
        assert_eq!(c.allocation, AllocationKind::Adaptive);
        assert!(c.dmu);
        assert!(c.enter_quit);
        assert_eq!(c.report_mode, ReportMode::Aggregate);
    }

    #[test]
    fn builders() {
        let c = RetraSynConfig::new(1.0, 10)
            .with_lambda(13.6)
            .with_allocation(AllocationKind::Uniform)
            .all_update()
            .no_eq()
            .per_user_reports()
            .with_compaction(10_000);
        assert_eq!(c.lambda, 13.6);
        assert_eq!(c.allocation, AllocationKind::Uniform);
        assert!(!c.dmu);
        assert!(!c.enter_quit);
        assert_eq!(c.report_mode, ReportMode::PerUser);
        assert_eq!(c.compaction, Some(CompactionPolicy::new(10_000)));
        assert_eq!(RetraSynConfig::new(1.0, 10).compaction, None);
    }

    #[test]
    #[should_panic(expected = "eps")]
    fn rejects_bad_eps() {
        let _ = RetraSynConfig::new(0.0, 10);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn rejects_bad_window() {
        let _ = RetraSynConfig::new(1.0, 0);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn rejects_bad_lambda() {
        let _ = RetraSynConfig::new(1.0, 10).with_lambda(0.0);
    }
}
