//! LDP-IDS baselines (Ren et al., SIGMOD 2022) adapted to trajectory
//! streams exactly as the paper describes (§V-A):
//!
//! > "we employ its two-step private mechanism to collect the transition
//! > states from users and build the global mobility model. Afterward, we
//! > leverage the same Markov probability model as ours to generate new
//! > points without considering the entering/quitting of users."
//!
//! Each timestamp runs the two-phase scheme: a *dissimilarity* phase
//! estimates how far the stream has drifted from the last release, and a
//! *publication* phase either refreshes the release (spending budget /
//! users according to the strategy) or re-uses the previous release.
//!
//! - **LBD** (budget distribution): dissimilarity gets `ε/(2w)` per
//!   timestamp; a publication spends half of the remaining publication
//!   half-budget in the window (exponentially decreasing).
//! - **LBA** (budget absorption): uniform `ε/(2w)` publication slots;
//!   skipped slots are absorbed by the next publication, which then
//!   nullifies an equal number of following slots.
//! - **LPD** / **LPA**: the population-division analogues — user groups
//!   reporting with the full ε are distributed / absorbed instead of
//!   budget. Their group sizing assumes a fixed user population `n₀`
//!   (the assumption the paper criticizes as unrealistic for dynamic
//!   streams: the group size is derived from the initial population).
//!
//! The baselines collect *movement states only* (no enter/quit modelling):
//! entering/quitting users simply hold no reportable state that timestamp.
//! Synthesis uses the same Markov generator as RetraSyn in NoEQ mode: a
//! fixed-size, randomly initialized synthetic database whose trajectories
//! never terminate — which is why the paper's Table III shows their length
//! error pinned at ln 2.

use crate::model::GlobalMobilityModel;
use crate::population::{UserRegistry, UserStatus};
use crate::session::{resolve_events, SessionError, StepOutcome, StreamingEngine};
use crate::store::SnapshotView;
use crate::synthesis::SyntheticDb;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use retrasyn_geo::{GriddedDataset, Space, Topology, TransitionState, TransitionTable, UserEvent};
use retrasyn_ldp::{oue, FrequencyOracle, Oue, ReportMode, WEventLedger};
use std::collections::VecDeque;
use std::sync::Arc;

/// The four LDP-IDS mechanisms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Budget distribution (exponentially decreasing publication budgets).
    Lbd,
    /// Budget absorption (uniform slots with absorption + nullification).
    Lba,
    /// Population distribution.
    Lpd,
    /// Population absorption.
    Lpa,
}

impl BaselineKind {
    /// All four mechanisms, in the paper's order.
    pub const ALL: [BaselineKind; 4] =
        [BaselineKind::Lbd, BaselineKind::Lba, BaselineKind::Lpd, BaselineKind::Lpa];

    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            BaselineKind::Lbd => "LBD",
            BaselineKind::Lba => "LBA",
            BaselineKind::Lpd => "LPD",
            BaselineKind::Lpa => "LPA",
        }
    }

    /// Whether this is a population-division mechanism.
    pub fn is_population(self) -> bool {
        matches!(self, BaselineKind::Lpd | BaselineKind::Lpa)
    }
}

/// Baseline configuration.
#[derive(Debug, Clone)]
pub struct LdpIdsConfig {
    /// Privacy budget ε per window.
    pub eps: f64,
    /// Window size w.
    pub w: usize,
    /// Report simulation mode.
    pub report_mode: ReportMode,
}

impl LdpIdsConfig {
    /// Paper-default baseline configuration.
    pub fn new(eps: f64, w: usize) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "eps must be positive");
        assert!(w >= 1, "window must be >= 1");
        LdpIdsConfig { eps, w, report_mode: ReportMode::Aggregate }
    }
}

/// An LDP-IDS baseline engine.
#[derive(Debug)]
pub struct LdpIds {
    kind: BaselineKind,
    config: LdpIdsConfig,
    table: TransitionTable,
    /// Current release over the movement domain.
    released: Vec<f64>,
    has_release: bool,
    /// Full-domain wrapper for the shared synthesizer (enter/quit zero).
    model: GlobalMobilityModel,
    synthetic: SyntheticDb,
    ledger: WEventLedger,
    registry: UserRegistry,
    rng: StdRng,
    /// Construction seed, kept so a reset replays identically.
    seed: u64,
    next_t: u64,
    /// Set by a release; a released engine refuses to step until reset.
    session_released: bool,
    fixed_size: Option<usize>,
    /// Fixed-population assumption n₀ (population variants).
    n0: Option<usize>,
    /// Publications (t, ε₂) in the budget variants (window accounting).
    budget_pubs: VecDeque<(u64, f64)>,
    /// Publication groups (t, size) in the population variants.
    group_pubs: VecDeque<(u64, usize)>,
    /// Absorption state (LBA/LPA).
    last_pub_t: Option<u64>,
    nullified_until: Option<u64>,
    /// Reused per-step scratch: each event's domain index, written by the
    /// validating resolve pre-pass.
    scratch_resolved: Vec<usize>,
    /// Reused per-step scratch: the (user, movement index) reports.
    scratch_states: Vec<(u64, usize)>,
}

impl LdpIds {
    /// Create a baseline engine over any discretization.
    pub fn new<S: Space>(kind: BaselineKind, config: LdpIdsConfig, space: S, seed: u64) -> Self {
        let table = TransitionTable::new(&space);
        let released = vec![0.0; table.num_moves()];
        let model = GlobalMobilityModel::new(table.len());
        let ledger = WEventLedger::new(config.eps, config.w);
        let registry = UserRegistry::new(config.w);
        LdpIds {
            kind,
            config,
            table,
            released,
            has_release: false,
            model,
            synthetic: SyntheticDb::new(),
            ledger,
            registry,
            rng: StdRng::seed_from_u64(seed),
            seed,
            next_t: 0,
            session_released: false,
            fixed_size: None,
            n0: None,
            budget_pubs: VecDeque::new(),
            group_pubs: VecDeque::new(),
            last_pub_t: None,
            nullified_until: None,
            scratch_resolved: Vec::new(),
            scratch_states: Vec::new(),
        }
    }

    /// The mechanism kind.
    pub fn kind(&self) -> BaselineKind {
        self.kind
    }

    /// Whether `t` falls in a nullified stretch (absorption variants).
    fn is_nullified(&self, t: u64) -> bool {
        self.nullified_until.is_some_and(|until| t <= until)
    }

    /// Mean squared per-dimension deviation between an estimate and the
    /// current release, debiased by the estimator variance — the
    /// dissimilarity `dis` of the two-phase mechanism.
    fn dissimilarity(&self, estimate: &[f64], variance: f64) -> f64 {
        let d = estimate.len() as f64;
        let raw: f64 =
            estimate.iter().zip(&self.released).map(|(&e, &r)| (e - r).powi(2)).sum::<f64>() / d;
        (raw - variance).max(0.0)
    }

    fn publish(&mut self, estimate: Vec<f64>) {
        self.released = estimate.into_iter().map(|f| f.max(0.0)).collect();
        self.has_release = true;
        let mut full = vec![0.0; self.table.len()];
        full[..self.table.num_moves()].copy_from_slice(&self.released);
        self.model.replace_all(&full);
    }

    /// LBD / LBA: two-phase budget division.
    fn step_budget(&mut self, t: u64, states: &[(u64, usize)]) {
        let w = self.config.w as u64;
        let unit = self.config.eps / (2.0 * self.config.w as f64);
        let domain = self.table.num_moves().max(2);
        let n = states.len() as u64;
        let values: Vec<usize> = states.iter().map(|&(_, s)| s).collect();
        let mut spent = 0.0;

        // Phase 1: dissimilarity estimation with eps1 = unit.
        let dis = if n == 0 {
            0.0
        } else if !self.has_release {
            f64::INFINITY // bootstrap: force the first publication
        } else {
            let oracle = Oue::new(unit, domain).expect("positive unit");
            let est = oracle
                .collect(&values, self.config.report_mode, &mut self.rng)
                .expect("valid states");
            spent += unit;
            self.dissimilarity(&est.freqs, est.variance)
        };

        // Phase 2: candidate publication budget eps2.
        self.budget_pubs.retain(|&(pt, _)| pt + w > t);
        let eps2 = match self.kind {
            BaselineKind::Lbd => {
                let used: f64 = self.budget_pubs.iter().map(|&(_, e)| e).sum();
                ((self.config.eps / 2.0 - used) / 2.0).max(0.0)
            }
            BaselineKind::Lba => {
                if self.is_nullified(t) {
                    0.0
                } else {
                    unit * (self.absorbable_slots(t) + 1) as f64
                }
            }
            _ => unreachable!(),
        };

        let err = if n == 0 || eps2 <= 1e-12 { f64::INFINITY } else { oue::variance(eps2, n) };
        if dis > err {
            let oracle = Oue::new(eps2, domain).expect("positive eps2");
            let est = oracle
                .collect(&values, self.config.report_mode, &mut self.rng)
                .expect("valid states");
            spent += eps2;
            self.publish(est.freqs);
            self.budget_pubs.push_back((t, eps2));
            if self.kind == BaselineKind::Lba {
                let absorbed = self.absorbable_slots(t);
                if absorbed > 0 {
                    self.nullified_until = Some(t + absorbed as u64);
                }
            }
            self.last_pub_t = Some(t);
        }
        self.ledger.record_budget(t, spent);
    }

    /// Number of unspent publication slots absorbable at `t` (LBA/LPA):
    /// slots strictly inside the window, after the last publication and
    /// after any nullified stretch.
    fn absorbable_slots(&self, t: u64) -> usize {
        let w = self.config.w as u64;
        let mut start = (t + 1).saturating_sub(w);
        if let Some(p) = self.last_pub_t {
            start = start.max(p + 1);
        }
        if let Some(nu) = self.nullified_until {
            start = start.max(nu + 1);
        }
        t.saturating_sub(start) as usize
    }

    /// LPD / LPA: two-phase population division.
    fn step_population(&mut self, t: u64, states: &[(u64, usize)]) {
        let domain = self.table.num_moves().max(2);
        // Intern each reporter once; the slot carries the registry
        // bookkeeping from here on, the id the ledger and the sort.
        let mut eligible: Vec<(u64, u32, usize)> = Vec::with_capacity(states.len());
        for &(u, s) in states {
            let slot = self.registry.intern(u);
            self.registry.register(slot);
            eligible.push((u, slot, s));
        }
        self.registry.recycle(t);
        // The fixed-set assumption: group sizing uses the population seen
        // at the first timestamp with reporters.
        if self.n0.is_none() && !states.is_empty() {
            self.n0 = Some(self.registry.active_count().max(1));
        }
        let Some(n0) = self.n0 else {
            return;
        };
        let unit = (n0 / (2 * self.config.w)).max(1);

        eligible.retain(|&(_, slot, _)| self.registry.status(slot) == Some(UserStatus::Active));
        eligible.sort_unstable_by_key(|&(u, ..)| u);
        eligible.shuffle(&mut self.rng);

        // Phase 1: dissimilarity group.
        let m1 = unit.min(eligible.len());
        let group1: Vec<(u64, u32, usize)> = eligible.drain(..m1).collect();
        let dis = if group1.is_empty() {
            0.0
        } else if !self.has_release {
            f64::INFINITY
        } else {
            let values: Vec<usize> = group1.iter().map(|&(.., s)| s).collect();
            let oracle = Oue::new(self.config.eps, domain).expect("positive eps");
            let est = oracle
                .collect(&values, self.config.report_mode, &mut self.rng)
                .expect("valid states");
            self.dissimilarity(&est.freqs, est.variance)
        };
        for &(u, slot, _) in &group1 {
            self.registry.mark_reported(slot, t);
            self.ledger.record_user_report(u, t);
        }

        // Phase 2: candidate publication group size.
        let w = self.config.w as u64;
        self.group_pubs.retain(|&(pt, _)| pt + w > t);
        let m2 = match self.kind {
            BaselineKind::Lpd => {
                let used: usize = self.group_pubs.iter().map(|&(_, m)| m).sum();
                (n0 / 2).saturating_sub(used) / 2
            }
            BaselineKind::Lpa => {
                if self.is_nullified(t) {
                    0
                } else {
                    unit * (self.absorbable_slots(t) + 1)
                }
            }
            _ => unreachable!(),
        };

        let err = if m2 == 0 { f64::INFINITY } else { oue::variance(self.config.eps, m2 as u64) };
        if dis > err {
            let m2_actual = m2.min(eligible.len());
            if m2_actual > 0 {
                let group2: Vec<(u64, u32, usize)> = eligible.drain(..m2_actual).collect();
                let values: Vec<usize> = group2.iter().map(|&(.., s)| s).collect();
                let oracle = Oue::new(self.config.eps, domain).expect("positive eps");
                let est = oracle
                    .collect(&values, self.config.report_mode, &mut self.rng)
                    .expect("valid states");
                for &(u, slot, _) in &group2 {
                    self.registry.mark_reported(slot, t);
                    self.ledger.record_user_report(u, t);
                }
                self.publish(est.freqs);
                self.group_pubs.push_back((t, m2));
                if self.kind == BaselineKind::Lpa {
                    let absorbed = self.absorbable_slots(t);
                    if absorbed > 0 {
                        self.nullified_until = Some(t + absorbed as u64);
                    }
                }
                self.last_pub_t = Some(t);
            }
        }
    }
}

impl StreamingEngine for LdpIds {
    fn topology(&self) -> &Arc<Topology> {
        self.table.topology()
    }

    fn next_timestamp(&self) -> u64 {
        self.next_t
    }

    /// Validation is a pure pre-pass (no RNG consumed, no state mutated),
    /// so an `Err` leaves the baseline untouched and steppable.
    fn try_step(&mut self, t: u64, events: &[UserEvent]) -> Result<StepOutcome, SessionError> {
        if self.session_released {
            return Err(SessionError::Released);
        }
        if t != self.next_t {
            return Err(SessionError::timestamp(self.next_t, t));
        }
        resolve_events(&self.table, t, events, &mut self.scratch_resolved)?;
        self.next_t += 1;

        // Movement states only; enter/quit holders have nothing to report.
        let mut states = std::mem::take(&mut self.scratch_states);
        states.clear();
        let mut target_active = 0usize;
        for (e, &idx) in events.iter().zip(&self.scratch_resolved) {
            if !matches!(e.state, TransitionState::Quit(_)) {
                target_active += 1;
            }
            if let TransitionState::Move { .. } = e.state {
                states.push((e.user, idx));
            }
        }

        if self.kind.is_population() {
            self.step_population(t, &states);
        } else {
            self.step_budget(t, &states);
        }
        self.scratch_states = states;

        let size = *self.fixed_size.get_or_insert(target_active.max(1));
        self.synthetic.step_no_eq(t, &self.model, &self.table, size, &mut self.rng);
        Ok(StepOutcome {
            t,
            active: self.synthetic.active_count(),
            finished: self.synthetic.finished_count(),
        })
    }

    /// # Panics
    ///
    /// If the session was already released — the streams moved out with
    /// the release, so an "empty" view here would misread as a population
    /// collapse.
    fn snapshot(&self) -> SnapshotView<'_> {
        assert!(
            !self.session_released,
            "baseline already released its session; query the released dataset \
             (or reset() and start a new stream) instead of snapshot()"
        );
        self.synthetic.snapshot(self.next_t)
    }

    fn try_release(&mut self) -> Result<GriddedDataset, SessionError> {
        if self.session_released {
            return Err(SessionError::Released);
        }
        self.session_released = true;
        Ok(self.synthetic.release(self.table.topology(), self.next_t))
    }

    fn ledger(&self) -> &WEventLedger {
        &self.ledger
    }

    /// Start a new session: restore the freshly-constructed state in
    /// place, re-seeded with the construction seed. Allocated buffers are
    /// retained, so back-to-back sessions re-allocate almost nothing.
    fn reset(&mut self) {
        self.released.iter_mut().for_each(|f| *f = 0.0);
        self.has_release = false;
        self.model.reset();
        self.synthetic.reset();
        self.ledger.reset();
        self.registry.reset();
        self.rng = StdRng::seed_from_u64(self.seed);
        self.next_t = 0;
        self.session_released = false;
        self.fixed_size = None;
        self.n0 = None;
        self.budget_pubs.clear();
        self.group_pubs.clear();
        self.last_pub_t = None;
        self.nullified_until = None;
    }

    /// Stable fingerprint of everything that shapes this baseline's
    /// output: mechanism kind, seed, configuration and discretization. WAL
    /// files carry it so recovery refuses to replay a log into a
    /// differently-configured engine.
    fn fingerprint(&self) -> u64 {
        let mut f = crate::wal::Fingerprint::new("ldp-ids");
        f.bytes(self.kind.name().as_bytes())
            .u64(self.seed)
            .f64(self.config.eps)
            .usize(self.config.w)
            .u64(match self.config.report_mode {
                ReportMode::PerUser => 0,
                ReportMode::Aggregate => 1,
            })
            .space(self.table.topology().descriptor());
        f.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retrasyn_datagen::RandomWalkConfig;
    use retrasyn_geo::{StreamDataset, UniformGrid};

    fn dataset(seed: u64) -> StreamDataset {
        RandomWalkConfig { users: 300, timestamps: 25, churn: 0.05, ..Default::default() }
            .generate(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn kind_metadata() {
        assert_eq!(BaselineKind::ALL.len(), 4);
        assert_eq!(BaselineKind::Lbd.name(), "LBD");
        assert!(!BaselineKind::Lbd.is_population());
        assert!(!BaselineKind::Lba.is_population());
        assert!(BaselineKind::Lpd.is_population());
        assert!(BaselineKind::Lpa.is_population());
    }

    #[test]
    fn all_baselines_run_and_satisfy_ledger() {
        let ds = dataset(1);
        for kind in BaselineKind::ALL {
            let config = LdpIdsConfig::new(1.0, 5);
            let mut engine = LdpIds::new(kind, config, UniformGrid::unit(5), 3);
            let syn = engine.run(&ds);
            assert_eq!(syn.horizon(), 25, "{}", kind.name());
            assert!(!syn.is_empty(), "{}", kind.name());
            engine.ledger().verify().unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        }
    }

    #[test]
    fn baseline_streams_never_terminate() {
        let ds = dataset(2);
        let config = LdpIdsConfig::new(1.0, 5);
        let mut engine = LdpIds::new(BaselineKind::Lbd, config, UniformGrid::unit(5), 3);
        let syn = engine.run(&ds);
        // Fixed-size DB: every stream spans the whole horizon.
        for s in syn.iter() {
            assert_eq!(s.start, 0);
            assert_eq!(s.len(), 25);
        }
    }

    #[test]
    fn budget_variants_publish_at_least_once() {
        let ds = dataset(3);
        for kind in [BaselineKind::Lbd, BaselineKind::Lba] {
            let config = LdpIdsConfig::new(2.0, 5);
            let mut engine = LdpIds::new(kind, config, UniformGrid::unit(4), 3);
            let _ = engine.run(&ds);
            assert!(engine.has_release, "{} never published", kind.name());
        }
    }

    #[test]
    fn population_variants_report_users() {
        let ds = dataset(4);
        for kind in [BaselineKind::Lpd, BaselineKind::Lpa] {
            let config = LdpIdsConfig::new(1.0, 5);
            let mut engine = LdpIds::new(kind, config, UniformGrid::unit(4), 3);
            let _ = engine.run(&ds);
            assert!(engine.ledger().total_user_reports() > 0, "{}", kind.name());
            engine.ledger().verify().expect("population ledger");
        }
    }

    #[test]
    fn lba_nullifies_after_absorption() {
        // Construct a stable stream so LBA publishes early, then rarely.
        let ds = dataset(5);
        let config = LdpIdsConfig::new(1.0, 6);
        let mut engine = LdpIds::new(BaselineKind::Lba, config, UniformGrid::unit(4), 7);
        let _ = engine.run(&ds);
        engine.ledger().verify().expect("LBA ledger");
    }

    #[test]
    fn deterministic_under_seed() {
        let ds = dataset(6);
        let run = |seed| {
            let config = LdpIdsConfig::new(1.0, 5);
            let mut engine = LdpIds::new(BaselineKind::Lpd, config, UniformGrid::unit(5), seed);
            engine.run(&ds)
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.num_streams(), b.num_streams());
        assert_eq!(a.stream(3), b.stream(3));
    }

    #[test]
    #[should_panic(expected = "consecutive")]
    fn out_of_order_step_panics() {
        let config = LdpIdsConfig::new(1.0, 5);
        let mut engine = LdpIds::new(BaselineKind::Lbd, config, UniformGrid::unit(4), 0);
        engine.step(3, &[]);
    }

    #[test]
    fn absorbable_slots_bounds() {
        let config = LdpIdsConfig::new(1.0, 5);
        let mut engine = LdpIds::new(BaselineKind::Lba, config, UniformGrid::unit(4), 0);
        // No history: everything inside the window is absorbable.
        assert_eq!(engine.absorbable_slots(0), 0);
        assert_eq!(engine.absorbable_slots(3), 3);
        assert_eq!(engine.absorbable_slots(10), 4); // capped by w − 1
        engine.last_pub_t = Some(8);
        assert_eq!(engine.absorbable_slots(10), 1);
        engine.nullified_until = Some(9);
        assert_eq!(engine.absorbable_slots(10), 0);
    }
}
