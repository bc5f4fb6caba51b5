//! The RetraSyn streaming engine (§III-F, Algorithm 1).
//!
//! One [`StreamingEngine::step`] per timestamp performs:
//!
//! 1. user bookkeeping — register arrivals, recycle users that reported
//!    `w` steps ago, retire quitters (population division);
//! 2. allocation — portion `p_t` of the remaining window budget (budget
//!    division) or of the active user set (population division);
//! 3. private collection — the sampled reporters perturb their transition
//!    state with OUE;
//! 4. DMU — select significant transitions and refresh only those in the
//!    global mobility model;
//! 5. real-time synthesis — extend the synthetic database and adjust its
//!    size to the live population.
//!
//! The engine enforces w-event ε-LDP at runtime through a
//! [`WEventLedger`] and accumulates per-component wall-clock timings
//! (Table V).
//!
//! The engine is driven as a **streaming session** through the
//! [`StreamingEngine`] trait (see [`crate::session`]):
//! [`step`](StreamingEngine::step) per timestamp,
//! [`snapshot`](StreamingEngine::snapshot) for the borrowed per-timestamp
//! view in between, [`release`](StreamingEngine::release) to close the
//! session (mid-stream or at the horizon), [`reset`](StreamingEngine::reset)
//! to start the next one. Batch mode (`run(&dataset)`) is just a session
//! driven by a [`crate::TimelineSource`].

use crate::allocation::{AllocationKind, Allocator};
use crate::compact::{CompactionStats, FrozenEpochs};
use crate::config::{Division, RetraSynConfig};
use crate::dmu;
use crate::ids::UNRESOLVED;
use crate::model::GlobalMobilityModel;
use crate::population::{UserRegistry, UserStatus};
use crate::session::{resolve_events, SessionError, StepOutcome, StreamingEngine};
use crate::store::SnapshotView;
use crate::synthesis::SyntheticDb;
use crate::wal::{Dec, Enc, Fingerprint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retrasyn_geo::{GriddedDataset, Space, Topology, TransitionState, TransitionTable, UserEvent};
use retrasyn_ldp::{Estimate, Oue, Philox, ReportMode, WEventLedger};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Accumulated component times in seconds (Table V rows).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimings {
    /// User-side computation (perturbation / report simulation): the
    /// wall-clock of the whole collection round, from the reporter values
    /// to the raw ones counts.
    pub user_side: f64,
    /// Mobility model construction (aggregation, debias, update).
    pub model_construction: f64,
    /// Dynamic mobility update (significant-transition selection).
    pub dmu: f64,
    /// Real-time synthesis (point generation + size adjustment).
    pub synthesis: f64,
}

/// Wall-clock source for [`StepTimings`] telemetry.
///
/// The single sanctioned clock read in this module: timings are
/// observability output (Table V rows), never inputs to collection or
/// synthesis, so the determinism argument is unaffected.
#[allow(clippy::disallowed_methods)]
fn telemetry_clock() -> Instant {
    Instant::now() // xtask:allow(DET002, timings are telemetry-only and never feed the output stream)
}

/// Average per-timestamp component times (Table V).
#[derive(Debug, Clone, Copy)]
pub struct TimingReport {
    /// Average user-side seconds per timestamp.
    pub user_side: f64,
    /// Average model-construction seconds per timestamp.
    pub model_construction: f64,
    /// Average DMU seconds per timestamp.
    pub dmu: f64,
    /// Average synthesis seconds per timestamp.
    pub synthesis: f64,
    /// Average total seconds per timestamp.
    pub total: f64,
    /// Number of steps executed.
    pub steps: u64,
}

impl std::fmt::Display for TimingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "user_side={:.6}s model={:.6}s dmu={:.6}s synthesis={:.6}s total={:.6}s (avg over {} steps)",
            self.user_side, self.model_construction, self.dmu, self.synthesis, self.total, self.steps
        )
    }
}

/// Placeholder registry slot of a budget-division state: that path keys no
/// per-user bookkeeping by slot (only quitters are interned, to retire them).
const NO_SLOT: u32 = u32::MAX;

/// The RetraSyn engine.
#[derive(Debug)]
pub struct RetraSyn {
    config: RetraSynConfig,
    division: Division,
    table: TransitionTable,
    model: GlobalMobilityModel,
    registry: UserRegistry,
    ledger: WEventLedger,
    synthetic: SyntheticDb,
    allocator: Allocator,
    rng: StdRng,
    /// Construction seed, kept so a reset replays identically.
    seed: u64,
    next_t: u64,
    /// Set by a release; a released engine refuses to step until reset.
    released: bool,
    /// Fixed synthetic size for the NoEQ ablation (captured at the first
    /// step).
    fixed_size: Option<usize>,
    /// Per-user report slots for the RandomReport strategy. Entries are
    /// pruned when their user quits, so the map tracks only users that can
    /// still report (bounded by the live population, not the all-time
    /// arrival count).
    report_slots: BTreeMap<u64, u64>,
    /// Cached collection oracle, rebuilt only when `(ε, domain)` changes —
    /// the collection path runs every timestamp and must not rebuild its
    /// mechanism per step.
    oracle: Option<Oue>,
    timings: StepTimings,
    steps: u64,
    /// Counters for the epoch compactions this session has run
    /// (informational; empty unless `config.compaction` is set).
    compaction_stats: CompactionStats,
    /// One-time warning latch for the graceful-degradation path (live
    /// population alone above the high-water mark).
    overflow_warned: bool,
    /// Reused reporter-value scratch for the collection path.
    scratch_values: Vec<usize>,
    /// Reused per-step event scratch: each event's domain index, written
    /// by the validating resolve pre-pass.
    scratch_resolved: Vec<usize>,
    /// Reused per-step event scratch: each event's registry slot where a
    /// batched lookup found it, else [`UNRESOLVED`].
    scratch_slots: Vec<u32>,
    /// Reused per-step event scratch: (registry slot, domain index)
    /// states; the slot is [`NO_SLOT`] under budget division.
    scratch_states: Vec<(u32, usize)>,
    /// Reused per-step event scratch: registry slots of the users
    /// delivering their Quit state.
    scratch_quitters: Vec<u32>,
    /// Reused per-step scratch: the eligible (then sampled) report group.
    scratch_eligible: Vec<(u32, usize)>,
    /// Reused domain-sized scratch: raw ones counts of the current round.
    scratch_ones: Vec<u64>,
    /// Reused estimate of the current round (`freqs` buffer recycled
    /// across steps — a collection round allocates nothing after
    /// warm-up).
    scratch_est: Estimate,
    /// Reused table-sized scratch: full-domain estimate vector.
    scratch_full: Vec<f64>,
    /// Reused table-sized scratch: full-domain selection mask.
    scratch_sel: Vec<bool>,
    /// Reused table-sized scratch: DMU selection over the collected domain.
    scratch_dmu: Vec<bool>,
}

impl RetraSyn {
    /// Create an engine over any discretization — a
    /// [`retrasyn_geo::UniformGrid`], a [`retrasyn_geo::QuadGrid`], or an
    /// already-compiled [`Topology`].
    pub fn new<S: Space>(config: RetraSynConfig, space: S, division: Division, seed: u64) -> Self {
        let table = TransitionTable::new(&space);
        let model = GlobalMobilityModel::new(table.len());
        let allocator =
            Allocator::new(config.allocation, config.w, config.alpha, config.kappa, config.p_max);
        let ledger = WEventLedger::new(config.eps, config.w);
        if division == Division::Budget {
            assert!(
                config.allocation != AllocationKind::RandomReport,
                "RandomReport is a population-division strategy"
            );
        }
        let domain = table.len();
        let w = config.w;
        RetraSyn {
            config,
            division,
            table,
            model,
            registry: UserRegistry::new(w),
            ledger,
            synthetic: SyntheticDb::new(),
            allocator,
            rng: StdRng::seed_from_u64(seed),
            seed,
            next_t: 0,
            released: false,
            fixed_size: None,
            report_slots: BTreeMap::new(),
            oracle: None,
            timings: StepTimings::default(),
            steps: 0,
            compaction_stats: CompactionStats::default(),
            overflow_warned: false,
            scratch_values: Vec::new(),
            scratch_resolved: Vec::new(),
            scratch_slots: Vec::new(),
            scratch_states: Vec::new(),
            scratch_quitters: Vec::new(),
            scratch_eligible: Vec::new(),
            scratch_ones: Vec::new(),
            scratch_est: Estimate::default(),
            scratch_full: vec![0.0; domain],
            scratch_sel: vec![false; domain],
            scratch_dmu: Vec::new(),
        }
    }

    /// RetraSyn_b: budget-division engine.
    pub fn budget_division<S: Space>(config: RetraSynConfig, space: S, seed: u64) -> Self {
        Self::new(config, space, Division::Budget, seed)
    }

    /// RetraSyn_p: population-division engine.
    pub fn population_division<S: Space>(config: RetraSynConfig, space: S, seed: u64) -> Self {
        Self::new(config, space, Division::Population, seed)
    }

    /// The current global mobility model.
    pub fn model(&self) -> &GlobalMobilityModel {
        &self.model
    }

    /// The configuration.
    pub fn config(&self) -> &RetraSynConfig {
        &self.config
    }

    /// The division strategy.
    pub fn division(&self) -> Division {
        self.division
    }

    /// Collection domain: the full transition domain, or the movement
    /// prefix when enter/quit modelling is disabled (NoEQ).
    fn domain_len(&self) -> usize {
        if self.config.enter_quit {
            self.table.len()
        } else {
            self.table.num_moves()
        }
    }

    /// Average per-timestamp component timings (Table V).
    pub fn timing_report(&self) -> TimingReport {
        let n = self.steps.max(1) as f64;
        let t = &self.timings;
        TimingReport {
            user_side: t.user_side / n,
            model_construction: t.model_construction / n,
            dmu: t.dmu / n,
            synthesis: t.synthesis / n,
            total: (t.user_side + t.model_construction + t.dmu + t.synthesis) / n,
            steps: self.steps,
        }
    }

    /// Epoch-compact the synthetic store when the resident arena exceeds
    /// the configured high-water mark. Purely an operational memory bound:
    /// it never changes what [`StreamingEngine::snapshot`] or
    /// [`StreamingEngine::release`] observe. If the *live* population alone
    /// exceeds the mark the engine degrades gracefully — it logs once,
    /// counts the overflow and keeps running rather than aborting the
    /// stream. It does not stop compacting: every step that ends above
    /// the mark runs a full compaction again, rebuilding every live chain.
    fn maybe_compact(&mut self, t: u64) {
        let Some(policy) = self.config.compaction else { return };
        let mark = policy.high_water_cells;
        if self.synthetic.resident_cells() <= mark {
            return;
        }
        let (streams, cells) = self.synthetic.compact(t);
        self.compaction_stats.runs += 1;
        self.compaction_stats.frozen_streams += streams as u64;
        self.compaction_stats.frozen_cells += cells as u64;
        let resident = self.synthetic.resident_cells();
        if resident > mark {
            self.compaction_stats.overflows += 1;
            if !self.overflow_warned {
                self.overflow_warned = true;
                eprintln!(
                    "retrasyn: live synthetic population ({resident} cells) exceeds the \
                     compaction high-water mark ({mark}); continuing, and compacting again \
                     on every step that ends above the mark"
                );
            }
        }
    }

    /// Counters for the epoch compactions run so far (all zero unless the
    /// configuration enables compaction via
    /// [`RetraSynConfig::with_compaction`]).
    pub fn compaction_stats(&self) -> CompactionStats {
        self.compaction_stats
    }

    /// Resident synthetic arena cells (live tails + frozen chunks); the
    /// quantity bounded by the compaction high-water mark.
    pub fn resident_cells(&self) -> usize {
        self.synthetic.resident_cells()
    }

    /// Serialize the full mid-stream session state. With `inline_frozen`
    /// the frozen epochs follow as blocks and the bytes stand alone;
    /// without, the blocks are left out for the caller to persist apart
    /// ([`StreamingEngine::checkpoint_by_ref`]). The buffer is sized once,
    /// exactly. Returns `None` once the session has released (there is
    /// nothing left to checkpoint — a recovery would have no streams to
    /// resume).
    fn encode_checkpoint(&self, inline_frozen: bool) -> Option<Vec<u8>> {
        if self.released {
            return None;
        }
        let freqs = self.model.freqs();
        let (spends, reports) = (self.ledger.budget_spends(), self.ledger.user_reports());
        let frozen = self.synthetic.frozen();
        let len = 8
            + 8
            + 1
            + 8
            + 32
            + 8
            + 16 * self.report_slots.len()
            + 8
            + 8 * freqs.len()
            + self.registry.encoded_len()
            + self.allocator.encoded_len()
            + 8
            + 8 * spends.len()
            + 8
            + 16 * reports.len()
            + self.synthetic.encoded_len()
            + if inline_frozen { frozen.blocks_len() } else { 0 };
        let mut enc = Enc { buf: Vec::with_capacity(len) };
        enc.u64(self.next_t);
        enc.u64(self.steps);
        match self.fixed_size {
            Some(n) => {
                enc.u8(1);
                enc.u64(n as u64);
            }
            None => {
                enc.u8(0);
                enc.u64(0);
            }
        }
        for word in self.rng.state() {
            enc.u64(word);
        }
        // A BTreeMap iterates in user order.
        enc.usize(self.report_slots.len());
        for (&user, &slot) in &self.report_slots {
            enc.u64(user);
            enc.u64(slot);
        }
        enc.usize(freqs.len());
        for &f in freqs {
            enc.f64(f);
        }
        self.registry.encode_into(&mut enc);
        self.allocator.encode_into(&mut enc);
        enc.usize(spends.len());
        for &e in spends {
            enc.f64(e);
        }
        enc.usize(reports.len());
        for &(user, t) in reports {
            enc.u64(user);
            enc.u64(t);
        }
        self.synthetic.encode_into(&mut enc);
        if inline_frozen {
            for i in 0..frozen.epochs.len() {
                frozen.encode_block(i, &mut enc.buf);
            }
        }
        debug_assert_eq!(enc.buf.len(), len, "checkpoint length is computed exactly");
        Some(enc.buf)
    }

    /// Restore a session from [`Self::encode_checkpoint`] output: `blocks`
    /// holds the frozen epoch blocks a by-reference checkpoint left out,
    /// `None` reads them inline after the state. Every structural
    /// invariant is validated and no reservation exceeds the bytes
    /// present; on `Err` the engine may hold partially-restored state and
    /// the caller must [`StreamingEngine::reset`] before reuse (recovery
    /// does).
    fn decode_checkpoint(&mut self, payload: &[u8], blocks: Option<&[u8]>) -> Result<(), String> {
        let mut dec = Dec::new(payload);
        let next_t = dec.u64()?;
        let steps = dec.u64()?;
        let has_fixed = match dec.u8()? {
            0 => false,
            1 => true,
            tag => return Err(format!("bad fixed-size tag {tag}")),
        };
        let fixed = dec.u64()?;
        let rng_state = [dec.u64()?, dec.u64()?, dec.u64()?, dec.u64()?];
        let slot_count = dec.usize()?;
        let mut slots = Vec::with_capacity(slot_count.min(dec.remaining() / 16));
        for _ in 0..slot_count {
            let user = dec.u64()?;
            let slot = dec.u64()?;
            slots.push((user, slot));
        }
        let freq_len = dec.usize()?;
        if freq_len != self.table.len() {
            return Err(format!(
                "checkpoint model domain {freq_len} != engine transition domain {}",
                self.table.len()
            ));
        }
        self.scratch_full.clear();
        self.scratch_full.resize(freq_len, 0.0);
        for f in self.scratch_full.iter_mut() {
            *f = dec.f64()?;
        }
        self.registry.decode_from(&mut dec)?;
        self.allocator.decode_from(&mut dec)?;
        let eps_count = dec.usize()?;
        let mut per_ts_eps = Vec::with_capacity(eps_count.min(dec.remaining() / 8));
        for _ in 0..eps_count {
            per_ts_eps.push(dec.f64()?);
        }
        let report_count = dec.usize()?;
        let mut reports = Vec::with_capacity(report_count.min(dec.remaining() / 16));
        for _ in 0..report_count {
            let user = dec.u64()?;
            let t = dec.u64()?;
            reports.push((user, t));
        }
        self.synthetic.decode_from(&mut dec)?;
        let blocks = match blocks {
            Some(blocks) => {
                dec.finish()?;
                blocks
            }
            None => dec.rest(),
        };
        self.synthetic.decode_frozen(blocks)?;

        self.next_t = next_t;
        self.steps = steps;
        self.released = false;
        self.fixed_size = if has_fixed { Some(fixed as usize) } else { None };
        self.rng = StdRng::from_state(rng_state);
        self.report_slots.clear();
        self.report_slots.extend(slots);
        self.model.replace_all(&self.scratch_full);
        self.model.rebuild_samplers(&self.table);
        self.ledger.import_state(&per_ts_eps, &reports);
        // The freq scratch doubled as the decode buffer; restore its
        // zero-tail invariant for the NoEQ refresh path.
        self.scratch_full.iter_mut().for_each(|f| *f = 0.0);
        self.scratch_sel.iter_mut().for_each(|s| *s = false);
        Ok(())
    }

    /// Population-division collection (Algorithm 1 lines 7–14). Fills
    /// [`Self::scratch_est`] with the round's estimate.
    fn collect_population(&mut self, t: u64, states: &[(u32, usize)]) -> Result<(), SessionError> {
        // Line 7: register arrivals (quitters still deliver their farewell
        // state if sampled, so they are registered too).
        for &(slot, _) in states {
            if self.registry.status(slot).is_none() {
                self.registry.register(slot);
                if self.allocator.kind() == AllocationKind::RandomReport {
                    let report_t = t + self.rng.random_range(0..self.config.w as u64);
                    self.report_slots.insert(self.registry.user(slot), report_t);
                }
            }
        }
        // Line 9: recycle users that reported at t − w.
        self.registry.recycle(t);

        // Lines 10–12: determine the report group in the reused scratch.
        // The eligible order is deterministic (event order of the
        // timeline), so sampling from it directly preserves the fixed-seed
        // determinism contract.
        let active_count = self.registry.active_count();
        let mut eligible = std::mem::take(&mut self.scratch_eligible);
        eligible.clear();
        eligible.extend(
            states.iter().filter(|&&(s, _)| self.registry.status(s) == Some(UserStatus::Active)),
        );
        if self.allocator.kind() == AllocationKind::RandomReport {
            let w = self.config.w as u64;
            eligible.retain(|&(s, _)| {
                let report_t = self.report_slots[&self.registry.user(s)];
                t >= report_t && (t - report_t).is_multiple_of(w)
            });
        } else {
            let p = self.allocator.portion(t);
            let n_t = ((p * active_count as f64).round() as usize).min(eligible.len());
            // Partial Fisher–Yates: place a uniform n_t-subset (in uniform
            // order) in the first n_t positions — O(n_t) draws instead of
            // shuffling the entire eligible set to keep a prefix.
            for i in 0..n_t {
                let j = self.rng.random_range(i..eligible.len());
                eligible.swap(i, j);
            }
            eligible.truncate(n_t);
        }

        // Lines 13–14: report with the full budget; mark inactive.
        let timer = telemetry_clock();
        self.scratch_values.clear();
        self.scratch_values.extend(eligible.iter().map(|&(_, s)| s));
        let collected = self.run_collection(self.config.eps);
        self.timings.user_side += timer.elapsed().as_secs_f64();
        for &(slot, _) in &eligible {
            self.registry.mark_reported(slot, t);
            self.ledger.record_user_report(self.registry.user(slot), t);
        }
        self.scratch_eligible = eligible;
        collected
    }

    /// Budget-division collection: everyone reports with ε_t. Fills
    /// [`Self::scratch_est`] with the round's estimate.
    fn collect_budget(&mut self, t: u64, states: &[(u32, usize)]) -> Result<(), SessionError> {
        let eps_t = match self.allocator.kind() {
            AllocationKind::Uniform => self.config.eps / self.config.w as f64,
            AllocationKind::Sample => {
                if t.is_multiple_of(self.config.w as u64) {
                    self.ledger.remaining_budget(t)
                } else {
                    0.0
                }
            }
            AllocationKind::Adaptive => {
                let p = self.allocator.portion(t);
                p * self.ledger.remaining_budget(t)
            }
            AllocationKind::RandomReport => unreachable!("checked in constructor"),
        };
        let eps_t = eps_t.min(self.ledger.remaining_budget(t));
        if eps_t <= 1e-9 || states.is_empty() {
            self.scratch_est.reset_empty(self.domain_len());
            return Ok(());
        }
        self.ledger.record_budget(t, eps_t);
        let timer = telemetry_clock();
        self.scratch_values.clear();
        self.scratch_values.extend(states.iter().map(|&(_, s)| s));
        let collected = self.run_collection(eps_t);
        self.timings.user_side += timer.elapsed().as_secs_f64();
        collected
    }

    /// Shared collection tail: run one OUE round over
    /// [`Self::scratch_values`] with per-report budget `eps`, filling
    /// [`Self::scratch_est`]. A [`ReportMode::PerUser`] round draws exactly
    /// **one** key from the session RNG and runs the counter-based kernel
    /// ([`Oue::collect_ones_blocked`]); a [`ReportMode::Aggregate`] round
    /// runs the O(domain) binomial shortcut ([`Oue::collect_ones_into`]).
    /// Every buffer involved is engine scratch — zero heap allocations
    /// after warm-up.
    ///
    /// The collected states are in domain by construction (the `try_step`
    /// pre-pass validated every event), so a mechanism error here is a
    /// genuine mid-step fault — surfaced as a typed [`SessionError`]
    /// rather than the historical `.expect("states are in domain")`
    /// aborts.
    fn run_collection(&mut self, eps: f64) -> Result<(), SessionError> {
        let n = self.scratch_values.len() as u64;
        if n == 0 {
            self.scratch_est.reset_empty(self.domain_len());
            return Ok(());
        }
        self.ensure_oracle(eps, self.domain_len().max(2));
        let oracle = self.oracle.as_ref().expect("ensured above");
        let (values, ones) = (&self.scratch_values, &mut self.scratch_ones);
        match self.config.report_mode {
            ReportMode::PerUser => {
                let ph = Philox::new(self.rng.random());
                oracle.collect_ones_blocked(values, &ph, ones)
            }
            ReportMode::Aggregate => oracle.collect_ones_into(values, ones, &mut self.rng),
        }
        .map_err(|e| SessionError::Collection { detail: e.to_string() })?;
        oracle.debias_into(&self.scratch_ones, n, &mut self.scratch_est.freqs);
        self.scratch_est.n = n;
        self.scratch_est.variance = oracle.variance(n);
        Ok(())
    }

    /// Make the cached collection oracle current for `(eps, domain)`. The
    /// population path hits the cache every step (fixed ε); budget paths
    /// rebuild only when the allocated ε changes.
    fn ensure_oracle(&mut self, eps: f64, domain: usize) {
        let fresh = matches!(&self.oracle, Some(o) if o.eps() == eps && o.domain() == domain);
        if !fresh {
            self.oracle = Some(Oue::new(eps, domain).expect("validated positive eps"));
        }
    }

    /// DMU + model refresh (§III-C) and allocator feedback.
    ///
    /// All table-sized working vectors are reusable scratch buffers on the
    /// engine — this path runs every timestamp and must not allocate. The
    /// scratch tails beyond the collected domain stay at their zero/false
    /// initialization (NoEQ never collects the enter/quit suffix).
    fn update_model(&mut self, t: u64, estimate: &Estimate) {
        let domain = self.domain_len();
        let mut sig_ratio = 0.0;
        if estimate.n > 0 {
            if t == 0 || !self.config.dmu {
                // Initialization (Alg. 1 line 5) and the AllUpdate ablation
                // replace the whole (collected) domain.
                let timer = telemetry_clock();
                self.scratch_full[..domain].copy_from_slice(&estimate.freqs);
                // Preserve uncollected tail (NoEQ never touches it: zeros).
                self.model.replace_all(&self.scratch_full);
                self.timings.model_construction += timer.elapsed().as_secs_f64();
                sig_ratio = 1.0;
            } else {
                let timer = telemetry_clock();
                dmu::select_significant_into(
                    &self.model.freqs()[..domain],
                    &estimate.freqs,
                    estimate.variance,
                    &mut self.scratch_dmu,
                );
                let count = dmu::count_selected(&self.scratch_dmu);
                self.timings.dmu += timer.elapsed().as_secs_f64();

                let timer = telemetry_clock();
                self.scratch_sel[..domain].copy_from_slice(&self.scratch_dmu);
                self.scratch_full[..domain].copy_from_slice(&estimate.freqs);
                self.model.update_selected(&self.scratch_sel, &self.scratch_full);
                self.timings.model_construction += timer.elapsed().as_secs_f64();
                sig_ratio = count as f64 / domain as f64;
            }
        }
        // Keep the O(1) alias samplers in sync with the refreshed model;
        // only the rows DMU touched are rebuilt.
        let timer = telemetry_clock();
        self.model.rebuild_samplers(&self.table);
        self.timings.model_construction += timer.elapsed().as_secs_f64();
        self.allocator.observe(&self.model.freqs()[..domain], sig_ratio);
    }
}

impl StreamingEngine for RetraSyn {
    fn topology(&self) -> &Arc<Topology> {
        self.table.topology()
    }

    fn next_timestamp(&self) -> u64 {
        self.next_t
    }

    /// The batch is validated in a pure pre-pass (no RNG consumed, no
    /// state mutated) before ingestion: a released session, a
    /// non-consecutive timestamp, an out-of-domain cell or a non-adjacent
    /// `Move` all return a *pre-state* error that leaves the engine
    /// untouched and steppable — in release builds as well as debug. For
    /// well-formed input the step is bit-identical to what it always was.
    ///
    /// A *mid-step* error (a collection failure) leaves the session
    /// in an unspecified state: recover it from its WAL (e.g. via a
    /// [`Supervisor`](crate::supervise::Supervisor)) or reset it.
    fn try_step(&mut self, t: u64, events: &[UserEvent]) -> Result<StepOutcome, SessionError> {
        if self.released {
            return Err(SessionError::Released);
        }
        if t != self.next_t {
            return Err(SessionError::timestamp(self.next_t, t));
        }
        resolve_events(&self.table, t, events, &mut self.scratch_resolved)?;
        self.next_t += 1;
        self.steps += 1;

        // States in domain space; NoEQ drops enter/quit events. Each
        // event's user is interned into its registry slot at most once
        // here: population division carries the slot through eligibility,
        // sampling and reporting; budget division needs one only to retire
        // quitters. The whole batch is looked up first, its loads
        // overlapped; only the ids that lookup left unresolved are interned
        // one by one, in event order. The event scratch buffers are engine
        // fields, reused across steps.
        let domain = self.domain_len();
        let population = self.division == Division::Population;
        let mut states = std::mem::take(&mut self.scratch_states);
        states.clear();
        self.scratch_quitters.clear();
        self.registry.slots_of(events.iter().map(|e| e.user), &mut self.scratch_slots);
        let mut target_active = 0usize;
        for ((e, &idx), &found) in
            events.iter().zip(&self.scratch_resolved).zip(&self.scratch_slots)
        {
            let quit = matches!(e.state, TransitionState::Quit(_));
            let collected =
                self.config.enter_quit || matches!(e.state, TransitionState::Move { .. });
            let slot = if !(quit || (population && collected)) {
                NO_SLOT
            } else if found != UNRESOLVED {
                found
            } else {
                self.registry.intern(e.user)
            };
            if quit {
                self.scratch_quitters.push(slot);
            } else {
                target_active += 1;
            }
            if collected {
                debug_assert!(idx < domain);
                states.push((slot, idx));
            }
        }

        let collected = match self.division {
            Division::Population => self.collect_population(t, &states),
            Division::Budget => self.collect_budget(t, &states),
        };
        self.scratch_states = states;
        collected?;
        for &slot in &self.scratch_quitters {
            self.registry.mark_quitted(slot);
            // A quitted user never reports again: drop its RandomReport
            // slot so the map stays bounded on churning streams.
            self.report_slots.remove(&self.registry.user(slot));
        }

        let estimate = std::mem::take(&mut self.scratch_est);
        self.update_model(t, &estimate);
        self.scratch_est = estimate;

        // Real-time synthesis (§III-D).
        let timer = telemetry_clock();
        if self.config.enter_quit {
            self.synthetic.step(
                t,
                &self.model,
                &self.table,
                target_active,
                self.config.lambda,
                &mut self.rng,
            );
        } else {
            let size = *self.fixed_size.get_or_insert(target_active);
            self.synthetic.step_no_eq(t, &self.model, &self.table, size, &mut self.rng);
        }
        self.timings.synthesis += timer.elapsed().as_secs_f64();
        self.maybe_compact(t);
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
            !self.released,
            "engine already released its session; query the released dataset \
             (or reset() and start a new stream) instead of snapshot()"
        );
        self.synthetic.snapshot(self.next_t)
    }

    /// Accessors (ledger, model, timings) keep reporting the closed
    /// session after a release.
    fn try_release(&mut self) -> Result<GriddedDataset, SessionError> {
        if self.released {
            return Err(SessionError::Released);
        }
        self.released = true;
        Ok(self.synthetic.release(self.table.topology(), self.next_t))
    }

    fn ledger(&self) -> &WEventLedger {
        &self.ledger
    }

    /// Start a new session: restore the freshly-constructed state in
    /// place, re-seeded with the construction seed — replaying the same
    /// events yields a bit-identical release. The cached collection
    /// oracle and all scratch buffers survive the reset (they are pure
    /// functions of the configuration, which is untouched), so
    /// back-to-back sessions re-allocate nothing.
    fn reset(&mut self) {
        self.model.reset();
        self.registry.reset();
        self.ledger.reset();
        self.synthetic.reset();
        self.allocator.reset();
        self.rng = StdRng::seed_from_u64(self.seed);
        self.next_t = 0;
        self.released = false;
        self.fixed_size = None;
        self.report_slots.clear();
        self.timings = StepTimings::default();
        self.steps = 0;
        self.compaction_stats = CompactionStats::default();
        self.overflow_warned = false;
        // NoEQ's model refresh relies on the uncollected tails of these
        // staying at their zero/false initialization.
        self.scratch_full.iter_mut().for_each(|f| *f = 0.0);
        self.scratch_sel.iter_mut().for_each(|s| *s = false);
    }

    /// Covers the seed, the division, every output-affecting configuration
    /// knob and the discretization descriptor. The purely operational
    /// settings (compaction, fsync policy) never change the released
    /// bytes and are left out.
    fn fingerprint(&self) -> u64 {
        let c = &self.config;
        let mut f = Fingerprint::new("retrasyn");
        f.u64(self.seed)
            .u64(match self.division {
                Division::Budget => 0,
                Division::Population => 1,
            })
            .f64(c.eps)
            .usize(c.w)
            .u64(match c.allocation {
                AllocationKind::Adaptive => 0,
                AllocationKind::Uniform => 1,
                AllocationKind::Sample => 2,
                AllocationKind::RandomReport => 3,
            })
            .f64(c.alpha)
            .usize(c.kappa)
            .f64(c.p_max)
            .f64(c.lambda)
            .u64(match c.report_mode {
                ReportMode::PerUser => 0,
                ReportMode::Aggregate => 1,
            })
            .u64(c.dmu as u64)
            .u64(c.enter_quit as u64)
            .space(self.table.topology().descriptor());
        f.finish()
    }

    fn checkpoint_bytes(&self) -> Option<Vec<u8>> {
        self.encode_checkpoint(true)
    }

    fn restore_checkpoint(&mut self, payload: &[u8]) -> Result<(), String> {
        self.decode_checkpoint(payload, None)
    }

    fn checkpoint_by_ref(&self) -> Option<(Vec<u8>, FrozenEpochs<'_>)> {
        let state = self.encode_checkpoint(false)?;
        Some((state, FrozenEpochs::new(self.synthetic.frozen())))
    }

    fn restore_checkpoint_by_ref(&mut self, state: &[u8], blocks: &[u8]) -> Result<(), String> {
        self.decode_checkpoint(state, Some(blocks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retrasyn_datagen::{RandomWalkConfig, RegimeShiftConfig};
    use retrasyn_geo::{EventTimeline, StreamDataset, UniformGrid};

    fn walk_dataset(seed: u64) -> StreamDataset {
        RandomWalkConfig { users: 300, timestamps: 30, churn: 0.05, ..Default::default() }
            .generate(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn population_engine_runs_and_ledger_verifies() {
        let ds = walk_dataset(1);
        let config = RetraSynConfig::new(1.0, 5).with_lambda(10.0);
        let mut engine = RetraSyn::population_division(config, UniformGrid::unit(5), 7);
        let syn = engine.run(&ds);
        assert_eq!(syn.horizon(), 30);
        assert!(!syn.is_empty());
        engine.ledger().verify().expect("w-event invariant");
        assert!(engine.ledger().total_user_reports() > 0);
    }

    #[test]
    fn budget_engine_runs_and_ledger_verifies() {
        let ds = walk_dataset(2);
        let config = RetraSynConfig::new(1.0, 5).with_lambda(10.0);
        let mut engine = RetraSyn::budget_division(config, UniformGrid::unit(5), 7);
        let syn = engine.run(&ds);
        assert_eq!(syn.horizon(), 30);
        engine.ledger().verify().expect("w-event invariant");
    }

    #[test]
    fn all_allocations_satisfy_ledger() {
        let ds = walk_dataset(3);
        for kind in [AllocationKind::Adaptive, AllocationKind::Uniform, AllocationKind::Sample] {
            for division in [Division::Budget, Division::Population] {
                let config = RetraSynConfig::new(1.5, 4).with_lambda(10.0).with_allocation(kind);
                let mut engine = RetraSyn::new(config, UniformGrid::unit(4), division, 11);
                let _ = engine.run(&ds);
                engine.ledger().verify().unwrap_or_else(|e| panic!("{kind:?}/{division:?}: {e}"));
            }
        }
        // RandomReport is population-only.
        let config = RetraSynConfig::new(1.5, 4)
            .with_lambda(10.0)
            .with_allocation(AllocationKind::RandomReport);
        let mut engine = RetraSyn::population_division(config, UniformGrid::unit(4), 11);
        let _ = engine.run(&ds);
        engine.ledger().verify().expect("random-report invariant");
    }

    #[test]
    fn random_report_slots_pruned_on_quit() {
        // High-churn stream: users continuously quit and fresh ids arrive
        // to replace them. The RandomReport slot map must not grow with
        // the all-time arrival count — quitted users' slots are pruned.
        let ds = RandomWalkConfig { users: 300, timestamps: 40, churn: 0.25, ..Default::default() }
            .generate(&mut StdRng::seed_from_u64(21));
        let config = RetraSynConfig::new(1.0, 4)
            .with_lambda(10.0)
            .with_allocation(AllocationKind::RandomReport);
        let mut engine = RetraSyn::population_division(config, UniformGrid::unit(4), 9);
        let _ = engine.run(&ds);
        // No quitted user retains a slot…
        for &u in engine.report_slots.keys() {
            let slot = engine.registry.slot_of(u).expect("slotted users are interned");
            assert_ne!(
                engine.registry.status(slot),
                Some(UserStatus::Quitted),
                "user {u} quit but kept a RandomReport slot"
            );
        }
        // …so the map stays bounded by the users that can still report,
        // strictly below the all-time arrival count once churn retires
        // users.
        assert!(
            engine.report_slots.len() < engine.registry.total_seen(),
            "slots {} vs seen {}",
            engine.report_slots.len(),
            engine.registry.total_seen()
        );
    }

    #[test]
    #[should_panic(expected = "population-division strategy")]
    fn random_report_rejected_for_budget_division() {
        let config = RetraSynConfig::new(1.0, 4).with_allocation(AllocationKind::RandomReport);
        let _ = RetraSyn::budget_division(config, UniformGrid::unit(4), 0);
    }

    #[test]
    fn synthetic_size_tracks_real_population() {
        let ds = walk_dataset(4);
        let gridded = ds.discretize(&UniformGrid::unit(5));
        let config = RetraSynConfig::new(2.0, 5).with_lambda(10.0);
        let mut engine = RetraSyn::population_division(config, UniformGrid::unit(5), 3);
        let timeline = EventTimeline::build(&gridded);
        for t in 0..gridded.horizon() {
            engine.step(t, timeline.at(t));
            assert_eq!(
                engine.snapshot().active_count(),
                gridded.active_count(t),
                "size mismatch at t={t}"
            );
        }
    }

    #[test]
    fn noeq_keeps_fixed_size() {
        let ds = walk_dataset(5);
        let gridded = ds.discretize(&UniformGrid::unit(5));
        let config = RetraSynConfig::new(1.0, 5).with_lambda(10.0).no_eq();
        let mut engine = RetraSyn::population_division(config, UniformGrid::unit(5), 3);
        let timeline = EventTimeline::build(&gridded);
        let init = gridded.active_count(0);
        for t in 0..gridded.horizon() {
            engine.step(t, timeline.at(t));
            assert_eq!(engine.snapshot().active_count(), init, "t={t}");
        }
        // NoEQ synthetic streams never terminate.
        let syn = engine.release();
        for s in syn.iter() {
            assert_eq!(s.start, 0);
            assert_eq!(s.len(), 30);
        }
    }

    #[test]
    fn all_update_refreshes_whole_model() {
        let ds = walk_dataset(6);
        let config = RetraSynConfig::new(1.0, 5).with_lambda(10.0).all_update();
        let mut engine = RetraSyn::population_division(config, UniformGrid::unit(4), 3);
        let _ = engine.run(&ds);
        engine.ledger().verify().expect("ledger");
    }

    #[test]
    fn deterministic_under_seed() {
        let ds = walk_dataset(7);
        let run = |seed| {
            let config = RetraSynConfig::new(1.0, 5).with_lambda(10.0);
            let mut engine = RetraSyn::population_division(config, UniformGrid::unit(5), seed);
            engine.run(&ds)
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a.num_streams(), b.num_streams());
        assert_eq!(a.stream(0), b.stream(0));
        // Different seeds diverge somewhere.
        let same = a.num_streams() == c.num_streams() && a.iter().eq(c.iter());
        assert!(!same, "different seeds produced identical output");
    }

    /// Release ranks streams by id, so a restore must refuse a store
    /// whose ids are not exactly `0..next_id`. The checkpoints below are
    /// written by the real encoder (their CRCs are valid); only the ids
    /// of the store behind them were broken.
    #[test]
    fn restore_rejects_a_store_whose_ids_are_not_dense() {
        let ds = walk_dataset(4);
        let timeline = EventTimeline::build(&ds.discretize(&UniformGrid::unit(5)));
        let engine = || {
            let config = RetraSynConfig::new(1.0, 5).with_lambda(10.0).with_compaction(200);
            RetraSyn::population_division(config, UniformGrid::unit(5), 9)
        };
        let session = || {
            let mut e = engine();
            for t in 0..20 {
                e.step(t, timeline.at(t));
            }
            assert!(e.compaction_stats().runs > 0, "the session compacts");
            assert!(e.synthetic.store_mut().live.len() >= 2);
            e
        };
        let intact = session().checkpoint_bytes().expect("engine checkpoints");
        engine().restore_checkpoint(&intact).expect("the intact checkpoint restores");

        type Break = fn(&mut crate::store::StreamStore);
        let breaks: [(&str, Break); 4] = [
            ("a live id repeated", |s| s.live.ids[0] = s.live.ids[1]),
            ("a live id past next_id", |s| s.live.ids[0] += 1 << 40),
            ("a frozen id repeated", |s| s.frozen.ids[0] = s.live.ids[0]),
            ("a stream missing", |s| {
                let last = s.live.len() - 1;
                s.live.swap_remove_into(last, &mut crate::store::Columns::default());
            }),
        ];
        for (what, break_ids) in breaks {
            let mut broken = session();
            break_ids(broken.synthetic.store_mut());
            let bytes = broken.checkpoint_bytes().expect("engine checkpoints");
            let err = engine().restore_checkpoint(&bytes).expect_err(what);
            assert!(err.contains("synthetic stream"), "{what}: {err}");
        }
    }

    #[test]
    fn timing_report_accumulates() {
        let ds = walk_dataset(8);
        let config = RetraSynConfig::new(1.0, 5).with_lambda(10.0);
        let mut engine = RetraSyn::population_division(config, UniformGrid::unit(5), 3);
        let _ = engine.run(&ds);
        let report = engine.timing_report();
        assert_eq!(report.steps, 30);
        assert!(report.total > 0.0);
        assert!(report.synthesis >= 0.0);
        assert!(report.to_string().contains("steps"));
    }

    #[test]
    #[should_panic(expected = "consecutive")]
    fn out_of_order_steps_panic() {
        let config = RetraSynConfig::new(1.0, 5);
        let mut engine = RetraSyn::population_division(config, UniformGrid::unit(4), 0);
        engine.step(1, &[]);
    }

    #[test]
    fn model_learns_dominant_flow() {
        // Regime-shift data: before the shift everyone moves +x. The model
        // learned by t=15 should put most movement mass on rightward moves.
        let ds = RegimeShiftConfig { users: 800, timestamps: 16, shift_at: 99, step: 0.05 }
            .generate(&mut StdRng::seed_from_u64(9));
        let grid = UniformGrid::unit(6);
        let gridded = ds.discretize(&grid);
        let config = RetraSynConfig::new(2.0, 4).with_lambda(16.0);
        let mut engine = RetraSyn::population_division(config, grid.clone(), 5);
        let timeline = EventTimeline::build(&gridded);
        for t in 0..gridded.horizon() {
            engine.step(t, timeline.at(t));
        }
        let table = TransitionTable::new(&grid);
        let topo = table.topology();
        let model = engine.model();
        let mut right = 0.0;
        let mut other = 0.0;
        for from in topo.cells() {
            let a = topo.center(from);
            let block = table.move_block(from);
            for (i, &to) in table.move_targets(from).iter().enumerate() {
                // Move targets are adjacent: same row, larger x is one step east.
                let b = topo.center(to);
                let f = model.freqs()[block.start + i];
                if b.y == a.y && b.x > a.x {
                    right += f;
                } else if to != from {
                    other += f;
                }
            }
        }
        assert!(right > other, "rightward mass {right} vs other {other}");
    }
}
