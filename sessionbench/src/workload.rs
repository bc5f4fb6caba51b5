//! The workloads and the closed loop that drives their sessions.
//!
//! Every workload runs the paper's Table V engine (RetraSyn_p, ε = 1,
//! w = 20, single-threaded defaults) as a closed loop with one client: the
//! next batch is pulled only when the previous timestamp's synthetic state
//! is readable. Raw-stream generation is the load generator and sits
//! outside every timed metric.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn::geo::TransitionState;
use retrasyn::metrics::{divergence, live};
use retrasyn::prelude::*;

use crate::stats::{median, quantile, spread};
use crate::trace::{fold, LayerTime, SpanId, Tracer};

/// Privacy budget ε of Table V.
pub const EPS: f64 = 1.0;
/// Window w of Table V.
pub const WINDOW: usize = 20;
/// Checkpoint cadence (timestamps) of the durable workload's `Supervisor`:
/// recovery restores the checkpoint at 960 and replays 40 batches.
pub const CHECKPOINT_EVERY: u64 = 64;
/// Timestamp of the one in-memory checkpoint the other workloads' recovery
/// restores. The 374-step tail it leaves makes replay, not only the page
/// faults of a freshly decoded store, part of `recover_s`; restore alone
/// slows down several times more than stepping when the host is busy.
pub const IN_MEMORY_CHECKPOINT_AT: u64 = 512;
/// Set-up repetitions per run, at least; `setup_s` is their median.
pub const MIN_SETUP_REPS: usize = 7;
/// Set-ups per iteration (all but the last are dropped) and recoveries per
/// iteration. Repeating these short operations through the whole run
/// samples the host's fast and slow phases alike.
pub const SETUPS_PER_ITERATION: usize = 3;
pub const RECOVERIES_PER_ITERATION: usize = 2;
/// Back-to-back sessions per set-up of the in-memory workloads (through
/// `reset()`, which the second session checks). The durable workload runs
/// one session per WAL.
pub const SESSIONS_PER_SETUP: usize = 2;
/// Step-latency samples per run, at least.
pub const MIN_STEP_SAMPLES: usize = 1000;
/// Loose sanity bound on the occupancy Jensen–Shannon divergence (nats,
/// at most ln 2) between the real and the synthetic streams: the live
/// per-timestamp mean and the released density. Degenerate output (empty,
/// or piled into a few cells) fails it.
pub const JSD_BOUND: f64 = 0.25;
/// Spans that are not part of a session: set-up and recovery.
const OUTSIDE_SESSIONS: [&str; 7] = [
    "setup",
    "geo.discretize",
    "geo.timeline",
    "engine.new",
    "wal.create",
    "ingest.new",
    "recover",
];
/// Share of traced session wall-clock the per-layer self times must
/// account for.
pub const MIN_ACCOUNTED_PCT: f64 = 95.0;

/// Which generator produces a workload's raw streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Beijing-taxi-like streams (886 timestamps).
    TDrive,
    /// Brinkhoff San Joaquin preset (1000 timestamps, the churniest).
    SanJoaquin,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Raw-stream generator.
    pub source: Source,
    /// Share of the paper's population (the time axis is kept).
    pub scale: f64,
    /// Uniform grid side K.
    pub k: u32,
    /// Per-user OUE collection instead of the default aggregate round.
    pub per_user: bool,
    /// Read the live snapshot after every step (occupancy + JSD).
    pub live_read: bool,
    /// Validated ingest, WAL and checkpoints under a `Supervisor`.
    pub durable: bool,
    /// Compaction high-water mark in resident cells.
    pub compaction: Option<usize>,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "tdrive_live",
        source: Source::TDrive,
        scale: 1.0,
        k: 6,
        per_user: false,
        live_read: true,
        durable: false,
        compaction: None,
    },
    Spec {
        name: "tdrive_peruser_k32",
        source: Source::TDrive,
        scale: 0.5,
        k: 32,
        per_user: true,
        live_read: false,
        durable: false,
        compaction: None,
    },
    Spec {
        name: "sanjoaquin_durable",
        source: Source::SanJoaquin,
        scale: 0.1,
        k: 6,
        per_user: false,
        live_read: false,
        durable: true,
        compaction: Some(1_000_000),
    },
];

/// The workload named `name`.
pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().find(|s| s.name == name).copied()
}

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed of the generated input (the engine seed is derived from it).
    pub seed: u64,
    /// Measuring time; the run goes on until it has passed and the
    /// minimum sample counts are met.
    pub seconds: f64,
    /// Report the per-layer split of traced sessions instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Directory for the WAL, checkpoint and trace files.
    pub work_dir: PathBuf,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`BENCHMARK.json`).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: set-ups, steps, releases and recoveries.
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// Why operations failed.
    pub problems: Vec<String>,
    /// Human-readable context: sample counts and in-run spreads.
    pub notes: Vec<String>,
    /// The measurements.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether every operation succeeded and passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Count one checked operation.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Mark an already counted operation failed.
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// Run `spec` as `opts` says.
pub fn run(spec: &Spec, opts: &Options) -> Outcome {
    let generated = Instant::now();
    let raw = generate(spec, opts.seed);
    let generate_s = generated.elapsed().as_secs_f64();

    let mut bench = Bench::new(spec, opts);
    if let Err(e) = fs::create_dir_all(&opts.work_dir) {
        bench.out.check(false, || format!("create {}: {e}", opts.work_dir.display()));
        return bench.out;
    }
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut iteration = 0usize;
    loop {
        // A traced run interleaves untraced and traced iterations as
        // U T T U U T T U …, so a steady drift of the host's speed cancels
        // out of the overhead.
        bench.tracer.set_on(opts.trace && matches!(iteration % 4, 1 | 2));
        let began = Instant::now();
        if let Err(e) = bench.iteration(&raw) {
            bench.out.check(false, || e);
            break;
        }
        iteration += 1;
        let enough =
            bench.latencies_ms.len() >= MIN_STEP_SAMPLES && (!opts.trace || iteration >= 2);
        // Stop once another iteration would end past the deadline by more
        // than half its length, so a run measures `seconds` on average.
        if enough && Instant::now() + began.elapsed() / 2 >= deadline {
            break;
        }
    }
    // Top the set-up repetitions up when the sessions left no time for
    // enough of them.
    bench.tracer.set_on(false);
    while bench.out.correct() && bench.setup_s.len() < MIN_SETUP_REPS {
        match Setup::build(spec, &raw, bench.seed, &bench.wal_path, &mut bench.tracer) {
            Ok(setup) => {
                bench.out.attempted += 1;
                bench.setup_s.push(setup.seconds);
            }
            Err(e) => bench.out.check(false, || e),
        }
    }
    bench.finish(generate_s)
}

/// Generate the raw streams of `spec` from `seed`.
pub fn generate(spec: &Spec, seed: u64) -> StreamDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    match spec.source {
        Source::TDrive => TDriveConfig::paper().scaled(spec.scale).generate(&mut rng),
        Source::SanJoaquin => BrinkhoffConfig::san_joaquin().scaled(spec.scale).generate(&mut rng),
    }
}

/// The engine seed for input seed `seed`.
fn engine_seed(seed: u64) -> u64 {
    seed.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15
}

/// The stack a session is stepped through.
// One value exists per set-up, so the variants' size difference costs
// nothing worth a box.
#[allow(clippy::large_enum_variant)]
enum Pipeline {
    Plain { engine: RetraSyn, timeline: EventTimeline },
    Durable { supervisor: Supervisor<RetraSyn>, source: ValidatedSource<TimelineSource> },
}

/// How a session's engine is built, so recovery can build a fresh one.
struct Recipe {
    config: RetraSynConfig,
    grid: UniformGrid,
    seed: u64,
}

impl Recipe {
    fn engine(&self) -> RetraSyn {
        RetraSyn::population_division(self.config.clone(), self.grid.clone(), self.seed)
    }
}

/// Everything between the raw streams in memory and the first step being
/// ready.
struct Setup {
    gridded: GriddedDataset,
    recipe: Recipe,
    pipeline: Pipeline,
    seconds: f64,
}

impl Setup {
    fn build(
        spec: &Spec,
        raw: &StreamDataset,
        seed: u64,
        wal_path: &Path,
        tracer: &mut Tracer,
    ) -> Result<Setup, String> {
        if spec.durable {
            // A previous session's checkpoint must not outlive its WAL.
            let _ = fs::remove_file(Checkpointer::sidecar(wal_path));
        }
        let started = Instant::now();
        let root = tracer.open("setup", None, 0);
        let grid = UniformGrid::unit(spec.k);
        let span = tracer.open("geo.discretize", root, 0);
        let gridded = raw.discretize(&grid);
        tracer.close(span);
        let span = tracer.open("geo.timeline", root, 0);
        let timeline = EventTimeline::build(&gridded);
        tracer.close(span);
        let mut config =
            RetraSynConfig::new(EPS, WINDOW).with_lambda(gridded.avg_length().max(1.0));
        if spec.per_user {
            config = config.per_user_reports();
        }
        if let Some(mark) = spec.compaction {
            config = config.with_compaction(mark);
        }
        let span = tracer.open("engine.new", root, 0);
        let recipe = Recipe { config, grid, seed };
        let engine = recipe.engine();
        tracer.close(span);
        let pipeline = if spec.durable {
            let span = tracer.open("wal.create", root, 0);
            let supervisor = Supervisor::create(engine, wal_path, seed, FsyncPolicy::EveryBatch)
                .map_err(|e| format!("Supervisor::create: {e}"))?
                .with_checkpoints(CHECKPOINT_EVERY);
            tracer.close(span);
            let span = tracer.open("ingest.new", root, 0);
            let topology = supervisor.engine().topology().clone();
            let source = ValidatedSource::new(
                TimelineSource::new(timeline),
                topology,
                IngestPolicy::DropEvents,
            );
            tracer.close(span);
            Pipeline::Durable { supervisor, source }
        } else {
            Pipeline::Plain { engine, timeline }
        };
        tracer.close(root);
        let seconds = started.elapsed().as_secs_f64();
        Ok(Setup { gridded, recipe, pipeline, seconds })
    }
}

/// Cumulative Table V buckets of an engine, in seconds: user side, model
/// construction, DMU, synthesis.
fn buckets(engine: &RetraSyn) -> [f64; 4] {
    let r = engine.timing_report();
    let n = r.steps as f64;
    [r.user_side * n, r.model_construction * n, r.dmu * n, r.synthesis * n]
}

const BUCKET_NAMES: [&str; 4] =
    ["engine.user_side", "engine.model", "engine.dmu", "engine.synthesis"];

/// The per-step bucket deltas as derived child spans of `parent`.
fn trace_buckets(
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    t: u64,
    now: &[f64; 4],
    prev: &[f64; 4],
) {
    if tracer.is_on() {
        let mut parts = [("", 0u64); 4];
        for (i, part) in parts.iter_mut().enumerate() {
            *part = (BUCKET_NAMES[i], ((now[i] - prev[i]).max(0.0) * 1e9) as u64);
        }
        tracer.derived(parent, t, &parts);
    }
}

/// What one session produced.
struct Session {
    release: GriddedDataset,
    checkpoint: Option<(u64, Vec<u8>)>,
}

/// Input events over session wall-clock, summed over sessions.
#[derive(Debug, Default)]
struct Throughput {
    sessions: u64,
    events: u64,
    seconds: f64,
}

impl Throughput {
    fn add(&mut self, events: u64, seconds: f64) {
        self.sessions += 1;
        self.events += events;
        self.seconds += seconds;
    }

    fn rate(&self) -> f64 {
        self.events as f64 / self.seconds
    }
}

/// A run in progress.
struct Bench<'a> {
    spec: &'a Spec,
    opts: &'a Options,
    seed: u64,
    wal_path: PathBuf,
    tracer: Tracer,
    out: Outcome,
    /// Real per-cell occupancy, `horizon × cells` row-major (live reads).
    real: Option<(usize, Vec<u64>)>,
    setup_s: Vec<f64>,
    /// Step latencies of every untraced session.
    latencies_ms: Vec<f64>,
    untraced: Throughput,
    traced: Throughput,
    recover_s: Vec<f64>,
    traced_steps: u64,
    sessions: u64,
    max_active: usize,
    max_resident: usize,
    /// Largest occupancy JSD seen: live session means and releases.
    max_jsd: f64,
    compaction: CompactionStats,
    wal_bytes_per_event: f64,
    checkpoint_bytes: u64,
    replayed: u64,
}

impl<'a> Bench<'a> {
    fn new(spec: &'a Spec, opts: &'a Options) -> Self {
        let wal_path = opts.work_dir.join(format!("{}-{}.wal", spec.name, std::process::id()));
        Bench {
            spec,
            opts,
            seed: engine_seed(opts.seed),
            wal_path,
            tracer: Tracer::new(false),
            out: Outcome::default(),
            real: None,
            setup_s: Vec::new(),
            latencies_ms: Vec::new(),
            untraced: Throughput::default(),
            traced: Throughput::default(),
            recover_s: Vec::new(),
            traced_steps: 0,
            sessions: 0,
            max_active: 0,
            max_resident: 0,
            max_jsd: 0.0,
            compaction: CompactionStats::default(),
            wal_bytes_per_event: 0.0,
            checkpoint_bytes: 0,
            replayed: 0,
        }
    }

    /// Set-ups, the sessions of the last one, and recoveries.
    fn iteration(&mut self, raw: &StreamDataset) -> Result<(), String> {
        for _ in 1..SETUPS_PER_ITERATION {
            let extra =
                Setup::build(self.spec, raw, self.seed, &self.wal_path, &mut Tracer::new(false))?;
            self.setup_s.push(extra.seconds);
        }
        let mut setup = Setup::build(self.spec, raw, self.seed, &self.wal_path, &mut self.tracer)?;
        self.out.attempted += SETUPS_PER_ITERATION as u64;
        self.setup_s.push(setup.seconds);
        if self.spec.live_read && self.real.is_none() {
            self.real = Some(real_occupancy(&setup.gridded));
        }
        let samples = self.latencies_ms.len();
        if self.spec.durable {
            self.durable_session(&mut setup)?;
        } else {
            self.plain_sessions(&mut setup)?;
        }
        if self.tracer.is_on() {
            // Traced steps carry the tracer's overhead.
            self.latencies_ms.truncate(samples);
        }
        Ok(())
    }

    fn plain_sessions(&mut self, setup: &mut Setup) -> Result<(), String> {
        let Pipeline::Plain { engine, timeline } = &mut setup.pipeline else { unreachable!() };
        let horizon = timeline.horizon();
        let at = IN_MEMORY_CHECKPOINT_AT.min(horizon - 1);
        let mut first: Option<Session> = None;
        for s in 0..SESSIONS_PER_SETUP {
            if s > 0 {
                engine.reset();
            }
            let session = self.plain_session(engine, timeline, (s == 0).then_some(at))?;
            self.out.check(engine.ledger().verify().is_ok(), || {
                format!("session {}: w-event ledger does not verify", self.sessions)
            });
            match &first {
                None => {
                    let jsd = release_jsd(&setup.gridded, &session.release);
                    self.note_jsd(jsd);
                    first = Some(session);
                }
                Some(first) => self.out.check(session.release == first.release, || {
                    "the release after reset() differs from the first session's".to_string()
                }),
            }
        }
        let mut first = first.expect("at least one session per set-up");
        let (at, bytes) = first.checkpoint.take().ok_or("no checkpoint was taken")?;
        for _ in 0..RECOVERIES_PER_ITERATION {
            let mut fresh = setup.recipe.engine();
            let started = Instant::now();
            let span = self.tracer.open("recover", None, at);
            fresh.restore_checkpoint(&bytes).map_err(|e| format!("restore_checkpoint: {e}"))?;
            for t in at..horizon {
                fresh.try_step(t, timeline.at(t)).map_err(|e| format!("replay t={t}: {e}"))?;
            }
            self.tracer.close(span);
            self.recover_s.push(started.elapsed().as_secs_f64());
            self.replayed = horizon - at;
            let again = fresh.try_release().map_err(|e| format!("release after recovery: {e}"))?;
            self.out.check(again == first.release, || {
                "the release recovered from a checkpoint differs from the uninterrupted one"
                    .to_string()
            });
        }
        Ok(())
    }

    fn plain_session(
        &mut self,
        engine: &mut RetraSyn,
        timeline: &EventTimeline,
        checkpoint_at: Option<u64>,
    ) -> Result<Session, String> {
        let traced = self.tracer.is_on();
        let horizon = timeline.horizon();
        let real = self.real.take();
        let (mut occupancy, mut weights) = (Vec::new(), Vec::new());
        let mut jsd_sum = 0.0;
        let mut checkpoint = None;
        let mut paused = Duration::ZERO;
        let mut prev = buckets(engine);
        let started = Instant::now();
        let root = self.tracer.open("session", None, 0);
        for t in 0..horizon {
            let pulled = Instant::now();
            let step = self.tracer.open("step", root, t);
            let span = self.tracer.open("ingest.next_batch", step, t);
            let batch = timeline.at(t);
            self.tracer.close(span);
            let span = self.tracer.open("engine.step", step, t);
            let result = engine.try_step(t, batch);
            self.tracer.close(span);
            let now = buckets(engine);
            trace_buckets(&mut self.tracer, span, t, &now, &prev);
            prev = now;
            let outcome = result.map_err(|e| format!("try_step t={t}: {e}"))?;
            let mut live_active = outcome.active;
            if let Some((cells, real)) = &real {
                let span = self.tracer.open("store.read", step, t);
                let snapshot = engine.snapshot();
                let row = &real[t as usize * cells..(t as usize + 1) * cells];
                jsd_sum += live::occupancy_jsd_into(row, &snapshot, &mut occupancy, &mut weights);
                live_active = snapshot.active_count();
                self.tracer.close(span);
            }
            self.latencies_ms.push(pulled.elapsed().as_secs_f64() * 1e3);
            self.tracer.close(step);

            self.out.attempted += 1;
            self.check_population(t, outcome.active, batch);
            if real.is_some() && occupancy.iter().sum::<u64>() != live_active as u64 {
                self.out.fail(format!("t={t}: snapshot occupancy misses live streams"));
            }
            self.max_active = self.max_active.max(outcome.active);
            self.max_resident = self.max_resident.max(engine.resident_cells());
            if checkpoint_at == Some(t + 1) {
                // Taken for the recovery measurement, not part of the
                // workload: its time is left out of the session.
                let paused_at = Instant::now();
                let span = self.tracer.open("bench.checkpoint", root, t);
                let bytes = engine.checkpoint_bytes().ok_or("engine has no checkpoints")?;
                checkpoint = Some((t + 1, bytes));
                self.tracer.close(span);
                paused += paused_at.elapsed();
            }
        }
        let span = self.tracer.open("store.release", root, horizon);
        let release = engine.try_release().map_err(|e| format!("release: {e}"))?;
        self.tracer.close(span);
        self.tracer.close(root);
        let seconds = (started.elapsed() - paused).as_secs_f64();
        self.out.attempted += 1;

        let events = timeline.total_events() as u64;
        self.record_session(traced, horizon, events, seconds);
        if let Some((cells, real)) = real {
            self.note_jsd(jsd_sum / horizon as f64);
            self.real = Some((cells, real));
        }
        self.compaction = engine.compaction_stats();
        Ok(Session { release, checkpoint })
    }

    fn durable_session(&mut self, setup: &mut Setup) -> Result<(), String> {
        let Pipeline::Durable { supervisor, source } = &mut setup.pipeline else { unreachable!() };
        let traced = self.tracer.is_on();
        let mut prev = buckets(supervisor.engine());
        let mut checkpoints = 0;
        let started = Instant::now();
        let root = self.tracer.open("session", None, 0);
        let mut t = 0u64;
        loop {
            let pulled = Instant::now();
            let step = self.tracer.open("step", root, t);
            let span = self.tracer.open("ingest.next_batch", step, t);
            let Some(batch) = source.next_batch() else {
                self.tracer.close(span);
                self.tracer.close(step);
                break;
            };
            self.tracer.close(span);
            let span = self.tracer.open("supervise.step", step, t);
            let verdict = supervisor.step(batch);
            self.tracer.close(span);
            let now = buckets(supervisor.engine());
            trace_buckets(&mut self.tracer, span, t, &now, &prev);
            prev = now;
            self.latencies_ms.push(pulled.elapsed().as_secs_f64() * 1e3);
            if supervisor.stats().checkpoints > checkpoints {
                checkpoints = supervisor.stats().checkpoints;
                self.tracer.rename(span, "wal.checkpoint_step");
            }
            self.tracer.close(step);

            self.out.attempted += 1;
            match verdict.map_err(|e| format!("supervised step t={t}: {e}"))? {
                StepVerdict::Stepped(outcome) => {
                    self.check_population(t, outcome.active, batch);
                    self.max_active = self.max_active.max(outcome.active);
                }
                other => return Err(format!("supervised step t={t}: {other:?}")),
            }
            self.max_resident = self.max_resident.max(supervisor.engine().resident_cells());
            t += 1;
        }
        let span = self.tracer.open("store.release", root, t);
        let release = supervisor.release().map_err(|e| format!("release: {e}"))?;
        self.tracer.close(span);
        self.tracer.close(root);
        let seconds = started.elapsed().as_secs_f64();
        self.out.attempted += 1;

        let ingest = *source.stats();
        let stats = *supervisor.stats();
        let horizon = setup.gridded.horizon();
        self.record_session(traced, t, ingest.events, seconds);
        self.out.check(ingest.diverted() == 0 && ingest.passed == ingest.events, || {
            format!("ingest diverted {} of {} clean events", ingest.diverted(), ingest.events)
        });
        self.out.check(
            t == horizon
                && stats.steps == horizon
                && stats.recovered == 0
                && stats.poisoned == 0
                && stats.checkpoints == horizon / CHECKPOINT_EVERY,
            || format!("supervisor stats {stats:?} over {t} of {horizon} timestamps"),
        );
        self.out.check(supervisor.engine().ledger().verify().is_ok(), || {
            format!("session {}: w-event ledger does not verify", self.sessions)
        });
        self.note_jsd(release_jsd(&setup.gridded, &release));
        self.compaction = supervisor.engine().compaction_stats();
        let wal_bytes = fs::metadata(&self.wal_path).map(|m| m.len()).unwrap_or(0);
        self.wal_bytes_per_event = wal_bytes as f64 / ingest.events.max(1) as f64;
        self.checkpoint_bytes =
            fs::metadata(Checkpointer::sidecar(&self.wal_path)).map(|m| m.len()).unwrap_or(0);

        let at = horizon / CHECKPOINT_EVERY * CHECKPOINT_EVERY;
        let expected = Recovery {
            resumed_from: at,
            replayed: horizon - at,
            truncated: false,
            checkpoint: CheckpointUse::Restored { at },
        };
        for _ in 0..RECOVERIES_PER_ITERATION {
            let mut fresh = setup.recipe.engine();
            let started = Instant::now();
            let span = self.tracer.open("recover", None, 0);
            let recovery = fresh.recover(&self.wal_path).map_err(|e| format!("recover: {e}"))?;
            self.tracer.close(span);
            self.recover_s.push(started.elapsed().as_secs_f64());
            self.replayed = recovery.replayed;
            self.out.check(recovery == expected, || {
                format!("recovery {recovery:?}, want {expected:?}")
            });
            let again = fresh.try_release().map_err(|e| format!("release after recovery: {e}"))?;
            self.out.check(again == release, || {
                "the release recovered from the WAL differs from the uninterrupted one".to_string()
            });
        }
        Ok(())
    }

    /// The synthetic population after step `t` must match the users
    /// reporting in its batch (the step itself is already counted).
    fn check_population(&mut self, t: u64, active: usize, batch: &[UserEvent]) {
        let want = reporting(batch);
        if active != want {
            self.out.fail(format!("t={t}: {active} synthetic streams for {want} reporting users"));
        }
    }

    /// Keep the largest JSD; a NaN sticks, so the final check sees it.
    fn note_jsd(&mut self, jsd: f64) {
        if jsd.is_nan() || jsd > self.max_jsd {
            self.max_jsd = jsd;
        }
    }

    fn record_session(&mut self, traced: bool, steps: u64, events: u64, seconds: f64) {
        self.sessions += 1;
        if traced {
            self.traced_steps += steps;
            self.traced.add(events, seconds);
        } else {
            self.untraced.add(events, seconds);
        }
    }

    /// Checks that need the whole run, clean-up and the metrics.
    fn finish(mut self, generate_s: f64) -> Outcome {
        let jsd = self.max_jsd;
        self.out.check(jsd.is_finite() && jsd < JSD_BOUND, || {
            format!("occupancy JSD {jsd:.4} is over the sanity bound {JSD_BOUND}")
        });
        for path in [
            self.wal_path.clone(),
            Checkpointer::sidecar(&self.wal_path),
            Supervisor::<RetraSyn>::poison_sidecar(&self.wal_path),
        ] {
            let _ = fs::remove_file(path);
        }
        let events = self.untraced.events + self.traced.events;
        self.out.notes.push(format!(
            "{}: seed {}, {} input events per session, {} sessions, {} untraced step samples, \
             {} set-ups, {} recoveries; max occupancy JSD {jsd:.4}",
            self.spec.name,
            self.opts.seed,
            events / self.sessions.max(1),
            self.sessions,
            self.latencies_ms.len(),
            self.setup_s.len(),
            self.recover_s.len(),
        ));
        if self.opts.trace {
            self.layer_metrics(generate_s);
        } else {
            self.end_to_end_metrics();
        }
        self.out
    }

    fn end_to_end_metrics(&mut self) {
        self.out.notes.push(format!(
            "in-run spread (IQR/median): setup_s {:.3} over {} reps, recover_s {:.3} over {}",
            spread(&mut self.setup_s),
            self.setup_s.len(),
            spread(&mut self.recover_s),
            self.recover_s.len(),
        ));
        let setup = median(&mut self.setup_s);
        let p50 = quantile(&mut self.latencies_ms, 0.50);
        let p99 = quantile(&mut self.latencies_ms, 0.99);
        let recover = median(&mut self.recover_s);
        self.out.metric("setup_s", setup, "s");
        self.out.metric("step_p50_ms", p50, "ms");
        self.out.metric("step_p99_ms", p99, "ms");
        self.out.metric("events_per_s", self.untraced.rate(), "1/s");
        self.out.metric("recover_s", recover, "s");
        self.out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }

    fn layer_metrics(&mut self, generate_s: f64) {
        let layers = fold(self.tracer.spans());
        let path = self.opts.work_dir.join(format!("trace-{}.tsv", self.spec.name));
        if let Err(e) = self.tracer.write_tsv(&path) {
            self.out.check(false, || format!("write {}: {e}", path.display()));
        }
        let get = |name: &str| layers.get(name).copied().unwrap_or_default();
        let steps = self.traced_steps.max(1) as f64;
        let per_step = |l: LayerTime| l.total_ns as f64 / 1e6 / steps;
        let mean_ms = |l: LayerTime| l.total_ns as f64 / 1e6 / l.count.max(1) as f64;

        // Share of traced session wall-clock (less the benchmark's own
        // checkpoint pauses) that named layers' self times account for;
        // the rest is the benchmark loop between spans.
        let session = get("session").total_ns.saturating_sub(get("bench.checkpoint").total_ns);
        let glue = get("session").self_ns + get("step").self_ns;
        let accounted = 100.0 * (1.0 - glue as f64 / session.max(1) as f64);
        self.out.check(accounted >= MIN_ACCOUNTED_PCT, || {
            format!("per-layer self times account for {accounted:.2}% of session wall-clock")
        });
        let overhead = 100.0 * (self.untraced.rate() / self.traced.rate() - 1.0);

        let mut table = vec![format!(
            "traced: {} sessions, {} steps; per-layer self time per step and share of session",
            self.traced.sessions, self.traced_steps
        )];
        let mut rows: Vec<_> =
            layers.iter().filter(|(name, _)| !OUTSIDE_SESSIONS.contains(name)).collect();
        rows.sort_by_key(|(_, l)| std::cmp::Reverse(l.self_ns));
        for (name, l) in rows {
            table.push(format!(
                "  {name:<22} {:>10.4} ms {:>7.2}%  ({} spans)",
                l.self_ns as f64 / 1e6 / steps,
                100.0 * l.self_ns as f64 / session.max(1) as f64,
                l.count
            ));
        }
        table.push("outside sessions: mean self time per span".to_string());
        for name in OUTSIDE_SESSIONS {
            let l = get(name);
            if l.count > 0 {
                let mean = l.self_ns as f64 / 1e6 / l.count as f64;
                table.push(format!("  {name:<22} {mean:>10.4} ms  ({} spans)", l.count));
            }
        }
        self.out.notes.extend(table);

        let engine_step = get("engine.step");
        let supervise = get("supervise.step");
        let checkpoint = get("wal.checkpoint_step");
        let ingest = get("ingest.next_batch");
        let o = &mut self.out;
        o.metric("datagen.generate_s", generate_s, "s");
        o.metric("geo.discretize_ms", mean_ms(get("geo.discretize")), "ms");
        o.metric("geo.timeline_ms", mean_ms(get("geo.timeline")), "ms");
        o.metric("engine.new_ms", mean_ms(get("engine.new")), "ms");
        o.metric("wal.create_ms", mean_ms(get("wal.create")), "ms");
        o.metric("ingest.next_batch_ms", per_step(ingest), "ms");
        o.metric(
            "ingest.ns_per_event",
            ingest.self_ns as f64 / self.traced.events.max(1) as f64,
            "ns",
        );
        o.metric("engine.step_ms", mean_ms(engine_step), "ms");
        o.metric("engine.user_side_ms", per_step(get("engine.user_side")), "ms");
        o.metric("engine.model_ms", per_step(get("engine.model")), "ms");
        o.metric("engine.dmu_ms", per_step(get("engine.dmu")), "ms");
        o.metric("engine.synthesis_ms", per_step(get("engine.synthesis")), "ms");
        o.metric(
            "engine.untimed_ms",
            engine_step.self_ns as f64 / 1e6 / engine_step.count.max(1) as f64,
            "ms",
        );
        o.metric("store.read_ms", per_step(get("store.read")), "ms");
        o.metric("store.release_ms", mean_ms(get("store.release")), "ms");
        o.metric("store.active_streams", self.max_active as f64, "count");
        o.metric("store.resident_cells", self.max_resident as f64, "count");
        o.metric("supervise.step_ms", mean_ms(supervise), "ms");
        o.metric(
            "supervise.self_ms",
            (supervise.self_ns + checkpoint.self_ns) as f64 / 1e6 / steps,
            "ms",
        );
        o.metric("wal.checkpoint_step_ms", mean_ms(checkpoint), "ms");
        o.metric("wal.bytes_per_event", self.wal_bytes_per_event, "B");
        o.metric("wal.checkpoint_bytes", self.checkpoint_bytes as f64, "B");
        o.metric("compact.runs", self.compaction.runs as f64, "count");
        o.metric("compact.frozen_cells", self.compaction.frozen_cells as f64, "count");
        o.metric("recover.replayed_batches", self.replayed as f64, "count");
        o.metric("trace.overhead_pct", overhead, "%");
        o.metric("trace.accounted_pct", accounted, "%");
    }
}

/// Real per-cell occupancy of every timestamp, `horizon × cells`
/// row-major (ground truth for the live reads; built outside the timed
/// sections).
fn real_occupancy(gridded: &GriddedDataset) -> (usize, Vec<u64>) {
    let cells = gridded.topology().num_cells();
    let mut counts = vec![0u64; gridded.horizon() as usize * cells];
    for stream in gridded.iter() {
        for (i, c) in stream.cells.iter().enumerate() {
            counts[(stream.start as usize + i) * cells + c.index()] += 1;
        }
    }
    (cells, counts)
}

/// Occupancy JSD between the real and the released synthetic database,
/// over every timestamp at once (the density the paper scores).
fn release_jsd(real: &GriddedDataset, synthetic: &GriddedDataset) -> f64 {
    let density =
        |d: &GriddedDataset| d.total_counts().into_iter().map(|c| c as f64).collect::<Vec<_>>();
    divergence::jsd(&density(real), &density(synthetic))
}

/// Users reporting at a timestamp: everyone in the batch but the quitters.
/// The synthetic population is sized to exactly this count.
fn reporting(batch: &[UserEvent]) -> usize {
    batch.iter().filter(|e| !matches!(e.state, TransitionState::Quit(_))).count()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use retrasyn::geo::GriddedStream;

    #[test]
    fn density_check_rejects_degenerate_releases() {
        let spec = Spec { scale: 0.02, ..WORKLOADS[0] };
        let grid = UniformGrid::unit(spec.k);
        let real = generate(&spec, 3).discretize(&grid);
        assert!(release_jsd(&real, &real) < 1e-12);
        let empty = GriddedDataset::from_streams(grid.clone(), Vec::new(), real.horizon());
        assert!(release_jsd(&real, &empty) > JSD_BOUND);
        let piled = real
            .iter()
            .map(|s| GriddedStream { id: s.id, start: s.start, cells: vec![CellId(0); s.len()] })
            .collect();
        let piled = GriddedDataset::from_streams(grid, piled, real.horizon());
        assert!(release_jsd(&real, &piled) > JSD_BOUND);
    }

    #[test]
    fn reporting_counts_everyone_but_quitters() {
        let event = |user, state| UserEvent { user, state };
        let batch = [
            event(1, TransitionState::Enter(CellId(0))),
            event(2, TransitionState::Move { from: CellId(0), to: CellId(1) }),
            event(3, TransitionState::Quit(CellId(1))),
        ];
        assert_eq!(reporting(&batch), 2);
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for spec in WORKLOADS {
            assert_eq!(super::spec(spec.name).map(|s| s.name), Some(spec.name));
        }
        assert!(super::spec("oldenburg").is_none());
    }
}
