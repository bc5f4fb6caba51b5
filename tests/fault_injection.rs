//! Fault-injection harness: crash the durable pipeline at arbitrary byte
//! offsets, flip bits, corrupt checkpoints mid-write — recovery must
//! always yield either a bit-identical prefix of the original session or
//! a clean, descriptive error. Never a panic, a hang, or silently wrong
//! output. Also proves the epoch-compaction memory bound is transparent:
//! a low high-water mark over a 10k-timestamp stream keeps resident arena
//! cells O(live population) with a bit-identical release.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn::geo::TransitionState;
use retrasyn::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("retrasyn-fault-{}-{tag}-{n}.wal", std::process::id()))
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(Checkpointer::sidecar(path));
}

const HORIZON: usize = 18;

fn dataset() -> retrasyn::geo::GriddedDataset {
    RandomWalkConfig { users: 40, timestamps: HORIZON as u64, churn: 0.1, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(5))
        .discretize(&UniformGrid::unit(5))
}

fn engine() -> RetraSyn {
    let config = RetraSynConfig::new(1.0, 5).with_lambda(10.0);
    RetraSyn::population_division(config, UniformGrid::unit(5), 13)
}

/// Write the full session's WAL and return its bytes.
fn record_session(path: &PathBuf) -> Vec<u8> {
    let gridded = dataset();
    let mut e = engine();
    let writer =
        WalWriter::create(path, 13, e.fingerprint(), FsyncPolicy::EveryBatch).expect("create WAL");
    let mut source = WalSource::tee(TimelineSource::from_gridded(&gridded), writer);
    while let Some(batch) = source.next_batch() {
        e.step(e.next_timestamp(), batch);
    }
    let (_, mut writer) = source.into_parts();
    writer.sync().expect("sync");
    std::fs::read(path).expect("read WAL back")
}

/// Reference releases for every prefix length 0..=HORIZON: the release a
/// bit-identical recovery of an n-timestamp prefix must equal.
fn prefix_references() -> Vec<retrasyn::geo::GriddedDataset> {
    let gridded = dataset();
    (0..=HORIZON)
        .map(|n| {
            let mut e = engine();
            let mut source = TimelineSource::from_gridded(&gridded);
            for _ in 0..n {
                let batch = source.next_batch().expect("within horizon");
                e.step(e.next_timestamp(), batch);
            }
            e.release()
        })
        .collect()
}

#[test]
fn kill_at_arbitrary_byte_offsets_recovers_prefix_or_errors() {
    let path = temp_path("kill");
    let full = record_session(&path);
    let refs = prefix_references();

    // Every cut length in the last two records, plus a stride sample of
    // the whole file (exhaustive parse-level truncation is covered by the
    // wal unit tests; this drives the full recover pipeline).
    let tail_start = full.len().saturating_sub(2 * (4 + 12 + 4 + 40 * 13));
    let cuts: Vec<usize> = (0..full.len()).filter(|&c| c >= tail_start || c % 97 == 0).collect();
    for cut in cuts {
        std::fs::write(&path, &full[..cut]).expect("truncate");
        let mut e = engine();
        match e.recover(&path) {
            Ok(recovery) => {
                let n = recovery.next_timestamp() as usize;
                assert!(n <= HORIZON, "cut={cut}: recovered past the horizon");
                if !recovery.truncated && n < HORIZON {
                    // Only a cut landing exactly on a record boundary is
                    // indistinguishable from a shorter session; anything
                    // else must be reported as a truncation.
                    let contents = WalContents::read(&path).expect("reparse");
                    assert_eq!(contents.valid_len, cut as u64, "cut={cut}: lost data unreported");
                }
                assert_eq!(e.release(), refs[n], "cut={cut}: prefix not bit-identical");
            }
            Err(e) => {
                // Only header damage is a hard error, and it must say why.
                assert!(cut < 28, "cut={cut}: record damage must truncate, not fail");
                assert!(!e.to_string().is_empty());
            }
        }
    }
    cleanup(&path);
}

#[test]
fn bit_flips_never_panic_and_never_silently_corrupt() {
    let path = temp_path("flip");
    let full = record_session(&path);
    let refs = prefix_references();

    let offsets: Vec<usize> = (0..full.len()).filter(|&o| o % 61 == 0).collect();
    for offset in offsets {
        for bit in [0u8, 5] {
            let mut corrupted = full.clone();
            corrupted[offset] ^= 1 << bit;
            std::fs::write(&path, &corrupted).expect("write corrupted");
            let mut e = engine();
            match e.recover(&path) {
                Ok(recovery) => {
                    // A flip that still recovers must have been confined to
                    // the discarded tail: the result is an exact prefix.
                    let n = recovery.next_timestamp() as usize;
                    assert_eq!(
                        e.release(),
                        refs[n],
                        "offset={offset} bit={bit}: silently wrong recovery"
                    );
                }
                Err(err) => {
                    assert!(!err.to_string().is_empty(), "offset={offset}: silent error");
                }
            }
        }
    }
    cleanup(&path);
}

#[test]
fn crash_mid_checkpoint_leaves_recovery_intact() {
    let gridded = dataset();
    let path = temp_path("midckpt");
    let mut original = engine();
    let writer = WalWriter::create(&path, 13, original.fingerprint(), FsyncPolicy::EveryBatch)
        .expect("create WAL");
    let ckpt = Checkpointer::new(&path, 6);
    let mut source = WalSource::tee(TimelineSource::from_gridded(&gridded), writer);
    while let Some(batch) = source.next_batch() {
        original.step(original.next_timestamp(), batch);
        ckpt.maybe_save(&original).expect("checkpoint");
    }
    let (_, mut writer) = source.into_parts();
    writer.sync().expect("sync");
    let expected = original.release();

    // Crash scenario A: the atomic-rename tmp file survives next to a
    // good checkpoint. It must simply be ignored.
    let sidecar = Checkpointer::sidecar(&path);
    let mut tmp = sidecar.as_os_str().to_os_string();
    tmp.push(".tmp");
    std::fs::write(PathBuf::from(tmp), b"half-written checkpoint garbage").expect("tmp litter");
    let mut e = engine();
    let recovery = e.recover(&path).expect("recover with tmp litter");
    assert!(matches!(recovery.checkpoint, CheckpointUse::Restored { .. }));
    assert_eq!(e.release(), expected);

    // Crash scenario B: the checkpoint itself is torn (truncated bytes) —
    // recovery reports it and falls back to full replay, same result.
    let good = std::fs::read(&sidecar).expect("read sidecar");
    for keep in [0usize, 7, 20, good.len() / 2, good.len() - 1] {
        std::fs::write(&sidecar, &good[..keep.min(good.len())]).expect("tear sidecar");
        let mut e = engine();
        let recovery = e.recover(&path).expect("recover past torn checkpoint");
        assert!(
            matches!(recovery.checkpoint, CheckpointUse::Ignored { .. }),
            "keep={keep}: torn checkpoint not reported"
        );
        assert_eq!(recovery.resumed_from, 0);
        assert_eq!(e.release(), expected, "keep={keep}");
    }

    // Crash scenario C: checkpoint claims timestamps the (torn) WAL does
    // not have. Recovery must ignore it rather than resume into the void.
    std::fs::write(&sidecar, &good).expect("restore sidecar");
    let full = std::fs::read(&path).expect("read WAL");
    std::fs::write(&path, &full[..full.len() - 10]).expect("tear WAL tail");
    let wal_now = WalContents::read(&path).expect("parse torn WAL");
    if (wal_now.batches.len() as u64) < 18 {
        let mut e = engine();
        let recovery = e.recover(&path).expect("recover torn WAL with ahead checkpoint");
        let n = recovery.next_timestamp() as usize;
        match recovery.checkpoint {
            CheckpointUse::Restored { at } => assert!(at <= n as u64),
            CheckpointUse::Ignored { ref reason } => assert!(!reason.is_empty()),
            CheckpointUse::None => panic!("sidecar exists but was not considered"),
        }
        assert_eq!(e.release(), prefix_references()[n]);
    }
    cleanup(&path);
}

// ---------------------------------------------------------------------------
// Supervisor drills: injected engine crashes mid-step.

/// Wraps [`RetraSyn`], injecting panics on demand: a *transient* fault
/// fires at one timestamp a bounded number of times (the retry after
/// recovery succeeds); a *poison* fault fires whenever the batch carries a
/// marker reporter (every replay of that batch crashes, so the supervisor
/// must quarantine it). Both fire before the inner engine is touched, so a
/// recovery replay of the durable prefix never re-trips them.
struct FaultyEngine {
    inner: RetraSyn,
    fault_at: u64,
    transient_remaining: std::cell::Cell<u32>,
    poison_user: Option<u64>,
    /// When set, a transient fault first reads this WAL and records how
    /// many batches it already held (in `logged_at_fault`).
    probe_wal: Option<PathBuf>,
    logged_at_fault: std::cell::Cell<Option<usize>>,
    /// The timestamp of the checkpoint the last recovery restored, if it
    /// restored one (cleared by `reset`, which every recovery starts with).
    restored_at: Option<u64>,
}

impl FaultyEngine {
    fn transient(inner: RetraSyn, fault_at: u64) -> Self {
        FaultyEngine {
            inner,
            fault_at,
            transient_remaining: std::cell::Cell::new(1),
            poison_user: None,
            probe_wal: None,
            logged_at_fault: std::cell::Cell::new(None),
            restored_at: None,
        }
    }

    fn poisoned_by(inner: RetraSyn, user: u64) -> Self {
        FaultyEngine {
            inner,
            fault_at: u64::MAX,
            transient_remaining: std::cell::Cell::new(0),
            poison_user: Some(user),
            probe_wal: None,
            logged_at_fault: std::cell::Cell::new(None),
            restored_at: None,
        }
    }

    /// A transient fault that also records how much of `wal` was written
    /// when it fired.
    fn transient_probing(inner: RetraSyn, fault_at: u64, wal: &std::path::Path) -> Self {
        FaultyEngine { probe_wal: Some(wal.to_path_buf()), ..Self::transient(inner, fault_at) }
    }
}

impl StreamingEngine for FaultyEngine {
    fn topology(&self) -> &std::sync::Arc<Topology> {
        self.inner.topology()
    }
    fn next_timestamp(&self) -> u64 {
        self.inner.next_timestamp()
    }
    fn try_step(
        &mut self,
        t: u64,
        events: &[UserEvent],
    ) -> Result<StepOutcome, retrasyn::core::SessionError> {
        if t == self.fault_at && self.transient_remaining.get() > 0 {
            self.transient_remaining.set(self.transient_remaining.get() - 1);
            if let Some(wal) = &self.probe_wal {
                let logged = WalContents::read(wal).expect("read WAL mid-step").batches.len();
                self.logged_at_fault.set(Some(logged));
            }
            panic!("injected transient fault at t={t}");
        }
        if let Some(user) = self.poison_user {
            if events.iter().any(|e| e.user == user) {
                panic!("injected poison batch at t={t}");
            }
        }
        self.inner.try_step(t, events)
    }
    fn snapshot(&self) -> SnapshotView<'_> {
        self.inner.snapshot()
    }
    fn try_release(
        &mut self,
    ) -> Result<retrasyn::geo::GriddedDataset, retrasyn::core::SessionError> {
        self.inner.try_release()
    }
    fn ledger(&self) -> &WEventLedger {
        self.inner.ledger()
    }
    fn reset(&mut self) {
        self.restored_at = None;
        self.inner.reset()
    }
    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }
    fn checkpoint_bytes(&self) -> Option<Vec<u8>> {
        self.inner.checkpoint_bytes()
    }
    fn restore_checkpoint(&mut self, payload: &[u8]) -> Result<(), String> {
        self.inner.restore_checkpoint(payload)?;
        self.restored_at = Some(self.inner.next_timestamp());
        Ok(())
    }
}

fn cleanup_supervised(path: &PathBuf) {
    cleanup(path);
    let _ = std::fs::remove_file(Supervisor::<RetraSyn>::poison_sidecar(path));
}

#[test]
fn transient_step_panic_recovers_bit_identical() {
    let gridded = dataset();
    let expected = engine().run_gridded(&gridded);

    // A crash at the very first step, mid-stream, and at the last step —
    // each with and without checkpoint sidecars in the replay path.
    for fault_at in [0, 7, HORIZON as u64 - 1] {
        for ckpt_every in [None, Some(3)] {
            let path = temp_path("transient");
            let faulty = FaultyEngine::transient(engine(), fault_at);
            let mut sup = Supervisor::create(faulty, &path, 13, FsyncPolicy::EveryBatch)
                .expect("create supervisor");
            if let Some(every) = ckpt_every {
                sup = sup.with_checkpoints(every);
            }
            let released = sup
                .drive(TimelineSource::from_gridded(&gridded))
                .expect("supervised drive survives the injected crash");
            assert_eq!(
                released, expected,
                "fault_at={fault_at} ckpt={ckpt_every:?}: recovery not bit-identical"
            );
            let stats = *sup.stats();
            assert_eq!(stats.recovered, 1, "fault_at={fault_at}: exactly one recovery");
            assert_eq!(stats.poisoned, 0);
            assert_eq!(stats.steps, HORIZON as u64);
            if ckpt_every.is_some() {
                assert!(stats.checkpoints > 0, "checkpoint interval never fired");
            }
            assert!(
                !sup.poison_path().exists(),
                "a recovered transient fault must not be quarantined"
            );
            cleanup_supervised(&path);
        }
    }
}

#[test]
fn poison_batch_is_quarantined_once_and_session_continues() {
    const POISON_USER: u64 = 999_999;
    const POISON_AT: usize = 5;
    let gridded = dataset();
    let expected = engine().run_gridded(&gridded);

    // Splice a deterministic poison batch into the stream: semantically
    // valid (it passes every ingest check), but the engine crashes on it —
    // and on every crash-replay of it. The supervisor must give up after
    // max_attempts, quarantine it, and deliver the session the stream
    // would have produced without it.
    let timeline = EventTimeline::build(&gridded);
    let mut batches: Vec<Vec<UserEvent>> =
        (0..HORIZON as u64).map(|t| timeline.at(t).to_vec()).collect();
    batches.insert(
        POISON_AT,
        vec![UserEvent { user: POISON_USER, state: TransitionState::Enter(CellId(0)) }],
    );

    let path = temp_path("poison");
    let faulty = FaultyEngine::poisoned_by(engine(), POISON_USER);
    let mut sup =
        Supervisor::create(faulty, &path, 13, FsyncPolicy::EveryBatch).expect("create supervisor");
    let released =
        sup.drive(IterSource::new(batches.into_iter())).expect("session continues past poison");
    assert_eq!(released, expected, "poisoned session must equal the stream minus the batch");

    let stats = *sup.stats();
    assert_eq!(stats.poisoned, 1, "the poison batch is quarantined exactly once");
    assert_eq!(stats.recovered, 0, "no attempt at the poison batch ever succeeds");
    assert_eq!(stats.steps, HORIZON as u64);

    // The sidecar records exactly one quarantine with the right shape.
    let sidecar = std::fs::read_to_string(sup.poison_path()).expect("poison sidecar exists");
    let lines: Vec<&str> = sidecar.lines().collect();
    assert_eq!(lines.len(), 1, "exactly one poison record: {lines:?}");
    assert!(
        lines[0].starts_with(&format!("t={POISON_AT} attempts=2 events=1 fault=")),
        "malformed poison record: {}",
        lines[0]
    );
    assert!(lines[0].contains("injected poison batch"), "fault message lost: {}", lines[0]);

    // The WAL holds only the batches that actually entered the session:
    // replaying it into a fresh engine reproduces the same release.
    let mut replayed = engine();
    let recovery = replayed.recover(&path).expect("replay the poisoned session's WAL");
    assert_eq!(recovery.next_timestamp(), HORIZON as u64);
    assert_eq!(replayed.release(), expected);
    cleanup_supervised(&path);
}

// ---------------------------------------------------------------------------
// Overlapped WAL sync: `Supervisor::step` writes the batch, steps the engine
// while the writer's I/O thread syncs it, and acknowledges only after both.

const POLICIES: [FsyncPolicy; 3] =
    [FsyncPolicy::EveryBatch, FsyncPolicy::EveryN(3), FsyncPolicy::Never];

/// The dataset's batches, one per timestamp.
fn batches() -> Vec<Vec<UserEvent>> {
    let timeline = EventTimeline::build(&dataset());
    (0..HORIZON as u64).map(|t| timeline.at(t).to_vec()).collect()
}

#[test]
fn panic_while_sync_in_flight_rolls_back_and_recovers_bit_identical() {
    let gridded = dataset();
    let expected = engine().run_gridded(&gridded);
    for policy in POLICIES {
        for fault_at in [0, 7, HORIZON as u64 - 1] {
            let path = temp_path("overlap");
            let faulty = FaultyEngine::transient_probing(engine(), fault_at, &path);
            let mut sup = Supervisor::create(faulty, &path, 13, policy)
                .expect("create supervisor")
                .with_checkpoints(3);
            let released = sup
                .drive(TimelineSource::from_gridded(&gridded))
                .expect("supervised drive survives the injected crash");
            let case = format!("{policy:?} fault_at={fault_at}");
            // The engine crashed after its batch was written and its sync
            // handed off, not before the append.
            assert_eq!(
                sup.engine().logged_at_fault.get(),
                Some(fault_at as usize + 1),
                "{case}: the step did not run after its batch was written"
            );
            assert_eq!(released, expected, "{case}: recovery not bit-identical");
            let stats = *sup.stats();
            assert_eq!((stats.recovered, stats.poisoned, stats.steps), (1, 0, HORIZON as u64));

            // The log holds every batch exactly once, and a fresh engine
            // recovers the same release from it.
            let contents = WalContents::read(&path).expect("read WAL");
            assert!(!contents.truncated, "{case}: torn WAL");
            assert_eq!(contents.batches, batches(), "{case}: WAL differs from the stream");
            let mut replayed = engine();
            replayed.recover(&path).expect("recover the supervised WAL");
            assert_eq!(replayed.release(), expected, "{case}: replay not bit-identical");
            cleanup_supervised(&path);
        }
    }
}

#[test]
fn overlapped_poison_batch_is_quarantined_once_and_left_out_of_the_wal() {
    const POISON_USER: u64 = 999_999;
    const POISON_AT: usize = 11;
    let expected = engine().run_gridded(&dataset());
    let clean = batches();
    let mut stream = clean.clone();
    stream.insert(
        POISON_AT,
        vec![UserEvent { user: POISON_USER, state: TransitionState::Enter(CellId(0)) }],
    );
    for policy in POLICIES {
        let path = temp_path("overlap-poison");
        let faulty = FaultyEngine::poisoned_by(engine(), POISON_USER);
        let mut sup = Supervisor::create(faulty, &path, 13, policy)
            .expect("create supervisor")
            .with_checkpoints(4);
        let released = sup
            .drive(IterSource::new(stream.clone().into_iter()))
            .expect("session continues past poison");
        assert_eq!(released, expected, "{policy:?}: poisoned session must drop the batch");
        let stats = *sup.stats();
        assert_eq!((stats.poisoned, stats.recovered), (1, 0), "{policy:?}");
        let poison = std::fs::read_to_string(sup.poison_path()).expect("poison sidecar exists");
        assert_eq!(poison.lines().count(), 1, "{policy:?}: one quarantine record: {poison}");
        assert!(poison.starts_with(&format!("t={POISON_AT} attempts=2 events=1 fault=")));

        let contents = WalContents::read(&path).expect("read WAL");
        assert!(!contents.truncated, "{policy:?}: torn WAL");
        assert_eq!(contents.batches, clean, "{policy:?}: the WAL must end without the poison");
        cleanup_supervised(&path);
    }
}

#[test]
fn supervised_sessions_release_the_same_bits_under_every_fsync_policy() {
    let gridded = dataset();
    let expected = engine().run_gridded(&gridded);
    for policy in POLICIES {
        for ckpt_every in [None, Some(5)] {
            let path = temp_path("policy");
            let mut sup = Supervisor::create(engine(), &path, 13, policy).expect("create");
            if let Some(every) = ckpt_every {
                sup = sup.with_checkpoints(every);
            }
            let mut source = TimelineSource::from_gridded(&gridded);
            while let Some(batch) = source.next_batch() {
                let verdict = sup.step(batch).expect("supervised step");
                assert!(matches!(verdict, StepVerdict::Stepped(_)), "{policy:?}: {verdict:?}");
            }
            let released = sup.release().expect("release");
            assert_eq!(released, expected, "{policy:?} ckpt={ckpt_every:?}: bits differ");
            cleanup_supervised(&path);
        }
    }
}

#[test]
fn every_acknowledged_batch_is_logged_however_the_supervisor_ends() {
    const ACKED: usize = 11;
    let stream = batches();
    for policy in POLICIES {
        for ending in ["release", "into_engine", "drop"] {
            let path = temp_path("ending");
            let mut sup = Supervisor::create(engine(), &path, 13, policy).expect("create");
            for batch in &stream[..ACKED] {
                sup.step(batch).expect("supervised step");
            }
            match ending {
                "release" => drop(sup.release().expect("release")),
                "into_engine" => drop(sup.into_engine().expect("into_engine")),
                _ => drop(sup),
            }
            let contents = WalContents::read(&path).expect("read WAL");
            assert!(!contents.truncated, "{policy:?} {ending}: torn WAL");
            assert_eq!(
                contents.batches,
                &stream[..ACKED],
                "{policy:?} {ending}: acknowledged batches missing from the WAL"
            );
            cleanup_supervised(&path);
        }
    }
}

// ---------------------------------------------------------------------------
// Deferred checkpoints: a supervised checkpoint step only encodes; the
// checkpointer's I/O thread writes the checkpoint while later steps run.

/// Checkpoint interval of the deferred-checkpoint drills (HORIZON = 3 × 6).
const EVERY: u64 = 6;

#[test]
fn panic_right_after_a_checkpoint_step_restores_that_checkpoint() {
    let gridded = dataset();
    let expected = engine().run_gridded(&gridded);
    for policy in POLICIES {
        let path = temp_path("after-ckpt");
        // Step EVERY − 1 hands the checkpoint at EVERY to the I/O thread;
        // step EVERY panics at once.
        let faulty = FaultyEngine::transient(engine(), EVERY);
        let mut sup = Supervisor::create(faulty, &path, 13, policy)
            .expect("create supervisor")
            .with_checkpoints(EVERY);
        let mut verdicts = Vec::new();
        let mut source = TimelineSource::from_gridded(&gridded);
        while let Some(batch) = source.next_batch() {
            verdicts.push(sup.step(batch).expect("supervised step"));
        }
        assert!(
            matches!(verdicts[EVERY as usize], StepVerdict::Recovered { attempts: 2, .. }),
            "{policy:?}: {:?}",
            verdicts[EVERY as usize]
        );
        // The rollback waited for the checkpoint: recovery restored it
        // rather than replaying the log from the start.
        assert_eq!(sup.engine().restored_at, Some(EVERY), "{policy:?}: checkpoint not restored");
        let stats = *sup.stats();
        assert_eq!((stats.recovered, stats.poisoned, stats.steps), (1, 0, HORIZON as u64));
        assert_eq!(stats.checkpoints, HORIZON as u64 / EVERY, "{policy:?}");
        assert_eq!(sup.release().expect("release"), expected, "{policy:?}: bits differ");

        let mut replayed = engine();
        let recovery = replayed.recover(&path).expect("recover the supervised WAL");
        assert_eq!(recovery.checkpoint, CheckpointUse::Restored { at: HORIZON as u64 });
        assert_eq!(replayed.release(), expected, "{policy:?}: replay not bit-identical");
        cleanup_supervised(&path);
    }
}

#[test]
fn dropping_the_supervisor_mid_checkpoint_leaves_a_restorable_sidecar() {
    let stream = batches();
    let refs = prefix_references();
    for upto in [EVERY, 2 * EVERY] {
        let path = temp_path("drop-ckpt");
        let mut sup = Supervisor::create(engine(), &path, 13, FsyncPolicy::EveryBatch)
            .expect("create supervisor")
            .with_checkpoints(EVERY);
        for batch in &stream[..upto as usize] {
            sup.step(batch).expect("supervised step");
        }
        assert_eq!(sup.stats().checkpoints, upto / EVERY);
        // The last step handed its checkpoint off; the drop must finish it.
        drop(sup);
        let mut e = engine();
        let recovery = e.recover(&path).expect("recover after the drop");
        assert_eq!(recovery.checkpoint, CheckpointUse::Restored { at: upto }, "upto={upto}");
        assert_eq!(recovery.replayed, 0, "upto={upto}");
        assert_eq!(e.release(), refs[upto as usize], "upto={upto}: not bit-identical");
        cleanup_supervised(&path);
    }
}

#[test]
fn a_failed_checkpoint_surfaces_at_the_next_wait_point() {
    let stream = batches();
    let expected = engine().run_gridded(&dataset());
    for wait_point in ["step", "rollback", "release"] {
        let path = temp_path("ckpt-fail");
        // Only the rollback case crashes a step: the one after the
        // checkpoint step.
        let fault_at = if wait_point == "rollback" { EVERY } else { u64::MAX };
        let faulty = FaultyEngine::transient(engine(), fault_at);
        let mut sup = Supervisor::create(faulty, &path, 13, FsyncPolicy::EveryBatch)
            .expect("create supervisor")
            .with_checkpoints(EVERY);
        // A directory holds the name of the checkpoint's temporary file, so
        // the I/O thread cannot create it.
        let sidecar = Checkpointer::sidecar(&path);
        let mut blocker = sidecar.clone().into_os_string();
        blocker.push(".tmp");
        let blocker = PathBuf::from(blocker);
        std::fs::create_dir(&blocker).expect("block the temporary file");
        for batch in &stream[..EVERY as usize] {
            let verdict = sup.step(batch).expect("a checkpoint step only encodes");
            assert!(matches!(verdict, StepVerdict::Stepped(_)), "{verdict:?}");
        }
        assert_eq!(sup.stats().checkpoints, 1);
        let logged = match wait_point {
            "step" => {
                let next = 2 * EVERY as usize;
                for batch in &stream[EVERY as usize..next - 1] {
                    sup.step(batch).expect("steps between checkpoints do not wait");
                }
                let err = sup.step(&stream[next - 1]).expect_err("the next checkpoint step waits");
                assert!(matches!(err, SuperviseError::Wal(WalError::Io(_))), "{err}");
                next
            }
            "rollback" => {
                let err = sup.step(&stream[EVERY as usize]).expect_err("the rollback waits");
                assert!(matches!(err, SuperviseError::Wal(WalError::Io(_))), "{err}");
                // Reported after the rollback: the crashing batch is gone.
                let contents = WalContents::read(&path).expect("read WAL");
                assert_eq!(contents.batches, &stream[..EVERY as usize]);
                EVERY as usize
            }
            _ => {
                let err = sup.release().expect_err("release waits for the checkpoint");
                assert!(matches!(err, SuperviseError::Wal(WalError::Io(_))), "{err}");
                EVERY as usize
            }
        };
        drop(sup);
        assert!(!sidecar.exists(), "{wait_point}: a failed checkpoint left a sidecar");

        // Every stepped batch is in the log: resume and finish the stream.
        let (mut resumed, recovery) =
            Supervisor::resume(engine(), &path, FsyncPolicy::EveryBatch).expect("resume");
        assert_eq!(recovery.next_timestamp(), logged as u64, "{wait_point}");
        assert_eq!(recovery.checkpoint, CheckpointUse::None, "{wait_point}");
        for batch in &stream[logged..] {
            resumed.step(batch).expect("resumed step");
        }
        assert_eq!(resumed.release().expect("release"), expected, "{wait_point}: bits differ");
        std::fs::remove_dir(&blocker).expect("remove the blocker");
        cleanup_supervised(&path);
    }
}

#[test]
fn compaction_bounds_resident_cells_over_long_stream() {
    const T: u64 = 10_000;
    const MARK: usize = 4_000;
    let gridded = RandomWalkConfig { users: 50, timestamps: T, churn: 0.05, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(23))
        .discretize(&UniformGrid::unit(5));
    let config = RetraSynConfig::new(1.0, 5).with_lambda(10.0);
    let mut plain = RetraSyn::population_division(config.clone(), UniformGrid::unit(5), 3);
    let mut compacting =
        RetraSyn::population_division(config.with_compaction(MARK), UniformGrid::unit(5), 3);

    // Compaction is operational only: it must not change the session
    // identity (a WAL recorded by one must replay into the other).
    assert_eq!(plain.fingerprint(), compacting.fingerprint());

    let mut source = TimelineSource::from_gridded(&gridded);
    let mut max_resident = 0usize;
    while let Some(batch) = source.next_batch() {
        let t = compacting.next_timestamp();
        let a = compacting.step(t, batch);
        let b = plain.step(t, batch);
        assert_eq!(a, b, "step outcomes diverged at t={t}");
        let resident = compacting.resident_cells();
        max_resident = max_resident.max(resident);
        // The bound: mark plus at most one step's growth (live streams
        // each gain one cell per step; finished rows freeze on trigger).
        assert!(
            resident <= MARK + 2 * a.active + 64,
            "t={t}: resident {resident} cells blew past the high-water mark {MARK}"
        );
        if t.is_multiple_of(1000) {
            // The live view is served transparently across live + frozen.
            assert_eq!(
                compacting.snapshot().occupancy(25),
                plain.snapshot().occupancy(25),
                "snapshot diverged at t={t}"
            );
        }
    }
    let stats = compacting.compaction_stats();
    assert!(stats.runs > 0, "the mark was never hit in 10k timestamps");
    assert_eq!(stats.overflows, 0, "live population alone exceeded the mark");
    assert!(stats.frozen_cells > 0);

    // The memory bound is real: the uncompacted engine holds every cell
    // ever synthesized, the compacted one only O(live + mark).
    let uncompacted = plain.resident_cells();
    assert!(
        uncompacted > 4 * max_resident,
        "compaction saved nothing: {uncompacted} vs max {max_resident}"
    );

    // And it is invisible in the output: bit-identical releases.
    assert_eq!(compacting.release(), plain.release());
}
