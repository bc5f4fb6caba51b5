//! Persistent worker pools for the parallel phases (§VII acceleration).
//!
//! The seed implementation spawned fresh scoped threads on every timestamp,
//! paying thread startup on the critical per-step path. The task-generic
//! `WorkerPool` keeps workers alive for the lifetime of their owner and
//! shuttles owned job state through channels — no locks, no shared mutable
//! state, and no `unsafe` lifetime erasure (the crate forbids `unsafe`).
//!
//! A `PoolJob` is a self-contained unit of shard work: it owns its input
//! buffers, its seed and an `Arc` snapshot of whatever read-only state the
//! pass needs, and is transformed in place by `PoolJob::run`. Two
//! subsystems instantiate the pool:
//!
//! - [`SynthesisPool`] (this module) runs the synthesis passes over
//!   `ShardState` column shards;
//! - [`crate::collect::CollectionPool`] runs counter-based per-user
//!   collection rounds over domain or reporter-value shards.
//!
//! Determinism contract shared by both: shards are fixed-size disjoint
//! ranges and replies are re-assembled by shard index, so output never
//! depends on worker scheduling. Synthesis shards are seeded from the
//! caller's RNG in shard order, so a fixed `(seed, threads)` pair yields
//! identical output; a collection round draws no seeds (its one Philox
//! key addresses every draw), so its output is the same at every thread
//! count.
//!
//! # Synthesis shards
//!
//! A synthesis shard is a disjoint index range of the store's head columns,
//! copied into the shard's own `Columns` (five contiguous `memcpy`s).
//! Workers append tail-arena nodes into a private per-shard buffer with
//! shard-local addresses; the caller's merge relocates each buffer to the
//! end of the shared arena in shard order and offsets the survivors' links.
//! A `ShardTask` selects the pass a worker performs over its shard:
//!
//! - `ShardTask::QuitExtend` — the fused steady-state pass: per stream,
//!   one cached quit draw; quitters retire into the shard's own finished
//!   columns, survivors extend by one alias draw.
//! - `ShardTask::QuitKeys` — phase one of the two-phase parallel
//!   downward adjustment: quit draws as above, then one log-domain
//!   Efraimidis–Spirakis key `ln(u)/w` per survivor (weight `w` = the
//!   cached quitting-distribution mass at the stream's last cell; the log
//!   form orders identically to `u^{1/w}` without underflowing for tiny
//!   weights). The caller performs the global top-`excess` cut over all
//!   shards' keys.
//! - `ShardTask::RetireExtend` — phase two: retire the pre-selected
//!   victims (positions sorted descending so `swap_remove` stays valid),
//!   then extend the remaining streams.
//! - `ShardTask::Spawn` — upward size adjustment: append the shard's
//!   pre-drawn enter cells as fresh length-1 rows with ids contiguous
//!   from the shard's base. The enter draws themselves happen on the
//!   caller in a single sequential pass (RNG consumption identical to
//!   the sequential spawn at every thread count), so this pass touches
//!   no randomness at all — only the column pushes move off the caller.
//!
//! [`SyntheticDb`]: crate::synthesis::SyntheticDb

use crate::sampler::SamplerCache;
use crate::store::{Columns, TailNode, NO_LINK};
use crate::synthesis::{extend_cols, quit_pass_cols};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retrasyn_geo::CellId;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Floor for Efraimidis–Spirakis weights so zero-mass cells keep a strict
/// ordering (matches the sequential shrink path).
pub(crate) const MIN_SHRINK_WEIGHT: f64 = 1e-12;

/// A worker pool died mid-batch: a worker panicked, or every worker hung
/// up. The pool is *poisoned* after this error — outstanding shard state
/// held by the dead worker is lost, so the owner must drop the pool (a
/// fresh one is spawned on the next parallel pass) and treat the
/// in-progress step as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// A single worker thread panicked mid-job; `worker` is its index in
    /// spawn order (shards `idx` with `idx % threads == worker` were routed
    /// to it).
    WorkerPanicked {
        /// Index of the dead worker, in spawn order.
        worker: usize,
    },
    /// Every worker exited — the reply channel disconnected.
    Disconnected,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanicked { worker } => {
                write!(f, "pool worker {worker} panicked mid-job")
            }
            PoolError::Disconnected => f.write_str("all pool workers exited unexpectedly"),
        }
    }
}

impl std::error::Error for PoolError {}

/// A self-contained unit of shard work: owns its inputs and result
/// buffers, is transformed in place on a worker thread.
pub(crate) trait PoolJob: Send + 'static {
    /// Perform the work. Runs on a pool worker; must not panic on valid
    /// input (a panicking worker fails the whole pool loudly).
    fn run(&mut self);
}

/// One queued job, tagged with its shard position so replies re-assemble
/// deterministically.
struct Tagged<J> {
    idx: usize,
    job: J,
}

/// A fixed-size pool of persistent workers executing `PoolJob`s.
///
/// Usage contract: every [`WorkerPool::submit`] must be matched by one
/// [`WorkerPool::recv`] before the next batch begins; the pool itself
/// keeps no outstanding-job state.
pub(crate) struct WorkerPool<J: PoolJob> {
    senders: Vec<Sender<Tagged<J>>>,
    replies: Receiver<Tagged<J>>,
    handles: Vec<JoinHandle<()>>,
}

impl<J: PoolJob> std::fmt::Debug for WorkerPool<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.senders.len()).finish()
    }
}

impl<J: PoolJob> WorkerPool<J> {
    /// Spawn `threads` workers (at least one), named `{name}-{i}`.
    pub(crate) fn new(threads: usize, name: &str) -> Self {
        let threads = threads.max(1);
        let (reply_tx, replies) = channel::<Tagged<J>>();
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let (tx, rx) = channel::<Tagged<J>>();
            let reply_tx = reply_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("{name}-{worker}"))
                .spawn(move || worker_loop(rx, reply_tx))
                .expect("failed to spawn pool worker");
            senders.push(tx);
            handles.push(handle);
        }
        WorkerPool { senders, replies, handles }
    }

    /// Number of workers.
    pub(crate) fn threads(&self) -> usize {
        self.senders.len()
    }

    /// OS thread ids of the workers, in spawn order — an identity witness:
    /// equal id lists across a session reset prove the pool was reused,
    /// not silently re-spawned.
    pub(crate) fn worker_ids(&self) -> Vec<std::thread::ThreadId> {
        self.handles.iter().map(|h| h.thread().id()).collect()
    }

    /// Queue `job` for shard `idx` on worker `idx % threads`. Fails with
    /// [`PoolError::WorkerPanicked`] if that worker is gone (its job
    /// channel disconnected).
    pub(crate) fn submit(&self, idx: usize, job: J) -> Result<(), PoolError> {
        let worker = idx % self.senders.len();
        self.senders[worker]
            .send(Tagged { idx, job })
            .map_err(|_| PoolError::WorkerPanicked { worker })
    }

    /// Receive one completed job and its shard index, detecting a dead
    /// worker instead of hanging forever: a panicked worker never sends
    /// its reply, and the shared channel only disconnects when *every*
    /// worker is gone, so a bare blocking `recv` would wait permanently on
    /// the first worker panic. The caller decides whether a [`PoolError`]
    /// is recoverable (drop the pool, recover the session) or fatal (the
    /// legacy infallible paths panic loudly with the error's message).
    pub(crate) fn recv(&self) -> Result<(usize, J), PoolError> {
        use std::sync::mpsc::RecvTimeoutError;
        loop {
            match self.replies.recv_timeout(std::time::Duration::from_millis(100)) {
                Ok(Tagged { idx, job }) => return Ok((idx, job)),
                Err(RecvTimeoutError::Timeout) => {
                    // Workers only exit when their job channel disconnects
                    // (pool drop) or they panic; during a batch the senders
                    // are alive, so a finished worker means a panic.
                    if let Some(worker) = self.handles.iter().position(|h| h.is_finished()) {
                        return Err(PoolError::WorkerPanicked { worker });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Err(PoolError::Disconnected),
            }
        }
    }
}

impl<J: PoolJob> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        // Disconnecting the job channels ends each worker's recv loop.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop<J: PoolJob>(rx: Receiver<Tagged<J>>, reply_tx: Sender<Tagged<J>>) {
    while let Ok(Tagged { idx, mut job }) = rx.recv() {
        job.run();
        if reply_tx.send(Tagged { idx, job }).is_err() {
            return;
        }
    }
}

/// Which pass a synthesis worker runs over its shard.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ShardTask {
    /// Fused quit + extend (steady state: no downward adjustment possible).
    QuitExtend {
        /// Length-reweighting constant of Eq. 8.
        lambda: f64,
    },
    /// Quit draws, then one Efraimidis–Spirakis key per survivor (shrink
    /// pending; no extension yet).
    QuitKeys {
        /// Length-reweighting constant of Eq. 8.
        lambda: f64,
    },
    /// Retire the shard's pre-selected victims, then extend the remainder.
    RetireExtend,
    /// Append the shard's pre-drawn enter cells as fresh length-1 rows
    /// starting at timestamp `t` (upward size adjustment; no RNG use).
    Spawn {
        /// Timestamp the spawned streams begin at.
        t: u64,
    },
}

/// One worker's owned slice of the synthetic database plus its reusable
/// result buffers. Buffers keep their capacity as the state shuttles
/// between the caller and the workers, so the steady-state step performs
/// no heap allocation.
#[derive(Debug, Default)]
pub(crate) struct ShardState {
    /// The live stream columns owned by this shard (a disjoint index range
    /// of the store's live columns).
    pub(crate) cols: Columns,
    /// Columns of streams retired by this shard during the current step;
    /// drained into the store's finished region when shards merge
    /// (id-sorted at `finish`).
    pub(crate) finished: Columns,
    /// Tail nodes appended by this shard during the current pass, with
    /// shard-local addresses; the merge relocates them into the shared
    /// arena and offsets the survivors' links.
    pub(crate) appended: Vec<TailNode>,
    /// Efraimidis–Spirakis keys, parallel to `cols` after a
    /// `ShardTask::QuitKeys` pass.
    pub(crate) keys: Vec<f64>,
    /// Victim positions for `ShardTask::RetireExtend`, sorted descending.
    pub(crate) victims: Vec<u32>,
    /// Pre-drawn enter cells for `ShardTask::Spawn` (drawn sequentially
    /// by the caller; consumed by the worker's column pushes).
    pub(crate) spawn_cells: Vec<CellId>,
    /// First stream id of this shard's spawn range; ids are contiguous
    /// from here, in draw order.
    pub(crate) spawn_base: u64,
}

/// One unit of synthesis work: the shard state plus the pass selector and
/// an `Arc` snapshot of the sampler cache.
struct SynthJob {
    state: ShardState,
    cache: Arc<SamplerCache>,
    seed: u64,
    task: ShardTask,
}

impl PoolJob for SynthJob {
    fn run(&mut self) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let state = &mut self.state;
        state.appended.clear();
        match self.task {
            ShardTask::QuitExtend { lambda } => {
                quit_pass_cols(
                    &mut state.cols,
                    &mut state.finished,
                    &mut state.appended,
                    &self.cache,
                    lambda,
                    true,
                    &mut rng,
                );
            }
            ShardTask::QuitKeys { lambda } => {
                quit_pass_cols(
                    &mut state.cols,
                    &mut state.finished,
                    &mut state.appended,
                    &self.cache,
                    lambda,
                    false,
                    &mut rng,
                );
                state.keys.clear();
                for &head in &state.cols.heads {
                    let w = self.cache.quit_weight(head).max(MIN_SHRINK_WEIGHT);
                    let u: f64 = rng.random();
                    state.keys.push(u.ln() / w);
                }
            }
            ShardTask::RetireExtend => {
                // Victims arrive sorted descending, so each `swap_remove`
                // moves a row from past the remaining victim positions.
                for k in 0..state.victims.len() {
                    // xtask:order(victims arrive sorted descending, per the comment above)
                    state.cols.swap_remove_into(state.victims[k] as usize, &mut state.finished);
                }
                state.victims.clear();
                extend_cols(&mut state.cols, &mut state.appended, &self.cache, &mut rng);
            }
            ShardTask::Spawn { t } => {
                for (k, &cell) in state.spawn_cells.iter().enumerate() {
                    state.cols.push(state.spawn_base + k as u64, t, cell, 1, NO_LINK);
                }
                state.spawn_cells.clear();
            }
        }
    }
}

/// The synthesis instantiation of `WorkerPool`.
pub struct SynthesisPool {
    pool: WorkerPool<SynthJob>,
}

impl std::fmt::Debug for SynthesisPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynthesisPool").field("threads", &self.pool.threads()).finish()
    }
}

impl SynthesisPool {
    /// Spawn `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        SynthesisPool { pool: WorkerPool::new(threads, "retrasyn-synth") }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// OS thread ids of the workers (see `WorkerPool::worker_ids`).
    pub fn worker_ids(&self) -> Vec<std::thread::ThreadId> {
        self.pool.worker_ids()
    }

    /// Run `task` over every non-empty shard, in parallel.
    ///
    /// `shards[i]` is processed by worker `i % threads` with
    /// `StdRng::seed_from_u64(seeds[i])`; shard states come back in place,
    /// preserving both order and buffer capacity.
    ///
    /// On a [`PoolError`] the pass is incomplete: shard states held by the
    /// dead worker are lost, so the owning database is in an unspecified
    /// state and must be recovered or reset, and this pool must be
    /// dropped.
    pub(crate) fn run_shards(
        &self,
        shards: &mut [ShardState],
        seeds: &[u64],
        cache: &Arc<SamplerCache>,
        task: ShardTask,
    ) -> Result<(), PoolError> {
        debug_assert_eq!(shards.len(), seeds.len());
        let mut outstanding = 0usize;
        for (idx, state) in shards.iter_mut().enumerate() {
            // A shard with no work returns unchanged without a dispatch;
            // spawn shards carry their work in `spawn_cells`, not `cols`.
            let empty = match task {
                ShardTask::Spawn { .. } => state.spawn_cells.is_empty(),
                _ => state.cols.is_empty(),
            };
            if empty {
                continue;
            }
            self.pool.submit(
                idx,
                SynthJob {
                    state: std::mem::take(state),
                    cache: Arc::clone(cache),
                    seed: seeds[idx],
                    task,
                },
            )?;
            outstanding += 1;
        }
        for _ in 0..outstanding {
            let (idx, job) = self.pool.recv()?;
            shards[idx] = job.state;
        }
        Ok(())
    }
}

/// Draw one seed per shard from the caller's RNG, in shard order, into the
/// reusable `seeds` buffer.
pub(crate) fn draw_seeds<R: Rng + ?Sized>(seeds: &mut Vec<u64>, count: usize, rng: &mut R) {
    seeds.clear();
    seeds.extend((0..count).map(|_| rng.random::<u64>()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_spawns_and_shuts_down() {
        let pool = SynthesisPool::new(3);
        assert_eq!(pool.threads(), 3);
        drop(pool); // must not hang
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = SynthesisPool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    /// The generic pool re-assembles replies by shard index and preserves
    /// job state across the worker round-trip.
    #[test]
    fn generic_pool_round_trips_jobs_by_index() {
        struct Doubler {
            xs: Vec<u64>,
        }
        impl PoolJob for Doubler {
            fn run(&mut self) {
                for x in &mut self.xs {
                    *x *= 2;
                }
            }
        }
        let pool: WorkerPool<Doubler> = WorkerPool::new(3, "test-pool");
        for idx in 0..8 {
            pool.submit(idx, Doubler { xs: vec![idx as u64; 4] }).unwrap();
        }
        let mut seen = [false; 8];
        for _ in 0..8 {
            let (idx, job) = pool.recv().unwrap();
            assert!(!seen[idx]);
            seen[idx] = true;
            assert_eq!(job.xs, vec![2 * idx as u64; 4]);
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// A panicking job surfaces as a typed `PoolError` carrying the dead
    /// worker's index — never a process abort, never a permanent hang —
    /// and the pool still shuts down cleanly afterwards.
    #[test]
    fn worker_panic_reports_typed_error_with_index() {
        struct Bomb {
            explode: bool,
        }
        impl PoolJob for Bomb {
            fn run(&mut self) {
                if self.explode {
                    panic!("injected worker fault");
                }
            }
        }
        let pool: WorkerPool<Bomb> = WorkerPool::new(2, "bomb-pool");
        pool.submit(0, Bomb { explode: false }).unwrap();
        pool.submit(1, Bomb { explode: true }).unwrap();
        let mut errors = Vec::new();
        for _ in 0..2 {
            if let Err(e) = pool.recv() {
                errors.push(e);
            }
        }
        assert_eq!(errors, vec![PoolError::WorkerPanicked { worker: 1 }]);
        assert!(errors[0].to_string().contains("panicked"));
        drop(pool); // the dead worker must not wedge the shutdown join
    }
}
