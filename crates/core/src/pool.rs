//! The persistent worker pool behind pooled per-user collection.
//!
//! Spawning fresh scoped threads on every timestamp would pay thread
//! startup on the critical per-step path. The task-generic `WorkerPool`
//! keeps workers alive for the lifetime of their owner and shuttles owned
//! job state through channels — no locks, no shared mutable state, and no
//! `unsafe` lifetime erasure (the crate forbids `unsafe`).
//!
//! A `PoolJob` is a self-contained unit of shard work: it owns its input
//! buffers and an `Arc` snapshot of whatever read-only state the pass
//! needs, and is transformed in place by `PoolJob::run`.
//! [`crate::collect::CollectionPool`] instantiates it for counter-based
//! per-user collection rounds over domain or reporter-value shards.
//! Replies are re-assembled by shard index, so output never depends on
//! worker scheduling (see the determinism contract in the crate docs).

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// A worker pool died mid-batch: a worker panicked, or every worker hung
/// up. The pool is *poisoned* after this error — outstanding shard state
/// held by the dead worker is lost, so the owner must drop the pool (a
/// fresh one is spawned on the next pooled round) and treat the
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

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn pool_spawns_and_shuts_down() {
        let pool: WorkerPool<Doubler> = WorkerPool::new(3, "test-pool");
        assert_eq!(pool.threads(), 3);
        drop(pool); // must not hang
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool: WorkerPool<Doubler> = WorkerPool::new(0, "test-pool");
        assert_eq!(pool.threads(), 1);
    }

    /// The generic pool re-assembles replies by shard index and preserves
    /// job state across the worker round-trip.
    #[test]
    fn generic_pool_round_trips_jobs_by_index() {
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
