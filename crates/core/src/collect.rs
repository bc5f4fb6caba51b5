//! Sharded per-user LDP collection pipeline (§IV-B user-side
//! computation, §VII acceleration).
//!
//! Per-user OUE perturbation dominates per-timestamp cost in
//! [`ReportMode::PerUser`](retrasyn_ldp::ReportMode::PerUser) sessions
//! and is embarrassingly parallel across users. Every per-user round runs
//! one kernel, the counter-based [`Oue::collect_ones_blocked`]: each
//! draw is a pure function of `(key, reporter row, position)`, so a round
//! needs exactly **one** Philox key however many workers run it. The
//! [`CollectionPool`] runs that kernel on the task-generic `WorkerPool`
//! ([`CollectionPool::collect_ones_blocked`]):
//!
//! - dense rounds shard the **domain** into [`GANG_POS`]-aligned ranges
//!   (each worker sweeps all reporters over its range,
//!   [`Oue::blocked_tally_range`]) and the caller stitches the disjoint
//!   ranges;
//! - sparse rounds shard the **reporters** with global row bases
//!   ([`Oue::blocked_tally_sparse`]) and merge by exact `u64` addition.
//!
//! Determinism contract: a fixed key gives bit-identical counts across
//! runs *and* thread counts — not merely distribution-equivalent ones —
//! so the collection thread count never changes a session's output.
//!
//! Shard buffers (values and ones) shuttle between the caller and the
//! workers and keep their capacity, so a steady-state collection round
//! performs zero heap allocations after warm-up.

use crate::pool::{PoolError, PoolJob, WorkerPool};
use retrasyn_ldp::{LdpError, Oue, Philox, GANG_POS};
use std::sync::Arc;

/// Why a sharded collection round failed.
#[derive(Debug)]
pub enum CollectError {
    /// The LDP mechanism itself rejected the round (e.g. an out-of-domain
    /// reporter value). Deterministic: the same inputs fail the same way
    /// on every replay.
    Ldp(LdpError),
    /// The worker pool died mid-round. The pool is poisoned and must be
    /// dropped; the partially merged accumulator is unusable.
    Pool(PoolError),
}

impl std::fmt::Display for CollectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectError::Ldp(e) => write!(f, "{e}"),
            CollectError::Pool(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CollectError {}

impl From<LdpError> for CollectError {
    fn from(e: LdpError) -> Self {
        CollectError::Ldp(e)
    }
}

impl From<PoolError> for CollectError {
    fn from(e: PoolError) -> Self {
        CollectError::Pool(e)
    }
}

/// One worker's owned slice of a collection round plus its private
/// accumulator.
#[derive(Debug, Default)]
struct CollectShard {
    /// The reporter values assigned to this shard: a contiguous range of
    /// the round's value slice (sparse), or a full copy of it (dense,
    /// where the *domain* is sharded instead).
    values: Vec<usize>,
    /// Private ones accumulator — domain-sized and merged by addition
    /// (sparse), or range-sized and stitched (dense).
    ones: Vec<u64>,
}

/// What one collection worker runs over its shard.
enum CollectTask {
    /// Blocked dense tally of domain range `lo..hi` over *all* reporters.
    BlockedDense { ph: Philox, lo: usize, hi: usize },
    /// Blocked sparse walk over this shard's reporters at global row
    /// `base`, into a domain-sized accumulator.
    BlockedSparse { ph: Philox, base: u32 },
}

/// One unit of collection work: the shard, an `Arc` snapshot of the
/// oracle, and the task to run.
struct CollectJob {
    shard: CollectShard,
    oracle: Arc<Oue>,
    task: CollectTask,
    result: Result<(), LdpError>,
}

impl PoolJob for CollectJob {
    fn run(&mut self) {
        self.result = match self.task {
            CollectTask::BlockedDense { ref ph, lo, hi } => {
                self.shard.ones.clear();
                self.shard.ones.resize(hi - lo, 0);
                self.oracle.blocked_tally_range(
                    &self.shard.values,
                    0,
                    ph,
                    lo,
                    hi,
                    &mut self.shard.ones,
                )
            }
            CollectTask::BlockedSparse { ref ph, base } => {
                self.shard.ones.clear();
                self.shard.ones.resize(self.oracle.domain(), 0);
                self.oracle.blocked_tally_sparse(&self.shard.values, base, ph, &mut self.shard.ones)
            }
        };
    }
}

/// The collection instantiation of `WorkerPool`: a persistent pool of
/// counter-based collection workers plus the reusable shard buffers.
pub struct CollectionPool {
    pool: WorkerPool<CollectJob>,
    /// Reused shard states, indexed by shard; buffer capacity survives the
    /// worker round-trip.
    shards: Vec<CollectShard>,
}

impl std::fmt::Debug for CollectionPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectionPool").field("threads", &self.pool.threads()).finish()
    }
}

impl CollectionPool {
    /// Spawn `threads` collection workers (at least one).
    pub fn new(threads: usize) -> Self {
        let pool = WorkerPool::new(threads, "retrasyn-collect");
        let shards = (0..pool.threads()).map(|_| CollectShard::default()).collect();
        CollectionPool { pool, shards }
    }

    /// Number of workers (= shards per round).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Run one **blocked-kernel** collection round keyed by `ph`, filling
    /// `ones` with the per-position counts. Bit-identical to
    /// [`Oue::collect_ones_blocked`]`(values, 0, ph, ones)` at **any**
    /// thread count, because every Bernoulli draw is addressed by
    /// `(key, row, position)` rather than consumed from shared RNG state:
    ///
    /// - dense regime ([`Oue::blocked_dense`]): the *domain* is sharded
    ///   into [`GANG_POS`]-aligned ranges — each worker sweeps every
    ///   reporter over its own range, keeping its accumulator tile
    ///   L1-resident — and the disjoint ranges are stitched back;
    /// - sparse regime: the *reporters* are sharded with their global row
    ///   bases and the domain-sized accumulators merge by exact addition.
    ///
    /// No seeds are drawn here — the single `ph` key is the round's entire
    /// randomness. Zero heap allocations after warm-up. Returns the number
    /// of reporters.
    pub fn collect_ones_blocked(
        &mut self,
        oracle: &Arc<Oue>,
        values: &[usize],
        ph: &Philox,
        ones: &mut Vec<u64>,
    ) -> Result<u64, CollectError> {
        let shard_count = self.pool.threads();
        ones.clear();
        ones.resize(oracle.domain(), 0);
        if values.is_empty() {
            return Ok(0);
        }
        let mut outstanding = 0usize;
        if oracle.blocked_dense() {
            // Domain-sharded: gang-aligned ranges, full reporter copy per
            // worker.
            let gangs = oracle.domain().div_ceil(GANG_POS);
            let chunk = gangs.div_ceil(shard_count).max(1) * GANG_POS;
            for (idx, shard) in self.shards.iter_mut().enumerate() {
                let lo = (idx * chunk).min(oracle.domain());
                let hi = ((idx + 1) * chunk).min(oracle.domain());
                if lo >= hi {
                    continue;
                }
                shard.values.clear();
                shard.values.extend_from_slice(values);
                self.pool.submit(
                    idx,
                    CollectJob {
                        shard: std::mem::take(shard),
                        oracle: Arc::clone(oracle),
                        task: CollectTask::BlockedDense { ph: *ph, lo, hi },
                        result: Ok(()),
                    },
                )?;
                outstanding += 1;
            }
        } else {
            // Reporter-sharded: contiguous value ranges with global row
            // bases.
            let chunk = values.len().div_ceil(shard_count).max(1);
            for (idx, shard) in self.shards.iter_mut().enumerate() {
                let lo = (idx * chunk).min(values.len());
                let hi = ((idx + 1) * chunk).min(values.len());
                shard.values.clear();
                shard.values.extend_from_slice(&values[lo..hi]);
                if shard.values.is_empty() {
                    continue;
                }
                self.pool.submit(
                    idx,
                    CollectJob {
                        shard: std::mem::take(shard),
                        oracle: Arc::clone(oracle),
                        task: CollectTask::BlockedSparse { ph: *ph, base: lo as u32 },
                        result: Ok(()),
                    },
                )?;
                outstanding += 1;
            }
        }
        self.drain(outstanding, ones).map(|()| values.len() as u64)
    }

    /// Receive `outstanding` finished jobs, folding each successful
    /// shard's accumulator into `ones` (stitched for blocked-dense range
    /// shards, exact addition for sparse ones — both bit-identical regardless
    /// of arrival order) and returning the lowest-shard error if any
    /// worker failed, so the reported failure is scheduling-independent.
    /// A [`PoolError`] (dead worker) aborts the drain immediately — the
    /// remaining replies can never arrive.
    fn drain(&mut self, outstanding: usize, ones: &mut [u64]) -> Result<(), CollectError> {
        let mut err: Option<(usize, LdpError)> = None;
        for _ in 0..outstanding {
            let (idx, job) = self.pool.recv()?;
            match job.result {
                Ok(()) => {
                    let dst = match job.task {
                        CollectTask::BlockedDense { lo, hi, .. } => &mut ones[lo..hi],
                        CollectTask::BlockedSparse { .. } => &mut ones[..],
                    };
                    for (acc, &x) in dst.iter_mut().zip(&job.shard.ones) {
                        *acc += x;
                    }
                }
                Err(e) => {
                    if err.as_ref().is_none_or(|&(i, _)| idx < i) {
                        err = Some((idx, e));
                    }
                }
            }
            self.shards[idx] = job.shard;
        }
        match err {
            Some((_, e)) => Err(CollectError::Ldp(e)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_spawns_and_shuts_down() {
        let pool = CollectionPool::new(3);
        assert_eq!(pool.threads(), 3);
        drop(pool); // must not hang
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(CollectionPool::new(0).threads(), 1);
    }

    #[test]
    fn merged_counts_bound_by_reporters() {
        // Every position count is at most n, and the true-bit position of
        // each reporter contributes at most one — structural sanity of the
        // shard merge, in the dense (ε = 1) and sparse (ε = 3.5) regimes.
        for eps in [1.0, 3.5] {
            let oracle = Arc::new(Oue::new(eps, 32).unwrap());
            let values: Vec<usize> = (0..500).map(|i| i % 32).collect();
            let mut pool = CollectionPool::new(4);
            let mut ones = Vec::new();
            let n =
                pool.collect_ones_blocked(&oracle, &values, &Philox::new(9), &mut ones).unwrap();
            assert_eq!(n, 500);
            assert_eq!(ones.len(), 32);
            assert!(ones.iter().all(|&c| c <= 500), "eps={eps}");
            assert!(ones.iter().sum::<u64>() > 0, "eps={eps}");
        }
    }

    #[test]
    fn blocked_pool_is_bit_identical_to_unsharded_kernel() {
        // Dense (ε = 1 → q ≈ 0.27) shards the domain, sparse (ε = 3.5 →
        // q ≈ 0.029) shards the reporters; both must reproduce the
        // unsharded blocked round bit-for-bit at every thread count. The
        // ragged 321-position domain exercises the stitched tail shard.
        for eps in [1.0, 3.5] {
            let oracle = Arc::new(Oue::new(eps, 321).unwrap());
            let values: Vec<usize> = (0..500).map(|i| (i * 13 + 7) % 321).collect();
            let ph = Philox::new(0xabad_1dea_0042_0099);
            let mut expect = Vec::new();
            oracle.collect_ones_blocked(&values, 0, &ph, &mut expect).unwrap();
            for threads in [1usize, 3, 4, 7] {
                let mut pool = CollectionPool::new(threads);
                let mut ones = Vec::new();
                let n = pool.collect_ones_blocked(&oracle, &values, &ph, &mut ones).unwrap();
                assert_eq!(n, 500);
                assert_eq!(ones, expect, "eps={eps} threads={threads}");
            }
        }
    }

    #[test]
    fn blocked_pool_reports_out_of_domain() {
        for eps in [1.0, 3.5] {
            let oracle = Arc::new(Oue::new(eps, 8).unwrap());
            let mut pool = CollectionPool::new(2);
            let mut ones = Vec::new();
            let res = pool.collect_ones_blocked(&oracle, &[1, 2, 8], &Philox::new(1), &mut ones);
            assert!(res.is_err(), "eps={eps}");
        }
    }

    #[test]
    fn blocked_pool_empty_round_is_all_zero() {
        let oracle = Arc::new(Oue::new(1.0, 8).unwrap());
        let mut pool = CollectionPool::new(2);
        let mut ones = vec![7u64; 3];
        let n = pool.collect_ones_blocked(&oracle, &[], &Philox::new(5), &mut ones).unwrap();
        assert_eq!(n, 0);
        assert_eq!(ones, vec![0u64; 8]);
    }
}
