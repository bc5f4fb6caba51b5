//! Optimized Unary Encoding (OUE) frequency oracle.
//!
//! OUE (Wang et al., USENIX Security 2017) encodes a categorical value from a
//! domain of size `d` as a one-hot bit vector and perturbs each bit
//! independently (paper Eq. 2):
//!
//! ```text
//! Pr[report bit = 1 | true bit = 1] = p = 1/2
//! Pr[report bit = 1 | true bit = 0] = q = 1/(e^ε + 1)
//! ```
//!
//! The curator debiases position counts into unbiased frequency estimates
//! `f̂(x) = (ones_x/n − q)/(p − q)` with variance `4·e^ε/(n·(e^ε − 1)²)`
//! (paper Eq. 3). Each user's whole vector satisfies ε-LDP because flipping
//! the input moves exactly two bits, and `(p/q)·((1−q)/(1−p)) = e^ε`.

use crate::binomial;
use crate::error::LdpError;
use crate::philox::{Philox, PhiloxRng};
use rand::Rng;

/// A perturbed unary-encoded report: a packed bit vector of domain length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitReport {
    words: Vec<u64>,
    len: usize,
}

impl BitReport {
    /// An all-zero report of length `len`.
    pub fn zeros(len: usize) -> Self {
        BitReport { words: vec![0u64; len.div_ceil(64)], len }
    }

    /// Number of bit positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the report has no positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to `v`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// The packed 64-bit words backing the report (little-endian bit
    /// order within each word; bits at positions `>= len()` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Clear the report and resize it to `len` positions, reusing the
    /// existing word buffer when large enough — the zero-allocation reset
    /// behind [`Oue::perturb_into`].
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Communication cost of this report in bits (paper §IV-B: the overhead
    /// per report is the encoding-vector length).
    pub fn communication_bits(&self) -> usize {
        self.len
    }
}

/// The OUE mechanism for a fixed domain size and privacy budget.
#[derive(Debug, Clone)]
pub struct Oue {
    eps: f64,
    domain: usize,
    q: f64,
    /// `1 / ln(1−q)`, precomputed for the geometric-skip draw.
    inv_ln_1mq: f64,
    /// `⌊q · 2^64⌋`: `next_u64() < thresh_q` is a Bernoulli(q) draw
    /// with bias below 2^−64 — finer than the 2^−53 granularity of an
    /// `f64` comparison.
    thresh_q: u64,
    /// `⌊q · 2^32⌋`: the 32-bit threshold of the blocked kernel, which
    /// compares one Philox word per position (bias below 2^−32 —
    /// undetectable at any reporter count this side of 2^64 draws).
    thresh_q32: u32,
}

/// The probability a true 1-bit is reported as 1.
pub const OUE_P: f64 = 0.5;

/// `p = 1/2` as an exact 16-bit comparison threshold (`halfword <
/// 2^15`; the tie at 2^15 has a zero low half, so it never extends).
const OUE_P_THRESH16: u32 = 1 << 15;

/// At or above this `q` the sequential reference kernel
/// ([`Oue::perturb_tally_into`]) uses the dense
/// branchless Bernoulli pass (one predictable-latency draw per
/// position); below it reports are sparse enough that geometric skipping
/// (one logarithm per reported 1, ≈ d·q of them) is cheaper. The
/// crossover is the ratio of a pipelined `next_u64`+compare+add
/// (measured 1.34 ns/position at x86-64-v3) to a serial `ln` landing
/// (18–21 ns): q* ≈ 1.34/18 ≈ 0.074. Re-measure with
/// `collection_probe` if `BENCH_collection.json` moves on new hardware.
const DENSE_MIN_Q: f64 = 0.08;

/// Dense/sparse crossover of the **blocked** kernel. Blocked dense draws
/// are cheaper than sequential ones (the Philox halfword gangs pipeline
/// with no RNG carry chain: measured 0.77 ns/position at x86-64-v3 vs
/// 1.34 ns fused), while a sparse landing costs the same serial `ln`
/// either way (18–21 ns) — so the crossover sits lower than the
/// sequential kernel's: q* = 0.77/18 ≈ 0.043, i.e. dense pays off
/// already at ε ≲ ln(1/0.04 − 1) ≈ 3.2. Measured by the
/// `collection_probe` crossover sweep; re-measure alongside
/// `DENSE_MIN_Q` if `BENCH_collection.json` regresses on new hardware.
const BLOCKED_DENSE_MIN_Q: f64 = 0.04;

/// Positions covered by one Philox gang: 8 lanes × 8 halfwords per
/// block. The dense blocked kernel spends **16 random bits per
/// Bernoulli draw** — halving the Philox work per position relative to
/// a 32-bit draw — and stays *exact* w.r.t. the 32-bit threshold by
/// spending another 16 addressed bits on the 2^−16-rare halfword that
/// ties the threshold's high half (see [`Oue::blocked_tally_range`]).
const GANG_POS: usize = 64;

/// Dense blocked-kernel domain tile: positions accumulated per pass over
/// the reporters. 2048 × 8-byte counters = 16 KiB — half a typical L1d,
/// leaving the rest for the streaming gang words — so at large domains
/// the accumulator never falls out of L1 (a multiple of [`GANG_POS`]).
const DOMAIN_TILE: usize = 2048;

impl Oue {
    /// Create an OUE mechanism with budget `eps` over `domain` values.
    pub fn new(eps: f64, domain: usize) -> Result<Self, LdpError> {
        if !eps.is_finite() || eps <= 0.0 {
            return Err(LdpError::InvalidBudget(eps));
        }
        if domain < 2 {
            return Err(LdpError::InvalidDomain(domain));
        }
        let q = 1.0 / (eps.exp() + 1.0);
        // q < 1/2, so q·2^64 < 2^63 never saturates the cast.
        let thresh_q = (q * (u64::MAX as f64 + 1.0)) as u64;
        let thresh_q32 = (q * (u32::MAX as f64 + 1.0)) as u32;
        Ok(Oue { eps, domain, q, inv_ln_1mq: (1.0 - q).ln().recip(), thresh_q, thresh_q32 })
    }

    /// Privacy budget ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Domain size `d`.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// The 0→1 flip probability `q = 1/(e^ε + 1)`.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Perturb a single user's value into a bit-vector report (user side;
    /// paper §IV-B user-side computation). Allocating wrapper around
    /// [`Self::perturb_into`].
    pub fn perturb<R: Rng + ?Sized>(
        &self,
        value: usize,
        rng: &mut R,
    ) -> Result<BitReport, LdpError> {
        let mut report = BitReport::zeros(self.domain);
        self.perturb_into(value, &mut report, rng)?;
        Ok(report)
    }

    /// Perturb a single user's value into a caller-provided report buffer —
    /// zero heap allocations once the buffer has reached domain size, so a
    /// collection round over n users reuses one buffer instead of
    /// materializing n reports.
    ///
    /// The 0-bits are sampled by *geometric skipping*: instead of one
    /// Bernoulli(q) draw per position, the gap to the next reported 1 is
    /// drawn as `⌊ln(1−U)/ln(1−q)⌋`, which is distributionally identical to
    /// the independent per-bit process and costs O(d·q) draws instead of
    /// O(d) (for ε = 1, q ≈ 0.27: ~3.7× fewer variates). The true bit is
    /// then overwritten with its Bernoulli(p = 1/2) draw.
    pub fn perturb_into<R: Rng + ?Sized>(
        &self,
        value: usize,
        report: &mut BitReport,
        rng: &mut R,
    ) -> Result<(), LdpError> {
        if value >= self.domain {
            return Err(LdpError::ValueOutOfDomain { value, domain: self.domain });
        }
        report.reset(self.domain);
        self.sparse_walk(value, rng, &mut |i| report.set(i, true));
        Ok(())
    }

    /// The geometric-skipping walk shared by every sparse path
    /// ([`Self::perturb_into`], the sparse regime of
    /// [`Self::perturb_tally_into`] and the blocked kernel's sparse
    /// regime): `emit(i)` is called once for every reported-1 position.
    /// The gap to the next reported 1 is drawn as
    /// `⌊ln(1−u)·inv_ln_1mq⌋` — distributionally identical to the
    /// independent per-bit Bernoulli(q) process — with the cast
    /// saturating and the advance checked so walks that overshoot the
    /// domain terminate. The true position's bit comes solely from its
    /// own Bernoulli(p = 1/2) draw at the end, never from the walk.
    #[inline]
    fn sparse_walk<R: Rng + ?Sized>(
        &self,
        value: usize,
        rng: &mut R,
        emit: &mut impl FnMut(usize),
    ) {
        let mut i = 0usize;
        while i < self.domain {
            let u: f64 = rng.random();
            // (1−u) avoids ln(0); u = 0 gives skip 0. ln(1−q) is finite
            // and negative: q < 1/2 for every valid ε.
            let skip = ((1.0 - u).ln() * self.inv_ln_1mq) as u64;
            i = match usize::try_from(skip).ok().and_then(|s| i.checked_add(s)) {
                Some(next) => next,
                None => break,
            };
            if i >= self.domain {
                break;
            }
            if i != value {
                emit(i);
            }
            i += 1;
        }
        if rng.random::<f64>() < OUE_P {
            emit(value);
        }
    }

    /// Fused perturb→tally for a single user: sample the report's 1s and
    /// increment the `ones` counters directly — no [`BitReport`]
    /// materialization, no word re-scan, no heap allocation.
    ///
    /// Two regimes, both sampling the exact per-bit OUE process:
    ///
    /// - **dense** (`q ≥ 0.08`, e.g. every ε ≤ ~2.4): one branchless
    ///   threshold compare per position, `ones[i] += (x < q·2^64)`.
    ///   Reports carry ≈ d·q ones here, so geometric skipping saves few
    ///   draws while paying an unpredictable branch and a serial `ln` per
    ///   landing; the dense pass instead pipelines at ~1 ns/position with
    ///   zero mispredictions and streams the accumulator sequentially.
    /// - **sparse** (`q < 0.08`, large ε): geometric skipping — the gap
    ///   to the next reported 1 is `⌊ln(1−u)/ln(1−q)⌋` as in
    ///   [`Self::perturb_into`], costing O(d·q) logarithms.
    ///
    /// Distributionally identical to [`Self::perturb_into`] +
    /// [`Self::tally_into`] in either regime (independent Bernoulli(q)
    /// 0-bits, Bernoulli(p) true bit). No collection round calls it: every
    /// per-user round runs [`Self::collect_ones_blocked`]. It stays as the
    /// sequential-stream reference that the blocked kernel's benchmark
    /// gate (`collection_per_user_100k_d4096/fused`) measures against.
    pub fn perturb_tally_into<R: Rng + ?Sized>(
        &self,
        value: usize,
        ones: &mut [u64],
        rng: &mut R,
    ) -> Result<(), LdpError> {
        if value >= self.domain {
            return Err(LdpError::ValueOutOfDomain { value, domain: self.domain });
        }
        if ones.len() != self.domain {
            return Err(LdpError::MalformedReport(format!(
                "tally length {} != domain {}",
                ones.len(),
                self.domain
            )));
        }
        if self.q >= DENSE_MIN_Q {
            // Dense branchless pass over the non-true positions (the true
            // bit gets its own Bernoulli(p) draw below). Split at `value`
            // so the hot loops carry no per-position `i != value` branch.
            let (lo, rest) = ones.split_at_mut(value);
            let (value_slot, hi) = rest.split_first_mut().expect("value < domain");
            for one in lo.iter_mut() {
                *one += u64::from(rng.next_u64() < self.thresh_q);
            }
            for one in hi.iter_mut() {
                *one += u64::from(rng.next_u64() < self.thresh_q);
            }
            if rng.random::<f64>() < OUE_P {
                *value_slot += 1;
            }
            return Ok(());
        }
        // Sparse regime: geometric skips between the rare reported 1s.
        self.sparse_walk(value, rng, &mut |i| ones[i] += 1);
        Ok(())
    }

    /// Run one [`crate::ReportMode::Aggregate`] collection round into a
    /// reused ones-count buffer — zero heap allocations once `ones` has
    /// reached domain capacity. Counts the true values in place and then
    /// replaces each count `c_j` with `Binomial(c_j, p) + Binomial(n − c_j,
    /// q)` — the same sampling order as the historical allocating path, so
    /// the random stream is unchanged. Per-user rounds run
    /// [`Self::collect_ones_blocked`] instead.
    pub fn collect_ones_into<R: Rng + ?Sized>(
        &self,
        values: &[usize],
        ones: &mut Vec<u64>,
        rng: &mut R,
    ) -> Result<(), LdpError> {
        ones.clear();
        ones.resize(self.domain, 0);
        let n = values.len() as u64;
        if n == 0 {
            return Ok(());
        }
        for &v in values {
            if v >= self.domain {
                return Err(LdpError::ValueOutOfDomain { value: v, domain: self.domain });
            }
            ones[v] += 1;
        }
        for c in ones.iter_mut() {
            let truth = *c;
            *c = binomial::sample(truth, OUE_P, rng) + binomial::sample(n - truth, self.q, rng);
        }
        Ok(())
    }

    /// Whether the blocked kernel runs its dense regime at this `q`.
    fn blocked_dense(&self) -> bool {
        self.q >= BLOCKED_DENSE_MIN_Q
    }

    /// Run one full [`crate::ReportMode::PerUser`] collection round with
    /// the **blocked counter-based kernel**: every
    /// `(reporter, position)` Bernoulli draw is addressed as a pure
    /// function of `ph`'s key, the reporter's row (its index `i` in
    /// `values`) and the position — no sequential RNG state anywhere in
    /// the round.
    ///
    /// Two regimes, both sampling the per-bit OUE process:
    ///
    /// - **dense** (`q ≥ 0.04`): one Philox word per position, generated
    ///   in independent 8-block gangs and compared-and-added against the
    ///   32-bit threshold with no loop-carried dependence
    ///   (autovectorizable), accumulated through L1-resident domain tiles;
    /// - **sparse** (`q < 0.04`, large ε): the shared geometric-skipping
    ///   walk over a per-reporter [`PhiloxRng`] row stream.
    ///
    /// Because every draw is addressed, the counts are invariant to how
    /// the `(reporter × position)` rectangle is traversed — which is what
    /// lets the dense pass tile the domain.
    pub fn collect_ones_blocked(
        &self,
        values: &[usize],
        ph: &Philox,
        ones: &mut Vec<u64>,
    ) -> Result<(), LdpError> {
        ones.clear();
        ones.resize(self.domain, 0);
        if self.blocked_dense() {
            self.blocked_tally_range(values, ph, 0, self.domain, ones)
        } else {
            self.blocked_tally_sparse(values, ph, ones)
        }
    }

    /// Dense-regime blocked tally of domain positions `lo..hi` over all
    /// `values` (reporter rows `0..values.len()`), accumulating into
    /// `ones[p - lo]`. `lo` must be [`GANG_POS`]-aligned; `hi` is either
    /// the domain or another aligned boundary. The counts this writes
    /// depend only on `(ph, values, position)` — never on the `(lo, hi)`
    /// partition or the [`DOMAIN_TILE`] tiling inside it.
    ///
    /// Each position consumes a 16-bit **halfword**: position `p` of row
    /// `r` reads bits `16h..16h+16` of word `j` of block
    /// `(8·⌊p/64⌋ + p mod 8, r)`, where `j = ⌊(p mod 64)/16⌋` and
    /// `h = ⌊(p mod 16)/8⌋` — a gang of 8 blocks covers 64 positions in
    /// SoA order without a transpose. The draw is exact against the same
    /// 32-bit threshold as a full-word draw: `hw < ⌊t/2^16⌋` accepts,
    /// and the 2^−16-rare tie `hw = ⌊t/2^16⌋` is resolved by 16 more
    /// addressed bits from the extension block `[blk, row, 1, 0]`
    /// (counter word 2 = 1, a stream no other path touches), accepting
    /// iff `ext < t mod 2^16`. The hot loop only counts `hw < ⌊t/2^16⌋`
    /// and flags ties per gang, so the common path stays branch-free;
    /// tie patching and the true-bit fixup (replacing the position's
    /// Bernoulli(q) credit with its Bernoulli(p = 1/2) draw) both
    /// regenerate single draws in O(1) — counter-based random access
    /// makes them free of any second pass.
    fn blocked_tally_range(
        &self,
        values: &[usize],
        ph: &Philox,
        lo: usize,
        hi: usize,
        ones: &mut [u64],
    ) -> Result<(), LdpError> {
        self.check_blocked_inputs(values)?;
        assert!(lo.is_multiple_of(GANG_POS), "range start must be gang-aligned");
        assert!(lo <= hi && hi <= self.domain, "range {lo}..{hi} outside domain {}", self.domain);
        assert_eq!(ones.len(), hi - lo, "accumulator length != range length");
        // High half of the threshold, widened to gang8's 64-bit lanes.
        let t16 = u64::from(self.thresh_q32 >> 16);
        let mut tlo = lo;
        while tlo < hi {
            let thi = (tlo + DOMAIN_TILE).min(hi);
            for (i, &v) in values.iter().enumerate() {
                let row = i as u32;
                let mut p = tlo;
                while p + GANG_POS <= thi {
                    let gang = ph.gang8(((p / GANG_POS) * 8) as u32, row);
                    let acc = &mut ones[p - lo..p - lo + GANG_POS];
                    // Ties against the threshold's high half, counted
                    // across the gang (a count, not an OR-fold — masks
                    // subtract straight into lanes with no bool
                    // repacking); nonzero ⇒ patch below (expected once
                    // per ~2^10 gangs).
                    let mut ties = [0u64; 8];
                    for (j, words) in gang.iter().enumerate() {
                        for (l, &w) in words.iter().enumerate() {
                            let (a, b) = (w & 0xffff, w >> 16);
                            acc[j * 16 + l] += u64::from(a < t16);
                            acc[j * 16 + 8 + l] += u64::from(b < t16);
                            ties[l] += u64::from(a == t16) + u64::from(b == t16);
                        }
                    }
                    if ties.iter().any(|&t| t != 0) {
                        for o in 0..GANG_POS {
                            if self.halfword(ph, row, p + o) == t16 as u32 {
                                ones[p + o - lo] += self.tie_break(ph, row, p + o);
                            }
                        }
                    }
                    p += GANG_POS;
                }
                for q in p..thi {
                    ones[q - lo] += self.draw_q16(ph, row, q);
                }
                if v >= tlo && v < thi {
                    // The pass above added this position's Bernoulli(q)
                    // draw; net the slot to its Bernoulli(1/2) draw
                    // (nested events: q < 1/2, so this never underflows).
                    ones[v - lo] += u64::from(self.halfword(ph, row, v) < OUE_P_THRESH16)
                        - self.draw_q16(ph, row, v);
                }
            }
            tlo = thi;
        }
        Ok(())
    }

    /// The 16-bit halfword position `p` of row `row` consumes (the
    /// position-to-bits mapping of [`Self::blocked_tally_range`]).
    fn halfword(&self, ph: &Philox, row: u32, p: usize) -> u32 {
        let o = p % GANG_POS;
        let (j, h, l) = (o / 16, (o % 16) / 8, o % 8);
        let w = ph.block(((p / GANG_POS) * 8 + l) as u32, row)[j];
        (w >> (16 * h)) & 0xffff
    }

    /// The exact Bernoulli(q) draw of `(row, p)` under the blocked dense
    /// kernel: accept below the threshold's high half, extend on a tie.
    fn draw_q16(&self, ph: &Philox, row: u32, p: usize) -> u64 {
        let t16 = self.thresh_q32 >> 16;
        let hw = self.halfword(ph, row, p);
        match hw.cmp(&t16) {
            std::cmp::Ordering::Less => 1,
            std::cmp::Ordering::Equal => self.tie_break(ph, row, p),
            std::cmp::Ordering::Greater => 0,
        }
    }

    /// Resolve a threshold tie at `(row, p)`: 16 extension bits from the
    /// position's block at counter word 2 = 1 — a stream disjoint from
    /// every primary draw — against the threshold's low half. The
    /// composite accept probability is exactly `thresh_q32 / 2^32`.
    fn tie_break(&self, ph: &Philox, row: u32, p: usize) -> u64 {
        let o = p % GANG_POS;
        let (j, h, l) = (o / 16, (o % 16) / 8, o % 8);
        let ew = ph.block_raw([((p / GANG_POS) * 8 + l) as u32, row, 1, 0])[j];
        let ext = (ew >> (16 * h)) & 0xffff;
        u64::from(ext < (self.thresh_q32 & 0xffff))
    }

    /// Sparse-regime blocked tally: each reporter's geometric-skipping
    /// walk draws from its own [`PhiloxRng`] row stream (row `i`), so —
    /// like the dense pass — each reporter's contribution depends only on
    /// its own row. `ones` spans the full domain.
    fn blocked_tally_sparse(
        &self,
        values: &[usize],
        ph: &Philox,
        ones: &mut [u64],
    ) -> Result<(), LdpError> {
        self.check_blocked_inputs(values)?;
        if ones.len() != self.domain {
            return Err(LdpError::MalformedReport(format!(
                "tally length {} != domain {}",
                ones.len(),
                self.domain
            )));
        }
        for (i, &v) in values.iter().enumerate() {
            let mut rng = PhiloxRng::new(*ph, i as u32);
            self.sparse_walk(v, &mut rng, &mut |p| ones[p] += 1);
        }
        Ok(())
    }

    /// Shared validation of a blocked round: every value in domain, and
    /// the reporter rows must fit the 32-bit counter word.
    fn check_blocked_inputs(&self, values: &[usize]) -> Result<(), LdpError> {
        if let Some(&v) = values.iter().find(|&&v| v >= self.domain) {
            return Err(LdpError::ValueOutOfDomain { value: v, domain: self.domain });
        }
        if u32::try_from(values.len()).is_err() {
            return Err(LdpError::MalformedReport(format!(
                "blocked round of {} reporters overflows the u32 row counter",
                values.len()
            )));
        }
        Ok(())
    }

    /// Aggregate per-user reports into raw ones-counts per position.
    ///
    /// Word-parallel: iterates the set bits of each packed 64-bit word via
    /// `trailing_zeros` instead of testing every position, so cost scales
    /// with the number of reported 1s (≈ d·q + 1 per report) rather than d.
    pub fn tally(&self, reports: &[BitReport]) -> Result<Vec<u64>, LdpError> {
        let mut ones = vec![0u64; self.domain];
        for r in reports {
            self.tally_into(&mut ones, r)?;
        }
        Ok(ones)
    }

    /// Add one report's set bits into `ones` (word-parallel). Combined with
    /// [`Self::perturb_into`] this folds a whole collection round over a
    /// single reused report buffer.
    pub fn tally_into(&self, ones: &mut [u64], report: &BitReport) -> Result<(), LdpError> {
        if report.len() != self.domain || ones.len() != self.domain {
            return Err(LdpError::MalformedReport(format!(
                "report length {} / tally length {} != domain {}",
                report.len(),
                ones.len(),
                self.domain
            )));
        }
        for (wi, &word) in report.words().iter().enumerate() {
            let mut w = word;
            let base = wi * 64;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                ones[base + bit] += 1;
                w &= w - 1;
            }
        }
        Ok(())
    }

    /// Debias raw ones-counts into unbiased frequency estimates
    /// (`f̂(x) = (ones_x/n − q)/(p − q)`, paper §II-A). Estimates may be
    /// negative; see [`crate::postprocess`].
    pub fn debias(&self, ones: &[u64], n: u64) -> Vec<f64> {
        let mut freqs = Vec::new();
        self.debias_into(ones, n, &mut freqs);
        freqs
    }

    /// Debias into a caller-provided buffer — the zero-allocation form of
    /// [`Self::debias`] used by the engine's per-timestamp collection
    /// round.
    pub fn debias_into(&self, ones: &[u64], n: u64, out: &mut Vec<f64>) {
        assert_eq!(ones.len(), self.domain, "ones-count length mismatch");
        out.clear();
        if n == 0 {
            out.resize(self.domain, 0.0);
            return;
        }
        let nf = n as f64;
        let denom = OUE_P - self.q;
        out.extend(ones.iter().map(|&c| (c as f64 / nf - self.q) / denom));
    }

    /// The estimator variance `Var(ε, n) = 4e^ε / (n (e^ε − 1)²)` (Eq. 3).
    /// Returns `+∞` when `n == 0`.
    pub fn variance(&self, n: u64) -> f64 {
        variance(self.eps, n)
    }
}

/// Free-standing OUE variance (Eq. 3), used by DMU and allocation without an
/// oracle instance.
pub fn variance(eps: f64, n: u64) -> f64 {
    if n == 0 {
        return f64::INFINITY;
    }
    let e = eps.exp();
    4.0 * e / (n as f64 * (e - 1.0).powi(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validation() {
        assert!(Oue::new(1.0, 10).is_ok());
        assert!(Oue::new(0.0, 10).is_err());
        assert!(Oue::new(-1.0, 10).is_err());
        assert!(Oue::new(f64::NAN, 10).is_err());
        assert!(Oue::new(1.0, 1).is_err());
        assert!(Oue::new(1.0, 0).is_err());
    }

    #[test]
    fn q_matches_formula() {
        let oue = Oue::new(1.0, 4).unwrap();
        assert!((oue.q() - 1.0 / (1.0f64.exp() + 1.0)).abs() < 1e-12);
        // Larger eps -> smaller q (less noise).
        let oue2 = Oue::new(2.0, 4).unwrap();
        assert!(oue2.q() < oue.q());
    }

    #[test]
    fn perturb_rejects_out_of_domain() {
        let oue = Oue::new(1.0, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            oue.perturb(4, &mut rng),
            Err(LdpError::ValueOutOfDomain { value: 4, domain: 4 })
        ));
    }

    #[test]
    fn bit_report_roundtrip() {
        let mut r = BitReport::zeros(130);
        assert_eq!(r.len(), 130);
        assert!(!r.is_empty());
        r.set(0, true);
        r.set(64, true);
        r.set(129, true);
        assert!(r.get(0) && r.get(64) && r.get(129));
        assert!(!r.get(1) && !r.get(63) && !r.get(128));
        assert_eq!(r.count_ones(), 3);
        r.set(64, false);
        assert_eq!(r.count_ones(), 2);
        assert_eq!(r.communication_bits(), 130);
    }

    #[test]
    fn estimates_are_unbiased() {
        // 5000 users, 60% hold value 2, 40% hold value 0, domain 5.
        let oue = Oue::new(1.0, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 5000u64;
        let mut reports = Vec::with_capacity(n as usize);
        for i in 0..n {
            let v = if i % 5 < 3 { 2 } else { 0 };
            reports.push(oue.perturb(v, &mut rng).unwrap());
        }
        let ones = oue.tally(&reports).unwrap();
        let est = oue.debias(&ones, n);
        // 3 sigma of Eq. 3 with n = 5000, eps = 1: sd ~ 0.019.
        let sd = oue.variance(n).sqrt();
        assert!((est[2] - 0.6).abs() < 3.5 * sd, "est[2]={}", est[2]);
        assert!((est[0] - 0.4).abs() < 3.5 * sd, "est[0]={}", est[0]);
        assert!(est[1].abs() < 3.5 * sd);
        assert!(est[3].abs() < 3.5 * sd);
    }

    #[test]
    fn variance_formula() {
        // eps = 1, n = 100: 4e / (100 (e-1)^2).
        let e = 1.0f64.exp();
        let expected = 4.0 * e / (100.0 * (e - 1.0).powi(2));
        assert!((variance(1.0, 100) - expected).abs() < 1e-12);
        assert_eq!(variance(1.0, 0), f64::INFINITY);
        // Variance decreases in n and in eps.
        assert!(variance(1.0, 200) < variance(1.0, 100));
        assert!(variance(2.0, 100) < variance(1.0, 100));
    }

    #[test]
    fn tally_rejects_mismatched_reports() {
        let oue = Oue::new(1.0, 4).unwrap();
        let bad = BitReport::zeros(5);
        assert!(oue.tally(&[bad]).is_err());
    }

    #[test]
    fn debias_zero_users() {
        let oue = Oue::new(1.0, 3).unwrap();
        assert_eq!(oue.debias(&[0, 0, 0], 0), vec![0.0; 3]);
    }

    /// The vectorized gang pass of `blocked_tally_range` must agree
    /// bit-for-bit with the scalar per-position draw (`draw_q16` plus the
    /// true-bit fixup) — the same function the tail and patch paths use.
    /// Swept across enough keys that threshold ties (the 2^−16-rare
    /// extension path) are actually exercised.
    #[test]
    fn blocked_gang_pass_matches_scalar_draws_including_ties() {
        let domain = 192; // three full gangs — all vector path
        let oue = Oue::new(1.0, domain).unwrap();
        let values: Vec<usize> = (0..40).map(|i| (i * 13 + 2) % domain).collect();
        let t16 = oue.thresh_q32 >> 16;
        let mut ties_seen = 0u64;
        let mut ones = Vec::new();
        for key in 0..1400u64 {
            let ph = Philox::new(key.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            oue.collect_ones_blocked(&values, &ph, &mut ones).unwrap();
            let mut expect = vec![0u64; domain];
            for (i, &v) in values.iter().enumerate() {
                let row = i as u32;
                for (p, e) in expect.iter_mut().enumerate() {
                    ties_seen += u64::from(oue.halfword(&ph, row, p) == t16);
                    *e += if p == v {
                        u64::from(oue.halfword(&ph, row, p) < OUE_P_THRESH16)
                    } else {
                        oue.draw_q16(&ph, row, p)
                    };
                }
            }
            assert_eq!(ones, expect, "key={key}");
        }
        // ~1400·40·192·2^−16 ≈ 164 expected ties; the patch path ran.
        assert!(ties_seen > 20, "tie path never exercised ({ties_seen} ties)");
    }

    /// Dense regime: merging gang-aligned domain ranges reproduces the
    /// full round bit-for-bit, for aligned and ragged (tail) domains
    /// alike — the invariance the [`DOMAIN_TILE`] tiling relies on.
    #[test]
    fn blocked_dense_domain_shards_merge_bit_identically() {
        for domain in [256usize, 100, 321] {
            let oue = Oue::new(1.0, domain).unwrap();
            assert!(oue.blocked_dense());
            let values: Vec<usize> = (0..300).map(|i| (i * 17 + 5) % domain).collect();
            let ph = Philox::new(0xfeed_5eed_0123_4567);
            let mut full = Vec::new();
            oue.collect_ones_blocked(&values, &ph, &mut full).unwrap();
            // Two splits: one mid-domain and one per gang.
            for bounds in [vec![0, 64, domain], vec![0, 64, 128, 192, domain]] {
                let mut merged = vec![0u64; domain];
                for w in bounds.windows(2) {
                    let (lo, hi) = (w[0], w[1].min(domain));
                    if lo >= hi {
                        continue;
                    }
                    oue.blocked_tally_range(&values, &ph, lo, hi, &mut merged[lo..hi]).unwrap();
                }
                assert_eq!(merged, full, "domain={domain} bounds={bounds:?}");
            }
        }
    }

    /// Sparse regime: each reporter's contribution is its own row walk,
    /// so summing single-row walks over any split of the reporters
    /// reproduces the round bit-for-bit.
    #[test]
    fn blocked_sparse_reporter_shards_merge_bit_identically() {
        let domain = 96;
        let oue = Oue::new(3.5, domain).unwrap();
        assert!(!oue.blocked_dense());
        let values: Vec<usize> = (0..250).map(|i| (i * 29 + 1) % domain).collect();
        let ph = Philox::new(0x0bad_cafe_dead_beef);
        let mut full = Vec::new();
        oue.collect_ones_blocked(&values, &ph, &mut full).unwrap();
        let mut merged = vec![0u64; domain];
        for (start, end) in [(0usize, 100usize), (100, 173), (173, 250)] {
            for (row, &v) in (start..end).zip(&values[start..end]) {
                let mut rng = PhiloxRng::new(ph, row as u32);
                oue.sparse_walk(v, &mut rng, &mut |p| merged[p] += 1);
            }
        }
        assert_eq!(merged, full);
    }

    #[test]
    fn ldp_ratio_bound_holds_per_vector() {
        // For any two inputs x1 != x2 and any output y, the likelihood ratio
        // is exactly (p/q) * ((1-q)/(1-p)) when y "matches" x1 on both
        // differing bits, which must be <= e^eps. Check analytically.
        for eps in [0.3, 1.0, 2.5] {
            let oue = Oue::new(eps, 8).unwrap();
            let p = OUE_P;
            let q = oue.q();
            let worst = (p / q) * ((1.0 - q) / (1.0 - p));
            assert!(
                worst <= eps.exp() * (1.0 + 1e-12),
                "eps={eps}: worst-case ratio {worst} > e^eps {}",
                eps.exp()
            );
            // And the bound is tight for OUE (equality).
            assert!((worst - eps.exp()).abs() < 1e-9);
        }
    }
}
