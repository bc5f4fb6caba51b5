//! A uniform interface over frequency oracles plus the fast aggregate
//! collection path.
//!
//! The curator-side pipeline in the paper is: users perturb their transition
//! state (② and ③ in Fig. 2), the curator tallies and debiases (④). The
//! [`FrequencyOracle`] trait captures that pipeline; [`FrequencyOracle::collect`] runs it
//! end-to-end for a batch of users in either of two statistically equivalent
//! modes:
//!
//! - [`ReportMode::PerUser`] samples every user's report bit by bit, exactly
//!   as a deployment would — O(n·d) work, used in tests and small examples.
//!   OUE rounds run the counter-based [`Oue::collect_ones_blocked`] kernel
//!   under one Philox key drawn from the caller's RNG.
//! - [`ReportMode::Aggregate`] samples the per-position ones-counts directly
//!   from their exact distribution (`Binomial(c_j, p) + Binomial(n−c_j, q)`)
//!   — O(d) work, used by the experiment harness.

use crate::binomial;
use crate::error::LdpError;
use crate::grr::Grr;
use crate::oue::Oue;
use crate::philox::Philox;
use rand::Rng;

/// How to simulate the report collection round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportMode {
    /// Sample every user's report bit by bit (exact end-to-end
    /// simulation). OUE rounds run the one per-user kernel,
    /// [`Oue::collect_ones_blocked`], keyed by one draw from the caller's
    /// RNG, so the output does not depend on how the round is sharded.
    PerUser,
    /// Sample aggregated position counts directly (distributionally
    /// identical, O(domain) instead of O(n·domain)).
    #[default]
    Aggregate,
}

/// The result of one collection round.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Unbiased frequency estimates per domain value (may be negative).
    pub freqs: Vec<f64>,
    /// Number of users that reported.
    pub n: u64,
    /// The estimator variance for this round (Eq. 3 for OUE).
    pub variance: f64,
}

impl Estimate {
    /// An empty estimate (no reporters): all-zero frequencies, infinite
    /// variance.
    pub fn empty(domain: usize) -> Self {
        Estimate { freqs: vec![0.0; domain], n: 0, variance: f64::INFINITY }
    }

    /// Reset in place to the empty estimate over `domain` values, reusing
    /// the frequency buffer — the zero-allocation form of
    /// [`Self::empty`].
    pub fn reset_empty(&mut self, domain: usize) {
        self.freqs.clear();
        self.freqs.resize(domain, 0.0);
        self.n = 0;
        self.variance = f64::INFINITY;
    }
}

impl Default for Estimate {
    /// A zero-length empty estimate, for `std::mem::take`-style scratch
    /// shuttling.
    fn default() -> Self {
        Estimate { freqs: Vec::new(), n: 0, variance: f64::INFINITY }
    }
}

/// A frequency oracle: perturb on the user side, aggregate and debias on the
/// curator side.
pub trait FrequencyOracle {
    /// Domain size `d`.
    fn domain(&self) -> usize;
    /// Privacy budget ε consumed by one report.
    fn eps(&self) -> f64;
    /// Estimator variance with `n` reporters.
    fn variance(&self, n: u64) -> f64;
    /// Run a full collection round over the users' true `values`.
    fn collect<R: Rng + ?Sized>(
        &self,
        values: &[usize],
        mode: ReportMode,
        rng: &mut R,
    ) -> Result<Estimate, LdpError>;
}

/// Count the true occurrences of each domain value.
fn true_counts(values: &[usize], domain: usize) -> Result<Vec<u64>, LdpError> {
    let mut counts = vec![0u64; domain];
    for &v in values {
        if v >= domain {
            return Err(LdpError::ValueOutOfDomain { value: v, domain });
        }
        counts[v] += 1;
    }
    Ok(counts)
}

impl FrequencyOracle for Oue {
    fn domain(&self) -> usize {
        self.domain()
    }

    fn eps(&self) -> f64 {
        self.eps()
    }

    fn variance(&self, n: u64) -> f64 {
        Oue::variance(self, n)
    }

    fn collect<R: Rng + ?Sized>(
        &self,
        values: &[usize],
        mode: ReportMode,
        rng: &mut R,
    ) -> Result<Estimate, LdpError> {
        let n = values.len() as u64;
        if n == 0 {
            return Ok(Estimate::empty(self.domain()));
        }
        // PerUser spends one key draw on the counter-based kernel (no
        // report materialization); Aggregate samples the position counts
        // in place with the same random stream as the historical
        // allocating path.
        let mut ones = Vec::new();
        match mode {
            ReportMode::PerUser => {
                self.collect_ones_blocked(values, &Philox::new(rng.random()), &mut ones)?
            }
            ReportMode::Aggregate => self.collect_ones_into(values, &mut ones, rng)?,
        }
        Ok(Estimate { freqs: self.debias(&ones, n), n, variance: Oue::variance(self, n) })
    }
}

impl FrequencyOracle for Grr {
    fn domain(&self) -> usize {
        self.domain()
    }

    fn eps(&self) -> f64 {
        self.eps()
    }

    fn variance(&self, n: u64) -> f64 {
        Grr::variance(self, n)
    }

    fn collect<R: Rng + ?Sized>(
        &self,
        values: &[usize],
        mode: ReportMode,
        rng: &mut R,
    ) -> Result<Estimate, LdpError> {
        let n = values.len() as u64;
        if n == 0 {
            return Ok(Estimate::empty(self.domain()));
        }
        let counts = match mode {
            ReportMode::PerUser => {
                let reports: Result<Vec<_>, _> =
                    values.iter().map(|&v| self.perturb(v, rng)).collect();
                self.tally(&reports?)?
            }
            ReportMode::Aggregate => {
                // Each of the c_j holders reports j w.p. p; each of the
                // n − c_j others reports j w.p. q. The position counts are
                // not independent across j for GRR (they sum to n), but the
                // marginal of each count is what the debiasing uses; we
                // sample truth-keepers first then scatter the liars to
                // preserve the sum-to-n constraint exactly.
                let d = self.domain();
                let truth = true_counts(values, d)?;
                let mut counts = vec![0u64; d];
                for (j, &c) in truth.iter().enumerate() {
                    let kept = binomial::sample(c, self.p(), rng);
                    counts[j] += kept;
                    // The c − kept liars from group j pick uniformly among
                    // the other d−1 values: an exact multinomial, sampled as
                    // a chain of binomials.
                    let mut remaining = c - kept;
                    let mut slots = (d - 1) as u64;
                    for (k, count) in counts.iter_mut().enumerate() {
                        if k == j || remaining == 0 {
                            continue;
                        }
                        let take = if slots == 1 {
                            remaining
                        } else {
                            binomial::sample(remaining, 1.0 / slots as f64, rng)
                        };
                        *count += take;
                        remaining -= take;
                        slots -= 1;
                    }
                }
                counts
            }
        };
        Ok(Estimate { freqs: self.debias(&counts, n), n, variance: Grr::variance(self, n) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn skewed_values(n: usize, domain: usize) -> Vec<usize> {
        // Zipf-ish: value j with weight 1/(j+1).
        let mut vals = Vec::with_capacity(n);
        for i in 0..n {
            let v = (i * i + 7 * i) % domain; // deterministic but spread
            vals.push(v % domain);
        }
        vals
    }

    #[test]
    fn empty_round_gives_empty_estimate() {
        let oue = Oue::new(1.0, 6).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let est = oue.collect(&[], ReportMode::Aggregate, &mut rng).unwrap();
        assert_eq!(est.n, 0);
        assert_eq!(est.freqs, vec![0.0; 6]);
        assert!(est.variance.is_infinite());
    }

    #[test]
    fn per_user_and_aggregate_agree_statistically() {
        // Both modes must estimate the same underlying frequencies within
        // a few standard deviations of Eq. 3.
        let oue = Oue::new(1.0, 10).unwrap();
        let values = skewed_values(4000, 10);
        let mut truth = [0.0; 10];
        for &v in &values {
            truth[v] += 1.0 / values.len() as f64;
        }
        let sd = FrequencyOracle::variance(&oue, 4000).sqrt();

        let mut rng = StdRng::seed_from_u64(11);
        let per_user = oue.collect(&values, ReportMode::PerUser, &mut rng).unwrap();
        let agg = oue.collect(&values, ReportMode::Aggregate, &mut rng).unwrap();
        #[allow(clippy::needless_range_loop)]
        for j in 0..10 {
            assert!(
                (per_user.freqs[j] - truth[j]).abs() < 4.5 * sd,
                "per-user j={j}: {} vs {}",
                per_user.freqs[j],
                truth[j]
            );
            assert!(
                (agg.freqs[j] - truth[j]).abs() < 4.5 * sd,
                "aggregate j={j}: {} vs {}",
                agg.freqs[j],
                truth[j]
            );
        }
    }

    #[test]
    fn aggregate_estimates_sum_near_one() {
        // Debiased frequency estimates should sum to ~1 (the encoding is
        // one-hot, noise is zero-mean).
        let oue = Oue::new(2.0, 50).unwrap();
        let values = skewed_values(5000, 50);
        let mut rng = StdRng::seed_from_u64(3);
        let est = oue.collect(&values, ReportMode::Aggregate, &mut rng).unwrap();
        let total: f64 = est.freqs.iter().sum();
        assert!((total - 1.0).abs() < 0.2, "sum={total}");
    }

    #[test]
    fn grr_collect_modes_agree() {
        let grr = Grr::new(2.0, 8).unwrap();
        let values = skewed_values(20_000, 8);
        let mut truth = [0.0; 8];
        for &v in &values {
            truth[v] += 1.0 / values.len() as f64;
        }
        let sd = FrequencyOracle::variance(&grr, 20_000).sqrt();
        let mut rng = StdRng::seed_from_u64(5);
        for mode in [ReportMode::PerUser, ReportMode::Aggregate] {
            let est = grr.collect(&values, mode, &mut rng).unwrap();
            #[allow(clippy::needless_range_loop)]
            for j in 0..8 {
                assert!(
                    (est.freqs[j] - truth[j]).abs() < 5.0 * sd,
                    "{mode:?} j={j}: {} vs {}",
                    est.freqs[j],
                    truth[j]
                );
            }
        }
    }

    #[test]
    fn collect_rejects_out_of_domain_values() {
        let oue = Oue::new(1.0, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(oue.collect(&[0, 1, 4], ReportMode::Aggregate, &mut rng).is_err());
        assert!(oue.collect(&[0, 1, 4], ReportMode::PerUser, &mut rng).is_err());
    }

    #[test]
    fn variance_reported_matches_mechanism() {
        let oue = Oue::new(1.5, 12).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let est = oue.collect(&[1, 2, 3], ReportMode::Aggregate, &mut rng).unwrap();
        assert!((est.variance - Oue::variance(&oue, 3)).abs() < 1e-12);
    }
}
