//! Pins for the blocked counter-based collection kernel: the blocked
//! kernel must produce per-position ones counts from exactly the same
//! distribution as the frozen report-buffer reference
//! (`perturb_into` + `tally_into`) in both the dense and sparse regimes.
//! That its output is invariant to how the `(reporter × domain)`
//! rectangle is split is pinned by the `oue` unit tests, which reach the
//! private range and row kernels.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retrasyn_ldp::{BitReport, Oue, Philox};

/// Two-sample chi-square statistic between histograms `a` and `b` (unequal
/// totals handled by the usual √(N_b/N_a) weighting). Returns the
/// statistic and the degrees of freedom (occupied categories − 1).
fn two_sample_chi_square(a: &[u64], b: &[u64], na: u64, nb: u64) -> (f64, usize) {
    let (ka, kb) = ((nb as f64 / na as f64).sqrt(), (na as f64 / nb as f64).sqrt());
    let mut chi = 0.0;
    let mut occupied = 0usize;
    for (&x, &y) in a.iter().zip(b) {
        if x + y == 0 {
            continue;
        }
        occupied += 1;
        let d = ka * x as f64 - kb * y as f64;
        chi += d * d / (x + y) as f64;
    }
    (chi, occupied.saturating_sub(1))
}

/// Loose 99.9th-percentile bound for chi-square with `dof` degrees of
/// freedom (Wilson–Hilferty plus margin; deliberately conservative so the
/// seeded test never flakes while still catching a wrong distribution).
fn chi2_crit(dof: usize) -> f64 {
    dof as f64 + 4.0 * (2.0 * dof as f64).sqrt() + 10.0
}

/// The frozen report-buffer reference round (exact per-bit OUE process).
fn reference_ones(oue: &Oue, values: &[usize], rng: &mut StdRng) -> Vec<u64> {
    let mut ones = vec![0u64; oue.domain()];
    let mut scratch = BitReport::zeros(oue.domain());
    for &v in values {
        oue.perturb_into(v, &mut scratch, rng).unwrap();
        oue.tally_into(&mut ones, &scratch).unwrap();
    }
    ones
}

fn blocked_ones(oue: &Oue, values: &[usize], ph: &Philox) -> Vec<u64> {
    let mut ones = Vec::new();
    oue.collect_ones_blocked(values, ph, &mut ones).unwrap();
    ones
}

/// The blocked kernel and the report-buffer reference must put their 1s
/// at identically distributed positions. Covers both kernel regimes: the
/// dense halfword threshold pass (ε = 1 and ε = 0.3 → q ≈ 0.27 / 0.43)
/// and the sparse geometric-skipping row walk (ε = 3.5 → q ≈ 0.029 <
/// 0.04).
#[test]
fn blocked_matches_reference_distribution_per_position() {
    for (eps, seed) in [(1.0, 11u64), (0.3, 22), (3.5, 33)] {
        let domain = 128;
        let oue = Oue::new(eps, domain).unwrap();
        // A skewed value mix so the true-bit Bernoulli(p) lands unevenly.
        let values: Vec<usize> = (0..600).map(|i| (i * i + 3 * i) % domain).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ref_hist = vec![0u64; domain];
        let mut blk_hist = vec![0u64; domain];
        for _ in 0..12 {
            for (acc, x) in ref_hist.iter_mut().zip(reference_ones(&oue, &values, &mut rng)) {
                *acc += x;
            }
            let ph = Philox::new(rng.random());
            for (acc, x) in blk_hist.iter_mut().zip(blocked_ones(&oue, &values, &ph)) {
                *acc += x;
            }
        }
        let (rn, bn) = (ref_hist.iter().sum::<u64>(), blk_hist.iter().sum::<u64>());
        assert!(rn > 10_000 && bn > 10_000, "eps={eps}: too few ones: {rn} vs {bn}");
        let sd = (rn.max(bn) as f64).sqrt();
        assert!(
            (rn as f64 - bn as f64).abs() < 6.0 * sd,
            "eps={eps}: ones totals diverge: {rn} vs {bn}"
        );
        let (chi, dof) = two_sample_chi_square(&ref_hist, &blk_hist, rn, bn);
        assert!(
            chi < chi2_crit(dof),
            "eps={eps}: blocked ones diverge from reference: chi={chi:.1} dof={dof} (crit {:.1})",
            chi2_crit(dof)
        );
    }
}

/// Fixed key → bit-identical output; different keys → different draws,
/// in the dense (ε = 1) and sparse (ε = 3.5) regimes.
#[test]
fn blocked_is_deterministic_in_the_key() {
    for eps in [1.0, 3.5] {
        let oue = Oue::new(eps, 128).unwrap();
        let values: Vec<usize> = (0..200).map(|i| (i * 7) % 128).collect();
        let a = blocked_ones(&oue, &values, &Philox::new(42));
        let b = blocked_ones(&oue, &values, &Philox::new(42));
        let c = blocked_ones(&oue, &values, &Philox::new(43));
        assert_eq!(a, b, "eps={eps}");
        assert_ne!(a, c, "eps={eps}");
    }
}

/// Every per-position count is bounded by the number of reporters, in
/// both regimes — and a round without reporters is all zero over the
/// whole domain, whatever the buffer held before.
#[test]
fn blocked_counts_bounded_by_reporters() {
    for eps in [0.2, 1.0, 4.0] {
        let oue = Oue::new(eps, 64).unwrap();
        let values = vec![5usize; 200];
        let ones = blocked_ones(&oue, &values, &Philox::new(9));
        assert!(ones.iter().all(|&c| c <= 200), "eps={eps}: {ones:?}");
        let mut stale = vec![7u64; 3];
        oue.collect_ones_blocked(&[], &Philox::new(5), &mut stale).unwrap();
        assert_eq!(stale, vec![0u64; 64], "eps={eps}: empty round");
    }
}

/// The blocked estimates must be unbiased (debiasing the blocked counts
/// recovers the true frequencies within the mechanism's variance).
#[test]
fn blocked_estimates_are_unbiased() {
    for eps in [1.0, 3.5] {
        let oue = Oue::new(eps, 5).unwrap();
        let n = 5000usize;
        let values: Vec<usize> = (0..n).map(|i| if i % 5 < 3 { 2 } else { 0 }).collect();
        let ones = blocked_ones(&oue, &values, &Philox::new(0x5eed + eps.to_bits()));
        let freqs = oue.debias(&ones, n as u64);
        let sd = Oue::variance(&oue, n as u64).sqrt();
        assert!((freqs[2] - 0.6).abs() < 3.5 * sd, "eps={eps}: est[2]={}", freqs[2]);
        assert!((freqs[0] - 0.4).abs() < 3.5 * sd, "eps={eps}: est[0]={}", freqs[0]);
        assert!(freqs[1].abs() < 3.5 * sd, "eps={eps}");
        assert!(freqs[3].abs() < 3.5 * sd, "eps={eps}");
    }
}

/// Input validation: out-of-domain values are rejected, in both regimes.
#[test]
fn blocked_kernel_validates_inputs() {
    for eps in [1.0, 3.5] {
        let oue = Oue::new(eps, 8).unwrap();
        let ph = Philox::new(0);
        let mut ones = Vec::new();
        assert!(oue.collect_ones_blocked(&[0, 9], &ph, &mut ones).is_err());
        assert!(oue.collect_ones_blocked(&[1, 2, 8], &ph, &mut ones).is_err());
        assert!(oue.collect_ones_blocked(&[0, 7], &ph, &mut ones).is_ok());
    }
}
