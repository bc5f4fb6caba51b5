//! Pins for the fused perturb→tally reference kernel
//! (`Oue::perturb_tally_into`, the sequential stream the blocked kernel's
//! benchmark gate measures against): it must produce per-position ones
//! counts from exactly the same distribution as the frozen report-buffer
//! reference (`perturb_into` + `tally_into`). Also: the in-place
//! Aggregate round must reproduce the historical allocating path
//! bit-for-bit (same random stream), and `debias_into` must match
//! `debias`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_ldp::oue::OUE_P;
use retrasyn_ldp::{binomial, BitReport, FrequencyOracle, Oue, ReportMode};

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

/// The frozen report-buffer reference round: one reused `BitReport` per
/// user folded into the tally — the collection path before the fused
/// kernel existed.
fn reference_ones(oue: &Oue, values: &[usize], rng: &mut StdRng) -> Vec<u64> {
    let mut ones = vec![0u64; oue.domain()];
    let mut scratch = BitReport::zeros(oue.domain());
    for &v in values {
        oue.perturb_into(v, &mut scratch, rng).unwrap();
        oue.tally_into(&mut ones, &scratch).unwrap();
    }
    ones
}

fn fused_ones(oue: &Oue, values: &[usize], rng: &mut StdRng) -> Vec<u64> {
    let mut ones = vec![0u64; oue.domain()];
    for &v in values {
        oue.perturb_tally_into(v, &mut ones, rng).unwrap();
    }
    ones
}

/// The fused kernel and the report-buffer reference must put their 1s at
/// identically distributed positions. Covers both kernel regimes: the
/// dense branchless threshold pass (ε = 1 and ε = 0.3 → q ≈ 0.27 / 0.43)
/// and the sparse geometric-skipping path (ε = 3.5 → q ≈ 0.029 < 0.08).
#[test]
fn fused_matches_reference_distribution_per_position() {
    for (eps, seed) in [(1.0, 11u64), (0.3, 22), (3.5, 33)] {
        let domain = 128;
        let oue = Oue::new(eps, domain).unwrap();
        // A skewed value mix so the true-bit Bernoulli(p) lands unevenly.
        let values: Vec<usize> = (0..600).map(|i| (i * i + 3 * i) % domain).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ref_hist = vec![0u64; domain];
        let mut fus_hist = vec![0u64; domain];
        for _ in 0..12 {
            for (acc, x) in ref_hist.iter_mut().zip(reference_ones(&oue, &values, &mut rng)) {
                *acc += x;
            }
            for (acc, x) in fus_hist.iter_mut().zip(fused_ones(&oue, &values, &mut rng)) {
                *acc += x;
            }
        }
        let (rn, fn_) = (ref_hist.iter().sum::<u64>(), fus_hist.iter().sum::<u64>());
        assert!(rn > 10_000 && fn_ > 10_000, "eps={eps}: too few ones: {rn} vs {fn_}");
        // Totals are sums of the same n·d Bernoullis: equal to within a
        // few sd of Binomial(n·d, ~q).
        let sd = (rn.max(fn_) as f64).sqrt();
        assert!(
            (rn as f64 - fn_ as f64).abs() < 6.0 * sd,
            "eps={eps}: ones totals diverge: {rn} vs {fn_}"
        );
        let (chi, dof) = two_sample_chi_square(&ref_hist, &fus_hist, rn, fn_);
        assert!(
            chi < chi2_crit(dof),
            "eps={eps}: fused ones diverge from reference: chi={chi:.1} dof={dof} (crit {:.1})",
            chi2_crit(dof)
        );
    }
}

/// The fused kernel's estimates must be unbiased, exactly like the
/// reference path's (mirrors the historical `estimates_are_unbiased`).
#[test]
fn fused_estimates_are_unbiased() {
    let oue = Oue::new(1.0, 5).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let n = 5000usize;
    let values: Vec<usize> = (0..n).map(|i| if i % 5 < 3 { 2 } else { 0 }).collect();
    let est = oue.debias(&fused_ones(&oue, &values, &mut rng), n as u64);
    let sd = Oue::variance(&oue, n as u64).sqrt();
    assert!((est[2] - 0.6).abs() < 3.5 * sd, "est[2]={}", est[2]);
    assert!((est[0] - 0.4).abs() < 3.5 * sd, "est[0]={}", est[0]);
    assert!(est[1].abs() < 3.5 * sd);
    assert!(est[3].abs() < 3.5 * sd);
}

/// The in-place Aggregate round must consume the random stream exactly as
/// the historical allocating path did: true counts first, then per
/// position one Binomial(c, p) draw followed by one Binomial(n − c, q)
/// draw, in position order.
#[test]
fn aggregate_round_preserves_historical_random_stream() {
    let domain = 40;
    let oue = Oue::new(1.2, domain).unwrap();
    let values: Vec<usize> = (0..900).map(|i| (7 * i) % domain).collect();
    let n = values.len() as u64;

    // Historical reference, replayed inline.
    let mut rng = StdRng::seed_from_u64(77);
    let mut counts = vec![0u64; domain];
    for &v in &values {
        counts[v] += 1;
    }
    let expected: Vec<u64> = counts
        .iter()
        .map(|&c| binomial::sample(c, OUE_P, &mut rng) + binomial::sample(n - c, oue.q(), &mut rng))
        .collect();

    let mut rng = StdRng::seed_from_u64(77);
    let mut ones = Vec::new();
    oue.collect_ones_into(&values, &mut ones, &mut rng).unwrap();
    assert_eq!(ones, expected);
}

#[test]
fn debias_into_matches_debias_and_reuses_buffer() {
    let oue = Oue::new(0.8, 16).unwrap();
    let ones: Vec<u64> = (0..16).map(|i| (i * i * 13) % 257).collect();
    let mut out = vec![9.0; 3];
    oue.debias_into(&ones, 1000, &mut out);
    assert_eq!(out, oue.debias(&ones, 1000));
    // n = 0 resets to zeros.
    oue.debias_into(&ones, 0, &mut out);
    assert_eq!(out, vec![0.0; 16]);
}

#[test]
fn fused_kernel_validates_inputs() {
    let oue = Oue::new(1.0, 8).unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    let mut ones = vec![0u64; 8];
    assert!(oue.perturb_tally_into(8, &mut ones, &mut rng).is_err());
    let mut short = vec![0u64; 7];
    assert!(oue.perturb_tally_into(1, &mut short, &mut rng).is_err());
    // Out-of-domain values surface from the round-level API in both modes.
    for mode in [ReportMode::PerUser, ReportMode::Aggregate] {
        assert!(oue.collect(&[0, 9], mode, &mut rng).is_err(), "{mode:?}");
    }
}

/// Every per-position count is bounded by the number of reporters — the
/// fused walk must never double-count a position within one report.
#[test]
fn fused_counts_bounded_by_reporters() {
    for eps in [0.2, 1.0, 4.0] {
        let oue = Oue::new(eps, 64).unwrap();
        let values = vec![5usize; 200];
        let mut rng = StdRng::seed_from_u64(3);
        let ones = fused_ones(&oue, &values, &mut rng);
        assert!(ones.iter().all(|&c| c <= 200), "eps={eps}: {ones:?}");
    }
}
