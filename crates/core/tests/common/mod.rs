//! Statistical helpers for the per-user engine test suite.

/// Two-sample chi-square statistic between histograms `a` and `b` (unequal
/// totals handled by the usual √(N_b/N_a) weighting). Returns the statistic
/// and the degrees of freedom (occupied categories − 1).
pub fn two_sample_chi_square(a: &[u64], b: &[u64], na: u64, nb: u64) -> (f64, usize) {
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
/// seeded tests never flake while still catching a wrong distribution).
pub fn chi2_crit(dof: usize) -> f64 {
    dof as f64 + 4.0 * (2.0 * dof as f64).sqrt() + 10.0
}
