//! Order statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by linear interpolation between
/// the two nearest ranks. `xs` is sorted in place. NaN for no samples.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Median of `xs` (sorted in place).
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Interquartile range of `xs` as a share of its median (sorted in place).
pub fn spread(xs: &mut [f64]) -> f64 {
    let q1 = quantile(xs, 0.25);
    let q3 = quantile(xs, 0.75);
    (q3 - q1) / quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(median(&mut xs), 2.5);
        assert!((quantile(&mut xs, 0.25) - 1.75).abs() < 1e-12);
        assert!((spread(&mut xs) - 1.5 / 2.5).abs() < 1e-12);
        assert!(median(&mut []).is_nan());
    }
}
