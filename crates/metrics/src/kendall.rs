//! Kendall's τ-b correlation of cell-popularity rankings (paper §V-B,
//! "Kendall-Tau": "models the discrepancies in locations' popularity
//! ranking").

use retrasyn_geo::GriddedDataset;

/// Kendall τ-b between two paired value vectors, with tie correction:
///
/// ```text
/// τ_b = (P − Q) / sqrt((P + Q + T_x)(P + Q + T_y))
/// ```
///
/// where `P`/`Q` count concordant/discordant pairs and `T_x`/`T_y` count
/// pairs tied only in x / only in y. Returns 0 when either side is constant.
pub fn kendall_tau_b(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "paired vectors must have equal length");
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let mut p = 0u64; // concordant
    let mut q = 0u64; // discordant
    let mut tx = 0u64; // tied in x only
    let mut ty = 0u64; // tied in y only
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = x[i].partial_cmp(&x[j]).expect("finite values");
            let dy = y[i].partial_cmp(&y[j]).expect("finite values");
            use std::cmp::Ordering::*;
            match (dx, dy) {
                (Equal, Equal) => {}
                (Equal, _) => tx += 1,
                (_, Equal) => ty += 1,
                (a, b) if a == b => p += 1,
                _ => q += 1,
            }
        }
    }
    let denom = (((p + q + tx) as f64) * ((p + q + ty) as f64)).sqrt();
    if denom == 0.0 {
        return 0.0;
    }
    (p as f64 - q as f64) / denom
}

/// Kendall τ-b of total per-cell visit counts between the two databases.
pub fn kendall_tau(orig: &GriddedDataset, syn: &GriddedDataset) -> f64 {
    assert_eq!(orig.topology(), syn.topology(), "datasets must share a discretization");
    let o: Vec<f64> = orig.total_counts().iter().map(|&c| c as f64).collect();
    let s: Vec<f64> = syn.total_counts().iter().map(|&c| c as f64).collect();
    kendall_tau_b(&o, &s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use retrasyn_geo::{GriddedStream, UniformGrid};

    #[test]
    fn perfect_agreement() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!((kendall_tau_b(&x, &x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_disagreement() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [4.0, 3.0, 2.0, 1.0];
        assert!((kendall_tau_b(&x, &y) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_value_with_ties() {
        // x = [1,2,2,3], y = [1,3,2,2]:
        // (0,1) P, (0,2) P, (0,3) P, (1,2) x-tie, (1,3) Q, (2,3) y-tie
        // => P=3, Q=1, Tx=1, Ty=1, tau_b = 2 / sqrt(5*5) = 0.4.
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 3.0, 2.0, 2.0];
        let tau = kendall_tau_b(&x, &y);
        assert!((tau - 0.4).abs() < 1e-12, "tau={tau}");
    }

    #[test]
    fn constant_side_returns_zero() {
        let x = [1.0, 1.0, 1.0];
        let y = [1.0, 2.0, 3.0];
        assert_eq!(kendall_tau_b(&x, &y), 0.0);
        assert_eq!(kendall_tau_b(&y, &x), 0.0);
        assert_eq!(kendall_tau_b(&[], &[]), 0.0);
        assert_eq!(kendall_tau_b(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn dataset_popularity_ranking() {
        let grid = UniformGrid::unit(2);
        let make = |counts: [usize; 4]| {
            let mut streams = Vec::new();
            let mut id = 0u64;
            for (cell, &n) in counts.iter().enumerate() {
                for _ in 0..n {
                    streams.push(GriddedStream {
                        id,
                        start: 0,
                        cells: vec![retrasyn_geo::CellId(cell as u32)],
                    });
                    id += 1;
                }
            }
            GriddedDataset::from_streams(grid.clone(), streams, 1)
        };
        let orig = make([10, 5, 2, 1]);
        let same_rank = make([8, 4, 2, 1]);
        let inverted = make([1, 2, 5, 10]);
        assert!((kendall_tau(&orig, &same_rank) - 1.0).abs() < 1e-12);
        assert!((kendall_tau(&orig, &inverted) + 1.0).abs() < 1e-12);
    }
}
