//! Seeded distributional tests: the O(1) alias-table draws must be
//! statistically indistinguishable from the O(k) reference scan
//! (`sample_weighted`) they replaced — same expected distribution, verified
//! with Pearson chi-square against the analytic probabilities.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_core::sampler::{sample_weighted, AliasTable};
use retrasyn_core::GlobalMobilityModel;
use retrasyn_geo::{TransitionTable, UniformGrid};

/// Pearson chi-square statistic of observed counts against expected
/// probabilities (categories with zero expected mass must be unobserved).
fn chi_square(counts: &[u64], probs: &[f64], n: u64) -> f64 {
    let mut chi = 0.0;
    for (&c, &p) in counts.iter().zip(probs) {
        if p <= 0.0 {
            assert_eq!(c, 0, "zero-probability category was drawn");
            continue;
        }
        let e = p * n as f64;
        chi += (c as f64 - e).powi(2) / e;
    }
    chi
}

/// 99.9th-percentile chi-square critical values for 1..=15 dof.
fn chi2_crit(dof: usize) -> f64 {
    const CRIT: [f64; 15] = [
        10.83, 13.82, 16.27, 18.47, 20.52, 22.46, 24.32, 26.12, 27.88, 29.59, 31.26, 32.91, 34.53,
        36.12, 37.70,
    ];
    CRIT[dof - 1]
}

#[test]
fn alias_and_scan_agree_on_fixed_weights() {
    // A deliberately awkward weight vector: zeros, negatives (clamped by
    // both samplers), and a dominant mode.
    let weights = [0.2, 0.0, -0.4, 1.4, 0.05, 0.0, 0.35, 0.6];
    let clamped: Vec<f64> = weights.iter().map(|w: &f64| w.max(0.0)).collect();
    let total: f64 = clamped.iter().sum();
    let probs: Vec<f64> = clamped.iter().map(|w| w / total).collect();
    let dof = probs.iter().filter(|&&p| p > 0.0).count() - 1;

    let n = 250_000u64;
    let alias = AliasTable::new(&weights);
    let mut rng = StdRng::seed_from_u64(1001);
    let mut alias_counts = vec![0u64; weights.len()];
    for _ in 0..n {
        alias_counts[alias.sample(&mut rng)] += 1;
    }
    // `sample_weighted` documents non-negative weights (its callers always
    // pre-clamp, as `AliasTable` does internally), so feed it the clamped
    // vector.
    let mut scan_counts = vec![0u64; weights.len()];
    for _ in 0..n {
        scan_counts[sample_weighted(&clamped, &mut rng)] += 1;
    }

    let chi_alias = chi_square(&alias_counts, &probs, n);
    let chi_scan = chi_square(&scan_counts, &probs, n);
    assert!(chi_alias < chi2_crit(dof), "alias chi-square {chi_alias} (counts {alias_counts:?})");
    assert!(chi_scan < chi2_crit(dof), "scan chi-square {chi_scan} (counts {scan_counts:?})");
}

#[test]
fn cached_model_draws_match_scan_distribution_per_cell() {
    let grid = UniformGrid::unit(6);
    let table = TransitionTable::new(&grid);
    // Pseudo-random signed frequencies over the whole domain.
    let freqs: Vec<f64> =
        (0..table.len()).map(|i| (((i * 2654435761) % 97) as f64 - 20.0) * 1e-3).collect();
    let mut model = GlobalMobilityModel::new(table.len());
    model.replace_all(&freqs);
    model.rebuild_samplers(&table);
    let cache = model.sampler().expect("fresh cache").clone();

    let n = 60_000u64;
    let mut rng = StdRng::seed_from_u64(2002);
    for cell in table.topology().cells() {
        let probs_raw = model.move_probs(&table, cell);
        // The alias row is conditioned on not quitting: renormalize.
        let total: f64 = probs_raw.iter().sum();
        let probs: Vec<f64> = if total > 0.0 {
            probs_raw.iter().map(|p| p / total).collect()
        } else {
            vec![1.0 / probs_raw.len() as f64; probs_raw.len()]
        };
        let targets = table.move_targets(cell);
        let mut counts = vec![0u64; targets.len()];
        for _ in 0..n {
            let to = cache.sample_move(cell, &mut rng);
            counts[targets.iter().position(|&c| c == to).unwrap()] += 1;
        }
        let dof = probs.iter().filter(|&&p| p > 0.0).count().saturating_sub(1).max(1);
        let chi = chi_square(&counts, &probs, n);
        assert!(chi < chi2_crit(dof), "cell {cell:?}: chi-square {chi} > crit({dof})");
    }
}

#[test]
fn cached_enter_draws_match_enter_distribution() {
    let grid = UniformGrid::unit(5);
    let table = TransitionTable::new(&grid);
    let mut freqs = vec![0.0; table.len()];
    for (i, c) in table.topology().cells().enumerate() {
        freqs[table.enter_index(c)] = (i % 4) as f64 * 0.1;
    }
    let mut model = GlobalMobilityModel::new(table.len());
    model.replace_all(&freqs);
    model.rebuild_samplers(&table);
    let cache = model.sampler().unwrap().clone();

    let probs = model.enter_distribution(&table);
    let n = 150_000u64;
    let mut rng = StdRng::seed_from_u64(3003);
    let mut counts = vec![0u64; table.num_cells()];
    for _ in 0..n {
        counts[cache.sample_enter(&mut rng).index()] += 1;
    }
    let dof = probs.iter().filter(|&&p| p > 0.0).count() - 1;
    // dof can exceed the table; fall back to a generous normal bound.
    let crit =
        if dof <= 15 { chi2_crit(dof) } else { dof as f64 + 4.0 * (2.0 * dof as f64).sqrt() };
    let chi = chi_square(&counts, &probs, n);
    assert!(chi < crit, "enter chi-square {chi} > {crit}");
}

#[test]
fn cached_and_uncached_synthesis_produce_similar_occupancy() {
    // End-to-end: run the same synthesis schedule with and without the
    // sampler cache; per-cell occupancy distributions of the final state
    // must agree within statistical noise (they share expected dynamics).
    let grid = UniformGrid::unit(4);
    let table = TransitionTable::new(&grid);
    let freqs: Vec<f64> = (0..table.len()).map(|i| ((i % 13) as f64 + 1.0) * 1e-3).collect();

    let run = |cached: bool| {
        let mut model = GlobalMobilityModel::new(table.len());
        model.replace_all(&freqs);
        if cached {
            model.rebuild_samplers(&table);
        }
        let mut db = retrasyn_core::SyntheticDb::new();
        let mut rng = StdRng::seed_from_u64(4004);
        for t in 0..30 {
            db.step(t, &model, &table, 8000, 25.0, &mut rng);
        }
        db.occupancy(table.num_cells())
    };
    let occ_cached = run(true);
    let occ_scan = run(false);
    let total: u64 = occ_cached.iter().sum();
    assert_eq!(total, 8000);
    for (i, (&a, &b)) in occ_cached.iter().zip(&occ_scan).enumerate() {
        // ~500 expected per cell; 5 sigma of a binomial spread.
        let sigma = (a.max(b).max(1) as f64).sqrt();
        assert!(
            (a as f64 - b as f64).abs() < 5.0 * sigma + 25.0,
            "cell {i}: cached {a} vs scan {b}"
        );
    }
}
