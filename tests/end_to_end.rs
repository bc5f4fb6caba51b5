//! End-to-end integration tests: generators → discretization → private
//! engines → metrics, across all methods.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn::core::{BaselineKind, Division};
use retrasyn::prelude::*;

fn small_taxi() -> StreamDataset {
    TDriveConfig { taxis: 400, timestamps: 80, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(1))
}

fn small_network() -> StreamDataset {
    BrinkhoffConfig { initial_objects: 400, new_per_ts: 20, timestamps: 60, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(2))
}

#[test]
fn retrasyn_full_pipeline_on_taxi_data() {
    let ds = small_taxi();
    let grid = Grid::unit(5);
    let orig = ds.discretize(&grid);
    let config = RetraSynConfig::new(1.0, 10).with_lambda(orig.avg_length());
    let mut engine = RetraSyn::population_division(config, grid, 7);
    let syn = engine.run_gridded(&orig);
    engine.ledger().verify().expect("w-event invariant");

    assert_eq!(syn.horizon(), orig.horizon());
    // Synthetic size tracks the real one at every timestamp.
    for t in (0..orig.horizon()).step_by(7) {
        assert_eq!(syn.active_count(t), orig.active_count(t), "t={t}");
    }
    // Movement respects grid adjacency everywhere.
    for s in syn.iter() {
        for w in s.cells.windows(2) {
            assert!(syn.topology().are_adjacent(w[0], w[1]));
        }
    }
}

#[test]
fn retrasyn_beats_uninformed_control() {
    // A synthetic database from a *zero-information* model (uniform walks
    // of the right size) is what RetraSyn must outperform to be useful.
    let ds = TDriveConfig { taxis: 1200, timestamps: 80, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(77));
    let grid = Grid::unit(5);
    let orig = ds.discretize(&grid);

    let config = RetraSynConfig::new(2.0, 10).with_lambda(orig.avg_length());
    let mut engine = RetraSyn::population_division(config, grid.clone(), 3);
    let informed = engine.run_gridded(&orig);

    // Control: same engine but with a privacy budget so small the model
    // never learns anything real.
    let control_config = RetraSynConfig::new(0.01, 10).with_lambda(orig.avg_length());
    let mut control_engine = RetraSyn::population_division(control_config, grid, 3);
    let control = control_engine.run_gridded(&orig);

    let suite = MetricSuite::new(SuiteConfig { phi: 10, ..Default::default() });
    let informed_report = suite.evaluate(&orig, &informed);
    let control_report = suite.evaluate(&orig, &control);
    assert!(
        informed_report.query_error < control_report.query_error,
        "query: {} vs control {}",
        informed_report.query_error,
        control_report.query_error
    );
    assert!(
        informed_report.trip_error < control_report.trip_error,
        "trip: {} vs control {}",
        informed_report.trip_error,
        control_report.trip_error
    );
    assert!(
        informed_report.hotspot_ndcg > control_report.hotspot_ndcg,
        "ndcg: {} vs control {}",
        informed_report.hotspot_ndcg,
        control_report.hotspot_ndcg
    );
}

#[test]
fn baselines_length_error_is_ln2() {
    // The paper's Table III constant: baselines never terminate synthetic
    // trajectories, so their travel-distance support is disjoint from the
    // real one.
    let ds = small_network();
    let grid = Grid::unit(5);
    let orig = ds.discretize(&grid);
    for kind in BaselineKind::ALL {
        let mut engine = LdpIds::new(kind, LdpIdsConfig::new(1.0, 10), grid.clone(), 5);
        let syn = engine.run_gridded(&orig);
        let err = retrasyn::metrics::length::length_error(&orig, &syn, 20);
        assert!((err - std::f64::consts::LN_2).abs() < 1e-6, "{}: length error {err}", kind.name());
    }
}

#[test]
fn retrasyn_dominates_baselines_on_trajectory_metrics() {
    let ds = small_network();
    let grid = Grid::unit(5);
    let orig = ds.discretize(&grid);

    let config = RetraSynConfig::new(1.0, 10).with_lambda(orig.avg_length());
    let mut engine = RetraSyn::population_division(config, grid.clone(), 9);
    let ours = engine.run_gridded(&orig);

    let mut baseline = LdpIds::new(BaselineKind::Lpd, LdpIdsConfig::new(1.0, 10), grid, 9);
    let theirs = baseline.run_gridded(&orig);

    let trip_ours = retrasyn::metrics::trip::trip_error(&orig, &ours);
    let trip_theirs = retrasyn::metrics::trip::trip_error(&orig, &theirs);
    assert!(trip_ours < trip_theirs, "trip: {trip_ours} vs {trip_theirs}");

    let len_ours = retrasyn::metrics::length::length_error(&orig, &ours, 20);
    let len_theirs = retrasyn::metrics::length::length_error(&orig, &theirs, 20);
    assert!(len_ours < len_theirs, "length: {len_ours} vs {len_theirs}");
}

#[test]
fn noeq_ablation_degrades_trajectory_metrics_only() {
    // Table IV: NoEQ keeps global metrics close but collapses the length
    // distribution (ln 2).
    let ds = small_taxi();
    let grid = Grid::unit(5);
    let orig = ds.discretize(&grid);

    let full_config = RetraSynConfig::new(1.5, 10).with_lambda(orig.avg_length());
    let mut full = RetraSyn::population_division(full_config, grid.clone(), 21);
    let full_syn = full.run_gridded(&orig);

    let noeq_config = RetraSynConfig::new(1.5, 10).with_lambda(orig.avg_length()).no_eq();
    let mut noeq = RetraSyn::population_division(noeq_config, grid, 21);
    let noeq_syn = noeq.run_gridded(&orig);

    let full_len = retrasyn::metrics::length::length_error(&orig, &full_syn, 20);
    let noeq_len = retrasyn::metrics::length::length_error(&orig, &noeq_syn, 20);
    assert!((noeq_len - std::f64::consts::LN_2).abs() < 1e-6, "NoEQ length {noeq_len}");
    assert!(full_len < 0.5, "full RetraSyn length error {full_len}");
}

#[test]
fn budget_and_population_divisions_both_work_on_all_generators() {
    for (name, ds) in [("taxi", small_taxi()), ("network", small_network())] {
        let grid = Grid::unit(4);
        let orig = ds.discretize(&grid);
        for division in [Division::Budget, Division::Population] {
            let config = RetraSynConfig::new(1.0, 8).with_lambda(orig.avg_length());
            let mut engine = RetraSyn::new(config, grid.clone(), division, 13);
            let syn = engine.run_gridded(&orig);
            assert!(!syn.is_empty(), "{name}/{division:?}");
            engine.ledger().verify().unwrap_or_else(|e| panic!("{name}/{division:?}: {e}"));
        }
    }
}

#[test]
fn per_user_report_mode_matches_aggregate_statistically() {
    // The exact per-user simulation and the binomial aggregate path must
    // produce statistically equivalent releases. Swept over 16 engine
    // seeds so the claim cannot rest on one lucky stream: the mean |Δ| of
    // density and transition error between the two modes stays within
    // 0.1, and every session's w-event ledger verifies.
    use retrasyn::metrics::{density::density_error, transition::transition_error};
    const SEEDS: u64 = 16;
    let ds = small_taxi();
    let grid = Grid::unit(4);
    let orig = ds.discretize(&grid);
    let table = TransitionTable::new(orig.topology());
    let errors = |config: RetraSynConfig, seed: u64| {
        let mut engine = RetraSyn::population_division(config, grid.clone(), seed);
        let syn = engine.run_gridded(&orig);
        engine.ledger().verify().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        (density_error(&orig, &syn), transition_error(&orig, &syn, &table))
    };
    let (mut density, mut transition) = (0.0, 0.0);
    for seed in 0..SEEDS {
        let config = RetraSynConfig::new(2.0, 8).with_lambda(orig.avg_length());
        let (agg_density, agg_transition) = errors(config.clone(), seed);
        let (pu_density, pu_transition) = errors(config.per_user_reports(), seed);
        density += (agg_density - pu_density).abs() / SEEDS as f64;
        transition += (agg_transition - pu_transition).abs() / SEEDS as f64;
    }
    assert!(density < 0.1, "mean density |Δ| over {SEEDS} seeds: {density}");
    assert!(transition < 0.1, "mean transition |Δ| over {SEEDS} seeds: {transition}");
}
