//! Privacy accounting integration tests: the w-event ε-LDP invariant
//! (Theorem 3) is verified at runtime for every engine, division, and
//! allocation strategy, under adversarially chosen parameters.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn::core::{AllocationKind, BaselineKind, Division};
use retrasyn::ldp::WEventLedger;
use retrasyn::prelude::*;

fn churny_dataset(seed: u64, timestamps: u64) -> StreamDataset {
    // High churn stresses the registry/recycling logic.
    RandomWalkConfig { users: 250, timestamps, churn: 0.15, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(seed))
}

#[test]
fn retrasyn_invariant_across_window_sizes() {
    let ds = churny_dataset(1, 60);
    for w in [1usize, 2, 5, 13, 60, 100] {
        for division in [Division::Budget, Division::Population] {
            let config = RetraSynConfig::new(1.0, w).with_lambda(10.0);
            let mut engine = RetraSyn::new(config, UniformGrid::unit(4), division, 3);
            let _ = engine.run(&ds);
            engine.ledger().verify().unwrap_or_else(|e| panic!("w={w} {division:?}: {e}"));
        }
    }
}

#[test]
fn retrasyn_invariant_across_allocations_and_budgets() {
    let ds = churny_dataset(2, 50);
    for eps in [0.1, 0.5, 2.0, 8.0] {
        for kind in [AllocationKind::Adaptive, AllocationKind::Uniform, AllocationKind::Sample] {
            for division in [Division::Budget, Division::Population] {
                let config = RetraSynConfig::new(eps, 7).with_lambda(10.0).with_allocation(kind);
                let mut engine = RetraSyn::new(config, UniformGrid::unit(4), division, 5);
                let _ = engine.run(&ds);
                engine
                    .ledger()
                    .verify()
                    .unwrap_or_else(|e| panic!("eps={eps} {kind:?} {division:?}: {e}"));
            }
        }
        // RandomReport (population-only).
        let config = RetraSynConfig::new(eps, 7)
            .with_lambda(10.0)
            .with_allocation(AllocationKind::RandomReport);
        let mut engine = RetraSyn::population_division(config, UniformGrid::unit(4), 5);
        let _ = engine.run(&ds);
        engine.ledger().verify().unwrap_or_else(|e| panic!("eps={eps} random: {e}"));
    }
}

#[test]
fn baselines_invariant_across_parameters() {
    let ds = churny_dataset(3, 50);
    for kind in BaselineKind::ALL {
        for w in [2usize, 5, 10, 25] {
            for eps in [0.5, 1.0, 2.0] {
                let mut engine =
                    LdpIds::new(kind, LdpIdsConfig::new(eps, w), UniformGrid::unit(4), 7);
                let _ = engine.run(&ds);
                engine
                    .ledger()
                    .verify()
                    .unwrap_or_else(|e| panic!("{} w={w} eps={eps}: {e}", kind.name()));
            }
        }
    }
}

#[test]
fn population_division_spends_full_eps_per_report_at_most_once_per_window() {
    let ds = churny_dataset(4, 40);
    let w = 6;
    let config = RetraSynConfig::new(1.0, w).with_lambda(10.0);
    let mut engine = RetraSyn::population_division(config, UniformGrid::unit(4), 11);
    let _ = engine.run(&ds);
    // verify() already checks spacing; also confirm reports actually
    // happened (the mechanism is not vacuously private).
    assert!(engine.ledger().total_user_reports() > 50);
}

#[test]
fn budget_division_window_spend_stays_within_eps() {
    let ds = churny_dataset(5, 45);
    let eps = 1.3;
    let w = 9;
    let config = RetraSynConfig::new(eps, w).with_lambda(10.0);
    let mut engine = RetraSyn::budget_division(config, UniformGrid::unit(4), 13);
    let _ = engine.run(&ds);
    for t in 0..45 {
        let spend = engine.ledger().window_spend(t);
        assert!(spend <= eps + 1e-9, "window ending at {t} spends {spend}");
    }
}

#[test]
fn ledger_detects_violations() {
    // The accounting itself must be falsifiable.
    let mut ledger = WEventLedger::new(1.0, 3);
    ledger.record_budget(0, 0.6);
    ledger.record_budget(1, 0.6);
    assert!(ledger.verify().is_err());

    let mut ledger = WEventLedger::new(1.0, 5);
    ledger.record_user_report(1, 2);
    ledger.record_user_report(1, 4);
    assert!(ledger.verify().is_err());
}

#[test]
fn sequential_composition_helper() {
    use retrasyn::ldp::PrivacyBudget;
    let parts: Vec<PrivacyBudget> = (0..5).map(|_| PrivacyBudget::new(0.2).unwrap()).collect();
    assert!((PrivacyBudget::compose(&parts) - 1.0).abs() < 1e-12);
}
