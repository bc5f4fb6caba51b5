//! Property-based tests for the RetraSyn core: DMU optimality, model
//! invariants, allocator bounds, synthesis size tracking.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_core::allocation::Allocator;
use retrasyn_core::{dmu, AllocationKind, GlobalMobilityModel, SyntheticDb};
use retrasyn_geo::{TransitionTable, UniformGrid};

proptest! {
    /// DMU's per-transition rule is globally optimal for Eq. 7: no other
    /// selection achieves lower total error (checked exhaustively for up
    /// to 10 dimensions).
    #[test]
    fn dmu_is_globally_optimal(
        pairs in prop::collection::vec((-0.2f64..1.0, -0.2f64..1.0), 1..10),
        err_upd in 0.0f64..0.2,
    ) {
        let current: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let fresh: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let chosen = dmu::select_significant(&current, &fresh, err_upd);
        let chosen_err = dmu::total_error(&current, &fresh, err_upd, &chosen);
        let d = current.len();
        for mask in 0..(1u32 << d) {
            let candidate: Vec<bool> = (0..d).map(|i| mask >> i & 1 == 1).collect();
            let err = dmu::total_error(&current, &fresh, err_upd, &candidate);
            prop_assert!(chosen_err <= err + 1e-12);
        }
    }

    /// Model distributions are always valid: move probs + quit prob sum to
    /// 1 per source cell; enter/quit distributions are probability vectors.
    #[test]
    fn model_distributions_are_valid(
        k in 1u32..6,
        raw in prop::collection::vec(-0.05f64..0.1, 1..400),
        seed in 0u64..50,
    ) {
        let grid = UniformGrid::unit(k);
        let table = TransitionTable::new(&grid);
        let len = table.len();
        let mut est = vec![0.0; len];
        for (i, v) in raw.iter().enumerate() {
            est[i % len] += v;
        }
        let mut model = GlobalMobilityModel::new(table.len());
        model.replace_all(&est);
        let _ = seed;
        for c in table.topology().cells() {
            let probs = model.move_probs(&table, c);
            let quit = model.base_quit_prob(&table, c);
            prop_assert!(probs.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
            prop_assert!((0.0..=1.0).contains(&quit));
            let denom = model.move_denominator(&table, c);
            if denom > 0.0 {
                let total: f64 = probs.iter().sum::<f64>() + quit;
                prop_assert!((total - 1.0).abs() < 1e-9, "cell {c:?}: total {total}");
            } else {
                // Uniform fallback over the neighbors, quit = 0.
                let total: f64 = probs.iter().sum();
                prop_assert!((total - 1.0).abs() < 1e-9);
                prop_assert_eq!(quit, 0.0);
            }
        }
        let e = model.enter_distribution(&table);
        let q = model.quit_distribution(&table);
        prop_assert!((e.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(e.iter().chain(q.iter()).all(|&p| p >= 0.0));
    }

    /// Adaptive portions always lie in [0, p_max]; Uniform is 1/w; Sample
    /// is {0, 1} with exactly one firing per window.
    #[test]
    fn allocator_portion_bounds(
        w in 1usize..40,
        snapshots in prop::collection::vec(
            prop::collection::vec(0.0f64..1.0, 4), 0..10),
        sig in prop::collection::vec(0.0f64..1.0, 0..10),
        t in 0u64..200,
    ) {
        let mut a = Allocator::new(AllocationKind::Adaptive, w, 8.0, 5, 0.6);
        for (i, s) in snapshots.iter().enumerate() {
            a.observe(s, sig.get(i).copied().unwrap_or(0.0));
        }
        // The adaptive formula is capped at p_max; the Algorithm-1
        // bootstrap (no history yet) uses 1/w, which may exceed it for
        // tiny windows.
        let p = a.portion(t);
        let bound = 0.6f64.max(1.0 / w as f64);
        prop_assert!((0.0..=bound).contains(&p), "p={p} bound={bound}");

        let u = Allocator::new(AllocationKind::Uniform, w, 8.0, 5, 0.6);
        prop_assert!((u.portion(t) - 1.0 / w as f64).abs() < 1e-12);

        let s = Allocator::new(AllocationKind::Sample, w, 8.0, 5, 0.6);
        let fires: usize = (0..w as u64).map(|i| {
            if s.portion(t / w as u64 * w as u64 + i) == 1.0 { 1 } else { 0 }
        }).sum();
        prop_assert_eq!(fires, 1);
    }

    /// Synthesis keeps the database size exactly on target through
    /// arbitrary target schedules, and every produced stream respects
    /// adjacency.
    #[test]
    fn synthesis_tracks_any_target_schedule(
        targets in prop::collection::vec(0usize..60, 1..25),
        seed in 0u64..100,
    ) {
        let grid = UniformGrid::unit(4);
        let table = TransitionTable::new(&grid);
        let mut model = GlobalMobilityModel::new(table.len());
        // Mildly informative model.
        let est: Vec<f64> = (0..table.len()).map(|i| ((i % 7) as f64) * 1e-3).collect();
        model.replace_all(&est);
        let mut db = SyntheticDb::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for (t, &target) in targets.iter().enumerate() {
            db.step(t as u64, &model, &table, target, 8.0, &mut rng);
            prop_assert_eq!(db.active_count(), target, "t={}", t);
        }
        let horizon = targets.len() as u64;
        let released = db.release(&grid, horizon);
        for s in released.iter() {
            prop_assert!(!s.cells.is_empty());
            prop_assert!(s.end() < horizon);
            for w in s.cells.windows(2) {
                prop_assert!(table.topology().are_adjacent(w[0], w[1]));
            }
        }
    }

    /// Per-timestamp synthetic occupancy always sums to the live count.
    #[test]
    fn occupancy_sums_to_active(targets in prop::collection::vec(0usize..40, 1..15)) {
        let grid = UniformGrid::unit(3);
        let table = TransitionTable::new(&grid);
        let model = GlobalMobilityModel::new(table.len());
        let mut db = SyntheticDb::new();
        let mut rng = StdRng::seed_from_u64(5);
        for (t, &target) in targets.iter().enumerate() {
            db.step(t as u64, &model, &table, target, 8.0, &mut rng);
            let occ = db.occupancy(table.num_cells());
            prop_assert_eq!(occ.iter().sum::<u64>() as usize, db.active_count());
        }
    }
}
