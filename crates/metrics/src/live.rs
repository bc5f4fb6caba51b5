//! Live per-timestamp monitors over streaming [`SnapshotView`]s.
//!
//! The historical metrics in this crate score a *released*
//! `GriddedDataset` after the stream ends. A deployed curator instead
//! watches the synthetic database **as it evolves**: after every engine
//! step, the session API hands out a borrowed, zero-copy
//! [`SnapshotView`], and these helpers score it against the real stream's
//! per-timestamp ground truth. Everything here is post-processing of the
//! private release (Theorem 2) — no additional privacy budget is spent,
//! no matter how often a monitor reads the snapshot.
//!
//! The `_into` variants take caller scratch so a per-timestamp monitoring
//! loop allocates nothing after warm-up.

use crate::divergence;
use retrasyn_core::SnapshotView;

/// Jensen–Shannon divergence (nats, ≤ ln 2) between a real per-cell
/// occupancy histogram and the snapshot's live synthetic occupancy — the
/// per-timestamp analogue of the suite's density error. `real` must have
/// one entry per grid cell.
///
/// Allocation-free: `occupancy` and `weights` are reused scratch buffers.
pub fn occupancy_jsd_into(
    real: &[u64],
    snapshot: &SnapshotView<'_>,
    occupancy: &mut Vec<u64>,
    weights: &mut Vec<f64>,
) -> f64 {
    snapshot.occupancy_into(real.len(), occupancy);
    weights.clear();
    weights.extend(real.iter().map(|&c| c as f64));
    weights.extend(occupancy.iter().map(|&c| c as f64));
    let (p, q) = weights.split_at(real.len());
    divergence::jsd(p, q)
}

/// Allocating convenience wrapper over [`occupancy_jsd_into`].
pub fn occupancy_jsd(real: &[u64], snapshot: &SnapshotView<'_>) -> f64 {
    occupancy_jsd_into(real, snapshot, &mut Vec::new(), &mut Vec::new())
}

/// Relative error of the live synthetic population against the real active
/// count at the same timestamp: `|syn − real| / real`. Edge cases keep the
/// unit consistent — 0 when both populations are empty, `+∞` when the real
/// population is empty but the synthetic one is not (any threshold on a
/// relative error correctly flags it).
pub fn population_error(real_active: usize, snapshot: &SnapshotView<'_>) -> f64 {
    let syn = snapshot.active_count();
    if real_active == 0 {
        return if syn == 0 { 0.0 } else { f64::INFINITY };
    }
    (syn as f64 - real_active as f64).abs() / real_active as f64
}

/// Number of live synthetic streams currently inside a cell region (e.g. a
/// monitored district) — one scan of the snapshot's head column.
pub fn region_population(snapshot: &SnapshotView<'_>, region: &[retrasyn_geo::CellId]) -> usize {
    snapshot.live().filter(|s| region.contains(&s.head())).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use retrasyn_core::{GlobalMobilityModel, SyntheticDb};
    use retrasyn_geo::{Topology, TransitionTable, UniformGrid};
    use std::f64::consts::LN_2;
    use std::sync::Arc;

    /// A tiny synthetic database: `n` streams stepped once.
    fn db(n: usize) -> (Arc<Topology>, SyntheticDb) {
        let table = TransitionTable::new(&UniformGrid::unit(4));
        let mut model = GlobalMobilityModel::new(table.len());
        model.rebuild_samplers(&table);
        let mut db = SyntheticDb::new();
        let mut rng = StdRng::seed_from_u64(3);
        db.step(0, model.sampler().expect("just rebuilt"), n, 10.0, &mut rng);
        (Arc::clone(table.topology()), db)
    }

    #[test]
    fn occupancy_jsd_zero_against_itself() {
        let (grid, db) = db(40);
        let snap = db.snapshot(1);
        let real = snap.occupancy(grid.num_cells());
        assert!(occupancy_jsd(&real, &snap) < 1e-12);
        // Scratch variant agrees.
        let mut occ = Vec::new();
        let mut w = Vec::new();
        assert!(occupancy_jsd_into(&real, &snap, &mut occ, &mut w) < 1e-12);
    }

    #[test]
    fn occupancy_jsd_maximal_for_disjoint_support() {
        let (grid, db) = db(10);
        let snap = db.snapshot(1);
        // Real mass entirely on cells the synthetic population avoids.
        let syn = snap.occupancy(grid.num_cells());
        let real: Vec<u64> = syn.iter().map(|&c| u64::from(c == 0)).collect();
        let d = occupancy_jsd(&real, &snap);
        assert!((d - LN_2).abs() < 1e-9, "jsd={d}");
    }

    #[test]
    fn population_error_relative() {
        let (_, db) = db(30);
        let snap = db.snapshot(1);
        assert!(population_error(30, &snap).abs() < 1e-12);
        assert!((population_error(60, &snap) - 0.5).abs() < 1e-12);
        // Real empty, synthetic not: infinite relative error, not a count.
        assert_eq!(population_error(0, &snap), f64::INFINITY);
        // Both empty: perfect agreement.
        assert_eq!(population_error(0, &SyntheticDb::new().snapshot(0)), 0.0);
    }

    #[test]
    fn region_population_counts_heads() {
        let (grid, db) = db(25);
        let snap = db.snapshot(1);
        let all: Vec<_> = grid.cells().collect();
        assert_eq!(region_population(&snap, &all), 25);
        assert_eq!(region_population(&snap, &[]), 0);
    }
}
