//! Metric regression tests on frozen hand-built fixtures: each metric is
//! pinned to an analytically derived value so refactors cannot silently
//! change metric semantics.

use retrasyn::geo::{CellId, GriddedDataset, GriddedStream, UniformGrid};
use retrasyn::metrics::{
    density, divergence, hotspot, kendall, length, pattern, query, transition, trip,
};
use retrasyn::prelude::TransitionTable;
use std::f64::consts::LN_2;

/// Original: two streams — A marches east along y=0 for 4 cells; B sits
/// still at (3,3) for 4 timestamps.
fn orig(grid: &UniformGrid) -> GriddedDataset {
    GriddedDataset::from_streams(
        grid.clone(),
        vec![
            GriddedStream { id: 0, start: 0, cells: (0..4).map(|x| grid.cell_at(x, 0)).collect() },
            GriddedStream { id: 1, start: 0, cells: vec![grid.cell_at(3, 3); 4] },
        ],
        4,
    )
}

/// Synthetic: A is reproduced exactly; B is displaced to (0,3).
fn syn(grid: &UniformGrid) -> GriddedDataset {
    GriddedDataset::from_streams(
        grid.clone(),
        vec![
            GriddedStream { id: 0, start: 0, cells: (0..4).map(|x| grid.cell_at(x, 0)).collect() },
            GriddedStream { id: 1, start: 0, cells: vec![grid.cell_at(0, 3); 4] },
        ],
        4,
    )
}

#[test]
fn density_error_pinned() {
    let grid = UniformGrid::unit(4);
    // Per timestamp: orig = {cell_x0: 1, (3,3): 1}, syn = {cell_x0: 1,
    // (0,3): 1}. Each timestamp: two half-mass cells, one shared.
    // JSD = 0.5*[0.5 ln(0.5/0.25)]*2 ... = 0.5*ln2 per side? Analytic:
    // p = [.5,.5,0], q = [.5,0,.5], m = [.5,.25,.25]:
    // KL(p||m) = .5 ln1 + .5 ln2 = .3466; same for q; JSD = .3466.
    let expected = 0.5 * LN_2;
    let e = density::density_error(&orig(&grid), &syn(&grid));
    assert!((e - expected).abs() < 1e-9, "e={e}");
}

#[test]
fn transition_error_pinned() {
    let grid = UniformGrid::unit(4);
    let table = TransitionTable::new(&grid);
    // Moves per ts: orig {east-step, stay@(3,3)}, syn {east-step,
    // stay@(0,3)} — same structure as density: JSD = 0.5 ln 2.
    let e = transition::transition_error(&orig(&grid), &syn(&grid), &table);
    assert!((e - 0.5 * LN_2).abs() < 1e-9, "e={e}");
}

#[test]
fn trip_error_pinned() {
    let grid = UniformGrid::unit(4);
    // Trips: orig {(0,0)->(3,0), (3,3)->(3,3)}, syn {(0,0)->(3,0),
    // (0,3)->(0,3)}: half the mass disjoint -> JSD = 0.5 ln 2.
    let e = trip::trip_error(&orig(&grid), &syn(&grid));
    assert!((e - 0.5 * LN_2).abs() < 1e-9, "e={e}");
}

#[test]
fn length_error_pinned_zero() {
    let grid = UniformGrid::unit(4);
    // Travel distances identical (3 hops and 0 hops on both sides).
    let e = length::length_error(&orig(&grid), &syn(&grid), 10);
    assert!(e < 1e-12, "e={e}");
}

#[test]
fn kendall_tau_pinned() {
    let grid = UniformGrid::unit(2);
    // Popularity: orig counts [3,2,1,0] over cells 0..3; syn [0,1,2,3].
    let build = |counts: [usize; 4]| {
        let mut streams = Vec::new();
        let mut id = 0;
        for (cell, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                streams.push(GriddedStream { id, start: 0, cells: vec![CellId(cell as u32)] });
                id += 1;
            }
        }
        GriddedDataset::from_streams(grid.clone(), streams, 1)
    };
    let tau = kendall::kendall_tau(&build([3, 2, 1, 0]), &build([0, 1, 2, 3]));
    assert!((tau + 1.0).abs() < 1e-12, "tau={tau}");
}

#[test]
fn query_error_pinned() {
    let grid = UniformGrid::unit(4);
    let o = orig(&grid);
    let s = syn(&grid);
    // Query the (3,3) cell across all 4 timestamps: orig = 4, syn = 0.
    let q = query::RangeQuery { x0: 3, x1: 3, y0: 3, y1: 3, t0: 0, t1: 3 };
    let e = query::query_error(&o, &s, &[q], 0.0001);
    assert!((e - 1.0).abs() < 1e-12, "e={e}");
    // Query covering everything: totals equal -> error 0.
    let all = query::RangeQuery { x0: 0, x1: 3, y0: 0, y1: 3, t0: 0, t1: 3 };
    assert_eq!(query::query_error(&o, &s, &[all], 0.0001), 0.0);
}

#[test]
fn hotspot_ndcg_pinned() {
    let grid = UniformGrid::unit(4);
    let o = orig(&grid);
    // Perfect synthetic: NDCG 1.
    let r = hotspot::TimeRange { t0: 0, t1: 3 };
    assert!((hotspot::hotspot_ndcg(&o, &o, &[r], 2) - 1.0).abs() < 1e-12);
}

#[test]
fn pattern_f1_pinned() {
    let grid = UniformGrid::unit(4);
    let o = orig(&grid);
    let s = syn(&grid);
    let r = hotspot::TimeRange { t0: 0, t1: 3 };
    // Patterns of length 2: orig has 3 east-pairs + 3 (3,3) self-pairs =
    // 4 distinct (3 east + 1 self); syn replaces the self-pattern location.
    // With N large enough both sets have 4 patterns, 3 shared: F1 = 3/4.
    let f1 = pattern::pattern_f1(&o, &s, &[r], 100, 2);
    assert!((f1 - 0.75).abs() < 1e-12, "f1={f1}");
}

#[test]
fn jsd_reference_values() {
    // Spot-check against independently computed values.
    let p = [0.5, 0.5];
    let q = [0.9, 0.1];
    // m = [0.7, 0.3]; JSD = 0.5(0.5 ln(5/7) + 0.5 ln(5/3))
    //                     + 0.5(0.9 ln(9/7) + 0.1 ln(1/3)).
    let expected = 0.5 * (0.5 * (0.5f64 / 0.7).ln() + 0.5 * (0.5f64 / 0.3).ln())
        + 0.5 * (0.9 * (0.9f64 / 0.7).ln() + 0.1 * (0.1f64 / 0.3).ln());
    let d = divergence::jsd(&p, &q);
    assert!((d - expected).abs() < 1e-12, "d={d} expected={expected}");
}
