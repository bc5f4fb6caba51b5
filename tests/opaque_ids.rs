//! Stream ids are opaque: the engines and the ingest screen key per-user
//! bookkeeping by dense slots interned from the ids, never by the id
//! values. Remapping every id through a fixed non-monotone bijection onto
//! sparse `u64`s — `0`, `1 << 63` and `u64::MAX` among them — must leave
//! every release byte-identical and the privacy ledger verifiable.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A fixed bijection on `u64`: the first three ids go to the extremes,
/// every other id through an odd multiply and an xor (both bijective).
fn remap(id: u64) -> u64 {
    match id {
        0 => u64::MAX,
        1 => 0,
        2 => 1 << 63,
        _ => id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0F0F_F0F0_3C3C_C3C3,
    }
}

/// Per-timestamp batches of a churning random-walk stream, with ids
/// passed through `map`.
fn batches(map: fn(u64) -> u64) -> Vec<Vec<UserEvent>> {
    let ds = RandomWalkConfig { users: 300, timestamps: 40, churn: 0.1, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(17));
    let gridded = ds.discretize(&UniformGrid::unit(5));
    let timeline = EventTimeline::build(&gridded);
    (0..timeline.horizon())
        .map(|t| {
            timeline.at(t).iter().map(|e| UserEvent { user: map(e.user), state: e.state }).collect()
        })
        .collect()
}

fn identity(id: u64) -> u64 {
    id
}

fn engine(division: Division, allocation: AllocationKind) -> RetraSyn {
    let config = RetraSynConfig::new(1.0, 4).with_lambda(10.0).with_allocation(allocation);
    RetraSyn::new(config, UniformGrid::unit(5), division, 23)
}

fn drive(engine: &mut RetraSyn, batches: &[Vec<UserEvent>]) -> GriddedDataset {
    engine.drive(IterSource::new(batches.iter().cloned()))
}

#[test]
fn remap_is_a_sparse_bijection_over_the_stream() {
    let ids: BTreeSet<u64> = batches(identity).iter().flatten().map(|e| e.user).collect();
    let images: BTreeSet<u64> = ids.iter().map(|&id| remap(id)).collect();
    assert_eq!(images.len(), ids.len(), "remap collides on the stream's ids");
    for extreme in [0, 1 << 63, u64::MAX] {
        assert!(images.contains(&extreme), "{extreme} is not exercised");
    }
    let mapped: Vec<u64> = ids.iter().map(|&id| remap(id)).collect();
    assert!(mapped.windows(2).any(|w| w[0] > w[1]), "remap must not be monotone");
}

#[test]
fn population_session_ignores_id_values() {
    let plain = batches(identity);
    let sparse = batches(remap);
    for allocation in [AllocationKind::Adaptive, AllocationKind::RandomReport] {
        let mut reference = engine(Division::Population, allocation);
        let expect = drive(&mut reference, &plain);
        let mut remapped = engine(Division::Population, allocation);
        assert_eq!(drive(&mut remapped, &sparse), expect, "{allocation:?}");
        remapped.ledger().verify().expect("remapped ledger");

        // The ledger holds the same reports under the mapped ids.
        let (_, plain_reports) = reference.ledger().export_state();
        let mut mapped: Vec<(u64, u64)> =
            plain_reports.iter().map(|&(u, t)| (remap(u), t)).collect();
        mapped.sort_unstable();
        assert_eq!(remapped.ledger().export_state().1, mapped, "{allocation:?}");
    }
}

#[test]
fn budget_session_ignores_id_values() {
    let mut reference = engine(Division::Budget, AllocationKind::Adaptive);
    let expect = drive(&mut reference, &batches(identity));
    let mut remapped = engine(Division::Budget, AllocationKind::Adaptive);
    assert_eq!(drive(&mut remapped, &batches(remap)), expect);
    remapped.ledger().verify().expect("remapped ledger");
}

#[test]
fn validated_population_session_ignores_id_values() {
    let mut reference = engine(Division::Population, AllocationKind::Adaptive);
    let expect = drive(&mut reference, &batches(identity));
    let mut remapped = engine(Division::Population, AllocationKind::Adaptive);
    let mut source = ValidatedSource::new(
        IterSource::new(batches(remap).into_iter()),
        Arc::clone(remapped.topology()),
        IngestPolicy::DropEvents,
    );
    assert_eq!(remapped.drive(&mut source), expect);
    assert_eq!(source.stats().diverted(), 0);
    remapped.ledger().verify().expect("remapped ledger");
}

#[test]
fn sparse_id_checkpoint_restores_bit_identically() {
    let sparse = batches(remap);
    let mut reference = engine(Division::Population, AllocationKind::RandomReport);
    let expect = drive(&mut reference, &sparse);

    let half = sparse.len() / 2;
    let mut first = engine(Division::Population, AllocationKind::RandomReport);
    for (t, batch) in sparse[..half].iter().enumerate() {
        first.step(t as u64, batch);
    }
    let bytes = first.checkpoint_bytes().expect("mid-session checkpoint");
    let mut resumed = engine(Division::Population, AllocationKind::RandomReport);
    resumed.restore_checkpoint(&bytes).expect("restore");
    assert_eq!(resumed.checkpoint_bytes().as_deref(), Some(bytes.as_slice()));
    for (t, batch) in sparse.iter().enumerate().skip(half) {
        resumed.step(t as u64, batch);
    }
    assert_eq!(resumed.release(), expect);
    resumed.ledger().verify().expect("resumed ledger");
}

#[test]
fn population_baseline_ledger_verifies_on_sparse_ids() {
    for kind in [BaselineKind::Lpd, BaselineKind::Lpa] {
        let mut baseline = LdpIds::new(kind, LdpIdsConfig::new(1.0, 4), UniformGrid::unit(5), 5);
        let _ = baseline.drive(IterSource::new(batches(remap).into_iter()));
        baseline.ledger().verify().unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert!(baseline.ledger().total_user_reports() > 0, "{}", kind.name());
    }
}
