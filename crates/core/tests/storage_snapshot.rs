//! Fixed-seed output snapshots of the synthesis paths, captured from the
//! Vec-of-`OpenStream` storage implementation (PR 2) and pinned bit-for-bit
//! across the columnar `StreamStore` refactor: identical RNG draw order,
//! identical stream ordering, identical released cells.
//!
//! The fixture (`tests/snapshots/synthesis_snapshot.txt`) records, per
//! scenario, the released stream count, total cell count, and an FNV-1a
//! hash of the canonical serialization `(id, start, cells…)` in release
//! order. Regenerate with `SNAPSHOT_BLESS=1 cargo test -p retrasyn-core
//! --test storage_snapshot` — but only ever to *extend* the scenario list;
//! changing an existing hash means the storage refactor broke the
//! fixed-seed contract.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_core::{GlobalMobilityModel, SamplerCache, SyntheticDb};
use retrasyn_geo::{GriddedDataset, TransitionTable, UniformGrid};
use std::fmt::Write as _;

const SNAPSHOT_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/snapshots/synthesis_snapshot.txt");

fn informed_setup() -> (UniformGrid, SamplerCache) {
    let grid = UniformGrid::unit(8);
    let table = TransitionTable::new(&grid);
    let mut model = GlobalMobilityModel::new(table.len());
    let est: Vec<f64> = (0..table.len()).map(|i| ((i * 37 % 11) as f64 + 1.0) * 1e-3).collect();
    model.replace_all(&est);
    model.rebuild_samplers(&table);
    (grid, model.sampler().expect("just rebuilt").clone())
}

/// FNV-1a over the canonical `(id, start, cells…)` serialization, in
/// release order, plus the stream and cell totals.
fn canonicalize(ds: &GriddedDataset) -> (usize, usize, u64) {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut feed = |v: u64| {
        for b in v.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    };
    let mut streams = 0usize;
    let mut cells = 0usize;
    for s in ds.iter() {
        streams += 1;
        cells += s.cells.len();
        feed(s.id);
        feed(s.start);
        feed(s.cells.len() as u64);
        for c in s.cells {
            feed(c.index() as u64);
        }
    }
    (streams, cells, hash)
}

/// One scenario: a target schedule driven through a synthesis path.
fn run_scenario(name: &str) -> GriddedDataset {
    match name {
        // Sequential cached path: fused steady steps, a shrink, a grow.
        "seq_cached" => {
            let (grid, cache) = informed_setup();
            let targets = [3000usize, 3000, 2600, 2800, 2200, 2500];
            let mut db = SyntheticDb::new();
            let mut rng = StdRng::seed_from_u64(42);
            for (t, &target) in targets.iter().enumerate() {
                db.step(t as u64, &cache, target, 8.0, &mut rng);
            }
            db.release(&grid, targets.len() as u64)
        }
        // Shrink-heavy swings (λ → ∞ disables natural quits, so every
        // retirement is a two-phase shrink selection).
        "seq_shrink" => {
            let (grid, cache) = informed_setup();
            let targets = [4096usize, 1024, 3000, 800];
            let mut db = SyntheticDb::new();
            let mut rng = StdRng::seed_from_u64(45);
            for (t, &target) in targets.iter().enumerate() {
                db.step(t as u64, &cache, target, 1e12, &mut rng);
            }
            db.release(&grid, targets.len() as u64)
        }
        // NoEQ ablation mode: fixed size, no termination.
        "noeq" => {
            let (grid, cache) = informed_setup();
            let mut db = SyntheticDb::new();
            let mut rng = StdRng::seed_from_u64(46);
            for t in 0..10 {
                db.step_no_eq(t, &cache, 500, &mut rng);
            }
            db.release(&grid, 10)
        }
        other => panic!("unknown scenario {other}"),
    }
}

const SCENARIOS: [&str; 3] = ["seq_cached", "seq_shrink", "noeq"];

#[test]
fn storage_matches_pre_refactor_snapshot() {
    let mut current = String::new();
    for name in SCENARIOS {
        let ds = run_scenario(name);
        let (streams, cells, hash) = canonicalize(&ds);
        writeln!(current, "{name} streams={streams} cells={cells} fnv={hash:016x}").unwrap();
    }
    if std::env::var_os("SNAPSHOT_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(SNAPSHOT_PATH).parent().unwrap()).unwrap();
        std::fs::write(SNAPSHOT_PATH, &current).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(SNAPSHOT_PATH)
        .expect("missing snapshot fixture; regenerate with SNAPSHOT_BLESS=1");
    assert_eq!(
        current, pinned,
        "synthesis output diverged from the pre-refactor Vec-storage snapshot"
    );
}
