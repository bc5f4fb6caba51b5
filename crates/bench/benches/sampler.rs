//! Micro-benchmarks of the alias-table sampler subsystem against the O(k)
//! scan it replaced, plus the incremental cache rebuild path.
//!
//! `cargo bench --bench sampler -- --json BENCH_sampler.json` writes the
//! results in machine-readable form.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_core::sampler::{sample_weighted, AliasTable, SamplerCache};
use retrasyn_core::GlobalMobilityModel;
use retrasyn_geo::{TransitionTable, UniformGrid};
use std::hint::black_box;
use std::time::Duration;

fn informed_freqs(table: &TransitionTable) -> Vec<f64> {
    (0..table.len()).map(|i| ((i % 13) as f64 + 1.0) * 1e-3).collect()
}

fn bench_draw(c: &mut Criterion) {
    // One draw from a 9-neighbor row: the per-user cost of the synthesis
    // extension phase.
    let mut group = c.benchmark_group("sampler_draw_9way");
    group.sample_size(20).measurement_time(Duration::from_millis(600));
    let weights: Vec<f64> = (0..9).map(|i| (i as f64 + 1.0) * 0.01).collect();
    let alias = AliasTable::new(&weights);
    {
        let mut rng = StdRng::seed_from_u64(1);
        group.bench_function("alias", |b| b.iter(|| black_box(alias.sample(&mut rng))));
    }
    {
        let mut rng = StdRng::seed_from_u64(1);
        group.bench_function("scan", |b| {
            b.iter(|| black_box(sample_weighted(black_box(&weights), &mut rng)))
        });
    }
    group.finish();
}

fn bench_cached_model_draw(c: &mut Criterion) {
    // Draw through the full model interface on a 32x32 grid: the cached
    // alias path vs the allocating scan path the seed used.
    let mut group = c.benchmark_group("model_move_draw_grid32");
    group.sample_size(20).measurement_time(Duration::from_millis(700));
    let grid = UniformGrid::unit(32);
    let table = TransitionTable::new(&grid);
    let mut model = GlobalMobilityModel::new(table.len());
    model.replace_all(&informed_freqs(&table));
    model.rebuild_samplers(&table);
    let cache = model.sampler().unwrap().clone();
    let cells: Vec<_> = table.topology().cells().collect();
    {
        let mut rng = StdRng::seed_from_u64(2);
        let mut i = 0usize;
        group.bench_function("alias_cached", |b| {
            b.iter(|| {
                i = (i + 1) % cells.len();
                black_box(cache.sample_move(cells[i], &mut rng))
            })
        });
    }
    {
        let mut rng = StdRng::seed_from_u64(2);
        let mut i = 0usize;
        group.bench_function("scan_alloc", |b| {
            b.iter(|| {
                i = (i + 1) % cells.len();
                let probs = model.move_probs(&table, cells[i]);
                let pos = sample_weighted(&probs, &mut rng);
                black_box(table.move_targets(cells[i])[pos])
            })
        });
    }
    group.finish();
}

fn bench_rebuild(c: &mut Criterion) {
    // Full cache build vs the incremental row rebuild after a DMU step
    // that touched ~3% of the transitions.
    let mut group = c.benchmark_group("sampler_rebuild_grid32");
    group.sample_size(15).measurement_time(Duration::from_millis(700));
    let grid = UniformGrid::unit(32);
    let table = TransitionTable::new(&grid);
    let freqs = informed_freqs(&table);
    group.bench_function("full_build", |b| {
        b.iter(|| black_box(SamplerCache::build(black_box(&freqs), &table)))
    });
    // Incremental: mark ~3% of move states dirty, rebuild through the
    // model.
    let dirty_count = table.len() * 3 / 100;
    let mut selected = vec![false; table.len()];
    for k in 0..dirty_count {
        selected[(k * 7919) % table.num_moves()] = true;
    }
    let mut model = GlobalMobilityModel::new(table.len());
    model.replace_all(&freqs);
    model.rebuild_samplers(&table);
    group.bench_function("incremental_3pct", |b| {
        b.iter(|| {
            model.update_selected(&selected, &freqs);
            black_box(model.rebuild_samplers(&table))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_draw, bench_cached_model_draw, bench_rebuild);
criterion_main!(benches);
