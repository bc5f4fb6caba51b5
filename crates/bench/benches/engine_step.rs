//! Whole-engine per-timestamp cost (the Table V "Total" row) for both
//! divisions, at realistic per-timestamp populations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_core::{Division, RetraSyn, RetraSynConfig};
use retrasyn_datagen::RandomWalkConfig;
use retrasyn_geo::{EventTimeline, Grid};
use std::hint::black_box;
use std::time::Duration;

fn bench_engine_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_full_run_per_ts");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    let grid = Grid::unit(6);
    for users in [500usize, 2000] {
        let ds = RandomWalkConfig { users, timestamps: 30, ..Default::default() }
            .generate(&mut StdRng::seed_from_u64(1));
        let orig = ds.discretize(&grid);
        let timeline = EventTimeline::build(&orig);
        for division in [Division::Budget, Division::Population] {
            group.bench_with_input(
                BenchmarkId::new(format!("{division:?}"), users),
                &division,
                |b, &division| {
                    b.iter(|| {
                        let config = RetraSynConfig::new(1.0, 10).with_lambda(orig.avg_length());
                        let mut engine = RetraSyn::new(config, grid.clone(), division, 5);
                        for t in 0..orig.horizon() {
                            engine.step(t, timeline.at(t));
                        }
                        black_box(engine.snapshot().active_count())
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engine_step);
criterion_main!(benches);
