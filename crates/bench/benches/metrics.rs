//! Metric evaluation cost: the harness evaluates eight metrics per cell of
//! every table/figure, so their throughput matters.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_datagen::RandomWalkConfig;
use retrasyn_geo::{GriddedDataset, TransitionTable, UniformGrid};
use retrasyn_metrics::{divergence, MetricSuite, SuiteConfig};
use std::hint::black_box;
use std::time::Duration;

fn fixtures() -> (GriddedDataset, GriddedDataset) {
    let grid = UniformGrid::unit(6);
    let a = RandomWalkConfig { users: 800, timestamps: 60, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(1))
        .discretize(&grid);
    let b = RandomWalkConfig { users: 800, timestamps: 60, ..Default::default() }
        .generate(&mut StdRng::seed_from_u64(2))
        .discretize(&grid);
    (a, b)
}

fn bench_full_suite(c: &mut Criterion) {
    let mut group = c.benchmark_group("metric_suite");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    let (orig, syn) = fixtures();
    let suite = MetricSuite::new(SuiteConfig {
        phi: 10,
        num_queries: 60,
        num_ranges: 60,
        ..Default::default()
    });
    group.bench_function("all_eight_800users_60ts", |b| {
        b.iter(|| black_box(suite.evaluate(&orig, &syn)))
    });
    group.finish();
}

fn bench_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("metric_components");
    group.sample_size(10).measurement_time(Duration::from_secs(1));
    let (orig, syn) = fixtures();
    let table = TransitionTable::new(orig.topology());
    group.bench_function("density_error", |b| {
        b.iter(|| black_box(retrasyn_metrics::density::density_error(&orig, &syn)))
    });
    group.bench_function("transition_error", |b| {
        b.iter(|| black_box(retrasyn_metrics::transition::transition_error(&orig, &syn, &table)))
    });
    group.bench_function("kendall_tau", |b| {
        b.iter(|| black_box(retrasyn_metrics::kendall::kendall_tau(&orig, &syn)))
    });
    group.finish();
}

fn bench_jsd(c: &mut Criterion) {
    let mut group = c.benchmark_group("jsd");
    group.sample_size(50).measurement_time(Duration::from_millis(600));
    let p: Vec<f64> = (0..4096).map(|i| (i % 17) as f64).collect();
    let q: Vec<f64> = (0..4096).map(|i| (i % 23) as f64).collect();
    group.bench_function("dim_4096", |b| {
        b.iter(|| black_box(divergence::jsd(black_box(&p), black_box(&q))))
    });
    group.finish();
}

criterion_group!(benches, bench_full_suite, bench_components, bench_jsd);
criterion_main!(benches);
