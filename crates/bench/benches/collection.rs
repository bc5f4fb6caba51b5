//! Collection-round benches: the blocked counter-based kernel (the only
//! per-user collection path) against two sequential references at the
//! acceptance configuration (n = 100k reporters, d = 4096, ε = 1) — the
//! fused perturb→tally loop (`Oue::perturb_tally_into`) and the frozen
//! report buffer.
//!
//! The `blocked` arm is gated: `validate_baselines.py` fails the run if
//! its median is not ≥ 1.5× faster than the `fused` median from the
//! same file (same run, same toolchain, same machine). The blessed
//! numbers assume the workspace
//! `.cargo/config.toml` target-cpu (x86-64-v3); baseline SSE2 codegen
//! de-vectorizes the Philox gangs and will miss the gate.
//!
//! The reference arm is the pre-fused collection pipeline — one reused
//! `BitReport` per user, perturbed by geometric skipping and folded into
//! the tally by word-parallel re-scan. It stays in-tree as the validated
//! report-materializing path (`Oue::perturb_into` / `Oue::tally_into`),
//! so the comparison is same-run and same-toolchain by construction.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_ldp::{BitReport, Oue, Philox};
use std::hint::black_box;
use std::time::Duration;

const USERS: usize = 100_000;
const DOMAIN: usize = 4096;

fn values() -> Vec<usize> {
    // Skewed but deterministic reporter mix over the domain.
    (0..USERS).map(|i| (i * i + 31 * i) % DOMAIN).collect()
}

/// The fused sequential reference round: one `perturb_tally_into` per
/// reporter from one xoshiro stream. The `blocked` arm's gate is
/// measured against it.
fn fused_round(oue: &Oue, values: &[usize], ones: &mut Vec<u64>, rng: &mut StdRng) {
    ones.clear();
    ones.resize(oue.domain(), 0);
    for &v in values {
        oue.perturb_tally_into(v, ones, rng).unwrap();
    }
}

/// The frozen report-buffer collection round: perturb into a reused
/// `BitReport`, then word-parallel tally — the PerUser path before the
/// fused kernel existed.
fn report_buffer_round(oue: &Oue, values: &[usize], ones: &mut Vec<u64>, rng: &mut StdRng) {
    ones.clear();
    ones.resize(oue.domain(), 0);
    let mut scratch = BitReport::zeros(oue.domain());
    for &v in values {
        oue.perturb_into(v, &mut scratch, rng).unwrap();
        oue.tally_into(ones, &scratch).unwrap();
    }
}

fn bench_fused_vs_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("collection_per_user_100k_d4096");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    let oue = Oue::new(1.0, DOMAIN).unwrap();
    let values = values();
    let mut ones = Vec::new();
    {
        let mut rng = StdRng::seed_from_u64(1);
        group.bench_function("fused", |b| {
            b.iter(|| {
                fused_round(&oue, black_box(&values), &mut ones, &mut rng);
                black_box(ones.iter().sum::<u64>())
            })
        });
    }
    {
        let mut rng = StdRng::seed_from_u64(1);
        group.bench_function("report_buffer_reference", |b| {
            b.iter(|| {
                report_buffer_round(&oue, black_box(&values), &mut ones, &mut rng);
                black_box(ones.iter().sum::<u64>())
            })
        });
    }
    {
        // The blocked counter-based kernel: one Philox key per round,
        // halfword gangs compared-and-added against the threshold. Gated
        // at ≥ 1.5× over `fused`.
        let ph = Philox::new(0x0b10_cced_0000_0001);
        group.bench_function("blocked", |b| {
            b.iter(|| {
                oue.collect_ones_blocked(black_box(&values), &ph, &mut ones).unwrap();
                black_box(ones.iter().sum::<u64>())
            })
        });
    }
    group.finish();
}

fn bench_aggregate(c: &mut Criterion) {
    // Context arm: the O(d) aggregate simulation the experiment harness
    // uses by default — the in-place binomial round.
    let mut group = c.benchmark_group("collection_aggregate_100k_d4096");
    group.sample_size(15).measurement_time(Duration::from_millis(900));
    let oue = Oue::new(1.0, DOMAIN).unwrap();
    let values = values();
    let mut ones = Vec::new();
    let mut rng = StdRng::seed_from_u64(3);
    group.bench_function("in_place", |b| {
        b.iter(|| {
            oue.collect_ones_into(black_box(&values), &mut ones, &mut rng).unwrap();
            black_box(ones.iter().sum::<u64>())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fused_vs_reference, bench_aggregate);
criterion_main!(benches);
