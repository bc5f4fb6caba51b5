//! Frequency-oracle choice ablation: why the paper adopts OUE (§II-A cites
//! its optimal variance) over GRR for the transition-state domain.
//!
//! Measures the mean absolute estimation error of both oracles on a
//! skewed distribution over domains of transition-table size, across
//! budgets. GRR's variance grows with the domain size while OUE's does
//! not, so OUE wins for every realistic K.
//!
//! Usage: `cargo run -p retrasyn-bench --release --bin fo_ablation`

use rand::rngs::StdRng;
use rand::SeedableRng;
use retrasyn_bench::Args;
use retrasyn_geo::{TransitionTable, UniformGrid};
use retrasyn_ldp::{FrequencyOracle, Grr, Oue, ReportMode};

fn mean_abs_error<O: FrequencyOracle>(
    oracle: &O,
    values: &[usize],
    truth: &[f64],
    rounds: usize,
    rng: &mut StdRng,
) -> f64 {
    let mut total = 0.0;
    for _ in 0..rounds {
        let est = oracle.collect(values, ReportMode::Aggregate, rng).unwrap();
        total += est.freqs.iter().zip(truth).map(|(e, t)| (e - t).abs()).sum::<f64>()
            / truth.len() as f64;
    }
    total / rounds as f64
}

fn main() {
    let args = Args::from_env();
    let n = args.get_usize("users", 2000);
    let rounds = args.get_usize("rounds", 10);
    println!("# Frequency-oracle ablation: OUE vs GRR (n={n}, {rounds} rounds)");
    println!();
    println!("| K | domain | eps | OUE mean abs err | GRR mean abs err | GRR/OUE |");
    println!("|---:|---:|---:|---:|---:|---:|");
    for k in [2u32, 6, 10, 18] {
        let table = TransitionTable::new(&UniformGrid::unit(k));
        let domain = table.len();
        // Skewed truth: Zipf-like over the domain.
        let values: Vec<usize> = (0..n).map(|i| (i * i + 3 * i) % domain).collect();
        let mut truth = vec![0.0; domain];
        for &v in &values {
            truth[v] += 1.0 / n as f64;
        }
        for eps in [0.5f64, 1.0, 2.0] {
            let mut rng = StdRng::seed_from_u64(42);
            let oue = Oue::new(eps, domain).unwrap();
            let grr = Grr::new(eps, domain).unwrap();
            let e_oue = mean_abs_error(&oue, &values, &truth, rounds, &mut rng);
            let e_grr = mean_abs_error(&grr, &values, &truth, rounds, &mut rng);
            println!(
                "| {k} | {domain} | {eps} | {e_oue:.5} | {e_grr:.5} | {:.2}x |",
                e_grr / e_oue
            );
        }
    }
    println!();
    println!(
        "Analytic: Var_OUE = 4e^eps/(n(e^eps-1)^2) is domain-free; \
         Var_GRR ~ (d-2+e^eps)/(n(e^eps-1)^2) grows linearly in d."
    );
}
