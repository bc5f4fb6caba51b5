//! Wall-clock probe of the blocked per-user collection kernel against the
//! fused sequential reference (`Oue::perturb_tally_into`, looped over the
//! reporters), plus the dense/sparse crossover sweep used to set
//! `BLOCKED_DENSE_MIN_Q` (tuning aid; the blessed numbers come from
//! `benches/collection.rs`).
//!
//! The crossover sweep times the blocked kernel's dense pass (cost
//! `c_dense` per position, independent of `q`) against its sparse
//! geometric-skipping walk (cost `c_sparse` per *reported 1*, ≈ `d·q`
//! of them), and reports the break-even `q* = c_dense / c_sparse`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retrasyn_ldp::{Oue, Philox};
use std::hint::black_box;
use std::time::Instant;

const USERS: usize = 100_000;
const DOMAIN: usize = 4096;

fn main() {
    let values: Vec<usize> = (0..USERS).map(|i| (i * i + 31 * i) % DOMAIN).collect();
    let oue = Oue::new(1.0, DOMAIN).unwrap();
    let mut ones = Vec::new();

    let mut rng = StdRng::seed_from_u64(1);
    for label in ["fused (warm)", "fused"] {
        let t = Instant::now();
        ones.clear();
        ones.resize(DOMAIN, 0);
        for &v in &values {
            oue.perturb_tally_into(v, &mut ones, &mut rng).unwrap();
        }
        let dt = t.elapsed().as_secs_f64();
        black_box(ones.iter().sum::<u64>());
        println!("{label:18} {dt:.4} s  ({:.3} ns/pos)", dt * 1e9 / (USERS * DOMAIN) as f64);
    }

    let mut rng = StdRng::seed_from_u64(2);
    let mut dense_ns_pos = f64::MAX;
    for label in ["blocked (warm)", "blocked", "blocked 2"] {
        let ph = Philox::new(rng.random());
        let t = Instant::now();
        oue.collect_ones_blocked(&values, 0, &ph, &mut ones).unwrap();
        let dt = t.elapsed().as_secs_f64();
        black_box(ones.iter().sum::<u64>());
        let ns_pos = dt * 1e9 / (USERS * DOMAIN) as f64;
        if label != "blocked (warm)" {
            dense_ns_pos = dense_ns_pos.min(ns_pos);
        }
        println!("{label:18} {dt:.4} s  ({ns_pos:.3} ns/pos)");
    }

    // Sparse cost per reported 1: force the sparse walk through
    // `blocked_tally_sparse` at a few q values and normalize by the
    // expected number of landings, n·(d·q + 1/2).
    println!("\ncrossover sweep (d = {DOMAIN}, n = {USERS}):");
    let mut sparse_ns_one = f64::MAX;
    for eps in [3.5f64, 4.5, 5.5] {
        let oue = Oue::new(eps, DOMAIN).unwrap();
        let q = oue.q();
        ones.clear();
        ones.resize(DOMAIN, 0);
        let ph = Philox::new(rng.random());
        oue.blocked_tally_sparse(&values, 0, &ph, &mut ones).unwrap(); // warm
        let t = Instant::now();
        oue.blocked_tally_sparse(&values, 0, &ph, &mut ones).unwrap();
        let dt = t.elapsed().as_secs_f64();
        black_box(ones.iter().sum::<u64>());
        let landings = USERS as f64 * (DOMAIN as f64 * q + 0.5);
        let ns_one = dt * 1e9 / landings;
        sparse_ns_one = sparse_ns_one.min(ns_one);
        println!("  sparse eps={eps:.1} q={q:.4}  {dt:.4} s  ({ns_one:.2} ns/one)");
    }
    println!(
        "  dense {dense_ns_pos:.3} ns/pos, sparse {sparse_ns_one:.2} ns/one  =>  q* = {:.4}",
        dense_ns_pos / sparse_ns_one
    );
}
