//! Whole-session benchmark of the RetraSyn engine.
//!
//! `BENCHMARK.json` at the repository root names the workloads, the
//! end-to-end metrics (untraced runs, `--trace 0`) and the per-layer
//! metrics (traced runs, `--trace 1`). Run one measurement from the
//! repository root with
//!
//! ```sh
//! cargo run --release --manifest-path sessionbench/Cargo.toml -- \
//!     --workload tdrive_live --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

#![forbid(unsafe_code)]

pub mod stats;
pub mod trace;
pub mod workload;

use workload::Outcome;

/// Render `outcome` as the one-line JSON result. Values are printed with
/// every digit Rust's shortest round-trip formatting gives; a value that
/// is not finite makes the run incorrect and prints as 0.
pub fn result_json(outcome: &Outcome) -> String {
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct() && finite,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
