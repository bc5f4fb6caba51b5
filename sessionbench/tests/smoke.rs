//! Tiny-scale runs of every workload through every check, and the
//! agreement between the metrics a run prints and `BENCHMARK.json`.

use std::path::PathBuf;

use retrasyn_sessionbench::result_json;
use retrasyn_sessionbench::workload::{self, Options, Outcome, Spec, WORKLOADS};

/// The workload at a scale that runs in seconds, with a compaction mark
/// low enough that compaction still runs.
fn tiny(spec: Spec) -> Spec {
    Spec {
        scale: if spec.durable { 0.005 } else { 0.05 },
        compaction: spec.compaction.map(|_| 5_000),
        ..spec
    }
}

fn run(spec: &Spec, trace: bool) -> Outcome {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        spec.name,
        u8::from(trace)
    ));
    let opts = Options { seed: 7, seconds: 0.0, trace, work_dir };
    let outcome = workload::run(spec, &opts);
    assert!(outcome.correct(), "{}: {:?}", spec.name, outcome.problems);
    assert_eq!(outcome.failed, 0);
    assert!(result_json(&outcome).starts_with("{\"correct\": true, "));
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome.metrics.iter().find(|m| m.name == name).map(|m| m.value).expect(name)
}

/// The `name`s of one list in `BENCHMARK.json` (`"workloads"`,
/// `"end_to_end"` or `"per_layer"`), in file order. Their entries hold no
/// nested lists, so the first `]` closes the list.
fn declared(list: &str) -> Vec<String> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let key = format!("\"{list}\": [");
    let body = &json[json.find(&key).expect(list) + key.len()..];
    body[..body.find(']').expect("closing bracket")]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn untraced_runs_pass_every_check_and_print_the_end_to_end_metrics() {
    let declared = declared("end_to_end");
    for spec in WORKLOADS.map(tiny) {
        let outcome = run(&spec, false);
        let names: Vec<_> = outcome.metrics.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(names, declared, "{}", spec.name);
        for m in &outcome.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", spec.name);
        }
        assert!(outcome.attempted >= workload::MIN_STEP_SAMPLES as u64);
    }
}

#[test]
fn traced_runs_report_every_layer() {
    let declared = declared("per_layer");
    for spec in WORKLOADS.map(tiny) {
        let outcome = run(&spec, true);
        let names: Vec<_> = outcome.metrics.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(names, declared, "{}", spec.name);
        assert!(value(&outcome, "trace.accounted_pct") >= workload::MIN_ACCOUNTED_PCT);
        assert!(value(&outcome, "recover.replayed_batches") > 0.0);
        assert!(value(&outcome, "engine.synthesis_ms") > 0.0);
        assert!(value(&outcome, "geo.discretize_ms") > 0.0);
        if spec.durable {
            assert!(value(&outcome, "compact.runs") > 0.0);
            assert!(value(&outcome, "wal.checkpoint_step_ms") > 0.0);
            assert!(value(&outcome, "ingest.ns_per_event") > 0.0);
        } else {
            assert!(value(&outcome, "engine.step_ms") > 0.0);
        }
        if spec.live_read {
            assert!(value(&outcome, "store.read_ms") > 0.0);
        }
    }
}

#[test]
fn workloads_match_benchmark_json() {
    assert_eq!(declared("workloads"), WORKLOADS.map(|s| s.name));
}
