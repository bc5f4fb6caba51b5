//! `sessionbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Exit status 0 with a JSON result line, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use retrasyn_sessionbench::result_json;
use retrasyn_sessionbench::workload::{self, Options, WORKLOADS};

/// Where WAL, checkpoint and trace files go, relative to the directory the
/// benchmark is run from.
const WORK_DIR: &str = ".sessionbench";

fn parse(args: &[String]) -> Result<(workload::Spec, Options), String> {
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let spec = workload::spec(&name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload {name} (known: {})", known.join(", "))
    })?;
    let opts = Options {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work_dir: PathBuf::from(WORK_DIR),
    };
    Ok((spec, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (spec, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("sessionbench: {e}");
            eprintln!(
                "usage: sessionbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = workload::run(&spec, &opts);
    for problem in &outcome.problems {
        eprintln!("sessionbench: FAILED: {problem}");
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}
