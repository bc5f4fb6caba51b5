//! Table formatting (markdown to stdout) and CSV mirroring.

use crate::runner::CellResult;
use retrasyn_metrics::MetricReport;
use std::io::Write;
use std::path::Path;

/// Format a duration given in seconds as microseconds with at least three
/// significant digits (`0.0000123` s → `"12.3"`, `0.0123` s → `"12300"`),
/// so sub-millisecond phases never print as zero.
pub fn micros(seconds: f64) -> String {
    let us = seconds * 1e6;
    if us == 0.0 || !us.is_finite() {
        return format!("{us}");
    }
    let decimals = (2 - us.abs().log10().floor() as i32).max(0) as usize;
    format!("{us:.decimals$}")
}

/// Render a markdown table: one row per result, one column per metric.
pub fn metric_table(title: &str, results: &[CellResult]) -> String {
    let mut s = String::new();
    s.push_str(&format!("\n## {title}\n\n"));
    s.push_str("| method |");
    for name in MetricReport::NAMES {
        s.push_str(&format!(" {name} |"));
    }
    s.push('\n');
    s.push_str("|---|");
    for _ in MetricReport::NAMES {
        s.push_str("---:|");
    }
    s.push('\n');
    for r in results {
        s.push_str(&format!("| {} |", r.label));
        for v in r.report.values() {
            s.push_str(&format!(" {v:.4} |"));
        }
        s.push('\n');
    }
    s
}

/// Render a markdown table of one metric across a swept parameter:
/// `series` are row labels, `points` are column labels, `values[row][col]`.
pub fn sweep_table(
    title: &str,
    param: &str,
    series: &[String],
    points: &[String],
    values: &[Vec<f64>],
) -> String {
    assert_eq!(series.len(), values.len());
    let mut s = String::new();
    s.push_str(&format!("\n## {title}\n\n"));
    s.push_str(&format!("| method \\ {param} |"));
    for p in points {
        s.push_str(&format!(" {p} |"));
    }
    s.push('\n');
    s.push_str("|---|");
    for _ in points {
        s.push_str("---:|");
    }
    s.push('\n');
    for (label, row) in series.iter().zip(values) {
        assert_eq!(row.len(), points.len());
        s.push_str(&format!("| {label} |"));
        for v in row {
            s.push_str(&format!(" {v:.4} |"));
        }
        s.push('\n');
    }
    s
}

/// Write results as CSV (`label,metric1,…,metric8,run_seconds`).
pub fn write_csv(path: &Path, results: &[CellResult]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(f, "label")?;
    for name in MetricReport::NAMES {
        write!(f, ",{name}")?;
    }
    writeln!(f, ",run_seconds")?;
    for r in results {
        write!(f, "{}", r.label)?;
        for v in r.report.values() {
            write!(f, ",{v:.6}")?;
        }
        writeln!(f, ",{:.3}", r.run_seconds)?;
    }
    f.flush()
}

/// Mirror results to `<out>/<name>.csv` when `--out` is set.
pub fn maybe_write_csv(args: &crate::cli::Args, name: &str, results: &[CellResult]) {
    if let Some(dir) = args.get("out") {
        let path = Path::new(dir).join(format!("{name}.csv"));
        write_csv(&path, results).unwrap_or_else(|e| eprintln!("csv write failed: {e}"));
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(label: &str) -> CellResult {
        CellResult {
            label: label.to_string(),
            report: MetricReport {
                density_error: 0.1,
                query_error: 0.2,
                hotspot_ndcg: 0.3,
                transition_error: 0.4,
                pattern_f1: 0.5,
                kendall_tau: 0.6,
                trip_error: 0.7,
                length_error: 0.8,
            },
            timings: None,
            run_seconds: 1.5,
        }
    }

    #[test]
    fn micros_keeps_three_significant_digits() {
        assert_eq!(micros(0.0), "0");
        assert_eq!(micros(1.234e-8), "0.0123");
        assert_eq!(micros(1.234e-6), "1.23");
        assert_eq!(micros(5.678e-5), "56.8");
        assert_eq!(micros(1.8512e-4), "185");
        assert_eq!(micros(0.16523), "165230");
    }

    #[test]
    fn metric_table_contains_rows_and_headers() {
        let t = metric_table("Table III", &[result("LBD"), result("RetraSynp")]);
        assert!(t.contains("## Table III"));
        assert!(t.contains("| LBD |"));
        assert!(t.contains("| RetraSynp |"));
        assert!(t.contains("density_error"));
        assert!(t.contains("0.1000"));
    }

    #[test]
    fn sweep_table_layout() {
        let t = sweep_table(
            "Fig 4",
            "w",
            &["LBD".into(), "RetraSynp".into()],
            &["10".into(), "20".into()],
            &[vec![0.5, 0.6], vec![0.3, 0.35]],
        );
        assert!(t.contains("method \\ w"));
        assert!(t.contains("0.3500"));
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("retrasyn_bench_test");
        let path = dir.join("out.csv");
        write_csv(&path, &[result("x")]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("label,density_error"));
        assert!(content.contains("x,0.100000"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic]
    fn sweep_table_validates_shape() {
        let _ = sweep_table("t", "p", &["a".into()], &["1".into()], &[vec![0.1, 0.2]]);
    }
}
