//! `--compare A.jsonl B.jsonl`: two record files of the same seed, side by
//! side. Per workload × end-to-end metric it prints both values, the
//! relative difference (positive = B worse) and the metric's bound, and
//! fails when a difference exceeds its bound, when an exact-count layer
//! metric differs at all, or when the files were not produced with the
//! same seed, thread count and workload parameters.

use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOAD_END_TO_END};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// (workload, traced) → that run's record.
type Records = BTreeMap<(String, u64), Value>;

fn key(record: &Value) -> (String, u64) {
    (
        record["workload"].as_str().unwrap_or_default().to_string(),
        record["trace"].as_u64().unwrap_or(0),
    )
}

fn load(path: &str) -> Result<Records, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut records = Records::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record: Value = serde_json::from_str(line).map_err(|e| format!("{path}: {e}"))?;
        // A file appended to by several full runs keeps the latest.
        records.insert(key(&record), record);
    }
    if records.is_empty() {
        return Err(format!("{path}: no records"));
    }
    Ok(records)
}

fn metric(record: &Value, name: &str) -> Option<f64> {
    record["metrics"].get(name)?.get("value")?.as_f64()
}

/// How much worse `b` is than `a`, as a share of `a`; negative = better.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

/// The settings two records must share to be comparable.
fn settings(record: &Value) -> String {
    format!(
        "seed={} seconds={} threads={} params={:?}",
        record["seed"].as_u64().unwrap_or(0),
        record["seconds"].as_f64().unwrap_or(0.0),
        record["threads"].as_u64().unwrap_or(0),
        record["params"]
    )
}

/// Compares two record sets; returns the printed report and whether B
/// stays within every bound.
pub fn compare(a: &Records, b: &Records) -> (String, bool) {
    use std::fmt::Write as _;
    let mut report = String::new();
    let mut ok = true;
    for (key, ra) in a {
        let (workload, traced) = key;
        let Some(rb) = b.get(key) else {
            let _ = writeln!(report, "{workload} trace={traced}: missing from B");
            ok = false;
            continue;
        };
        if settings(ra) != settings(rb) {
            let _ = writeln!(
                report,
                "{workload} trace={traced}: settings differ\n  A: {}\n  B: {}",
                settings(ra),
                settings(rb)
            );
            ok = false;
            continue;
        }
        if *traced == 0 {
            for m in END_TO_END.iter().chain(WORKLOAD_END_TO_END) {
                let (Some(va), Some(vb)) = (metric(ra, m.name), metric(rb, m.name)) else {
                    continue;
                };
                let worse = worsening(va, vb, m.better);
                let within = worse <= m.bound;
                ok &= within;
                let _ = writeln!(
                    report,
                    "{workload} {} A={va} B={vb} {} diff={:+.2}% bound={:.0}% {}",
                    m.name,
                    m.unit,
                    worse * 100.0,
                    m.bound * 100.0,
                    if within { "ok" } else { "REGRESSION" }
                );
            }
        } else {
            for m in PER_LAYER.iter().filter(|m| m.exact) {
                let (Some(va), Some(vb)) = (metric(ra, m.name), metric(rb, m.name)) else {
                    continue;
                };
                if va != vb {
                    ok = false;
                    let _ = writeln!(
                        report,
                        "{workload} {} A={va} B={vb} {} EXACT COUNT DIFFERS",
                        m.name, m.unit
                    );
                }
            }
        }
    }
    for key in b.keys().filter(|k| !a.contains_key(k)) {
        let _ = writeln!(report, "{} trace={}: missing from A", key.0, key.1);
        ok = false;
    }
    (report, ok)
}

/// `--overhead FILE`: what tracing cost — the traced `paper_pipeline` pass
/// against the untraced one of the same reading.
pub fn overhead(path: &str) -> ExitCode {
    let records = match load(path) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let wall = |traced| {
        records
            .get(&("paper_pipeline".to_string(), traced))
            .and_then(|r| metric(r, "wall_s"))
    };
    if let (Some(untraced), Some(traced)) = (wall(0), wall(1)) {
        println!(
            "paper_pipeline trace_overhead_share {} share",
            traced / untraced - 1.0
        );
    }
    ExitCode::SUCCESS
}

pub fn run(a: &str, b: &str) -> ExitCode {
    match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => {
            let (report, ok) = compare(&ra, &rb);
            print!("{report}");
            println!("{}", if ok { "compare: ok" } else { "compare: FAILED" });
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, traced: u64, seed: u64, metrics: &[(&str, f64)]) -> Value {
        let fields: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"x\"}}"))
            .collect();
        let line = format!(
            "{{\"workload\": \"{workload}\", \"trace\": {traced}, \"seed\": {seed}, \
             \"seconds\": 10, \"threads\": 2, \"params\": {{\"world_ases\": \"20000\"}}, \
             \"metrics\": {{{}}}}}",
            fields.join(", ")
        );
        serde_json::from_str(&line).expect("record parses")
    }

    fn set(records: Vec<Value>) -> Records {
        records.into_iter().map(|r| (key(&r), r)).collect()
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Lower) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 0.1, Better::Lower), f64::INFINITY);
    }

    #[test]
    fn a_difference_within_the_bound_passes_and_beyond_it_fails() {
        let a = set(vec![record("whatif_edge", 0, 7, &[("qps", 1000.0)])]);
        let close = set(vec![record("whatif_edge", 0, 7, &[("qps", 900.0)])]);
        let far = set(vec![record("whatif_edge", 0, 7, &[("qps", 700.0)])]);
        assert!(compare(&a, &close).1);
        let (report, ok) = compare(&a, &far);
        assert!(!ok);
        assert!(report.contains("REGRESSION"), "{report}");
    }

    #[test]
    fn any_increase_of_fail_share_fails() {
        let a = set(vec![record("serve_mixed", 0, 7, &[("fail_share", 0.0)])]);
        let b = set(vec![record("serve_mixed", 0, 7, &[("fail_share", 0.001)])]);
        assert!(compare(&a, &a).1);
        assert!(!compare(&a, &b).1);
    }

    #[test]
    fn exact_counts_must_be_identical_and_seeds_must_match() {
        let name = "bgp.universe.activations";
        let a = set(vec![record("paper_pipeline", 1, 7, &[(name, 97.0)])]);
        let b = set(vec![record("paper_pipeline", 1, 7, &[(name, 98.0)])]);
        assert!(compare(&a, &a).1);
        assert!(!compare(&a, &b).1);
        let other_seed = set(vec![record("paper_pipeline", 1, 9, &[(name, 97.0)])]);
        let (report, ok) = compare(&a, &other_seed);
        assert!(!ok);
        assert!(report.contains("settings differ"), "{report}");
    }

    #[test]
    fn a_workload_missing_from_either_side_fails() {
        let a = set(vec![record("whatif_edge", 0, 7, &[("qps", 1.0)])]);
        let both = set(vec![
            record("whatif_edge", 0, 7, &[("qps", 1.0)]),
            record("whatif_wide", 0, 7, &[("qps", 1.0)]),
        ]);
        assert!(!compare(&a, &both).1);
        assert!(!compare(&both, &a).1);
    }
}
