//! `compare <setA> <setB>`: two sets of run records (the files `--out`
//! appends to), metric by metric and workload by workload, against the
//! bounds in [`crate::spec`].

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;

use crate::spec::{Better, MetricDef, END_TO_END};
use crate::stats::quartiles;

/// `workload -> metric -> one value per run`, from untraced records.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Member `key` of a JSON object; `None` when absent or not an object.
fn field<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    Some(serde::field(value.as_object()?, key)).filter(|v| !v.is_null())
}

pub fn parse_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: Value =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = field(&record, "workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        // Per-layer records have no bounds to compare against.
        if field(&record, "trace").and_then(Value::as_u64) != Some(0) {
            continue;
        }
        let metrics = field(&record, "metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("line {}: no metrics", n + 1))?;
        let per_metric = set.entry(workload.to_string()).or_default();
        for (name, body) in metrics {
            if let Some(v) = field(body, "value").and_then(Value::as_f64) {
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`; negative when
/// better.
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    let delta = match def.better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

/// The verdict on one metric of one workload.
///
/// * `regressed`: the median of B is worse than that of A by more than
///   the metric's bound.
/// * `unresolved`: the spread between the quartiles of either set is
///   wider than the bound, so "no worse than the bound" cannot be told,
///   unless every run of B is better than every run of A.
/// * `improved`: the median is better by more than the spread of A's own
///   runs and at least nine tenths of the runs of B beat the median of A.
/// * `unchanged`: otherwise.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Option<(Verdict, [f64; 3], [f64; 3])> {
    let (qa, qb) = (quartiles(a)?, quartiles(b)?);
    let bound = def.bound?;
    let worse = worse_by(def, qa[1], qb[1]);
    let spread = |q: &[f64; 3]| {
        if q[1] == 0.0 {
            0.0
        } else {
            (q[2] - q[0]) / q[1].abs()
        }
    };
    let beats = |x: f64, reference: f64| worse_by(def, reference, x) < 0.0;
    let all_better = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    let wins = b.iter().filter(|&&x| beats(x, qa[1])).count();

    let v = if worse > bound {
        Verdict::Regressed
    } else if spread(&qa) > bound || spread(&qb) > bound {
        if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if -worse > spread(&qa) && wins * 10 >= b.len() * 9 && worse < 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Some((v, qa, qb))
}

pub fn render(a: &RunSet, b: &RunSet) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<20} {:>5} {:>38} {:>38} {:>8}  verdict",
        "workload", "metric", "runs", "A q1 / median / q3", "B q1 / median / q3", "worse %"
    );
    for (workload, metrics_a) in a {
        let Some(metrics_b) = b.get(workload) else {
            let _ = writeln!(out, "{workload:<14} only in set A");
            continue;
        };
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(def.name), metrics_b.get(def.name)) else {
                continue;
            };
            match verdict(def, va, vb) {
                Some((v, qa, qb)) => {
                    let _ = writeln!(
                        out,
                        "{:<14} {:<20} {:>2}/{:<2} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>8.2}  {}",
                        workload,
                        def.name,
                        va.len(),
                        vb.len(),
                        qa[0],
                        qa[1],
                        qa[2],
                        qb[0],
                        qb[1],
                        qb[2],
                        worse_by(def, qa[1], qb[1]) * 100.0,
                        v.as_str()
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "{workload:<14} {:<20} needs at least two runs per set",
                        def.name
                    );
                }
            }
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        let _ = writeln!(out, "{workload:<14} only in set B");
    }
    out
}

/// Prints the comparison; `Ok(false)` (exit code 1) if anything regressed.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|text| parse_set(&text))
    };
    let report = render(&read(a)?, &read(b)?);
    print!("{report}");
    Ok(!report.contains("  regressed"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let rate = def("ops_per_s"); // higher is better, bound 25 %
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 99.8, 100.0, 100.4, 99.9];
        let slow = [70.0, 71.0, 69.0, 70.5, 69.5];
        let fast = [130.0, 131.0, 129.0, 130.5, 129.5];
        let noisy = [70.0, 130.0, 100.0, 85.0, 118.0];
        assert_eq!(verdict(rate, &base, &same).unwrap().0, Verdict::Unchanged);
        assert_eq!(verdict(rate, &base, &slow).unwrap().0, Verdict::Regressed);
        assert_eq!(verdict(rate, &base, &fast).unwrap().0, Verdict::Improved);
        assert_eq!(verdict(rate, &base, &noisy).unwrap().0, Verdict::Unresolved);
        assert!(verdict(rate, &base, &[1.0]).is_none());

        let latency = def("round_ms_p50"); // lower is better
        assert_eq!(verdict(latency, &base, &slow).unwrap().0, Verdict::Improved);
        assert_eq!(
            verdict(latency, &base, &fast).unwrap().0,
            Verdict::Regressed
        );
    }

    #[test]
    fn records_group_by_workload_and_skip_traced_runs() {
        let text = r#"
{"workload": "bulk_ldgm", "trace": 0, "metrics": {"ops_per_s": {"value": 10.5, "unit": "1/s"}}}
{"workload": "bulk_ldgm", "trace": 0, "metrics": {"ops_per_s": {"value": 11, "unit": "1/s"}}}
{"workload": "bulk_ldgm", "trace": 1, "metrics": {"wire.send_s": {"value": 1, "unit": "s"}}}
{"workload": "sweep_grid", "trace": 0, "metrics": {"ops_per_s": {"value": 7, "unit": "1/s"}}}
"#;
        let set = parse_set(text).unwrap();
        assert_eq!(set["bulk_ldgm"]["ops_per_s"], vec![10.5, 11.0]);
        assert_eq!(set["sweep_grid"]["ops_per_s"], vec![7.0]);
        assert!(!set["bulk_ldgm"].contains_key("wire.send_s"));
        assert!(parse_set("{\"trace\": 0}").is_err());

        let table = render(&set, &set);
        assert!(table.contains("bulk_ldgm"), "{table}");
        assert!(table.contains("unchanged"), "{table}");
        assert!(table.contains("needs at least two runs"), "{table}");
    }
}
