//! `run.sh --compare A.json B.json`: apply the bounds of BENCHMARK.json
//! to two result files and print one row per (metric, workload).

use crate::json::Value;
use crate::spec::Spec;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Better,
    /// B is within the bound of A, either way.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// A's or B's own run-to-run spread is wider than the bound: the
    /// files cannot say.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's value B is worse (negative: better).
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn verdict(
    a: f64,
    b: f64,
    higher_is_better: bool,
    bound: f64,
    spread_a: f64,
    spread_b: f64,
) -> Verdict {
    let delta = worse_by(a, b, higher_is_better);
    if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if delta > bound {
        Verdict::Worse
    } else if delta < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

pub struct Row {
    pub metric: String,
    pub workload: String,
    pub a: f64,
    pub b: f64,
    pub unit: String,
    pub worse_by: f64,
    pub bound: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// One row per end-to-end metric of every workload both files hold.
pub fn rows(spec: &Spec, a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let workloads = |v: &Value| -> Result<Value, String> {
        v.get("workloads")
            .cloned()
            .ok_or_else(|| "not a gridbench result file".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = Vec::new();
    for (workload, ra) in wa.fields() {
        let Some(rb) = wb.get(workload) else { continue };
        for def in &spec.end_to_end {
            let pick = |r: &Value| -> Result<(f64, f64), String> {
                let m = r
                    .get("end_to_end")
                    .and_then(|e| e.get(&def.name))
                    .ok_or_else(|| format!("{}@{workload} missing", def.name))?;
                Ok((m.need_num("value")?, m.need_num("spread")?))
            };
            let ((va, sa), (vb, sb)) = (pick(ra)?, pick(rb)?);
            let bound = def.bound.expect("end-to-end metrics have bounds");
            out.push(Row {
                metric: def.name.clone(),
                workload: workload.clone(),
                a: va,
                b: vb,
                unit: def.unit.clone(),
                worse_by: worse_by(va, vb, def.higher_is_better),
                bound,
                spread: sa.max(sb),
                verdict: verdict(va, vb, def.higher_is_better, bound, sa, sb),
            });
        }
    }
    if out.is_empty() {
        return Err("the two files share no workload".to_string());
    }
    Ok(out)
}

/// Print the rows; returns how many are `worse` or `unresolved`.
pub fn print(rows: &[Row]) -> usize {
    println!(
        "{:<18} {:<15} {:>14} {:>14} {:<9} {:>9} {:>7} {:>7}  verdict",
        "metric", "workload", "A", "B", "unit", "worse by", "bound", "spread"
    );
    for r in rows {
        println!(
            "{:<18} {:<15} {:>14.6} {:>14.6} {:<9} {:>8.2}% {:>6.0}% {:>6.2}%  {}",
            r.metric,
            r.workload,
            r.a,
            r.b,
            r.unit,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.spread * 100.0,
            r.verdict.label()
        );
    }
    let bad = rows
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::Worse | Verdict::Unresolved))
        .count();
    println!(
        "{} rows: {} better, {} same, {} worse, {} unresolved",
        rows.len(),
        rows.iter().filter(|r| r.verdict == Verdict::Better).count(),
        rows.iter().filter(|r| r.verdict == Verdict::Same).count(),
        rows.iter().filter(|r| r.verdict == Verdict::Worse).count(),
        rows.iter()
            .filter(|r| r.verdict == Verdict::Unresolved)
            .count(),
    );
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_decides_which_way_is_worse() {
        assert!((worse_by(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, false) + 0.1).abs() < 1e-12);
        assert_eq!(worse_by(5.0, 5.0, true), 0.0);
    }

    #[test]
    fn bounds_are_applied_in_both_directions() {
        // Throughput, bound 10 %.
        assert_eq!(verdict(100.0, 85.0, true, 0.10, 0.01, 0.02), Verdict::Worse);
        assert_eq!(verdict(100.0, 95.0, true, 0.10, 0.01, 0.02), Verdict::Same);
        assert_eq!(verdict(100.0, 105.0, true, 0.10, 0.01, 0.02), Verdict::Same);
        assert_eq!(
            verdict(100.0, 115.0, true, 0.10, 0.01, 0.02),
            Verdict::Better
        );
        // Latency: the same numbers read the other way round.
        assert_eq!(verdict(100.0, 85.0, false, 0.10, 0.0, 0.0), Verdict::Better);
        assert_eq!(verdict(100.0, 115.0, false, 0.10, 0.0, 0.0), Verdict::Worse);
        // Exactly on the bound is still within it.
        assert_eq!(verdict(100.0, 90.0, true, 0.10, 0.0, 0.0), Verdict::Same);
        // Identical sim-clock values.
        assert_eq!(
            verdict(12.1488, 12.1488, true, 0.01, 0.0, 0.0),
            Verdict::Same
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_leaves_the_row_unresolved() {
        assert_eq!(
            verdict(100.0, 50.0, true, 0.10, 0.12, 0.01),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 100.0, true, 0.10, 0.01, 0.11),
            Verdict::Unresolved
        );
        assert_eq!(verdict(100.0, 100.0, true, 0.10, 0.10, 0.10), Verdict::Same);
    }

    #[test]
    fn rows_pair_up_metrics_of_shared_workloads() {
        let spec = Spec::parse(
            r#"{"run_seconds":5,"workloads":[],"per_layer":[],
               "end_to_end":[{"name":"host_mbps","unit":"MB/cpu-s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let file = |v: f64, spread: f64, extra: &str| {
            Value::parse(&format!(
                r#"{{"workloads":{{"bulk_plain":{{"end_to_end":{{"host_mbps":{{"value":{v},"spread":{spread}}}}}}}{extra}}}}}"#
            ))
            .unwrap()
        };
        let a = file(300.0, 0.02, r#","only_in_a":{}"#);
        let b = file(240.0, 0.03, "");
        let rows = rows(&spec, &a, &b).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert!((rows[0].worse_by - 0.2).abs() < 1e-12);
        assert_eq!(rows[0].spread, 0.03);
        assert!(super::rows(&spec, &a, &Value::obj()).is_err());
    }
}
