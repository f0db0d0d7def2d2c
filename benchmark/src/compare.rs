//! `--compare A.json B.json`: applies the regression bounds to two full
//! reports and prints one row per (workload, metric).

use crate::json::{self, Value};
use crate::report::{END_TO_END, FAILED_OP_SHARE};

/// How B's value of one metric stands against A's.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Equal to the last digit.
    Same,
    /// Different, but B is not worse than A by more than the bound.
    WithinBound,
    /// B is worse than A by more than the bound.
    Regressed,
    /// A file's own repetitions spread wider than the bound, so the two
    /// medians cannot be told apart at this bound.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric: `a`/`b` are the two values, `spread` the wider of
/// the two files' own repetition spreads.
pub fn judge(a: f64, b: f64, spread: f64, higher_is_better: bool, bound: f64) -> Verdict {
    if a == b {
        return Verdict::Same;
    }
    if spread > bound {
        return Verdict::Unresolved;
    }
    let worse_by = if higher_is_better { a - b } else { b - a };
    if worse_by > bound * a.abs() {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

/// The report on the last non-empty line of `text` (so a captured standard
/// output works as well as a bare report).
fn report_of(text: &str) -> Result<Value, String> {
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty file")?;
    let v = json::parse(line)?;
    if v.get("workloads").is_none() {
        return Err("not a full report (run without --workload to get one)".into());
    }
    Ok(v)
}

fn field(report: &Value, workload: &str, metric: &str, key: &str) -> Option<f64> {
    report
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get(key)?
        .as_f64()
}

/// Compares two report texts; returns the printed table and whether any
/// row regressed.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = report_of(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = report_of(b_text).map_err(|e| format!("second file: {e}"))?;
    let workloads = a
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or("first file: `workloads` is not an object")?;
    let mut table = String::new();
    let mut regressed = false;
    let rows = END_TO_END
        .iter()
        .map(|e| (e.name, e.higher_is_better, e.bound))
        .chain([(FAILED_OP_SHARE, false, 0.0)]);
    for name in workloads.keys() {
        for (metric, higher, bound) in rows.clone() {
            let (Some(va), Some(vb)) = (
                field(&a, name, metric, "value"),
                field(&b, name, metric, "value"),
            ) else {
                table.push_str(&format!("{name} {metric} missing\n"));
                regressed = true;
                continue;
            };
            let spread = field(&a, name, metric, "spread")
                .unwrap_or(0.0)
                .max(field(&b, name, metric, "spread").unwrap_or(0.0));
            let verdict = judge(va, vb, spread, higher, bound);
            regressed |= verdict == Verdict::Regressed;
            let change = if va == 0.0 {
                0.0
            } else {
                (vb - va) / va * 100.0
            };
            table.push_str(&format!(
                "{name} {metric} {va} -> {vb} ({change:+.2}%, bound {:.0}%, spread {:.2}%) {}\n",
                bound * 100.0,
                spread * 100.0,
                verdict.label()
            ));
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        assert_eq!(judge(1.0, 1.0, 0.5, true, 0.01), Verdict::Same);
        assert_eq!(judge(100.0, 95.0, 0.0, true, 0.10), Verdict::WithinBound);
        assert_eq!(judge(100.0, 85.0, 0.0, true, 0.10), Verdict::Regressed);
        assert_eq!(judge(100.0, 115.0, 0.0, true, 0.10), Verdict::WithinBound);
        assert_eq!(judge(100.0, 115.0, 0.0, false, 0.10), Verdict::Regressed);
        assert_eq!(judge(100.0, 115.0, 0.2, false, 0.10), Verdict::Unresolved);
        // Bound 0: any increase of a lower-is-better metric regresses.
        assert_eq!(judge(0.0, 0.001, 0.0, false, 0.0), Verdict::Regressed);
    }
}
