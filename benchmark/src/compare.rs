//! `--compare <baseline.json> <candidate.json>`: apply the benchmark's
//! own bounds to two suite results.
//!
//! Where a side ran a workload more than once (`--runs`), its median
//! stands for it. Every end-to-end metric of every workload may worsen
//! by at most its bound (as a share of the baseline; `setup_s` also
//! gets an absolute floor), every exact per-layer count must be
//! identical, and neither side may have failed an operation.

use crate::metrics::{Better, Metric, END_TO_END, PER_LAYER, SETUP_FLOOR_S};
use crate::stats::median;
use crate::suite::metric_value;
use crate::workloads::Failure;
use serde_json::Value;
use std::path::Path;

/// By how much `candidate` is worse than `baseline`, as a share of the
/// baseline (negative when it is better).
pub fn worsening(metric: &Metric, baseline: f64, candidate: f64) -> f64 {
    let change = (candidate - baseline) / baseline.abs().max(f64::MIN_POSITIVE);
    match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Whether the move from `baseline` to `candidate` breaks the metric's
/// rule: beyond the bound for a gated metric, any change at all for an
/// exact count.
pub fn violates(metric: &Metric, baseline: f64, candidate: f64) -> bool {
    if metric.exact {
        return baseline.to_bits() != candidate.to_bits();
    }
    let Some(bound) = metric.bound else {
        return false;
    };
    let within_floor = metric.name == "setup_s" && (candidate - baseline).abs() <= SETUP_FLOOR_S;
    worsening(metric, baseline, candidate) > bound && !within_floor
}

/// One workload run one way (traced or not): every run a suite result
/// holds of it.
struct Group<'a> {
    workload: &'a str,
    traced: bool,
    runs: Vec<&'a Value>,
}

fn load(path: &Path) -> Result<Value, Failure> {
    Ok(serde_json::from_str(&std::fs::read_to_string(path)?)?)
}

/// The runs of a suite result, grouped in the order they were made.
fn groups(doc: &Value) -> Result<Vec<Group<'_>>, Failure> {
    let Some(Value::Array(runs)) = doc.get("runs") else {
        return Err("not a suite result: no `runs`".into());
    };
    let mut out: Vec<Group<'_>> = Vec::new();
    for run in runs {
        let workload = match run.get("workload") {
            Some(Value::String(name)) => name.as_str(),
            _ => "?",
        };
        let traced = run.get("trace") == Some(&Value::Bool(true));
        match out
            .iter_mut()
            .find(|g| g.workload == workload && g.traced == traced)
        {
            Some(group) => group.runs.push(run),
            None => out.push(Group {
                workload,
                traced,
                runs: vec![run],
            }),
        }
    }
    Ok(out)
}

impl Group<'_> {
    /// Median of `metric` over the group's runs.
    fn median_of(&self, metric: &str) -> Option<f64> {
        let values: Option<Vec<f64>> = self
            .runs
            .iter()
            .map(|run| metric_value(run.get("result")?, metric))
            .collect();
        values.filter(|v| !v.is_empty()).map(|v| median(&v))
    }

    /// Whether every run passed its checks with no failed operation.
    fn clean(&self) -> bool {
        self.runs.iter().all(|run| {
            let result = run.get("result");
            result.and_then(|r| r.get("correct")) == Some(&Value::Bool(true))
                && result.and_then(|r| r.get("failed")) == Some(&Value::Number(0.0))
        })
    }
}

/// Compare two suite results, median against median where a side ran a
/// workload more than once; `Ok(true)` when the candidate holds every
/// bound.
pub fn run(baseline: &Path, candidate: &Path) -> Result<bool, Failure> {
    let (base_doc, cand_doc) = (load(baseline)?, load(candidate)?);
    let cand_groups = groups(&cand_doc)?;
    let mut violations = 0;
    println!(
        "{:<16} {:<28} {:>16} {:>16} {:>9}  rule",
        "workload", "metric", "baseline", "candidate", "worse"
    );
    for base in groups(&base_doc)? {
        let workload = base.workload;
        let Some(cand) = cand_groups
            .iter()
            .find(|c| c.workload == workload && c.traced == base.traced)
        else {
            println!("{workload:<16} missing from the candidate");
            violations += 1;
            continue;
        };
        for (side, group) in [("baseline", &base), ("candidate", cand)] {
            if !group.clean() {
                println!("{workload:<16} a {side} run failed operations or checks");
                violations += 1;
            }
        }
        let table = if base.traced { PER_LAYER } else { END_TO_END };
        for metric in table.iter().filter(|m| m.exact || m.bound.is_some()) {
            let (Some(a), Some(b)) = (base.median_of(metric.name), cand.median_of(metric.name))
            else {
                println!("{workload:<16} {:<28} missing on one side", metric.name);
                violations += 1;
                continue;
            };
            let broken = violates(metric, a, b);
            let rule = match metric.bound {
                Some(bound) => format!("<= {:.0}%", bound * 100.0),
                None => "exact".to_owned(),
            };
            println!(
                "{workload:<16} {:<28} {a:>16.6} {b:>16.6} {:>+8.1}%  {rule}{}",
                metric.name,
                worsening(metric, a, b) * 100.0,
                if broken { "  VIOLATED" } else { "" }
            );
            violations += usize::from(broken);
        }
    }
    println!("{violations} violations");
    Ok(violations == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    #[test]
    fn bounds_follow_the_better_direction() {
        let op = find("op_s_p50").unwrap();
        let bound = op.bound.unwrap();
        assert!(!violates(op, 1.0, 1.0 + bound * 0.99));
        assert!(violates(op, 1.0, 1.0 + bound * 1.01));
        assert!(
            !violates(op, 1.0, 0.2),
            "getting faster is not a regression"
        );

        let rate = find("work_per_s").unwrap();
        let bound = rate.bound.unwrap();
        assert!(!violates(rate, 100.0, 100.0 * (1.0 - bound * 0.99)));
        assert!(violates(rate, 100.0, 100.0 * (1.0 - bound * 1.01)));
        assert!(!violates(rate, 100.0, 500.0));
    }

    #[test]
    fn repeated_runs_are_compared_by_their_median() {
        let run = |workload: &str, op: f64, failed: u32| {
            format!(
                r#"{{"workload": "{workload}", "trace": false, "result": {{"correct": {},
                "failed": {failed}, "metrics": {{"op_s_p50": {{"value": {op}, "unit": "s"}}}}}}}}"#,
                failed == 0
            )
        };
        let text = format!(
            r#"{{"runs": [{}, {}, {}, {}]}}"#,
            run("rounds_dense", 3.0, 0),
            run("rounds_skewed", 9.0, 1),
            run("rounds_dense", 1.0, 0),
            run("rounds_dense", 2.0, 0)
        );
        let doc: Value = serde_json::from_str(&text).unwrap();
        let groups = groups(&doc).unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].runs.len(), 3);
        assert_eq!(groups[0].median_of("op_s_p50"), Some(2.0));
        assert_eq!(groups[0].median_of("work_per_s"), None);
        assert!(groups[0].clean());
        assert!(!groups[1].clean());
    }

    #[test]
    fn setup_has_an_absolute_floor() {
        let setup = find("setup_s").unwrap();
        // 40 ms -> 90 ms is +125% but only 50 ms: inside the floor.
        assert!(!violates(setup, 0.04, 0.09));
        // 1 s -> 1.5 s is beyond both the bound and the floor.
        assert!(violates(setup, 1.0, 1.5));
        assert!(!violates(setup, 1.0, 1.2));
    }

    #[test]
    fn exact_counts_tolerate_nothing_and_layers_are_free() {
        let steps = find("gossip.steps_mean").unwrap();
        assert!(!violates(steps, 109.0, 109.0));
        assert!(violates(steps, 109.0, 109.000_000_1));
        let layer = find("sim.round_s_p50").unwrap();
        assert!(!violates(layer, 0.1, 10.0));
    }
}
