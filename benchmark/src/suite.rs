//! The whole suite from one command: every workload in a child process
//! of its own, every metric printed by name with its unit, every run
//! recorded.

use crate::metrics::{find, WORKLOADS};
use crate::stats::median;
use crate::workloads::Failure;
use crate::Args;
use serde_json::{json, Value};
use std::path::Path;
use std::process::{Command, Stdio};

/// Run `workload` in a fresh process (this binary again, with
/// `--workload`); returns its result line. The child's progress notes
/// pass straight through on stderr.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<Value, Failure> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8(output.stdout)?;
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed no result ({})", output.status))?;
    Ok(serde_json::from_str(line)?)
}

/// The value a result line (`{"correct", ..., "metrics"}`) reports for
/// `name`.
pub fn metric_value(result: &Value, name: &str) -> Option<f64> {
    match result.get("metrics")?.get(name)?.get("value")? {
        Value::Number(v) => Some(*v),
        _ => None,
    }
}

fn print_run(workload: &str, run: &Value) {
    let Some(Value::Object(metrics)) = run.get("metrics") else {
        return;
    };
    let mut bypassed = 0;
    for (name, _) in metrics {
        let value = metric_value(run, name).unwrap_or(f64::NAN);
        // Only a per-layer metric can be zero: a layer never called.
        if value == 0.0 {
            bypassed += 1;
            continue;
        }
        let unit = find(name).map_or("", |m| m.unit);
        println!("{workload:<16} {name:<36} {value:>18.6} {unit}");
    }
    if bypassed > 0 {
        println!(
            "{workload:<16} {bypassed} per-layer metrics are 0 (layers this workload bypasses)"
        );
    }
}

/// Run every workload (`--runs` times untraced, then once traced when
/// asked), print and record every run. `Ok(false)` when any run failed
/// a check.
pub fn run(args: &Args, results_dir: &Path) -> Result<bool, Failure> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in WORKLOADS {
        let mut modes = vec![false; args.runs];
        if args.trace {
            modes.push(true);
        }
        let mut untraced_op = Vec::new();
        for trace in modes {
            let run = run_child(w.name, args, trace)?;
            print_run(w.name, &run);
            let correct = run.get("correct") == Some(&Value::Bool(true));
            let failed = run.get("failed").cloned().unwrap_or(Value::Null);
            let attempted = run.get("attempted").cloned().unwrap_or(Value::Null);
            println!(
                "{:<16} {failed} of {attempted} operations failed, checks {}",
                w.name,
                if correct { "passed" } else { "FAILED" }
            );
            all_correct &= correct;
            if trace {
                // Same workload, same seed, spans kept: what keeping
                // them (and the traced phase mix) cost the operation.
                if let Some(traced) = metric_value(&run, "harness.traced_op_s_p50")
                    .filter(|_| !untraced_op.is_empty())
                {
                    println!(
                        "{:<16} {:<36} {:>18.6} ratio",
                        w.name,
                        "harness.trace_overhead_ratio",
                        traced / median(&untraced_op)
                    );
                }
            } else {
                untraced_op.extend(metric_value(&run, "op_s_p50"));
            }
            runs.push(json!({ "workload": w.name, "trace": trace, "result": run }));
        }
    }
    std::fs::create_dir_all(results_dir)?;
    let path = results_dir.join(format!("suite-seed{}.json", args.seed));
    let record = json!({ "seed": args.seed, "seconds": args.seconds, "runs": runs });
    std::fs::write(&path, record.to_string_pretty())?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}
