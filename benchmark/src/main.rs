//! The repo benchmark: five workloads, end-to-end metrics with
//! regression bounds, and an outside-in per-layer trace. See README.md.
//!
//! Three ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints, as the last line of stdout,
//!   `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//!   metrics untraced, the per-layer metrics traced. This is what
//!   `BENCHMARK.json`'s command invokes.
//! * with no `--workload` it runs the whole suite, each workload in a
//!   **child process of its own** (so `peak_rss_mib` is that workload's
//!   `VmHWM` and no allocator state leaks into the next), `--runs` times,
//!   prints every metric by name with its unit and writes every run made
//!   to `results/suite-seed<n>.json`.
//! * `--compare <a.json> <b.json>` applies the metric bounds to the
//!   medians of two suite results.

mod compare;
mod host;
mod metrics;
mod stats;
mod suite;
mod trace;
mod workloads;

use metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Failure, Params, Report};

const USAGE: &str =
    "usage: dg_benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--runs <k>]
       dg_benchmark --compare <a.json> <b.json>
       dg_benchmark --describe
workloads: gossip_converge rounds_dense rounds_skewed serve_mixed persist_cycle";

/// Length of one run's measured region, seconds: `--seconds` when not
/// given, and what `BENCHMARK.json` tells the driver to pass.
const RUN_SECONDS: u32 = 10;

/// Parsed command line.
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Suite only: untraced runs per workload (`--compare` takes their
    /// median).
    runs: usize,
    compare: Option<(PathBuf, PathBuf)>,
    describe: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    fn value(
        argv: &mut impl Iterator<Item = String>,
        flag: &str,
        what: &str,
    ) -> Result<String, String> {
        argv.next().ok_or(format!("{flag} needs {what}"))
    }
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        runs: 1,
        compare: None,
        describe: false,
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| argv.next()) {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut argv, &flag, "a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                let v = value(&mut argv, &flag, "a number")?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value(&mut argv, &flag, "a number")?;
                args.seconds = match v.parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= 3600.0 => s,
                    _ => return Err(format!("bad seconds {v}")),
                };
            }
            // `--trace 1` for the driver, bare `--trace` for people.
            "--trace" => match argv.next() {
                Some(v) if v == "0" => args.trace = false,
                Some(v) if v == "1" => args.trace = true,
                other => {
                    args.trace = true;
                    pending = other;
                }
            },
            "--runs" => {
                let v = value(&mut argv, &flag, "a number")?;
                args.runs = match v.parse::<usize>() {
                    Ok(k) if (1..=100).contains(&k) => k,
                    _ => return Err(format!("bad run count {v}")),
                };
            }
            "--compare" => {
                let a = value(&mut argv, &flag, "two files")?;
                let b = value(&mut argv, &flag, "two files")?;
                args.compare = Some((a.into(), b.into()));
            }
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where traces, store directories and suite results go: inside the
/// benchmark's own directory, whether run from the repository root (as
/// the driver does) or from `benchmark/`.
fn results_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/results".into()
    } else {
        "results".into()
    }
}

fn metric_json(metric: &Metric, value: f64) -> (String, Value) {
    (
        metric.name.to_owned(),
        json!({ "value": value, "unit": metric.unit }),
    )
}

/// Run one workload in this process; returns the result line.
pub fn run_workload(name: &str, p: &Params) -> Result<(Value, bool), Failure> {
    eprintln!(
        "{name}: seed {}, {} s, {}",
        p.seed,
        p.seconds,
        if p.trace { "traced" } else { "untraced" }
    );
    std::fs::create_dir_all(&p.results_dir)?;
    let wall = Instant::now();
    let cpu_before = host::cpu_seconds();
    let steal_before = host::steal_seconds();
    let mut tr = Tracer::new(wall, p.trace, 1 << 16);
    let mut rep = Report::default();
    workloads::run(name, p, &mut tr, &mut rep)?;

    let wall_s = wall.elapsed().as_secs_f64();
    let steal_s = host::steal_seconds() - steal_before;
    // More than 1% of the wall stolen: the host ran someone else's
    // work on our cores. The run is still reported — never dropped —
    // but flagged, and a disagreeing pair with flagged runs is re-run.
    let disturbed = steal_s > 0.01 * wall_s;
    if disturbed {
        eprintln!("  DISTURBED: {steal_s:.2} s stolen in {wall_s:.2} s");
    }
    let table = if p.trace {
        rep.set("host.machine_threads", host::machine_threads() as f64);
        rep.set("host.rayon_threads", workloads::ENGINE_THREADS as f64);
        rep.set("host.cpu_s", host::cpu_seconds() - cpu_before);
        rep.set("host.steal_s", steal_s);
        rep.set("host.disturbed", f64::from(u8::from(disturbed)));
        rep.set("harness.wall_s", wall_s);
        rep.set("harness.measured_s", rep.measured_s);
        rep.set("harness.spans", tr.spans().len() as f64);
        let traced_op = rep.get("op_s_p50").ok_or("workload set no op_s_p50")?;
        rep.set("harness.traced_op_s_p50", traced_op);
        let path = p.results_dir.join(format!("{name}.trace.json"));
        std::fs::write(&path, tr.to_json(name).to_string())?;
        eprintln!("  trace: {} spans in {}", tr.spans().len(), path.display());
        for (span, t) in trace::totals(tr.spans()) {
            eprintln!(
                "    {span}: {} spans, total {:.4} s, self {:.4} s",
                t.count, t.total_s, t.self_s
            );
        }
        PER_LAYER
    } else {
        rep.set("peak_rss_mib", host::peak_rss_mib());
        END_TO_END
    };

    let mut correct = rep.correct();
    let metrics: Vec<(String, Value)> = table
        .iter()
        .map(|m| {
            // A layer the workload never called did no work: zero. An
            // end-to-end metric must have been measured, and not as 0.
            let value = rep.get(m.name).unwrap_or(0.0);
            if m.bound.is_some() && !(value.is_finite() && value > 0.0) {
                eprintln!("  CHECK FAILED: end-to-end metric {} is {value}", m.name);
                correct = false;
            }
            metric_json(m, value)
        })
        .collect();
    for violation in &rep.violations {
        eprintln!("  violated: {violation}");
    }
    eprintln!(
        "  {} of {} operations failed; {:.1} s wall, {:.1} s measured",
        rep.failed, rep.attempted, wall_s, rep.measured_s
    );
    let line = json!({
        "correct": correct,
        "attempted": rep.attempted.max(1),
        "failed": rep.failed,
        "metrics": Value::Object(metrics),
    });
    Ok((line, correct))
}

/// `BENCHMARK.json`, generated from the metric tables.
fn describe() -> Value {
    let listed = |table: &[Metric]| -> Vec<Value> {
        table
            .iter()
            .map(|m| {
                let mut entry = vec![
                    ("name".to_owned(), json!(m.name)),
                    ("unit".to_owned(), json!(m.unit)),
                    ("better".to_owned(), json!(m.better.as_str())),
                ];
                if let Some(bound) = m.bound {
                    entry.push(("bound".to_owned(), json!(bound)));
                }
                Value::Object(entry)
            })
            .collect()
    };
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({ "name": w.name, "why": w.why }))
        .collect();
    json!({
        "command": [
            "cargo", "run", "--release", "--offline", "--quiet",
            "--manifest-path", "benchmark/Cargo.toml", "--"
        ],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": listed(END_TO_END),
        "per_layer": listed(PER_LAYER),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        println!("{}", describe().to_string_pretty());
        return ExitCode::SUCCESS;
    }
    let outcome = if let Some((a, b)) = &args.compare {
        compare::run(a, b)
    } else if let Some(name) = &args.workload {
        let params = Params {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            tiny: false,
            results_dir: results_dir(),
        };
        run_workload(name, &params).map(|(line, correct)| {
            println!("{line}");
            correct
        })
    } else {
        suite::run(&args, &results_dir())
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn driver_and_human_trace_flags_both_parse() {
        let a = args(&[
            "--workload",
            "rounds_dense",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("rounds_dense"), 7, 3.0, true)
        );
        assert!(!args(&["--trace", "0"]).unwrap().trace);
        let bare = args(&["--trace", "--seed", "9"]).unwrap();
        assert!(bare.trace && bare.seed == 9);
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
    }

    #[test]
    fn describe_is_what_benchmark_json_says() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed: Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(committed, describe());
    }

    /// Every workload, both ways, at a few hundred nodes: each run must
    /// pass its own output checks and print every metric of its table
    /// exactly once, under a well-formed name.
    #[test]
    fn tiny_smoke_prints_every_metric_once() {
        let results_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("smoke-{}", std::process::id()));
        for w in WORKLOADS {
            for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
                let params = Params {
                    seed: 42,
                    seconds: 0.1,
                    trace,
                    tiny: true,
                    results_dir: results_dir.clone(),
                };
                let (line, correct) = run_workload(w.name, &params).unwrap();
                assert!(correct, "{} (trace {trace}) failed its checks", w.name);
                let Some(Value::Object(printed)) = line.get("metrics") else {
                    panic!("no metrics object in {line}");
                };
                let names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
                let unique: BTreeSet<&str> = names.iter().copied().collect();
                assert_eq!(
                    names.len(),
                    unique.len(),
                    "{} prints a metric twice",
                    w.name
                );
                let wanted: BTreeSet<&str> = table.iter().map(|m| m.name).collect();
                assert_eq!(unique, wanted, "{} (trace {trace})", w.name);
                // The result line parses back and carries the four keys.
                let parsed: Value = serde_json::from_str(&line.to_string()).unwrap();
                for key in ["correct", "attempted", "failed", "metrics"] {
                    assert!(parsed.get(key).is_some(), "{key} missing");
                }
            }
        }
        std::fs::remove_dir_all(&results_dir).unwrap();
    }
}
