//! The serving-throughput harness behind `perf_suite --serve`.
//!
//! Measures **sustained queries per second against a live server** —
//! concurrent pipelined TCP clients hammering the query endpoints while
//! the round engine keeps completing rounds and an ingest client keeps
//! submitting reports — and emits a `BENCH_serve*.json` report.
//! `perf_compare --serve` gates CI by comparing a fresh report against
//! the committed `crates/bench/BENCH_baseline_serve.json` (and, on the
//! million-node scale config, by enforcing the absolute ≥ 100 000
//! queries/s serving floor).
//!
//! The measurement is deliberately end-to-end: every counted query
//! crosses the wire protocol, a connection handler thread and a
//! snapshot load, so a regression anywhere in that path — framing,
//! handler scheduling, snapshot publication — shows up here.

use crate::perf::PerfConfig;
use dg_gossip::EngineKind;
use dg_serve::{Client, Request, Response, ServeOptions, Server};
use dg_sim::TrafficModel;
use dg_trust::prelude::TransactionOutcome;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Query clients hammering the server during the measurement.
const CLIENTS: usize = 4;
/// Requests each client keeps in flight per batch (pipelining depth —
/// the server flushes once per drained batch, see `dg-serve`).
const PIPELINE: usize = 64;
/// Measurement window.
const WINDOW: Duration = Duration::from_secs(2);
/// The scale config's serving floor: the acceptance bar is ≥ 100k
/// sustained queries/s at N = 1 000 000 with the engine running.
pub const SCALE_MIN_QPS: f64 = 100_000.0;

/// A `BENCH_serve*.json` report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Config name (`smoke` / `scale` / ...).
    pub name: String,
    /// Network size served.
    pub nodes: usize,
    /// Scenario seed.
    pub seed: u64,
    /// The engine that ran rounds during the measurement.
    pub engine: String,
    /// Concurrent query connections.
    pub clients: usize,
    /// Requests in flight per client batch.
    pub pipeline: usize,
    /// Measurement wall time, milliseconds.
    pub wall_ms: f64,
    /// Queries answered inside the window, all clients.
    pub queries_total: u64,
    /// The headline number: sustained queries answered per second with
    /// the engine running. Future PRs must not regress it.
    pub queries_per_sec: f64,
    /// Rounds the engine completed inside the window (must be > 0 —
    /// otherwise the measurement was of an idle server).
    pub rounds_completed: usize,
    /// Ingest submissions attempted by the side channel.
    pub ingest_attempted: u64,
    /// ... of which accepted into a round.
    pub ingest_accepted: u64,
    /// ... of which shed with a typed `Busy` (backpressure working,
    /// not a failure).
    pub ingest_shed: u64,
}

/// One query client: pipelined batches of reputation lookups with a
/// periodic `top_k` mixed in, until `stop`. Returns queries answered.
fn query_client(
    addr: std::net::SocketAddr,
    id: u64,
    nodes: usize,
    stop: &AtomicBool,
) -> Result<u64, Box<dyn std::error::Error + Send + Sync>> {
    let mut client = Client::connect(addr, id)?;
    let mut answered = 0u64;
    // Subjects stride through the id space so snapshot rows are hit
    // broadly; a cheap LCG keeps the harness dependency-free.
    let mut state = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(id + 1);
    while !stop.load(Ordering::Acquire) {
        for i in 0..PIPELINE {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let request = if i % 16 == 15 {
                Request::TopK { k: 16 }
            } else {
                Request::Reputation {
                    subject: (state >> 33) as u32 % nodes as u32,
                }
            };
            client.send(&request)?;
        }
        client.flush()?;
        for _ in 0..PIPELINE {
            match client.recv()? {
                Response::Reputation { .. } | Response::TopK { .. } => answered += 1,
                other => return Err(format!("unexpected response {other:?}").into()),
            }
        }
    }
    Ok(answered)
}

/// The ingest side channel: keeps submitting reports so the measured
/// rounds fold real ingest and backpressure stays exercised. Returns
/// `(attempted, accepted, shed)`.
fn ingest_client(
    addr: std::net::SocketAddr,
    nodes: usize,
    stop: &AtomicBool,
) -> Result<(u64, u64, u64), Box<dyn std::error::Error + Send + Sync>> {
    let mut client = Client::connect(addr, u64::MAX)?;
    let (mut attempted, mut accepted, mut shed) = (0u64, 0u64, 0u64);
    let n = nodes as u32;
    while !stop.load(Ordering::Acquire) {
        let requester = attempted as u32 % n;
        let provider = (requester + 1) % n;
        attempted += 1;
        match client.ingest(
            requester,
            provider,
            TransactionOutcome::Served { quality: 0.8 },
        )? {
            Response::IngestAccepted { .. } => accepted += 1,
            Response::Busy => {
                shed += 1;
                // Busy is the server asking for a pause, not a retry
                // storm invitation.
                std::thread::sleep(Duration::from_millis(1));
            }
            other => return Err(format!("unexpected response {other:?}").into()),
        }
    }
    Ok((attempted, accepted, shed))
}

/// Run the serving measurement on `perf`: start the server, keep the
/// engine completing rounds on this thread, and count the queries the
/// client fleet gets answered inside the window.
pub fn run_serve(
    perf: &PerfConfig,
    seed: u64,
    engine: EngineKind,
) -> Result<ServeReport, Box<dyn std::error::Error>> {
    let config = crate::perf::run_config(perf, seed, engine);
    let mut server =
        Server::start(config, ServeOptions::default()).map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);

    let (queries_total, rounds_completed, ingest, wall) =
        std::thread::scope(|s| -> Result<_, Box<dyn std::error::Error>> {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|id| {
                    let stop = &stop;
                    s.spawn(move || query_client(addr, id as u64, perf.nodes, stop))
                })
                .collect();
            let ingester = {
                let stop = &stop;
                s.spawn(move || ingest_client(addr, perf.nodes, stop))
            };

            // Drive rounds back-to-back until the window closes: the
            // headline queries/s number is measured *with the engine
            // running*, never against an idle snapshot.
            let start = Instant::now();
            let mut rounds_completed = 0usize;
            while start.elapsed() < WINDOW {
                server.run_round().map_err(|e| format!("round: {e}"))?;
                rounds_completed += 1;
            }
            stop.store(true, Ordering::Release);
            let wall = start.elapsed();

            let mut queries_total = 0u64;
            for client in clients {
                queries_total += client
                    .join()
                    .expect("query client thread")
                    .map_err(|e| format!("query client: {e}"))?;
            }
            let ingest = ingester
                .join()
                .expect("ingest client thread")
                .map_err(|e| format!("ingest client: {e}"))?;
            Ok((queries_total, rounds_completed, ingest, wall))
        })?;

    let wall_s = wall.as_secs_f64().max(1e-9);
    Ok(ServeReport {
        name: perf.name.to_owned(),
        nodes: perf.nodes,
        seed,
        engine: engine.label().to_owned(),
        clients: CLIENTS,
        pipeline: PIPELINE,
        wall_ms: wall_s * 1e3,
        queries_total,
        queries_per_sec: queries_total as f64 / wall_s,
        rounds_completed,
        ingest_attempted: ingest.0,
        ingest_accepted: ingest.1,
        ingest_shed: ingest.2,
    })
}

/// `perf_suite --serve` entry point: measure, print, write the report.
pub fn serve_main(cli: &crate::Cli) -> Result<(), Box<dyn std::error::Error>> {
    let mut perf = crate::perf::select_config(cli);
    if cli.scale && perf.traffic.activity_fraction >= 1.0 {
        // Full traffic at N = 1e6 makes rounds minutes long; the serve
        // measurement wants the engine *running*, which means rounds
        // completing inside the window — thin the traffic the way a
        // realistic serving deployment is loaded.
        perf.traffic = TrafficModel::full().with_activity(0.01).with_zipf(1.0);
    }
    let engine = cli.engine.unwrap_or(EngineKind::Sharded);
    eprintln!(
        "perf_suite --serve: {} ({} nodes, seed {}, engine {}, {} clients x {} pipelined)",
        perf.name,
        perf.nodes,
        cli.seed,
        engine.label(),
        CLIENTS,
        PIPELINE,
    );
    let report = run_serve(&perf, cli.seed, engine)?;
    eprintln!(
        "  {:>12.0} queries/s sustained ({} queries in {:.1} ms, {} rounds completed)",
        report.queries_per_sec, report.queries_total, report.wall_ms, report.rounds_completed,
    );
    eprintln!(
        "  ingest: {} attempted, {} accepted, {} shed (Busy)",
        report.ingest_attempted, report.ingest_accepted, report.ingest_shed,
    );
    let default_name = format!(
        "BENCH_serve{}.json",
        if report.name == "smoke" {
            String::new()
        } else {
            format!("_{}", report.name)
        }
    );
    let name = cli.out.clone().unwrap_or(default_name);
    let path = crate::resolve_out_path(cli.out_dir.as_deref(), &name);
    std::fs::write(&path, serde_json::to_string_pretty(&report)?)?;
    eprintln!("wrote {path}");
    if cli.json {
        println!("{}", serde_json::to_string(&report)?);
    }
    Ok(())
}

/// The `perf_compare --serve` gate: relative regression against the
/// baseline plus an optional absolute queries/s floor. Returns the
/// violations (empty = pass).
pub fn find_serve_regressions(
    baseline: &ServeReport,
    candidate: &ServeReport,
    max_regression: f64,
    min_qps: Option<f64>,
) -> Vec<String> {
    let mut violations = Vec::new();
    if candidate.rounds_completed == 0 {
        violations.push(
            "the engine completed no rounds inside the window: the measurement is of an \
             idle server"
                .to_owned(),
        );
    }
    let floor = baseline.queries_per_sec / max_regression;
    if candidate.queries_per_sec < floor {
        violations.push(format!(
            "sustained queries/s dropped more than {max_regression}x: {:.0} -> {:.0} \
             (floor {:.0})",
            baseline.queries_per_sec, candidate.queries_per_sec, floor,
        ));
    }
    if let Some(min) = min_qps {
        if candidate.queries_per_sec < min {
            violations.push(format!(
                "sustained queries/s {:.0} is below the absolute floor {min:.0}",
                candidate.queries_per_sec,
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(qps: f64, rounds: usize) -> ServeReport {
        ServeReport {
            name: "smoke".into(),
            nodes: 100,
            seed: 42,
            engine: "sharded".into(),
            clients: CLIENTS,
            pipeline: PIPELINE,
            wall_ms: 2000.0,
            queries_total: (qps * 2.0) as u64,
            queries_per_sec: qps,
            rounds_completed: rounds,
            ingest_attempted: 10,
            ingest_accepted: 9,
            ingest_shed: 1,
        }
    }

    #[test]
    fn gate_passes_within_budget() {
        let violations =
            find_serve_regressions(&report(200_000.0, 5), &report(120_000.0, 3), 2.0, None);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn gate_fails_on_regression() {
        let violations =
            find_serve_regressions(&report(200_000.0, 5), &report(90_000.0, 3), 2.0, None);
        assert_eq!(violations.len(), 1, "{violations:?}");
    }

    #[test]
    fn gate_fails_below_absolute_floor() {
        let violations = find_serve_regressions(
            &report(150_000.0, 5),
            &report(90_000.0, 3),
            2.0,
            Some(SCALE_MIN_QPS),
        );
        assert!(
            violations.iter().any(|v| v.contains("absolute floor")),
            "{violations:?}"
        );
    }

    #[test]
    fn gate_fails_on_idle_engine() {
        let violations =
            find_serve_regressions(&report(200_000.0, 5), &report(200_000.0, 0), 2.0, None);
        assert!(
            violations.iter().any(|v| v.contains("no rounds")),
            "{violations:?}"
        );
    }

    /// End-to-end smoke of the harness itself on a tiny config: the
    /// measurement machinery must produce a live, non-idle report.
    #[test]
    fn harness_measures_a_live_server() {
        let perf = PerfConfig {
            name: "harness-smoke",
            nodes: 64,
            rounds: 2,
            requests_per_edge: 2,
            shards: 0,
            traffic: dg_sim::TrafficModel::full(),
            scope: dg_sim::rounds::AggregationScope::Neighbourhood,
        };
        let report = run_serve(&perf, 1, EngineKind::Sequential).expect("measurement runs");
        assert!(report.queries_total > 0);
        assert!(report.rounds_completed > 0);
        assert!(report.ingest_attempted > 0);
    }
}
