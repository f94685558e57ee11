//! `rounds_dense` and `rounds_skewed` — the round engines through
//! `RunSession`, used two opposite ways.
//!
//! * **Dense**: 100,000 nodes, 50 requests per edge, full traffic, the
//!   sharded engine on 4 shards. Every trust row is rebuilt every
//!   round, so transact, estimate, the CSR freeze and the tiled
//!   aggregation sweep are the whole cost; the delta path does nothing.
//! * **Skewed**: 500,000 nodes, 8 requests per edge, 1% activity with
//!   Zipf(1.0) skew, the incremental engine. About 0.6% of rows are
//!   dirty per round, so dirty-frontier patching and cached aggregates
//!   dominate and the per-request cost is negligible. A gain on dense
//!   that costs the delta path shows here.
//!
//! One operation is one `run_to(k + 1)` round; one unit of work is one
//! node-round. Closed loop on the calling thread, the engine's pool one
//! thread wide (see `ENGINE_THREADS`).

use super::{
    dense_config, pool, probe_round_s, set_round_times, set_work_counts, skewed_config,
    substrate_probes, trust_probes, warmed_session, Failure, Params, Report, PINNED_ROUNDS, SETUPS,
};
use crate::host;
use crate::stats::median;
use crate::trace::Tracer;
use dg_gossip::EngineKind;
use dg_sim::rounds::RoundStats;
use dg_sim::{RunConfig, RunSession};
use std::time::Instant;

/// Which of the two configurations to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Every row rebuilt every round.
    Dense,
    /// A large, mostly idle network.
    Skewed,
}

/// Rounds each alternative-engine / alternative-width probe times.
const PROBE_ROUNDS: usize = 3;

/// A round's stats as text that is equal exactly when the stats are
/// bit-equal (the JSON writer prints the shortest digits that read
/// back to the same `f64`, and keeps `-0` apart from `0`).
pub fn stats_bits(stats: &RoundStats) -> String {
    serde_json::to_string(stats).expect("RoundStats serializes")
}

/// Run the workload.
pub fn run(shape: Shape, p: &Params, tr: &mut Tracer, rep: &mut Report) -> Result<(), Failure> {
    let config = match shape {
        Shape::Dense => dense_config(p),
        Shape::Skewed => skewed_config(p),
    };
    let n = config.nodes as f64;

    let mut setups = Vec::with_capacity(SETUPS);
    let mut session = None;
    for _ in 0..SETUPS {
        // One session alive at a time: `peak_rss_mib` is a session's
        // footprint, not two of them overlapping.
        drop(session.take());
        let (built, times) = warmed_session(config, tr)?;
        session = Some(built);
        setups.push(times);
    }
    let mut session = session.expect("SETUPS > 0");

    let mut round_s = Vec::new();
    let start = Instant::now();
    loop {
        let next = session.round() + 1;
        let (ran, s) = tr.time("sim.round", || session.run_to(next).map(|_| ()));
        rep.attempted += 1;
        ran?;
        round_s.push(s);
        if start.elapsed() >= p.window() {
            break;
        }
    }
    rep.measured_s = start.elapsed().as_secs_f64();
    let node_rounds = n * round_s.len() as f64;

    // Everything the probes need from the session is taken now, so it
    // can be dropped before the oracle is built: `peak_rss_mib` stays
    // one session's footprint.
    let mut publish = None;
    if p.trace {
        let (previous, publish_s) =
            tr.time("sim.publish_input", || session.subject_mean_reputations());
        let next = session.round() + 1;
        session.run_to(next)?;
        publish = Some((previous, session.subject_mean_reputations(), publish_s));
    }
    let stats = session.stats().to_vec();
    drop(session);
    let sequential_round_s = check_against_sequential(config, &stats, tr, rep)?;

    let setup_s: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
    rep.set_p50("setup_s", &setup_s);
    rep.set_p50("op_s_p50", &round_s);
    rep.set("work_per_s", node_rounds / round_s.iter().sum::<f64>());
    let Some((previous, current, publish_s)) = publish else {
        return Ok(());
    };

    let rounds = set_round_times(rep, &round_s);
    set_work_counts(rep, &stats);
    let new_s: Vec<f64> = setups.iter().map(|t| t.new_s).collect();
    let first_s: Vec<f64> = setups.iter().map(|t| t.first_round_s).collect();
    rep.set("sim.session_new_s", median(&new_s));
    rep.set("sim.warmup_round_s", median(&first_s));
    rep.set("sim.sequential_round_s", sequential_round_s);
    let dirty_rows = rep.get("sim.dirty_fraction").unwrap_or(0.0) * n;
    rep.set(
        "sim.us_per_dirty_row",
        rounds.p50() * 1e6 / dirty_rows.max(1.0),
    );
    rep.set("sim.publish_input_s", publish_s);
    trust_probes(p, previous, current, tr, rep);

    substrate_probes(&config, tr, rep)?;
    match shape {
        Shape::Dense => dense_probes(config, rounds.p50(), tr, rep),
        Shape::Skewed => {
            let sharded = config.with_engine(EngineKind::Sharded);
            rep.set(
                "sim.engine.sharded.round_s",
                probe_round_s(sharded, PROBE_ROUNDS, "sim.round_sharded", tr)?,
            );
            Ok(())
        }
    }
}

/// The output check of both shapes: the production engine's pinned
/// rounds are bit-equal to the `sequential` oracle's. Returns the
/// oracle's median round time (it is also the serial reference).
fn check_against_sequential(
    config: RunConfig,
    production: &[RoundStats],
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<f64, Failure> {
    let check = tr.enter("check.sequential_oracle");
    let mut oracle = RunSession::new(config.with_engine(EngineKind::Sequential))?;
    let mut round_s = Vec::with_capacity(PINNED_ROUNDS);
    for k in 0..PINNED_ROUNDS {
        let started = Instant::now();
        oracle.run_to(k + 1)?;
        round_s.push(started.elapsed().as_secs_f64());
    }
    for (k, (want, have)) in oracle.stats().iter().zip(production).enumerate() {
        rep.check(
            || format!("round {k} is not bit-equal to the sequential engine's"),
            stats_bits(want) == stats_bits(have),
        );
    }
    tr.exit(check);
    Ok(median(&round_s))
}

/// What the dense round's time is made of, and the evidence ROADMAP
/// item 2 needs to delete dominated engines: the same config on each
/// alternative engine, on every hardware thread, and at one request
/// per edge.
fn dense_probes(
    config: RunConfig,
    round_s: f64,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), Failure> {
    // At one request per edge the round is almost all fixed per-edge
    // work (estimate, freeze, aggregate); the rest of the full round
    // scales with requests (transact).
    let sparse = probe_round_s(
        config.with_requests_per_edge(1),
        PROBE_ROUNDS,
        "sim.round_rpe1",
        tr,
    )?;
    let per_edge = f64::from(config.requests_per_edge);
    let requests = rep.get("sim.requests_per_round").unwrap_or(0.0);
    let extra_requests = requests * (per_edge - 1.0) / per_edge;
    rep.set(
        "sim.ns_per_request",
        (round_s - sparse) * 1e9 / extra_requests.max(1.0),
    );
    let edges = rep.get("graph.edges").unwrap_or(0.0);
    rep.set("sim.ns_per_edge_fixed", sparse * 1e9 / edges.max(1.0));

    // The measured rounds ran at `ENGINE_THREADS`; this is what every
    // hardware thread of the machine makes of the same round.
    let machine_width = pool(host::machine_threads())?
        .install(|| probe_round_s(config, PROBE_ROUNDS, "sim.round_machine_width", tr))?;
    rep.set("sim.machine_width_round_s", machine_width);
    rep.set("sim.thread_speedup", round_s / machine_width);

    for (metric, span, alternative) in [
        (
            "sim.engine.parallel.round_s",
            "sim.round_parallel",
            config.with_engine(EngineKind::Parallel),
        ),
        (
            "sim.engine.sharded1.round_s",
            "sim.round_sharded1",
            config.with_shards(1),
        ),
        (
            "sim.engine.incremental.round_s",
            "sim.round_incremental",
            config.with_engine(EngineKind::Incremental),
        ),
    ] {
        rep.set(metric, probe_round_s(alternative, PROBE_ROUNDS, span, tr)?);
    }
    Ok(())
}
