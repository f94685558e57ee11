//! The five workloads and what they share: run parameters, the metric
//! report, the `RunConfig`s, and the probes several workloads reuse.
//!
//! Everything goes through the consolidated surfaces — `RunConfig` and
//! its `scenario_config()` / `gossip_config()` views, `RunSession`,
//! `dg_serve::{Server, Client, proto}`, `dg_store::Store`,
//! `dg_trust::{ReputationSnapshot, SnapshotCell}`, `alg2`,
//! `VectorGossip` / `ScalarGossip`, `dg_graph::pa` — never through the
//! legacy constructors ROADMAP item 2 will delete.

pub mod gossip;
pub mod persist;
pub mod rounds;
pub mod serve;

use crate::metrics;
use crate::stats::Summary;
use crate::trace::Tracer;
use dg_gossip::EngineKind;
use dg_graph::NodeId;
use dg_sim::rounds::{AggregationScope, RoundStats};
use dg_sim::{RunConfig, RunSession, TrafficModel};
use dg_trust::{ReputationSnapshot, SnapshotCell};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::error::Error;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Any failure that stops a workload before it can report.
pub type Failure = Box<dyn Error + Send + Sync>;

/// Times each workload sets itself up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// Rounds run before the measured region, so the incremental engine's
/// full first build and every lazily grown buffer are behind us.
pub const WARMUP_ROUNDS: usize = 2;

/// Rounds every session workload is guaranteed to have run (warm-up
/// plus at least one measured round): the window exact counts and the
/// sequential-oracle check are taken over, so neither depends on how
/// many rounds the deadline allowed.
pub const PINNED_ROUNDS: usize = WARMUP_ROUNDS + 1;

/// How one invocation runs a workload.
#[derive(Debug, Clone)]
pub struct Params {
    /// Drives every generated input: topology and population, query
    /// subject stream, ingest stream, gossip streams.
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: f64,
    /// Keep spans and run the per-layer probes.
    pub trace: bool,
    /// Shrink every size to smoke-test scale (`cargo test`).
    pub tiny: bool,
    /// Where traces and store directories go.
    pub results_dir: PathBuf,
}

impl Params {
    /// The workload's node count, or a few hundred in a smoke run.
    pub fn nodes(&self, full: usize) -> usize {
        if self.tiny {
            full.min(200)
        } else {
            full
        }
    }

    /// Direct calls a micro-probe makes.
    pub fn probe_calls(&self) -> usize {
        if self.tiny {
            2_000
        } else {
            1_000_000
        }
    }

    /// The measured region's length.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// A seeded stream for one purpose (`salt` separates purposes).
    pub fn rng(&self, salt: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// What a workload found: metric values, operations attempted and
/// failed, and which output checks did not hold.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted (rounds, subjects, queries, ingests,
    /// checkpoints, resumes, output checks).
    pub attempted: u64,
    /// Operations that failed, violated output checks included.
    pub failed: u64,
    /// One line per violated output check.
    pub violations: Vec<String>,
    /// Length of the measured region, seconds.
    pub measured_s: f64,
}

impl Report {
    /// Record a metric. Each is set once, and only by its name in
    /// [`metrics`]: a typo or a double count is a bug, not a number.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let spec = metrics::find(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        assert!(
            self.values.insert(name, value).is_none(),
            "metric {name} set twice"
        );
        eprintln!("  {name} = {value} {}", spec.unit);
    }

    /// Record a timing's median under `name` and print its summary.
    pub fn set_p50(&mut self, name: &'static str, samples: &[f64]) -> Summary {
        let summary = Summary::of(samples);
        self.set(name, summary.p50());
        let unit = metrics::find(name).map_or("", |m| m.unit);
        eprintln!("    {name}: {}", summary.render(unit));
        summary
    }

    /// The recorded value, if the workload set one.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Count one attempted operation that must satisfy `ok`.
    pub fn check(&mut self, what: impl FnOnce() -> String, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let what = what();
            eprintln!("  CHECK FAILED: {what}");
            self.violations.push(what);
        }
    }

    /// Whether every operation succeeded and every output check held.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// `rounds_dense`: every row rebuilt every round.
pub fn dense_config(p: &Params) -> RunConfig {
    RunConfig::with_nodes(p.nodes(100_000))
        .with_seed(p.seed)
        .with_engine(EngineKind::Sharded)
        .with_shards(4)
        .with_free_riders(0.25)
        .with_quality_range(0.4, 1.0)
        .with_requests_per_edge(50)
        .with_scope(AggregationScope::Neighbourhood)
}

/// `rounds_skewed` (and, on top of it, `serve_mixed` and
/// `persist_cycle`): a large, mostly idle network.
pub fn skewed_config(p: &Params) -> RunConfig {
    RunConfig::with_nodes(p.nodes(500_000))
        .with_seed(p.seed)
        .with_engine(EngineKind::Incremental)
        .with_shards(4)
        .with_free_riders(0.25)
        .with_quality_range(0.4, 1.0)
        .with_requests_per_edge(8)
        .with_traffic(TrafficModel::full().with_activity(0.01).with_zipf(1.0))
        .with_scope(AggregationScope::Neighbourhood)
}

/// Sleep until `due` (returns at once when it has passed).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Requests a round issued, summed over requester classes.
pub fn requests(stats: &RoundStats) -> u64 {
    stats.served_honest
        + stats.refused_honest
        + stats.served_free_riders
        + stats.refused_free_riders
        + stats.served_adversaries
        + stats.refused_adversaries
}

/// The exact work counts of a session's pinned rounds (means over
/// rounds `0..PINNED_ROUNDS`, identical for a given seed whatever the
/// deadline allowed afterwards).
pub fn set_work_counts(rep: &mut Report, stats: &[RoundStats]) {
    let pinned = &stats[..PINNED_ROUNDS];
    let mean =
        |f: &dyn Fn(&RoundStats) -> f64| pinned.iter().map(f).sum::<f64>() / pinned.len() as f64;
    rep.set("sim.requests_per_round", mean(&|s| requests(s) as f64));
    rep.set("sim.active_nodes", mean(&|s| s.active_nodes as f64));
    rep.set("sim.dirty_fraction", mean(&|s| s.dirty_fraction));
    rep.set("sim.report_entries", mean(&|s| s.report_entries as f64));
}

/// Round-time metrics from one sample per `run_to(k + 1)`.
pub fn set_round_times(rep: &mut Report, round_s: &[f64]) -> Summary {
    rep.set("sim.rounds", round_s.len() as f64);
    let summary = rep.set_p50("sim.round_s_p50", round_s);
    rep.set("sim.round_s_p90", summary.at_most(0.90));
    rep.set("sim.round_s_max", summary.max());
    summary
}

/// Build a session and warm it up under set-up spans; returns it with
/// the seconds the whole set-up took.
pub fn warmed_session(
    config: RunConfig,
    tr: &mut Tracer,
) -> Result<(RunSession, SetupTimes), Failure> {
    let setup = tr.enter("setup");
    let (session, new_s) = tr.time("sim.session_new", || RunSession::new(config));
    let mut session = session?;
    let mut warmup_s = Vec::with_capacity(WARMUP_ROUNDS);
    for round in 0..WARMUP_ROUNDS {
        let (ran, s) = tr.time("sim.warmup_round", || session.run_to(round + 1).map(|_| ()));
        ran?;
        warmup_s.push(s);
    }
    let total_s = tr.exit(setup);
    Ok((
        session,
        SetupTimes {
            total_s,
            new_s,
            first_round_s: warmup_s[0],
        },
    ))
}

/// Where one set-up's time went.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// The whole set-up.
    pub total_s: f64,
    /// `RunSession::new` (scenario build included).
    pub new_s: f64,
    /// The first warm-up round (a full build on the incremental engine).
    pub first_round_s: f64,
}

/// Median seconds per round of `rounds` timed rounds on a fresh,
/// warmed session of `config` — the alternative-engine and
/// alternative-width probes.
pub fn probe_round_s(
    config: RunConfig,
    rounds: usize,
    span: &'static str,
    tr: &mut Tracer,
) -> Result<f64, Failure> {
    let mut session = RunSession::new(config)?;
    session.run_to(WARMUP_ROUNDS)?;
    let mut round_s = Vec::with_capacity(rounds);
    for k in 0..rounds {
        let (ran, s) = tr.time(span, || session.run_to(WARMUP_ROUNDS + k + 1).map(|_| ()));
        ran?;
        round_s.push(s);
    }
    Ok(crate::stats::median(&round_s))
}

/// Direct `dg-graph` and `Scenario::build` probes at the workload's
/// size: where `setup_s` goes below the session.
pub fn substrate_probes(
    config: &RunConfig,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), Failure> {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let (graph, pa_s) = tr.time("graph.pa_build", || {
        dg_graph::pa::preferential_attachment(
            dg_graph::pa::PaConfig {
                nodes: config.nodes,
                m: config.m,
            },
            &mut rng,
        )
    });
    rep.set("graph.pa_build_s", pa_s);
    rep.set("graph.edges", graph?.edge_count() as f64);
    let (scenario, build_s) = tr.time("sim.scenario_build", || {
        dg_sim::Scenario::build(config.scenario_config())
    });
    scenario?;
    rep.set("sim.scenario_build_s", build_s);
    Ok(())
}

/// Nanoseconds per call of `f` over `calls` calls (results kept alive
/// through `black_box` so the work cannot be deleted).
pub fn ns_per_call<R>(calls: usize, mut f: impl FnMut(usize) -> R) -> f64 {
    let start = Instant::now();
    for i in 0..calls {
        black_box(f(black_box(i)));
    }
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// Direct `dg-trust` probes on a session's real reputations: what one
/// publish costs the round and what one query costs a reader.
/// `previous` and `current` are `subject_mean_reputations()` of two
/// consecutive rounds.
pub fn trust_probes(
    p: &Params,
    previous: Vec<Option<f64>>,
    current: Vec<Option<f64>>,
    tr: &mut Tracer,
    rep: &mut Report,
) {
    let n = current.len();
    let (base, build_s) = tr.time("trust.snapshot_build", || {
        ReputationSnapshot::build(1, previous)
    });
    rep.set("trust.snapshot_build_s", build_s);
    let (next, next_s) = tr.time("trust.snapshot_next_round", || base.next_round(2, current));
    rep.set("trust.snapshot_next_round_s", next_s);

    let cell = SnapshotCell::new(n);
    cell.publish(next);
    let snap = cell.load();
    let calls = p.probe_calls();
    let mut rng = p.rng(0x7157);
    let subjects: Vec<NodeId> = (0..4096)
        .map(|_| NodeId(rng.random_range(0..n as u32)))
        .collect();
    let probes = tr.enter("trust.query_probes");
    rep.set(
        "trust.snapshot_load_ns",
        ns_per_call(calls, |_| cell.load()),
    );
    rep.set(
        "trust.reputation_ns",
        ns_per_call(calls, |i| snap.reputation(subjects[i % subjects.len()])),
    );
    rep.set("trust.top_k16_ns", ns_per_call(calls, |_| snap.top_k(16)));
    rep.set(
        "trust.percentile_ns",
        ns_per_call(calls, |_| snap.percentile(0.9)),
    );
    tr.exit(probes);
}

/// Width of the rayon pool every workload runs under: the engines get
/// **one** thread.
///
/// The benchmark's machine is two vCPUs on a shared host whose speed
/// moves in minutes-long waves. With both vCPUs busy, every parallel
/// region waits at its barrier for whichever vCPU the host descheduled,
/// and the wave is amplified: over ten interleaved runs in a noisy
/// phase the interquartile spread of the round time was 32% at width 2
/// against 12% at width 1 (`rounds_skewed`), 17% against 11%
/// (`rounds_dense`) — at width 2 the benchmark cannot tell a 25%
/// regression from the weather. One engine thread also leaves
/// `serve_mixed`'s generator and handler threads a core of their own.
/// What the second core buys is still measured, per layer
/// (`sim.thread_speedup`, `sim.machine_width_round_s`), where no gate
/// depends on it.
pub const ENGINE_THREADS: usize = 1;

/// A rayon pool of `threads` workers.
pub fn pool(threads: usize) -> Result<rayon::ThreadPool, Failure> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| format!("{threads}-thread pool: {e}").into())
}

/// Run `name` to completion.
pub fn run(name: &str, p: &Params, tr: &mut Tracer, rep: &mut Report) -> Result<(), Failure> {
    pool(ENGINE_THREADS)?.install(|| match name {
        "gossip_converge" => gossip::run(p, tr, rep),
        "rounds_dense" => rounds::run(rounds::Shape::Dense, p, tr, rep),
        "rounds_skewed" => rounds::run(rounds::Shape::Skewed, p, tr, rep),
        "serve_mixed" => serve::run(p, tr, rep),
        "persist_cycle" => persist::run(p, tr, rep),
        other => Err(format!("unknown workload {other}").into()),
    })
}
