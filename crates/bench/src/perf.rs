//! The perf-regression harness behind `perf_suite` / `perf_compare`.
//!
//! `perf_suite` runs the round-loop lifecycle on a pinned-seed scenario
//! under every engine and emits a machine-readable `BENCH_<name>.json`
//! report; `perf_compare` gates CI by comparing a fresh report against
//! the committed `BENCH_baseline.json` and failing on a > [`MAX_REGRESSION`]
//! throughput drop. Reports are additive: future PRs append engines or
//! configs without breaking older baselines (unknown engines in either
//! file are ignored by the comparison).

use dg_gossip::{AdversaryMix, EngineKind, NetworkProfile, ScalarGossip};
use dg_sim::rounds::AggregationScope;
use dg_sim::{build_engine, CheckpointKind, RunConfig, RunSession, Scenario, TrafficModel};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Throughput may drop to this fraction of the baseline before the gate
/// fails (the ISSUE's ">2× regression" bar).
pub const MAX_REGRESSION: f64 = 2.0;

/// Residual errors below this floor are considered noise by the quality
/// gate (faulty profiles leave small non-zero residuals whose exact
/// value is seed-sensitive; only order-of-magnitude growth matters).
pub const RESIDUAL_FLOOR: f64 = 0.01;

/// One engine's measurement within a report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineResult {
    /// Engine label (`sequential` / `sharded` / `incremental`).
    pub engine: String,
    /// Wall time of the whole round loop, milliseconds.
    pub wall_ms: f64,
    /// Node-rounds per second (`nodes × rounds / wall`): the headline
    /// throughput number future PRs must not regress.
    pub node_rounds_per_sec: f64,
    /// Free-rider service rate after the last round (sanity check that
    /// the lifecycle actually separated the classes).
    pub final_free_rider_service_rate: f64,
    /// Process peak RSS (`VmHWM`) sampled right after this engine's
    /// lifecycle run, bytes. A process-wide high-water mark, so it is
    /// only recorded when **this** engine's run raised it — in a
    /// multi-engine suite run a later, smaller engine reports 0
    /// (inherited peak, not attributable) rather than a misleading
    /// copy of an earlier engine's footprint. Restrict with `--engine`
    /// (as the scale workflow does) for a guaranteed-clean per-engine
    /// number. Also 0 where the platform exposes no reading, and
    /// absent — zero — in reports written before the scale config.
    #[serde(default)]
    pub peak_rss_bytes: u64,
}

/// A `BENCH_<name>.json` report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Config name (`smoke` / `full`).
    pub name: String,
    /// Network size.
    pub nodes: usize,
    /// Lifecycle rounds executed.
    pub rounds: usize,
    /// Requests per directed edge per round.
    pub requests_per_edge: u32,
    /// Scenario seed.
    pub seed: u64,
    /// Network fault profile the convergence measurement ran under
    /// (absent in pre-profile reports, which were all lossless). The
    /// synchronous measurement honours the profile's loss/churn knobs
    /// only — delay, duplication and partitions are transport-level and
    /// show up in the p2p runtime, not here.
    #[serde(default)]
    pub profile: String,
    /// Gossip steps to protocol quiescence for a scalar averaging run on
    /// the same overlay (the paper's convergence metric), under
    /// `profile`.
    pub rounds_to_convergence: usize,
    /// Residual estimate error (max |estimate − true mean|) left at
    /// termination of the convergence run — non-trivial only under
    /// faulty profiles.
    #[serde(default)]
    pub residual_error: f64,
    /// Adversary preset the lifecycle measurement ran under (empty in
    /// pre-adversary reports, which were all honest).
    #[serde(default)]
    pub adversary: String,
    /// Per-engine measurements.
    pub engines: Vec<EngineResult>,
}

impl PerfReport {
    /// The result for one engine, if present.
    pub fn engine(&self, label: &str) -> Option<&EngineResult> {
        self.engines.iter().find(|e| e.engine == label)
    }
}

/// A pinned perf-suite configuration.
#[derive(Debug, Clone, Copy)]
pub struct PerfConfig {
    /// Config name (report + file name).
    pub name: &'static str,
    /// Network size.
    pub nodes: usize,
    /// Lifecycle rounds.
    pub rounds: usize,
    /// Requests per directed edge per round.
    pub requests_per_edge: u32,
    /// Shard count for the sharded engine (0 = auto).
    pub shards: usize,
    /// Traffic shape of the lifecycle measurement
    /// ([`TrafficModel::full`] for the legacy every-node-every-round
    /// workload).
    pub traffic: TrafficModel,
    /// Aggregation scope of the lifecycle measurement (every pinned
    /// config is neighbourhood-scoped — the serving-relevant scope —
    /// but ad-hoc sweeps can measure network-wide aggregation too).
    pub scope: AggregationScope,
}

/// The CI smoke config: 5 000 nodes, heavy per-edge request load,
/// neighbourhood-scoped closed-form aggregation.
pub const SMOKE: PerfConfig = PerfConfig {
    name: "smoke",
    nodes: 5_000,
    rounds: 5,
    requests_per_edge: 50,
    // Explicitly multi-shard: the auto partition would use one shard at
    // 5k nodes, and the per-PR gate must exercise real cross-shard
    // assembly, not the degenerate fused-but-serial path.
    shards: 4,
    traffic: TrafficModel::full(),
    scope: AggregationScope::Neighbourhood,
};

/// The `--skewed` config: realistic skewed request traffic — Zipf
/// (s = 1) per-node request skew at 1% mean activity, so under 1% of
/// the 100 000 rows fold records in any round (the head of the Zipf is
/// pinned at p = 1) while every row stays live for serving. The
/// incremental engine's target configuration and the workload its
/// ≥ 3x headline throughput bar is recorded on
/// (`BENCH_baseline_skewed.json`).
pub const SKEWED: PerfConfig = PerfConfig {
    name: "skewed",
    nodes: 100_000,
    rounds: 32,
    requests_per_edge: 8,
    shards: 4,
    traffic: TrafficModel {
        activity_fraction: 0.01,
        zipf_exponent: 1.0,
        flash_interval: 0,
        flash_multiplier: 1.0,
    },
    scope: AggregationScope::Neighbourhood,
};

/// The `--full` config.
pub const FULL: PerfConfig = PerfConfig {
    name: "full",
    nodes: 20_000,
    rounds: 5,
    requests_per_edge: 50,
    shards: 4,
    traffic: TrafficModel::full(),
    scope: AggregationScope::Neighbourhood,
};

/// The `--scale` config: one million nodes on the sparse PA overlay
/// (`m = 2` → ~4M directed trust edges), light per-edge load, the
/// sharded engine's target configuration. Run restricted
/// (`--engine sharded`) so the recorded peak RSS is the sharded
/// engine's own footprint.
pub const SCALE: PerfConfig = PerfConfig {
    name: "scale",
    nodes: 1_000_000,
    rounds: 3,
    requests_per_edge: 1,
    shards: 0,
    traffic: TrafficModel::full(),
    scope: AggregationScope::Neighbourhood,
};

/// Process peak RSS in bytes (`VmHWM` from `/proc/self/status`), or 0
/// where the platform exposes no reading.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// The run a perf config describes: its size, load, traffic, shards
/// and scope over the pinned bench population (25% free riders, honest
/// quality 0.4–1.0). Callers add the profile / adversary they measure.
pub(crate) fn run_config(perf: &PerfConfig, seed: u64, engine: EngineKind) -> RunConfig {
    RunConfig::with_nodes(perf.nodes)
        .with_seed(seed)
        .with_engine(engine)
        .with_shards(perf.shards)
        .with_free_riders(0.25)
        .with_quality_range(0.4, 1.0)
        .with_traffic(perf.traffic)
        .with_rounds(perf.rounds)
        .with_requests_per_edge(perf.requests_per_edge)
        .with_scope(perf.scope)
}

fn measure_engine(
    perf: &PerfConfig,
    seed: u64,
    engine: EngineKind,
    adversary: AdversaryMix,
) -> Result<EngineResult, Box<dyn std::error::Error>> {
    // The lifecycle loop aggregates in closed form, so engine throughput
    // is profile-independent — always measured lossless for
    // baseline-comparability.
    let rss_before = peak_rss_bytes();
    let config = run_config(perf, seed, engine).with_adversary(adversary);
    let scenario = Arc::new(Scenario::build(config)?);
    let mut driver = build_engine(Arc::clone(&scenario), &config);
    let mut rng = scenario.gossip_rng(1);
    let start = Instant::now();
    let stats = (0..config.rounds)
        .map(|_| driver.run_round(rng.next_u64()))
        .collect::<Result<Vec<_>, _>>()?;
    let wall = start.elapsed();
    let wall_s = wall.as_secs_f64().max(1e-9);
    let last = stats.last().expect("at least one round");
    // Attribute the high-water mark to this engine only if its run
    // raised it (see the field doc).
    let rss_after = peak_rss_bytes();
    Ok(EngineResult {
        engine: engine.label().to_owned(),
        wall_ms: wall_s * 1e3,
        node_rounds_per_sec: (perf.nodes * perf.rounds) as f64 / wall_s,
        final_free_rider_service_rate: last.free_rider_service_rate(),
        peak_rss_bytes: if rss_after > rss_before { rss_after } else { 0 },
    })
}

/// Run the suite on the pinned config and assemble the report. With
/// `only = None` every engine is measured (the CI setting); passing an
/// engine restricts the run to it. The convergence measurement runs
/// under `profile` (engine throughput stays profile-independent).
pub fn run_suite(
    perf: &PerfConfig,
    seed: u64,
    only: Option<EngineKind>,
    profile: NetworkProfile,
) -> Result<PerfReport, Box<dyn std::error::Error>> {
    run_suite_with_adversary(perf, seed, only, profile, AdversaryMix::none())
}

/// [`run_suite`] with an adversarial mix composed into the lifecycle
/// measurement (engine throughput under attack). The scalar convergence
/// metric is built without the mix so it stays comparable against
/// honest baselines; byzantine gossip numbers come from the `claims`
/// harness.
pub fn run_suite_with_adversary(
    perf: &PerfConfig,
    seed: u64,
    only: Option<EngineKind>,
    profile: NetworkProfile,
    adversary: AdversaryMix,
) -> Result<PerfReport, Box<dyn std::error::Error>> {
    // Engines are measured FIRST so each result's `peak_rss_bytes`
    // (a process-wide high-water mark) reflects scenario build + that
    // engine's round loop only, not the convergence measurement below.
    let mut engines = Vec::new();
    for engine in EngineKind::ALL {
        if only.is_none() || only == Some(engine) {
            engines.push(measure_engine(perf, seed, engine, adversary)?);
        }
    }

    // Convergence metric: scalar differential-gossip averaging on the
    // same overlay, steps to protocol quiescence, under the requested
    // network profile. Built WITHOUT the adversary mix — the mix
    // rewrites leech-role latent qualities, and this metric must stay
    // comparable against honest baselines (byzantine gossip numbers
    // come from the `claims` harness).
    let config = RunConfig {
        xi: 1e-4,
        ..run_config(perf, seed, EngineKind::Sequential).with_profile(profile)
    };
    let scenario = Scenario::build(config)?;
    let values = scenario.population.latent_qualities();
    let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
    let gossip = config
        .gossip_config()
        .validated()?
        .with_sticky_announcements();
    let out =
        ScalarGossip::average(&scenario.graph, gossip, &values)?.run(&mut scenario.gossip_rng(1));
    let residual_error = out.max_error(mean);
    drop(scenario);

    Ok(PerfReport {
        name: perf.name.to_owned(),
        nodes: perf.nodes,
        rounds: perf.rounds,
        requests_per_edge: perf.requests_per_edge,
        seed,
        profile: profile.label().to_owned(),
        rounds_to_convergence: out.steps,
        residual_error,
        adversary: adversary.label().to_owned(),
        engines,
    })
}

/// One point of a thread-scaling curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadPoint {
    /// Worker threads this point was measured at.
    pub threads: usize,
    /// Wall time of the whole round loop, milliseconds.
    pub wall_ms: f64,
    /// Node-rounds per second at this thread count.
    pub node_rounds_per_sec: f64,
    /// Parallel efficiency against the curve's first (lowest-thread)
    /// point: `(tput / base_tput) × (base_threads / threads)` — 1.0 is
    /// perfect linear scaling, the CI gate bounds it from below.
    pub parallel_efficiency: f64,
}

/// A `BENCH_threads.json` report: the scaling-efficiency curve
/// (node-rounds/s vs cores) of one engine on one pinned config.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadScalingReport {
    /// Config name (`smoke` / `full` / ...).
    pub name: String,
    /// Network size.
    pub nodes: usize,
    /// Lifecycle rounds executed per point.
    pub rounds: usize,
    /// Requests per directed edge per round.
    pub requests_per_edge: u32,
    /// Scenario seed.
    pub seed: u64,
    /// The engine swept.
    pub engine: String,
    /// Shard count (0 = auto).
    pub shards: usize,
    /// The measuring machine's available parallelism — points beyond
    /// it are oversubscribed and exempt from the efficiency gate.
    pub machine_threads: usize,
    /// The curve, ascending by thread count.
    pub points: Vec<ThreadPoint>,
}

impl ThreadScalingReport {
    /// The point measured at `threads`, if present.
    pub fn point(&self, threads: usize) -> Option<&ThreadPoint> {
        self.points.iter().find(|p| p.threads == threads)
    }
}

/// Annotate raw `(threads, wall_ms, node_rounds_per_sec)` measurements
/// with parallel efficiency against the lowest-thread point.
fn efficiency_points(mut raw: Vec<(usize, f64, f64)>) -> Vec<ThreadPoint> {
    raw.sort_by_key(|&(t, _, _)| t);
    let base = raw.first().copied();
    raw.into_iter()
        .map(|(threads, wall_ms, tput)| {
            let parallel_efficiency = match base {
                Some((base_threads, _, base_tput)) if base_tput > 0.0 => {
                    (tput / base_tput) * (base_threads as f64 / threads as f64)
                }
                _ => 0.0,
            };
            ThreadPoint {
                threads,
                wall_ms,
                node_rounds_per_sec: tput,
                parallel_efficiency,
            }
        })
        .collect()
}

/// Measure the scaling-efficiency curve: the full round-loop lifecycle
/// of `engine` on `perf`, once per thread count (each run inside an
/// installed pool of that width). Results are bit-identical across the
/// sweep — only wall-clock changes — so the curve is a pure scheduler
/// measurement.
pub fn run_thread_sweep(
    perf: &PerfConfig,
    seed: u64,
    engine: EngineKind,
    threads: &[usize],
    adversary: AdversaryMix,
) -> Result<ThreadScalingReport, Box<dyn std::error::Error>> {
    let mut raw = Vec::with_capacity(threads.len());
    for &t in threads {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(t).build()?;
        let result = pool.install(|| measure_engine(perf, seed, engine, adversary))?;
        raw.push((t, result.wall_ms, result.node_rounds_per_sec));
    }
    Ok(ThreadScalingReport {
        name: perf.name.to_owned(),
        nodes: perf.nodes,
        rounds: perf.rounds,
        requests_per_edge: perf.requests_per_edge,
        seed,
        engine: engine.label().to_owned(),
        shards: perf.shards,
        machine_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        points: efficiency_points(raw),
    })
}

/// `--threads` mode: sweep the selected config over the requested
/// thread counts and write the curve report.
fn thread_sweep_main(
    cli: &crate::Cli,
    threads: &[usize],
) -> Result<(), Box<dyn std::error::Error>> {
    let config = select_config(cli);
    // The sharded engine is the work-stealing scheduler's target
    // configuration; `--engine` overrides.
    let engine = cli.engine.unwrap_or(EngineKind::Sharded);
    eprintln!(
        "perf_suite: thread sweep {:?} on {} ({} nodes, {} rounds, {} req/edge, seed {}, \
         engine {})",
        threads,
        config.name,
        config.nodes,
        config.rounds,
        config.requests_per_edge,
        cli.seed,
        engine.label(),
    );
    let report = run_thread_sweep(&config, cli.seed, engine, threads, cli.adversary)?;
    for p in &report.points {
        eprintln!(
            "  {:>3} threads  {:>10.1} ms  {:>12.0} node-rounds/s  efficiency {:.3}",
            p.threads, p.wall_ms, p.node_rounds_per_sec, p.parallel_efficiency
        );
    }
    if threads.iter().any(|&t| t > report.machine_threads) {
        eprintln!(
            "  note: this machine has {} hardware threads — oversubscribed points are \
             reported but exempt from the efficiency gate",
            report.machine_threads
        );
    }
    // The pinned smoke sweep keeps the historical gate file name;
    // other configs and overridden runs get their own files so they
    // cannot shadow the committed baseline (same rule as the plain
    // suite reports).
    let mut suffix = String::new();
    if config.name != SMOKE.name {
        suffix.push_str(&format!("_{}", config.name));
    }
    if let Some(n) = cli.nodes {
        suffix.push_str(&format!("_{n}"));
    }
    if cli.activity.is_some() || cli.zipf.is_some() {
        suffix.push_str(&format!(
            "_a{:.2}_z{:.2}",
            config.traffic.activity_fraction, config.traffic.zipf_exponent
        ));
    }
    let default_name = format!("BENCH_threads{suffix}.json");
    let name = cli.out.clone().unwrap_or(default_name);
    let path = crate::resolve_out_path(cli.out_dir.as_deref(), &name);
    std::fs::write(&path, serde_json::to_string_pretty(&report)?)?;
    eprintln!("wrote {path}");
    if cli.json {
        println!("{}", serde_json::to_string(&report)?);
    }
    Ok(())
}

/// Pairwise throughput gate between two scaling curves: every thread
/// count present in both must keep at least `1 / max_regression` of
/// the baseline throughput. Returns human-readable violations.
pub fn find_thread_regressions(
    baseline: &ThreadScalingReport,
    candidate: &ThreadScalingReport,
    max_regression: f64,
) -> Vec<String> {
    let mut out = Vec::new();
    for base in &baseline.points {
        let Some(cand) = candidate.point(base.threads) else {
            continue;
        };
        let factor = base.node_rounds_per_sec / cand.node_rounds_per_sec.max(1e-9);
        if factor > max_regression {
            out.push(format!(
                "{} threads: throughput fell {:.0} -> {:.0} node-rounds/s ({factor:.2}x, \
                 budget {max_regression:.1}x)",
                base.threads, base.node_rounds_per_sec, cand.node_rounds_per_sec,
            ));
        }
    }
    out
}

/// Absolute parallel-efficiency gate on a fresh curve: every
/// non-oversubscribed multi-thread point (1 < threads ≤
/// `machine_threads`) must reach `min_efficiency`. This bounds the
/// *candidate measurement itself* — unlike the pairwise throughput
/// gate it needs no baseline, so a scheduler that stops scaling fails
/// even if a stale baseline scaled just as badly.
pub fn find_efficiency_violations(
    candidate: &ThreadScalingReport,
    min_efficiency: f64,
) -> Vec<String> {
    candidate
        .points
        .iter()
        .filter(|p| p.threads > 1 && p.threads <= candidate.machine_threads)
        .filter(|p| p.parallel_efficiency < min_efficiency)
        .map(|p| {
            format!(
                "{} threads: parallel efficiency {:.3} below the {min_efficiency:.2} bound \
                 ({:.0} node-rounds/s)",
                p.threads, p.parallel_efficiency, p.node_rounds_per_sec,
            )
        })
        .collect()
}

/// The `perf_suite` binary's entry point (the binary itself lives in the
/// umbrella package so `cargo run --bin perf_suite` works from the
/// workspace root).
pub fn suite_main() -> Result<(), Box<dyn std::error::Error>> {
    let cli = crate::Cli::parse();
    if cli.serve {
        return crate::serve::serve_main(&cli);
    }
    if let Some(threads) = cli.threads.clone() {
        return thread_sweep_main(&cli, &threads);
    }
    if cli.checkpoint_overhead {
        return checkpoint_overhead_main(&cli);
    }
    if cli.resume.is_some() || cli.checkpoint_every.is_some() {
        return session_main(&cli);
    }
    let config = select_config(&cli);
    eprintln!(
        "perf_suite: {} ({} nodes, {} rounds, {} req/edge, seed {}, profile {}, adversary {}, \
         activity {:.2} zipf {:.2})",
        config.name,
        config.nodes,
        config.rounds,
        config.requests_per_edge,
        cli.seed,
        cli.profile.label(),
        cli.adversary.label(),
        config.traffic.activity_fraction,
        config.traffic.zipf_exponent,
    );
    if cli.profile.has_transport_only_faults() {
        eprintln!(
            "  note: profile `{}` carries delay/duplication/partition knobs, which have \
             no synchronous analogue — this convergence measurement reflects only its \
             loss/churn view. Full-fidelity numbers come from the dg-p2p runtime \
             (`cargo run --release --example faulty_network`).",
            cli.profile.label()
        );
    }

    let report =
        run_suite_with_adversary(&config, cli.seed, cli.engine, cli.profile, cli.adversary)?;
    for engine in &report.engines {
        eprintln!(
            "  {:<10} {:>10.1} ms  {:>12.0} node-rounds/s  (final free-rider service {:.3}, \
             peak RSS {:.0} MiB)",
            engine.engine,
            engine.wall_ms,
            engine.node_rounds_per_sec,
            engine.final_free_rider_service_rate,
            engine.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        );
    }
    eprintln!(
        "  {} gossip steps to convergence under `{}` (residual error {:.2e})",
        report.rounds_to_convergence, report.profile, report.residual_error
    );

    // Lossless keeps the historical BENCH_<config>.json name (the
    // committed baseline); faulty profiles and adversarial runs get
    // their own report files, and a `--nodes` override stamps the
    // overridden count into the name so an off-scale report can never
    // shadow the pinned config's file (and trivially pass its gate).
    let mut nodes_suffix = cli.nodes.map(|n| format!("_{n}")).unwrap_or_default();
    if cli.activity.is_some() || cli.zipf.is_some() {
        // Same shadowing concern as `--nodes`: a thinned-traffic run is
        // faster by construction and must not overwrite (and trivially
        // pass) a pinned config's gate file.
        nodes_suffix.push_str(&format!(
            "_a{:.2}_z{:.2}",
            config.traffic.activity_fraction, config.traffic.zipf_exponent
        ));
    }
    let default_name = if !cli.adversary.is_none() {
        // Keep the profile in the name so lossless and faulty
        // adversarial reports don't clobber each other.
        if cli.profile.is_reliable() {
            format!("BENCH_adv_{}{nodes_suffix}.json", report.adversary)
        } else {
            format!(
                "BENCH_adv_{}_{}{nodes_suffix}.json",
                report.adversary, report.profile
            )
        }
    } else if cli.profile.is_reliable() {
        format!("BENCH_{}{nodes_suffix}.json", report.name)
    } else {
        format!("BENCH_{}{nodes_suffix}.json", report.profile)
    };
    let name = cli.out.clone().unwrap_or(default_name);
    let path = crate::resolve_out_path(cli.out_dir.as_deref(), &name);
    std::fs::write(&path, serde_json::to_string_pretty(&report)?)?;
    eprintln!("wrote {path}");
    if cli.json {
        println!("{}", serde_json::to_string(&report)?);
    }
    Ok(())
}

/// The config the CLI mode flags select, with overrides applied.
pub(crate) fn select_config(cli: &crate::Cli) -> PerfConfig {
    let mut config = if cli.scale {
        SCALE
    } else if cli.full {
        FULL
    } else if cli.skewed {
        SKEWED
    } else {
        SMOKE
    };
    if let Some(nodes) = cli.nodes {
        config.nodes = nodes;
    }
    if let Some(shards) = cli.shards {
        config.shards = shards;
    }
    if let Some(activity) = cli.activity {
        config.traffic = config.traffic.with_activity(activity);
    }
    if let Some(zipf) = cli.zipf {
        config.traffic = config.traffic.with_zipf(zipf);
    }
    config
}

/// The session config the CLI selects: [`run_config`] under the
/// requested engine (sharded by default), profile and adversary.
fn session_run_config(perf: &PerfConfig, cli: &crate::Cli) -> RunConfig {
    run_config(perf, cli.seed, cli.engine.unwrap_or(EngineKind::Sharded))
        .with_profile(cli.profile)
        .with_adversary(cli.adversary)
}

/// `--checkpoint-every` / `--resume` mode: drive the selected config
/// through a [`RunSession`], checkpointing into (or resuming from) a
/// durable store directory.
fn session_main(cli: &crate::Cli) -> Result<(), Box<dyn std::error::Error>> {
    let perf = select_config(cli);
    let store_dir: std::path::PathBuf = match (&cli.resume, &cli.out_dir) {
        (Some(dir), _) => dir.into(),
        (None, Some(dir)) => {
            std::fs::create_dir_all(dir)?;
            std::path::Path::new(dir).join("session_store")
        }
        (None, None) => {
            std::env::temp_dir().join(format!("dg_perf_session_{}", std::process::id()))
        }
    };
    let mut session = if cli.resume.is_some() {
        let session = RunSession::resume(&store_dir)?;
        eprintln!(
            "perf_suite: resumed {} nodes at round {} from {}",
            session.config().nodes,
            session.round(),
            store_dir.display()
        );
        session
    } else {
        let config = session_run_config(&perf, cli);
        eprintln!(
            "perf_suite: session over {} nodes, {} rounds, checkpoint every {} rounds into {}",
            config.nodes,
            config.rounds,
            cli.checkpoint_every.unwrap_or(config.rounds),
            store_dir.display()
        );
        RunSession::new(config)?
    };
    let rounds = session.config().rounds.max(session.round());
    let done_already = session.round();
    let start = Instant::now();
    while session.round() < rounds {
        let next = match cli.checkpoint_every {
            Some(every) => (session.round() + every).min(rounds),
            None => rounds,
        };
        session.run_to(next)?;
        if cli.checkpoint_every.is_some() {
            let kind = session.checkpoint(&store_dir)?;
            let tag = match kind {
                CheckpointKind::Full => "full epoch",
                CheckpointKind::Delta => "delta",
            };
            eprintln!("  round {:>4}: checkpointed ({tag})", session.round());
        }
    }
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    let ran = rounds - done_already;
    eprintln!(
        "  {} rounds in {:.1} ms ({:.0} node-rounds/s incl. checkpointing)",
        ran,
        wall_s * 1e3,
        (session.config().nodes * ran) as f64 / wall_s
    );
    if let Some(last) = session.stats().last() {
        eprintln!(
            "  final free-rider service rate {:.3}",
            last.free_rider_service_rate()
        );
    }
    Ok(())
}

/// Throughput of one session run, checkpointing every `cadence` rounds
/// into `store` when given. Best of `tries`.
fn best_session_throughput(
    config: RunConfig,
    store: Option<(&std::path::Path, usize)>,
    tries: usize,
) -> Result<f64, Box<dyn std::error::Error>> {
    let mut best = 0.0f64;
    for _ in 0..tries {
        if let Some((dir, _)) = store {
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut session = RunSession::new(config)?;
        let start = Instant::now();
        match store {
            None => {
                session.run()?;
            }
            Some((dir, cadence)) => {
                while session.round() < config.rounds {
                    let next = (session.round() + cadence).min(config.rounds);
                    session.run_to(next)?;
                    session.checkpoint(dir)?;
                }
            }
        }
        let wall_s = start.elapsed().as_secs_f64().max(1e-9);
        best = best.max((config.nodes * config.rounds) as f64 / wall_s);
    }
    Ok(best)
}

/// `--checkpoint-overhead` gate: on a pinned smoke-scale config, a
/// session checkpointing every 4 rounds must keep at least 90% of the
/// no-checkpoint throughput. Exits non-zero on violation — the CI
/// perf-smoke job runs this so snapshot overhead cannot regress
/// silently (the paper-claims pipeline depends on checkpointed runs
/// staying cheap).
pub fn checkpoint_overhead_main(cli: &crate::Cli) -> Result<(), Box<dyn std::error::Error>> {
    const CADENCE: usize = 4;
    const ROUNDS: usize = 8;
    const MIN_RATIO: f64 = 0.9;
    const TRIES: usize = 3;
    let perf = select_config(cli);
    let config = session_run_config(&perf, cli).with_rounds(ROUNDS);
    let store_dir = match &cli.out_dir {
        Some(dir) => std::path::Path::new(dir).join("checkpoint_overhead_store"),
        None => std::env::temp_dir().join(format!("dg_ckpt_overhead_{}", std::process::id())),
    };
    eprintln!(
        "perf_suite: checkpoint-overhead gate ({} nodes, {} rounds, cadence {}, best of {})",
        config.nodes, ROUNDS, CADENCE, TRIES
    );
    let plain = best_session_throughput(config, None, TRIES)?;
    let checkpointed = best_session_throughput(config, Some((&store_dir, CADENCE)), TRIES)?;
    let _ = std::fs::remove_dir_all(&store_dir);
    let ratio = checkpointed / plain.max(1e-9);
    eprintln!(
        "  no-checkpoint {plain:.0} node-rounds/s, checkpoint-every-{CADENCE} \
         {checkpointed:.0} node-rounds/s, ratio {ratio:.3} (gate ≥ {MIN_RATIO})"
    );
    if ratio < MIN_RATIO {
        eprintln!("  FAIL: checkpointing costs more than 10% throughput");
        std::process::exit(1);
    }
    eprintln!("  ok");
    Ok(())
}

/// One comparison finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Engine label.
    pub engine: String,
    /// Baseline throughput.
    pub baseline: f64,
    /// Candidate throughput.
    pub candidate: f64,
    /// `baseline / candidate`.
    pub factor: f64,
}

/// Compare a candidate report against the committed baseline: every
/// engine present in both must keep at least `1 / max_regression` of the
/// baseline throughput. Returns the list of violations (empty = pass).
pub fn find_regressions(
    baseline: &PerfReport,
    candidate: &PerfReport,
    max_regression: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for base in &baseline.engines {
        let Some(cand) = candidate.engine(&base.engine) else {
            continue;
        };
        let factor = base.node_rounds_per_sec / cand.node_rounds_per_sec.max(1e-9);
        if factor > max_regression {
            out.push(Regression {
                engine: base.engine.clone(),
                baseline: base.node_rounds_per_sec,
                candidate: cand.node_rounds_per_sec,
                factor,
            });
        }
    }
    out
}

/// Convergence-quality regressions between two reports of the same
/// profile: the candidate must not need more than `max_regression`
/// times the baseline's gossip rounds to converge, and its residual
/// error must not grow past `max_regression ×` the baseline (ignoring
/// residuals under [`RESIDUAL_FLOOR`], which are noise). Returns
/// human-readable violations (empty = pass).
pub fn find_quality_regressions(
    baseline: &PerfReport,
    candidate: &PerfReport,
    max_regression: f64,
) -> Vec<String> {
    let mut out = Vec::new();
    let rounds_budget = (baseline.rounds_to_convergence as f64 * max_regression).ceil() as usize;
    if baseline.rounds_to_convergence > 0 && candidate.rounds_to_convergence > rounds_budget {
        out.push(format!(
            "rounds_to_convergence grew {} -> {} (budget {} at {:.1}x) under profile `{}`",
            baseline.rounds_to_convergence,
            candidate.rounds_to_convergence,
            rounds_budget,
            max_regression,
            candidate.profile,
        ));
    }
    let residual_budget = (baseline.residual_error * max_regression).max(RESIDUAL_FLOOR);
    if candidate.residual_error > residual_budget {
        out.push(format!(
            "residual_error grew {:.2e} -> {:.2e} (budget {:.2e}) under profile `{}`",
            baseline.residual_error, candidate.residual_error, residual_budget, candidate.profile,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(seq: f64, par: f64) -> PerfReport {
        PerfReport {
            name: "smoke".into(),
            nodes: 100,
            rounds: 2,
            requests_per_edge: 5,
            seed: 42,
            profile: "lossless".into(),
            rounds_to_convergence: 10,
            residual_error: 0.0,
            adversary: "none".into(),
            engines: vec![
                EngineResult {
                    engine: "sequential".into(),
                    wall_ms: 1.0,
                    node_rounds_per_sec: seq,
                    final_free_rider_service_rate: 0.1,
                    peak_rss_bytes: 0,
                },
                EngineResult {
                    engine: "sharded".into(),
                    wall_ms: 1.0,
                    node_rounds_per_sec: par,
                    final_free_rider_service_rate: 0.1,
                    peak_rss_bytes: 0,
                },
            ],
        }
    }

    #[test]
    fn report_json_roundtrip() {
        let r = report(100.0, 200.0);
        let s = serde_json::to_string_pretty(&r).unwrap();
        let back: PerfReport = serde_json::from_str(&s).unwrap();
        assert_eq!(r, back);
        assert_eq!(back.engine("sharded").unwrap().node_rounds_per_sec, 200.0);
    }

    #[test]
    fn regression_gate_fires_only_beyond_factor() {
        let baseline = report(1000.0, 2000.0);
        // Mild slowdown: inside the 2x budget.
        assert!(find_regressions(&baseline, &report(600.0, 1100.0), 2.0).is_empty());
        // Sharded engine collapsed by >2x.
        let bad = find_regressions(&baseline, &report(990.0, 900.0), 2.0);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].engine, "sharded");
        assert!(bad[0].factor > 2.0);
    }

    #[test]
    fn unknown_engines_are_ignored() {
        let mut candidate = report(1000.0, 2000.0);
        candidate.engines.remove(0);
        let baseline = report(1000.0, 2000.0);
        // Sequential missing from the candidate: skipped, not a failure.
        assert!(find_regressions(&baseline, &candidate, 2.0).is_empty());
    }

    #[test]
    fn tiny_suite_runs_end_to_end_and_all_engines_match() {
        let tiny = PerfConfig {
            name: "tiny",
            nodes: 120,
            rounds: 2,
            requests_per_edge: 3,
            shards: 4,
            traffic: TrafficModel::full(),
            scope: AggregationScope::Neighbourhood,
        };
        let r = run_suite(&tiny, 7, None, NetworkProfile::lossless()).unwrap();
        assert_eq!(r.engines.len(), 3);
        assert!(r.rounds_to_convergence > 0);
        assert_eq!(r.profile, "lossless");
        // Identical lifecycle outcomes under every engine.
        let seq = r.engine("sequential").unwrap();
        for label in ["sharded", "incremental"] {
            assert_eq!(
                seq.final_free_rider_service_rate,
                r.engine(label).unwrap().final_free_rider_service_rate,
                "{label}"
            );
        }
        // peak_rss_bytes attribution is probed separately
        // (`peak_rss_sampling_works`): asserting on per-engine values
        // here would race other tests in this process raising the
        // process-wide high-water mark first.
    }

    #[test]
    fn peak_rss_sampling_works() {
        // Linux exposes VmHWM; other platforms report 0 by contract.
        #[cfg(target_os = "linux")]
        assert!(peak_rss_bytes() > 0);
        #[cfg(not(target_os = "linux"))]
        assert_eq!(peak_rss_bytes(), 0);
    }

    #[test]
    fn engine_restriction_measures_one_engine() {
        let tiny = PerfConfig {
            name: "tiny",
            nodes: 60,
            rounds: 1,
            requests_per_edge: 2,
            shards: 0,
            traffic: TrafficModel::full(),
            scope: AggregationScope::Neighbourhood,
        };
        for engine in [EngineKind::Sharded, EngineKind::Incremental] {
            let r = run_suite(&tiny, 7, Some(engine), NetworkProfile::lossless()).unwrap();
            assert_eq!(r.engines.len(), 1);
            assert_eq!(r.engines[0].engine, engine.label());
        }
    }

    #[test]
    fn lossy_profile_runs_and_reports_label() {
        let tiny = PerfConfig {
            name: "tiny",
            nodes: 120,
            rounds: 1,
            requests_per_edge: 2,
            shards: 0,
            traffic: TrafficModel::full(),
            scope: AggregationScope::Neighbourhood,
        };
        let r = run_suite(
            &tiny,
            7,
            Some(EngineKind::Sequential),
            NetworkProfile::lossy(),
        )
        .unwrap();
        assert_eq!(r.profile, "lossy");
        assert!(r.rounds_to_convergence > 0);
        // Engine throughput stays comparable against lossless baselines.
        assert!(r.engine("sequential").is_some());
    }

    #[test]
    fn pre_profile_reports_still_parse() {
        // A report written before the profile/residual fields existed
        // (the committed baseline's shape) must keep deserializing.
        let legacy = r#"{
            "name": "smoke", "nodes": 100, "rounds": 2,
            "requests_per_edge": 5, "seed": 42,
            "rounds_to_convergence": 10,
            "engines": [], "speedup_parallel_over_sequential": null
        }"#;
        let report: PerfReport = serde_json::from_str(legacy).unwrap();
        assert_eq!(report.profile, "");
        assert_eq!(report.residual_error, 0.0);
        assert_eq!(report.adversary, "");
    }

    #[test]
    fn skewed_tiny_suite_reports_incremental_gain() {
        // A downscaled SKEWED: the incremental engine must be measured,
        // and agree with the others on the lifecycle outcome.
        let tiny = PerfConfig {
            name: "tiny-skewed",
            nodes: 150,
            rounds: 3,
            requests_per_edge: 3,
            shards: 2,
            traffic: SKEWED.traffic.with_activity(0.1),
            scope: SKEWED.scope,
        };
        let r = run_suite(&tiny, 7, None, NetworkProfile::lossless()).unwrap();
        let sharded = r.engine("sharded").unwrap();
        let inc = r.engine("incremental").unwrap();
        assert_eq!(
            sharded.final_free_rider_service_rate,
            inc.final_free_rider_service_rate
        );
    }

    #[test]
    fn quality_gate_fires_on_convergence_and_residual_growth() {
        let baseline = report(1000.0, 2000.0);
        // Identical: clean.
        assert!(find_quality_regressions(&baseline, &report(1.0, 1.0), 2.0).is_empty());
        // Convergence within budget (10 -> 20 at 2x): clean.
        let mut cand = report(1.0, 1.0);
        cand.rounds_to_convergence = 20;
        assert!(find_quality_regressions(&baseline, &cand, 2.0).is_empty());
        // Convergence beyond budget: violation.
        cand.rounds_to_convergence = 21;
        let v = find_quality_regressions(&baseline, &cand, 2.0);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("rounds_to_convergence"));
        // Residual under the floor: noise, clean.
        let mut cand = report(1.0, 1.0);
        cand.residual_error = 0.009;
        assert!(find_quality_regressions(&baseline, &cand, 2.0).is_empty());
        // Residual past both floor and 2x budget: violation.
        let mut lossy_base = report(1.0, 1.0);
        lossy_base.residual_error = 0.02;
        let mut cand = report(1.0, 1.0);
        cand.residual_error = 0.05;
        let v = find_quality_regressions(&lossy_base, &cand, 2.0);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("residual_error"));
    }

    fn curve(machine_threads: usize, points: &[(usize, f64)]) -> ThreadScalingReport {
        ThreadScalingReport {
            name: "smoke".into(),
            nodes: 100,
            rounds: 3,
            requests_per_edge: 1,
            seed: 42,
            engine: "sharded".into(),
            shards: 4,
            machine_threads,
            points: efficiency_points(
                points
                    .iter()
                    .map(|&(t, tput)| (t, 1000.0 / tput, tput))
                    .collect(),
            ),
        }
    }

    #[test]
    fn efficiency_is_relative_to_the_lowest_thread_point() {
        let r = curve(8, &[(4, 3000.0), (1, 1000.0), (2, 1800.0)]);
        // Points come back sorted ascending regardless of input order.
        let threads: Vec<usize> = r.points.iter().map(|p| p.threads).collect();
        assert_eq!(threads, vec![1, 2, 4]);
        assert!((r.point(1).unwrap().parallel_efficiency - 1.0).abs() < 1e-12);
        assert!((r.point(2).unwrap().parallel_efficiency - 0.9).abs() < 1e-12);
        assert!((r.point(4).unwrap().parallel_efficiency - 0.75).abs() < 1e-12);
    }

    #[test]
    fn thread_regression_gate_fires_only_beyond_factor() {
        let base = curve(8, &[(1, 1000.0), (2, 1800.0)]);
        // Half the throughput at 2 threads: within the 2x budget.
        let ok = curve(8, &[(1, 1000.0), (2, 901.0)]);
        assert!(find_thread_regressions(&base, &ok, 2.0).is_empty());
        // Beyond 2x at one point: exactly one violation, naming it.
        let bad = curve(8, &[(1, 1000.0), (2, 800.0)]);
        let v = find_thread_regressions(&base, &bad, 2.0);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("2 threads"), "{v:?}");
        // Thread counts absent from the candidate are skipped, not errors.
        let sparse = curve(8, &[(1, 1000.0)]);
        assert!(find_thread_regressions(&base, &sparse, 2.0).is_empty());
    }

    #[test]
    fn efficiency_gate_skips_base_and_oversubscribed_points() {
        // 2-thread point at 0.6 efficiency on a 2-core machine: violation.
        let bad = curve(2, &[(1, 1000.0), (2, 1200.0)]);
        let v = find_efficiency_violations(&bad, 0.75);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("0.600"), "{v:?}");
        // Same curve with an 8-thread point on the same 2-core machine:
        // the oversubscribed point is exempt, so still one violation.
        let over = curve(2, &[(1, 1000.0), (2, 1200.0), (8, 1300.0)]);
        assert_eq!(find_efficiency_violations(&over, 0.75).len(), 1);
        // Healthy scaling passes.
        let good = curve(2, &[(1, 1000.0), (2, 1800.0)]);
        assert!(find_efficiency_violations(&good, 0.75).is_empty());
        // The 1-thread base point is never gated.
        let solo = curve(2, &[(1, 1000.0)]);
        assert!(find_efficiency_violations(&solo, 0.75).is_empty());
    }

    #[test]
    fn thread_report_roundtrips_through_json() {
        let r = curve(4, &[(1, 5000.0), (2, 9000.0)]);
        let text = serde_json::to_string_pretty(&r).unwrap();
        let back: ThreadScalingReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn tiny_thread_sweep_is_bit_identical_across_thread_counts() {
        let tiny = PerfConfig {
            name: "tiny",
            nodes: 60,
            rounds: 2,
            requests_per_edge: 1,
            shards: 4,
            traffic: SMOKE.traffic,
            scope: SMOKE.scope,
        };
        let r = run_thread_sweep(
            &tiny,
            11,
            EngineKind::Sharded,
            &[1, 2],
            AdversaryMix::none(),
        )
        .unwrap();
        assert_eq!(r.points.len(), 2);
        assert_eq!(r.engine, "sharded");
        assert!((r.point(1).unwrap().parallel_efficiency - 1.0).abs() < 1e-12);
        assert!(r.points.iter().all(|p| p.node_rounds_per_sec > 0.0));
    }
}
