//! The `perf_suite` runner: one [`RunConfig`] through one
//! [`RunSession`], from the command line.
//!
//! `perf_suite` picks a preset (smoke by default, `--full`, `--skewed`,
//! `--scale`), applies the config flags on top, runs the session to its
//! configured `rounds` on the session's deterministic round-seed
//! schedule and prints one summary line: rounds, wall time,
//! node-rounds/s, final free-rider service rate, peak RSS.
//! `--checkpoint-every <n>` persists the run into a `dg-store` directory
//! as it goes; `--resume <dir>` continues the run that directory holds,
//! under the config in its snapshot header (docs/PERSISTENCE.md is the
//! runbook).
//!
//! It is a runner, not a benchmark: it keeps no report and gates
//! nothing. Timing comparisons between commits go through the repo
//! benchmark (`benchmark/README.md`). Every preset runs the production
//! (incremental) engine. Its flags:
//!
//! * `--full` — the 20 000-node preset,
//! * `--scale` — the N = 1 000 000 sparse-graph preset,
//! * `--skewed` — the skewed-traffic preset (Zipf s = 1 request skew at
//!   1% mean activity over 100 000 nodes), the delta round's traffic,
//! * `--nodes <usize>` — override the preset's node count (the
//!   `SCALING.md` table sweeps 10k/100k/1M this way),
//! * `--activity <f64>` / `--zipf <f64>` — override the preset's
//!   traffic shape (mean activity fraction / Zipf exponent of the
//!   per-node request skew),
//! * `--seed <u64>` — override the scenario seed (default 42),
//! * `--shards <usize>` — shard count, capped at the node count (0 =
//!   the deterministic auto partition; results are bit-identical either
//!   way),
//! * `--profile <lossless|lossy|partitioned|churning>` — network fault
//!   profile,
//! * `--adversary <none|sybil|collusion|slander|whitewash|stealth>` —
//!   adversary preset, composed with the profile,
//! * `--out-dir <dir>` — the directory a checkpointed run puts its
//!   `session_store` under (default: a temp dir),
//! * `--checkpoint-every <rounds>` — checkpoint the run every N rounds
//!   into the store,
//! * `--resume <dir>` — continue the run in the store at `<dir>`. The
//!   config travels in the snapshot header, so no config-selecting flag
//!   may accompany it.

use crate::{or_exit, value};
use dg_gossip::{AdversaryMix, NetworkProfile};
use dg_sim::rounds::AggregationScope;
use dg_sim::{CheckpointKind, RunConfig, RunSession, SessionError, TrafficModel};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Parsed `perf_suite` options.
#[derive(Debug, PartialEq)]
struct SuiteCli {
    /// The 20 000-node preset.
    full: bool,
    /// The million-node preset.
    scale: bool,
    /// The skewed-traffic preset.
    skewed: bool,
    /// Node-count override for the selected preset.
    nodes: Option<usize>,
    /// Mean activity-fraction override for the preset's traffic model.
    activity: Option<f64>,
    /// Zipf-exponent override for the preset's traffic model.
    zipf: Option<f64>,
    /// Scenario seed.
    seed: u64,
    /// Shard count: `None` when the flag was not passed (keep the
    /// preset's), `Some(0)` for an explicit auto partition, `Some(n)`
    /// for a fixed count.
    shards: Option<usize>,
    /// Network fault profile (default lossless).
    profile: NetworkProfile,
    /// Adversary preset (default none).
    adversary: AdversaryMix,
    /// Directory a checkpointed run's store goes under.
    out_dir: Option<String>,
    /// Checkpoint cadence in rounds.
    checkpoint_every: Option<usize>,
    /// Resume from this store directory.
    resume: Option<String>,
}

impl Default for SuiteCli {
    fn default() -> Self {
        Self {
            full: false,
            scale: false,
            skewed: false,
            nodes: None,
            activity: None,
            zipf: None,
            seed: 42,
            shards: None,
            profile: NetworkProfile::lossless(),
            adversary: AdversaryMix::none(),
            out_dir: None,
            checkpoint_every: None,
            resume: None,
        }
    }
}

/// The flags that select or alter the run's config — everything
/// `--resume` must refuse, because a resumed run's config is the one in
/// its snapshot header.
const CONFIG_FLAGS: [&str; 10] = [
    "--full",
    "--scale",
    "--skewed",
    "--nodes",
    "--shards",
    "--activity",
    "--zipf",
    "--profile",
    "--adversary",
    "--seed",
];

const USAGE: &str = "usage: perf_suite [--full] [--scale] [--skewed] [--nodes <usize>] \
    [--activity <f64>] [--zipf <f64>] [--seed <u64>] [--shards <usize>] \
    [--profile <lossless|lossy|partitioned|churning>] \
    [--adversary <none|sybil|collusion|slander|whitewash|stealth>] \
    [--out-dir <dir>] [--checkpoint-every <rounds>] [--resume <dir>]";

impl SuiteCli {
    /// Parse the options; `Err` is the message to print above the usage
    /// line.
    fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut cli = SuiteCli::default();
        let mut config_flag = None;
        while let Some(arg) = args.next() {
            if config_flag.is_none() && CONFIG_FLAGS.contains(&arg.as_str()) {
                config_flag = Some(arg.clone());
            }
            let args = &mut args;
            match arg.as_str() {
                "--full" => cli.full = true,
                "--scale" => cli.scale = true,
                "--skewed" => cli.skewed = true,
                "--nodes" => {
                    cli.nodes = Some(value(
                        args,
                        |s| s.parse().ok().filter(|&n: &usize| n > 0),
                        "--nodes needs a positive node count",
                    )?);
                }
                "--activity" => {
                    cli.activity = Some(value(
                        args,
                        |s| s.parse().ok().filter(|f: &f64| f.is_finite() && *f >= 0.0),
                        "--activity needs a fraction in [0, 1]",
                    )?);
                }
                "--zipf" => {
                    cli.zipf = Some(value(
                        args,
                        |s| s.parse().ok().filter(|f: &f64| f.is_finite() && *f >= 0.0),
                        "--zipf needs a non-negative exponent",
                    )?);
                }
                "--seed" => cli.seed = value(args, |s| s.parse().ok(), "--seed needs a u64 value")?,
                "--shards" => {
                    cli.shards = Some(value(
                        args,
                        |s| s.parse().ok(),
                        "--shards needs a usize value (0 = auto)",
                    )?);
                }
                "--profile" => {
                    cli.profile = value(
                        args,
                        NetworkProfile::parse,
                        "--profile needs one of: lossless, lossy, partitioned, churning",
                    )?;
                }
                "--adversary" => {
                    cli.adversary = value(
                        args,
                        AdversaryMix::parse,
                        "--adversary needs one of: none, sybil, collusion, slander, whitewash, \
                         stealth (with optional key=value overrides)",
                    )?;
                }
                "--out-dir" => {
                    cli.out_dir = Some(value(
                        args,
                        |s| Some(s.to_owned()),
                        "--out-dir needs a directory path",
                    )?);
                }
                "--checkpoint-every" => {
                    cli.checkpoint_every = Some(value(
                        args,
                        |s| s.parse().ok().filter(|&n: &usize| n > 0),
                        "--checkpoint-every needs a positive round count",
                    )?);
                }
                "--resume" => {
                    cli.resume = Some(value(
                        args,
                        |s| Some(s.to_owned()),
                        "--resume needs a store directory",
                    )?);
                }
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        match (&cli.resume, config_flag) {
            (Some(_), Some(flag)) => Err(format!(
                "--resume cannot be combined with {flag}: the run's config travels in the \
                 snapshot header"
            )),
            _ => Ok(cli),
        }
    }
}

/// Process peak RSS in bytes (`VmHWM` from `/proc/self/status`), or 0
/// where the platform exposes no reading. One engine runs per process,
/// so the high-water mark is that run's own footprint.
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

/// A preset's size, load and shard count over the pinned bench
/// population: 25% free riders, honest quality 0.4–1.0, full traffic,
/// neighbourhood-scoped closed-form aggregation.
fn preset(nodes: usize, rounds: usize, requests_per_edge: u32, shards: usize) -> RunConfig {
    RunConfig::with_nodes(nodes)
        .with_shards(shards)
        .with_free_riders(0.25)
        .with_quality_range(0.4, 1.0)
        .with_rounds(rounds)
        .with_requests_per_edge(requests_per_edge)
        .with_scope(AggregationScope::Neighbourhood)
}

/// The default preset: 5 000 nodes under a heavy per-edge request load.
/// Explicitly four shards — the auto partition would use one at this
/// size, and the default run should exercise cross-shard assembly.
fn smoke() -> RunConfig {
    preset(5_000, 5, 50, 4)
}

/// The `--full` preset: the smoke load at 20 000 nodes.
fn full() -> RunConfig {
    preset(20_000, 5, 50, 4)
}

/// The `--skewed` preset: Zipf (s = 1) per-node request skew at 1% mean
/// activity, so under 1% of the 100 000 rows fold records in any round
/// (the head of the Zipf is pinned at p = 1) while every row stays live
/// for serving — the incremental engine's delta-round traffic.
fn skewed() -> RunConfig {
    preset(100_000, 32, 8, 4).with_traffic(TrafficModel::full().with_activity(0.01).with_zipf(1.0))
}

/// The `--scale` preset: one million nodes on the sparse PA overlay
/// (`m = 2` → ~4M directed trust edges), light per-edge load, auto
/// partition — full traffic, so every round is a rebuild round.
fn scale() -> RunConfig {
    preset(1_000_000, 3, 1, 0)
}

/// The preset the CLI mode flags select, with the config flags applied
/// on top.
fn select_config(cli: &SuiteCli) -> RunConfig {
    let preset = if cli.scale {
        scale()
    } else if cli.full {
        full()
    } else if cli.skewed {
        skewed()
    } else {
        smoke()
    };
    let mut config = preset
        .with_seed(cli.seed)
        .with_profile(cli.profile)
        .with_adversary(cli.adversary);
    if let Some(nodes) = cli.nodes {
        config.nodes = nodes;
    }
    if let Some(shards) = cli.shards {
        config.shard_count = shards;
    }
    if let Some(activity) = cli.activity {
        config.traffic = config.traffic.with_activity(activity);
    }
    if let Some(zipf) = cli.zipf {
        config.traffic = config.traffic.with_zipf(zipf);
    }
    config
}

/// Run `session` on to its configured [`RunConfig::rounds`]. With
/// `checkpoints = Some((store, cadence))` the run stops every `cadence`
/// rounds, and at the end, to persist itself into `store`.
fn drive(
    session: &mut RunSession,
    checkpoints: Option<(&Path, usize)>,
) -> Result<(), SessionError> {
    let Some((store, cadence)) = checkpoints else {
        return session.run().map(drop);
    };
    let rounds = session.config().rounds;
    while session.round() < rounds {
        session.run_to((session.round() + cadence).min(rounds))?;
        let tag = match session.checkpoint(store)? {
            CheckpointKind::Full => "full epoch",
            CheckpointKind::Delta => "delta",
        };
        eprintln!("  round {:>4}: checkpointed ({tag})", session.round());
    }
    Ok(())
}

/// The `perf_suite` binary's entry point (the binary itself lives in the
/// umbrella package so `cargo run --bin perf_suite` works from the
/// workspace root).
pub fn suite_main() -> Result<(), Box<dyn std::error::Error>> {
    let cli = or_exit(SuiteCli::parse_args(std::env::args().skip(1)), USAGE);
    let (mut session, store) = match &cli.resume {
        Some(dir) => {
            let session = RunSession::resume(Path::new(dir))?;
            eprintln!(
                "perf_suite: resumed {} nodes at round {} of {} from {dir}",
                session.config().nodes,
                session.round(),
                session.config().rounds,
            );
            (session, PathBuf::from(dir))
        }
        None => {
            let config = select_config(&cli);
            eprintln!(
                "perf_suite: {} nodes, {} rounds, {} req/edge, seed {}, profile {}, \
                 adversary {}, activity {:.2} zipf {:.2}",
                config.nodes,
                config.rounds,
                config.requests_per_edge,
                config.seed,
                config.profile.label(),
                config.adversary.label(),
                config.traffic.activity_fraction,
                config.traffic.zipf_exponent,
            );
            let store = match &cli.out_dir {
                Some(dir) => Path::new(dir).join("session_store"),
                None => {
                    std::env::temp_dir().join(format!("dg_perf_session_{}", std::process::id()))
                }
            };
            (RunSession::new(config)?, store)
        }
    };
    let checkpoints = cli
        .checkpoint_every
        .map(|cadence| (store.as_path(), cadence));
    if let Some((store, cadence)) = checkpoints {
        eprintln!(
            "  checkpointing every {cadence} rounds into {}",
            store.display()
        );
    }

    let resumed_at = session.round();
    let start = Instant::now();
    drive(&mut session, checkpoints)?;
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);

    let ran = session.round() - resumed_at;
    let mut summary = if ran == 0 {
        format!("run already complete at round {}", session.round())
    } else {
        format!(
            "{ran} rounds in {:.1} ms ({:.0} node-rounds/s)",
            wall_s * 1e3,
            (session.config().nodes * ran) as f64 / wall_s
        )
    };
    if let Some(last) = session.stats().last() {
        summary.push_str(&format!(
            ", final free-rider service rate {:.3}",
            last.free_rider_service_rate()
        ));
    }
    eprintln!(
        "  {summary}, peak RSS {:.0} MiB",
        peak_rss_bytes() as f64 / (1024.0 * 1024.0)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_sampling_works() {
        // Linux exposes VmHWM; other platforms report 0 by contract.
        #[cfg(target_os = "linux")]
        assert!(peak_rss_bytes() > 0);
        #[cfg(not(target_os = "linux"))]
        assert_eq!(peak_rss_bytes(), 0);
    }

    fn parse(args: &[&str]) -> Result<SuiteCli, String> {
        SuiteCli::parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse_into_their_fields() {
        let cli = parse(&[
            "--skewed",
            "--nodes",
            "20000",
            "--checkpoint-every",
            "2",
            "--out-dir",
            "/tmp/run",
        ])
        .unwrap();
        let expected = SuiteCli {
            skewed: true,
            nodes: Some(20_000),
            checkpoint_every: Some(2),
            out_dir: Some("/tmp/run".into()),
            ..SuiteCli::default()
        };
        assert_eq!(cli, expected);
        assert_eq!(parse(&[]).unwrap(), SuiteCli::default());
        assert!(parse(&["--nodes", "0"]).unwrap_err().contains("--nodes"));
        assert!(parse(&["--seed"]).unwrap_err().contains("--seed"));
        assert_eq!(parse(&["--threads"]).unwrap_err(), "unknown flag --threads");
    }

    /// Every preset runs the production engine, and the runner prints
    /// one summary line: neither is a choice its command line offers.
    #[test]
    fn perf_suite_refuses_engine_and_json() {
        assert_eq!(
            parse(&["--engine", "sequential"]).unwrap_err(),
            "unknown flag --engine"
        );
        assert_eq!(parse(&["--json"]).unwrap_err(), "unknown flag --json");
        for preset in [smoke(), full(), skewed(), scale()] {
            assert_eq!(preset.engine, dg_gossip::EngineKind::Incremental);
        }
    }

    #[test]
    fn resume_refuses_every_config_selecting_flag() {
        let resumed = parse(&["--resume", "dir", "--checkpoint-every", "1"]).unwrap();
        assert_eq!(resumed.resume.as_deref(), Some("dir"));
        for flag in CONFIG_FLAGS {
            // Value-taking flags get a valid value, so the only error
            // left is the combination itself; order does not matter.
            let value = match flag {
                "--full" | "--scale" | "--skewed" => None,
                "--profile" => Some("lossy"),
                "--adversary" => Some("sybil"),
                _ => Some("9"),
            };
            let mut args: Vec<&str> = std::iter::once(flag).chain(value).collect();
            args.extend(["--resume", "dir"]);
            let err = parse(&args).unwrap_err();
            assert!(
                err.contains(flag) && err.contains("snapshot header"),
                "{err}"
            );
            args.rotate_right(2);
            assert!(
                parse(&args).unwrap_err().contains(flag),
                "{flag} after --resume"
            );
        }
    }

    #[test]
    fn config_flags_apply_on_top_of_the_selected_preset() {
        let cli = SuiteCli {
            skewed: true,
            nodes: Some(900),
            shards: Some(0),
            zipf: Some(1.5),
            seed: 7,
            ..SuiteCli::default()
        };
        let mut expected = skewed().with_seed(7);
        expected.nodes = 900;
        expected.shard_count = 0;
        expected.traffic.zipf_exponent = 1.5;
        assert_eq!(select_config(&cli), expected);
        // No flags: the smoke preset at the CLI's default seed.
        assert_eq!(
            select_config(&SuiteCli::default()),
            smoke().with_seed(SuiteCli::default().seed)
        );
    }

    /// The runner's loop, as `suite_main` drives it: a run checkpointed
    /// every 2 rounds, a resume of its finished store, and a resume of
    /// a store left behind mid-run all end with the uninterrupted run's
    /// stats.
    #[test]
    fn checkpointed_and_resumed_runs_end_with_the_uninterrupted_stats() {
        let mut config = smoke().with_requests_per_edge(3);
        config.nodes = 120;
        let dir = std::env::temp_dir().join(format!("dg_perf_runner_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut plain = RunSession::new(config).unwrap();
        drive(&mut plain, None).unwrap();
        assert_eq!(plain.round(), config.rounds);

        let finished = dir.join("finished");
        let mut checkpointed = RunSession::new(config).unwrap();
        drive(&mut checkpointed, Some((&finished, 2))).unwrap();
        assert_eq!(checkpointed.stats(), plain.stats());
        let mut resumed = RunSession::resume(&finished).unwrap();
        assert_eq!(resumed.round(), config.rounds);
        drive(&mut resumed, None).unwrap();
        assert_eq!(resumed.stats(), plain.stats());

        // Killed after the round-3 checkpoint; the resumed run keeps
        // checkpointing into the same store (once more, at round 5).
        let killed = dir.join("killed");
        let mut first = RunSession::new(config).unwrap();
        first.run_to(3).unwrap();
        first.checkpoint(&killed).unwrap();
        drop(first);
        let mut resumed = RunSession::resume(&killed).unwrap();
        assert_eq!(resumed.round(), 3);
        drive(&mut resumed, Some((&killed, 2))).unwrap();
        assert_eq!(resumed.stats(), plain.stats());
        let reloaded = RunSession::resume(&killed).unwrap();
        assert_eq!(reloaded.stats(), plain.stats());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
