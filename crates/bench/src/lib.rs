//! Shared plumbing for the experiment binaries.
//!
//! Every binary accepts:
//!
//! * `--full` — run the paper's full parameter grid (N up to 50 000);
//!   the default grid is scaled to finish in minutes on a laptop. For
//!   `perf_suite` it selects the 20 000-node preset,
//! * `--scale` — `perf_suite`: the N = 1 000 000 sparse-graph preset,
//! * `--skewed` — `perf_suite`: the skewed-traffic preset (Zipf s = 1
//!   request skew at 1% mean activity over 100 000 nodes) — the
//!   incremental engine's target traffic,
//! * `--nodes <usize>` — override the node count of the selected
//!   `perf_suite` preset (the `SCALING.md` table sweeps 10k/100k/1M
//!   this way),
//! * `--activity <f64>` / `--zipf <f64>` — override the selected
//!   preset's traffic shape (mean activity fraction / Zipf exponent of
//!   the per-node request skew),
//! * `--seed <u64>` — override the scenario seed (default 42),
//! * `--json` — emit JSON lines instead of a formatted table (not
//!   `perf_suite`, which prints one summary line and refuses the flag),
//! * `--engine <sequential|incremental>` — the execution engine of a
//!   *round-loop driving* binary (`perf_suite`, default `incremental`;
//!   `sharded` and `parallel` are accepted as old spellings of it).
//!   The figure/table binaries measure the gossip layer itself, which
//!   is engine-independent — they accept and ignore the flag. Results
//!   never depend on it (see `tests/engine_equivalence.rs`),
//! * `--shards <usize>` — shard count for the incremental engine (0 =
//!   the deterministic auto partition; results are bit-identical either
//!   way),
//! * `--profile <lossless|lossy|partitioned|churning>` — network fault
//!   profile of the `perf_suite` run (`degradation` sweeps all four
//!   itself),
//! * `--adversary <none|sybil|collusion|slander|whitewash|stealth>` —
//!   adversary preset for round-loop driving binaries (`perf_suite`
//!   composes it with `--engine` and `--profile`, so attacks run under
//!   any engine over any transport profile; the gossip-layer
//!   figure/table binaries accept and ignore it),
//! * `--out-dir <dir>` — `perf_suite`: the directory a checkpointed run
//!   puts its `session_store` under (default: a temp dir),
//! * `--checkpoint-every <rounds>` — `perf_suite`: checkpoint the run
//!   every N rounds into the store,
//! * `--resume <dir>` — `perf_suite`: continue the run in the store at
//!   `<dir>`. The config travels in the snapshot header, so no
//!   config-selecting flag may accompany it.

#![forbid(unsafe_code)]

use dg_gossip::{AdversaryMix, EngineKind, NetworkProfile};

pub mod claims;
pub mod linkcheck;
pub mod perf;

/// Parsed common CLI options.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Full-scale (paper-grid) mode.
    pub full: bool,
    /// Million-node scale mode (`perf_suite`).
    pub scale: bool,
    /// Skewed-traffic mode (`perf_suite`): Zipf request skew at 1%
    /// mean activity, the incremental engine's target workload.
    pub skewed: bool,
    /// Node-count override for the selected preset.
    pub nodes: Option<usize>,
    /// Mean activity-fraction override for the selected preset's
    /// traffic model.
    pub activity: Option<f64>,
    /// Zipf-exponent override for the selected preset's traffic model.
    pub zipf: Option<f64>,
    /// Scenario seed.
    pub seed: u64,
    /// Emit JSON lines.
    pub json: bool,
    /// Engine for round-loop driving binaries (`None` = the binary's
    /// default; `perf_suite` runs the incremental engine).
    pub engine: Option<EngineKind>,
    /// Shard count for the incremental engine: `None` when the flag was
    /// not passed (keep the preset's), `Some(0)` for an explicit auto
    /// partition, `Some(n)` for a fixed count.
    pub shards: Option<usize>,
    /// Network fault profile (default lossless).
    pub profile: NetworkProfile,
    /// Adversary preset (default none).
    pub adversary: AdversaryMix,
    /// `perf_suite`: directory a checkpointed run's store goes under.
    pub out_dir: Option<String>,
    /// `perf_suite`: checkpoint cadence in rounds.
    pub checkpoint_every: Option<usize>,
    /// `perf_suite`: resume from this store directory.
    pub resume: Option<String>,
}

impl Default for Cli {
    fn default() -> Self {
        Self {
            full: false,
            scale: false,
            skewed: false,
            nodes: None,
            activity: None,
            zipf: None,
            seed: 42,
            json: false,
            engine: None,
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
const CONFIG_FLAGS: [&str; 11] = [
    "--full",
    "--scale",
    "--skewed",
    "--nodes",
    "--shards",
    "--activity",
    "--zipf",
    "--engine",
    "--profile",
    "--adversary",
    "--seed",
];

impl Cli {
    /// Parse from `std::env::args`. Unknown flags abort with a usage
    /// message (better than silently ignoring a typo in an experiment
    /// run).
    pub fn parse() -> Self {
        Self::parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// [`parse`](Self::parse) over explicit arguments; `Err` is the
    /// message to print above the usage line.
    fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        /// The next argument run through `parse`, or `needs` as the error.
        fn value<T>(
            args: &mut impl Iterator<Item = String>,
            parse: impl FnOnce(&str) -> Option<T>,
            needs: &str,
        ) -> Result<T, String> {
            args.next()
                .as_deref()
                .and_then(parse)
                .ok_or_else(|| needs.to_owned())
        }

        let mut cli = Cli::default();
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
                "--json" => cli.json = true,
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
                "--engine" => {
                    cli.engine = Some(value(
                        args,
                        EngineKind::parse,
                        "--engine needs `sequential` or `incremental`",
                    )?);
                }
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

const USAGE: &str = "usage: <bin> [--full] [--scale] [--skewed] [--nodes <usize>] \
    [--activity <f64>] [--zipf <f64>] [--seed <u64>] [--json] \
    [--engine <sequential|incremental>] [--shards <usize>] \
    [--profile <lossless|lossy|partitioned|churning>] \
    [--adversary <none|sybil|collusion|slander|whitewash|stealth>] \
    [--out-dir <dir>] [--checkpoint-every <rounds>] [--resume <dir>]";

/// The paper's tolerance grid (Figs. 3/4, Table 2).
pub const XI_GRID: [f64; 4] = [1e-2, 1e-3, 1e-4, 1e-5];

/// Network sizes: scaled-down default vs the paper's full grid
/// (100 … 50 000).
pub fn size_grid(full: bool) -> Vec<usize> {
    if full {
        vec![100, 500, 1000, 10_000, 50_000]
    } else {
        vec![100, 500, 1000, 5000]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse_into_their_fields() {
        let cli = parse(&[
            "--skewed",
            "--nodes",
            "20000",
            "--engine",
            "incremental",
            "--checkpoint-every",
            "2",
            "--out-dir",
            "/tmp/run",
        ])
        .unwrap();
        let expected = Cli {
            skewed: true,
            nodes: Some(20_000),
            engine: Some(EngineKind::Incremental),
            checkpoint_every: Some(2),
            out_dir: Some("/tmp/run".into()),
            ..Cli::default()
        };
        assert_eq!(cli, expected);
        assert_eq!(parse(&[]).unwrap(), Cli::default());
        assert!(parse(&["--nodes", "0"]).unwrap_err().contains("--nodes"));
        assert!(parse(&["--seed"]).unwrap_err().contains("--seed"));
        assert_eq!(parse(&["--threads"]).unwrap_err(), "unknown flag --threads");
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
                "--engine" => Some("incremental"),
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
}
