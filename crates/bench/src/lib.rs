//! Shared plumbing for the experiment binaries.
//!
//! Every binary accepts:
//!
//! * `--full` — run the paper's full parameter grid (N up to 50 000);
//!   the default grid is scaled to finish in minutes on a laptop,
//! * `--scale` — run `perf_suite` on the pinned-seed N = 1 000 000
//!   sparse-graph scale config (`BENCH_scale.json`, with peak-RSS
//!   sampling); typically combined with `--engine sharded`,
//! * `--skewed` — run `perf_suite` on the pinned-seed skewed-traffic
//!   config (Zipf s = 1 request skew at 1% mean activity,
//!   `BENCH_skewed.json`) — the incremental engine's target workload,
//! * `--serve` — run `perf_suite`'s serving-throughput measurement
//!   instead of the round-loop suite: concurrent pipelined clients
//!   hammer a live `dg-serve` server while the engine keeps completing
//!   rounds (`BENCH_serve.json`, gated by `perf_compare --serve`);
//!   composes with `--scale` for the million-node serving floor,
//! * `--nodes <usize>` — override the node count of the selected
//!   `perf_suite` config (the `SCALING.md` table sweeps 10k/100k/1M
//!   this way),
//! * `--activity <f64>` / `--zipf <f64>` — override the selected
//!   config's traffic shape (mean activity fraction / Zipf exponent of
//!   the per-node request skew); overridden runs get their own report
//!   file so they cannot shadow a pinned config's gate,
//! * `--seed <u64>` — override the scenario seed (default 42),
//! * `--json` — emit JSON lines instead of a formatted table,
//! * `--engine <sequential|sharded|incremental>` — restrict a
//!   *round-loop driving* binary (`perf_suite`, which otherwise
//!   measures all engines) to one execution engine. The figure/table
//!   binaries measure the gossip layer itself, which is
//!   engine-independent — they accept and ignore the flag. Results
//!   never depend on it (see `tests/engine_equivalence.rs`),
//! * `--shards <usize>` — shard count for the sharded engine (0 = the
//!   deterministic auto partition; results are bit-identical either
//!   way),
//! * `--profile <lossless|lossy|partitioned|churning>` — network fault
//!   profile for profile-aware binaries (`perf_suite` emits
//!   `BENCH_<profile>.json`, `degradation` sweeps them),
//! * `--adversary <none|sybil|collusion|slander|whitewash|stealth>` —
//!   adversary preset for round-loop driving binaries (`perf_suite` composes it
//!   with `--engine` and `--profile`, so attacks run under either
//!   engine over any transport profile; the gossip-layer figure/table
//!   binaries accept and ignore it),
//! * `--out <path>` — where report-writing binaries put their JSON,
//! * `--out-dir <dir>` — directory report-writing binaries
//!   (`perf_suite`, `claims`, `perf_trend`) resolve their output files
//!   under (created if missing; composes with `--out`, which then names
//!   the file inside the directory),
//! * `--checkpoint-every <rounds>` — `perf_suite` session mode: run the
//!   smoke config through a `RunSession`, checkpointing every N rounds
//!   into `--out-dir` (or a temp dir),
//! * `--resume <dir>` — `perf_suite`: resume a `RunSession` from the
//!   store at `<dir>` and continue the run,
//! * `--checkpoint-overhead` — `perf_suite` gate: measure the pinned
//!   smoke config with and without checkpoint-every-4-rounds and exit
//!   non-zero if checkpointing costs more than 10% throughput,
//! * `--threads <list>` — `perf_suite` thread-scaling mode: run the
//!   selected config's round loop once per thread count in the
//!   comma-separated list (e.g. `1,2,4`) and emit the
//!   scaling-efficiency curve (node-rounds/s and parallel efficiency
//!   vs cores) into `BENCH_threads.json`; composes with `--engine`
//!   (default: the sharded engine, the work-stealing scheduler's
//!   target configuration).

#![forbid(unsafe_code)]

use dg_gossip::{AdversaryMix, EngineKind, NetworkProfile};

pub mod claims;
pub mod linkcheck;
pub mod perf;
pub mod serve;
pub mod trend;

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
    /// Node-count override for the selected config.
    pub nodes: Option<usize>,
    /// Mean activity-fraction override for the selected config's
    /// traffic model.
    pub activity: Option<f64>,
    /// Zipf-exponent override for the selected config's traffic model.
    pub zipf: Option<f64>,
    /// Scenario seed.
    pub seed: u64,
    /// Emit JSON lines.
    pub json: bool,
    /// Engine restriction for round-loop driving binaries
    /// (`None` = the binary's default, e.g. `perf_suite` measures all).
    pub engine: Option<EngineKind>,
    /// Shard count for the sharded engine: `None` when the flag was
    /// not passed (keep the binary's config default), `Some(0)` for an
    /// explicit auto partition, `Some(n)` for a fixed count.
    pub shards: Option<usize>,
    /// Network fault profile (default lossless).
    pub profile: NetworkProfile,
    /// Adversary preset (default none).
    pub adversary: AdversaryMix,
    /// Output path for report files (binaries define their default).
    pub out: Option<String>,
    /// Directory report files are resolved under (default: the current
    /// directory). Created if missing.
    pub out_dir: Option<String>,
    /// `perf_suite` session mode: checkpoint cadence in rounds.
    pub checkpoint_every: Option<usize>,
    /// `perf_suite` session mode: resume from this store directory.
    pub resume: Option<String>,
    /// `perf_suite`: run the snapshot-overhead gate instead of the
    /// measurement suite.
    pub checkpoint_overhead: bool,
    /// `perf_suite` thread-scaling mode: the thread counts to sweep
    /// (ascending, deduplicated). `None` when `--threads` was not
    /// passed.
    pub threads: Option<Vec<usize>>,
    /// `perf_suite` serving mode: measure sustained queries/s against a
    /// live `dg-serve` server instead of the round-loop suite.
    pub serve: bool,
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
            out: None,
            out_dir: None,
            checkpoint_every: None,
            resume: None,
            checkpoint_overhead: false,
            threads: None,
            serve: false,
        }
    }
}

impl Cli {
    /// Parse from `std::env::args`. Unknown flags abort with a usage
    /// message (better than silently ignoring a typo in an experiment
    /// run).
    pub fn parse() -> Self {
        let mut cli = Cli::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => cli.full = true,
                "--scale" => cli.scale = true,
                "--skewed" => cli.skewed = true,
                "--json" => cli.json = true,
                "--nodes" => {
                    let v = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| usage("--nodes needs a positive node count"));
                    cli.nodes = Some(v);
                }
                "--activity" => {
                    let v = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|f: &f64| f.is_finite() && *f >= 0.0)
                        .unwrap_or_else(|| usage("--activity needs a fraction in [0, 1]"));
                    cli.activity = Some(v);
                }
                "--zipf" => {
                    let v = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|f: &f64| f.is_finite() && *f >= 0.0)
                        .unwrap_or_else(|| usage("--zipf needs a non-negative exponent"));
                    cli.zipf = Some(v);
                }
                "--seed" => {
                    let v = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs a u64 value"));
                    cli.seed = v;
                }
                "--engine" => {
                    let v = args
                        .next()
                        .as_deref()
                        .and_then(EngineKind::parse)
                        .unwrap_or_else(|| {
                            usage("--engine needs `sequential`, `sharded` or `incremental`")
                        });
                    cli.engine = Some(v);
                }
                "--shards" => {
                    let v = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--shards needs a usize value (0 = auto)"));
                    cli.shards = Some(v);
                }
                "--profile" => {
                    let v = args
                        .next()
                        .as_deref()
                        .and_then(NetworkProfile::parse)
                        .unwrap_or_else(|| {
                            usage("--profile needs one of: lossless, lossy, partitioned, churning")
                        });
                    cli.profile = v;
                }
                "--adversary" => {
                    let v = args
                        .next()
                        .as_deref()
                        .and_then(AdversaryMix::parse)
                        .unwrap_or_else(|| {
                            usage(
                                "--adversary needs one of: none, sybil, collusion, slander, \
                                 whitewash, stealth (with optional key=value overrides)",
                            )
                        });
                    cli.adversary = v;
                }
                "--out" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--out needs a file path"));
                    cli.out = Some(v);
                }
                "--out-dir" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--out-dir needs a directory path"));
                    cli.out_dir = Some(v);
                }
                "--checkpoint-every" => {
                    let v = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| {
                            usage("--checkpoint-every needs a positive round count")
                        });
                    cli.checkpoint_every = Some(v);
                }
                "--resume" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--resume needs a store directory"));
                    cli.resume = Some(v);
                }
                "--checkpoint-overhead" => cli.checkpoint_overhead = true,
                "--serve" => cli.serve = true,
                "--threads" => {
                    let v = args
                        .next()
                        .map(|s| parse_thread_list(&s))
                        .unwrap_or_else(|| {
                            usage("--threads needs a comma-separated list of positive counts")
                        });
                    cli.threads = Some(v);
                }
                "--help" | "-h" => usage(
                    "
",
                ),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        cli
    }
}

/// Parse a `--threads` list: comma-separated positive counts, returned
/// ascending and deduplicated (a scaling curve needs each point once).
fn parse_thread_list(raw: &str) -> Vec<usize> {
    let mut counts: Vec<usize> = raw
        .split(',')
        .map(|part| match part.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => usage("--threads needs a comma-separated list of positive counts (e.g. 1,2,4)"),
        })
        .collect();
    if counts.is_empty() {
        usage("--threads needs at least one thread count");
    }
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: <bin> [--full] [--scale] [--skewed] [--nodes <usize>] \
         [--activity <f64>] [--zipf <f64>] [--seed <u64>] [--json] \
         [--engine <sequential|sharded|incremental>] [--shards <usize>] \
         [--profile <lossless|lossy|partitioned|churning>] \
         [--adversary <none|sybil|collusion|slander|whitewash|stealth>] [--out <path>] \
         [--out-dir <dir>] [--checkpoint-every <rounds>] [--resume <dir>] \
         [--checkpoint-overhead] [--threads <list>] [--serve]"
    );
    std::process::exit(2)
}

/// Resolve a report file name under the CLI's `--out-dir` (creating the
/// directory if needed). `name` is `--out` when given, else the
/// binary's default; without `--out-dir` it is returned as-is.
pub fn resolve_out_path(out_dir: Option<&str>, name: &str) -> String {
    match out_dir {
        Some(dir) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create --out-dir {dir}: {e}");
                std::process::exit(2);
            }
            std::path::Path::new(dir)
                .join(name)
                .to_string_lossy()
                .into_owned()
        }
        None => name.to_string(),
    }
}

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
