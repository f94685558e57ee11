//! Shared plumbing for the experiment binaries.
//!
//! The nine figure and table binaries (`fig3`–`fig6`, `table1`,
//! `table2`, `degradation`, `ablation_convergence`, `ablation_weights`)
//! measure the gossip layer itself and parse the same three flags
//! ([`Cli`]):
//!
//! * `--full` — run the paper's full parameter grid (N up to 50 000);
//!   the default grid is scaled to finish in minutes on a laptop,
//! * `--seed <u64>` — override the scenario seed (default 42),
//! * `--json` — emit JSON lines instead of a formatted table.
//!
//! Any other flag is refused with a usage message. `perf_suite` parses
//! its own flags ([`perf`]); `claims` parses its own ([`claims`]).

#![forbid(unsafe_code)]

pub mod claims;
pub mod linkcheck;
pub mod perf;

/// The options of the figure and table binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Full-scale (paper-grid) mode.
    pub full: bool,
    /// Scenario seed.
    pub seed: u64,
    /// Emit JSON lines.
    pub json: bool,
}

impl Default for Cli {
    fn default() -> Self {
        Self {
            full: false,
            seed: 42,
            json: false,
        }
    }
}

impl Cli {
    /// Parse from `std::env::args`. Unknown flags abort with a usage
    /// message (better than silently ignoring a typo in an experiment
    /// run).
    pub fn parse() -> Self {
        or_exit(Self::parse_args(std::env::args().skip(1)), USAGE)
    }

    /// [`parse`](Self::parse) over explicit arguments; `Err` is the
    /// message to print above the usage line.
    fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut cli = Cli::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => cli.full = true,
                "--json" => cli.json = true,
                "--seed" => {
                    cli.seed = value(&mut args, |s| s.parse().ok(), "--seed needs a u64 value")?
                }
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(cli)
    }
}

const USAGE: &str = "usage: <bin> [--full] [--seed <u64>] [--json]";

/// The parsed options, or (on `Err`) the message and `usage` printed
/// and exit 2.
fn or_exit<T>(parsed: Result<T, String>, usage: &str) -> T {
    parsed.unwrap_or_else(|msg| {
        eprintln!("{msg}\n{usage}");
        std::process::exit(2)
    })
}

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
    fn figure_flags_parse_into_their_fields() {
        let cli = parse(&["--full", "--seed", "7", "--json"]).unwrap();
        assert_eq!(
            cli,
            Cli {
                full: true,
                seed: 7,
                json: true
            }
        );
        assert_eq!(parse(&[]).unwrap(), Cli::default());
        assert!(parse(&["--seed"]).unwrap_err().contains("--seed"));
        assert!(parse(&["--seed", "x"]).unwrap_err().contains("--seed"));
    }

    /// The figure binaries read only `--full`, `--seed` and `--json`:
    /// the runner's flags are typos here, not settings to ignore.
    #[test]
    fn figure_binaries_refuse_the_runner_flags() {
        for flag in ["--engine", "--adversary", "--resume", "--nodes"] {
            assert_eq!(
                parse(&[flag, "x"]).unwrap_err(),
                format!("unknown flag {flag}")
            );
        }
    }
}
