//! The perf-trend tracker behind the scheduled CI job.
//!
//! `perf_trend` runs the pinned-seed [`perf`](crate::perf) suite across
//! *all* network profiles — lossless (both engines), lossy, partitioned
//! and churning (sequential convergence) — and appends one markdown row
//! to `docs/PERF_TREND.md`, building the bench trajectory commit by
//! commit. The file is committed back by the scheduled workflow, so the
//! repo carries its own performance history.

use crate::perf::{run_suite, run_thread_sweep, PerfConfig, SMOKE};
use dg_gossip::{AdversaryMix, EngineKind, NetworkProfile};

/// The tiny self-test config (keeps the unit test fast).
pub const TINY: PerfConfig = PerfConfig {
    name: "tiny",
    nodes: 150,
    rounds: 2,
    requests_per_edge: 3,
    shards: 2,
    traffic: dg_sim::TrafficModel::full(),
    scope: dg_sim::rounds::AggregationScope::Neighbourhood,
};

/// One appended history row.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRow {
    /// ISO date (supplied by the workflow; the suite itself is clock-free).
    pub date: String,
    /// Commit SHA (short form is fine).
    pub sha: String,
    /// Sequential engine throughput, node-rounds/s.
    pub sequential: f64,
    /// Sharded engine throughput, node-rounds/s.
    pub sharded: f64,
    /// Incremental engine throughput on the smoke (full-traffic)
    /// workload, node-rounds/s — its skewed-workload headline lives in
    /// `BENCH_baseline_skewed.json`.
    pub incremental: f64,
    /// Sharded-engine parallel efficiency at 2 threads (from a
    /// `--threads 1,2` sweep of the same config). 1.0 is perfect linear
    /// scaling; on a single-core runner the 2-thread point is
    /// oversubscribed, so read this column together with the runner's
    /// core count.
    pub efficiency_2t: f64,
    /// Gossip rounds to convergence per profile, in lossless / lossy /
    /// partitioned / churning order.
    pub convergence: [usize; 4],
    /// Residual error under the worst (churning) profile.
    pub churning_residual: f64,
}

impl TrendRow {
    /// The markdown table row.
    pub fn markdown(&self) -> String {
        format!(
            "| {} | {} | {:.0} | {:.0} | {:.0} | {:.2} | {} | {} | {} | {} | {:.2e} |",
            self.date,
            self.sha,
            self.sequential,
            self.sharded,
            self.incremental,
            self.efficiency_2t,
            self.convergence[0],
            self.convergence[1],
            self.convergence[2],
            self.convergence[3],
            self.churning_residual,
        )
    }
}

/// The table header (written when the history file does not exist yet).
pub const HEADER: &str = "\
# Performance trend

Appended by the scheduled `perf-trend` CI job: one row per run of the
pinned-seed perf suite (smoke config, seed 42) across every network
profile. Throughput is engine node-rounds/s measured lossless;
`eff 2t` is the sharded engine's 2-thread parallel efficiency from a
`--threads 1,2` sweep of the same config (1.0 = perfect scaling);
`conv <profile>` is scalar-gossip rounds to convergence under that
profile; the residual is the estimate error left under the churning
profile. Hardware varies between runners — read trends, not absolutes.

| date | commit | seq n-r/s | shd n-r/s | inc n-r/s | eff 2t | conv lossless | conv lossy | conv partitioned | conv churning | churn residual |
|------|--------|-----------|-----------|-----------|--------|---------------|------------|------------------|---------------|----------------|
";

/// Run the suite across all profiles and assemble the row.
pub fn run_trend(
    config: &PerfConfig,
    seed: u64,
    date: String,
    sha: String,
) -> Result<TrendRow, Box<dyn std::error::Error>> {
    // Engine throughput: one lossless run measuring every engine.
    let lossless = run_suite(config, seed, None, NetworkProfile::lossless())?;
    let sequential = lossless
        .engine("sequential")
        .ok_or("missing sequential result")?
        .node_rounds_per_sec;
    let sharded = lossless
        .engine("sharded")
        .ok_or("missing sharded result")?
        .node_rounds_per_sec;
    let incremental = lossless
        .engine("incremental")
        .ok_or("missing incremental result")?
        .node_rounds_per_sec;

    // Convergence + residual: one sequential run per faulty profile.
    let mut convergence = [lossless.rounds_to_convergence, 0, 0, 0];
    let mut churning_residual = lossless.residual_error;
    for (slot, profile) in [
        NetworkProfile::lossy(),
        NetworkProfile::partitioned(),
        NetworkProfile::churning(),
    ]
    .into_iter()
    .enumerate()
    {
        let report = run_suite(config, seed, Some(EngineKind::Sequential), profile)?;
        convergence[slot + 1] = report.rounds_to_convergence;
        churning_residual = report.residual_error;
    }

    // Scaling: a 1,2-thread sweep of the sharded engine on the same
    // config, tracked alongside raw throughput so scheduler regressions
    // show up even when absolute numbers drift with runner hardware.
    let sweep = run_thread_sweep(
        config,
        seed,
        EngineKind::Sharded,
        &[1, 2],
        AdversaryMix::none(),
    )?;
    let efficiency_2t = sweep.point(2).map_or(0.0, |p| p.parallel_efficiency);

    Ok(TrendRow {
        date,
        sha,
        sequential,
        sharded,
        incremental,
        efficiency_2t,
        convergence,
        churning_residual,
    })
}

/// Append a row to the history file, writing the header first if the
/// file does not exist.
pub fn append_row(path: &str, row: &TrendRow) -> std::io::Result<()> {
    let mut content = match std::fs::read_to_string(path) {
        Ok(existing) => existing,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => HEADER.to_owned(),
        Err(e) => return Err(e),
    };
    if !content.ends_with('\n') {
        content.push('\n');
    }
    content.push_str(&row.markdown());
    content.push('\n');
    std::fs::write(path, content)
}

/// The `perf_trend` binary's entry point.
pub fn trend_main() -> Result<(), Box<dyn std::error::Error>> {
    let mut seed = 42u64;
    let mut date = String::from("unknown-date");
    let mut sha = String::from("unknown-sha");
    let mut out = String::from("docs/PERF_TREND.md");
    let mut out_dir: Option<String> = None;
    let mut tiny = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs a u64 value")?;
            }
            "--date" => date = args.next().ok_or("--date needs a value")?,
            "--sha" => sha = args.next().ok_or("--sha needs a value")?,
            "--out" => out = args.next().ok_or("--out needs a path")?,
            "--out-dir" => out_dir = Some(args.next().ok_or("--out-dir needs a directory")?),
            "--tiny" => tiny = true,
            other => {
                return Err(format!(
                    "unknown flag {other}\nusage: perf_trend [--seed <u64>] [--date <iso>] \
                     [--sha <commit>] [--out <path>] [--out-dir <dir>] [--tiny]"
                )
                .into())
            }
        }
    }
    let out = crate::resolve_out_path(out_dir.as_deref(), &out);
    let config = if tiny { TINY } else { SMOKE };
    eprintln!(
        "perf_trend: {} config, seed {seed}, all profiles -> {out}",
        config.name
    );
    let row = run_trend(&config, seed, date, sha)?;
    append_row(&out, &row)?;
    eprintln!("appended: {}", row.markdown());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_trend_runs_and_rows_are_well_formed() {
        let row = run_trend(&TINY, 7, "2026-01-01".into(), "abc1234".into()).unwrap();
        assert!(row.sequential > 0.0 && row.sharded > 0.0);
        assert!(row.incremental > 0.0);
        assert!(row.convergence.iter().all(|&c| c > 0));
        assert!(row.efficiency_2t > 0.0);
        let md = row.markdown();
        assert_eq!(md.matches('|').count(), 12, "11 cells: {md}");
        assert!(md.contains("abc1234"));
    }

    #[test]
    fn append_creates_header_then_appends() {
        let dir = std::env::temp_dir().join("dg_trend_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("PERF_TREND.md");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        let row = TrendRow {
            date: "2026-01-01".into(),
            sha: "deadbee".into(),
            sequential: 1000.0,
            sharded: 1500.0,
            incremental: 1800.0,
            efficiency_2t: 0.9,
            convergence: [10, 20, 30, 40],
            churning_residual: 1e-3,
        };
        append_row(path, &row).unwrap();
        append_row(path, &row).unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.starts_with("# Performance trend"));
        assert_eq!(content.matches("deadbee").count(), 2);
        std::fs::remove_file(path).unwrap();
    }
}
