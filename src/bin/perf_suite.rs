//! Round-engine performance suite: run the reputation lifecycle on a
//! pinned-seed scenario under every engine and emit a machine-readable
//! `BENCH_<name>.json` report (nodes/round throughput,
//! rounds-to-convergence, wall time). With `--profile` the convergence
//! measurement runs under that network fault profile and the report is
//! written to `BENCH_<profile>.json`.
//!
//! The binary lives in the umbrella package (entry point shared with
//! `dg_bench::perf::suite_main`) so it runs from the workspace root
//! without naming a package:
//!
//! ```text
//! cargo run --release --bin perf_suite            # smoke (5k nodes)
//! cargo run --release --bin perf_suite -- --full  # 20k nodes
//! cargo run --release --bin perf_suite -- --out BENCH_pr.json
//! cargo run --release --bin perf_suite -- --engine sharded
//! cargo run --release --bin perf_suite -- --profile lossy  # BENCH_lossy.json
//! ```
//!
//! CI's `perf-smoke` job uploads the report and gates on
//! `perf_compare` against the committed `crates/bench/BENCH_baseline.json`.

fn main() -> Result<(), Box<dyn std::error::Error>> {
    dg_bench::perf::suite_main()
}
