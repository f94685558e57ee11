//! `RunSession` runner: drive one preset `RunConfig` to its configured
//! `rounds` and print one summary line (rounds, wall time,
//! node-rounds/s, final free-rider service rate, peak RSS), optionally
//! checkpointing into — or resuming from — a `dg-store` directory.
//! It keeps no report and gates nothing; the repo's benchmark is
//! `benchmark/` (see `benchmark/README.md`).
//!
//! The binary lives in the umbrella package (its logic is
//! `dg_bench::perf::suite_main`) so it runs from the workspace root
//! without naming a package:
//!
//! ```text
//! cargo run --release --bin perf_suite                      # smoke preset (5k nodes)
//! cargo run --release --bin perf_suite -- --skewed          # 1% Zipf traffic, delta rounds
//! cargo run --release --bin perf_suite -- --scale           # 1M nodes
//! cargo run --release --bin perf_suite -- --checkpoint-every 2 --out-dir /tmp/run
//! cargo run --release --bin perf_suite -- --resume /tmp/run/session_store
//! ```

fn main() -> Result<(), Box<dyn std::error::Error>> {
    dg_bench::perf::suite_main()
}
