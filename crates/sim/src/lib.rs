//! # dg-sim — scenarios, workloads, experiments and round engines
//!
//! Everything the evaluation (Section 5.3) needs on top of the algorithm
//! crates:
//!
//! * [`config`] — [`RunConfig`], the one serializable description of a
//!   run that every layer below reads;
//! * [`scenario`] — reproducible scenario construction: topology,
//!   behaviour population and adversaries from one seeded config, and
//!   on request the static trust matrix the experiments read;
//! * [`workload`] — the synthetic file-sharing workload that *estimates*
//!   the trust matrix through simulated transactions (our substitution
//!   for the paper's unavailable trace data — see `docs/PAPER_MAP.md`,
//!   "Trust estimation from transactions");
//! * [`experiments`] — one function per paper artifact: Fig. 3 (steps vs
//!   N), Fig. 4 (steps vs packet loss), Figs. 5/6 (collusion RMS error),
//!   Tables 1 and 2, the convergence/weight ablations, and the
//!   network-fault degradation sweeps (rounds-to-convergence and
//!   residual error vs loss rate / [`NetworkProfile`](dg_gossip::NetworkProfile) preset);
//! * [`rounds`] — the full reputation lifecycle loop (transactions →
//!   estimation → aggregation → admission control) behind the free-riding
//!   examples, dispatching through one engine factory to the production
//!   engine (the default) or the sequential reference driver tests
//!   compare it against;
//! * [`session`] — the front door: a [`RunSession`] that builds
//!   scenario and engine from a [`RunConfig`], runs rounds on a
//!   deterministic seed schedule and checkpoints / resumes through the
//!   `dg-store` durability layer, bit-for-bit;
//! * [`kernel`] — the shared phase kernel and the one `EngineCore`
//!   every engine is a `run_round` strategy over: the cross-round state
//!   plus the transact → estimate → aggregate → wash contracts, so all
//!   observable math (per-node RNG streams, robust subject sums, Eq. (6)
//!   rows, the round epilogue) and all bookkeeping (records, restore,
//!   ingest queueing) has exactly one implementation;
//! * [`incremental`] — the production engine: under full traffic a
//!   rebuild round whose rows go straight into per-shard row slabs;
//!   under gated traffic a delta round over a persistent trust
//!   matrix, dirty-row replacement, delta-maintained subject aggregates
//!   and patched Eq. (6) rows — bit-identical to the sequential oracle
//!   at any shard count, thread count and activity fraction;
//! * [`adversary`] — the attack layer: per-node adversarial roles
//!   (sybil rings, collusion cliques, slanderers, whitewashers, stealth
//!   cartels) compiled
//!   from an [`AdversaryMix`](dg_gossip::AdversaryMix) and applied by
//!   the round engines where reports enter the gossip channel;
//! * [`report`] — fixed-width table rendering and JSON-lines output for
//!   the harness binaries;
//! * [`serve`] — the serve layer's session: deterministic interleaving
//!   of externally-ingested reports into the next round, and per-round
//!   publication of immutable reputation snapshots for concurrent
//!   readers (`dg-serve` builds its network endpoints on this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod config;
pub mod experiments;
pub mod incremental;
pub mod kernel;
pub mod report;
pub mod rounds;
pub mod scenario;
pub mod serve;
pub mod session;
pub mod workload;

pub use config::RunConfig;
pub use rounds::build_engine;
pub use scenario::Scenario;
pub use serve::{IngestError, IngestReport, ServeSession};
pub use session::{round_seed, CheckpointKind, RunSession, SessionError};
pub use workload::TrafficModel;
