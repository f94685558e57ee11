//! Multi-round reputation lifecycle driver.
//!
//! The paper's system model is a *loop*: peers transact, estimate trust
//! from outcomes, periodically aggregate reputations by gossip, and gate
//! service on the result ("every node is facilitated from the network as
//! per its contribution ... consequently free riding is discouraged").
//! "After the end of a round, next round of gossip will start after some
//! time" — this module drives that loop with a constant inter-round gap,
//! as the paper assumes for simplicity.
//!
//! Each round runs the phases of the shared kernel ([`crate::kernel`]):
//! **transact** (traffic-gated, admission-controlled chunk requests
//! along overlay edges), **estimate** (per-edge EWMA updates of each
//! node's first-hand estimators) and **aggregate** (Variation-4
//! differential gossip, in closed form or by real gossip).
//!
//! Two execution engines are available through [`RunConfig::engine`],
//! each a `run_round` strategy over one shared [`EngineCore`]:
//!
//! * [`EngineKind::Sequential`] — the reference driver in this module:
//!   one inline pass over nodes, the oracle every suite compares
//!   against;
//! * [`EngineKind::Incremental`] —
//!   [`IncrementalRoundEngine`](crate::incremental::IncrementalRoundEngine),
//!   the production engine. Under full traffic every round rebuilds:
//!   nodes are partitioned into contiguous shards
//!   ([`RunConfig::shard_count`]), each filling its own row slab,
//!   with a rayon fan-out over shards. Under gated traffic
//!   ([`RunConfig::traffic`]) it keeps the trust matrix, dirty-row
//!   tracking and delta-maintained aggregates across rounds, so a
//!   round costs `O(dirty)` instead of `O(N)`. The traffic model
//!   chooses; there is no option.
//!
//! Every node consumes a private ChaCha8 stream derived from the round
//! seed, so **both engines produce bit-for-bit identical results at any
//! thread count, any shard count, and any traffic shape** (pinned by
//! `tests/engine_equivalence.rs`).
//!
//! Engines are built by [`build_engine`] and take one caller-chosen seed
//! per [`RoundEngine::run_round`]; [`RunSession`](crate::session::RunSession)
//! is the driver that adds the resumable seed schedule and checkpoints.

use crate::config::RunConfig;
use crate::kernel::{closed_form_row, Changed, EngineCore, ServiceDelta, SubjectAggregates};
use crate::scenario::Scenario;
use crate::session::SessionError;
use dg_core::reputation::ReputationSystem;
use dg_core::CoreError;
use dg_gossip::EngineKind;
use dg_graph::NodeId;
use dg_store::NodeRecord;
use dg_trust::{RobustAggregation, TrustMatrix};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How reputations are refreshed each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregationMode {
    /// Run the real Variation-4 vector gossip (slower, fully faithful).
    Gossip,
    /// Evaluate the converged limit in closed form (fast; the test suite
    /// separately verifies gossip reaches this limit).
    ClosedForm,
}

/// Which (observer, subject) pairs the closed-form aggregation
/// materialises each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AggregationScope {
    /// Every subject anyone holds an opinion about, at every observer —
    /// the paper's full gossip limit. `O(N · S)` state: fine up to a few
    /// thousand nodes.
    #[default]
    Full,
    /// Only each observer's overlay neighbours. Admission control reads
    /// exactly these pairs (requests arrive along edges), so service
    /// gating is unchanged while state shrinks to `O(edges)` — the
    /// production setting for large networks.
    Neighbourhood,
}

/// How a provider treats a requester it aggregates no opinion about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum NewcomerPolicy {
    /// Serve strangers — the open-network default, and the honeymoon a
    /// whitewasher farms by discarding exposed identities.
    #[default]
    Optimistic,
    /// The paper's anti-whitewash rule: an unknown requester is worth
    /// its zero prior, so it is refused until it earns reputation by
    /// serving (providers with no aggregated view at all still serve
    /// everyone — there is nothing to gate on yet).
    ZeroPrior,
}

/// Trust-side countermeasure knobs the attack experiments sweep.
///
/// Applies to [`AggregationMode::ClosedForm`]; real distributed gossip
/// ([`AggregationMode::Gossip`]) cannot trim per-subject report sets (no
/// node ever holds them), which is exactly why the claims harness
/// measures the closed-form aggregation point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct DefensePolicy {
    /// Report clamping / per-subject trimmed aggregation.
    #[serde(default)]
    pub robust: RobustAggregation,
    /// Stranger admission rule.
    #[serde(default)]
    pub newcomer: NewcomerPolicy,
}

impl DefensePolicy {
    /// The paper's plain behaviour: no clamping, no trimming, optimistic
    /// stranger admission.
    pub const fn none() -> Self {
        Self {
            robust: RobustAggregation::none(),
            newcomer: NewcomerPolicy::Optimistic,
        }
    }

    /// The defended setting the claims harness gates on: clamped and
    /// trimmed aggregation plus the zero-prior stranger rule.
    pub const fn defended() -> Self {
        Self {
            robust: RobustAggregation::defended(),
            newcomer: NewcomerPolicy::ZeroPrior,
        }
    }

    /// Whether this policy changes anything over the paper's behaviour.
    pub fn is_none(&self) -> bool {
        self.robust.is_none() && self.newcomer == NewcomerPolicy::Optimistic
    }
}

/// Per-round service statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: usize,
    /// Requests served, by requester behaviour class.
    pub served_honest: u64,
    /// Requests refused, honest requesters.
    pub refused_honest: u64,
    /// Requests served, free-riding requesters.
    pub served_free_riders: u64,
    /// Requests refused, free-riding requesters.
    pub refused_free_riders: u64,
    /// Requests served, adversarial requesters (any attack role; absent
    /// — zero — in reports written before the adversary layer existed).
    #[serde(default)]
    pub served_adversaries: u64,
    /// Requests refused, adversarial requesters.
    #[serde(default)]
    pub refused_adversaries: u64,
    /// Mean aggregated reputation of honest nodes (as seen network-wide).
    pub mean_rep_honest: f64,
    /// Mean aggregated reputation of free riders.
    pub mean_rep_free_riders: f64,
    /// Mean aggregated reputation of adversarial nodes.
    #[serde(default)]
    pub mean_rep_adversaries: f64,
    /// Whitewash identity resets performed at the end of this round.
    #[serde(default)]
    pub washes: u64,
    /// Requesters that cleared both the participation and the traffic
    /// activity gates this round (absent — zero — in reports written
    /// before the traffic model existed).
    #[serde(default)]
    pub active_nodes: u64,
    /// Fraction of nodes whose trust row gained fresh transaction
    /// records this round — the share of the network the incremental
    /// engine must recompute.
    #[serde(default)]
    pub dirty_fraction: f64,
    /// Audits performed this round (absent — zero — in reports written
    /// before the audit subsystem existed, like every field below).
    #[serde(default)]
    pub audits: u64,
    /// Strikes issued by this round's audits.
    #[serde(default)]
    pub audit_strikes: u64,
    /// Nodes convicted (k strikes reached) and purged this round.
    #[serde(default)]
    pub convictions: u64,
    /// Audit bandwidth in report-entry units: one envelope per audit
    /// plus one unit per re-verified log entry.
    #[serde(default)]
    pub audit_entries: u64,
    /// Report traffic this round (trust-matrix entries after the report
    /// phase) — the denominator of the audit-overhead claim.
    #[serde(default)]
    pub report_entries: u64,
    /// Externally-ingested reports interleaved into this round by the
    /// serve layer (absent — zero — in reports written before the
    /// serve layer existed, like the shed counter below).
    #[serde(default)]
    pub ingested_reports: u64,
    /// Ingest submissions shed with a typed `Busy` reply since the
    /// previous round (bounded-channel backpressure — shed load is
    /// counted here, never dropped silently).
    #[serde(default)]
    pub ingest_shed: u64,
}

impl RoundStats {
    /// Service rate for honest requesters.
    pub fn honest_service_rate(&self) -> f64 {
        rate(self.served_honest, self.refused_honest)
    }

    /// Service rate for free-riding requesters.
    pub fn free_rider_service_rate(&self) -> f64 {
        rate(self.served_free_riders, self.refused_free_riders)
    }

    /// Service rate for adversarial requesters.
    pub fn adversary_service_rate(&self) -> f64 {
        rate(self.served_adversaries, self.refused_adversaries)
    }

    /// Audit bandwidth as a fraction of the round's report traffic
    /// (zero when no reports flowed).
    pub fn audit_overhead(&self) -> f64 {
        if self.report_entries == 0 {
            return 0.0;
        }
        self.audit_entries as f64 / self.report_entries as f64
    }
}

fn rate(served: u64, refused: u64) -> f64 {
    let total = served + refused;
    if total == 0 {
        return 0.0;
    }
    served as f64 / total as f64
}

/// A round engine: a `run_round` strategy over one [`EngineCore`].
///
/// The core holds the cross-round state every engine shares
/// (estimators, audit state, aggregated runs, observer means, queued
/// ingest, round index) and everything that is a pure function of it —
/// [`EngineCore::records`], [`EngineCore::queue_reports`], lookups,
/// totals — so [`RunSession`](crate::session::RunSession) and
/// engine-level callers read those straight off [`core`](Self::core).
/// Adding an engine is one `impl` (the two accessors plus `run_round`)
/// and one arm in [`build_engine`] — the single dispatch point every
/// layer (session, bench CLI, perf suite) routes through.
///
/// The checkpoint is the store's [`NodeRecord`] list itself.
/// Engine-internal acceleration state — trust matrices, aggregate caches,
/// cached weights — is deliberately *not* part of it: it is
/// deterministically reconstructible, so any engine can restore any
/// engine's records and the resumed trajectory stays bit-identical
/// (pinned by `tests/crash_recovery.rs`).
pub trait RoundEngine {
    /// The shared cross-round state.
    fn core(&self) -> &EngineCore;
    /// Mutable access to the shared cross-round state.
    fn core_mut(&mut self) -> &mut EngineCore;
    /// Run one full round from the given seed.
    fn run_round(&mut self, round_seed: u64) -> Result<RoundStats, CoreError>;
    /// Replace the engine's cross-round state with `records` (written
    /// by this engine or any other), about to run `round`. Fails with
    /// [`SessionError::Snapshot`], leaving the engine untouched, if the
    /// records do not fit the scenario. Engines that keep derived state
    /// across rounds override this to reset it.
    fn restore(&mut self, round: usize, records: &[NodeRecord]) -> Result<(), SessionError> {
        self.core_mut().restore(round, records)
    }
}

/// The single engine factory: build the round engine `config` selects
/// over an existing (shared) scenario, at round 0. Prefer
/// [`RunSession`](crate::session::RunSession) unless you need to hold
/// the scenario or choose the round seeds yourself (the session builds
/// scenario *and* engine and adds checkpoint / resume).
pub fn build_engine(scenario: Arc<Scenario>, config: &RunConfig) -> Box<dyn RoundEngine> {
    let core = EngineCore::new(scenario, *config);
    match config.engine {
        EngineKind::Sequential => Box::new(SequentialRounds::new(core)),
        EngineKind::Incremental => Box::new(crate::incremental::IncrementalRoundEngine::new(core)),
    }
}

/// The sequential reference driver: one inline pass over nodes per
/// phase, rows pushed in order onto a fresh matrix each round —
/// deliberately the simplest possible composition of the kernel
/// phases, the yardstick the production engine is pinned against.
struct SequentialRounds {
    core: EngineCore,
    /// The tiled subject-sum sweep inside dg-trust fans out on the
    /// ambient pool; this one-worker pool pins the driver so
    /// "sequential" stays an honest single-thread yardstick in every
    /// benchmark (results are bit-identical either way).
    single: rayon::ThreadPool,
}

impl SequentialRounds {
    fn new(core: EngineCore) -> Self {
        Self {
            core,
            single: rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .expect("single-thread pool"),
        }
    }
}

fn run_sequential_round(core: &mut EngineCore, round_seed: u64) -> Result<RoundStats, CoreError> {
    let scenario = Arc::clone(&core.scenario);
    let n = scenario.graph.node_count();
    core.begin_round();

    // Phases 1 + 2: transact (drawing outcomes straight into the
    // requester's estimators), then fold ingest and emit the row —
    // inline, one node at a time, but on the same per-node streams and
    // kernel phases as the production engine. Rows are pushed in
    // ascending order onto the matrix's slabs.
    let mut delta = ServiceDelta::default();
    let mut nodes = std::mem::take(&mut core.nodes);
    let mut marks = std::mem::take(&mut core.marks);
    let mut pending = std::mem::take(&mut core.pending_ingest)
        .into_iter()
        .peekable();
    let mut requesters = core.requesters(0..n as u32, round_seed).peekable();
    let rows = scenario.graph.nodes().map(|requester| {
        let state = &mut nodes[requester.index()];
        let mut touched = false;
        if requesters.next_if_eq(&requester).is_some() {
            let d = core.transact(state, requester, round_seed);
            touched = d.dirty_rows > 0;
            delta.merge(d);
        }
        let ingest = pending
            .next_if(|(r, _)| *r == requester)
            .map(|(_, records)| records)
            .unwrap_or_default();
        let (row, emitted) = core.emit_row(state, requester, &ingest);
        if touched || emitted {
            marks.mark(requester);
        }
        row
    });
    let trust = TrustMatrix::from_rows(n, rows).expect("estimator keys are in range");
    drop(requesters); // ends its borrow of `core`
    core.nodes = nodes;
    core.marks = marks;
    let report_entries = trust.entry_count() as u64;
    let system = ReputationSystem::new(&scenario.graph, trust, scenario.weights)?;

    // Phase 3: aggregate.
    match core.config.aggregation {
        AggregationMode::ClosedForm => {
            let (sums, counts) = system
                .trust()
                .robust_subject_sums_and_counts(&core.config.defense.robust);
            let scope = core.config.scope;
            let agg = SubjectAggregates::new(&sums, &counts, scope);
            let mut y_hat = Vec::new();
            core.set_runs(
                (0..n as u32).map(|i| closed_form_row(&system, NodeId(i), scope, &agg, &mut y_hat)),
            );
        }
        AggregationMode::Gossip => core.aggregate_by_gossip(&system, round_seed)?,
    }

    // Audit phase + shared round epilogue: summary, whitewash +
    // conviction purge, admission scales, stats.
    Ok(core.finish_round(delta, report_entries, Changed::All, |_, _| {}))
}

impl RoundEngine for SequentialRounds {
    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn run_round(&mut self, round_seed: u64) -> Result<RoundStats, CoreError> {
        let core = &mut self.core;
        self.single
            .install(|| run_sequential_round(core, round_seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::TrafficModel;
    use rand::RngCore;

    /// Build the scenario and engine for `config` and run all its
    /// rounds on seeds drawn from gossip stream `stream`.
    fn run(config: RunConfig, stream: u64) -> Vec<RoundStats> {
        let scenario = Arc::new(Scenario::build(config).unwrap());
        let mut rng = scenario.gossip_rng(stream);
        let mut engine = build_engine(scenario, &config);
        (0..config.rounds)
            .map(|_| engine.run_round(rng.next_u64()).unwrap())
            .collect()
    }

    /// Honest contributors are decent (≥ 0.4); the gap to free riders is
    /// what admission control must detect.
    fn free_rider_config() -> RunConfig {
        RunConfig {
            nodes: 120,
            free_rider_fraction: 0.25,
            seed: 7,
            quality_range: (0.4, 1.0),
            rounds: 6,
            ..RunConfig::default()
        }
    }

    fn assert_free_riders_starved(last: &RoundStats) {
        assert!(
            last.free_rider_service_rate() < 0.2,
            "free riders still served at {}",
            last.free_rider_service_rate()
        );
        assert!(
            last.honest_service_rate() > 0.8,
            "honest service degraded to {}",
            last.honest_service_rate()
        );
    }

    #[test]
    fn free_riders_get_starved() {
        let stats = run(free_rider_config(), 2);

        // Round 0: nobody has reputations yet; everyone served.
        assert_eq!(stats[0].refused_honest + stats[0].refused_free_riders, 0);
        // By the last round free riders are mostly refused while honest
        // nodes keep near-full service.
        let last = stats.last().unwrap();
        assert_free_riders_starved(last);
        // Reputation separation.
        assert!(last.mean_rep_honest > last.mean_rep_free_riders + 0.2);
        // The full traffic model keeps every node active, and every
        // served requester's row dirty.
        assert_eq!(last.active_nodes, 120);
        assert!(last.dirty_fraction > 0.5);
    }

    #[test]
    fn gossip_mode_agrees_with_closed_form_direction() {
        let stats = run(
            RunConfig {
                nodes: 60,
                free_rider_fraction: 0.2,
                seed: 11,
                rounds: 4,
                aggregation: AggregationMode::Gossip,
                xi: 1e-6,
                ..RunConfig::default()
            },
            3,
        );
        let last = stats.last().unwrap();
        assert!(last.mean_rep_honest > last.mean_rep_free_riders);
    }

    #[test]
    fn aggregated_lookup_works() {
        let config = RunConfig::with_nodes(30).with_seed(5);
        let scenario = Arc::new(Scenario::build(config).unwrap());
        let mut engine = build_engine(Arc::clone(&scenario), &config);
        assert_eq!(engine.core().aggregated(NodeId(0), NodeId(1)), None);
        engine.run_round(scenario.gossip_rng(4).next_u64()).unwrap();
        // Node 1 is a neighbour of someone, so it has been rated and
        // aggregated.
        assert!(engine.core().aggregated(NodeId(0), NodeId(1)).is_some());
    }

    #[test]
    fn neighbourhood_scope_still_starves_free_riders() {
        let stats = run(
            free_rider_config().with_scope(AggregationScope::Neighbourhood),
            2,
        );
        assert_free_riders_starved(stats.last().unwrap());
    }

    #[test]
    fn thinned_traffic_reduces_activity_and_dirt() {
        let stats = run(
            RunConfig::with_nodes(150)
                .with_seed(19)
                .with_rounds(3)
                .with_traffic(TrafficModel::full().with_activity(0.1)),
            2,
        );
        for s in &stats {
            assert!(
                s.active_nodes < 50,
                "round {} has {} active nodes under 10% activity",
                s.round,
                s.active_nodes
            );
            assert!(s.dirty_fraction < 0.35, "dirty {}", s.dirty_fraction);
            // Only active requesters can dirty their rows.
            let dirty_rows = (s.dirty_fraction * 150.0).round() as u64;
            assert!(dirty_rows <= s.active_nodes);
        }
        // Some traffic still flows.
        assert!(stats.iter().any(|s| s.active_nodes > 0));
    }
}
