//! The sharded round engine — the dense and million-node configuration.
//!
//! Rebuilding one monolithic CSR trust matrix per round materialises
//! every node's records and trust row before a single big builder
//! freezes them, so transient memory tracks the **whole** matrix
//! (`O(total nnz + N)`) on top of the persistent state.
//!
//! [`ShardedRoundEngine`] partitions `NodeId`s into the contiguous
//! ranges of a [`ShardSpec`] and makes the *shard* the unit of work:
//!
//! * node state stays flat in the [`EngineCore`]; each shard works on
//!   its disjoint `&mut [NodeState]` slice of it;
//! * transact + estimate run **fused** per shard — a requester's
//!   outcomes are drawn straight into its estimators (no per-request
//!   record exists at all), its ingest batch folds after them, and its
//!   trust row goes straight into the shard's rectangular `CsrBuilder`,
//!   so no row batch ever exists for more than the in-flight shards
//!   (`O(max-shard edges × threads)` scratch instead of `O(total nnz)`);
//! * the per-shard CSRs assemble zero-copy into a
//!   [`ShardedCsr`]-backed [`TrustMatrix`], whose
//!   cross-shard subject-sum merge streams shards in ascending row
//!   order — the exact global row-major accumulation order of the
//!   dynamic backend;
//! * the closed-form aggregation phase fans the same shards out again,
//!   writing each observer's run into the shard's slice of the
//!   aggregated state. ([`AggregationMode::Gossip`] works on the
//!   sharded backend too, but runs the whole Variation-4 gossip in one
//!   piece — correctness-preserving, **not** bounded-memory; the
//!   million-node configuration is closed form, see `docs/SCALING.md`.)
//!
//! Both shard fan-outs are **cost-weighted**: a per-shard
//! `ShardCosts` estimate — seeded from degree sums, refreshed every
//! round from the shard's built `nnz` plus its active-node count —
//! feeds [`rayon::map_weighted`], which seeds the work-stealing
//! scheduler heaviest-shard-first (LPT) and lets idle workers steal
//! whatever the estimate got wrong. Under skewed traffic one hot shard
//! no longer serialises the round behind a static shard→thread
//! assignment.
//!
//! Nodes keep drawing from the same per-node ChaCha8 streams
//! ([`dg_gossip::node_stream_seed`]) as the other engines, and every
//! cross-node reduction happens in a fixed order — the weighted
//! scheduler commits results in input order, so the costs only steer
//! wall-clock, never results. Results are **bit-for-bit identical to
//! the sequential reference at any shard count and any thread count**
//! — pinned by `tests/engine_equivalence.rs` for shards
//! 1/16/64 × threads 1/2/8, with and without an adversarial mix.

use crate::kernel::{
    closed_form_row, Changed, EngineCore, NodeState, ServiceDelta, SubjectAggregates,
    TransactionRecord,
};
use crate::rounds::{AggregationMode, RoundEngine, RoundStats};
use crate::scenario::Scenario;
use dg_core::reputation::ReputationSystem;
use dg_core::CoreError;
use dg_graph::NodeId;
use dg_trust::{CsrBuilder, CsrStorage, ShardSpec, ShardedCsr, TrustMatrix};
use std::sync::Arc;

/// One requester's pending ingest batch, keyed by requester id.
type RecordBatch = (NodeId, Vec<TransactionRecord>);

/// Per-shard work estimates feeding the work-stealing scheduler's
/// weighted map ([`rayon::map_weighted`]).
///
/// Before the first round no traffic has been seen, so costs seed from
/// the static topology: `Σ (degree + 1)` over each shard's rows. After
/// every round [`update`](Self::update) replaces them with the measured
/// signal — the shard's built trust-row entries (`nnz`, from
/// [`ShardedCsr::shard_entry_counts`]) plus its active-requester count,
/// the two direct drivers of next round's transact/estimate and
/// aggregation cost under skewed traffic.
///
/// Costs are a scheduling *hint* only: the weighted map commits
/// results in input order, so a wrong estimate costs wall-clock, never
/// bit-identity.
#[derive(Debug, Clone)]
pub(crate) struct ShardCosts {
    costs: Vec<u64>,
}

impl ShardCosts {
    /// Topology seed: `Σ (degree + 1)` per shard.
    pub(crate) fn seed(scenario: &Scenario, spec: ShardSpec) -> Self {
        let costs = (0..spec.shard_count())
            .map(|s| {
                spec.range(s)
                    .map(|i| scenario.graph.degree(NodeId(i)) as u64 + 1)
                    .sum()
            })
            .collect();
        Self { costs }
    }

    /// Refresh from a finished round's per-shard built entries and
    /// active-requester counts (`+ 1` keeps empty shards schedulable).
    pub(crate) fn update(&mut self, nnz: &[usize], active: &[usize]) {
        debug_assert_eq!(nnz.len(), self.costs.len());
        debug_assert_eq!(active.len(), self.costs.len());
        for (s, cost) in self.costs.iter_mut().enumerate() {
            *cost = nnz[s] as u64 + active[s] as u64 + 1;
        }
    }

    /// The weights, in shard order.
    pub(crate) fn weights(&self) -> &[u64] {
        &self.costs
    }
}

/// The sharded round engine (see the module docs).
pub struct ShardedRoundEngine {
    core: EngineCore,
    spec: ShardSpec,
    /// Per-shard work estimates for the next round's fan-outs.
    costs: ShardCosts,
}

impl ShardedRoundEngine {
    /// Engine over fresh core state. `config.shard_count == 0` selects
    /// the deterministic auto partition ([`ShardSpec::auto`]).
    pub(crate) fn new(core: EngineCore) -> Self {
        let spec = ShardSpec::configured(core.nodes.len(), core.config.shard_count);
        Self {
            costs: ShardCosts::seed(&core.scenario, spec),
            core,
            spec,
        }
    }
}

impl RoundEngine for ShardedRoundEngine {
    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn run_round(&mut self, round_seed: u64) -> Result<RoundStats, CoreError> {
        let spec = self.spec;
        let core = &mut self.core;
        let scenario = Arc::clone(&core.scenario);
        let n = scenario.graph.node_count();
        core.begin_round();

        // Phases 1 + 2 fused, shard-granular: each shard transacts and
        // estimates its own nodes and freezes its rectangular CSR block
        // in one pass — outcomes go straight into the estimators.
        // Route pending ingest batches to their owning shard; each
        // shard's list stays ascending by requester (the global list
        // is, and shards are contiguous id ranges).
        let mut pending_by_shard: Vec<Vec<RecordBatch>> =
            (0..spec.shard_count()).map(|_| Vec::new()).collect();
        for batch in std::mem::take(&mut core.pending_ingest) {
            pending_by_shard[spec.shard_of(batch.0)].push(batch);
        }
        // Shards own contiguous node ranges, so the flat node vector
        // splits into one disjoint mutable slice per shard.
        let mut nodes = std::mem::take(&mut core.nodes);
        let mut rest = nodes.as_mut_slice();
        let work: Vec<(usize, &mut [NodeState], Vec<RecordBatch>)> = pending_by_shard
            .into_iter()
            .enumerate()
            .map(|(s, pending)| {
                let (shard, tail) = std::mem::take(&mut rest).split_at_mut(spec.rows_in(s));
                rest = tail;
                (s, shard, pending)
            })
            .collect();
        let shared = &*core;
        // Weighted fan-out: last round's cost estimates seed the
        // stealing scheduler heaviest-shard-first; the weights steer
        // only wall-clock (results commit in shard order).
        let estimated: Vec<(CsrStorage, ServiceDelta, usize, Vec<NodeId>)> =
            rayon::map_weighted(work, self.costs.weights(), |(s, shard, pending)| {
                let mut delta = ServiceDelta::default();
                let mut active = 0usize;
                let mut touched = Vec::new();
                let mut builder = CsrBuilder::rectangular(shard.len(), n);
                let mut pending = pending.into_iter().peekable();
                let mut requesters = shared.requesters(spec.range(s), round_seed).peekable();
                for (local, i) in spec.range(s).enumerate() {
                    let requester = NodeId(i);
                    let state = &mut shard[local];
                    let mut folded = false;
                    if requesters.next_if_eq(&requester).is_some() {
                        let d = shared.transact(state, requester, round_seed);
                        // Active counts (a scheduling signal) stay
                        // transact-only.
                        active += d.dirty_rows as usize;
                        folded = d.dirty_rows > 0;
                        delta.merge(d);
                    }
                    let ingest = pending
                        .next_if(|(r, _)| *r == requester)
                        .map(|(_, records)| records)
                        .unwrap_or_default();
                    let (row, emitted) = shared.emit_row(state, requester, &ingest);
                    if folded || emitted {
                        touched.push(requester);
                    }
                    builder
                        .extend_row(NodeId(local as u32), row)
                        .expect("estimator keys are in range");
                }
                (builder.build(), delta, active, touched)
            });
        core.nodes = nodes;

        let mut delta = ServiceDelta::default();
        let mut parts = Vec::with_capacity(spec.shard_count());
        let mut active_counts = Vec::with_capacity(spec.shard_count());
        for (csr, d, active, touched) in estimated {
            delta.merge(d);
            parts.push(csr);
            active_counts.push(active);
            core.marks.mark_all(touched);
        }
        let sharded = ShardedCsr::from_parts(spec, parts).expect("shards built to spec");
        // Refresh the estimates with this round's measured signal; the
        // aggregation fan-out below and next round's transact both
        // schedule on them.
        self.costs
            .update(&sharded.shard_entry_counts(), &active_counts);
        let trust = TrustMatrix::from_sharded(sharded);
        let report_entries = trust.entry_count() as u64;
        let system = ReputationSystem::new(&scenario.graph, trust, scenario.weights)?;

        // Phase 3: aggregate — shard-granular fan-out again; each shard
        // materialises only its observers' runs at a time.
        match core.config.aggregation {
            AggregationMode::ClosedForm => {
                let scope = core.config.scope;
                let (sums, counts) = system
                    .trust()
                    .robust_subject_sums_and_counts(&core.config.defense.robust);
                let agg = SubjectAggregates::new(&sums, &counts, scope);
                let shard_runs: Vec<Vec<Vec<(NodeId, f64)>>> = rayon::map_weighted(
                    (0..spec.shard_count()).collect(),
                    self.costs.weights(),
                    |s| {
                        let mut y_hat = Vec::new();
                        spec.range(s)
                            .map(|i| closed_form_row(&system, NodeId(i), scope, &agg, &mut y_hat))
                            .collect()
                    },
                );
                core.set_runs(shard_runs.into_iter().flatten());
            }
            AggregationMode::Gossip => core.aggregate_by_gossip(&system, round_seed)?,
        }

        // Audit phase + shared round epilogue: summary, whitewash +
        // conviction purge, admission scales, stats.
        Ok(core.finish_round(delta, report_entries, Changed::All, |_, _| {}))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;

    fn tiny_scenario() -> Scenario {
        Scenario::build(RunConfig::with_nodes(24).with_seed(7)).expect("tiny scenario builds")
    }

    #[test]
    fn costs_seed_from_degree_sums() {
        let scenario = tiny_scenario();
        let spec = ShardSpec::new(scenario.graph.node_count(), 4);
        let costs = ShardCosts::seed(&scenario, spec);
        assert_eq!(costs.weights().len(), 4);
        for s in 0..spec.shard_count() {
            let expect: u64 = spec
                .range(s)
                .map(|i| scenario.graph.degree(NodeId(i)) as u64 + 1)
                .sum();
            assert_eq!(costs.weights()[s], expect, "shard {s}");
        }
        // Every shard is schedulable: the +1 per row keeps weights
        // positive wherever a shard owns any rows.
        assert!(costs.weights().iter().all(|&c| c > 0));
    }

    #[test]
    fn costs_update_replaces_seed_with_measured_signal() {
        let scenario = tiny_scenario();
        let spec = ShardSpec::new(scenario.graph.node_count(), 3);
        let mut costs = ShardCosts::seed(&scenario, spec);
        costs.update(&[10, 0, 3], &[4, 0, 1]);
        assert_eq!(costs.weights(), &[15, 1, 5]);
        // Empty shards stay schedulable (non-zero weight).
        assert!(costs.weights().iter().all(|&c| c > 0));
    }

    #[test]
    fn engine_refreshes_costs_each_round() {
        let scenario = Arc::new(tiny_scenario());
        let core = EngineCore::new(Arc::clone(&scenario), scenario.config);
        let mut engine = ShardedRoundEngine::new(core);
        let seeded = engine.costs.clone();
        engine.run_round(41).expect("round runs");
        // After a round the estimates reflect traffic, not topology:
        // nnz + active + 1 is far below the degree-sum seed only by
        // coincidence, so just pin that they were replaced and stay
        // positive.
        assert_eq!(engine.costs.weights().len(), seeded.weights().len());
        assert!(engine.costs.weights().iter().all(|&c| c > 0));
        assert_ne!(engine.costs.weights(), seeded.weights());
    }
}
