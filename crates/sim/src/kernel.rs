//! The shared phase kernel every round engine drives, and the one
//! statement of what an engine *is*.
//!
//! The paper's lifecycle loop — transact, estimate, gossip-aggregate,
//! whitewash — is implemented **once**, here, as engine-agnostic phase
//! primitives over one [`EngineCore`]: the cross-round state (scenario,
//! config, per-node estimators and audit state, aggregated runs, admission
//! scales, queued ingest, round counter) together with everything that
//! is a pure function of it — records / restore, ingest queueing,
//! lookups, totals, the audit phase and the round epilogue. Each round
//! strategy of [`RoundEngine`](crate::engine::RoundEngine) — the
//! sequential oracle, the rebuild round, the delta round — is a
//! `run_round` over an `EngineCore`: it chooses storage layout, parallel
//! granularity and recompute strategy, but every observable number flows
//! through the functions in this module. That is what makes the
//! strategies **bit-for-bit identical by construction** at any thread
//! count, shard count, and traffic shape (pinned by
//! `tests/engine_equivalence.rs`):
//!
//! * `EngineCore::requesters` + `EngineCore::transact` — phase 1 and
//!   the generated half of phase 2: one sweep of the traffic plan's
//!   activity gate yields the round's requesters (active, participating,
//!   not expelled); each of them runs admission control once per edge
//!   against the previous round's aggregated view and draws the admitted
//!   edges' outcomes, on its own per-node ChaCha8 stream
//!   ([`node_stream_seed`]), straight into its per-edge estimators
//!   (`NodeState::observe`) — no per-request record is built;
//! * `NodeState::fold_records` + `NodeState::trust_row` — the rest of
//!   phase 2 for one node: fold the round's *ingested* records after the
//!   generated outcomes, emit the node's (sorted) trust row;
//! * `EngineCore::aggregate` — phase 3 over the whole matrix, in closed
//!   form (`SubjectAggregates`: per-subject report sums under the
//!   robust policy; `closed_form_row`: the weighted Eq. (6) row of one
//!   observer) or by real gossip;
//! * `EngineCore::emit_row` — the report phase for one node: fold, the
//!   adversary strategy's distortion, and (under auditing) the
//!   [`ReportLog`] evidence record — one implementation so the engines'
//!   rows *and* audit evidence are identical by construction;
//! * `run_audit_phase` / `audit_node` — the wash-phase-adjacent audit
//!   phase: deterministic seeded target selection, log
//!   re-verification, k-strikes conviction;
//! * `EngineCore::finish_round` — the audit phase plus the round
//!   epilogue: round summary, the whitewash + conviction purge,
//!   admission-scale refresh, and the [`RoundStats`] assembly. The
//!   per-subject reputation totals behind the summary and the observers'
//!   admission scales are **maintained state** of the core, not
//!   per-round recomputations: the engine says what its aggregation
//!   phase changed (`Changed`) and the epilogue re-sums only those
//!   columns (each one whole, in the full pass's addition order — so the
//!   maintained values are bit-equal to `EngineCore::totals` and
//!   `row_mean` after every round) and refreshes only those rows.
//!   `Changed::All`, a purge round and a restore take the full pass;
//! * `ChangeMarks` — one bit per node, "a round since the last committed
//!   checkpoint changed this record", set by the phases above exactly
//!   where they move a node's persisted bits. A delta checkpoint
//!   encodes the marked nodes' records straight from this state, with
//!   no full extract and no diff.
//!
//! (The phase primitives are crate-private by design — engines are the
//! only drivers — so the items above are named, not linked.)

use crate::rounds::{AggregationMode, AggregationScope, NewcomerPolicy, RoundStats};
use crate::scenario::Scenario;
use crate::session::{check_record, node_from_record, LiveRecord, SessionError};
use crate::workload::ActivityPlan;
use dg_core::algorithms::alg4;
use dg_core::behavior::Behavior;
use dg_core::reputation::ReputationSystem;
use dg_core::CoreError;
use dg_gossip::loss::ChurnModel;
use dg_gossip::node_stream_seed;
use dg_graph::NodeId;
use dg_store::NodeRecord;
use dg_trust::audit::{audit_targets, AuditPolicy, ReportLog};
use dg_trust::prelude::{EwmaEstimator, TransactionOutcome};
use dg_trust::TrustValue;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::sync::Arc;

/// One transaction as a requester reports it through ingest
/// ([`EngineCore::queue_reports`]): which provider it hit and what came
/// back. The round's own traffic builds none — its outcomes are drawn
/// straight into the estimators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransactionRecord {
    /// The provider that was asked.
    pub provider: NodeId,
    /// The outcome the requester observed.
    pub outcome: TransactionOutcome,
}

/// Service counters produced by one requester's transact phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ServiceDelta {
    /// Requests served to honest requesters.
    pub served_honest: u64,
    /// Requests refused to honest requesters.
    pub refused_honest: u64,
    /// Requests served to free riders.
    pub served_free_riders: u64,
    /// Requests refused to free riders.
    pub refused_free_riders: u64,
    /// Requests served to adversarial requesters (any attack role).
    pub served_adversaries: u64,
    /// Requests refused to adversarial requesters.
    pub refused_adversaries: u64,
    /// Requesters that cleared both the participation and the traffic
    /// activity gates this round.
    pub active_requesters: u64,
    /// Requesters that folded at least one transaction outcome — the
    /// observers whose trust rows actually change this round.
    pub dirty_rows: u64,
}

/// Service-statistics class of a requester: adversaries are counted in
/// their own bucket regardless of their service behaviour, so attack
/// extraction is visible separately from plain free riding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RequesterClass {
    Honest,
    FreeRider,
    Adversary,
}

impl ServiceDelta {
    pub(crate) fn merge(&mut self, other: ServiceDelta) {
        self.served_honest += other.served_honest;
        self.refused_honest += other.refused_honest;
        self.served_free_riders += other.served_free_riders;
        self.refused_free_riders += other.refused_free_riders;
        self.served_adversaries += other.served_adversaries;
        self.refused_adversaries += other.refused_adversaries;
        self.active_requesters += other.active_requesters;
        self.dirty_rows += other.dirty_rows;
    }

    fn count(&mut self, class: RequesterClass, served: bool, requests: u64) {
        let slot = match (class, served) {
            (RequesterClass::Honest, true) => &mut self.served_honest,
            (RequesterClass::Honest, false) => &mut self.refused_honest,
            (RequesterClass::FreeRider, true) => &mut self.served_free_riders,
            (RequesterClass::FreeRider, false) => &mut self.refused_free_riders,
            (RequesterClass::Adversary, true) => &mut self.served_adversaries,
            (RequesterClass::Adversary, false) => &mut self.refused_adversaries,
        };
        *slot += requests;
    }
}

/// Per-subject `(Σᵢ t_ij, N_d)` under the robust policy — the
/// closed-form aggregation inputs, borrowed from whoever computed them:
/// [`dg_trust::TrustMatrix::robust_subject_sums_and_counts`] once per
/// round in `O(nnz)`, or the incremental engine's delta-maintained
/// [`dg_trust::SubjectAggregateCache`] (bit-identical by `dg-trust`'s
/// delta proptests).
pub(crate) struct SubjectAggregates<'a> {
    pub sums: &'a [f64],
    pub counts: &'a [usize],
    /// Subjects with `N_d > 0`, ascending — what a full-scope row lists.
    /// Empty in neighbourhood scope, where a row lists the observer's
    /// neighbours instead.
    subjects: Vec<NodeId>,
}

impl<'a> SubjectAggregates<'a> {
    pub(crate) fn new(sums: &'a [f64], counts: &'a [usize], scope: AggregationScope) -> Self {
        let subjects = match scope {
            AggregationScope::Full => counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(j, _)| NodeId(j as u32))
                .collect(),
            AggregationScope::Neighbourhood => Vec::new(),
        };
        Self {
            sums,
            counts,
            subjects,
        }
    }
}

/// Closed-form aggregated-reputation row of one observer (Eq. (6) with
/// the gossiped count), over the scope's subject set in ascending
/// order. `y_hat` is the neighbourhood arm's scratch `ŷ` row, reused
/// across a block of observers (full scope never touches it).
fn closed_form_row(
    system: &ReputationSystem<'_>,
    observer: NodeId,
    scope: AggregationScope,
    agg: &SubjectAggregates<'_>,
    y_hat: &mut Vec<f64>,
) -> Vec<(NodeId, f64)> {
    // The observer's excess weights are the same for every subject:
    // compute them once (their sum IS `neighbour_excess_sum`, same
    // addition order) and sum each `ŷ` from them, halving the
    // trust-matrix lookups of the sweep. Bit-identical to the plain
    // per-subject evaluation.
    let weights: Vec<f64> = system.excess_weights(observer).collect();
    let excess: f64 = weights.iter().sum();
    match scope {
        // Only rated subjects are listed; the formula lives in dg-core.
        AggregationScope::Full => agg
            .subjects
            .iter()
            .filter_map(|&j| {
                let y_hat = system.y_hat_from_weights(observer, &weights, j);
                let (sum, count) = (agg.sums[j.index()], agg.counts[j.index()] as f64);
                let rep = system.gclr_from_y_hat(y_hat, sum, count, excess)?;
                Some((j, rep))
            })
            .collect(),
        AggregationScope::Neighbourhood => {
            y_hat.clear();
            y_hat.resize(weights.len(), 0.0);
            let mut run = Vec::new();
            closed_form_neighbourhood_row_cached(
                system, observer, &weights, excess, agg, y_hat, &mut run,
            );
            run
        }
    }
}

/// [`closed_form_row`] for neighbourhood scope over caller-held state:
/// `weights` / `excess` are the observer's excess weights and their sum
/// (what `closed_form_row` computes for itself), the row is written
/// into `run` (allocation reused), and the `ŷ` of every adjacency slot
/// is left in `y_row` — the incremental engine's per-slot cache, so a
/// freshly rebuilt observer starts its next delta round warm. `ŷ` comes
/// from one [`ReputationSystem::y_hat_row`] pass (the per-subject sums,
/// bit for bit); the slot of a subject nobody rated is set to `NaN`
/// (unknown), and the subject is out of the row. Subjects that are
/// listed go through the shared Eq. (6) tail.
pub(crate) fn closed_form_neighbourhood_row_cached(
    system: &ReputationSystem<'_>,
    observer: NodeId,
    weights: &[f64],
    excess: f64,
    agg: &SubjectAggregates<'_>,
    y_row: &mut [f64],
    run: &mut Vec<(NodeId, f64)>,
) {
    system.y_hat_row(observer, weights, y_row);
    run.clear();
    for (&j, y) in system.graph().neighbours(observer).iter().zip(y_row) {
        let j = NodeId(j);
        let count = agg.counts[j.index()];
        if count == 0 {
            *y = f64::NAN;
            continue;
        }
        if let Some(rep) = system.gclr_from_y_hat(*y, agg.sums[j.index()], count as f64, excess) {
            run.push((j, rep));
        }
    }
}

/// Per-subject mean reputation (over the observers holding a view) from
/// accumulated totals.
fn subject_means(sums: &[f64], cnts: &[usize]) -> Vec<Option<f64>> {
    sums.iter()
        .zip(cnts)
        .map(|(&s, &c)| (c > 0).then(|| s / c as f64))
        .collect()
}

/// Mean of the per-subject means, per behaviour class.
struct ClassMeans {
    /// Honest (non-adversarial, non-free-riding) subjects.
    pub honest: f64,
    /// Plain free riders.
    pub free_riders: f64,
    /// Adversarial subjects (any attack role).
    pub adversaries: f64,
}

/// Population-level reputation summary from per-subject totals: the mean
/// of the per-subject means per class. Adversaries form their own class
/// regardless of service behaviour.
fn class_reputation_means(scenario: &Scenario, sums: &[f64], cnts: &[usize]) -> ClassMeans {
    let (mut rep_h, mut cnt_h) = (0.0, 0usize);
    let (mut rep_f, mut cnt_f) = (0.0, 0usize);
    let (mut rep_a, mut cnt_a) = (0.0, 0usize);
    for subject in scenario.graph.nodes() {
        if cnts[subject.index()] == 0 {
            continue;
        }
        let mean = sums[subject.index()] / cnts[subject.index()] as f64;
        if scenario.adversaries.is_adversary(subject) {
            rep_a += mean;
            cnt_a += 1;
        } else if matches!(
            scenario.population.behavior(subject),
            Behavior::FreeRider { .. }
        ) {
            rep_f += mean;
            cnt_f += 1;
        } else {
            rep_h += mean;
            cnt_h += 1;
        }
    }
    let mean = |rep: f64, cnt: usize| if cnt > 0 { rep / cnt as f64 } else { 0.0 };
    ClassMeans {
        honest: mean(rep_h, cnt_h),
        free_riders: mean(rep_f, cnt_f),
        adversaries: mean(rep_a, cnt_a),
    }
}

/// Mean absolute error between honest subjects' network-wide mean
/// reputation and their latent quality — the residual the attack matrix
/// gates on (`None` until any honest subject has been aggregated).
fn honest_residual_error(scenario: &Scenario, sums: &[f64], cnts: &[usize]) -> Option<f64> {
    let qualities = scenario.population.latent_qualities();
    let (mut err, mut count) = (0.0, 0usize);
    for subject in scenario.graph.nodes() {
        if cnts[subject.index()] == 0
            || scenario.adversaries.is_adversary(subject)
            || !matches!(
                scenario.population.behavior(subject),
                Behavior::Honest { .. }
            )
        {
            continue;
        }
        let mean = sums[subject.index()] / cnts[subject.index()] as f64;
        err += (mean - qualities[subject.index()]).abs();
        count += 1;
    }
    (count > 0).then(|| err / count as f64)
}

/// `subject`'s reputation in one observer's sorted run, if listed.
fn run_value(run: &[(NodeId, f64)], subject: NodeId) -> Option<f64> {
    run.binary_search_by_key(&subject, |&(j, _)| j)
        .ok()
        .map(|at| run[at].1)
}

/// Mean of one observer's aggregated row (its admission scale), `None`
/// for an empty row. Generic over the id type so a stored record's run
/// is checked by the same sum.
pub(crate) fn row_mean<Id>(run: &[(Id, f64)]) -> Option<f64> {
    if run.is_empty() {
        return None;
    }
    Some(run.iter().map(|&(_, rep)| rep).sum::<f64>() / run.len() as f64)
}

/// Per-subject `(Σ rep, #observers)` over `aggregated`, from scratch
/// into `sums` / `counts`. Row-major accumulation keeps the f64
/// addition order fixed (ascending observer, then subject), so the
/// result is engine- and thread-count-independent.
fn accumulate_totals(aggregated: &[Vec<(NodeId, f64)>], sums: &mut [f64], counts: &mut [usize]) {
    sums.fill(0.0);
    counts.fill(0);
    for &(subject, rep) in aggregated.iter().flatten() {
        sums[subject.index()] += rep;
        counts[subject.index()] += 1;
    }
}

/// What a round's aggregation phase changed in `EngineCore::aggregated`
/// — how [`EngineCore::finish_round`] brings the maintained per-subject
/// totals and observer means up to date.
pub(crate) enum Changed<'a> {
    /// Any run may have changed: one full pass.
    All,
    /// Neighbourhood scope only (a subject's holders are then among its
    /// overlay neighbours): exactly the runs of `rows` were edited, and
    /// every edited, added or dropped entry is about a subject in
    /// `columns`. Both ascending, no duplicates.
    Frontier {
        rows: &'a [NodeId],
        columns: &'a [NodeId],
    },
}

/// The RNG stream of the aggregation phase (distinct from every node
/// stream: node ids are `< N ≤ u32::MAX`).
fn aggregation_rng(round_seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(node_stream_seed(round_seed, u32::MAX))
}

/// Merge newly-queued ingest batches into a pending list — the body of
/// [`EngineCore::queue_reports`]. Both sides are ascending by requester
/// with no empty batches; records for an already-pending requester
/// append after the earlier ones, so two `queue_reports` calls before a
/// round equal one concatenated call.
pub(crate) fn merge_pending(
    pending: &mut Vec<(NodeId, Vec<TransactionRecord>)>,
    batches: Vec<(NodeId, Vec<TransactionRecord>)>,
) {
    debug_assert!(batches.windows(2).all(|w| w[0].0 < w[1].0));
    debug_assert!(batches.iter().all(|(_, recs)| !recs.is_empty()));
    if pending.is_empty() {
        *pending = batches;
        return;
    }
    let old = std::mem::take(pending);
    let mut out = Vec::with_capacity(old.len() + batches.len());
    let mut a = old.into_iter().peekable();
    let mut b = batches.into_iter().peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some((ra, _)), Some((rb, _))) => match ra.cmp(rb) {
                std::cmp::Ordering::Less => out.push(a.next().expect("peeked")),
                std::cmp::Ordering::Greater => out.push(b.next().expect("peeked")),
                std::cmp::Ordering::Equal => {
                    let mut batch = a.next().expect("peeked");
                    batch.1.extend(b.next().expect("peeked").1);
                    out.push(batch);
                }
            },
            (Some(_), None) => out.push(a.next().expect("peeked")),
            (None, Some(_)) => out.push(b.next().expect("peeked")),
            (None, None) => break,
        }
    }
    *pending = out;
}

/// Per-node mutable state of the record-folding engines. Together with
/// the node's aggregated run (`EngineCore::aggregated`, what admission
/// reads) this is the paper's Section 3 reputation table.
#[derive(Default)]
pub(crate) struct NodeState {
    /// Per-provider estimators (the requester's view of each provider:
    /// local trust `t_ij` and the first-hand transaction count), one
    /// run strictly ascending by provider.
    pub(crate) estimators: Vec<(NodeId, EwmaEstimator)>,
    /// Recorded report evidence for audit re-verification (empty while
    /// auditing is off — zero-rate runs carry no extra state).
    pub(crate) log: ReportLog,
    /// Audit strikes accumulated across rounds.
    pub(crate) strikes: u32,
    /// Round this node was convicted in, if any. A conviction is a
    /// permanent ban: it survives the purge, so the identity cannot
    /// whitewash its way back in and re-accumulate bias.
    pub(crate) convicted_at: Option<u64>,
}

impl NodeState {
    /// This node's estimator of `provider`, if it has one.
    pub(crate) fn estimator(&self, provider: NodeId) -> Option<&EwmaEstimator> {
        let i = self.estimators.binary_search_by_key(&provider, |&(j, _)| j);
        i.ok().map(|i| &self.estimators[i].1)
    }

    /// This node's estimator of `provider`; a provider it never rated
    /// gets a fresh one at `ewma_rate`, inserted where the run keeps
    /// its order.
    pub(crate) fn estimator_mut(&mut self, provider: NodeId, ewma_rate: f64) -> &mut EwmaEstimator {
        let i = match self.estimators.binary_search_by_key(&provider, |&(j, _)| j) {
            Ok(i) => i,
            Err(i) => {
                let fresh = (provider, EwmaEstimator::new(ewma_rate));
                self.estimators.insert(i, fresh);
                i
            }
        };
        &mut self.estimators[i].1
    }

    /// Drop every trace of the purged identities from this node's view
    /// (their subjects were washed or convicted); whether any went.
    pub(crate) fn forget(&mut self, purged: &[NodeId]) -> bool {
        let before = self.estimators.len();
        self.estimators
            .retain(|(j, _)| purged.binary_search(j).is_err());
        self.estimators.len() != before
    }

    /// Reset this node's own identity state (it washed or was
    /// convicted). The conviction ban (`convicted_at`) survives — only
    /// a whitewasher's reset is a fresh start.
    pub(crate) fn reset_identity(&mut self) {
        self.estimators.clear();
        self.log.clear();
        self.strikes = 0;
    }

    /// Draw `requests` outcomes of `provider`'s `behavior` from `rng`
    /// straight into this node's estimator of the provider — the
    /// estimate-phase kernel for generated traffic, shared by every
    /// engine's transact phase and the `TrustSource::Workload` scenario
    /// bootstrap so their math and stream consumption are identical by
    /// construction. One estimator per edge, no record per request; zero
    /// requests create no estimator.
    pub(crate) fn observe<R: Rng + ?Sized>(
        &mut self,
        provider: NodeId,
        behavior: Behavior,
        requests: u32,
        ewma_rate: f64,
        rng: &mut R,
    ) {
        if requests == 0 {
            return;
        }
        let estimator = self.estimator_mut(provider, ewma_rate);
        for _ in 0..requests {
            estimator.record(behavior.sample_outcome(rng));
        }
    }

    /// Fold transaction records into the estimators one at a time, in
    /// order — the path of ingested reports. Every record moves its
    /// estimator's count, so the state changes exactly when `records`
    /// is non-empty.
    pub(crate) fn fold_records(&mut self, records: &[TransactionRecord], ewma_rate: f64) {
        for rec in records {
            self.estimator_mut(rec.provider, ewma_rate)
                .record(rec.outcome);
        }
    }

    /// The node's trust row, ascending by provider.
    pub(crate) fn trust_row(&self) -> Vec<(NodeId, TrustValue)> {
        self.estimators
            .iter()
            .map(|&(j, est)| (j, est.estimate()))
            .collect()
    }
}

/// Outcome of one round's audit phase.
#[derive(Debug, Clone, Default, PartialEq)]
struct AuditOutcome {
    /// Audits actually performed (already-convicted targets are skipped
    /// and cost no bandwidth).
    pub audits: u64,
    /// Strikes issued across this round's audits.
    pub strikes: u64,
    /// Audit bandwidth in report-entry units: one envelope per audit
    /// plus one unit per re-verified log entry.
    pub entries: u64,
    /// Nodes newly convicted this round, ascending.
    pub convicted: Vec<NodeId>,
}

/// The audit phase over the node states: each of the round's `targets`
/// (the deterministic `(seed, round)` selection) has its most recent
/// log entries re-verified against their implied values, accumulates
/// strikes, and is convicted at the policy's k-strikes threshold. A
/// target that took a strike is marked in `marks`.
fn run_audit_phase(
    policy: &AuditPolicy,
    round: u64,
    targets: &[NodeId],
    states: &mut [NodeState],
    marks: &mut ChangeMarks,
) -> AuditOutcome {
    let mut out = AuditOutcome::default();
    for &target in targets {
        let state = &mut states[target.index()];
        if state.convicted_at.is_some() {
            continue;
        }
        let checked = state.log.recent(policy.checks_per_audit);
        out.audits += 1;
        out.entries += checked.len() as u64 + 1;
        let strikes = checked.iter().filter(|e| policy.entry_fails(e)).count() as u32;
        state.strikes += strikes;
        out.strikes += strikes as u64;
        if strikes > 0 {
            marks.mark(target);
        }
        // A conviction purges the target, and the purge marks it.
        if state.strikes >= policy.strikes_to_convict {
            state.convicted_at = Some(round);
            out.convicted.push(target);
        }
    }
    out
}

/// Bitwise equality of two aggregated runs.
pub(crate) fn runs_bits_eq(a: &[(NodeId, f64)], b: &[(NodeId, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// One bit per node: "a round since the last committed checkpoint
/// changed this node's record" — what a delta checkpoint writes. A mark
/// is set where a round moves a node's persisted bits (estimators,
/// audit state, aggregated run; the observer mean is its run's
/// `row_mean` and moves with it), not where code merely runs over the
/// node. After one round the marked nodes are exactly those
/// `dg_store::changed` finds between the records before and after it;
/// after several, the union of those sets — which may include a node a
/// later round returned to its committed bits.
#[derive(Debug, Default)]
pub(crate) struct ChangeMarks {
    words: Vec<u64>,
}

impl ChangeMarks {
    fn new(nodes: usize) -> Self {
        Self {
            words: vec![0; nodes.div_ceil(64)],
        }
    }

    pub(crate) fn mark(&mut self, node: NodeId) {
        self.words[node.index() / 64] |= 1 << (node.index() % 64);
    }

    fn unmark(&mut self, node: NodeId) {
        self.words[node.index() / 64] &= !(1 << (node.index() % 64));
    }

    fn is_marked(&self, node: NodeId) -> bool {
        self.words[node.index() / 64] & (1 << (node.index() % 64)) != 0
    }

    pub(crate) fn mark_all(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        for node in nodes {
            self.mark(node);
        }
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The marked nodes, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = NodeId> + Clone + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    NodeId(w as u32 * 64 + bit)
                })
            })
        })
    }
}

/// What [`EngineCore::begin_round`] settles before a round writes
/// anything: the round's audit targets, and the pre-round records a
/// purge at its end is settled against.
///
/// Every other write of a round moves bits one way — counts grow, logs
/// and strikes advance, a run is compared before it is replaced — so
/// the mark it sets is a real change. A purge marks every node it
/// touches, but it removes everything about the purged identities,
/// including what the round itself just added (a first estimator of a
/// whitewasher, a run entry for a subject rated for the first time),
/// and resets the purged identities, which may have been blank already.
/// Only a node that can come to hold something about a purge candidate
/// this round — an *exposed* node — can be returned to the bits it
/// started the round with; every other node the purge touches lost
/// something it held before. So the record of each exposed node that is
/// not yet marked is kept here, and a purge round unmarks it again if
/// the node ends the round back at those bits. A node already marked
/// stays marked whatever the round does.
struct RoundOpening {
    audit_targets: Vec<NodeId>,
    unmarked_exposed: Vec<(NodeId, NodeRecord)>,
    /// The ingest records queued when the round opened.
    ingested_reports: u64,
}

/// What a round engine is: the cross-round state of a run plus
/// everything that is a pure function of it. The engine
/// ([`RoundEngine`](crate::engine::RoundEngine)) owns one `EngineCore`
/// and adds only its round strategy (and whatever acceleration state
/// that strategy derives — never anything a checkpoint needs).
pub struct EngineCore {
    pub(crate) scenario: Arc<Scenario>,
    pub(crate) plan: ActivityPlan,
    /// Per-node estimators and audit state, indexed by node id.
    pub(crate) nodes: Vec<NodeState>,
    /// `aggregated[observer]` — sorted `(subject, reputation)` run.
    pub(crate) aggregated: Vec<Vec<(NodeId, f64)>>,
    /// Mean aggregated reputation per observer (admission scale):
    /// [`row_mean`] of the observer's run as of the last round epilogue.
    pub(crate) observer_mean: Vec<Option<f64>>,
    /// Per-subject `(Σ rep, #observers)` over `aggregated` — bit-equal
    /// to [`Self::totals`] between rounds, maintained by
    /// [`Self::finish_round`] from what the round changed.
    pub(crate) rep_sums: Vec<f64>,
    pub(crate) rep_counts: Vec<usize>,
    /// `banned[i]` — node `i` is convicted (expelled): it neither
    /// requests nor serves. Set at conviction and on restore.
    pub(crate) banned: Vec<bool>,
    /// Ingested report batches for the next round (see
    /// [`Self::queue_reports`]): ascending by requester.
    pub(crate) pending_ingest: Vec<(NodeId, Vec<TransactionRecord>)>,
    pub(crate) round: usize,
    /// Nodes whose record a round changed since the last committed
    /// checkpoint (or restore): set by every phase that writes persisted
    /// state (settled against pre-round records where a purge ran),
    /// cleared only by [`Self::commit_marks`] and [`Self::restore`].
    pub(crate) marks: ChangeMarks,
    /// Set by [`Self::begin_round`], consumed by [`Self::finish_round`].
    opening: Option<RoundOpening>,
}

impl EngineCore {
    /// Fresh state over a scenario, at round 0.
    pub(crate) fn new(scenario: Arc<Scenario>) -> Self {
        let n = scenario.graph.node_count();
        Self {
            plan: ActivityPlan::new(scenario.config.traffic, n),
            scenario,
            nodes: (0..n).map(|_| NodeState::default()).collect(),
            aggregated: vec![Vec::new(); n],
            observer_mean: vec![None; n],
            rep_sums: vec![0.0; n],
            rep_counts: vec![0; n],
            banned: vec![false; n],
            pending_ingest: Vec::new(),
            round: 0,
            marks: ChangeMarks::new(n),
            opening: None,
        }
    }

    /// Queue externally-ingested transaction reports for the *next*
    /// round: `batches` maps each reporting requester to the records it
    /// submitted, sorted ascending by requester with no empty batches
    /// (the serve layer normalises submissions into this shape). During
    /// the next `run_round`, each batch is folded after the requester's
    /// generated outcomes — in exactly this order on every engine, so
    /// ingest-carrying rounds stay bit-identical across engines and
    /// across replays of the same log. Ingested records
    /// fold into estimators and reports; the service-delta stats
    /// (served/refused counts, active nodes, dirty fraction) remain
    /// transact-phase-only.
    pub fn queue_reports(&mut self, batches: Vec<(NodeId, Vec<TransactionRecord>)>) {
        merge_pending(&mut self.pending_ingest, batches);
    }

    /// The index of the next round to run (0 before the first round).
    pub fn round(&self) -> usize {
        self.round
    }

    /// The aggregated reputation of `subject` at `observer`, if any
    /// aggregation round has run (and the pair is in scope) — a binary
    /// search in the observer's sorted run; also the admission-control
    /// read of the transact phase.
    pub fn aggregated(&self, observer: NodeId, subject: NodeId) -> Option<f64> {
        run_value(self.aggregated.get(observer.index())?, subject)
    }

    /// Per-subject `(Σ rep, #observers)` over the stored aggregated rows,
    /// recomputed from scratch (the engines themselves keep these totals
    /// up to date round by round; this is the pass they are pinned to).
    pub fn totals(&self) -> (Vec<f64>, Vec<usize>) {
        let n = self.aggregated.len();
        let (mut sums, mut counts) = (vec![0.0f64; n], vec![0usize; n]);
        accumulate_totals(&self.aggregated, &mut sums, &mut counts);
        (sums, counts)
    }

    /// Each subject's mean aggregated reputation over the observers
    /// currently holding a view (`None` for unaggregated subjects).
    pub fn subject_mean_reputations(&self) -> Vec<Option<f64>> {
        subject_means(&self.rep_sums, &self.rep_counts)
    }

    /// Mean absolute error between honest subjects' network-wide mean
    /// aggregated reputation and their latent quality (the claims-gate
    /// metric). A *diagnostic* residual: Eq. (6) deflates estimates
    /// observer-dependently, so even honest runs keep a systematic
    /// offset — compare runs against each other
    /// ([`Self::subject_mean_reputations`]) to isolate what an attack
    /// moved. `None` before the first aggregation round.
    pub fn honest_residual(&self) -> Option<f64> {
        honest_residual_error(&self.scenario, &self.rep_sums, &self.rep_counts)
    }

    /// Nodes convicted by the audit subsystem so far, with their
    /// conviction rounds, ascending by node (empty while auditing is
    /// off).
    pub fn convicted(&self) -> Vec<(NodeId, u64)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.convicted_at.map(|r| (NodeId(i as u32), r)))
            .collect()
    }

    /// The cross-round state written down, one record per node: exactly
    /// what must survive a restart for the continuation to be
    /// bit-identical, and the same on every engine. Derived state — the
    /// trust matrix, subject-aggregate caches, the incremental engine's
    /// dirty sets — is deliberately absent; engines rebuild it from the
    /// estimators on the first resumed round.
    pub fn records(&self) -> Vec<NodeRecord> {
        (0..self.nodes.len() as u32)
            .map(|i| self.record(NodeId(i)))
            .collect()
    }

    /// One node's entry of [`Self::records`].
    pub(crate) fn record(&self, node: NodeId) -> NodeRecord {
        NodeRecord::from_view(&self.live_record(node))
    }

    /// One node's record read in place, for a checkpoint to encode.
    pub(crate) fn live_record(&self, node: NodeId) -> LiveRecord<'_> {
        let i = node.index();
        LiveRecord {
            node: node.0,
            state: &self.nodes[i],
            run: &self.aggregated[i],
            mean: self.observer_mean[i],
        }
    }

    /// The records of the nodes marked since the last commit,
    /// ascending, read in place — a delta checkpoint's content.
    pub(crate) fn marked_records(&self) -> impl Iterator<Item = LiveRecord<'_>> + Clone + '_ {
        self.marks.iter().map(|node| self.live_record(node))
    }

    /// The state is committed: nothing has changed since.
    pub(crate) fn commit_marks(&mut self) {
        self.marks.clear();
    }

    /// Replace the cross-round state with `records` (dense: record `i`
    /// describes node `i`), about to run `round`, in place. Every record
    /// is checked before anything changes, so a refusal leaves the state
    /// as it was. Then each record is copied into fresh allocations in
    /// node order, and the records are freed once all are copied: the
    /// restore holds the records and one engine state, never a second
    /// copy of either. (Freeing each record as soon as it is copied
    /// hands its holes to the next node's allocations, which scatters
    /// the restored state across the records' old addresses: at
    /// N = 500,000 on a 2-vCPU host, the delta checkpoints after such a
    /// resume ran about 20% slower.)
    /// Queued ingest batches survive; the change marks clear — the
    /// restored records are the baseline the next delta is taken
    /// against. The engine goes through
    /// [`RoundEngine::restore`](crate::engine::RoundEngine::restore),
    /// which also resets the delta round's derived state.
    pub(crate) fn restore(
        &mut self,
        round: usize,
        records: Vec<NodeRecord>,
    ) -> Result<(), SessionError> {
        let n = self.nodes.len();
        if records.len() != n {
            return Err(SessionError::Snapshot {
                reason: format!("{} node records for a scenario of {n} nodes", records.len()),
            });
        }
        for (i, record) in records.iter().enumerate() {
            check_record(i, record, n)?;
        }
        for (i, record) in records.iter().enumerate() {
            let (state, run, mean) = node_from_record(record);
            self.banned[i] = state.convicted_at.is_some();
            self.nodes[i] = state;
            self.aggregated[i] = run;
            self.observer_mean[i] = mean;
        }
        drop(records);
        accumulate_totals(&self.aggregated, &mut self.rep_sums, &mut self.rep_counts);
        self.round = round;
        self.marks.clear();
        Ok(())
    }

    /// Open a round before any phase writes state — every engine's
    /// `run_round` starts here, and [`Self::finish_round`] consumes what
    /// it settles (`RoundOpening`): the round's audit targets, and the
    /// pre-round records of the unmarked nodes a purge could return to
    /// those bits. Those are the purge candidates — every whitewasher,
    /// and every unconvicted target whose audit could reach the
    /// conviction threshold — and whoever can come to hold anything
    /// about them this round: in closed-form neighbourhood scope their
    /// neighbours (generated traffic and runs follow edges) and the
    /// queued ingest reporters naming them; under any other aggregation,
    /// everyone. Runs without whitewashers or convictable targets expose
    /// nobody, and a node already marked needs no copy.
    pub(crate) fn begin_round(&mut self) {
        let (policy, n) = (self.scenario.config.audit, self.nodes.len());
        let audit_targets = if policy.enabled() {
            let seed = self.scenario.config.seed;
            audit_targets(seed, self.round as u64, n, policy.audit_rate)
        } else {
            Vec::new()
        };
        let convictable = audit_targets.iter().copied().filter(|t| {
            let state = &self.nodes[t.index()];
            state.convicted_at.is_none()
                && u64::from(state.strikes) + policy.checks_per_audit as u64
                    >= u64::from(policy.strikes_to_convict)
        });
        let mut candidates: Vec<NodeId> = self.scenario.adversaries.washers().to_vec();
        candidates.extend(convictable);
        candidates.sort_unstable();
        candidates.dedup();
        let exposed: Vec<NodeId> = if candidates.is_empty() {
            Vec::new()
        } else if self.scenario.config.is_closed_form_neighbourhood() {
            let graph = &self.scenario.graph;
            let mut exposed = candidates.clone();
            for &w in &candidates {
                exposed.extend(graph.neighbours(w).iter().map(|&o| NodeId(o)));
            }
            let names_candidate = |records: &[TransactionRecord]| {
                records
                    .iter()
                    .any(|r| candidates.binary_search(&r.provider).is_ok())
            };
            exposed.extend(
                self.pending_ingest
                    .iter()
                    .filter(|(_, records)| names_candidate(records))
                    .map(|&(reporter, _)| reporter),
            );
            exposed.sort_unstable();
            exposed.dedup();
            exposed
        } else {
            (0..n as u32).map(NodeId).collect()
        };
        let unmarked_exposed = exposed
            .into_iter()
            .filter(|&o| !self.marks.is_marked(o))
            .map(|o| (o, self.record(o)))
            .collect();
        let ingested = self
            .pending_ingest
            .iter()
            .map(|(_, records)| records.len() as u64);
        self.opening = Some(RoundOpening {
            audit_targets,
            unmarked_exposed,
            ingested_reports: ingested.sum(),
        });
    }

    /// The requesters of `range` that transact this round, ascending:
    /// active under the traffic plan (inactive requesters still *serve*
    /// — only their requester side goes quiet), participating (dormant
    /// sybil identities have not joined the network yet) and not
    /// expelled. All three are pure functions of `(node, round, seed)`
    /// and the conviction record — no randomness is consumed, so the set
    /// is engine- and thread-count-independent, and every engine calls
    /// [`Self::transact`] for exactly these.
    pub(crate) fn requesters(
        &self,
        range: std::ops::Range<u32>,
        round_seed: u64,
    ) -> impl Iterator<Item = NodeId> + '_ {
        let round = self.round as u64;
        self.plan
            .active_in(range, round, round_seed)
            .filter(move |&i| {
                !self.banned[i.index()] && self.scenario.adversaries.participates(i, round)
            })
    }

    /// Phase 1 + the generated half of phase 2 for one of this round's
    /// [`requesters`](Self::requesters): run its transactions against
    /// every neighbour on the requester's own ChaCha8 stream for the
    /// round, drawing each admitted edge's outcomes straight into
    /// `state` (the requester's entry of [`Self::nodes`], held mutably by
    /// the engine while the rest of the core is read). Returns the
    /// requester's service counters; `dirty_rows` is 1 exactly when an
    /// outcome was folded.
    ///
    /// Admission reads the *previous* round's aggregated reputation at
    /// the provider against `observer_mean[provider]`, the provider's
    /// admission scale — state no request of this round changes, so it
    /// is decided once per edge and covers all `requests_per_edge`
    /// requests along it. Outcomes are drawn edge by edge in adjacency
    /// order, request by request: the stream, and the order each
    /// estimator sees its outcomes, are those of issuing the requests
    /// one at a time.
    ///
    /// Shared by every engine so their math and RNG consumption are
    /// identical by construction. The gates consume no randomness, so
    /// under the full traffic model nothing changes, and under a thinned
    /// model active nodes still consume exactly their legacy streams.
    pub(crate) fn transact(
        &self,
        state: &mut NodeState,
        requester: NodeId,
        round_seed: u64,
    ) -> ServiceDelta {
        let mut rng = ChaCha8Rng::seed_from_u64(node_stream_seed(round_seed, requester.0));
        self.transact_on(state, requester, &mut rng)
    }

    /// [`Self::transact`] on a caller-held stream.
    fn transact_on(
        &self,
        state: &mut NodeState,
        requester: NodeId,
        rng: &mut ChaCha8Rng,
    ) -> ServiceDelta {
        let (scenario, config, round) = (&*self.scenario, &self.scenario.config, self.round as u64);
        let banned = &self.banned;
        let population = &scenario.population;
        let class = if scenario.adversaries.is_adversary(requester) {
            RequesterClass::Adversary
        } else if matches!(population.behavior(requester), Behavior::FreeRider { .. }) {
            RequesterClass::FreeRider
        } else {
            RequesterClass::Honest
        };
        let requests = config.requests_per_edge;
        let mut delta = ServiceDelta {
            active_requesters: 1,
            ..ServiceDelta::default()
        };
        for &provider in scenario.graph.neighbours(requester) {
            let provider = NodeId(provider);
            if banned[provider.index()] || !scenario.adversaries.participates(provider, round) {
                continue;
            }
            let admitted = match (
                self.aggregated(provider, requester),
                self.observer_mean[provider.index()],
            ) {
                (Some(r), Some(mean)) => r >= config.admission_threshold * mean,
                // The provider aggregates opinions but holds none about
                // this requester: a stranger. The paper's anti-whitewash
                // zero prior refuses strangers; the optimistic default
                // serves them (the honeymoon whitewashers farm).
                (None, Some(_)) => config.defense.newcomer == NewcomerPolicy::Optimistic,
                // No aggregation yet at this provider: serve everyone.
                _ => true,
            };
            delta.count(class, admitted, u64::from(requests));
            if admitted && requests > 0 {
                // The requester observes the provider's behaviour.
                let behavior = population.behavior(provider);
                state.observe(provider, behavior, requests, config.ewma_rate, rng);
                delta.dirty_rows = 1;
            }
        }
        delta
    }

    /// The report phase for one node: fold the round's `ingest` records
    /// (after the outcomes [`Self::transact`] drew, so each estimator
    /// sees the generated outcomes first — the one order every engine
    /// reproduces), pass the row through the node's adversary strategy,
    /// and — when auditing is enabled — record every emitted report in
    /// the node's [`ReportLog`] alongside the estimator-implied value at
    /// emit time (`None` = the report has no backing estimator, i.e. it
    /// was fabricated). Honest rows come straight from the estimators,
    /// so their reported and implied values are bit-equal — the
    /// structural guarantee behind the zero-false-positive claim.
    ///
    /// Convicted nodes are banned: they emit nothing (their stale matrix
    /// row was scrubbed by the conviction purge) and their recorded
    /// evidence stays frozen.
    ///
    /// One implementation shared by every engine, so the emitted rows AND
    /// the audit evidence are identical by construction. The log record is
    /// content-conditional ([`ReportLog::record`]), which is what lets the
    /// incremental engine skip bitwise-unchanged rows entirely and still
    /// agree with the engines that re-emit everything each round.
    ///
    /// `state` is `node`'s entry of [`Self::nodes`], which the engine
    /// holds mutably while the rest of the core is read. Returns the
    /// row and whether `state` changed (ingest folded, or the log
    /// edited) — the engine marks the node when it did.
    pub(crate) fn emit_row(
        &self,
        state: &mut NodeState,
        node: NodeId,
        ingest: &[TransactionRecord],
    ) -> (Vec<(NodeId, TrustValue)>, bool) {
        if state.convicted_at.is_some() {
            return (Vec::new(), false);
        }
        let (config, round) = (&self.scenario.config, self.round as u64);
        state.fold_records(ingest, config.ewma_rate);
        let mut changed = !ingest.is_empty();
        let mut row = state.trust_row();
        self.scenario.adversaries.distort_row(node, round, &mut row);
        if config.audit.enabled() {
            for &(subject, reported) in &row {
                let implied = state.estimator(subject).map(|est| est.estimate().get());
                changed |= state.log.record(
                    subject,
                    round,
                    reported.get(),
                    implied,
                    config.audit.log_capacity,
                );
            }
        }
        (row, changed)
    }

    /// Phase 3 over this round's whole trust matrix — the oracle's and
    /// the rebuild round's. In closed form: the per-subject sums under
    /// the robust policy, then every observer's `closed_form_row`,
    /// fanned out over contiguous blocks of observers on the ambient
    /// pool, each block reusing one `ŷ` scratch row. By gossip: a real
    /// Variation-4 run, whole — gossip epidemics have no per-subject
    /// sparsity to exploit. Every observer whose run moves bitwise is
    /// marked.
    pub(crate) fn aggregate(
        &mut self,
        system: &ReputationSystem<'_>,
        round_seed: u64,
    ) -> Result<(), CoreError> {
        let config = &self.scenario.config;
        let n = self.aggregated.len() as u32;
        let blocks: Vec<Vec<Vec<(NodeId, f64)>>> = match config.aggregation {
            AggregationMode::ClosedForm => {
                let robust = &config.defense.robust;
                let (sums, counts) = system.trust().robust_subject_sums_and_counts(robust);
                let agg = SubjectAggregates::new(&sums, &counts, config.scope);
                // Eight blocks per worker: enough to balance a
                // thousand-node network over the pool, few enough that
                // the blocks' scratch rows and run lists cost nothing.
                let len = n.div_ceil(8 * rayon::current_num_threads() as u32).max(1);
                (0..n)
                    .step_by(len as usize)
                    .into_par_iter()
                    .map(|first| {
                        let mut y_hat = Vec::new();
                        let block = first..n.min(first + len);
                        let row =
                            |i| closed_form_row(system, NodeId(i), config.scope, &agg, &mut y_hat);
                        block.map(row).collect()
                    })
                    .collect()
            }
            AggregationMode::Gossip => {
                // Round-loop membership is the population: departures in
                // rounds are parked, so the gossip runs over the full
                // membership and the profile's churn is cleared here.
                let gossip = config.gossip_config().with_churn(ChurnModel::none());
                let rng = &mut aggregation_rng(round_seed);
                let out = alg4::run(system, gossip.validated()?, rng)?;
                let runs = out.estimates.into_iter();
                vec![runs
                    .map(|row| row.into_iter().map(|(j, r)| (NodeId(j), r)).collect())
                    .collect()]
            }
        };
        let total: usize = blocks.iter().map(Vec::len).sum();
        debug_assert_eq!(total, n as usize, "one run per observer");
        let runs = blocks.into_iter().flatten();
        for ((i, run), new) in (0u32..).zip(&mut self.aggregated).zip(runs) {
            if !runs_bits_eq(run, &new) {
                self.marks.mark(NodeId(i));
            }
            *run = new;
        }
        Ok(())
    }

    /// The audit phase and the shared round epilogue of every engine:
    /// re-verify the deterministic audit targets of `(seed, round)`,
    /// bring the per-subject totals up to date with what the aggregation
    /// phase `changed`, summarise the round, run the whitewash phase
    /// (washers whose mean reputation collapsed discard their identity)
    /// merged with the audit phase's convictions into one purge (every
    /// node forgets the purged identities, which reset their own, and
    /// every run is scrubbed of them; `on_purge` then hears the purged
    /// ids and the nodes whose estimators the purge shrank, for engines
    /// that keep derived state over them) — then
    /// refresh the observers' admission scales (post-purge, so the next
    /// round treats a fresh identity as a stranger), assemble the
    /// [`RoundStats`] and advance the round counter. One implementation
    /// so the engines cannot drift apart — like the phase kernels above,
    /// this keeps them identical by construction.
    ///
    /// Totals and observer means are *maintained*, never approximated:
    /// under [`Changed::Frontier`] each dirty column is re-summed whole
    /// over the subject's neighbours in ascending observer order — the
    /// additions [`Self::totals`] performs for that subject, in its
    /// order — and only the edited rows' means are refreshed, so a
    /// steady-state round costs its frontier. [`Changed::All`] and every
    /// purge round (whose scrub walks all runs anyway) take one full
    /// pass. A strike marks its target; the purge marks every node it
    /// touches, then unmarks each exposed node that was unmarked and is
    /// back at its pre-round record (`RoundOpening`); a refreshed mean
    /// needs no mark of its own, since it moves only with its run.
    ///
    /// `report_entries` is the round's report traffic (trust-matrix entry
    /// count after the report phase) — the denominator of the
    /// audit-overhead claim.
    pub(crate) fn finish_round(
        &mut self,
        delta: ServiceDelta,
        report_entries: u64,
        changed: Changed<'_>,
        on_purge: impl FnOnce(&[NodeId], &[NodeId]),
    ) -> RoundStats {
        let scenario = Arc::clone(&self.scenario);
        let opening = self
            .opening
            .take()
            .expect("every round opens with `begin_round`");
        let audit = run_audit_phase(
            &self.scenario.config.audit,
            self.round as u64,
            &opening.audit_targets,
            &mut self.nodes,
            &mut self.marks,
        );
        for &convict in &audit.convicted {
            self.banned[convict.index()] = true;
        }
        let aggregated = &mut self.aggregated;
        let (sums, counts) = (&mut self.rep_sums, &mut self.rep_counts);
        match changed {
            Changed::All => accumulate_totals(aggregated, sums, counts),
            Changed::Frontier { columns, .. } => {
                for &j in columns {
                    let (mut sum, mut count) = (0.0f64, 0usize);
                    for &o in scenario.graph.neighbours(j) {
                        if let Some(rep) = run_value(&aggregated[o as usize], j) {
                            sum += rep;
                            count += 1;
                        }
                    }
                    sums[j.index()] = sum;
                    counts[j.index()] = count;
                }
            }
        }
        let n = aggregated.len();
        let means = class_reputation_means(&scenario, sums, counts);
        // Sorted, so every membership test below (and in `on_purge`) is
        // a binary search — the purge stays
        // `O(entries × log washed)` when a large mix washes thousands of
        // identities at million-node scale. Removals are set operations,
        // so ordering cannot change the result.
        let mut washed = scenario.adversaries.washes(|w| {
            let count = counts[w.index()];
            (count > 0).then(|| sums[w.index()] / count as f64)
        });
        washed.sort_unstable();
        // One purge list: washed identities plus this round's convictions
        // (disjoint roles in practice, merged defensively).
        let mut purged = washed.clone();
        purged.extend(audit.convicted.iter().copied());
        purged.sort_unstable();
        purged.dedup();
        if !purged.is_empty() {
            // Every node forgets the purged identities, which start over
            // themselves; `purged` is sorted, so each state is swept once.
            let mut forgot = Vec::new();
            for (i, state) in (0u32..).zip(&mut self.nodes) {
                if state.forget(&purged) {
                    forgot.push(NodeId(i));
                }
            }
            for &w in &purged {
                self.nodes[w.index()].reset_identity();
                aggregated[w.index()].clear();
            }
            on_purge(&purged, &forgot);
            // Every node the purge touches is marked: the purged, the
            // nodes that forgot them, the runs the scrub shrinks.
            self.marks.mark_all(purged.iter().chain(&forgot).copied());
            // The scrub walks every run, so totals and observer means
            // are rebuilt in the same pass.
            sums.fill(0.0);
            counts.fill(0);
            for ((o, run), mean) in (0u32..)
                .zip(aggregated.iter_mut())
                .zip(&mut self.observer_mean)
            {
                let len = run.len();
                run.retain(|(j, _)| purged.binary_search(j).is_err());
                if run.len() != len {
                    self.marks.mark(NodeId(o));
                }
                for &(j, rep) in run.iter() {
                    sums[j.index()] += rep;
                    counts[j.index()] += 1;
                }
                *mean = row_mean(run);
            }
            // Only an exposed node can be back at its pre-round bits;
            // one that was unmarked and is takes its mark back.
            for (node, before) in opening.unmarked_exposed {
                if self.record(node).bits_eq(&before) {
                    self.marks.unmark(node);
                }
            }
        } else {
            // A mean is its run's `row_mean`, so it moves only with a run
            // the aggregation already marked.
            match changed {
                Changed::All => {
                    for (run, mean) in aggregated.iter().zip(&mut self.observer_mean) {
                        *mean = row_mean(run);
                    }
                }
                Changed::Frontier { rows, .. } => {
                    for &o in rows {
                        self.observer_mean[o.index()] = row_mean(&aggregated[o.index()]);
                    }
                }
            }
        }
        debug_assert!(
            self.maintained_state_is_exact(),
            "maintained totals / observer means drifted from the full pass"
        );
        let round = self.round;
        self.round += 1;
        RoundStats {
            round,
            served_honest: delta.served_honest,
            refused_honest: delta.refused_honest,
            served_free_riders: delta.served_free_riders,
            refused_free_riders: delta.refused_free_riders,
            served_adversaries: delta.served_adversaries,
            refused_adversaries: delta.refused_adversaries,
            mean_rep_honest: means.honest,
            mean_rep_free_riders: means.free_riders,
            mean_rep_adversaries: means.adversaries,
            washes: washed.len() as u64,
            active_nodes: delta.active_requesters,
            dirty_fraction: if n == 0 {
                0.0
            } else {
                delta.dirty_rows as f64 / n as f64
            },
            audits: audit.audits,
            audit_strikes: audit.strikes,
            convictions: audit.convicted.len() as u64,
            audit_entries: audit.entries,
            report_entries,
            ingested_reports: opening.ingested_reports,
            // Stamped by the serve layer (`ServeSession`) after the round.
            ingest_shed: 0,
        }
    }

    /// Whether the maintained totals and observer means are bit-equal
    /// to the from-scratch passes ([`Self::totals`], [`row_mean`]) —
    /// the invariant [`Self::finish_round`] re-establishes every round.
    pub(crate) fn maintained_state_is_exact(&self) -> bool {
        let (sums, counts) = self.totals();
        counts == self.rep_counts
            && sums
                .iter()
                .zip(&self.rep_sums)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self
                .aggregated
                .iter()
                .zip(&self.observer_mean)
                .all(|(run, mean)| row_mean(run).map(f64::to_bits) == mean.map(f64::to_bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::engine::RoundEngine;
    use crate::session::round_seed;
    use dg_gossip::AdversaryMix;
    use proptest::prelude::*;
    use rand::RngCore;

    /// The transact phase request by request — admission decided per
    /// request, one record per outcome, folded afterwards by
    /// `NodeState::fold_records` — the oracle of the draw-and-fold
    /// kernel.
    fn transact_records(
        core: &EngineCore,
        requester: NodeId,
        rng: &mut ChaCha8Rng,
    ) -> (Vec<TransactionRecord>, ServiceDelta) {
        let (scenario, config, round) = (&*core.scenario, &core.scenario.config, core.round as u64);
        let mut records = Vec::new();
        let mut delta = ServiceDelta {
            active_requesters: 1,
            ..ServiceDelta::default()
        };
        let population = &scenario.population;
        let class = if scenario.adversaries.is_adversary(requester) {
            RequesterClass::Adversary
        } else if matches!(population.behavior(requester), Behavior::FreeRider { .. }) {
            RequesterClass::FreeRider
        } else {
            RequesterClass::Honest
        };
        for &provider in scenario.graph.neighbours(requester) {
            let provider = NodeId(provider);
            if core.banned[provider.index()] || !scenario.adversaries.participates(provider, round)
            {
                continue;
            }
            for _ in 0..config.requests_per_edge {
                let rep = core.aggregated(provider, requester);
                let admitted = match (rep, core.observer_mean[provider.index()]) {
                    (Some(r), Some(mean)) => r >= config.admission_threshold * mean,
                    (None, Some(_)) => config.defense.newcomer == NewcomerPolicy::Optimistic,
                    _ => true,
                };
                delta.count(class, admitted, 1);
                if admitted {
                    let outcome = population.behavior(provider).sample_outcome(rng);
                    records.push(TransactionRecord { provider, outcome });
                }
            }
        }
        if !records.is_empty() {
            delta.dirty_rows = 1;
        }
        (records, delta)
    }

    /// A requester whose aggregated reputation at every provider is
    /// exactly `admission_threshold × mean` (0.25 = 0.5 × 0.5, exact in
    /// binary) is served on every edge; one a step below is refused on
    /// every edge.
    #[test]
    fn admission_serves_a_requester_exactly_at_the_threshold() {
        let mut config = RunConfig::with_nodes(30)
            .with_seed(3)
            .with_free_riders(0.0)
            .with_quality_range(0.4, 1.0);
        config.admission_threshold = 0.5;
        let scenario = Arc::new(Scenario::build(config).expect("scenario builds"));
        let mut core = EngineCore::new(scenario);
        let requester = NodeId(0);
        let providers = core.scenario.graph.neighbours(requester).to_vec();
        let requests = providers.len() as u64 * u64::from(config.requests_per_edge);
        assert!(requests > 0);
        let below = f64::from_bits(0.25f64.to_bits() - 1);
        for (value, served) in [(0.25, true), (below, false)] {
            for &p in &providers {
                core.aggregated[p as usize] = vec![(requester, value)];
                core.observer_mean[p as usize] = Some(0.5);
            }
            let delta = core.transact(&mut NodeState::default(), requester, 1);
            let expected = if served { (requests, 0) } else { (0, requests) };
            assert_eq!(
                (delta.served_honest, delta.refused_honest),
                expected,
                "run value {value}"
            );
        }
    }

    /// Every estimator's value bits and transaction count.
    fn estimator_bits(state: &NodeState) -> Vec<(NodeId, u64, u64)> {
        state
            .estimators
            .iter()
            .map(|&(j, est)| (j, est.estimate().get().to_bits(), est.transactions()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// `transact` (admission once per edge, outcomes drawn straight
        /// into the estimators) leaves every requester's estimators, its
        /// service counters and its stream exactly where the
        /// request-by-request path plus `fold_records` leaves them — on
        /// fresh and on primed aggregated state, with free riders,
        /// dormant sybils and whitewashers, either newcomer policy, any
        /// admission threshold and banned providers.
        #[test]
        fn draw_and_fold_equals_the_per_record_path(
            requests_pick in 0usize..5,
            free_riders in 0.0..0.5f64,
            adversary in 0usize..3,
            threshold in 0.0..1.5f64,
            zero_prior in 0u8..2,
            primed_rounds in 0usize..3,
            ban_every in 0u32..4,
            seed in 0u64..1_000_000,
        ) {
            let mut config = RunConfig::with_nodes(48)
                .with_seed(seed)
                .with_free_riders(free_riders)
                .with_quality_range(0.3, 1.0)
                .with_requests_per_edge([0, 1, 2, 7, 50][requests_pick])
                .with_adversary(
                    [AdversaryMix::none(), AdversaryMix::sybil(), AdversaryMix::whitewash()]
                        [adversary],
                );
            config.admission_threshold = threshold;
            if zero_prior == 1 {
                config.defense.newcomer = NewcomerPolicy::ZeroPrior;
            }
            let scenario = Arc::new(Scenario::build(config).expect("scenario builds"));
            let mut engine = RoundEngine::new(scenario);
            for round in 0..primed_rounds as u64 {
                engine.run_round(round_seed(seed, round)).expect("round runs");
            }
            // Providers expelled by a conviction: skipped, and (as
            // requesters) gone from the round.
            if ban_every > 0 {
                for banned in engine.core.banned.iter_mut().step_by(ban_every as usize + 2) {
                    *banned = true;
                }
            }
            let core = engine.core();
            let stream_seed = round_seed(seed, primed_rounds as u64);
            for requester in core.requesters(0..48, stream_seed) {
                let start = &core.nodes[requester.index()].estimators;
                let mut fused = NodeState { estimators: start.clone(), ..NodeState::default() };
                let mut oracle = NodeState { estimators: start.clone(), ..NodeState::default() };
                let mut stream =
                    ChaCha8Rng::seed_from_u64(node_stream_seed(stream_seed, requester.0));
                let mut oracle_stream = stream.clone();
                let delta = core.transact_on(&mut fused, requester, &mut stream);
                let (records, oracle_delta) =
                    transact_records(core, requester, &mut oracle_stream);
                oracle.fold_records(&records, config.ewma_rate);
                prop_assert_eq!(delta, oracle_delta, "requester {}", requester);
                prop_assert_eq!(estimator_bits(&fused), estimator_bits(&oracle));
                prop_assert_eq!(stream.next_u64(), oracle_stream.next_u64());
            }
        }

        /// The sorted run of estimators against a map of them, over
        /// random interleavings of `observe`, `fold_records`, `forget`
        /// and `reset_identity`: after every operation the run is
        /// strictly ascending and equals the map entry by entry — rate,
        /// value bits and count — and `estimator` finds exactly the
        /// map's entries.
        #[test]
        fn the_estimator_run_matches_a_map_oracle(
            ops in proptest::collection::vec((0u8..8, 0u32..40, 0u32..6, 0.0..1.0f64), 1..120),
            ewma_rate in 0.01..1.0f64,
            seed in 0u64..1_000_000,
        ) {
            use std::collections::BTreeMap;
            let mut state = NodeState::default();
            let mut oracle: BTreeMap<NodeId, EwmaEstimator> = BTreeMap::new();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut oracle_rng = rng.clone();
            for (step, &(kind, id, count, quality)) in ops.iter().enumerate() {
                let provider = NodeId(id);
                match kind {
                    0..=2 => {
                        let behavior = if quality < 0.2 {
                            Behavior::FreeRider { serve_probability: quality }
                        } else {
                            Behavior::Honest { quality }
                        };
                        state.observe(provider, behavior, count, ewma_rate, &mut rng);
                        if count > 0 {
                            let est = oracle
                                .entry(provider)
                                .or_insert_with(|| EwmaEstimator::new(ewma_rate));
                            for _ in 0..count {
                                est.record(behavior.sample_outcome(&mut oracle_rng));
                            }
                        }
                    }
                    3..=5 => {
                        let records: Vec<TransactionRecord> = (0..count)
                            .map(|i| TransactionRecord {
                                provider: NodeId((id + 7 * i) % 40),
                                outcome: if i % 3 == 2 {
                                    TransactionOutcome::Refused
                                } else {
                                    TransactionOutcome::Served { quality }
                                },
                            })
                            .collect();
                        state.fold_records(&records, ewma_rate);
                        for rec in &records {
                            oracle
                                .entry(rec.provider)
                                .or_insert_with(|| EwmaEstimator::new(ewma_rate))
                                .record(rec.outcome);
                        }
                    }
                    6 => {
                        let purged: Vec<NodeId> =
                            (id % 5..40).step_by(count as usize + 2).map(NodeId).collect();
                        let before = oracle.len();
                        oracle.retain(|j, _| purged.binary_search(j).is_err());
                        prop_assert_eq!(state.forget(&purged), oracle.len() != before);
                    }
                    _ => {
                        state.reset_identity();
                        oracle.clear();
                    }
                }
                let bits = |j: NodeId, est: &EwmaEstimator| {
                    let value = est.estimate().get().to_bits();
                    (j, est.rate().to_bits(), value, est.transactions())
                };
                let run: Vec<_> = state.estimators.iter().map(|&(j, est)| bits(j, &est)).collect();
                let map: Vec<_> = oracle.iter().map(|(&j, est)| bits(j, est)).collect();
                prop_assert!(
                    state.estimators.windows(2).all(|w| w[0].0 < w[1].0),
                    "step {}: run not strictly ascending",
                    step
                );
                prop_assert_eq!(run, map, "step {}", step);
                for j in (0..40).map(NodeId) {
                    let found = state.estimator(j).map(|est| bits(j, est));
                    prop_assert_eq!(found, oracle.get(&j).map(|est| bits(j, est)));
                }
            }
        }
    }

    /// The marks' oracle over one checkpoint window: the records at its
    /// start (a commit or a restore), and the nodes `dg_store::changed`
    /// found moved by some round of it.
    struct MarkWindow {
        committed: Vec<NodeRecord>,
        moved: std::collections::BTreeSet<u32>,
    }

    impl MarkWindow {
        /// A window starting at `engine`'s current state, which must
        /// carry no marks.
        fn open(engine: &RoundEngine, what: &str) -> Self {
            let core = engine.core();
            assert_eq!(
                core.marks.iter().next(),
                None,
                "{what}: marked at the start"
            );
            Self {
                committed: core.records(),
                moved: Default::default(),
            }
        }

        /// Commit `engine`'s marks, as a successful checkpoint does, and
        /// open the next window.
        fn commit(engine: &mut RoundEngine, what: &str) -> Self {
            engine.core.commit_marks();
            Self::open(engine, what)
        }

        /// Run one round of `engine` on `seed` and check that the marks
        /// are exactly the nodes some round of the window moved — so
        /// they cover every node whose record differs from the
        /// committed one. Returns the round's stats and the records
        /// after it.
        fn round(
            &mut self,
            engine: &mut RoundEngine,
            seed: u64,
            what: &str,
        ) -> (RoundStats, Vec<NodeRecord>) {
            let before = engine.core().records();
            let stats = engine.run_round(seed).expect("round runs");
            let after = engine.core().records();
            self.moved
                .extend(dg_store::changed(&before, &after).map(|r| r.node));
            let marked: Vec<u32> = engine.core().marks.iter().map(|i| i.0).collect();
            let moved: Vec<u32> = self.moved.iter().copied().collect();
            assert_eq!(marked, moved, "{what}");
            let unmarked: Vec<u32> = dg_store::changed(&self.committed, &after)
                .map(|r| r.node)
                .filter(|node| !self.moved.contains(node))
                .collect();
            assert_eq!(unmarked, Vec::<u32>::new(), "{what}: changed, unmarked");
            (stats, after)
        }
    }

    /// A round seed under which nobody in `core` requests.
    fn idle_seed(core: &EngineCore) -> u64 {
        (0u64..)
            .find(|&s| {
                core.requesters(0..core.nodes.len() as u32, s)
                    .next()
                    .is_none()
            })
            .expect("some seed idles a sparsely active network")
    }

    /// Thirty skewed rounds on every engine (and thirty full-traffic
    /// rebuild rounds of the incremental engine) through every way a
    /// round writes persisted state — transact, ingest, whitewash purges
    /// (washers that were blank before the round among them), audit
    /// strikes and convictions with full report logs, patched, inserted,
    /// dropped and rebuilt run entries, a flash crowd, an idle round, a
    /// restore — committing every round, then again every third round,
    /// and after **every** round the marked nodes are exactly those
    /// `dg_store::changed` found moved by some round since the last
    /// commit. An honest skewed run adds an
    /// ingest-only row whose records change nothing but its estimators,
    /// and an idle round (the incremental engine's empty frontier) that
    /// marks nothing. Whitewash legs: a purge that takes back all its
    /// round wrote, and one that takes an estimator from a node far from
    /// the washer that neither transacts nor reports that round.
    #[test]
    fn marks_equal_the_bitwise_diff_after_every_round() {
        use crate::rounds::AggregationScope::{Full, Neighbourhood};
        use crate::workload::TrafficModel;
        use dg_gossip::EngineKind;
        use dg_trust::prelude::TransactionOutcome;

        let mix = AdversaryMix {
            whitewash_fraction: 0.03,
            stealth_fraction: 0.1,
            stealth_clique: 5,
            stealth_bias: 1.0,
            ..AdversaryMix::none()
        }
        .validated()
        .expect("mix is valid");
        let audit = AuditPolicy {
            audit_rate: 0.08,
            log_capacity: 4,
            ..AuditPolicy::standard()
        };
        let skewed = TrafficModel::full()
            .with_activity(0.05)
            .with_zipf(0.5)
            .with_flash(6, 6.0);
        let dense = TrafficModel::full();
        let honest = RunConfig::with_nodes(160)
            .with_seed(71)
            .with_free_riders(0.15)
            .with_quality_range(0.4, 1.0);
        let engines = [
            (EngineKind::Sequential, 0, Neighbourhood, skewed),
            (EngineKind::Incremental, 4, Neighbourhood, skewed),
            // Full traffic: the incremental engine's rebuild round.
            (EngineKind::Incremental, 1, Neighbourhood, dense),
            (EngineKind::Incremental, 16, Neighbourhood, dense),
            // Full scope: every run lists every rated subject.
            (EngineKind::Sequential, 0, Full, skewed),
            (EngineKind::Incremental, 4, Full, skewed),
        ];
        for (engine_kind, shards, scope, traffic) in engines {
            // Nobody idles under full traffic: those rows keep their
            // round seeds and skip the legs built on idle rounds.
            let full = traffic.is_full();
            let label = format!("{engine_kind:?} × {shards}, {scope:?} scope, full {full}");
            let honest = honest
                .with_scope(scope)
                .with_engine(engine_kind)
                .with_shards(shards)
                .with_traffic(traffic);
            let config = honest.with_adversary(mix).with_audit(audit);
            // Committing every round, each round's marks are checked
            // alone; every third, they are checked as a union.
            for every in [1, 3] {
                let label = format!("{label}, commit every {every}");
                let scenario = Arc::new(Scenario::build(config).expect("scenario builds"));
                let mut engine = RoundEngine::new(scenario);
                let (mut washes, mut convictions, mut full_logs) = (0, 0, false);
                let mut window = MarkWindow::open(&engine, &label);
                for round in 0..30usize {
                    let mut seed = round_seed(config.seed, round as u64);
                    let what = format!("{label}: round {round}");
                    if round == 20 {
                        // A restore mid-window, with marks still
                        // pending: the restored records are the
                        // baseline the marks restart from.
                        assert!(engine.core().marks.iter().next().is_some());
                        let records = engine.core().records();
                        engine.restore(round, records).expect("own records restore");
                        window = MarkWindow::open(&engine, &what);
                    } else if round % every == 0 {
                        window = MarkWindow::commit(&mut engine, &what);
                    }
                    match round {
                        // An ingest-only row: nobody requests, one
                        // node's records arrive through the ingest queue
                        // (rounds 13 and 16 are not flash rounds, so an
                        // idle seed exists).
                        13 => {
                            let core = engine.core();
                            if !full {
                                seed = idle_seed(core);
                            }
                            let reporter = (0..core.nodes.len())
                                .find(|&i| !core.banned[i] && core.nodes[i].estimators.is_empty())
                                .map(|i| NodeId(i as u32))
                                .expect("an unconvicted node that has not requested yet");
                            let provider = NodeId(core.scenario.graph.neighbours(reporter)[0]);
                            let outcome = TransactionOutcome::Served { quality: 0.25 };
                            engine.core.queue_reports(vec![(
                                reporter,
                                vec![TransactionRecord { provider, outcome }],
                            )]);
                        }
                        16 if !full => seed = idle_seed(engine.core()),
                        _ => {}
                    }
                    let (stats, after) = window.round(&mut engine, seed, &what);
                    washes += stats.washes;
                    convictions += stats.convictions;
                    full_logs |= after
                        .iter()
                        .any(|r| r.audit_log.len() >= audit.log_capacity);
                    if round == 13 && !full {
                        assert_eq!(stats.active_nodes, 0, "{label}: ingest-only round");
                    }
                }
                // The run went through what the doc comment says it did.
                assert!(washes > 0, "{label}: no whitewash purge");
                assert!(convictions > 0, "{label}: no conviction");
                assert!(full_logs, "{label}: no full report log");
            }

            // Honest traffic: three rounds, then an ingest-only round
            // whose one record is about a provider outside the
            // reporter's neighbourhood (so neither its trust weights nor
            // its run move), then an idle round.
            let scenario = Arc::new(Scenario::build(honest).expect("scenario builds"));
            let mut engine = RoundEngine::new(scenario);
            for round in 0..5u64 {
                let what = format!("{label}: honest round {round}");
                let mut window = MarkWindow::commit(&mut engine, &what);
                let mut seed = round_seed(honest.seed, round);
                if round >= 3 && !full {
                    seed = idle_seed(engine.core());
                }
                if round == 3 {
                    let graph = &engine.core().scenario.graph;
                    let reporter = NodeId(7);
                    let provider = (0..graph.node_count() as u32)
                        .map(NodeId)
                        .find(|&p| p != reporter && !graph.neighbours(reporter).contains(&p.0))
                        .expect("a non-neighbour");
                    let outcome = TransactionOutcome::Served { quality: 0.25 };
                    engine.core.queue_reports(vec![(
                        reporter,
                        vec![TransactionRecord { provider, outcome }],
                    )]);
                }
                let before = engine.core().records();
                let (_, after) = window.round(&mut engine, seed, &what);
                if round == 4 && !full {
                    assert_eq!(dg_store::first_divergence(&before, &after), None, "{what}");
                }
            }

            if full {
                continue;
            }
            // Whitewashers, no audit, idle rounds whose only traffic is
            // ingest about a washer from nodes outside every washer's
            // neighbourhood.
            let washers = AdversaryMix {
                whitewash_fraction: 0.03,
                ..AdversaryMix::none()
            };
            let config = honest.with_adversary(washers);
            let scenario = Arc::new(Scenario::build(config).expect("scenario builds"));
            let mut engine = RoundEngine::new(scenario);
            let core = engine.core();
            let (graph, washers) = (&core.scenario.graph, core.scenario.adversaries.washers());
            let far: Vec<NodeId> = (0..graph.node_count() as u32)
                .map(NodeId)
                .filter(|r| {
                    let near = |&w: &NodeId| w == *r || graph.neighbours(w).contains(&r.0);
                    !washers.iter().any(near)
                })
                .collect();
            let washer = washers[0];
            let (seed, blank) = (idle_seed(core), core.records());
            let report = |quality: Option<f64>| TransactionRecord {
                provider: washer,
                outcome: match quality {
                    Some(quality) => TransactionOutcome::Served { quality },
                    None => TransactionOutcome::Refused,
                },
            };
            // The reports get the washer rated and washed at once, and
            // the purge takes back all the round wrote — the reporter's
            // estimator, the neighbours' run entries — so the records
            // end as blank as they began and nothing may stay marked.
            let what = format!("{label}: washed by ingest");
            let mut window = MarkWindow::open(&engine, &what);
            engine
                .core
                .queue_reports(vec![(far[0], vec![report(None); 20])]);
            let (stats, after) = window.round(&mut engine, seed, &what);
            assert_eq!(stats.washes, 1, "{what}");
            assert_eq!(dg_store::first_divergence(&blank, &after), None, "{what}");
            // One far node rates the washer well and keeps the estimator
            // past a commit; a round later every other far node refuses
            // it and it washes. The purge takes the first reporter's
            // estimator although that node is idle and far from the
            // washer, and its mark must say so.
            let what = format!("{label}: rated, committed, washed");
            let mut window = MarkWindow::commit(&mut engine, &what);
            engine
                .core
                .queue_reports(vec![(far[1], vec![report(Some(0.9)); 20])]);
            let (stats, _) = window.round(&mut engine, seed, &what);
            assert_eq!(stats.washes, 0, "{what}");
            let mut window = MarkWindow::commit(&mut engine, &what);
            engine.core.queue_reports(
                far[2..]
                    .iter()
                    .map(|&r| (r, vec![report(None); 20]))
                    .collect(),
            );
            let (stats, after) = window.round(&mut engine, seed, &what);
            assert_eq!(stats.washes, 1, "{what}");
            assert!(engine.core().marks.is_marked(far[1]), "{what}");
            assert!(after[far[1].index()].estimators.is_empty(), "{what}");

            // Stealth liars, one strike convicts: the first round whose
            // audit targets include a liar nobody has rated yet idles,
            // and a node more than two hops from the liar rates it
            // through ingest. The liar's idle neighbours gain a run
            // entry about it that the conviction's purge scrubs again,
            // leaving them at their pre-round bits — and unmarked.
            let liars = AdversaryMix {
                stealth_fraction: 0.1,
                stealth_clique: 5,
                stealth_bias: 1.0,
                ..AdversaryMix::none()
            };
            let strict = AuditPolicy {
                audit_rate: 0.3,
                strikes_to_convict: 1,
                log_capacity: 4,
                ..AuditPolicy::standard()
            };
            let config = honest.with_adversary(liars).with_audit(strict);
            let scenario = Arc::new(Scenario::build(config).expect("scenario builds"));
            let mut engine = RoundEngine::new(scenario);
            let convicted_unrated = (0..20u64).any(|round| {
                let what = format!("{label}: liar convicted, round {round}");
                let mut window = MarkWindow::commit(&mut engine, &what);
                let core = engine.core();
                let (graph, n) = (&core.scenario.graph, core.nodes.len());
                let rated = |t: NodeId| core.nodes.iter().any(|s| s.estimator(t).is_some());
                let liar = audit_targets(config.seed, round, n, strict.audit_rate)
                    .into_iter()
                    .find(|&t| {
                        let state = &core.nodes[t.index()];
                        state.convicted_at.is_none()
                            && strict.failed_checks(&state.log) > 0
                            && !rated(t)
                    });
                let mut seed = round_seed(config.seed, round);
                if let Some(liar) = liar {
                    let near = |r: u32| {
                        r == liar.0
                            || graph
                                .neighbours(liar)
                                .iter()
                                .any(|&o| o == r || graph.neighbours(NodeId(o)).contains(&r))
                    };
                    let reporter = (0..n as u32)
                        .find(|&r| !near(r) && !core.banned[r as usize])
                        .map(NodeId)
                        .expect("a node more than two hops from the liar");
                    let rating = TransactionRecord {
                        provider: liar,
                        outcome: TransactionOutcome::Served { quality: 0.9 },
                    };
                    seed = idle_seed(core);
                    engine.core.queue_reports(vec![(reporter, vec![rating])]);
                }
                window.round(&mut engine, seed, &what);
                liar.is_some_and(|t| engine.core().nodes[t.index()].convicted_at.is_some())
            });
            assert!(convicted_unrated, "{label}: no unrated liar convicted");
        }
    }
}
