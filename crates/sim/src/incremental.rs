//! The incremental delta-driven round engine — the skewed-traffic
//! configuration.
//!
//! The sequential and sharded engines rebuild the full trust matrix and
//! recompute every observer's aggregated row every round — the right
//! shape when every node transacts every round. Under realistic skewed
//! traffic ([`crate::workload::TrafficModel`]) most rows don't change:
//! a node that issued no requests folds no records, so its estimators,
//! its trust row, its excess weights, and most of the per-subject
//! report sums are exactly last round's. [`IncrementalRoundEngine`]
//! keeps all of that state *alive across rounds* and recomputes only
//! what moved:
//!
//! * the trust matrix persists in the sharded CSR backend;
//!   [`TrustMatrix::replace_rows`] rebuilds only the shards owning a
//!   **dirty row** — an observer that folded fresh records, an
//!   adversary (their distortions are round-keyed), or a node touched
//!   by last round's whitewash purge;
//! * a [`SubjectAggregateCache`] mirrors the matrix column-wise and
//!   delta-maintains the per-subject `(Σ t_ij, N_d)` aggregates: dirty
//!   subjects recompute through the *same* robust kernel as the
//!   from-scratch sweep (bit-identical by `dg-trust`'s delta
//!   proptests), clean subjects are free;
//! * in neighbourhood scope each observer's excess weights (a function
//!   of its own trust row alone) are cached and a clean observer's
//!   Eq. (6) row is **patched** — only the subjects whose aggregate or
//!   incoming reports changed are re-evaluated, through the same Eq. (6)
//!   tail the full sweep uses. The update set is *inverted* through the
//!   undirected adjacency (subject → observers holding it in scope) and
//!   the affected runs are surgically edited in place, so rows the
//!   frontier never reaches are not even visited. A full-scope run lists
//!   every rated subject and has no such frontier: there phase 3 is the
//!   `closed_form_row` sweep of the other engines, over the
//!   delta-maintained aggregates.
//!
//! A subject `j` can move at a clean observer only if `j`'s report
//! column changed (its sum/count, or a neighbour's direct report
//! `t_kj`) — and every such `j` is in the cache's refreshed set,
//! because the row diffs that changed the column marked it dirty. Dirty
//! observers (replaced rows ⇒ changed weights) get full kernel rows.
//! So each round costs `O(dirty work)` instead of `O(N · S)`, and the
//! result stays **bit-for-bit identical to every other engine at any
//! thread count, shard count, activity fraction and adversary mix** —
//! pinned by `tests/engine_equivalence.rs`.
//!
//! [`AggregationMode::Gossip`] works on this engine too: the trust
//! matrix is still maintained incrementally, but the Variation-4
//! gossip itself runs whole — gossip epidemics have no per-subject
//! sparsity to exploit. The skewed-traffic configuration is closed
//! form, like the million-node one (see `docs/SCALING.md`).

use crate::kernel::{
    closed_form_neighbourhood_row_cached, closed_form_row, merge_pending, EngineCore, ServiceDelta,
    SubjectAggregates, TransactionRecord,
};
use crate::rounds::{AggregationMode, AggregationScope, RoundEngine, RoundStats};
use crate::session::SessionError;
use dg_core::reputation::ReputationSystem;
use dg_core::CoreError;
use dg_graph::NodeId;
use dg_store::NodeRecord;
use dg_trust::{ShardSpec, SubjectAggregateCache, TrustMatrix, TrustValue};
use rayon::prelude::*;
use std::sync::Arc;

/// One requester's non-empty transaction batch, keyed by requester id.
type RecordBatch = (NodeId, Vec<TransactionRecord>);

/// A touched observer's evaluation job: its index paired with mutable
/// views of its aggregated run and its cached per-neighbour-slot ŷ row.
type EvalJob<'a> = (usize, (&'a mut Vec<(NodeId, f64)>, &'a mut Vec<f64>));

/// The incremental delta-driven round engine (see the module docs).
pub struct IncrementalRoundEngine {
    core: EngineCore,
    /// The persistent trust matrix (sharded CSR backend); rows are
    /// replaced in place each round via [`TrustMatrix::replace_rows`].
    trust: TrustMatrix,
    /// Column-postings mirror of `trust` with delta-maintained
    /// per-subject report aggregates.
    cache: SubjectAggregateCache,
    /// `weights[observer]` — cached `(excess weights, their sum)`;
    /// valid while the observer's trust row is unchanged. `None` until
    /// first computed (closed-form neighbourhood scope only).
    weights: Vec<Option<(Vec<f64>, f64)>>,
    /// Every `weights` slot initialised (the first neighbourhood-scope round
    /// ran): afterwards only replaced rows need a refresh, so the
    /// per-round candidate scan is `O(dirty)` instead of `O(N)`.
    weights_ready: bool,
    /// `y_cache[observer][p]` — cached Eq. (6) `ŷ` for the subject at
    /// adjacency position `p` of `observer` (`NaN` = unknown; allocated
    /// lazily, neighbourhood scope only). Valid while the observer's
    /// weights and every neighbour's report about that subject are
    /// bitwise unchanged — both invalidation sources are visible here:
    /// changed weights mean a replaced row, changed reports are in the
    /// round's row diffs.
    y_cache: Vec<Vec<f64>>,
    /// Reusable per-observer update lists for the neighbourhood
    /// inversion: cleared through the same adjacency walk that filled
    /// them (capacity retained), so no round reallocates `N` vecs.
    upd: Vec<Vec<NodeId>>,
    /// Rows the end-of-round whitewash purge invalidated: they must be
    /// re-emitted next round even if their owner folds no records.
    pending_dirty: Vec<NodeId>,
    /// Last round's washed identities (sorted). The epilogue scrubbed
    /// them out of every observer's run and cleared their own runs, so
    /// next round they are forced updates for every patch (their run
    /// entries must be re-derived from current report counts, even if
    /// their report column is bitwise unchanged) and forced-full
    /// observers (their cleared runs are not a patch baseline).
    washed_last: Vec<NodeId>,
}

/// Ascending union of two sorted `NodeId` lists.
fn merge_sorted(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x < y => {
                out.push(x);
                i += 1;
            }
            (Some(&x), Some(&y)) if x > y => {
                out.push(y);
                j += 1;
            }
            (Some(&x), Some(_)) => {
                out.push(x);
                i += 1;
                j += 1;
            }
            (Some(&x), None) => {
                out.push(x);
                i += 1;
            }
            (None, Some(&y)) => {
                out.push(y);
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    out
}

/// Bitwise row equality — the only comparison that may skip a
/// replacement without risking drift from the rebuild-everything
/// engines.
fn rows_identical(old: &[(NodeId, TrustValue)], new: &[(NodeId, TrustValue)]) -> bool {
    old.len() == new.len()
        && old
            .iter()
            .zip(new)
            .all(|(a, b)| a.0 == b.0 && a.1.get().to_bits() == b.1.get().to_bits())
}

/// Append `(subject, reporter)` for every entry of `reporter`'s row
/// that moved bitwise (added, removed, or different bits) — exactly
/// the set of Eq. (6) `ŷ` terms this replacement can change, and so
/// the complete invalidation source for the per-pair `ŷ` cache (the
/// whitewash purge defers its matrix edits to next round's re-folds,
/// so every persistent-matrix mutation passes through a row diff).
fn diff_changed_entries(
    reporter: NodeId,
    old: &[(NodeId, TrustValue)],
    new: &[(NodeId, TrustValue)],
    out: &mut Vec<(NodeId, NodeId)>,
) {
    let (mut a, mut b) = (0usize, 0usize);
    while a < old.len() || b < new.len() {
        match (old.get(a), new.get(b)) {
            (Some(&(j, _)), Some(&(u, _))) if j < u => {
                out.push((j, reporter));
                a += 1;
            }
            (Some(&(j, _)), Some(&(u, _))) if j > u => {
                out.push((u, reporter));
                b += 1;
            }
            (Some(&(j, x)), Some(&(_, y))) => {
                if x.get().to_bits() != y.get().to_bits() {
                    out.push((j, reporter));
                }
                a += 1;
                b += 1;
            }
            (Some(&(j, _)), None) => {
                out.push((j, reporter));
                a += 1;
            }
            (None, Some(&(u, _))) => {
                out.push((u, reporter));
                b += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
}

/// Surgically apply one clean observer's update set to its aggregated
/// run **in place**, keeping it sorted: each updated subject is
/// re-evaluated through the same Eq. (6) kernel the full sweep uses and
/// its entry replaced, inserted, or dropped (count hit zero / out of
/// domain — exactly the full row's `filter_map` drop). Rows with an
/// empty update set are never visited, so a round's aggregation cost
/// scales with the dirty frontier instead of `N`.
///
/// The `ŷ` half of each evaluation comes from `y_row`, the observer's
/// per-adjacency-position cache: a term is resummed only when a
/// neighbour's report about that subject actually changed this round
/// (`changed`, sorted `(subject, reporter)` pairs from the row diffs)
/// or the slot is still unknown. A clean observer's weights are
/// unchanged by definition, so an untouched cached `ŷ` is bitwise
/// equal to the resum the rebuild-everything engines perform — most updates
/// collapse to the `O(1)` Eq. (6) tail instead of an `O(deg)` sweep.
#[allow(clippy::too_many_arguments)]
fn apply_updates_in_place(
    system: &ReputationSystem<'_>,
    observer: NodeId,
    weights: &[f64],
    excess: f64,
    run: &mut Vec<(NodeId, f64)>,
    y_row: &mut [f64],
    changed: &[(NodeId, NodeId)],
    changed_range: &[(u32, u32)],
    updates: &[NodeId],
    agg: &SubjectAggregates,
) {
    let nbrs = system.graph().neighbours(observer);
    for &j in updates {
        // The update was inverted through `j`'s neighbour list, so `j`
        // is a neighbour of this observer (undirected adjacency).
        let pos = nbrs
            .binary_search(&j.0)
            .expect("updates are inverted through the adjacency");
        let (lo, hi) = changed_range[j.index()];
        if changed[lo as usize..hi as usize]
            .iter()
            .any(|&(_, k)| nbrs.binary_search(&k.0).is_ok())
        {
            y_row[pos] = f64::NAN;
        }
        let count = agg.counts[j.index()];
        let rep = if count == 0 {
            None
        } else {
            if y_row[pos].is_nan() {
                y_row[pos] = system.y_hat_from_weights(observer, weights, j);
            }
            system.gclr_from_y_hat(y_row[pos], agg.sums[j.index()], count as f64, excess)
        };
        match (run.binary_search_by_key(&j, |&(s, _)| s), rep) {
            (Ok(pos), Some(r)) => run[pos].1 = r,
            (Ok(pos), None) => {
                run.remove(pos);
            }
            (Err(pos), Some(r)) => run.insert(pos, (j, r)),
            (Err(_), None) => {}
        }
    }
}

impl IncrementalRoundEngine {
    /// Engine over fresh core state. `config.shard_count == 0` selects
    /// the deterministic auto partition for the persistent matrix.
    pub(crate) fn new(core: EngineCore) -> Self {
        let (scenario, config) = (&core.scenario, &core.config);
        let n = scenario.graph.node_count();
        let mut trust = TrustMatrix::new(n);
        trust.shard(ShardSpec::configured(n, config.shard_count));
        // The ŷ cache mirrors the adjacency; prime it (and the update
        // lists) up front for the configuration that uses them so no
        // round pays the allocation.
        let neighbourhood_closed_form = matches!(config.aggregation, AggregationMode::ClosedForm)
            && matches!(config.scope, AggregationScope::Neighbourhood);
        let y_cache = if neighbourhood_closed_form {
            (0..n as u32)
                .map(|o| vec![f64::NAN; scenario.graph.neighbours(NodeId(o)).len()])
                .collect()
        } else {
            Vec::new()
        };
        let upd = if neighbourhood_closed_form {
            vec![Vec::new(); n]
        } else {
            Vec::new()
        };
        Self {
            trust,
            cache: SubjectAggregateCache::new(n),
            weights: vec![None; n],
            weights_ready: false,
            y_cache,
            upd,
            pending_dirty: Vec::new(),
            washed_last: Vec::new(),
            core,
        }
    }
}

impl RoundEngine for IncrementalRoundEngine {
    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn restore(&mut self, round: usize, records: &[NodeRecord]) -> Result<(), SessionError> {
        // Rebuild from scratch, then mark *every* node dirty and
        // *every* node as freshly washed: the persistent trust matrix,
        // aggregate cache and ŷ cache are derived state that the
        // records deliberately omit, so the first resumed round
        // refolds all rows and recomputes every observer's run from
        // the restored estimators — after which the incremental paths
        // take over again. Queued ingest batches survive the restore,
        // like the other engines' pending lists do.
        let mut core = EngineCore::new(Arc::clone(&self.core.scenario), self.core.config);
        core.restore(round, records)?;
        core.pending_ingest = std::mem::take(&mut self.core.pending_ingest);
        let n = core.nodes.len() as u32;
        *self = Self::new(core);
        self.pending_dirty = (0..n).map(NodeId).collect();
        self.washed_last = (0..n).map(NodeId).collect();
        Ok(())
    }

    fn run_round(&mut self, round_seed: u64) -> Result<RoundStats, CoreError> {
        let core = &mut self.core;
        let scenario = Arc::clone(&core.scenario);
        let n = scenario.graph.node_count();

        // Phase 1: transact — a pure fan-out over requesters (inactive
        // requesters cost one activity draw).
        let banned = core.banned();
        let shared = &*core;
        // Index-block fan-out over the same pure per-requester kernel
        // every engine uses (identical RNG streams): at skewed
        // activity fractions almost every requester returns an empty
        // batch, so only the non-empty ones are materialised. Block-
        // merging the service deltas is exact — integer counters.
        const BLOCK: usize = 4096;
        let blocks: Vec<(Vec<RecordBatch>, ServiceDelta)> = (0..n.div_ceil(BLOCK))
            .into_par_iter()
            .map(|b| {
                let mut delta = ServiceDelta::default();
                let mut batches = Vec::new();
                let lo = b * BLOCK;
                for i in lo..(lo + BLOCK).min(n) {
                    let (records, d) = shared.transact(NodeId(i as u32), round_seed, &banned);
                    delta.merge(d);
                    if !records.is_empty() {
                        batches.push((NodeId(i as u32), records));
                    }
                }
                (batches, delta)
            })
            .collect();

        let mut delta = ServiceDelta::default();
        // Ascending by requester: blocks are in index order.
        let mut record_batches: Vec<RecordBatch> = Vec::new();
        for (batches, d) in blocks {
            delta.merge(d);
            record_batches.extend(batches);
        }
        // Ingested records fold after the generated ones (the order
        // every engine reproduces). A requester with only ingested
        // records becomes a new batch — and thereby a dirty row.
        merge_pending(
            &mut record_batches,
            std::mem::take(&mut core.pending_ingest),
        );

        // Phase 2: estimate — only dirty rows. A row is dirty when its
        // owner folded records, is an adversary (distortions are
        // round-keyed, and colluders re-praise washed clique mates), or
        // was invalidated by last round's whitewash purge.
        let mut dirty: Vec<NodeId> = record_batches.iter().map(|&(i, _)| i).collect();
        dirty.extend(scenario.adversaries.adversaries());
        dirty.append(&mut self.pending_dirty);
        dirty.sort_unstable();
        dirty.dedup();

        let mut replacements: Vec<(NodeId, Vec<(NodeId, TrustValue)>)> = Vec::new();
        // Every `(subject, reporter)` report that moved bitwise this
        // round — the `ŷ`-cache invalidation set.
        let mut changed_pairs: Vec<(NodeId, NodeId)> = Vec::new();
        // `dirty` is a sorted superset of the batch owners, so one
        // merge walk hands each batch to its row fold.
        let mut batches = record_batches.into_iter().peekable();
        let mut nodes = std::mem::take(&mut core.nodes);
        for &i in &dirty {
            let records = if batches.peek().is_some_and(|&(j, _)| j == i) {
                batches.next().expect("peeked").1
            } else {
                Vec::new()
            };
            // Emit (and, with auditing on, log) the row *before* the
            // identity check: a clean node's re-emitted row re-records
            // identical content, which `ReportLog::record` makes a
            // no-op — so skipping clean rows leaves the exact log state
            // the rebuild-everything engines hold.
            let row = core.emit_row(&mut nodes[i.index()], i, records);
            let old: Vec<(NodeId, TrustValue)> = self.trust.row(i).collect();
            if rows_identical(&old, &row) {
                continue;
            }
            diff_changed_entries(i, &old, &row, &mut changed_pairs);
            self.cache.apply_row_diff(i, &old, &row);
            replacements.push((i, row));
        }
        core.nodes = nodes;
        self.trust
            .replace_rows(&replacements)
            .expect("folded rows are sorted and in range");
        // Subjects whose report column moved, ascending — the only
        // subjects any clean observer needs to re-evaluate.
        let refreshed = self.cache.refresh(&core.config.defense.robust);
        let replaced: Vec<NodeId> = replacements.iter().map(|&(i, _)| i).collect();

        let trust = std::mem::replace(&mut self.trust, TrustMatrix::new(0));
        let system = ReputationSystem::new(&scenario.graph, trust, scenario.weights)?;
        // Last round's wash rewrote the aggregated runs behind the
        // engine's back (scrubbed subjects, cleared washed observers'
        // runs): washed identities are forced updates for every patch
        // and forced-full observers below.
        let washed_last = std::mem::take(&mut self.washed_last);

        // Phase 3: aggregate.
        match core.config.aggregation {
            AggregationMode::ClosedForm => {
                let agg = SubjectAggregates::from_parts(
                    self.cache.sums().to_vec(),
                    self.cache.counts().to_vec(),
                );
                let sys = &system;
                let agg_ref = &agg;
                match core.config.scope {
                    // A full-scope run lists every rated subject, so it
                    // has no frontier to patch along: the sweep the
                    // other engines run, over the delta-maintained
                    // aggregates.
                    AggregationScope::Full => {
                        core.aggregated = (0..n as u32)
                            .into_par_iter()
                            .map(|i| {
                                closed_form_row(sys, NodeId(i), AggregationScope::Full, agg_ref)
                            })
                            .collect();
                    }
                    AggregationScope::Neighbourhood => {
                        // Refresh cached excess weights where the
                        // observer's own row changed; the first round
                        // initialises every slot, later rounds scan only
                        // the replacements.
                        let need: Vec<NodeId> = if self.weights_ready {
                            replaced.clone()
                        } else {
                            (0..n as u32).map(NodeId).collect()
                        };
                        self.weights_ready = true;
                        let fresh: Vec<(NodeId, Vec<f64>, f64)> = need
                            .into_par_iter()
                            .map(|o| {
                                let w = sys.neighbour_excess_weights(o);
                                let e: f64 = w.iter().sum();
                                (o, w, e)
                            })
                            .collect();
                        for (o, w, e) in fresh {
                            self.weights[o.index()] = Some((w, e));
                        }
                        let weights = &self.weights;
                        let updates_all = merge_sorted(&refreshed, &washed_last);

                        // Invert the update set through the undirected
                        // adjacency: subject `j` moved ⇒ exactly `j`'s
                        // neighbours hold it in scope, so push `j` onto
                        // each of their update lists (ascending, since
                        // `updates_all` is). Rows no update points at
                        // are untouched — not copied, not even visited.
                        let graph = sys.graph();
                        if self.y_cache.len() != n {
                            self.y_cache = (0..n as u32)
                                .map(|o| vec![f64::NAN; graph.neighbours(NodeId(o)).len()])
                                .collect();
                        }
                        if self.upd.len() != n {
                            self.upd = vec![Vec::new(); n];
                        }
                        changed_pairs.sort_unstable();
                        // Dense per-subject slice bounds into the
                        // changed-pairs registry: one indexed load per
                        // evaluation instead of two binary searches.
                        let mut changed_range: Vec<(u32, u32)> = vec![(0, 0); n];
                        let mut s = 0usize;
                        while s < changed_pairs.len() {
                            let j = changed_pairs[s].0;
                            let mut e = s + 1;
                            while e < changed_pairs.len() && changed_pairs[e].0 == j {
                                e += 1;
                            }
                            changed_range[j.index()] = (s as u32, e as u32);
                            s = e;
                        }
                        let changed_ref = &changed_pairs;
                        let ranges_ref = &changed_range;
                        let upd = &mut self.upd;
                        let mut touched = vec![false; n];
                        let mut full = vec![false; n];
                        for &o in replaced.iter().chain(washed_last.iter()) {
                            full[o.index()] = true;
                            touched[o.index()] = true;
                        }
                        for &j in &updates_all {
                            for &o in graph.neighbours(j) {
                                upd[o as usize].push(j);
                                touched[o as usize] = true;
                            }
                        }
                        let upd_ref = &*upd;
                        let full_ref = &full;
                        let jobs: Vec<EvalJob> = core
                            .aggregated
                            .iter_mut()
                            .zip(self.y_cache.iter_mut())
                            .enumerate()
                            .filter(|&(i, _)| touched[i])
                            .collect();
                        jobs.into_par_iter().for_each(|(i, (run, y_row))| {
                            let o = NodeId(i as u32);
                            if full_ref[i] {
                                // Dirty observer (changed weights) or
                                // freshly washed identity (its run was
                                // cleared, not computed): every subject
                                // needs the full kernel row, and every
                                // cached ŷ term is suspect — the sweep
                                // recaptures the ones it evaluates.
                                y_row.iter_mut().for_each(|y| *y = f64::NAN);
                                *run = closed_form_neighbourhood_row_cached(sys, o, agg_ref, y_row);
                                return;
                            }
                            let (w, excess) = weights[o.index()]
                                .as_ref()
                                .expect("weights initialised for all observers above");
                            apply_updates_in_place(
                                sys,
                                o,
                                w,
                                *excess,
                                run,
                                y_row,
                                changed_ref,
                                ranges_ref,
                                &upd_ref[i],
                                agg_ref,
                            );
                        });
                        // Reset the touched update lists through the
                        // same walk that filled them (capacity kept).
                        for &j in &updates_all {
                            for &o in graph.neighbours(j) {
                                upd[o as usize].clear();
                            }
                        }
                    }
                }
            }
            // The trust matrix is still maintained incrementally; the
            // gossip itself runs whole.
            AggregationMode::Gossip => core.aggregate_by_gossip(&system, round_seed)?,
        }
        self.trust = system.into_trust();
        let report_entries = self.trust.entry_count() as u64;

        // Audit phase + shared round epilogue: summary, whitewash +
        // conviction purge, admission scales, stats. Every row the purge
        // touches is recorded so the next round re-emits it — the
        // persistent matrix still holds the pre-purge entries until
        // then, exactly like the rebuild-everything engines' estimator
        // state.
        let pending = &mut self.pending_dirty;
        let washed_store = &mut self.washed_last;
        Ok(core.finish_round(delta, report_entries, |nodes, purged| {
            *washed_store = purged.to_vec();
            for (i, state) in nodes.iter_mut().enumerate() {
                let before = state.estimators.len();
                state.forget(purged);
                if state.estimators.len() != before {
                    pending.push(NodeId(i as u32));
                }
            }
            for &w in purged {
                nodes[w.index()].reset_identity();
                pending.push(w);
            }
        }))
    }
}
