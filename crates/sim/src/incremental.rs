//! The production round engine: a **delta round** under gated traffic
//! in closed-form neighbourhood scope, a **rebuild round** under every
//! other configuration, chosen when the engine is built.
//!
//! Both rounds open with the same transact phase (a fan-out over index
//! blocks of the node states). The rebuild round keeps nothing: it
//! pushes every row onto one [`RowSlab`] per [`ShardSpec`] shard, in
//! parallel over shards, assembles the slabs without a copy into a
//! [`TrustMatrix`] and runs the oracle's `closed_form_row` sweep over
//! it, in parallel over observers (or the gossip). Under full traffic —
//! the paper's workload — every row changes every round, so there is
//! nothing to keep; a full-scope row lists every rated subject and the
//! gossip runs whole, so neither has a frontier to follow.
//!
//! Under realistic skewed traffic most rows don't change: a node that
//! issued no requests folds no records, so its estimators, its trust
//! row, its excess weights, and most of the per-subject report sums are
//! exactly last round's. The delta round keeps all of that state *alive
//! across rounds* and recomputes only what moved:
//!
//! * the trust matrix persists; [`TrustMatrix::replace_rows`] rewrites
//!   only the **dirty rows**, `O(row)` each — an observer that folded
//!   fresh records, an adversary (a sybil's row follows its ring's
//!   activations), or a node touched by last round's whitewash purge;
//! * a [`SubjectAggregateCache`] mirrors the matrix column-wise and
//!   delta-maintains the per-subject `(Σ t_ij, N_d)` aggregates: dirty
//!   subjects recompute through the *same* robust kernel as the
//!   from-scratch sweep (bit-identical by `dg-trust`'s delta
//!   proptests), clean subjects are free. One merge walk per emitted
//!   row updates the postings and lists the `(subject, reporter)`
//!   reports that moved bitwise; a row whose walk moved nothing is not
//!   replaced;
//! * each observer's excess weights (a function of its own trust row
//!   alone) are cached and a clean observer's Eq. (6) row is
//!   **patched** — only the subjects whose aggregate or incoming
//!   reports changed are re-evaluated, through the same Eq. (6) tail
//!   the full sweep uses. The update set is *inverted* through the
//!   undirected adjacency (subject → observers holding it in scope) into
//!   **one flat frontier**: a sorted list of `(observer, update index)`
//!   items over a small per-round update table, cut into contiguous
//!   pieces for the pool. The affected runs are surgically edited in
//!   place, so rows the frontier never reaches are not even visited, and
//!   nothing of length `N` is allocated, scanned or cleared;
//! * the per-observer caches behind the patch — excess weights, their
//!   sum, the Eq. (6) `ŷ` of every adjacency slot — live in **arenas**:
//!   flat arrays aligned to the graph's CSR offsets
//!   ([`dg_graph::Graph::offsets`]), not one heap block per observer per
//!   cache. A patched observer reads one contiguous stretch of each;
//! * the epilogue is told what the frontier edited
//!   (`Changed::Frontier`: the rows, and the columns every edit is
//!   about), so `EngineCore::finish_round` re-sums only those columns
//!   and refreshes only those observers' means instead of passing over
//!   all `N` runs.
//!
//! A subject `j` can move at a clean observer only if `j`'s report
//! column changed (its sum/count, or a neighbour's direct report
//! `t_kj`) — and every such `j` is in the cache's refreshed set,
//! because the row diffs that changed the column marked it dirty. Dirty
//! observers (replaced rows ⇒ changed weights) are rebuilt through the
//! full kernel row. So in a steady-state delta round the only loops of
//! length `N` left are the activity sweep and the class means;
//! everything else costs `O(frontier)` — and the result stays
//! **bit-for-bit identical to the sequential oracle at any thread count,
//! shard count, activity fraction and adversary mix**, in either round
//! shape, pinned by `tests/engine_equivalence.rs`.
//!
//! Three kinds of delta round fall back to a full pass. The first round
//! of a fresh engine and the first round after a restore are **unprimed**:
//! the arenas hold nothing, so every observer is rebuilt (one arena
//! fill) and the epilogue gets `Changed::All`. A round whose epilogue
//! purges (whitewash, conviction) scrubs every run anyway and rebuilds
//! totals and means in that same pass; the purged identities are forced
//! updates and forced rebuilds of the next round's frontier.

use crate::kernel::{
    closed_form_neighbourhood_row_cached, runs_bits_eq, Changed, EngineCore, NodeState,
    ServiceDelta, SubjectAggregates,
};
use crate::rounds::{AggregationScope, RoundEngine, RoundStats};
use crate::session::SessionError;
use dg_core::reputation::ReputationSystem;
use dg_core::CoreError;
use dg_graph::NodeId;
use dg_store::NodeRecord;
use dg_trust::{RowSlab, ShardSpec, SubjectAggregateCache, TrustMatrix, TrustValue};
use rayon::prelude::*;
use std::sync::Arc;

/// The production round engine (see the module docs).
pub(crate) struct IncrementalRoundEngine {
    core: EngineCore,
    /// The delta round's cross-round state; `None` unless traffic is
    /// gated and phase 3 is closed form in neighbourhood scope. Without
    /// it every round is a rebuild round and keeps nothing.
    delta: Option<DeltaState>,
}

/// What the delta round keeps alive across rounds — all of it derived
/// from the core's records, none of it in a checkpoint.
struct DeltaState {
    /// The persistent trust matrix; dirty rows are replaced each round
    /// via [`TrustMatrix::replace_rows`].
    trust: TrustMatrix,
    /// Column-postings mirror of `trust` with delta-maintained
    /// per-subject report aggregates.
    cache: SubjectAggregateCache,
    /// The per-observer caches behind the patch.
    arenas: Arenas,
    /// Whether `arenas` and the aggregated runs are a patch baseline.
    /// `false` after construction and after a restore — the next round
    /// then rebuilds every observer (one arena fill) instead of patching.
    primed: bool,
    /// Rows that must be re-emitted next round even if their owner folds
    /// no records: the rows the end-of-round whitewash purge invalidated
    /// and, after a restore, every row the restored estimators back (the
    /// persistent matrix starts empty).
    pending_dirty: Vec<NodeId>,
    /// Last round's washed identities (sorted). The epilogue scrubbed
    /// them out of every observer's run and cleared their own runs, so
    /// next round they are forced updates for every patch (their run
    /// entries must be re-derived from current report counts, even if
    /// their report column is bitwise unchanged) and forced-rebuild
    /// observers (their cleared runs are not a patch baseline).
    washed_last: Vec<NodeId>,
}

/// Per-(observer, neighbour-slot) caches as flat arrays aligned to the
/// graph's CSR offsets — observer `o`'s slots are
/// `offsets[o]..offsets[o + 1]`, in adjacency order — so patching an
/// observer touches one contiguous stretch per array instead of chasing
/// a heap block per observer per cache.
struct Arenas {
    /// Excess weights `(w_ok − 1)`; valid while the observer's trust row
    /// is unchanged.
    weights: Vec<f64>,
    /// `excess[o]` — the sum of `o`'s excess weights.
    excess: Vec<f64>,
    /// Eq. (6) `ŷ` for the subject at that adjacency slot (`NaN` =
    /// unknown). Valid while the observer's weights and every
    /// neighbour's report about that subject are bitwise unchanged —
    /// both invalidation sources are visible here: changed weights mean
    /// a replaced row, changed reports are in the round's row diffs.
    y_hat: Vec<f64>,
}

/// One subject the frontier re-evaluates: its current aggregate (read
/// from this table, not from the `N`-long cache arrays, on the patch
/// path) and the slice of the round's sorted changed-`(subject,
/// reporter)` registry that is about it.
struct Update {
    subject: NodeId,
    sum: f64,
    count: usize,
    changed: std::ops::Range<usize>,
}

/// The update-index half of a frontier item that marks its observer for
/// a full rebuild; sorts after every real index of the same observer.
const REBUILD: u32 = u32::MAX;

/// A frontier item: `(observer, update index)` packed so that sorting
/// the `u64`s sorts by observer, then by update index — and the update
/// table is ascending by subject, so each observer's updates come out in
/// run order.
fn item(observer: u32, update: u32) -> u64 {
    u64::from(observer) << 32 | u64::from(update)
}

fn observer_of(item: u64) -> usize {
    (item >> 32) as usize
}

/// How many leading `items` belong to `observer`.
fn leading(items: &[u64], observer: usize) -> usize {
    items
        .iter()
        .take_while(|&&i| observer_of(i) == observer)
        .count()
}

/// Everything a [`Piece`] reads.
struct PatchContext<'a> {
    system: &'a ReputationSystem<'a>,
    agg: &'a SubjectAggregates<'a>,
    updates: &'a [Update],
    /// Every `(subject, reporter)` report that moved bitwise this round,
    /// sorted.
    changed: &'a [(NodeId, NodeId)],
}

/// A contiguous stretch of the sorted frontier together with the
/// windows of the aggregated runs and the arenas its observers own —
/// the unit of the parallel fan-out. Windows start at observer `first`
/// (arena windows at its CSR offset).
struct Piece<'a> {
    first: usize,
    items: &'a [u64],
    runs: &'a mut [Vec<(NodeId, f64)>],
    weights: &'a mut [f64],
    excess: &'a mut [f64],
    y_hat: &'a mut [f64],
}

/// Skip `skip` elements of `rest`, then split off and return the next
/// `len` — how ascending disjoint windows are peeled off one slice.
fn window<'a, T>(rest: &mut &'a mut [T], skip: usize, len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(skip).1.split_at_mut(len);
    *rest = tail;
    head
}

impl Piece<'_> {
    /// Rebuild or patch every observer of the piece; returns those
    /// whose run changed bitwise, ascending.
    fn run(self, ctx: &PatchContext<'_>) -> Vec<NodeId> {
        let graph = ctx.system.graph();
        let offsets = graph.offsets();
        let base = offsets[self.first] as usize;
        let mut edited = Vec::new();
        let mut before = Vec::new();
        let mut start = 0;
        while start < self.items.len() {
            let o = observer_of(self.items[start]);
            let len = leading(&self.items[start..], o);
            let group = &self.items[start..start + len];
            start += len;

            let observer = NodeId(o as u32);
            let slots = offsets[o] as usize - base..offsets[o + 1] as usize - base;
            let weights = &mut self.weights[slots.clone()];
            let y_row = &mut self.y_hat[slots];
            let excess = &mut self.excess[o - self.first];
            let run = &mut self.runs[o - self.first];
            let changed = if group[len - 1] as u32 == REBUILD {
                // Dirty observer (changed weights), freshly washed
                // identity (its run was cleared, not computed) or an
                // unprimed engine: the full kernel row, over fresh
                // weights, and every cached ŷ term is suspect — the
                // sweep rewrites them all.
                for (slot, w) in weights.iter_mut().zip(ctx.system.excess_weights(observer)) {
                    *slot = w;
                }
                *excess = weights.iter().sum();
                before.clone_from(run);
                closed_form_neighbourhood_row_cached(
                    ctx.system, observer, weights, *excess, ctx.agg, y_row, run,
                );
                !runs_bits_eq(&before, run)
            } else {
                patch_run(ctx, observer, weights, *excess, y_row, run, group)
            };
            if changed {
                edited.push(observer);
            }
        }
        edited
    }
}

/// Surgically apply one clean observer's updates (`group`, its frontier
/// items) to its aggregated run **in place**, keeping it sorted: each
/// updated subject is re-evaluated through the same Eq. (6) kernel the
/// full sweep uses and its entry replaced, inserted, or dropped (count
/// hit zero / out of domain — exactly the full row's drop).
///
/// The `ŷ` half of each evaluation comes from `y_row`, the observer's
/// per-adjacency-slot cache: a term is resummed only when a neighbour's
/// report about that subject actually changed this round or the slot is
/// still unknown. A clean observer's weights are unchanged by
/// definition, so an untouched cached `ŷ` is bitwise equal to the resum
/// the rebuild-everything engines perform — most updates collapse to the
/// `O(1)` Eq. (6) tail instead of an `O(deg)` sweep.
///
/// Returns whether the run changed: an entry inserted or dropped, or a
/// value whose bits moved.
fn patch_run(
    ctx: &PatchContext<'_>,
    observer: NodeId,
    weights: &[f64],
    excess: f64,
    y_row: &mut [f64],
    run: &mut Vec<(NodeId, f64)>,
    group: &[u64],
) -> bool {
    let nbrs = ctx.system.graph().neighbours(observer);
    let mut changed = false;
    for &item in group {
        let update = &ctx.updates[item as u32 as usize];
        let j = update.subject;
        // The update was inverted through `j`'s neighbour list, so `j`
        // is a neighbour of this observer (undirected adjacency).
        let slot = nbrs
            .binary_search(&j.0)
            .expect("updates are inverted through the adjacency");
        if ctx.changed[update.changed.clone()]
            .iter()
            .any(|&(_, k)| nbrs.binary_search(&k.0).is_ok())
        {
            y_row[slot] = f64::NAN;
        }
        let rep = if update.count == 0 {
            None
        } else {
            if y_row[slot].is_nan() {
                y_row[slot] = ctx.system.y_hat_from_weights(observer, weights, j);
            }
            ctx.system
                .gclr_from_y_hat(y_row[slot], update.sum, update.count as f64, excess)
        };
        match (run.binary_search_by_key(&j, |&(s, _)| s), rep) {
            (Ok(at), Some(r)) => {
                changed |= run[at].1.to_bits() != r.to_bits();
                run[at].1 = r;
            }
            (Ok(at), None) => {
                run.remove(at);
                changed = true;
            }
            (Err(at), Some(r)) => {
                run.insert(at, (j, r));
                changed = true;
            }
            (Err(_), None) => {}
        }
    }
    changed
}

/// Frontier items per [`Piece`]: small enough that a multi-thread pool
/// has blocks to steal, large enough that cutting them costs nothing.
const PIECE_ITEMS: usize = 4096;

impl IncrementalRoundEngine {
    /// Engine over fresh core state: delta rounds under gated traffic in
    /// closed-form neighbourhood scope, rebuild rounds otherwise.
    pub(crate) fn new(core: EngineCore) -> Self {
        let config = &core.scenario.config;
        let patches = !config.traffic.is_full() && config.is_closed_form_neighbourhood();
        let delta = patches.then(|| DeltaState::new(&core));
        Self { core, delta }
    }
}

/// Phase 1 of both rounds: the per-requester kernel every engine uses
/// (identical RNG streams), fanned out over index blocks that each draw
/// into their own slice of the node states — under skewed traffic, one
/// activity sweep and a handful of requesters per block. Marks and
/// returns the requesters that folded an outcome, ascending.
fn transact_blocks(core: &mut EngineCore, round_seed: u64) -> (ServiceDelta, Vec<NodeId>) {
    const BLOCK: usize = 4096;
    let mut nodes = std::mem::take(&mut core.nodes);
    let shared = &*core;
    let blocks: Vec<(Vec<NodeId>, ServiceDelta)> = nodes
        .chunks_mut(BLOCK)
        .enumerate()
        .into_par_iter()
        .map(|(b, block)| {
            let mut delta = ServiceDelta::default();
            let mut folded = Vec::new();
            let first = b * BLOCK;
            let ids = first as u32..(first + block.len()) as u32;
            for requester in shared.requesters(ids, round_seed) {
                let state = &mut block[requester.index() - first];
                let d = shared.transact(state, requester, round_seed);
                if d.dirty_rows > 0 {
                    folded.push(requester);
                }
                delta.merge(d);
            }
            (folded, delta)
        })
        .collect();
    core.nodes = nodes;

    let mut delta = ServiceDelta::default();
    let mut folded: Vec<NodeId> = Vec::new();
    for (block, d) in blocks {
        delta.merge(d);
        core.marks.mark_all(block.iter().copied());
        folded.extend(block);
    }
    (delta, folded)
}

/// The rebuild round after [`transact_blocks`]: every row is pushed
/// onto its shard's [`RowSlab`], in parallel over shards, and phase 3
/// runs whole over the assembled matrix, in parallel over observers;
/// the round then drops the matrix.
fn rebuild_round(
    core: &mut EngineCore,
    delta: ServiceDelta,
    round_seed: u64,
) -> Result<RoundStats, CoreError> {
    let scenario = Arc::clone(&core.scenario);
    let n = scenario.graph.node_count();
    let spec = ShardSpec::configured(n, core.scenario.config.shard_count);

    // Phase 2: emit every row (folding its owner's ingest after the
    // generated outcomes). Shards own contiguous node ranges, so the
    // flat node vector splits into one disjoint mutable slice per shard
    // and the ascending ingest list into one ascending run per shard.
    let ingest = std::mem::take(&mut core.pending_ingest);
    let mut nodes = std::mem::take(&mut core.nodes);
    let mut rest = nodes.as_mut_slice();
    let work: Vec<(usize, &mut [NodeState])> = (0..spec.shard_count())
        .map(|s| (s, window(&mut rest, 0, spec.rows_in(s))))
        .collect();
    let shared = &*core;
    let built: Vec<_> = work
        .into_par_iter()
        .map(|(s, shard)| {
            let range = spec.range(s);
            let mut slab = RowSlab::default();
            let mut emitted = Vec::new();
            let first = ingest.partition_point(|(r, _)| r.0 < range.start);
            let mut batches = ingest[first..].iter().peekable();
            for (i, state) in range.zip(shard) {
                let node = NodeId(i);
                let records = batches
                    .next_if(|(r, _)| *r == node)
                    .map_or(&[][..], |(_, records)| records);
                let (row, changed) = shared.emit_row(state, node, records);
                if changed {
                    emitted.push(node);
                }
                slab.push_row(row);
            }
            (slab, emitted)
        })
        .collect();
    core.nodes = nodes;
    let (slabs, emitted): (Vec<RowSlab>, Vec<Vec<NodeId>>) = built.into_iter().unzip();
    core.marks.mark_all(emitted.into_iter().flatten());
    let trust = TrustMatrix::from_slabs(spec, slabs).expect("estimator keys are in range");
    let report_entries = trust.entry_count() as u64;
    let system = ReputationSystem::new(&scenario.graph, trust, scenario.weights)?;

    // Phase 3: aggregate, fanned out over observers.
    core.aggregate(&system, round_seed)?;

    // Audit phase + shared round epilogue: summary, whitewash +
    // conviction purge, admission scales, stats. Nothing derived
    // survives the round, so a purge needs no follow-up.
    Ok(core.finish_round(delta, report_entries, Changed::All, |_, _| {}))
}

impl DeltaState {
    /// Fresh delta state over `core`, unprimed: its first round
    /// re-emits every row an estimator backs (the persistent matrix
    /// starts empty — after a restore, that is every restored row).
    /// `config.shard_count == 0` selects the deterministic auto
    /// partition for the persistent matrix.
    fn new(core: &EngineCore) -> Self {
        let (scenario, config) = (&core.scenario, &core.scenario.config);
        let n = scenario.graph.node_count();
        let trust = TrustMatrix::with_spec(ShardSpec::configured(n, config.shard_count));
        // Contents are irrelevant until the first (unprimed) round has
        // written every slot, so the arenas start as untouched zero
        // pages.
        let slots = 2 * scenario.graph.edge_count();
        Self {
            trust,
            cache: SubjectAggregateCache::new(n),
            arenas: Arenas {
                weights: vec![0.0; slots],
                excess: vec![0.0; n],
                y_hat: vec![0.0; slots],
            },
            primed: false,
            pending_dirty: (0u32..)
                .zip(&core.nodes)
                .filter(|(_, state)| !state.estimators.is_empty())
                .map(|(i, _)| NodeId(i))
                .collect(),
            washed_last: Vec::new(),
        }
    }

    /// Phase 3: rebuild or patch exactly the observers the round's
    /// frontier reaches, and report what that edited.
    ///
    /// `refreshed` are the subjects whose report column moved, `replaced`
    /// the observers whose own trust row did, `changed` the sorted
    /// `(subject, reporter)` reports that moved bitwise. Returns the
    /// edited rows and the columns every edit is about (both ascending,
    /// deduplicated), or `None` after a rebuild of everything.
    fn patch_frontier(
        &mut self,
        core: &mut EngineCore,
        system: &ReputationSystem<'_>,
        refreshed: &[NodeId],
        replaced: &[NodeId],
        changed: &[(NodeId, NodeId)],
    ) -> Option<(Vec<NodeId>, Vec<NodeId>)> {
        let graph = system.graph();
        let n = graph.node_count();
        let arenas = &mut self.arenas;
        let agg = SubjectAggregates::new(
            self.cache.sums(),
            self.cache.counts(),
            AggregationScope::Neighbourhood,
        );
        // Last round's wash rewrote the aggregated runs behind the
        // engine's back (scrubbed subjects, cleared washed observers'
        // runs): washed identities are forced updates for every patch
        // and forced rebuilds.
        let washed_last = std::mem::take(&mut self.washed_last);

        let mut updates: Vec<Update> = Vec::new();
        let mut frontier: Vec<u64> = Vec::new();
        if self.primed {
            let mut subjects = [refreshed, &washed_last[..]].concat();
            subjects.sort_unstable();
            subjects.dedup();
            let mut pairs = 0;
            for subject in subjects {
                // The registry ascends by subject too; its entries about
                // subjects outside the update set (a report that moved
                // bits but not value) are never consulted.
                while pairs < changed.len() && changed[pairs].0 < subject {
                    pairs += 1;
                }
                let about = changed[pairs..]
                    .iter()
                    .take_while(|&&(j, _)| j == subject)
                    .count();
                let (sum, count) = self.cache.aggregate(subject);
                updates.push(Update {
                    subject,
                    sum,
                    count,
                    changed: pairs..pairs + about,
                });
                pairs += about;
            }
            // Invert the update set through the undirected adjacency:
            // subject `j` moved ⇒ exactly `j`'s neighbours hold it in
            // scope. Rows no item points at are untouched — not copied,
            // not even visited.
            let reached: usize = updates.iter().map(|u| graph.degree(u.subject)).sum();
            frontier.reserve_exact(reached + replaced.len() + washed_last.len());
            for (u, update) in updates.iter().enumerate() {
                frontier.extend(
                    graph
                        .neighbours(update.subject)
                        .iter()
                        .map(|&o| item(o, u as u32)),
                );
            }
            frontier.extend(
                replaced
                    .iter()
                    .chain(&washed_last)
                    .map(|o| item(o.0, REBUILD)),
            );
            frontier.sort_unstable();
        } else {
            frontier.extend((0..n as u32).map(|o| item(o, REBUILD)));
        }

        // Cut the frontier into pieces at observer boundaries, each with
        // its observers' windows of the runs and the arenas.
        let offsets = graph.offsets();
        let mut runs = &mut core.aggregated[..];
        let mut weights = &mut arenas.weights[..];
        let mut excess = &mut arenas.excess[..];
        let mut y_hat = &mut arenas.y_hat[..];
        let mut pieces = Vec::with_capacity(frontier.len() / PIECE_ITEMS + 1);
        let (mut start, mut next) = (0, 0);
        while start < frontier.len() {
            let mut end = (start + PIECE_ITEMS).min(frontier.len());
            let last = observer_of(frontier[end - 1]);
            end += leading(&frontier[end..], last);
            let first = observer_of(frontier[start]);
            let (skip, len) = (first - next, last + 1 - first);
            let slots_skip = (offsets[first] - offsets[next]) as usize;
            let slots_len = (offsets[last + 1] - offsets[first]) as usize;
            pieces.push(Piece {
                first,
                items: &frontier[start..end],
                runs: window(&mut runs, skip, len),
                weights: window(&mut weights, slots_skip, slots_len),
                excess: window(&mut excess, skip, len),
                y_hat: window(&mut y_hat, slots_skip, slots_len),
            });
            (start, next) = (end, last + 1);
        }
        let ctx = PatchContext {
            system,
            agg: &agg,
            updates: &updates,
            changed,
        };
        let edited: Vec<Vec<NodeId>> = pieces
            .into_par_iter()
            .map(|piece| piece.run(&ctx))
            .collect();
        core.marks.mark_all(edited.into_iter().flatten());

        if !self.primed {
            self.primed = true;
            return None;
        }
        let mut rows: Vec<NodeId> = frontier
            .iter()
            .map(|&i| NodeId(observer_of(i) as u32))
            .collect();
        rows.dedup();
        // A rebuilt run may differ from its predecessor anywhere in the
        // observer's neighbourhood; a patched one only at its updates.
        let mut columns: Vec<NodeId> = updates.iter().map(|u| u.subject).collect();
        for &o in replaced.iter().chain(&washed_last) {
            columns.extend(graph.neighbours(o).iter().map(|&j| NodeId(j)));
        }
        columns.sort_unstable();
        columns.dedup();
        Some((rows, columns))
    }

    /// The delta round after [`transact_blocks`]; `dirty` starts as the
    /// requesters that folded an outcome.
    fn run_round(
        &mut self,
        core: &mut EngineCore,
        delta: ServiceDelta,
        mut dirty: Vec<NodeId>,
    ) -> Result<RoundStats, CoreError> {
        let scenario = Arc::clone(&core.scenario);

        // Phase 2: estimate — only dirty rows. A row is dirty when its
        // owner folded generated outcomes or has ingested records
        // (folded after them, the order every engine reproduces), is an
        // adversary (a sybil's row follows its ring's activations, and
        // colluders re-praise washed clique mates), is pending from last
        // round's whitewash purge or a restore, or — with auditing on —
        // its report log is full: re-recording an unchanged row into a
        // full log re-inserts evicted subjects under this round, exactly
        // as the rebuild-everything rounds do.
        let ingest = std::mem::take(&mut core.pending_ingest);
        let mut nodes = std::mem::take(&mut core.nodes);
        dirty.extend(ingest.iter().map(|&(i, _)| i));
        dirty.extend_from_slice(scenario.adversaries.adversaries());
        dirty.append(&mut self.pending_dirty);
        let audit = core.scenario.config.audit;
        if audit.enabled() {
            let logs = (0u32..).zip(&nodes);
            let full = logs.filter(|(_, state)| state.log.entries().len() >= audit.log_capacity);
            dirty.extend(full.map(|(i, _)| NodeId(i)));
        }
        dirty.sort_unstable();
        dirty.dedup();

        let mut replacements: Vec<(NodeId, Vec<(NodeId, TrustValue)>)> = Vec::new();
        // Every `(subject, reporter)` report that moved bitwise this
        // round — the complete `ŷ`-cache invalidation set: the whitewash
        // purge defers its matrix edits to next round's re-folds, so
        // every edit of the persistent matrix passes through this walk.
        let mut changed_pairs: Vec<(NodeId, NodeId)> = Vec::new();
        // `dirty` is a sorted superset of the ingest owners, so one
        // merge walk hands each batch to its row fold.
        let mut batches = ingest.into_iter().peekable();
        for &i in &dirty {
            let records = batches
                .next_if(|&(j, _)| j == i)
                .map(|(_, records)| records)
                .unwrap_or_default();
            // Emit (and, with auditing on, log) the row *before* the
            // identity check: a clean node's re-emitted row re-records
            // identical content, which `ReportLog::record` makes a
            // no-op while the log has room (full logs are dirty, above)
            // — so skipping clean rows leaves the exact log state the
            // rebuild-everything rounds hold.
            let (row, emitted) = core.emit_row(&mut nodes[i.index()], i, &records);
            if emitted {
                core.marks.mark(i);
            }
            // One merge walk mirrors the row into the column postings
            // and lists the reports it moved; a row that moved nothing
            // is not replaced.
            let moved = changed_pairs.len();
            self.cache
                .apply_row_diff(i, self.trust.row(i), &row, &mut changed_pairs);
            if changed_pairs.len() > moved {
                replacements.push((i, row));
            }
        }
        core.nodes = nodes;
        self.trust
            .replace_rows(&replacements)
            .expect("folded rows are sorted and in range");
        // Subjects whose report column moved, ascending — the only
        // subjects any clean observer needs to re-evaluate.
        let refreshed = self.cache.refresh(&core.scenario.config.defense.robust);
        let replaced: Vec<NodeId> = replacements.iter().map(|&(i, _)| i).collect();
        drop(replacements);
        changed_pairs.sort_unstable();

        let trust = std::mem::replace(&mut self.trust, TrustMatrix::new(0));
        let system = ReputationSystem::new(&scenario.graph, trust, scenario.weights)?;

        // Phase 3: aggregate.
        let frontier = self.patch_frontier(core, &system, &refreshed, &replaced, &changed_pairs);
        self.trust = system.into_trust();
        let report_entries = self.trust.entry_count() as u64;
        let changed = match &frontier {
            Some((rows, columns)) => Changed::Frontier { rows, columns },
            None => Changed::All,
        };

        // Audit phase + shared round epilogue: summary, whitewash +
        // conviction purge, admission scales, stats. Every row the purge
        // touches is recorded so the next round re-emits it — the
        // persistent matrix still holds the pre-purge entries until
        // then, exactly like the rebuild-everything rounds' estimator
        // state.
        let pending = &mut self.pending_dirty;
        let washed_store = &mut self.washed_last;
        Ok(
            core.finish_round(delta, report_entries, changed, |purged, forgot| {
                *washed_store = purged.to_vec();
                pending.extend_from_slice(forgot);
                pending.extend_from_slice(purged);
            }),
        )
    }
}

impl RoundEngine for IncrementalRoundEngine {
    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn restore(&mut self, round: usize, records: Vec<NodeRecord>) -> Result<(), SessionError> {
        // The core refuses before it changes anything, so the delta
        // state is touched only once the records are accepted. It is
        // derived, so the records omit it: the stale one is dropped
        // first, then it starts over, unprimed (see `DeltaState::new`).
        self.core.restore(round, records)?;
        if let Some(stale) = self.delta.take() {
            drop(stale);
            self.delta = Some(DeltaState::new(&self.core));
        }
        Ok(())
    }

    fn run_round(&mut self, round_seed: u64) -> Result<RoundStats, CoreError> {
        let core = &mut self.core;
        core.begin_round();
        let (delta, folded) = transact_blocks(core, round_seed);
        match &mut self.delta {
            None => rebuild_round(core, delta, round_seed),
            Some(state) => state.run_round(core, delta, folded),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::kernel::TransactionRecord;
    use crate::rounds::{build_engine, AggregationMode};
    use crate::scenario::Scenario;
    use crate::session::round_seed;
    use crate::workload::TrafficModel;
    use dg_gossip::{AdversaryMix, EngineKind};
    use dg_trust::audit::AuditPolicy;
    use dg_trust::prelude::TransactionOutcome;

    fn delta(engine: &IncrementalRoundEngine) -> &DeltaState {
        engine
            .delta
            .as_ref()
            .expect("gated traffic keeps delta state")
    }

    /// Full traffic takes the rebuild round and keeps no derived state —
    /// no persistent matrix, column postings or arenas, before or after
    /// a restore. A gated model under which every node still requests
    /// takes the delta round in closed-form neighbourhood scope, and the
    /// rebuild round in full scope and under gossip. Each agrees with
    /// the oracle on every round's stats and records.
    #[test]
    fn full_traffic_rebuilds_and_gated_traffic_takes_the_delta_round() {
        let full = RunConfig::with_nodes(90)
            .with_seed(5)
            .with_scope(AggregationScope::Neighbourhood)
            .with_free_riders(0.2)
            .with_quality_range(0.4, 1.0);
        // Gated, but its one (thinning) flash round is far away.
        let gated = full.with_traffic(TrafficModel::full().with_flash(1_000, 0.5));
        assert!(full.traffic.is_full() && !gated.traffic.is_full());
        let configs = [
            (full, false),
            (gated, true),
            (gated.with_scope(AggregationScope::Full), false),
            (gated.with_aggregation(AggregationMode::Gossip), false),
        ];
        for (config, patches) in configs {
            let scenario = |engine| {
                let config = config.with_engine(engine);
                Arc::new(Scenario::build(config).expect("scenario builds"))
            };
            let mut oracle = build_engine(scenario(EngineKind::Sequential));
            let core = EngineCore::new(scenario(EngineKind::Incremental));
            let mut engine = IncrementalRoundEngine::new(core);
            for round in 0..4 {
                let at = format!(
                    "{:?} / {:?}, round {round}",
                    config.scope, config.aggregation
                );
                if round == 2 {
                    let records = oracle.core().records();
                    oracle
                        .restore(round, records.clone())
                        .expect("own records restore");
                    engine
                        .restore(round, records)
                        .expect("same records restore");
                    if let Some(state) = &engine.delta {
                        assert!(!state.primed && !state.pending_dirty.is_empty(), "{at}");
                    }
                }
                let seed = round_seed(config.seed, round as u64);
                let stats = oracle.run_round(seed).expect("round runs");
                assert_eq!(stats.active_nodes, 90, "{at}");
                assert_eq!(engine.run_round(seed).expect("round runs"), stats, "{at}");
                assert_eq!(engine.delta.is_some(), patches, "{at}");
                if let Some(state) = &engine.delta {
                    assert!(state.primed, "{at}");
                    assert_eq!(state.trust.entry_count() as u64, stats.report_entries);
                }
                assert_eq!(
                    dg_store::first_divergence(&oracle.core().records(), &engine.core.records()),
                    None,
                    "{at}"
                );
            }
        }
    }

    /// Thirty skewed rounds through every way a round can move the
    /// aggregated runs — patches, rebuilds, whitewash purges, audit
    /// convictions, an ingest-only dirty row, a flash crowd, a round
    /// that changes nothing, a restore — and after **every** one the
    /// maintained totals and observer means are bit-equal to the full
    /// passes (`EngineCore::totals`, `row_mean`).
    #[test]
    fn maintained_totals_and_means_equal_the_full_pass_after_every_round() {
        const N: u32 = 160;
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
            ..AuditPolicy::standard()
        };
        let config = RunConfig::with_nodes(N as usize)
            .with_seed(71)
            .with_engine(EngineKind::Incremental)
            .with_scope(AggregationScope::Neighbourhood)
            .with_free_riders(0.15)
            .with_quality_range(0.4, 1.0)
            .with_adversary(mix)
            .with_audit(audit)
            // Skewed, but nobody is certain to request: some round seeds
            // idle the whole network.
            .with_traffic(
                TrafficModel::full()
                    .with_activity(0.05)
                    .with_zipf(0.5)
                    .with_flash(6, 6.0),
            );
        let scenario = Arc::new(Scenario::build(config).expect("scenario builds"));
        let mut engine = IncrementalRoundEngine::new(EngineCore::new(scenario));
        // A round seed under which nobody requests.
        let idle_seed = |core: &EngineCore| {
            (0u64..)
                .find(|&seed| core.requesters(0..N, seed).next().is_none())
                .expect("some seed idles a 10%-active network")
        };

        let mut stats: Vec<RoundStats> = Vec::new();
        let mut idle_round = None;
        for round in 0..30usize {
            let mut seed = round_seed(config.seed, round as u64);
            let mut unchanged = None;
            match round {
                // An ingest-only dirty row: nobody requests, one node's
                // records arrive through the serve layer's queue.
                13 => {
                    seed = idle_seed(&engine.core);
                    let reporter = (0..N)
                        .map(NodeId)
                        .find(|&i| {
                            !engine.core.banned[i.index()]
                                && engine.core.nodes[i.index()].estimators.is_empty()
                        })
                        .expect("an unconvicted node that has not requested yet");
                    let provider = NodeId(engine.core.scenario.graph.neighbours(reporter)[0]);
                    let outcome = TransactionOutcome::Served { quality: 0.25 };
                    engine.core.queue_reports(vec![(
                        reporter,
                        vec![TransactionRecord { provider, outcome }],
                    )]);
                }
                // An empty frontier, the first time nothing is pending
                // from a purge: nobody requests, so no run may change.
                14.. if idle_round.is_none()
                    && !engine.core.plan.is_flash_round(round as u64)
                    && delta(&engine).pending_dirty.is_empty()
                    && delta(&engine).washed_last.is_empty() =>
                {
                    seed = idle_seed(&engine.core);
                    unchanged = Some(engine.core.aggregated.clone());
                }
                // A restore mid-run: derived state is rebuilt, the
                // maintained state must be exact before and after.
                20 => {
                    let records = engine.core.records();
                    engine.restore(round, records).expect("own records restore");
                    assert!(!delta(&engine).primed);
                    assert!(engine.core.maintained_state_is_exact(), "after restore");
                }
                _ => {}
            }
            let round_stats = engine.run_round(seed).expect("round runs");
            assert!(
                engine.core.maintained_state_is_exact(),
                "maintained state drifted in round {round}"
            );
            if let Some(before) = unchanged {
                assert_eq!(round_stats.active_nodes, 0);
                // (Its own epilogue may still purge; then try again.)
                if round_stats.washes + round_stats.convictions == 0 {
                    assert!(
                        engine.core.aggregated == before,
                        "an idle round edited a run"
                    );
                    idle_round = Some(round);
                }
            }
            stats.push(round_stats);
        }

        // The run went through what the doc comment says it did.
        assert!(stats.iter().any(|s| s.washes > 0), "no whitewash purge");
        assert!(stats.iter().any(|s| s.convictions > 0), "no conviction");
        assert!(
            stats
                .iter()
                .filter(|s| s.washes + s.convictions == 0)
                .count()
                > 10,
            "too few purge-free (frontier-maintained) rounds"
        );
        assert!(
            idle_round.is_some(),
            "no round started with nothing pending"
        );
        assert_eq!(stats[13].active_nodes, 0);
        assert_eq!(stats[12].washes + stats[12].convictions, 0);
        assert_eq!(stats[13].report_entries, stats[12].report_entries + 1);
        assert!(
            stats[5].active_nodes > 2 * stats[4].active_nodes.max(stats[6].active_nodes),
            "round 5 is a flash crowd: {} vs {} / {}",
            stats[5].active_nodes,
            stats[4].active_nodes,
            stats[6].active_nodes
        );
    }
}
