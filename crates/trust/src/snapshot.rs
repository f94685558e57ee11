//! Read-side reputation snapshots: an immutable per-round view with an
//! incremental rank index, plus the publish cell the serve layer reads
//! through.
//!
//! The round engines aggregate into per-observer state; what a service
//! answers queries from is the network-wide view — each subject's mean
//! aggregated reputation over the observers holding one. A
//! [`ReputationSnapshot`] freezes that view for one *completed* round:
//! point lookups ([`reputation`](ReputationSnapshot::reputation)) are
//! `O(1)`, and ranked queries ([`top_k`](ReputationSnapshot::top_k),
//! [`percentile`](ReputationSnapshot::percentile)) go through a
//! [`RankIndex`] — the scored subjects sorted by `(reputation bits,
//! subject)`. Between consecutive rounds only the subjects whose mean
//! moved re-sort: [`ReputationSnapshot::next_round`] diffs bitwise
//! against the previous snapshot and rebuilds the index with one merge
//! pass, `O(N + d log d)` for `d` moved subjects instead of a full
//! `O(N log N)` sort — and yields the exact index a from-scratch build
//! produces (pinned by proptest in `dg-serve`).
//!
//! [`SnapshotCell`] is the double-buffered hand-off: the engine builds
//! the next snapshot off to the side (its "back buffer") and publishes
//! it as one pointer store; readers clone an `Arc` to the current
//! front buffer and keep it for as long as they like. A reader can
//! never observe a half-published round — it holds either the old
//! snapshot or the new one, whole.

use std::sync::{Arc, RwLock};

use dg_graph::NodeId;

/// Map an `f64` to a `u64` whose unsigned order matches the float's
/// total order (negative floats invert; reputations are `[0, 1]`, but
/// the index stays correct for any finite input).
fn orderable_bits(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Total order of the rank index: descending reputation bits, ties
/// toward the smaller subject id — i.e. the order `top_k` answers in.
fn rank_cmp(a: &(u64, u32), b: &(u64, u32)) -> std::cmp::Ordering {
    b.0.cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Scored subjects sorted by descending reputation (ties toward the
/// smaller subject id) — the ranked-query half of a snapshot.
/// Deterministic: the order compares raw bits, so it is identical on
/// every build of the same round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankIndex {
    /// `(orderable reputation bits, subject)` in [`rank_cmp`] order.
    keys: Vec<(u64, u32)>,
}

impl RankIndex {
    /// Build from scratch: sort every scored subject.
    pub fn build(reps: &[Option<f64>]) -> Self {
        let mut keys: Vec<(u64, u32)> = reps
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|r| (orderable_bits(r), i as u32)))
            .collect();
        keys.sort_unstable_by(rank_cmp);
        Self { keys }
    }

    /// Rebuild incrementally: drop `removed`, merge in `added` (both
    /// in [`rank_cmp`] order). One pass over the old index.
    fn merge(&self, removed: &[(u64, u32)], added: &[(u64, u32)]) -> Self {
        let mut keys = Vec::with_capacity(self.keys.len() + added.len() - removed.len());
        let mut rem = removed.iter().peekable();
        let mut add = added.iter().peekable();
        for &key in &self.keys {
            if rem.peek().is_some_and(|&&r| r == key) {
                rem.next();
                continue;
            }
            while add.peek().is_some_and(|&&a| rank_cmp(&a, &key).is_lt()) {
                keys.push(*add.next().expect("peeked"));
            }
            keys.push(key);
        }
        keys.extend(add.copied());
        debug_assert!(rem.peek().is_none(), "removal missing from the index");
        Self { keys }
    }

    /// Number of scored subjects.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// No scored subjects yet?
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// One completed round's network-wide reputation view (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct ReputationSnapshot {
    round: u64,
    /// `reps[subject]` — mean aggregated reputation over the observers
    /// holding a view of `subject`; `None` while unscored.
    reps: Vec<Option<f64>>,
    rank: RankIndex,
}

impl ReputationSnapshot {
    /// An empty pre-first-round snapshot for `n` subjects (round 0,
    /// nobody scored).
    pub fn empty(n: usize) -> Self {
        Self {
            round: 0,
            reps: vec![None; n],
            rank: RankIndex { keys: Vec::new() },
        }
    }

    /// Build a snapshot from scratch (full sort) — the reference path,
    /// and the first-round path.
    pub fn build(round: u64, reps: Vec<Option<f64>>) -> Self {
        let rank = RankIndex::build(&reps);
        Self { round, reps, rank }
    }

    /// Build the next round's snapshot from this one: subjects whose
    /// mean is bitwise unchanged keep their index position for free,
    /// only moved subjects re-sort (`O(N + d log d)`), and the result
    /// is identical to [`build`](Self::build) over the same inputs.
    pub fn next_round(&self, round: u64, reps: Vec<Option<f64>>) -> Self {
        assert_eq!(
            reps.len(),
            self.reps.len(),
            "snapshot subject count is fixed for a run"
        );
        let mut removed = Vec::new();
        let mut added = Vec::new();
        for (i, (old, new)) in self.reps.iter().zip(&reps).enumerate() {
            let old_bits = old.map(|r| r.to_bits());
            let new_bits = new.map(|r| r.to_bits());
            if old_bits == new_bits {
                continue;
            }
            if let Some(r) = old {
                removed.push((orderable_bits(*r), i as u32));
            }
            if let Some(r) = new {
                added.push((orderable_bits(*r), i as u32));
            }
        }
        removed.sort_unstable_by(rank_cmp);
        added.sort_unstable_by(rank_cmp);
        let rank = self.rank.merge(&removed, &added);
        Self { round, reps, rank }
    }

    /// The completed round this snapshot describes (0 = none yet).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The subject's network-wide mean reputation, `None` while no
    /// observer holds a view of it.
    pub fn reputation(&self, subject: NodeId) -> Option<f64> {
        self.reps.get(subject.index()).copied().flatten()
    }

    /// The `k` highest-reputation subjects, descending; ties break
    /// toward the smaller subject id. Fewer than `k` when fewer are
    /// scored.
    pub fn top_k(&self, k: usize) -> Vec<(NodeId, f64)> {
        self.rank
            .keys
            .iter()
            .take(k)
            .map(|&(_, subject)| {
                let id = NodeId(subject);
                let rep = self.reps[subject as usize].expect("indexed subjects are scored");
                (id, rep)
            })
            .collect()
    }

    /// Nearest-rank percentile over the scored subjects: the smallest
    /// scored reputation such that at least `p` of the scored mass is
    /// at or below it (`p` in `[0, 1]`; `p = 0` gives the minimum,
    /// `p = 1` the maximum). `None` while nothing is scored or `p` is
    /// out of range / NaN.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&p) || self.rank.is_empty() {
            return None;
        }
        let m = self.rank.len();
        let rank = ((p * m as f64).ceil() as usize).clamp(1, m);
        // The index runs descending, so the rank-th *smallest* scored
        // value sits rank entries from the back.
        let (_, subject) = self.rank.keys[m - rank];
        self.reps[subject as usize]
    }
}

/// The engine→reader hand-off slot: readers [`load`](Self::load) an
/// `Arc` to the front snapshot without ever blocking the engine's
/// [`publish`](Self::publish), which replaces the front pointer in one
/// store. (The `RwLock` guards only the pointer: writers hold it for
/// one `Arc` move, readers for one `Arc` clone — no reader ever holds
/// it across a query.)
#[derive(Debug)]
pub struct SnapshotCell {
    front: RwLock<Arc<ReputationSnapshot>>,
}

impl SnapshotCell {
    /// A cell starting from the empty pre-first-round snapshot.
    pub fn new(subjects: usize) -> Self {
        Self {
            front: RwLock::new(Arc::new(ReputationSnapshot::empty(subjects))),
        }
    }

    /// Publish a completed round's snapshot: one pointer swap. The
    /// previous front stays alive for readers still holding it.
    pub fn publish(&self, snapshot: ReputationSnapshot) {
        *self.front.write().expect("snapshot lock poisoned") = Arc::new(snapshot);
    }

    /// Clone the current front snapshot; every answer derived from the
    /// clone is internally consistent (one round, whole).
    pub fn load(&self) -> Arc<ReputationSnapshot> {
        Arc::clone(&self.front.read().expect("snapshot lock poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reps(vals: &[(usize, f64)], n: usize) -> Vec<Option<f64>> {
        let mut out = vec![None; n];
        for &(i, v) in vals {
            out[i] = Some(v);
        }
        out
    }

    #[test]
    fn top_k_orders_descending_with_id_ties() {
        let snap = ReputationSnapshot::build(1, reps(&[(0, 0.5), (1, 0.9), (2, 0.5), (3, 0.1)], 5));
        assert_eq!(
            snap.top_k(3),
            vec![(NodeId(1), 0.9), (NodeId(0), 0.5), (NodeId(2), 0.5)]
        );
        assert_eq!(snap.top_k(10).len(), 4);
    }

    #[test]
    fn percentile_nearest_rank() {
        let snap = ReputationSnapshot::build(1, reps(&[(0, 0.1), (1, 0.2), (2, 0.3), (3, 0.4)], 4));
        assert_eq!(snap.percentile(0.0), Some(0.1));
        assert_eq!(snap.percentile(0.25), Some(0.1));
        assert_eq!(snap.percentile(0.5), Some(0.2));
        assert_eq!(snap.percentile(0.75), Some(0.3));
        assert_eq!(snap.percentile(1.0), Some(0.4));
        assert_eq!(snap.percentile(1.5), None);
        assert_eq!(snap.percentile(f64::NAN), None);
    }

    #[test]
    fn incremental_matches_from_scratch() {
        let n = 64;
        let first: Vec<Option<f64>> = (0..n)
            .map(|i| (i % 3 != 0).then(|| (i as f64 * 0.7).sin().abs()))
            .collect();
        let snap = ReputationSnapshot::build(1, first.clone());
        // Move some, unscore some, newly score some.
        let mut second = first;
        second[1] = Some(0.99);
        second[2] = None;
        second[3] = Some(0.01);
        second[10] = Some(0.5);
        second[11] = Some(0.5);
        let inc = snap.next_round(2, second.clone());
        let scratch = ReputationSnapshot::build(2, second);
        assert_eq!(inc.rank, scratch.rank);
        assert_eq!(inc.round(), 2);
        assert_eq!(inc.top_k(n), scratch.top_k(n));
    }

    #[test]
    fn cell_swaps_whole_snapshots() {
        let cell = SnapshotCell::new(4);
        assert_eq!(cell.load().round(), 0);
        assert!(cell.load().rank.is_empty());
        let held = cell.load();
        cell.publish(ReputationSnapshot::build(1, reps(&[(2, 0.8)], 4)));
        // The pre-publish clone still reads its own round coherently.
        assert_eq!(held.round(), 0);
        assert_eq!(held.reputation(NodeId(2)), None);
        let now = cell.load();
        assert_eq!(now.round(), 1);
        assert_eq!(now.reputation(NodeId(2)), Some(0.8));
    }
}
