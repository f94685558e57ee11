//! Delta-maintained per-subject aggregates over a trust matrix.
//!
//! The closed-form aggregation phase needs, for every subject `j`, the
//! robust `(Σᵢ t_ij, N_d)` pair over all observers (see
//! [`TrustMatrix::robust_subject_sums_and_counts`](crate::TrustMatrix::robust_subject_sums_and_counts)). The batched
//! engines recompute that from scratch every round — `O(total nnz)`
//! even when a round only touched a handful of rows. Under skewed
//! traffic (1 % per-round activity at production scale) >99 % of that
//! sweep re-derives unchanged numbers.
//!
//! [`SubjectAggregateCache`] turns the sweep into a delta computation.
//! It mirrors the matrix as **column postings**: per subject, the
//! `(observer, value)` pairs sorted by observer — exactly the reports
//! the row-major sweep would visit for that subject, in the same
//! order. When an observer's row is replaced, a merge-walk of the old
//! and new runs updates only the postings of subjects whose value
//! moved bitwise, marks those subjects dirty and lists them;
//! [`refresh`](SubjectAggregateCache::refresh) then re-aggregates the
//! dirty subjects only.
//!
//! **Bit-identity, not approximation.** Float addition is not
//! associative, so the cache never "subtracts the old value and adds
//! the new one" — that would drift from the from-scratch sweep within
//! one round. Instead a dirty subject's aggregate is recomputed over
//! its full postings list in ascending-observer order through the same
//! `RobustAggregation::subject_sum` kernel the from-scratch sweep
//! uses. Recomputation is `O(column degree)` per dirty subject; clean
//! subjects cost nothing. The proptest at the bottom pins
//! delta-refreshed aggregates bit-for-bit against the from-scratch
//! sweep on random op sequences, under both the plain and the defended
//! robust policy.

use crate::robust::RobustAggregation;
use crate::value::TrustValue;
use dg_graph::NodeId;

/// Column-postings mirror of a trust matrix with delta-maintained
/// per-subject aggregates.
///
/// ```
/// use dg_graph::NodeId;
/// use dg_trust::{RobustAggregation, SubjectAggregateCache, TrustMatrix, TrustValue};
///
/// let mut m = TrustMatrix::new(3);
/// let mut cache = SubjectAggregateCache::new(3);
///
/// // Observer 0 rates subjects 1 and 2; mirror the row into the cache.
/// let row = vec![
///     (NodeId(1), TrustValue::new(0.8)?),
///     (NodeId(2), TrustValue::new(0.4)?),
/// ];
/// let mut moved = Vec::new();
/// cache.apply_row_diff(NodeId(0), &[], &row, &mut moved);
/// assert_eq!(moved, vec![(NodeId(1), NodeId(0)), (NodeId(2), NodeId(0))]);
/// m.replace_rows(&[(NodeId(0), row)])?;
///
/// let dirty = cache.refresh(&RobustAggregation::none());
/// assert_eq!(dirty, vec![NodeId(1), NodeId(2)]);
/// let (sums, counts) = m.robust_subject_sums_and_counts(&RobustAggregation::none());
/// assert_eq!(cache.sums(), &sums[..]);
/// assert_eq!(cache.counts(), &counts[..]);
/// # Ok::<(), dg_trust::TrustError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SubjectAggregateCache {
    /// `postings[j]` = `(observer, value)` pairs sorted by observer —
    /// subject `j`'s column in ascending-observer (row-major) order.
    postings: Vec<Vec<(NodeId, TrustValue)>>,
    sums: Vec<f64>,
    counts: Vec<usize>,
    dirty: Vec<bool>,
    dirty_list: Vec<NodeId>,
}

impl SubjectAggregateCache {
    /// Empty cache over `n` subjects (mirroring an empty matrix).
    pub fn new(n: usize) -> Self {
        Self {
            postings: vec![Vec::new(); n],
            sums: vec![0.0; n],
            counts: vec![0usize; n],
            dirty: vec![false; n],
            dirty_list: Vec::new(),
        }
    }

    /// Dimension `N`.
    pub fn node_count(&self) -> usize {
        self.postings.len()
    }

    fn mark_dirty(&mut self, j: NodeId) {
        if !self.dirty[j.index()] {
            self.dirty[j.index()] = true;
            self.dirty_list.push(j);
        }
    }

    /// Record that `observer`'s row changed from `old_run` to
    /// `new_run` (both sorted by subject, the order every matrix
    /// backend stores rows in). A merge-walk touches only the subjects
    /// present in either run and skips those whose value keeps its
    /// bits; every other subject `j` has its posting updated and
    /// `(j, observer)` appended to `moved`, ascending. The caller
    /// applies the same replacement to the matrix itself (the cache
    /// never writes the matrix).
    pub fn apply_row_diff(
        &mut self,
        observer: NodeId,
        old_run: &[(NodeId, TrustValue)],
        new_run: &[(NodeId, TrustValue)],
        moved: &mut Vec<(NodeId, NodeId)>,
    ) {
        let (mut a, mut b) = (0usize, 0usize);
        while a < old_run.len() || b < new_run.len() {
            let (j, value) = match (old_run.get(a), new_run.get(b)) {
                (Some(&(oj, ot)), Some(&(nj, nt))) if oj == nj => {
                    (a, b) = (a + 1, b + 1);
                    if ot.get().to_bits() == nt.get().to_bits() {
                        continue;
                    }
                    (nj, Some(nt))
                }
                (old, Some(&(nj, nt))) if old.map_or(true, |&(oj, _)| nj < oj) => {
                    b += 1;
                    (nj, Some(nt))
                }
                (Some(&(oj, _)), _) => {
                    a += 1;
                    (oj, None)
                }
                (None, _) => unreachable!("the loop condition or the arm above"),
            };
            self.update_posting(j, observer, value);
            moved.push((j, observer));
        }
    }

    /// Insert/overwrite (`Some`) or remove (`None`) one posting.
    fn update_posting(&mut self, j: NodeId, observer: NodeId, value: Option<TrustValue>) {
        let postings = &mut self.postings[j.index()];
        match postings.binary_search_by_key(&observer, |&(o, _)| o) {
            Ok(idx) => match value {
                Some(t) => postings[idx].1 = t,
                None => {
                    postings.remove(idx);
                }
            },
            Err(idx) => {
                if let Some(t) = value {
                    postings.insert(idx, (observer, t));
                }
            }
        }
        self.mark_dirty(j);
    }

    /// Re-aggregate every dirty subject under `policy` and return the
    /// sorted list of subjects that were refreshed. Each dirty subject
    /// is recomputed over its full postings list in ascending-observer
    /// order through `RobustAggregation::subject_sum` — the exact
    /// computation the from-scratch sweep performs — so the cached
    /// `(sum, count)` pairs stay bit-identical to
    /// [`TrustMatrix::robust_subject_sums_and_counts`](crate::TrustMatrix::robust_subject_sums_and_counts) on the mirrored
    /// matrix.
    pub fn refresh(&mut self, policy: &RobustAggregation) -> Vec<NodeId> {
        let mut refreshed = std::mem::take(&mut self.dirty_list);
        refreshed.sort_unstable();
        let mut scratch = Vec::new();
        for &j in &refreshed {
            self.dirty[j.index()] = false;
            scratch.clear();
            scratch.extend(self.postings[j.index()].iter().map(|&(_, t)| t.get()));
            let (sum, count) = policy.subject_sum(&mut scratch);
            self.sums[j.index()] = sum;
            self.counts[j.index()] = count;
        }
        refreshed
    }

    /// Cached per-subject robust sums (valid after
    /// [`refresh`](Self::refresh)).
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// Cached per-subject robust report counts (the paper's `N_d`).
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// One subject's cached `(sum, count)`.
    pub fn aggregate(&self, j: NodeId) -> (f64, usize) {
        (self.sums[j.index()], self.counts[j.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::TrustMatrix;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn tv(v: f64) -> TrustValue {
        TrustValue::saturating(v)
    }

    fn row_of(m: &TrustMatrix, i: NodeId) -> Vec<(NodeId, TrustValue)> {
        m.row(i).to_vec()
    }

    /// `(subject, observer)` for every subject whose value has other
    /// bits in `new` than in `old` (absent counts as a value),
    /// ascending — what `apply_row_diff` must report.
    fn bitwise_diff(
        observer: NodeId,
        old: &[(NodeId, TrustValue)],
        new: &[(NodeId, TrustValue)],
    ) -> Vec<(NodeId, NodeId)> {
        let bits = |run: &[(NodeId, TrustValue)]| -> BTreeMap<NodeId, u64> {
            run.iter().map(|&(j, t)| (j, t.get().to_bits())).collect()
        };
        let (old, new) = (bits(old), bits(new));
        let subjects: BTreeSet<NodeId> = old.keys().chain(new.keys()).copied().collect();
        subjects
            .into_iter()
            .filter(|j| old.get(j) != new.get(j))
            .map(|j| (j, observer))
            .collect()
    }

    #[test]
    fn diff_then_refresh_tracks_inserts_overwrites_and_removes() {
        let policy = RobustAggregation::none();
        let n = 4;
        let mut m = TrustMatrix::new(n);
        let mut cache = SubjectAggregateCache::new(n);

        let mut moved = Vec::new();
        let r0 = vec![(NodeId(1), tv(0.5)), (NodeId(3), tv(0.2))];
        cache.apply_row_diff(NodeId(0), &row_of(&m, NodeId(0)), &r0, &mut moved);
        m.replace_rows(&[(NodeId(0), r0)]).unwrap();
        assert_eq!(
            cache.refresh(&policy),
            vec![NodeId(1), NodeId(3)],
            "both rated subjects refresh"
        );

        // Overwrite one subject, drop the other, add a third.
        let r0b = vec![(NodeId(1), tv(0.9)), (NodeId(2), tv(0.4))];
        cache.apply_row_diff(NodeId(0), &row_of(&m, NodeId(0)), &r0b, &mut moved);
        m.replace_rows(&[(NodeId(0), r0b)]).unwrap();
        assert_eq!(
            cache.refresh(&policy),
            vec![NodeId(1), NodeId(2), NodeId(3)]
        );

        let (sums, counts) = m.robust_subject_sums_and_counts(&policy);
        assert_eq!(cache.sums(), &sums[..]);
        assert_eq!(cache.counts(), &counts[..]);
        assert_eq!(cache.aggregate(NodeId(3)), (0.0, 0));
        let observer = |js: &[u32]| {
            js.iter()
                .map(|&j| (NodeId(j), NodeId(0)))
                .collect::<Vec<_>>()
        };
        assert_eq!(moved, observer(&[1, 3, 1, 2, 3]));
    }

    #[test]
    fn identical_replacement_marks_nothing_dirty() {
        let mut cache = SubjectAggregateCache::new(3);
        let run = vec![(NodeId(0), tv(0.3)), (NodeId(2), tv(0.7))];
        let mut moved = Vec::new();
        cache.apply_row_diff(NodeId(1), &[], &run, &mut moved);
        cache.refresh(&RobustAggregation::none());
        moved.clear();
        cache.apply_row_diff(NodeId(1), &run, &run, &mut moved);
        assert!(moved.is_empty());
        assert!(cache.dirty_list.is_empty());
        assert!(cache.refresh(&RobustAggregation::none()).is_empty());
    }

    proptest! {
        /// Delta-applied aggregates equal from-scratch aggregates —
        /// **bit-for-bit** — on random row-replacement sequences with
        /// interleaved refreshes, under both the plain and the
        /// defended robust policy, and every replacement reports
        /// exactly the bitwise diff of its old and new rows. This is
        /// the contract that lets the incremental engine skip clean
        /// subjects entirely. Coarse cases round values to quarters, so
        /// a replacement often repeats a subject's bits.
        #[test]
        fn delta_aggregates_match_scratch_bitwise(
            steps in proptest::collection::vec(
                (0u32..6, proptest::collection::vec((0u32..6, 0.0..1.0f64), 0..5), 0u8..2),
                1..40,
            ),
            defended in 0u8..2,
            coarse in 0u8..2,
        ) {
            let n = 6;
            let policy = if defended == 1 {
                RobustAggregation::defended()
            } else {
                RobustAggregation::none()
            };
            let mut m = TrustMatrix::new(n);
            let mut cache = SubjectAggregateCache::new(n);

            for (observer, raw_run, refresh_now) in steps {
                let observer = NodeId(observer);
                // Sorted, deduplicated replacement run (last write wins).
                let mut run: Vec<(NodeId, TrustValue)> = Vec::new();
                let mut sorted = raw_run;
                sorted.sort_by_key(|&(j, _)| j);
                for (j, v) in sorted {
                    let v = if coarse == 1 { (v * 4.0).round() / 4.0 } else { v };
                    match run.last_mut() {
                        Some(last) if last.0 == NodeId(j) => last.1 = tv(v),
                        _ => run.push((NodeId(j), tv(v))),
                    }
                }
                let old = m.row(observer).to_vec();
                let mut moved = Vec::new();
                cache.apply_row_diff(observer, &old, &run, &mut moved);
                prop_assert_eq!(moved, bitwise_diff(observer, &old, &run));
                m.replace_rows(&[(observer, run)]).unwrap();
                if refresh_now == 1 {
                    cache.refresh(&policy);
                }
            }

            cache.refresh(&policy);
            let (sums, counts) = m.robust_subject_sums_and_counts(&policy);
            prop_assert_eq!(cache.counts(), &counts[..]);
            for (j, sum) in sums.iter().enumerate().take(n) {
                prop_assert_eq!(
                    cache.sums()[j].to_bits(),
                    sum.to_bits(),
                    "subject {} diverged",
                    j
                );
            }
        }
    }
}
