//! Delta-maintained per-subject aggregates over a trust matrix.
//!
//! The closed-form aggregation phase needs, for every subject `j`, the
//! robust `(Σᵢ t_ij, N_d)` pair over all observers (see
//! [`TrustMatrix::robust_subject_sums_and_counts`]). The batched
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
//! actually changed and marks those subjects dirty;
//! [`refresh`](SubjectAggregateCache::refresh) then re-aggregates the
//! dirty subjects only.
//!
//! **Bit-identity, not approximation.** Float addition is not
//! associative, so the cache never "subtracts the old value and adds
//! the new one" — that would drift from the from-scratch sweep within
//! one round. Instead a dirty subject's aggregate is recomputed over
//! its full postings list in ascending-observer order through the same
//! [`RobustAggregation::subject_sum`] kernel the from-scratch sweep
//! uses. Recomputation is `O(column degree)` per dirty subject; clean
//! subjects cost nothing. The proptest at the bottom pins
//! delta-refreshed aggregates bit-for-bit against the from-scratch
//! sweep on random op sequences, under both the plain and the defended
//! robust policy.

use crate::matrix::TrustMatrix;
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
/// cache.apply_row_diff(NodeId(0), &[], &row);
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

    /// Mirror a matrix wholesale (marks every populated subject dirty;
    /// call [`refresh`](Self::refresh) afterwards). `O(nnz)`.
    pub fn rebuild_from(&mut self, matrix: &TrustMatrix) {
        let n = self.postings.len();
        for postings in &mut self.postings {
            postings.clear();
        }
        self.sums = vec![0.0; n];
        self.counts = vec![0usize; n];
        self.dirty = vec![false; n];
        self.dirty_list.clear();
        // `entries()` is row-major, so each column fills in ascending
        // observer order without sorting.
        for (i, j, t) in matrix.entries() {
            self.postings[j.index()].push((i, t));
            self.mark_dirty(j);
        }
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
    /// present in either run; subjects whose value is bit-equal in
    /// both are skipped entirely. The caller applies the same
    /// replacement to the matrix itself (the cache never writes the
    /// matrix).
    pub fn apply_row_diff(
        &mut self,
        observer: NodeId,
        old_run: &[(NodeId, TrustValue)],
        new_run: &[(NodeId, TrustValue)],
    ) {
        let (mut a, mut b) = (0usize, 0usize);
        while a < old_run.len() || b < new_run.len() {
            match (old_run.get(a), new_run.get(b)) {
                (Some(&(oj, ot)), Some(&(nj, nt))) if oj == nj => {
                    if ot != nt {
                        self.update_posting(oj, observer, Some(nt));
                    }
                    a += 1;
                    b += 1;
                }
                (Some(&(oj, _)), Some(&(nj, nt))) if nj < oj => {
                    self.update_posting(nj, observer, Some(nt));
                    b += 1;
                }
                (Some(&(oj, _)), _) => {
                    self.update_posting(oj, observer, None);
                    a += 1;
                }
                (None, Some(&(nj, nt))) => {
                    self.update_posting(nj, observer, Some(nt));
                    b += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
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
    /// order through [`RobustAggregation::subject_sum`] — the exact
    /// computation the from-scratch sweep performs — so the cached
    /// `(sum, count)` pairs stay bit-identical to
    /// [`TrustMatrix::robust_subject_sums_and_counts`] on the mirrored
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

    /// Subjects touched since the last refresh (unsorted).
    pub fn pending_dirty(&self) -> &[NodeId] {
        &self.dirty_list
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tv(v: f64) -> TrustValue {
        TrustValue::saturating(v)
    }

    fn row_of(m: &TrustMatrix, i: NodeId) -> Vec<(NodeId, TrustValue)> {
        m.row(i).to_vec()
    }

    #[test]
    fn diff_then_refresh_tracks_inserts_overwrites_and_removes() {
        let policy = RobustAggregation::none();
        let n = 4;
        let mut m = TrustMatrix::new(n);
        let mut cache = SubjectAggregateCache::new(n);

        let r0 = vec![(NodeId(1), tv(0.5)), (NodeId(3), tv(0.2))];
        cache.apply_row_diff(NodeId(0), &row_of(&m, NodeId(0)), &r0);
        m.replace_rows(&[(NodeId(0), r0)]).unwrap();
        assert_eq!(
            cache.refresh(&policy),
            vec![NodeId(1), NodeId(3)],
            "both rated subjects refresh"
        );

        // Overwrite one subject, drop the other, add a third.
        let r0b = vec![(NodeId(1), tv(0.9)), (NodeId(2), tv(0.4))];
        cache.apply_row_diff(NodeId(0), &row_of(&m, NodeId(0)), &r0b);
        m.replace_rows(&[(NodeId(0), r0b)]).unwrap();
        assert_eq!(
            cache.refresh(&policy),
            vec![NodeId(1), NodeId(2), NodeId(3)]
        );

        let (sums, counts) = m.robust_subject_sums_and_counts(&policy);
        assert_eq!(cache.sums(), &sums[..]);
        assert_eq!(cache.counts(), &counts[..]);
        assert_eq!(cache.aggregate(NodeId(3)), (0.0, 0));
    }

    #[test]
    fn identical_replacement_marks_nothing_dirty() {
        let mut cache = SubjectAggregateCache::new(3);
        let run = vec![(NodeId(0), tv(0.3)), (NodeId(2), tv(0.7))];
        cache.apply_row_diff(NodeId(1), &[], &run);
        cache.refresh(&RobustAggregation::none());
        cache.apply_row_diff(NodeId(1), &run, &run);
        assert!(cache.pending_dirty().is_empty());
        assert!(cache.refresh(&RobustAggregation::none()).is_empty());
    }

    #[test]
    fn rebuild_matches_from_scratch() {
        let mut m = TrustMatrix::new(5);
        m.set(NodeId(4), NodeId(0), tv(0.9)).unwrap();
        m.set(NodeId(0), NodeId(4), tv(0.3)).unwrap();
        m.set(NodeId(2), NodeId(4), tv(0.7)).unwrap();
        for policy in [RobustAggregation::none(), RobustAggregation::defended()] {
            let mut cache = SubjectAggregateCache::new(5);
            cache.rebuild_from(&m);
            cache.refresh(&policy);
            let (sums, counts) = m.robust_subject_sums_and_counts(&policy);
            assert_eq!(cache.sums(), &sums[..]);
            assert_eq!(cache.counts(), &counts[..]);
        }
    }

    proptest! {
        /// Delta-applied aggregates equal from-scratch aggregates —
        /// **bit-for-bit** — on random row-replacement sequences with
        /// interleaved refreshes, under both the plain and the
        /// defended robust policy. This is the contract that lets the
        /// incremental engine skip clean subjects entirely.
        #[test]
        fn delta_aggregates_match_scratch_bitwise(
            steps in proptest::collection::vec(
                (0u32..6, proptest::collection::vec((0u32..6, 0.0..1.0f64), 0..5), 0u8..2),
                1..40,
            ),
            defended in 0u8..2,
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
                    match run.last_mut() {
                        Some(last) if last.0 == NodeId(j) => last.1 = tv(v),
                        _ => run.push((NodeId(j), tv(v))),
                    }
                }
                let old = m.row(observer).to_vec();
                cache.apply_row_diff(observer, &old, &run);
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
