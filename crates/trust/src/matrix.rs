//! The sparse trust matrix `t` of Section 4.
//!
//! "For the whole network, we can define a trust matrix of dimensions
//! N × N. Here `t_ij` represents the trust value of j as maintained by i
//! based on direct interaction. This matrix is generally sparse" — each
//! node only transacts with a handful of neighbours. Rows are the
//! *observer* (opining node) `i`, columns the *subject* `j`.
//!
//! Two storage backends share this API:
//!
//! * **Dynamic** — one ordered map per row; cheap point mutation, the
//!   default for interactive construction;
//! * **Sharded** — contiguous row ranges, each a shard-local CSR of
//!   sorted `(column, value)` runs over one arena `Vec` (see
//!   [`crate::sharded`] and [`crate::csr`]): contiguous row scans and
//!   binary-search point lookups for the aggregation hot path, with
//!   shards that build independently on a thread pool. One shard is the
//!   flat CSR layout. Freeze a built matrix with [`TrustMatrix::shard`],
//!   bulk-build via [`TrustMatrix::sharded_builder`] or wrap with
//!   [`TrustMatrix::from_sharded`].
//!
//! Rows *and* columns are addressed by [`NodeId`] throughout — raw `u32`
//! indices never cross the API boundary.

use crate::error::TrustError;
use crate::sharded::{ShardSpec, ShardedCsr, ShardedCsrBuilder};
use crate::value::TrustValue;
use dg_graph::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Storage {
    Dynamic(Vec<BTreeMap<NodeId, TrustValue>>),
    Sharded(ShardedCsr),
}

/// Sparse `N × N` matrix of direct-interaction trust values.
///
/// Iteration order is deterministic under both backends, which keeps
/// gossip experiments reproducible. Equality is *logical*: a sharded and
/// a dynamic matrix with the same entries compare equal.
///
/// ```
/// use dg_graph::NodeId;
/// use dg_trust::{ShardSpec, TrustMatrix, TrustValue};
///
/// let mut t = TrustMatrix::new(3);
/// t.set(NodeId(0), NodeId(1), TrustValue::new(0.8)?)?;
/// t.set(NodeId(1), NodeId(2), TrustValue::new(0.4)?)?;
/// assert_eq!(t.get(NodeId(0), NodeId(1)).map(|v| v.get()), Some(0.8));
/// assert_eq!(t.get(NodeId(2), NodeId(0)), None);
///
/// // Freeze into the sharded CSR backend for the aggregation hot path;
/// // the contents — and equality — are unchanged.
/// let mut frozen = t.clone();
/// frozen.shard(ShardSpec::new(3, 1));
/// assert!(frozen.is_sharded());
/// assert_eq!(frozen, t);
/// assert_eq!(frozen.entry_count(), 2);
/// # Ok::<(), dg_trust::TrustError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrustMatrix {
    n: usize,
    storage: Storage,
}

impl TrustMatrix {
    /// Empty matrix for `n` nodes (dynamic backend).
    pub fn new(n: usize) -> Self {
        Self {
            n,
            storage: Storage::Dynamic(vec![BTreeMap::new(); n]),
        }
    }

    /// Wrap frozen sharded storage.
    pub fn from_sharded(sharded: ShardedCsr) -> Self {
        Self {
            n: sharded.node_count(),
            storage: Storage::Sharded(sharded),
        }
    }

    /// Bulk builder routing rows onto per-shard rectangular CSR
    /// builders; [`ShardedCsrBuilder::build`] plus
    /// [`TrustMatrix::from_sharded`] produce a sharded matrix directly.
    pub fn sharded_builder(spec: ShardSpec) -> ShardedCsrBuilder {
        ShardedCsrBuilder::new(spec)
    }

    /// Whether the matrix currently uses the sharded CSR backend.
    pub fn is_sharded(&self) -> bool {
        matches!(self.storage, Storage::Sharded(_))
    }

    /// The sharded backend's partition (`None` on the dynamic backend).
    pub fn shard_spec(&self) -> Option<ShardSpec> {
        match &self.storage {
            Storage::Sharded(sharded) => Some(sharded.spec()),
            Storage::Dynamic(_) => None,
        }
    }

    /// Re-partition into the sharded backend (from any backend).
    ///
    /// # Panics
    /// Panics when `spec` does not cover exactly this matrix's
    /// dimension — a shard partition is meaningless for any other `N`.
    pub fn shard(&mut self, spec: ShardSpec) {
        assert_eq!(
            spec.node_count(),
            self.n,
            "shard spec covers {} rows but the matrix has {}",
            spec.node_count(),
            self.n
        );
        let mut builder = ShardedCsrBuilder::new(spec);
        if let Storage::Dynamic(rows) = &mut self.storage {
            // Consume dynamic rows as they are routed so the source
            // and the sharded copy never fully coexist (the substrate
            // of a million-node scenario would otherwise transiently
            // double).
            for (i, row) in rows.iter_mut().enumerate() {
                builder
                    .extend_row(NodeId(i as u32), std::mem::take(row))
                    .expect("existing rows are in range");
            }
        } else {
            for i in 0..self.n as u32 {
                builder
                    .extend_row(NodeId(i), self.row(NodeId(i)))
                    .expect("existing rows are in range");
            }
        }
        self.storage = Storage::Sharded(builder.build());
    }

    /// Dimension `N`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    fn check(&self, id: NodeId) -> Result<(), TrustError> {
        if id.index() >= self.n {
            return Err(TrustError::NodeOutOfRange {
                id: id.0,
                n: self.n,
            });
        }
        Ok(())
    }

    /// Set `t_ij` (observer `i`, subject `j`).
    ///
    /// On the sharded backend this splices the owning shard's arena —
    /// fine for touch-ups; use [`TrustMatrix::sharded_builder`] for bulk
    /// loads.
    pub fn set(&mut self, i: NodeId, j: NodeId, t: TrustValue) -> Result<(), TrustError> {
        self.check(i)?;
        self.check(j)?;
        match &mut self.storage {
            Storage::Dynamic(rows) => {
                rows[i.index()].insert(j, t);
                Ok(())
            }
            Storage::Sharded(sharded) => sharded.set(i, j, t),
        }
    }

    /// Remove an entry (e.g. the feedback of a peer not heard from for a
    /// long time, which the paper says should be dropped). Returns the old
    /// value if present.
    pub fn remove(&mut self, i: NodeId, j: NodeId) -> Option<TrustValue> {
        match &mut self.storage {
            Storage::Dynamic(rows) => rows.get_mut(i.index())?.remove(&j),
            Storage::Sharded(sharded) => sharded.remove(i, j),
        }
    }

    /// `t_ij`, or `None` when `i` has never interacted with `j`.
    pub fn get(&self, i: NodeId, j: NodeId) -> Option<TrustValue> {
        match &self.storage {
            Storage::Dynamic(rows) => rows.get(i.index())?.get(&j).copied(),
            Storage::Sharded(sharded) => sharded.get(i, j),
        }
    }

    /// `t_ij` with the paper's default of 0 for unknown pairs
    /// (anti-whitewash initial value).
    pub fn get_or_zero(&self, i: NodeId, j: NodeId) -> TrustValue {
        self.get(i, j).unwrap_or(TrustValue::ZERO)
    }

    /// Whether observer `i` holds any opinion about `j`.
    pub fn has_opinion(&self, i: NodeId, j: NodeId) -> bool {
        self.get(i, j).is_some()
    }

    /// All opinions held by observer `i`, ordered by subject id.
    pub fn row(&self, i: NodeId) -> RowIter<'_> {
        match &self.storage {
            Storage::Dynamic(rows) => match rows.get(i.index()) {
                Some(row) => RowIter::Dynamic(row.iter()),
                None => RowIter::Empty,
            },
            Storage::Sharded(sharded) => RowIter::Csr(sharded.row(i).iter()),
        }
    }

    /// Number of opinions held by observer `i`.
    pub fn row_len(&self, i: NodeId) -> usize {
        match &self.storage {
            Storage::Dynamic(rows) => rows.get(i.index()).map_or(0, BTreeMap::len),
            Storage::Sharded(sharded) => sharded.row(i).len(),
        }
    }

    /// All opinions *about* subject `j` (a column scan; `O(N log d)`).
    pub fn column(&self, j: NodeId) -> Vec<(NodeId, TrustValue)> {
        (0..self.n as u32)
            .filter_map(|i| self.get(NodeId(i), j).map(|t| (NodeId(i), t)))
            .collect()
    }

    /// Number of nodes holding an opinion about `j` — the paper's `N_d`
    /// (nodes with direct interaction), gossiped as `count`.
    pub fn opinion_count(&self, j: NodeId) -> usize {
        (0..self.n as u32)
            .filter(|&i| self.has_opinion(NodeId(i), j))
            .count()
    }

    /// Total stored entries.
    pub fn entry_count(&self) -> usize {
        match &self.storage {
            Storage::Dynamic(rows) => rows.iter().map(BTreeMap::len).sum(),
            Storage::Sharded(sharded) => sharded.entry_count(),
        }
    }

    /// Iterator over all `(i, j, t_ij)` triples in row-major order.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, NodeId, TrustValue)> + '_ {
        (0..self.n as u32)
            .flat_map(move |i| self.row(NodeId(i)).map(move |(j, t)| (NodeId(i), j, t)))
    }

    /// Mean of all opinions about `j` over the nodes that hold one —
    /// the converged value of the paper's Algorithm 1 gossip
    /// (`Σᵢ y_ij / Σᵢ g_ij` with `g = 1` for opinion holders).
    ///
    /// Returns `None` when nobody has interacted with `j`.
    pub fn mean_opinion(&self, j: NodeId) -> Option<f64> {
        let col = self.column(j);
        if col.is_empty() {
            return None;
        }
        Some(col.iter().map(|(_, t)| t.get()).sum::<f64>() / col.len() as f64)
    }

    /// Sum of all opinions about `j` — the converged `Y_j = Σᵢ t_ij` of
    /// Algorithm 2's single-originator gossip.
    pub fn opinion_sum(&self, j: NodeId) -> f64 {
        (0..self.n as u32)
            .filter_map(|i| self.get(NodeId(i), j))
            .map(TrustValue::get)
            .sum()
    }

    /// Per-subject `(Σᵢ t_ij, N_d)` for every subject in one row-major
    /// pass — `O(nnz)` instead of `N` column scans. Feeds the closed-form
    /// aggregation phase.
    ///
    /// Beyond one L2 tile of subjects the sweep runs cache-aware and
    /// parallel (see `crate::tiled`): entries are bucketed by subject
    /// tile and each tile reduces into SoA accumulators on the
    /// work-stealing pool. Bit-identical to the naive scatter at any
    /// thread count — bucketing preserves each subject's row-major
    /// report order and tiles own disjoint output ranges.
    pub fn subject_sums_and_counts(&self) -> (Vec<f64>, Vec<usize>) {
        crate::tiled::plain_sums(self.n, crate::tiled::SUBJECT_TILE, self.entries())
    }

    /// [`Self::subject_sums_and_counts`] under a
    /// [`RobustAggregation`](crate::RobustAggregation) policy: every
    /// report is clamped into the policy window and the most extreme
    /// `trim_fraction` of each subject's reports is dropped from each
    /// tail before summing. With [`RobustAggregation::none`](crate::RobustAggregation::none)
    /// this is bit-for-bit the plain computation. Deterministic: values
    /// are gathered row-major (so per subject in ascending observer
    /// order — the tiled sweep's stable counting sort preserves it; see
    /// `crate::tiled`) and handed to the shared per-subject kernel
    /// [`RobustAggregation::subject_sum`](crate::RobustAggregation::subject_sum),
    /// the same kernel the delta cache
    /// ([`SubjectAggregateCache`](crate::SubjectAggregateCache)) uses.
    pub fn robust_subject_sums_and_counts(
        &self,
        policy: &crate::robust::RobustAggregation,
    ) -> (Vec<f64>, Vec<usize>) {
        if policy.is_none() {
            return self.subject_sums_and_counts();
        }
        crate::tiled::robust_sums(self.n, crate::tiled::SUBJECT_TILE, policy, self.entries())
    }

    /// Replace whole observer rows in one pass — the incremental
    /// engine's bulk write path. `rows` must be sorted by ascending
    /// observer id with no duplicates; each replacement run must be
    /// sorted by ascending subject id (the order every backend stores
    /// rows in). On the sharded backend this rebuilds only the arenas
    /// of the shards owning a replaced row instead of splicing entry by
    /// entry.
    pub fn replace_rows(
        &mut self,
        rows: &[(NodeId, Vec<(NodeId, TrustValue)>)],
    ) -> Result<(), TrustError> {
        for window in rows.windows(2) {
            if window[0].0 >= window[1].0 {
                return Err(TrustError::UnsortedRowReplacement { id: window[1].0 .0 });
            }
        }
        for (i, run) in rows {
            self.check(*i)?;
            for &(j, _) in run {
                self.check(j)?;
            }
            if run.windows(2).any(|w| w[0].0 >= w[1].0) {
                return Err(TrustError::UnsortedRowReplacement { id: i.0 });
            }
        }
        match &mut self.storage {
            Storage::Dynamic(dyn_rows) => {
                for (i, run) in rows {
                    dyn_rows[i.index()] = run.iter().copied().collect();
                }
            }
            Storage::Sharded(sharded) => sharded.replace_rows(rows),
        }
        Ok(())
    }
}

/// Logical equality over entries, independent of backend.
impl PartialEq for TrustMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.entry_count() == other.entry_count()
            && self.entries().eq(other.entries())
    }
}

/// Row iterator over either backend.
#[derive(Debug, Clone)]
pub enum RowIter<'a> {
    /// Row of a dynamic matrix.
    Dynamic(std::collections::btree_map::Iter<'a, NodeId, TrustValue>),
    /// Row run of a sharded CSR matrix.
    Csr(std::slice::Iter<'a, (NodeId, TrustValue)>),
    /// Out-of-range row.
    Empty,
}

impl Iterator for RowIter<'_> {
    type Item = (NodeId, TrustValue);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            RowIter::Dynamic(it) => it.next().map(|(&j, &t)| (j, t)),
            RowIter::Csr(it) => it.next().copied(),
            RowIter::Empty => None,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            RowIter::Dynamic(it) => it.size_hint(),
            RowIter::Csr(it) => it.size_hint(),
            RowIter::Empty => (0, Some(0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tv(v: f64) -> TrustValue {
        TrustValue::new(v).unwrap()
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = TrustMatrix::new(4);
        m.set(NodeId(0), NodeId(1), tv(0.8)).unwrap();
        assert_eq!(m.get(NodeId(0), NodeId(1)), Some(tv(0.8)));
        assert_eq!(m.get(NodeId(1), NodeId(0)), None);
        assert_eq!(m.get_or_zero(NodeId(1), NodeId(0)), TrustValue::ZERO);
    }

    #[test]
    fn out_of_range_rejected() {
        for sharded in [false, true] {
            let mut m = TrustMatrix::new(2);
            if sharded {
                m.shard(ShardSpec::new(2, 1));
            }
            assert_eq!(
                m.set(NodeId(5), NodeId(0), tv(0.1)),
                Err(TrustError::NodeOutOfRange { id: 5, n: 2 })
            );
            assert_eq!(
                m.set(NodeId(0), NodeId(2), tv(0.1)),
                Err(TrustError::NodeOutOfRange { id: 2, n: 2 })
            );
        }
    }

    #[test]
    fn column_and_count() {
        let mut m = TrustMatrix::new(4);
        m.set(NodeId(0), NodeId(3), tv(0.5)).unwrap();
        m.set(NodeId(1), NodeId(3), tv(0.7)).unwrap();
        m.set(NodeId(2), NodeId(0), tv(0.9)).unwrap();
        let col = m.column(NodeId(3));
        assert_eq!(col, vec![(NodeId(0), tv(0.5)), (NodeId(1), tv(0.7))]);
        assert_eq!(m.opinion_count(NodeId(3)), 2);
        assert_eq!(m.opinion_count(NodeId(1)), 0);
    }

    #[test]
    fn mean_and_sum() {
        let mut m = TrustMatrix::new(3);
        m.set(NodeId(0), NodeId(2), tv(0.2)).unwrap();
        m.set(NodeId(1), NodeId(2), tv(0.6)).unwrap();
        assert!((m.mean_opinion(NodeId(2)).unwrap() - 0.4).abs() < 1e-12);
        assert!((m.opinion_sum(NodeId(2)) - 0.8).abs() < 1e-12);
        assert_eq!(m.mean_opinion(NodeId(0)), None);
        assert_eq!(m.opinion_sum(NodeId(0)), 0.0);
    }

    #[test]
    fn overwrite_and_remove() {
        for sharded in [false, true] {
            let mut m = TrustMatrix::new(2);
            if sharded {
                m.shard(ShardSpec::new(2, 1));
            }
            m.set(NodeId(0), NodeId(1), tv(0.2)).unwrap();
            m.set(NodeId(0), NodeId(1), tv(0.9)).unwrap();
            assert_eq!(m.get(NodeId(0), NodeId(1)), Some(tv(0.9)));
            assert_eq!(m.entry_count(), 1);
            assert_eq!(m.remove(NodeId(0), NodeId(1)), Some(tv(0.9)));
            assert_eq!(m.entry_count(), 0);
            assert_eq!(m.remove(NodeId(0), NodeId(1)), None);
        }
    }

    #[test]
    fn entries_row_major() {
        let mut m = TrustMatrix::new(3);
        m.set(NodeId(1), NodeId(0), tv(0.1)).unwrap();
        m.set(NodeId(0), NodeId(2), tv(0.3)).unwrap();
        m.set(NodeId(1), NodeId(2), tv(0.5)).unwrap();
        let all: Vec<_> = m.entries().collect();
        assert_eq!(
            all,
            vec![
                (NodeId(0), NodeId(2), tv(0.3)),
                (NodeId(1), NodeId(0), tv(0.1)),
                (NodeId(1), NodeId(2), tv(0.5)),
            ]
        );
    }

    #[test]
    fn serde_roundtrip_both_backends() {
        let mut m = TrustMatrix::new(3);
        m.set(NodeId(0), NodeId(1), tv(0.25)).unwrap();
        let s = serde_json::to_string(&m).unwrap();
        let back: TrustMatrix = serde_json::from_str(&s).unwrap();
        assert_eq!(m, back);

        m.shard(ShardSpec::new(3, 1));
        let s = serde_json::to_string(&m).unwrap();
        let back: TrustMatrix = serde_json::from_str(&s).unwrap();
        assert!(back.is_sharded());
        assert_eq!(m, back);
    }

    #[test]
    fn sharded_backend_is_logically_equal_and_serde_roundtrips() {
        let mut dynamic = TrustMatrix::new(10);
        dynamic.set(NodeId(9), NodeId(0), tv(0.9)).unwrap();
        dynamic.set(NodeId(0), NodeId(9), tv(0.3)).unwrap();
        dynamic.set(NodeId(4), NodeId(5), tv(0.7)).unwrap();

        let mut sharded = dynamic.clone();
        sharded.shard(ShardSpec::new(10, 4));
        assert!(sharded.is_sharded());
        assert_eq!(sharded.shard_spec().unwrap().shard_count(), 4);
        assert_eq!(sharded, dynamic);
        let (ds, dc) = dynamic.subject_sums_and_counts();
        let (ss, sc) = sharded.subject_sums_and_counts();
        assert_eq!(dc, sc);
        assert_eq!(
            ds.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            ss.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let s = serde_json::to_string(&sharded).unwrap();
        let back: TrustMatrix = serde_json::from_str(&s).unwrap();
        assert!(back.is_sharded());
        assert_eq!(back, dynamic);
    }

    #[test]
    fn builder_builds_frozen_matrix() {
        let mut b = TrustMatrix::sharded_builder(ShardSpec::new(3, 1));
        b.set(NodeId(2), NodeId(1), tv(0.4)).unwrap();
        b.set(NodeId(0), NodeId(2), tv(0.6)).unwrap();
        let m = TrustMatrix::from_sharded(b.build());
        assert!(m.is_sharded());
        assert_eq!(m.node_count(), 3);
        assert_eq!(m.get(NodeId(2), NodeId(1)), Some(tv(0.4)));
        assert_eq!(m.entry_count(), 2);
    }

    #[test]
    fn subject_sums_and_counts_match_column_scans() {
        let mut m = TrustMatrix::new(4);
        m.set(NodeId(0), NodeId(3), tv(0.5)).unwrap();
        m.set(NodeId(1), NodeId(3), tv(0.7)).unwrap();
        m.set(NodeId(2), NodeId(0), tv(0.9)).unwrap();
        let (sums, counts) = m.subject_sums_and_counts();
        for j in 0..4u32 {
            let j = NodeId(j);
            assert!((sums[j.index()] - m.opinion_sum(j)).abs() < 1e-15);
            assert_eq!(counts[j.index()], m.opinion_count(j));
        }
    }

    proptest! {
        /// The sharded-CSR and BTreeMap backends agree on arbitrary
        /// interleaved insert / overwrite / remove / row-replace / read
        /// sequences — at one shard (the flat CSR layout) and at several.
        #[test]
        fn backends_agree_on_random_sequences(
            ops in proptest::collection::vec((0usize..8, 0usize..8, 0.0..1.0f64, 0u8..5), 1..120),
            k in 2usize..6,
        ) {
            let n = 8;
            for shards in [1, k] {
                let mut dynamic = TrustMatrix::new(n);
                let mut frozen = TrustMatrix::new(n);
                frozen.shard(ShardSpec::new(n, shards));
                prop_assert!(frozen.is_sharded());

                for &(i, j, v, op) in &ops {
                    let (i, j) = (NodeId(i as u32), NodeId(j as u32));
                    match op {
                        0 | 1 => {
                            dynamic.set(i, j, tv(v)).unwrap();
                            frozen.set(i, j, tv(v)).unwrap();
                        }
                        2 => {
                            prop_assert_eq!(dynamic.remove(i, j), frozen.remove(i, j));
                        }
                        3 => {
                            let rows = [(i, vec![(j, tv(v))])];
                            dynamic.replace_rows(&rows).unwrap();
                            frozen.replace_rows(&rows).unwrap();
                        }
                        _ => {
                            prop_assert_eq!(dynamic.get(i, j), frozen.get(i, j));
                            prop_assert_eq!(dynamic.row_len(i), frozen.row_len(i));
                        }
                    }
                }

                prop_assert_eq!(dynamic.entry_count(), frozen.entry_count());
                let d: Vec<_> = dynamic.entries().collect();
                let f: Vec<_> = frozen.entries().collect();
                prop_assert_eq!(d, f);
                for j in 0..n as u32 {
                    let j = NodeId(j);
                    prop_assert_eq!(dynamic.column(j), frozen.column(j));
                    prop_assert_eq!(dynamic.opinion_count(j), frozen.opinion_count(j));
                    prop_assert!((dynamic.opinion_sum(j) - frozen.opinion_sum(j)).abs() < 1e-12);
                }
                prop_assert_eq!(&dynamic, &frozen);
            }
        }
    }
}
