//! The sparse trust matrix `t` of Section 4.
//!
//! "For the whole network, we can define a trust matrix of dimensions
//! N × N. Here `t_ij` represents the trust value of j as maintained by i
//! based on direct interaction. This matrix is generally sparse" — each
//! node only transacts with a handful of neighbours. Rows are the
//! *observer* (opining node) `i`, columns the *subject* `j`.
//!
//! One store holds it. A [`ShardSpec`] cuts the rows into contiguous
//! ranges, and each range is a [`RowSlab`]: one arena of `(subject,
//! value)` cells plus one `(start, len)` span per row. A row is a sorted
//! run of cells, so row scans are contiguous and point lookups are a
//! binary search. Bulk fills ([`RowSlab::push_row`],
//! [`TrustMatrix::from_rows`]) push rows in ascending order, which lays
//! a slab out exactly as CSR; shards fill independently, so a round
//! engine fills them on a thread pool ([`TrustMatrix::from_slabs`]).
//!
//! Edits ([`TrustMatrix::set`], [`TrustMatrix::replace_rows`]) cost
//! `O(row)`: a new run that fits its
//! old span is written in place, the arena's last row grows in place, and
//! any other run moves to the end of the arena, leaving its old cells as
//! garbage. A slab compacts itself with one ascending copy once its
//! garbage exceeds its live cells, so its arena never holds more than
//! twice its live cells.
//!
//! Every read walks rows in ascending observer order and each row in
//! ascending subject order, whatever the partition or edit history — the
//! fixed order every deterministic float accumulation in the workspace
//! relies on. Rows *and* columns are addressed by [`NodeId`] throughout.

use crate::error::TrustError;
use crate::value::TrustValue;
use dg_graph::NodeId;
use std::ops::Range;

/// One stored opinion: `(subject, t_ij)`.
type Cell = (NodeId, TrustValue);

/// Partition of `n` node ids into contiguous, fixed-size row ranges.
///
/// Shard `s` owns rows `[s·chunk, min((s+1)·chunk, n))` with
/// `chunk = ⌈n / shard_count⌉`. The shard count is capped at the row
/// count, so only an uneven split (say 10 rows in 6 shards of 2) leaves
/// a trailing range empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    n: usize,
    shard_count: usize,
    chunk: usize,
}

impl ShardSpec {
    /// Row-chunk target of [`ShardSpec::auto`]: small enough that a
    /// shard's arena stays cache- and allocator-friendly, large enough
    /// that per-shard fixed costs amortise.
    pub(crate) const AUTO_CHUNK: usize = 32_768;

    /// Partition `n` rows into `shard_count` contiguous chunks, with
    /// `shard_count` clamped to `1..=max(n, 1)`.
    pub fn new(n: usize, shard_count: usize) -> Self {
        let shard_count = shard_count.clamp(1, n.max(1));
        Self {
            n,
            shard_count,
            chunk: n.div_ceil(shard_count).max(1),
        }
    }

    /// Deterministic default for `n` rows: one shard per
    /// `AUTO_CHUNK` rows. A pure function of `n` —
    /// never of the machine — and results do not depend on it anyway.
    pub fn auto(n: usize) -> Self {
        Self::new(n, n.div_ceil(Self::AUTO_CHUNK))
    }

    /// The partition a `shard_count` config knob selects: `0` means
    /// [`auto`](Self::auto), anything else is taken literally (up to
    /// the row count).
    pub fn configured(n: usize, shard_count: usize) -> Self {
        if shard_count == 0 {
            Self::auto(n)
        } else {
            Self::new(n, shard_count)
        }
    }

    /// Total rows `N`.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of shards, `1..=max(N, 1)`.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// `(shard, local row)` of `node`, which must be `< N`, with one
    /// division.
    #[inline]
    pub(crate) fn locate(&self, node: NodeId) -> (usize, usize) {
        let idx = node.index();
        let shard = idx / self.chunk;
        (shard, idx - shard * self.chunk)
    }

    /// The contiguous row range shard `shard` owns.
    pub fn range(&self, shard: usize) -> Range<u32> {
        let start = (shard * self.chunk).min(self.n);
        let end = ((shard + 1) * self.chunk).min(self.n);
        start as u32..end as u32
    }

    /// Number of rows in shard `shard`.
    pub fn rows_in(&self, shard: usize) -> usize {
        self.range(shard).len()
    }
}

/// The rows of one shard: one arena of cells and one `(start, len)`
/// span per row (see the [module docs](self)).
///
/// Fill a slab by pushing its rows in ascending order, then hand it to
/// [`TrustMatrix::from_slabs`]:
///
/// ```
/// use dg_graph::NodeId;
/// use dg_trust::{RowSlab, ShardSpec, TrustMatrix, TrustValue};
///
/// let t = |v| TrustValue::new(v);
/// let spec = ShardSpec::new(4, 2);
/// let mut low = RowSlab::default(); // rows 0 and 1
/// low.push_row([(NodeId(3), t(0.2)?), (NodeId(1), t(0.6)?)]);
/// low.push_row([]);
/// let mut high = RowSlab::default(); // rows 2 and 3
/// high.push_row([(NodeId(0), t(0.9)?)]);
///
/// let m = TrustMatrix::from_slabs(spec, vec![low, high])?;
/// assert_eq!(m.row(NodeId(0)), &[(NodeId(1), t(0.6)?), (NodeId(3), t(0.2)?)]);
/// assert_eq!(m.get(NodeId(2), NodeId(0)).map(|v| v.get()), Some(0.9));
/// assert_eq!(m.row_len(NodeId(3)), 0); // never pushed: empty
/// # Ok::<(), dg_trust::TrustError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct RowSlab {
    cells: Vec<Cell>,
    /// Row `r` is `cells[start..start + len]`; empty rows are `(0, 0)`.
    spans: Vec<(u32, u32)>,
    /// Cells some span covers; the rest of `cells` is garbage.
    live: usize,
}

/// The span of a run of `len` cells at `start`.
fn span(start: usize, len: usize) -> (u32, u32) {
    if len == 0 {
        return (0, 0);
    }
    let end = u32::try_from(start + len).expect("a row slab holds at most u32::MAX cells");
    (end - len as u32, len as u32)
}

impl RowSlab {
    /// Append the next row. Cells may come in any order; they are
    /// sorted by subject, and the last of duplicate subjects wins.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = Cell>) {
        let start = self.cells.len();
        self.cells.extend(row);
        if self.cells[start..].windows(2).any(|w| w[0].0 >= w[1].0) {
            let mut run = self.cells.split_off(start);
            // Reversed, a stable sort puts the last write first.
            run.reverse();
            run.sort_by_key(|&(j, _)| j);
            run.dedup_by_key(|&mut (j, _)| j);
            self.cells.append(&mut run);
        }
        self.live += self.cells.len() - start;
        self.spans.push(span(start, self.cells.len() - start));
    }

    #[inline]
    fn row(&self, local: usize) -> &[Cell] {
        let (start, len) = self.spans[local];
        &self.cells[start as usize..(start + len) as usize]
    }

    /// Replace cells `at..at + del` of row `local` by `ins` in `O(row)`
    /// (see the [module docs](self)); compacts when garbage exceeds the
    /// live cells.
    fn splice(&mut self, local: usize, at: usize, del: usize, ins: &[Cell]) {
        let (start, len) = self.spans[local];
        let (mut start, len) = (start as usize, len as usize);
        let new_len = len - del + ins.len();
        let end = start + len;
        if end == self.cells.len() {
            self.cells
                .splice(start + at..start + at + del, ins.iter().copied());
        } else if new_len <= len {
            self.cells
                .copy_within(start + at + del..end, start + at + ins.len());
            self.cells[start + at..start + at + ins.len()].copy_from_slice(ins);
        } else {
            let moved = self.cells.len();
            self.cells.extend_from_within(start..start + at);
            self.cells.extend_from_slice(ins);
            self.cells.extend_from_within(start + at + del..end);
            start = moved;
        }
        self.spans[local] = span(start, new_len);
        self.live = self.live - len + new_len;
        if self.cells.len() - self.live > self.live {
            self.compact();
        }
    }

    /// Copy every row, ascending, into a fresh garbage-free arena.
    fn compact(&mut self) {
        let mut cells = Vec::with_capacity(self.live);
        for s in &mut self.spans {
            let (start, len) = (s.0 as usize, s.1 as usize);
            *s = span(cells.len(), len);
            cells.extend_from_slice(&self.cells[start..start + len]);
        }
        self.cells = cells;
    }
}

/// Sparse `N × N` matrix of direct-interaction trust values.
///
/// Iteration order is deterministic, which keeps gossip experiments
/// reproducible. Equality is *logical*: matrices with the same entries
/// compare equal whatever their partition or edit history.
///
/// ```
/// use dg_graph::NodeId;
/// use dg_trust::{TrustMatrix, TrustValue};
///
/// let mut t = TrustMatrix::new(3);
/// t.set(NodeId(0), NodeId(1), TrustValue::new(0.8)?)?;
/// t.set(NodeId(1), NodeId(2), TrustValue::new(0.4)?)?;
/// assert_eq!(t.get(NodeId(0), NodeId(1)).map(|v| v.get()), Some(0.8));
/// assert_eq!(t.get(NodeId(2), NodeId(0)), None);
/// assert_eq!(t.entry_count(), 2);
/// # Ok::<(), dg_trust::TrustError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TrustMatrix {
    spec: ShardSpec,
    /// `slabs[s]` holds rows `spec.range(s)`, indexed locally.
    slabs: Vec<RowSlab>,
}

impl TrustMatrix {
    /// Empty matrix for `n` nodes over [`ShardSpec::auto`].
    pub fn new(n: usize) -> Self {
        Self::with_spec(ShardSpec::auto(n))
    }

    /// Empty matrix over the partition `spec`.
    pub fn with_spec(spec: ShardSpec) -> Self {
        let slabs = vec![RowSlab::default(); spec.shard_count()];
        Self::from_slabs(spec, slabs).expect("empty slabs hold no subjects")
    }

    /// Assemble one filled slab per shard of `spec` without copying.
    /// Rows a slab never pushed are empty.
    ///
    /// # Errors
    /// [`TrustError::NodeOutOfRange`] for a subject `≥ N`.
    ///
    /// # Panics
    /// When `slabs` is not one slab per shard, or a slab holds more rows
    /// than its shard — a partition is meaningless for any other shape.
    pub fn from_slabs(spec: ShardSpec, mut slabs: Vec<RowSlab>) -> Result<Self, TrustError> {
        assert_eq!(slabs.len(), spec.shard_count(), "one slab per shard");
        let n = spec.node_count();
        for (s, slab) in slabs.iter_mut().enumerate() {
            assert!(
                slab.spans.len() <= spec.rows_in(s),
                "slab {s} overflows its shard"
            );
            slab.spans.resize(spec.rows_in(s), (0, 0));
            // A fill grows the arena by doubling; the slack is resident
            // wherever the allocator hands out reused pages.
            slab.cells.shrink_to_fit();
            if let Some(&(j, _)) = slab.cells.iter().find(|(j, _)| j.index() >= n) {
                return Err(TrustError::NodeOutOfRange { id: j.0, n });
            }
        }
        Ok(Self { spec, slabs })
    }

    /// Fill an `n`-node matrix over [`ShardSpec::auto`] from its rows in
    /// ascending observer order: the `i`-th item is row `i`, with cells
    /// in any order (last write wins); missing trailing rows are empty.
    ///
    /// # Errors
    /// [`TrustError::NodeOutOfRange`] for more than `n` rows or a
    /// subject `≥ n`.
    pub fn from_rows<R>(n: usize, rows: impl IntoIterator<Item = R>) -> Result<Self, TrustError>
    where
        R: IntoIterator<Item = Cell>,
    {
        let spec = ShardSpec::auto(n);
        let mut rows = rows.into_iter();
        let mut slabs = vec![RowSlab::default(); spec.shard_count()];
        for (s, slab) in slabs.iter_mut().enumerate() {
            rows.by_ref()
                .take(spec.rows_in(s))
                .for_each(|r| slab.push_row(r));
        }
        if rows.next().is_some() {
            return Err(TrustError::NodeOutOfRange { id: n as u32, n });
        }
        Self::from_slabs(spec, slabs)
    }

    /// Dimension `N`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.spec.node_count()
    }

    fn check(&self, id: NodeId) -> Result<(), TrustError> {
        let n = self.node_count();
        if id.index() >= n {
            return Err(TrustError::NodeOutOfRange { id: id.0, n });
        }
        Ok(())
    }

    /// The slab and local row holding row `i < N`.
    fn slot(&mut self, i: NodeId) -> (&mut RowSlab, usize) {
        let (shard, local) = self.spec.locate(i);
        (&mut self.slabs[shard], local)
    }

    /// Set `t_ij` (observer `i`, subject `j`) in `O(row)`.
    pub fn set(&mut self, i: NodeId, j: NodeId, t: TrustValue) -> Result<(), TrustError> {
        self.check(i)?;
        self.check(j)?;
        let (slab, local) = self.slot(i);
        let (at, del) = match slab.row(local).binary_search_by_key(&j, |&(col, _)| col) {
            Ok(at) => (at, 1),
            Err(at) => (at, 0),
        };
        slab.splice(local, at, del, &[(j, t)]);
        Ok(())
    }

    /// Remove an entry (e.g. the feedback of a peer not heard from for a
    /// long time, which the paper says should be dropped). Returns the old
    /// value if present. Nothing drops feedback yet; the tests use it to
    /// shrink rows.
    #[cfg(test)]
    pub(crate) fn remove(&mut self, i: NodeId, j: NodeId) -> Option<TrustValue> {
        self.check(i).ok()?;
        let (slab, local) = self.slot(i);
        let run = slab.row(local);
        let at = run.binary_search_by_key(&j, |&(col, _)| col).ok()?;
        let old = run[at].1;
        slab.splice(local, at, 1, &[]);
        Some(old)
    }

    /// `t_ij`, or `None` when `i` has never interacted with `j`.
    pub fn get(&self, i: NodeId, j: NodeId) -> Option<TrustValue> {
        let run = self.row(i);
        run.binary_search_by_key(&j, |&(col, _)| col)
            .ok()
            .map(|at| run[at].1)
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

    /// All opinions held by observer `i`, sorted by subject id (empty
    /// when `i` is out of range).
    #[inline]
    pub fn row(&self, i: NodeId) -> &[(NodeId, TrustValue)] {
        if i.index() >= self.node_count() {
            return &[];
        }
        let (shard, local) = self.spec.locate(i);
        self.slabs[shard].row(local)
    }

    /// Number of opinions held by observer `i`.
    pub fn row_len(&self, i: NodeId) -> usize {
        self.row(i).len()
    }

    /// All opinions *about* subject `j` (a column scan; `O(N log d)`).
    pub fn column(&self, j: NodeId) -> Vec<(NodeId, TrustValue)> {
        (0..self.node_count() as u32)
            .filter_map(|i| self.get(NodeId(i), j).map(|t| (NodeId(i), t)))
            .collect()
    }

    /// Number of nodes holding an opinion about `j` — the paper's `N_d`
    /// (nodes with direct interaction), gossiped as `count`.
    pub fn opinion_count(&self, j: NodeId) -> usize {
        (0..self.node_count() as u32)
            .filter(|&i| self.has_opinion(NodeId(i), j))
            .count()
    }

    /// Total stored entries.
    pub fn entry_count(&self) -> usize {
        self.slabs.iter().map(|slab| slab.live).sum()
    }

    /// Iterator over all `(i, j, t_ij)` triples in row-major order.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, NodeId, TrustValue)> + '_ {
        self.slabs.iter().enumerate().flat_map(move |(s, slab)| {
            self.spec.range(s).zip(0..).flat_map(move |(i, local)| {
                slab.row(local).iter().map(move |&(j, t)| (NodeId(i), j, t))
            })
        })
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
        (0..self.node_count() as u32)
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
        let n = self.node_count();
        crate::tiled::plain_sums(n, crate::tiled::SUBJECT_TILE, self.entries())
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
    /// `RobustAggregation::subject_sum`,
    /// the same kernel the delta cache
    /// ([`SubjectAggregateCache`](crate::SubjectAggregateCache)) uses.
    pub fn robust_subject_sums_and_counts(
        &self,
        policy: &crate::robust::RobustAggregation,
    ) -> (Vec<f64>, Vec<usize>) {
        if policy.is_none() {
            return self.subject_sums_and_counts();
        }
        let n = self.node_count();
        crate::tiled::robust_sums(n, crate::tiled::SUBJECT_TILE, policy, self.entries())
    }

    /// Replace whole observer rows, `O(row)` each — the incremental
    /// engine's write path. `rows` must be sorted by ascending observer
    /// id with no duplicates; each replacement run must be sorted by
    /// ascending subject id (the order rows are stored in).
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
        for (i, run) in rows {
            let (slab, local) = self.slot(*i);
            slab.splice(local, 0, slab.row(local).len(), run);
        }
        Ok(())
    }
}

/// Logical equality over entries, independent of partition and layout.
impl PartialEq for TrustMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.node_count() == other.node_count()
            && self.entry_count() == other.entry_count()
            && self.entries().eq(other.entries())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
        for shards in [1, 2] {
            let mut m = TrustMatrix::with_spec(ShardSpec::new(2, shards));
            assert_eq!(
                m.set(NodeId(5), NodeId(0), tv(0.1)),
                Err(TrustError::NodeOutOfRange { id: 5, n: 2 })
            );
            assert_eq!(
                m.set(NodeId(0), NodeId(2), tv(0.1)),
                Err(TrustError::NodeOutOfRange { id: 2, n: 2 })
            );
            assert_eq!(m.get(NodeId(9), NodeId(0)), None);
            assert_eq!(m.remove(NodeId(9), NodeId(0)), None);
            assert_eq!(m.row(NodeId(9)), &[]);
        }
        let rows = [vec![(NodeId(3), tv(0.5))]];
        assert!(TrustMatrix::from_rows(2, rows.clone()).is_err());
        assert!(TrustMatrix::from_rows(0, rows).is_err());
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
        let mut m = TrustMatrix::new(2);
        m.set(NodeId(0), NodeId(1), tv(0.2)).unwrap();
        m.set(NodeId(0), NodeId(1), tv(0.9)).unwrap();
        assert_eq!(m.get(NodeId(0), NodeId(1)), Some(tv(0.9)));
        assert_eq!(m.entry_count(), 1);
        assert_eq!(m.remove(NodeId(0), NodeId(1)), Some(tv(0.9)));
        assert_eq!(m.entry_count(), 0);
        assert_eq!(m.remove(NodeId(0), NodeId(1)), None);
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
    fn bulk_fills_sort_rows_and_last_write_wins() {
        let rows = [
            vec![
                (NodeId(3), tv(0.3)),
                (NodeId(0), tv(0.1)),
                (NodeId(3), tv(0.9)),
            ],
            vec![],
            vec![(NodeId(1), tv(0.5))],
        ];
        let m = TrustMatrix::from_rows(4, rows).unwrap();
        assert_eq!(
            m.row(NodeId(0)),
            &[(NodeId(0), tv(0.1)), (NodeId(3), tv(0.9))]
        );
        assert_eq!(m.row(NodeId(2)), &[(NodeId(1), tv(0.5))]);
        assert_eq!(m.row_len(NodeId(3)), 0);
        assert_eq!(m.entry_count(), 3);
        // A fresh fill is laid out exactly as CSR: no garbage.
        assert_eq!(m.slabs[0].cells.len(), 3);
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

    #[test]
    fn spec_partitions_evenly_and_covers_all_rows() {
        for (n, shards) in [
            (100usize, 4usize),
            (5, 16),
            (1, 1),
            (7, 3),
            (100, 1),
            (0, 3),
        ] {
            let spec = ShardSpec::new(n, shards);
            assert_eq!(spec.shard_count(), shards.clamp(1, n.max(1)));
            let mut covered = 0usize;
            for s in 0..spec.shard_count() {
                let r = spec.range(s);
                for i in r.clone() {
                    let want = (s, (i - r.start) as usize);
                    assert_eq!(spec.locate(NodeId(i)), want, "n={n} shards={shards} i={i}");
                }
                covered += spec.rows_in(s);
            }
            assert_eq!(covered, n, "n={n} shards={shards}");
        }
    }

    #[test]
    fn shard_count_is_capped_at_the_row_count() {
        let spec = ShardSpec::new(5, 16);
        assert_eq!(spec.shard_count(), 5);
        assert!((0..5).all(|s| spec.rows_in(s) == 1));
        assert_eq!(ShardSpec::new(5, usize::MAX), spec);
        assert_eq!(ShardSpec::new(0, 16).shard_count(), 1);
        let m = TrustMatrix::with_spec(spec);
        assert_eq!(m.slabs.len(), 5);
        assert_eq!(m.row(NodeId(4)).len(), 0);
    }

    #[test]
    fn auto_spec_is_a_pure_function_of_n() {
        assert_eq!(ShardSpec::auto(100).shard_count(), 1);
        assert_eq!(ShardSpec::auto(ShardSpec::AUTO_CHUNK).shard_count(), 1);
        assert_eq!(ShardSpec::auto(ShardSpec::AUTO_CHUNK + 1).shard_count(), 2);
        assert_eq!(ShardSpec::auto(1_000_000).shard_count(), 31);
        assert_eq!(ShardSpec::auto(0).shard_count(), 1);
    }

    #[test]
    #[should_panic(expected = "one slab per shard")]
    fn from_slabs_rejects_a_wrong_shard_count() {
        let _ = TrustMatrix::from_slabs(ShardSpec::new(4, 2), vec![RowSlab::default()]);
    }

    /// Random edits, checked against a `Vec<BTreeMap>` model; returns
    /// how many times a slab compacted.
    fn check_against_model(
        n: usize,
        shards: usize,
        ops: &[((usize, usize), f64, u8, usize)],
    ) -> usize {
        let mut model: Vec<BTreeMap<NodeId, TrustValue>> = vec![BTreeMap::new(); n];
        let mut m = TrustMatrix::with_spec(ShardSpec::new(n, shards));
        let mut compactions = 0;
        let garbage = |m: &TrustMatrix| -> Vec<usize> {
            m.slabs.iter().map(|s| s.cells.len() - s.live).collect()
        };
        for &((i, j), v, op, len) in ops {
            let before = garbage(&m);
            let (row, i, j) = (i, NodeId(i as u32), NodeId(j as u32));
            match op {
                0 | 1 => {
                    m.set(i, j, tv(v)).unwrap();
                    model[row].insert(j, tv(v));
                }
                2 => assert_eq!(m.remove(i, j), model[row].remove(&j)),
                // Replace this row and the next by runs of `len` subjects:
                // rows grow, shrink and empty.
                _ => {
                    let run = |r: usize| -> BTreeMap<NodeId, TrustValue> {
                        let t = tv((v + r as f64 / 100.0).min(1.0));
                        (0..len)
                            .map(|k| (NodeId(((j.index() + 3 * k) % n) as u32), t))
                            .collect()
                    };
                    let rows: Vec<_> = (row..n.min(row + 2))
                        .map(|r| (NodeId(r as u32), run(r).into_iter().collect()))
                        .collect();
                    m.replace_rows(&rows).unwrap();
                    for (r, run) in rows {
                        model[r.index()] = run.into_iter().collect();
                    }
                }
            }
            let after = garbage(&m);
            compactions += before
                .iter()
                .zip(&after)
                .filter(|&(&b, &a)| b > 0 && a == 0)
                .count();
            for slab in &m.slabs {
                let longest = slab.spans.iter().map(|s| s.1 as usize).max().unwrap_or(0);
                assert!(slab.cells.len() <= 2 * slab.live + longest);
            }
        }
        let want: Vec<_> = (0..n)
            .flat_map(|i| {
                model[i]
                    .iter()
                    .map(move |(&j, &t)| (NodeId(i as u32), j, t))
            })
            .collect();
        assert_eq!(m.entries().collect::<Vec<_>>(), want.clone());
        assert_eq!(m.entry_count(), want.len());
        for (i, row) in model.iter().enumerate() {
            let i = NodeId(i as u32);
            assert_eq!(m.row_len(i), row.len());
            for j in (0..n as u32).map(NodeId) {
                assert_eq!(m.get(i, j), row.get(&j).copied());
            }
        }
        // Columns and the naive row-major scatter: the bits every sweep
        // must reproduce.
        let mut columns: Vec<Vec<(NodeId, TrustValue)>> = vec![Vec::new(); n];
        let (mut sums, mut counts) = (vec![0.0f64; n], vec![0usize; n]);
        for &(i, j, t) in &want {
            columns[j.index()].push((i, t));
            sums[j.index()] += t.get();
            counts[j.index()] += 1;
        }
        for (j, column) in columns.iter().enumerate() {
            let j = NodeId(j as u32);
            assert_eq!(&m.column(j), column);
            assert_eq!(m.opinion_count(j), column.len());
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (got_sums, got_counts) = m.subject_sums_and_counts();
        assert_eq!(bits(&got_sums), bits(&sums));
        assert_eq!(got_counts, counts);
        let policy = crate::RobustAggregation::defended();
        let (robust_sums, robust_counts): (Vec<f64>, Vec<usize>) = columns
            .iter()
            .map(|c| policy.subject_sum(&mut c.iter().map(|(_, t)| t.get()).collect::<Vec<_>>()))
            .unzip();
        let (got_sums, got_counts) = m.robust_subject_sums_and_counts(&policy);
        assert_eq!(bits(&got_sums), bits(&robust_sums));
        assert_eq!(got_counts, robust_counts);
        compactions
    }

    proptest! {
        /// The store agrees with a `Vec<BTreeMap>` model on every read
        /// after random `set` / `remove` / `replace_rows` sequences, at
        /// one shard and at several, and keeps each arena within its
        /// compaction bound after every op.
        #[test]
        fn store_matches_a_btreemap_model(
            ops in proptest::collection::vec(((0usize..12, 0usize..12), 0.0..1.0f64, 0u8..5, 0usize..7), 1..150),
            k in 2usize..20,
        ) {
            for shards in [1, k] {
                check_against_model(12, shards, &ops);
            }
        }
    }

    /// Enough row moves to compact each shard several times.
    #[test]
    fn long_edit_sequences_compact_within_bound() {
        let ops: Vec<_> = (0..3000)
            .map(|k: usize| {
                (
                    (k * 7 % 12, k * 5 % 12),
                    (k % 10) as f64 / 10.0,
                    (k % 5) as u8,
                    k % 7,
                )
            })
            .collect();
        for shards in [1, 3] {
            let compactions = check_against_model(12, shards, &ops);
            assert!(
                compactions >= 3 * shards,
                "{shards} shards: {compactions} compactions"
            );
        }
    }
}
