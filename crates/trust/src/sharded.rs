//! Sharded CSR trust storage for million-node rounds.
//!
//! One CSR arena over the whole matrix (see [`crate::csr`]) has two
//! costs at production scale: every bulk rebuild materialises all rows
//! before freezing (matrix-sized scratch on top of the matrix), and the
//! whole arena is one allocation that must move together.
//!
//! This module partitions the **rows** (observers) into
//! [`ShardSpec::shard_count`] contiguous ranges, each backed by its own
//! [`CsrStorage`] with shard-local row pointers and *global* column
//! ids. Shards build independently — each from an `O(shard edges)`
//! rectangular [`CsrBuilder`] — so a round engine can fan shards out
//! across a thread pool and its transient scratch stays bounded by the
//! in-flight shards instead of the full matrix.
//!
//! Determinism contract: shards are contiguous ascending row ranges, so
//! streaming shard 0, shard 1, … and each shard row-major
//! ([`ShardedCsr::entries`]) visits cells in **exactly the global
//! row-major order** of the dynamic backend. The cross-shard subject-sum
//! merge — [`crate::matrix::TrustMatrix::subject_sums_and_counts`] on
//! the sharded backend — accumulates per-subject `f64` sums in that
//! single fixed order, which makes the result bit-identical to the
//! dynamic backend's computation for *any* shard count (pinned by the
//! proptest at the bottom of this module).

use crate::csr::{CsrBuilder, CsrStorage};
use crate::error::TrustError;
use crate::value::TrustValue;
use dg_graph::NodeId;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Partition of `n` node ids into contiguous, fixed-size row ranges.
///
/// Shard `s` owns rows `[s·chunk, min((s+1)·chunk, n))` with
/// `chunk = ⌈n / shard_count⌉`; when `shard_count > n` the trailing
/// shards own empty ranges (legal — they simply hold no cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    n: usize,
    shard_count: usize,
    chunk: usize,
}

impl ShardSpec {
    /// Row-chunk target of [`ShardSpec::auto`]: small enough that a
    /// shard's scratch stays cache- and allocator-friendly, large
    /// enough that per-shard fixed costs amortise.
    pub const AUTO_CHUNK: usize = 32_768;

    /// Partition `n` rows into `shard_count` contiguous chunks
    /// (`shard_count` is clamped to at least 1).
    pub fn new(n: usize, shard_count: usize) -> Self {
        let shard_count = shard_count.max(1);
        let chunk = n.div_ceil(shard_count).max(1);
        Self {
            n,
            shard_count,
            chunk,
        }
    }

    /// Deterministic default shard count for `n` rows: one shard per
    /// [`AUTO_CHUNK`](Self::AUTO_CHUNK) rows. A pure function of `n` —
    /// never of the machine — so pinned-seed runs reproduce everywhere
    /// (and results are shard-count-independent anyway).
    pub fn auto(n: usize) -> Self {
        Self::new(n, n.div_ceil(Self::AUTO_CHUNK).max(1))
    }

    /// The partition a `shard_count` config knob selects: `0` means
    /// [`auto`](Self::auto), anything else is taken literally.
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

    /// Number of shards (≥ 1; trailing shards may own empty ranges).
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The shard owning `node`'s row.
    #[inline]
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.locate(node).0
    }

    /// `(shard, local row)` of `node` with a single division — the hot
    /// path behind every point lookup on the sharded backend.
    ///
    /// The `max(1)` clamps neutralise a deserialized spec carrying
    /// `chunk: 0` / `shard_count: 0` (serde bypasses [`ShardSpec::new`]'s
    /// normalisation): reads then resolve against shard 0 and degrade
    /// through the shard-shape bounds checks instead of dividing by
    /// zero. Constructed specs always satisfy both already.
    #[inline]
    pub fn locate(&self, node: NodeId) -> (usize, usize) {
        let idx = node.index();
        let chunk = self.chunk.max(1);
        let shard = (idx / chunk).min(self.shard_count.max(1) - 1);
        // For any populated row, `shard * chunk ≤ idx`, so this is the
        // shard-local offset without recomputing the range.
        (shard, idx - shard * chunk)
    }

    /// The contiguous row range shard `shard` owns (empty when the
    /// shard index is past the populated prefix).
    pub fn range(&self, shard: usize) -> Range<u32> {
        let start = (shard * self.chunk).min(self.n);
        let end = ((shard + 1) * self.chunk).min(self.n);
        start as u32..end as u32
    }

    /// Number of rows in shard `shard`.
    pub fn rows_in(&self, shard: usize) -> usize {
        let r = self.range(shard);
        (r.end - r.start) as usize
    }

    /// `node`'s row index *within its shard*.
    pub fn local_row(&self, node: NodeId) -> usize {
        self.locate(node).1
    }
}

/// Frozen sharded trust storage: one shard-local [`CsrStorage`] per
/// contiguous row range of a [`ShardSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedCsr {
    spec: ShardSpec,
    /// `shards[s]` holds rows `spec.range(s)` with local row indices.
    shards: Vec<CsrStorage>,
}

impl ShardedCsr {
    /// Empty sharded storage.
    pub fn new(spec: ShardSpec) -> Self {
        Self {
            shards: (0..spec.shard_count())
                .map(|s| CsrStorage::new(spec.rows_in(s)))
                .collect(),
            spec,
        }
    }

    /// Assemble from independently built shard CSRs (the parallel bulk
    /// path). Each storage must cover exactly its shard's row count.
    pub fn from_parts(spec: ShardSpec, shards: Vec<CsrStorage>) -> Result<Self, TrustError> {
        if shards.len() != spec.shard_count() {
            return Err(TrustError::ShardMismatch {
                expected: spec.shard_count(),
                got: shards.len(),
            });
        }
        for (s, csr) in shards.iter().enumerate() {
            if csr.node_count() != spec.rows_in(s) {
                return Err(TrustError::ShardMismatch {
                    expected: spec.rows_in(s),
                    got: csr.node_count(),
                });
            }
        }
        Ok(Self { spec, shards })
    }

    /// The partition.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Dimension `N`.
    pub fn node_count(&self) -> usize {
        self.spec.node_count()
    }

    /// Total stored entries across all shards.
    pub fn entry_count(&self) -> usize {
        self.shards.iter().map(CsrStorage::entry_count).sum()
    }

    /// One shard's storage (rows are shard-local).
    pub fn shard(&self, shard: usize) -> &CsrStorage {
        &self.shards[shard]
    }

    /// The sorted `(column, value)` run of global row `i` (empty when
    /// out of range). Degrades gracefully — like [`CsrStorage::row`] —
    /// when a deserialized value carries fewer shards than its spec
    /// claims (serde cannot route through [`from_parts`](Self::from_parts)).
    #[inline]
    pub fn row(&self, i: NodeId) -> &[(NodeId, TrustValue)] {
        if i.index() >= self.spec.node_count() {
            return &[];
        }
        let (shard, local) = self.spec.locate(i);
        match self.shards.get(shard) {
            Some(csr) => csr.row(NodeId(local as u32)),
            None => &[],
        }
    }

    /// Point lookup.
    #[inline]
    pub fn get(&self, i: NodeId, j: NodeId) -> Option<TrustValue> {
        let run = self.row(i);
        run.binary_search_by_key(&j, |&(col, _)| col)
            .ok()
            .map(|idx| run[idx].1)
    }

    /// Insert or overwrite `t_ij`; splices the owning shard's arena —
    /// `O(shard nnz)` worst case, for touch-ups only (bulk loads go
    /// through [`ShardedCsrBuilder`]).
    pub fn set(&mut self, i: NodeId, j: NodeId, t: TrustValue) -> Result<(), TrustError> {
        let n = self.spec.node_count();
        for id in [i, j] {
            if id.index() >= n {
                return Err(TrustError::NodeOutOfRange { id: id.0, n });
            }
        }
        let (shard, local) = self.spec.locate(i);
        // Malformed deserialized values (shards shorter than the spec,
        // or a chunk inconsistent with the shard shapes) surface the
        // shape error instead of panicking.
        match self.shards.get_mut(shard) {
            Some(csr) if local < csr.node_count() => {
                csr.splice_set(local, j, t);
                Ok(())
            }
            Some(csr) => Err(TrustError::ShardMismatch {
                expected: local + 1,
                got: csr.node_count(),
            }),
            None => Err(TrustError::ShardMismatch {
                expected: self.spec.shard_count(),
                got: self.shards.len(),
            }),
        }
    }

    /// Remove an entry from the owning shard; returns the old value.
    pub fn remove(&mut self, i: NodeId, j: NodeId) -> Option<TrustValue> {
        if i.index() >= self.spec.node_count() {
            return None;
        }
        let (shard, local) = self.spec.locate(i);
        let csr = self.shards.get_mut(shard)?;
        if local >= csr.node_count() {
            return None;
        }
        csr.splice_remove(local, j)
    }

    /// Iterator over all `(i, j, t_ij)` triples in **global row-major
    /// order** — shard 0 first, each shard row-major. This is the order
    /// every deterministic float accumulation in the workspace uses;
    /// the cross-shard subject-sum merge
    /// ([`TrustMatrix::subject_sums_and_counts`](crate::TrustMatrix::subject_sums_and_counts)
    /// on the sharded backend) accumulates in exactly this order, which
    /// is why it is bit-identical to the dynamic backend for any
    /// shard count.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, NodeId, TrustValue)> + '_ {
        self.shards.iter().enumerate().flat_map(move |(s, csr)| {
            let base = self.spec.range(s).start;
            (0..csr.node_count() as u32).flat_map(move |local| {
                csr.row(NodeId(local))
                    .iter()
                    .map(move |&(j, t)| (NodeId(base + local), j, t))
            })
        })
    }

    /// Replace whole global rows, rebuilding **only the shards that own
    /// a replaced row** — untouched shard arenas are not visited at
    /// all. This is the delta write path of the incremental engine:
    /// with `d` dirty rows the cost is `O(Σ nnz of touched shards)`
    /// instead of `O(total nnz)`. `rows` must be sorted by ascending
    /// observer without duplicates and each run sorted by ascending
    /// subject (validated by
    /// [`TrustMatrix::replace_rows`](crate::TrustMatrix::replace_rows));
    /// rows a malformed deserialized spec cannot route are ignored.
    pub fn replace_rows(&mut self, rows: &[(NodeId, Vec<(NodeId, TrustValue)>)]) {
        // Sorted global rows land in contiguous runs per shard because
        // shards own contiguous ascending row ranges.
        let mut start = 0usize;
        while start < rows.len() {
            let shard = self.spec.shard_of(rows[start].0);
            let mut end = start + 1;
            while end < rows.len() && self.spec.shard_of(rows[end].0) == shard {
                end += 1;
            }
            if let Some(csr) = self.shards.get_mut(shard) {
                let local: Vec<(usize, &[(NodeId, TrustValue)])> = rows[start..end]
                    .iter()
                    .map(|(i, run)| (self.spec.local_row(*i), run.as_slice()))
                    .collect();
                csr.replace_rows_by_local(&local);
            }
            start = end;
        }
    }
}

/// Bulk builder for [`ShardedCsr`]: routes out-of-order `(i, j, t)`
/// triples to per-shard rectangular [`CsrBuilder`]s, then freezes every
/// shard.
///
/// ```
/// use dg_graph::NodeId;
/// use dg_trust::{ShardSpec, ShardedCsrBuilder, TrustMatrix, TrustValue};
///
/// let mut b = ShardedCsrBuilder::new(ShardSpec::new(100, 4));
/// b.set(NodeId(99), NodeId(0), TrustValue::new(0.9)?)?;
/// b.set(NodeId(0), NodeId(99), TrustValue::new(0.2)?)?;
///
/// let matrix = TrustMatrix::from_sharded(b.build());
/// assert!(matrix.is_sharded());
/// assert_eq!(matrix.entry_count(), 2);
/// assert_eq!(matrix.get(NodeId(99), NodeId(0)).map(|v| v.get()), Some(0.9));
/// # Ok::<(), dg_trust::TrustError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardedCsrBuilder {
    spec: ShardSpec,
    builders: Vec<CsrBuilder>,
}

impl ShardedCsrBuilder {
    /// Builder over a partition.
    pub fn new(spec: ShardSpec) -> Self {
        Self {
            builders: (0..spec.shard_count())
                .map(|s| CsrBuilder::rectangular(spec.rows_in(s), spec.node_count()))
                .collect(),
            spec,
        }
    }

    /// The partition.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Record `t_ij` (global ids). Later writes to the same cell win.
    pub fn set(&mut self, i: NodeId, j: NodeId, t: TrustValue) -> Result<(), TrustError> {
        let n = self.spec.node_count();
        for id in [i, j] {
            if id.index() >= n {
                return Err(TrustError::NodeOutOfRange { id: id.0, n });
            }
        }
        let (shard, local) = self.spec.locate(i);
        self.builders[shard].set(NodeId(local as u32), j, t)
    }

    /// Append a whole row for observer `i` (global ids).
    pub fn extend_row(
        &mut self,
        i: NodeId,
        entries: impl IntoIterator<Item = (NodeId, TrustValue)>,
    ) -> Result<(), TrustError> {
        let n = self.spec.node_count();
        if i.index() >= n {
            return Err(TrustError::NodeOutOfRange { id: i.0, n });
        }
        let (shard, local) = self.spec.locate(i);
        self.builders[shard].extend_row(NodeId(local as u32), entries)
    }

    /// Freeze every shard.
    pub fn build(self) -> ShardedCsr {
        ShardedCsr {
            spec: self.spec,
            shards: self.builders.into_iter().map(CsrBuilder::build).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::TrustMatrix;
    use proptest::prelude::*;

    fn tv(v: f64) -> TrustValue {
        TrustValue::saturating(v)
    }

    #[test]
    fn spec_partitions_evenly_and_covers_all_rows() {
        for (n, shards) in [(100usize, 4usize), (5, 16), (1, 1), (7, 3), (100, 1)] {
            let spec = ShardSpec::new(n, shards);
            assert_eq!(spec.shard_count(), shards.max(1));
            let mut covered = 0usize;
            for s in 0..spec.shard_count() {
                let r = spec.range(s);
                for i in r.clone() {
                    assert_eq!(spec.shard_of(NodeId(i)), s, "n={n} shards={shards} i={i}");
                    assert_eq!(
                        spec.local_row(NodeId(i)),
                        (i - r.start) as usize,
                        "n={n} shards={shards} i={i}"
                    );
                }
                covered += spec.rows_in(s);
            }
            assert_eq!(covered, n, "n={n} shards={shards}");
        }
    }

    #[test]
    fn shard_count_above_n_leaves_trailing_shards_empty() {
        let spec = ShardSpec::new(5, 16);
        assert_eq!(spec.shard_count(), 16);
        assert_eq!((0..16).map(|s| spec.rows_in(s)).sum::<usize>(), 5);
        assert!(spec.rows_in(15) == 0);
        // Empty shards hold no cells but are fully usable.
        let sharded = ShardedCsr::new(spec);
        assert_eq!(sharded.entry_count(), 0);
        assert_eq!(sharded.row(NodeId(4)).len(), 0);
    }

    #[test]
    fn single_shard_matches_flat_csr_exactly() {
        let spec = ShardSpec::new(4, 1);
        let mut sharded = ShardedCsrBuilder::new(spec);
        let mut flat = CsrBuilder::new(4);
        for &(i, j, v) in &[(1u32, 3u32, 0.3), (1, 0, 0.1), (1, 3, 0.9), (3, 2, 0.5)] {
            sharded.set(NodeId(i), NodeId(j), tv(v)).unwrap();
            flat.set(NodeId(i), NodeId(j), tv(v)).unwrap();
        }
        let sharded = sharded.build();
        let flat = flat.build();
        for i in 0..4u32 {
            assert_eq!(sharded.row(NodeId(i)), flat.row(NodeId(i)));
        }
        assert_eq!(sharded.entry_count(), flat.entry_count());
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
    fn out_of_range_rejected_everywhere() {
        let spec = ShardSpec::new(4, 2);
        let mut b = ShardedCsrBuilder::new(spec);
        assert!(b.set(NodeId(4), NodeId(0), tv(0.5)).is_err());
        assert!(b.set(NodeId(0), NodeId(4), tv(0.5)).is_err());
        assert!(b.extend_row(NodeId(9), [(NodeId(0), tv(0.5))]).is_err());
        let mut sharded = b.build();
        assert!(sharded.set(NodeId(4), NodeId(0), tv(0.5)).is_err());
        assert_eq!(sharded.get(NodeId(9), NodeId(0)), None);
        assert_eq!(sharded.remove(NodeId(9), NodeId(0)), None);
    }

    #[test]
    fn from_parts_validates_shard_shapes() {
        let spec = ShardSpec::new(4, 2);
        assert!(ShardedCsr::from_parts(spec, vec![CsrStorage::new(2)]).is_err());
        assert!(
            ShardedCsr::from_parts(spec, vec![CsrStorage::new(2), CsrStorage::new(3)]).is_err()
        );
        assert!(ShardedCsr::from_parts(spec, vec![CsrStorage::new(2), CsrStorage::new(2)]).is_ok());
    }

    #[test]
    fn truncated_deserialized_shards_degrade_instead_of_panicking() {
        // Serde cannot route through `from_parts`, so a sharded matrix
        // whose shard list is shorter than its spec (truncated file,
        // version skew) must degrade like `CsrStorage` does, not panic.
        let mut good = ShardedCsrBuilder::new(ShardSpec::new(6, 3));
        good.set(NodeId(1), NodeId(0), tv(0.4)).unwrap();
        let mut bad = good.build();
        bad.shards.truncate(1);
        assert_eq!(bad.row(NodeId(1)).len(), 1); // shard 0 still intact
        assert_eq!(bad.row(NodeId(5)), &[]); // missing shard: empty
        assert_eq!(bad.get(NodeId(5), NodeId(0)), None);
        assert_eq!(bad.remove(NodeId(5), NodeId(0)), None);
        assert!(matches!(
            bad.set(NodeId(5), NodeId(0), tv(0.5)),
            Err(TrustError::ShardMismatch { .. })
        ));
        // Iteration covers exactly the shards that exist.
        assert_eq!(bad.entries().count(), 1);

        // Chunk skew: a spec whose chunk is inconsistent with the
        // shard shapes (only producible by hand-edited serialization)
        // must degrade the same way — shard-local bounds are checked,
        // never blindly indexed.
        let mut skewed = ShardedCsrBuilder::new(ShardSpec::new(6, 3)).build();
        skewed.spec = ShardSpec::new(12, 3); // chunk 4 over 2-row shards
        assert_eq!(skewed.row(NodeId(7)), &[]);
        assert_eq!(skewed.get(NodeId(7), NodeId(0)), None);
        assert_eq!(skewed.remove(NodeId(7), NodeId(0)), None);
        assert!(matches!(
            skewed.set(NodeId(7), NodeId(0), tv(0.5)),
            Err(TrustError::ShardMismatch { .. })
        ));

        // Zeroed spec fields: serde bypasses `ShardSpec::new`'s
        // normalisation, so `chunk: 0` / `shard_count: 0` must not
        // divide by zero or underflow on reads.
        let zeroed: ShardSpec =
            serde_json::from_str(r#"{"n":6,"shard_count":3,"chunk":0}"#).unwrap();
        let mut victim = ShardedCsrBuilder::new(ShardSpec::new(6, 3)).build();
        victim.spec = zeroed;
        assert_eq!(victim.get(NodeId(5), NodeId(0)), None);
        assert_eq!(victim.remove(NodeId(5), NodeId(0)), None);
        let no_shards: ShardSpec =
            serde_json::from_str(r#"{"n":6,"shard_count":0,"chunk":2}"#).unwrap();
        assert_eq!(no_shards.locate(NodeId(5)).0, 0);
    }

    proptest! {
        /// For arbitrary op sequences and arbitrary shard counts, the
        /// sharded **`TrustMatrix` backend** (the production path the
        /// round engines aggregate through) agrees with the flat
        /// dynamic matrix on every read — and the cross-shard
        /// subject-sum merge is **bit-identical** to the flat
        /// row-major computation.
        #[test]
        fn sharded_subject_sums_match_flat_bitwise(
            ops in proptest::collection::vec((0usize..12, 0usize..12, 0.0..1.0f64, 0u8..3), 1..150),
            shards in 1usize..20,
        ) {
            let n = 12;
            let mut flat = TrustMatrix::new(n);
            let mut sharded = TrustMatrix::from_sharded(ShardedCsr::new(ShardSpec::new(n, shards)));
            prop_assert!(sharded.is_sharded());

            for (i, j, v, op) in ops {
                let (i, j) = (NodeId(i as u32), NodeId(j as u32));
                match op {
                    0 | 1 => {
                        flat.set(i, j, tv(v)).unwrap();
                        sharded.set(i, j, tv(v)).unwrap();
                    }
                    _ => {
                        prop_assert_eq!(flat.remove(i, j), sharded.remove(i, j));
                    }
                }
            }

            prop_assert_eq!(flat.entry_count(), sharded.entry_count());
            let f: Vec<_> = flat.entries().collect();
            let s: Vec<_> = sharded.entries().collect();
            prop_assert_eq!(f, s);

            let (flat_sums, flat_counts) = flat.subject_sums_and_counts();
            let (sh_sums, sh_counts) = sharded.subject_sums_and_counts();
            prop_assert_eq!(flat_counts, sh_counts);
            for j in 0..n {
                // Bit-identity, not approximate equality.
                prop_assert_eq!(flat_sums[j].to_bits(), sh_sums[j].to_bits(), "subject {}", j);
            }
        }
    }
}
