//! CSR storage for one shard of the trust matrix.
//!
//! The gossip and closed-form aggregation hot paths read the trust
//! matrix row-major millions of times per round but almost never mutate
//! it mid-phase. This module provides the frozen representation of one
//! contiguous row range (see [`crate::sharded`]; a one-shard partition
//! is the whole matrix): every row is a sorted `(column, value)` run
//! inside one arena `Vec`, located by an `n + 1`-entry row-pointer array
//! — the same layout `dg-graph` uses for adjacency. Point lookups are a
//! binary search within the row's run; row scans are contiguous memory.
//!
//! Mutation goes through [`CsrBuilder`] (the bulk, out-of-order phase)
//! or through the sharded container's in-place splices (correct but
//! `O(nnz)` in the worst case, intended for occasional touch-ups, not
//! bulk loads).

use crate::error::TrustError;
use crate::value::TrustValue;
use dg_graph::NodeId;
use serde::{Deserialize, Serialize};

/// Frozen CSR trust storage: sorted `(col, value)` runs over one arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrStorage {
    /// `row_ptr[i]..row_ptr[i + 1]` is row `i`'s run in `cells`.
    row_ptr: Vec<usize>,
    /// Arena of `(column, value)` pairs, sorted by column within a row.
    cells: Vec<(NodeId, TrustValue)>,
}

impl CsrStorage {
    /// Empty storage for `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            row_ptr: vec![0; n + 1],
            cells: Vec::new(),
        }
    }

    /// Dimension `N`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Total stored entries.
    #[inline]
    pub fn entry_count(&self) -> usize {
        self.cells.len()
    }

    /// The sorted `(column, value)` run of row `i` (empty when out of
    /// range).
    #[inline]
    pub fn row(&self, i: NodeId) -> &[(NodeId, TrustValue)] {
        match self.row_ptr.get(i.index()..i.index() + 2) {
            Some(&[start, end]) => &self.cells[start..end],
            _ => &[],
        }
    }

    /// Point lookup by binary search within the row's run.
    pub fn get(&self, i: NodeId, j: NodeId) -> Option<TrustValue> {
        let run = self.row(i);
        run.binary_search_by_key(&j, |&(col, _)| col)
            .ok()
            .map(|idx| run[idx].1)
    }

    /// Splice-insert into a row *without bounds checks* — the sharded
    /// container routes global ids onto local rows and does its own
    /// (global) validation first.
    pub(crate) fn splice_set(&mut self, row: usize, j: NodeId, t: TrustValue) {
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        match self.cells[start..end].binary_search_by_key(&j, |&(col, _)| col) {
            Ok(idx) => self.cells[start + idx].1 = t,
            Err(idx) => {
                self.cells.insert(start + idx, (j, t));
                for ptr in &mut self.row_ptr[row + 1..] {
                    *ptr += 1;
                }
            }
        }
    }

    /// Replace whole rows (shard-local indices) in one `O(nnz)` arena
    /// rebuild — the bulk write path behind
    /// [`TrustMatrix::replace_rows`](crate::TrustMatrix::replace_rows);
    /// the sharded container routes global rows here after translating
    /// them. `rows` must be sorted by ascending row index without
    /// duplicates and each run sorted by ascending column (the caller
    /// validates). Far cheaper than per-entry splices when a round
    /// touches many cells: one pass instead of `O(nnz)` pointer shifts
    /// per write. Rows past this storage's dimension are ignored (the
    /// malformed-serde degrade convention of this crate).
    pub(crate) fn replace_rows_by_local(&mut self, rows: &[(usize, &[(NodeId, TrustValue)])]) {
        let n = self.node_count();
        let replaced: usize = rows
            .iter()
            .filter(|(i, _)| *i < n)
            .map(|(_, run)| run.len())
            .sum();
        let mut cells = Vec::with_capacity(self.cells.len() + replaced);
        let mut row_ptr = Vec::with_capacity(self.row_ptr.len());
        row_ptr.push(0);
        let mut k = 0usize;
        for i in 0..n {
            while k < rows.len() && rows[k].0 < i {
                k += 1;
            }
            if k < rows.len() && rows[k].0 == i {
                cells.extend_from_slice(rows[k].1);
                k += 1;
            } else {
                cells.extend_from_slice(&self.cells[self.row_ptr[i]..self.row_ptr[i + 1]]);
            }
            row_ptr.push(cells.len());
        }
        self.cells = cells;
        self.row_ptr = row_ptr;
    }

    /// Splice-remove from a row by local index (see
    /// [`splice_set`](Self::splice_set)).
    pub(crate) fn splice_remove(&mut self, row: usize, j: NodeId) -> Option<TrustValue> {
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        let idx = self.cells[start..end]
            .binary_search_by_key(&j, |&(col, _)| col)
            .ok()?;
        let (_, old) = self.cells.remove(start + idx);
        for ptr in &mut self.row_ptr[row + 1..] {
            *ptr -= 1;
        }
        Some(old)
    }
}

/// Mutable-phase builder for [`CsrStorage`]: accepts out-of-order
/// `(i, j, t)` triples, then sorts each row and deduplicates
/// (last write wins) on [`build`](CsrBuilder::build).
///
/// ```
/// use dg_graph::NodeId;
/// use dg_trust::{CsrBuilder, TrustValue};
///
/// let mut b = CsrBuilder::new(4);
/// // Out-of-order inserts are fine; the last write to a cell wins.
/// b.set(NodeId(2), NodeId(0), TrustValue::new(0.9)?)?;
/// b.set(NodeId(0), NodeId(3), TrustValue::new(0.2)?)?;
/// b.set(NodeId(0), NodeId(3), TrustValue::new(0.6)?)?;
///
/// let csr = b.build();
/// assert_eq!(csr.entry_count(), 2);
/// assert_eq!(csr.get(NodeId(0), NodeId(3)).map(|v| v.get()), Some(0.6));
/// # Ok::<(), dg_trust::TrustError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    cols: usize,
    rows: Vec<Vec<(NodeId, TrustValue)>>,
}

impl CsrBuilder {
    /// Builder for an `n × n` matrix.
    pub fn new(n: usize) -> Self {
        Self::rectangular(n, n)
    }

    /// Builder for a `rows × cols` *rectangular* block — a shard of a
    /// square matrix whose row indices are shard-local while column ids
    /// stay global (see [`crate::sharded`]).
    pub fn rectangular(rows: usize, cols: usize) -> Self {
        Self {
            cols,
            rows: vec![Vec::new(); rows],
        }
    }

    /// Number of rows this builder accepts.
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// Record `t_ij`. Later writes to the same cell win.
    pub fn set(&mut self, i: NodeId, j: NodeId, t: TrustValue) -> Result<(), TrustError> {
        if i.index() >= self.rows.len() {
            return Err(TrustError::NodeOutOfRange {
                id: i.0,
                n: self.rows.len(),
            });
        }
        if j.index() >= self.cols {
            return Err(TrustError::NodeOutOfRange {
                id: j.0,
                n: self.cols,
            });
        }
        self.rows[i.index()].push((j, t));
        Ok(())
    }

    /// Append a whole row for observer `i`. Equivalent to repeated
    /// [`set`](Self::set) calls, without per-call range checks on `i`.
    pub fn extend_row(
        &mut self,
        i: NodeId,
        entries: impl IntoIterator<Item = (NodeId, TrustValue)>,
    ) -> Result<(), TrustError> {
        if i.index() >= self.rows.len() {
            return Err(TrustError::NodeOutOfRange {
                id: i.0,
                n: self.rows.len(),
            });
        }
        for (j, t) in entries {
            if j.index() >= self.cols {
                return Err(TrustError::NodeOutOfRange {
                    id: j.0,
                    n: self.cols,
                });
            }
            self.rows[i.index()].push((j, t));
        }
        Ok(())
    }

    /// Freeze into CSR: per-row stable sort by column, last write wins.
    pub fn build(self) -> CsrStorage {
        let mut row_ptr = Vec::with_capacity(self.rows.len() + 1);
        let mut cells: Vec<(NodeId, TrustValue)> =
            Vec::with_capacity(self.rows.iter().map(Vec::len).sum());
        row_ptr.push(0);
        for mut row in self.rows {
            // Stable sort keeps insertion order within a column, so the
            // *last* duplicate is the one `rev()` sees first below.
            row.sort_by_key(|&(col, _)| col);
            let run_start = cells.len();
            for (col, val) in row {
                match cells[run_start..].last_mut() {
                    Some(last) if last.0 == col => last.1 = val,
                    _ => cells.push((col, val)),
                }
            }
            row_ptr.push(cells.len());
        }
        CsrStorage { row_ptr, cells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tv(v: f64) -> TrustValue {
        TrustValue::saturating(v)
    }

    #[test]
    fn builder_sorts_rows_and_last_write_wins() {
        let mut b = CsrBuilder::new(4);
        b.set(NodeId(1), NodeId(3), tv(0.3)).unwrap();
        b.set(NodeId(1), NodeId(0), tv(0.1)).unwrap();
        b.set(NodeId(1), NodeId(3), tv(0.9)).unwrap();
        let csr = b.build();
        assert_eq!(
            csr.row(NodeId(1)),
            &[(NodeId(0), tv(0.1)), (NodeId(3), tv(0.9))]
        );
        assert_eq!(csr.entry_count(), 2);
        assert_eq!(csr.get(NodeId(1), NodeId(3)), Some(tv(0.9)));
        assert_eq!(csr.get(NodeId(0), NodeId(3)), None);
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let mut b = CsrBuilder::new(2);
        assert!(b.set(NodeId(2), NodeId(0), tv(0.5)).is_err());
        assert!(b.set(NodeId(0), NodeId(9), tv(0.5)).is_err());
        assert!(b.extend_row(NodeId(0), [(NodeId(5), tv(0.5))]).is_err());
    }

    #[test]
    fn splice_set_and_remove_keep_runs_sorted() {
        let mut b = CsrBuilder::new(3);
        b.set(NodeId(0), NodeId(2), tv(0.2)).unwrap();
        b.set(NodeId(2), NodeId(1), tv(0.6)).unwrap();
        let mut csr = b.build();
        csr.splice_set(0, NodeId(1), tv(0.4));
        assert_eq!(
            csr.row(NodeId(0)),
            &[(NodeId(1), tv(0.4)), (NodeId(2), tv(0.2))]
        );
        // Later rows shifted, still reachable.
        assert_eq!(csr.get(NodeId(2), NodeId(1)), Some(tv(0.6)));
        assert_eq!(csr.splice_remove(0, NodeId(2)), Some(tv(0.2)));
        assert_eq!(csr.splice_remove(0, NodeId(2)), None);
        assert_eq!(csr.row(NodeId(0)), &[(NodeId(1), tv(0.4))]);
        assert_eq!(csr.get(NodeId(2), NodeId(1)), Some(tv(0.6)));
        assert_eq!(csr.entry_count(), 2);
    }
}
