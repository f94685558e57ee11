//! # dg-trust — trust primitives for differential gossip trust
//!
//! The paper's reputation system starts from *local trust values*
//! `t_ij ∈ [0, 1]`: node `i`'s assessment of node `j`, estimated purely
//! from direct interactions (the paper delegates estimation to the
//! authors' earlier work and assumes the values exist). This crate owns
//! everything "below" the gossip layer:
//!
//! * [`TrustValue`] — a validated `[0, 1]` trust score,
//! * [`TrustMatrix`] — the sparse `N × N` matrix of direct-interaction
//!   trust values (`t_ij`), row-indexed by the observing node: one
//!   store, a [`ShardSpec`] partition of the rows into contiguous
//!   ranges with one [`RowSlab`] (a cell arena plus a span per row)
//!   each,
//! * [`estimator`] — the transaction-outcome driven EWMA estimator that
//!   produces `t_ij` from a synthetic file-sharing workload (our
//!   substitution for the paper's reference \[20\] and its unpublished
//!   trace data; see `docs/PAPER_MAP.md`, "Trust estimation from
//!   transactions"),
//! * [`weights`] — the neighbour-opinion weight law `w_Ii = a^(b·t_Ii)`
//!   of Eq. (2), with the paper's `w ≥ 1` invariant,
//! * [`delta`] — the column-postings mirror with delta-maintained
//!   per-subject aggregates behind the incremental engine: dirty
//!   subjects recompute through the same kernel as the from-scratch
//!   sweep, so delta results are bit-identical, clean subjects are
//!   free,
//! * [`robust`] — robust-aggregation countermeasures (report clamping,
//!   per-subject trimmed aggregation) for adversarial gossip channels,
//! * `tiled` (internal) — the cache-aware tiled subject-sum sweeps
//!   behind [`TrustMatrix::subject_sums_and_counts`]: entries bucketed
//!   by L2-sized subject tile, SoA accumulators per tile, tiles
//!   executed on the work-stealing pool — bit-identical to the naive
//!   scatter at any thread count,
//! * [`audit`] — the deterministic stochastic-audit layer against
//!   within-bounds stealth cartels: seeded audit-target selection, the
//!   bounded per-node [`ReportLog`] re-verification
//!   buffer, and the k-strikes conviction policy,
//! * [`snapshot`] — the serve layer's read side: immutable per-round
//!   [`ReputationSnapshot`]s with an incrementally-maintained rank
//!   index (`top_k` / `percentile`), published through the
//!   double-buffered [`SnapshotCell`] so readers never block the
//!   round engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod delta;
pub mod error;
pub mod estimator;
pub mod matrix;
pub mod robust;
pub mod snapshot;
mod tiled;
pub mod value;
pub mod weights;

pub use audit::{audit_targets, AuditPolicy, ReportLog, ReportLogEntry};
pub use delta::SubjectAggregateCache;
pub use error::TrustError;
pub use matrix::{RowSlab, ShardSpec, TrustMatrix};
pub use robust::RobustAggregation;
pub use snapshot::{ReputationSnapshot, SnapshotCell};
pub use value::TrustValue;
pub use weights::WeightParams;

/// Convenience prelude.
pub mod prelude {
    pub use crate::estimator::{EwmaEstimator, TransactionOutcome};
    pub use crate::matrix::TrustMatrix;
    pub use crate::robust::RobustAggregation;
    pub use crate::value::TrustValue;
    pub use crate::weights::WeightParams;
}
