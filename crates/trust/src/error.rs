//! Error type for trust primitives.

use thiserror::Error;

/// Errors produced by trust-layer constructors and updates.
#[derive(Debug, Error, PartialEq)]
pub enum TrustError {
    /// Trust values must lie in `[0, 1]` (Section 4 of the paper).
    #[error("trust value {0} outside [0, 1]")]
    OutOfRange(f64),

    /// Trust values must be finite numbers.
    #[error("trust value must be finite, got {0}")]
    NotFinite(f64),

    /// Weight-law parameters must keep every weight ≥ 1.
    #[error("invalid weight parameters: {0}")]
    InvalidWeightParams(String),

    /// A robust-aggregation policy failed validation.
    #[error("invalid robust aggregation policy: {0}")]
    InvalidRobustPolicy(String),

    /// An audit policy failed validation.
    #[error("invalid audit policy: {0}")]
    InvalidAuditPolicy(String),

    /// A node id exceeded the matrix dimension.
    #[error("node id {id} out of range for {n} nodes")]
    NodeOutOfRange {
        /// Offending id.
        id: u32,
        /// Matrix dimension.
        n: usize,
    },

    /// A bulk row replacement violated its ordering contract: replaced
    /// rows must be sorted by ascending observer without duplicates,
    /// and every replacement run sorted by ascending subject.
    #[error("row replacement around node {id} is not sorted/deduplicated")]
    UnsortedRowReplacement {
        /// Observer id at (or after) the violation.
        id: u32,
    },
}
