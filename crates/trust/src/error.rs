//! Error type for trust primitives.

/// Errors produced by trust-layer constructors and updates.
#[derive(Debug, PartialEq)]
pub enum TrustError {
    /// Trust values must lie in `[0, 1]` (Section 4 of the paper).
    OutOfRange(f64),

    /// Trust values must be finite numbers.
    NotFinite(f64),

    /// Weight-law parameters must keep every weight ≥ 1.
    InvalidWeightParams(String),

    /// A robust-aggregation policy failed validation.
    InvalidRobustPolicy(String),

    /// An audit policy failed validation.
    InvalidAuditPolicy(String),

    /// A node id exceeded the matrix dimension.
    NodeOutOfRange {
        /// Offending id.
        id: u32,
        /// Matrix dimension.
        n: usize,
    },

    /// A bulk row replacement violated its ordering contract: replaced
    /// rows must be sorted by ascending observer without duplicates,
    /// and every replacement run sorted by ascending subject.
    UnsortedRowReplacement {
        /// Observer id at (or after) the violation.
        id: u32,
    },
}

impl std::fmt::Display for TrustError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrustError::OutOfRange(v) => write!(f, "trust value {v} outside [0, 1]"),
            TrustError::NotFinite(v) => write!(f, "trust value must be finite, got {v}"),
            TrustError::InvalidWeightParams(why) => write!(f, "invalid weight parameters: {why}"),
            TrustError::InvalidRobustPolicy(why) => {
                write!(f, "invalid robust aggregation policy: {why}")
            }
            TrustError::InvalidAuditPolicy(why) => write!(f, "invalid audit policy: {why}"),
            TrustError::NodeOutOfRange { id, n } => {
                write!(f, "node id {id} out of range for {n} nodes")
            }
            TrustError::UnsortedRowReplacement { id } => {
                write!(
                    f,
                    "row replacement around node {id} is not sorted/deduplicated"
                )
            }
        }
    }
}

impl std::error::Error for TrustError {}

#[cfg(test)]
mod tests {
    use super::TrustError;
    use std::error::Error;

    #[test]
    fn every_variant_prints_its_message_and_has_no_source() {
        let cases = [
            (
                TrustError::OutOfRange(1.5),
                "trust value 1.5 outside [0, 1]",
            ),
            (
                TrustError::NotFinite(f64::NAN),
                "trust value must be finite, got NaN",
            ),
            (
                TrustError::InvalidWeightParams("beta < 0".into()),
                "invalid weight parameters: beta < 0",
            ),
            (
                TrustError::InvalidRobustPolicy("trim > 0.5".into()),
                "invalid robust aggregation policy: trim > 0.5",
            ),
            (
                TrustError::InvalidAuditPolicy("zero window".into()),
                "invalid audit policy: zero window",
            ),
            (
                TrustError::NodeOutOfRange { id: 9, n: 4 },
                "node id 9 out of range for 4 nodes",
            ),
            (
                TrustError::UnsortedRowReplacement { id: 2 },
                "row replacement around node 2 is not sorted/deduplicated",
            ),
        ];
        for (e, msg) in cases {
            assert_eq!(e.to_string(), msg);
            assert!(e.source().is_none(), "{e:?}");
        }
    }
}
