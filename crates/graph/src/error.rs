//! Error type for graph construction and validation.

use thiserror::Error;

/// Errors produced while building or validating topologies.
#[derive(Debug, Error, PartialEq, Eq)]
pub enum GraphError {
    /// A node id referenced an index outside `0..n`.
    #[error("node id {id} out of range for graph of {n} nodes")]
    NodeOutOfRange {
        /// Offending id.
        id: u32,
        /// Number of nodes in the graph.
        n: usize,
    },

    /// Self loops are not meaningful for gossip overlays.
    #[error("self loop on node {0} is not allowed")]
    SelfLoop(u32),

    /// Generator parameters were inconsistent (e.g. `m >= n`).
    #[error("invalid generator parameters: {0}")]
    InvalidParameters(String),
}
