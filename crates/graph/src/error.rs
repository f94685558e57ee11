//! Error type for graph construction and validation.

/// Errors produced while building or validating topologies.
#[derive(Debug, PartialEq, Eq)]
pub enum GraphError {
    /// A node id referenced an index outside `0..n`.
    NodeOutOfRange {
        /// Offending id.
        id: u32,
        /// Number of nodes in the graph.
        n: usize,
    },

    /// Self loops are not meaningful for gossip overlays.
    SelfLoop(u32),

    /// Generator parameters were inconsistent (e.g. `m >= n`).
    InvalidParameters(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { id, n } => {
                write!(f, "node id {id} out of range for graph of {n} nodes")
            }
            GraphError::SelfLoop(id) => write!(f, "self loop on node {id} is not allowed"),
            GraphError::InvalidParameters(why) => write!(f, "invalid generator parameters: {why}"),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::GraphError;
    use std::error::Error;

    #[test]
    fn every_variant_prints_its_message_and_has_no_source() {
        let cases = [
            (
                GraphError::NodeOutOfRange { id: 7, n: 5 },
                "node id 7 out of range for graph of 5 nodes",
            ),
            (
                GraphError::SelfLoop(3),
                "self loop on node 3 is not allowed",
            ),
            (
                GraphError::InvalidParameters("m >= n".into()),
                "invalid generator parameters: m >= n",
            ),
        ];
        for (e, msg) in cases {
            assert_eq!(e.to_string(), msg);
            assert!(e.source().is_none(), "{e:?}");
        }
    }
}
