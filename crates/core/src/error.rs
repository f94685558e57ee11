//! Error type for the aggregation layer.

/// Errors produced by the reputation aggregation algorithms.
#[derive(Debug)]
pub enum CoreError {
    /// Bubbled up from the gossip engines.
    Gossip(dg_gossip::GossipError),

    /// Bubbled up from the trust layer.
    Trust(dg_trust::TrustError),

    /// Bubbled up from topology construction.
    Graph(dg_graph::GraphError),

    /// The trust matrix dimension didn't match the graph.
    DimensionMismatch {
        /// Trust matrix dimension.
        matrix: usize,
        /// Graph node count.
        graph: usize,
    },

    /// Collusion parameters were inconsistent.
    InvalidCollusion(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Gossip(e) => std::fmt::Display::fmt(e, f),
            CoreError::Trust(e) => std::fmt::Display::fmt(e, f),
            CoreError::Graph(e) => std::fmt::Display::fmt(e, f),
            CoreError::DimensionMismatch { matrix, graph } => {
                write!(f, "trust matrix is {matrix} nodes but graph has {graph}")
            }
            CoreError::InvalidCollusion(why) => write!(f, "invalid collusion parameters: {why}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Gossip(e) => Some(e),
            CoreError::Trust(e) => Some(e),
            CoreError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dg_gossip::GossipError> for CoreError {
    fn from(e: dg_gossip::GossipError) -> Self {
        CoreError::Gossip(e)
    }
}

impl From<dg_trust::TrustError> for CoreError {
    fn from(e: dg_trust::TrustError) -> Self {
        CoreError::Trust(e)
    }
}

impl From<dg_graph::GraphError> for CoreError {
    fn from(e: dg_graph::GraphError) -> Self {
        CoreError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::CoreError;
    use dg_gossip::GossipError;
    use dg_graph::GraphError;
    use dg_trust::TrustError;
    use std::error::Error;

    /// A bubbled-up error prints its inner message and is its own
    /// `source()` (the inner error itself, not the inner's source).
    #[test]
    fn every_variant_prints_its_message_and_names_its_source() {
        let cases = [
            (
                CoreError::from(GossipError::ZeroFanout),
                "uniform fan-out must be at least 1",
                Some("uniform fan-out must be at least 1"),
            ),
            (
                CoreError::from(TrustError::OutOfRange(1.5)),
                "trust value 1.5 outside [0, 1]",
                Some("trust value 1.5 outside [0, 1]"),
            ),
            (
                CoreError::from(GraphError::SelfLoop(3)),
                "self loop on node 3 is not allowed",
                Some("self loop on node 3 is not allowed"),
            ),
            (
                CoreError::DimensionMismatch {
                    matrix: 10,
                    graph: 12,
                },
                "trust matrix is 10 nodes but graph has 12",
                None,
            ),
            (
                CoreError::InvalidCollusion("fraction above 1".into()),
                "invalid collusion parameters: fraction above 1",
                None,
            ),
        ];
        for (e, msg, source) in cases {
            assert_eq!(e.to_string(), msg);
            assert_eq!(e.source().map(|s| s.to_string()).as_deref(), source);
        }
    }
}
