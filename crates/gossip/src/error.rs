//! Error type for gossip engines.

/// Errors produced by gossip engine configuration and initialisation.
#[derive(Debug, PartialEq)]
pub enum GossipError {
    /// The error tolerance must be a positive finite number.
    InvalidTolerance(f64),

    /// Loss probability outside `[0, 1)`.
    InvalidLossProbability(f64),

    /// Initial state length didn't match the graph.
    StateSizeMismatch {
        /// Entries supplied.
        given: usize,
        /// Nodes in the graph.
        expected: usize,
    },

    /// A uniform fan-out of zero pushes can never diffuse anything.
    ZeroFanout,

    /// Gossip weight must be non-negative (it is a probability mass).
    InvalidWeight(f64),

    /// Departure probability outside `[0, 1)`.
    InvalidDepartureProbability(f64),

    /// A network fault profile failed validation.
    InvalidProfile(&'static str),

    /// An adversary mix failed validation.
    InvalidAdversaryMix(&'static str),
}

impl std::fmt::Display for GossipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GossipError::InvalidTolerance(xi) => {
                write!(
                    f,
                    "error tolerance xi must be positive and finite, got {xi}"
                )
            }
            GossipError::InvalidLossProbability(p) => {
                write!(f, "loss probability {p} outside [0, 1)")
            }
            GossipError::StateSizeMismatch { given, expected } => write!(
                f,
                "initial state has {given} entries but the graph has {expected} nodes"
            ),
            GossipError::ZeroFanout => write!(f, "uniform fan-out must be at least 1"),
            GossipError::InvalidWeight(w) => {
                write!(f, "gossip weights must be non-negative and finite, got {w}")
            }
            GossipError::InvalidDepartureProbability(p) => {
                write!(f, "departure probability {p} outside [0, 1)")
            }
            GossipError::InvalidProfile(why) => write!(f, "invalid network profile: {why}"),
            GossipError::InvalidAdversaryMix(why) => write!(f, "invalid adversary mix: {why}"),
        }
    }
}

impl std::error::Error for GossipError {}

#[cfg(test)]
mod tests {
    use super::GossipError;
    use std::error::Error;

    #[test]
    fn every_variant_prints_its_message_and_has_no_source() {
        let cases = [
            (
                GossipError::InvalidTolerance(-0.5),
                "error tolerance xi must be positive and finite, got -0.5",
            ),
            (
                GossipError::InvalidLossProbability(1.0),
                "loss probability 1 outside [0, 1)",
            ),
            (
                GossipError::StateSizeMismatch {
                    given: 3,
                    expected: 4,
                },
                "initial state has 3 entries but the graph has 4 nodes",
            ),
            (
                GossipError::ZeroFanout,
                "uniform fan-out must be at least 1",
            ),
            (
                GossipError::InvalidWeight(f64::INFINITY),
                "gossip weights must be non-negative and finite, got inf",
            ),
            (
                GossipError::InvalidDepartureProbability(2.5),
                "departure probability 2.5 outside [0, 1)",
            ),
            (
                GossipError::InvalidProfile("loss outside [0, 1)"),
                "invalid network profile: loss outside [0, 1)",
            ),
            (
                GossipError::InvalidAdversaryMix("fractions sum above 1"),
                "invalid adversary mix: fractions sum above 1",
            ),
        ];
        for (e, msg) in cases {
            assert_eq!(e.to_string(), msg);
            assert!(e.source().is_none(), "{e:?}");
        }
    }
}
