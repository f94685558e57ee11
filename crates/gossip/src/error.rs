//! Error type for gossip engines.

use thiserror::Error;

/// Errors produced by gossip engine configuration and initialisation.
#[derive(Debug, Error, PartialEq)]
pub enum GossipError {
    /// The error tolerance must be a positive finite number.
    #[error("error tolerance xi must be positive and finite, got {0}")]
    InvalidTolerance(f64),

    /// Loss probability outside `[0, 1)`.
    #[error("loss probability {0} outside [0, 1)")]
    InvalidLossProbability(f64),

    /// Initial state length didn't match the graph.
    #[error("initial state has {given} entries but the graph has {expected} nodes")]
    StateSizeMismatch {
        /// Entries supplied.
        given: usize,
        /// Nodes in the graph.
        expected: usize,
    },

    /// A uniform fan-out of zero pushes can never diffuse anything.
    #[error("uniform fan-out must be at least 1")]
    ZeroFanout,

    /// Gossip weight must be non-negative (it is a probability mass).
    #[error("gossip weights must be non-negative and finite, got {0}")]
    InvalidWeight(f64),

    /// Departure probability outside `[0, 1)`.
    #[error("departure probability {0} outside [0, 1)")]
    InvalidDepartureProbability(f64),

    /// A network fault profile failed validation.
    #[error("invalid network profile: {0}")]
    InvalidProfile(&'static str),

    /// An adversary mix failed validation.
    #[error("invalid adversary mix: {0}")]
    InvalidAdversaryMix(&'static str),
}
