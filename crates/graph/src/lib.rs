//! # dg-graph — network topologies for differential gossip trust
//!
//! The paper evaluates differential gossip on unstructured peer-to-peer
//! overlays that follow a power-law degree distribution, generated with the
//! preferential-attachment (PA) process of Barabási–Albert / Bollobás
//! (`G^m_N`, `m ≥ 2`). This crate provides:
//!
//! * [`Graph`] — a compact, immutable CSR adjacency representation tuned for
//!   the hot gossip loop at `N = 50 000` nodes,
//! * [`GraphBuilder`] — the edge-list builder every generator uses,
//! * [`pa::preferential_attachment`] — the PA generator used throughout the
//!   paper's evaluation,
//! * [`generators`] — baseline topologies (complete, ring, star,
//!   Erdős–Rényi, random-regular, and the 10-node example of the paper's
//!   Fig. 2),
//! * [`degree`] — degree statistics and a power-law exponent estimator,
//! * [`analysis`] — BFS distances and the connectivity check the
//!   generators' tests use.
//!
//! All generators are deterministic given an explicit RNG, which keeps every
//! experiment in the repository reproducible bit-for-bit.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod degree;
pub mod error;
pub mod generators;
pub mod graph;
pub mod pa;

pub use error::GraphError;
pub use graph::{Graph, GraphBuilder, NodeId};

/// Convenience prelude re-exporting the items almost every consumer needs.
pub mod prelude {
    pub use crate::analysis;
    pub use crate::degree::{self, DegreeStats};
    pub use crate::generators;
    pub use crate::graph::{Graph, GraphBuilder, NodeId};
    pub use crate::pa::{self, PaConfig};
}
