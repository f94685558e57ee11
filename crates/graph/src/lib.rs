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
//! * [`generators`] — baseline topologies (complete, ring, star, and the
//!   10-node example of the paper's Fig. 2).
//!
//! The PA generator is deterministic given an explicit RNG and the baselines
//! draw nothing, which keeps every experiment in the repository
//! reproducible bit-for-bit.

#![forbid(unsafe_code)]

pub mod error;
pub mod generators;
pub mod graph;
pub mod pa;

pub use error::GraphError;
pub use graph::{Graph, GraphBuilder, NodeId};
