//! # differential-gossip — umbrella crate
//!
//! Re-exports the whole Differential Gossip Trust (DGT) workspace behind a
//! single dependency, and hosts the runnable `examples/` plus the
//! workspace-spanning integration tests.
//!
//! The system reproduces *"Reputation Aggregation in Peer-to-Peer Network
//! Using Differential Gossip Algorithm"* (Gupta & Singh): reputation values
//! held locally by peers of a power-law P2P overlay are aggregated by a
//! degree-aware **differential push gossip**, then blended with directly
//! reported neighbour opinions through the weight law `w = a^{b·t}`.
//!
//! Crate map:
//!
//! * [`graph`] — topologies (preferential attachment and baselines),
//! * [`trust`] — trust values, sparse trust matrices, the EWMA estimator, weights,
//! * [`gossip`] — push / pull / push-pull / differential gossip engines,
//! * [`core`] — the paper's four aggregation algorithms and collusion model,
//! * [`sim`] — scenario runner, workloads, round engines, experiments,
//! * [`p2p`] — the peer deployment: one state machine per peer,
//! * [`store`] — durable epoch/delta snapshots behind crash recovery,
//! * [`serve`] — reputation-as-a-service: TCP query/ingest endpoints
//!   over round-atomic snapshots.

#![forbid(unsafe_code)]

pub use dg_core as core;
pub use dg_gossip as gossip;
pub use dg_graph as graph;
pub use dg_p2p as p2p;
pub use dg_serve as serve;
pub use dg_sim as sim;
pub use dg_store as store;
pub use dg_trust as trust;
