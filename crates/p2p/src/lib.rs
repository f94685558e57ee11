//! # dg-p2p — the peer deployment
//!
//! The synchronous engines in [`dg_gossip`] are ideal for experiments;
//! this crate shows the same protocol running as it would in a real
//! deployment: **every peer is its own state machine**, holding only its
//! own pair, RNG stream and view of its neighbours, and peers learn about
//! each other only through messages, over one transport,
//! [`transport::FaultyNetwork`]: in-memory inboxes behind links that
//! apply seeded per-link message loss, bounded random delay
//! (reordering), duplication, node churn (crash / rejoin) and partition
//! windows, all described by a [`dg_gossip::NetworkProfile`]. The
//! paper's "reliable bit pipe between sender and receiver" is the
//! lossless profile, whose links draw nothing and deliver every message
//! in its send round. Mass destroyed or injected by faults is tallied
//! exactly in a [`transport::MassLedger`] and surfaced on the run
//! outcome.
//!
//! The runner plays the paper's discrete clock ("time is discrete; every
//! node knows about the starting time of gossip") on one thread, in the
//! style of a deterministic simulation: each round every peer *ticks*
//! (pushes its shares into the other peers' inboxes), then every peer
//! *commits* (processes what has arrived). Nothing but envelopes passes
//! between peers.
//!
//! Every random decision — neighbour sampling, link faults, churn — is
//! drawn from ChaCha8 streams derived per node / per link with
//! [`dg_gossip::node_stream_seed`], and peers commit their inboxes in
//! sorted `(deliver_at, from, seq)` order, so a `(config, seed)` pair
//! reproduces bit-identical outcomes, faulty or not.
//!
//! Under the lossless profile the final estimates are bit-for-bit the
//! push-sum limit, so integration tests cross-check this deployment
//! against a one-subject run of the synchronous
//! [`VectorGossip`](dg_gossip::VectorGossip::one_subject) engine; `tests/faulty_transport.rs` pins the faulty runtime's
//! determinism and mass accounting.

//! A run can be frozen mid-flight and continued after a process
//! restart: [`checkpoint::GossipCheckpoint`] persists the per-peer
//! pairs and the mass-accounting history as a `dg-store` framed file,
//! and [`checkpoint::resume_distributed`] picks the run back up
//! with the conservation invariant intact (see that module's docs for
//! what is exact versus statistical about the continuation).

#![forbid(unsafe_code)]

pub mod checkpoint;
mod peer;
pub mod runner;
pub mod transport;

pub use checkpoint::{resume_distributed, GossipCheckpoint};
pub use runner::{run_distributed, run_with_transport, DistributedConfig, DistributedOutcome};
pub use transport::{FaultyNetwork, MassLedger};
