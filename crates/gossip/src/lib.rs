//! # dg-gossip — gossip engines for reputation aggregation
//!
//! Implements the paper's **differential push gossip** (Section 4.1.1) and
//! the baselines it is measured against:
//!
//! * [`vector::VectorGossip`] — the one push-sum engine: the
//!   simultaneous all-subjects variant (Variations 3/4) exchanging gossip
//!   *trios* `(subject, y, g)` plus counts, and, with one subject
//!   ([`VectorGossip::one_subject`]), Algorithm 1's averaging of a single
//!   gossip pair `(y, g)` per node; it models loss and churn;
//! * [`protocol::Convergence`] — the paper's convergence protocol, driven
//!   by the engine and the `dg-p2p` peer: movement against the error
//!   bound `ξ` per subject gossiped (`Nξ` for `N` subjects, Eq. (7)),
//!   *announcements* to neighbours, and stopping once a node **and all
//!   its neighbours** have announced;
//! * [`spread`] — rumor-spreading engines (push / pull / push-pull /
//!   differential push) used to check Theorem 5.1 empirically;
//! * [`fanout::FanoutPolicy`] — uniform `p`-push vs. the paper's
//!   degree-ratio differential fan-out;
//! * [`loss`] — the packet-loss / churn model of Fig. 4 (failed pushes
//!   redirect their share to the sender, preserving mass; departing nodes
//!   hand their pair over to a neighbour);
//! * [`profile::NetworkProfile`] — the shared fault-profile vocabulary
//!   (`lossless` / `lossy` / `partitioned` / `churning` presets plus
//!   custom knobs) consumed both by the synchronous engine here (mapped
//!   onto [`loss`]'s models) and, at full fidelity, by `dg-p2p`'s faulty
//!   transport;
//! * [`potential::PotentialTracker`] — the contribution-vector potential
//!   `ψ_n` of Theorem 5.2's proof, for convergence ablations;
//! * [`metrics::MessageStats`] — per-step message accounting behind
//!   Table 2.
//!
//! ## Mass conservation
//!
//! The fundamental push-sum invariant — `Σ_i y_i` and `Σ_i g_i` are
//! constant across steps — is preserved by every code path here,
//! including packet loss and churn. The engine `debug_assert!`s it each
//! step and the test suite checks it property-based. (The *asynchronous*
//! faulty transport in `dg-p2p` can genuinely destroy or inject mass —
//! UDP-like loss and duplication have no acknowledgement to recredit
//! from — and surfaces the exact deficit through a per-run mass ledger
//! instead of hiding it.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod config;
pub mod error;
pub mod fanout;
pub mod loss;
pub mod metrics;
pub mod pair;
pub mod potential;
pub mod profile;
pub mod protocol;
pub mod scalar;
pub mod spread;
pub mod vector;

pub use adversary::AdversaryMix;
pub use config::{node_stream_seed, EngineKind, GossipConfig};
pub use error::GossipError;
pub use fanout::FanoutPolicy;
pub use pair::GossipPair;
pub use profile::NetworkProfile;
pub use scalar::ScalarGossip;
pub use vector::{VectorGossip, VectorOutcome};
