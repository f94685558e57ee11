//! # dg-core — differential gossip trust, the paper's contribution
//!
//! This crate assembles the trust primitives ([`dg_trust`]) and gossip
//! engines ([`dg_gossip`]) into the four reputation-aggregation algorithm
//! variants of Section 4.1.2:
//!
//! | Variant | Scope | Output | Module |
//! |---------|-------|--------|--------|
//! | Algorithm 1 | one subject | global reputation `R_j` at every node | [`algorithms::alg1`] |
//! | Algorithm 2 | one subject | globally calibrated local reputation `Rep_Ij` | [`algorithms::alg2`] |
//! | Variation 3 | all subjects | global reputation vector at every node | [`algorithms::alg3`] |
//! | Variation 4 | all subjects | GCLR matrix (one row per node) | [`algorithms::alg4`] |
//!
//! plus:
//!
//! * [`reputation`] — a [`reputation::ReputationSystem`]
//!   facade bundling graph + trust matrix + weight law, including the
//!   closed-form Eq. (4)/(6) evaluation the gossip outputs are verified
//!   against (and which the large collusion sweeps use directly),
//! * [`behavior`] — honest / free-rider / colluder node profiles and the
//!   latent-quality ground truth,
//! * [`collusion`] — colluding-group assignment, the distorted gossip
//!   reports, the exact ΔR formulas of Eqs. (12) and (17), and the
//!   RMS-error metric of Eq. (18).
//!
//! The paper leaves dynamic `a_i` / `b_ij` and a dynamically adjusted
//! newcomer prior unstudied, and nothing here implements them (see
//! `docs/PAPER_MAP.md`, "Not implemented"); the measured whitewash
//! lifecycle is `dg-sim`'s `AdversaryMix` + `NewcomerPolicy` + purge path.

#![forbid(unsafe_code)]

pub mod algorithms;
pub mod behavior;
pub mod collusion;
pub mod error;
pub mod reputation;

pub use error::CoreError;
pub use reputation::ReputationSystem;
