//! # dg-serve — reputation as a service
//!
//! The round engines compute reputations; this crate serves them. A
//! [`Server`] wraps a [`ServeSession`](dg_sim::ServeSession) (any of
//! the four bit-identical engines) behind one TCP endpoint speaking a
//! length-framed binary protocol ([`proto`], reusing `dg-store`'s
//! frame envelope):
//!
//! * **Queries** — `reputation(X)`, `top_k(n)`, `percentile(p)` —
//!   answer from the latest *completed* round's immutable
//!   [`ReputationSnapshot`](dg_trust::ReputationSnapshot), published
//!   through a double-buffered
//!   [`SnapshotCell`](dg_trust::SnapshotCell): readers clone an `Arc`,
//!   never lock against the engine, and can never observe a torn
//!   round. Every response carries the round it was answered from.
//! * **Ingest** — externally-submitted transaction reports flow
//!   through a bounded channel into the next round's estimate phase,
//!   deterministically ordered by their `(source, seq)` replay tag: a
//!   replayed ingest log reproduces the run bit for bit, on any
//!   engine. A full channel answers a typed
//!   [`Busy`](proto::Response::Busy) — load is shed and counted
//!   ([`RoundStats::ingest_shed`](dg_sim::rounds::RoundStats)), never
//!   silently dropped, and handlers never block.
//!
//! Consistency contract, in one line: **round-atomic, round-stale by
//! at most one** — every answer reflects exactly one completed round,
//! and a reader racing `finish_round` sees either the previous round
//! or the new one, whole. See `docs/SERVING.md` for the protocol and
//! the consistency model, and `tests/serve.rs` (workspace root) for
//! the torn-read and replay-determinism suites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod client;
pub mod proto;
mod server;

pub use client::Client;
pub use proto::{Request, Response};
pub use server::{ServeError, ServeOptions, Server};
