//! Durable epoch snapshots and delta logs for reputation runs.
//!
//! Every engine in this workspace is in-memory: a million-node run that
//! dies loses its whole reputation history. `dg-store` is the
//! persistence layer that fixes that, designed around three
//! requirements from the round lifecycle:
//!
//! * **Per-shard snapshot files.** A full checkpoint ("epoch") writes
//!   one binary file per node shard, so snapshot writes parallelise
//!   across shards (rayon) and a single damaged file only loses one
//!   shard's worth of state, not the run.
//! * **Delta records between epochs.** Under skewed traffic most rows
//!   never change between checkpoints; a delta checkpoint stores only
//!   the node records whose bits changed since the previous checkpoint
//!   (the same dirty-row observation the incremental engine exploits),
//!   streamed in by the writer — [`changed`] is the diff they must
//!   equal.
//! * **Crash safety and forward compatibility.** Every file is written
//!   to a temporary sibling and renamed into place; the checkpoint only
//!   becomes visible when `HEAD.json` commits it. Headers are JSON with
//!   a `format_version` and `#[serde(default)]` evolution policy;
//!   binary payloads carry a magic, a version, a length and a checksum,
//!   and any truncated or garbled file surfaces as a typed
//!   [`StoreError`] — never a panic.
//!
//! The crate is deliberately independent of the domain crates: it
//! stores plain [`NodeRecord`]s (raw `f64`/`u64` fields), which `dg-sim`
//! converts its state to and from, and frames `dg-p2p`'s checkpoint
//! payload ([`write_gossip`]) without reading it. `f64`s round-trip
//! through `to_bits`, so a snapshot preserves state *bit for bit* — the
//! property the crash-recovery suite (`tests/crash_recovery.rs` at the
//! workspace root) checks end to end.
//!
//! On-disk layout under a checkpoint directory:
//!
//! ```text
//! dir/
//!   HEAD.json            commit point: base epoch round + delta rounds
//!   epoch-<r>/
//!     header.json        versioned SnapshotHeader
//!     shard-<i>.bin      framed NodeRecords for shard i
//!   delta-<r>.json       header of the delta checkpoint at round r
//!   delta-<r>.bin        framed changed NodeRecords since the previous
//!                        checkpoint in the chain
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod codec;
mod compare;
mod error;
mod gossip;
mod records;
mod store;
pub mod wire;

pub use codec::{ByteReader, ByteWriter, FORMAT_VERSION};
pub use compare::same;
pub use error::StoreError;
pub use gossip::{read_gossip, write_gossip};
pub use records::{
    changed, diff_changed, first_divergence, AuditEntryRecord, EstimatorRecord, NodeRecord,
    SnapshotHeader,
};
pub use store::{Cut, Snapshot, Store};
