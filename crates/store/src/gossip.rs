//! The framed file kind for distributed gossip checkpoints.
//!
//! `dg-p2p`'s `GossipCheckpoint` lays out its own payload with
//! [`ByteWriter`](crate::ByteWriter) and reads it back with
//! [`ByteReader`](crate::ByteReader); this module wraps that payload in
//! the same magic + version + checksum frame as the node snapshots, so
//! a distributed run killed mid-protocol can hand its exact mass
//! accounting to a resumed run.

use crate::codec::{read_frame, write_frame, FrameKind};
use crate::StoreError;
use std::path::Path;

/// Write `payload` as a framed `gossip` file (tmp + rename).
pub fn write_gossip(path: &Path, payload: &[u8]) -> Result<(), StoreError> {
    write_frame(path, FrameKind::Gossip, payload)
}

/// Read a `gossip` file's payload back, with the frame's full
/// corruption handling (truncated or garbled file → typed error).
pub fn read_gossip(path: &Path) -> Result<Vec<u8>, StoreError> {
    let (_version, payload) = read_frame(path, FrameKind::Gossip)?;
    Ok(payload)
}
