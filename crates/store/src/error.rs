//! The typed error surface of the store.
//!
//! Corruption is a first-class outcome, not an assertion failure: a
//! truncated shard, a flipped byte, a header from a future format or a
//! delta chain whose base disappeared all map to a distinct variant
//! that names the offending file. Nothing in this crate panics on bad
//! input.

use thiserror::Error;

/// Everything that can go wrong reading or writing a checkpoint.
#[derive(Debug, Error)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    #[error("i/o on {path}: {source}")]
    Io {
        /// The file or directory the operation touched.
        path: String,
        /// The OS-level error.
        #[source]
        source: std::io::Error,
    },
    /// A file the committed `HEAD.json` promised does not exist (e.g. a
    /// shard file deleted after the epoch committed).
    #[error("snapshot file {path} is missing")]
    Missing {
        /// The promised file.
        path: String,
    },
    /// The directory holds no committed checkpoint at all.
    #[error("no snapshot committed in {dir} (HEAD.json absent)")]
    NoSnapshot {
        /// The checkpoint directory.
        dir: String,
    },
    /// A file exists but its bytes are not a valid snapshot payload:
    /// truncated, wrong magic, length mismatch, checksum mismatch or an
    /// undecodable record.
    #[error("corrupt snapshot file {path}: {reason}")]
    Corrupt {
        /// The damaged file.
        path: String,
        /// What the decoder tripped over.
        reason: String,
    },
    /// The file was written by a newer format than this build supports.
    /// (Older versions always load: fields added later default via
    /// `#[serde(default)]` / absent-section policy.)
    #[error("snapshot format v{found} in {path} is newer than supported v{supported}")]
    UnsupportedVersion {
        /// The damaged-or-future file.
        path: String,
        /// The version found on disk.
        found: u32,
        /// The highest version this build reads.
        supported: u32,
    },
    /// The caller handed the store inconsistent inputs (record count vs
    /// header, unsorted records, overlapping shard ranges, ...).
    #[error("invalid snapshot input: {reason}")]
    Invalid {
        /// What was inconsistent.
        reason: String,
    },
    /// The delta chain under `HEAD.json` is inconsistent — a delta's
    /// base round does not match the checkpoint it claims to extend.
    #[error("delta chain broken in {dir}: {reason}")]
    BrokenChain {
        /// The checkpoint directory.
        dir: String,
        /// Which link broke.
        reason: String,
    },
    /// Two stores (or files) [`same`](crate::same) compared are not the
    /// same: the first file at which they disagree.
    #[error("{path} differs: {reason}")]
    Differs {
        /// The second side's file (or the file only one side holds).
        path: String,
        /// How it differs.
        reason: String,
    },
    /// [`Store::cut`](crate::Store::cut) found no delta to drop.
    #[error("no delta to cut in {dir}: HEAD.json names only the epoch")]
    NoDelta {
        /// The checkpoint directory.
        dir: String,
    },
}
