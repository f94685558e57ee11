//! The typed error surface of the store.
//!
//! Corruption is a first-class outcome, not an assertion failure: a
//! truncated shard, a flipped byte, a header from a future format or a
//! delta chain whose base disappeared all map to a distinct variant
//! that names the offending file. Nothing in this crate panics on bad
//! input.

/// Everything that can go wrong reading or writing a checkpoint.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// The file or directory the operation touched.
        path: String,
        /// The OS-level error.
        source: std::io::Error,
    },
    /// A file the committed `HEAD.json` promised does not exist (e.g. a
    /// shard file deleted after the epoch committed).
    Missing {
        /// The promised file.
        path: String,
    },
    /// The directory holds no committed checkpoint at all.
    NoSnapshot {
        /// The checkpoint directory.
        dir: String,
    },
    /// A file exists but its bytes are not a valid snapshot payload:
    /// truncated, wrong magic, length mismatch, checksum mismatch or an
    /// undecodable record.
    Corrupt {
        /// The damaged file.
        path: String,
        /// What the decoder tripped over.
        reason: String,
    },
    /// The file was written by a newer format than this build supports.
    /// (Older versions always load: fields added later default via
    /// `#[serde(default)]` / absent-section policy.)
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
    Invalid {
        /// What was inconsistent.
        reason: String,
    },
    /// The delta chain under `HEAD.json` is inconsistent — a delta's
    /// base round does not match the checkpoint it claims to extend.
    BrokenChain {
        /// The checkpoint directory.
        dir: String,
        /// Which link broke.
        reason: String,
    },
    /// Two stores (or files) [`same`](crate::same) compared are not the
    /// same: the first file at which they disagree.
    Differs {
        /// The second side's file (or the file only one side holds).
        path: String,
        /// How it differs.
        reason: String,
    },
    /// [`Store::cut`](crate::Store::cut) found no delta to drop.
    NoDelta {
        /// The checkpoint directory.
        dir: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, source } => write!(f, "i/o on {path}: {source}"),
            StoreError::Missing { path } => write!(f, "snapshot file {path} is missing"),
            StoreError::NoSnapshot { dir } => {
                write!(f, "no snapshot committed in {dir} (HEAD.json absent)")
            }
            StoreError::Corrupt { path, reason } => {
                write!(f, "corrupt snapshot file {path}: {reason}")
            }
            StoreError::UnsupportedVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "snapshot format v{found} in {path} is newer than supported v{supported}"
            ),
            StoreError::Invalid { reason } => write!(f, "invalid snapshot input: {reason}"),
            StoreError::BrokenChain { dir, reason } => {
                write!(f, "delta chain broken in {dir}: {reason}")
            }
            StoreError::Differs { path, reason } => write!(f, "{path} differs: {reason}"),
            StoreError::NoDelta { dir } => {
                write!(
                    f,
                    "no delta to cut in {dir}: HEAD.json names only the epoch"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::StoreError;
    use std::error::Error;

    #[test]
    fn every_variant_prints_its_message_and_only_io_has_a_source() {
        let cases = [
            (
                StoreError::Io {
                    path: "s/HEAD.json".into(),
                    source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
                },
                "i/o on s/HEAD.json: gone",
                Some("gone"),
            ),
            (
                StoreError::Missing {
                    path: "s/epoch-3.bin".into(),
                },
                "snapshot file s/epoch-3.bin is missing",
                None,
            ),
            (
                StoreError::NoSnapshot { dir: "s".into() },
                "no snapshot committed in s (HEAD.json absent)",
                None,
            ),
            (
                StoreError::Corrupt {
                    path: "s/delta-4.bin".into(),
                    reason: "digest mismatch".into(),
                },
                "corrupt snapshot file s/delta-4.bin: digest mismatch",
                None,
            ),
            (
                StoreError::UnsupportedVersion {
                    path: "s/HEAD.json".into(),
                    found: 5,
                    supported: 4,
                },
                "snapshot format v5 in s/HEAD.json is newer than supported v4",
                None,
            ),
            (
                StoreError::Invalid {
                    reason: "unsorted records".into(),
                },
                "invalid snapshot input: unsorted records",
                None,
            ),
            (
                StoreError::BrokenChain {
                    dir: "s".into(),
                    reason: "base round 2, expected 3".into(),
                },
                "delta chain broken in s: base round 2, expected 3",
                None,
            ),
            (
                StoreError::Differs {
                    path: "b/HEAD.json".into(),
                    reason: "byte 7".into(),
                },
                "b/HEAD.json differs: byte 7",
                None,
            ),
            (
                StoreError::NoDelta { dir: "s".into() },
                "no delta to cut in s: HEAD.json names only the epoch",
                None,
            ),
        ];
        for (e, msg, source) in cases {
            assert_eq!(e.to_string(), msg);
            assert_eq!(e.source().map(|s| s.to_string()).as_deref(), source);
        }
    }
}
