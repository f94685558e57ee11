//! Length-framed message codec over byte streams — the snapshot file
//! frame (the private `codec` module) lifted onto `io::Read`/`io::Write` for
//! wire protocols.
//!
//! A wire frame is byte-identical to a framed snapshot file: `MAGIC
//! (8) ‖ kind (1) ‖ version (4, LE) ‖ payload_len (8, LE) ‖ payload ‖
//! digest (8, LE)` with the digest over everything before it, so one
//! decoder discipline covers disk and network. The `kind` byte is
//! caller-defined here (protocols carve their own tag space); the
//! version is stamped from [`crate::FORMAT_VERSION`] and checked on
//! read, and it picks the digest the frame is verified with: XXH64 for
//! the format-4 frames this build writes, FNV-1a-64 for a format 1–3
//! frame an older peer sent. A declared payload length above the
//! caller's bound is rejected *before* any allocation, so a garbled or
//! hostile length cannot balloon memory.

use std::io::{Read, Write};

use crate::codec::{frame_digest, prelude_version, seal, FORMAT_VERSION, MAGIC, PRELUDE_LEN};

/// How reading a wire frame can fail.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (including EOF mid-frame).
    Io(std::io::Error),
    /// The bytes are not a well-formed frame; the reason says how.
    Corrupt(String),
    /// The peer speaks a newer format than this build understands.
    UnsupportedVersion {
        /// Version found in the frame.
        found: u32,
        /// Highest version this build reads.
        supported: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Corrupt(reason) => write!(f, "corrupt wire frame: {reason}"),
            WireError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported wire format version {found} (this build reads <= {supported})"
            ),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Write one framed message to `w` (buffer the writer; a frame issues
/// several small writes).
pub fn write_wire_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    let (prelude, trailer) = seal(kind, payload);
    w.write_all(&prelude)?;
    w.write_all(payload)?;
    w.write_all(&trailer)
}

/// Read and verify one framed message from `r`, returning its kind
/// byte and payload. `max_payload` bounds the declared length before
/// the payload is allocated.
pub fn read_wire_frame<R: Read>(r: &mut R, max_payload: usize) -> Result<(u8, Vec<u8>), WireError> {
    read_versioned_frame(r, max_payload).map(|(kind, _, payload)| (kind, payload))
}

/// The one frame verifier, for streams and (through
/// `codec::read_frame`) files: `(kind, format version, payload)`.
pub(crate) fn read_versioned_frame<R: Read>(
    r: &mut R,
    max_payload: usize,
) -> Result<(u8, u32, Vec<u8>), WireError> {
    let mut prelude = [0u8; PRELUDE_LEN];
    r.read_exact(&mut prelude)?;
    if prelude[..8] != MAGIC {
        return Err(WireError::Corrupt(
            "bad magic (not a snapshot frame)".to_string(),
        ));
    }
    let kind = prelude[8];
    let version = prelude_version(&prelude);
    if version > FORMAT_VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let mut payload_len = [0u8; 8];
    payload_len.copy_from_slice(&prelude[13..]);
    let payload_len = u64::from_le_bytes(payload_len);
    if payload_len > max_payload as u64 {
        return Err(WireError::Corrupt(format!(
            "declared payload of {payload_len} bytes exceeds the {max_payload}-byte bound"
        )));
    }
    let mut payload = vec![0u8; payload_len as usize];
    r.read_exact(&mut payload)?;
    let mut trailer = [0u8; 8];
    r.read_exact(&mut trailer)?;
    let stored = u64::from_le_bytes(trailer);
    let computed = frame_digest(&prelude, &payload);
    if stored != computed {
        return Err(WireError::Corrupt(format!(
            "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        )));
    }
    Ok((kind, version, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{fnv1a64, xxh64};

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        write_wire_frame(&mut buf, 7, b"hello frame").unwrap();
        let mut cursor = std::io::Cursor::new(&buf);
        let (kind, payload) = read_wire_frame(&mut cursor, 1 << 20).unwrap();
        assert_eq!(kind, 7);
        assert_eq!(payload, b"hello frame");
        // Back-to-back frames on one stream decode in sequence.
        let mut two = Vec::new();
        write_wire_frame(&mut two, 1, b"a").unwrap();
        write_wire_frame(&mut two, 2, b"bb").unwrap();
        let mut cursor = std::io::Cursor::new(&two);
        assert_eq!(
            read_wire_frame(&mut cursor, 64).unwrap(),
            (1, b"a".to_vec())
        );
        assert_eq!(
            read_wire_frame(&mut cursor, 64).unwrap(),
            (2, b"bb".to_vec())
        );
    }

    #[test]
    fn garbled_byte_fails_checksum() {
        let mut buf = Vec::new();
        write_wire_frame(&mut buf, 3, b"payload bytes").unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        let mut cursor = std::io::Cursor::new(&buf);
        let err = read_wire_frame(&mut cursor, 1 << 20).unwrap_err();
        assert!(matches!(err, WireError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn oversized_declared_length_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_wire_frame(&mut buf, 3, &[0u8; 64]).unwrap();
        let mut cursor = std::io::Cursor::new(&buf);
        let err = read_wire_frame(&mut cursor, 16).unwrap_err();
        assert!(matches!(err, WireError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let mut buf = Vec::new();
        write_wire_frame(&mut buf, 3, b"truncate me").unwrap();
        buf.truncate(buf.len() - 3);
        let mut cursor = std::io::Cursor::new(&buf);
        assert!(matches!(
            read_wire_frame(&mut cursor, 1 << 20),
            Err(WireError::Io(_))
        ));
    }

    /// `buf`, one frame, restamped as format `version` and sealed with
    /// `digest(prelude, payload)`.
    fn restamp(
        mut buf: Vec<u8>,
        version: u32,
        digest: impl Fn(&[u8; PRELUDE_LEN], &[u8]) -> u64,
    ) -> Vec<u8> {
        buf[9..13].copy_from_slice(&version.to_le_bytes());
        let body_end = buf.len() - 8;
        let prelude: [u8; PRELUDE_LEN] = buf[..PRELUDE_LEN].try_into().unwrap();
        let sealed = digest(&prelude, &buf[PRELUDE_LEN..body_end]);
        buf[body_end..].copy_from_slice(&sealed.to_le_bytes());
        buf
    }

    fn read(buf: &[u8]) -> Result<(u8, u32, Vec<u8>), WireError> {
        read_versioned_frame(&mut std::io::Cursor::new(buf), 1 << 20)
    }

    #[test]
    fn future_version_rejected() {
        let mut buf = Vec::new();
        write_wire_frame(&mut buf, 3, b"x").unwrap();
        // Re-sealed with the current digest, so only the version is
        // "wrong".
        let buf = restamp(buf, FORMAT_VERSION + 1, |prelude, payload| {
            xxh64(payload, xxh64(prelude, 0))
        });
        assert!(matches!(
            read(&buf),
            Err(WireError::UnsupportedVersion { found, supported })
                if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
        ));
    }

    #[test]
    fn the_digest_follows_the_frame_version_not_the_reader() {
        let fnv = |prelude: &[u8; PRELUDE_LEN], payload: &[u8]| {
            let mut body = prelude.to_vec();
            body.extend_from_slice(payload);
            fnv1a64(&body)
        };
        let xxh = |prelude: &[u8; PRELUDE_LEN], payload: &[u8]| xxh64(payload, xxh64(prelude, 0));
        let mut buf = Vec::new();
        write_wire_frame(&mut buf, 5, b"a frame from another build").unwrap();
        // What this build writes is format 4 under XXH64.
        assert_eq!(buf, restamp(buf.clone(), 4, xxh));
        for old in 1..4 {
            // An older build's frame (FNV-1a) verifies...
            let (kind, version, payload) = read(&restamp(buf.clone(), old, fnv)).unwrap();
            assert_eq!((kind, version), (5, old));
            assert_eq!(payload, b"a frame from another build");
            // ...and the same bytes under the current digest do not.
            assert!(matches!(
                read(&restamp(buf.clone(), old, xxh)),
                Err(WireError::Corrupt(_))
            ));
        }
        // The mirror case: a format-4 frame must carry XXH64.
        assert_eq!(read(&restamp(buf.clone(), 4, xxh)).unwrap().1, 4);
        assert!(matches!(
            read(&restamp(buf, 4, fnv)),
            Err(WireError::Corrupt(_))
        ));
    }
}
