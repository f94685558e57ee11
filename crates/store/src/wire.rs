//! Length-framed message codec over byte streams — the snapshot file
//! frame (the private `codec` module) lifted onto `io::Read`/`io::Write` for
//! wire protocols.
//!
//! A wire frame is byte-identical to a framed snapshot file: `MAGIC
//! (8) ‖ kind (1) ‖ version (4, LE) ‖ payload_len (8, LE) ‖ payload ‖
//! digest (8, LE)` with the digest FNV-1a-64 over everything before
//! it, so one decoder discipline covers disk and network. The `kind`
//! byte is caller-defined here (protocols carve their own tag space);
//! the version is stamped from [`crate::FORMAT_VERSION`]
//! and checked on read, and a declared payload length above the
//! caller's bound is rejected *before* any allocation, so a garbled or
//! hostile length cannot balloon memory.

use std::io::{Read, Write};

use crate::codec::{frame_digest, seal, FORMAT_VERSION, MAGIC, PRELUDE_LEN};

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
    let version = u32::from_le_bytes([prelude[9], prelude[10], prelude[11], prelude[12]]);
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
    use crate::codec::fnv1a64;

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

    #[test]
    fn future_version_rejected() {
        let mut buf = Vec::new();
        write_wire_frame(&mut buf, 3, b"x").unwrap();
        let future = (FORMAT_VERSION + 1).to_le_bytes();
        buf[9..13].copy_from_slice(&future);
        // Re-seal the digest so only the version is "wrong".
        let body_end = buf.len() - 8;
        let digest = fnv1a64(&buf[..body_end]).to_le_bytes();
        buf[body_end..].copy_from_slice(&digest);
        let mut cursor = std::io::Cursor::new(&buf);
        assert!(matches!(
            read_wire_frame(&mut cursor, 1 << 20),
            Err(WireError::UnsupportedVersion { .. })
        ));
    }
}
