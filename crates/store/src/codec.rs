//! Binary framing shared by every `.bin` snapshot file.
//!
//! A framed file is `MAGIC (8) ‖ kind (1) ‖ version (4, LE) ‖
//! payload_len (8, LE) ‖ payload ‖ digest (8, LE)`, where the digest
//! covers everything before it and is chosen by the frame's own version
//! field ([`frame_digest`]): XXH64 from format 4 on, FNV-1a-64 in the
//! format 1–3 frames older builds wrote. The frame makes the three
//! corruption modes the store must survive cheap to detect: truncation
//! (length check), garbling (digest check) and cross-wiring a file into
//! the wrong slot (kind tag). Payload decoding on top of the frame goes
//! through [`ByteReader`], whose every read is bounds-checked and
//! returns a reason string the caller wraps into
//! [`StoreError::Corrupt`](crate::StoreError::Corrupt).

use crate::wire::{read_versioned_frame, WireError};
use crate::StoreError;
use std::io::Write;
use std::path::Path;

/// Current snapshot format version, stamped into every frame and
/// header. Readers accept any version `<= FORMAT_VERSION`; newer files
/// are rejected with a typed error rather than misread.
///
/// Version history:
/// - 1: estimators + reputation table + aggregated run + observer
///   mean.
/// - 2: adds per-node audit state (report log, strike count,
///   conviction round) after the observer mean. Version-1 payloads
///   decode with the audit fields empty.
/// - 3: drops the per-peer reputation-table section that sat between
///   the estimators and the aggregated run (a mirror of the estimators
///   that nothing read). Version-1 and -2 payloads decode with that
///   section length-checked and skipped.
/// - 4: the frame digest becomes XXH64 (chosen per frame by its own
///   version field, so older frames keep FNV-1a-64); the
///   payload layout is version 3's, byte for byte.
pub const FORMAT_VERSION: u32 = 4;

/// The first format whose frames carry an XXH64 digest.
const XXH64_SINCE: u32 = 4;

/// Leading magic of every framed snapshot file.
pub(crate) const MAGIC: [u8; 8] = *b"DGSNAP01";

/// Bytes before the payload: magic (8) + kind (1) + version (4) + length (8).
pub(crate) const PRELUDE_LEN: usize = 21;

/// Payload kind tags (one per file role, so a delta file pasted over a
/// shard slot is caught by the frame, not the record decoder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameKind {
    /// One shard of a full epoch checkpoint.
    Shard = 1,
    /// Changed records between two checkpoints.
    Delta = 2,
    /// A distributed-gossip continuation record.
    Gossip = 3,
}

impl FrameKind {
    fn label(self) -> &'static str {
        match self {
            FrameKind::Shard => "shard",
            FrameKind::Delta => "delta",
            FrameKind::Gossip => "gossip",
        }
    }
}

/// FNV-1a 64-bit over `bytes` — the digest of format 1–3 frames. It is
/// one xor and one multiply per byte, each waiting on the last, so it
/// runs at about a byte per multiply latency.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_more(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a digest over `bytes`: hashing a buffer piece by
/// piece gives the digest of the pieces laid end to end.
fn fnv1a64_more(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const XXH_PRIME64_1: u64 = 0x9e37_79b1_85eb_ca87;
const XXH_PRIME64_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const XXH_PRIME64_3: u64 = 0x1656_67b1_9e37_79f9;
const XXH_PRIME64_4: u64 = 0x85eb_ca77_c2b2_ae63;
const XXH_PRIME64_5: u64 = 0x27d4_eb2f_1656_67c5;

/// The little-endian `u64` in the first 8 bytes of `bytes`.
fn read_u64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

fn xxh64_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(XXH_PRIME64_1)
}

fn xxh64_merge(hash: u64, acc: u64) -> u64 {
    (hash ^ xxh64_round(0, acc))
        .wrapping_mul(XXH_PRIME64_1)
        .wrapping_add(XXH_PRIME64_4)
}

/// XXH64 of `bytes` under `seed` — the published algorithm (four
/// independent lanes over 8-byte words, then the 8/4/1-byte tail and the
/// avalanche), the digest of format-4 frames. Like FNV-1a it is an
/// integrity check against torn writes and bit rot, not an adversarial
/// MAC; unlike it, the lanes do not wait on each other.
pub(crate) fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let mut tail = stripes.remainder();
    let mut hash = if bytes.len() >= 32 {
        let mut acc = [
            seed.wrapping_add(XXH_PRIME64_1).wrapping_add(XXH_PRIME64_2),
            seed.wrapping_add(XXH_PRIME64_2),
            seed,
            seed.wrapping_sub(XXH_PRIME64_1),
        ];
        for stripe in stripes {
            for (lane, word) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh64_round(*lane, read_u64(word));
            }
        }
        let hash = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        acc.iter().fold(hash, |hash, &lane| xxh64_merge(hash, lane))
    } else {
        seed.wrapping_add(XXH_PRIME64_5)
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    while tail.len() >= 8 {
        hash = (hash ^ xxh64_round(0, read_u64(tail)))
            .rotate_left(27)
            .wrapping_mul(XXH_PRIME64_1)
            .wrapping_add(XXH_PRIME64_4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let word = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
        hash = (hash ^ u64::from(word).wrapping_mul(XXH_PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(XXH_PRIME64_2)
            .wrapping_add(XXH_PRIME64_3);
        tail = &tail[4..];
    }
    for &byte in tail {
        hash = (hash ^ u64::from(byte).wrapping_mul(XXH_PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(XXH_PRIME64_1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(XXH_PRIME64_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(XXH_PRIME64_3);
    hash ^ (hash >> 32)
}

/// The format version a frame's prelude declares.
pub(crate) fn prelude_version(prelude: &[u8; PRELUDE_LEN]) -> u32 {
    u32::from_le_bytes([prelude[9], prelude[10], prelude[11], prelude[12]])
}

/// The digest a frame carries after its payload, chosen by the frame's
/// own version — never the reader's, so a store whose chain mixes
/// formats verifies frame by frame. Format 4 on: XXH64 of the payload,
/// seeded with the XXH64 of the prelude. Formats 1–3: FNV-1a-64 over
/// the prelude and the payload laid end to end. Each piece is hashed
/// where it lies. The only place a digest is chosen.
pub(crate) fn frame_digest(prelude: &[u8; PRELUDE_LEN], payload: &[u8]) -> u64 {
    if prelude_version(prelude) >= XXH64_SINCE {
        xxh64(payload, xxh64(prelude, 0))
    } else {
        fnv1a64_more(fnv1a64(prelude), payload)
    }
}

/// The two pieces a frame puts around `payload` — the prelude and the
/// little-endian digest trailer. The one encoder of the layout, for
/// files ([`write_frame`]) and streams ([`crate::wire::write_wire_frame`]);
/// it always writes the current [`FORMAT_VERSION`].
pub(crate) fn seal(kind: u8, payload: &[u8]) -> ([u8; PRELUDE_LEN], [u8; 8]) {
    let mut prelude = [0u8; PRELUDE_LEN];
    prelude[..8].copy_from_slice(&MAGIC);
    prelude[8] = kind;
    prelude[9..13].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    prelude[13..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    let digest = frame_digest(&prelude, payload);
    (prelude, digest.to_le_bytes())
}

pub(crate) fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        source,
    }
}

fn corrupt(path: &Path, reason: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

/// Write `payload` as a framed file at `path`, crash-safely: the bytes
/// land in a `.tmp` sibling first and are renamed into place, so a kill
/// mid-write leaves either the old file or no file — never a torn one.
/// The payload is hashed and written where it lies, not copied into a
/// frame buffer first (a delta payload is tens of megabytes).
pub(crate) fn write_frame(path: &Path, kind: FrameKind, payload: &[u8]) -> Result<(), StoreError> {
    let (prelude, trailer) = seal(kind as u8, payload);
    write_atomic(path, &[&prelude, payload, &trailer])
}

/// Write `parts`, end to end, to `path` via a temporary sibling + rename.
pub(crate) fn write_atomic(path: &Path, parts: &[&[u8]]) -> Result<(), StoreError> {
    let tmp = match path.file_name().and_then(|n| n.to_str()) {
        Some(name) => path.with_file_name(format!("{name}.tmp")),
        None => {
            return Err(StoreError::Invalid {
                reason: format!("{} has no file name", path.display()),
            })
        }
    };
    let mut file = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    for part in parts {
        file.write_all(part).map_err(|e| io_err(&tmp, e))?;
    }
    // Closed before the rename, as `fs::write` left it.
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// Read and verify a framed file, returning its format version and
/// payload (the version tells the record decoder which layout the
/// payload uses). Every way the bytes can disappoint maps to a typed
/// error: a missing file is [`StoreError::Missing`], a future version
/// is [`StoreError::UnsupportedVersion`], and anything truncated or
/// garbled is [`StoreError::Corrupt`] naming the file and the reason.
pub(crate) fn read_frame(path: &Path, kind: FrameKind) -> Result<(u32, Vec<u8>), StoreError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(StoreError::Missing {
                path: path.display().to_string(),
            })
        }
        Err(e) => return Err(io_err(path, e)),
    };
    // The file is one frame, verified by the stream reader over its
    // bytes; the slice can only fail that reader by running out.
    let mut stream = bytes.as_slice();
    let (found_kind, version, payload) =
        read_versioned_frame(&mut stream, bytes.len()).map_err(|e| match e {
            WireError::Io(e) => corrupt(path, format!("truncated frame: {e}")),
            WireError::Corrupt(reason) => corrupt(path, reason),
            WireError::UnsupportedVersion { found, supported } => StoreError::UnsupportedVersion {
                path: path.display().to_string(),
                found,
                supported,
            },
        })?;
    if found_kind != kind as u8 {
        return Err(corrupt(
            path,
            format!(
                "payload kind {found_kind} where a {} frame was expected",
                kind.label()
            ),
        ));
    }
    if !stream.is_empty() {
        return Err(corrupt(
            path,
            format!("{} bytes after the end of the frame", stream.len()),
        ));
    }
    Ok((version, payload))
}

/// Little-endian payload writer (the encode half of the record codec,
/// shared with wire-protocol payloads — see [`crate::wire`]).
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Overwrite the `u32` written at byte offset `at` — the back-patch
    /// of a count prefix written before its items.
    pub(crate) fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `f64` as raw bits — snapshots must round-trip values bit for bit.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append an optional `f64` (presence byte + bits).
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_f64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Append an optional `u64` (presence byte + value).
    pub(crate) fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
            None => self.put_u8(0),
        }
    }
}

/// Bounds-checked payload reader; every failure is a reason string the
/// caller wraps into a `Corrupt` error with the file path (or wire
/// context) attached.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader over an encoded payload.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Every byte consumed?
    pub fn is_empty(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| {
                format!(
                    "truncated payload: wanted {n} bytes for {what} at offset {}, have {}",
                    self.pos,
                    self.bytes.len().saturating_sub(self.pos)
                )
            })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn take_array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], String> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N, what)?);
        Ok(out)
    }

    /// Read a `u32`, little endian.
    pub fn get_u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take_array(what)?))
    }

    /// Read a `u64`, little endian.
    pub fn get_u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take_array(what)?))
    }

    /// Read an `f64` from raw bits.
    pub fn get_f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Read an optional `f64` (presence byte + bits).
    pub fn get_opt_f64(&mut self, what: &str) -> Result<Option<f64>, String> {
        match self.get_u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.get_f64(what)?)),
            tag => Err(format!("bad option tag {tag} for {what}")),
        }
    }

    /// Read an optional `u64` (presence byte + value).
    pub(crate) fn get_opt_u64(&mut self, what: &str) -> Result<Option<u64>, String> {
        match self.get_u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u64(what)?)),
            tag => Err(format!("bad option tag {tag} for {what}")),
        }
    }

    /// A `u32` length prefix, sanity-bounded so a garbled length cannot
    /// drive a multi-gigabyte allocation before the truncation check.
    pub fn get_len(&mut self, what: &str, elem_size: usize) -> Result<usize, String> {
        let len = self.get_u32(what)? as usize;
        let remaining = self.bytes.len() - self.pos;
        if len.saturating_mul(elem_size.max(1)) > remaining {
            return Err(format!(
                "declared {what} length {len} cannot fit in the {remaining} remaining bytes"
            ));
        }
        Ok(len)
    }
}

/// Wrap a `ByteReader` reason into a `Corrupt` error for `path`.
pub(crate) fn corrupt_at(path: &Path, reason: String) -> StoreError {
    corrupt(path, reason)
}

/// The text of the JSON file `path` read as `bytes`; a file that is not
/// UTF-8 is corrupt at the byte where the text breaks.
pub(crate) fn json_text<'a>(
    path: &Path,
    what: &str,
    bytes: &'a [u8],
) -> Result<&'a str, StoreError> {
    std::str::from_utf8(bytes).map_err(|e| {
        corrupt(
            path,
            format!("{what} is not UTF-8 at byte {}: {e}", e.valid_up_to()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn xxh64_matches_the_published_vectors() {
        assert_eq!(xxh64(b"", 0), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a", 0), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc", 0), 0x44bc_2cf5_ad77_0999);
        // 39 bytes: one stripe, then the 4- and 1-byte tails.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition", 0),
            0xfbce_a83c_8a37_8bf1
        );
        assert_eq!(xxh64(b"xxhash", 20_141_025), 0xb559_b98d_844e_0635);
    }

    #[test]
    fn xxh64_separates_every_length_and_every_bit_flip() {
        // 0..=100 bytes: no stripe, one to three 32-byte stripes, and
        // every mix of the 8-, 4- and 1-byte tails.
        let bytes: Vec<u8> = (0..1024u32).map(|i| (i * 131 + 7) as u8).collect();
        let by_length: HashSet<u64> = (0..=100).map(|n| xxh64(&bytes[..n], 0)).collect();
        assert_eq!(by_length.len(), 101);
        let whole = xxh64(&bytes, 0);
        let mut flipped = bytes.clone();
        for bit in 0..flipped.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(xxh64(&flipped, 0), whole, "bit {bit}");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        assert_ne!(xxh64(&bytes, 1), whole, "the seed must enter the digest");
    }
}
