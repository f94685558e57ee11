//! Binary framing shared by every `.bin` snapshot file.
//!
//! A framed file is `MAGIC (8) ‖ kind (1) ‖ version (4, LE) ‖
//! payload_len (8, LE) ‖ payload ‖ digest (8, LE)`, where the digest
//! covers everything before it and is chosen by the frame's own version
//! field ([`frame_digest`]): XXH64 from format 4 on, FNV-1a-64 in the
//! format 1–3 frames older builds wrote. The frame makes the three
//! corruption modes the store must survive cheap to detect: truncation
//! (length check), garbling (digest check) and cross-wiring a file into
//! the wrong slot (kind tag). Every framed file is written by one writer
//! ([`write_frame_with`]): the prelude with the payload length a sizing
//! pass found, then the payload through one fixed-size chunk that is
//! hashed by the streaming [`Xxh64`] and written each time it fills,
//! then the digest trailer — via a `.tmp` sibling that is renamed into
//! place, or removed on any error. Payload decoding on top of the frame goes
//! through [`ByteReader`], whose every read is bounds-checked and
//! returns a reason string the caller wraps into
//! [`StoreError::Corrupt`](crate::StoreError::Corrupt).

use crate::records::{encode_record, RecordView};
use crate::wire::{read_versioned_frame, WireError};
use crate::StoreError;
use std::io::Write;
use std::path::{Path, PathBuf};

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

/// The four lanes' starting values under `seed`.
fn xxh64_lanes(seed: u64) -> [u64; 4] {
    [
        seed.wrapping_add(XXH_PRIME64_1).wrapping_add(XXH_PRIME64_2),
        seed.wrapping_add(XXH_PRIME64_2),
        seed,
        seed.wrapping_sub(XXH_PRIME64_1),
    ]
}

/// One 32-byte stripe into the four lanes.
fn xxh64_stripe(lanes: &mut [u64; 4], stripe: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
        *lane = xxh64_round(*lane, read_u64(word));
    }
}

/// The digest of `total` bytes under `seed`, whose whole stripes went
/// into `lanes` and whose last `tail` (under 32 bytes) did not: the
/// lane merge (when there was a stripe), the 8/4/1-byte tail and the
/// avalanche.
fn xxh64_finish(lanes: &[u64; 4], seed: u64, total: u64, mut tail: &[u8]) -> u64 {
    let mut hash = if total >= 32 {
        let [a, b, c, d] = *lanes;
        let hash = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes
            .iter()
            .fold(hash, |hash, &lane| xxh64_merge(hash, lane))
    } else {
        seed.wrapping_add(XXH_PRIME64_5)
    };
    hash = hash.wrapping_add(total);
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

/// XXH64 of `bytes` under `seed` — the published algorithm (four
/// independent lanes over 8-byte words, then the 8/4/1-byte tail and
/// the avalanche), the digest of format-4 frames. The stripes and the
/// finish of [`Xxh64`], over one slice: a frame's prelude and a wire
/// message are a few dozen bytes, hashed with no buffer to fill. Like
/// FNV-1a it is an integrity check against torn writes and bit rot, not
/// an adversarial MAC; unlike it, the lanes do not wait on each other.
pub(crate) fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let mut lanes = xxh64_lanes(seed);
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    for stripe in stripes {
        xxh64_stripe(&mut lanes, stripe);
    }
    xxh64_finish(&lanes, seed, bytes.len() as u64, tail)
}

/// [`xxh64`] fed in pieces: the digest of the pieces laid end to end,
/// wherever they are split.
#[derive(Debug, Clone)]
pub(crate) struct Xxh64 {
    seed: u64,
    lanes: [u64; 4],
    /// The bytes of a stripe not yet complete.
    pending: [u8; 32],
    pending_len: usize,
    total: u64,
}

impl Xxh64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            seed,
            lanes: xxh64_lanes(seed),
            pending: [0; 32],
            pending_len: 0,
            total: 0,
        }
    }

    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = bytes.len().min(32 - self.pending_len);
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 32 {
                return;
            }
            xxh64_stripe(&mut self.lanes, &self.pending);
            self.pending_len = 0;
        }
        let stripes = bytes.chunks_exact(32);
        let rest = stripes.remainder();
        let mut lanes = self.lanes;
        for stripe in stripes {
            xxh64_stripe(&mut lanes, stripe);
        }
        self.lanes = lanes;
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    pub(crate) fn finish(&self) -> u64 {
        let tail = &self.pending[..self.pending_len];
        xxh64_finish(&self.lanes, self.seed, self.total, tail)
    }
}

/// The format version a frame's prelude declares.
pub(crate) fn prelude_version(prelude: &[u8; PRELUDE_LEN]) -> u32 {
    u32::from_le_bytes([prelude[9], prelude[10], prelude[11], prelude[12]])
}

/// The prelude of a frame of `kind` around `payload_len` payload bytes,
/// stamped with the current [`FORMAT_VERSION`].
fn prelude(kind: u8, payload_len: u64) -> [u8; PRELUDE_LEN] {
    let mut prelude = [0u8; PRELUDE_LEN];
    prelude[..8].copy_from_slice(&MAGIC);
    prelude[8] = kind;
    prelude[9..13].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    prelude[13..].copy_from_slice(&payload_len.to_le_bytes());
    prelude
}

/// The digest a frame carries after its payload, chosen by the frame's
/// own version — never the reader's, so a store whose chain mixes
/// formats verifies frame by frame. Format 4 on: XXH64 of the payload,
/// seeded with the XXH64 of the prelude. Formats 1–3: FNV-1a-64 over
/// the prelude and the payload laid end to end. Each piece is hashed
/// where it lies. The only place a digest is chosen; the file writer,
/// which only writes the current format, streams the same XXH64 (an
/// [`Xxh64`] seeded with the prelude's).
pub(crate) fn frame_digest(prelude: &[u8; PRELUDE_LEN], payload: &[u8]) -> u64 {
    if prelude_version(prelude) >= XXH64_SINCE {
        xxh64(payload, xxh64(prelude, 0))
    } else {
        fnv1a64_more(fnv1a64(prelude), payload)
    }
}

// The file writer streams XXH64 without asking `frame_digest`.
const _: () = assert!(FORMAT_VERSION >= XXH64_SINCE);

/// The two pieces a frame puts around `payload` in a stream — the
/// prelude and the little-endian digest trailer — for
/// [`crate::wire::write_wire_frame`]; files go through
/// [`write_frame_with`]. It always writes the current
/// [`FORMAT_VERSION`].
pub(crate) fn seal(kind: u8, payload: &[u8]) -> ([u8; PRELUDE_LEN], [u8; 8]) {
    let prelude = prelude(kind, payload.len() as u64);
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

/// Where encoded bytes go: a [`ByteWriter`]'s growing buffer, or a
/// [`FrameWriter`]'s fixed chunk.
pub(crate) trait Put {
    /// Append `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

/// A file written at a `.tmp` sibling of its path and renamed into
/// place by [`Staged::commit`], so a kill mid-write leaves either the
/// old file or no file — never a torn one. Dropped before the commit
/// (any error on the way), it removes the `.tmp` file.
struct Staged {
    /// `None` once closed for the rename.
    file: Option<std::fs::File>,
    tmp: PathBuf,
    path: PathBuf,
    committed: bool,
}

impl Staged {
    fn create(path: &Path) -> Result<Self, StoreError> {
        let tmp = match path.file_name().and_then(|n| n.to_str()) {
            Some(name) => path.with_file_name(format!("{name}.tmp")),
            None => {
                return Err(StoreError::Invalid {
                    reason: format!("{} has no file name", path.display()),
                })
            }
        };
        // Nothing to clean up until the tmp file is ours.
        let file = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        Ok(Self {
            file: Some(file),
            tmp,
            path: path.to_path_buf(),
            committed: false,
        })
    }

    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        match &mut self.file {
            Some(file) => file.write_all(bytes),
            None => Ok(()),
        }
    }

    fn commit(mut self) -> Result<(), StoreError> {
        // Closed before the rename, as `fs::write` left it.
        drop(self.file.take());
        std::fs::rename(&self.tmp, &self.path).map_err(|e| io_err(&self.path, e))?;
        self.committed = true;
        Ok(())
    }
}

impl Drop for Staged {
    fn drop(&mut self) {
        if !self.committed {
            drop(self.file.take());
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Write `bytes` to `path` via a temporary sibling + rename.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut staged = Staged::create(path)?;
    staged.write(bytes).map_err(|e| io_err(&staged.tmp, e))?;
    staged.commit()
}

/// Bytes a [`FrameWriter`] gathers before it hashes and writes them:
/// its one buffer, whatever the size of the payload.
const CHUNK: usize = 256 * 1024;

/// The payload of one framed file on its way to disk (see
/// [`write_frame_with`]): the bytes [`put`](Put::put) into it gather in
/// one fixed chunk, which is hashed and written each time it fills.
pub(crate) struct FrameWriter {
    staged: Staged,
    chunk: Vec<u8>,
    /// Where the payload starts in `chunk`: past the prelude in the
    /// first chunk, at 0 after.
    payload_from: usize,
    hasher: Xxh64,
    /// Payload bytes put so far.
    put: u64,
    /// The first write that failed; the chunks after it are only hashed.
    failed: Option<std::io::Error>,
}

impl FrameWriter {
    /// Encode `record` into the payload. A record that writes other
    /// than its [`RecordView::encoded_len`] breaks the frame's length.
    pub(crate) fn put_record(&mut self, record: &impl RecordView) {
        encode_record(record, self);
    }

    fn flush(&mut self) {
        self.hasher.update(&self.chunk[self.payload_from..]);
        if self.failed.is_none() {
            self.failed = self.staged.write(&self.chunk).err();
        }
        self.chunk.clear();
        self.payload_from = 0;
    }

    /// The slow side of [`Put::put`]: `bytes` does not fit in the chunk.
    #[cold]
    #[inline(never)]
    fn spill(&mut self, mut bytes: &[u8]) {
        while self.chunk.len() + bytes.len() > CHUNK {
            let (head, rest) = bytes.split_at(CHUNK - self.chunk.len());
            self.chunk.extend_from_slice(head);
            self.flush();
            bytes = rest;
        }
        self.chunk.extend_from_slice(bytes);
    }
}

impl Put for FrameWriter {
    /// Inlined into the record encoder, so that an item's put is a
    /// length test and a copy.
    #[inline(always)]
    fn put(&mut self, bytes: &[u8]) {
        self.put += bytes.len() as u64;
        if self.chunk.len() + bytes.len() <= CHUNK {
            self.chunk.extend_from_slice(bytes);
        } else {
            self.spill(bytes);
        }
    }
}

/// Write a framed file of `kind` at `path` whose payload is the
/// `payload_len` bytes `fill` puts — the one writer of framed files.
/// The prelude and the payload are copied into one fixed-size chunk
/// that is hashed and written each time it fills, then the digest
/// trailer follows: no buffer grows with the payload (a delta payload
/// is tens of megabytes). Crash-safe: the bytes land in a `.tmp` sibling that is
/// renamed into place. A payload whose length is not the declared one
/// is refused with [`StoreError::Invalid`] before the rename, and every
/// error removes the `.tmp` file.
pub(crate) fn write_frame_with(
    path: &Path,
    kind: FrameKind,
    payload_len: u64,
    fill: impl FnOnce(&mut FrameWriter),
) -> Result<(), StoreError> {
    let prelude = prelude(kind as u8, payload_len);
    let mut chunk =
        Vec::with_capacity((PRELUDE_LEN as u64 + payload_len).min(CHUNK as u64) as usize);
    chunk.extend_from_slice(&prelude);
    let mut writer = FrameWriter {
        staged: Staged::create(path)?,
        chunk,
        payload_from: PRELUDE_LEN,
        hasher: Xxh64::new(xxh64(&prelude, 0)),
        put: 0,
        failed: None,
    };
    fill(&mut writer);
    writer.flush();
    let FrameWriter {
        mut staged,
        hasher,
        put,
        failed,
        ..
    } = writer;
    if let Some(e) = failed {
        return Err(io_err(&staged.tmp, e));
    }
    if put != payload_len {
        return Err(StoreError::Invalid {
            reason: format!(
                "{}: {put} payload bytes written where the frame declares {payload_len}",
                path.display()
            ),
        });
    }
    let trailer = hasher.finish().to_le_bytes();
    staged.write(&trailer).map_err(|e| io_err(&staged.tmp, e))?;
    staged.commit()
}

/// Write `payload` as a framed file at `path` (see
/// [`write_frame_with`]).
pub(crate) fn write_frame(path: &Path, kind: FrameKind, payload: &[u8]) -> Result<(), StoreError> {
    write_frame_with(path, kind, payload.len() as u64, |w| w.put(payload))
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

/// Little-endian payload writer that grows in memory: wire-protocol
/// payloads (see [`crate::wire`]) and gossip checkpoints are built in
/// one before they are framed. Node records skip it on their way to a
/// file — the record encoder writes into the file's fixed chunk.
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
}

impl Put for ByteWriter {
    fn put(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
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
    fn streamed_xxh64_is_the_one_shot_digest_wherever_it_is_split() {
        let bytes: Vec<u8> = (0..100u32).map(|i| (i * 193 + 11) as u8).collect();
        for n in 0..=100 {
            let whole = xxh64(&bytes[..n], 7);
            for cut in 0..=n {
                let mut hasher = Xxh64::new(7);
                hasher.update(&bytes[..cut]);
                hasher.update(&bytes[cut..n]);
                assert_eq!(hasher.finish(), whole, "{n} bytes split at {cut}");
            }
            for (a, b) in [(1, 33), (5, 40), (31, 64), (32, 65), (n / 3, 2 * n / 3)] {
                let (a, b) = (a.min(n), b.min(n));
                let mut hasher = Xxh64::new(7);
                for piece in [&bytes[..a], &bytes[a..b], &bytes[b..n]] {
                    hasher.update(piece);
                }
                assert_eq!(hasher.finish(), whole, "{n} bytes split at {a} and {b}");
            }
        }
    }

    #[test]
    fn a_frame_larger_than_its_chunk_is_the_sealed_frame() {
        let dir = std::env::temp_dir().join(format!("dg_codec_chunks_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.bin");
        let payload: Vec<u8> = (0..3 * CHUNK as u32 + 17)
            .map(|i| (i % 251) as u8)
            .collect();
        // Fed in uneven pieces, some larger than a chunk.
        write_frame_with(&path, FrameKind::Gossip, payload.len() as u64, |w| {
            for piece in payload.chunks(CHUNK + 4099) {
                let (a, b) = piece.split_at(piece.len() / 3);
                w.put(a);
                w.put(b);
            }
        })
        .unwrap();
        let (prelude, trailer) = seal(FrameKind::Gossip as u8, &payload);
        let framed = [&prelude[..], &payload, &trailer].concat();
        assert_eq!(std::fs::read(&path).unwrap(), framed);
        assert_eq!(read_frame(&path, FrameKind::Gossip).unwrap().1, payload);
        std::fs::remove_dir_all(&dir).unwrap();
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
