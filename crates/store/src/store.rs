//! The checkpoint directory: epoch + delta layout, atomic commit via
//! `HEAD.json`, parallel shard i/o and chain-validated loading. Shards
//! and deltas are written from [`RecordView`]s: a sizing pass, then each
//! record encoded straight into the frame writer's fixed chunk — no
//! record list and no payload buffer on the write path.

use crate::codec::{corrupt_at, io_err, json_text, read_frame, write_atomic, write_frame_with};
use crate::codec::{ByteReader, Put};
use crate::codec::{FrameKind, FORMAT_VERSION};
use crate::records::{decode_records, NodeRecord, RecordView, SnapshotHeader};
use crate::StoreError;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// The commit point of a checkpoint directory: which epoch is current
/// and which delta checkpoints extend it, in order. Written last (tmp +
/// rename), so a crash mid-checkpoint leaves the previous commit
/// intact and the half-written files unreachable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Head {
    /// Format version of the commit record itself — the writing build's,
    /// restamped by every commit (a chain may hold older frames below).
    pub format_version: u32,
    /// Round of the current full epoch (`epoch-<round>/`).
    pub base_round: u64,
    /// Rounds of the delta checkpoints applied on top, ascending.
    #[serde(default)]
    pub delta_rounds: Vec<u64>,
}

impl Head {
    /// The round of the most recent committed checkpoint.
    pub fn latest_round(&self) -> u64 {
        self.delta_rounds.last().copied().unwrap_or(self.base_round)
    }
}

/// Read the JSON document at `path` (`None` if there is no such file),
/// refusing one stamped — per `version` — by a newer format.
fn read_json<T: Deserialize>(
    path: &Path,
    what: &str,
    version: impl Fn(&T) -> u32,
) -> Result<Option<T>, StoreError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(StoreError::Io {
                path: path.display().to_string(),
                source: e,
            })
        }
    };
    let text = json_text(path, what, &bytes)?;
    let value: T = serde_json::from_str(text)
        .map_err(|e| corrupt_at(path, format!("undecodable {what}: {e}")))?;
    let found = version(&value);
    if found > FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            path: path.display().to_string(),
            found,
            supported: FORMAT_VERSION,
        });
    }
    Ok(Some(value))
}

fn not_dense() -> StoreError {
    StoreError::Invalid {
        reason: "records must be dense and sorted (record i is node i)".into(),
    }
}

/// Write `records` as one framed file: `head`, a `u32` count, then each
/// record. A sizing pass first — which refuses the records with
/// `misfit` as soon as `fits` rejects a node id, before any file is
/// created — then one encoding pass, each record straight into the
/// frame writer's chunk: no record list and no payload buffer is built.
fn write_records<V: RecordView>(
    path: &Path,
    kind: FrameKind,
    head: &[u8],
    records: impl Iterator<Item = V> + Clone,
    mut fits: impl FnMut(u32) -> bool,
    misfit: impl FnOnce() -> StoreError,
) -> Result<(), StoreError> {
    let (mut count, mut len) = (0u32, (head.len() + 4) as u64);
    for record in records.clone() {
        if !fits(record.node()) {
            return Err(misfit());
        }
        count += 1;
        len += record.encoded_len() as u64;
    }
    write_frame_with(path, kind, len, |w| {
        w.put(head);
        w.put(&count.to_le_bytes());
        for record in records {
            w.put_record(&record);
        }
    })
}

/// Write `value` as pretty JSON at `path`, atomically.
fn write_json<T: Serialize>(path: &Path, what: &str, value: &T) -> Result<(), StoreError> {
    let json = serde_json::to_string_pretty(value).map_err(|e| StoreError::Invalid {
        reason: format!("{what} serialization failed: {e}"),
    })?;
    write_atomic(path, json.as_bytes())
}

/// A fully resolved checkpoint: the latest header and one record per
/// node (base epoch with every committed delta applied).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Header of the latest checkpoint in the chain.
    pub header: SnapshotHeader,
    /// One record per node, in node order.
    pub records: Vec<NodeRecord>,
}

/// A checkpoint directory.
///
/// ```no_run
/// use dg_store::{SnapshotHeader, Store, FORMAT_VERSION};
/// let store = Store::open("/tmp/run-checkpoints");
/// let header = SnapshotHeader {
///     format_version: FORMAT_VERSION,
///     round: 0,
///     nodes: 0,
///     shard_ranges: vec![(0, 0)],
///     base_round: None,
///     engine: String::new(),
///     config_json: String::new(),
///     stats_json: String::new(),
///     notes: String::new(),
/// };
/// store.write_epoch(&header, &[]).unwrap();
/// let snapshot = store.load_latest().unwrap();
/// assert_eq!(snapshot.records.len(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Wrap a checkpoint directory (created lazily on first write).
    pub fn open(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// The directory this store reads and writes.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn head_path(&self) -> PathBuf {
        self.root.join("HEAD.json")
    }

    /// The directory of the full epoch checkpointed at `round`.
    pub fn epoch_dir(&self, round: u64) -> PathBuf {
        self.root.join(format!("epoch-{round}"))
    }

    fn delta_bin_path(&self, round: u64) -> PathBuf {
        self.root.join(format!("delta-{round}.bin"))
    }

    fn delta_header_path(&self, round: u64) -> PathBuf {
        self.root.join(format!("delta-{round}.json"))
    }

    /// The committed head, or `None` if the directory holds no
    /// checkpoint yet.
    pub fn head(&self) -> Result<Option<Head>, StoreError> {
        read_json(&self.head_path(), "HEAD.json", |head: &Head| {
            head.format_version
        })
    }

    fn validate_records(header: &SnapshotHeader, records: &[NodeRecord]) -> Result<(), StoreError> {
        if records.len() as u64 != header.nodes {
            return Err(StoreError::Invalid {
                reason: format!(
                    "header promises {} nodes but {} records were supplied",
                    header.nodes,
                    records.len()
                ),
            });
        }
        if records
            .iter()
            .enumerate()
            .any(|(i, r)| r.node as usize != i)
        {
            return Err(not_dense());
        }
        Ok(())
    }

    fn validate_shards(header: &SnapshotHeader) -> Result<(), StoreError> {
        let mut expected_start = 0u64;
        for &(start, end) in &header.shard_ranges {
            if start != expected_start || end < start {
                return Err(StoreError::Invalid {
                    reason: format!(
                        "shard ranges must be contiguous from 0 (found [{start}, {end}) where \
                         {expected_start} should start)"
                    ),
                });
            }
            expected_start = end;
        }
        if expected_start != header.nodes || header.shard_ranges.is_empty() {
            return Err(StoreError::Invalid {
                reason: format!(
                    "shard ranges cover 0..{expected_start}, header promises 0..{}",
                    header.nodes
                ),
            });
        }
        Ok(())
    }

    fn read_header(&self, path: &Path) -> Result<SnapshotHeader, StoreError> {
        read_json(path, "header", |header: &SnapshotHeader| {
            header.format_version
        })?
        .ok_or_else(|| StoreError::Missing {
            path: path.display().to_string(),
        })
    }

    /// Write a full epoch checkpoint of `records` (record `i` is node
    /// `i`): one framed file per shard range (written in parallel), the
    /// header, then the `HEAD.json` commit. Resets the delta chain —
    /// subsequent deltas extend this epoch. Nothing is written unless
    /// the records match the header.
    pub fn write_epoch(
        &self,
        header: &SnapshotHeader,
        records: &[NodeRecord],
    ) -> Result<(), StoreError> {
        Self::validate_records(header, records)?;
        self.write_epoch_with(header, |node| &records[node as usize])
    }

    /// [`write_epoch`](Self::write_epoch) from each node's
    /// [`RecordView`]: `record(i)` is node `i`'s, called twice per node
    /// in node order within each shard (shards run in parallel) — once
    /// to size the shard, once to encode it — so no list of records is
    /// ever held. Being called twice, it should be cheap: a view of
    /// state where it lies, not a record built per call. The files are
    /// byte-identical to `write_epoch` of the same records; a record
    /// that names another node fails with [`StoreError::Invalid`] before
    /// that shard's file is created, and `HEAD.json` does not move.
    pub fn write_epoch_with<V: RecordView>(
        &self,
        header: &SnapshotHeader,
        record: impl Fn(u32) -> V + Sync,
    ) -> Result<(), StoreError> {
        Self::validate_shards(header)?;
        let dir = self.epoch_dir(header.round);
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::Io {
            path: dir.display().to_string(),
            source: e,
        })?;
        let indexed: Vec<(usize, (u64, u64))> =
            header.shard_ranges.iter().copied().enumerate().collect();
        let written: Vec<Result<(), StoreError>> = indexed
            .into_par_iter()
            .map(|(i, (start, end))| {
                let mut next = start as u32;
                write_records(
                    &dir.join(format!("shard-{i}.bin")),
                    FrameKind::Shard,
                    &[],
                    (start as u32..end as u32).map(&record),
                    |node| {
                        let dense = node == next;
                        next += 1;
                        dense
                    },
                    not_dense,
                )
            })
            .collect();
        for result in written {
            result?;
        }
        write_json(&dir.join("header.json"), "header", header)?;
        let head = Head {
            format_version: FORMAT_VERSION,
            base_round: header.round,
            delta_rounds: Vec::new(),
        };
        write_json(&self.head_path(), "HEAD", &head)
    }

    /// Write a delta checkpoint holding only `changed` records, on top
    /// of the currently committed chain. The records may be owned,
    /// borrowed (a slice, [`changed`](crate::changed) itself) or any
    /// other [`RecordView`], from an iterator that can be walked twice —
    /// once to size the file, once to encode it — so no list of them is
    /// ever held. Being walked twice, it should be cheap: an iterator
    /// that builds a record per item builds each one twice.
    /// `header.base_round` must name the committed latest round; the
    /// commit appends `header.round` to the chain.
    pub fn write_delta<I>(&self, header: &SnapshotHeader, changed: I) -> Result<(), StoreError>
    where
        I: IntoIterator,
        I::Item: RecordView,
        I::IntoIter: Clone,
    {
        let mut head = self.head()?.ok_or_else(|| StoreError::NoSnapshot {
            dir: self.root.display().to_string(),
        })?;
        let latest = head.latest_round();
        if header.base_round != Some(latest) {
            return Err(StoreError::Invalid {
                reason: format!(
                    "delta base round {:?} does not extend the committed latest round {latest}",
                    header.base_round
                ),
            });
        }
        if header.round <= latest {
            return Err(StoreError::Invalid {
                reason: format!(
                    "delta round {} must advance past the committed latest round {latest}",
                    header.round
                ),
            });
        }
        let mut rounds = [0u8; 16];
        rounds[..8].copy_from_slice(&latest.to_le_bytes());
        rounds[8..].copy_from_slice(&header.round.to_le_bytes());
        write_records(
            &self.delta_bin_path(header.round),
            FrameKind::Delta,
            &rounds,
            changed.into_iter(),
            |node| u64::from(node) < header.nodes,
            || StoreError::Invalid {
                reason: "changed record names a node outside the snapshot".into(),
            },
        )?;
        write_json(&self.delta_header_path(header.round), "header", header)?;
        // The commit is this build's, whatever format the chain began
        // in: an older build then refuses the store at its `HEAD.json`.
        head.format_version = FORMAT_VERSION;
        head.delta_rounds.push(header.round);
        write_json(&self.head_path(), "HEAD", &head)
    }

    /// Load the latest committed checkpoint: the base epoch's shards
    /// (read in parallel) with every committed delta applied in order,
    /// under the chain's final header. Any missing, truncated or
    /// garbled file along the way surfaces as a typed error.
    pub fn load_latest(&self) -> Result<Snapshot, StoreError> {
        let head = self.head()?.ok_or_else(|| StoreError::NoSnapshot {
            dir: self.root.display().to_string(),
        })?;
        let dir = self.epoch_dir(head.base_round);
        let base_header = self.read_header(&dir.join("header.json"))?;
        if base_header.round != head.base_round {
            return Err(StoreError::BrokenChain {
                dir: self.root.display().to_string(),
                reason: format!(
                    "epoch header says round {} where HEAD committed round {}",
                    base_header.round, head.base_round
                ),
            });
        }
        let indexed: Vec<(usize, (u64, u64))> = base_header
            .shard_ranges
            .iter()
            .copied()
            .enumerate()
            .collect();
        let shards: Vec<Result<Vec<NodeRecord>, StoreError>> = indexed
            .into_par_iter()
            .map(|(i, (start, end))| {
                let path = dir.join(format!("shard-{i}.bin"));
                let (version, payload) = read_frame(&path, FrameKind::Shard)?;
                let mut r = ByteReader::new(&payload);
                let records = decode_records(&mut r, version).map_err(|e| corrupt_at(&path, e))?;
                // `start` and `end` come from header.json: subtract checked.
                if end.checked_sub(start) != Some(records.len() as u64)
                    || records
                        .iter()
                        .enumerate()
                        .any(|(k, rec)| u64::from(rec.node) != start + k as u64)
                    || !r.is_empty()
                {
                    return Err(corrupt_at(
                        &path,
                        format!("shard does not hold exactly nodes {start}..{end}"),
                    ));
                }
                Ok(records)
            })
            .collect();
        // Sized from what the shards hold, not from what the header claims.
        let shards = shards.into_iter().collect::<Result<Vec<_>, _>>()?;
        let mut records: Vec<NodeRecord> = Vec::with_capacity(shards.iter().map(Vec::len).sum());
        for shard in shards {
            records.extend(shard);
        }
        if records.len() as u64 != base_header.nodes {
            return Err(StoreError::BrokenChain {
                dir: self.root.display().to_string(),
                reason: format!(
                    "shards reassemble to {} nodes, header promises {}",
                    records.len(),
                    base_header.nodes
                ),
            });
        }

        let mut header = base_header;
        let mut latest = head.base_round;
        for &delta_round in &head.delta_rounds {
            let path = self.delta_bin_path(delta_round);
            let (version, payload) = read_frame(&path, FrameKind::Delta)?;
            let mut r = ByteReader::new(&payload);
            let base = r
                .get_u64("delta base round")
                .map_err(|e| corrupt_at(&path, e))?;
            let round = r.get_u64("delta round").map_err(|e| corrupt_at(&path, e))?;
            if base != latest || round != delta_round {
                return Err(StoreError::BrokenChain {
                    dir: self.root.display().to_string(),
                    reason: format!(
                        "delta-{delta_round} claims {base} -> {round}, chain is at {latest}"
                    ),
                });
            }
            let changed = decode_records(&mut r, version).map_err(|e| corrupt_at(&path, e))?;
            if !r.is_empty() {
                return Err(corrupt_at(&path, "trailing bytes after records".into()));
            }
            for record in changed {
                let slot = record.node as usize;
                if slot >= records.len() {
                    return Err(corrupt_at(
                        &path,
                        format!(
                            "delta names node {} outside 0..{}",
                            record.node,
                            records.len()
                        ),
                    ));
                }
                records[slot] = record;
            }
            header = self.read_header(&self.delta_header_path(delta_round))?;
            latest = delta_round;
        }
        Ok(Snapshot { header, records })
    }

    /// Drop trailing delta checkpoints, so that a resume from what is
    /// left rewrites them. `HEAD.json` is committed first, keeping its
    /// `format_version`; only then are the dropped `delta-<r>.{bin,json}`
    /// removed, so a crash in between leaves orphan files, never a chain
    /// that names a missing delta. Returns `(round, span)` per dropped
    /// delta, ascending, where span is its header's `round − base_round`
    /// (the checkpoint interval that rewrites it); every dropped delta's
    /// header must read. A dropped `.bin` already gone is not an error.
    pub fn cut(&self, to: Cut) -> Result<Vec<(u64, u64)>, StoreError> {
        let dir = || self.root.display().to_string();
        let mut head = self
            .head()?
            .ok_or_else(|| StoreError::NoSnapshot { dir: dir() })?;
        let keep = match to {
            Cut::LastDelta => head.delta_rounds.len().saturating_sub(1),
            Cut::ToEpoch => 0,
        };
        let dropped = head.delta_rounds.split_off(keep);
        if dropped.is_empty() {
            return Err(StoreError::NoDelta { dir: dir() });
        }
        let mut spans = Vec::new();
        for &round in &dropped {
            let path = self.delta_header_path(round);
            let header = self.read_header(&path)?;
            let span = header
                .base_round
                .and_then(|base| header.round.checked_sub(base));
            let span = span.ok_or_else(|| corrupt_at(&path, "no base round below it".into()))?;
            spans.push((round, span));
        }
        write_json(&self.head_path(), "HEAD", &head)?;
        for round in dropped {
            for path in [self.delta_bin_path(round), self.delta_header_path(round)] {
                match std::fs::remove_file(&path) {
                    Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                        return Err(io_err(&path, e))
                    }
                    _ => {}
                }
            }
        }
        Ok(spans)
    }
}

/// How far [`Store::cut`] goes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cut {
    /// Drop the last delta.
    LastDelta,
    /// Drop every delta, back to the epoch.
    ToEpoch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::EstimatorRecord;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dg_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(node: u32, salt: f64) -> NodeRecord {
        NodeRecord {
            node,
            estimators: vec![EstimatorRecord {
                peer: node ^ 1,
                rate: 0.3,
                value: salt,
                count: u64::from(node) + 1,
            }],
            run: vec![(node ^ 1, salt / 8.0)],
            mean: Some(salt / 16.0),
            audit_log: vec![crate::AuditEntryRecord {
                subject: node ^ 1,
                round: 1,
                reported: salt / 8.0,
                implied: Some(salt / 8.0),
            }],
            strikes: node % 3,
            convicted_at: (node % 4 == 3).then_some(1),
        }
    }

    fn header(round: u64, nodes: u64, ranges: Vec<(u64, u64)>) -> SnapshotHeader {
        SnapshotHeader {
            format_version: FORMAT_VERSION,
            round,
            nodes,
            shard_ranges: ranges,
            base_round: None,
            engine: "sequential".into(),
            config_json: String::new(),
            stats_json: String::new(),
            notes: String::new(),
        }
    }

    fn records(n: u32, salt: f64) -> Vec<NodeRecord> {
        (0..n).map(|i| record(i, salt + f64::from(i))).collect()
    }

    #[test]
    fn epoch_roundtrip_across_shards_is_bit_exact() {
        let root = temp_root("epoch");
        let store = Store::open(&root);
        let recs = records(10, 0.125);
        store
            .write_epoch(&header(3, 10, vec![(0, 4), (4, 8), (8, 10)]), &recs)
            .unwrap();
        let snap = store.load_latest().unwrap();
        assert_eq!(snap.header.round, 3);
        assert_eq!(snap.records.len(), 10);
        for (a, b) in recs.iter().zip(&snap.records) {
            assert!(a.bits_eq(b));
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn deltas_apply_in_order_on_top_of_the_epoch() {
        let root = temp_root("delta");
        let store = Store::open(&root);
        let base = records(6, 0.5);
        store
            .write_epoch(&header(2, 6, vec![(0, 3), (3, 6)]), &base)
            .unwrap();

        let mut h = header(4, 6, vec![(0, 3), (3, 6)]);
        h.base_round = Some(2);
        store.write_delta(&h, &[record(1, 9.0)]).unwrap();

        let mut h = header(6, 6, vec![(0, 3), (3, 6)]);
        h.base_round = Some(4);
        store
            .write_delta(&h, &[record(1, 11.0), record(5, 12.0)])
            .unwrap();

        let snap = store.load_latest().unwrap();
        assert_eq!(snap.header.round, 6);
        assert!(snap.records[0].bits_eq(&base[0]));
        assert!(snap.records[1].bits_eq(&record(1, 11.0)));
        assert!(snap.records[5].bits_eq(&record(5, 12.0)));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn owned_and_borrowed_records_write_the_same_delta_bytes() {
        let changed = [record(1, 9.0), record(4, -0.0), record(5, 12.5)];
        let mut h = header(4, 6, vec![(0, 3), (3, 6)]);
        h.base_round = Some(2);
        let write = |tag: &str, owned: bool| {
            let root = temp_root(tag);
            let store = Store::open(&root);
            store
                .write_epoch(&header(2, 6, vec![(0, 3), (3, 6)]), &records(6, 0.5))
                .unwrap();
            if owned {
                // Owned records made one at a time, as a session
                // streams them out of live state.
                store.write_delta(&h, changed.iter().cloned()).unwrap();
            } else {
                store.write_delta(&h, &changed[..]).unwrap();
            }
            let bytes = std::fs::read(store.delta_bin_path(4)).unwrap();
            let loaded = store.load_latest().unwrap();
            std::fs::remove_dir_all(&root).unwrap();
            (bytes, loaded)
        };
        let (owned, from_owned) = write("delta_owned", true);
        let (borrowed, from_borrowed) = write("delta_borrowed", false);
        assert_eq!(owned, borrowed, "delta files differ");
        assert_eq!(from_owned, from_borrowed);
        assert!(from_owned.records[4].bits_eq(&record(4, -0.0)));
    }

    #[test]
    fn a_record_longer_than_a_chunk_streams_between_short_ones() {
        let root = temp_root("long_record");
        let store = Store::open(&root);
        store
            .write_epoch(&header(2, 6, vec![(0, 6)]), &records(6, 0.5))
            .unwrap();
        let mut long = record(2, 7.0);
        long.run = (0..30_000).map(|s| (s, f64::from(s) / 8.0)).collect();
        assert!(long.encoded_len() > 256 * 1024);
        let changed = [record(1, 9.0), long, record(4, 9.5)];
        let mut h = header(3, 6, vec![(0, 6)]);
        h.base_round = Some(2);
        store.write_delta(&h, &changed).unwrap();
        let loaded = store.load_latest().unwrap().records;
        for record in &changed {
            assert!(loaded[record.node as usize].bits_eq(record));
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_streamed_epoch_writes_the_bytes_of_the_slice_form() {
        let h = header(3, 10, vec![(0, 4), (4, 8), (8, 10)]);
        let recs = records(10, 0.125);
        let (sliced, streamed) = (temp_root("epoch_slice"), temp_root("epoch_stream"));
        Store::open(&sliced).write_epoch(&h, &recs).unwrap();
        // Owned records built one at a time, as a session streams them
        // out of live state.
        Store::open(&streamed)
            .write_epoch_with(&h, |node| record(node, 0.125 + f64::from(node)))
            .unwrap();
        // One format on both sides: `same` is byte equality of every
        // file — the three shards, `header.json` and `HEAD.json`.
        let versions = crate::same(&sliced, &streamed).unwrap();
        assert_eq!(versions, Some((FORMAT_VERSION, FORMAT_VERSION)));
        let epoch = Store::open(&streamed).epoch_dir(3);
        assert!((0..3).all(|i| epoch.join(format!("shard-{i}.bin")).is_file()));

        // A record that names the wrong node is refused, and the
        // commit does not move.
        let err = Store::open(&streamed)
            .write_epoch_with(&header(4, 10, vec![(0, 10)]), |node| {
                record(node.min(8), 0.5)
            })
            .unwrap_err();
        assert!(matches!(err, StoreError::Invalid { .. }), "{err}");
        let head = Store::open(&streamed).head().unwrap().unwrap();
        assert_eq!(head.latest_round(), 3);
        for root in [sliced, streamed] {
            std::fs::remove_dir_all(root).unwrap();
        }
    }

    #[test]
    fn a_json_file_that_is_not_utf8_is_corrupt_at_its_byte() {
        let root = temp_root("not_utf8");
        let store = Store::open(&root);
        store
            .write_epoch(&header(1, 2, vec![(0, 2)]), &records(2, 0.5))
            .unwrap();
        for path in [store.epoch_dir(1).join("header.json"), store.head_path()] {
            let pristine = std::fs::read(&path).unwrap();
            let mut garbled = pristine.clone();
            let at = garbled.len() / 2;
            garbled[at] = 0xFF;
            std::fs::write(&path, &garbled).unwrap();
            match store.load_latest().unwrap_err() {
                StoreError::Corrupt {
                    path: named,
                    reason,
                } => {
                    assert_eq!(named, path.display().to_string());
                    assert!(
                        reason.contains(&format!("is not UTF-8 at byte {at}")),
                        "{reason}"
                    );
                }
                other => panic!("expected Corrupt, got {other}"),
            }
            std::fs::write(&path, &pristine).unwrap();
        }
        store.load_latest().unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn delta_against_a_stale_base_is_rejected() {
        let root = temp_root("stale");
        let store = Store::open(&root);
        store
            .write_epoch(&header(2, 3, vec![(0, 3)]), &records(3, 0.5))
            .unwrap();
        let mut h = header(5, 3, vec![(0, 3)]);
        h.base_round = Some(4); // nothing at round 4 is committed
        let err = store.write_delta(&h, &[] as &[NodeRecord]).unwrap_err();
        assert!(matches!(err, StoreError::Invalid { .. }), "{err}");
        // So is a record outside the snapshot, before anything is written.
        h.base_round = Some(2);
        let err = store
            .write_delta(&h, &[record(1, 9.0), record(3, 9.0)])
            .unwrap_err();
        assert!(matches!(err, StoreError::Invalid { .. }), "{err}");
        assert!(!store.delta_bin_path(5).exists());
        assert_eq!(store.head().unwrap().unwrap().latest_round(), 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A record that declares one byte more (or less) than it encodes.
    #[derive(Clone)]
    struct Lying(NodeRecord, bool);

    impl RecordView for Lying {
        fn node(&self) -> u32 {
            self.0.node
        }
        fn estimators(&self) -> impl ExactSizeIterator<Item = EstimatorRecord> {
            self.0.estimators()
        }
        fn run(&self) -> impl ExactSizeIterator<Item = (u32, f64)> {
            self.0.run()
        }
        fn mean(&self) -> Option<f64> {
            self.0.mean
        }
        fn audit_log(&self) -> impl ExactSizeIterator<Item = crate::AuditEntryRecord> {
            self.0.audit_log()
        }
        fn strikes(&self) -> u32 {
            self.0.strikes
        }
        fn convicted_at(&self) -> Option<u64> {
            self.0.convicted_at
        }
        fn encoded_len(&self) -> usize {
            let len = self.0.encoded_len();
            if self.1 {
                len + 1
            } else {
                len - 1
            }
        }
    }

    /// Every `.tmp` file under `root`, one directory deep.
    fn tmp_files(root: &Path) -> Vec<PathBuf> {
        let mut found = Vec::new();
        for entry in std::fs::read_dir(root).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                for inner in std::fs::read_dir(&path).unwrap() {
                    found.push(inner.unwrap().path());
                }
            }
            found.push(path);
        }
        found.retain(|p| p.extension().is_some_and(|e| e == "tmp"));
        found
    }

    #[test]
    fn a_failed_frame_write_leaves_no_tmp_file_and_no_commit() {
        let root = temp_root("lying");
        let store = Store::open(&root);
        let ranges = vec![(0, 3)];
        store
            .write_epoch(&header(2, 3, ranges.clone()), &records(3, 0.5))
            .unwrap();
        let committed = store.head().unwrap().unwrap();
        let mut h = header(4, 3, ranges.clone());
        h.base_round = Some(2);
        for over in [true, false] {
            let err = store
                .write_delta(&h, [Lying(record(1, 9.0), over)])
                .unwrap_err();
            assert!(matches!(err, StoreError::Invalid { .. }), "{err}");
            let err = store
                .write_epoch_with(&header(5, 3, ranges.clone()), |node| {
                    Lying(record(node, 0.5), over)
                })
                .unwrap_err();
            assert!(matches!(err, StoreError::Invalid { .. }), "{err}");
            assert!(!store.delta_bin_path(4).exists());
            assert!(!store.epoch_dir(5).join("shard-0.bin").exists());
        }
        // A rename that fails: a non-empty directory where the delta goes.
        std::fs::create_dir_all(store.delta_bin_path(4).join("occupied")).unwrap();
        let err = store.write_delta(&h, [record(1, 9.0)]).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        assert_eq!(tmp_files(&root), Vec::<PathBuf>::new());
        assert_eq!(store.head().unwrap().unwrap(), committed);
        assert_eq!(store.load_latest().unwrap().records, records(3, 0.5));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_head_is_no_snapshot() {
        let root = temp_root("nohead");
        let store = Store::open(&root);
        assert!(matches!(
            store.load_latest().unwrap_err(),
            StoreError::NoSnapshot { .. }
        ));
    }

    #[test]
    fn missing_shard_file_is_typed_not_a_panic() {
        let root = temp_root("missing");
        let store = Store::open(&root);
        store
            .write_epoch(&header(1, 4, vec![(0, 2), (2, 4)]), &records(4, 0.5))
            .unwrap();
        std::fs::remove_file(store.epoch_dir(1).join("shard-1.bin")).unwrap();
        assert!(matches!(
            store.load_latest().unwrap_err(),
            StoreError::Missing { .. }
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncating_each_shard_at_every_eighth_is_a_typed_error() {
        // The ISSUE's corruption drill: cut every shard file at each
        // 1/8 of its length — every cut must surface as a typed
        // StoreError (Corrupt or Missing-from-frame), never a panic and
        // never a silently wrong load.
        let root = temp_root("truncate");
        let store = Store::open(&root);
        store
            .write_epoch(&header(2, 8, vec![(0, 3), (3, 8)]), &records(8, 0.25))
            .unwrap();
        for shard in 0..2 {
            let path = store.epoch_dir(2).join(format!("shard-{shard}.bin"));
            let pristine = std::fs::read(&path).unwrap();
            for eighth in 0..8u32 {
                let cut = (pristine.len() as u64 * u64::from(eighth) / 8) as usize;
                std::fs::write(&path, &pristine[..cut]).unwrap();
                let err = store.load_latest().unwrap_err();
                assert!(
                    matches!(err, StoreError::Corrupt { .. }),
                    "shard {shard} cut at {cut}/{}: {err}",
                    pristine.len()
                );
            }
            std::fs::write(&path, &pristine).unwrap();
            store.load_latest().unwrap();
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn flipping_any_byte_fails_the_checksum() {
        let root = temp_root("garble");
        let store = Store::open(&root);
        store
            .write_epoch(&header(1, 4, vec![(0, 4)]), &records(4, 0.75))
            .unwrap();
        let path = store.epoch_dir(1).join("shard-0.bin");
        let pristine = std::fs::read(&path).unwrap();
        // Flip a byte in the middle of the payload region.
        let mut garbled = pristine.clone();
        let mid = garbled.len() / 2;
        garbled[mid] ^= 0x40;
        std::fs::write(&path, &garbled).unwrap();
        let err = store.load_latest().unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Corrupt { .. } | StoreError::UnsupportedVersion { .. }
            ),
            "{err}"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A header or head nested past the JSON parser's depth limit is
    /// `Corrupt`, not a stack overflow.
    #[test]
    fn a_deeply_nested_json_file_is_corrupt() {
        let root = temp_root("nested");
        let store = Store::open(&root);
        store
            .write_epoch(&header(1, 2, vec![(0, 2)]), &records(2, 0.5))
            .unwrap();
        for path in [store.epoch_dir(1).join("header.json"), store.head_path()] {
            let pristine = std::fs::read(&path).unwrap();
            std::fs::write(&path, "[".repeat(100_000)).unwrap();
            match store.load_latest().unwrap_err() {
                StoreError::Corrupt {
                    path: named,
                    reason,
                } => {
                    assert_eq!(named, path.display().to_string());
                    assert!(reason.contains("nesting deeper than"), "{reason}");
                }
                other => panic!("expected Corrupt, got {other}"),
            }
            std::fs::write(&path, &pristine).unwrap();
        }
        store.load_latest().unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn future_format_version_is_rejected_with_the_typed_error() {
        let root = temp_root("future");
        let store = Store::open(&root);
        store
            .write_epoch(&header(1, 2, vec![(0, 2)]), &records(2, 0.5))
            .unwrap();
        let path = store.epoch_dir(1).join("header.json");
        let mut h: SnapshotHeader =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        h.format_version = FORMAT_VERSION + 1;
        std::fs::write(&path, serde_json::to_string(&h).unwrap()).unwrap();
        assert!(matches!(
            store.load_latest().unwrap_err(),
            StoreError::UnsupportedVersion { found, .. } if found == FORMAT_VERSION + 1
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn mismatched_inputs_are_invalid() {
        let store = Store::open(temp_root("invalid"));
        // Wrong record count.
        let err = store
            .write_epoch(&header(0, 5, vec![(0, 5)]), &records(3, 0.5))
            .unwrap_err();
        assert!(matches!(err, StoreError::Invalid { .. }));
        // Non-covering shard ranges.
        let err = store
            .write_epoch(&header(0, 3, vec![(0, 2)]), &records(3, 0.5))
            .unwrap_err();
        assert!(matches!(err, StoreError::Invalid { .. }));
    }

    #[test]
    fn cut_commits_the_shorter_chain_then_removes_its_deltas() {
        let root = temp_root("cut");
        let store = Store::open(&root);
        let base = records(6, 0.5);
        store
            .write_epoch(&header(2, 6, vec![(0, 3), (3, 6)]), &base)
            .unwrap();
        for (round, base_round) in [(4, 2), (5, 4), (8, 5)] {
            let mut h = header(round, 6, vec![(0, 3), (3, 6)]);
            h.base_round = Some(base_round);
            store.write_delta(&h, &[record(1, round as f64)]).unwrap();
        }
        // A chain an older build committed keeps its format.
        let mut head = store.head().unwrap().unwrap();
        head.format_version = 3;
        write_json(&store.head_path(), "HEAD", &head).unwrap();

        // A delta header that cannot be read stops the cut before the
        // commit.
        let header_8 = std::fs::read(store.delta_header_path(8)).unwrap();
        std::fs::remove_file(store.delta_header_path(8)).unwrap();
        let err = store.cut(Cut::LastDelta).unwrap_err();
        assert!(matches!(err, StoreError::Missing { .. }), "{err}");
        assert_eq!(store.head().unwrap().unwrap(), head);
        std::fs::write(store.delta_header_path(8), header_8).unwrap();

        assert_eq!(store.cut(Cut::LastDelta).unwrap(), vec![(8, 3)]);
        let cut = store.head().unwrap().unwrap();
        assert_eq!((cut.format_version, cut.delta_rounds), (3, vec![4, 5]));
        assert!(!store.delta_bin_path(8).exists());
        assert!(!store.delta_header_path(8).exists());
        assert_eq!(store.load_latest().unwrap().header.round, 5);

        // A delta file already gone does not stop the cut.
        std::fs::remove_file(store.delta_bin_path(4)).unwrap();
        assert_eq!(store.cut(Cut::ToEpoch).unwrap(), vec![(4, 2), (5, 1)]);
        assert_eq!(store.load_latest().unwrap().records, base);
        assert!(!store.delta_header_path(4).exists());
        assert!(!store.delta_bin_path(5).exists());
        for to in [Cut::LastDelta, Cut::ToEpoch] {
            let err = store.cut(to).unwrap_err();
            assert!(matches!(err, StoreError::NoDelta { .. }), "{err}");
        }
        std::fs::remove_dir_all(&root).unwrap();
        let err = store.cut(Cut::ToEpoch).unwrap_err();
        assert!(matches!(err, StoreError::NoSnapshot { .. }), "{err}");
    }
}
