//! The snapshot data model: versioned JSON headers and binary node
//! records.
//!
//! Headers are JSON because they evolve (new fields ride in under
//! `#[serde(default)]` and old readers ignore what they don't know);
//! node records are a fixed little-endian binary layout because they
//! are bulk data whose `f64`s must round-trip bit for bit.

use crate::codec::{ByteReader, Put};
use serde::{Deserialize, Serialize};

/// The JSON header written next to every checkpoint (full epoch or
/// delta).
///
/// Evolution policy: `format_version` gates breaking layout changes;
/// anything additive lands as a new `#[serde(default)]` field so every
/// header this crate ever wrote keeps deserializing (the compat tests
/// in this module pin that).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotHeader {
    /// Snapshot format version (see [`crate::FORMAT_VERSION`]).
    pub format_version: u32,
    /// Round the checkpointed state is *about to run* (0 = pristine).
    pub round: u64,
    /// Node count — every shard range and record list must add up to it.
    pub nodes: u64,
    /// Per-shard `[start, end)` node ranges, in shard order. Contiguous
    /// and covering `0..nodes` by construction.
    pub shard_ranges: Vec<(u64, u64)>,
    /// For a delta checkpoint: the round of the checkpoint it extends.
    /// `None` on full epochs.
    #[serde(default)]
    pub base_round: Option<u64>,
    /// Engine label the run was using (informational; any engine can
    /// restore any snapshot).
    #[serde(default)]
    pub engine: String,
    /// The run's full `RunConfig`, as an opaque JSON string — the store
    /// does not depend on the domain crates, so it carries the config
    /// without knowing its shape.
    #[serde(default)]
    pub config_json: String,
    /// Per-round stats history up to `round`, as an opaque JSON string
    /// (same reasoning as `config_json`).
    #[serde(default)]
    pub stats_json: String,
    /// Free-form annotation (nothing machine-reads this).
    #[serde(default)]
    pub notes: String,
}

/// One EWMA estimator a node holds about a peer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorRecord {
    /// The peer being estimated.
    pub peer: u32,
    /// EWMA blend rate.
    pub rate: f64,
    /// Current estimate.
    pub value: f64,
    /// Transactions folded in so far.
    pub count: u64,
}

/// One entry of a node's audit report log: what the node last reported
/// about a subject versus what its own estimator implied at that time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditEntryRecord {
    /// The subject the report was about.
    pub subject: u32,
    /// Round the report was emitted.
    pub round: u64,
    /// The trust value the node reported.
    pub reported: f64,
    /// What the node's estimator implied; `None` marks a fabricated
    /// report about a subject the node never transacted with.
    pub implied: Option<f64>,
}

/// The full persisted state of one node: its estimators, its row of the
/// aggregated-run matrix, its observer mean and (format version ≥ 2) its
/// audit state.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    /// The node's id (== its index in the snapshot).
    pub node: u32,
    /// First-hand estimators, sorted by peer.
    pub estimators: Vec<EstimatorRecord>,
    /// The node's aggregated reputation run `(subject, value)`, sorted
    /// by subject.
    pub run: Vec<(u32, f64)>,
    /// The node's observer-mean cache entry.
    pub mean: Option<f64>,
    /// Audit report log, sorted by subject (empty in v1 snapshots).
    pub audit_log: Vec<AuditEntryRecord>,
    /// Accumulated audit strikes (0 in v1 snapshots).
    pub strikes: u32,
    /// Round the node was convicted, if it ever was (`None` in v1
    /// snapshots).
    pub convicted_at: Option<u64>,
}

impl NodeRecord {
    /// Bitwise equality: `f64`s compare by `to_bits`, so two records are
    /// equal exactly when restoring either yields identical engine
    /// state. This is the predicate [`changed`] diffs with.
    pub fn bits_eq(&self, other: &NodeRecord) -> bool {
        self.node == other.node
            && self.estimators.len() == other.estimators.len()
            && self.run.len() == other.run.len()
            && opt_bits_eq(self.mean, other.mean)
            && self.audit_log.len() == other.audit_log.len()
            && self.strikes == other.strikes
            && self.convicted_at == other.convicted_at
            && self.audit_log.iter().zip(&other.audit_log).all(|(a, b)| {
                a.subject == b.subject
                    && a.round == b.round
                    && a.reported.to_bits() == b.reported.to_bits()
                    && opt_bits_eq(a.implied, b.implied)
            })
            && self.estimators.iter().zip(&other.estimators).all(|(a, b)| {
                a.peer == b.peer
                    && a.count == b.count
                    && a.rate.to_bits() == b.rate.to_bits()
                    && a.value.to_bits() == b.value.to_bits()
            })
            && self
                .run
                .iter()
                .zip(&other.run)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
    }

    /// The record `view` reads, copied out.
    pub fn from_view(view: &impl RecordView) -> Self {
        NodeRecord {
            node: view.node(),
            estimators: view.estimators().collect(),
            run: view.run().collect(),
            mean: view.mean(),
            audit_log: view.audit_log().collect(),
            strikes: view.strikes(),
            convicted_at: view.convicted_at(),
        }
    }

    pub(crate) fn decode(r: &mut ByteReader<'_>, version: u32) -> Result<NodeRecord, String> {
        let node = r.get_u32("node id")?;
        let n_est = r.get_len("estimator list", 28)?;
        let mut estimators = Vec::with_capacity(n_est);
        for _ in 0..n_est {
            estimators.push(EstimatorRecord {
                peer: r.get_u32("estimator peer")?,
                rate: r.get_f64("estimator rate")?,
                value: r.get_f64("estimator value")?,
                count: r.get_u64("estimator count")?,
            });
        }
        // Versions 1 and 2 wrote a per-peer reputation-table section
        // here. No result ever depended on it, so it is length-checked
        // and skipped: older stores restore the exact same engine state.
        if version < 3 {
            for _ in 0..r.get_len("table list", 29)? {
                r.get_u32("table peer")?;
                r.get_f64("table local trust")?;
                r.get_opt_f64("table aggregated")?;
                r.get_u64("table last-heard round")?;
                r.get_u64("table transactions")?;
            }
        }
        let n_run = r.get_len("run list", 12)?;
        let mut run = Vec::with_capacity(n_run);
        for _ in 0..n_run {
            let subject = r.get_u32("run subject")?;
            let value = r.get_f64("run value")?;
            run.push((subject, value));
        }
        let mean = r.get_opt_f64("observer mean")?;
        // Version-1 payloads end here; the audit state defaults empty,
        // which restores the exact pre-audit engine state.
        let (audit_log, strikes, convicted_at) = if version >= 2 {
            let n_log = r.get_len("audit log", 21)?;
            let mut audit_log = Vec::with_capacity(n_log);
            for _ in 0..n_log {
                audit_log.push(AuditEntryRecord {
                    subject: r.get_u32("audit subject")?,
                    round: r.get_u64("audit round")?,
                    reported: r.get_f64("audit reported")?,
                    implied: r.get_opt_f64("audit implied")?,
                });
            }
            let strikes = r.get_u32("audit strikes")?;
            let convicted_at = r.get_opt_u64("conviction round")?;
            (audit_log, strikes, convicted_at)
        } else {
            (Vec::new(), 0, None)
        };
        Ok(NodeRecord {
            node,
            estimators,
            run,
            mean,
            audit_log,
            strikes,
            convicted_at,
        })
    }
}

/// One node's record read where it lies — a [`NodeRecord`], or a
/// writer's live state — field by field, in the record's order. The
/// store encodes every record it writes through this view
/// (`encode_record`), so the layout has one writer, and a writer whose
/// state is not laid out as a `NodeRecord` need not build one.
pub trait RecordView {
    /// The node's id.
    fn node(&self) -> u32;
    /// First-hand estimators, ascending by peer.
    fn estimators(&self) -> impl ExactSizeIterator<Item = EstimatorRecord>;
    /// The aggregated run `(subject, value)`, ascending by subject.
    fn run(&self) -> impl ExactSizeIterator<Item = (u32, f64)>;
    /// The observer-mean cache entry.
    fn mean(&self) -> Option<f64>;
    /// The audit report log, ascending by subject.
    fn audit_log(&self) -> impl ExactSizeIterator<Item = AuditEntryRecord>;
    /// Accumulated audit strikes.
    fn strikes(&self) -> u32;
    /// Round the node was convicted, if it was.
    fn convicted_at(&self) -> Option<u64>;

    /// Bytes `encode_record` writes for this record, exactly: the sizing
    /// pass that lets a frame declare its length before its first byte.
    fn encoded_len(&self) -> usize {
        let opt = |present: bool| if present { 9 } else { 1 };
        let audit: usize = self
            .audit_log()
            .map(|e| 20 + opt(e.implied.is_some()))
            .sum();
        4 + 4
            + 28 * self.estimators().len()
            + 4
            + 12 * self.run().len()
            + opt(self.mean().is_some())
            + 4
            + audit
            + 4
            + opt(self.convicted_at().is_some())
    }
}

impl RecordView for NodeRecord {
    fn node(&self) -> u32 {
        self.node
    }
    fn estimators(&self) -> impl ExactSizeIterator<Item = EstimatorRecord> {
        self.estimators.iter().copied()
    }
    fn run(&self) -> impl ExactSizeIterator<Item = (u32, f64)> {
        self.run.iter().copied()
    }
    fn mean(&self) -> Option<f64> {
        self.mean
    }
    fn audit_log(&self) -> impl ExactSizeIterator<Item = AuditEntryRecord> {
        self.audit_log.iter().copied()
    }
    fn strikes(&self) -> u32 {
        self.strikes
    }
    fn convicted_at(&self) -> Option<u64> {
        self.convicted_at
    }
}

impl<T: RecordView> RecordView for &T {
    fn node(&self) -> u32 {
        (**self).node()
    }
    fn estimators(&self) -> impl ExactSizeIterator<Item = EstimatorRecord> {
        (**self).estimators()
    }
    fn run(&self) -> impl ExactSizeIterator<Item = (u32, f64)> {
        (**self).run()
    }
    fn mean(&self) -> Option<f64> {
        (**self).mean()
    }
    fn audit_log(&self) -> impl ExactSizeIterator<Item = AuditEntryRecord> {
        (**self).audit_log()
    }
    fn strikes(&self) -> u32 {
        (**self).strikes()
    }
    fn convicted_at(&self) -> Option<u64> {
        (**self).convicted_at()
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

/// An optional value as a presence byte, then (when present) its 8
/// bytes.
#[inline(always)]
fn put_opt(out: &mut impl Put, value: Option<u64>) {
    match value {
        Some(v) => {
            let mut bytes = [1u8; 9];
            bytes[1..].copy_from_slice(&v.to_le_bytes());
            out.put(&bytes);
        }
        None => out.put(&[0]),
    }
}

/// The one encoder of the record layout (format 3 on; see
/// [`crate::FORMAT_VERSION`]): `node ‖ estimators ‖ run ‖ mean ‖ audit
/// log ‖ strikes ‖ conviction`, each list behind a `u32` count, `f64`s
/// as raw bits, little endian. Writes exactly
/// [`RecordView::encoded_len`] bytes. Inlined, with the puts it makes,
/// into each writer, so that an item's put is a length test and a copy.
#[inline(always)]
pub(crate) fn encode_record(view: &impl RecordView, out: &mut impl Put) {
    out.put(&view.node().to_le_bytes());
    let estimators = view.estimators();
    out.put(&(estimators.len() as u32).to_le_bytes());
    for e in estimators {
        let mut item = [0u8; 28];
        item[..4].copy_from_slice(&e.peer.to_le_bytes());
        item[4..12].copy_from_slice(&e.rate.to_bits().to_le_bytes());
        item[12..20].copy_from_slice(&e.value.to_bits().to_le_bytes());
        item[20..].copy_from_slice(&e.count.to_le_bytes());
        out.put(&item);
    }
    let run = view.run();
    out.put(&(run.len() as u32).to_le_bytes());
    for (subject, value) in run {
        let mut item = [0u8; 12];
        item[..4].copy_from_slice(&subject.to_le_bytes());
        item[4..].copy_from_slice(&value.to_bits().to_le_bytes());
        out.put(&item);
    }
    put_opt(out, view.mean().map(f64::to_bits));
    // v2 trailer: audit state.
    let audit_log = view.audit_log();
    out.put(&(audit_log.len() as u32).to_le_bytes());
    for e in audit_log {
        let mut item = [0u8; 20];
        item[..4].copy_from_slice(&e.subject.to_le_bytes());
        item[4..12].copy_from_slice(&e.round.to_le_bytes());
        item[12..].copy_from_slice(&e.reported.to_bits().to_le_bytes());
        out.put(&item);
        put_opt(out, e.implied.map(f64::to_bits));
    }
    out.put(&view.strikes().to_le_bytes());
    put_opt(out, view.convicted_at());
}

/// Where two record lists stop being bit-identical: the index of the
/// first pair that fails [`NodeRecord::bits_eq`], or the shorter list's
/// length when one is a prefix of the other; `None` when they match.
/// Record lists are dense, so the index is the diverging node's id.
pub fn first_divergence(a: &[NodeRecord], b: &[NodeRecord]) -> Option<usize> {
    a.iter()
        .zip(b)
        .position(|(x, y)| !x.bits_eq(y))
        .or_else(|| (a.len() != b.len()).then(|| a.len().min(b.len())))
}

fn opt_bits_eq(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

/// The node records in `next` whose bits changed relative to `prev`,
/// borrowed — what a delta checkpoint between the two must hold. A
/// writer that tracks its own changes (the simulator's change marks)
/// needs no diff; this is the oracle such marks are tested against.
/// Both slices must describe the same node set in the same order; nodes
/// only present in `next` count as changed.
pub fn changed<'a>(
    prev: &'a [NodeRecord],
    next: &'a [NodeRecord],
) -> impl Iterator<Item = &'a NodeRecord> + Clone {
    next.iter()
        .enumerate()
        .filter(move |(i, record)| !matches!(prev.get(*i), Some(old) if old.bits_eq(record)))
        .map(|(_, record)| record)
}

/// [`changed`], cloned out into an owned list.
pub fn diff_changed(prev: &[NodeRecord], next: &[NodeRecord]) -> Vec<NodeRecord> {
    changed(prev, next).cloned().collect()
}

/// Decode a count-prefixed record list laid out in format `version`.
pub(crate) fn decode_records(
    r: &mut ByteReader<'_>,
    version: u32,
) -> Result<Vec<NodeRecord>, String> {
    // A node record is at least 4 + 4 + 4 + 4 + 1 bytes.
    let count = r.get_len("record list", 17)?;
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        records.push(NodeRecord::decode(r, version)?);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ByteWriter;

    pub(crate) fn sample_record(node: u32) -> NodeRecord {
        NodeRecord {
            node,
            estimators: vec![EstimatorRecord {
                peer: node + 1,
                rate: 0.3,
                value: 0.123_456_789,
                count: 7,
            }],
            run: vec![(node + 1, 0.75), (node + 2, 0.5)],
            mean: Some(0.625),
            audit_log: vec![AuditEntryRecord {
                subject: node + 1,
                round: 2,
                reported: 0.75,
                implied: Some(0.5),
            }],
            strikes: 1,
            convicted_at: None,
        }
    }

    #[test]
    fn record_binary_roundtrip_is_bit_exact() {
        let mut record = sample_record(5);
        // Deliberately awkward bit patterns: negative zero and a
        // subnormal must survive unchanged.
        record.run.push((9, -0.0));
        record.estimators[0].value = f64::MIN_POSITIVE / 2.0;
        let mut w = ByteWriter::new();
        encode_record(&record, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = NodeRecord::decode(&mut r, crate::FORMAT_VERSION).unwrap();
        assert!(r.is_empty());
        assert!(record.bits_eq(&back));
    }

    #[test]
    fn encoded_len_is_the_bytes_written_for_every_optional_field_both_ways() {
        let mut cases = Vec::new();
        for bits in 0..8u32 {
            let mut record = sample_record(bits);
            record.mean = (bits & 1 != 0).then_some(0.25);
            record.audit_log[0].implied = (bits & 2 != 0).then_some(-0.0);
            record.convicted_at = (bits & 4 != 0).then_some(9);
            cases.push(record);
        }
        let mut empty = sample_record(8);
        empty.estimators.clear();
        empty.run.clear();
        empty.audit_log.clear();
        empty.mean = None;
        cases.push(empty);
        let mut long = sample_record(9);
        long.audit_log.push(AuditEntryRecord {
            implied: None,
            ..long.audit_log[0]
        });
        long.run.extend([(20, 0.5), (21, 1.0)]);
        cases.push(long);
        for record in &cases {
            let mut w = ByteWriter::new();
            encode_record(record, &mut w);
            let bytes = w.into_bytes();
            assert_eq!(record.encoded_len(), bytes.len(), "{record:?}");
            // The borrowed view sizes and writes the same bytes.
            let mut w = ByteWriter::new();
            encode_record(&record, &mut w);
            assert_eq!(w.into_bytes(), bytes);
            assert_eq!((&record).encoded_len(), bytes.len());
            let back = NodeRecord::decode(&mut ByteReader::new(&bytes), crate::FORMAT_VERSION);
            assert!(back.unwrap().bits_eq(record));
            assert!(NodeRecord::from_view(&record).bits_eq(record));
        }
    }

    /// `record` as a version-2 writer laid it out: the v3 bytes with a
    /// reputation-table section (one row with, one without an
    /// aggregated value) spliced in after the estimator list.
    fn encode_v2(record: &NodeRecord) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_record(&record, &mut w);
        let v3 = w.into_bytes();
        let mut table = ByteWriter::new();
        table.put_u32(2);
        for (peer, aggregated) in [(record.node + 1, Some(0.25)), (record.node + 2, None)] {
            table.put_u32(peer);
            table.put_f64(0.5);
            table.put_opt_f64(aggregated);
            table.put_u64(3);
            table.put_u64(9);
        }
        let at = 8 + 28 * record.estimators.len();
        [&v3[..at], &table.into_bytes(), &v3[at..]].concat()
    }

    #[test]
    fn v2_payload_decodes_to_the_same_record_minus_the_table() {
        let record = sample_record(4);
        let bytes = encode_v2(&record);
        let mut r = ByteReader::new(&bytes);
        let back = NodeRecord::decode(&mut r, 2).unwrap();
        assert!(r.is_empty());
        assert!(record.bits_eq(&back));
        // Cut anywhere, table section included: a typed error, never a
        // panic.
        for cut in 0..bytes.len() {
            assert!(
                NodeRecord::decode(&mut ByteReader::new(&bytes[..cut]), 2).is_err(),
                "decode of a {cut}-byte v2 prefix must fail"
            );
        }
    }

    #[test]
    fn v1_payload_decodes_with_empty_audit_state() {
        // A v2 record with no audit state is `v1 bytes ‖ v2 trailer`
        // where the trailer is exactly 9 bytes (empty log count + zero
        // strikes + absent conviction). Stripping it reconstructs what
        // a version-1 writer produced, which must keep decoding under
        // the v1 layout.
        let mut record = sample_record(3);
        record.audit_log.clear();
        record.strikes = 0;
        record.convicted_at = None;
        let bytes = encode_v2(&record);
        let v1_bytes = &bytes[..bytes.len() - 9];
        let mut r = ByteReader::new(v1_bytes);
        let back = NodeRecord::decode(&mut r, 1).unwrap();
        assert!(r.is_empty());
        assert!(record.bits_eq(&back));
        // The same truncated bytes are NOT a valid v2 record.
        let mut r2 = ByteReader::new(v1_bytes);
        assert!(NodeRecord::decode(&mut r2, 2).is_err());
    }

    #[test]
    fn bits_eq_sees_audit_state() {
        let a = sample_record(1);
        let mut b = a.clone();
        b.strikes += 1;
        assert!(!a.bits_eq(&b));
        let mut c = a.clone();
        c.convicted_at = Some(4);
        assert!(!a.bits_eq(&c));
        let mut d = a.clone();
        d.audit_log[0].implied = None;
        assert!(!a.bits_eq(&d));
    }

    #[test]
    fn bits_eq_distinguishes_negative_zero() {
        let a = sample_record(1);
        let mut b = a.clone();
        b.run[0].1 = -0.0;
        let mut a0 = a.clone();
        a0.run[0].1 = 0.0;
        assert!(!a0.bits_eq(&b), "0.0 and -0.0 differ bitwise");
        assert!(a.bits_eq(&a.clone()));
    }

    #[test]
    fn first_divergence_names_the_first_differing_node() {
        let a: Vec<_> = (0..4).map(sample_record).collect();
        assert_eq!(first_divergence(&a, &a.clone()), None);
        let mut b = a.clone();
        b[3].strikes += 1;
        b[1].run[0].1 = -0.0;
        assert_eq!(first_divergence(&a, &b), Some(1));
        assert_eq!(first_divergence(&a, &a[..3]), Some(3));
        assert_eq!(first_divergence(&[], &a), Some(0));
    }

    #[test]
    fn diff_changed_picks_only_changed_nodes() {
        let prev: Vec<_> = (0..4).map(sample_record).collect();
        let mut next = prev.clone();
        next[2].mean = Some(0.9);
        let owned = diff_changed(&prev, &next);
        assert_eq!(owned.len(), 1);
        assert_eq!(owned[0].node, 2);
        assert!(diff_changed(&prev, &prev).is_empty());
        // The borrowed form hands out `next`'s own records, and a record
        // `prev` is too short to hold counts as changed.
        let borrowed: Vec<&NodeRecord> = changed(&prev, &next).collect();
        assert!(std::ptr::eq(borrowed[0], &next[2]));
        let grown: Vec<u32> = changed(&prev[..3], &next).map(|r| r.node).collect();
        assert_eq!(grown, [2, 3]);
    }

    #[test]
    fn truncated_record_is_a_decode_error_not_a_panic() {
        let record = sample_record(5);
        let mut w = ByteWriter::new();
        encode_record(&record, &mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                NodeRecord::decode(&mut r, crate::FORMAT_VERSION).is_err(),
                "decode of a {cut}-byte prefix must fail"
            );
        }
    }

    #[test]
    fn persistence_doc_names_the_current_format_version() {
        let doc = include_str!("../../../docs/PERSISTENCE.md");
        let current = format!("(currently {})", crate::FORMAT_VERSION);
        assert!(
            doc.contains(&current),
            "docs/PERSISTENCE.md lacks {current:?}"
        );
    }

    #[test]
    fn header_json_roundtrip() {
        let header = SnapshotHeader {
            format_version: 1,
            round: 12,
            nodes: 100,
            shard_ranges: vec![(0, 50), (50, 100)],
            base_round: Some(8),
            engine: "incremental".into(),
            config_json: "{\"nodes\":100}".into(),
            stats_json: "[]".into(),
            notes: String::new(),
        };
        let json = serde_json::to_string(&header).unwrap();
        let back: SnapshotHeader = serde_json::from_str(&json).unwrap();
        assert_eq!(header, back);
    }

    #[test]
    fn legacy_header_without_optional_fields_still_parses() {
        // The evolution policy: a header written before the optional
        // fields existed (or by a trimmed-down writer) must keep
        // loading, with the additive fields defaulting.
        let legacy = r#"{
            "format_version": 1, "round": 4, "nodes": 10,
            "shard_ranges": [[0, 10]]
        }"#;
        let header: SnapshotHeader = serde_json::from_str(legacy).unwrap();
        assert_eq!(header.round, 4);
        assert_eq!(header.base_round, None);
        assert_eq!(header.engine, "");
        assert_eq!(header.config_json, "");
        assert_eq!(header.stats_json, "");
        assert_eq!(header.notes, "");
    }
}
