//! The store-compatibility rule: when two checkpoint directories (or
//! two files), written by two builds, hold the same store.

use crate::codec::{corrupt_at, io_err, json_text};
use crate::wire::read_versioned_frame;
use crate::{Store, StoreError};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Whether `b` holds the same store (or file) as `a`. The two must hold
/// the same relative file set; every non-JSON file must be one frame
/// that verifies under its own version's digest (`codec::frame_digest`).
/// Two files of one format version match byte for byte. Across versions
/// a frame may differ only in its version field (bytes 9..13) and its
/// digest (the last 8 bytes), and a JSON header or `HEAD.json` only in
/// its `format_version`.
///
/// The first file at fault is an error naming it: [`StoreError::Corrupt`]
/// if it does not verify, [`StoreError::Differs`] if it disagrees. For
/// two stores, returns their `HEAD.json` format versions, `a`'s first.
pub fn same(a: &Path, b: &Path) -> Result<Option<(u32, u32)>, StoreError> {
    if !a.is_dir() {
        return same_file(a, b).map(|()| None);
    }
    let (left, right) = (files(a)?, files(b)?);
    if let Some(odd) = left.symmetric_difference(&right).next() {
        return Err(differs(&b.join(odd), "only one side holds it"));
    }
    for file in &left {
        same_file(&a.join(file), &b.join(file))?;
    }
    let (x, y) = (Store::open(a).head()?, Store::open(b).head()?);
    Ok(x.zip(y).map(|(x, y)| (x.format_version, y.format_version)))
}

fn same_file(a: &Path, b: &Path) -> Result<(), StoreError> {
    let read = |path: &Path| std::fs::read(path).map_err(|e| io_err(path, e));
    let (x, y) = (read(a)?, read(b)?);
    let split = if a.extension().is_some_and(|ext| ext == "json") {
        split_json
    } else {
        split_frame
    };
    let ((version_x, rest_x), (version_y, rest_y)) = (split(a, &x)?, split(b, &y)?);
    if x == y || version_x != version_y && rest_x == rest_y {
        return Ok(());
    }
    Err(differs(
        b,
        &format!("bytes differ (format {version_x} vs {version_y})"),
    ))
}

/// A JSON object's `format_version`, and the object without it.
fn split_json(path: &Path, bytes: &[u8]) -> Result<(u32, Vec<u8>), StoreError> {
    #[derive(serde::Deserialize)]
    struct Versioned {
        format_version: u32,
    }
    let text = json_text(path, "header", bytes)?;
    let undecodable = |e: serde_json::Error| corrupt_at(path, format!("undecodable header: {e}"));
    let version = serde_json::from_str::<Versioned>(text).map_err(undecodable)?;
    let mut rest = serde_json::from_str(text).map_err(undecodable)?;
    if let serde_json::Value::Object(fields) = &mut rest {
        fields.retain(|(key, _)| key != "format_version");
    }
    let rest = serde_json::to_string(&rest).unwrap_or_default();
    Ok((version.format_version, rest.into_bytes()))
}

/// A verified frame's version, and the frame without that field and its
/// digest.
fn split_frame(path: &Path, bytes: &[u8]) -> Result<(u32, Vec<u8>), StoreError> {
    let mut tail = bytes;
    let (_, version, _) = read_versioned_frame(&mut tail, bytes.len())
        .map_err(|e| corrupt_at(path, e.to_string()))?;
    if !tail.is_empty() {
        return Err(corrupt_at(path, "bytes after the end of the frame".into()));
    }
    Ok((version, [&bytes[..9], &bytes[13..bytes.len() - 8]].concat()))
}

/// Every file under `root`, relative to it.
fn files(root: &Path) -> Result<BTreeSet<PathBuf>, StoreError> {
    let (mut found, mut dirs) = (BTreeSet::new(), vec![PathBuf::new()]);
    while let Some(rel) = dirs.pop() {
        let dir = root.join(&rel);
        for entry in std::fs::read_dir(&dir).map_err(|e| io_err(&dir, e))? {
            let path = rel.join(entry.map_err(|e| io_err(&dir, e))?.file_name());
            if root.join(&path).is_dir() {
                dirs.push(path);
            } else {
                found.insert(path);
            }
        }
    }
    Ok(found)
}

fn differs(path: &Path, reason: &str) -> StoreError {
    let (path, reason) = (path.display().to_string(), reason.to_string());
    StoreError::Differs { path, reason }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{frame_digest, PRELUDE_LEN};
    use crate::{NodeRecord, SnapshotHeader, FORMAT_VERSION};

    /// A fresh store under `tag`: an epoch of two shards at round 1 and
    /// a delta at round 2.
    fn store(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("dg_compare_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let record = |node: u32, mean: f64| NodeRecord {
            node,
            estimators: Vec::new(),
            run: vec![(node ^ 1, mean)],
            mean: Some(mean),
            audit_log: Vec::new(),
            strikes: 0,
            convicted_at: None,
        };
        let mut header = SnapshotHeader {
            format_version: FORMAT_VERSION,
            round: 1,
            nodes: 4,
            shard_ranges: vec![(0, 2), (2, 4)],
            base_round: None,
            engine: "sequential".into(),
            config_json: String::new(),
            stats_json: String::new(),
            notes: String::new(),
        };
        let store = Store::open(&root);
        let records: Vec<_> = (0..4).map(|node| record(node, 0.5)).collect();
        store.write_epoch(&header, &records).unwrap();
        (header.round, header.base_round) = (2, Some(1));
        store.write_delta(&header, [record(3, 0.25)]).unwrap();
        root
    }

    /// The verified frame `frame` sealed again as a frame of `version`.
    fn resealed(frame: &[u8], version: u32) -> Vec<u8> {
        let mut frame = frame.to_vec();
        let body = frame.len() - 8;
        frame[9..13].copy_from_slice(&version.to_le_bytes());
        let mut prelude = [0u8; PRELUDE_LEN];
        prelude.copy_from_slice(&frame[..PRELUDE_LEN]);
        let digest = frame_digest(&prelude, &frame[PRELUDE_LEN..body]);
        frame[body..].copy_from_slice(&digest.to_le_bytes());
        frame
    }

    fn edit(path: &Path, change: impl FnOnce(Vec<u8>) -> Vec<u8>) {
        std::fs::write(path, change(std::fs::read(path).unwrap())).unwrap();
    }

    /// `same(a, b)`'s error, which must be `kind` and name `file`.
    fn fails(a: &Path, b: &Path, kind: &str, file: &str) {
        let err = same(a, b).unwrap_err();
        let (found, path) = match &err {
            StoreError::Corrupt { path, .. } => ("corrupt", path),
            StoreError::Differs { path, .. } => ("differs", path),
            _ => panic!("{err}"),
        };
        assert_eq!(found, kind, "{err}");
        assert!(path.ends_with(file), "{err}");
    }

    fn remove(roots: &[&Path]) {
        for root in roots {
            std::fs::remove_dir_all(root).unwrap();
        }
    }

    #[test]
    fn a_store_is_the_same_as_its_rewrite() {
        let (a, b) = (store("rewrite_a"), store("rewrite_b"));
        assert_eq!(
            same(&a, &b).unwrap(),
            Some((FORMAT_VERSION, FORMAT_VERSION))
        );
        let delta = Path::new("delta-2.bin");
        assert_eq!(same(&a.join(delta), &b.join(delta)).unwrap(), None);
        fails(
            &a.join(delta),
            &b.join("epoch-1/shard-0.bin"),
            "differs",
            "shard-0.bin",
        );
        remove(&[&a, &b]);
    }

    #[test]
    fn one_flipped_payload_bit_fails() {
        let (a, b) = (store("flip_a"), store("flip_b"));
        let delta = b.join("delta-2.bin");
        edit(&delta, |mut frame| {
            frame[PRELUDE_LEN + 20] ^= 1;
            frame
        });
        fails(&a, &b, "corrupt", "delta-2.bin");
        fails(&b, &a, "corrupt", "delta-2.bin");
        // Sealed again, the frame verifies and its payload differs, in
        // one format and across two.
        edit(&delta, |frame| resealed(&frame, FORMAT_VERSION));
        fails(&a, &b, "differs", "delta-2.bin");
        edit(&delta, |frame| resealed(&frame, 3));
        fails(&a, &b, "differs", "delta-2.bin");
        remove(&[&a, &b]);
    }

    #[test]
    fn a_digest_only_difference_fails_in_one_version_and_passes_across_two() {
        let (a, b) = (store("digest_a"), store("digest_b"));
        let shard = b.join("epoch-1/shard-1.bin");
        let pristine = std::fs::read(&shard).unwrap();
        edit(&shard, |mut frame| {
            *frame.last_mut().unwrap() ^= 1;
            frame
        });
        fails(&a, &b, "corrupt", "shard-1.bin");
        // Format 3's FNV-1a digest under format 3's version field: the
        // two frames differ in those twelve bytes and no other.
        let older = resealed(&pristine, 3);
        let differing: Vec<usize> = (0..older.len())
            .filter(|&i| older[i] != pristine[i])
            .collect();
        assert!(differing.iter().all(|&i| i == 9 || i >= older.len() - 8));
        assert!(differing.iter().any(|&i| i >= older.len() - 8));
        std::fs::write(&shard, older).unwrap();
        assert_eq!(
            same(&a, &b).unwrap(),
            Some((FORMAT_VERSION, FORMAT_VERSION))
        );
        // Its version field without its digest does not verify.
        edit(&shard, |mut frame| {
            frame[9..13].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
            frame
        });
        fails(&a, &b, "corrupt", "shard-1.bin");
        remove(&[&a, &b]);
    }

    #[test]
    fn an_extra_or_a_missing_file_fails() {
        let (a, b) = (store("files_a"), store("files_b"));
        let extra = b.join("epoch-1/shard-2.bin");
        std::fs::copy(b.join("epoch-1/shard-1.bin"), &extra).unwrap();
        fails(&a, &b, "differs", "shard-2.bin");
        fails(&b, &a, "differs", "shard-2.bin");
        std::fs::remove_file(&extra).unwrap();
        std::fs::remove_file(b.join("delta-2.json")).unwrap();
        fails(&a, &b, "differs", "delta-2.json");
        remove(&[&a, &b]);
    }

    #[test]
    fn headers_may_differ_only_in_format_version_and_only_across_versions() {
        let (a, b) = (store("json_a"), store("json_b"));
        let head = b.join("HEAD.json");
        let text = std::fs::read_to_string(&head).unwrap();
        let current = format!("\"format_version\": {FORMAT_VERSION}");
        let older = text.replace(&current, "\"format_version\": 3");
        assert_ne!(older, text);
        std::fs::write(&head, &older).unwrap();
        assert_eq!(same(&a, &b).unwrap(), Some((FORMAT_VERSION, 3)));
        // Across versions nothing else may move ...
        std::fs::write(
            &head,
            older.replace("\"base_round\": 1", "\"base_round\": 0"),
        )
        .unwrap();
        fails(&a, &b, "differs", "HEAD.json");
        // ... and in one version not a byte, whitespace included.
        std::fs::write(&head, text.replace('\n', "")).unwrap();
        fails(&a, &b, "differs", "HEAD.json");
        remove(&[&a, &b]);
    }
}
