//! The `dg_store` command line: the lines CI's store steps read, and
//! its exit statuses.

use dg_store::{NodeRecord, SnapshotHeader, Store, FORMAT_VERSION};
use std::path::{Path, PathBuf};
use std::process::Command;

/// A store under `tag` with an epoch at round 1 and deltas at rounds 3
/// and 4.
fn store(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dg_store_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let record = |node: u32, mean: f64| NodeRecord {
        node,
        estimators: Vec::new(),
        run: Vec::new(),
        mean: Some(mean),
        audit_log: Vec::new(),
        strikes: 0,
        convicted_at: None,
    };
    let mut header = SnapshotHeader {
        format_version: FORMAT_VERSION,
        round: 1,
        nodes: 2,
        shard_ranges: vec![(0, 2)],
        base_round: None,
        engine: String::new(),
        config_json: String::new(),
        stats_json: String::new(),
        notes: String::new(),
    };
    let store = Store::open(&root);
    store
        .write_epoch(&header, &[record(0, 0.5), record(1, 0.5)])
        .unwrap();
    for (round, base) in [(3, 1), (4, 3)] {
        (header.round, header.base_round) = (round, Some(base));
        store.write_delta(&header, [record(1, 0.25)]).unwrap();
    }
    root
}

/// `dg_store <args>`: exit code, stdout, stderr.
fn dg_store(args: &[&Path]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dg_store"))
        .args(args)
        .output()
        .unwrap();
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).unwrap();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn same_prints_both_head_formats_and_names_the_first_file_that_differs() {
    let (a, b) = (store("same_a"), store("same_b"));
    let same = Path::new("same");
    let formats = format!("{FORMAT_VERSION} {FORMAT_VERSION}\n");
    assert_eq!(dg_store(&[same, &a, &b]), (Some(0), formats, String::new()));
    let delta = |root: &Path| root.join("delta-4.bin");
    assert_eq!(dg_store(&[same, &delta(&a), &delta(&b)]).0, Some(0));

    let mut frame = std::fs::read(delta(&b)).unwrap();
    frame[30] ^= 1;
    std::fs::write(delta(&b), frame).unwrap();
    let (code, stdout, stderr) = dg_store(&[same, &a, &b]);
    assert_eq!((code, stdout.as_str()), (Some(1), ""));
    assert!(
        stderr.contains(&delta(&b).display().to_string()),
        "{stderr}"
    );
    for root in [a, b] {
        std::fs::remove_dir_all(root).unwrap();
    }
}

#[test]
fn cut_prints_each_dropped_round_and_its_span() {
    let root = store("cut");
    let cut = |to: &str| dg_store(&[Path::new("cut"), &root, Path::new(to)]);
    assert_eq!(
        cut("--last-delta"),
        (Some(0), "4 1\n".into(), String::new())
    );
    assert_eq!(cut("--to-epoch"), (Some(0), "3 2\n".into(), String::new()));
    let (code, _, stderr) = cut("--to-epoch");
    assert_eq!(code, Some(1));
    assert!(stderr.contains("no delta to cut"), "{stderr}");
    assert_eq!(cut("--everything").0, Some(2));
    assert_eq!(dg_store(&[Path::new("cut"), &root]).0, Some(2));
    assert_eq!(dg_store(&[]).0, Some(2));
    std::fs::remove_dir_all(root).unwrap();
}
