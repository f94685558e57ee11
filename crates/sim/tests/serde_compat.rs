//! Serialized-config compatibility: configs written before a field
//! existed must keep deserializing (the `#[serde(default)]` support in
//! the vendored derive) — and stores written in an earlier snapshot
//! format must keep resuming.

use dg_gossip::{AdversaryMix, EngineKind, NetworkProfile};
use dg_sim::rounds::DefensePolicy;
use dg_sim::{CheckpointKind, RunConfig, RunSession, TrafficModel};
use dg_store::{first_divergence, same, Cut, Store, StoreError, FORMAT_VERSION};
use dg_trust::audit::AuditPolicy;
use std::path::{Path, PathBuf};

/// Exactly what the commit before `RunConfig` became the only config
/// serialized for [`written_config`] — the snapshot-header contract. It
/// names the removed `Sharded` engine, which reads back as
/// `Incremental`.
const WRITTEN_CONFIG_JSON: &str = r#"{"nodes":48,"m":2,"seed":5,"weight_a":2,"weight_b":2,"free_rider_fraction":0.25,"quality_range":[0.4,1],"trust_source":"Exact","topology":"Pa","far_partners":0,"engine":"Sharded","shard_count":3,"profile":{"loss":0.1,"duplicate":0.01,"detect_loss":true,"max_delay":2,"churn":{"crash_probability":0,"min_downtime":0,"max_downtime":0},"partition":null},"adversary":{"sybil_fraction":0,"sybil_ring":8,"sybil_spawn_rate":2,"collusion_fraction":0,"collusion_clique":4,"slander_fraction":0,"slander_factor":0,"whitewash_fraction":0,"wash_threshold":0.25,"stealth_fraction":0.45,"stealth_clique":5,"stealth_bias":1},"traffic":{"activity_fraction":0.5,"zipf_exponent":0.8,"flash_interval":0,"flash_multiplier":1},"defense":{"robust":{"clamp_lo":0.1,"clamp_hi":0.9,"trim_fraction":0.2},"newcomer":"ZeroPrior"},"audit":{"audit_rate":0.03,"strikes_to_convict":2,"tolerance":0.05,"log_capacity":16,"checks_per_audit":1},"rounds":4,"requests_per_edge":5,"admission_threshold":0.35,"ewma_rate":0.3,"aggregation":"ClosedForm","scope":"Full","xi":0.0001,"fanout":"Differential","max_steps":100000,"sticky_announcements":false}"#;

fn written_config() -> RunConfig {
    RunConfig::with_nodes(48)
        .with_seed(5)
        .with_rounds(4)
        .with_free_riders(0.25)
        .with_quality_range(0.4, 1.0)
        .with_engine(EngineKind::Incremental)
        .with_shards(3)
        .with_profile(NetworkProfile::lossy())
        .with_adversary(AdversaryMix::stealth())
        .with_traffic(TrafficModel::full().with_activity(0.5).with_zipf(0.8))
        .with_defense(DefensePolicy::defended())
        .with_audit(AuditPolicy::standard())
}

#[test]
fn run_config_json_is_byte_stable() {
    let config: RunConfig = serde_json::from_str(WRITTEN_CONFIG_JSON).unwrap();
    assert_eq!(config, written_config());
    // The one intended byte change since the literal was written: the
    // `Sharded` engine it names is gone, and its alias re-serializes
    // under the production engine's name. Every other byte is stable.
    let rewritten =
        WRITTEN_CONFIG_JSON.replace(r#""engine":"Sharded""#, r#""engine":"Incremental""#);
    assert_ne!(rewritten, WRITTEN_CONFIG_JSON);
    assert_eq!(serde_json::to_string(&config).unwrap(), rewritten);
}

#[test]
fn pre_audit_run_config_still_deserializes() {
    // Snapshot headers written before the audit subsystem existed carry
    // no `audit` object — the one `serde(default)` field of the config.
    let legacy = strip_object_field(WRITTEN_CONFIG_JSON, "audit");
    assert!(!legacy.contains("audit"), "{legacy}");
    let back: RunConfig = serde_json::from_str(&legacy).unwrap();
    assert_eq!(back, written_config().with_audit(AuditPolicy::off()));
}

#[test]
fn partial_traffic_model_members_default_to_legacy_values() {
    // A config that only names the members it changes: absent members
    // fall back to full traffic's values (1.0 activity, no skew), not
    // the field types' zeroes — `activity_fraction: 0.0` would silence
    // the whole workload.
    let t: dg_sim::TrafficModel = serde_json::from_str(r#"{"zipf_exponent":1.2}"#).unwrap();
    assert_eq!(t.activity_fraction, 1.0);
    assert_eq!(t.zipf_exponent, 1.2);
    assert_eq!(t.flash_interval, 0);
    assert_eq!(t.flash_multiplier, 1.0);

    let t: dg_sim::TrafficModel = serde_json::from_str("{}").unwrap();
    assert!(t.is_full());

    let skewed = dg_sim::TrafficModel::full()
        .with_activity(0.05)
        .with_zipf(0.9)
        .with_flash(10, 5.0);
    let back: dg_sim::TrafficModel =
        serde_json::from_str(&serde_json::to_string(&skewed).unwrap()).unwrap();
    assert_eq!(back, skewed);
}

#[test]
fn legacy_round_stats_deserialize_with_zero_traffic_counters() {
    // RoundStats JSON written before the activity counters existed
    // (e.g. archived bench reports): the new fields default to zero.
    let legacy = r#"{"round":3,"served_honest":12,"refused_honest":1,
        "served_free_riders":0,"refused_free_riders":4,
        "served_adversaries":0,"refused_adversaries":0,
        "mean_rep_honest":0.5,"mean_rep_free_riders":0.1,
        "mean_rep_adversaries":0.0,"washes":2}"#;
    let stats: dg_sim::rounds::RoundStats = serde_json::from_str(legacy).unwrap();
    assert_eq!(stats.round, 3);
    assert_eq!(stats.washes, 2);
    assert_eq!(stats.active_nodes, 0);
    assert_eq!(stats.dirty_fraction, 0.0);
}

#[test]
fn configs_naming_removed_engines_mean_incremental() {
    // Configs and snapshot headers written while the batched `Parallel`
    // or the `Sharded` engine existed: both names are aliases of the
    // production engine now.
    fn naming(engine: &str, json: &str) -> String {
        let legacy = json.replace(
            r#""engine":"Incremental""#,
            &format!(r#""engine":"{engine}""#),
        );
        assert!(legacy.contains(engine), "{legacy}");
        legacy
    }
    // Full traffic and the checked-in literal's skewed traffic, both in
    // full scope (so both take the rebuild round).
    let full = RunConfig::with_nodes(48)
        .with_seed(5)
        .with_rounds(4)
        .with_engine(EngineKind::Incremental);
    for run in [full, written_config()] {
        let json = serde_json::to_string(&run).unwrap();
        for engine in ["Sharded", "Parallel"] {
            let legacy = naming(engine, &json);
            assert_eq!(serde_json::from_str::<RunConfig>(&legacy).unwrap(), run);
            // A store whose header names the removed engine resumes like
            // the oracle.
            resumes_like_the_oracle(run, engine, &legacy);
        }
    }
    // So does one whose header carries the checked-in literal.
    resumes_like_the_oracle(written_config(), "Sharded", WRITTEN_CONFIG_JSON);
}

/// Checkpoint `run` at round 2, rewrite the store header to carry
/// `engine` / `config_json`, resume, and require the finished run to be
/// bit-equal to the sequential oracle's.
fn resumes_like_the_oracle(run: RunConfig, engine: &str, config_json: &str) {
    let dir = std::env::temp_dir().join(format!("dg_serde_compat_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut killed = RunSession::new(run).unwrap();
    killed.run_to(2).unwrap();
    killed.checkpoint(&dir).unwrap();
    let store = dg_store::Store::open(&dir);
    let mut snapshot = store.load_latest().unwrap();
    snapshot.header.engine = engine.into();
    snapshot.header.config_json = config_json.into();
    store
        .write_epoch(&snapshot.header, &snapshot.records)
        .unwrap();
    let mut resumed = RunSession::resume(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(resumed.config(), &run);
    assert_eq!(resumed.round(), 2);
    resumed.run().unwrap();
    let mut oracle = RunSession::new(run.with_engine(EngineKind::Sequential)).unwrap();
    oracle.run().unwrap();
    assert_eq!(resumed.stats(), oracle.stats());
    assert_eq!(
        first_divergence(&oracle.records(), &resumed.records()),
        None
    );
}

#[test]
fn a_store_written_in_format_v2_resumes_bit_identically() {
    // `fixtures/store-v2` was written by the last commit that spoke
    // format 2 (PR 14): 60 nodes, incremental engine, a stealth cartel
    // under audit with two convictions already in, `run_to(3)` + full
    // epoch, `run_to(4)` + delta. Every record carries the
    // reputation-table section format 3 dropped.
    resumes_bit_identically("store-v2", 2, EngineKind::Incremental);
}

#[test]
fn a_store_written_in_format_v3_resumes_bit_identically() {
    // `fixtures/store-v3` was written by the last commit that spoke
    // format 3 (a5d9335), from the same run as `store-v2`: the config
    // read back from that fixture, `run_to(3)` + full epoch,
    // `run_to(4)` + delta —
    //     let v2 = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store-v2");
    //     let mut s = RunSession::new(*RunSession::resume(&v2)?.config())?;
    //     s.run_to(3)?; s.checkpoint(out)?; s.run_to(4)?; s.checkpoint(out)?;
    // Its frames carry format 3's FNV-1a digest.
    resumes_bit_identically("store-v3", 3, EngineKind::Incremental);
}

#[test]
fn a_store_written_by_the_oracle_resumes_on_the_oracle_bit_identically() {
    // `fixtures/store-v4-sequential` was written by the last commit whose
    // default engine was the sequential oracle (b8e143a), from
    // `store-v3`'s config with the oracle named, by `store-v3`'s recipe:
    //     let v3 = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store-v3");
    //     let config = RunSession::resume(&v3)?.config().with_engine(EngineKind::Sequential);
    //     let mut s = RunSession::new(config)?;
    //     s.run_to(3)?; s.checkpoint(out)?; s.run_to(4)?; s.checkpoint(out)?;
    // Resume honours the engine its header names.
    resumes_bit_identically("store-v4-sequential", 4, EngineKind::Sequential);
}

/// Copy `fixtures/<fixture>` (an epoch at round 3 plus a delta at round
/// 4, written in format `version` by `engine`), resume it on `engine`,
/// and require the finished run to be bit-equal to a straight one; then
/// append one checkpoint — a current-format delta on the older chain
/// (frames carry their own version) — and require that mixed chain to
/// load the same state.
fn resumes_bit_identically(fixture: &str, version: u32, engine: EngineKind) {
    let source = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let dir = std::env::temp_dir().join(format!("dg_{fixture}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("epoch-3")).unwrap();
    for file in [
        "HEAD.json",
        "delta-4.bin",
        "delta-4.json",
        "epoch-3/header.json",
        "epoch-3/shard-0.bin",
    ] {
        std::fs::copy(source.join(file), dir.join(file)).unwrap();
    }
    assert_eq!(
        Store::open(&dir)
            .load_latest()
            .unwrap()
            .header
            .format_version,
        version
    );

    let mut resumed = RunSession::resume(&dir).unwrap();
    assert_eq!(resumed.round(), 4);
    assert_eq!(resumed.config().engine, engine);
    assert_eq!(resumed.convicted().len(), 2);
    resumed.run().unwrap();
    let mut straight = RunSession::new(*resumed.config()).unwrap();
    straight.run().unwrap();
    assert_eq!(resumed.stats(), straight.stats());
    assert_eq!(
        first_divergence(&straight.records(), &resumed.records()),
        None
    );

    assert_eq!(resumed.checkpoint(&dir).unwrap(), CheckpointKind::Delta);
    let store = Store::open(&dir);
    let header = store.load_latest().unwrap().header;
    assert_eq!((header.format_version, header.base_round), (4, Some(4)));
    // The commit record is restamped, so an older build refuses the
    // mixed chain at its head.
    assert_eq!(store.head().unwrap().unwrap().format_version, 4);
    let again = RunSession::resume(&dir).unwrap();
    assert_eq!(again.stats(), straight.stats());
    assert_eq!(
        first_divergence(&straight.records(), &again.records()),
        None
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// An empty scratch directory for `tag`.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dg_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_store(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_store(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// Run `config` from the start into `dir`, checkpointing at each of
/// `rounds`.
fn write_store(config: RunConfig, rounds: &[usize], dir: &Path) {
    let mut session = RunSession::new(config).unwrap();
    for &round in rounds {
        session.run_to(round).unwrap();
        session.checkpoint(dir).unwrap();
    }
}

#[test]
fn a_fresh_store_is_the_same_as_the_v3_fixture_and_not_the_v2_one() {
    // `store-v3`'s own recipe in this build's format: every byte but
    // each frame's version and digest and each header's
    // `format_version` comes out as format 3 wrote it.
    let v3 = fixture("store-v3");
    let dir = scratch("fresh_store");
    write_store(*RunSession::resume(&v3).unwrap().config(), &[3, 4], &dir);
    assert_eq!(same(&v3, &dir).unwrap(), Some((3, FORMAT_VERSION)));
    // Format 3 dropped a section that every format-2 record carries.
    match same(&fixture("store-v2"), &dir) {
        Err(StoreError::Differs { path, .. }) => assert!(path.ends_with("delta-4.bin"), "{path}"),
        other => panic!("store-v2 compared {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_cut_store_resumes_and_rewrites_what_was_cut_byte_for_byte() {
    // An epoch at round 3 and deltas at rounds 4 and 5.
    let written = scratch("cut_written");
    write_store(written_config().with_rounds(6), &[3, 4, 5], &written);

    let last = scratch("cut_last_delta");
    copy_store(&written, &last);
    assert_eq!(
        Store::open(&last).cut(Cut::LastDelta).unwrap(),
        vec![(5, 1)]
    );
    let head = Store::open(&last).head().unwrap().unwrap();
    assert_eq!(
        (head.format_version, head.delta_rounds),
        (FORMAT_VERSION, vec![4])
    );
    assert!(!last.join("delta-5.bin").exists() && !last.join("delta-5.json").exists());
    let mut resumed = RunSession::resume(&last).unwrap();
    resumed.run_to(5).unwrap();
    assert_eq!(resumed.checkpoint(&last).unwrap(), CheckpointKind::Delta);
    for file in ["HEAD.json", "delta-5.bin", "delta-5.json"] {
        let bytes = |dir: &Path| std::fs::read(dir.join(file)).unwrap();
        assert!(bytes(&written) == bytes(&last), "{file} was not rewritten");
    }

    // Back to the epoch, then a checkpoint every round: every delta.
    let epoch = scratch("cut_to_epoch");
    copy_store(&written, &epoch);
    assert_eq!(
        Store::open(&epoch).cut(Cut::ToEpoch).unwrap(),
        vec![(4, 1), (5, 1)]
    );
    let mut resumed = RunSession::resume(&epoch).unwrap();
    assert_eq!(resumed.round(), 3);
    for round in [4, 5] {
        resumed.run_to(round).unwrap();
        resumed.checkpoint(&epoch).unwrap();
    }
    assert_eq!(
        same(&written, &epoch).unwrap(),
        Some((FORMAT_VERSION, FORMAT_VERSION))
    );
    for dir in [written, last, epoch] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn a_cut_v3_store_keeps_format_3_until_the_resume_commits() {
    let v3 = fixture("store-v3");
    let cut = scratch("cut_v3");
    copy_store(&v3, &cut);
    assert_eq!(Store::open(&cut).cut(Cut::LastDelta).unwrap(), vec![(4, 1)]);
    assert_eq!(Store::open(&cut).head().unwrap().unwrap().format_version, 3);
    let mut resumed = RunSession::resume(&cut).unwrap();
    assert_eq!(resumed.round(), 3);
    resumed.run_to(4).unwrap();
    assert_eq!(resumed.checkpoint(&cut).unwrap(), CheckpointKind::Delta);
    // The delta comes back in this build's format, else as format 3
    // wrote it.
    assert_eq!(same(&v3, &cut).unwrap(), Some((3, FORMAT_VERSION)));
    std::fs::remove_dir_all(&cut).unwrap();
}

/// Remove `"field":{...}` (brace-matched) plus one adjoining comma from
/// a JSON string — simulates configs written before the field existed.
fn strip_object_field(json: &str, field: &str) -> String {
    let key = format!("\"{field}\":");
    let start = json.find(&key).expect("field present");
    let mut depth = 0usize;
    let mut end = json.len();
    for (i, c) in json[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    end = start + i + 1;
                    break;
                }
            }
            _ => {}
        }
    }
    let mut out = String::new();
    if json[end..].starts_with(',') {
        out.push_str(&json[..start]);
        out.push_str(&json[end + 1..]);
    } else {
        out.push_str(json[..start].trim_end_matches(','));
        out.push_str(&json[end..]);
    }
    out
}
