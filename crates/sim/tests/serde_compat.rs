//! Serialized-config compatibility: configs written before a field
//! existed must keep deserializing (the `#[serde(default)]` support in
//! the vendored derive).

use dg_sim::scenario::Topology;
use dg_sim::ScenarioConfig;

#[test]
fn scenario_config_deserializes_without_profile_field() {
    // The exact shape ScenarioConfig serialized to before the network
    // profile existed (PR 3): the new field must default to lossless.
    let s = r#"{"nodes":10,"m":2,"seed":1,"weight_a":2.0,"weight_b":2.0,
        "free_rider_fraction":0.0,"quality_range":[0.2,1.0],
        "trust_source":"Exact","topology":"Pa","far_partners":0,
        "engine":"Sequential"}"#;
    let c: ScenarioConfig = serde_json::from_str(s).unwrap();
    assert!(c.profile.is_reliable());
    assert_eq!(c.nodes, 10);
    assert_eq!(c.topology, Topology::Pa);
}

#[test]
fn scenario_config_roundtrips_with_profile() {
    let config = ScenarioConfig::with_nodes(64).with_profile(dg_gossip::NetworkProfile::churning());
    let s = serde_json::to_string(&config).unwrap();
    let back: ScenarioConfig = serde_json::from_str(&s).unwrap();
    assert_eq!(config, back);
    assert_eq!(back.profile.label(), "churning");
}

#[test]
fn scenario_config_roundtrips_with_adversary_mix() {
    let config =
        ScenarioConfig::with_nodes(64).with_adversary(dg_gossip::AdversaryMix::whitewash());
    let s = serde_json::to_string(&config).unwrap();
    let back: ScenarioConfig = serde_json::from_str(&s).unwrap();
    assert_eq!(config, back);
    assert_eq!(back.adversary.label(), "whitewash");
}

#[test]
fn pre_sharding_rounds_config_still_deserializes() {
    // RoundsConfig serialized before the sharded engine existed has no
    // `shard_count`; it must default to 0 (the auto partition).
    let config = dg_sim::rounds::RoundsConfig::default();
    let json = serde_json::to_string(&config).unwrap();
    let legacy = json.replace(",\"shard_count\":0", "");
    assert!(!legacy.contains("shard_count"), "{legacy}");
    let back: dg_sim::rounds::RoundsConfig = serde_json::from_str(&legacy).unwrap();
    assert_eq!(back.shard_count, 0);
    assert_eq!(back, config);
}

#[test]
fn pre_adversary_rounds_config_still_deserializes() {
    // RoundsConfig serialized before the defense policy existed: the
    // new fields must default to the paper's plain behaviour.
    let config = dg_sim::rounds::RoundsConfig::default();
    let json = serde_json::to_string(&config).unwrap();
    let legacy = strip_object_field(&strip_object_field(&json, "defense"), "adversary");
    assert!(!legacy.contains("defense") && !legacy.contains("adversary"));
    let back: dg_sim::rounds::RoundsConfig = serde_json::from_str(&legacy).unwrap();
    assert!(back.defense.is_none());
    assert!(back.gossip.adversary.is_none());
    assert_eq!(back, config);
}

#[test]
fn pre_traffic_configs_still_deserialize_as_full_traffic() {
    // RoundsConfig and ScenarioConfig serialized before the traffic
    // model existed: the new field must default to the legacy
    // every-node-every-round workload.
    let config = dg_sim::rounds::RoundsConfig::default();
    let legacy = strip_object_field(&serde_json::to_string(&config).unwrap(), "traffic");
    assert!(!legacy.contains("traffic"), "{legacy}");
    let back: dg_sim::rounds::RoundsConfig = serde_json::from_str(&legacy).unwrap();
    assert!(back.traffic.is_full());
    assert_eq!(back, config);

    let config = ScenarioConfig::with_nodes(32);
    let legacy = strip_object_field(&serde_json::to_string(&config).unwrap(), "traffic");
    let back: ScenarioConfig = serde_json::from_str(&legacy).unwrap();
    assert!(back.traffic.is_full());
    assert_eq!(back, config);
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
fn configs_naming_the_parallel_engine_mean_sharded() {
    // Configs and snapshot headers written while the batched `Parallel`
    // engine existed: the name is an alias of `Sharded` now.
    use dg_gossip::EngineKind;
    use dg_sim::{RunConfig, RunSession};
    fn as_parallel(json: &str) -> String {
        let legacy = json.replace(r#""engine":"Sharded""#, r#""engine":"Parallel""#);
        assert!(legacy.contains("Parallel"), "{legacy}");
        legacy
    }
    fn reads_back<T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug>(v: T) {
        let legacy = as_parallel(&serde_json::to_string(&v).unwrap());
        assert_eq!(serde_json::from_str::<T>(&legacy).unwrap(), v);
    }
    let run = RunConfig::with_nodes(48)
        .with_seed(5)
        .with_rounds(4)
        .with_engine(EngineKind::Sharded);
    reads_back(run);
    reads_back(run.rounds_config());
    reads_back(run.scenario_config());

    // A store whose header names `Parallel` resumes, and its next rounds
    // are bit-equal to the sequential oracle's.
    let dir = std::env::temp_dir().join(format!("dg_serde_compat_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut killed = RunSession::new(run).unwrap();
    killed.run_to(2).unwrap();
    killed.checkpoint(&dir).unwrap();
    let store = dg_store::Store::open(&dir);
    let mut snapshot = store.load_latest().unwrap();
    snapshot.header.engine = "Parallel".into();
    snapshot.header.config_json = as_parallel(&snapshot.header.config_json);
    store
        .write_epoch(&snapshot.header, &snapshot.records)
        .unwrap();
    let mut resumed = RunSession::resume(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(resumed.config().engine, EngineKind::Sharded);
    assert_eq!(resumed.round(), 2);
    resumed.run().unwrap();
    let mut oracle = RunSession::new(run.with_engine(EngineKind::Sequential)).unwrap();
    oracle.run().unwrap();
    assert_eq!(resumed.stats(), oracle.stats());
    let ids = || (0..run.nodes as u32).map(dg_graph::NodeId);
    for (i, j) in ids().flat_map(|i| ids().map(move |j| (i, j))) {
        assert_eq!(
            resumed.aggregated(i, j).map(f64::to_bits),
            oracle.aggregated(i, j).map(f64::to_bits),
            "aggregated({i}, {j})"
        );
    }
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
