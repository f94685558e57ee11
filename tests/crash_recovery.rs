//! The crash-recovery keystone: **crash + resume ≡ straight run, bit
//! for bit**, for every round engine, under every adversary preset and
//! faulty network profile, as fixed sequences of the session model
//! (`tests/model/mod.rs`) and as its random-sequence property.
//!
//! The asynchronous deployment's restart contract is different — the
//! continuation is statistical, not bitwise (see
//! `differential_gossip::p2p::checkpoint`) — so what the peer-deployment
//! tests here pin is the part that *is* exact: resume determinism and the
//! mass-conservation ledger balancing across the restart.

mod model;

use differential_gossip::gossip::pair::GossipPair;
use differential_gossip::gossip::{AdversaryMix, EngineKind, NetworkProfile};
use differential_gossip::p2p::{
    resume_distributed, run_distributed, DistributedConfig, GossipCheckpoint,
};
use differential_gossip::sim::rounds::{AggregationScope, RoundStats};
use differential_gossip::sim::{RunConfig, RunSession, TrafficModel};
use differential_gossip::store::Store;
use differential_gossip::trust::audit::AuditPolicy;
use model::*;
use proptest::prelude::*;

const ADVERSARIES: [&str; 6] = [
    "none",
    "sybil",
    "collusion",
    "slander",
    "whitewash",
    "stealth",
];

const PROFILES: [&str; 4] = ["lossless", "lossy", "partitioned", "churning"];

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dg_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The suite's 64-node run on `engine`, under the adversary preset and
/// network profile the CLI names `adversary` and `profile`.
fn config(engine: EngineKind, adversary: &str, profile: &str, seed: u64) -> RunConfig {
    RunConfig::with_nodes(64)
        .with_seed(seed)
        .with_engine(engine)
        .with_adversary(AdversaryMix::parse(adversary).expect("adversary preset"))
        .with_profile(NetworkProfile::parse(profile).expect("network profile"))
        .with_rounds(4)
        .with_requests_per_edge(2)
        .with_free_riders(0.25)
        .with_quality_range(0.4, 1.0)
}

/// Killed after round `k` of four and resumed as the same engine; the
/// last checkpoint round-trips the finished state through the store.
fn kill_at(k: usize, engine: EngineKind) -> Vec<Op> {
    let resume_as = (engine, AUTO);
    let crash = Crash { resume_as };
    vec![Run(k), Checkpoint, crash, Run(4 - k), Checkpoint]
}

#[test]
fn kill_and_resume_is_bit_identical_for_every_engine_and_adversary() {
    for engine in EngineKind::ALL {
        for adversary in ADVERSARIES {
            let cfg = config(engine, adversary, "lossless", 42);
            check(cfg, &kill_at(2, engine));
        }
    }
}

#[test]
fn kill_and_resume_is_bit_identical_under_faulty_network_profiles() {
    for engine in EngineKind::ALL {
        for profile in &PROFILES[1..] {
            check(config(engine, "sybil", profile, 17), &kill_at(2, engine));
        }
    }
}

#[test]
fn kill_and_resume_with_audit_strikes_in_flight() {
    // The audit subsystem's durable state — per-node report logs,
    // accumulated strike counters, the convicted set — must survive the
    // snapshot round-trip mid-conviction: killed after strikes have
    // accrued but before the cartel is fully convicted, the resumed run
    // must land every remaining conviction in exactly the round the
    // straight run does.
    let mut audit = AuditPolicy::standard();
    audit.audit_rate = 0.1;
    for engine in EngineKind::ALL {
        let cfg = config(engine, "stealth", "lossless", 42).with_audit(audit);
        let resume_as = (engine, AUTO);
        let oracle = check(cfg, &[Run(4), Checkpoint, Crash { resume_as }, Run(4)]);
        let (before, after) = oracle.stats().split_at(4);
        let convictions = |rounds: &[RoundStats]| rounds.iter().map(|r| r.convictions).sum::<u64>();
        let strikes: u64 = before.iter().map(|r| r.audit_strikes).sum();
        assert!(strikes > 0, "{engine:?}: no strikes in flight");
        let straddle = convictions(before) > 0 && convictions(after) > 0;
        assert!(straddle, "{engine:?}: convictions straddle the kill");
    }
}

#[test]
fn resume_restores_aggregates_and_residual_exactly() {
    // The model compares every aggregated run (the records) and the
    // honest residual after each op; killed at round 3 of 4.
    let cfg = config(Incremental, "collusion", "lossy", 9);
    check(cfg, &kill_at(3, Incremental));
}

#[test]
fn resume_as_another_engine_then_ingest_and_crash_again() {
    // No fixed grid covered this: a resume that switches engine and shard
    // count, ingest on the switched engine, then a second crash — which
    // loses the ingest queued after the last checkpoint — and a resume
    // back to the first engine. Every ordered engine pair, in both
    // scopes, at 10% activity so the ingest lands on idle requesters
    // too.
    let traffic = TrafficModel::full().with_activity(0.1);
    for scope in [AggregationScope::Full, AggregationScope::Neighbourhood] {
        for from in EngineKind::ALL {
            for to in EngineKind::ALL.into_iter().filter(|&to| to != from) {
                let cfg = config(from, "whitewash", "lossless", 5).with_scope(scope);
                let (there, back) = ((to, 16), (from, 64));
                let ops = [
                    Run(2),
                    Checkpoint,
                    Crash { resume_as: there },
                    Ingest(vec![(1, 2, Some(0.9)), (40, 3, None), (1, 7, Some(0.25))]),
                    Run(1),
                    Checkpoint,
                    Ingest(vec![(9, 8, Some(0.5))]),
                    Crash { resume_as: back },
                    Ingest(vec![(63, 0, Some(1.0))]),
                    Run(2),
                    Checkpoint,
                ];
                check(cfg.with_traffic(traffic), &ops);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The keystone as a property: a random op sequence — rounds,
    /// ingest, checkpoints, crashes resuming as any engine and shard
    /// count, thread changes — over a random point of every config axis
    /// (engine, shards, adversary, profile, activity / Zipf, scope,
    /// audits) ends, and passes every step, bit-identical to the oracle.
    #[test]
    fn kill_resume_property(
        axes in (0..EngineKind::ALL.len(), 0usize..4, 0usize..6, 0usize..4),
        shape in (0usize..3, 0usize..2, 0usize..2),
        seed in 0u64..1000,
        ops_seed in 0u64..u64::MAX,
    ) {
        let (engine, shards, adversary, profile) = axes;
        let (traffic, scope, audit) = shape;
        let mut audits = [AuditPolicy::off(), AuditPolicy::standard()];
        audits[1].audit_rate = 0.2;
        let cfg = config(EngineKind::ALL[engine], ADVERSARIES[adversary], PROFILES[profile], seed)
            .with_shards(SHARDS[shards])
            .with_traffic([
                TrafficModel::full(),
                TrafficModel::full().with_activity(0.1).with_zipf(0.8),
                TrafficModel::full().with_activity(0.01).with_zipf(1.2).with_flash(3, 4.0),
            ][traffic])
            .with_scope([AggregationScope::Full, AggregationScope::Neighbourhood][scope])
            .with_audit(audits[audit]);
        check(cfg, &random_ops(ops_seed, cfg.nodes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Hostile bytes never panic the store: flip any one
    /// byte of a shard, a delta, an epoch or delta header or `HEAD.json`
    /// and `load_latest` answers with a typed error — always one for the
    /// framed files, whose digest covers every byte — or, where the JSON
    /// still parses, with a snapshot of the right size. `resume` on the
    /// same directory must return too.
    #[test]
    fn a_flipped_byte_in_any_store_file_is_a_typed_error_or_a_valid_load(
        seed in 0u64..1000,
        flips in proptest::collection::vec((0usize..6, 0usize..1_000_000, 1u8..=255), 48..49),
    ) {
        let cfg = config(Incremental, "none", "lossless", seed);
        let dir = temp_dir(&format!("flip_{seed}"));
        let mut session = RunSession::new(cfg).expect("session");
        session.run_to(1).expect("round 1");
        session.checkpoint(&dir).expect("full epoch");
        session.run_to(2).expect("round 2");
        session.checkpoint(&dir).expect("delta");
        let store = Store::open(&dir);
        let nodes = store.load_latest().expect("pristine store loads").records.len();

        let files = [
            store.epoch_dir(1).join("shard-0.bin"),
            dir.join("delta-2.bin"),
            store.epoch_dir(1).join("header.json"),
            dir.join("delta-2.json"),
            dir.join("HEAD.json"),
            dir.join("HEAD.json"),
        ];
        for (file, at, flip) in flips {
            let path = &files[file];
            let pristine = std::fs::read(path).expect("store file exists");
            let mut bytes = pristine.clone();
            let at = at % bytes.len();
            bytes[at] ^= flip;
            std::fs::write(path, &bytes).expect("mutate");
            let what = format!("{} byte {at} ^ {flip:#04x}", path.display());
            match store.load_latest() {
                Ok(snapshot) => {
                    prop_assert!(file >= 2, "{what}: a framed file passed its digest");
                    prop_assert_eq!(snapshot.records.len(), nodes, "{}", what);
                }
                // Every variant is a typed refusal; formatting it must
                // not panic either.
                Err(e) => drop(e.to_string()),
            }
            let _ = RunSession::resume(&dir);
            std::fs::write(path, &pristine).expect("restore");
        }
        store.load_latest().expect("restored store loads");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn distributed_mass_ledger_balances_across_restart() {
    use differential_gossip::graph::pa;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let graph = pa::preferential_attachment(pa::PaConfig { nodes: 48, m: 2 }, &mut rng)
        .expect("power-law overlay");
    let initial: Vec<GossipPair> = (0..48)
        .map(|i| GossipPair::originator(((i * 11) % 17) as f64 / 17.0))
        .collect();

    let config = DistributedConfig {
        xi: 1e-4,
        seed: 77,
        max_rounds: 6,
        profile: NetworkProfile::lossy(),
        ..DistributedConfig::default()
    };
    let partial = run_distributed(&graph, config, initial).expect("first segment");
    let ckpt = partial.checkpoint(config.seed);

    // Restart: persist through the store codec, reload, resume.
    let path = std::env::temp_dir().join(format!("dg_crash_p2p_{}.bin", std::process::id()));
    ckpt.save(&path).expect("save checkpoint");
    let ckpt = GossipCheckpoint::load(&path).expect("load checkpoint");
    let _ = std::fs::remove_file(&path);

    let resumed = resume_distributed(
        &graph,
        DistributedConfig {
            max_rounds: 60,
            ..config
        },
        ckpt,
    )
    .expect("resumed segment");

    // The conservation invariant spans the restart: the surviving mass
    // equals the initial total (post byzantine falsification) corrected
    // by everything the merged ledger saw the faulty transport destroy
    // or duplicate.
    let total = resumed.total_pair();
    let expected = resumed.ledger.expected_total(resumed.initial_total);
    assert!(
        (total.value - expected.value).abs() < 1e-9
            && (total.weight - expected.weight).abs() < 1e-9,
        "mass leaked across restart: {total:?} vs {expected:?}"
    );
}

#[test]
fn distributed_resume_is_deterministic_after_restart() {
    use differential_gossip::graph::generators;

    let graph = generators::complete(12);
    let initial: Vec<GossipPair> = (0..12)
        .map(|i| GossipPair::originator(i as f64 / 11.0))
        .collect();
    let config = DistributedConfig {
        xi: 1e-10,
        seed: 5,
        max_rounds: 3,
        ..DistributedConfig::default()
    };
    let partial = run_distributed(&graph, config, initial).expect("first segment");
    let ckpt = partial.checkpoint(config.seed);

    let resume_cfg = DistributedConfig {
        max_rounds: 40,
        ..config
    };
    let a = resume_distributed(&graph, resume_cfg, ckpt.clone()).expect("first resume");
    let b = resume_distributed(&graph, resume_cfg, ckpt).expect("second resume");
    assert_eq!(
        a, b,
        "resuming the same snapshot twice must be bit-identical"
    );
}
