//! The crash-recovery keystone: **kill-at-round-k + resume ≡ straight
//! run, bit for bit**, for every round engine, under every adversary
//! preset and under faulty network profiles.
//!
//! State is compared through the persistence layer itself: both the
//! straight and the resumed session checkpoint their final state into
//! fresh `dg-store` directories, and the loaded [`NodeRecord`]s must
//! match with [`NodeRecord::bits_eq`] (exact f64 bit patterns, not
//! tolerances), alongside exact [`RoundStats`] history equality.
//!
//! The asynchronous deployment's restart contract is different — the
//! continuation is statistical, not bitwise (see
//! `differential_gossip::p2p::checkpoint`) — so what the tokio tests
//! here pin is the part that *is* exact: resume determinism and the
//! mass-conservation ledger balancing across the restart.

use differential_gossip::gossip::pair::GossipPair;
use differential_gossip::gossip::{AdversaryMix, EngineKind, NetworkProfile};
use differential_gossip::p2p::{
    resume_distributed, run_distributed, DistributedConfig, GossipCheckpoint,
};
use differential_gossip::sim::{RunConfig, RunSession};
use differential_gossip::store::{NodeRecord, Store};
use proptest::prelude::*;
use std::path::PathBuf;

const ENGINES: [EngineKind; 3] = EngineKind::ALL;

const ADVERSARIES: [&str; 6] = [
    "none",
    "sybil",
    "collusion",
    "slander",
    "whitewash",
    "stealth",
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dg_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(
    engine: EngineKind,
    adversary: AdversaryMix,
    profile: NetworkProfile,
    seed: u64,
) -> RunConfig {
    RunConfig::with_nodes(64)
        .with_seed(seed)
        .with_engine(engine)
        .with_adversary(adversary)
        .with_profile(profile)
        .with_rounds(4)
        .with_requests_per_edge(2)
        .with_free_riders(0.25)
        .with_quality_range(0.4, 1.0)
}

/// Final node records of a session, read back through the store — the
/// comparison deliberately round-trips the serialization layer.
fn final_records(session: &mut RunSession, tag: &str) -> Vec<NodeRecord> {
    let dir = temp_dir(tag);
    session.checkpoint(&dir).expect("final checkpoint");
    let snapshot = Store::open(&dir).load_latest().expect("load final state");
    let _ = std::fs::remove_dir_all(&dir);
    snapshot.records
}

/// Run `config` straight through, and again with a kill (drop) at
/// `kill_round` plus a resume from the on-disk snapshot; assert the two
/// end states are bit-identical.
fn assert_kill_resume_bit_identical(config: RunConfig, kill_round: usize, tag: &str) {
    let mut straight = RunSession::new(config).expect("straight session");
    straight.run().expect("straight run");

    let dir = temp_dir(tag);
    let mut killed = RunSession::new(config).expect("killed session");
    killed.run_to(kill_round).expect("run to kill round");
    killed.checkpoint(&dir).expect("checkpoint before kill");
    // The "kill": all in-memory state is gone, only the store remains.
    drop(killed);

    let mut resumed = RunSession::resume(&dir).expect("resume from store");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(resumed.round(), kill_round, "{tag}: resumed at wrong round");
    resumed.run().expect("resumed run");

    assert_eq!(
        straight.stats()[..kill_round],
        resumed.stats()[..kill_round],
        "{tag}: pre-kill stats history not restored"
    );
    assert_eq!(straight.stats(), resumed.stats(), "{tag}: stats diverged");

    let a = final_records(&mut straight, &format!("{tag}_straight"));
    let b = final_records(&mut resumed, &format!("{tag}_resumed"));
    assert_eq!(a.len(), b.len(), "{tag}: record counts differ");
    for (x, y) in a.iter().zip(&b) {
        assert!(x.bits_eq(y), "{tag}: node {} diverged after resume", x.node);
    }
}

#[test]
fn kill_and_resume_is_bit_identical_for_every_engine_and_adversary() {
    for engine in ENGINES {
        for name in ADVERSARIES {
            let adversary = AdversaryMix::parse(name).expect("known adversary preset");
            let cfg = config(engine, adversary, NetworkProfile::lossless(), 42);
            assert_kill_resume_bit_identical(cfg, 2, &format!("{engine:?}_{name}"));
        }
    }
}

#[test]
fn kill_and_resume_is_bit_identical_under_faulty_network_profiles() {
    for engine in ENGINES {
        for profile in [
            NetworkProfile::lossy(),
            NetworkProfile::partitioned(),
            NetworkProfile::churning(),
        ] {
            let adversary = AdversaryMix::parse("sybil").expect("sybil preset");
            let cfg = config(engine, adversary, profile, 17);
            assert_kill_resume_bit_identical(cfg, 2, &format!("{engine:?}_{}", profile.label()));
        }
    }
}

#[test]
fn kill_and_resume_with_audit_strikes_in_flight() {
    use differential_gossip::trust::audit::AuditPolicy;

    // The audit subsystem's durable state — per-node report logs,
    // accumulated strike counters, the convicted set — must survive the
    // snapshot round-trip mid-conviction: killed after strikes have
    // accrued but before the cartel is fully convicted, the resumed run
    // must land every remaining conviction in exactly the round the
    // straight run does.
    let audit = AuditPolicy {
        audit_rate: 0.1,
        ..AuditPolicy::standard()
    };
    for engine in ENGINES {
        let cfg = config(
            engine,
            AdversaryMix::stealth(),
            NetworkProfile::lossless(),
            42,
        )
        .with_rounds(8)
        .with_audit(audit);
        let tag = format!("{engine:?}_audit_inflight");

        let mut straight = RunSession::new(cfg).expect("straight session");
        straight.run().expect("straight run");
        let kill_round = 4;
        let strikes_at_kill: u64 = straight.stats()[..kill_round]
            .iter()
            .map(|r| r.audit_strikes)
            .sum();
        let convictions_before: u64 = straight.stats()[..kill_round]
            .iter()
            .map(|r| r.convictions)
            .sum();
        let convictions_after: u64 = straight.stats()[kill_round..]
            .iter()
            .map(|r| r.convictions)
            .sum();
        assert!(
            strikes_at_kill > 0,
            "{tag}: no strikes in flight at the kill round"
        );
        assert!(
            convictions_before > 0 && convictions_after > 0,
            "{tag}: convictions must straddle the kill round \
             ({convictions_before} before, {convictions_after} after)"
        );

        assert_kill_resume_bit_identical(cfg, kill_round, &tag);
    }
}

#[test]
fn resume_restores_aggregates_and_residual_exactly() {
    let cfg = config(
        EngineKind::Sharded,
        AdversaryMix::parse("collusion").unwrap(),
        NetworkProfile::lossy(),
        9,
    );
    let mut straight = RunSession::new(cfg).unwrap();
    straight.run().unwrap();

    let dir = temp_dir("aggregates");
    let mut killed = RunSession::new(cfg).unwrap();
    killed.run_to(3).unwrap();
    killed.checkpoint(&dir).unwrap();
    drop(killed);
    let mut resumed = RunSession::resume(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    resumed.run().unwrap();

    let residual = (
        straight.honest_residual().map(f64::to_bits),
        resumed.honest_residual().map(f64::to_bits),
    );
    assert_eq!(residual.0, residual.1, "honest residual must be bit-equal");
    for observer in 0..cfg.nodes as u32 {
        for subject in 0..cfg.nodes as u32 {
            let a = straight
                .aggregated(observer.into(), subject.into())
                .map(f64::to_bits);
            let b = resumed
                .aggregated(observer.into(), subject.into())
                .map(f64::to_bits);
            assert_eq!(a, b, "aggregate ({observer}, {subject}) diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The property form of the keystone: an arbitrary (engine,
    /// adversary, profile, kill round, seed) combination survives
    /// kill-and-resume bit-for-bit.
    #[test]
    fn kill_resume_property(
        engine_ix in 0usize..ENGINES.len(),
        adversary_ix in 0usize..6,
        lossy in 0usize..2,
        kill_round in 1usize..4,
        seed in 0u64..1000,
    ) {
        let engine = ENGINES[engine_ix];
        let adversary = AdversaryMix::parse(ADVERSARIES[adversary_ix]).unwrap();
        let profile = if lossy == 1 {
            NetworkProfile::lossy()
        } else {
            NetworkProfile::lossless()
        };
        let cfg = config(engine, adversary, profile, seed);
        let tag = format!("prop_{engine_ix}_{adversary_ix}_{lossy}_{kill_round}_{seed}");
        assert_kill_resume_bit_identical(cfg, kill_round, &tag);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Hostile bytes never panic the store (ROADMAP 6(a)): flip any one
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
        let cfg = config(
            EngineKind::Incremental,
            AdversaryMix::none(),
            NetworkProfile::lossless(),
            seed,
        );
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

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn distributed_mass_ledger_balances_across_restart() {
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
    let partial = run_distributed(&graph, config, initial)
        .await
        .expect("first segment");
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
    .await
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

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn distributed_resume_is_deterministic_after_restart() {
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
    let partial = run_distributed(&graph, config, initial)
        .await
        .expect("first segment");
    let ckpt = partial.checkpoint(config.seed);

    let resume_cfg = DistributedConfig {
        max_rounds: 40,
        ..config
    };
    let a = resume_distributed(&graph, resume_cfg, ckpt.clone())
        .await
        .expect("first resume");
    let b = resume_distributed(&graph, resume_cfg, ckpt)
        .await
        .expect("second resume");
    assert_eq!(
        a, b,
        "resuming the same snapshot twice must be bit-identical"
    );
}
