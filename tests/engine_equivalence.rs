//! The sharded and incremental round engines are pure
//! optimisations: for the same pinned seeds they must produce
//! **exactly** the sequential reference driver's results — same service
//! counters, same reputation means, same per-pair aggregated
//! reputations, same per-node records — at every thread count, every
//! shard count, every traffic activity fraction, with and without an
//! adversarial mix.

use differential_gossip::gossip::{AdversaryMix, EngineKind};
use differential_gossip::graph::NodeId;
use differential_gossip::sim::rounds::{
    AggregationMode, AggregationScope, RoundEngine, RoundStats,
};
use differential_gossip::sim::workload::TrafficModel;
use differential_gossip::sim::{build_engine, RunConfig, Scenario};
use differential_gossip::trust::audit::AuditPolicy;
use rand::RngCore;
use rayon::ThreadPoolBuilder;
use std::sync::Arc;

/// Shard counts the sharded engine is pinned at: one shard (the flat
/// degenerate case), more shards than fit evenly — 16 shards over 90
/// nodes leaves trailing shards short — and 64, where most shards own
/// a row or two and the work-stealing scheduler gets real block
/// migration at every tested thread count.
const SHARD_COUNTS: [usize; 3] = [1, 16, 64];

/// One substrate per row, shared by every engine under test (built as
/// the sequential oracle builds it).
fn build(config: RunConfig) -> Arc<Scenario> {
    Arc::new(Scenario::build(config).expect("scenario builds"))
}

fn base(seed: u64) -> RunConfig {
    RunConfig {
        nodes: 90,
        seed,
        free_rider_fraction: 0.2,
        quality_range: (0.4, 1.0),
        ..RunConfig::default()
    }
}

fn run(scenario: &Arc<Scenario>, config: RunConfig) -> (Vec<RoundStats>, Box<dyn RoundEngine>) {
    let mut engine = build_engine(Arc::clone(scenario), &config);
    let mut rng = scenario.gossip_rng(6);
    let stats = (0..config.rounds)
        .map(|_| engine.run_round(rng.next_u64()).expect("round"))
        .collect();
    (stats, engine)
}

fn assert_matches_reference(
    scenario: &Arc<Scenario>,
    seq_stats: &[RoundStats],
    seq_sim: &dyn RoundEngine,
    config: RunConfig,
    threads: usize,
    what: &str,
) {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    let (stats, sim) = pool.install(|| run(scenario, config));
    let (seq_sim, sim) = (seq_sim.core(), sim.core());
    // Bit-for-bit: RoundStats contains f64 means and PartialEq is
    // exact equality.
    assert_eq!(seq_stats, stats, "stats diverged: {what} at {threads}t");
    let n = scenario.graph.node_count() as u32;
    for observer in 0..n {
        for subject in 0..n {
            let (observer, subject) = (NodeId(observer), NodeId(subject));
            assert_eq!(
                seq_sim.aggregated(observer, subject),
                sim.aggregated(observer, subject),
                "aggregated({observer}, {subject}) diverged: {what} at {threads}t"
            );
        }
    }
    for (want, got) in seq_sim.records().iter().zip(&sim.records()) {
        assert!(
            want.bits_eq(got),
            "record of node {} diverged: {what} at {threads}t",
            want.node
        );
    }
}

fn assert_equivalent(config: RunConfig) {
    let scenario = &build(config);
    let (seq_stats, seq_sim) = run(scenario, config.with_engine(EngineKind::Sequential));

    for threads in [1usize, 2, 8] {
        assert_matches_reference(
            scenario,
            &seq_stats,
            &*seq_sim,
            config.with_engine(EngineKind::Incremental),
            threads,
            "incremental",
        );
        for shards in SHARD_COUNTS {
            assert_matches_reference(
                scenario,
                &seq_stats,
                &*seq_sim,
                config.with_engine(EngineKind::Sharded).with_shards(shards),
                threads,
                &format!("sharded/{shards}"),
            );
        }
    }
}

#[test]
fn engines_match_bitwise_in_closed_form_full_scope() {
    assert_equivalent(base(41).with_rounds(5));
}

#[test]
fn engines_match_bitwise_in_neighbourhood_scope() {
    assert_equivalent(
        base(42)
            .with_rounds(5)
            .with_scope(AggregationScope::Neighbourhood),
    );
}

#[test]
fn engines_match_bitwise_under_real_gossip_aggregation() {
    assert_equivalent(RunConfig {
        nodes: 40,
        rounds: 3,
        aggregation: AggregationMode::Gossip,
        xi: 1e-5,
        ..base(13)
    });
}

#[test]
fn engines_match_bitwise_under_adversary_mix() {
    // A nonzero mix exercising every distortion hook: sybil dormancy,
    // collusion cliques, slander, and the whitewash purge phase.
    let mix = AdversaryMix {
        sybil_fraction: 0.08,
        slander_fraction: 0.06,
        whitewash_fraction: 0.06,
        ..AdversaryMix::collusion()
    }
    .validated()
    .expect("mix is valid");
    assert_equivalent(RunConfig {
        free_rider_fraction: 0.15,
        adversary: mix,
        rounds: 6,
        scope: AggregationScope::Neighbourhood,
        ..base(47)
    });
}

#[test]
fn engines_match_bitwise_under_skewed_traffic_and_adversaries() {
    // The incremental engine's reason to exist: most rows clean, hubs
    // hot, periodic flash crowds, adversaries distorting round-keyed —
    // and still bit-equal to the rebuild-everything engines at 100%,
    // 10% and 1% mean activity, at every thread and shard count.
    let mix = AdversaryMix {
        sybil_fraction: 0.08,
        slander_fraction: 0.06,
        whitewash_fraction: 0.06,
        ..AdversaryMix::collusion()
    }
    .validated()
    .expect("mix is valid");
    for fraction in [1.0, 0.1, 0.01] {
        let traffic = TrafficModel::full()
            .with_activity(fraction)
            .with_zipf(0.8)
            .with_flash(3, 4.0);
        assert_equivalent(RunConfig {
            free_rider_fraction: 0.15,
            adversary: mix,
            rounds: 6,
            traffic,
            ..base(23)
        });
    }
}

#[test]
fn engines_match_bitwise_with_audits_convicting() {
    // The audit phase live end to end: a stealth cartel striking on
    // every spot-check, a hot audit rate so convictions (and the purge
    // they trigger) land inside the run — and every engine still
    // bit-equal to the sequential reference at full and 1% activity,
    // at every thread and shard count.
    let mix = AdversaryMix::stealth().validated().expect("mix is valid");
    let audit = AuditPolicy {
        audit_rate: 0.2,
        ..AuditPolicy::standard()
    };
    for fraction in [1.0, 0.01] {
        let config = RunConfig {
            free_rider_fraction: 0.15,
            adversary: mix,
            rounds: 8,
            audit,
            traffic: TrafficModel::full().with_activity(fraction),
            ..base(31)
        };
        // The row only proves something if the audit machinery actually
        // fires. At full activity that means convictions (and the purge
        // they trigger) land mid-run; at 1% activity cartel members
        // rarely emit a report, so logs stay empty and no strike can
        // accrue — there the live part is the audit sampling itself.
        let (seq_stats, _) = run(&build(config), config);
        let audits: u64 = seq_stats.iter().map(|r| r.audits).sum();
        assert!(audits > 0, "no audits ran at activity {fraction}");
        if fraction == 1.0 {
            let convictions: u64 = seq_stats.iter().map(|r| r.convictions).sum();
            assert!(convictions > 0, "no convictions at full activity");
        }
        assert_equivalent(config);
    }
}

#[test]
fn engines_match_bitwise_with_one_hot_shard() {
    // Skew stress for the cost-weighted scheduler: Zipf s = 1.5 over a
    // thin activity fraction concentrates almost all traffic on the
    // lowest node ids — with 16 shards that is ONE hot shard while the
    // rest idle, the exact shape that serialised the old static
    // shard→thread assignment. The weighted stealing schedule must not
    // change a bit of the output.
    let traffic = TrafficModel::full()
        .with_activity(0.1)
        .with_zipf(1.5)
        .with_flash(3, 4.0);
    assert_equivalent(base(61).with_rounds(6).with_traffic(traffic));
}

#[test]
fn incremental_engine_matches_under_whitewash_purges() {
    // Whitewash-heavy mix at thin traffic: purged rows must be
    // re-emitted from the persistent matrix next round even when their
    // owners stay inactive, or the incremental engine drifts.
    let mix = AdversaryMix {
        whitewash_fraction: 0.12,
        ..AdversaryMix::none()
    }
    .validated()
    .expect("mix is valid");
    let config = RunConfig {
        nodes: 70,
        free_rider_fraction: 0.1,
        adversary: mix,
        rounds: 8,
        traffic: TrafficModel::full().with_activity(0.15),
        ..base(53)
    };
    let s = build(config);
    let (seq_stats, seq_sim) = run(&s, config.with_engine(EngineKind::Sequential));
    assert_matches_reference(
        &s,
        &seq_stats,
        &*seq_sim,
        config.with_engine(EngineKind::Incremental),
        4,
        "incremental under whitewash",
    );
}

#[test]
fn sharded_engine_is_reproducible_across_repeat_runs() {
    let s = build(base(77));
    for engine in [EngineKind::Sharded, EngineKind::Incremental] {
        let config = base(77).with_rounds(4).with_engine(engine).with_shards(4);
        let (a, _) = run(&s, config);
        let (b, _) = run(&s, config);
        assert_eq!(a, b, "{engine:?}");
    }
}

mod steal_order {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        // Each engine run is a fresh, timing-dependent steal schedule;
        // a handful of randomized scenarios × the full thread × shard
        // grid re-rolls hundreds of schedules per test run.
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Any steal order at threads {1, 2, 8} × shards {1, 16, 64}
        /// stays bit-identical to the sequential reference, over
        /// randomized seeds, activity fractions and traffic skews
        /// (including past the Zipf s = 1 hot-shard knee).
        #[test]
        fn any_steal_order_is_bit_identical(
            seed in 0u64..1000,
            activity in 0.02f64..1.0,
            zipf in 0.0f64..1.6,
        ) {
            let config = RunConfig {
                nodes: 48,
                rounds: 3,
                traffic: TrafficModel::full().with_activity(activity).with_zipf(zipf),
                ..base(seed)
            };
            let s = build(config);
            let (seq_stats, seq_sim) = run(&s, config.with_engine(EngineKind::Sequential));
            for threads in [1usize, 2, 8] {
                for shards in SHARD_COUNTS {
                    assert_matches_reference(
                        &s,
                        &seq_stats,
                        &*seq_sim,
                        config.with_engine(EngineKind::Sharded).with_shards(shards),
                        threads,
                        &format!("steal-order sharded/{shards}"),
                    );
                }
            }
        }
    }
}

#[test]
fn sharded_engine_handles_shard_count_above_node_count() {
    // 40 nodes, 64 shards: most shards own a single row, trailing
    // shards own none. Still bit-equal to the reference.
    let config = RunConfig {
        nodes: 40,
        rounds: 3,
        ..base(19)
    };
    let s = build(config);
    let (seq_stats, seq_sim) = run(&s, config.with_engine(EngineKind::Sequential));
    assert_matches_reference(
        &s,
        &seq_stats,
        &*seq_sim,
        config.with_engine(EngineKind::Sharded).with_shards(64),
        2,
        "sharded/64 > n",
    );
    assert_matches_reference(
        &s,
        &seq_stats,
        &*seq_sim,
        config.with_engine(EngineKind::Incremental).with_shards(64),
        2,
        "incremental/64 > n",
    );
}

#[test]
fn incremental_resumed_mid_run_matches_sequential_under_skew_flash_and_adversaries() {
    // The incremental engine keeps per-subject totals, observer means
    // and its patch caches alive across rounds; a resume drops all of
    // them and rebuilds from the records alone. Skewed traffic with a
    // flash crowd, a mix that purges (whitewash) and distorts (sybil,
    // slander, collusion), neighbourhood scope so the patch path runs —
    // checkpoint in the middle, resume, and the incremental session must
    // end bit-equal to a sequential one that never stopped: stats,
    // records, and the per-subject means the serve layer publishes.
    use differential_gossip::sim::RunSession;

    let mix = AdversaryMix {
        sybil_fraction: 0.08,
        slander_fraction: 0.06,
        whitewash_fraction: 0.06,
        ..AdversaryMix::collusion()
    }
    .validated()
    .expect("mix is valid");
    let config = RunConfig {
        free_rider_fraction: 0.15,
        adversary: mix,
        rounds: 9,
        scope: AggregationScope::Neighbourhood,
        traffic: TrafficModel::full()
            .with_activity(0.1)
            .with_zipf(0.8)
            .with_flash(3, 4.0),
        ..base(29)
    };

    let mut oracle = RunSession::new(config.with_engine(EngineKind::Sequential)).expect("session");
    oracle.run().expect("sequential run");
    assert!(
        oracle.stats().iter().any(|s| s.washes > 0),
        "the mix should purge mid-run"
    );

    let dir = std::env::temp_dir().join(format!("dg_equiv_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut first = RunSession::new(config.with_engine(EngineKind::Incremental)).expect("session");
    first.run_to(4).expect("first half");
    first.checkpoint(&dir).expect("checkpoint");
    drop(first);
    let mut resumed = RunSession::resume(&dir).expect("resume");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(resumed.round(), 4);
    resumed.run().expect("second half");

    assert_eq!(oracle.stats(), resumed.stats(), "stats diverged");
    for (want, got) in oracle.records().iter().zip(&resumed.records()) {
        assert!(want.bits_eq(got), "record of node {} diverged", want.node);
    }
    let bits = |means: Vec<Option<f64>>| -> Vec<Option<u64>> {
        means.into_iter().map(|m| m.map(f64::to_bits)).collect()
    };
    assert_eq!(
        bits(oracle.subject_mean_reputations()),
        bits(resumed.subject_mean_reputations()),
        "subject means diverged"
    );
}
