//! The sharded and incremental round engines are pure
//! optimisations: for the same pinned seeds they must produce
//! **exactly** the sequential reference driver's results — same service
//! counters, same reputation means, same per-pair aggregated
//! reputations, same reputation tables — at every thread count, every
//! shard count, every traffic activity fraction, with and without an
//! adversarial mix.

use differential_gossip::gossip::{AdversaryMix, EngineKind};
use differential_gossip::graph::NodeId;
use differential_gossip::sim::rounds::{
    AggregationMode, AggregationScope, RoundStats, RoundsConfig, RoundsSimulator,
};
use differential_gossip::sim::scenario::{Scenario, ScenarioConfig};
use differential_gossip::sim::workload::TrafficModel;
use differential_gossip::trust::audit::AuditPolicy;
use rayon::ThreadPoolBuilder;
use std::sync::Arc;

/// Shard counts the sharded engine is pinned at: one shard (the flat
/// degenerate case), more shards than fit evenly — 16 shards over 90
/// nodes leaves trailing shards short — and 64, where most shards own
/// a row or two and the work-stealing scheduler gets real block
/// migration at every tested thread count.
const SHARD_COUNTS: [usize; 3] = [1, 16, 64];

fn build(config: ScenarioConfig) -> Arc<Scenario> {
    Arc::new(Scenario::build(config).expect("scenario builds"))
}

fn scenario(seed: u64) -> Arc<Scenario> {
    build(ScenarioConfig {
        nodes: 90,
        seed,
        free_rider_fraction: 0.2,
        quality_range: (0.4, 1.0),
        ..ScenarioConfig::default()
    })
}

fn run(scenario: &Arc<Scenario>, config: RoundsConfig) -> (Vec<RoundStats>, RoundsSimulator) {
    let mut sim = RoundsSimulator::new(Arc::clone(scenario), config);
    let mut rng = scenario.gossip_rng(6);
    let stats = sim.run(&mut rng).expect("rounds");
    (stats, sim)
}

fn assert_matches_reference(
    scenario: &Arc<Scenario>,
    seq_stats: &[RoundStats],
    seq_sim: &RoundsSimulator,
    config: RoundsConfig,
    threads: usize,
    what: &str,
) {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    let (stats, sim) = pool.install(|| run(scenario, config));
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
        let observer = NodeId(observer);
        assert_eq!(
            seq_sim.table(observer).iter().collect::<Vec<_>>(),
            sim.table(observer).iter().collect::<Vec<_>>(),
            "table of {observer} diverged: {what} at {threads}t"
        );
    }
}

fn assert_equivalent(scenario: &Arc<Scenario>, config: RoundsConfig) {
    let (seq_stats, seq_sim) = run(scenario, config.with_engine(EngineKind::Sequential));

    for threads in [1usize, 2, 8] {
        assert_matches_reference(
            scenario,
            &seq_stats,
            &seq_sim,
            config.with_engine(EngineKind::Incremental),
            threads,
            "incremental",
        );
        for shards in SHARD_COUNTS {
            assert_matches_reference(
                scenario,
                &seq_stats,
                &seq_sim,
                config.with_engine(EngineKind::Sharded).with_shards(shards),
                threads,
                &format!("sharded/{shards}"),
            );
        }
    }
}

#[test]
fn engines_match_bitwise_in_closed_form_full_scope() {
    let s = scenario(41);
    assert_equivalent(
        &s,
        RoundsConfig {
            rounds: 5,
            ..RoundsConfig::default()
        },
    );
}

#[test]
fn engines_match_bitwise_in_neighbourhood_scope() {
    let s = scenario(42);
    assert_equivalent(
        &s,
        RoundsConfig {
            rounds: 5,
            scope: AggregationScope::Neighbourhood,
            ..RoundsConfig::default()
        },
    );
}

#[test]
fn engines_match_bitwise_under_real_gossip_aggregation() {
    let s = build(ScenarioConfig {
        nodes: 40,
        seed: 13,
        free_rider_fraction: 0.2,
        quality_range: (0.4, 1.0),
        ..ScenarioConfig::default()
    });
    assert_equivalent(
        &s,
        RoundsConfig {
            rounds: 3,
            aggregation: AggregationMode::Gossip,
            ..RoundsConfig::default()
        }
        .with_xi(1e-5),
    );
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
    let s = build(ScenarioConfig {
        nodes: 90,
        seed: 47,
        free_rider_fraction: 0.15,
        quality_range: (0.4, 1.0),
        adversary: mix,
        ..ScenarioConfig::default()
    });
    assert_equivalent(
        &s,
        RoundsConfig {
            rounds: 6,
            scope: AggregationScope::Neighbourhood,
            ..RoundsConfig::default()
        },
    );
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
        let s = build(ScenarioConfig {
            nodes: 90,
            seed: 23,
            free_rider_fraction: 0.15,
            quality_range: (0.4, 1.0),
            adversary: mix,
            ..ScenarioConfig::default()
        });
        assert_equivalent(
            &s,
            RoundsConfig {
                rounds: 6,
                ..RoundsConfig::default()
            }
            .with_traffic(traffic),
        );
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
        let s = build(ScenarioConfig {
            nodes: 90,
            seed: 31,
            free_rider_fraction: 0.15,
            quality_range: (0.4, 1.0),
            adversary: mix,
            ..ScenarioConfig::default()
        });
        let config = RoundsConfig {
            rounds: 8,
            ..RoundsConfig::default()
        }
        .with_audit(audit)
        .with_traffic(TrafficModel::full().with_activity(fraction));
        // The row only proves something if the audit machinery actually
        // fires. At full activity that means convictions (and the purge
        // they trigger) land mid-run; at 1% activity cartel members
        // rarely emit a report, so logs stay empty and no strike can
        // accrue — there the live part is the audit sampling itself.
        let (seq_stats, _) = run(&s, config.with_engine(EngineKind::Sequential));
        let audits: u64 = seq_stats.iter().map(|r| r.audits).sum();
        assert!(audits > 0, "no audits ran at activity {fraction}");
        if fraction == 1.0 {
            let convictions: u64 = seq_stats.iter().map(|r| r.convictions).sum();
            assert!(convictions > 0, "no convictions at full activity");
        }
        assert_equivalent(&s, config);
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
    let s = scenario(61);
    let traffic = TrafficModel::full()
        .with_activity(0.1)
        .with_zipf(1.5)
        .with_flash(3, 4.0);
    assert_equivalent(
        &s,
        RoundsConfig {
            rounds: 6,
            ..RoundsConfig::default()
        }
        .with_traffic(traffic),
    );
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
    let s = build(ScenarioConfig {
        nodes: 70,
        seed: 53,
        free_rider_fraction: 0.1,
        quality_range: (0.4, 1.0),
        adversary: mix,
        ..ScenarioConfig::default()
    });
    let config = RoundsConfig {
        rounds: 8,
        ..RoundsConfig::default()
    }
    .with_traffic(TrafficModel::full().with_activity(0.15));
    let (seq_stats, seq_sim) = run(&s, config.with_engine(EngineKind::Sequential));
    assert_matches_reference(
        &s,
        &seq_stats,
        &seq_sim,
        config.with_engine(EngineKind::Incremental),
        4,
        "incremental under whitewash",
    );
}

#[test]
fn sharded_engine_is_reproducible_across_repeat_runs() {
    let s = scenario(77);
    for engine in [EngineKind::Sharded, EngineKind::Incremental] {
        let config = RoundsConfig {
            rounds: 4,
            ..RoundsConfig::default()
        }
        .with_engine(engine)
        .with_shards(4);
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
            let s = build(ScenarioConfig {
                nodes: 48,
                seed,
                free_rider_fraction: 0.2,
                quality_range: (0.4, 1.0),
                ..ScenarioConfig::default()
            });
            let config = RoundsConfig {
                rounds: 3,
                ..RoundsConfig::default()
            }
            .with_traffic(TrafficModel::full().with_activity(activity).with_zipf(zipf));
            let (seq_stats, seq_sim) = run(&s, config.with_engine(EngineKind::Sequential));
            for threads in [1usize, 2, 8] {
                for shards in SHARD_COUNTS {
                    assert_matches_reference(
                        &s,
                        &seq_stats,
                        &seq_sim,
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
    let s = build(ScenarioConfig {
        nodes: 40,
        seed: 19,
        free_rider_fraction: 0.2,
        quality_range: (0.4, 1.0),
        ..ScenarioConfig::default()
    });
    let config = RoundsConfig {
        rounds: 3,
        ..RoundsConfig::default()
    };
    let (seq_stats, seq_sim) = run(&s, config.with_engine(EngineKind::Sequential));
    assert_matches_reference(
        &s,
        &seq_stats,
        &seq_sim,
        config.with_engine(EngineKind::Sharded).with_shards(64),
        2,
        "sharded/64 > n",
    );
    assert_matches_reference(
        &s,
        &seq_stats,
        &seq_sim,
        config.with_engine(EngineKind::Incremental).with_shards(64),
        2,
        "incremental/64 > n",
    );
}
