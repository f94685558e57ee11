//! The incremental engine is a pure optimisation: for the same pinned
//! seeds both its rebuild round and its delta round (gated traffic in
//! closed-form neighbourhood scope) must produce **exactly** the
//! sequential oracle's results — same service counters, same reputation
//! means, same per-node records (aggregated runs included) — at every
//! thread count, every shard count, every traffic activity fraction,
//! with and without an adversarial mix. Each row is a fixed sequence of
//! the session model (`tests/model/mod.rs`). A row about what the delta
//! round keeps runs in neighbourhood scope; where it is also the only
//! check of gated traffic in full scope (the rebuild round), it runs in
//! both scopes.

mod model;

use differential_gossip::gossip::{AdversaryMix, EngineKind};
use differential_gossip::sim::rounds::{AggregationMode, AggregationScope, RoundStats};
use differential_gossip::sim::workload::TrafficModel;
use differential_gossip::sim::RunConfig;
use differential_gossip::trust::audit::AuditPolicy;
use model::*;

fn base(seed: u64) -> RunConfig {
    RunConfig {
        nodes: 90,
        seed,
        free_rider_fraction: 0.2,
        quality_range: (0.4, 1.0),
        ..RunConfig::default()
    }
}

/// `base(seed)` under a nonzero mix exercising every distortion hook:
/// sybil dormancy, collusion cliques, slander, and the whitewash purge.
fn attacked(seed: u64) -> RunConfig {
    let mix = AdversaryMix {
        sybil_fraction: 0.08,
        slander_fraction: 0.06,
        whitewash_fraction: 0.06,
        ..AdversaryMix::collusion()
    };
    let mix = mix.validated().expect("mix is valid");
    base(seed).with_free_riders(0.15).with_adversary(mix)
}

#[test]
fn engines_match_bitwise_in_closed_form_full_scope() {
    check_each(base(41), &ACCELERATED, &rotating_threads(5));
}

#[test]
fn engines_match_bitwise_in_neighbourhood_scope() {
    let config = base(42).with_scope(AggregationScope::Neighbourhood);
    check_each(config, &ACCELERATED, &rotating_threads(5));
}

#[test]
fn engines_match_bitwise_under_real_gossip_aggregation() {
    let mut config = base(13).with_aggregation(AggregationMode::Gossip);
    (config.nodes, config.xi) = (40, 1e-5);
    check_each(config, &ACCELERATED, &rotating_threads(3));
    // Gated traffic under gossip takes the rebuild round too.
    let gated = config.with_traffic(everyone_gated());
    check_each(gated, &[(Incremental, AUTO)], &rotating_threads(3));
}

#[test]
fn engines_match_bitwise_under_adversary_mix() {
    let config = attacked(47).with_scope(AggregationScope::Neighbourhood);
    check_each(config, &ACCELERATED, &rotating_threads(6));
}

#[test]
fn engines_match_bitwise_under_skewed_traffic_and_adversaries() {
    // The incremental engine's reason to exist: most rows clean, hubs
    // hot, periodic flash crowds, adversaries distorting round-keyed —
    // and still bit-equal to the oracle at 100%, 10% and 1% mean
    // activity, at every thread and shard count, in both scopes.
    for scope in [AggregationScope::Full, AggregationScope::Neighbourhood] {
        for fraction in [1.0, 0.1, 0.01] {
            let traffic = TrafficModel::full()
                .with_activity(fraction)
                .with_zipf(0.8)
                .with_flash(3, 4.0);
            check_each(
                attacked(23).with_scope(scope).with_traffic(traffic),
                &ACCELERATED,
                &rotating_threads(6),
            );
        }
    }
}

#[test]
fn engines_match_bitwise_with_audits_convicting() {
    // The audit phase live end to end: a stealth cartel striking on
    // every spot-check, a hot audit rate so convictions (and the purge
    // they trigger) land inside the run, at full and 1% activity, in
    // both scopes.
    let audit = AuditPolicy {
        audit_rate: 0.2,
        ..AuditPolicy::standard()
    };
    for (scope, fraction) in [
        (AggregationScope::Full, 1.0),
        (AggregationScope::Full, 0.01),
        (AggregationScope::Neighbourhood, 1.0),
        (AggregationScope::Neighbourhood, 0.01),
    ] {
        let config = RunConfig {
            free_rider_fraction: 0.15,
            adversary: AdversaryMix::stealth().validated().expect("mix is valid"),
            audit,
            traffic: TrafficModel::full().with_activity(fraction),
            scope,
            ..base(31)
        };
        let oracle = check_each(config, &ACCELERATED, &rotating_threads(8));
        // The row only proves something if the audit machinery fires. At
        // full activity that means convictions (and their purge) land
        // mid-run; at 1% activity cartel members rarely emit a report, so
        // logs stay empty and no strike can accrue — there the live part
        // is the audit sampling itself.
        let total = |f: fn(&RoundStats) -> u64| oracle.stats().iter().map(f).sum::<u64>();
        assert!(total(|r| r.audits) > 0, "no audits at {fraction}");
        let convicted = total(|r| r.convictions) > 0;
        assert!(fraction < 1.0 || convicted, "no convictions");
    }
}

#[test]
fn engines_match_bitwise_when_audit_logs_fill() {
    // Found by `kill_resume_property`: in the delta round, refused free
    // riders leave rows clean while their full report logs still change
    // when re-recorded (evicted subjects come back under the new round).
    // Gated traffic under which everyone requests, in neighbourhood
    // scope, keeps it the delta round.
    let mut audit = AuditPolicy::standard();
    audit.audit_rate = 0.2;
    let config = base(3)
        .with_scope(AggregationScope::Neighbourhood)
        .with_audit(audit)
        .with_traffic(everyone_gated());
    check(config.with_engine(Incremental), &[Run(3)]);
}

#[test]
fn engines_match_bitwise_with_one_hot_shard() {
    // Skew stress for the shard fan-out: Zipf s = 1.5 over a thin
    // activity fraction concentrates almost all traffic on the lowest
    // node ids — with 16 shards that is ONE hot shard while the rest
    // idle. Work stealing between the pool's workers must not change a
    // bit, in either scope.
    let traffic = TrafficModel::full().with_activity(0.1).with_zipf(1.5);
    for scope in [AggregationScope::Full, AggregationScope::Neighbourhood] {
        let config = base(61)
            .with_scope(scope)
            .with_traffic(traffic.with_flash(3, 4.0));
        check_each(config, &ACCELERATED, &rotating_threads(6));
    }
}

#[test]
fn incremental_engine_matches_under_whitewash_purges() {
    // Whitewash-heavy mix at thin traffic: purged rows must be
    // re-emitted from the persistent matrix next round even when their
    // owners stay inactive, or the incremental engine drifts.
    let mut mix = AdversaryMix::none();
    mix.whitewash_fraction = 0.12;
    let mut config = base(53)
        .with_scope(AggregationScope::Neighbourhood)
        .with_free_riders(0.1)
        .with_adversary(mix);
    (config.nodes, config.traffic) = (70, TrafficModel::full().with_activity(0.15));
    let oracle = check(config.with_engine(Incremental), &[Threads(4), Run(8)]);
    let washes: u64 = oracle.stats().iter().map(|s| s.washes).sum();
    assert!(washes > 0, "the mix should purge mid-run");
}

#[test]
fn sharded_engine_is_reproducible_across_repeat_runs() {
    // Two runs of the rebuild round, then two of the delta round, every
    // one equal to the deterministic oracle.
    let twice = [(Incremental, 4); 2];
    let gated = base(77)
        .with_scope(AggregationScope::Neighbourhood)
        .with_traffic(everyone_gated());
    for config in [base(77), gated] {
        check_each(config, &twice, &[Run(4)]);
    }
}

#[test]
fn ingest_only_requesters_fold_under_skew() {
    // At 10% activity most requesters generate no records in a round;
    // their ingested reports must still fold — and dirty their rows — on
    // every engine, in either scope, whether queued in one call or in
    // several.
    let ingest = |salt: u32| {
        let reports = (0..90).step_by(7).map(|r| (r, (r + salt) % 90, Some(0.8)));
        Ingest(reports.collect())
    };
    for scope in [AggregationScope::Full, AggregationScope::Neighbourhood] {
        let traffic = TrafficModel::full().with_activity(0.1);
        let config = base(71).with_scope(scope).with_traffic(traffic);
        for engine in EngineKind::ALL {
            let ops = [ingest(1), Run(1), ingest(2), ingest(3), Run(2)];
            check(config.with_engine(engine), &ops);
        }
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
        /// stays bit-identical to the oracle, over randomized seeds,
        /// activity fractions and traffic skews (including past the Zipf
        /// s = 1 hot-shard knee), in both scopes.
        #[test]
        fn any_steal_order_is_bit_identical(
            seed in 0u64..1000,
            activity in 0.02f64..1.0,
            zipf in 0.0f64..1.6,
        ) {
            let traffic = TrafficModel::full().with_activity(activity).with_zipf(zipf);
            for scope in [AggregationScope::Full, AggregationScope::Neighbourhood] {
                let config = RunConfig { nodes: 48, scope, ..base(seed) }.with_traffic(traffic);
                for threads in [1, 2, 8] {
                    check_each(config, &ACCELERATED[1..], &[Threads(threads), Run(3)]);
                }
            }
        }
    }
}

#[test]
fn sharded_engine_handles_shard_count_above_node_count() {
    // 40 nodes, 64 shards: most shards own a single row, trailing
    // shards own none. Still bit-equal to the oracle, in the rebuild
    // round and in the delta round.
    let config = RunConfig {
        nodes: 40,
        ..base(19)
    };
    let gated = config
        .with_scope(AggregationScope::Neighbourhood)
        .with_traffic(everyone_gated());
    for config in [config, gated] {
        check_each(config, &[(Incremental, 64)], &[Threads(2), Run(3)]);
    }
}

#[test]
fn incremental_resumed_mid_run_matches_sequential_under_skew_flash_and_adversaries() {
    // The incremental engine keeps per-subject totals, observer means
    // and its patch caches alive across rounds; a resume drops all of
    // them and rebuilds from the records alone. Skewed traffic with a
    // flash crowd, a mix that purges (whitewash) and distorts (sybil,
    // slander, collusion), neighbourhood scope so the patch path runs —
    // checkpoint in the middle, resume, and the incremental session must
    // stay bit-equal to the sequential oracle that never stopped.
    let traffic = TrafficModel::full().with_activity(0.1).with_zipf(0.8);
    let config = attacked(29)
        .with_scope(AggregationScope::Neighbourhood)
        .with_traffic(traffic.with_flash(3, 4.0))
        .with_engine(Incremental);
    let resume_as = (Incremental, AUTO);
    let oracle = check(config, &[Run(4), Checkpoint, Crash { resume_as }, Run(5)]);
    let washes: u64 = oracle.stats().iter().map(|s| s.washes).sum();
    assert!(washes > 0, "the mix should purge mid-run");
}
