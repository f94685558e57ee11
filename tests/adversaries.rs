//! Adversary-subsystem invariants.
//!
//! 1. **Determinism** — the same `(seed, mix, defense)` triple replays
//!    the attack bit-for-bit (per-adversary ChaCha8 streams).
//! 2. **Zero-adversary neutrality** — a mix with all fractions at zero
//!    (whatever its structural knobs say) is bit-identical to the plain
//!    honest run: the adversary plumbing costs nothing when unused.
//! 3. **Engine equivalence** — attacks produce identical results under
//!    the sequential oracle and the incremental engine (several shard
//!    counts), with and without the defense policy.
//! 4. **Defenses act** — the robust-aggregation / zero-prior knobs
//!    measurably reduce what attacks extract or distort.
//! 5. **Stealth evasion and its countermeasure** — a within-bounds
//!    cartel provably beats clamp + trim (the honest network's view
//!    moves past the deviation bound the defense is supposed to hold),
//!    while the seeded audit layer convicts deterministically, never
//!    touches an honest node, and vanishes bitwise at rate zero.
//! 6. **The honest residual** — recomputed from the per-subject means a
//!    reader of the run sees, it equals the session's bit for bit, with
//!    every adversary left out (slanderers serve honestly).
//!
//! Properties 1–3 and the audit determinism checks run as sequences of
//! the session model (`tests/model/mod.rs`).

mod model;

use differential_gossip::core::behavior::Behavior;
use differential_gossip::gossip::{AdversaryMix, EngineKind};
use differential_gossip::graph::NodeId;
use differential_gossip::sim::kernel::EngineCore;
use differential_gossip::sim::rounds::{DefensePolicy, RoundStats};
use differential_gossip::sim::{RoundEngine, RunConfig, RunSession, Scenario};
use differential_gossip::trust::audit::AuditPolicy;
use model::Op::Run;
use proptest::prelude::*;
use rand::RngCore;
use std::sync::Arc;

fn scenario_config(seed: u64, mix: AdversaryMix) -> RunConfig {
    RunConfig {
        nodes: 120,
        seed,
        free_rider_fraction: 0.1,
        quality_range: (0.4, 1.0),
        ..RunConfig::default()
    }
    .with_adversary(mix)
}

/// Build `config`'s scenario and engine and run all its rounds on seeds
/// drawn from gossip stream 2.
fn drive(config: RunConfig) -> (Arc<Scenario>, RoundEngine, Vec<RoundStats>) {
    let scenario = Arc::new(Scenario::build(config).expect("scenario builds"));
    let mut engine = RoundEngine::new(Arc::clone(&scenario));
    let mut rng = scenario.gossip_rng(2);
    let stats = (0..config.rounds)
        .map(|_| engine.run_round(rng.next_u64()).expect("round runs"))
        .collect();
    (scenario, engine, stats)
}

/// The stats history and the honest residual of a run.
fn run(config: RunConfig) -> (Vec<RoundStats>, Option<f64>) {
    let (_, engine, stats) = drive(config);
    (stats, engine.core().honest_residual())
}

/// Attack mix number `kind`: the all-zero mix, or a preset with its
/// fraction jittered to `0.1 × strength`.
fn mix_for(kind: usize, strength: u8) -> AdversaryMix {
    let preset = ["none", "sybil", "collusion", "slander", "whitewash"][kind];
    let spec = match kind {
        0 => preset.to_string(),
        _ => format!("{preset}:{preset}_fraction={}", 0.1 * strength as f64),
    };
    AdversaryMix::parse(&spec).expect("known preset")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn same_seed_and_mix_replays_bit_for_bit(
        seed in 0u64..1000,
        pick in (0usize..5, 1u8..=3),
        engine in 0..EngineKind::ALL.len(),
    ) {
        // Any engine replaying the attack equals the sequential oracle's
        // independent run — stats, records and residual.
        let (kind, strength) = pick;
        let config = scenario_config(seed, mix_for(kind, strength))
            .with_engine(EngineKind::ALL[engine]);
        model::check(config, &[Run(4)]);
    }
}

#[test]
fn zero_fraction_mix_is_bit_identical_to_honest_run() {
    // Non-default structural knobs, but all fractions zero: the run must
    // be indistinguishable from one with no adversary config at all.
    let zero_mix = AdversaryMix {
        sybil_ring: 3,
        sybil_spawn_rate: 0.5,
        collusion_clique: 9,
        slander_factor: 0.7,
        wash_threshold: 0.9,
        ..AdversaryMix::none()
    };
    let honest = scenario_config(11, AdversaryMix::none());
    let zeroed = honest.with_adversary(zero_mix);
    let a = Scenario::build(honest).unwrap();
    let b = Scenario::build(zeroed).unwrap();
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.population, b.population);
    assert_eq!(a.trust(), b.trust());
    assert!(b.adversaries.is_none());
    for engine in EngineKind::ALL {
        model::check_against(honest, zeroed.with_engine(engine), &[Run(5)]);
    }
}

#[test]
fn engines_agree_bit_for_bit_under_attack() {
    // The most stateful attack paths — spawning sybils and whitewash
    // purges — must not break equivalence with the oracle, at 1, 4 and
    // 16 shards, with and without the defense policy.
    let mix = AdversaryMix {
        sybil_fraction: 0.15,
        whitewash_fraction: 0.1,
        slander_fraction: 0.1,
        ..AdversaryMix::none()
    };
    for defense in [DefensePolicy::none(), DefensePolicy::defended()] {
        let config = scenario_config(23, mix).with_defense(defense);
        let shards = [1, 4, 16].map(|shards| (EngineKind::Incremental, shards));
        model::check_each(config, &shards, &[Run(6)]);
    }
}

/// Per-subject mean reputation over honest (non-adversary) observers —
/// the view the operational network acts on.
fn honest_observer_means(core: &EngineCore, scenario: &Scenario) -> Vec<Option<f64>> {
    let n = scenario.graph.node_count();
    (0..n)
        .map(|s| {
            let (mut acc, mut count) = (0.0, 0usize);
            for o in 0..n {
                if scenario.adversaries.is_adversary(NodeId(o as u32)) {
                    continue;
                }
                if let Some(v) = core.aggregated(NodeId(o as u32), NodeId(s as u32)) {
                    acc += v;
                    count += 1;
                }
            }
            (count > 0).then(|| acc / count as f64)
        })
        .collect()
}

#[test]
fn stealth_cartel_evades_clamp_and_trim() {
    // The evasion proof behind the audit subsystem: the stealth preset
    // biases every report *inside* the defended clamp window, so the
    // clamp never touches a value and the 20%-per-tail trim cannot
    // outvote a 45% correlated mass — honest reputations (as honest
    // observers see them) move beyond the 0.1 deviation bound the
    // defended runs are elsewhere required to hold. Mirrors the claims
    // gate's stealth arm (N = 250, pinned seed 42).
    let defended_means = |mix: AdversaryMix| {
        let config = RunConfig {
            nodes: 250,
            seed: 42,
            ..scenario_config(0, mix)
        }
        .with_rounds(40)
        .with_defense(DefensePolicy::defended());
        let (scenario, engine, _) = drive(config);
        let means = honest_observer_means(engine.core(), &scenario);
        (scenario, means)
    };

    let (_, ref_means) = defended_means(AdversaryMix::none());
    let (attacked, atk_means) = defended_means(AdversaryMix::stealth());

    let (mut acc, mut count) = (0.0, 0usize);
    for v in attacked.graph.nodes() {
        let honest = !attacked.adversaries.is_adversary(v)
            && matches!(attacked.population.behavior(v), Behavior::Honest { .. });
        if !honest {
            continue;
        }
        if let (Some(a), Some(r)) = (atk_means[v.index()], ref_means[v.index()]) {
            acc += (a - r).abs();
            count += 1;
        }
    }
    assert!(count > 100, "too few comparable honest subjects: {count}");
    let deviation = acc / count as f64;
    assert!(
        deviation > 0.1,
        "stealth cartel failed to evade the defense: honest deviation \
         {deviation:.4} never exceeded the 0.1 bound"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The audit layer's three load-bearing properties hold for
    /// arbitrary (seed, clique size, bias, audit rate), not just the
    /// pinned claims configuration:
    ///
    /// * convictions are a deterministic function of the seed — the
    ///   model's two independent runs convict the identical set, round
    ///   for round;
    /// * no honest node is ever convicted (honest reports re-verify
    ///   bit-exactly, so no tolerance can strike them);
    /// * a zero audit rate is bit-identical to [`AuditPolicy::off`],
    ///   whatever the other audit knobs say — the subsystem costs
    ///   nothing when disabled.
    #[test]
    fn audits_convict_deterministically_and_never_strike_honest_nodes(
        seed in 0u64..1000,
        clique in 2usize..8,
        bias in 0.2f64..1.0,
        rate in 0.05f64..0.3,
    ) {
        let mix = AdversaryMix {
            stealth_fraction: 0.3,
            stealth_clique: clique,
            stealth_bias: bias,
            ..AdversaryMix::none()
        }.validated().expect("mix is valid");
        let config = scenario_config(seed, mix).with_defense(DefensePolicy::defended());
        let audit = AuditPolicy { audit_rate: rate, ..AuditPolicy::standard() };

        let audited = model::check(config.with_audit(audit), &[Run(6)]);
        let scenario = Scenario::build(config).expect("scenario builds");
        for (node, round) in audited.convicted() {
            prop_assert!(
                scenario.adversaries.is_adversary(node),
                "honest node {node} convicted at round {round}"
            );
        }

        let zero_rate = config.with_audit(AuditPolicy { audit_rate: 0.0, ..audit });
        let off = model::check_against(config.with_audit(AuditPolicy::off()), zero_rate, &[Run(6)]);
        prop_assert!(off.convicted().is_empty());
    }
}

#[test]
fn whitewashers_wash_and_zero_prior_starves_them() {
    let mix = AdversaryMix::whitewash();
    let config = scenario_config(5, mix).with_rounds(8);
    let (open, _) = run(config);
    let (defended, _) = run(config.with_defense(DefensePolicy::defended()));

    // The attack actually exercises identity churn.
    assert!(
        open.iter().map(|s| s.washes).sum::<u64>() > 0,
        "no washes happened"
    );
    // Under the optimistic default every fresh identity gets a
    // honeymoon; the zero-prior rule removes it.
    let open_rate = open.last().unwrap().adversary_service_rate();
    let defended_rate = defended.last().unwrap().adversary_service_rate();
    assert!(
        defended_rate < open_rate,
        "zero prior should starve washers: open {open_rate} vs defended {defended_rate}"
    );
    assert!(defended_rate < 0.25, "defended rate {defended_rate}");
    // Honest nodes keep their service under the defense.
    assert!(defended.last().unwrap().honest_service_rate() > 0.75);
}

#[test]
fn slander_residual_shrinks_under_robust_aggregation() {
    let mix = AdversaryMix {
        slander_fraction: 0.3,
        ..AdversaryMix::slander()
    };
    let config = scenario_config(7, mix).with_rounds(6);
    let (_, open) = run(config);
    let (_, defended) = run(config.with_defense(DefensePolicy::defended()));
    let (open, defended) = (open.unwrap(), defended.unwrap());
    assert!(
        defended < open,
        "robust aggregation should shrink the slander residual: open {open} vs defended {defended}"
    );
}

/// The session's honest residual recomputed from what a reader of the
/// run sees: the per-subject mean reputations, the latent qualities, and
/// who is an honest non-adversary. Slanderers serve honestly — their
/// behaviour is `Honest` — so only the adversary test keeps them out.
#[test]
fn honest_residual_is_recomputed_from_subject_means() {
    let mix = AdversaryMix {
        slander_fraction: 0.3,
        ..AdversaryMix::slander()
    };
    let config = scenario_config(7, mix).with_rounds(4);
    let mut session = RunSession::new(config).expect("session builds");
    session.run().expect("rounds run");
    let scenario = Scenario::build(config).expect("scenario builds");
    let qualities = scenario.population.latent_qualities();
    let means = session.subject_mean_reputations();

    let (mut err, mut count, mut slandered) = (0.0, 0usize, 0usize);
    for (j, mean) in means.iter().enumerate() {
        let node = NodeId(j as u32);
        let Some(mean) = mean else { continue };
        let honest = matches!(scenario.population.behavior(node), Behavior::Honest { .. });
        if scenario.adversaries.is_adversary(node) {
            slandered += usize::from(honest);
            continue;
        }
        if honest {
            err += (mean - qualities[j]).abs();
            count += 1;
        }
    }
    assert!(slandered > 0, "no scored slanderer with honest behaviour");
    let expected = (count > 0).then(|| err / count as f64);
    assert_eq!(
        session.honest_residual().map(f64::to_bits),
        expected.map(f64::to_bits)
    );
}

#[test]
fn sybil_ring_extraction_is_curbed_by_the_defense() {
    let mix = AdversaryMix::sybil();
    let config = scenario_config(9, mix).with_rounds(8);
    let (open, _) = run(config);
    let (defended, _) = run(config.with_defense(DefensePolicy::defended()));
    let open_rate = open.last().unwrap().adversary_service_rate();
    let defended_rate = defended.last().unwrap().adversary_service_rate();
    assert!(
        defended_rate <= open_rate,
        "defense must not increase sybil service: open {open_rate} vs defended {defended_rate}"
    );
    assert!(
        defended.last().unwrap().honest_service_rate() > 0.75,
        "honest service survived the defense"
    );
}
