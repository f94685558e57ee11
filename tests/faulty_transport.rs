//! Faulty-network runtime pins: a zero-fault `FaultyNetwork` draws
//! nothing from its fault streams (the reliable network's bits are the
//! goldens' lossless rows), pinned-seed faulty runs are reproducible,
//! 100 % loss degrades gracefully, the mass ledger closes exactly, and
//! every preset's outcome bits are pinned as goldens.

use differential_gossip::gossip::profile::NetworkProfile;
use differential_gossip::gossip::{AdversaryMix, GossipPair};
use differential_gossip::graph::pa::{preferential_attachment, PaConfig};
use differential_gossip::graph::{Graph, NodeId};
use differential_gossip::p2p::transport::{Envelope, PeerMsg};
use differential_gossip::p2p::{
    resume_distributed, run_distributed, run_with_transport, DistributedConfig, DistributedOutcome,
    FaultyNetwork,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn pa_graph(nodes: usize, m: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    preferential_attachment(PaConfig { nodes, m }, &mut rng).expect("valid PA config")
}

fn averaging_initial(n: usize, seed: u64) -> Vec<GossipPair> {
    (0..n)
        .map(|i| GossipPair::originator(((i as u64 * 31 + seed) % 97) as f64 / 97.0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A `FaultyNetwork` with loss = 0, delay = 0, churn = 0 is the
    /// reliable network: on random topologies its runs do not depend on
    /// the transport seed (no link draws from its stream) and its ledger
    /// stays clean.
    #[test]
    fn zero_fault_transport_is_bit_identical_to_reliable(
        nodes in 8usize..40,
        m in 1usize..3,
        graph_seed in 0u64..1000,
        run_seed in 0u64..1000,
    ) {
        let graph = pa_graph(nodes, m, graph_seed);
        let initial = averaging_initial(nodes, graph_seed);
        let config = DistributedConfig {
            xi: 1e-5,
            seed: run_seed,
            max_rounds: 2_000,
            ..DistributedConfig::default()
        };
        let lossless = run_distributed(&graph, config, initial.clone()).expect("lossless run");
        let reseeded = run_with_transport(
                &graph,
                config,
                initial,
                FaultyNetwork::new(
                    nodes,
                    NetworkProfile::lossless(),
                    !config.seed,
                    config.max_rounds as u64,
                ),
            )
            .expect("reseeded run");
        prop_assert!(lossless.ledger.is_clean());
        prop_assert_eq!(lossless, reseeded);
    }
}

/// The acceptance pin: two runs of the same faulty profile on the same
/// seed produce identical convergence results — rounds, estimates, pairs
/// and ledger, bit for bit.
#[test]
fn pinned_seed_faulty_runs_are_identical() {
    let graph = pa_graph(100, 2, 12);
    let run = |profile: NetworkProfile| -> DistributedOutcome {
        run_distributed(
            &graph,
            DistributedConfig {
                xi: 1e-4,
                seed: 77,
                max_rounds: 3_000,
                profile,
                ..DistributedConfig::default()
            },
            averaging_initial(100, 12),
        )
        .expect("faulty run")
    };
    for profile in [
        NetworkProfile::lossy(),
        NetworkProfile::partitioned(),
        NetworkProfile::churning(),
    ] {
        let a = run(profile);
        let b = run(profile);
        assert_eq!(a, b, "profile {} not reproducible", profile.label());
    }
}

/// 100 % loss with detection: every push bounces, nobody ever hears a
/// neighbour, the run terminates at the round cap and reports
/// non-convergence — with all mass conserved (every share re-credited).
#[test]
fn total_loss_with_detection_terminates_at_cap() {
    let graph = pa_graph(20, 2, 3);
    let initial = averaging_initial(20, 3);
    let total: GossipPair = initial.iter().copied().sum();
    let mut profile = NetworkProfile::lossless();
    profile.loss = 1.0;
    let out = run_distributed(
        &graph,
        DistributedConfig {
            xi: 1e-4,
            seed: 5,
            max_rounds: 50,
            profile,
            ..DistributedConfig::default()
        },
        initial,
    )
    .expect("run");
    assert_eq!(out.rounds, 50, "must exhaust the round cap");
    assert!(!out.converged, "total blackout cannot converge");
    assert!(out.ledger.shares_recredited > 0);
    assert!(out.ledger.lost.is_zero(), "detection conserves mass");
    let mass = out.total_pair();
    assert!((mass.value - total.value).abs() < 1e-9);
    assert!((mass.weight - total.weight).abs() < 1e-9);
}

/// 100 % undetected (UDP-like) loss: the run still terminates at the cap
/// and reports non-convergence, and the ledger accounts for every drop —
/// final mass = initial − lost.
#[test]
fn total_undetected_loss_surfaces_destroyed_mass() {
    let graph = pa_graph(20, 2, 3);
    let initial = averaging_initial(20, 3);
    let total: GossipPair = initial.iter().copied().sum();
    let mut profile = NetworkProfile::lossless();
    profile.loss = 1.0;
    profile.detect_loss = false;
    let out = run_distributed(
        &graph,
        DistributedConfig {
            xi: 1e-4,
            seed: 5,
            max_rounds: 50,
            profile,
            ..DistributedConfig::default()
        },
        initial,
    )
    .expect("run");
    assert_eq!(out.rounds, 50);
    assert!(!out.converged);
    assert!(out.ledger.shares_lost > 0);
    let mass = out.total_pair();
    let expected = out.ledger.expected_total(total);
    assert!(
        (mass.value - expected.value).abs() < 1e-9,
        "ledger must close: {} vs {}",
        mass.value,
        expected.value
    );
    assert!((mass.weight - expected.weight).abs() < 1e-9);
}

/// A partition delays convergence but heals: the run converges after the
/// window and both halves agree on the global mean.
#[test]
fn partitioned_network_heals_and_converges() {
    let graph = pa_graph(80, 2, 9);
    let initial = averaging_initial(80, 9);
    let mean = initial.iter().map(|p| p.value).sum::<f64>() / 80.0;
    let out = run_distributed(
        &graph,
        DistributedConfig {
            xi: 1e-5,
            seed: 33,
            max_rounds: 5_000,
            profile: NetworkProfile::partitioned(),
            ..DistributedConfig::default()
        },
        initial,
    )
    .expect("run");
    assert!(out.converged, "partition must heal within the cap");
    let window = NetworkProfile::partitioned().partition.expect("preset");
    assert!(
        out.rounds as u64 >= window.until_round,
        "cannot converge while cut ({} rounds)",
        out.rounds
    );
    for (i, e) in out.estimates.iter().enumerate() {
        assert!((e - mean).abs() < 1e-2, "peer {i}: {e} vs {mean}");
    }
}

/// A digest of every bit of `out` the goldens pin: pairs, estimates,
/// active rounds, audits answered and every `MassLedger` field (64-bit
/// words folded FNV-1a style).
fn outcome_digest(out: &DistributedOutcome) -> u64 {
    let l = &out.ledger;
    let pair_bits = |p: &GossipPair| [p.value.to_bits(), p.weight.to_bits()];
    out.pairs
        .iter()
        .flat_map(pair_bits)
        .chain(out.estimates.iter().map(|e| e.to_bits()))
        .chain(out.active_rounds.iter().copied())
        .chain(out.audits_answered.iter().copied())
        .chain(
            [l.lost, l.duplicated, l.recredited]
                .iter()
                .flat_map(pair_bits),
        )
        .chain([
            l.shares_lost,
            l.shares_duplicated,
            l.shares_recredited,
            l.announces_lost,
        ])
        .fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The golden rows: every preset × {no mix, slander 0.2} × seeds
/// {3, 21, 77} on one 60-node PA graph, one run with audit probes
/// injected before round 0, and one run checkpointed after 6 rounds and
/// resumed.
fn golden_rows() -> Vec<(String, DistributedOutcome)> {
    let graph = pa_graph(60, 2, 8);
    let config = |seed: u64, profile: NetworkProfile, adversary: AdversaryMix| DistributedConfig {
        xi: 1e-4,
        seed,
        max_rounds: 5_000,
        profile,
        adversary,
        ..DistributedConfig::default()
    };
    let slander = AdversaryMix {
        slander_fraction: 0.2,
        ..AdversaryMix::none()
    };
    let mut rows = Vec::new();
    for name in NetworkProfile::PRESETS {
        let profile = NetworkProfile::parse(name).expect("preset");
        for (mix, adversary) in [("none", AdversaryMix::none()), ("slander", slander)] {
            for seed in [3, 21, 77] {
                let out = run_distributed(
                    &graph,
                    config(seed, profile, adversary),
                    averaging_initial(60, seed),
                )
                .expect("run");
                rows.push((format!("{name}/{mix}/{seed}"), out));
            }
        }
    }

    let lossy = config(21, NetworkProfile::lossy(), AdversaryMix::none());
    let mut net = FaultyNetwork::new(60, lossy.profile, lossy.seed, lossy.max_rounds as u64);
    for (i, target) in [0u32, 5, 17].into_iter().enumerate() {
        let probe = Envelope {
            from: NodeId(graph.neighbours(NodeId(target))[0]),
            seq: u64::MAX - i as u64,
            deliver_at: 0,
            msg: PeerMsg::AuditProbe { nonce: i as u64 },
        };
        net.inject(NodeId(target), probe);
    }
    let out =
        run_with_transport(&graph, lossy, averaging_initial(60, 21), net).expect("probed run");
    rows.push(("lossy/probed/21".into(), out));

    let first = config(77, NetworkProfile::lossy(), slander);
    let partial = run_distributed(
        &graph,
        DistributedConfig {
            max_rounds: 6,
            ..first
        },
        averaging_initial(60, 77),
    )
    .expect("first segment");
    let out =
        resume_distributed(&graph, first, partial.checkpoint(first.seed)).expect("resumed segment");
    rows.push(("lossy/slander/77/resumed".into(), out));
    rows
}

/// The p2p deployment's outcomes, pinned bit for bit as they were when
/// every peer ran as its own task on an async runtime: a change to how
/// peers are driven must not move one bit of any row.
#[test]
fn p2p_outcomes_match_the_tokio_runtime() {
    const GOLDEN: &[(&str, usize, bool, u64)] = &[
        ("lossless/none/3", 67, true, 0xead4000a9666bf51),
        ("lossless/none/21", 79, true, 0x92d671f99b0cfcd7),
        ("lossless/none/77", 74, true, 0xba083284c87b4d6b),
        ("lossless/slander/3", 68, true, 0xf1ebd78aaed68d68),
        ("lossless/slander/21", 77, true, 0x803f54da170b872b),
        ("lossless/slander/77", 83, true, 0x4d2ff5a564cc6d49),
        ("lossy/none/3", 112, true, 0x6c9af4d60644e240),
        ("lossy/none/21", 111, true, 0xd18041def7bc8419),
        ("lossy/none/77", 118, true, 0xad110cd929a5341d),
        ("lossy/slander/3", 159, true, 0x1e287b987f8c386f),
        ("lossy/slander/21", 100, true, 0x30e4084e5f800826),
        ("lossy/slander/77", 122, true, 0xd0a2982bb6ed535e),
        ("partitioned/none/3", 83, true, 0x3936e923ad20b246),
        ("partitioned/none/21", 77, true, 0x3949f6adbd3abee3),
        ("partitioned/none/77", 75, true, 0x51ac7d2bf54ddbe8),
        ("partitioned/slander/3", 78, true, 0x3a16c77ed8c804e1),
        ("partitioned/slander/21", 95, true, 0x6788a6c7f8f26440),
        ("partitioned/slander/77", 98, true, 0x15f10e00429378de),
        ("churning/none/3", 107, true, 0x2ec5883f2b352867),
        ("churning/none/21", 180, true, 0xc864581626124863),
        ("churning/none/77", 189, true, 0xfeea9a3f4635bc11),
        ("churning/slander/3", 118, true, 0x89811ff05b0353c4),
        ("churning/slander/21", 152, true, 0xc5fcef02b30d5a85),
        ("churning/slander/77", 153, true, 0xa9418cb13453d2de),
        ("lossy/probed/21", 125, true, 0x6f9e7793adc27028),
        ("lossy/slander/77/resumed", 140, true, 0xf4113134bdea6c3d),
    ];
    let rows = golden_rows();
    let got: Vec<(&str, usize, bool, u64)> = rows
        .iter()
        .map(|(label, out)| {
            (
                label.as_str(),
                out.rounds,
                out.converged,
                outcome_digest(out),
            )
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(label, rounds, converged, digest)| {
            format!("        ({label:?}, {rounds}, {converged}, {digest:#018x}),\n")
        })
        .collect();
    assert_eq!(got, GOLDEN, "p2p outcomes moved; this run's rows:\n{table}");
}

/// Churn keeps the run reproducible and mass-conserving (crashed nodes
/// retain their pairs; blackout drops bounce back to senders).
#[test]
fn churning_network_conserves_mass() {
    let graph = pa_graph(60, 2, 4);
    let initial = averaging_initial(60, 4);
    let total: GossipPair = initial.iter().copied().sum();
    let out = run_distributed(
        &graph,
        DistributedConfig {
            xi: 1e-4,
            seed: 13,
            max_rounds: 4_000,
            profile: NetworkProfile::churning(),
            ..DistributedConfig::default()
        },
        initial,
    )
    .expect("run");
    let mass = out.total_pair();
    let expected = out.ledger.expected_total(total);
    assert!((mass.value - expected.value).abs() < 1e-9);
    assert!((mass.weight - expected.weight).abs() < 1e-9);
}
