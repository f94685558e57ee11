//! End-to-end: scenario construction → workload trust estimation → all
//! four aggregation algorithms → agreement with the analytical limits.

use differential_gossip::core::algorithms::{alg1, alg2, alg3, alg4};
use differential_gossip::core::ReputationSystem;
use differential_gossip::gossip::GossipConfig;
use differential_gossip::graph::NodeId;
use differential_gossip::sim::scenario::TrustSource;
use differential_gossip::sim::{RunConfig, Scenario};

fn scenario() -> Scenario {
    Scenario::build(RunConfig {
        nodes: 60,
        seed: 424242,
        trust_source: TrustSource::Workload {
            transactions_per_edge: 25,
        },
        ..RunConfig::default()
    })
    .expect("scenario builds")
}

fn config() -> GossipConfig {
    GossipConfig::differential(1e-9).expect("valid config")
}

#[test]
fn alg1_matches_closed_form_on_workload_trust() {
    let s = scenario();
    let system = s.system().expect("system");
    let subject = NodeId(3);
    let reference = system
        .global_reputation(subject)
        .expect("node 3 has neighbours, hence opinions");
    let mut rng = s.gossip_rng(1);
    let out = alg1::run(&system, subject, config(), &mut rng).expect("alg1");
    assert!(out.converged);
    for (i, est) in out.estimates.iter().enumerate() {
        let est = est.expect("mass everywhere after convergence");
        assert!(
            (est - reference).abs() < 1e-3,
            "node {i}: {est} vs {reference}"
        );
    }
}

#[test]
fn alg2_blends_neighbour_reports() {
    let s = scenario();
    let system = s.system().expect("system");
    let subject = NodeId(10);
    let mut rng = s.gossip_rng(2);
    let out = alg2::run(&system, subject, config(), &mut rng).expect("alg2");
    assert!(out.converged);
    for i in 0..60u32 {
        let est = out.estimates[i as usize].expect("mass everywhere");
        let reference = system.gclr(NodeId(i), subject).expect("defined");
        assert!(
            (est - reference).abs() < 1e-2,
            "observer {i}: {est} vs {reference}"
        );
    }
}

#[test]
fn alg3_and_alg4_cover_every_rated_subject() {
    let s = scenario();
    let system = s.system().expect("system");
    let mut rng = s.gossip_rng(3);
    let v3 = alg3::run(&system, config(), &mut rng).expect("alg3");
    let v4 = alg4::run(&system, config(), &mut rng).expect("alg4");
    assert!(v3.converged && v4.converged);

    // Every node got rated by its neighbours in the workload, so every
    // node appears as a subject at every observer.
    for observer in 0..60usize {
        assert_eq!(v3.estimates[observer].len(), 60, "observer {observer} (v3)");
        assert_eq!(v4.estimates[observer].len(), 60, "observer {observer} (v4)");
    }

    // Variation 3 is observer-independent (global); Variation 4 differs
    // across observers but stays within [0, 1] and correlates with v3.
    for j in 0..60u32 {
        let g3 = v3.estimate(NodeId(0), NodeId(j)).expect("estimate");
        for observer in 1..60u32 {
            let other = v3.estimate(NodeId(observer), NodeId(j)).expect("estimate");
            assert!(
                (g3 - other).abs() < 1e-3,
                "v3 not global at ({observer},{j})"
            );
        }
        let g4 = v4.estimate(NodeId(0), NodeId(j)).expect("estimate");
        assert!((0.0..=1.0).contains(&g4));
    }
}

#[test]
fn estimated_reputation_tracks_latent_quality() {
    let s = scenario();
    let system = s.system().expect("system");
    let mut rng = s.gossip_rng(4);
    let v3 = alg3::run(&system, config(), &mut rng).expect("alg3");
    let qualities = s.population.latent_qualities();

    // Spearman-like check: the top-quality decile outranks the bottom
    // decile in aggregated reputation.
    let mut by_quality: Vec<usize> = (0..60).collect();
    by_quality.sort_by(|&a, &b| qualities[a].total_cmp(&qualities[b]));
    let rep = |i: usize| v3.estimate(NodeId(0), NodeId(i as u32)).expect("estimate");
    let bottom: f64 = by_quality[..6].iter().map(|&i| rep(i)).sum::<f64>() / 6.0;
    let top: f64 = by_quality[54..].iter().map(|&i| rep(i)).sum::<f64>() / 6.0;
    assert!(
        top > bottom + 0.2,
        "top decile {top} should clearly outrank bottom {bottom}"
    );
}

#[test]
fn neutral_weights_make_gclr_equal_global_everywhere() {
    let mut cfg = RunConfig {
        nodes: 40,
        seed: 7,
        ..RunConfig::default()
    };
    cfg.weight_a = 1.0;
    cfg.weight_b = 0.0;
    let s = Scenario::build(cfg).expect("scenario");
    let system = s.system().expect("system");
    assert!(system.is_neutral());
    for j in s.graph.nodes() {
        let Some(global) = system.global_reputation(j) else {
            continue;
        };
        for i in s.graph.nodes() {
            let gclr = system.gclr(i, j).expect("defined when opinions exist");
            assert!(
                (gclr - global).abs() < 1e-12,
                "({i}, {j}): {gclr} vs {global}"
            );
        }
    }
}

#[test]
fn dimension_mismatch_is_reported() {
    let s = scenario();
    let trust = differential_gossip::trust::TrustMatrix::new(10); // wrong size
    let err = ReputationSystem::new(&s.graph, trust, s.weights);
    assert!(err.is_err());
}

/// The paper's largest size (Fig. 3 / Table 2 go up to 50,000 nodes),
/// which otherwise runs only inside the benchmark: `alg2` for the
/// `gossip_converge` workload's three pinned subjects on their own
/// streams. Steps and messages are exact for the seed — they are the
/// benchmark's `gossip.steps_mean` (121) and `gossip.msgs_per_node`
/// (15.39) seen from a test — and were recorded on the per-node
/// `BTreeMap` engine (PR 16, `86bc120`), where this test took 10 s.
/// About a second in release now, far longer in debug, hence ignored
/// by default; CI runs it with `--release -- --ignored`.
#[test]
#[ignore = "N = 50,000: run with --release -- --ignored"]
fn alg2_at_paper_scale_is_pinned() {
    let cfg = RunConfig::with_nodes(50_000).with_seed(42);
    let s = Scenario::build(cfg).expect("scenario builds");
    let system = s.system().expect("system");
    let mut messages = 0;
    for (stream, (subject, steps)) in [(45_000, 147), (40_000, 100), (35_000, 116)]
        .into_iter()
        .enumerate()
    {
        let mut rng = s.gossip_rng(stream as u64);
        let out = alg2::run(&system, NodeId(subject), cfg.gossip_config(), &mut rng).expect("alg2");
        assert!(out.converged, "subject {subject}");
        assert_eq!(out.steps, steps, "subject {subject}");
        messages += out.total_messages;
    }
    assert_eq!(messages, 2_308_517);
}
