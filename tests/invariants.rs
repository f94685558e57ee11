//! Property-based integration tests of the cross-crate invariants:
//! mass conservation on arbitrary topologies, push-sum correctness,
//! weight-law bounds feeding Eq. (6), and collusion-metric sanity.

use differential_gossip::core::collusion::{
    average_rms_error, theory, ColludedAggregates, CollusionScheme, GroupAssignment,
};
use differential_gossip::core::reputation::{trust_from_qualities, ReputationSystem};
use differential_gossip::gossip::{FanoutPolicy, GossipConfig, VectorGossip};
use differential_gossip::graph::{generators, pa, GraphBuilder, NodeId};
use differential_gossip::trust::WeightParams;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// An arbitrary connected graph: a random spanning tree plus extra edges.
fn arbitrary_connected_graph(
    nodes: usize,
    extra_edges: &[(usize, usize)],
) -> differential_gossip::graph::Graph {
    let mut b = GraphBuilder::new(nodes);
    for v in 1..nodes {
        // Parent chosen deterministically from the edge material.
        let parent = extra_edges
            .get(v % extra_edges.len().max(1))
            .map(|&(a, _)| a % v)
            .unwrap_or(0);
        b.add_edge(v as u32, parent as u32)
            .expect("valid tree edge");
    }
    for &(a, c) in extra_edges {
        let (a, c) = (a % nodes, c % nodes);
        if a != c {
            b.add_edge(a as u32, c as u32).expect("valid extra edge");
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mass_conservation_on_arbitrary_connected_graphs(
        nodes in 3usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40), 1..30),
        values in proptest::collection::vec(0.0f64..1.0, 40),
        loss in 0.0f64..0.6,
        seed in 0u64..1000,
    ) {
        let graph = arbitrary_connected_graph(nodes, &edges);
        let vals = &values[..nodes];
        let config = GossipConfig::differential(1e-4).unwrap()
            .with_loss(differential_gossip::gossip::loss::LossModel::new(loss).unwrap());
        let mut engine = VectorGossip::average(&graph, config, vals).unwrap();
        let before = engine.total_mass()[&0];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..25 {
            engine.step(&mut rng);
        }
        let after = engine.total_mass()[&0];
        prop_assert!((before.0 - after.0).abs() < 1e-7);
        prop_assert!((before.1 - after.1).abs() < 1e-7);
    }

    #[test]
    fn push_sum_converges_to_the_true_mean(
        nodes in 8usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40), 5..30),
        values in proptest::collection::vec(0.0f64..1.0, 40),
        seed in 0u64..1000,
    ) {
        let graph = arbitrary_connected_graph(nodes, &edges);
        let vals = &values[..nodes];
        let mean = vals.iter().sum::<f64>() / nodes as f64;
        let out = VectorGossip::average(
            &graph,
            GossipConfig::differential(1e-9).unwrap(),
            vals,
        )
        .unwrap()
        .run(&mut ChaCha8Rng::seed_from_u64(seed));
        prop_assert!(out.converged);
        prop_assert!(out.max_error(0, mean) < 1e-3, "max error {}", out.max_error(0, mean));
    }

    #[test]
    fn gclr_stays_in_unit_interval_for_any_weight_law(
        a in 1.0f64..8.0,
        b in 0.0f64..4.0,
        seed in 0u64..500,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = pa::preferential_attachment(pa::PaConfig { nodes: 30, m: 2 }, &mut rng)
            .unwrap();
        let qualities: Vec<f64> = (0..30).map(|i| i as f64 / 29.0).collect();
        let trust = trust_from_qualities(&graph, &qualities);
        let system =
            ReputationSystem::new(&graph, trust, WeightParams::new(a, b).unwrap()).unwrap();
        for i in graph.nodes() {
            for j in graph.nodes() {
                if let Some(rep) = system.gclr(i, j) {
                    prop_assert!((0.0..=1.0).contains(&rep), "({i},{j}) -> {rep}");
                }
            }
        }
    }

    #[test]
    fn collusion_shrink_factor_bounds(
        n in 10usize..1000,
        excess in 0.0f64..1e6,
    ) {
        let s = theory::shrink_factor(n, excess);
        prop_assert!(s > 0.0 && s <= 1.0);
    }

    #[test]
    fn no_collusion_means_no_error_for_any_matrix(
        nodes in 4usize..25,
        seed in 0u64..500,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::complete(nodes);
        let qualities: Vec<f64> =
            (0..nodes).map(|_| rand::Rng::random_range(&mut rng, 0.05..1.0)).collect();
        let trust = trust_from_qualities(&graph, &qualities);
        let assignment = GroupAssignment::none(nodes);
        let view = ColludedAggregates::new(&trust, &assignment);
        let subjects: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
        let err = average_rms_error(
            nodes,
            &subjects,
            |_, j| view.global_colluded(j),
            |_, j| view.global_clean(j),
        );
        prop_assert_eq!(err, 0.0);
    }

    #[test]
    fn fanout_resolution_is_always_within_degree(
        nodes in 5usize..60,
        seed in 0u64..500,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = pa::preferential_attachment(pa::PaConfig { nodes, m: 2 }, &mut rng)
            .unwrap();
        let fanouts = FanoutPolicy::Differential.resolve(&graph).unwrap();
        for v in graph.nodes() {
            prop_assert!(fanouts[v.index()] >= 1);
            prop_assert!(fanouts[v.index()] <= graph.degree(v).max(1));
        }
    }
}

#[test]
fn collusion_error_increases_with_fraction_on_average() {
    // Deterministic companion to the proptest suite: same scenario, three
    // colluder fractions, strictly increasing error.
    let graph = generators::complete(40);
    let qualities: Vec<f64> = (0..40).map(|i| 0.3 + 0.017 * i as f64).collect();
    let trust = trust_from_qualities(&graph, &qualities);
    let subjects: Vec<NodeId> = (0..40u32).map(NodeId).collect();
    let mut previous = 0.0;
    for fraction in [0.1, 0.3, 0.6] {
        let scheme = CollusionScheme::new(fraction, 4).expect("scheme");
        let assignment =
            GroupAssignment::assign(40, scheme, &mut ChaCha8Rng::seed_from_u64(1)).expect("assign");
        let view = ColludedAggregates::new(&trust, &assignment);
        let err = average_rms_error(
            40,
            &subjects,
            |_, j| view.global_colluded(j),
            |_, j| view.global_clean(j),
        );
        assert!(err > previous, "fraction {fraction}: {err} <= {previous}");
        previous = err;
    }
}
