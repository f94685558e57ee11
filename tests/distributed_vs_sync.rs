//! The peer deployment and the synchronous engine implement the
//! same protocol: both must converge to the same push-sum limit.

use differential_gossip::gossip::{GossipConfig, GossipPair, VectorGossip};
use differential_gossip::graph::pa::{preferential_attachment, PaConfig};
use differential_gossip::p2p::{run_distributed, DistributedConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn distributed_and_sync_agree_on_the_limit() {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let graph =
        preferential_attachment(PaConfig { nodes: 150, m: 2 }, &mut rng).expect("valid PA config");
    let values: Vec<f64> = (0..150).map(|i| ((i * 37) % 53) as f64 / 53.0).collect();
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let initial: Vec<GossipPair> = values.iter().map(|&v| GossipPair::originator(v)).collect();

    let sync_out = VectorGossip::average(
        &graph,
        GossipConfig::differential(1e-8).expect("config"),
        &values,
    )
    .expect("engine")
    .run(&mut rng);

    let dist_out = run_distributed(
        &graph,
        DistributedConfig {
            xi: 1e-8,
            seed: 5,
            ..DistributedConfig::default()
        },
        initial,
    )
    .expect("distributed run");

    assert!(sync_out.converged, "sync did not converge");
    assert!(dist_out.converged, "distributed did not converge");
    // Different random schedules, same limit.
    assert!(sync_out.max_error(0, mean) < 1e-4);
    let dist_worst = dist_out
        .estimates
        .iter()
        .map(|e| (e - mean).abs())
        .fold(0.0f64, f64::max);
    assert!(dist_worst < 1e-4, "distributed worst error {dist_worst}");
}

#[test]
fn distributed_single_originator_sum_mode() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let graph =
        preferential_attachment(PaConfig { nodes: 80, m: 2 }, &mut rng).expect("valid PA config");
    // Sum mode: node 5 carries the unit weight; nodes 5, 9, 20 carry
    // feedback values; the limit is their sum 1.1.
    let mut initial = vec![GossipPair::ZERO; 80];
    initial[5] = GossipPair::originator(0.2);
    initial[9] = GossipPair {
        value: 0.5,
        weight: 0.0,
    };
    initial[20] = GossipPair {
        value: 0.4,
        weight: 0.0,
    };

    let out = run_distributed(
        &graph,
        DistributedConfig {
            xi: 1e-9,
            seed: 17,
            max_rounds: 50_000,
            ..Default::default()
        },
        initial,
    )
    .expect("distributed run");
    assert!(out.converged);
    for (i, e) in out.estimates.iter().enumerate() {
        assert!((e - 1.1).abs() < 1e-3, "peer {i}: {e}");
    }
}

#[test]
fn distributed_mass_conservation_holds_mid_run() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let graph =
        preferential_attachment(PaConfig { nodes: 60, m: 2 }, &mut rng).expect("valid PA config");
    let values: Vec<f64> = (0..60).map(|i| i as f64).collect();
    let total: f64 = values.iter().sum();
    let initial: Vec<GossipPair> = values.iter().map(|&v| GossipPair::originator(v)).collect();

    // Deliberately non-converging tolerance with a small round budget.
    let out = run_distributed(
        &graph,
        DistributedConfig {
            xi: 1e-15,
            seed: 2,
            max_rounds: 40,
            ..Default::default()
        },
        initial,
    )
    .expect("distributed run");
    let mass: f64 = out.pairs.iter().map(|p| p.value).sum();
    let weight: f64 = out.pairs.iter().map(|p| p.weight).sum();
    assert!((mass - total).abs() < 1e-9);
    assert!((weight - 60.0).abs() < 1e-9);
}
