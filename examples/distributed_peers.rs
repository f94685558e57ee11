//! Distributed deployment: one state machine per peer.
//!
//! The same differential gossip protocol as the synchronous engines, but
//! running as separate peers that learn about each other only through
//! messages — including the convergence-announcement protocol.
//! The run cross-checks the distributed estimates against the
//! closed-form average. This example runs under the lossless profile
//! (the paper's reliable network); see `examples/faulty_network.rs` for
//! the same deployment under message loss, delay, duplication, churn and
//! partitions.
//!
//! Run with:
//! ```text
//! cargo run --release --example distributed_peers
//! ```

use differential_gossip::gossip::GossipPair;
use differential_gossip::graph::pa::{preferential_attachment, PaConfig};
use differential_gossip::p2p::{run_distributed, DistributedConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let graph = preferential_attachment(PaConfig { nodes: 400, m: 2 }, &mut rng)?;

    // Every peer starts as the originator of its own local value.
    let values: Vec<f64> = (0..400).map(|i| ((i * 17) % 101) as f64 / 101.0).collect();
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let initial: Vec<GossipPair> = values.iter().map(|&v| GossipPair::originator(v)).collect();

    println!("running 400 peers (differential gossip, xi = 1e-6)...");
    let outcome = run_distributed(
        &graph,
        DistributedConfig {
            xi: 1e-6,
            seed: 11,
            ..DistributedConfig::default()
        },
        initial,
    )?;

    let worst = outcome
        .estimates
        .iter()
        .map(|e| (e - mean).abs())
        .fold(0.0f64, f64::max);
    let busiest = outcome.active_rounds.iter().max().copied().unwrap_or(0);
    println!(
        "converged: {} in {} rounds; busiest peer pushed in {} rounds",
        outcome.converged, outcome.rounds, busiest
    );
    println!("true mean {mean:.6}; worst peer error {worst:.2e}");
    Ok(())
}
