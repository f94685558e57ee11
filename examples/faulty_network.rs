//! The faulty-network runtime: the same distributed gossip deployment
//! under every [`NetworkProfile`] preset — loss, delay, duplication,
//! partitions and churn — with the per-run mass ledger printed so
//! nothing the transport destroys or injects goes unaccounted.
//!
//! Run with:
//! ```text
//! cargo run --release --example faulty_network            # 200 peers
//! cargo run --release --example faulty_network -- 500     # custom size
//! ```

use differential_gossip::gossip::profile::NetworkProfile;
use differential_gossip::gossip::GossipPair;
use differential_gossip::graph::pa::{preferential_attachment, PaConfig};
use differential_gossip::p2p::{run_distributed, DistributedConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("node count"))
        .unwrap_or(200);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let graph = preferential_attachment(PaConfig { nodes: n, m: 2 }, &mut rng)?;
    let values: Vec<f64> = (0..n).map(|i| ((i * 17) % 101) as f64 / 101.0).collect();
    let mean = values.iter().sum::<f64>() / n as f64;
    let initial: Vec<GossipPair> = values.iter().map(|&v| GossipPair::originator(v)).collect();

    println!("{n}-peer PA overlay, xi = 1e-5, seed 11; true mean {mean:.6}\n");
    println!(
        "{:<12} {:>6} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "profile", "rounds", "converged", "worst-err", "bounced", "dup", "ann-drop"
    );
    for name in NetworkProfile::PRESETS {
        let profile = NetworkProfile::parse(name).expect("preset");
        let outcome = run_distributed(
            &graph,
            DistributedConfig {
                xi: 1e-5,
                seed: 11,
                max_rounds: 10_000,
                profile,
                ..DistributedConfig::default()
            },
            initial.clone(),
        )?;
        let worst = outcome
            .estimates
            .iter()
            .map(|e| (e - mean).abs())
            .fold(0.0f64, f64::max);
        println!(
            "{:<12} {:>6} {:>10} {:>10.2e} {:>9} {:>9} {:>9}",
            name,
            outcome.rounds,
            outcome.converged,
            worst,
            outcome.ledger.shares_recredited,
            outcome.ledger.shares_duplicated,
            outcome.ledger.announces_lost,
        );
    }
    println!(
        "\nEvery run's mass accounting closes exactly: \
         final = initial - lost + duplicated (see `MassLedger`)."
    );
    Ok(())
}
