//! Churn and packet loss tolerance — the Fig. 4 behaviour, live.
//!
//! Runs the same averaging gossip three times: clean, with 20% packet
//! loss (failed pushes bounce back to the sender), and with node churn
//! (departing peers hand their gossip pair to a neighbour). Mass
//! conservation keeps every variant exact; only the step count grows.
//!
//! Run with:
//! ```text
//! cargo run --release --example churn_tolerance
//! ```

use differential_gossip::gossip::loss::{ChurnModel, LossModel};
use differential_gossip::gossip::{GossipConfig, VectorGossip};
use differential_gossip::graph::pa::{preferential_attachment, PaConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let graph = preferential_attachment(PaConfig { nodes: 2000, m: 2 }, &mut rng)?;
    let values: Vec<f64> = (0..2000).map(|i| ((i * 7) % 23) as f64 / 23.0).collect();
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    println!("2000-node PA overlay, averaging target {mean:.6}\n");

    let base = GossipConfig::differential(1e-6)?;
    let variants: [(&str, GossipConfig); 3] = [
        ("clean", base),
        ("20% packet loss", base.with_loss(LossModel::new(0.2)?)),
        (
            "churn (1% departures/step, up to 200 peers)",
            base.with_churn(ChurnModel::new(0.01, 200)?),
        ),
    ];

    println!(
        "{:<46}  {:>6}  {:>10}  {:>12}",
        "variant", "steps", "survivors", "worst error"
    );
    for (label, config) in variants {
        let mut run_rng = ChaCha8Rng::seed_from_u64(77);
        let out = VectorGossip::average(&graph, config, &values)?.run(&mut run_rng);
        let survivors = out.present.iter().filter(|&&p| p).count();
        println!(
            "{:<46}  {:>6}  {:>10}  {:>12.2e}",
            label,
            out.steps,
            survivors,
            out.max_error(0, mean)
        );
    }
    println!("\nloss and churn cost steps, never correctness: mass is conserved.");
    Ok(())
}
