//! File-sharing free-riding scenario — the paper's motivating workload.
//!
//! A population of mostly honest peers plus 25% free riders transacts
//! over a PA overlay for ten rounds. Each round, peers estimate trust
//! from transaction outcomes, aggregate reputations with differential
//! gossip trust, and gate service on the result. Watch the free riders'
//! service rate collapse while honest peers keep full service — the
//! incentive loop of Section 3.
//!
//! Run with:
//! ```text
//! cargo run --release --example file_sharing
//! ```

use differential_gossip::sim::{build_engine, RunConfig, Scenario};
use rand::RngCore;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = RunConfig {
        nodes: 500,
        free_rider_fraction: 0.25,
        quality_range: (0.4, 1.0),
        seed: 7,
        rounds: 10,
        ..RunConfig::default()
    };
    let scenario = Arc::new(Scenario::build(config)?);
    let free_riders = scenario
        .population
        .iter()
        .filter(|(_, b)| b.latent_quality() < 0.2)
        .count();
    println!(
        "network: {} peers ({} free riders), {} overlay edges\n",
        scenario.graph.node_count(),
        free_riders,
        scenario.graph.edge_count()
    );

    // The default, production engine: under this full traffic every
    // round rebuilds per-shard CSR state with a shard fan-out.
    let mut engine = build_engine(Arc::clone(&scenario));
    println!("engine: incremental\n");
    let mut rng = scenario.gossip_rng(1);

    println!(
        "{:>5}  {:>14}  {:>18}  {:>12}  {:>16}",
        "round", "honest service", "free-rider service", "honest rep", "free-rider rep"
    );
    for _ in 0..config.rounds {
        let stats = engine.run_round(rng.next_u64())?;
        println!(
            "{:>5}  {:>13.1}%  {:>17.1}%  {:>12.4}  {:>16.4}",
            stats.round,
            100.0 * stats.honest_service_rate(),
            100.0 * stats.free_rider_service_rate(),
            stats.mean_rep_honest,
            stats.mean_rep_free_riders,
        );
    }
    println!("\nfree riding stops paying off as soon as the first gossip round lands.");
    Ok(())
}
