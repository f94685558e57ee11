//! The attack × defense matrix on one screen.
//!
//! Runs every adversary preset through the full reputation lifecycle,
//! once with the paper's plain aggregation and once with the defended
//! policy (report clamping + trimmed aggregation + the zero-prior
//! stranger rule), and prints what each side extracted. This is the
//! table reproduced in README §Adversaries; the CI gate over the same
//! matrix is `cargo run --release -p dg-bench --bin claims`.
//!
//! ```text
//! cargo run --release --example adversaries
//! ```

use differential_gossip::gossip::AdversaryMix;
use differential_gossip::sim::rounds::DefensePolicy;
use differential_gossip::sim::{build_engine, RunConfig, Scenario};
use rand::RngCore;
use std::sync::Arc;

fn run(mix: AdversaryMix, defense: DefensePolicy) -> (f64, f64, f64, u64, Option<f64>) {
    let config = RunConfig {
        nodes: 250,
        seed: 42,
        free_rider_fraction: 0.1,
        quality_range: (0.4, 1.0),
        rounds: 8,
        ..RunConfig::default()
    }
    .with_adversary(mix)
    .with_defense(defense);
    let scenario = Arc::new(Scenario::build(config).expect("scenario builds"));
    let mut engine = build_engine(Arc::clone(&scenario));
    let mut rng = scenario.gossip_rng(2);
    let stats: Vec<_> = (0..config.rounds)
        .map(|_| engine.run_round(rng.next_u64()).expect("round runs"))
        .collect();
    let last = stats.last().unwrap();
    (
        last.honest_service_rate(),
        last.free_rider_service_rate(),
        last.adversary_service_rate(),
        stats.iter().map(|s| s.washes).sum(),
        engine.core().honest_residual(),
    )
}

fn main() {
    println!("attack × defense at N=250, 8 lifecycle rounds, seed 42\n");
    println!(
        "{:<11} {:<9} {:>8} {:>8} {:>8} {:>7}",
        "attack", "defense", "honest", "leech", "adv", "washes"
    );
    for (label, mix) in [
        ("none", AdversaryMix::none()),
        ("sybil", AdversaryMix::sybil()),
        ("collusion", AdversaryMix::collusion()),
        ("slander", AdversaryMix::slander()),
        ("whitewash", AdversaryMix::whitewash()),
    ] {
        for (defense_label, defense) in [
            ("open", DefensePolicy::none()),
            ("defended", DefensePolicy::defended()),
        ] {
            let (honest, free_riders, adversaries, washes, _) = run(mix, defense);
            println!(
                "{label:<11} {defense_label:<9} {honest:>8.3} {free_riders:>8.3} \
                 {adversaries:>8.3} {washes:>7}"
            );
        }
    }
    println!(
        "\nhonest/leech/adv = last-round service rate per class; \
         washes = whitewash identity resets over the run."
    );
    println!(
        "Defended = reports clamped to [0.1, 0.9], 20% trimmed per tail, \
         zero-prior stranger admission."
    );
}
