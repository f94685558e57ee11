//! How far a stealth cartel moves honest reputations under the
//! clamp + trim defense, across overlay density, cartel fraction and
//! bias — the sweep behind the `AdversaryMix::stealth()` preset and the
//! claims gate's stealth arm (see docs/AUDITS.md). Prints the deviation
//! both over all observers and over honest observers only; the honest
//! lens is the gated metric, and the gap between the two columns is the
//! cartel's own propaganda diluting the all-observer average.
//!
//! Run: `cargo run --release -p dg-bench --example stealth_sweep [rounds]`

use dg_core::behavior::Behavior;
use dg_gossip::AdversaryMix;
use dg_graph::NodeId;
use dg_sim::rounds::DefensePolicy;
use dg_sim::{build_engine, RunConfig, Scenario};
use rand::RngCore;
use std::sync::Arc;

const NODES: usize = 250;

struct Run {
    means_all: Vec<Option<f64>>,
    means_honest_obs: Vec<Option<f64>>,
    honest: Vec<bool>,
}

fn run(m: usize, mix: AdversaryMix, rounds: usize) -> Run {
    let config = RunConfig {
        nodes: NODES,
        m,
        seed: 42,
        free_rider_fraction: 0.1,
        quality_range: (0.4, 1.0),
        rounds,
        ..RunConfig::default()
    }
    .with_adversary(mix)
    .with_defense(DefensePolicy::defended());
    let scenario = Arc::new(Scenario::build(config).unwrap());
    let mut engine = build_engine(Arc::clone(&scenario));
    let mut rng = scenario.gossip_rng(2);
    for _ in 0..rounds {
        engine.run_round(rng.next_u64()).unwrap();
    }
    let sim = engine.core();
    let adv: Vec<bool> = scenario
        .graph
        .nodes()
        .map(|v| scenario.adversaries.is_adversary(v))
        .collect();
    let honest = scenario
        .graph
        .nodes()
        .map(|v| {
            !scenario.adversaries.is_adversary(v)
                && matches!(scenario.population.behavior(v), Behavior::Honest { .. })
        })
        .collect();
    let mean = |skip_adv: bool| -> Vec<Option<f64>> {
        (0..NODES)
            .map(|s| {
                let (mut acc, mut count) = (0.0, 0usize);
                for (o, &is_adv) in adv.iter().enumerate() {
                    if skip_adv && is_adv {
                        continue;
                    }
                    if let Some(v) = sim.aggregated(NodeId(o as u32), NodeId(s as u32)) {
                        acc += v;
                        count += 1;
                    }
                }
                (count > 0).then(|| acc / count as f64)
            })
            .collect()
    };
    Run {
        means_all: mean(false),
        means_honest_obs: mean(true),
        honest,
    }
}

fn deviation(atk: &[Option<f64>], reference: &[Option<f64>], honest: &[bool]) -> f64 {
    let (mut acc, mut count) = (0.0, 0usize);
    for (i, &h) in honest.iter().enumerate() {
        if !h {
            continue;
        }
        if let (Some(a), Some(r)) = (atk[i], reference[i]) {
            acc += (a - r).abs();
            count += 1;
        }
    }
    acc / count as f64
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);
    println!("N={NODES}, seed 42, defended, {rounds} rounds");
    println!("{:<28}  dev(all obs)  dev(honest obs)", "configuration");
    for m in [2usize, 4, 8] {
        let reference = run(m, AdversaryMix::none(), rounds);
        for fraction in [0.35f64, 0.45] {
            for bias in [0.5f64, 1.0] {
                let mix = AdversaryMix {
                    stealth_fraction: fraction,
                    stealth_bias: bias,
                    ..AdversaryMix::stealth()
                };
                let atk = run(m, mix, rounds);
                println!(
                    "m={m} fraction={fraction:.2} bias={bias:.1}      {:>8.4}      {:>8.4}",
                    deviation(&atk.means_all, &reference.means_all, &atk.honest),
                    deviation(
                        &atk.means_honest_obs,
                        &reference.means_honest_obs,
                        &atk.honest
                    ),
                );
            }
        }
    }
}
