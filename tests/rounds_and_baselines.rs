//! Integration: the multi-round incentive lifecycle and the EigenTrust
//! baseline, cross-checked against differential gossip trust.
//!
//! Normal push gossip (GossipTrust-style, the paper's \[17\]) needs no
//! baseline code: run any engine with `FanoutPolicy::Uniform(1)`.
//! EigenTrust (the paper's \[13\]), the classic global reputation scheme
//! built on pre-trusted peers, lives here beside the one test that reads
//! it, as centralised power iteration.

use differential_gossip::core::behavior::Behavior;
use differential_gossip::graph::{generators, NodeId};
use differential_gossip::sim::rounds::{AggregationMode, RoundStats};
use differential_gossip::sim::scenario::TrustSource;
use differential_gossip::sim::{RoundEngine, RunConfig, Scenario};
use differential_gossip::trust::{TrustMatrix, TrustValue};
use rand::RngCore;
use std::sync::Arc;

/// Build `config`'s scenario and engine and run all its rounds on seeds
/// drawn from gossip stream `stream`.
fn run_rounds(config: RunConfig, stream: u64) -> Vec<RoundStats> {
    let s = Arc::new(Scenario::build(config).expect("scenario builds"));
    let mut engine = RoundEngine::new(Arc::clone(&s));
    let mut rng = s.gossip_rng(stream);
    (0..config.rounds)
        .map(|_| engine.run_round(rng.next_u64()).expect("round"))
        .collect()
}

#[test]
fn incentive_loop_starves_free_riders_but_not_honest_peers() {
    let stats = run_rounds(
        RunConfig {
            nodes: 100,
            seed: 77,
            free_rider_fraction: 0.2,
            quality_range: (0.4, 1.0),
            rounds: 8,
            ..RunConfig::default()
        },
        1,
    );

    // Round 0 serves everyone (no reputations yet).
    assert_eq!(stats[0].refused_honest, 0);
    assert_eq!(stats[0].refused_free_riders, 0);

    let last = stats.last().expect("rounds > 0");
    assert!(
        last.honest_service_rate() > 0.95,
        "{}",
        last.honest_service_rate()
    );
    assert!(
        last.free_rider_service_rate() < 0.1,
        "{}",
        last.free_rider_service_rate()
    );
    // Reputation separation mirrors the service separation.
    assert!(last.mean_rep_honest > 2.0 * last.mean_rep_free_riders);
}

#[test]
fn real_gossip_aggregation_mode_reaches_the_same_separation() {
    let run = |aggregation: AggregationMode| {
        run_rounds(
            RunConfig {
                nodes: 50,
                seed: 5,
                free_rider_fraction: 0.2,
                quality_range: (0.4, 1.0),
                rounds: 4,
                aggregation,
                xi: 1e-7,
                ..RunConfig::default()
            },
            9,
        )
    };
    let closed = run(AggregationMode::ClosedForm);
    let gossip = run(AggregationMode::Gossip);
    let last_closed = closed.last().expect("rounds");
    let last_gossip = gossip.last().expect("rounds");
    // Both modes separate the classes; the gossip mode tracks the closed
    // form closely (they see identical transaction streams only in round
    // 0, so compare coarse statistics, not exact values).
    assert!(last_gossip.mean_rep_honest > 2.0 * last_gossip.mean_rep_free_riders);
    assert!(
        (last_gossip.mean_rep_honest - last_closed.mean_rep_honest).abs() < 0.1,
        "gossip {} vs closed {}",
        last_gossip.mean_rep_honest,
        last_closed.mean_rep_honest
    );
}

#[test]
fn eigentrust_and_differential_gossip_agree_on_who_is_bad() {
    let s = Scenario::build(RunConfig {
        nodes: 80,
        seed: 11,
        free_rider_fraction: 0.25,
        quality_range: (0.5, 1.0),
        trust_source: TrustSource::Workload {
            transactions_per_edge: 20,
        },
        ..RunConfig::default()
    })
    .expect("scenario builds");
    let system = s.system().expect("system");

    // EigenTrust over the same local trust, pre-trusting the two
    // highest-quality peers.
    let qualities = s.population.latent_qualities();
    let mut by_quality: Vec<usize> = (0..80).collect();
    by_quality.sort_by(|&a, &b| qualities[b].total_cmp(&qualities[a]));
    let pretrusted = [NodeId(by_quality[0] as u32), NodeId(by_quality[1] as u32)];
    let et = eigentrust(system.trust(), &pretrusted, &EigenTrustConfig::default());
    assert!(et.converged);

    // Both systems should put the average free rider clearly below the
    // average honest peer.
    let mut honest_et = (0.0, 0usize);
    let mut rider_et = (0.0, 0usize);
    let mut honest_dg = (0.0, 0usize);
    let mut rider_dg = (0.0, 0usize);
    for (node, behavior) in s.population.iter() {
        // Differential gossip trust at observer 0 (closed form = the
        // gossip limit).
        let dg_rep = system.gclr(NodeId(0), node).unwrap_or(0.0);
        let et_rep = et.scores[node.index()];
        if matches!(behavior, Behavior::FreeRider { .. }) {
            rider_et = (rider_et.0 + et_rep, rider_et.1 + 1);
            rider_dg = (rider_dg.0 + dg_rep, rider_dg.1 + 1);
        } else {
            honest_et = (honest_et.0 + et_rep, honest_et.1 + 1);
            honest_dg = (honest_dg.0 + dg_rep, honest_dg.1 + 1);
        }
    }
    let mean = |(sum, cnt): (f64, usize)| sum / cnt.max(1) as f64;
    assert!(
        mean(honest_et) > 2.0 * mean(rider_et),
        "EigenTrust failed to separate"
    );
    assert!(
        mean(honest_dg) > 2.0 * mean(rider_dg),
        "DGT failed to separate"
    );
}

/// EigenTrust configuration.
struct EigenTrustConfig {
    /// Blending weight towards the pre-trusted distribution (the paper's
    /// `a` in `t = (1−a)·Cᵀt + a·p`).
    alpha: f64,
    /// Iteration cap.
    max_iterations: usize,
    /// L1 convergence threshold.
    epsilon: f64,
}

impl Default for EigenTrustConfig {
    fn default() -> Self {
        Self {
            alpha: 0.1,
            max_iterations: 1000,
            epsilon: 1e-10,
        }
    }
}

/// Result of an EigenTrust computation.
struct EigenTrustOutcome {
    /// Global trust vector (sums to 1).
    scores: Vec<f64>,
    /// Whether the L1 delta fell below epsilon.
    converged: bool,
}

/// Run EigenTrust power iteration over the (row-normalised) trust matrix.
///
/// Rows with no opinions fall back to the pre-trusted distribution, as in
/// the original algorithm. `pretrusted` must be non-empty; it also seeds
/// the initial vector.
fn eigentrust(
    trust: &TrustMatrix,
    pretrusted: &[NodeId],
    config: &EigenTrustConfig,
) -> EigenTrustOutcome {
    let n = trust.node_count();
    assert!(!pretrusted.is_empty(), "EigenTrust needs pre-trusted peers");
    let mut p = vec![0.0; n];
    for &v in pretrusted {
        p[v.index()] = 1.0 / pretrusted.len() as f64;
    }

    // Row-normalised local trust.
    let rows: Vec<Vec<(usize, f64)>> = (0..n)
        .map(|i| {
            let observer = NodeId(i as u32);
            let row: Vec<(usize, f64)> = trust
                .row(observer)
                .iter()
                .map(|(j, t)| (j.index(), t.get()))
                .collect();
            let sum: f64 = row.iter().map(|(_, t)| t).sum();
            if sum > 0.0 {
                row.into_iter().map(|(j, t)| (j, t / sum)).collect()
            } else {
                // Empty (or all-zero) rows: the update below substitutes `p`.
                Vec::new()
            }
        })
        .collect();

    let mut t = p.clone();
    let mut iterations = 0;
    let mut converged = false;
    while iterations < config.max_iterations {
        let mut next = vec![0.0; n];
        for i in 0..n {
            if rows[i].is_empty() {
                // No opinions: this node's mass flows to pre-trusted peers.
                for (k, &pk) in p.iter().enumerate() {
                    next[k] += t[i] * pk;
                }
            } else {
                for &(j, c) in &rows[i] {
                    next[j] += t[i] * c;
                }
            }
        }
        for (k, v) in next.iter_mut().enumerate() {
            *v = (1.0 - config.alpha) * *v + config.alpha * p[k];
        }
        let delta: f64 = next.iter().zip(&t).map(|(a, b)| (a - b).abs()).sum();
        t = next;
        iterations += 1;
        if delta < config.epsilon {
            converged = true;
            break;
        }
    }

    EigenTrustOutcome {
        scores: t,
        converged,
    }
}

fn tv(v: f64) -> TrustValue {
    TrustValue::new(v).unwrap()
}

#[test]
fn scores_form_a_distribution() {
    let g = generators::complete(6);
    let mut m = TrustMatrix::new(6);
    for a in g.nodes() {
        for &b in g.neighbours(a) {
            m.set(a, NodeId(b), tv(0.5 + 0.08 * b as f64)).unwrap();
        }
    }
    let out = eigentrust(&m, &[NodeId(0)], &EigenTrustConfig::default());
    assert!(out.converged);
    let sum: f64 = out.scores.iter().sum();
    assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    assert!(out.scores.iter().all(|&s| s >= 0.0));
}

#[test]
fn well_served_node_outranks_leech() {
    // Nodes 0..4 rate node 1 high and node 3 low.
    let g = generators::complete(5);
    let mut m = TrustMatrix::new(5);
    for a in g.nodes() {
        for &b in g.neighbours(a) {
            let t = match b {
                1 => 0.95,
                3 => 0.05,
                _ => 0.5,
            };
            m.set(a, NodeId(b), tv(t)).unwrap();
        }
    }
    let out = eigentrust(&m, &[NodeId(0)], &EigenTrustConfig::default());
    assert!(out.scores[1] > out.scores[3] * 3.0);
}

#[test]
fn empty_matrix_falls_back_to_pretrusted() {
    let m = TrustMatrix::new(4);
    let out = eigentrust(&m, &[NodeId(2)], &EigenTrustConfig::default());
    assert!(out.converged);
    assert!(out.scores[2] > 0.99);
}

#[test]
#[should_panic(expected = "pre-trusted")]
fn requires_pretrusted_peers() {
    let m = TrustMatrix::new(3);
    eigentrust(&m, &[], &EigenTrustConfig::default());
}
