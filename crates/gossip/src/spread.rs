//! Rumor-spreading engines for the Theorem 5.1 ablation.
//!
//! Chierichetti et al. (the paper's \[25\]) showed that on PA graphs push
//! alone and pull alone are slow, while push-pull informs everyone in
//! `O((log₂N)²)` steps. Theorem 5.1 claims differential push matches
//! push-pull *without* pulling. This module measures the spreading time
//! of a single rumor under each protocol so the ablation harness can
//! verify the ordering empirically.

use crate::error::GossipError;
use crate::fanout::{FanoutPolicy, TargetDraw};
use dg_graph::{Graph, NodeId};
use rand::Rng;

/// Rumor-spreading protocol variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpreadProtocol {
    /// Informed nodes push to one random neighbour per step.
    Push,
    /// Uninformed nodes pull from one random neighbour per step.
    Pull,
    /// Both of the above simultaneously.
    PushPull,
    /// Informed nodes push to `k_i` (differential fan-out) random
    /// neighbours per step.
    DifferentialPush,
}

impl SpreadProtocol {
    /// Label for experiment output.
    pub fn label(self) -> &'static str {
        match self {
            SpreadProtocol::Push => "push",
            SpreadProtocol::Pull => "pull",
            SpreadProtocol::PushPull => "push-pull",
            SpreadProtocol::DifferentialPush => "differential-push",
        }
    }
}

/// Result of a spreading run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpreadOutcome {
    /// Steps until everyone was informed (or the cap).
    pub steps: usize,
    /// Whether all nodes were informed within the cap.
    pub complete: bool,
    /// Informed-node count after each step.
    pub informed_per_step: Vec<usize>,
}

/// Spread a rumor from `source` until every node is informed or
/// `max_steps` is reached.
///
/// # Errors
/// Propagates fan-out resolution errors (empty graphs are fine — the
/// run completes instantly when `source` is the only node).
pub fn spread<R: Rng + ?Sized>(
    graph: &Graph,
    protocol: SpreadProtocol,
    source: NodeId,
    max_steps: usize,
    rng: &mut R,
) -> Result<SpreadOutcome, GossipError> {
    let n = graph.node_count();
    let fanouts = match protocol {
        SpreadProtocol::DifferentialPush => FanoutPolicy::Differential.resolve(graph)?,
        _ => vec![1; n],
    };
    let mut informed = vec![false; n];
    if source.index() < n {
        informed[source.index()] = true;
    }
    let mut informed_count = informed.iter().filter(|&&b| b).count();
    let mut targets = TargetDraw::default();
    let mut trace = Vec::new();
    let mut steps = 0;

    while informed_count < n && steps < max_steps {
        let mut next = informed.clone();
        let pushes = matches!(
            protocol,
            SpreadProtocol::Push | SpreadProtocol::PushPull | SpreadProtocol::DifferentialPush
        );
        let pulls = matches!(protocol, SpreadProtocol::Pull | SpreadProtocol::PushPull);

        if pushes {
            for i in 0..n {
                if !informed[i] {
                    continue;
                }
                let ns = graph.neighbours(NodeId(i as u32));
                if ns.is_empty() {
                    continue;
                }
                let k = fanouts[i].min(ns.len());
                for &idx in targets.draw(rng, ns.len(), k) {
                    next[ns[idx] as usize] = true;
                }
            }
        }
        if pulls {
            for i in 0..n {
                if informed[i] {
                    continue;
                }
                let ns = graph.neighbours(NodeId(i as u32));
                if ns.is_empty() {
                    continue;
                }
                let pick = ns[rng.random_range(0..ns.len())] as usize;
                if informed[pick] {
                    next[i] = true;
                }
            }
        }

        informed = next;
        informed_count = informed.iter().filter(|&&b| b).count();
        steps += 1;
        trace.push(informed_count);
    }

    Ok(SpreadOutcome {
        steps,
        complete: informed_count == n,
        informed_per_step: trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_graph::{generators, pa};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn all_protocols_complete_on_complete_graph() {
        let g = generators::complete(30);
        for p in [
            SpreadProtocol::Push,
            SpreadProtocol::Pull,
            SpreadProtocol::PushPull,
            SpreadProtocol::DifferentialPush,
        ] {
            let out = spread(&g, p, NodeId(0), 1000, &mut rng(1)).unwrap();
            assert!(out.complete, "{} did not complete", p.label());
        }
    }

    #[test]
    fn informed_count_is_monotone() {
        let g =
            pa::preferential_attachment(pa::PaConfig { nodes: 200, m: 2 }, &mut rng(2)).unwrap();
        let out = spread(&g, SpreadProtocol::PushPull, NodeId(5), 1000, &mut rng(3)).unwrap();
        assert!(out.complete);
        for w in out.informed_per_step.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn differential_not_slower_than_push_on_pa() {
        let g =
            pa::preferential_attachment(pa::PaConfig { nodes: 1000, m: 2 }, &mut rng(4)).unwrap();
        // Average over several runs to damp randomness.
        let avg = |protocol: SpreadProtocol| -> f64 {
            (0..5)
                .map(|s| {
                    spread(&g, protocol, NodeId(0), 10_000, &mut rng(100 + s))
                        .unwrap()
                        .steps as f64
                })
                .sum::<f64>()
                / 5.0
        };
        let push = avg(SpreadProtocol::Push);
        let diff = avg(SpreadProtocol::DifferentialPush);
        assert!(
            diff <= push,
            "differential {diff} should not be slower than push {push}"
        );
    }

    #[test]
    fn spreading_time_is_polylog_on_pa() {
        let g =
            pa::preferential_attachment(pa::PaConfig { nodes: 2000, m: 2 }, &mut rng(5)).unwrap();
        let out = spread(
            &g,
            SpreadProtocol::DifferentialPush,
            NodeId(0),
            10_000,
            &mut rng(6),
        )
        .unwrap();
        assert!(out.complete);
        let log2n = (2000f64).log2();
        assert!(
            (out.steps as f64) <= log2n * log2n,
            "steps {} exceeds (log2 N)^2 = {}",
            out.steps,
            log2n * log2n
        );
    }

    #[test]
    fn single_node_graph_is_instantly_complete() {
        let g = dg_graph::GraphBuilder::new(1).build();
        let out = spread(&g, SpreadProtocol::Push, NodeId(0), 10, &mut rng(7)).unwrap();
        assert!(out.complete);
        assert_eq!(out.steps, 0);
    }
}
