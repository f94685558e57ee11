//! Comparison baselines.
//!
//! * **Normal push gossip** (GossipTrust-style, the paper's \[17\]) needs no
//!   code here — run any engine with
//!   [`FanoutPolicy::Uniform(1)`](dg_gossip::FanoutPolicy).
//! * **EigenTrust** (the paper's \[13\]) — the classic global reputation
//!   scheme built on pre-trusted peers; implemented here as centralised
//!   power iteration so experiments can contrast the "one global value"
//!   philosophy with the paper's per-observer GCLR.

use dg_graph::NodeId;
use dg_trust::TrustMatrix;
use serde::{Deserialize, Serialize};

/// EigenTrust configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EigenTrustConfig {
    /// Blending weight towards the pre-trusted distribution (the paper's
    /// `a` in `t = (1−a)·Cᵀt + a·p`).
    pub alpha: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// L1 convergence threshold.
    pub epsilon: f64,
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EigenTrustOutcome {
    /// Global trust vector (sums to 1).
    pub scores: Vec<f64>,
    /// Power iterations executed.
    pub iterations: usize,
    /// Whether the L1 delta fell below epsilon.
    pub converged: bool,
}

/// Run EigenTrust power iteration over the (row-normalised) trust matrix.
///
/// Rows with no opinions fall back to the pre-trusted distribution, as in
/// the original algorithm. `pretrusted` must be non-empty; it also seeds
/// the initial vector.
pub fn eigentrust(
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
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_graph::generators;
    use dg_trust::TrustValue;

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
}
