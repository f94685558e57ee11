//! The contribution-vector potential `ψ_n` of Theorem 5.2.
//!
//! The appendix proof tracks, for every node `j`, a contribution vector
//! `c_{n,·,j}` recording how much of each node `i`'s original mass has
//! reached `j` after `n` steps. Convergence is equivalent to every
//! contribution approaching `g_{n,j}/N`, and the potential
//!
//! ```text
//! ψ_n = Σ_{j,i} (c_{n,i,j} − g_{n,j}/N)²
//! ```
//!
//! decays geometrically (`E[ψ_{n+1}|ψ_n] ≤ ψ_n/(p+1) + K` for `p`-push).
//! This module simulates push gossip while tracking the full `N × N`
//! contribution matrix, so the ablation harness can plot the decay and
//! check the `ψ_0 = N − 1` starting point. Memory is `O(N²)` — use small
//! `N`.

use crate::error::GossipError;
use crate::fanout::{FanoutPolicy, TargetDraw};
use dg_graph::{Graph, NodeId};
use rand::Rng;

/// Tracks contribution vectors under push gossip.
#[derive(Debug, Clone)]
pub struct PotentialTracker<'g> {
    graph: &'g Graph,
    fanouts: Vec<usize>,
    /// `contrib[j][i]` = contribution of node `i` present at node `j`.
    contrib: Vec<Vec<f64>>,
}

impl<'g> PotentialTracker<'g> {
    /// Start with the identity contribution matrix (each node holds
    /// exactly its own unit contribution), the `ψ_0 = N − 1` state.
    pub fn new(graph: &'g Graph, fanout: FanoutPolicy) -> Result<Self, GossipError> {
        let n = graph.node_count();
        let fanouts = fanout.resolve(graph)?;
        let mut contrib = vec![vec![0.0; n]; n];
        for (j, row) in contrib.iter_mut().enumerate() {
            row[j] = 1.0;
        }
        Ok(Self {
            graph,
            fanouts,
            contrib,
        })
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Gossip weight at node `j` (`g_{n,j} = Σ_i c_{n,i,j}`).
    pub fn weight(&self, j: NodeId) -> f64 {
        self.contrib[j.index()].iter().sum()
    }

    /// Current potential `ψ_n`.
    pub fn potential(&self) -> f64 {
        let n = self.node_count() as f64;
        self.contrib
            .iter()
            .map(|row| {
                let g: f64 = row.iter().sum();
                let target = g / n;
                row.iter()
                    .map(|&c| (c - target) * (c - target))
                    .sum::<f64>()
            })
            .sum()
    }

    /// Maximum relative contribution imbalance
    /// `max_{i,j} |c_{n,i,j}/‖c_{n,·,j}‖₁ − 1/N|` (the ξ-uniformity of
    /// Theorem 5.2). `None` while some node still has zero weight.
    ///
    /// Public with no caller yet: ROADMAP item 17 either checks it against a run or deletes it.
    pub fn max_imbalance(&self) -> Option<f64> {
        let n = self.node_count() as f64;
        let mut worst: f64 = 0.0;
        for row in &self.contrib {
            let norm: f64 = row.iter().sum();
            if norm == 0.0 {
                return None;
            }
            for &c in row {
                worst = worst.max((c / norm - 1.0 / n).abs());
            }
        }
        Some(worst)
    }

    /// One push-gossip step over the contribution matrix.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let n = self.node_count();
        let mut inbox = vec![vec![0.0; n]; n];
        let mut targets = TargetDraw::default();
        for j in 0..n {
            let row = &self.contrib[j];
            let neighbours = self.graph.neighbours(NodeId(j as u32));
            let k = self.fanouts[j].min(neighbours.len());
            if k == 0 {
                for (slot, &c) in inbox[j].iter_mut().zip(row) {
                    *slot += c;
                }
                continue;
            }
            let f = 1.0 / (k + 1) as f64;
            for (slot, &c) in inbox[j].iter_mut().zip(row) {
                *slot += c * f;
            }
            for &idx in targets.draw(rng, neighbours.len(), k) {
                let target = neighbours[idx] as usize;
                for (slot, &c) in inbox[target].iter_mut().zip(row) {
                    *slot += c * f;
                }
            }
        }
        self.contrib = inbox;
    }

    /// Run `steps` steps, returning the potential after each (index 0 =
    /// `ψ_0` before any step).
    pub fn trace<R: Rng + ?Sized>(&mut self, steps: usize, rng: &mut R) -> Vec<f64> {
        let mut out = Vec::with_capacity(steps + 1);
        out.push(self.potential());
        for _ in 0..steps {
            self.step(rng);
            out.push(self.potential());
        }
        out
    }
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
    fn initial_potential_is_n_minus_one() {
        // Appendix: ψ₀ = N − 1.
        for n in [5usize, 10, 37] {
            let g = generators::complete(n);
            let t = PotentialTracker::new(&g, FanoutPolicy::Uniform(1)).unwrap();
            assert!((t.potential() - (n as f64 - 1.0)).abs() < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn mass_conservation_of_contributions() {
        let g = pa::preferential_attachment(pa::PaConfig { nodes: 40, m: 2 }, &mut rng(1)).unwrap();
        let mut t = PotentialTracker::new(&g, FanoutPolicy::Differential).unwrap();
        for _ in 0..20 {
            t.step(&mut rng(2));
        }
        // Column sums (each node's total contribution across the network)
        // must stay 1; total weight must stay N.
        let n = t.node_count();
        for i in 0..n {
            let col: f64 = (0..n).map(|j| t.contrib[j][i]).sum();
            assert!((col - 1.0).abs() < 1e-9, "contribution of node {i} = {col}");
        }
        let total_weight: f64 = (0..n).map(|j| t.weight(NodeId(j as u32))).sum();
        assert!((total_weight - n as f64).abs() < 1e-9);
    }

    #[test]
    fn potential_decays_geometrically_on_average() {
        let g = generators::complete(30);
        let mut t = PotentialTracker::new(&g, FanoutPolicy::Uniform(1)).unwrap();
        let trace = t.trace(40, &mut rng(3));
        // After 40 steps of 1-push on a complete graph, ψ should have
        // fallen by orders of magnitude from ψ₀ = 29.
        assert!(trace[40] < trace[0] * 1e-3, "ψ_40 = {}", trace[40]);
        // And the imbalance bound of Theorem 5.2 should be tiny.
        assert!(t.max_imbalance().unwrap() < 1e-2);
    }

    #[test]
    fn differential_decays_at_least_as_fast_as_push_on_pa() {
        let g = pa::preferential_attachment(pa::PaConfig { nodes: 60, m: 2 }, &mut rng(4)).unwrap();
        let steps = 30;
        let avg_final = |policy: FanoutPolicy, seed: u64| -> f64 {
            (0..3)
                .map(|s| {
                    let mut t = PotentialTracker::new(&g, policy).unwrap();
                    *t.trace(steps, &mut rng(seed + s)).last().unwrap()
                })
                .sum::<f64>()
                / 3.0
        };
        let push = avg_final(FanoutPolicy::Uniform(1), 10);
        let diff = avg_final(FanoutPolicy::Differential, 10);
        assert!(
            diff <= push * 1.5,
            "differential ψ {diff} much worse than push {push}"
        );
    }
}
