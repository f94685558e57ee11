//! Preferential-attachment (PA) power-law graph generator.
//!
//! The paper's evaluation runs on `G^m_N` graphs evolved by the Bollobás–
//! Riordan preferential-attachment process: starting from a small seed
//! clique, each arriving node attaches `m ≥ 2` edges, choosing endpoints
//! with probability proportional to their current degree. The resulting
//! degree distribution follows a power law `P(d) ∝ d^{-γ}` with `γ ≈ 3`
//! asymptotically (measured Gnutella exponents are ≈ 2.3, which the paper
//! cites as motivation).
//!
//! The implementation uses the classic *repeated-nodes* trick: every time an
//! edge `{u, v}` is created, both endpoints are appended to a list, so
//! sampling uniformly from the list is exactly degree-proportional sampling
//! in `O(1)`.

use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder};
use rand::Rng;

/// Parameters for the PA process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaConfig {
    /// Total number of nodes `N`.
    pub nodes: usize,
    /// Edges brought by each arriving node (`m ≥ 2` per the paper).
    pub m: usize,
}

impl PaConfig {
    /// Config with the paper's default `m = 2`.
    pub fn with_nodes(nodes: usize) -> Self {
        Self { nodes, m: 2 }
    }

    fn validate(&self) -> Result<(), GraphError> {
        if self.m < 1 {
            return Err(GraphError::InvalidParameters("m must be at least 1".into()));
        }
        if self.nodes <= self.m {
            return Err(GraphError::InvalidParameters(format!(
                "need more than m+1 = {} nodes, got {}",
                self.m + 1,
                self.nodes
            )));
        }
        Ok(())
    }
}

/// Generate a PA graph `G^m_N`.
///
/// The seed component is a clique over the first `m + 1` nodes (so every
/// early node already has degree ≥ m and the graph is connected); each
/// subsequent node then attaches `m` edges to distinct, degree-
/// proportionally chosen existing nodes.
///
/// # Errors
/// Returns [`GraphError::InvalidParameters`] when `m < 1` or
/// `nodes ≤ m`.
pub fn preferential_attachment<R: Rng + ?Sized>(
    config: PaConfig,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    config.validate()?;
    let PaConfig { nodes, m } = config;

    let mut builder = GraphBuilder::new(nodes);
    // Degree-proportional sampling pool: node u appears deg(u) times.
    let mut pool: Vec<u32> = Vec::with_capacity(2 * m * nodes);

    // Seed clique over nodes 0..=m.
    for a in 0..=(m as u32) {
        for b in (a + 1)..=(m as u32) {
            builder.add_edge(a, b)?;
            pool.push(a);
            pool.push(b);
        }
    }

    let mut targets: Vec<u32> = Vec::with_capacity(m);
    for new in (m + 1)..nodes {
        let new = new as u32;
        targets.clear();
        // Choose m distinct targets degree-proportionally. Rejection
        // sampling terminates quickly because m is tiny relative to the
        // number of distinct pool entries.
        while targets.len() < m {
            let candidate = pool[rng.random_range(0..pool.len())];
            if !targets.contains(&candidate) {
                targets.push(candidate);
            }
        }
        for &t in &targets {
            builder.add_edge(new, t)?;
            pool.push(new);
            pool.push(t);
        }
    }

    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Expected number of edges of `G^m_N`: the seed clique contributes
    /// `m(m+1)/2`, each of the remaining `N − (m+1)` arrivals exactly `m`.
    fn expected_edges(config: PaConfig) -> usize {
        let PaConfig { nodes, m } = config;
        m * (m + 1) / 2 + m * (nodes - m - 1)
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(preferential_attachment(PaConfig { nodes: 2, m: 2 }, &mut rng(0)).is_err());
        assert!(preferential_attachment(PaConfig { nodes: 10, m: 0 }, &mut rng(0)).is_err());
    }

    #[test]
    fn edge_count_matches_formula() {
        for &(n, m) in &[(10usize, 2usize), (100, 2), (100, 3), (57, 4)] {
            let cfg = PaConfig { nodes: n, m };
            let g = preferential_attachment(cfg, &mut rng(42)).unwrap();
            assert_eq!(g.edge_count(), expected_edges(cfg), "n={n} m={m}");
            assert_eq!(g.node_count(), n);
        }
    }

    #[test]
    fn every_node_has_degree_at_least_m() {
        let cfg = PaConfig { nodes: 200, m: 2 };
        let g = preferential_attachment(cfg, &mut rng(7)).unwrap();
        for v in g.nodes() {
            assert!(g.degree(v) >= cfg.m, "node {v} degree {}", g.degree(v));
        }
    }

    #[test]
    fn graph_is_connected() {
        let g = preferential_attachment(PaConfig { nodes: 500, m: 2 }, &mut rng(3)).unwrap();
        assert!(g.is_connected());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = PaConfig { nodes: 300, m: 2 };
        let a = preferential_attachment(cfg, &mut rng(9)).unwrap();
        let b = preferential_attachment(cfg, &mut rng(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = PaConfig { nodes: 300, m: 2 };
        let a = preferential_attachment(cfg, &mut rng(1)).unwrap();
        let b = preferential_attachment(cfg, &mut rng(2)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        // The max degree of a PA graph grows ~ sqrt(N); a random-regular
        // graph would stay at m. Sanity-check the hub structure exists.
        let g = preferential_attachment(PaConfig { nodes: 2000, m: 2 }, &mut rng(11)).unwrap();
        let max_deg = g.nodes().map(|v| g.degree(v)).max().unwrap();
        assert!(max_deg > 20, "expected a hub, max degree {max_deg}");
    }

    /// The paper's one assumption about the overlay: its degree tail is a
    /// power law `P(d) ∝ d^{-γ}`. Asymptotically PA gives `γ = 3`; finite
    /// instances land roughly in [2, 4]. `γ` is the Clauset–Shalizi–Newman
    /// maximum-likelihood estimate over degrees `≥ d_min`:
    /// `γ̂ = 1 + n · (Σ ln(d_i / (d_min − ½)))⁻¹`.
    #[test]
    fn degree_tail_is_a_power_law() {
        let g = preferential_attachment(PaConfig { nodes: 5000, m: 2 }, &mut rng(5)).unwrap();
        let d_min = 3;
        let shift = d_min as f64 - 0.5;
        let tail: Vec<f64> = g
            .degrees()
            .into_iter()
            .filter(|&d| d >= d_min)
            .map(|d| (d as f64 / shift).ln())
            .collect();
        let gamma = 1.0 + tail.len() as f64 / tail.iter().sum::<f64>();
        assert!((1.8..4.5).contains(&gamma), "gamma = {gamma}");
    }
}
