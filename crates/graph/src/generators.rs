//! Baseline topologies: complete, ring, star, and the paper's 10-node
//! example network (Fig. 2 / Table 1).
//!
//! The complete graph is the setting analysed by Kempe et al. (the paper's
//! reference \[21\] and the substrate of GossipTrust \[17\]) and the
//! simulator's `Complete` topology; ring and star serve tests and
//! examples.

use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder};

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for a in 0..n as u32 {
        for c in (a + 1)..n as u32 {
            // Safe by construction: distinct in-range ids.
            b.add_edge(a, c).expect("complete graph edges are valid");
        }
    }
    b.build()
}

/// Cycle `C_n` (requires `n ≥ 3`).
pub fn ring(n: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::InvalidParameters(
            "ring needs at least 3 nodes".into(),
        ));
    }
    let mut b = GraphBuilder::new(n);
    for i in 0..n as u32 {
        let j = (i + 1) % n as u32;
        b.add_edge(i, j)?;
    }
    Ok(b.build())
}

/// Star with node 0 as hub (requires `n ≥ 2`).
pub fn star(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::InvalidParameters(
            "star needs at least 2 nodes".into(),
        ));
    }
    let mut b = GraphBuilder::new(n);
    for leaf in 1..n as u32 {
        b.add_edge(0u32, leaf)?;
    }
    Ok(b.build())
}

/// The 10-node example network of the paper's Fig. 2 / Table 1.
///
/// The paper reports the degree sequence (node 1..10, 1-indexed):
/// `4, 4, 7, 3, 3, 2, 2, 2, 3, 2` with differential fan-outs
/// `k = 1, 1, 3, 1, 1, 1, 1, 1, 1, 1` — node 3 is the hub. The figure's
/// exact edge list is not machine-readable in the source, so we use a
/// topology that realises the published degree sequence and fan-outs
/// exactly (checked in tests and re-checked by the Table 1 harness).
///
/// Edges (0-indexed ids = paper id − 1):
/// hub 2 connects to {3, 4, 5, 6, 7, 8, 9}; the two degree-4 nodes 0 and 1
/// form a periphery clique-ish block {0-1, 0-3, 0-4, 0-8, 1-3, 1-4, 1-8}
/// and the remaining stubs close with {5-6, 7-9}. With these degrees the
/// hub's average neighbour degree is 17/7 ≈ 2.43, so `k₃ = round(7/2.43)
/// = 3`, exactly as published.
pub fn paper_example() -> Graph {
    let mut b = GraphBuilder::new(10);
    let edges: [(u32, u32); 16] = [
        (2, 3),
        (2, 4),
        (2, 5),
        (2, 6),
        (2, 7),
        (2, 8),
        (2, 9),
        (0, 1),
        (0, 3),
        (0, 4),
        (0, 8),
        (1, 3),
        (1, 4),
        (1, 8),
        (5, 6),
        (7, 9),
    ];
    for (a, c) in edges {
        b.add_edge(a, c).expect("example edges are valid");
    }
    b.build()
}

/// Degree sequence the paper reports for the example network (0-indexed).
pub const PAPER_EXAMPLE_DEGREES: [usize; 10] = [4, 4, 7, 3, 3, 2, 2, 2, 3, 2];

/// Differential fan-outs the paper reports for the example network.
pub const PAPER_EXAMPLE_FANOUTS: [usize; 10] = [1, 1, 3, 1, 1, 1, 1, 1, 1, 1];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn complete_graph_edge_count() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 5);
        }
    }

    #[test]
    fn ring_and_star_shapes() {
        let r = ring(5).unwrap();
        assert_eq!(r.edge_count(), 5);
        assert!(r.nodes().all(|v| r.degree(v) == 2));

        let s = star(5).unwrap();
        assert_eq!(s.degree(NodeId(0)), 4);
        assert!((1..5).all(|v| s.degree(NodeId(v)) == 1));

        assert!(ring(2).is_err());
        assert!(star(1).is_err());
    }

    /// FNV-1a over the CSR words: every offset, then every neighbour.
    fn csr_checksum(g: &Graph) -> u64 {
        let words = g
            .offsets()
            .iter()
            .chain(g.nodes().flat_map(|v| g.neighbours(v)));
        words.fold(0xcbf2_9ce4_8422_2325u64, |acc, &w| {
            (acc ^ w as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The exact adjacency every seeded generator produces, so a change
    /// to how edges are collected cannot move a single neighbour.
    #[test]
    fn generator_csr_bits_are_pinned() {
        let pa = |m| {
            let cfg = crate::pa::PaConfig { nodes: 2000, m };
            crate::pa::preferential_attachment(cfg, &mut ChaCha8Rng::seed_from_u64(42)).unwrap()
        };
        assert_eq!(csr_checksum(&pa(2)), 0x5dd5_7429_c16a_5655);
        assert_eq!(csr_checksum(&pa(3)), 0x9d4f_f6cc_df5f_b105);
    }

    #[test]
    fn paper_example_matches_published_degrees_and_fanouts() {
        let g = paper_example();
        assert_eq!(g.node_count(), 10);
        let degrees: Vec<usize> = g.degrees();
        assert_eq!(degrees, PAPER_EXAMPLE_DEGREES.to_vec());
        let fanouts = g.differential_fanouts();
        assert_eq!(fanouts, PAPER_EXAMPLE_FANOUTS.to_vec());
        assert!(g.is_connected());
    }
}
