//! Immutable CSR graph and its edge-list builder.
//!
//! The gossip inner loop touches every node's neighbour list once per step,
//! so the permanent representation is a compressed-sparse-row layout: one
//! `u32` offset array and one flat neighbour array. Construction goes
//! through [`GraphBuilder`], which rejects self loops, collects edges in
//! one list and buckets, sorts, deduplicates and freezes it into a
//! [`Graph`].

use crate::error::GraphError;
use std::fmt;

/// Identifier of a node in a topology.
///
/// A thin `u32` newtype: the paper simulates up to 50 000 nodes, and 32-bit
/// ids keep the CSR arrays half the size of `usize` ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Undirected simple-graph builder over one directed edge list, which
/// [`Self::build`] buckets, sorts and deduplicates into CSR: the frozen
/// [`Graph`] is always a simple graph.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    nodes: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Create a builder for `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Self {
            nodes: n,
            edges: Vec::new(),
        }
    }

    /// Add an undirected edge. Idempotent: a repeated edge is merged by
    /// [`Self::build`].
    pub fn add_edge(
        &mut self,
        a: impl Into<NodeId>,
        b: impl Into<NodeId>,
    ) -> Result<(), GraphError> {
        let (a, b) = (a.into(), b.into());
        let n = self.nodes;
        for id in [a, b] {
            if id.index() >= n {
                return Err(GraphError::NodeOutOfRange { id: id.0, n });
            }
        }
        if a == b {
            return Err(GraphError::SelfLoop(a.0));
        }
        self.edges.push((a.0, b.0));
        self.edges.push((b.0, a.0));
        Ok(())
    }

    /// Freeze into the immutable CSR representation: bucket the directed
    /// edges by source with a counting sort, then sort and deduplicate
    /// each row where it lies.
    pub fn build(self) -> Graph {
        let n = self.nodes;
        // Counts sit two slots up, so the scatter can use slot `a + 1` as
        // row `a`'s cursor and leave it at the row's end, which is row
        // `a + 1`'s start: `offsets[..=n]` then delimits every row.
        let mut offsets = vec![0u32; n + 2];
        for &(a, _) in &self.edges {
            offsets[a as usize + 2] += 1;
        }
        for i in 2..n + 2 {
            offsets[i] += offsets[i - 1];
        }
        let mut neighbours = vec![0u32; self.edges.len()];
        for &(a, b) in &self.edges {
            let cursor = &mut offsets[a as usize + 1];
            neighbours[*cursor as usize] = b;
            *cursor += 1;
        }
        offsets.truncate(n + 1);
        // Each row sorted, its repeats dropped and the row moved down
        // over the repeats dropped before it.
        let mut kept = 0;
        for i in 0..n {
            let row = offsets[i] as usize..offsets[i + 1] as usize;
            offsets[i] = kept as u32;
            neighbours[row.clone()].sort_unstable();
            for at in row {
                let b = neighbours[at];
                if kept == offsets[i] as usize || neighbours[kept - 1] != b {
                    neighbours[kept] = b;
                    kept += 1;
                }
            }
        }
        offsets[n] = kept as u32;
        neighbours.truncate(kept);
        neighbours.shrink_to_fit();
        Graph {
            offsets,
            neighbours,
        }
    }
}

/// Immutable undirected simple graph in CSR form.
///
/// Neighbour lists are sorted ascending ([`GraphBuilder::build`] sorts
/// its edge list), which [`Graph::has_edge`] exploits with a binary
/// search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<u32>,
    neighbours: Vec<u32>,
}

impl Graph {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.neighbours.len() / 2
    }

    /// Neighbour slice of `node`.
    ///
    /// # Panics
    /// Panics if `node` is out of range (programming error in the caller:
    /// node ids are only minted by this crate's generators).
    #[inline]
    pub fn neighbours(&self, node: NodeId) -> &[u32] {
        let i = node.index();
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.neighbours[lo..hi]
    }

    /// Degree of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbours(node).len()
    }

    /// The CSR row offsets (`node_count() + 1` entries, ascending):
    /// `neighbours(i)` occupies positions `offsets()[i]..offsets()[i + 1]`
    /// of the flat adjacency. Lets a caller keep per-(node, neighbour)
    /// state in one flat array aligned to the adjacency instead of one
    /// container per node.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Whether the edge `{a, b}` exists (binary search over sorted list).
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbours(a).binary_search(&b.0).is_ok()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterator over every undirected edge exactly once (`a < b`).
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |a| {
            self.neighbours(a)
                .iter()
                .copied()
                .filter(move |&b| a.0 < b)
                .map(move |b| (a, NodeId(b)))
        })
    }

    /// Degree vector indexed by node id.
    pub fn degrees(&self) -> Vec<usize> {
        self.nodes().map(|v| self.degree(v)).collect()
    }

    /// Average degree of the *neighbours* of `node`.
    ///
    /// This is the denominator of the paper's differential-push fan-out
    /// `k_i = round(deg(i) / avg-neighbour-degree)`. Returns `None` for an
    /// isolated node.
    pub(crate) fn average_neighbour_degree(&self, node: NodeId) -> Option<f64> {
        let ns = self.neighbours(node);
        if ns.is_empty() {
            return None;
        }
        let sum: usize = ns.iter().map(|&v| self.degree(NodeId(v))).sum();
        Some(sum as f64 / ns.len() as f64)
    }

    /// The paper's differential fan-out `k_i`.
    ///
    /// `k_i = round(deg(i) / avg-neighbour-degree)` rounded to the nearest
    /// integer when the ratio is ≥ 1, and clamped to 1 otherwise (isolated
    /// nodes also get 1 so the engine can still self-push and retain mass).
    pub(crate) fn differential_fanout(&self, node: NodeId) -> usize {
        match self.average_neighbour_degree(node) {
            None => 1,
            Some(avg) => {
                let ratio = self.degree(node) as f64 / avg;
                if ratio >= 1.0 {
                    (ratio.round() as usize).max(1)
                } else {
                    1
                }
            }
        }
    }

    /// Precomputed fan-outs for every node (hot-loop helper).
    pub fn differential_fanouts(&self) -> Vec<usize> {
        self.nodes().map(|v| self.differential_fanout(v)).collect()
    }

    /// Whether every node is reachable from node 0 (vacuously true for
    /// ≤ 1 node): the generators' tests assert that what they build is
    /// one component, since gossip mass cannot cross components.
    #[cfg(test)]
    pub(crate) fn is_connected(&self) -> bool {
        let mut seen = vec![false; self.node_count()];
        let mut stack = Vec::new();
        if let Some(first) = seen.first_mut() {
            *first = true;
            stack.push(0);
        }
        while let Some(v) = stack.pop() {
            for &w in self.neighbours(NodeId(v)) {
                if !std::mem::replace(&mut seen[w as usize], true) {
                    stack.push(w);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeSet;

    fn path3() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0u32, 1u32).unwrap();
        b.add_edge(1u32, 2u32).unwrap();
        b.build()
    }

    #[test]
    fn offsets_delimit_each_neighbour_slice() {
        let g = path3();
        assert_eq!(g.offsets(), &[0, 1, 3, 4]);
        for i in g.nodes() {
            let span = g.offsets()[i.index() + 1] - g.offsets()[i.index()];
            assert_eq!(span as usize, g.degree(i));
        }
    }

    #[test]
    fn builder_rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(b.add_edge(0u32, 0u32), Err(GraphError::SelfLoop(0)));
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_edge(0u32, 7u32),
            Err(GraphError::NodeOutOfRange { id: 7, n: 2 })
        );
    }

    #[test]
    fn builder_deduplicates_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0u32, 1u32).unwrap();
        b.add_edge(1u32, 0u32).unwrap();
        b.add_edge(0u32, 1u32).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.offsets(), &[0, 1, 2, 2]);
    }

    /// Rows bucketed, sorted and deduplicated in place read as the sorted,
    /// deduplicated directed edge list, on a list dense with repeats in
    /// both directions and with isolated nodes at both ends.
    #[test]
    fn build_matches_the_sorted_deduplicated_edge_list() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut b = GraphBuilder::new(45);
        let mut reference = BTreeSet::new();
        for _ in 0..600 {
            let (a, c) = (rng.random_range(1..41u32), rng.random_range(1..41u32));
            if a != c {
                b.add_edge(a, c).unwrap();
                reference.extend([(a, c), (c, a)]);
            }
        }
        let g = b.build();
        let rows: Vec<(u32, u32)> = g
            .nodes()
            .flat_map(|a| g.neighbours(a).iter().map(move |&c| (a.0, c)))
            .collect();
        assert_eq!(rows, reference.into_iter().collect::<Vec<_>>());
        assert_eq!(g.offsets().len(), 46);
        assert_eq!(g.degree(NodeId(0)) + g.degree(NodeId(44)), 0);
    }

    #[test]
    fn csr_roundtrip_preserves_adjacency() {
        let g = path3();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbours(NodeId(1)), &[0, 2]);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = path3();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
    }

    #[test]
    fn average_neighbour_degree() {
        let g = path3();
        // Node 1 has neighbours 0 and 2, each of degree 1.
        assert_eq!(g.average_neighbour_degree(NodeId(1)), Some(1.0));
        // Node 0's single neighbour (1) has degree 2.
        assert_eq!(g.average_neighbour_degree(NodeId(0)), Some(2.0));
    }

    #[test]
    fn differential_fanout_matches_paper_rule() {
        let g = path3();
        // Node 1: deg 2, avg neighbour deg 1 -> k = 2.
        assert_eq!(g.differential_fanout(NodeId(1)), 2);
        // Node 0: deg 1, avg neighbour deg 2 -> ratio 0.5 < 1 -> k = 1.
        assert_eq!(g.differential_fanout(NodeId(0)), 1);
    }

    #[test]
    fn isolated_node_fanout_is_one() {
        let g = GraphBuilder::new(1).build();
        assert_eq!(g.differential_fanout(NodeId(0)), 1);
        assert_eq!(g.average_neighbour_degree(NodeId(0)), None);
    }

    #[test]
    fn star_fanout_is_hub_degree() {
        // Hub 0 with 4 leaves: hub deg 4, neighbours all deg 1 -> k = 4.
        let mut b = GraphBuilder::new(5);
        for leaf in 1..5u32 {
            b.add_edge(0u32, leaf).unwrap();
        }
        let g = b.build();
        assert_eq!(g.differential_fanout(NodeId(0)), 4);
        for leaf in 1..5u32 {
            assert_eq!(g.differential_fanout(NodeId(leaf)), 1);
        }
    }

    #[test]
    fn connectivity_of_split_whole_and_empty_graphs() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0u32, 1u32).unwrap();
        b.add_edge(2u32, 3u32).unwrap();
        assert!(!b.build().is_connected());
        assert!(path3().is_connected());
        assert!(GraphBuilder::new(0).build().is_connected());
    }
}
