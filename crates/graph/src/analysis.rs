//! Connectivity check: the generators' tests assert that what they
//! build is one component (gossip mass cannot cross components).

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// BFS distances (in hops) from `source`; `u32::MAX` marks unreachable.
pub fn bfs_distances(graph: &Graph, source: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; graph.node_count()];
    if source.index() >= graph.node_count() {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for &w in graph.neighbours(v) {
            let w = NodeId(w);
            if dist[w.index()] == u32::MAX {
                dist[w.index()] = dv + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Whether the graph is connected (vacuously true for ≤ 1 node).
pub fn is_connected(graph: &Graph) -> bool {
    match graph.node_count() {
        0 | 1 => true,
        _ => bfs_distances(graph, NodeId(0))
            .iter()
            .all(|&d| d != u32::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::GraphBuilder;

    #[test]
    fn bfs_on_ring() {
        let g = generators::ring(6).unwrap();
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn connectivity_of_split_whole_and_empty_graphs() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0u32, 1u32).unwrap();
        b.add_edge(2u32, 3u32).unwrap();
        assert!(!is_connected(&b.build()));
        assert!(is_connected(&generators::ring(6).unwrap()));
        assert!(is_connected(&GraphBuilder::new(0).build()));
    }
}
