//! Generic traversals over data graphs: bounded BFS distances. The distance
//! oracles bring their own BFS kernels (`gpm-distance`); what is left here is
//! what a caller outside this crate still uses.

use crate::data_graph::DataGraph;
use crate::node_id::NodeId;
use std::collections::VecDeque;

/// Distance value used by the traversal helpers: `None` = unreachable.
pub type Hops = Option<u32>;

/// Shortest distances (in hops) from `start` to every node, stopping the
/// expansion at `max_hops` when given. `dist[start] == Some(0)`.
///
/// This is the *standard* distance (empty path allowed); the non-empty
/// distance needed by bounded simulation is provided by `gpm-distance`.
pub fn bfs_distances_bounded(g: &DataGraph, start: NodeId, max_hops: Option<u32>) -> Vec<Hops> {
    let mut dist: Vec<Hops> = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    dist[start.index()] = Some(0);
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()].expect("queued nodes have distances");
        if let Some(limit) = max_hops {
            if d >= limit {
                continue;
            }
        }
        for &w in g.out_neighbors(v) {
            if dist[w.index()].is_none() {
                dist[w.index()] = Some(d + 1);
                queue.push_back(w);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// 0 -> 1 -> 2 -> 3, 0 -> 2, 4 isolated.
    fn chain_graph() -> DataGraph {
        let mut g = DataGraph::new();
        g.add_nodes(5);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(2), n(3)).unwrap();
        g.add_edge(n(0), n(2)).unwrap();
        g
    }

    #[test]
    fn bfs_distances() {
        let g = chain_graph();
        let d = bfs_distances_bounded(&g, n(0), None);
        assert_eq!(d[0], Some(0));
        assert_eq!(d[1], Some(1));
        assert_eq!(d[2], Some(1)); // via the shortcut 0 -> 2
        assert_eq!(d[3], Some(2));
        assert_eq!(d[4], None);
    }

    #[test]
    fn bfs_distances_respect_bound() {
        let g = chain_graph();
        let d = bfs_distances_bounded(&g, n(0), Some(1));
        assert_eq!(d[1], Some(1));
        assert_eq!(d[2], Some(1));
        assert_eq!(d[3], None); // beyond the 1-hop horizon
    }

    fn arbitrary_graph(max_n: usize, max_e: usize) -> impl Strategy<Value = DataGraph> {
        (2..max_n).prop_flat_map(move |n_nodes| {
            proptest::collection::vec((0..n_nodes as u32, 0..n_nodes as u32), 0..max_e).prop_map(
                move |edges| {
                    let mut g = DataGraph::new();
                    g.add_nodes(n_nodes);
                    for (a, b) in edges {
                        let _ = g.try_add_edge(NodeId::new(a), NodeId::new(b));
                    }
                    g
                },
            )
        })
    }

    proptest! {
        /// BFS distances satisfy the triangle property over edges: if (v, w)
        /// is an edge and v is reachable, then dist(w) <= dist(v) + 1.
        #[test]
        fn prop_bfs_distance_edge_relaxed(g in arbitrary_graph(20, 80)) {
            let d = bfs_distances_bounded(&g, NodeId::new(0), None);
            for (v, w) in g.edges() {
                if let Some(dv) = d[v.index()] {
                    let dw = d[w.index()].expect("neighbour of reachable node is reachable");
                    prop_assert!(dw <= dv + 1);
                }
            }
        }
    }
}
