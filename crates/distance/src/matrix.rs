//! The all-pairs non-empty distance matrix `M` of a data graph.
//!
//! Built by one BFS per source node (`O(|V|(|V| + |E|))` total, as in the
//! proof of Theorem 3.1), the matrix answers non-empty shortest-path queries
//! in constant time — the property that makes `Match` insensitive to the hop
//! bound `k` and to `|E|` (Figures 6(f)–(h)).
//!
//! Distances are stored row-major as `u16` hop counts with
//! [`crate::UNREACHABLE`] marking "no non-empty path". Rows are patched in
//! place, one source at a time, by the incremental maintenance procedures
//! (`UpdateM` / `UpdateBM`, [`crate::incremental`]).

use crate::bfs::{bfs_row, Direction};
use crate::UNREACHABLE;
use gpm_exec::{Executor, Parallelism};
use gpm_graph::{Adjacency, DataGraph, EdgeBound, NodeId};
use std::collections::VecDeque;

/// All-pairs **non-empty** shortest-path distances of a data graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    /// Row-major: `dist[x * n + y]` = length of the shortest non-empty path
    /// from `x` to `y`, or `UNREACHABLE`.
    dist: Vec<u16>,
}

impl DistanceMatrix {
    /// Builds the matrix for `g`, one BFS per source node.
    ///
    /// The BFS from a source `x` is seeded with the out-neighbours of `x` at
    /// distance 1 (and never assigns distance 0 to `x` itself), which yields
    /// non-empty distances directly — including the shortest cycle length on
    /// the diagonal.
    pub fn build(g: &DataGraph) -> Self {
        Self::build_with(g, &Executor::sequential())
    }

    /// Builds the matrix on the shared executor: BFS sources are dealt to
    /// the workers in row chunks small enough for work stealing to balance
    /// the skewed per-source costs of hub-heavy graphs. Falls back to the
    /// sequential build when the executor is single-threaded or the graph is
    /// below the policy's sequential threshold.
    pub fn build_with(g: &DataGraph, exec: &Executor) -> Self {
        let n = g.node_count();
        let mut dist = vec![UNREACHABLE; n * n];
        if !exec.parallelism().should_parallelise(n) {
            let mut queue = VecDeque::new();
            for x in g.nodes() {
                let row = &mut dist[x.index() * n..(x.index() + 1) * n];
                bfs_row(g, x, Direction::Forward, true, row, &mut queue);
            }
            return DistanceMatrix { n, dist };
        }
        // Rows per task: a few tasks per worker so stealing has slack.
        let rows_per_task = n.div_ceil(exec.threads() * 4).max(1);
        exec.par_chunks_mut(&mut dist, rows_per_task * n, |chunk_idx, chunk| {
            let mut queue = VecDeque::new();
            for (i, row) in chunk.chunks_mut(n).enumerate() {
                let x = NodeId::new((chunk_idx * rows_per_task + i) as u32);
                bfs_row(g, x, Direction::Forward, true, row, &mut queue);
            }
        });
        DistanceMatrix { n, dist }
    }

    /// Builds the matrix using `threads` worker threads. Convenience wrapper
    /// over [`DistanceMatrix::build_with`] with a default [`Parallelism`]
    /// policy at that thread count.
    pub fn build_parallel(g: &DataGraph, threads: usize) -> Self {
        Self::build_with(g, &Executor::new(Parallelism::new(threads)))
    }

    /// Recomputes the row of source `x` against (an updated) `g`, in place.
    /// Returns the list of sinks whose distance changed, with `(old, new)`
    /// values. Maintenance does not call it (a deletion repairs the row of
    /// `s` like every other row of its cone); it is the independent
    /// reference the `sweep_` tests hold that repaired row against.
    pub fn rebuild_row<G: Adjacency>(&mut self, g: &G, x: NodeId) -> Vec<(NodeId, u16, u16)> {
        debug_assert_eq!(g.node_count(), self.n, "graph/matrix size mismatch");
        let n = self.n;
        let row = &mut self.dist[x.index() * n..(x.index() + 1) * n];
        let old_row = row.to_vec();
        bfs_row(g, x, Direction::Forward, true, row, &mut VecDeque::new());
        old_row
            .iter()
            .zip(row.iter())
            .enumerate()
            .filter(|(_, (o, nw))| o != nw)
            .map(|(y, (&o, &nw))| (NodeId::new(y as u32), o, nw))
            .collect()
    }

    /// The row of source `x`: its non-empty distance to every sink.
    #[inline]
    pub(crate) fn row(&self, x: NodeId) -> &[u16] {
        &self.dist[x.index() * self.n..(x.index() + 1) * self.n]
    }

    /// The row of source `x`, writable: a maintenance unit patches one
    /// source's contiguous row at a time.
    #[inline]
    pub(crate) fn row_mut(&mut self, x: NodeId) -> &mut [u16] {
        &mut self.dist[x.index() * self.n..(x.index() + 1) * self.n]
    }

    /// Number of nodes the matrix covers.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Raw entry: non-empty distance from `x` to `y` in hops, `UNREACHABLE`
    /// if there is no non-empty path.
    #[inline]
    pub fn get(&self, x: NodeId, y: NodeId) -> u16 {
        self.dist[x.index() * self.n + y.index()]
    }

    /// Sets the entry for `(x, y)`; used by the incremental procedures.
    #[inline]
    pub fn set(&mut self, x: NodeId, y: NodeId, value: u16) {
        self.dist[x.index() * self.n + y.index()] = value;
    }

    /// Length of the shortest **non-empty** path from `x` to `y`, if any.
    #[inline]
    pub fn nonempty_distance(&self, x: NodeId, y: NodeId) -> Option<u32> {
        match self.get(x, y) {
            UNREACHABLE => None,
            d => Some(u32::from(d)),
        }
    }

    /// Standard shortest-path distance (empty path allowed, so the diagonal
    /// is 0).
    #[inline]
    pub fn standard_distance(&self, x: NodeId, y: NodeId) -> Option<u32> {
        if x == y {
            Some(0)
        } else {
            self.nonempty_distance(x, y)
        }
    }

    /// Whether some non-empty path from `x` to `y` has length `<= limit`.
    /// A `limit` at or past the `u16` horizon still means "some path": an
    /// unreachable pair is within no bound.
    #[inline]
    pub fn within_hops(&self, x: NodeId, y: NodeId, limit: u32) -> bool {
        self.get(x, y) <= crate::hop_limit(EdgeBound::Hops(limit))
    }

    /// Whether `y` is reachable from `x` by a non-empty path.
    #[inline]
    pub fn reachable(&self, x: NodeId, y: NodeId) -> bool {
        self.get(x, y) != UNREACHABLE
    }

    /// Iterates over all finite entries as `(source, sink, hops)`.
    pub fn finite_entries(&self) -> impl Iterator<Item = (NodeId, NodeId, u16)> + '_ {
        let n = self.n;
        self.dist.iter().enumerate().filter_map(move |(i, &d)| {
            if d == UNREACHABLE {
                None
            } else {
                Some((NodeId::new((i / n) as u32), NodeId::new((i % n) as u32), d))
            }
        })
    }

    /// Number of finite (reachable) entries; useful for density diagnostics.
    pub fn reachable_pair_count(&self) -> usize {
        self.dist.iter().filter(|&&d| d != UNREACHABLE).count()
    }

    /// Approximate heap size of the matrix in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.dist.len() * std::mem::size_of::<u16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::Attributes;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// 0 -> 1 -> 2 -> 0 (a triangle) plus 2 -> 3.
    fn triangle_plus_tail() -> DataGraph {
        let mut g = DataGraph::new();
        g.add_nodes(4);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(2), n(0)).unwrap();
        g.add_edge(n(2), n(3)).unwrap();
        g
    }

    #[test]
    fn distances_on_small_graph() {
        let g = triangle_plus_tail();
        let m = DistanceMatrix::build(&g);
        assert_eq!(m.node_count(), 4);
        assert_eq!(m.nonempty_distance(n(0), n(1)), Some(1));
        assert_eq!(m.nonempty_distance(n(0), n(2)), Some(2));
        assert_eq!(m.nonempty_distance(n(0), n(3)), Some(3));
        assert_eq!(m.nonempty_distance(n(3), n(0)), None);
        // Diagonal = shortest cycle length.
        assert_eq!(m.nonempty_distance(n(0), n(0)), Some(3));
        assert_eq!(m.nonempty_distance(n(3), n(3)), None);
        // Standard distance has a zero diagonal.
        assert_eq!(m.standard_distance(n(0), n(0)), Some(0));
        assert_eq!(m.standard_distance(n(0), n(3)), Some(3));
    }

    #[test]
    fn self_loop_gives_diagonal_one() {
        let mut g = DataGraph::new();
        g.add_node(Attributes::new());
        g.add_edge(n(0), n(0)).unwrap();
        let m = DistanceMatrix::build(&g);
        assert_eq!(m.nonempty_distance(n(0), n(0)), Some(1));
    }

    #[test]
    fn within_hops_and_reachable() {
        let g = triangle_plus_tail();
        let m = DistanceMatrix::build(&g);
        assert!(m.within_hops(n(0), n(3), 3));
        assert!(!m.within_hops(n(0), n(3), 2));
        assert!(m.reachable(n(1), n(3)));
        assert!(!m.reachable(n(3), n(1)));
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = DataGraph::new();
        let m = DistanceMatrix::build(&g);
        assert_eq!(m.node_count(), 0);
        assert_eq!(m.reachable_pair_count(), 0);

        let mut g1 = DataGraph::new();
        g1.add_node(Attributes::new());
        let m1 = DistanceMatrix::build(&g1);
        assert_eq!(m1.nonempty_distance(n(0), n(0)), None);
    }

    #[test]
    fn finite_entries_enumeration() {
        let g = triangle_plus_tail();
        let m = DistanceMatrix::build(&g);
        let entries: Vec<_> = m.finite_entries().collect();
        assert_eq!(entries.len(), m.reachable_pair_count());
        assert!(entries.contains(&(n(0), n(3), 3)));
        // 3 has no outgoing edges: no finite entries in its row.
        assert!(entries.iter().all(|&(x, _, _)| x != n(3)));
    }

    #[test]
    fn rebuild_row_reports_changes() {
        let mut g = triangle_plus_tail();
        let mut m = DistanceMatrix::build(&g);
        g.remove_edge(n(2), n(3)).unwrap();
        let changed = m.rebuild_row(&m_graph_clone(&g), n(0));
        // After removing 2 -> 3, node 3 is unreachable from 0.
        assert_eq!(changed, vec![(n(3), 3, UNREACHABLE)]);
        assert_eq!(m.nonempty_distance(n(0), n(3)), None);
        // Rebuilding again reports nothing.
        assert!(m.rebuild_row(&g, n(0)).is_empty());
    }

    // Helper so the borrow of `g` in the test above reads naturally.
    fn m_graph_clone(g: &DataGraph) -> DataGraph {
        g.clone()
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let mut g = DataGraph::new();
        g.add_nodes(300);
        // A ring with chords so there are interesting distances.
        for i in 0..300u32 {
            g.add_edge(n(i), n((i + 1) % 300)).unwrap();
            if i % 7 == 0 {
                g.add_edge(n(i), n((i + 13) % 300)).unwrap();
            }
        }
        let seq = DistanceMatrix::build(&g);
        let par = DistanceMatrix::build_parallel(&g, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn memory_accounting() {
        let g = triangle_plus_tail();
        let m = DistanceMatrix::build(&g);
        assert_eq!(m.memory_bytes(), 16 * 2);
    }

    fn arbitrary_graph() -> impl Strategy<Value = DataGraph> {
        (2usize..18).prop_flat_map(|nodes| {
            proptest::collection::vec((0..nodes as u32, 0..nodes as u32), 0..70).prop_map(
                move |edges| {
                    let mut g = DataGraph::new();
                    g.add_nodes(nodes);
                    for (a, b) in edges {
                        let _ = g.try_add_edge(NodeId::new(a), NodeId::new(b));
                    }
                    g
                },
            )
        })
    }

    /// Reference implementation: non-empty shortest distance by exhaustive BFS
    /// that never uses the trivial empty path.
    fn slow_nonempty_distance(g: &DataGraph, x: NodeId, y: NodeId) -> Option<u32> {
        let mut dist = vec![None::<u32>; g.node_count()];
        let mut queue = VecDeque::new();
        for &w in g.out_neighbors(x) {
            if dist[w.index()].is_none() {
                dist[w.index()] = Some(1);
                queue.push_back(w);
            }
        }
        while let Some(v) = queue.pop_front() {
            let d = dist[v.index()].unwrap();
            for &w in g.out_neighbors(v) {
                if dist[w.index()].is_none() {
                    dist[w.index()] = Some(d + 1);
                    queue.push_back(w);
                }
            }
        }
        dist[y.index()]
    }

    proptest! {
        /// The matrix agrees with a direct per-query BFS on every pair.
        #[test]
        fn prop_matrix_matches_reference(g in arbitrary_graph()) {
            let m = DistanceMatrix::build(&g);
            for x in g.nodes() {
                for y in g.nodes() {
                    prop_assert_eq!(
                        m.nonempty_distance(x, y),
                        slow_nonempty_distance(&g, x, y),
                        "disagreement for ({}, {})", x, y
                    );
                }
            }
        }

        /// Triangle inequality over concatenation of non-empty paths.
        #[test]
        fn prop_triangle_inequality(g in arbitrary_graph()) {
            let m = DistanceMatrix::build(&g);
            for x in g.nodes() {
                for y in g.nodes() {
                    for z in g.nodes() {
                        if let (Some(a), Some(b)) =
                            (m.nonempty_distance(x, y), m.nonempty_distance(y, z))
                        {
                            let via = a + b;
                            let direct = m
                                .nonempty_distance(x, z)
                                .expect("concatenation witnesses a path");
                            prop_assert!(direct <= via);
                        }
                    }
                }
            }
        }
    }
}
