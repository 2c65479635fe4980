//! The all-pairs non-empty distance matrix `M` of a data graph.
//!
//! The matrix answers non-empty shortest-path queries in constant time — the
//! property that makes `Match` insensitive to the hop bound `k` and to `|E|`
//! (Figures 6(f)–(h)). The proof of Theorem 3.1 builds it by one BFS per
//! source node, `O(|V|(|V| + |E|))` in total. The build here keeps that bound
//! and changes the constant: 64 consecutive sources share one word-parallel
//! traversal ([`DistanceMatrix::build_with`]), so an edge is scanned once for
//! all the sources of a block that reach its tail on the same level. Where
//! no two sources of a block ever do — a long chain, a grid — nothing is
//! shared and the build costs somewhat more than `|V|` plain BFS passes
//! (README, backend trade-offs).
//!
//! Distances are stored row-major as `u16` hop counts with
//! [`crate::UNREACHABLE`] marking "no non-empty path". Rows are patched in
//! place, one source at a time, by the incremental maintenance procedures
//! (`UpdateM` / `UpdateBM`, [`crate::incremental`]).

use crate::bfs::{multi_bfs, Direction, MultiBfs};
use crate::UNREACHABLE;
use gpm_exec::Executor;
use gpm_graph::{DataGraph, NodeId};
use std::sync::Mutex;

/// Rows a build takes from one traversal: the roots of a `multi_bfs` pass,
/// one bit each of its frontier word.
const BLOCK: usize = 64;

/// Traversals a build over `n` nodes makes.
pub(crate) fn build_traversals(n: usize) -> u64 {
    n.div_ceil(BLOCK) as u64
}

/// All-pairs **non-empty** shortest-path distances of a data graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    /// Row-major: `dist[x * n + y]` = length of the shortest non-empty path
    /// from `x` to `y`, or `UNREACHABLE`.
    dist: Vec<u16>,
}

impl DistanceMatrix {
    /// Builds the matrix for `g` on the caller thread.
    ///
    /// A row is a non-empty BFS from its source `x`: seeded with the
    /// out-neighbours of `x` at distance 1, never assigning distance 0 to
    /// `x` itself, which yields non-empty distances directly — including the
    /// shortest cycle length on the diagonal. See
    /// [`DistanceMatrix::build_with`] for how the rows share their
    /// traversals.
    pub fn build(g: &DataGraph) -> Self {
        Self::build_with(g, &Executor::sequential())
    }

    /// Builds the matrix on the shared executor, 64 consecutive rows to a
    /// traversal: one multi-source BFS (`multi_bfs`) carries the sources of a
    /// block as one frontier word per node and writes each arrival straight
    /// into the block's rows. The blocks are dealt to the workers; a
    /// single-threaded executor runs them inline, and either way a worker
    /// reuses its BFS scratch across the blocks it runs. The matrix is
    /// bit-identical at every thread count.
    pub fn build_with(g: &DataGraph, exec: &Executor) -> Self {
        let n = g.node_count();
        let mut dist = vec![UNREACHABLE; n * n];
        if n == 0 {
            return DistanceMatrix { n, dist }; // no rows: no block length
        }
        const POOL: &str = "no block panicked holding the scratch pool";
        let pool: Mutex<Vec<MultiBfs>> = Mutex::default();
        exec.par_chunks_mut(&mut dist, BLOCK * n, |block, rows| {
            let mut bfs = pool.lock().expect(POOL).pop().unwrap_or_default();
            let first = block * BLOCK;
            let sources: Vec<NodeId> = (first..first + rows.len() / n)
                .map(|x| NodeId::new(x as u32))
                .collect();
            let write = |y: NodeId, arrived: u64, d: u16| {
                let mut bits = arrived;
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    rows[j * n + y.index()] = d;
                }
                arrived
            };
            multi_bfs(g, &sources, Direction::Forward, true, &mut bfs, write);
            pool.lock().expect(POOL).push(bfs);
        });
        if gpm_obs::enabled() {
            let m = crate::metrics::build_metrics();
            m.matrix_traversals.add(build_traversals(n));
        }
        DistanceMatrix { n, dist }
    }

    /// Recomputes the row of source `x` against (an updated) `g`, in place,
    /// by a plain [`bfs_row`](crate::bfs::bfs_row). Returns the list of sinks
    /// whose distance changed, with `(old, new)` values. Neither the build
    /// nor maintenance calls it (a deletion repairs the row of `s` like
    /// every other row of its cone); it is the independent per-row reference
    /// the `matrix_build_` and `sweep_` tests hold their rows against.
    #[cfg(test)]
    pub(crate) fn rebuild_row<G: gpm_graph::Adjacency>(
        &mut self,
        g: &G,
        x: NodeId,
    ) -> Vec<(NodeId, u16, u16)> {
        debug_assert_eq!(g.node_count(), self.n, "graph/matrix size mismatch");
        let row = self.row_mut(x);
        let old_row = row.to_vec();
        crate::bfs::bfs_row(g, x, Direction::Forward, true, row, &mut Default::default());
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

    /// Whether `y` is reachable from `x` by a non-empty path.
    #[inline]
    pub fn reachable(&self, x: NodeId, y: NodeId) -> bool {
        self.get(x, y) != UNREACHABLE
    }

    /// Approximate heap size of the matrix in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.dist.len() * std::mem::size_of::<u16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_datagen::adversarial::{bowtie, cliques_with_bridges, deep_chain, grid, star};
    use gpm_datagen::{powerlaw_graph, random_graph, PowerLawConfig, RandomGraphConfig};
    use gpm_exec::Parallelism;
    use gpm_graph::Attributes;
    use proptest::prelude::*;
    use std::collections::VecDeque;

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
        assert_eq!(m.nonempty_distance(n(0), n(3)), Some(3));
        assert!(m.reachable(n(1), n(3)));
        assert!(!m.reachable(n(3), n(1)));
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = DataGraph::new();
        let m = DistanceMatrix::build(&g);
        assert_eq!(m.node_count(), 0);

        let mut g1 = DataGraph::new();
        g1.add_node(Attributes::new());
        let m1 = DistanceMatrix::build(&g1);
        assert_eq!(m1.nonempty_distance(n(0), n(0)), None);
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
        let par = DistanceMatrix::build_with(&g, &Executor::new(Parallelism::new(4)));
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

    /// Reference implementation: the non-empty shortest distances from `x` by
    /// an exhaustive BFS that never uses the trivial empty path.
    fn slow_nonempty_row(g: &DataGraph, x: NodeId) -> Vec<Option<u32>> {
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
        dist
    }

    fn slow_nonempty_distance(g: &DataGraph, x: NodeId, y: NodeId) -> Option<u32> {
        slow_nonempty_row(g, x)[y.index()]
    }

    /// The block build of `g` ≡ one `bfs_row` per source (`rebuild_row`) ≡
    /// `slow_nonempty_row`, and is bit-identical on executors of 1, 2 and 8
    /// threads that are forced to fork.
    fn assert_build_matches_reference(g: &DataGraph, name: &str) {
        let built = DistanceMatrix::build(g);
        let n = g.node_count();
        assert_eq!(built.node_count(), n, "{name}");
        let mut by_row = DistanceMatrix {
            n,
            dist: vec![UNREACHABLE; n * n],
        };
        for x in g.nodes() {
            by_row.rebuild_row(g, x);
            let slow = slow_nonempty_row(g, x);
            let row = built.row(x);
            assert_eq!(row, by_row.row(x), "{name}: row {x} against bfs_row");
            let same = |(d, slow): (&u16, &Option<u32>)| match slow {
                None => *d == UNREACHABLE,
                Some(slow) => u32::from(*d) == *slow,
            };
            assert!(row.iter().zip(&slow).all(same), "{name}: row {x}");
        }
        for threads in [1, 2, 8] {
            let forced = Parallelism::new(threads).with_sequential_threshold(0);
            let on = DistanceMatrix::build_with(g, &Executor::new(forced));
            assert!(on == built, "{name}: differs at {threads} threads");
        }
    }

    #[test]
    fn matrix_build_matches_per_row_reference_at_block_boundary_sizes() {
        // Below, at and past one block of 64 rows, past two, and the
        // `inproc-maintain` size (16 blocks and a rest of 14 rows).
        for (seed, nodes) in [1usize, 63, 64, 65, 130, 1_038].into_iter().enumerate() {
            let cfg = RandomGraphConfig::new(nodes, 4 * nodes, 3).with_seed(seed as u64);
            let g = random_graph(&cfg);
            assert_build_matches_reference(&g, &format!("random graph of {nodes}"));
        }
    }

    #[test]
    fn matrix_build_matches_per_row_reference_on_a_power_law_graph() {
        for seed in 0..3 {
            let g = powerlaw_graph(&PowerLawConfig::new(200, 700).with_seed(seed));
            assert_build_matches_reference(&g, &format!("power-law, seed {seed}"));
        }
    }

    #[test]
    fn matrix_build_matches_per_row_reference_on_every_adversarial_topology() {
        assert_build_matches_reference(&star(70), "star");
        assert_build_matches_reference(&deep_chain(150), "deep_chain");
        assert_build_matches_reference(&grid(9, 11), "grid");
        assert_build_matches_reference(&cliques_with_bridges(5, 14), "cliques_with_bridges");
        assert_build_matches_reference(&bowtie(40), "bowtie");
    }

    #[test]
    fn matrix_build_puts_self_loops_and_shortest_cycles_on_the_diagonal() {
        // A ring of 100 across two blocks, a loop on every tenth node, and
        // node 100 hanging off the ring on no cycle.
        let mut g = DataGraph::new();
        g.add_nodes(101);
        for i in 0..100u32 {
            g.add_edge(n(i), n((i + 1) % 100)).unwrap();
            if i % 10 == 0 {
                g.add_edge(n(i), n(i)).unwrap();
            }
        }
        g.add_edge(n(7), n(100)).unwrap();
        let m = DistanceMatrix::build(&g);
        for i in 0..100u32 {
            let cycle = if i % 10 == 0 { 1 } else { 100 };
            assert_eq!(m.nonempty_distance(n(i), n(i)), Some(cycle), "node {i}");
        }
        assert_eq!(m.nonempty_distance(n(100), n(100)), None);
        assert_eq!(m.nonempty_distance(n(8), n(100)), Some(100));
        assert_build_matches_reference(&g, "ring with loops");
    }

    #[test]
    fn matrix_build_reads_a_graph_updated_after_loading() {
        // What recovery builds on: a loaded snapshot graph with the
        // replayed updates applied edge by edge, so swap-removes have
        // reordered some neighbour lists.
        let mut g = random_graph(&RandomGraphConfig::new(150, 500, 3).with_seed(9));
        let removed: Vec<_> = g.edges().step_by(7).collect();
        for (a, b) in removed {
            g.remove_edge(a, b).unwrap();
        }
        for i in 0..60u32 {
            let _ = g.try_add_edge(n(i * 2), n(149 - i)).unwrap();
        }
        assert_build_matches_reference(&g, "updated after loading");
    }

    #[test]
    fn matrix_build_of_the_empty_graph_is_empty_on_every_executor() {
        let g = DataGraph::new();
        for threads in [1, 2, 8] {
            for policy in [
                Parallelism::new(threads),
                Parallelism::new(threads).with_sequential_threshold(0),
            ] {
                let m = DistanceMatrix::build_with(&g, &Executor::new(policy));
                assert_eq!((m.node_count(), m.memory_bytes()), (0, 0));
            }
        }
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
