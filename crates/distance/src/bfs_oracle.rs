//! On-demand BFS distance oracle (the "BFS" variant of Exp-2).
//!
//! Instead of materialising the full `|V|²` matrix, this oracle runs a BFS
//! from a source the first time that source is queried and memoises the row.
//! It trades the `O(|V|(|V|+|E|))` preprocessing and quadratic memory of the
//! matrix for per-query latency — exactly the trade-off the paper's "BFS"
//! variant explores (Figures 6(e)–(h) show it losing once many pairs are
//! queried, which is what `Match` does).

use crate::bfs::{distance_row, Direction};
use crate::oracle::DistanceQuery;
use crate::UNREACHABLE;
use gpm_graph::{DataGraph, EdgeBound, NodeId};
use parking_lot::Mutex;
use rustc_hash::FxHashMap;

/// A memoising BFS distance oracle.
///
/// The cache belongs to the instance, and nothing clears it: the oracle is
/// cheap to construct, so callers create one per (graph, pattern) matching
/// run.
#[derive(Debug, Default)]
pub struct BfsOracle {
    /// Memoised rows of non-empty distances, keyed by source node.
    rows: Mutex<FxHashMap<NodeId, Vec<u16>>>,
}

impl BfsOracle {
    /// Creates an empty oracle (no rows cached yet).
    pub fn new() -> Self {
        BfsOracle::default()
    }

    /// Runs `f` on the (memoised, computed on first use) row of `from`
    /// under one lock acquisition.
    fn with_row<R>(&self, g: &DataGraph, from: NodeId, f: impl FnOnce(&[u16]) -> R) -> R {
        let mut rows = self.rows.lock();
        f(rows
            .entry(from)
            .or_insert_with(|| distance_row(g, from, Direction::Forward, true)))
    }
}

impl DistanceQuery for BfsOracle {
    fn nonempty_distance(&self, g: &DataGraph, from: NodeId, to: NodeId) -> Option<u32> {
        match self.with_row(g, from, |row| row[to.index()]) {
            UNREACHABLE => None,
            d => Some(u32::from(d)),
        }
    }

    /// One lock acquisition and one cache lookup (or BFS) for `from`, then
    /// the gather over its row — not one of each per target.
    fn count_within(
        &self,
        g: &DataGraph,
        from: NodeId,
        targets: &[NodeId],
        bound: EdgeBound,
    ) -> u32 {
        self.with_row(g, from, |row| crate::count_row_within(row, targets, bound))
    }

    fn name(&self) -> &'static str {
        "bfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DistanceMatrix;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn sample() -> DataGraph {
        let mut g = DataGraph::new();
        g.add_nodes(5);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(2), n(0)).unwrap();
        g.add_edge(n(2), n(3)).unwrap();
        g
    }

    #[test]
    fn distances_match_matrix() {
        let g = sample();
        let m = DistanceMatrix::build(&g);
        let o = BfsOracle::new();
        for x in g.nodes() {
            for y in g.nodes() {
                assert_eq!(
                    o.nonempty_distance(&g, x, y),
                    m.nonempty_distance(x, y),
                    "mismatch at ({x}, {y})"
                );
            }
        }
    }

    #[test]
    fn rows_are_cached_once_per_source() {
        let g = sample();
        let o = BfsOracle::new();
        let cached = || o.rows.lock().len();
        assert_eq!(cached(), 0);
        let _ = o.nonempty_distance(&g, n(0), n(3));
        let _ = o.nonempty_distance(&g, n(0), n(4));
        assert_eq!(cached(), 1);
        let _ = o.nonempty_distance(&g, n(2), n(1));
        assert_eq!(cached(), 2);
    }

    #[test]
    fn within_bounds() {
        let g = sample();
        let o = BfsOracle::new();
        assert!(o.within(&g, n(0), n(3), EdgeBound::Hops(3)));
        assert!(!o.within(&g, n(0), n(3), EdgeBound::Hops(2)));
        assert!(o.within(&g, n(0), n(0), EdgeBound::Unbounded)); // cycle through 0
        assert!(!o.within(&g, n(3), n(3), EdgeBound::Unbounded)); // no cycle
        assert_eq!(o.name(), "bfs");
    }

    #[test]
    fn horizon_chain_is_unreachable_past_65_534_hops_and_never_wraps() {
        // Reproduction: the row BFS used a bare `d + 1`, so on a chain
        // longer than the `u16` range a debug build panicked on the overflow
        // and a release build wrapped — node 65 536 came out at distance 0
        // and within every bound.
        let g = gpm_datagen::adversarial::deep_chain(65_600);
        let o = BfsOracle::new();
        assert_eq!(o.nonempty_distance(&g, n(0), n(65_534)), Some(65_534));
        let past = [65_535, 65_536, 65_537, 65_599].map(n);
        for y in past {
            assert_eq!(o.nonempty_distance(&g, n(0), y), None, "to {y}");
            assert!(!o.within(&g, n(0), y, EdgeBound::Unbounded), "to {y}");
            assert!(!o.within(&g, n(0), y, EdgeBound::Hops(3)), "to {y}");
        }
        let targets = [n(65_534), past[0], past[1], past[2], past[3]];
        assert_eq!(o.count_within(&g, n(0), &targets, EdgeBound::Unbounded), 1);
        assert_eq!(o.count_within(&g, n(0), &targets, EdgeBound::Hops(3)), 0);
    }

    proptest! {
        /// BFS oracle and matrix agree on random graphs.
        #[test]
        fn prop_agrees_with_matrix(
            nodes in 2usize..15,
            edges in proptest::collection::vec((0u32..15, 0u32..15), 0..60)
        ) {
            let mut g = DataGraph::new();
            g.add_nodes(nodes);
            for (a, b) in edges {
                if (a as usize) < nodes && (b as usize) < nodes {
                    let _ = g.try_add_edge(n(a), n(b));
                }
            }
            let m = DistanceMatrix::build(&g);
            let o = BfsOracle::new();
            for x in g.nodes() {
                for y in g.nodes() {
                    prop_assert_eq!(o.nonempty_distance(&g, x, y), m.nonempty_distance(x, y));
                }
            }
        }
    }
}
