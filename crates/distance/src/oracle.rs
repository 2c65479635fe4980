//! The two traits of the distance back-ends: what every back-end can answer
//! ([`DistanceQuery`]) and what a maintainable one can additionally do
//! ([`DistanceOracle`]).
//!
//! The matching algorithms in `gpm-core` and the repair passes in
//! `gpm-incremental` only *read* distances, so they are generic over
//! [`DistanceQuery`]: a pair query ([`DistanceQuery::within`]) and its
//! row-level form ([`DistanceQuery::count_within`], one source against a
//! candidate list), which is what `Match`'s witness counters are made of.
//! All four back-ends implement it, which lets Exp-2's three variants
//! (distance matrix, on-demand BFS, 2-hop-filtered BFS) share one matching
//! implementation.
//!
//! [`DistanceOracle`] is the query trait plus incremental maintenance
//! (`UpdateM`/`UpdateBM` semantics): a maintainable oracle repairs itself
//! under edge insertions and deletions through **one** method,
//! [`DistanceOracle::apply_batch`], and reports `AFF1`, the set of node
//! pairs whose distance changed. Only the quadratic [`DistanceMatrix`] and
//! the sublinear-memory [`crate::IncrementalTwoHop`] labeling implement it —
//! they are what `MatchService` owns and what `inc_match` maintains,
//! selected at runtime via [`crate::OracleBackend`]. [`crate::BfsOracle`] and
//! [`crate::TwoHopOracle`] are query-only, so asking one of them to
//! maintain itself does not compile.

use crate::incremental::{replay_batch, update_unit, AffectedPairs, EdgeUpdate};
use crate::matrix::DistanceMatrix;
use gpm_exec::Executor;
use gpm_graph::{DataGraph, EdgeBound, NodeId};

/// Answers non-empty shortest-path queries over a fixed data graph.
///
/// Implementations may cache internally (hence `&self` methods may use
/// interior mutability), but must stay consistent with the graph they were
/// created for: mutating the graph invalidates the answers unless the type is
/// also a [`DistanceOracle`] and every mutation is followed by its
/// [`apply_batch`](DistanceOracle::apply_batch).
pub trait DistanceQuery {
    /// Length of the shortest **non-empty** path from `from` to `to`, or
    /// `None` if there is none.
    fn nonempty_distance(&self, g: &DataGraph, from: NodeId, to: NodeId) -> Option<u32>;

    /// Whether some non-empty path from `from` to `to` satisfies `bound`.
    ///
    /// The default implementation asks for the full distance; back-ends that
    /// can terminate early for bounded queries should override it.
    fn within(&self, g: &DataGraph, from: NodeId, to: NodeId, bound: EdgeBound) -> bool {
        match (self.nonempty_distance(g, from, to), bound) {
            (None, _) => false,
            (Some(_), EdgeBound::Unbounded) => true,
            (Some(d), EdgeBound::Hops(k)) => d <= k,
        }
    }

    /// How many of `targets` are [`within`](Self::within) `bound` of `from`:
    /// the row-level form of the query, which is what `Match` asks — one
    /// source against a whole candidate list.
    ///
    /// The contract is the default body: the sum of `within(g, from, y,
    /// bound)` over `targets`, each occurrence counted, in any order
    /// (`targets` need not be sorted or duplicate-free). Like `within`, it
    /// never counts an unreachable pair, whatever the bound: `Hops(k)` with
    /// `k` at or past the `u16` distance horizon (65 535) means "some
    /// non-empty path", not "every pair". Back-ends that hold a source's
    /// distances contiguously override it to resolve `from` and `bound` once
    /// per call instead of once per pair (the matrix and the BFS cache do).
    fn count_within(
        &self,
        g: &DataGraph,
        from: NodeId,
        targets: &[NodeId],
        bound: EdgeBound,
    ) -> u32 {
        targets
            .iter()
            .filter(|&&y| self.within(g, from, y, bound))
            .count() as u32
    }

    /// A short label used in benchmark output ("matrix", "bfs", "2-hop"...).
    fn name(&self) -> &'static str;

    /// Approximate resident size of the oracle in bytes (`0` = unknown).
    fn memory_bytes(&self) -> usize {
        0
    }
}

/// A [`DistanceQuery`] that repairs itself under edge updates instead of
/// being rebuilt.
///
/// # Incremental maintenance contract
///
/// Maintenance mirrors the paper's `UpdateM`/`UpdateBM`: the graph passed in
/// must **already reflect** the update(s), the oracle must reflect the graph
/// **before** the update(s), and the returned [`AffectedPairs`] (`AFF1`)
/// lists exactly the source–sink pairs whose non-empty distance changed, with
/// old and new values, sorted by `(source, sink)`. A back-end implements
/// [`apply_batch`](Self::apply_batch) and nothing else; a unit update is a
/// one-element batch.
///
/// # Example
///
/// Repairing a boxed oracle under an insertion instead of rebuilding it:
///
/// ```
/// use gpm_distance::{DistanceMatrix, DistanceOracle, EdgeUpdate};
/// use gpm_exec::Executor;
/// use gpm_graph::{DataGraph, NodeId};
///
/// let mut g = DataGraph::new();
/// g.add_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
/// let mut oracle: Box<dyn DistanceOracle + Send + Sync> =
///     Box::new(DistanceMatrix::build(&g));
/// assert_eq!(oracle.nonempty_distance(&g, NodeId::new(0), NodeId::new(2)), None);
///
/// // Mutate the graph first, then repair the oracle and inspect AFF1.
/// g.add_edge(NodeId::new(1), NodeId::new(2)).unwrap();
/// let exec = Executor::from_env();
/// let aff1 = oracle.apply_batch(&g, &[EdgeUpdate::Insert(NodeId::new(1), NodeId::new(2))], &exec);
/// assert!(aff1
///     .iter()
///     .any(|p| p.source == NodeId::new(0) && p.sink == NodeId::new(2) && !p.increased()));
/// assert_eq!(oracle.nonempty_distance(&g, NodeId::new(0), NodeId::new(2)), Some(2));
/// ```
///
/// The query-only back-ends do not implement this trait, so maintaining one
/// is a type error rather than a runtime panic:
///
/// ```compile_fail,E0599
/// use gpm_distance::{BfsOracle, DistanceOracle, EdgeUpdate};
/// use gpm_exec::Executor;
/// use gpm_graph::{DataGraph, NodeId};
///
/// let g = DataGraph::from_edges(2, &[(0, 1)]).unwrap();
/// let update = EdgeUpdate::Insert(NodeId::new(0), NodeId::new(1));
/// BfsOracle::new().apply_batch(&g, &[update], &Executor::sequential());
/// ```
pub trait DistanceOracle: DistanceQuery {
    /// `UpdateBM`: repairs the oracle after a **batch** of updates and
    /// returns the combined `AFF1` (pairs whose distance differs between the
    /// state before the first update and after the last one), sorted by
    /// `(source, sink)`.
    ///
    /// `g` must reflect the state after the whole batch; `updates` lists the
    /// updates in application order. Updates that are no-ops at their
    /// position in the batch (duplicate inserts, missing deletes, unknown
    /// endpoints) are skipped: a raw batch and its effective updates alone
    /// leave the same oracle and the same `AFF1`, and a batch of no-ops
    /// touches nothing. Implementations replay the batch against a
    /// [`BatchReplay`](gpm_graph::BatchReplay) view of `g` — `g` is never
    /// copied.
    ///
    /// Neither shipped back-end reads `exec`: both replay the batch on the
    /// caller thread, where two threads measured no faster (ARCHITECTURE.md
    /// § `gpm-exec`). The parameter stays for the matrix's planned
    /// per-batch row recompute, the one maintenance step wide enough to fan
    /// out.
    fn apply_batch(
        &mut self,
        g: &DataGraph,
        updates: &[EdgeUpdate],
        exec: &Executor,
    ) -> AffectedPairs;

    /// How many batches degraded to a full index rebuild so far (`0` for
    /// back-ends whose repairs never fall back — both shipped ones).
    fn rebuilds(&self) -> usize {
        0
    }
}

impl DistanceQuery for DistanceMatrix {
    #[inline]
    fn nonempty_distance(&self, _g: &DataGraph, from: NodeId, to: NodeId) -> Option<u32> {
        DistanceMatrix::nonempty_distance(self, from, to)
    }

    #[inline]
    fn within(&self, _g: &DataGraph, from: NodeId, to: NodeId, bound: EdgeBound) -> bool {
        self.get(from, to) <= crate::hop_limit(bound)
    }

    #[inline]
    fn count_within(
        &self,
        _g: &DataGraph,
        from: NodeId,
        targets: &[NodeId],
        bound: EdgeBound,
    ) -> u32 {
        crate::count_row_within(self.row(from), targets, bound)
    }

    fn name(&self) -> &'static str {
        "matrix"
    }

    fn memory_bytes(&self) -> usize {
        DistanceMatrix::memory_bytes(self)
    }
}

impl DistanceOracle for DistanceMatrix {
    /// Each unit sees the matrix left by the previous one and runs as one
    /// sequential sweep over its affected cone; `exec` is not used.
    fn apply_batch(
        &mut self,
        g: &DataGraph,
        updates: &[EdgeUpdate],
        _exec: &Executor,
    ) -> AffectedPairs {
        replay_batch(
            self,
            g,
            updates,
            crate::metrics::matrix(),
            |m, from, to| m.get(from, to) == 1,
            |m, view, u, ws| update_unit(m, view, u, ws),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BfsOracle, IncrementalTwoHop, TwoHopOracle};
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn line() -> DataGraph {
        let mut g = DataGraph::new();
        g.add_nodes(4);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(2), n(3)).unwrap();
        g
    }

    #[test]
    fn matrix_implements_oracle() {
        let g = line();
        let m = DistanceMatrix::build(&g);
        let oracle: &dyn DistanceOracle = &m;
        assert_eq!(oracle.nonempty_distance(&g, n(0), n(3)), Some(3));
        assert_eq!(oracle.nonempty_distance(&g, n(3), n(0)), None);
        assert!(oracle.within(&g, n(0), n(3), EdgeBound::Hops(3)));
        assert!(!oracle.within(&g, n(0), n(3), EdgeBound::Hops(2)));
        assert!(oracle.within(&g, n(0), n(3), EdgeBound::Unbounded));
        assert!(!oracle.within(&g, n(3), n(0), EdgeBound::Unbounded));
        assert_eq!(oracle.name(), "matrix");
        assert_eq!(oracle.rebuilds(), 0);
        assert!(oracle.memory_bytes() > 0);
    }

    #[test]
    fn default_within_is_consistent_with_distance() {
        // Exercise the trait's default `within` using a thin wrapper oracle.
        struct Wrapper(DistanceMatrix);
        impl DistanceQuery for Wrapper {
            fn nonempty_distance(&self, _g: &DataGraph, a: NodeId, b: NodeId) -> Option<u32> {
                self.0.nonempty_distance(a, b)
            }
            fn name(&self) -> &'static str {
                "wrapper"
            }
        }
        let g = line();
        let w = Wrapper(DistanceMatrix::build(&g));
        assert!(w.within(&g, n(0), n(2), EdgeBound::Hops(2)));
        assert!(!w.within(&g, n(0), n(2), EdgeBound::Hops(1)));
        assert!(w.within(&g, n(0), n(2), EdgeBound::Unbounded));
        assert!(!w.within(&g, n(2), n(0), EdgeBound::Unbounded));
        assert_eq!(w.memory_bytes(), 0);
    }

    #[test]
    fn matrix_maintenance_through_the_trait_matches_rebuild() {
        let mut g = line();
        let exec = Executor::sequential();
        let mut oracle: Box<dyn DistanceOracle + Send + Sync> = Box::new(DistanceMatrix::build(&g));

        g.add_edge(n(3), n(0)).unwrap();
        let aff = oracle.apply_batch(&g, &[EdgeUpdate::Insert(n(3), n(0))], &exec);
        assert!(!aff.is_empty());
        let rebuilt = DistanceMatrix::build(&g);
        for x in g.nodes() {
            for y in g.nodes() {
                assert_eq!(
                    oracle.nonempty_distance(&g, x, y),
                    rebuilt.nonempty_distance(x, y)
                );
            }
        }

        g.remove_edge(n(1), n(2)).unwrap();
        let aff = oracle.apply_batch(&g, &[EdgeUpdate::Delete(n(1), n(2))], &exec);
        assert!(!aff.is_empty());
        let rebuilt = DistanceMatrix::build(&g);
        for x in g.nodes() {
            for y in g.nodes() {
                assert_eq!(
                    oracle.nonempty_distance(&g, x, y),
                    rebuilt.nonempty_distance(x, y)
                );
            }
        }
    }

    /// The bounds the row kernel is checked at: small, just below the `u16`
    /// horizon, at it, past it, and `*`.
    const BOUNDS: [EdgeBound; 7] = [
        EdgeBound::Hops(1),
        EdgeBound::Hops(3),
        EdgeBound::Hops(65_534),
        EdgeBound::Hops(65_535),
        EdgeBound::Hops(100_000),
        EdgeBound::Hops(u32::MAX),
        EdgeBound::Unbounded,
    ];

    /// All four back-ends over one graph.
    fn all_oracles(g: &DataGraph) -> Vec<Box<dyn DistanceQuery>> {
        vec![
            Box::new(DistanceMatrix::build(g)),
            Box::new(BfsOracle::new()),
            Box::new(TwoHopOracle::build(g)),
            Box::new(IncrementalTwoHop::build(g)),
        ]
    }

    #[test]
    fn horizon_bounds_do_not_admit_unreachable_pairs() {
        // Reproduction: two nodes, no edge. Before the clamp the matrix
        // compared `65_535 (UNREACHABLE) <= k` and answered `true` for every
        // `k` at or past the horizon; the other back-ends answered `false`.
        let mut g = DataGraph::new();
        g.add_nodes(2);
        for oracle in all_oracles(&g) {
            for bound in BOUNDS {
                assert!(
                    !oracle.within(&g, n(0), n(1), bound),
                    "{}: within at {bound:?}",
                    oracle.name()
                );
                assert_eq!(
                    oracle.count_within(&g, n(0), &[n(0), n(1)], bound),
                    0,
                    "{}: count_within at {bound:?}",
                    oracle.name()
                );
            }
        }
        // A real path is still within a horizon-sized bound.
        let g = line();
        for oracle in all_oracles(&g) {
            assert!(oracle.within(&g, n(0), n(3), EdgeBound::Hops(65_535)));
            assert!(oracle.within(&g, n(0), n(3), EdgeBound::Hops(u32::MAX)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `count_within` is the sum of `within` over the target list, on
        /// every back-end (two of them through the overrides, two through the
        /// default body), for every source — so the list contains the source
        /// itself with and without a self-loop — and every bound class.
        /// Sorted duplicate-free lists (what `Match` passes), the empty list,
        /// and an unsorted list with duplicates.
        #[test]
        fn prop_count_within_is_the_sum_of_within(
            nodes in 2usize..14,
            edges in proptest::collection::vec((0u32..14, 0u32..14), 0..50),
            picks in proptest::collection::vec(0u32..3, 14..15),
        ) {
            let mut g = DataGraph::new();
            g.add_nodes(nodes);
            for (a, b) in edges {
                if (a as usize) < nodes && (b as usize) < nodes {
                    let _ = g.try_add_edge(n(a), n(b)); // a == b: a self-loop
                }
            }
            let sorted: Vec<NodeId> = g.nodes().filter(|y| picks[y.index()] > 0).collect();
            let shuffled: Vec<NodeId> = sorted.iter().rev().chain(&sorted).copied().collect();
            for oracle in all_oracles(&g) {
                for x in g.nodes() {
                    for bound in BOUNDS {
                        let expected =
                            sorted.iter().filter(|&&y| oracle.within(&g, x, y, bound)).count() as u32;
                        prop_assert_eq!(
                            oracle.count_within(&g, x, &sorted, bound), expected,
                            "{} from {} at {:?}", oracle.name(), x, bound
                        );
                        prop_assert_eq!(
                            oracle.count_within(&g, x, &shuffled, bound), 2 * expected,
                            "{} (unsorted, duplicated) from {} at {:?}", oracle.name(), x, bound
                        );
                        prop_assert_eq!(oracle.count_within(&g, x, &[], bound), 0);
                    }
                }
            }
        }
    }
}
