//! The common interface of the distance back-ends.
//!
//! The matching algorithms in `gpm-core` are generic over a
//! [`DistanceOracle`], which lets Exp-2's three variants (distance matrix,
//! on-demand BFS, 2-hop-filtered BFS) share one matching implementation and
//! makes the ablation benches a one-liner. The query half of the trait is a
//! pair query ([`DistanceOracle::within`]) and its row-level form
//! ([`DistanceOracle::count_within`], one source against a candidate list),
//! which is what `Match`'s witness counters are made of.
//!
//! Since PR 6 the trait also carries the *incremental-maintenance* surface
//! (`UpdateM`/`UpdateBM` semantics): a maintainable oracle can repair itself
//! under edge insertions and deletions and report `AFF1`, the set of node
//! pairs whose distance changed. This is what lets `IncrementalMatcher`,
//! `inc_match_with` and `MatchService` run on any backend — the quadratic
//! [`DistanceMatrix`] or the sublinear-memory
//! [`crate::IncrementalTwoHop`] labeling — selected at runtime via
//! [`crate::OracleBackend`].

use crate::incremental::{AffectedPairs, EdgeUpdate};
use crate::matrix::DistanceMatrix;
use gpm_exec::Executor;
use gpm_graph::{DataGraph, EdgeBound, NodeId};

/// Answers non-empty shortest-path queries over a fixed data graph, and —
/// for maintainable back-ends — repairs itself under edge updates.
///
/// Implementations may cache internally (hence `&self` methods may use
/// interior mutability), but must stay consistent with the graph they were
/// created for: mutating the graph invalidates the oracle unless the oracle
/// is *maintainable* ([`supports_incremental`](Self::supports_incremental)
/// returns `true`) and is repaired through
/// [`apply_insert`](Self::apply_insert) / [`apply_delete`](Self::apply_delete)
/// / [`apply_batch`](Self::apply_batch) for every graph mutation.
///
/// # Incremental maintenance contract
///
/// The maintenance methods mirror the paper's `UpdateM`/`UpdateBM`: the graph
/// passed in must **already reflect** the update(s), the oracle must reflect
/// the graph **before** the update(s), and the returned
/// [`AffectedPairs`] (`AFF1`) lists exactly the source–sink pairs whose
/// non-empty distance changed, with old and new values.
///
/// # Example
///
/// Repairing a boxed oracle under an insertion instead of rebuilding it:
///
/// ```
/// use gpm_distance::{DistanceMatrix, DistanceOracle};
/// use gpm_exec::Executor;
/// use gpm_graph::{DataGraph, NodeId};
///
/// let mut g = DataGraph::new();
/// g.add_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
/// let mut oracle: Box<dyn DistanceOracle + Send + Sync> =
///     Box::new(DistanceMatrix::build(&g));
/// assert!(oracle.supports_incremental());
/// assert_eq!(oracle.nonempty_distance(&g, NodeId::new(0), NodeId::new(2)), None);
///
/// // Mutate the graph first, then repair the oracle and inspect AFF1.
/// g.add_edge(NodeId::new(1), NodeId::new(2)).unwrap();
/// let exec = Executor::from_env();
/// let aff1 = oracle.apply_insert(&g, NodeId::new(1), NodeId::new(2), &exec);
/// assert!(aff1
///     .iter()
///     .any(|p| p.source == NodeId::new(0) && p.sink == NodeId::new(2) && !p.increased()));
/// assert_eq!(oracle.nonempty_distance(&g, NodeId::new(0), NodeId::new(2)), Some(2));
/// ```
pub trait DistanceOracle {
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

    /// Whether this oracle can be repaired in place under edge updates.
    ///
    /// When `false` (the default), the maintenance methods below panic; the
    /// oracle is query-only and must be rebuilt after any graph mutation.
    fn supports_incremental(&self) -> bool {
        false
    }

    /// `UpdateM` for an insertion: repairs the oracle after the edge
    /// `(from, to)` was added to `g` and returns `AFF1`.
    ///
    /// `g` must already contain the new edge.
    ///
    /// # Panics
    ///
    /// The default implementation panics: back-ends that return `false` from
    /// [`supports_incremental`](Self::supports_incremental) do not maintain
    /// themselves. Callers gate on that flag.
    fn apply_insert(
        &mut self,
        _g: &DataGraph,
        _from: NodeId,
        _to: NodeId,
        _exec: &Executor,
    ) -> AffectedPairs {
        panic!(
            "distance oracle `{}` does not support incremental maintenance",
            self.name()
        );
    }

    /// `UpdateM` for a deletion: repairs the oracle after the edge
    /// `(from, to)` was removed from `g` and returns `AFF1`.
    ///
    /// `g` must no longer contain the deleted edge.
    ///
    /// # Panics
    ///
    /// The default implementation panics, exactly as
    /// [`apply_insert`](Self::apply_insert).
    fn apply_delete(
        &mut self,
        _g: &DataGraph,
        _from: NodeId,
        _to: NodeId,
        _exec: &Executor,
    ) -> AffectedPairs {
        panic!(
            "distance oracle `{}` does not support incremental maintenance",
            self.name()
        );
    }

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
    /// # Panics
    ///
    /// The default implementation panics, exactly as
    /// [`apply_insert`](Self::apply_insert).
    fn apply_batch(
        &mut self,
        _g: &DataGraph,
        _updates: &[EdgeUpdate],
        _exec: &Executor,
    ) -> AffectedPairs {
        panic!(
            "distance oracle `{}` does not support incremental maintenance",
            self.name()
        );
    }

    /// How many updates degraded to a full index rebuild so far.
    ///
    /// Always `0` for back-ends whose repairs never fall back (the matrix)
    /// and for query-only back-ends.
    fn rebuilds(&self) -> usize {
        0
    }

    /// Approximate resident size of the oracle in bytes (`0` = unknown).
    fn memory_bytes(&self) -> usize {
        0
    }

    /// A deep copy of this oracle as a boxed trait object, or `None` if the
    /// backend is not cloneable.
    ///
    /// Owning facades that are themselves `Clone` (e.g. the benchmark
    /// harness's `IncrementalMatcher`) duplicate their backend through this
    /// hook; the two backends selectable via [`crate::OracleBackend`] both
    /// support it.
    fn clone_box(&self) -> Option<Box<dyn DistanceOracle + Send + Sync>> {
        None
    }
}

impl DistanceOracle for DistanceMatrix {
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

    fn supports_incremental(&self) -> bool {
        true
    }

    fn apply_insert(
        &mut self,
        g: &DataGraph,
        from: NodeId,
        to: NodeId,
        exec: &Executor,
    ) -> AffectedPairs {
        let m = crate::metrics::matrix();
        let _span = m.apply_ns.span();
        let aff =
            crate::incremental::update_matrix_with(g, self, EdgeUpdate::Insert(from, to), exec);
        m.note_unit(true, aff.len());
        aff
    }

    fn apply_delete(
        &mut self,
        g: &DataGraph,
        from: NodeId,
        to: NodeId,
        exec: &Executor,
    ) -> AffectedPairs {
        let m = crate::metrics::matrix();
        let _span = m.apply_ns.span();
        let aff =
            crate::incremental::update_matrix_with(g, self, EdgeUpdate::Delete(from, to), exec);
        m.note_unit(false, aff.len());
        aff
    }

    fn apply_batch(
        &mut self,
        g: &DataGraph,
        updates: &[EdgeUpdate],
        exec: &Executor,
    ) -> AffectedPairs {
        // The native batch path bypasses the unit methods, so account the
        // units here (insert/delete splits and the combined AFF1 size).
        let m = crate::metrics::matrix();
        let _span = m.apply_ns.span();
        let aff = crate::incremental::update_matrix_batch_with(g, self, updates, exec);
        if gpm_obs::enabled() {
            let inserts = updates.iter().filter(|u| u.is_insert()).count();
            m.inserts.add(inserts as u64);
            m.deletes.add((updates.len() - inserts) as u64);
            m.aff1_pairs.add(aff.len() as u64);
            m.aff1_size.record(aff.len() as u64);
        }
        aff
    }

    fn memory_bytes(&self) -> usize {
        DistanceMatrix::memory_bytes(self)
    }

    fn clone_box(&self) -> Option<Box<dyn DistanceOracle + Send + Sync>> {
        Some(Box::new(self.clone()))
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
        assert!(oracle.supports_incremental());
        assert_eq!(oracle.rebuilds(), 0);
        assert!(oracle.memory_bytes() > 0);
    }

    #[test]
    fn default_within_is_consistent_with_distance() {
        // Exercise the trait's default `within` using a thin wrapper oracle.
        struct Wrapper(DistanceMatrix);
        impl DistanceOracle for Wrapper {
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
        assert!(!w.supports_incremental());
        assert_eq!(w.rebuilds(), 0);
        assert_eq!(w.memory_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "does not support incremental maintenance")]
    fn non_incremental_oracle_panics_on_maintenance() {
        struct Fixed;
        impl DistanceOracle for Fixed {
            fn nonempty_distance(&self, _g: &DataGraph, _a: NodeId, _b: NodeId) -> Option<u32> {
                None
            }
            fn name(&self) -> &'static str {
                "fixed"
            }
        }
        let mut g = line();
        g.add_edge(n(3), n(0)).unwrap();
        Fixed.apply_insert(&g, n(3), n(0), &Executor::sequential());
    }

    #[test]
    fn matrix_maintenance_through_the_trait_matches_rebuild() {
        let mut g = line();
        let exec = Executor::sequential();
        let mut oracle: Box<dyn DistanceOracle + Send + Sync> = Box::new(DistanceMatrix::build(&g));

        g.add_edge(n(3), n(0)).unwrap();
        let aff = oracle.apply_insert(&g, n(3), n(0), &exec);
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
        let aff = oracle.apply_delete(&g, n(1), n(2), &exec);
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
    fn all_oracles(g: &DataGraph) -> Vec<Box<dyn DistanceOracle>> {
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
        let m = DistanceMatrix::build(&g);
        for k in [65_534, 65_535, 100_000, u32::MAX] {
            assert!(!m.within_hops(n(0), n(1), k), "within_hops at k = {k}");
        }
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
