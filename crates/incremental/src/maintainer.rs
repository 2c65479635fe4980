//! `IncrementalMatcher` — an owning facade over the incremental machinery.
//!
//! The paper's workflow is: "compute matches in `G` once, and then
//! incrementally maintain the matches when `G` is updated". This type bundles
//! everything that workflow needs — the pattern, the evolving data graph, the
//! maintained distance oracle and the match state — and runs every update,
//! unit or batch, through `UpdateBM` and [`refresh_match_state`] on its own
//! executor. For the one combination the incremental algorithms do not cover
//! (a cyclic pattern and a distance that shrank across one of its bounds),
//! that policy recomputes, so callers always end up in a consistent state —
//! `gpm-service` runs the same function per query.
//!
//! The distance backend is pluggable: [`IncrementalMatcher::new`] reads
//! [`OracleBackend::from_env`] (`GPM_ORACLE`), and
//! [`IncrementalMatcher::with_backend`] selects one programmatically — the
//! paper's quadratic matrix or the sublinear-memory incremental 2-hop
//! labeling.

use crate::affected::IncrementalOutcome;
use crate::repair::{refresh_match_state, Refreshed, RepairOutcome};
use crate::state::MatchState;
use gpm_core::{MatchRelation, ResultGraph};
use gpm_distance::{DistanceOracle, EdgeUpdate, OracleBackend};
use gpm_exec::{Executor, Parallelism};
use gpm_graph::{DataGraph, GraphError, PatternGraph};

/// Owns a pattern, a data graph, a maintained distance oracle and the match
/// state, and keeps them consistent under edge updates.
pub struct IncrementalMatcher {
    pattern: PatternGraph,
    graph: DataGraph,
    oracle: Box<dyn DistanceOracle + Send + Sync>,
    state: MatchState,
    exec: Executor,
    recompute_fallbacks: usize,
}

impl Clone for IncrementalMatcher {
    fn clone(&self) -> Self {
        IncrementalMatcher {
            pattern: self.pattern.clone(),
            graph: self.graph.clone(),
            oracle: self.oracle.clone_box(),
            state: self.state.clone(),
            exec: self.exec.clone(),
            recompute_fallbacks: self.recompute_fallbacks,
        }
    }
}

impl std::fmt::Debug for IncrementalMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalMatcher")
            .field("pattern", &self.pattern)
            .field("graph", &self.graph)
            .field("oracle", &self.oracle.name())
            .field("state", &self.state)
            .field("recompute_fallbacks", &self.recompute_fallbacks)
            .finish_non_exhaustive()
    }
}

impl IncrementalMatcher {
    /// Builds the matcher: computes the distance oracle and the initial
    /// maximum match (the "batch" phase). Uses the process-default
    /// [`Parallelism`] policy and the `GPM_ORACLE`-selected backend; see
    /// [`IncrementalMatcher::with_parallelism`] /
    /// [`IncrementalMatcher::with_backend`].
    pub fn new(pattern: PatternGraph, graph: DataGraph) -> Self {
        Self::with_parallelism(pattern, graph, Parallelism::from_env())
    }

    /// Builds the matcher with an explicit [`Parallelism`] policy, used for
    /// the initial oracle build and match, and for every subsequent update's
    /// affected-area repair. The backend comes from [`OracleBackend::from_env`].
    pub fn with_parallelism(
        pattern: PatternGraph,
        graph: DataGraph,
        parallelism: Parallelism,
    ) -> Self {
        Self::with_backend(pattern, graph, OracleBackend::from_env(), parallelism)
    }

    /// Builds the matcher on an explicitly selected distance backend.
    pub fn with_backend(
        pattern: PatternGraph,
        graph: DataGraph,
        backend: OracleBackend,
        parallelism: Parallelism,
    ) -> Self {
        let exec = Executor::new(parallelism);
        let oracle = backend.build(&graph, &exec);
        let state = MatchState::initialise_with(&pattern, &graph, oracle.as_ref(), &exec);
        IncrementalMatcher {
            pattern,
            graph,
            oracle,
            state,
            exec,
            recompute_fallbacks: 0,
        }
    }

    /// The pattern being maintained.
    pub fn pattern(&self) -> &PatternGraph {
        &self.pattern
    }

    /// The current data graph.
    pub fn graph(&self) -> &DataGraph {
        &self.graph
    }

    /// The maintained distance oracle.
    pub fn oracle(&self) -> &(dyn DistanceOracle + Send + Sync) {
        self.oracle.as_ref()
    }

    /// The current maximum match (`∅` if the pattern is not matched).
    pub fn relation(&self) -> MatchRelation {
        self.state.relation()
    }

    /// Whether the pattern currently matches the graph (`P ⊴ G`).
    pub fn is_match(&self) -> bool {
        self.state.all_matched()
    }

    /// The result graph of the current maximum match.
    pub fn result_graph(&self) -> ResultGraph {
        ResultGraph::build(&self.pattern, &self.graph, &self.relation())
    }

    /// How many times an update had to fall back to full recomputation
    /// (a cyclic pattern and a distance that shrank across one of its
    /// bounds).
    pub fn recompute_fallbacks(&self) -> usize {
        self.recompute_fallbacks
    }

    /// Folds the data graph's CSR delta overlay back into its base arrays
    /// (see [`DataGraph::compact`]).
    ///
    /// Incremental updates deliberately leave per-node side lists behind
    /// instead of rebuilding the CSR layout on every edge change; calling
    /// this at a quiesce point (end of an update burst, before a read-heavy
    /// phase) restores fully contiguous neighbour iteration. Never required
    /// for correctness.
    pub fn compact_graph(&mut self) {
        self.graph.compact();
    }

    /// Applies a single edge update incrementally: `Match−` for a deletion,
    /// `Match+` for an insertion. Errors — leaving everything untouched — if
    /// the update is not applicable to the graph (missing or duplicate edge,
    /// unknown node).
    pub fn apply(&mut self, update: EdgeUpdate) -> Result<IncrementalOutcome, GraphError> {
        match update {
            EdgeUpdate::Insert(a, b) => self.graph.add_edge(a, b)?,
            EdgeUpdate::Delete(a, b) => self.graph.remove_edge(a, b)?,
        }
        Ok(self.maintain(&[update]))
    }

    /// Applies a batch of updates (`IncMatch`). Updates that are no-ops at
    /// their position in the batch are skipped.
    pub fn apply_batch(&mut self, updates: &[EdgeUpdate]) -> IncrementalOutcome {
        let applied: Vec<EdgeUpdate> = updates
            .iter()
            .copied()
            .filter(|u| u.apply(&mut self.graph))
            .collect();
        self.maintain(&applied)
    }

    /// Oracle and state maintenance for updates the graph already reflects:
    /// `UpdateBM`, then the crate's repair-or-recompute policy.
    fn maintain(&mut self, applied: &[EdgeUpdate]) -> IncrementalOutcome {
        let aff1 = self.oracle.apply_batch(&self.graph, applied, &self.exec);
        let refreshed = refresh_match_state(
            &self.pattern,
            &self.graph,
            self.oracle.as_ref(),
            &mut self.state,
            &aff1,
            &self.exec,
        );
        let repair = match refreshed {
            Refreshed::Repaired(repair) => repair,
            Refreshed::Rebuilt => {
                self.recompute_fallbacks += 1;
                crate::repair::metrics().recompute_fallbacks.inc();
                RepairOutcome::default()
            }
        };
        IncrementalOutcome::new(aff1, repair.aff2, repair.verifications)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_core::bounded_simulation_with_oracle;
    use gpm_datagen::{random_graph, random_updates, RandomGraphConfig, UpdateStreamConfig};
    use gpm_graph::{NodeId, PatternGraphBuilder, Predicate};

    fn dag_pattern() -> PatternGraph {
        let (p, _) = PatternGraphBuilder::new()
            .node("x", Predicate::label("a0"))
            .node("y", Predicate::label("a1"))
            .node("z", Predicate::label("a2"))
            .edge("x", "y", 2u32)
            .edge("y", "z", 3u32)
            .build()
            .unwrap();
        p
    }

    fn cyclic_pattern() -> PatternGraph {
        let (p, _) = PatternGraphBuilder::new()
            .node("x", Predicate::label("a0"))
            .node("y", Predicate::label("a1"))
            .edge("x", "y", 2u32)
            .edge("y", "x", 2u32)
            .build()
            .unwrap();
        p
    }

    fn assert_equals_recompute(matcher: &IncrementalMatcher) {
        let recomputed =
            bounded_simulation_with_oracle(matcher.pattern(), matcher.graph(), matcher.oracle());
        assert_eq!(matcher.relation(), recomputed.relation);
    }

    #[test]
    fn unit_updates_keep_matcher_consistent() {
        let g = random_graph(&RandomGraphConfig::new(40, 90, 4).with_seed(5));
        let mut matcher = IncrementalMatcher::new(dag_pattern(), g.clone());
        let updates = random_updates(&g, &UpdateStreamConfig::mixed(30).with_seed(6));
        for u in updates {
            matcher.apply(u).unwrap();
            assert_equals_recompute(&matcher);
        }
        assert_eq!(matcher.recompute_fallbacks(), 0);
    }

    #[test]
    fn batch_updates_keep_matcher_consistent() {
        let g = random_graph(&RandomGraphConfig::new(40, 90, 4).with_seed(7));
        let mut matcher = IncrementalMatcher::new(dag_pattern(), g.clone());
        let updates = random_updates(&g, &UpdateStreamConfig::mixed(40).with_seed(8));
        let out = matcher.apply_batch(&updates);
        assert_eq!(out.stats.aff1, out.aff1.len());
        assert_equals_recompute(&matcher);
    }

    #[test]
    fn cyclic_pattern_falls_back_on_insertions() {
        // 0:a0 ← 1:a1 and a relay chain 2 → 3 → 4 of unlabelled nodes.
        let mut g = DataGraph::new();
        for label in ["a0", "a1", "-", "-", "-"] {
            g.add_node(gpm_graph::Attributes::labeled(label));
        }
        for (a, b) in [(1, 0), (2, 3), (3, 4)] {
            g.add_edge(NodeId::new(a), NodeId::new(b)).unwrap();
        }
        let mut matcher = IncrementalMatcher::new(cyclic_pattern(), g);
        assert!(!matcher.is_match());

        // d(2, 4) shrinks 2 → 1, inside the pattern's bound 2 on both sides:
        // no `within` flips, so even an insertion is repaired incrementally.
        let shortcut = EdgeUpdate::Insert(NodeId::new(2), NodeId::new(4));
        matcher.apply(shortcut).unwrap();
        assert_eq!(matcher.recompute_fallbacks(), 0);

        // d(0, 1) shrinks ∞ → 1 across the bound: Match+ cannot handle the
        // cycle, the matcher recomputes.
        let closing = EdgeUpdate::Insert(NodeId::new(0), NodeId::new(1));
        matcher.apply(closing).unwrap();
        assert_eq!(matcher.recompute_fallbacks(), 1);
        assert!(matcher.is_match());
        assert_equals_recompute(&matcher);

        // Deletion: incremental (Match− supports cyclic patterns).
        matcher
            .apply(EdgeUpdate::Delete(NodeId::new(0), NodeId::new(1)))
            .unwrap();
        assert_eq!(matcher.recompute_fallbacks(), 1);
        assert!(!matcher.is_match());

        // The same bound-crossing insertion inside a batch falls back too.
        let batch = [EdgeUpdate::Delete(NodeId::new(2), NodeId::new(4)), closing];
        matcher.apply_batch(&batch);
        assert_eq!(matcher.recompute_fallbacks(), 2);
        assert_equals_recompute(&matcher);
    }

    /// A deletion-only batch never needs the fallback, whatever the pattern.
    #[test]
    fn cyclic_pattern_repairs_deletion_only_batches_incrementally() {
        for seed in 0..4u64 {
            let g = random_graph(&RandomGraphConfig::new(30, 70, 4).with_seed(seed));
            let mut matcher = IncrementalMatcher::new(cyclic_pattern(), g.clone());
            let updates =
                random_updates(&g, &UpdateStreamConfig::deletions(10).with_seed(seed + 9));
            matcher.apply_batch(&updates);
            assert_eq!(matcher.recompute_fallbacks(), 0, "seed {seed}");
            assert_equals_recompute(&matcher);
        }
    }

    #[test]
    fn compacting_between_update_bursts_preserves_consistency() {
        let g = random_graph(&RandomGraphConfig::new(40, 90, 4).with_seed(21));
        let mut matcher = IncrementalMatcher::new(dag_pattern(), g.clone());
        let updates = random_updates(&g, &UpdateStreamConfig::mixed(24).with_seed(22));
        for (i, u) in updates.into_iter().enumerate() {
            matcher.apply(u).unwrap();
            if i % 8 == 7 {
                matcher.compact_graph();
                assert!(matcher.graph().is_compact());
                assert_equals_recompute(&matcher);
            }
        }
    }

    #[test]
    fn accessors_and_result_graph() {
        let g = random_graph(&RandomGraphConfig::new(25, 60, 3).with_seed(11));
        let matcher = IncrementalMatcher::new(dag_pattern(), g);
        assert_eq!(matcher.pattern().node_count(), 3);
        assert_eq!(matcher.graph().node_count(), 25);
        assert!(matcher.oracle().memory_bytes() > 0);
        let rg = matcher.result_graph();
        if matcher.is_match() {
            assert!(!rg.is_empty());
        } else {
            assert!(rg.is_empty());
        }
        // Cloning duplicates the backend through `clone_box`.
        let copy = matcher.clone();
        assert_eq!(copy.relation(), matcher.relation());
        assert_eq!(copy.oracle().name(), matcher.oracle().name());
    }

    /// The matcher stays consistent on the two-hop backend, across unit and
    /// batch updates and both update directions.
    #[test]
    fn two_hop_backend_keeps_matcher_consistent() {
        use gpm_distance::OracleBackend;
        let g = random_graph(&RandomGraphConfig::new(35, 80, 4).with_seed(17));
        let mut matcher = IncrementalMatcher::with_backend(
            dag_pattern(),
            g.clone(),
            OracleBackend::TwoHop,
            Parallelism::sequential(),
        );
        assert_eq!(matcher.oracle().name(), "two-hop");
        let updates = random_updates(&g, &UpdateStreamConfig::mixed(20).with_seed(18));
        for u in updates {
            matcher.apply(u).unwrap();
            assert_equals_recompute(&matcher);
        }
        let more = random_updates(
            matcher.graph(),
            &UpdateStreamConfig::mixed(15).with_seed(19),
        );
        matcher.apply_batch(&more);
        assert_equals_recompute(&matcher);
        assert_eq!(matcher.recompute_fallbacks(), 0);
    }

    #[test]
    fn invalid_updates_propagate_errors() {
        let g = random_graph(&RandomGraphConfig::new(10, 20, 2).with_seed(13));
        let mut matcher = IncrementalMatcher::new(dag_pattern(), g.clone());
        // Delete a non-existent edge.
        let missing = {
            let mut found = None;
            'outer: for x in g.nodes() {
                for y in g.nodes() {
                    if !g.has_edge(x, y) {
                        found = Some((x, y));
                        break 'outer;
                    }
                }
            }
            found.unwrap()
        };
        assert!(matcher
            .apply(EdgeUpdate::Delete(missing.0, missing.1))
            .is_err());
        // Insert a node that does not exist.
        assert!(matcher
            .apply(EdgeUpdate::Insert(NodeId::new(999), NodeId::new(0)))
            .is_err());
    }
}
