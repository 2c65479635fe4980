//! `Match−` — incremental maintenance under a single edge **deletion**
//! (Fig. 5 of the paper). Works for arbitrary (possibly cyclic) patterns.
//!
//! A deletion can only *increase* distances, so matches can only disappear.
//! The algorithm:
//!
//! 1. update the distance oracle (`UpdateM`), obtaining `AFF1`;
//! 2. for every data node with an outgoing distance that grew past one of
//!    the pattern's bounds, re-verify the pattern edges of the pattern nodes
//!    it currently matches; failures are removed from the match and pushed
//!    on a worklist (`wSet`);
//! 3. pop `(u, y)` pairs from the worklist and re-verify the affected pattern
//!    edge for every matched ancestor candidate that could reach `y` within
//!    the bound, cascading removals until the fixpoint.
//!
//! Steps 1 and 2's seeding are the crate's shared kernel (see
//! [`crate::repair`]); [`match_minus`] is its paper-named entry point and
//! this module owns the removal propagation, steps 2–3.
//!
//! The implementation deviates from the pseudo-code in one defensive way:
//! step 2 re-verifies *all* out-edges of the affected sources rather than
//! only the edges whose sink also appears in `AFF1` — this keeps the pass
//! correct when several pairs of the same batch interact (see the discussion
//! in `batch.rs`), at the cost of a few extra constant-time checks.

use crate::affected::{Aff2, IncrementalOutcome};
use crate::repair::maintain;
use crate::state::{edge_witnessed, MatchState};
use gpm_distance::{DistanceOracle, DistanceQuery, EdgeUpdate};
use gpm_exec::Executor;
use gpm_graph::{DataGraph, GraphError, NodeId, PatternGraph, PatternNodeId};
use rustc_hash::FxHashSet;

/// Applies the deletion of `(from, to)` to `graph`, maintains `oracle` and
/// `state` on `exec`, and reports the affected areas.
///
/// Errors with [`GraphError::MissingEdge`] if the edge does not exist; in
/// that case nothing is modified.
pub fn match_minus<O: DistanceOracle + ?Sized>(
    pattern: &PatternGraph,
    graph: &mut DataGraph,
    oracle: &mut O,
    state: &mut MatchState,
    from: NodeId,
    to: NodeId,
    exec: &Executor,
) -> Result<IncrementalOutcome, GraphError> {
    graph.remove_edge(from, to)?;
    let applied = [EdgeUpdate::Delete(from, to)];
    maintain(pattern, graph, oracle, state, &applied, exec)
}

/// Removal propagation shared by `Match−` and the deletion side of
/// `IncMatch`. `sources` are the data nodes whose *outgoing* distances
/// increased.
pub(crate) fn process_removals<O: DistanceQuery + ?Sized>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
    state: &mut MatchState,
    sources: &FxHashSet<NodeId>,
    aff2: &mut Aff2,
    verifications: &mut usize,
) {
    // Worklist of (pattern node, data node) pairs removed from the match.
    let mut worklist: Vec<(PatternNodeId, NodeId)> = Vec::new();

    // Step 2: seed from the affected sources.
    for &v in sources {
        for u in pattern.node_ids() {
            if !state.in_mat(u, v) {
                continue;
            }
            let mut invalid = false;
            for e in pattern.out_edges(u) {
                *verifications += 1;
                if !edge_witnessed(graph, oracle, v, state.matches_of(e.to), e.bound) {
                    invalid = true;
                    break;
                }
            }
            if invalid {
                state.remove(u, v);
                aff2.removed.push((u, v));
                worklist.push((u, v));
            }
        }
    }

    // Step 3: cascade to ancestors.
    while let Some((u, y)) = worklist.pop() {
        for e in pattern.in_edges(u) {
            let parent = e.from;
            // Only matched nodes that could use y as a witness are affected.
            // `mat(parent)` is walked in place: a removal takes out only the
            // node just visited, so the walk sees every node matched when it
            // began, in ascending order.
            let mut i = 0;
            while let Some(&x) = state.matches_of(parent).get(i) {
                if oracle.within(graph, x, y, e.bound) {
                    *verifications += 1;
                    if !edge_witnessed(graph, oracle, x, state.matches_of(u), e.bound) {
                        state.remove(parent, x);
                        aff2.removed.push((parent, x));
                        worklist.push((parent, x));
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_core::bounded_simulation_with_oracle;
    use gpm_distance::DistanceMatrix;
    use gpm_graph::{DataGraphBuilder, PatternGraphBuilder};

    /// The tests predate the `exec` parameter: run them on the process-default
    /// executor, so the suite follows `GPM_THREADS`.
    fn match_minus(
        p: &PatternGraph,
        g: &mut DataGraph,
        m: &mut DistanceMatrix,
        s: &mut MatchState,
        from: NodeId,
        to: NodeId,
    ) -> Result<IncrementalOutcome, GraphError> {
        super::match_minus(p, g, m, s, from, to, &Executor::from_env())
    }

    fn setup() -> (DataGraph, PatternGraph, DistanceMatrix, MatchState) {
        // a -> b -> c -> d with labels A, B, C, D; pattern A -[2]-> C -[1]-> D.
        let (g, _) = DataGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("B")
            .labeled_node("C")
            .labeled_node("D")
            .path(&["A", "B", "C", "D"])
            .build()
            .unwrap();
        let (p, _) = PatternGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("C")
            .labeled_node("D")
            .edge("A", "C", 2u32)
            .edge("C", "D", 1u32)
            .build()
            .unwrap();
        let m = DistanceMatrix::build(&g);
        let s = MatchState::initialise(&p, &g, &m);
        (g, p, m, s)
    }

    #[test]
    fn deleting_irrelevant_edge_changes_nothing() {
        let (mut g, p, _, _) = setup();
        // Add an extra edge whose deletion does not affect the match.
        let extra_from = NodeId::new(3);
        let extra_to = NodeId::new(0);
        g.add_edge(extra_from, extra_to).unwrap();
        let mut m = DistanceMatrix::build(&g);
        let mut s = MatchState::initialise(&p, &g, &m);
        let before = s.relation();

        let out = match_minus(&p, &mut g, &mut m, &mut s, extra_from, extra_to).unwrap();
        // Distances did change (the cycle disappeared), but the match did not.
        assert!(s.relation().is_match(&p));
        assert_eq!(s.relation(), before);
        assert!(out.aff2.is_empty());
        assert_eq!(m, DistanceMatrix::build(&g));
    }

    #[test]
    fn deleting_witness_edge_breaks_the_match() {
        let (mut g, p, mut m, mut s) = setup();
        assert!(s.relation().is_match(&p));
        // Deleting c -> d removes D's only witness, cascading to C and A.
        let out = match_minus(&p, &mut g, &mut m, &mut s, NodeId::new(2), NodeId::new(3)).unwrap();
        assert!(!s.all_matched());
        assert!(s.relation().is_empty());
        assert!(
            out.aff2.removed.len() >= 2,
            "cascade should remove C and A matches"
        );
        assert!(out.stats.aff1 > 0);
        assert_eq!(out.stats.aff2, out.aff2.len());
        // Matrix stays consistent with a rebuild.
        assert_eq!(m, DistanceMatrix::build(&g));
    }

    #[test]
    fn deletion_with_alternative_witness_keeps_match() {
        // a -> b -> c and a -> x -> c (two 2-hop routes); pattern A -[2]-> C.
        let (mut g, names) = DataGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("B")
            .labeled_node("X")
            .labeled_node("C")
            .path(&["A", "B", "C"])
            .path(&["A", "X", "C"])
            .build()
            .unwrap();
        let (p, _) = PatternGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("C")
            .edge("A", "C", 2u32)
            .build()
            .unwrap();
        let mut m = DistanceMatrix::build(&g);
        let mut s = MatchState::initialise(&p, &g, &m);
        assert!(s.relation().is_match(&p));

        let out = match_minus(&p, &mut g, &mut m, &mut s, names["B"], names["C"]).unwrap();
        assert!(
            s.relation().is_match(&p),
            "alternative route keeps the match"
        );
        assert!(out.aff2.is_empty());
    }

    #[test]
    fn missing_edge_is_an_error_and_leaves_state_untouched() {
        let (mut g, p, mut m, mut s) = setup();
        let before_edges = g.edge_count();
        let before_rel = s.relation();
        let err = match_minus(&p, &mut g, &mut m, &mut s, NodeId::new(3), NodeId::new(0));
        assert!(err.is_err());
        assert_eq!(g.edge_count(), before_edges);
        assert_eq!(s.relation(), before_rel);
        let _ = p;
    }

    #[test]
    fn state_equals_recompute_after_deletion() {
        let (mut g, p, mut m, mut s) = setup();
        match_minus(&p, &mut g, &mut m, &mut s, NodeId::new(0), NodeId::new(1)).unwrap();
        let recomputed = bounded_simulation_with_oracle(&p, &g, &m);
        assert_eq!(s.relation(), recomputed.relation);
    }

    #[test]
    fn works_for_cyclic_patterns() {
        // Pattern with a cycle: A -[2]-> C, C -[3]-> A over a data cycle.
        let (mut g, _) = DataGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("B")
            .labeled_node("C")
            .path(&["A", "B", "C"])
            .edge("C", "A")
            .build()
            .unwrap();
        let (p, _) = PatternGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("C")
            .edge("A", "C", 2u32)
            .edge("C", "A", 3u32)
            .build()
            .unwrap();
        assert!(!p.is_dag());
        let mut m = DistanceMatrix::build(&g);
        let mut s = MatchState::initialise(&p, &g, &m);
        assert!(s.relation().is_match(&p));

        match_minus(&p, &mut g, &mut m, &mut s, NodeId::new(2), NodeId::new(0)).unwrap();
        let recomputed = bounded_simulation_with_oracle(&p, &g, &m);
        assert_eq!(s.relation(), recomputed.relation);
        assert!(s.relation().is_empty());
    }
}
