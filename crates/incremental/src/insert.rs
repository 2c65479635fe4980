//! `Match+` — incremental maintenance under a single edge **insertion**
//! (Fig. 7 of the paper) — and the additions half of the crate's repair,
//! which serves every pattern, cyclic or not.
//!
//! An insertion can only *decrease* distances, so matches can only appear.
//! The algorithm:
//!
//! 1. update the distance oracle (`UpdateM`), obtaining `AFF1`;
//! 2. for every data node with an outgoing distance that shrank to within
//!    one of the pattern's bounds, check whether it is a candidate
//!    (`can(u')`) of some pattern node that now has **all** of its pattern
//!    edges witnessed; such nodes become new matches;
//! 3. each new match `(u, y)` re-examines the candidates of pattern parents
//!    of `u` that can reach `y` within the bound, cascading additions until
//!    the fixpoint.
//!
//! Steps 1 and 2's seeding are the crate's shared kernel (see
//! [`crate::repair`]); [`match_plus`] is its paper-named entry point and
//! this module owns the addition propagation, steps 2–3, on the match
//! state's witness counters. A candidate is refused at the first out-edge
//! it has no witness for, reading that edge's targets only until one
//! turns up. An admitted one is counted on every out-edge (one
//! `count_within` each), and those counts are its counters when it joins;
//! the join then walks the predicate list of each pattern parent once,
//! adding one to the counter of every matched parent within the bound and
//! queueing every candidate parent within it. So the counter invariant of
//! [`MatchState`] holds after every join.
//!
//! ## Cyclic patterns
//!
//! On a pattern cycle a set of candidates can be *mutually* dependent (each
//! needs the others to be matched already), which upward propagation cannot
//! discover. This is why the paper restricts `Match+`/`IncMatch` to DAG
//! patterns, and [`match_plus`] keeps that restriction
//! ([`GraphError::PatternNotAcyclic`]); the follow-up work on incremental
//! matching for general patterns is Fan et al., "Incremental Graph Pattern
//! Matching" (SIGMOD 2011). The propagation here lifts the restriction with
//! one change to step 2's admission rule:
//!
//! * a candidate must still be witnessed on every out-edge that **leaves**
//!   its strongly connected component in the pattern;
//! * an out-edge on a pattern cycle — `(u, u')` with `u'` reaching `u` — is
//!   admitted optimistically, with whatever count it has, zero included;
//! * when the closure is done, the admitted pairs left with a zero counter
//!   are re-verified by `Match`'s wave, the removal cascade of
//!   [`crate::repair`], whose removals fold into `AFF2` with
//!   [`Aff2::merge`](crate::Aff2::merge), so `AFF2` stays net.
//!
//! On a DAG no edge lies on a cycle, so the rule is `Match+` exactly: no
//! admission is optimistic and the re-verification has nothing to do. The
//! cycle marks are computed only when there is something to seed.
//!
//! **Why it is exact.** Let `S_old`/`S_new` be the maximum match before and
//! after the batch, `S_r` the state after the removal phase (the greatest
//! simulation of the new graph inside `S_old`), and `C` the pairs the
//! closure admitted. Suppose `N' = S_new \ (S_r ∪ C)` is not empty, and take
//! the sink-most pattern SCC `Q` that holds pairs of `N'`; call them `N'_Q`.
//!
//! * A pair `(u, x)` of `N'_Q` has its witnesses for the edges leaving `Q`
//!   in `S_r ∪ C`, since no SCC below `Q` holds a pair of `N'`.
//! * If `x` is a crossing source, or any of its witnesses is in `C`, the
//!   closure checked `(u, x)` after its last witness in `C` arrived, and
//!   admitted it. So its witnesses lie in `S_r ∪ N'_Q`, and, `x` being no
//!   crossing source, they were within bound before the batch too.
//! * So `S_old ∪ N'_Q` is a simulation of the old graph, and maximality
//!   gives `N'_Q ⊆ S_old`.
//! * Then `S_r ∪ N'_Q` is a simulation of the new graph inside `S_old`. The
//!   removal phase keeps the greatest such simulation, so it could not have
//!   removed those pairs — a contradiction with `N'_Q ⊆ S_old \ S_r`.
//!
//! Hence `S_new ⊆ S_r ∪ C`. Every pair of `S_r ∪ C` is witnessed within it
//! except, possibly, the optimistic ones on their cycle edges, and those
//! are exactly the re-verification's seeds; refining from a superset of the
//! maximum match converges to it, so the repair ends at `S_new`.

use crate::affected::IncrementalOutcome;
use crate::repair::{maintain, Passes};
use crate::state::MatchState;
use gpm_distance::{DistanceOracle, DistanceQuery, EdgeUpdate};
use gpm_exec::Executor;
use gpm_graph::{DataGraph, GraphError, NodeId, PatternGraph, PatternNodeId};

/// Applies the insertion of `(from, to)` to `graph`, maintains `oracle` and
/// `state` on `exec`, and reports the affected areas.
///
/// Errors with [`GraphError::PatternNotAcyclic`] for cyclic patterns and
/// [`GraphError::DuplicateEdge`] if the edge already exists; nothing is
/// modified in either case.
pub fn match_plus<O: DistanceOracle + Sync + ?Sized>(
    pattern: &PatternGraph,
    graph: &mut DataGraph,
    oracle: &mut O,
    state: &mut MatchState,
    from: NodeId,
    to: NodeId,
    exec: &Executor,
) -> Result<IncrementalOutcome, GraphError> {
    pattern.require_dag()?;
    graph.add_edge(from, to)?;
    let applied = [EdgeUpdate::Insert(from, to)];
    Ok(maintain(pattern, graph, oracle, state, &applied, exec))
}

/// Addition propagation shared by `Match+` and the insertion side of
/// `IncMatch`, for every pattern (module docs). `sources` are the data nodes
/// whose *outgoing* distances decreased; what the closure admits
/// and the re-verification refutes goes to `passes`.
pub(crate) fn process_additions<O: DistanceQuery + Sync + ?Sized>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
    state: &mut MatchState,
    sources: &[NodeId],
    passes: &mut Passes,
) {
    if sources.is_empty() {
        return;
    }
    let reach = reachability(pattern);
    let on_cycle: Vec<bool> = (pattern.edges())
        .map(|e| reach[e.to.index()][e.from.index()])
        .collect();
    let mut seeds = (sources.iter()).flat_map(|&v| pattern.node_ids().map(move |u| (u, v)));
    let mut candidates: Vec<(PatternNodeId, NodeId)> = Vec::new();
    while let Some((u, x)) = candidates.pop().or_else(|| seeds.next()) {
        if !state.in_can(u, x) {
            continue;
        }
        // The admission check refuses x at the first off-cycle out-edge of
        // u it has no witness for, reading targets only until one turns
        // up: counting each edge in full refused late, and on the 2-hop
        // labels that doubled the repair's time. An admitted x is then
        // counted on every out-edge, which sets its counters.
        let (satisfying, mat) = (&state.satisfying, &mut state.mat);
        let out = || {
            pattern
                .edges()
                .enumerate()
                .filter(move |(_, e)| e.from == u)
        };
        let refused = (out().filter(|&(ei, _)| !on_cycle[ei])).any(|(_, e)| {
            passes.verifications += 1;
            let targets = &mat.sets()[e.to.index()];
            !targets.iter().any(|&y| oracle.within(graph, x, y, e.bound))
        });
        if refused {
            continue;
        }
        for (ei, _) in out() {
            passes.verifications += 1;
            mat.count(graph, oracle, ei, x);
        }
        mat.add(u, x);
        passes.added.push((u, x));
        // The join: +1 to each matched parent within bound, and every
        // candidate parent within it queued for its own check.
        for (ei, e) in pattern.edges().enumerate().filter(|(_, e)| e.to == u) {
            for &w in &satisfying[e.from.index()] {
                if !oracle.within(graph, w, x, e.bound) {
                    continue;
                }
                if mat.contains(e.from, w) {
                    mat.shift(ei, w, true);
                } else {
                    candidates.push((e.from, w));
                }
            }
        }
    }

    // Re-verify the optimistic admissions: those left with a zero counter.
    let mat = &mut state.mat;
    let unwitnessed = (passes.added.iter().copied())
        .filter(|&(u, x)| mat.unwitnessed(u, x))
        .collect();
    passes.decrements += mat.cascade(graph, oracle, unwitnessed, &mut passes.refuted);
}

/// `reach[a][b]`: whether pattern node `b` is reachable from `a` by a path
/// of length ≥ 0, so an edge `(u, u')` lies on a cycle iff `reach[u'][u]`.
fn reachability(pattern: &PatternGraph) -> Vec<Vec<bool>> {
    let n = pattern.node_count();
    let mut reach = vec![vec![false; n]; n];
    for (a, row) in reach.iter_mut().enumerate() {
        let mut stack = vec![PatternNodeId::new(a as u32)];
        while let Some(b) = stack.pop() {
            if !std::mem::replace(&mut row[b.index()], true) {
                stack.extend(pattern.children(b));
            }
        }
    }
    reach
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_core::bounded_simulation_with_oracle;
    use gpm_distance::DistanceMatrix;
    use gpm_graph::{DataGraphBuilder, PatternGraphBuilder};

    /// The tests predate the `exec` parameter: run them on the process-default
    /// executor, so the suite follows `GPM_THREADS`.
    fn match_plus(
        p: &PatternGraph,
        g: &mut DataGraph,
        m: &mut DistanceMatrix,
        s: &mut MatchState,
        from: NodeId,
        to: NodeId,
    ) -> Result<IncrementalOutcome, GraphError> {
        super::match_plus(p, g, m, s, from, to, &Executor::from_env())
    }

    /// a A, b B, c C with only a -> b; pattern A -[2]-> C (not matched yet).
    fn setup() -> (DataGraph, PatternGraph, DistanceMatrix, MatchState) {
        let (g, _) = DataGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("B")
            .labeled_node("C")
            .edge("A", "B")
            .build()
            .unwrap();
        let (p, _) = PatternGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("C")
            .edge("A", "C", 2u32)
            .build()
            .unwrap();
        let m = DistanceMatrix::build(&g);
        let s = MatchState::initialise(&p, &g, &m);
        (g, p, m, s)
    }

    #[test]
    fn insertion_creates_the_match() {
        let (mut g, p, mut m, mut s) = setup();
        assert!(s.relation().is_empty());
        let out = match_plus(&p, &mut g, &mut m, &mut s, NodeId::new(1), NodeId::new(2)).unwrap();
        assert!(s.relation().is_match(&p));
        // Node c was already matched to pattern node C before the insertion
        // (C has no out-edges); the insertion only adds the (A, a) pair.
        assert!(out
            .aff2
            .added
            .contains(&(gpm_graph::PatternNodeId::new(0), NodeId::new(0))));
        assert!(s
            .relation()
            .contains(gpm_graph::PatternNodeId::new(1), NodeId::new(2)));
        assert!(out.aff2.removed.is_empty());
        assert_eq!(m, DistanceMatrix::build(&g));
        // Incremental state equals a from-scratch run.
        let recomputed = bounded_simulation_with_oracle(&p, &g, &m);
        assert_eq!(s.relation(), recomputed.relation);
    }

    #[test]
    fn cascading_additions_up_a_chain() {
        // Data a(A) -> b(B), c(C), d(D) with pattern A-[1]->B-[1]->C-[1]->D.
        // Inserting edges bottom-up should cascade matches upward once the
        // last edge lands.
        let (mut g, names) = DataGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("B")
            .labeled_node("C")
            .labeled_node("D")
            .edge("A", "B")
            .edge("B", "C")
            .build()
            .unwrap();
        let (p, _) = PatternGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("B")
            .labeled_node("C")
            .labeled_node("D")
            .edge("A", "B", 1u32)
            .edge("B", "C", 1u32)
            .edge("C", "D", 1u32)
            .build()
            .unwrap();
        let mut m = DistanceMatrix::build(&g);
        let mut s = MatchState::initialise(&p, &g, &m);
        assert!(s.relation().is_empty());

        let out = match_plus(&p, &mut g, &mut m, &mut s, names["C"], names["D"]).unwrap();
        assert!(s.relation().is_match(&p));
        // Pattern node D was already matched (no out-edges); the cascade adds
        // the matches of C, B and A bottom-up.
        assert_eq!(out.aff2.added.len(), 3);
        let recomputed = bounded_simulation_with_oracle(&p, &g, &m);
        assert_eq!(s.relation(), recomputed.relation);
    }

    #[test]
    fn duplicate_insertion_is_an_error() {
        let (mut g, p, mut m, mut s) = setup();
        let err = match_plus(&p, &mut g, &mut m, &mut s, NodeId::new(0), NodeId::new(1));
        assert!(err.is_err());
    }

    #[test]
    fn cyclic_pattern_is_rejected() {
        let (mut g, _, mut m, _) = setup();
        let (p, _) = PatternGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("B")
            .edge("A", "B", 1u32)
            .edge("B", "A", 1u32)
            .build()
            .unwrap();
        let mut s = MatchState::initialise(&p, &g, &m);
        let err = match_plus(&p, &mut g, &mut m, &mut s, NodeId::new(1), NodeId::new(2));
        assert_eq!(err.unwrap_err(), GraphError::PatternNotAcyclic);
    }

    #[test]
    fn an_edge_lies_on_a_cycle_iff_its_target_reaches_its_source() {
        // A ⇄ B → C ⇄ E, and D → A.
        let (p, _) = PatternGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("B")
            .labeled_node("C")
            .labeled_node("D")
            .labeled_node("E")
            .edge("A", "B", 1u32)
            .edge("B", "A", 1u32)
            .edge("B", "C", 1u32)
            .edge("C", "E", 1u32)
            .edge("E", "C", 1u32)
            .edge("D", "A", 1u32)
            .build()
            .unwrap();
        let reach = reachability(&p);
        let on_cycle: Vec<bool> = p
            .edges()
            .map(|e| reach[e.to.index()][e.from.index()])
            .collect();
        assert_eq!(on_cycle, [true, true, false, true, true, false]);
    }

    #[test]
    fn irrelevant_insertion_changes_nothing() {
        let (mut g, p, mut m, mut s) = setup();
        // b -> a creates no new witnesses for A -[2]-> C.
        let out = match_plus(&p, &mut g, &mut m, &mut s, NodeId::new(1), NodeId::new(0)).unwrap();
        assert!(out.aff2.is_empty());
        assert!(s.relation().is_empty());
        let recomputed = bounded_simulation_with_oracle(&p, &g, &m);
        assert_eq!(s.relation(), recomputed.relation);
    }

    #[test]
    fn insertion_matches_recompute_on_random_updates() {
        use gpm_datagen::{random_graph, RandomGraphConfig};
        use rand::rngs::StdRng;
        use rand::{Rng as _, SeedableRng as _};

        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = random_graph(&RandomGraphConfig::new(40, 80, 4).with_seed(seed));
            // DAG pattern over the generated labels.
            let (p, _) = PatternGraphBuilder::new()
                .node("x", gpm_graph::Predicate::label("a0"))
                .node("y", gpm_graph::Predicate::label("a1"))
                .node("z", gpm_graph::Predicate::label("a2"))
                .edge("x", "y", 2u32)
                .edge("y", "z", 3u32)
                .edge("x", "z", 4u32)
                .build()
                .unwrap();
            let mut m = DistanceMatrix::build(&g);
            let mut s = MatchState::initialise(&p, &g, &m);
            for _ in 0..8 {
                // Pick a random non-edge and insert it.
                let a = NodeId::new(rng.gen_range(0..g.node_count() as u32));
                let b = NodeId::new(rng.gen_range(0..g.node_count() as u32));
                if g.has_edge(a, b) {
                    continue;
                }
                match_plus(&p, &mut g, &mut m, &mut s, a, b).unwrap();
                let recomputed = bounded_simulation_with_oracle(&p, &g, &m);
                assert_eq!(s.relation(), recomputed.relation, "seed {seed}");
            }
        }
    }
}
