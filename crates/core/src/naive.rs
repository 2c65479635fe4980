//! A naive fixpoint computation of the maximum bounded simulation.
//!
//! This is the textbook reading of the definition in Section 2.2: start from
//! all predicate-satisfying candidates and repeatedly delete any `(u, x)`
//! pair for which some pattern edge `(u, u')` has no witness, until nothing
//! changes. It is `O(|V_p||V| · |E_p||V|²)` in the worst case — asymptotically
//! worse than `Match` — but its simplicity makes it the ideal differential
//! test oracle and ablation baseline ("how much does the paper's propagation
//! machinery buy?").

use crate::bounded_sim::MatchOutcome;
use crate::match_relation::MatchRelation;
use gpm_distance::{DistanceMatrix, DistanceQuery};
use gpm_graph::{DataGraph, NodeId, PatternGraph};

/// Computes the maximum bounded simulation by repeated full re-scanning.
pub fn bounded_simulation_naive(pattern: &PatternGraph, graph: &DataGraph) -> MatchOutcome {
    let matrix = DistanceMatrix::build(graph);
    bounded_simulation_naive_with_oracle(pattern, graph, &matrix)
}

/// Naive fixpoint against an arbitrary distance oracle.
pub fn bounded_simulation_naive_with_oracle<O: DistanceQuery + ?Sized>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
) -> MatchOutcome {
    let np = pattern.node_count();
    if np == 0 {
        return MatchOutcome::default();
    }

    // Initial candidates: predicate satisfaction only, tested node by node
    // so that the reference shares no code with the attribute index.
    let mut mat: Vec<Vec<NodeId>> = pattern
        .node_ids()
        .map(|u| {
            let pred = pattern.predicate(u);
            graph
                .nodes()
                .filter(|&v| graph.satisfies(v, pred))
                .collect()
        })
        .collect();

    let mut outcome = MatchOutcome::default();
    outcome.stats.initial_candidates = mat.iter().map(Vec::len).sum();
    naive_fixpoint(pattern, graph, oracle, &mut mat);
    outcome.stats.removed_candidates =
        outcome.stats.initial_candidates - mat.iter().map(Vec::len).sum::<usize>();

    if mat.iter().any(Vec::is_empty) {
        outcome.stats.failed_early = true;
        outcome.relation = MatchRelation::empty(np);
        return outcome;
    }
    outcome.relation = MatchRelation::from_sets(mat);
    outcome
}

/// The loop of the naive fixpoint on its own: refines per-pattern-node
/// candidate sets to the greatest fixpoint *without* clearing the relation
/// when some node ends up empty — the invariant `gpm-incremental`'s match
/// state maintains, and the starting point of an unmatched query.
pub fn naive_fixpoint<O: DistanceQuery + ?Sized>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
    sets: &mut [Vec<NodeId>],
) {
    loop {
        let mut changed = false;
        for e in pattern.edges() {
            let targets = sets[e.to.index()].clone();
            let before = sets[e.from.index()].len();
            sets[e.from.index()]
                .retain(|&x| targets.iter().any(|&y| oracle.within(graph, x, y, e.bound)));
            changed |= sets[e.from.index()].len() != before;
        }
        if !changed {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded_sim::bounded_simulation;
    use gpm_graph::{
        Attributes, DataGraphBuilder, EdgeBound, PatternGraph, PatternGraphBuilder, Predicate,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    #[test]
    fn agrees_with_optimized_on_small_example() {
        let (g, _) = DataGraphBuilder::new()
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
            .edge("C", "A", 1u32)
            .build()
            .unwrap();
        let fast = bounded_simulation(&p, &g);
        let slow = bounded_simulation_naive(&p, &g);
        assert_eq!(fast.relation, slow.relation);
        assert!(fast.is_match(&p));
    }

    #[test]
    fn empty_pattern_and_empty_graph() {
        let g = DataGraph::new();
        let p = PatternGraph::new();
        let out = bounded_simulation_naive(&p, &g);
        assert_eq!(out.relation.pattern_node_count(), 0);

        let mut p1 = PatternGraph::new();
        p1.add_node(Predicate::any());
        let out = bounded_simulation_naive(&p1, &g);
        assert!(!out.relation.is_match(&p1));
    }

    /// Generates a random labelled graph and pattern, used for differential
    /// testing between the naive fixpoint and the optimized algorithm.
    fn random_instance(seed: u64) -> (DataGraph, PatternGraph) {
        let mut rng = StdRng::seed_from_u64(seed);
        let labels = ["A", "B", "C", "D"];
        let n = rng.gen_range(3..14usize);
        let mut g = DataGraph::new();
        for _ in 0..n {
            let l = labels[rng.gen_range(0..labels.len())];
            g.add_node(Attributes::labeled(l));
        }
        let edges = rng.gen_range(0..n * 3);
        for _ in 0..edges {
            let a = NodeId::new(rng.gen_range(0..n as u32));
            let b = NodeId::new(rng.gen_range(0..n as u32));
            let _ = g.try_add_edge(a, b);
        }

        let mut p = PatternGraph::new();
        let pnodes = rng.gen_range(1..5usize);
        for _ in 0..pnodes {
            let l = labels[rng.gen_range(0..labels.len())];
            p.add_node(Predicate::label(l));
        }
        let pedges = rng.gen_range(0..pnodes * 2);
        for _ in 0..pedges {
            let a = gpm_graph::PatternNodeId::new(rng.gen_range(0..pnodes as u32));
            let b = gpm_graph::PatternNodeId::new(rng.gen_range(0..pnodes as u32));
            if a == b {
                continue;
            }
            let bound = if rng.gen_bool(0.2) {
                EdgeBound::Unbounded
            } else {
                EdgeBound::Hops(rng.gen_range(1..4))
            };
            let _ = p.add_edge(a, b, bound);
        }
        (g, p)
    }

    #[test]
    fn differential_fixed_seeds() {
        for seed in 0..40u64 {
            let (g, p) = random_instance(seed);
            let fast = bounded_simulation(&p, &g);
            let slow = bounded_simulation_naive(&p, &g);
            assert_eq!(fast.relation, slow.relation, "seed {seed}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The optimized Match and the naive fixpoint compute the same
        /// maximum relation, and it verifies against the definition.
        #[test]
        fn prop_matches_naive(seed in 0u64..10_000) {
            let (g, p) = random_instance(seed);
            let fast = bounded_simulation(&p, &g);
            let slow = bounded_simulation_naive(&p, &g);
            prop_assert_eq!(&fast.relation, &slow.relation);
            let m = DistanceMatrix::build(&g);
            prop_assert!(fast.relation.is_valid_match(&p, &g, &m));
        }
    }
}
