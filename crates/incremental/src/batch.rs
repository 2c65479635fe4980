//! `IncMatch` — incremental maintenance under a **batch** of edge updates
//! (Fig. 8 of the paper). Requires a DAG pattern; data graphs may be cyclic.
//!
//! The batch algorithm updates the distance matrix once for the whole list of
//! updates (`UpdateBM`), then repairs the match from the combined `AFF1`:
//!
//! 1. sources whose outgoing distances **increased** are handled with the
//!    removal propagation of `Match−`;
//! 2. sources whose outgoing distances **decreased** are handled with the
//!    addition propagation of `Match+`.
//!
//! Removals are processed before additions: a match that loses its witness
//! through one update of the batch but regains a (different) witness through
//! another is first moved out of the match and then re-added by the addition
//! pass — this is the role of the paper's "move `v'` to `can(u')` instead of
//! dropping it" remark, and processing the phases in this order is what makes
//! the combined repair confluent.

use crate::affected::IncrementalOutcome;
use crate::repair::maintain;
use crate::state::MatchState;
use gpm_distance::{DistanceOracle, EdgeUpdate};
use gpm_exec::Executor;
use gpm_graph::{DataGraph, GraphError, PatternGraph};

/// Applies a batch `δ` of edge updates to `graph`, maintains `oracle` and
/// `state` on `exec`, and reports the affected areas.
///
/// Updates that are no-ops at their position in the batch (inserting an
/// existing edge, deleting a missing one) are skipped, matching the
/// behaviour of the update-stream generator. Errors with
/// [`GraphError::PatternNotAcyclic`] for cyclic patterns (nothing modified).
///
/// The expensive half of batch maintenance — `UpdateBM`'s distance repair —
/// replays the batch unit by unit, each unit confined to its affected cone
/// (see [`DistanceOracle::apply_batch`]); whatever a back-end fans out on
/// `exec` is merged in a fixed order, so the maintained oracle, match state
/// and reported `AFF1`/`AFF2` are identical at every thread count. The
/// match-repair passes themselves (`Match−`/`Match+` propagation) stay
/// sequential: their work is proportional to `|AFF2|`, which the paper shows
/// to be small.
pub fn inc_match<O: DistanceOracle + ?Sized>(
    pattern: &PatternGraph,
    graph: &mut DataGraph,
    oracle: &mut O,
    state: &mut MatchState,
    updates: &[EdgeUpdate],
    exec: &Executor,
) -> Result<IncrementalOutcome, GraphError> {
    pattern.require_dag()?;
    // Apply the batch to the graph, remembering which updates took effect.
    let applied: Vec<EdgeUpdate> = updates.iter().copied().filter(|u| u.apply(graph)).collect();
    maintain(pattern, graph, oracle, state, &applied, exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_core::bounded_simulation_with_oracle;
    use gpm_datagen::{random_graph, random_updates, RandomGraphConfig, UpdateStreamConfig};
    use gpm_distance::DistanceMatrix;
    use gpm_graph::{PatternGraphBuilder, Predicate};
    use proptest::prelude::*;

    /// The tests predate the `exec` parameter: run them on the process-default
    /// executor, so the suite follows `GPM_THREADS`.
    fn inc_match(
        p: &PatternGraph,
        g: &mut DataGraph,
        m: &mut DistanceMatrix,
        s: &mut MatchState,
        updates: &[EdgeUpdate],
    ) -> Result<IncrementalOutcome, GraphError> {
        super::inc_match(p, g, m, s, updates, &Executor::from_env())
    }

    fn dag_pattern() -> PatternGraph {
        let (p, _) = PatternGraphBuilder::new()
            .node("x", Predicate::label("a0"))
            .node("y", Predicate::label("a1"))
            .node("z", Predicate::label("a2"))
            .node("w", Predicate::label("a3"))
            .edge("x", "y", 2u32)
            .edge("y", "z", 3u32)
            .edge("x", "z", 4u32)
            .unbounded_edge("z", "w")
            .build()
            .unwrap();
        p
    }

    fn run_batch_and_compare(seed: u64, nodes: usize, edges: usize, batch: usize) {
        let mut g = random_graph(&RandomGraphConfig::new(nodes, edges, 5).with_seed(seed));
        let p = dag_pattern();
        let mut m = DistanceMatrix::build(&g);
        let mut s = MatchState::initialise(&p, &g, &m);

        let updates = random_updates(
            &g,
            &UpdateStreamConfig::mixed(batch).with_seed(seed * 31 + 1),
        );
        let out = inc_match(&p, &mut g, &mut m, &mut s, &updates).unwrap();

        // The matrix and the match equal a from-scratch recomputation.
        assert_eq!(
            m,
            DistanceMatrix::build(&g),
            "matrix diverged (seed {seed})"
        );
        let recomputed = bounded_simulation_with_oracle(&p, &g, &m);
        assert_eq!(
            s.relation(),
            recomputed.relation,
            "match diverged (seed {seed})"
        );
        assert_eq!(out.stats.aff2, out.aff2.len());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut g = random_graph(&RandomGraphConfig::new(30, 60, 5).with_seed(1));
        let p = dag_pattern();
        let mut m = DistanceMatrix::build(&g);
        let mut s = MatchState::initialise(&p, &g, &m);
        let before = s.relation();
        let out = inc_match(&p, &mut g, &mut m, &mut s, &[]).unwrap();
        assert!(out.aff1.is_empty());
        assert!(out.aff2.is_empty());
        assert_eq!(s.relation(), before);
    }

    #[test]
    fn cyclic_pattern_is_rejected() {
        let mut g = random_graph(&RandomGraphConfig::new(10, 20, 3).with_seed(2));
        let (p, _) = PatternGraphBuilder::new()
            .node("x", Predicate::label("a0"))
            .node("y", Predicate::label("a1"))
            .edge("x", "y", 1u32)
            .edge("y", "x", 1u32)
            .build()
            .unwrap();
        let mut m = DistanceMatrix::build(&g);
        let mut s = MatchState::initialise(&p, &g, &m);
        let err = inc_match(&p, &mut g, &mut m, &mut s, &[]);
        assert_eq!(err.unwrap_err(), GraphError::PatternNotAcyclic);
    }

    #[test]
    fn mixed_batches_match_recompute_fixed_seeds() {
        for seed in 0..12u64 {
            run_batch_and_compare(seed, 40, 100, 25);
        }
    }

    #[test]
    fn deletion_only_batches() {
        for seed in 0..6u64 {
            let mut g = random_graph(&RandomGraphConfig::new(35, 90, 5).with_seed(seed));
            let p = dag_pattern();
            let mut m = DistanceMatrix::build(&g);
            let mut s = MatchState::initialise(&p, &g, &m);
            let updates =
                random_updates(&g, &UpdateStreamConfig::deletions(20).with_seed(seed + 99));
            inc_match(&p, &mut g, &mut m, &mut s, &updates).unwrap();
            let recomputed = bounded_simulation_with_oracle(&p, &g, &m);
            assert_eq!(s.relation(), recomputed.relation, "seed {seed}");
        }
    }

    #[test]
    fn insertion_only_batches() {
        for seed in 0..6u64 {
            let mut g = random_graph(&RandomGraphConfig::new(35, 60, 5).with_seed(seed));
            let p = dag_pattern();
            let mut m = DistanceMatrix::build(&g);
            let mut s = MatchState::initialise(&p, &g, &m);
            let updates =
                random_updates(&g, &UpdateStreamConfig::insertions(20).with_seed(seed + 7));
            inc_match(&p, &mut g, &mut m, &mut s, &updates).unwrap();
            let recomputed = bounded_simulation_with_oracle(&p, &g, &m);
            assert_eq!(s.relation(), recomputed.relation, "seed {seed}");
        }
    }

    #[test]
    fn repeated_batches_stay_consistent() {
        let mut g = random_graph(&RandomGraphConfig::new(40, 90, 5).with_seed(3));
        let p = dag_pattern();
        let mut m = DistanceMatrix::build(&g);
        let mut s = MatchState::initialise(&p, &g, &m);
        for round in 0..5u64 {
            let updates =
                random_updates(&g, &UpdateStreamConfig::mixed(15).with_seed(round * 13 + 5));
            inc_match(&p, &mut g, &mut m, &mut s, &updates).unwrap();
            let recomputed = bounded_simulation_with_oracle(&p, &g, &m);
            assert_eq!(s.relation(), recomputed.relation, "round {round}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// IncMatch equals recomputation from scratch for arbitrary seeds and
        /// batch sizes.
        #[test]
        fn prop_incmatch_equals_recompute(seed in 0u64..5_000, batch in 1usize..40) {
            run_batch_and_compare(seed, 30, 70, batch);
        }
    }
}
