//! The mutable matching state maintained across updates.
//!
//! The incremental algorithms keep, per pattern node `u`:
//!
//! * `mat(u)` — the data nodes currently matching `u` (the maximum match of
//!   the *current* graph);
//! * `can(u)` — the candidate set of the paper's `Match+`: nodes whose
//!   attributes satisfy `f_v(u)` but which are **not** currently in `mat(u)`.
//!   Since node attributes never change under edge updates, candidacy is
//!   computed once.
//!
//! `mat` is `Match`'s own refinement state, a [`Refinement`]: per pattern
//! node an ascending slot list, one membership flag per slot and a packed
//! ascending list of `mat(u)`, and per pattern edge `e` one `u32` witness
//! counter per slot of `from(e)`. The slots are `sat(u)`, the predicate's
//! nodes, not `Match`'s out-degree-filtered `mat₀(u)`: a node with no
//! out-edge at registration can gain one and join. The counter invariant holds after every repair step: for each
//! pattern edge `e` and each `x ∈ mat(from(e))`, the counter is the number
//! of nodes of `mat(to(e))` that `x` reaches within `bound(e)` on the
//! current oracle. The repair keeps it with `Match`'s one wave (see
//! [`crate::repair`]), and the state has no setter that could break it.
//! `can(u)` is the slot list minus `mat(u)`.
//!
//! The counters cost `Σ_e |sat(from(e))|` `u32` per query, and the lookups
//! by node id a `|V|`-bit membership row and a `|V|`-bit slot row with a
//! rank per word per pattern node (24 bytes per 64 data nodes). Per query,
//! the whole state (lists, flags, counters and rows; the dense layout it
//! replaced held `2·|V_p|·|V|` flags and `|E_p|·|V|` counters): at most
//! 9.3 KiB (was 11.7) and 3.9 KiB on average (was 8.9) on `wire-stream`
//! (|V| = 297, 8 queries), 14.4 KiB (was 31.0) and 7.8 KiB (was 28.1) on
//! `inproc-maintain` (|V| = 1 038, 4 queries), 3.8 KiB (was 7.5) and
//! 1.6 KiB (was 6.0) on `twohop-churn` (|V| = 222, 4 queries), and 31.0 KiB
//! (was 149.9) for `exp_oracle_scale --scale 0.01`'s anchored chain
//! (|V| = 10 000, ≈ 625 nodes per predicate). `match-cold` keeps no state;
//! its `Match` calls hold `Σ_e |mat₀(from(e))|` counters until they return.
//!
//! A state is never persisted. The maximum match is unique, so the state is
//! a function of (pattern, graph), and [`MatchState::initialise_with`] is
//! the one way to build it: `gpm-service` calls it to register a query, to
//! resume one and to reopen a durable service. It runs `Match` without
//! clearing, so an unmatched query starts from its per-node greatest
//! fixpoint, counters included, in one refinement. On the Fig. 6 stand-in
//! (|V| = 741, the matrix, 40 unmatched P(4,6,3), each the median of 15
//! builds on 2 shared vCPUs) that build takes 0.042 ms on average (median
//! 0.017 ms). The build it replaced, a clearing `Match` and then the naive
//! fixpoint, took 0.038 ms (median 0.013 ms): a clearing `Match` stops at
//! the first emptied `mat(u)`, where the refinement keeps counting.
//!
//! The externally reported relation follows the paper's convention: if some
//! pattern node has an empty `mat(u)`, the match is `∅` (but the internal
//! sets are kept so maintenance can continue and later insertions can revive
//! the match).

use gpm_core::{MatchRelation, Refinement};
use gpm_distance::DistanceQuery;
use gpm_exec::Executor;
use gpm_graph::{DataGraph, NodeId, PatternGraph, PatternNodeId};

/// Per-pattern-node match and candidate sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchState {
    /// `mat(u)` and its witness counters, indexed by the slots `sat(u)`.
    pub(crate) mat: Refinement,
}

impl MatchState {
    /// Initialises the state by running the batch `Match` algorithm against
    /// the given oracle (this is the "compute matches once" step the paper
    /// prescribes before switching to incremental maintenance). Runs on the
    /// process-default [`gpm_exec::Parallelism`] policy.
    pub fn initialise<O: DistanceQuery + Sync + ?Sized>(
        pattern: &PatternGraph,
        graph: &DataGraph,
        oracle: &O,
    ) -> Self {
        Self::initialise_with(pattern, graph, oracle, &Executor::from_env())
    }

    /// [`MatchState::initialise`] on an explicit executor. The predicate
    /// lists are read off the attribute index on the caller thread (a few
    /// microseconds per pattern node); `exec` drives `Match`'s refinement,
    /// run without clearing ([`Refinement::greatest_fixpoint`]), which
    /// parallelises as described on
    /// [`gpm_core::bounded_simulation_with_oracle_on`].
    pub fn initialise_with<O: DistanceQuery + Sync + ?Sized>(
        pattern: &PatternGraph,
        graph: &DataGraph,
        oracle: &O,
        exec: &Executor,
    ) -> Self {
        MatchState {
            mat: Refinement::greatest_fixpoint(pattern, graph, oracle, exec),
        }
    }

    /// Number of pattern nodes.
    pub fn pattern_node_count(&self) -> usize {
        self.mat.sets().len()
    }

    /// Whether `(u, v)` is in the current maximum match.
    #[inline]
    pub fn in_mat(&self, u: PatternNodeId, v: NodeId) -> bool {
        self.mat.contains(u, v)
    }

    /// Whether `v` is in `can(u)`: satisfies the predicate but is not matched.
    #[inline]
    pub fn in_can(&self, u: PatternNodeId, v: NodeId) -> bool {
        self.satisfies(u, v) && !self.in_mat(u, v)
    }

    /// Whether `v` satisfies the predicate of `u` (candidate or matched).
    #[inline]
    pub fn satisfies(&self, u: PatternNodeId, v: NodeId) -> bool {
        self.mat.covers(u, v)
    }

    /// The data nodes currently matching `u` (ascending order).
    #[inline]
    pub fn matches_of(&self, u: PatternNodeId) -> &[NodeId] {
        &self.mat.sets()[u.index()]
    }

    /// The data nodes satisfying the predicate of `u` (ascending order):
    /// `mat(u)` and `can(u)` together. Edge updates never change it.
    #[inline]
    pub(crate) fn satisfying(&self, u: PatternNodeId) -> &[NodeId] {
        &self.mat.slots()[u.index()]
    }

    /// The candidate (non-matched, predicate-satisfying) nodes of `u`, in
    /// ascending order.
    pub fn candidates_of(&self, u: PatternNodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.satisfying(u)
            .iter()
            .copied()
            .filter(move |&v| !self.in_mat(u, v))
    }

    /// Whether every pattern node currently has at least one match.
    pub fn all_matched(&self) -> bool {
        self.mat.sets().iter().all(|set| !set.is_empty())
    }

    /// The externally visible relation, following the paper's convention:
    /// `∅` when some pattern node is unmatched, otherwise the mat sets.
    pub fn relation(&self) -> MatchRelation {
        if !self.all_matched() {
            return MatchRelation::empty(self.pattern_node_count());
        }
        MatchRelation::from_sets(self.mat.sets().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_distance::DistanceMatrix;
    use gpm_graph::{DataGraphBuilder, PatternGraphBuilder};

    fn pn(i: u32) -> PatternNodeId {
        PatternNodeId::new(i)
    }

    fn setup() -> (DataGraph, PatternGraph, DistanceMatrix) {
        let (g, _) = DataGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("B")
            .labeled_node("C")
            .path(&["A", "B", "C"])
            .build()
            .unwrap();
        let (p, _) = PatternGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("C")
            .edge("A", "C", 2u32)
            .build()
            .unwrap();
        let m = DistanceMatrix::build(&g);
        (g, p, m)
    }

    #[test]
    fn initialise_matches_batch_algorithm() {
        let (g, p, m) = setup();
        let state = MatchState::initialise(&p, &g, &m);
        assert!(state.all_matched());
        assert_eq!(state.matches_of(pn(0)).len(), 1);
        assert_eq!(state.matches_of(pn(0)), [NodeId::new(0)]);
        assert!(state.in_mat(pn(1), NodeId::new(2)));
        // Node B satisfies neither predicate.
        assert!(!state.satisfies(pn(0), NodeId::new(1)));
        let relation = state.relation();
        assert!(relation.is_match(&p));
    }

    #[test]
    fn candidates_exclude_matches() {
        let (mut g, p, _) = setup();
        // Add another node labelled A with no outgoing edges: it satisfies
        // the predicate of pattern node A but cannot match it.
        let extra = g.add_node(gpm_graph::Attributes::labeled("A"));
        let m = DistanceMatrix::build(&g);
        let state = MatchState::initialise(&p, &g, &m);
        assert!(state.in_can(pn(0), extra));
        assert!(!state.in_mat(pn(0), extra));
        assert_eq!(state.candidates_of(pn(0)).collect::<Vec<_>>(), [extra]);
    }

    #[test]
    fn initialise_when_pattern_does_not_match_keeps_partial_sets() {
        // Pattern A -[1]-> Z cannot match (no Z nodes), but the fixpoint of
        // the Z node set is empty while... A's set is also empty (no witness).
        // Use a pattern where one node matches and another does not.
        let (g, _, _) = setup();
        let (p, _) = PatternGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("Z")
            .build()
            .unwrap(); // no edges: two isolated pattern nodes
        let m = DistanceMatrix::build(&g);
        let state = MatchState::initialise(&p, &g, &m);
        assert!(!state.all_matched());
        assert_eq!(
            state.matches_of(pn(0)).len(),
            1,
            "A still has its fixpoint match"
        );
        assert_eq!(state.matches_of(pn(1)).len(), 0);
        assert!(state.relation().is_empty());
    }
}
