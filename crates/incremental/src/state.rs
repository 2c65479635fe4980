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
//! Both sets are held in two forms, the layout `Match` uses for its
//! candidates: a `|V|`-wide bitmap answers membership in `O(1)`, and a packed
//! ascending `NodeId` list beside it is what the repair walks and what the
//! relation and the service's deltas copy. `add`/`remove` keep the match
//! list sorted by binary search, so the repair pays for the matches it
//! visits — `O(|mat(u)|)` per cascade step — and never for `|V|`.
//!
//! A state is never persisted. The maximum match is unique, so the state is
//! a function of (pattern, graph), and [`MatchState::initialise_with`] is
//! the one way to build it: `gpm-service` calls it to register a query, to
//! resume one and to reopen a durable service.
//!
//! The externally reported relation follows the paper's convention: if some
//! pattern node has an empty `mat(u)`, the match is `∅` (but the internal
//! sets are kept so maintenance can continue and later insertions can revive
//! the match).

use gpm_core::naive::naive_fixpoint;
use gpm_core::{bounded_simulation_with_oracle_on, MatchRelation};
use gpm_distance::DistanceQuery;
use gpm_exec::Executor;
use gpm_graph::{DataGraph, EdgeBound, NodeId, PatternGraph, PatternNodeId};

/// Per-pattern-node match and candidate sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchState {
    /// `satisfies[u][v]`: does `v` satisfy the predicate of `u`?
    satisfies: Vec<Vec<bool>>,
    /// `mat[u][v]`: is `(u, v)` in the current maximum match?
    mat: Vec<Vec<bool>>,
    /// The set entries of `satisfies[u]`, ascending.
    satisfying: Vec<Vec<NodeId>>,
    /// The set entries of `mat[u]`, ascending.
    matched: Vec<Vec<NodeId>>,
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
    /// microseconds per pattern node); `exec` drives the batch `Match` run,
    /// which parallelises as described on
    /// [`bounded_simulation_with_oracle_on`].
    pub fn initialise_with<O: DistanceQuery + Sync + ?Sized>(
        pattern: &PatternGraph,
        graph: &DataGraph,
        oracle: &O,
        exec: &Executor,
    ) -> Self {
        let nv = graph.node_count();
        let satisfying: Vec<Vec<NodeId>> = pattern
            .node_ids()
            .map(|u| graph.nodes_satisfying(pattern.predicate(u)))
            .collect();

        let outcome = bounded_simulation_with_oracle_on(pattern, graph, oracle, exec);
        // `Match` clears the whole relation when P ⋬ G, but the state to
        // maintain is the per-node greatest fixpoint, where some nodes may
        // still hold matches: the naive loop gives it without the clearing
        // step (a non-clearing `Match` starts an unmatched query 2.4× slower).
        let matched = if outcome.relation.is_match(pattern) {
            pattern
                .node_ids()
                .map(|u| outcome.relation.matches_of(u).to_vec())
                .collect()
        } else {
            let mut sets = satisfying.clone();
            naive_fixpoint(pattern, graph, oracle, &mut sets);
            sets
        };
        Self::from_lists(nv, satisfying, matched)
    }

    /// Builds the bitmaps of `nodes` bits beside ascending, in-range lists.
    fn from_lists(nodes: usize, satisfying: Vec<Vec<NodeId>>, matched: Vec<Vec<NodeId>>) -> Self {
        let bitmaps = |lists: &[Vec<NodeId>]| -> Vec<Vec<bool>> {
            lists
                .iter()
                .map(|list| {
                    let mut row = vec![false; nodes];
                    for v in list {
                        row[v.index()] = true;
                    }
                    row
                })
                .collect()
        };
        MatchState {
            satisfies: bitmaps(&satisfying),
            mat: bitmaps(&matched),
            satisfying,
            matched,
        }
    }

    /// Number of pattern nodes.
    pub fn pattern_node_count(&self) -> usize {
        self.matched.len()
    }

    /// Whether `(u, v)` is in the current maximum match.
    #[inline]
    pub fn in_mat(&self, u: PatternNodeId, v: NodeId) -> bool {
        self.mat[u.index()][v.index()]
    }

    /// Whether `v` is in `can(u)`: satisfies the predicate but is not matched.
    #[inline]
    pub fn in_can(&self, u: PatternNodeId, v: NodeId) -> bool {
        self.satisfies[u.index()][v.index()] && !self.mat[u.index()][v.index()]
    }

    /// Whether `v` satisfies the predicate of `u` (candidate or matched).
    #[inline]
    pub fn satisfies(&self, u: PatternNodeId, v: NodeId) -> bool {
        self.satisfies[u.index()][v.index()]
    }

    /// Adds `(u, v)` to the match; returns `true` if it was not present.
    pub fn add(&mut self, u: PatternNodeId, v: NodeId) -> bool {
        let slot = &mut self.mat[u.index()][v.index()];
        if *slot {
            return false;
        }
        *slot = true;
        let list = &mut self.matched[u.index()];
        list.insert(list.partition_point(|&w| w < v), v);
        true
    }

    /// Removes `(u, v)` from the match; returns `true` if it was present.
    pub fn remove(&mut self, u: PatternNodeId, v: NodeId) -> bool {
        let slot = &mut self.mat[u.index()][v.index()];
        if !*slot {
            return false;
        }
        *slot = false;
        let list = &mut self.matched[u.index()];
        list.remove(list.partition_point(|&w| w < v));
        true
    }

    /// The data nodes currently matching `u` (ascending order).
    #[inline]
    pub fn matches_of(&self, u: PatternNodeId) -> &[NodeId] {
        &self.matched[u.index()]
    }

    /// The data nodes satisfying the predicate of `u` (ascending order):
    /// `mat(u)` and `can(u)` together. Edge updates never change it.
    #[inline]
    pub(crate) fn satisfying(&self, u: PatternNodeId) -> &[NodeId] {
        &self.satisfying[u.index()]
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
        self.matched.iter().all(|list| !list.is_empty())
    }

    /// The externally visible relation, following the paper's convention:
    /// `∅` when some pattern node is unmatched, otherwise the mat sets.
    pub fn relation(&self) -> MatchRelation {
        if !self.all_matched() {
            return MatchRelation::empty(self.matched.len());
        }
        MatchRelation::from_sets(self.matched.clone())
    }
}

/// Whether data node `x` has a witness among `targets` (the current matches
/// of a pattern edge's head) within the edge's `bound`.
#[inline]
pub(crate) fn edge_witnessed<O: DistanceQuery + ?Sized>(
    graph: &DataGraph,
    oracle: &O,
    x: NodeId,
    targets: &[NodeId],
    bound: EdgeBound,
) -> bool {
    targets
        .iter()
        .copied()
        .any(|y| oracle.within(graph, x, y, bound))
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
    fn add_remove_bookkeeping() {
        let (g, p, m) = setup();
        let mut state = MatchState::initialise(&p, &g, &m);
        let v = NodeId::new(0);
        assert!(!state.add(pn(0), v), "already present");
        assert!(state.remove(pn(0), v));
        assert!(!state.remove(pn(0), v));
        assert_eq!(state.matches_of(pn(0)).len(), 0);
        assert!(!state.all_matched());
        // The reported relation collapses to ∅, but the internal sets keep
        // node C.
        assert!(state.relation().is_empty());
        assert_eq!(state.matches_of(pn(1)).len(), 1);
        assert!(state.add(pn(0), v));
        assert!(state.all_matched());
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
