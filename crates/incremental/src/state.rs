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
//! The externally reported relation follows the paper's convention: if some
//! pattern node has an empty `mat(u)`, the match is `∅` (but the internal
//! sets are kept so maintenance can continue and later insertions can revive
//! the match).

use gpm_core::naive::naive_fixpoint;
use gpm_core::{bounded_simulation_with_oracle_on, MatchRelation};
use gpm_distance::DistanceQuery;
use gpm_exec::Executor;
use gpm_graph::{DataGraph, EdgeBound, NodeId, PatternGraph, PatternNodeId};
use serde::{Deserialize, Serialize};

/// Per-pattern-node match and candidate sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchState {
    /// `satisfies[u][v]`: does `v` satisfy the predicate of `u`?
    satisfies: Vec<Vec<bool>>,
    /// `mat[u][v]`: is `(u, v)` in the current maximum match?
    mat: Vec<Vec<bool>>,
    /// Number of `true` entries per row of `mat`.
    live: Vec<usize>,
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

    /// [`MatchState::initialise`] on an explicit executor (the satisfaction
    /// bitmaps are one independent task per pattern node; the batch `Match`
    /// run parallelises as described on
    /// [`bounded_simulation_with_oracle_on`]).
    pub fn initialise_with<O: DistanceQuery + Sync + ?Sized>(
        pattern: &PatternGraph,
        graph: &DataGraph,
        oracle: &O,
        exec: &Executor,
    ) -> Self {
        let nv = graph.node_count();
        let np = pattern.node_count();
        let satisfies: Vec<Vec<bool>> = exec.map_tasks(np, nv, |ui| {
            let u = PatternNodeId::new(ui as u32);
            let mut row = vec![false; nv];
            for v in graph.nodes_satisfying(pattern.predicate(u)) {
                row[v.index()] = true;
            }
            row
        });

        let outcome = bounded_simulation_with_oracle_on(pattern, graph, oracle, exec);
        let mut mat = vec![vec![false; nv]; np];
        let mut live = vec![0usize; np];
        // `Match` clears the whole relation when P ⋬ G, but the state to
        // maintain is the per-node greatest fixpoint, where some nodes may
        // still hold matches: the naive loop gives it without the clearing
        // step (a non-clearing `Match` starts an unmatched query 2.4× slower).
        if outcome.relation.is_match(pattern) {
            for (u, v) in outcome.relation.iter_pairs() {
                mat[u.index()][v.index()] = true;
                live[u.index()] += 1;
            }
        } else {
            let mut sets: Vec<Vec<NodeId>> = satisfies
                .iter()
                .map(|row| graph.nodes().filter(|v| row[v.index()]).collect())
                .collect();
            naive_fixpoint(pattern, graph, oracle, &mut sets);
            for (u_idx, row) in sets.into_iter().enumerate() {
                for v in row {
                    mat[u_idx][v.index()] = true;
                    live[u_idx] += 1;
                }
            }
        }
        MatchState {
            satisfies,
            mat,
            live,
        }
    }

    /// Number of pattern nodes.
    pub fn pattern_node_count(&self) -> usize {
        self.mat.len()
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
        self.live[u.index()] += 1;
        true
    }

    /// Removes `(u, v)` from the match; returns `true` if it was present.
    pub fn remove(&mut self, u: PatternNodeId, v: NodeId) -> bool {
        let slot = &mut self.mat[u.index()][v.index()];
        if !*slot {
            return false;
        }
        *slot = false;
        self.live[u.index()] -= 1;
        true
    }

    /// Number of matches of pattern node `u`.
    pub fn live_count(&self, u: PatternNodeId) -> usize {
        self.live[u.index()]
    }

    /// The data nodes currently matching `u` (ascending order).
    pub fn matches_of(&self, u: PatternNodeId) -> Vec<NodeId> {
        self.mat[u.index()]
            .iter()
            .enumerate()
            .filter(|&(_v, &b)| b)
            .map(|(v, &_b)| NodeId::new(v as u32))
            .collect()
    }

    /// The candidate (non-matched, predicate-satisfying) nodes of `u`.
    pub fn candidates_of(&self, u: PatternNodeId) -> Vec<NodeId> {
        self.satisfies[u.index()]
            .iter()
            .enumerate()
            .filter(|&(v, &s)| s && !self.mat[u.index()][v])
            .map(|(v, &_s)| NodeId::new(v as u32))
            .collect()
    }

    /// Whether every pattern node currently has at least one match.
    pub fn all_matched(&self) -> bool {
        self.live.iter().all(|&c| c > 0)
    }

    /// The externally visible relation, following the paper's convention:
    /// `∅` when some pattern node is unmatched, otherwise the mat sets.
    pub fn relation(&self) -> MatchRelation {
        if !self.all_matched() {
            return MatchRelation::empty(self.mat.len());
        }
        MatchRelation::from_sets(
            (0..self.mat.len())
                .map(|u| self.matches_of(PatternNodeId::new(u as u32)))
                .collect(),
        )
    }

    /// The internal per-node sets as a relation, *without* the ∅ convention.
    /// Used by tests to compare against a from-scratch greatest fixpoint.
    pub fn raw_relation(&self) -> MatchRelation {
        MatchRelation::from_sets(
            (0..self.mat.len())
                .map(|u| self.matches_of(PatternNodeId::new(u as u32)))
                .collect(),
        )
    }

    /// Folds the state into its canonical persisted form: per pattern node,
    /// the ascending `NodeId` lists of the satisfaction and match sets (the
    /// dense bitmap layout is an in-memory concern, not an encoding).
    pub fn to_snapshot(&self) -> MatchStateSnapshot {
        let ids = |row: &[bool]| -> Vec<u32> {
            row.iter()
                .enumerate()
                .filter(|&(_v, &b)| b)
                .map(|(v, &_b)| v as u32)
                .collect()
        };
        MatchStateSnapshot {
            nodes: self.satisfies.first().map_or(0, Vec::len),
            satisfies: self.satisfies.iter().map(|r| ids(r)).collect(),
            mat: self.mat.iter().map(|r| ids(r)).collect(),
        }
    }

    /// Rebuilds a state from its persisted form. Errors (with a message
    /// naming the defect) when the snapshot is internally inconsistent:
    /// mismatched row counts, out-of-range node ids, unsorted/duplicated
    /// lists, or a matched node that does not satisfy its predicate.
    pub fn from_snapshot(snap: &MatchStateSnapshot) -> std::result::Result<Self, String> {
        if snap.satisfies.len() != snap.mat.len() {
            return Err(format!(
                "match-state snapshot has {} satisfies rows but {} mat rows",
                snap.satisfies.len(),
                snap.mat.len()
            ));
        }
        let nv = snap.nodes;
        let fill = |list: &[u32], what: &str, u: usize| -> std::result::Result<Vec<bool>, String> {
            let mut row = vec![false; nv];
            let mut prev: Option<u32> = None;
            for &v in list {
                if (v as usize) >= nv {
                    return Err(format!(
                        "match-state snapshot: {what}[{u}] contains node {v} >= |V| = {nv}"
                    ));
                }
                if prev.is_some_and(|p| p >= v) {
                    return Err(format!(
                        "match-state snapshot: {what}[{u}] is not strictly ascending at {v}"
                    ));
                }
                prev = Some(v);
                row[v as usize] = true;
            }
            Ok(row)
        };
        let mut satisfies = Vec::with_capacity(snap.satisfies.len());
        let mut mat = Vec::with_capacity(snap.mat.len());
        let mut live = Vec::with_capacity(snap.mat.len());
        for (u, (sat, matched)) in snap.satisfies.iter().zip(&snap.mat).enumerate() {
            let sat_row = fill(sat, "satisfies", u)?;
            let mat_row = fill(matched, "mat", u)?;
            if let Some(&v) = matched.iter().find(|&&v| !sat_row[v as usize]) {
                return Err(format!(
                    "match-state snapshot: mat[{u}] contains node {v} outside satisfies[{u}]"
                ));
            }
            live.push(matched.len());
            satisfies.push(sat_row);
            mat.push(mat_row);
        }
        Ok(MatchState {
            satisfies,
            mat,
            live,
        })
    }
}

/// The canonical serde encoding of a [`MatchState`] — what `gpm-service`
/// persists per query inside a durability snapshot.
///
/// Node ids are stored as strictly ascending `u32` lists per pattern node,
/// so equal states always serialize to identical bytes regardless of how
/// they were produced (initialised from scratch, incrementally repaired, or
/// recovered), and [`MatchState::from_snapshot`] can validate the shape
/// before trusting it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchStateSnapshot {
    /// Data-graph node count (the width of every row).
    pub nodes: usize,
    /// Per pattern node: ascending data-node ids satisfying its predicate.
    pub satisfies: Vec<Vec<u32>>,
    /// Per pattern node: ascending data-node ids in the current match
    /// (always a subset of the same row of `satisfies`).
    pub mat: Vec<Vec<u32>>,
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
        assert_eq!(state.live_count(pn(0)), 1);
        assert_eq!(state.matches_of(pn(0)), vec![NodeId::new(0)]);
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
        assert_eq!(state.candidates_of(pn(0)), vec![extra]);
    }

    #[test]
    fn add_remove_bookkeeping() {
        let (g, p, m) = setup();
        let mut state = MatchState::initialise(&p, &g, &m);
        let v = NodeId::new(0);
        assert!(!state.add(pn(0), v), "already present");
        assert!(state.remove(pn(0), v));
        assert!(!state.remove(pn(0), v));
        assert_eq!(state.live_count(pn(0)), 0);
        assert!(!state.all_matched());
        // The reported relation collapses to ∅, but the raw sets keep node C.
        assert!(state.relation().is_empty());
        assert_eq!(state.raw_relation().matches_of(pn(1)).len(), 1);
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
        assert_eq!(state.live_count(pn(0)), 1, "A still has its fixpoint match");
        assert_eq!(state.live_count(pn(1)), 0);
        assert!(state.relation().is_empty());
    }
}
