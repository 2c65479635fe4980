//! The match relation `S ⊆ V_p × V` and its verification helpers.
//!
//! A match relates every pattern node to a *set* of data nodes (Section 2.2,
//! Remark (1)) — this is precisely what distinguishes bounded simulation from
//! the bijective functions of subgraph isomorphism. The maximum match is
//! unique (Prop. 2.1); [`MatchRelation::verify`] checks the two defining
//! conditions of a match, and is used throughout the test suites to validate
//! every algorithm (batch, incremental, naive) against the definition itself.

use gpm_distance::DistanceQuery;
use gpm_graph::{DataGraph, NodeId, PatternGraph, PatternNodeId};
use serde::{Deserialize, Serialize};

/// A binary relation between pattern nodes and data nodes.
///
/// Stored as one sorted, deduplicated `Vec<NodeId>` per pattern node.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchRelation {
    per_pattern: Vec<Vec<NodeId>>,
}

impl MatchRelation {
    /// The empty relation over a pattern with `pattern_nodes` nodes.
    pub fn empty(pattern_nodes: usize) -> Self {
        MatchRelation {
            per_pattern: vec![Vec::new(); pattern_nodes],
        }
    }

    /// Builds a relation from per-pattern-node candidate sets. Each set is
    /// sorted and deduplicated.
    pub fn from_sets(mut sets: Vec<Vec<NodeId>>) -> Self {
        for s in &mut sets {
            s.sort();
            s.dedup();
        }
        MatchRelation { per_pattern: sets }
    }

    /// Number of pattern nodes the relation is defined over.
    pub fn pattern_node_count(&self) -> usize {
        self.per_pattern.len()
    }

    /// The data nodes matched to pattern node `u` (sorted).
    pub fn matches_of(&self, u: PatternNodeId) -> &[NodeId] {
        &self.per_pattern[u.index()]
    }

    /// Whether `(u, v)` is in the relation.
    pub fn contains(&self, u: PatternNodeId, v: NodeId) -> bool {
        self.per_pattern[u.index()].binary_search(&v).is_ok()
    }

    /// Inserts `(u, v)`; returns `true` if it was not already present.
    pub fn insert(&mut self, u: PatternNodeId, v: NodeId) -> bool {
        match self.per_pattern[u.index()].binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.per_pattern[u.index()].insert(pos, v);
                true
            }
        }
    }

    /// Removes `(u, v)`; returns `true` if it was present.
    pub fn remove(&mut self, u: PatternNodeId, v: NodeId) -> bool {
        match self.per_pattern[u.index()].binary_search(&v) {
            Ok(pos) => {
                self.per_pattern[u.index()].remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Clears the whole relation (used when some pattern node loses all of
    /// its matches: the paper's algorithms then return `∅`).
    pub fn clear(&mut self) {
        for s in &mut self.per_pattern {
            s.clear();
        }
    }

    /// Total number of `(u, v)` pairs, `|S|`.
    pub fn pair_count(&self) -> usize {
        self.per_pattern.iter().map(Vec::len).sum()
    }

    /// Whether the relation contains no pairs at all.
    pub fn is_empty(&self) -> bool {
        self.per_pattern.iter().all(Vec::is_empty)
    }

    /// Whether this relation witnesses `P ⊴ G`: the pattern is non-empty and
    /// every pattern node has at least one match. (An empty pattern matches
    /// trivially.)
    pub fn is_match(&self, pattern: &PatternGraph) -> bool {
        debug_assert_eq!(self.per_pattern.len(), pattern.node_count());
        self.per_pattern.iter().all(|s| !s.is_empty())
    }

    /// Iterates over all `(u, v)` pairs of the relation.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (PatternNodeId, NodeId)> + '_ {
        self.per_pattern.iter().enumerate().flat_map(|(i, vs)| {
            let u = PatternNodeId::new(i as u32);
            vs.iter().map(move |&v| (u, v))
        })
    }

    /// The set of *distinct* data nodes appearing in the relation (the node
    /// set `V_r` of the result graph).
    pub fn data_nodes(&self) -> Vec<NodeId> {
        let mut all: Vec<NodeId> = self.iter_pairs().map(|(_, v)| v).collect();
        all.sort();
        all.dedup();
        all
    }

    /// Number of matches per pattern node, averaged — the metric reported in
    /// Exp-1 ("matches per pattern node").
    pub fn average_matches_per_pattern_node(&self) -> f64 {
        if self.per_pattern.is_empty() {
            return 0.0;
        }
        self.pair_count() as f64 / self.per_pattern.len() as f64
    }

    /// Checks that this relation is a *match* in the sense of Section 2.2:
    /// for every `(u, v)`,
    ///
    /// 1. `f_A(v)` satisfies `f_v(u)`, and
    /// 2. for every pattern edge `(u, u')` there is a node `v'` matched to
    ///    `u'` with a non-empty path `v → v'` admitted by the edge bound.
    ///
    /// Returns the list of violating pairs (empty = valid match relation).
    /// Note that the *empty* relation is trivially a valid (non-maximum)
    /// match.
    pub fn verify<O: DistanceQuery + ?Sized>(
        &self,
        pattern: &PatternGraph,
        graph: &DataGraph,
        oracle: &O,
    ) -> Vec<(PatternNodeId, NodeId, String)> {
        let mut violations = Vec::new();
        for (u, v) in self.iter_pairs() {
            if !graph.satisfies(v, pattern.predicate(u)) {
                violations.push((
                    u,
                    v,
                    format!("{v} does not satisfy {}", pattern.predicate(u)),
                ));
                continue;
            }
            for edge in pattern.out_edges(u) {
                let ok = self
                    .matches_of(edge.to)
                    .iter()
                    .any(|&v2| oracle.within(graph, v, v2, edge.bound));
                if !ok {
                    violations.push((
                        u,
                        v,
                        format!(
                            "no witness for pattern edge ({u}, {}) with bound {}",
                            edge.to, edge.bound
                        ),
                    ));
                }
            }
        }
        violations
    }

    /// Convenience wrapper around [`MatchRelation::verify`] returning a bool.
    pub fn is_valid_match<O: DistanceQuery + ?Sized>(
        &self,
        pattern: &PatternGraph,
        graph: &DataGraph,
        oracle: &O,
    ) -> bool {
        self.verify(pattern, graph, oracle).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_distance::DistanceMatrix;
    use gpm_graph::{DataGraphBuilder, EdgeBound, PatternGraphBuilder, Predicate};

    fn pn(i: u32) -> PatternNodeId {
        PatternNodeId::new(i)
    }

    fn dn(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = MatchRelation::empty(2);
        assert!(s.insert(pn(0), dn(3)));
        assert!(!s.insert(pn(0), dn(3)));
        assert!(s.insert(pn(0), dn(1)));
        assert!(s.insert(pn(1), dn(2)));
        assert_eq!(s.pair_count(), 3);
        assert!(s.contains(pn(0), dn(3)));
        assert!(!s.contains(pn(1), dn(3)));
        assert_eq!(s.matches_of(pn(0)), &[dn(1), dn(3)]);
        assert!(s.remove(pn(0), dn(3)));
        assert!(!s.remove(pn(0), dn(3)));
        assert_eq!(s.pair_count(), 2);
    }

    #[test]
    fn from_sets_sorts_and_dedups() {
        let s = MatchRelation::from_sets(vec![vec![dn(3), dn(1), dn(3)], vec![]]);
        assert_eq!(s.matches_of(pn(0)), &[dn(1), dn(3)]);
        assert!(s.matches_of(pn(1)).is_empty());
    }

    #[test]
    fn is_match_requires_every_pattern_node_matched() {
        let mut p = gpm_graph::PatternGraph::new();
        p.add_node(Predicate::any());
        p.add_node(Predicate::any());
        let mut s = MatchRelation::empty(2);
        s.insert(pn(0), dn(0));
        assert!(!s.is_match(&p));
        s.insert(pn(1), dn(1));
        assert!(s.is_match(&p));
        s.clear();
        assert!(s.is_empty());
        assert!(!s.is_match(&p));
    }

    #[test]
    fn data_nodes_and_average() {
        let mut s = MatchRelation::empty(2);
        s.insert(pn(0), dn(5));
        s.insert(pn(1), dn(5));
        s.insert(pn(1), dn(7));
        assert_eq!(s.data_nodes(), vec![dn(5), dn(7)]);
        assert!((s.average_matches_per_pattern_node() - 1.5).abs() < 1e-9);
        assert_eq!(
            MatchRelation::empty(0).average_matches_per_pattern_node(),
            0.0
        );
    }

    #[test]
    fn iter_pairs_enumerates_in_order() {
        let mut s = MatchRelation::empty(2);
        s.insert(pn(1), dn(0));
        s.insert(pn(0), dn(9));
        let pairs: Vec<_> = s.iter_pairs().collect();
        assert_eq!(pairs, vec![(pn(0), dn(9)), (pn(1), dn(0))]);
    }

    /// Build the simple example: data graph a -> b -> c, pattern A -[2]-> C.
    fn example() -> (gpm_graph::DataGraph, gpm_graph::PatternGraph) {
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
            .edge("A", "C", EdgeBound::Hops(2))
            .build()
            .unwrap();
        (g, p)
    }

    #[test]
    fn verify_accepts_correct_match() {
        let (g, p) = example();
        let m = DistanceMatrix::build(&g);
        let mut s = MatchRelation::empty(2);
        s.insert(pn(0), dn(0)); // A -> a
        s.insert(pn(1), dn(2)); // C -> c
        assert!(s.is_valid_match(&p, &g, &m));
        assert!(s.verify(&p, &g, &m).is_empty());
    }

    #[test]
    fn verify_rejects_predicate_violation() {
        let (g, p) = example();
        let m = DistanceMatrix::build(&g);
        let mut s = MatchRelation::empty(2);
        s.insert(pn(0), dn(1)); // B does not satisfy label = A
        s.insert(pn(1), dn(2));
        let violations = s.verify(&p, &g, &m);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].2.contains("does not satisfy"));
    }

    #[test]
    fn verify_rejects_missing_witness() {
        let (g, p) = example();
        let m = DistanceMatrix::build(&g);
        let mut s = MatchRelation::empty(2);
        s.insert(pn(0), dn(0));
        // No match for C at all: the edge (A, C) has no witness.
        let violations = s.verify(&p, &g, &m);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].2.contains("no witness"));
        assert!(!s.is_valid_match(&p, &g, &m));
    }

    #[test]
    fn empty_relation_is_trivially_valid() {
        let (g, p) = example();
        let m = DistanceMatrix::build(&g);
        let s = MatchRelation::empty(2);
        assert!(s.is_valid_match(&p, &g, &m));
        assert!(!s.is_match(&p));
    }
}
