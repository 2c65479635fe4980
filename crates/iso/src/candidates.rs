//! Shared candidate computation for the isomorphism baselines.
//!
//! Both Ullmann and VF2 start from per-pattern-node candidate lists: data
//! nodes that satisfy the node predicate and have enough in/out degree to
//! host the pattern node's edges. This is the standard "label and degree
//! filter" pruning.

use gpm_graph::{DataGraph, NodeId, PatternGraph, PatternNodeId};

/// Candidate data nodes per pattern node (predicate + degree filter).
#[derive(Clone, Debug, Default)]
pub struct CandidateSets {
    per_pattern: Vec<Vec<NodeId>>,
}

impl CandidateSets {
    /// Computes the candidate sets for `pattern` over `graph`, in
    /// pattern-node order on the caller thread: each list is the graph's
    /// attribute index for the node predicate, filtered by degree.
    pub fn compute(pattern: &PatternGraph, graph: &DataGraph) -> Self {
        let per_pattern = pattern
            .node_ids()
            .map(|u| {
                let need_out = pattern.out_degree(u);
                let need_in = pattern.in_degree(u);
                let mut list = graph.nodes_satisfying(pattern.predicate(u));
                list.retain(|&v| graph.out_degree(v) >= need_out && graph.in_degree(v) >= need_in);
                list
            })
            .collect();
        CandidateSets { per_pattern }
    }

    /// The candidates of pattern node `u`.
    pub fn of(&self, u: PatternNodeId) -> &[NodeId] {
        &self.per_pattern[u.index()]
    }

    /// Whether some pattern node has no candidate at all (quick negative).
    pub fn any_empty(&self) -> bool {
        self.per_pattern.iter().any(Vec::is_empty)
    }

    /// Total number of candidate pairs.
    pub fn total(&self) -> usize {
        self.per_pattern.iter().map(Vec::len).sum()
    }

    /// A matching order for the pattern nodes: fewest candidates first, ties
    /// broken towards nodes connected to already-ordered ones (a light-weight
    /// version of the usual "most constrained first" heuristics).
    pub fn matching_order(&self, pattern: &PatternGraph) -> Vec<PatternNodeId> {
        let n = pattern.node_count();
        let mut order: Vec<PatternNodeId> = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        for _ in 0..n {
            let mut best: Option<(usize, usize, PatternNodeId)> = None;
            for u in pattern.node_ids() {
                if placed[u.index()] {
                    continue;
                }
                let connected = pattern
                    .children(u)
                    .chain(pattern.parents(u))
                    .filter(|w| placed[w.index()])
                    .count();
                // Prefer connected-to-placed, then fewest candidates.
                let key = (usize::MAX - connected, self.of(u).len());
                match best {
                    Some((bc, bl, _)) if (key.0, key.1) >= (bc, bl) => {}
                    _ => best = Some((key.0, key.1, u)),
                }
            }
            let (_, _, chosen) = best.expect("some node remains");
            placed[chosen.index()] = true;
            order.push(chosen);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::{Attributes, DataGraphBuilder, PatternGraphBuilder};

    #[test]
    fn predicate_and_degree_filter() {
        let (g, names) = DataGraphBuilder::new()
            .labeled_node("A")
            .node("a2", Attributes::labeled("A"))
            .labeled_node("B")
            .edge("A", "B")
            .build()
            .unwrap();
        let (p, pids) = PatternGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("B")
            .edge("A", "B", 1u32)
            .build()
            .unwrap();
        let c = CandidateSets::compute(&p, &g);
        // a2 has out-degree 0 so it is filtered out for pattern node A.
        assert_eq!(c.of(pids["A"]), &[names["A"]]);
        assert_eq!(c.of(pids["B"]), &[names["B"]]);
        assert!(!c.any_empty());
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn any_empty_detects_impossible_patterns() {
        let (g, _) = DataGraphBuilder::new().labeled_node("A").build().unwrap();
        let (p, _) = PatternGraphBuilder::new()
            .labeled_node("Z")
            .build()
            .unwrap();
        let c = CandidateSets::compute(&p, &g);
        assert!(c.any_empty());
    }

    #[test]
    fn matching_order_visits_every_node_once_and_prefers_constrained() {
        let (g, _) = DataGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("B")
            .labeled_node("C")
            .edge("A", "B")
            .edge("B", "C")
            .build()
            .unwrap();
        let (p, pids) = PatternGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("B")
            .labeled_node("C")
            .edge("A", "B", 1u32)
            .edge("B", "C", 1u32)
            .build()
            .unwrap();
        let c = CandidateSets::compute(&p, &g);
        let order = c.matching_order(&p);
        assert_eq!(order.len(), 3);
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
        // After the first node, every next node is connected to a placed one.
        for (i, &u) in order.iter().enumerate().skip(1) {
            let connected = p
                .children(u)
                .chain(p.parents(u))
                .any(|w| order[..i].contains(&w));
            assert!(connected, "{u} not connected to already placed nodes");
        }
        let _ = pids;
    }
}
