//! Embeddings (matched subgraphs) and enumeration configuration.

use gpm_graph::{DataGraph, NodeId, PatternGraph, PatternNodeId};
use rustc_hash::FxHashSet;

/// An injective embedding of the pattern into the data graph: pattern node
/// `u_i` is mapped to `nodes[i]`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Embedding {
    /// The image of each pattern node, indexed by pattern node id.
    pub nodes: Vec<NodeId>,
}

impl Embedding {
    /// The data node pattern node `u` is mapped to.
    pub fn image_of(&self, u: PatternNodeId) -> NodeId {
        self.nodes[u.index()]
    }

    /// Checks that this embedding is a correct subgraph-isomorphism match:
    /// injective, predicate-satisfying, and edge-preserving (pattern edge →
    /// direct data edge).
    pub fn verify(&self, pattern: &PatternGraph, graph: &DataGraph) -> bool {
        if self.nodes.len() != pattern.node_count() {
            return false;
        }
        let distinct: FxHashSet<NodeId> = self.nodes.iter().copied().collect();
        if distinct.len() != self.nodes.len() {
            return false;
        }
        for u in pattern.node_ids() {
            if !graph.satisfies(self.image_of(u), pattern.predicate(u)) {
                return false;
            }
        }
        for e in pattern.edges() {
            if !graph.has_edge(self.image_of(e.from), self.image_of(e.to)) {
                return false;
            }
        }
        true
    }
}

/// Enumeration limits for the subgraph-isomorphism baselines.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct IsoConfig {
    /// Stop after this many embeddings have been found.
    pub max_embeddings: usize,
    /// Stop after this many search-tree nodes have been expanded (guards
    /// against exponential blow-ups on dense instances).
    pub max_steps: usize,
}

impl Default for IsoConfig {
    fn default() -> Self {
        IsoConfig {
            max_embeddings: 10_000,
            max_steps: 5_000_000,
        }
    }
}

/// The outcome of a subgraph-isomorphism enumeration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IsoOutcome {
    /// The embeddings found (up to the configured cap).
    pub embeddings: Vec<Embedding>,
    /// Number of search-tree nodes expanded.
    pub steps: usize,
    /// Whether enumeration stopped because a cap was reached.
    pub truncated: bool,
}

impl IsoOutcome {
    /// Whether at least one embedding was found.
    pub fn is_match(&self) -> bool {
        !self.embeddings.is_empty()
    }

    /// Number of embeddings found.
    pub fn count(&self) -> usize {
        self.embeddings.len()
    }

    /// The number of *distinct data nodes* used per pattern node, averaged —
    /// the "matches per pattern node" metric of Exp-1 for the baselines.
    pub fn average_images_per_pattern_node(&self, pattern: &PatternGraph) -> f64 {
        if pattern.node_count() == 0 {
            return 0.0;
        }
        let mut total = 0usize;
        for u in pattern.node_ids() {
            let distinct: FxHashSet<NodeId> =
                self.embeddings.iter().map(|e| e.image_of(u)).collect();
            total += distinct.len();
        }
        total as f64 / pattern.node_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::{DataGraphBuilder, PatternGraphBuilder};

    fn dn(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn instance() -> (DataGraph, PatternGraph) {
        let (g, _) = DataGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("B")
            .labeled_node("C")
            .edge("A", "B")
            .edge("B", "C")
            .build()
            .unwrap();
        let (p, _) = PatternGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("B")
            .edge("A", "B", 1u32)
            .build()
            .unwrap();
        (g, p)
    }

    #[test]
    fn verify_accepts_correct_embedding() {
        let (g, p) = instance();
        let e = Embedding {
            nodes: vec![dn(0), dn(1)],
        };
        assert!(e.verify(&p, &g));
        assert_eq!(e.image_of(PatternNodeId::new(0)), dn(0));
    }

    #[test]
    fn verify_rejects_wrong_embeddings() {
        let (g, p) = instance();
        // Wrong arity.
        assert!(!Embedding { nodes: vec![dn(0)] }.verify(&p, &g));
        // Not injective.
        assert!(!Embedding {
            nodes: vec![dn(0), dn(0)]
        }
        .verify(&p, &g));
        // Predicate violated (B mapped to node labelled C).
        assert!(!Embedding {
            nodes: vec![dn(0), dn(2)]
        }
        .verify(&p, &g));
        // Edge missing (B -> A is not an edge).
        assert!(!Embedding {
            nodes: vec![dn(1), dn(0)]
        }
        .verify(&p, &g));
    }

    #[test]
    fn outcome_helpers() {
        let (_, p) = instance();
        let mut out = IsoOutcome::default();
        assert!(!out.is_match());
        out.embeddings.push(Embedding {
            nodes: vec![dn(0), dn(1)],
        });
        out.embeddings.push(Embedding {
            nodes: vec![dn(0), dn(2)],
        });
        assert!(out.is_match());
        assert_eq!(out.count(), 2);
        // Pattern node 0 has 1 distinct image, node 1 has 2 -> average 1.5.
        assert!((out.average_images_per_pattern_node(&p) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn config_defaults() {
        let c = IsoConfig::default();
        assert!(c.max_embeddings > 0 && c.max_steps > 0);
    }
}
