//! Result graphs — the compact representation of a maximum match.
//!
//! Section 2.2 ("Result graph"): given the maximum match `S` of `P` in `G`,
//! the result graph `G_r = (V_r, E_r)` has
//!
//! * `V_r` = the data nodes appearing in `S`, and
//! * an edge `(v1, v2) ∈ E_r` iff there is a pattern edge `(u1, u2)` with
//!   `(u1, v1) ∈ S` and `(u2, v2) ∈ S`.
//!
//! Unlike subgraph isomorphism — which may enumerate exponentially many
//! matched subgraphs — the result graph represents all matches succinctly
//! (its size is bounded by `|V|` nodes and `|V|²` edges). The appendix
//! reports `|G_r|` statistics; [`ResultGraph::node_count`] /
//! [`ResultGraph::edge_count`] feed that experiment.

use crate::match_relation::MatchRelation;
use gpm_graph::{DataGraph, EdgeBound, NodeId, PatternGraph, PatternNodeId};
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

/// An edge of the result graph, annotated with the pattern edge(s) it
/// represents.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResultEdge {
    /// Source data node.
    pub from: NodeId,
    /// Target data node.
    pub to: NodeId,
    /// The pattern edges `(u1, u2)` this result edge witnesses, with their
    /// bounds (an edge may witness several pattern edges).
    pub pattern_edges: Vec<(PatternNodeId, PatternNodeId, EdgeBound)>,
}

/// The result graph `G_r` of a maximum match.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ResultGraph {
    nodes: Vec<NodeId>,
    edges: Vec<ResultEdge>,
    /// For every data node in the result, the pattern nodes it matches.
    roles: FxHashMap<NodeId, Vec<PatternNodeId>>,
}

impl ResultGraph {
    /// Builds the result graph of `relation` (normally the maximum match
    /// computed by `Match`) for `pattern` over `graph`.
    pub fn build(pattern: &PatternGraph, graph: &DataGraph, relation: &MatchRelation) -> Self {
        let _ = graph; // the construction only needs the relation + pattern
        let nodes = relation.data_nodes();

        let mut roles: FxHashMap<NodeId, Vec<PatternNodeId>> = FxHashMap::default();
        for (u, v) in relation.iter_pairs() {
            roles.entry(v).or_default().push(u);
        }

        type WitnessList = Vec<(PatternNodeId, PatternNodeId, EdgeBound)>;
        let mut edge_map: FxHashMap<(NodeId, NodeId), WitnessList> = FxHashMap::default();
        for e in pattern.edges() {
            for &v1 in relation.matches_of(e.from) {
                for &v2 in relation.matches_of(e.to) {
                    edge_map
                        .entry((v1, v2))
                        .or_default()
                        .push((e.from, e.to, e.bound));
                }
            }
        }
        let mut edges: Vec<ResultEdge> = edge_map
            .into_iter()
            .map(|((from, to), pattern_edges)| ResultEdge {
                from,
                to,
                pattern_edges,
            })
            .collect();
        edges.sort_by_key(|e| (e.from, e.to));

        ResultGraph {
            nodes,
            edges,
            roles,
        }
    }

    /// The data nodes of the result graph, `V_r` (sorted).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The edges of the result graph, `E_r` (sorted by endpoints).
    pub fn edges(&self) -> &[ResultEdge] {
        &self.edges
    }

    /// `|V_r|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// `|E_r|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The pattern nodes that data node `v` matches (empty if `v ∉ V_r`).
    pub fn roles_of(&self, v: NodeId) -> &[PatternNodeId] {
        self.roles.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether the result graph is empty (no match).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Weakly connected components of the result graph, each returned as a
    /// sorted list of data nodes. The paper's Example 2.3 points out that one
    /// pattern node can be mapped to nodes in *different components* — this
    /// helper makes that visible.
    pub fn weakly_connected_components(&self) -> Vec<Vec<NodeId>> {
        let index_of: FxHashMap<NodeId, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i))
            .collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            let a = index_of[&e.from];
            let b = index_of[&e.to];
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut components = Vec::new();
        for start in 0..self.nodes.len() {
            if seen[start] {
                continue;
            }
            let mut stack = vec![start];
            seen[start] = true;
            let mut comp = Vec::new();
            while let Some(i) = stack.pop() {
                comp.push(self.nodes[i]);
                for &j in &adj[i] {
                    if !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                }
            }
            comp.sort();
            components.push(comp);
        }
        components
    }

    /// A human-readable multi-line rendering, labelling each node with the
    /// pattern nodes it plays and each edge with the pattern edges it
    /// witnesses.
    pub fn render(&self, pattern: &PatternGraph, graph: &DataGraph) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "result graph: {} nodes, {} edges\n",
            self.node_count(),
            self.edge_count()
        ));
        for &v in &self.nodes {
            let roles: Vec<String> = self.roles_of(v).iter().map(|&u| pattern.name(u)).collect();
            out.push_str(&format!(
                "  {v} {} as [{}]\n",
                graph.attributes(v),
                roles.join(", ")
            ));
        }
        for e in &self.edges {
            let via: Vec<String> = e
                .pattern_edges
                .iter()
                .map(|(u1, u2, b)| format!("{}-[{}]->{}", pattern.name(*u1), b, pattern.name(*u2)))
                .collect();
            out.push_str(&format!("  {} -> {}  ({})\n", e.from, e.to, via.join(", ")));
        }
        out
    }

    /// The distinct pattern-node/data-node pairs represented, i.e. `|S|`.
    pub fn pair_count(&self) -> usize {
        self.roles.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded_simulation;
    use gpm_graph::{Attributes, DataGraphBuilder, PatternGraphBuilder, Predicate};
    use rustc_hash::FxHashSet;

    /// Example 2.2/2.3-style instance: P2 over G2 (academic collaboration).
    fn p2_g2() -> (DataGraph, PatternGraph, MatchRelation) {
        // G2 nodes: DB, AI (dept=CS); Gen, Eco (dept=Bio); Med; Soc; Chem.
        let (g, _) = DataGraphBuilder::new()
            .node("DB", Attributes::labeled("DB").with("dept", "CS"))
            .node("AI", Attributes::labeled("AI").with("dept", "CS"))
            .node("Gen", Attributes::labeled("Gen").with("dept", "Bio"))
            .node("Eco", Attributes::labeled("Eco").with("dept", "Bio"))
            .node("Med", Attributes::labeled("Med").with("dept", "Med"))
            .node("Soc", Attributes::labeled("Soc").with("dept", "Soc"))
            .node("Chem", Attributes::labeled("Chem").with("dept", "Chem"))
            // A ring of collaborations making the paper's P2 matchable.
            .edge("DB", "Gen")
            .edge("Gen", "Eco")
            .edge("Eco", "Med")
            .edge("Med", "Soc")
            .edge("Soc", "DB")
            .edge("Gen", "Soc")
            .edge("Med", "DB")
            .edge("AI", "Chem")
            .edge("Chem", "AI")
            .build()
            .unwrap();
        let (p, _) = PatternGraphBuilder::new()
            .node("CS", Predicate::label_eq("dept", "CS"))
            .node("Bio", Predicate::label_eq("dept", "Bio"))
            .node("Med", Predicate::label_eq("dept", "Med"))
            .node("Soc", Predicate::label_eq("dept", "Soc"))
            .edge("CS", "Bio", 2u32)
            .edge("CS", "Soc", 3u32)
            .edge("Bio", "Soc", 2u32)
            .edge("Bio", "Med", 3u32)
            .unbounded_edge("Med", "CS")
            .build()
            .unwrap();
        let out = bounded_simulation(&p, &g);
        (g, p, out.relation)
    }

    #[test]
    fn result_graph_structure() {
        let (g, p, rel) = p2_g2();
        assert!(rel.is_match(&p));
        let r = ResultGraph::build(&p, &g, &rel);
        assert!(!r.is_empty());
        assert_eq!(r.node_count(), rel.data_nodes().len());
        assert_eq!(r.pair_count(), rel.pair_count());
        // Every result edge's endpoints play the roles of its pattern edge.
        for e in r.edges() {
            for &(u1, u2, _) in &e.pattern_edges {
                assert!(rel.contains(u1, e.from));
                assert!(rel.contains(u2, e.to));
            }
        }
        // Every pattern edge is covered (all pattern nodes are matched).
        let covered: FxHashSet<_> = r
            .edges()
            .iter()
            .flat_map(|e| e.pattern_edges.iter().map(|&(a, b, _)| (a, b)))
            .collect();
        assert_eq!(covered.len(), p.edge_count());
    }

    #[test]
    fn empty_relation_gives_empty_result_graph() {
        let (g, p, _) = p2_g2();
        let empty = MatchRelation::empty(p.node_count());
        let r = ResultGraph::build(&p, &g, &empty);
        assert!(r.is_empty());
        assert_eq!(r.edge_count(), 0);
        assert_eq!(r.pair_count(), 0);
        assert!(r.weakly_connected_components().is_empty());
    }

    #[test]
    fn roles_and_render() {
        let (g, p, rel) = p2_g2();
        let r = ResultGraph::build(&p, &g, &rel);
        // Each matched data node has at least one role.
        for &v in r.nodes() {
            assert!(!r.roles_of(v).is_empty());
        }
        // A node not in the result graph has no role.
        let unmatched = g
            .nodes()
            .find(|v| !r.nodes().contains(v))
            .expect("AI/Chem are not matched");
        assert!(r.roles_of(unmatched).is_empty());
        let text = r.render(&p, &g);
        assert!(text.contains("result graph"));
        assert!(text.contains("->"));
    }

    #[test]
    fn weakly_connected_components_cover_all_nodes() {
        let (g, p, rel) = p2_g2();
        let r = ResultGraph::build(&p, &g, &rel);
        let comps = r.weakly_connected_components();
        let total: usize = comps.iter().map(Vec::len).sum();
        assert_eq!(total, r.node_count());
    }
}
