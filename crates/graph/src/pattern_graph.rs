//! The pattern graph `P = (V_p, E_p, f_v, f_e)`.
//!
//! Pattern nodes carry a [`Predicate`] (the search condition `f_v(u)`), and
//! pattern edges carry an [`EdgeBound`] (`f_e(u, u')`, a hop bound or `*`).
//! Patterns are small (the paper evaluates up to ~12 nodes), so the
//! representation favours clarity over compactness.
//!
//! Self-loops are rejected: a self-loop `(u, u)` with the non-empty-path
//! semantics would require every match of `u` to lie on a cycle, which the
//! paper's pattern model never uses, and the incremental algorithms assume
//! loop-free patterns.
//!
//! The serde encoding — wire, WAL, snapshot — is the pattern itself,
//! `{"nodes": [{"predicate", "name"}], "edges": [{"from", "to", "bound"}]}`,
//! never the adjacency indexes built over it: decoding rebuilds the pattern
//! through [`PatternGraph::add_node`]/[`PatternGraph::add_named_node`] and
//! [`PatternGraph::add_edge`], so whatever `add_edge` refuses (an unknown
//! endpoint, a self-loop, a zero bound, a duplicate edge) is a decode
//! error.

use crate::edge_bound::EdgeBound;
use crate::error::GraphError;
use crate::node_id::PatternNodeId;
use crate::predicate::Predicate;
use crate::Result;
use serde::{Deserialize, Serialize};

/// A node of a pattern graph: its search condition. Its id is its position
/// in the pattern.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PatternNode {
    /// The predicate `f_v(u)` a data node must satisfy to be a candidate.
    pub predicate: Predicate,
    /// Optional human-readable name (e.g. "AM", "p3") used in displays.
    pub name: Option<String>,
}

/// A directed edge of a pattern graph with its hop bound.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PatternEdge {
    /// Source pattern node.
    pub from: PatternNodeId,
    /// Target pattern node.
    pub to: PatternNodeId,
    /// The bound `f_e(from, to)`.
    pub bound: EdgeBound,
}

/// A pattern graph.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PatternGraph {
    nodes: Vec<PatternNode>,
    edges: Vec<PatternEdge>,
    out_adj: Vec<Vec<usize>>,
    in_adj: Vec<Vec<usize>>,
}

impl PatternGraph {
    /// Creates an empty pattern.
    pub fn new() -> Self {
        PatternGraph::default()
    }

    /// Number of pattern nodes `|V_p|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of pattern edges `|E_p|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the pattern has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `u` is a node of this pattern.
    #[inline]
    pub fn contains_node(&self, u: PatternNodeId) -> bool {
        u.index() < self.nodes.len()
    }

    /// Adds a pattern node with the given predicate and returns its id.
    pub fn add_node(&mut self, predicate: Predicate) -> PatternNodeId {
        let id = PatternNodeId::new(self.nodes.len() as u32);
        self.nodes.push(PatternNode {
            predicate,
            name: None,
        });
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds a named pattern node (the name only affects displays).
    pub fn add_named_node(
        &mut self,
        name: impl Into<String>,
        predicate: Predicate,
    ) -> PatternNodeId {
        let id = self.add_node(predicate);
        self.nodes[id.index()].name = Some(name.into());
        id
    }

    /// Adds the pattern edge `(from, to)` with bound `bound`.
    ///
    /// Errors on unknown endpoints, duplicate edges, self-loops, and bounds
    /// of zero hops.
    pub fn add_edge(
        &mut self,
        from: PatternNodeId,
        to: PatternNodeId,
        bound: EdgeBound,
    ) -> Result<()> {
        self.check_node(from)?;
        self.check_node(to)?;
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        if let EdgeBound::Hops(0) = bound {
            return Err(GraphError::ZeroEdgeBound);
        }
        if self.find_edge(from, to).is_some() {
            return Err(GraphError::DuplicatePatternEdge(from, to));
        }
        let idx = self.edges.len();
        self.edges.push(PatternEdge { from, to, bound });
        self.out_adj[from.index()].push(idx);
        self.in_adj[to.index()].push(idx);
        Ok(())
    }

    /// The node record of `u`.
    pub fn node(&self, u: PatternNodeId) -> &PatternNode {
        &self.nodes[u.index()]
    }

    /// The predicate of node `u`.
    #[inline]
    pub fn predicate(&self, u: PatternNodeId) -> &Predicate {
        &self.nodes[u.index()].predicate
    }

    /// The display name of node `u` (falls back to `u<i>`).
    pub fn name(&self, u: PatternNodeId) -> String {
        self.nodes[u.index()]
            .name
            .clone()
            .unwrap_or_else(|| format!("{u}"))
    }

    /// The bound of edge `(from, to)` if that edge exists.
    pub fn bound(&self, from: PatternNodeId, to: PatternNodeId) -> Option<EdgeBound> {
        self.find_edge(from, to).map(|i| self.edges[i].bound)
    }

    /// Whether the pattern edge `(from, to)` exists.
    pub fn has_edge(&self, from: PatternNodeId, to: PatternNodeId) -> bool {
        self.find_edge(from, to).is_some()
    }

    /// Iterates over all pattern node ids in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = PatternNodeId> + '_ {
        (0..self.nodes.len() as u32).map(PatternNodeId::new)
    }

    /// Iterates over all node records.
    pub fn nodes(&self) -> impl Iterator<Item = &PatternNode> {
        self.nodes.iter()
    }

    /// Iterates over all pattern edges.
    pub fn edges(&self) -> impl Iterator<Item = &PatternEdge> {
        self.edges.iter()
    }

    /// Outgoing edges of `u` (edges `(u, u')`).
    pub fn out_edges(&self, u: PatternNodeId) -> impl Iterator<Item = &PatternEdge> {
        self.out_adj[u.index()].iter().map(move |&i| &self.edges[i])
    }

    /// Incoming edges of `u` (edges `(u', u)`).
    pub fn in_edges(&self, u: PatternNodeId) -> impl Iterator<Item = &PatternEdge> {
        self.in_adj[u.index()].iter().map(move |&i| &self.edges[i])
    }

    /// Children of `u` in the pattern (targets of out-edges).
    pub fn children(&self, u: PatternNodeId) -> impl Iterator<Item = PatternNodeId> + '_ {
        self.out_edges(u).map(|e| e.to)
    }

    /// Parents of `u` in the pattern (sources of in-edges).
    pub fn parents(&self, u: PatternNodeId) -> impl Iterator<Item = PatternNodeId> + '_ {
        self.in_edges(u).map(|e| e.from)
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: PatternNodeId) -> usize {
        self.out_adj[u.index()].len()
    }

    /// In-degree of `u`.
    pub fn in_degree(&self, u: PatternNodeId) -> usize {
        self.in_adj[u.index()].len()
    }

    /// Whether the pattern is a DAG (required by `Match+` and `IncMatch`).
    pub fn is_dag(&self) -> bool {
        self.topological_order().is_some()
    }

    /// A topological order of the pattern nodes, or `None` if the pattern is
    /// cyclic. Kahn's algorithm; deterministic (smallest id first).
    pub fn topological_order(&self) -> Option<Vec<PatternNodeId>> {
        let n = self.node_count();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.in_adj[i].len()).collect();
        // Binary-heap-free deterministic Kahn: scan for zero in-degree ids in
        // ascending order; patterns are tiny so O(n²) is irrelevant.
        let mut order = Vec::with_capacity(n);
        let mut used = vec![false; n];
        for _ in 0..n {
            let next = (0..n).find(|&i| !used[i] && indeg[i] == 0)?;
            used[next] = true;
            order.push(PatternNodeId::new(next as u32));
            for &e in &self.out_adj[next] {
                indeg[self.edges[e].to.index()] -= 1;
            }
        }
        Some(order)
    }

    /// Returns an error unless the pattern is a DAG.
    pub fn require_dag(&self) -> Result<()> {
        if self.is_dag() {
            Ok(())
        } else {
            Err(GraphError::PatternNotAcyclic)
        }
    }

    /// The largest finite hop bound appearing on any edge (0 if none).
    pub fn max_bound(&self) -> u32 {
        self.edges
            .iter()
            .filter_map(|e| e.bound.hops())
            .max()
            .unwrap_or(0)
    }

    fn find_edge(&self, from: PatternNodeId, to: PatternNodeId) -> Option<usize> {
        self.out_adj
            .get(from.index())?
            .iter()
            .copied()
            .find(|&i| self.edges[i].to == to)
    }

    #[inline]
    fn check_node(&self, u: PatternNodeId) -> Result<()> {
        if self.contains_node(u) {
            Ok(())
        } else {
            Err(GraphError::UnknownPatternNode(u))
        }
    }
}

/// The serde form of a [`PatternGraph`] (see the module docs).
#[derive(Serialize, Deserialize)]
struct PatternGraphForm {
    nodes: Vec<PatternNode>,
    edges: Vec<PatternEdge>,
}

impl From<&PatternGraph> for PatternGraphForm {
    fn from(p: &PatternGraph) -> Self {
        PatternGraphForm {
            nodes: p.nodes.clone(),
            edges: p.edges.clone(),
        }
    }
}

impl TryFrom<PatternGraphForm> for PatternGraph {
    type Error = GraphError;

    fn try_from(form: PatternGraphForm) -> Result<Self> {
        let mut p = PatternGraph::new();
        for node in form.nodes {
            match node.name {
                Some(name) => p.add_named_node(name, node.predicate),
                None => p.add_node(node.predicate),
            };
        }
        for e in form.edges {
            p.add_edge(e.from, e.to, e.bound)?;
        }
        Ok(p)
    }
}

impl Serialize for PatternGraph {
    fn to_value(&self) -> serde::Value {
        PatternGraphForm::from(self).to_value()
    }
}

impl Deserialize for PatternGraph {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        PatternGraph::try_from(PatternGraphForm::from_value(v)?).map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;

    fn u(i: u32) -> PatternNodeId {
        PatternNodeId::new(i)
    }

    /// The drug-trafficking pattern P0 from Example 1.1: B, AM, S, FW.
    fn p0() -> PatternGraph {
        let mut p = PatternGraph::new();
        let b = p.add_named_node("B", Predicate::label("B"));
        let am = p.add_named_node("AM", Predicate::label("AM"));
        let s = p.add_named_node("S", Predicate::label("S"));
        let fw = p.add_named_node("FW", Predicate::label("FW"));
        p.add_edge(b, am, EdgeBound::ONE).unwrap();
        p.add_edge(b, s, EdgeBound::ONE).unwrap();
        p.add_edge(am, fw, EdgeBound::Hops(3)).unwrap();
        p.add_edge(s, fw, EdgeBound::ONE).unwrap();
        p.add_edge(fw, am, EdgeBound::Hops(3)).unwrap();
        p
    }

    #[test]
    fn build_and_query() {
        let p = p0();
        assert_eq!(p.node_count(), 4);
        assert_eq!(p.edge_count(), 5);
        assert!(p.has_edge(u(0), u(1)));
        assert!(!p.has_edge(u(1), u(0)));
        assert_eq!(p.bound(u(1), u(3)), Some(EdgeBound::Hops(3)));
        assert_eq!(p.bound(u(3), u(0)), None);
        assert_eq!(p.name(u(1)), "AM");
        assert_eq!(p.out_degree(u(0)), 2);
        assert_eq!(p.in_degree(u(3)), 2);
        let children: Vec<_> = p.children(u(0)).collect();
        assert_eq!(children, vec![u(1), u(2)]);
        let parents: Vec<_> = p.parents(u(3)).collect();
        assert_eq!(parents, vec![u(1), u(2)]);
    }

    #[test]
    fn unnamed_nodes_get_default_names() {
        let mut p = PatternGraph::new();
        let a = p.add_node(Predicate::any());
        assert_eq!(p.name(a), "u0");
        assert_eq!(p.node(a).name, None);
    }

    #[test]
    fn rejects_self_loops_and_zero_bounds() {
        let mut p = PatternGraph::new();
        let a = p.add_node(Predicate::any());
        let b = p.add_node(Predicate::any());
        assert_eq!(
            p.add_edge(a, a, EdgeBound::ONE),
            Err(GraphError::SelfLoop(a))
        );
        assert_eq!(
            p.add_edge(a, b, EdgeBound::Hops(0)),
            Err(GraphError::ZeroEdgeBound)
        );
        p.add_edge(a, b, EdgeBound::Hops(2)).unwrap();
        assert_eq!(
            p.add_edge(a, b, EdgeBound::Hops(3)),
            Err(GraphError::DuplicatePatternEdge(a, b))
        );
    }

    #[test]
    fn rejects_unknown_nodes() {
        let mut p = PatternGraph::new();
        let a = p.add_node(Predicate::any());
        assert_eq!(
            p.add_edge(a, u(9), EdgeBound::ONE),
            Err(GraphError::UnknownPatternNode(u(9)))
        );
    }

    #[test]
    fn dag_detection() {
        // P0 has a cycle AM -> FW -> AM.
        let p = p0();
        assert!(!p.is_dag());
        assert!(p.topological_order().is_none());
        assert!(p.require_dag().is_err());

        let mut q = PatternGraph::new();
        let a = q.add_node(Predicate::any());
        let b = q.add_node(Predicate::any());
        let c = q.add_node(Predicate::any());
        q.add_edge(a, b, EdgeBound::ONE).unwrap();
        q.add_edge(b, c, EdgeBound::Hops(2)).unwrap();
        q.add_edge(a, c, EdgeBound::Unbounded).unwrap();
        assert!(q.is_dag());
        assert_eq!(q.topological_order().unwrap(), vec![a, b, c]);
        assert!(q.require_dag().is_ok());
    }

    #[test]
    fn topological_order_respects_edges() {
        let mut p = PatternGraph::new();
        let a = p.add_node(Predicate::any());
        let b = p.add_node(Predicate::any());
        let c = p.add_node(Predicate::any());
        let d = p.add_node(Predicate::any());
        p.add_edge(c, a, EdgeBound::ONE).unwrap();
        p.add_edge(a, d, EdgeBound::ONE).unwrap();
        p.add_edge(b, d, EdgeBound::ONE).unwrap();
        let order = p.topological_order().unwrap();
        let pos = |x: PatternNodeId| order.iter().position(|&y| y == x).unwrap();
        assert!(pos(c) < pos(a));
        assert!(pos(a) < pos(d));
        assert!(pos(b) < pos(d));
    }

    #[test]
    fn bounds_summary() {
        let p = p0();
        assert_eq!(p.max_bound(), 3);

        let mut q = PatternGraph::new();
        let a = q.add_node(Predicate::any());
        let b = q.add_node(Predicate::any());
        q.add_edge(a, b, EdgeBound::Unbounded).unwrap();
        assert_eq!(q.max_bound(), 0);
    }

    #[test]
    fn predicates_with_comparisons() {
        let mut p = PatternGraph::new();
        let n = p.add_node(Predicate::label_eq("category", "People").and("rate", CmpOp::Gt, 4.5));
        assert_eq!(p.predicate(n).len(), 2);
    }

    #[test]
    fn json_roundtrip_pattern() {
        let mut p = PatternGraph::new();
        let x = p.add_named_node("x", Predicate::label("Music").and("rate", CmpOp::Gt, 3.0));
        let y = p.add_node(Predicate::any());
        p.add_edge(x, y, EdgeBound::Hops(2)).unwrap();
        let text = serde_json::to_string(&p).unwrap();
        let back: PatternGraph = serde_json::from_str(&text).unwrap();
        assert_eq!(back.node_count(), 2);
        assert_eq!(back.bound(x, y), Some(EdgeBound::Hops(2)));
        assert_eq!(back.predicate(x), p.predicate(x));
        assert_eq!(back.name(x), "x");
        assert_eq!(back, p);
    }

    #[test]
    fn iterators_cover_everything() {
        let p = p0();
        assert_eq!(p.node_ids().count(), 4);
        assert_eq!(p.nodes().count(), 4);
        assert_eq!(p.edges().count(), 5);
        assert_eq!(p.out_edges(u(0)).count(), 2);
        assert_eq!(p.in_edges(u(3)).count(), 2);
    }
}
