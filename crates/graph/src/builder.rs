//! Fluent builders for data graphs and pattern graphs.
//!
//! The builders are sugar over [`DataGraph`]/[`PatternGraph`] aimed at tests,
//! examples and generators: nodes are referred to by string keys instead of
//! ids, and errors are accumulated so a whole graph description can be
//! written declaratively and validated at `build()` time.

use crate::attributes::Attributes;
use crate::data_graph::DataGraph;
use crate::edge_bound::EdgeBound;
use crate::error::GraphError;
use crate::node_id::{NodeId, PatternNodeId};
use crate::pattern_graph::PatternGraph;
use crate::predicate::Predicate;
use crate::Result;
use rustc_hash::FxHashMap;

/// Declarative builder for [`DataGraph`]s keyed by string node names.
#[derive(Default)]
pub struct DataGraphBuilder {
    graph: DataGraph,
    names: FxHashMap<String, NodeId>,
    pending_edges: Vec<(String, String)>,
}

impl DataGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or updates) a node named `name` with the given attributes.
    pub fn node(mut self, name: impl Into<String>, attrs: impl Into<Attributes>) -> Self {
        let name = name.into();
        let attrs = attrs.into();
        match self.names.get(&name) {
            Some(&id) => *self.graph.attributes_mut(id) = attrs,
            None => {
                let id = self.graph.add_node(attrs);
                self.names.insert(name, id);
            }
        }
        self
    }

    /// Adds a node named `name` carrying only a `label` attribute equal to
    /// its name — the common case in small examples.
    pub fn labeled_node(self, name: impl Into<String>) -> Self {
        let name = name.into();
        let attrs = Attributes::labeled(name.clone());
        self.node(name, attrs)
    }

    /// Adds the edge `from -> to` (by node name). Unknown names are reported
    /// at `build()` time.
    pub fn edge(mut self, from: impl Into<String>, to: impl Into<String>) -> Self {
        self.pending_edges.push((from.into(), to.into()));
        self
    }

    /// Adds a chain of edges `a -> b -> c -> ...`.
    pub fn path(mut self, names: &[&str]) -> Self {
        for pair in names.windows(2) {
            self.pending_edges
                .push((pair[0].to_string(), pair[1].to_string()));
        }
        self
    }

    /// The id assigned to `name`, if that node was added.
    pub fn id_of(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// Finalizes the graph, resolving all pending edges.
    pub fn build(mut self) -> Result<(DataGraph, FxHashMap<String, NodeId>)> {
        for (from, to) in std::mem::take(&mut self.pending_edges) {
            let &f = self
                .names
                .get(&from)
                .ok_or_else(|| GraphError::Parse(format!("unknown node name `{from}`")))?;
            let &t = self
                .names
                .get(&to)
                .ok_or_else(|| GraphError::Parse(format!("unknown node name `{to}`")))?;
            self.graph.try_add_edge(f, t)?;
        }
        Ok((self.graph, self.names))
    }
}

/// Declarative builder for [`PatternGraph`]s keyed by string node names.
#[derive(Default)]
pub struct PatternGraphBuilder {
    pattern: PatternGraph,
    names: FxHashMap<String, PatternNodeId>,
    pending_edges: Vec<(String, String, EdgeBound)>,
}

impl PatternGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a pattern node named `name` with predicate `pred`.
    pub fn node(mut self, name: impl Into<String>, pred: Predicate) -> Self {
        let name = name.into();
        if !self.names.contains_key(&name) {
            let id = self.pattern.add_named_node(name.clone(), pred);
            self.names.insert(name, id);
        }
        self
    }

    /// Adds a pattern node whose predicate is `label = name`.
    pub fn labeled_node(self, name: impl Into<String>) -> Self {
        let name = name.into();
        let pred = Predicate::label(name.clone());
        self.node(name, pred)
    }

    /// Adds the pattern edge `from -> to` with the given bound.
    pub fn edge(
        mut self,
        from: impl Into<String>,
        to: impl Into<String>,
        bound: impl Into<EdgeBound>,
    ) -> Self {
        self.pending_edges
            .push((from.into(), to.into(), bound.into()));
        self
    }

    /// Adds an unbounded (`*`) pattern edge `from -> to`.
    pub fn unbounded_edge(mut self, from: impl Into<String>, to: impl Into<String>) -> Self {
        self.pending_edges
            .push((from.into(), to.into(), EdgeBound::Unbounded));
        self
    }

    /// The id assigned to pattern node `name`, if it was added.
    pub fn id_of(&self, name: &str) -> Option<PatternNodeId> {
        self.names.get(name).copied()
    }

    /// Finalizes the pattern, resolving all pending edges.
    pub fn build(mut self) -> Result<(PatternGraph, FxHashMap<String, PatternNodeId>)> {
        for (from, to, bound) in std::mem::take(&mut self.pending_edges) {
            let &f = self
                .names
                .get(&from)
                .ok_or_else(|| GraphError::Parse(format!("unknown pattern node `{from}`")))?;
            let &t = self
                .names
                .get(&to)
                .ok_or_else(|| GraphError::Parse(format!("unknown pattern node `{to}`")))?;
            self.pattern.add_edge(f, t, bound)?;
        }
        Ok((self.pattern, self.names))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_graph_builder_basic() {
        let (g, names) = DataGraphBuilder::new()
            .labeled_node("B")
            .labeled_node("A1")
            .labeled_node("W")
            .edge("B", "A1")
            .edge("A1", "W")
            .build()
            .unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        let b = names["B"];
        let a1 = names["A1"];
        assert!(g.has_edge(b, a1));
        assert_eq!(g.attributes(b).label(), Some("B"));
    }

    #[test]
    fn data_graph_builder_path_and_duplicate_edges() {
        let (g, _) = DataGraphBuilder::new()
            .labeled_node("a")
            .labeled_node("b")
            .labeled_node("c")
            .path(&["a", "b", "c"])
            .edge("a", "b") // duplicate, silently ignored by try_add_edge
            .build()
            .unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn data_graph_builder_unknown_name_errors() {
        let err = DataGraphBuilder::new()
            .labeled_node("a")
            .edge("a", "ghost")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn data_graph_builder_node_update_keeps_id() {
        let builder = DataGraphBuilder::new()
            .node("x", Attributes::labeled("old"))
            .node("x", Attributes::labeled("new"));
        let id = builder.id_of("x").unwrap();
        let (g, _) = builder.build().unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.attributes(id).label(), Some("new"));
    }

    #[test]
    fn pattern_builder_basic() {
        let (p, names) = PatternGraphBuilder::new()
            .labeled_node("B")
            .labeled_node("AM")
            .labeled_node("FW")
            .edge("B", "AM", 1u32)
            .edge("AM", "FW", 3u32)
            .unbounded_edge("B", "FW")
            .build()
            .unwrap();
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.edge_count(), 3);
        assert_eq!(p.bound(names["AM"], names["FW"]), Some(EdgeBound::Hops(3)));
        assert_eq!(p.bound(names["B"], names["FW"]), Some(EdgeBound::Unbounded));
        assert_eq!(p.name(names["AM"]), "AM");
    }

    #[test]
    fn pattern_builder_unknown_name_errors() {
        let err = PatternGraphBuilder::new()
            .labeled_node("a")
            .edge("a", "nope", 2u32)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn pattern_builder_duplicate_node_names_are_single_nodes() {
        let (p, _) = PatternGraphBuilder::new()
            .labeled_node("a")
            .labeled_node("a")
            .build()
            .unwrap();
        assert_eq!(p.node_count(), 1);
    }
}
