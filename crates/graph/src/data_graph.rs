//! The attributed data graph `G = (V, E, f_A)`.
//!
//! A finite directed graph whose nodes carry attribute tuples. Parallel edges
//! are not part of the model (`E ⊆ V × V`); self-loops are allowed in data
//! graphs (a node may recommend itself, cite itself, etc. — and they matter
//! for the "non-empty path" semantics of bounded simulation).
//!
//! The structure is optimised for the access patterns of the matching
//! algorithms:
//!
//! * forward and reverse adjacency as **one neighbour list per node and
//!   direction**, so a BFS reads each node's neighbours as one contiguous
//!   slice and the incremental algorithms insert (push) or delete
//!   (swap-remove) an edge in `O(deg)`, with no rebuild and no maintenance
//!   call; the distance oracles walk edges both ways;
//! * `O(1)` expected edge-membership tests (incremental updates check for
//!   duplicates);
//! * dense `u32` node ids so per-node state can live in flat vectors;
//! * a derived **attribute index** (one column per key, its distinct values
//!   sorted so that a value's code is its rank, with a posting list per
//!   code) so candidate selection, [`DataGraph::nodes_satisfying`], turns
//!   each predicate atom into a binary search for a few code ranges rather
//!   than a test per node. It is built on the first predicate query and
//!   dropped by the only attribute writers, [`DataGraph::add_node`] and
//!   [`DataGraph::attributes_mut`].
//!
//! None of that layout crosses a boundary. The serde encoding — wire, WAL,
//! snapshot — is the graph's logical content, `{"attrs": [...],
//! "edge_set": [[from, to], ...]}` (one attribute tuple per node in id
//! order, the edges in [`DataGraph::edges`] order), and decoding rebuilds
//! the graph through [`DataGraph::add_node`] and [`DataGraph::add_edge`]:
//! an unknown endpoint or a repeated edge is a decode error, never a
//! malformed index. Re-adding the edges in that order rebuilds every
//! out-neighbour list in its original order, so a decoded graph encodes to
//! the same bytes.

use crate::attr_index::AttrIndex;
use crate::attributes::Attributes;
use crate::error::GraphError;
use crate::node_id::NodeId;
use crate::predicate::Predicate;
use crate::Result;
use rustc_hash::FxHashSet;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// An attributed directed data graph.
#[derive(Clone, Debug, Default)]
pub struct DataGraph {
    attrs: Vec<Attributes>,
    /// `out_adj[v]`: the out-neighbours of `v`.
    out_adj: Vec<Vec<NodeId>>,
    /// `in_adj[v]`: the in-neighbours of `v`.
    in_adj: Vec<Vec<NodeId>>,
    edge_set: FxHashSet<(u32, u32)>,
    /// Derived from `attrs` on the first predicate query; reset by every
    /// attribute write.
    attr_index: OnceLock<AttrIndex>,
}

impl DataGraph {
    /// Creates an empty data graph.
    pub fn new() -> Self {
        DataGraph::default()
    }

    /// Creates an empty data graph with capacity reserved for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        DataGraph {
            attrs: Vec::with_capacity(nodes),
            out_adj: Vec::with_capacity(nodes),
            in_adj: Vec::with_capacity(nodes),
            edge_set: FxHashSet::default(),
            attr_index: OnceLock::new(),
        }
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.attrs.len()
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_set.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Whether `v` is a node of this graph.
    #[inline]
    pub fn contains_node(&self, v: NodeId) -> bool {
        v.index() < self.attrs.len()
    }

    /// Adds a node carrying the given attributes and returns its id.
    pub fn add_node(&mut self, attrs: impl Into<Attributes>) -> NodeId {
        let id = NodeId::new(self.attrs.len() as u32);
        self.attrs.push(attrs.into());
        self.attr_index.take();
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds `n` nodes with empty attribute tuples, returning the id of the
    /// first one. Ids are contiguous.
    pub fn add_nodes(&mut self, n: usize) -> NodeId {
        let first = NodeId::new(self.attrs.len() as u32);
        for _ in 0..n {
            self.add_node(Attributes::new());
        }
        first
    }

    /// Adds the directed edge `(from, to)`.
    ///
    /// Errors if either endpoint is unknown or the edge already exists.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<()> {
        self.check_node(from)?;
        self.check_node(to)?;
        if !self.edge_set.insert((from.0, to.0)) {
            return Err(GraphError::DuplicateEdge(from, to));
        }
        self.out_adj[from.index()].push(to);
        self.in_adj[to.index()].push(from);
        Ok(())
    }

    /// Adds the edge if it is not already present; returns `true` if it was
    /// inserted. Errors only on unknown endpoints.
    pub fn try_add_edge(&mut self, from: NodeId, to: NodeId) -> Result<bool> {
        match self.add_edge(from, to) {
            Ok(()) => Ok(true),
            Err(GraphError::DuplicateEdge(..)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Removes the directed edge `(from, to)`.
    ///
    /// Errors if either endpoint is unknown or the edge does not exist.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> Result<()> {
        self.check_node(from)?;
        self.check_node(to)?;
        if !self.edge_set.remove(&(from.0, to.0)) {
            return Err(GraphError::MissingEdge(from, to));
        }
        swap_remove_first(&mut self.out_adj[from.index()], to);
        swap_remove_first(&mut self.in_adj[to.index()], from);
        Ok(())
    }

    /// Whether the edge `(from, to)` exists.
    #[inline]
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.edge_set.contains(&(from.0, to.0))
    }

    /// The out-neighbours ("children") of `v`, as one contiguous slice.
    ///
    /// An insertion appends its target; a removal moves the list's last
    /// neighbour into the removed one's slot. So the order is insertion
    /// order only until the first removal from this list.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.out_adj[v.index()]
    }

    /// The in-neighbours ("parents") of `v`, as one contiguous slice, in
    /// the order [`out_neighbors`](DataGraph::out_neighbors) describes.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.in_adj[v.index()]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_adj[v.index()].len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_adj[v.index()].len()
    }

    /// Releases the spare capacity of every neighbour list. The graph and
    /// the order of every list are unchanged; nothing needs this call.
    pub fn compact(&mut self) {
        for list in self.out_adj.iter_mut().chain(self.in_adj.iter_mut()) {
            list.shrink_to_fit();
        }
    }

    /// The attribute tuple of `v`.
    #[inline]
    pub fn attributes(&self, v: NodeId) -> &Attributes {
        &self.attrs[v.index()]
    }

    /// Mutable access to the attribute tuple of `v`.
    pub fn attributes_mut(&mut self, v: NodeId) -> &mut Attributes {
        self.attr_index.take();
        &mut self.attrs[v.index()]
    }

    /// Iterates over all node ids `v0, v1, ...` in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.attrs.len() as u32).map(NodeId::new)
    }

    /// Iterates over all edges as `(from, to)` pairs, grouped by source.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |from| self.out_neighbors(from).iter().map(move |&to| (from, to)))
    }

    /// All nodes whose attributes satisfy `pred`, ascending — the initial
    /// candidate set `mat(u)` of the matching algorithms.
    ///
    /// Answered from the attribute index: each atom `A op c` compiles by
    /// binary search over `A`'s sorted dictionary to at most three code
    /// ranges, whose node count the index reads in O(1). The atom with the
    /// fewest nodes selects them from its posting slices (or a scan of the
    /// code column, whichever reads fewer entries); the other atoms filter
    /// the survivors in ascending count, each with a range test on its own
    /// key's codes.
    /// [`CmpOp::eval`](crate::CmpOp::eval) runs only on the dictionary
    /// entries whose `f64` image ties with a numeric `c` (or that equal a
    /// string or boolean `c`), normally 0–1 per atom. The result equals
    /// filtering [`DataGraph::nodes`] by [`DataGraph::satisfies`].
    pub fn nodes_satisfying(&self, pred: &Predicate) -> Vec<NodeId> {
        match pred.atoms().split_first() {
            None => self.nodes().collect(),
            Some((first, rest)) => self
                .attr_index
                .get_or_init(|| AttrIndex::build(&self.attrs))
                .select(first, rest),
        }
    }

    /// Whether the attributes of `v` satisfy `pred`.
    #[inline]
    pub fn satisfies(&self, v: NodeId, pred: &Predicate) -> bool {
        pred.satisfied_by(self.attributes(v))
    }

    /// Total degree (in + out) of `v`; handy for hub-ordering heuristics.
    pub fn total_degree(&self, v: NodeId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Builds a graph from an edge list over `n` nodes with empty attributes.
    ///
    /// Duplicate edges in the input are silently ignored.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Result<DataGraph> {
        let mut g = DataGraph::with_capacity(n);
        g.add_nodes(n);
        for &(a, b) in edges {
            g.try_add_edge(NodeId::new(a), NodeId::new(b))?;
        }
        Ok(g)
    }

    #[inline]
    fn check_node(&self, v: NodeId) -> Result<()> {
        if self.contains_node(v) {
            Ok(())
        } else {
            Err(GraphError::UnknownNode(v))
        }
    }
}

/// Removes the first `w` from `list` by moving the last entry into its slot.
fn swap_remove_first(list: &mut Vec<NodeId>, w: NodeId) {
    if let Some(pos) = list.iter().position(|&x| x == w) {
        list.swap_remove(pos);
    }
}

/// The serde form of a [`DataGraph`] (see the module docs).
#[derive(Serialize, Deserialize)]
struct DataGraphForm {
    attrs: Vec<Attributes>,
    edge_set: Vec<(NodeId, NodeId)>,
}

impl From<&DataGraph> for DataGraphForm {
    fn from(g: &DataGraph) -> Self {
        DataGraphForm {
            attrs: g.attrs.clone(),
            edge_set: g.edges().collect(),
        }
    }
}

impl TryFrom<DataGraphForm> for DataGraph {
    type Error = GraphError;

    fn try_from(form: DataGraphForm) -> Result<Self> {
        let mut g = DataGraph::with_capacity(form.attrs.len());
        for attrs in form.attrs {
            g.add_node(attrs);
        }
        for (from, to) in form.edge_set {
            g.add_edge(from, to)?;
        }
        Ok(g)
    }
}

impl Serialize for DataGraph {
    fn to_value(&self) -> serde::Value {
        DataGraphForm::from(self).to_value()
    }
}

impl Deserialize for DataGraph {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        DataGraph::try_from(DataGraphForm::from_value(v)?).map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::value::AttrValue;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn triangle() -> DataGraph {
        let mut g = DataGraph::new();
        g.add_nodes(3);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(2), n(0)).unwrap();
        g
    }

    #[test]
    fn empty_graph() {
        let g = DataGraph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_empty());
        assert!(!g.contains_node(n(0)));
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut g = DataGraph::new();
        let a = g.add_node(Attributes::labeled("A"));
        let b = g.add_node(Attributes::labeled("B"));
        assert_eq!(a, n(0));
        assert_eq!(b, n(1));
        g.add_edge(a, b).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
        assert_eq!(g.out_neighbors(a), &[b]);
        assert_eq!(g.in_neighbors(b), &[a]);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(a), 0);
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut g = DataGraph::new();
        g.add_nodes(2);
        g.add_edge(n(0), n(1)).unwrap();
        assert_eq!(
            g.add_edge(n(0), n(1)),
            Err(GraphError::DuplicateEdge(n(0), n(1)))
        );
        assert_eq!(g.try_add_edge(n(0), n(1)), Ok(false));
        assert_eq!(g.try_add_edge(n(1), n(0)), Ok(true));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn unknown_node_rejected() {
        let mut g = DataGraph::new();
        g.add_nodes(1);
        assert_eq!(g.add_edge(n(0), n(5)), Err(GraphError::UnknownNode(n(5))));
        assert_eq!(
            g.remove_edge(n(7), n(0)),
            Err(GraphError::UnknownNode(n(7)))
        );
    }

    #[test]
    fn remove_edge_works_and_errors() {
        let mut g = triangle();
        g.remove_edge(n(0), n(1)).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(!g.has_edge(n(0), n(1)));
        assert!(g.out_neighbors(n(0)).is_empty());
        assert!(!g.in_neighbors(n(1)).contains(&n(0)));
        assert_eq!(
            g.remove_edge(n(0), n(1)),
            Err(GraphError::MissingEdge(n(0), n(1)))
        );
    }

    #[test]
    fn self_loops_allowed_in_data_graphs() {
        let mut g = DataGraph::new();
        g.add_nodes(1);
        g.add_edge(n(0), n(0)).unwrap();
        assert!(g.has_edge(n(0), n(0)));
        assert_eq!(g.out_degree(n(0)), 1);
        assert_eq!(g.in_degree(n(0)), 1);
    }

    #[test]
    fn attributes_access_and_mutation() {
        let mut g = DataGraph::new();
        let v = g.add_node([("rate", AttrValue::Float(4.5))]);
        assert_eq!(g.attributes(v).get("rate"), Some(&AttrValue::Float(4.5)));
        g.attributes_mut(v).set("rate", 3.0);
        assert_eq!(g.attributes(v).get("rate"), Some(&AttrValue::Float(3.0)));
    }

    #[test]
    fn nodes_and_edges_iterators() {
        let g = triangle();
        let nodes: Vec<_> = g.nodes().collect();
        assert_eq!(nodes, vec![n(0), n(1), n(2)]);
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort();
        assert_eq!(edges, vec![(n(0), n(1)), (n(1), n(2)), (n(2), n(0))]);
    }

    #[test]
    fn nodes_satisfying_predicate() {
        let mut g = DataGraph::new();
        g.add_node(Attributes::labeled("A"));
        g.add_node(Attributes::labeled("B"));
        g.add_node(Attributes::labeled("A"));
        let p = Predicate::label("A");
        let matched = g.nodes_satisfying(&p);
        assert_eq!(matched, vec![n(0), n(2)]);
        assert!(g.satisfies(n(0), &p));
        assert!(!g.satisfies(n(1), &p));
    }

    /// The node-by-node filter `nodes_satisfying` must agree with.
    fn satisfying_reference(g: &DataGraph, pred: &Predicate) -> Vec<NodeId> {
        g.nodes().filter(|&v| g.satisfies(v, pred)).collect()
    }

    #[test]
    fn nodes_satisfying_edge_cases() {
        let mut g = DataGraph::new();
        g.add_node([("x", AttrValue::Float(0.0))]);
        g.add_node([("x", AttrValue::Float(-0.0))]);
        g.add_node([("x", AttrValue::Float(f64::NAN))]);
        g.add_node([("x", AttrValue::Int(0))]);
        g.add_node([("y", AttrValue::from("0"))]);
        let sat = |g: &DataGraph, p: Predicate| g.nodes_satisfying(&p);
        // 0.0 and -0.0 are distinct dictionary entries but compare equal;
        // Int(0) compares equal to both; NaN compares with nothing.
        assert_eq!(
            sat(&g, Predicate::atom("x", CmpOp::Eq, 0.0)),
            vec![n(0), n(1), n(3)]
        );
        assert_eq!(
            sat(&g, Predicate::atom("x", CmpOp::Eq, -0.0)),
            vec![n(0), n(1), n(3)]
        );
        assert_eq!(sat(&g, Predicate::atom("x", CmpOp::Ne, 0)), vec![]);
        assert_eq!(sat(&g, Predicate::atom("x", CmpOp::Ne, f64::NAN)), vec![]);
        assert_eq!(
            sat(&g, Predicate::atom("x", CmpOp::Le, 0)),
            vec![n(0), n(1), n(3)]
        );
        // `!=` on a key a node lacks is false, not true.
        assert_eq!(sat(&g, Predicate::atom("y", CmpOp::Ne, "1")), vec![n(4)]);
        // A key no node carries selects nothing, for every operator.
        assert_eq!(sat(&g, Predicate::atom("z", CmpOp::Ne, 1)), vec![]);
        assert_eq!(
            sat(
                &g,
                Predicate::atom("x", CmpOp::Ge, 0).and("z", CmpOp::Ne, 1)
            ),
            vec![]
        );
        // The empty conjunction selects every node.
        assert_eq!(sat(&g, Predicate::any()), g.nodes().collect::<Vec<_>>());
        // An attribute write reaches the next query.
        g.attributes_mut(n(2)).set("x", 0);
        assert_eq!(
            sat(&g, Predicate::atom("x", CmpOp::Eq, 0)),
            vec![n(0), n(1), n(2), n(3)]
        );

        // One key over every class, with tie bands wider than one entry:
        // `Int(2⁵³ + 1)` rounds to `Float(2⁵³)`, `Int(i64::MAX)` to 2⁶³.
        const P53: i64 = 1 << 53;
        let mut g = DataGraph::new();
        for value in [
            AttrValue::Int(P53),                                     // 0
            AttrValue::Int(P53 + 1),                                 // 1
            AttrValue::Float(P53 as f64),                            // 2
            AttrValue::Int(i64::MIN),                                // 3
            AttrValue::Int(i64::MAX),                                // 4
            AttrValue::Float(f64::NAN),                              // 5
            AttrValue::Float(f64::from_bits(0xfff8_0000_0000_0001)), // 6, NaN
            AttrValue::from("ab"),                                   // 7
            AttrValue::from("é"),                                    // 8
            AttrValue::Bool(true),                                   // 9
            AttrValue::Int(-P53),                                    // 10
            AttrValue::Float(9_223_372_036_854_775_808.0),           // 11, 2⁶³
        ] {
            g.add_node([("x", value)]);
        }
        let ids = |ids: &[u32]| ids.iter().map(|&i| n(i)).collect::<Vec<_>>();
        let x = |op, value: AttrValue| Predicate::atom("x", op, value);
        let table = [
            (x(CmpOp::Eq, AttrValue::Int(P53 + 1)), ids(&[1, 2])),
            (x(CmpOp::Lt, AttrValue::Int(P53 + 1)), ids(&[0, 3, 10])),
            (x(CmpOp::Le, AttrValue::Int(P53)), ids(&[0, 2, 3, 10])),
            (x(CmpOp::Gt, AttrValue::Int(P53)), ids(&[1, 4, 11])),
            (x(CmpOp::Ge, AttrValue::Int(P53 + 1)), ids(&[1, 2, 4, 11])),
            (
                x(CmpOp::Ne, AttrValue::Int(P53 + 1)),
                ids(&[0, 3, 4, 10, 11]),
            ),
            (x(CmpOp::Gt, AttrValue::Float(P53 as f64)), ids(&[4, 11])),
            (x(CmpOp::Eq, AttrValue::Int(i64::MAX)), ids(&[4, 11])),
            (
                x(CmpOp::Lt, AttrValue::Int(i64::MAX)),
                ids(&[0, 1, 2, 3, 10]),
            ),
            (x(CmpOp::Le, AttrValue::Int(i64::MIN)), ids(&[3])),
            // Constants below the minimum, above the maximum, absent.
            (x(CmpOp::Le, AttrValue::Float(f64::NEG_INFINITY)), ids(&[])),
            (
                x(CmpOp::Gt, AttrValue::Float(f64::NEG_INFINITY)),
                ids(&[0, 1, 2, 3, 4, 10, 11]),
            ),
            (
                x(CmpOp::Ne, AttrValue::Float(f64::INFINITY)),
                ids(&[0, 1, 2, 3, 4, 10, 11]),
            ),
            (x(CmpOp::Eq, AttrValue::Int(7)), ids(&[])),
            (x(CmpOp::Ne, AttrValue::Float(f64::NAN)), ids(&[])),
            (x(CmpOp::Eq, AttrValue::Float(f64::NAN)), ids(&[])),
            // Strings in byte order: shared prefixes, non-ASCII.
            (x(CmpOp::Lt, AttrValue::from("ab")), ids(&[])),
            (x(CmpOp::Gt, AttrValue::from("a")), ids(&[7, 8])),
            (x(CmpOp::Eq, AttrValue::from("abc")), ids(&[])),
            (x(CmpOp::Lt, AttrValue::from("abc")), ids(&[7])),
            (x(CmpOp::Ge, AttrValue::from("é")), ids(&[8])),
            (x(CmpOp::Le, AttrValue::from("\u{10FFFF}")), ids(&[7, 8])),
            (x(CmpOp::Ne, AttrValue::from("")), ids(&[7, 8])),
            (x(CmpOp::Lt, AttrValue::Bool(true)), ids(&[])),
            (x(CmpOp::Ne, AttrValue::Bool(false)), ids(&[9])),
            // Later atoms filter through the same ranges.
            (
                x(CmpOp::Ge, AttrValue::Int(i64::MIN)).and("x", CmpOp::Ne, P53 + 1),
                ids(&[0, 3, 4, 10, 11]),
            ),
            (
                x(CmpOp::Ne, AttrValue::Int(0)).and("x", CmpOp::Eq, P53 as f64),
                ids(&[0, 1, 2]),
            ),
            (
                x(CmpOp::Ne, AttrValue::Int(0)).and("x", CmpOp::Lt, P53 + 1),
                ids(&[0, 3, 10]),
            ),
            (
                x(CmpOp::Gt, AttrValue::from("")).and("x", CmpOp::Le, "ab"),
                ids(&[7]),
            ),
            (
                x(CmpOp::Le, AttrValue::Int(i64::MAX)).and("x", CmpOp::Gt, i64::MIN),
                ids(&[0, 1, 2, 4, 10, 11]),
            ),
        ];
        for (p, expected) in &table {
            assert_eq!(&satisfying_reference(&g, p), expected, "reference on `{p}`");
            assert_eq!(&sat(&g, p.clone()), expected, "index on `{p}`");
        }
    }

    #[test]
    fn from_edges_ignores_duplicates() {
        let g = DataGraph::from_edges(3, &[(0, 1), (0, 1), (1, 2)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(DataGraph::from_edges(2, &[(0, 5)]).is_err());
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut g = DataGraph::with_capacity(100);
        assert_eq!(g.node_count(), 0);
        g.add_nodes(3);
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn total_degree() {
        let g = triangle();
        assert_eq!(g.total_degree(n(0)), 2);
    }

    #[test]
    fn nodes_added_while_overlay_dirty() {
        let mut g = DataGraph::new();
        g.add_nodes(2);
        g.add_edge(n(0), n(1)).unwrap();
        let v = g.add_node(Attributes::labeled("late"));
        g.add_edge(v, n(0)).unwrap();
        assert_eq!(g.out_neighbors(v), &[n(0)]);
        assert_eq!(g.in_neighbors(n(0)), &[v]);
        assert_eq!(g.attributes(v).label(), Some("late"));
    }

    #[test]
    fn json_roundtrip_data_graph() {
        let mut g = DataGraph::new();
        let a = g.add_node(Attributes::labeled("Music").with("rate", 4.5));
        let b = g.add_node(Attributes::labeled("People").with("views", 700));
        let c = g.add_node(Attributes::new());
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        g.add_edge(c, a).unwrap();
        let text = serde_json::to_string(&g).unwrap();
        assert_eq!(
            text,
            r#"{"attrs":[{"entries":[["label",{"Str":"Music"}],["rate",{"Float":4.5}]]},{"entries":[["label",{"Str":"People"}],["views",{"Int":700}]]},{"entries":[]}],"edge_set":[[0,1],[1,2],[2,0]]}"#
        );
        let back: DataGraph = serde_json::from_str(&text).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(
            back.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
        for v in g.nodes() {
            assert_eq!(back.attributes(v), g.attributes(v));
        }
    }

    #[test]
    fn json_parse_error_is_reported() {
        assert!(serde_json::from_str::<DataGraph>("{not json").is_err());
        assert!(serde_json::from_str::<crate::PatternGraph>("[]").is_err());
    }

    /// The attribute values the selection property draws from: every type;
    /// `Int`s at ±2⁵³ and the `i64` extremes; `Int`/`Float` pairs with equal
    /// images (`Int(0)`/`Float(±0.0)`, `Int(2⁵³ + 1)`/`Float(2⁵³)`,
    /// `Int(i64::MAX)`/`Float(2⁶³)`); NaNs with different payloads; strings
    /// that share prefixes or are not ASCII.
    fn palette() -> Vec<AttrValue> {
        const P53: i64 = 1 << 53;
        vec![
            AttrValue::Int(i64::MIN),
            AttrValue::Int(-P53),
            AttrValue::Int(-1),
            AttrValue::Int(0),
            AttrValue::Int(1),
            AttrValue::Int(2),
            AttrValue::Int(P53),
            AttrValue::Int(P53 + 1),
            AttrValue::Int(i64::MAX - 1),
            AttrValue::Int(i64::MAX),
            AttrValue::Float(0.0),
            AttrValue::Float(-0.0),
            AttrValue::Float(1.0),
            AttrValue::Float(1.5),
            AttrValue::Float(P53 as f64),
            AttrValue::Float(9_223_372_036_854_775_808.0),
            AttrValue::Float(f64::NAN),
            AttrValue::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
            AttrValue::Float(f64::from_bits(0xfff8_0000_0000_0000)),
            AttrValue::from(""),
            AttrValue::from("a"),
            AttrValue::from("ab"),
            AttrValue::from("abc"),
            AttrValue::from("b"),
            AttrValue::from("é"),
            AttrValue::from("éa"),
            AttrValue::Bool(false),
            AttrValue::Bool(true),
        ]
    }

    /// The constants the selection property draws: the palette, then
    /// constants no node holds — below every value of their class, above
    /// it, or between two palette values.
    fn constants() -> Vec<AttrValue> {
        let mut constants = palette();
        constants.extend([
            AttrValue::Float(f64::NEG_INFINITY),
            AttrValue::Float(f64::INFINITY),
            AttrValue::Int(3),
            AttrValue::Float(0.5),
            AttrValue::from("aa"),
            AttrValue::from("\u{10FFFF}"),
        ]);
        constants
    }

    /// Keys of the selection property: `"ghost"` is on no node.
    const KEYS: [&str; 4] = ["k0", "k1", "k2", "ghost"];
    const OPS: [CmpOp; 6] = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// A node tuple over `k0..k2`; a draw past the palette leaves the key
    /// undefined.
    fn tuple_of(draws: (u8, u8, u8)) -> Attributes {
        let palette = palette();
        [draws.0, draws.1, draws.2]
            .into_iter()
            .enumerate()
            .filter_map(|(k, d)| palette.get(d as usize).map(|v| (KEYS[k], v.clone())))
            .collect()
    }

    fn predicate_of(atoms: &[(u8, u8, u8)]) -> Predicate {
        let constants = constants();
        atoms.iter().fold(Predicate::any(), |p, &(k, op, d)| {
            p.and(
                KEYS[k as usize],
                OPS[op as usize],
                constants[d as usize].clone(),
            )
        })
    }

    proptest! {
        /// `nodes_satisfying` equals the node-by-node filter for 0–3-atom
        /// conjunctions of every operator over mixed-type, partly missing
        /// keys — on a fresh graph, after an `attributes_mut` write, after
        /// an `add_node`, and on a clone.
        #[test]
        fn prop_nodes_satisfying_equals_node_filter(
            nodes in collection::vec((0u8..36, 0u8..36, 0u8..36), 0..32),
            preds in collection::vec(collection::vec((0u8..4, 0u8..6, 0u8..34), 0..4), 1..6),
            write in (0u32..32, 0u8..3, 0u8..36),
            added in (0u8..36, 0u8..36, 0u8..36),
        ) {
            let preds: Vec<Predicate> = preds.iter().map(|atoms| predicate_of(atoms)).collect();
            let check = |g: &DataGraph, stage: &str| -> proptest::TestCaseResult {
                for p in &preds {
                    prop_assert_eq!(
                        g.nodes_satisfying(p),
                        satisfying_reference(g, p),
                        "{} on `{}`",
                        stage,
                        p
                    );
                }
                Ok(())
            };
            let mut g = DataGraph::new();
            for &draws in &nodes {
                g.add_node(tuple_of(draws));
            }
            check(&g, "fresh")?;

            let (v, k, d) = write;
            if (v as usize) < g.node_count() {
                let (tuple, key) = (g.attributes_mut(n(v)), KEYS[k as usize]);
                match palette().get(d as usize) {
                    Some(value) => {
                        tuple.set(key, value.clone());
                    }
                    None => {
                        tuple.remove(key);
                    }
                }
            }
            check(&g, "after attributes_mut")?;

            g.add_node(tuple_of(added));
            check(&g, "after add_node")?;

            let copy = g.clone();
            check(&copy, "on a clone")?;
        }

        /// Adding then removing a random set of edges leaves counts and
        /// adjacency membership consistent with the edge set.
        #[test]
        fn prop_edge_bookkeeping(edges in proptest::collection::vec((0u32..20, 0u32..20), 0..120)) {
            let mut g = DataGraph::new();
            g.add_nodes(20);
            let mut reference = std::collections::HashSet::new();
            for &(a, b) in &edges {
                let inserted = g.try_add_edge(n(a), n(b)).unwrap();
                prop_assert_eq!(inserted, reference.insert((a, b)));
            }
            prop_assert_eq!(g.edge_count(), reference.len());
            // Remove half of them.
            for &(a, b) in edges.iter().step_by(2) {
                if reference.remove(&(a, b)) {
                    g.remove_edge(n(a), n(b)).unwrap();
                } else {
                    prop_assert!(g.remove_edge(n(a), n(b)).is_err());
                }
            }
            prop_assert_eq!(g.edge_count(), reference.len());
            for a in 0..20u32 {
                for b in 0..20u32 {
                    prop_assert_eq!(g.has_edge(n(a), n(b)), reference.contains(&(a, b)));
                }
            }
            // Adjacency lists agree with the edge set.
            for a in 0..20u32 {
                for &b in g.out_neighbors(n(a)) {
                    prop_assert!(reference.contains(&(a, b.0)));
                }
                for &b in g.in_neighbors(n(a)) {
                    prop_assert!(reference.contains(&(b.0, a)));
                }
            }
        }

        /// Under random interleaved edge insertions, deletions and node
        /// additions, every neighbour list equals, entry for entry, a
        /// `Vec<Vec<_>>` model that pushes on insert and swap-removes the
        /// first occurrence on delete: `edges()`, BFS order and the
        /// encoded bytes all follow that order.
        #[test]
        fn prop_neighbor_lists_follow_push_swap_remove_model(
            ops in proptest::collection::vec((0u32..15, 0u32..15, 0u8..9), 0..200),
        ) {
            fn unlink(list: &mut Vec<u32>, w: u32) {
                let pos = list.iter().position(|&x| x == w).unwrap();
                list.swap_remove(pos);
            }
            let mut g = DataGraph::new();
            g.add_nodes(10);
            let mut outs: Vec<Vec<u32>> = vec![Vec::new(); 10];
            let mut ins: Vec<Vec<u32>> = vec![Vec::new(); 10];
            let mut reference = std::collections::HashSet::new();
            for &(a, b, kind) in &ops {
                let nodes = g.node_count() as u32;
                let (a, b) = (a % nodes, b % nodes);
                match kind {
                    0..=4 => {
                        let inserted = g.try_add_edge(n(a), n(b)).unwrap();
                        prop_assert_eq!(inserted, reference.insert((a, b)));
                        if inserted {
                            outs[a as usize].push(b);
                            ins[b as usize].push(a);
                        }
                    }
                    5..=7 => {
                        if reference.remove(&(a, b)) {
                            g.remove_edge(n(a), n(b)).unwrap();
                            unlink(&mut outs[a as usize], b);
                            unlink(&mut ins[b as usize], a);
                        } else {
                            prop_assert!(g.remove_edge(n(a), n(b)).is_err());
                        }
                    }
                    _ => {
                        g.add_node(Attributes::new());
                        outs.push(Vec::new());
                        ins.push(Vec::new());
                    }
                }
                prop_assert_eq!(g.edge_count(), reference.len());
                for v in g.nodes() {
                    let ids = |s: &[NodeId]| s.iter().map(|w| w.0).collect::<Vec<_>>();
                    prop_assert_eq!(ids(g.out_neighbors(v)), outs[v.index()].clone(), "out({})", v.0);
                    prop_assert_eq!(ids(g.in_neighbors(v)), ins[v.index()].clone(), "in({})", v.0);
                    prop_assert_eq!(g.out_degree(v), outs[v.index()].len());
                    prop_assert_eq!(g.in_degree(v), ins[v.index()].len());
                }
            }
        }

        /// Interleaving edge insertions, deletions and compactions leaves
        /// the neighbour sets equal to the edge set in both directions;
        /// `compact` only releases spare capacity, so it changes no list.
        #[test]
        fn prop_csr_overlay_matches_edge_set_under_compaction(
            ops in proptest::collection::vec((0u32..15, 0u32..15, 0u8..8), 0..160),
        ) {
            let mut g = DataGraph::new();
            g.add_nodes(15);
            let mut reference = std::collections::HashSet::new();
            for &(a, b, kind) in &ops {
                match kind {
                    0..=4 => {
                        let inserted = g.try_add_edge(n(a), n(b)).unwrap();
                        prop_assert_eq!(inserted, reference.insert((a, b)));
                    }
                    5..=6 => {
                        if reference.remove(&(a, b)) {
                            g.remove_edge(n(a), n(b)).unwrap();
                        } else {
                            prop_assert!(g.remove_edge(n(a), n(b)).is_err());
                        }
                    }
                    _ => {
                        let before = g.clone();
                        g.compact();
                        for v in g.nodes() {
                            prop_assert_eq!(g.out_neighbors(v), before.out_neighbors(v));
                            prop_assert_eq!(g.in_neighbors(v), before.in_neighbors(v));
                        }
                    }
                }
                prop_assert_eq!(g.edge_count(), reference.len());
            }
            // Neighbour sets agree with the reference edge set in both
            // directions, before and after a final compaction.
            for pass in 0..2 {
                for a in 0..15u32 {
                    let mut outs: Vec<u32> = g.out_neighbors(n(a)).iter().map(|w| w.0).collect();
                    outs.sort_unstable();
                    let mut expected: Vec<u32> = reference
                        .iter()
                        .filter(|&&(x, _)| x == a)
                        .map(|&(_, y)| y)
                        .collect();
                    expected.sort_unstable();
                    prop_assert_eq!(outs, expected, "out({}) pass {}", a, pass);
                    let mut ins: Vec<u32> = g.in_neighbors(n(a)).iter().map(|w| w.0).collect();
                    ins.sort_unstable();
                    let mut expected: Vec<u32> = reference
                        .iter()
                        .filter(|&&(_, y)| y == a)
                        .map(|&(x, _)| x)
                        .collect();
                    expected.sort_unstable();
                    prop_assert_eq!(ins, expected, "in({}) pass {}", a, pass);
                }
                g.compact();
            }
        }
    }
}
