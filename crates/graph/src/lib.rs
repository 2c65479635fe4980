//! # gpm-graph
//!
//! Attributed data graphs and pattern graphs — the substrate of the
//! bounded-simulation graph pattern matching system of Fan et al.
//! (*Graph Pattern Matching: From Intractable to Polynomial Time*, VLDB 2010).
//!
//! The paper works with two kinds of graphs:
//!
//! * a **data graph** `G = (V, E, f_A)`: a finite directed graph whose nodes
//!   carry an attribute tuple (`f_A(v)`), see [`DataGraph`];
//! * a **pattern graph** `P = (V_p, E_p, f_v, f_e)`: a directed graph whose
//!   nodes carry a *predicate* (a conjunction of comparisons over attributes,
//!   [`Predicate`]) and whose edges carry a hop bound — a positive integer
//!   `k` or `*` for "unbounded" ([`EdgeBound`]) — see [`PatternGraph`].
//!
//! This crate deliberately contains no matching logic: it provides the graph
//! model, attribute values and predicates, generic traversals, construction
//! builders, the serde encoding of both graph kinds and the on-disk dataset
//! format ([`dataset`]). Matching lives in `gpm-core`, `gpm-incremental` and
//! `gpm-iso`; distance oracles live in `gpm-distance`.
//!
//! A graph's serde encoding is its logical content — a [`DataGraph`] is its
//! attribute tuples plus its edge list, a [`PatternGraph`] its predicated
//! nodes plus its bounded edges — and decoding rebuilds it through the same
//! `add_node`/`add_edge` a caller uses, so the wire, the write-ahead log and
//! the snapshot never see (or trust) the indexes below.
//!
//! ## Physical layout
//!
//! [`DataGraph`] keeps one neighbour list per node and direction. An edge
//! insertion pushes onto the two lists it touches and a deletion
//! swap-removes from them, so an update costs `O(deg)` and the graph never
//! needs a rebuild or a maintenance call.
//! [`DataGraph::out_neighbors`]/[`DataGraph::in_neighbors`] return that
//! list as one contiguous slice, which the BFS loops of the distance
//! oracles scan. A derived **attribute index** — per key, a sorted
//! dictionary of distinct values, a value code per node (its value's rank)
//! and a posting list per code, laid out in code order — answers
//! [`DataGraph::nodes_satisfying`], so a predicate atom is a binary search
//! for a few code ranges rather than a test per node.
//!
//! ## Quick tour
//!
//! ```
//! use gpm_graph::{DataGraph, PatternGraph, Predicate, EdgeBound, AttrValue};
//!
//! // A tiny data graph: a "boss" overseeing two workers.
//! let mut g = DataGraph::new();
//! let boss = g.add_node([("role", AttrValue::from("boss"))]);
//! let w1 = g.add_node([("role", AttrValue::from("worker"))]);
//! let w2 = g.add_node([("role", AttrValue::from("worker"))]);
//! g.add_edge(boss, w1).unwrap();
//! g.add_edge(w1, w2).unwrap();
//!
//! // A pattern: a boss connected to a worker within 2 hops.
//! let mut p = PatternGraph::new();
//! let pb = p.add_node(Predicate::label_eq("role", "boss"));
//! let pw = p.add_node(Predicate::label_eq("role", "worker"));
//! p.add_edge(pb, pw, EdgeBound::Hops(2)).unwrap();
//!
//! assert_eq!(g.node_count(), 3);
//! assert_eq!(p.edge_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
mod attr_index;
pub mod attributes;
pub mod builder;
pub mod data_graph;
pub mod dataset;
pub mod edge_bound;
pub mod error;
pub mod node_id;
pub mod pattern_graph;
pub mod predicate;
pub mod traversal;
pub mod value;

pub use adjacency::{Adjacency, BatchReplay};
pub use attributes::Attributes;
pub use builder::{DataGraphBuilder, PatternGraphBuilder};
pub use data_graph::DataGraph;
pub use dataset::{load_dataset, AttrSchema, OnDiskDataset};
pub use edge_bound::EdgeBound;
pub use error::GraphError;
pub use node_id::{NodeId, PatternNodeId};
pub use pattern_graph::{PatternEdge, PatternGraph, PatternNode};
pub use predicate::{AtomicFormula, CmpOp, Predicate};
pub use traversal::bfs_distances_bounded;
pub use value::{AttrType, AttrValue};

/// Convenient result alias used across the graph crate.
pub type Result<T> = std::result::Result<T, GraphError>;
