//! Plain-text and JSON (de)serialization of graphs and patterns.
//!
//! Two formats are supported here (the attributed `.edges`/`.attrs` dataset
//! pair is [`crate::dataset`]):
//!
//! * **JSON** via `serde_json` — lossless round trips of [`DataGraph`] and
//!   [`PatternGraph`], used to persist generated workloads;
//! * the **SNAP edge-list** format used by the real crawls the paper
//!   evaluates on (YouTube, Amazon, …): `#`-comment lines plus one
//!   whitespace-separated `from to` pair of arbitrary `u64` node ids per
//!   line, streamed in a single buffered pass by [`read_snap_edge_list`].

use crate::attributes::Attributes;
use crate::data_graph::DataGraph;
use crate::error::GraphError;
use crate::node_id::NodeId;
use crate::pattern_graph::PatternGraph;
use crate::Result;
use rustc_hash::FxHashMap;
use std::io::BufRead;

/// Serializes a data graph to a JSON string.
pub fn data_graph_to_json(g: &DataGraph) -> Result<String> {
    serde_json::to_string(g).map_err(|e| GraphError::Parse(e.to_string()))
}

/// Deserializes a data graph from a JSON string.
pub fn data_graph_from_json(text: &str) -> Result<DataGraph> {
    serde_json::from_str(text).map_err(|e| GraphError::Parse(e.to_string()))
}

/// Serializes a pattern graph to a JSON string.
pub fn pattern_to_json(p: &PatternGraph) -> Result<String> {
    serde_json::to_string(p).map_err(|e| GraphError::Parse(e.to_string()))
}

/// Deserializes a pattern graph from a JSON string.
pub fn pattern_from_json(text: &str) -> Result<PatternGraph> {
    serde_json::from_str(text).map_err(|e| GraphError::Parse(e.to_string()))
}

/// The dense `u64 → NodeId` remap shared by the SNAP edge-list reader and
/// the attributed-dataset loader ([`crate::dataset`]).
///
/// SNAP ids are sparse and can exceed `u32`, so loaders assign [`NodeId`]s
/// densely and keep the reverse `ids` vector (index = [`NodeId`] index,
/// value = original id). The remap can be pre-seeded — the dataset loader
/// seeds it from the attribute CSV so edge endpoints bind to the declared
/// nodes — or grown on first appearance by the plain SNAP reader.
#[derive(Debug, Default)]
pub(crate) struct IdRemap {
    map: FxHashMap<u64, NodeId>,
    ids: Vec<u64>,
}

impl IdRemap {
    pub(crate) fn new() -> Self {
        IdRemap::default()
    }

    /// Registers `raw → id` (used while seeding from an attribute CSV).
    /// Returns `false` when `raw` was already registered.
    pub(crate) fn insert(&mut self, raw: u64, id: NodeId) -> bool {
        let fresh = self.map.insert(raw, id).is_none();
        if fresh {
            self.ids.push(raw);
        }
        fresh
    }

    pub(crate) fn get(&self, raw: u64) -> Option<NodeId> {
        self.map.get(&raw).copied()
    }

    pub(crate) fn into_ids(self) -> Vec<u64> {
        self.ids
    }
}

/// Streams a SNAP-style edge list into `g`, interning node ids through
/// `remap`.
///
/// With `allow_new = true` unseen ids create fresh (attribute-less) nodes in
/// first-appearance order; with `allow_new = false` every endpoint must
/// already be registered in `remap` and an unknown id is a positioned
/// [`GraphError::ParseAt`] — the dataset loader uses this to enforce that
/// the edge file only references nodes declared by the attribute CSV.
pub(crate) fn read_snap_edges_into<R: BufRead>(
    mut reader: R,
    g: &mut DataGraph,
    remap: &mut IdRemap,
    allow_new: bool,
) -> Result<()> {
    let mut intern = |raw: u64, field: usize, lineno: usize, g: &mut DataGraph| -> Result<NodeId> {
        if let Some(id) = remap.get(raw) {
            return Ok(id);
        }
        if !allow_new {
            return Err(GraphError::ParseAt {
                line: lineno + 1,
                column: field,
                msg: format!("unknown node id {raw}: no attribute row declares it"),
            });
        }
        let id = g.add_node(Attributes::new());
        remap.insert(raw, id);
        Ok(id)
    };

    // One reused line buffer: real crawls run to tens of millions of lines,
    // so the loop must not allocate per line (as `reader.lines()` would).
    let mut buf = String::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        let read = reader
            .read_line(&mut buf)
            .map_err(|e| GraphError::Parse(format!("line {}: {e}", lineno + 1)))?;
        if read == 0 {
            break;
        }
        let line = buf.trim();
        if !(line.is_empty() || line.starts_with('#')) {
            let mut fields = line.split_whitespace();
            let from: u64 = parse_field(fields.next(), lineno, "SNAP edge source")?;
            let to: u64 = parse_field(fields.next(), lineno, "SNAP edge target")?;
            if fields.next().is_some() {
                return Err(GraphError::Parse(format!(
                    "line {}: expected `from to`, found extra fields",
                    lineno + 1
                )));
            }
            let a = intern(from, 1, lineno, g)?;
            let b = intern(to, 2, lineno, g)?;
            let _ = g.try_add_edge(a, b)?; // duplicates in the crawl are skipped
        }
        lineno += 1;
    }
    g.compact();
    Ok(())
}

/// Loads a data graph from a SNAP-style edge list, streaming the input in a
/// single buffered pass.
///
/// The format is the one used by the SNAP dataset collection (and by the
/// YouTube/Amazon crawls of the paper's evaluation): lines starting with
/// `#` are comments, every other non-empty line holds two
/// whitespace-separated `u64` node ids, `from to`. Node ids are remapped
/// densely in first-appearance order (SNAP ids are sparse and can exceed
/// `u32`); the returned vector maps each [`NodeId`] index back to its
/// original id. Duplicate edges are skipped (the model has no parallel
/// edges); self-loops are kept.
///
/// Nodes carry no attributes — real crawls ship attributes separately; use
/// [`crate::dataset::attach_attrs_csv`] to bind a typed attribute CSV to the
/// remapped ids, or [`DataGraph::attributes_mut`] to attach them manually.
pub fn read_snap_edge_list<R: BufRead>(reader: R) -> Result<(DataGraph, Vec<u64>)> {
    let mut g = DataGraph::new();
    let mut remap = IdRemap::new();
    read_snap_edges_into(reader, &mut g, &mut remap, true)?;
    Ok((g, remap.into_ids()))
}

/// [`read_snap_edge_list`] over an in-memory string (tests, small files).
pub fn data_graph_from_snap_str(text: &str) -> Result<(DataGraph, Vec<u64>)> {
    read_snap_edge_list(text.as_bytes())
}

fn parse_field<T: std::str::FromStr>(field: Option<&str>, lineno: usize, what: &str) -> Result<T> {
    field
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| GraphError::Parse(format!("line {}: missing/invalid {what}", lineno + 1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_bound::EdgeBound;
    use crate::predicate::{CmpOp, Predicate};

    fn sample_graph() -> DataGraph {
        let mut g = DataGraph::new();
        let a = g.add_node(Attributes::labeled("Music").with("rate", 4.5));
        let b = g.add_node(Attributes::labeled("People").with("views", 700));
        let c = g.add_node(Attributes::new());
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        g.add_edge(c, a).unwrap();
        g
    }

    #[test]
    fn json_roundtrip_data_graph() {
        let g = sample_graph();
        let text = data_graph_to_json(&g).unwrap();
        let back = data_graph_from_json(&text).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        for v in g.nodes() {
            assert_eq!(back.attributes(v), g.attributes(v));
        }
        for (a, b) in g.edges() {
            assert!(back.has_edge(a, b));
        }
    }

    #[test]
    fn json_roundtrip_pattern() {
        let mut p = PatternGraph::new();
        let x = p.add_named_node("x", Predicate::label("Music").and("rate", CmpOp::Gt, 3.0));
        let y = p.add_node(Predicate::any());
        p.add_edge(x, y, EdgeBound::Hops(2)).unwrap();
        let text = pattern_to_json(&p).unwrap();
        let back = pattern_from_json(&text).unwrap();
        assert_eq!(back.node_count(), 2);
        assert_eq!(back.bound(x, y), Some(EdgeBound::Hops(2)));
        assert_eq!(back.predicate(x), p.predicate(x));
        assert_eq!(back.name(x), "x");
    }

    #[test]
    fn json_parse_error_is_reported() {
        assert!(data_graph_from_json("{not json").is_err());
        assert!(pattern_from_json("[]").is_err());
    }

    #[test]
    fn snap_loader_parses_comments_whitespace_and_dense_remap() {
        let text = "# Directed graph: web-Sample.txt\n\
                    # FromNodeId\tToNodeId\n\
                    9999999999 17\n\
                    17\t42\n\
                    \n\
                    42   9999999999\n";
        let (g, ids) = data_graph_from_snap_str(text).unwrap();
        // First-appearance order: 9999999999, 17, 42.
        assert_eq!(ids, vec![9_999_999_999, 17, 42]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(g.has_edge(NodeId::new(1), NodeId::new(2)));
        assert!(g.has_edge(NodeId::new(2), NodeId::new(0)));
        assert!(g.is_compact(), "loader compacts after the single pass");
    }

    #[test]
    fn snap_loader_skips_duplicates_and_keeps_self_loops() {
        let (g, ids) = data_graph_from_snap_str("1 2\n1 2\n2 2\n").unwrap();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(g.edge_count(), 2); // duplicate (1, 2) skipped
        assert!(g.has_edge(NodeId::new(1), NodeId::new(1))); // self-loop kept
    }

    #[test]
    fn snap_loader_streams_from_a_bufread() {
        // Exercise the BufRead path (not just the &str convenience): a
        // cursor over bytes, as a file reader would present them.
        let bytes: &[u8] = b"# c\n3 4\n4 5\n";
        let (g, ids) = read_snap_edge_list(std::io::BufReader::new(bytes)).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(ids, vec![3, 4, 5]);
    }

    #[test]
    fn snap_loader_rejects_malformed_lines() {
        assert!(data_graph_from_snap_str("1\n").is_err());
        assert!(data_graph_from_snap_str("1 2 3\n").is_err());
        assert!(data_graph_from_snap_str("a b\n").is_err());
        let (g, ids) = data_graph_from_snap_str("# only comments\n\n").unwrap();
        assert_eq!(g.node_count(), 0);
        assert!(ids.is_empty());
    }
}
