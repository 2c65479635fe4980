//! The serde encoding of both graph kinds is their logical content, and
//! decoding goes through their constructors: what those refuse is a decode
//! error, and the encodings written when the in-memory indexes were part
//! of the format still decode — to the graphs a builder makes.

use gpm_graph::{Attributes, DataGraph, EdgeBound, NodeId, PatternGraph, Predicate};
use proptest::prelude::*;

/// `serde_json::to_string` of a graph as the CSR-dumping encoding wrote it:
/// a self-loop `(1, 1)`, an isolated node 2, and an edge `(1, 0)` added
/// after the last compaction, so it lives in the overlay. Version-1
/// service snapshots written before the logical encoding held graphs in
/// this shape in a `graph.json` segment; those snapshots no longer open,
/// but any reader of a graph's serde JSON still decodes it.
const CSR_DUMP_JSON: &str = r#"{"attrs":[{"entries":[["label",{"Str":"a"}],["rate",{"Float":4.5}]]},{"entries":[["label",{"Str":"b"}],["views",{"Int":7}]]},{"entries":[]}],"out_adj":{"offsets":[0,1,2,2],"targets":[1,1],"overlay":{"1":[1,0]}},"in_adj":{"offsets":[0,0,2,2],"targets":[0,1],"overlay":{"0":[1]}},"edge_set":[[0,1],[1,0],[1,1]],"edge_count":3}"#;

/// The pattern object of PROTOCOL.md's version-1 `Register` frame (also
/// what WAL `Register` records and snapshot manifests held), adjacency
/// indexes included.
const V1_PATTERN_JSON: &str = r#"{"nodes":[{"id":0,"predicate":{"atoms":[{"attr":"label","op":"Eq","value":{"Str":"a"}}]},"name":"a"},{"id":1,"predicate":{"atoms":[{"attr":"label","op":"Eq","value":{"Str":"b"}}]},"name":"b"}],"edges":[{"from":0,"to":1,"bound":{"Hops":2}}],"out_adj":[[0],[]],"in_adj":[[],[0]]}"#;

fn sorted_edges(g: &DataGraph) -> Vec<(NodeId, NodeId)> {
    let mut edges: Vec<_> = g.edges().collect();
    edges.sort();
    edges
}

#[test]
fn csr_dump_decodes_to_the_builder_made_graph() {
    let mut g = DataGraph::new();
    let a = g.add_node(Attributes::labeled("a").with("rate", 4.5));
    let b = g.add_node(Attributes::labeled("b").with("views", 7));
    g.add_node(Attributes::new());
    g.add_edge(a, b).unwrap();
    g.add_edge(b, b).unwrap();
    g.add_edge(b, a).unwrap();

    let old: DataGraph = serde_json::from_str(CSR_DUMP_JSON).unwrap();
    assert_eq!(old.node_count(), g.node_count());
    assert_eq!(old.edge_count(), g.edge_count());
    for v in g.nodes() {
        assert_eq!(old.attributes(v), g.attributes(v));
    }
    assert_eq!(sorted_edges(&old), sorted_edges(&g));
    assert!(!serde_json::to_string(&old).unwrap().contains("out_adj"));
}

#[test]
fn protocol_v1_pattern_decodes_to_the_builder_made_pattern() {
    let mut p = PatternGraph::new();
    let a = p.add_named_node("a", Predicate::label("a"));
    let b = p.add_named_node("b", Predicate::label("b"));
    p.add_edge(a, b, EdgeBound::Hops(2)).unwrap();

    let old: PatternGraph = serde_json::from_str(V1_PATTERN_JSON).unwrap();
    assert_eq!(old, p);
    assert_eq!(
        serde_json::to_string(&old).unwrap(),
        r#"{"nodes":[{"predicate":{"atoms":[{"attr":"label","op":"Eq","value":{"Str":"a"}}]},"name":"a"},{"predicate":{"atoms":[{"attr":"label","op":"Eq","value":{"Str":"b"}}]},"name":"b"}],"edges":[{"from":0,"to":1,"bound":{"Hops":2}}]}"#
    );
}

#[test]
fn edge_set_naming_an_unknown_node_or_repeating_an_edge_is_a_decode_error() {
    // The old field set, so that the edge set is all that is wrong.
    let unknown = CSR_DUMP_JSON.replace("[1,0],[1,1]", "[1,0],[1,5]");
    let err = serde_json::from_str::<DataGraph>(&unknown).unwrap_err();
    assert!(
        err.to_string().contains("unknown data-graph node v5"),
        "{err}"
    );
    let repeated = CSR_DUMP_JSON.replace("[1,0],[1,1]", "[1,0],[1,0]");
    let err = serde_json::from_str::<DataGraph>(&repeated).unwrap_err();
    assert!(err.to_string().contains("already exists"), "{err}");
}

#[test]
fn patterns_add_edge_refuses_do_not_decode() {
    let with_edge =
        |edge: &str| V1_PATTERN_JSON.replace(r#"{"from":0,"to":1,"bound":{"Hops":2}}"#, edge);
    for (edge, needle) in [
        (
            r#"{"from":0,"to":9,"bound":{"Hops":2}}"#,
            "unknown pattern node u9",
        ),
        (r#"{"from":1,"to":1,"bound":{"Hops":2}}"#, "self-loop"),
        (r#"{"from":0,"to":1,"bound":{"Hops":0}}"#, ">= 1 hop"),
        (
            r#"{"from":0,"to":1,"bound":{"Hops":2}},{"from":0,"to":1,"bound":"Unbounded"}"#,
            "already exists",
        ),
    ] {
        let err = serde_json::from_str::<PatternGraph>(&with_edge(edge)).unwrap_err();
        assert!(err.to_string().contains(needle), "{edge}: {err}");
    }
}

proptest! {
    /// Decoding an encoding reproduces it — attributes, node count and the
    /// edges in `edges()` order — whatever mix of insertions and deletions
    /// built the original.
    #[test]
    fn prop_encode_decode_is_identity(
        ops in proptest::collection::vec((0u32..10, 0u32..10, 0u8..7), 0..80),
    ) {
        let mut g = DataGraph::new();
        for i in 0..10 {
            g.add_node(Attributes::new().with("i", i64::from(i)));
        }
        for &(a, b, kind) in &ops {
            let (a, b) = (NodeId::new(a), NodeId::new(b));
            match kind {
                0..=4 => {
                    let _ = g.try_add_edge(a, b).unwrap();
                }
                _ => {
                    let _ = g.remove_edge(a, b);
                }
            }
        }
        let text = serde_json::to_string(&g).unwrap();
        let back: DataGraph = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
        prop_assert_eq!(back.edge_count(), g.edge_count());
    }
}
