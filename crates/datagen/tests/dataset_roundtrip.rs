//! Property tests: export → import of random attributed graphs is
//! bit-identical (graph, attributes, and re-serialized bytes).

use gpm_datagen::{Dataset, DatasetSource};
use gpm_graph::dataset::{
    dataset_attrs_string, dataset_edges_string, read_dataset_strs, write_dataset,
};
use gpm_graph::{AttrValue, Attributes, DataGraph, NodeId};
use proptest::prelude::*;

/// Categories deliberately exercising CSV quoting: commas, quotes, spaces,
/// the empty string.
const CATEGORIES: [&str; 6] = [
    "Music",
    "Travel & Places",
    "a,b",
    "say \"hi\"",
    "",
    " padded ",
];

/// Builds a graph from a proptest-drawn recipe: `n` nodes, random edges,
/// and a per-node attribute subset (bitmask selects which of the four typed
/// attributes the node carries).
fn build_graph(n: u32, edges: &[(u32, u32)], attr_recipes: &[(u8, u8, i64, u8)]) -> DataGraph {
    let mut g = DataGraph::new();
    for i in 0..n as usize {
        let (mask, cat, views, rate10) = attr_recipes[i % attr_recipes.len()];
        let mut attrs = Attributes::new();
        if mask & 1 != 0 {
            attrs.set("category", CATEGORIES[cat as usize % CATEGORIES.len()]);
        }
        if mask & 2 != 0 {
            attrs.set("views", views);
        }
        if mask & 4 != 0 {
            attrs.set("rate", f64::from(rate10) / 10.0);
        }
        if mask & 8 != 0 {
            attrs.set("ok", mask & 16 != 0);
        }
        g.add_node(attrs);
    }
    for &(a, b) in edges {
        let (a, b) = (NodeId::new(a % n), NodeId::new(b % n));
        let _ = g.try_add_edge(a, b);
    }
    g
}

fn assert_graphs_identical(a: &DataGraph, b: &DataGraph) {
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.edge_count(), b.edge_count());
    assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    for v in a.nodes() {
        assert_eq!(a.attributes(v), b.attributes(v), "attributes of {v}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any random attributed graph — heterogeneous attribute coverage,
    /// quoting-hostile strings, isolated nodes — survives a string-level
    /// write → read → write round trip bit-identically.
    #[test]
    fn prop_export_import_roundtrip(
        n in 1u32..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 0..120),
        attr_recipes in proptest::collection::vec(
            (0u8..32, 0u8..6, -1_000_000i64..1_000_000, 0u8..50),
            1..12,
        ),
    ) {
        let g = build_graph(n, &edges, &attr_recipes);
        let edges_text = dataset_edges_string(&g);
        let attrs_text = dataset_attrs_string(&g).expect("exportable");

        let (back, ids, _schema) = read_dataset_strs(&edges_text, &attrs_text)
            .expect("reloadable");
        assert_graphs_identical(&g, &back);
        prop_assert_eq!(ids, (0..g.node_count() as u64).collect::<Vec<_>>());

        // Fixpoint: re-serializing the imported graph reproduces the bytes.
        prop_assert_eq!(dataset_edges_string(&back), edges_text);
        prop_assert_eq!(dataset_attrs_string(&back).expect("exportable"), attrs_text);
    }

    /// The simulated paper datasets round-trip through the filesystem
    /// exporter + DatasetSource loader.
    #[test]
    fn prop_simulated_datasets_roundtrip_on_disk(seed in 0u64..50) {
        let dataset = Dataset::ALL[(seed % 3) as usize];
        let g = dataset.generate(0.003, seed);
        let dir = std::env::temp_dir().join(format!(
            "gpm-roundtrip-{}-{seed}",
            std::process::id()
        ));
        write_dataset(&dir, "case", &g).expect("export");
        let back = DatasetSource::OnDisk { dir: dir.clone(), name: "case".into() }
            .load(1.0, 0)
            .expect("load");
        assert_graphs_identical(&g, &back);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// Non-property check pinning one subtle format rule: an absent attribute
/// (empty field) and an empty-string attribute (`""`) stay distinct through
/// a round trip.
#[test]
fn absent_vs_empty_string_attributes_stay_distinct() {
    let mut g = DataGraph::new();
    g.add_node(Attributes::new().with("s", ""));
    g.add_node(Attributes::new());
    let edges_text = dataset_edges_string(&g);
    let attrs_text = dataset_attrs_string(&g).unwrap();
    let (back, _, _) = read_dataset_strs(&edges_text, &attrs_text).unwrap();
    assert_eq!(
        back.attributes(NodeId::new(0)).get("s"),
        Some(&AttrValue::Str(String::new()))
    );
    assert_eq!(back.attributes(NodeId::new(1)).get("s"), None);
}
