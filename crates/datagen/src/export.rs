//! Exporting generated graphs in the on-disk attributed-dataset format.
//!
//! Any graph the generators produce can be written as a
//! `<name>.edges`/`<name>.attrs` pair by
//! [`gpm_graph::dataset::write_dataset`] and reloaded bit-identically — same
//! node ids, same edges, same attributes: the writer emits attribute rows in
//! `NodeId` order and edges in [`DataGraph::edges`](gpm_graph::DataGraph::edges)
//! order. That round trip is what makes the checked-in `fixtures/`
//! mini-dataset testable offline and regenerable on demand.
//!
//! ```
//! use gpm_datagen::{Dataset, DatasetSource};
//! use gpm_graph::dataset::write_dataset;
//!
//! let dir = std::env::temp_dir().join(format!("gpm-export-doc-{}", std::process::id()));
//! let g = Dataset::YouTube.generate(0.002, 42);
//! write_dataset(&dir, "yt-tiny", &g).unwrap();
//!
//! let back = DatasetSource::discover(&dir).unwrap()[0].load(1.0, 0).unwrap();
//! assert_eq!(back.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#[cfg(test)]
mod tests {
    use crate::datasets::Dataset;
    use gpm_graph::dataset::{load_dataset, write_dataset};

    #[test]
    fn export_import_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("gpm-export-test-{}", std::process::id()));
        let g = Dataset::YouTube.generate(0.005, 5);
        let (edges_path, attrs_path) = write_dataset(&dir, "yt", &g).unwrap();
        assert!(edges_path.ends_with("yt.edges"));
        assert!(attrs_path.ends_with("yt.attrs"));

        let loaded = load_dataset(&dir, "yt").unwrap();
        assert_eq!(loaded.graph.node_count(), g.node_count());
        assert_eq!(
            loaded.graph.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
        for v in g.nodes() {
            assert_eq!(loaded.graph.attributes(v), g.attributes(v), "attrs of {v}");
        }
        assert_eq!(
            loaded.original_ids,
            (0..g.node_count() as u64).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
