//! Where an experiment's data graph comes from: generated or loaded from
//! disk.
//!
//! The benchmark harness historically ran every experiment on the synthetic
//! stand-ins of [`Dataset`]. Real crawls (downloaded SNAP files plus an
//! attribute CSV, see [`gpm_graph::dataset`]) are the other half of the
//! paper's evaluation; [`DatasetSource`] abstracts over both so a binary can
//! consume either with one code path:
//!
//! ```
//! use gpm_datagen::{Dataset, DatasetSource};
//!
//! let source = DatasetSource::Synthetic(Dataset::PBlog);
//! let g = source.load(0.05, 7).unwrap();
//! assert_eq!(source.name(), "PBlog");
//! assert!(g.node_count() > 0);
//! ```

use crate::datasets::Dataset;
use gpm_graph::dataset::{load_dataset, EDGES_EXT};
use gpm_graph::{DataGraph, GraphError};
use std::path::{Path, PathBuf};

/// A named source of experiment data graphs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DatasetSource {
    /// One of the paper's simulated stand-ins, generated at a scale/seed.
    Synthetic(Dataset),
    /// An on-disk dataset `<dir>/<name>.edges` (+ optional `<name>.attrs`)
    /// in the attributed-dataset format of [`gpm_graph::dataset`].
    OnDisk {
        /// Directory holding the dataset files.
        dir: PathBuf,
        /// Dataset name (the files' stem).
        name: String,
    },
}

impl DatasetSource {
    /// The dataset's display name (`YouTube` / the on-disk file stem).
    pub fn name(&self) -> String {
        match self {
            DatasetSource::Synthetic(d) => d.to_string(),
            DatasetSource::OnDisk { name, .. } => name.clone(),
        }
    }

    /// Whether this source generates its graph (as opposed to loading it).
    pub fn is_synthetic(&self) -> bool {
        matches!(self, DatasetSource::Synthetic(_))
    }

    /// One-line provenance description for experiment headers.
    pub fn describe(&self, scale: f64) -> String {
        match self {
            DatasetSource::Synthetic(d) => format!("synthetic {d} (scale {scale})"),
            DatasetSource::OnDisk { dir, name } => {
                format!("on-disk {} ({})", name, dir.display())
            }
        }
    }

    /// Loads (or generates) the data graph.
    ///
    /// `scale`/`seed` parameterize synthetic generation; an on-disk dataset
    /// always loads at its full recorded size, so both are ignored for
    /// [`DatasetSource::OnDisk`].
    pub fn load(&self, scale: f64, seed: u64) -> Result<DataGraph, GraphError> {
        match self {
            DatasetSource::Synthetic(d) => Ok(d.generate(scale, seed)),
            DatasetSource::OnDisk { dir, name } => Ok(load_dataset(dir, name)?.graph),
        }
    }

    /// Discovers every on-disk dataset in `dir` (each `*.edges` file is
    /// one), sorted by name for deterministic iteration order.
    pub fn discover(dir: &Path) -> Result<Vec<DatasetSource>, GraphError> {
        let entries = std::fs::read_dir(dir)
            .map_err(|e| GraphError::Parse(format!("{}: {e}", dir.display())))?;
        let mut sources = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| GraphError::Parse(format!("{}: {e}", dir.display())))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(EDGES_EXT) {
                continue;
            }
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                sources.push(DatasetSource::OnDisk {
                    dir: dir.to_path_buf(),
                    name: stem.to_string(),
                });
            }
        }
        sources.sort_by_key(|s| s.name());
        Ok(sources)
    }
}

impl std::fmt::Display for DatasetSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::dataset::write_dataset;

    #[test]
    fn synthetic_source_generates() {
        let source = DatasetSource::Synthetic(Dataset::YouTube);
        assert_eq!(source.name(), "YouTube");
        assert!(source.is_synthetic());
        assert!(source.describe(0.1).contains("synthetic"));
        let g = source.load(0.01, 3).unwrap();
        assert_eq!(
            g.node_count(),
            Dataset::YouTube.generate(0.01, 3).node_count()
        );
    }

    #[test]
    fn discover_and_load_on_disk() {
        let dir = std::env::temp_dir().join(format!("gpm-source-test-{}", std::process::id()));
        let g = Dataset::PBlog.generate(0.02, 11);
        write_dataset(&dir, "pblog-mini", &g).unwrap();
        // A stray non-dataset file must not be discovered.
        std::fs::write(dir.join("README.txt"), "not a dataset").unwrap();

        let sources = DatasetSource::discover(&dir).unwrap();
        assert_eq!(sources.len(), 1);
        let source = &sources[0];
        assert_eq!(source.name(), "pblog-mini");
        assert!(!source.is_synthetic());
        assert!(source.describe(1.0).contains("on-disk"));

        // scale/seed are ignored for on-disk sources: full recorded size.
        let loaded = source.load(0.000_1, 999).unwrap();
        assert_eq!(loaded.node_count(), g.node_count());
        assert_eq!(loaded.edge_count(), g.edge_count());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn discover_missing_dir_errors() {
        let err = DatasetSource::discover(Path::new("/nonexistent-gpm-dir")).unwrap_err();
        assert!(err.to_string().contains("nonexistent"), "{err}");
    }
}
