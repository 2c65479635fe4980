//! Helpers shared by the root integration suites (each suite that needs
//! them declares `mod support;`).

// Each suite compiles this module on its own and uses only part of it.
#![allow(dead_code)]

use gpm::datagen::{powerlaw_graph, PowerLawConfig};
use gpm::exec::Parallelism;
use gpm::{DataGraph, NodeId};
use std::fs;
use std::path::PathBuf;

pub mod sim;

/// A power-law graph whose node `v` carries `label = a<v mod labels>`, so
/// generated patterns' label predicates have something to bite on.
pub fn labelled_graph(nodes: usize, edges: usize, labels: usize, seed: u64) -> DataGraph {
    let mut g = powerlaw_graph(&PowerLawConfig::new(nodes, edges).with_seed(seed));
    for v in 0..g.node_count() {
        let label = format!("a{}", v % labels);
        g.attributes_mut(NodeId::new(v as u32)).set("label", label);
    }
    g
}

/// A `threads`-worker policy with no sequential threshold, so even
/// test-sized inputs take the threaded paths.
pub fn forced(threads: usize) -> Parallelism {
    Parallelism::new(threads).with_sequential_threshold(0)
}

/// A scratch directory under the system temp dir, removed on drop.
pub struct TempRoot(PathBuf);

impl TempRoot {
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("gpm-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TempRoot(dir)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}
