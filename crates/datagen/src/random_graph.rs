//! Uniform random digraphs — the synthetic data of Exp-1/Exp-2.
//!
//! The paper generated synthetic graphs with the C++ Boost generator,
//! "with 3 parameters: the number of nodes, the number of edges, and a set of
//! node attributes". This module reproduces that model: a `G(n, m)` digraph
//! with `m` distinct uniform random edges and a configurable attribute
//! domain — each node gets a `label` attribute drawn uniformly from
//! `attribute_values` distinct values plus a numeric `weight` attribute, so
//! both equality and comparison predicates have something to bite on.

use gpm_graph::{Attributes, DataGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the uniform random graph generator.
#[derive(Clone, Debug, PartialEq)]
pub struct RandomGraphConfig {
    /// Number of nodes `|V|`.
    pub nodes: usize,
    /// Number of (distinct) directed edges `|E|`.
    pub edges: usize,
    /// Number of distinct `label` values (the paper uses e.g. 2 000 distinct
    /// attributes on a 20K-node graph).
    pub attribute_values: usize,
    /// RNG seed; the same seed reproduces the same graph.
    pub seed: u64,
}

impl Default for RandomGraphConfig {
    fn default() -> Self {
        RandomGraphConfig {
            nodes: 1_000,
            edges: 2_000,
            attribute_values: 100,
            seed: 0,
        }
    }
}

impl RandomGraphConfig {
    /// Convenience constructor mirroring the paper's `(|V|, |E|, #attrs)`
    /// triple.
    pub fn new(nodes: usize, edges: usize, attribute_values: usize) -> Self {
        RandomGraphConfig {
            nodes,
            edges,
            attribute_values: attribute_values.max(1),
            seed: 0,
        }
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Generates a uniform random attributed digraph.
///
/// Self-loops are allowed (they occur in real networks and exercise the
/// non-empty-path semantics); parallel edges are not. If `edges` exceeds the
/// number of distinct pairs the generator stops at the maximum.
pub fn random_graph(config: &RandomGraphConfig) -> DataGraph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.nodes;
    let mut g = DataGraph::with_capacity(n);
    for i in 0..n {
        let label = format!("a{}", rng.gen_range(0..config.attribute_values));
        let weight = rng.gen_range(0..1_000i64);
        let attrs = Attributes::labeled(label)
            .with("weight", weight)
            .with("idx", i as i64);
        g.add_node(attrs);
    }
    if n == 0 {
        return g;
    }
    let max_edges = n * n;
    let target = config.edges.min(max_edges);
    let mut attempts = 0usize;
    // Rejection sampling is fine while the graph is sparse (all our
    // workloads are); bail out if the graph is nearly complete.
    let attempt_cap = target.saturating_mul(40) + 1_000;
    while g.edge_count() < target && attempts < attempt_cap {
        attempts += 1;
        let a = NodeId::new(rng.gen_range(0..n as u32));
        let b = NodeId::new(rng.gen_range(0..n as u32));
        let _ = g.try_add_edge(a, b);
    }
    // Dense fallback: fill deterministically if rejection sampling stalled.
    if g.edge_count() < target {
        'outer: for a in 0..n as u32 {
            for b in 0..n as u32 {
                if g.edge_count() >= target {
                    break 'outer;
                }
                let _ = g.try_add_edge(NodeId::new(a), NodeId::new(b));
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_node_and_edge_counts() {
        let cfg = RandomGraphConfig::new(200, 600, 20).with_seed(7);
        let g = random_graph(&cfg);
        assert_eq!(g.node_count(), 200);
        assert_eq!(g.edge_count(), 600);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = RandomGraphConfig::new(50, 120, 5).with_seed(42);
        let g1 = random_graph(&cfg);
        let g2 = random_graph(&cfg);
        assert_eq!(g1.edge_count(), g2.edge_count());
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
        for v in g1.nodes() {
            assert_eq!(g1.attributes(v), g2.attributes(v));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_graph(&RandomGraphConfig::new(50, 120, 5).with_seed(1));
        let b = random_graph(&RandomGraphConfig::new(50, 120, 5).with_seed(2));
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn attributes_are_within_domain() {
        let cfg = RandomGraphConfig::new(100, 100, 3).with_seed(0);
        let g = random_graph(&cfg);
        for v in g.nodes() {
            let label = g.attributes(v).label().unwrap();
            assert!(["a0", "a1", "a2"].contains(&label), "unexpected {label}");
            let w = g.attributes(v).get("weight").unwrap().as_int().unwrap();
            assert!((0..1000).contains(&w));
        }
    }

    #[test]
    fn edge_cap_on_tiny_graphs() {
        // 2 nodes -> at most 4 distinct directed edges (self-loops allowed).
        let cfg = RandomGraphConfig::new(2, 100, 1).with_seed(3);
        let g = random_graph(&cfg);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn empty_graph() {
        let g = random_graph(&RandomGraphConfig::new(0, 10, 1));
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = RandomGraphConfig::default();
        assert!(cfg.nodes > 0 && cfg.edges > 0 && cfg.attribute_values > 0);
    }
}
