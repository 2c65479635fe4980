//! Preferential-attachment digraphs.
//!
//! The three real-life graphs of the paper (a co-authorship network, a
//! hyperlinked blog network and a video recommendation network) all exhibit
//! the skewed degree distributions typical of social/information networks.
//! The simulated datasets in [`crate::datasets`] therefore use a directed
//! preferential-attachment backbone: new nodes attach to existing nodes with
//! probability proportional to in-degree + 1, and a configurable fraction of
//! "back edges" keeps the graph cyclic (recommendation and citation networks
//! are not DAGs).

use gpm_graph::{Attributes, DataGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the preferential-attachment generator.
#[derive(Clone, Debug, PartialEq)]
pub struct PowerLawConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Target number of edges (approximate: the generator adds
    /// `edges / nodes` out-edges per node and then tops up randomly).
    pub edges: usize,
    /// Fraction of edges that point "backwards" (from an old node to a newer
    /// one), which creates cycles. 0.0 gives a DAG, 0.3 is a typical value.
    pub back_edge_fraction: f64,
    /// Fraction of the top-up edges that reciprocate an existing edge
    /// (`(b, a)` for an existing `(a, b)`). Real recommendation / hyperlink
    /// networks are strongly reciprocal, which is what makes single-edge
    /// deletions barely move shortest distances.
    pub reciprocal_fraction: f64,
    /// Fraction of the top-up edges created by triadic closure (`(a, c)` for
    /// existing `(a, b)` and `(b, c)`), providing the alternative short paths
    /// typical of social graphs.
    pub closure_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PowerLawConfig {
    fn default() -> Self {
        PowerLawConfig {
            nodes: 1_000,
            edges: 4_000,
            back_edge_fraction: 0.3,
            reciprocal_fraction: 0.3,
            closure_fraction: 0.3,
            seed: 0,
        }
    }
}

impl PowerLawConfig {
    /// Creates a configuration with the given size and default skew.
    pub fn new(nodes: usize, edges: usize) -> Self {
        PowerLawConfig {
            nodes,
            edges,
            ..Default::default()
        }
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Generates a preferential-attachment digraph with empty node attributes
/// (dataset builders fill the attributes afterwards).
pub fn powerlaw_graph(config: &PowerLawConfig) -> DataGraph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.nodes;
    let mut g = DataGraph::with_capacity(n);
    for _ in 0..n {
        g.add_node(Attributes::new());
    }
    if n <= 1 {
        return g;
    }

    // Repeated-endpoint list: picking a uniform element approximates
    // preferential attachment (each edge endpoint re-enters the pool).
    let mut pool: Vec<u32> = (0..n as u32).collect();
    let per_node = (config.edges / n).max(1);

    for i in 1..n as u32 {
        for _ in 0..per_node {
            if g.edge_count() >= config.edges {
                break;
            }
            // Attach to an already-present node, biased by the pool.
            let target = loop {
                let t = pool[rng.gen_range(0..pool.len())];
                if t < i {
                    break t;
                }
                // Fall back to a uniform earlier node to guarantee progress.
                if rng.gen_bool(0.25) {
                    break rng.gen_range(0..i);
                }
            };
            let (from, to) = if rng.gen_bool(config.back_edge_fraction) {
                (NodeId::new(target), NodeId::new(i))
            } else {
                (NodeId::new(i), NodeId::new(target))
            };
            if g.try_add_edge(from, to).unwrap_or(false) {
                pool.push(from.0);
                pool.push(to.0);
            }
        }
    }
    // Top up to the target edge count with a mix of reciprocal edges, triadic
    // closures and random preferential edges. Reciprocity and closure inject
    // the path redundancy observed in real social/recommendation networks.
    let attempt_cap = config.edges.saturating_mul(40) + 1_000;
    let mut attempts = 0;
    while g.edge_count() < config.edges.min(n * n) && attempts < attempt_cap {
        attempts += 1;
        let roll: f64 = rng.gen();
        if roll < config.reciprocal_fraction {
            // Reciprocate an existing edge out of a random node.
            let a = NodeId::new(pool[rng.gen_range(0..pool.len())]);
            let outs = g.out_neighbors(a);
            if let Some(&b) = pick(outs, &mut rng) {
                let _ = g.try_add_edge(b, a);
                continue;
            }
        } else if roll < config.reciprocal_fraction + config.closure_fraction {
            // Triadic closure: a -> b -> c becomes a -> c as well.
            let a = NodeId::new(pool[rng.gen_range(0..pool.len())]);
            let step = |v: NodeId, rng: &mut StdRng| pick(g.out_neighbors(v), rng).copied();
            if let Some(b) = step(a, &mut rng) {
                if let Some(c) = step(b, &mut rng) {
                    let _ = g.try_add_edge(a, c);
                    continue;
                }
            }
        }
        let a = pool[rng.gen_range(0..pool.len())];
        let b = rng.gen_range(0..n as u32);
        let _ = g.try_add_edge(NodeId::new(a), NodeId::new(b));
    }
    g
}

/// Picks a uniform random element of a slice.
fn pick<'a, T>(slice: &'a [T], rng: &mut StdRng) -> Option<&'a T> {
    if slice.is_empty() {
        None
    } else {
        Some(&slice[rng.gen_range(0..slice.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_requested_size() {
        let cfg = PowerLawConfig::new(500, 2_000).with_seed(1);
        let g = powerlaw_graph(&cfg);
        assert_eq!(g.node_count(), 500);
        assert_eq!(g.edge_count(), 2_000);
    }

    #[test]
    fn deterministic() {
        let cfg = PowerLawConfig::new(200, 800).with_seed(9);
        let a = powerlaw_graph(&cfg);
        let b = powerlaw_graph(&cfg);
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let cfg = PowerLawConfig::new(2_000, 8_000).with_seed(3);
        let g = powerlaw_graph(&cfg);
        let mut degrees: Vec<usize> = g.nodes().map(|v| g.total_degree(v)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: usize = degrees.iter().take(g.node_count() / 10).sum();
        let total: usize = degrees.iter().sum();
        // The top 10% of nodes should own well over 10% of the degree mass.
        assert!(
            top_decile as f64 > 0.25 * total as f64,
            "expected a skewed degree distribution, top decile owns {top_decile}/{total}"
        );
    }

    #[test]
    fn back_edges_create_cycles() {
        let cfg = PowerLawConfig {
            nodes: 300,
            edges: 1_200,
            back_edge_fraction: 0.4,
            seed: 11,
            ..Default::default()
        };
        let g = powerlaw_graph(&cfg);
        // A node on a cycle has a finite non-empty distance to itself.
        let m = gpm_distance::DistanceMatrix::build(&g);
        assert!(
            g.nodes().any(|v| m.nonempty_distance(v, v).is_some()),
            "back edges should create cycles"
        );
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        for n in 0..3 {
            let g = powerlaw_graph(&PowerLawConfig::new(n, 10));
            assert_eq!(g.node_count(), n);
        }
    }
}
