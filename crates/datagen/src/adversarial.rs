//! Adversarial topologies for the distance-oracle backends.
//!
//! The random generators in this crate produce well-mixed graphs on which
//! every backend behaves close to its average case. The shapes here are the
//! opposite — each one is the worst case for a specific part of the 2-hop
//! labeling and its incremental repair:
//!
//! * [`star`] — one hub touching every leaf. The hub is the perfect
//!   landmark (every label is tiny), but deleting a hub edge invalidates a
//!   hub-anchored entry in *every* leaf's label at once;
//! * [`deep_chain`] — a directed path. Pruned labeling degenerates: the
//!   node at position `i` reaches `n - i` suffixes and no landmark shortcuts
//!   any of them, so total label size is `Θ(n²)` — the 2-hop index's memory
//!   advantage disappears entirely. Keep chains short (≲ 2 000 nodes);
//! * [`grid`] — a directed `rows × cols` lattice (right + down edges) with
//!   `Θ((rows·cols)²)` many shortest paths sharing midpoints, stressing
//!   pruning-order sensitivity;
//! * [`cliques_with_bridges`] — dense clusters joined by single bridge
//!   edges. Distances are bimodal (1 inside a clique, long across bridges)
//!   and deleting one bridge disconnects half the graph from the other;
//! * [`bowtie`] — `wing` sources fanning into a single waist node that fans
//!   out to `wing` sinks. Every source→sink path crosses the waist, so the
//!   waist's label carries `Θ(wing²)` pairs: deleting one `waist → sink`
//!   edge strands that sink from **every** source at once, while deleting a
//!   `source → waist` edge only empties that source's own row.
//!
//! The companion update scripts ([`cut_chain_updates`],
//! [`delete_hub_updates`], [`cut_bridge_updates`], [`sever_waist_updates`])
//! are the matching worst-case deltas. The root-level `adversarial_topologies` integration
//! test drives both backends through every (topology, script) pair and
//! asserts bit-identical distances — and pins, via the
//! `oracle.twohop.delete_candidates` counter, how large a rectangle the
//! in-place 2-hop repair has to re-decide on each.
//!
//! Every generator is deterministic (no RNG at all).

use gpm_distance::EdgeUpdate;
use gpm_graph::{Attributes, DataGraph, NodeId};

/// A star: node 0 is the hub (label `"hub"`), nodes `1..=leaves` are leaves
/// (label `"leaf"`), with edges in **both** directions between the hub and
/// every leaf. `2 · leaves` edges in total.
pub fn star(leaves: usize) -> DataGraph {
    let mut g = DataGraph::with_capacity(leaves + 1);
    let hub = g.add_node(Attributes::labeled("hub").with("idx", 0i64));
    for i in 0..leaves {
        let leaf = g.add_node(Attributes::labeled("leaf").with("idx", (i + 1) as i64));
        g.add_edge(hub, leaf).expect("fresh edge");
        g.add_edge(leaf, hub).expect("fresh edge");
    }
    g
}

/// A directed path `0 → 1 → … → len-1`. The endpoints are labeled `"head"`
/// and `"tail"`, interior nodes `"mid"`.
///
/// This is the degenerate case for pruned 2-hop labeling — label size grows
/// quadratically with `len` — so keep `len` small (the tests use ≤ 512).
pub fn deep_chain(len: usize) -> DataGraph {
    let mut g = DataGraph::with_capacity(len);
    for i in 0..len {
        let label = if i == 0 {
            "head"
        } else if i + 1 == len {
            "tail"
        } else {
            "mid"
        };
        g.add_node(Attributes::labeled(label).with("idx", i as i64));
    }
    for i in 1..len {
        g.add_edge(NodeId::new((i - 1) as u32), NodeId::new(i as u32))
            .expect("fresh edge");
    }
    g
}

/// A directed `rows × cols` grid: node `(r, c)` sits at id `r * cols + c`
/// (label `"cell"`) with edges right (`(r, c) → (r, c+1)`) and down
/// (`(r, c) → (r+1, c)`).
pub fn grid(rows: usize, cols: usize) -> DataGraph {
    let mut g = DataGraph::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            g.add_node(
                Attributes::labeled("cell")
                    .with("row", r as i64)
                    .with("col", c as i64),
            );
        }
    }
    let id = |r: usize, c: usize| NodeId::new((r * cols + c) as u32);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1)).expect("fresh edge");
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c)).expect("fresh edge");
            }
        }
    }
    g
}

/// `cliques` bidirectional cliques of `size` nodes each (label `"q<i>"` for
/// clique `i`), chained by single **bridge** edges: the last node of clique
/// `i` points at the first node of clique `i + 1`.
///
/// Node ids are contiguous per clique, so clique `i` spans
/// `i * size .. (i + 1) * size`; [`cut_bridge_updates`] computes the bridge
/// endpoints from the same layout.
pub fn cliques_with_bridges(cliques: usize, size: usize) -> DataGraph {
    let mut g = DataGraph::with_capacity(cliques * size);
    for q in 0..cliques {
        for i in 0..size {
            g.add_node(Attributes::labeled(format!("q{q}")).with("idx", (q * size + i) as i64));
        }
    }
    let id = |q: usize, i: usize| NodeId::new((q * size + i) as u32);
    for q in 0..cliques {
        for a in 0..size {
            for b in 0..size {
                if a != b {
                    g.add_edge(id(q, a), id(q, b)).expect("fresh edge");
                }
            }
        }
        if q + 1 < cliques {
            g.add_edge(id(q, size - 1), id(q + 1, 0))
                .expect("fresh edge");
        }
    }
    g
}

/// The worst-case chain delta: delete the edge `k → k+1` of a
/// [`deep_chain`] of length `len`, splitting it into a prefix of `k + 1`
/// nodes and an unreachable suffix.
///
/// `k = 0` cuts right at the head — only the deleted edge's own source row
/// changes, the cheapest case of the 2-hop delete repair; larger `k`
/// invalidates `k + 1` prefix rows at once, and `k = len / 2` is its worst
/// case (a quarter of all pairs change).
/// Panics if the edge does not exist (`k + 1 ≥ len`).
pub fn cut_chain_updates(len: usize, k: usize) -> Vec<EdgeUpdate> {
    assert!(
        k + 1 < len,
        "chain of length {len} has no edge at position {k}"
    );
    vec![EdgeUpdate::Delete(
        NodeId::new(k as u32),
        NodeId::new((k + 1) as u32),
    )]
}

/// Deletes the hub, edge by edge: every `hub → leaf` edge of a [`star`] with
/// `leaves` leaves, in leaf order. After the script the hub still *receives*
/// from every leaf but reaches nothing — the maximal single-source distance
/// increase.
pub fn delete_hub_updates(leaves: usize) -> Vec<EdgeUpdate> {
    (0..leaves)
        .map(|i| EdgeUpdate::Delete(NodeId::new(0), NodeId::new((i + 1) as u32)))
        .collect()
}

/// Deletes the bridge between cliques `q` and `q + 1` of a
/// [`cliques_with_bridges`] graph, disconnecting everything after it from
/// everything before. Panics if `q + 1 ≥ cliques`.
pub fn cut_bridge_updates(cliques: usize, size: usize, q: usize) -> Vec<EdgeUpdate> {
    assert!(q + 1 < cliques, "no bridge after clique {q} of {cliques}");
    vec![EdgeUpdate::Delete(
        NodeId::new((q * size + size - 1) as u32),
        NodeId::new(((q + 1) * size) as u32),
    )]
}

/// A bowtie: node 0 is the waist (label `"waist"`), nodes `1..=wing` are
/// sources (label `"src"`, each with an edge into the waist) and nodes
/// `wing+1..=2·wing` are sinks (label `"sink"`, each fed by the waist).
/// `2 · wing` edges; every source→sink shortest path has length 2 and
/// crosses the waist.
pub fn bowtie(wing: usize) -> DataGraph {
    let mut g = DataGraph::with_capacity(2 * wing + 1);
    let waist = g.add_node(Attributes::labeled("waist").with("idx", 0i64));
    for i in 0..wing {
        let src = g.add_node(Attributes::labeled("src").with("idx", (i + 1) as i64));
        g.add_edge(src, waist).expect("fresh edge");
    }
    for i in 0..wing {
        let sink = g.add_node(Attributes::labeled("sink").with("idx", (wing + i + 1) as i64));
        g.add_edge(waist, sink).expect("fresh edge");
    }
    g
}

/// Severs a [`bowtie`]'s out-wing edge by edge: every `waist → sink` edge,
/// in sink order. Each deletion strands one sink from the waist **and**
/// every source simultaneously — the widest possible blast radius for a
/// single edge, `wing + 1` rows invalidated per deletion.
pub fn sever_waist_updates(wing: usize) -> Vec<EdgeUpdate> {
    (0..wing)
        .map(|i| EdgeUpdate::Delete(NodeId::new(0), NodeId::new((wing + i + 1) as u32)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_shape() {
        let g = star(10);
        assert_eq!(g.node_count(), 11);
        assert_eq!(g.edge_count(), 20);
        let hub = NodeId::new(0);
        assert_eq!(g.out_degree(hub), 10);
        assert_eq!(g.attributes(hub).label(), Some("hub"));
        assert_eq!(g.attributes(NodeId::new(3)).label(), Some("leaf"));
    }

    #[test]
    fn chain_shape() {
        let g = deep_chain(100);
        assert_eq!(g.node_count(), 100);
        assert_eq!(g.edge_count(), 99);
        assert_eq!(g.attributes(NodeId::new(0)).label(), Some("head"));
        assert_eq!(g.attributes(NodeId::new(99)).label(), Some("tail"));
        assert!(g.has_edge(NodeId::new(41), NodeId::new(42)));
        assert!(!g.has_edge(NodeId::new(42), NodeId::new(41)));
    }

    #[test]
    fn grid_shape() {
        let g = grid(4, 5);
        assert_eq!(g.node_count(), 20);
        // right edges: 4 * 4; down edges: 3 * 5.
        assert_eq!(g.edge_count(), 16 + 15);
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(g.has_edge(NodeId::new(0), NodeId::new(5)));
        assert!(!g.has_edge(NodeId::new(1), NodeId::new(0)));
    }

    #[test]
    fn cliques_shape() {
        let (cliques, size) = (3, 4);
        let g = cliques_with_bridges(cliques, size);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), cliques * size * (size - 1) + (cliques - 1));
        assert!(g.has_edge(NodeId::new(3), NodeId::new(4)), "bridge 0→1");
        assert!(g.has_edge(NodeId::new(7), NodeId::new(8)), "bridge 1→2");
        assert_eq!(g.attributes(NodeId::new(5)).label(), Some("q1"));
    }

    #[test]
    fn bowtie_shape() {
        let wing = 6;
        let g = bowtie(wing);
        assert_eq!(g.node_count(), 2 * wing + 1);
        assert_eq!(g.edge_count(), 2 * wing);
        let waist = NodeId::new(0);
        assert_eq!(g.attributes(waist).label(), Some("waist"));
        assert_eq!(g.out_degree(waist), wing);
        for i in 0..wing as u32 {
            let (src, sink) = (NodeId::new(i + 1), NodeId::new(wing as u32 + i + 1));
            assert_eq!(g.attributes(src).label(), Some("src"));
            assert_eq!(g.attributes(sink).label(), Some("sink"));
            assert!(g.has_edge(src, waist));
            assert!(g.has_edge(waist, sink));
            assert!(!g.has_edge(waist, src));
            assert!(!g.has_edge(sink, waist));
        }
    }

    #[test]
    fn scripts_apply_cleanly() {
        let mut g = deep_chain(16);
        for u in cut_chain_updates(16, 7) {
            assert!(u.apply(&mut g), "{u:?} must take effect");
        }
        let mut g = star(8);
        for u in delete_hub_updates(8) {
            assert!(u.apply(&mut g), "{u:?} must take effect");
        }
        assert_eq!(g.out_degree(NodeId::new(0)), 0);
        let mut g = cliques_with_bridges(3, 4);
        for u in cut_bridge_updates(3, 4, 1) {
            assert!(u.apply(&mut g), "{u:?} must take effect");
        }
        let mut g = bowtie(5);
        for u in sever_waist_updates(5) {
            assert!(u.apply(&mut g), "{u:?} must take effect");
        }
        assert_eq!(g.out_degree(NodeId::new(0)), 0, "waist reaches nothing");
    }

    #[test]
    #[should_panic(expected = "no edge at position")]
    fn cut_past_the_end_panics() {
        let _ = cut_chain_updates(4, 3);
    }
}
