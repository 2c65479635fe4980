//! The crate's two queue-driven breadth-first traversals and the `u16`
//! horizon arithmetic every back-end shares.
//!
//! * [`bfs_row`] — one full row of distances from an origin, standard or
//!   non-empty, along out- or in-edges. The matrix build and `rebuild_row`,
//!   the memoised rows of `BfsOracle` and every row the 2-hop repair units
//!   read are this one function.
//! * [`pruned_bfs`] — a BFS whose caller decides, node by node, whether the
//!   search labels the node and continues through it. The sequential 2-hop
//!   build, the bit-parallel build's phase-B replay and the insertion
//!   repair's resumed searches differ in that decision only.
//!
//! # The horizon
//!
//! Distances are stored as `u16` with [`UNREACHABLE`] (65 535) meaning "no
//! path", so the largest finite stored distance is [`HORIZON`] (65 534).
//! Neither kernel expands a node at the horizon, and every sum of stored
//! distances goes through [`path_sum`] or [`hop_sum`], which clamp there.
//! The contract that follows, and that the kernel tests pin: **a node
//! farther than `HORIZON` hops is reported unreachable by every back-end;
//! no BFS wraps** — and no sum of two finite distances collides with the
//! sentinel. Because the back-ends take their rows from the same function
//! they cannot clamp differently.
//!
//! The bit-parallel build's phase A (`two_hop.rs`) is not a third caller: it
//! is a different algorithm — level-synchronous, one frontier *word* per
//! node carrying up to 64 roots — with no queue to share. It reads the same
//! constants.

use crate::UNREACHABLE;
use gpm_graph::{Adjacency, NodeId};
use std::collections::VecDeque;

/// The largest finite stored distance: one below the [`UNREACHABLE`]
/// sentinel.
pub(crate) const HORIZON: u16 = UNREACHABLE - 1;

/// Length of two concatenated paths of `a` and `b` hops, clamped to
/// [`HORIZON`]: a very long path is still a path, never the ∅ sentinel.
#[inline]
pub(crate) fn path_sum(a: u16, b: u16) -> u16 {
    a.saturating_add(b).min(HORIZON)
}

/// Length of the route `a` hops, one edge, `b` hops, clamped to
/// [`HORIZON`].
#[inline]
pub(crate) fn hop_sum(a: u16, b: u16) -> u16 {
    (u32::from(a) + 1 + u32::from(b)).min(u32::from(HORIZON)) as u16
}

/// Which edges a traversal follows.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Direction {
    /// Follow out-edges.
    Forward,
    /// Follow in-edges.
    Backward,
}

impl Direction {
    /// The nodes one edge away from `v` in this direction.
    #[inline]
    pub(crate) fn neighbours<G: Adjacency>(self, g: &G, v: NodeId) -> &[NodeId] {
        match self {
            Direction::Forward => g.out_neighbors(v),
            Direction::Backward => g.in_neighbors(v),
        }
    }
}

/// Fills `row` with the distance from `origin` to every node along
/// `direction` ([`UNREACHABLE`] where there is no path, or none of at most
/// [`HORIZON`] hops).
///
/// A `nonempty` row is seeded with the neighbours of `origin` at distance 1
/// and never assigns `origin` distance 0, so paths have length `>= 1` and
/// `row[origin]` is the shortest cycle through it; a standard row is seeded
/// with `origin` at 0. `queue` is scratch.
pub(crate) fn bfs_row<G: Adjacency>(
    g: &G,
    origin: NodeId,
    direction: Direction,
    nonempty: bool,
    row: &mut [u16],
    queue: &mut VecDeque<NodeId>,
) {
    row.fill(UNREACHABLE);
    queue.clear();
    if nonempty {
        for &w in direction.neighbours(g, origin) {
            if row[w.index()] == UNREACHABLE {
                row[w.index()] = 1;
                queue.push_back(w);
            }
        }
    } else {
        row[origin.index()] = 0;
        queue.push_back(origin);
    }
    while let Some(v) = queue.pop_front() {
        let d = row[v.index()];
        if d >= HORIZON {
            continue; // the horizon: saturate, never wrap
        }
        for &w in direction.neighbours(g, v) {
            if row[w.index()] == UNREACHABLE {
                row[w.index()] = d + 1;
                queue.push_back(w);
            }
        }
    }
}

/// [`bfs_row`] into a fresh row.
pub(crate) fn distance_row<G: Adjacency>(
    g: &G,
    origin: NodeId,
    direction: Direction,
    nonempty: bool,
) -> Vec<u16> {
    let mut row = vec![UNREACHABLE; g.node_count()];
    bfs_row(
        g,
        origin,
        direction,
        nonempty,
        &mut row,
        &mut VecDeque::new(),
    );
    row
}

/// BFS from `start` at distance `start_dist` along `direction`, pruned by
/// the caller: every popped node `v` at distance `d` is handed to
/// `keep(v, d)`. `false` prunes it — no label, no expansion; `true` means
/// the caller has taken the label `(v, d)`, and the search continues through
/// `v` unless `d` is at the [`HORIZON`].
///
/// `dist` is scratch, all-[`UNREACHABLE`] on entry and again on return
/// (restored through the visited list, so a search costs what it reaches).
pub(crate) fn pruned_bfs<G: Adjacency>(
    g: &G,
    start: NodeId,
    start_dist: u16,
    direction: Direction,
    dist: &mut [u16],
    queue: &mut VecDeque<NodeId>,
    mut keep: impl FnMut(NodeId, u16) -> bool,
) {
    queue.clear();
    dist[start.index()] = start_dist;
    queue.push_back(start);
    let mut visited: Vec<NodeId> = vec![start];
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()];
        // Never hand out UNREACHABLE (∅) as a real distance: nodes beyond
        // the horizon stay unvisited.
        if !keep(v, d) || d >= HORIZON {
            continue;
        }
        for &w in direction.neighbours(g, v) {
            if dist[w.index()] == UNREACHABLE {
                dist[w.index()] = d + 1;
                visited.push(w);
                queue.push_back(w);
            }
        }
    }
    for v in visited {
        dist[v.index()] = UNREACHABLE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_datagen::adversarial::deep_chain;
    use gpm_graph::{BatchReplay, DataGraph};
    use proptest::prelude::*;
    use Direction::{Backward, Forward};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Longer than the `u16` range: node `i` is `i` hops from the head.
    const CHAIN: usize = 65_600;

    /// Reference row: a textbook BFS over unbounded `Option<u32>` distances
    /// on an explicit edge list (`Backward` = every edge reversed).
    fn slow_row(g: &DataGraph, origin: NodeId, direction: Direction, nonempty: bool) -> Vec<u16> {
        let mut next = vec![Vec::new(); g.node_count()];
        for (a, b) in g.edges() {
            match direction {
                Forward => next[a.index()].push(b),
                Backward => next[b.index()].push(a),
            }
        }
        let mut dist = vec![None::<u32>; g.node_count()];
        let mut queue = VecDeque::new();
        if nonempty {
            for &w in &next[origin.index()] {
                if dist[w.index()].is_none() {
                    dist[w.index()] = Some(1);
                    queue.push_back(w);
                }
            }
        } else {
            dist[origin.index()] = Some(0);
            queue.push_back(origin);
        }
        while let Some(v) = queue.pop_front() {
            let d = dist[v.index()].unwrap();
            for &w in &next[v.index()] {
                if dist[w.index()].is_none() {
                    dist[w.index()] = Some(d + 1);
                    queue.push_back(w);
                }
            }
        }
        let stored = |d: Option<u32>| d.map_or(UNREACHABLE, |d| u16::try_from(d).unwrap());
        dist.into_iter().map(stored).collect()
    }

    /// Every row of `view`, in all four modes, against the reference on
    /// `truth` (the same graph, materialised).
    fn assert_rows_match<G: Adjacency>(view: &G, truth: &DataGraph) {
        for origin in truth.nodes() {
            for direction in [Forward, Backward] {
                for nonempty in [false, true] {
                    assert_eq!(
                        distance_row(view, origin, direction, nonempty),
                        slow_row(truth, origin, direction, nonempty),
                        "row of {origin}, {direction:?}, nonempty = {nonempty}"
                    );
                }
            }
        }
    }

    /// The standard row [`pruned_bfs`] reports when `keep` refuses `refuse`
    /// and nothing else; checks the scratch comes back clean.
    fn pruned_row<G: Adjacency>(
        g: &G,
        start: NodeId,
        direction: Direction,
        refuse: Option<NodeId>,
    ) -> Vec<u16> {
        let mut row = vec![UNREACHABLE; g.node_count()];
        let mut dist = vec![UNREACHABLE; g.node_count()];
        pruned_bfs(
            g,
            start,
            0,
            direction,
            &mut dist,
            &mut VecDeque::new(),
            |v, d| {
                assert_eq!(row[v.index()], UNREACHABLE, "{v} reported twice");
                if Some(v) == refuse {
                    return false;
                }
                row[v.index()] = d;
                true
            },
        );
        assert!(
            dist.iter().all(|&d| d == UNREACHABLE),
            "scratch not restored"
        );
        row
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `bfs_row` ≡ the reference in all four `direction × nonempty`
        /// modes, read through a `DataGraph` and through a `BatchReplay`
        /// view stopped in the middle of a batch; an unpruned `pruned_bfs`
        /// reports exactly the standard row.
        #[test]
        fn prop_kernels_match_reference_on_graph_and_mid_batch_view(
            nodes in 2u32..14,
            edges in collection::vec((0u32..14, 0u32..14), 0..50),
            batch in collection::vec((0u32..14, 0u32..14, 0u8..2), 0..10),
            stop in 0usize..10,
        ) {
            let mut pre = DataGraph::new();
            pre.add_nodes(nodes as usize);
            for (a, b) in edges {
                let _ = pre.try_add_edge(n(a % nodes), n(b % nodes));
            }
            assert_rows_match(&pre, &pre);

            let batch: Vec<(NodeId, NodeId, bool)> = batch
                .iter()
                .map(|&(a, b, kind)| (n(a % nodes), n(b % nodes), kind == 0))
                .collect();
            let apply = |g: &mut DataGraph, (a, b, insert): (NodeId, NodeId, bool)| {
                if insert {
                    let _ = g.try_add_edge(a, b);
                } else {
                    let _ = g.remove_edge(a, b);
                }
            };
            let mut post = pre.clone();
            batch.iter().for_each(|&u| apply(&mut post, u));
            let touched = batch.iter().map(|&(a, b, _)| (a, b));
            let mut view = BatchReplay::rewind(&post, touched, |a, b| pre.has_edge(a, b));
            let mut mid = pre.clone();
            for &(a, b, insert) in batch.iter().take(stop) {
                view.set_edge(a, b, insert);
                apply(&mut mid, (a, b, insert));
            }
            assert_rows_match(&view, &mid);
            for origin in mid.nodes() {
                for direction in [Forward, Backward] {
                    prop_assert_eq!(
                        pruned_row(&view, origin, direction, None),
                        slow_row(&mid, origin, direction, false)
                    );
                }
            }
        }
    }

    #[test]
    fn horizon_chain_rows_saturate_and_never_wrap() {
        let g = deep_chain(CHAIN);
        let (head, tail) = (n(0), n(CHAIN as u32 - 1));
        // What a row holds for a node `hops` away along the chain.
        let stored = |hops: usize, nonempty: bool| match u16::try_from(hops) {
            Ok(d) if d <= HORIZON && (d > 0 || !nonempty) => d,
            _ => UNREACHABLE,
        };
        for nonempty in [false, true] {
            let row = distance_row(&g, head, Forward, nonempty);
            assert_eq!(
                (row[65_534], row[65_535], row[65_536]),
                (65_534, UNREACHABLE, UNREACHABLE)
            );
            assert!(row
                .iter()
                .enumerate()
                .all(|(i, &d)| d == stored(i, nonempty)));
            // Symmetric from the tail along in-edges.
            let row = distance_row(&g, tail, Backward, nonempty);
            let hops = |i: usize| CHAIN - 1 - i;
            assert!(row
                .iter()
                .enumerate()
                .all(|(i, &d)| d == stored(hops(i), nonempty)));
        }
        // The pruned kernel saturates at the same node as the row kernel.
        assert_eq!(
            pruned_row(&g, head, Forward, None),
            distance_row(&g, head, Forward, false)
        );
        assert_eq!(
            pruned_row(&g, tail, Backward, None),
            distance_row(&g, tail, Backward, false)
        );
    }

    #[test]
    fn pruned_bfs_reports_nothing_behind_a_refused_cut_vertex() {
        // 0 → 1 → 2 → 3 → 4 with the shortcut 0 → 2: refusing the cut
        // vertex 2 hides 3 and 4 although 1 is still reported.
        let g = DataGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)]).unwrap();
        let u = UNREACHABLE;
        assert_eq!(pruned_row(&g, n(0), Forward, None), [0, 1, 1, 2, 3]);
        assert_eq!(pruned_row(&g, n(0), Forward, Some(n(2))), [0, 1, u, u, u]);
        assert_eq!(pruned_row(&g, n(4), Backward, Some(n(2))), [u, u, u, 1, 0]);
    }

    #[test]
    fn horizon_sums_clamp_and_never_yield_unreachable() {
        for (a, b) in [(65_534, 0), (65_533, 1), (40_000, 40_000), (65_534, 65_534)] {
            assert_eq!(path_sum(a, b), HORIZON, "path_sum({a}, {b})");
            assert_eq!(hop_sum(a, b), HORIZON, "hop_sum({a}, {b})");
        }
        assert_eq!(path_sum(65_533, 0), 65_533);
        assert_eq!(path_sum(3, 4), 7);
        assert_eq!(hop_sum(3, 4), 8);
        assert_eq!(hop_sum(65_532, 0), 65_533);
        assert_eq!(hop_sum(65_533, 0), HORIZON);
        assert_eq!(hop_sum(65_534, 0), HORIZON);
        assert_eq!(crate::hop_limit(gpm_graph::EdgeBound::Unbounded), HORIZON);
        assert_eq!(
            crate::hop_limit(gpm_graph::EdgeBound::Hops(u32::MAX)),
            HORIZON
        );
    }
}
