//! The crate's three breadth-first traversals and the `u16` horizon
//! arithmetic every back-end shares.
//!
//! * [`bfs_row`] — one full row of distances from an origin, standard or
//!   non-empty, along out- or in-edges. The memoised rows of `BfsOracle`, the
//!   four rows a 2-hop deletion takes around its edge and the diagonals it
//!   recomputes are this one function; so is the per-row reference the
//!   matrix tests hold the build against (`DistanceMatrix::rebuild_row`).
//! * [`pruned_bfs`] — a BFS whose caller decides, node by node, whether the
//!   search labels the node and continues through it. The sequential 2-hop
//!   build, the bit-parallel build's phase-B replay and the insertion
//!   repair's resumed searches differ in that decision only.
//! * [`multi_bfs`] — up to 64 searches at once, standard or non-empty: a
//!   level-synchronous BFS that carries its roots as one frontier *word* per
//!   node (Then et al., "The More the Merrier", VLDB 2014) and reports
//!   arrivals instead of filling rows, so that roots which walk the same
//!   part of the graph scan its edges once. Its caller decides, per node,
//!   which of the roots that arrived continue — [`pruned_bfs`]'s decision,
//!   one bit per root. Three callers: the matrix build takes every row from
//!   it, 64 consecutive sources to a pass (non-empty, arrivals written
//!   straight into the rows); a 2-hop deletion the rows of its affected
//!   rectangle (standard, kept at the rectangle's columns) — both let every
//!   root continue; and phase A of the bit-parallel 2-hop build (`two_hop.rs`)
//!   its pruned searches, one scan of a node's label list resolving every
//!   root that arrived there.
//!
//! # The horizon
//!
//! Distances are stored as `u16` with [`UNREACHABLE`] (65 535) meaning "no
//! path", so the largest finite stored distance is [`HORIZON`] (65 534).
//! No kernel expands a node at the horizon, and every sum of stored
//! distances goes through [`path_sum`] or [`hop_sum`], which clamp there.
//! The contract that follows, and that the kernel tests pin: **a node
//! farther than `HORIZON` hops is reported unreachable by every back-end;
//! no BFS wraps** — and no sum of two finite distances collides with the
//! sentinel. Because the back-ends take their rows from the same functions
//! they cannot clamp differently.

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

/// The scratch of [`multi_bfs`], sized by `|V|` on first use; all-zero
/// between passes (reset through the lists of what a pass reached, so a pass
/// costs what it reaches).
#[derive(Default)]
pub(crate) struct MultiBfs {
    /// The roots, one bit each, that have reached the node.
    seen: Vec<u64>,
    /// The roots that reach the node on the current level / on the next.
    level: Vec<u64>,
    next: Vec<u64>,
    /// The nodes with a bit in `seen` / in `level` / in `next`.
    seen_list: Vec<NodeId>,
    level_list: Vec<NodeId>,
    next_list: Vec<NodeId>,
}

impl MultiBfs {
    /// Marks `roots` as arriving at `w` on the next level.
    #[inline]
    fn reach(&mut self, w: NodeId, roots: u64) {
        if self.seen[w.index()] == 0 {
            self.seen_list.push(w);
        }
        if self.next[w.index()] == 0 {
            self.next_list.push(w);
        }
        self.seen[w.index()] |= roots;
        self.next[w.index()] |= roots;
    }
}

/// BFS from every one of `roots` (at most 64) along `direction` at once:
/// `arrive(v, mask, d)` is called once per node and level with the roots —
/// bit `j` of `mask` is `roots[j]` — whose distance to `v` is `d`, and
/// returns the roots of `mask` that continue through `v`. A root it leaves
/// out is pruned at `v` as [`pruned_bfs`] prunes a refused node: reported
/// there, expanded no further from there. So each root's bit runs one pruned
/// search, and a caller that prunes nothing returns `mask`. What is never
/// reported is unreachable (past the root's prunes), or farther than
/// [`HORIZON`]. A repeated root is two bits that travel together.
///
/// As in [`bfs_row`], a standard pass reports each root at itself at 0; a
/// `nonempty` pass starts with each root's neighbours at 1 and does not mark
/// the root as seen at itself, so a root on a cycle is reported at itself
/// with the length of its shortest cycle.
pub(crate) fn multi_bfs<G: Adjacency>(
    g: &G,
    roots: &[NodeId],
    direction: Direction,
    nonempty: bool,
    ws: &mut MultiBfs,
    mut arrive: impl FnMut(NodeId, u64, u16) -> u64,
) {
    assert!(roots.len() <= 64, "one frontier bit per root");
    ws.seen.resize(g.node_count(), 0);
    ws.level.resize(g.node_count(), 0);
    ws.next.resize(g.node_count(), 0);
    for (j, &root) in roots.iter().enumerate() {
        if nonempty {
            for &w in direction.neighbours(g, root) {
                ws.reach(w, 1 << j);
            }
        } else {
            ws.reach(root, 1 << j);
        }
    }
    let mut d = u16::from(nonempty);
    while !ws.next_list.is_empty() {
        // The next level becomes the current one; what was current is
        // all-zero and empty again.
        std::mem::swap(&mut ws.level, &mut ws.next);
        std::mem::swap(&mut ws.level_list, &mut ws.next_list);
        let mut level_list = std::mem::take(&mut ws.level_list);
        for v in level_list.drain(..) {
            let roots = std::mem::take(&mut ws.level[v.index()]);
            let go = arrive(v, roots, d);
            debug_assert_eq!(go & !roots, 0, "only a root that arrived continues");
            if go == 0 || d >= HORIZON {
                continue; // pruned, or the horizon: saturate, never wrap
            }
            for &w in direction.neighbours(g, v) {
                let new = go & !ws.seen[w.index()];
                if new != 0 {
                    ws.reach(w, new);
                }
            }
        }
        ws.level_list = level_list;
        d = d.saturating_add(1);
    }
    for v in ws.seen_list.drain(..) {
        ws.seen[v.index()] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_datagen::adversarial::{bowtie, cliques_with_bridges, deep_chain, grid, star};
    use gpm_datagen::{powerlaw_graph, random_graph, PowerLawConfig, RandomGraphConfig};
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

    /// The row of what one standard [`pruned_bfs`] from `start` hands to
    /// its callback, which takes the nodes `keep` holds and refuses the
    /// rest; checks that no node is handed over twice and that the scratch
    /// comes back clean.
    fn reported_row<G: Adjacency>(
        g: &G,
        start: NodeId,
        direction: Direction,
        keep: impl Fn(NodeId) -> bool,
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
                row[v.index()] = d;
                keep(v)
            },
        );
        assert!(
            dist.iter().all(|&d| d == UNREACHABLE),
            "scratch not restored"
        );
        row
    }

    /// The standard row [`pruned_bfs`] labels when `keep` refuses `refuse`
    /// and nothing else.
    fn pruned_row<G: Adjacency>(
        g: &G,
        start: NodeId,
        direction: Direction,
        refuse: Option<NodeId>,
    ) -> Vec<u16> {
        let mut row = reported_row(g, start, direction, |v| Some(v) != refuse);
        if let Some(v) = refuse {
            row[v.index()] = UNREACHABLE;
        }
        row
    }

    /// The rows [`multi_bfs`] reports for `roots`, one per root (repeats
    /// included), when root `r` continues through `v` iff `keep(r, v)`;
    /// checks that no `(root, node)` is reported twice and that the scratch
    /// comes back clean.
    fn pruned_multi_rows<G: Adjacency>(
        g: &G,
        roots: &[NodeId],
        direction: Direction,
        nonempty: bool,
        ws: &mut MultiBfs,
        keep: impl Fn(NodeId, NodeId) -> bool,
    ) -> Vec<Vec<u16>> {
        let mut rows = vec![vec![UNREACHABLE; g.node_count()]; roots.len()];
        multi_bfs(g, roots, direction, nonempty, ws, |v, arrived, d| {
            assert_ne!(arrived, 0, "{v} reported for no root");
            let (mut bits, mut go) = (arrived, 0);
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slot = &mut rows[j][v.index()];
                assert_eq!(*slot, UNREACHABLE, "root {j} reported at {v} twice");
                *slot = d;
                if keep(roots[j], v) {
                    go |= 1 << j;
                }
            }
            go
        });
        let words = ws.seen.iter().chain(&ws.level).chain(&ws.next);
        assert!(words.copied().all(|word| word == 0), "scratch not restored");
        assert!(ws.seen_list.is_empty() && ws.level_list.is_empty() && ws.next_list.is_empty());
        rows
    }

    /// [`pruned_multi_rows`] with every root continuing everywhere.
    fn multi_rows<G: Adjacency>(
        g: &G,
        roots: &[NodeId],
        direction: Direction,
        nonempty: bool,
        ws: &mut MultiBfs,
    ) -> Vec<Vec<u16>> {
        pruned_multi_rows(g, roots, direction, nonempty, ws, |_, _| true)
    }

    /// 1, 2, 63 and 64 roots spread over a graph of `n_nodes` nodes, and a
    /// set with a repeated root.
    fn root_sets(n_nodes: usize) -> Vec<Vec<NodeId>> {
        let spread =
            |k: usize| -> Vec<NodeId> { (0..k).map(|i| n((i * 7 % n_nodes) as u32)).collect() };
        let mut root_sets: Vec<Vec<NodeId>> = [1, 2, 63, 64].map(spread).into();
        root_sets.push(vec![n(0), n(n_nodes as u32 - 1), n(0)]);
        root_sets
    }

    /// Every root's row ≡ [`bfs_row`], standard and non-empty, both
    /// directions, for every set of [`root_sets`].
    fn assert_multi_matches_rows(g: &DataGraph, name: &str) {
        // One scratch for all of it: a pass must leave nothing behind.
        let mut ws = MultiBfs::default();
        for roots in &root_sets(g.node_count()) {
            for (direction, nonempty) in [
                (Forward, false),
                (Backward, false),
                (Forward, true),
                (Backward, true),
            ] {
                let rows = multi_rows(g, roots, direction, nonempty, &mut ws);
                for (j, &root) in roots.iter().enumerate() {
                    assert_eq!(
                        rows[j],
                        distance_row(g, root, direction, nonempty),
                        "{name}: root {j} = {root} of {}, {direction:?}, nonempty = {nonempty}",
                        roots.len()
                    );
                }
            }
        }
    }

    /// Each root refuses a seeded share (1/8 to 4/8) of the nodes, its own
    /// choice per node: for every set of [`root_sets`] and both directions,
    /// the `(root, node, distance)` triples [`multi_bfs`] reports are those
    /// of one [`pruned_bfs`] per root that refuses the same nodes.
    fn assert_multi_prunes_like_pruned_bfs(g: &DataGraph, name: &str, seed: u64) {
        let share = seed % 4 + 1;
        let keep = |root: NodeId, v: NodeId| {
            // SplitMix64's finaliser over (seed, root, node).
            let mut h = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ ((root.index() as u64) << 32 | v.index() as u64);
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (h ^ (h >> 31)) % 8 >= share
        };
        let mut ws = MultiBfs::default();
        for roots in &root_sets(g.node_count()) {
            for direction in [Forward, Backward] {
                let rows = pruned_multi_rows(g, roots, direction, false, &mut ws, keep);
                for (j, &root) in roots.iter().enumerate() {
                    assert_eq!(
                        rows[j],
                        reported_row(g, root, direction, |v| keep(root, v)),
                        "{name}, seed {seed}: root {j} = {root} of {}, {direction:?}",
                        roots.len()
                    );
                }
            }
        }
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
    fn multi_bfs_rows_match_bfs_row_on_random_and_power_law_graphs() {
        for seed in 0..6 {
            let g = random_graph(&RandomGraphConfig::new(90, 240, 3).with_seed(seed));
            assert_multi_matches_rows(&g, &format!("random, seed {seed}"));
            let g = powerlaw_graph(&PowerLawConfig::new(120, 400).with_seed(seed));
            assert_multi_matches_rows(&g, &format!("power-law, seed {seed}"));
        }
    }

    #[test]
    fn multi_bfs_rows_match_bfs_row_on_every_adversarial_topology() {
        assert_multi_matches_rows(&star(70), "star");
        assert_multi_matches_rows(&deep_chain(150), "deep_chain");
        assert_multi_matches_rows(&grid(9, 11), "grid");
        assert_multi_matches_rows(&cliques_with_bridges(5, 14), "cliques_with_bridges");
        assert_multi_matches_rows(&bowtie(40), "bowtie");
    }

    #[test]
    fn multi_bfs_prunes_each_root_like_one_pruned_bfs_per_root() {
        for seed in 0..6 {
            let g = random_graph(&RandomGraphConfig::new(90, 240, 3).with_seed(seed));
            assert_multi_prunes_like_pruned_bfs(&g, "random", seed);
            let g = powerlaw_graph(&PowerLawConfig::new(120, 400).with_seed(seed));
            assert_multi_prunes_like_pruned_bfs(&g, "power-law", seed);
        }
        for seed in 0..4 {
            assert_multi_prunes_like_pruned_bfs(&star(70), "star", seed);
            assert_multi_prunes_like_pruned_bfs(&deep_chain(150), "deep_chain", seed);
            assert_multi_prunes_like_pruned_bfs(&grid(9, 11), "grid", seed);
            let g = cliques_with_bridges(5, 14);
            assert_multi_prunes_like_pruned_bfs(&g, "cliques_with_bridges", seed);
            assert_multi_prunes_like_pruned_bfs(&bowtie(40), "bowtie", seed);
        }
    }

    #[test]
    fn multi_bfs_repeated_root_travels_as_two_bits_and_strangers_never_meet() {
        // 0 → 1 → 2 and, apart from it, 3 → 4: roots 0, 3, 0.
        let g = DataGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let u = UNREACHABLE;
        let roots = [n(0), n(3), n(0)];
        let arrivals = |nonempty: bool| {
            let mut arrivals = Vec::new();
            let ws = &mut MultiBfs::default();
            multi_bfs(&g, &roots, Forward, nonempty, ws, |v, m, d| {
                arrivals.push((v, m, d));
                m
            });
            arrivals.sort_unstable();
            arrivals
        };
        assert_eq!(
            arrivals(false),
            [
                (n(0), 0b101, 0),
                (n(1), 0b101, 1),
                (n(2), 0b101, 2),
                (n(3), 0b010, 0),
                (n(4), 0b010, 1)
            ]
        );
        // Non-empty: the same without the roots at themselves.
        assert_eq!(
            arrivals(true),
            [(n(1), 0b101, 1), (n(2), 0b101, 2), (n(4), 0b010, 1)]
        );
        let rows = multi_rows(&g, &roots, Backward, false, &mut MultiBfs::default());
        assert_eq!(rows, [[0, u, u, u, u], [u, u, u, 0, u], [0, u, u, u, u]]);
        let rows = multi_rows(&g, &roots, Backward, true, &mut MultiBfs::default());
        assert_eq!(rows, [[u; 5]; 3]);
        // No roots: no arrivals.
        for nonempty in [false, true] {
            let ws = &mut MultiBfs::default();
            multi_bfs(&g, &[], Forward, nonempty, ws, |_, _, _| {
                panic!("arrival without a root")
            });
        }
    }

    #[test]
    fn multi_bfs_nonempty_reports_a_root_on_a_cycle_at_its_shortest_cycle() {
        // 0 → 1 → 2 → 0, the loop 3 → 3, and 4 → 0 on no cycle.
        let g = DataGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 3), (4, 0)]).unwrap();
        let u = UNREACHABLE;
        let roots = [n(0), n(3), n(4), n(2)];
        let rows = multi_rows(&g, &roots, Forward, true, &mut MultiBfs::default());
        assert_eq!(
            rows,
            [
                [3, 1, 2, u, u],
                [u, u, u, 1, u],
                [1, 2, 3, u, u],
                [1, 2, 3, u, u]
            ]
        );
    }

    #[test]
    fn horizon_multi_bfs_saturates_like_bfs_row_and_never_wraps() {
        let g = deep_chain(CHAIN);
        let tail = CHAIN as u32 - 1;
        let mut ws = MultiBfs::default();
        // Roots whose horizons end at different nodes of the chain; the
        // third is near enough to the far end to reach it.
        for (roots, direction) in [
            ([n(0), n(1), n(70)], Forward),
            ([n(tail), n(tail - 1), n(tail - 70)], Backward),
        ] {
            let rows = multi_rows(&g, &roots, direction, false, &mut ws);
            for (row, root) in rows.iter().zip(roots) {
                assert_eq!(*row, distance_row(&g, root, direction, false));
            }
            let at_horizon = |row: &Vec<u16>| row.iter().filter(|&&d| d == HORIZON).count();
            assert_eq!(rows.iter().map(at_horizon).collect::<Vec<_>>(), [1, 1, 0]);
        }
        let rows = multi_rows(&g, &[n(0), n(1)], Forward, false, &mut ws);
        let around_the_horizon = |row: &[u16]| (row[65_534], row[65_535], row[65_536]);
        assert_eq!(
            around_the_horizon(&rows[0]),
            (65_534, UNREACHABLE, UNREACHABLE)
        );
        assert_eq!(around_the_horizon(&rows[1]), (65_533, 65_534, UNREACHABLE));
    }

    #[test]
    fn horizon_multi_bfs_cycle_longer_than_the_horizon_has_no_diagonal() {
        // The chain closed into one cycle of CHAIN hops: every node reaches
        // every other, but its own shortest cycle lies past the horizon.
        let mut g = deep_chain(CHAIN);
        let tail = CHAIN as u32 - 1;
        g.add_edge(n(tail), n(0)).unwrap();
        let mut ws = MultiBfs::default();
        let roots = [n(0), n(1), n(tail), n(40_000)];
        for direction in [Forward, Backward] {
            let rows = multi_rows(&g, &roots, direction, true, &mut ws);
            for (row, root) in rows.iter().zip(roots) {
                assert_eq!(*row, distance_row(&g, root, direction, true));
                assert_eq!(row[root.index()], UNREACHABLE, "diagonal of {root}");
                // Exactly the HORIZON nodes ahead of the root are reached,
                // once each: 1, 2, …, HORIZON, and nothing wraps to a small
                // distance.
                let finite = row.iter().filter(|&&d| d != UNREACHABLE);
                assert_eq!(finite.clone().count(), usize::from(HORIZON));
                assert_eq!(finite.clone().min(), Some(&1));
                assert_eq!(finite.max(), Some(&HORIZON));
            }
        }
        // The far side of root 0's horizon, going forward.
        let rows = multi_rows(&g, &[n(0)], Forward, true, &mut ws);
        assert_eq!(
            (rows[0][65_534], rows[0][65_535], rows[0][0]),
            (65_534, UNREACHABLE, UNREACHABLE)
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
