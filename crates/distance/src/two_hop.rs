//! 2-hop (hub) labeling — the "2-hop" variant of Exp-2.
//!
//! The paper's 2-hop variant of `Match` uses the reachability labels of
//! Cohen et al. / Cheng et al. as a *filter*: if the labels show that `x`
//! cannot reach `y` at all, the pair is discarded in constant time; otherwise
//! a BFS computes the exact distance (appendix, "2-hop labeling").
//!
//! Constructing a minimum 2-hop cover is NP-hard, so this implementation
//! substitutes a **pruned landmark labeling**
//! (degree-descending landmark order, pruned forward/backward BFS). The
//! result is a correct, exact 2-hop distance/reachability labeling with the
//! same query interface; only the cover-construction heuristic differs from
//! the cited work.
//!
//! Both builds run their pruned searches on the crate's BFS kernels
//! (`bfs.rs`) and supply the prune test only: the sequential reference a
//! label merge-join per popped node (`pruned_bfs`); the bit-parallel build's
//! phase A one label scan per node for every root that arrived there
//! (`multi_bfs`, the kernel the matrix build runs on), and its phase-B replay
//! a cached phase-A value plus an intra-batch term (`pruned_bfs`).
//!
//! [`TwoHopOracle`] stays a filter in front of a BFS although the labels
//! alone give exact distances ([`TwoHopIndex::nonempty_distance`], which
//! `IncrementalTwoHop` answers from): it is the paper's Fig. 6(f)–(h) "2-hop"
//! variant, whose curve measures exactly that filter-then-BFS cost, and it
//! already holds the one `TwoHopIndex` of the crate. Answering from the
//! labels would change what that curve measures.

use crate::bfs::{hop_sum, multi_bfs, path_sum, pruned_bfs, Direction, MultiBfs};
use crate::oracle::DistanceQuery;
use crate::UNREACHABLE;
use gpm_exec::Executor;
use gpm_graph::{DataGraph, NodeId};
use std::collections::VecDeque;

/// A hub label entry: `(hub rank, distance in hops)`.
pub(crate) type LabelEntry = (u32, u16);

/// An exact 2-hop distance/reachability labeling of a data graph.
///
/// For every node `v` the index stores
/// * `label_out(v)`: hubs `h` reachable *from* `v`, with `dist(v → h)`;
/// * `label_in(v)`: hubs `h` that reach `v`, with `dist(h → v)`.
///
/// `dist(x, y) = min over common hubs h of dist(x → h) + dist(h → y)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TwoHopIndex {
    /// Outgoing hub labels per node, sorted by hub rank.
    pub(crate) label_out: Vec<Vec<LabelEntry>>,
    /// Incoming hub labels per node, sorted by hub rank.
    pub(crate) label_in: Vec<Vec<LabelEntry>>,
    /// Non-empty distance from each node to itself (shortest cycle length).
    pub(crate) diagonal: Vec<u16>,
    /// Hub rank → node: the landmark order the build processed, rank 0 first.
    pub(crate) hubs_by_rank: Vec<NodeId>,
}

impl TwoHopIndex {
    /// Builds the labeling for `g`.
    ///
    /// Landmarks are processed in descending total-degree order, which keeps
    /// label sizes small on the skewed-degree graphs of the evaluation.
    pub fn build(g: &DataGraph) -> Self {
        Self::build_with(g, &Executor::from_env())
    }

    /// Builds the labeling on the shared executor.
    ///
    /// Landmarks are processed in rank batches of 64 roots
    /// (see [`build_batched`](Self::build_batched)): each batch's pruned
    /// BFSes run word-parallel (one bit per root) and concurrently across the
    /// workers, and a sequential rank-order replay commits labels that are
    /// bit-identical to [`build_sequential`](Self::build_sequential).
    pub fn build_with(g: &DataGraph, exec: &Executor) -> Self {
        Self::build_batched(g, exec, DEFAULT_BATCH)
    }

    /// Reference construction: one pruned BFS pair per landmark, strictly in
    /// rank order, pruning against the labels of every higher-ranked hub.
    ///
    /// This is the semantics every other construction path must reproduce
    /// bit for bit; the differential suite pins
    /// [`build_batched`](Self::build_batched) against it.
    pub fn build_sequential(g: &DataGraph) -> Self {
        let n = g.node_count();
        let order = landmark_order(g);
        let mut label_out: Vec<Vec<LabelEntry>> = vec![Vec::new(); n];
        let mut label_in: Vec<Vec<LabelEntry>> = vec![Vec::new(); n];

        // Scratch buffers reused across landmarks.
        let mut dist = vec![UNREACHABLE; n];
        let mut queue = VecDeque::new();

        for (rank, &hub) in order.iter().enumerate() {
            let (rank, h) = (rank as u32, hub.index());
            // Forward labels `label_in` of the nodes the hub reaches, then
            // backward `label_out` of the nodes reaching it. A label is
            // committed as its node is popped: the prune test at `v` reads
            // the lists of `v` (popped once) and of the hub's other side
            // (not written by this pass) only.
            for direction in [Direction::Forward, Direction::Backward] {
                pruned_bfs(g, hub, 0, direction, &mut dist, &mut queue, |v, d| {
                    let v = v.index();
                    let (already, labels) = match direction {
                        Direction::Forward => {
                            (merge_min(&label_out[h], &label_in[v]), &mut label_in)
                        }
                        Direction::Backward => {
                            (merge_min(&label_out[v], &label_in[h]), &mut label_out)
                        }
                    };
                    // Prune if labels from higher-ranked hubs already
                    // certify `<= d`.
                    if already <= d {
                        return false;
                    }
                    labels[v].push((rank, d));
                    true
                });
            }
        }

        Self::with_diagonal(g, label_out, label_in, order)
    }

    /// Rank-batched, bit-parallel construction.
    ///
    /// Landmarks are processed in batches of `batch_size` (clamped to
    /// `1..=64`) consecutive ranks. Each batch runs in two phases:
    ///
    /// 1. **Phase A** (parallel): per direction, one word-parallel BFS
    ///    (the crate's multi-source kernel) carries a group of the batch's
    ///    roots as bits of a `u64` frontier mask, pruning each root's bit
    ///    against the labels committed by *earlier batches* only. The prune
    ///    value computed for every (root, node) visit is cached, replacing
    ///    the sequential build's per-pop label merge-join with a dense table
    ///    lookup shared across up to 64 roots. Roots are split into contiguous groups, one
    ///    `gpm-exec` item each.
    /// 2. **Phase B** (sequential): the batch's pruned BFSes are replayed in
    ///    exact rank order, with the prune test assembled from the cached
    ///    phase-A value plus the intra-batch term over the labels committed
    ///    by lower-ranked same-batch roots. This reproduces the sequential
    ///    prune decisions exactly, so the committed labels — and hence the
    ///    whole index — are **bit-identical** to
    ///    [`build_sequential`](Self::build_sequential) for every batch size
    ///    and thread count.
    ///
    /// Phase A may visit nodes phase B prunes (it prunes against strictly
    /// fewer labels), and every node phase B visits was visited by phase A at
    /// an equal or smaller depth — which is what makes the cached prune
    /// values safe to reuse.
    pub fn build_batched(g: &DataGraph, exec: &Executor, batch_size: usize) -> Self {
        let n = g.node_count();
        let b = batch_size.clamp(1, 64);
        let order = landmark_order(g);
        let mut label_out: Vec<Vec<LabelEntry>> = vec![Vec::new(); n];
        let mut label_in: Vec<Vec<LabelEntry>> = vec![Vec::new(); n];

        let n_groups = exec.threads().clamp(1, b);
        let group_cap = b.div_ceil(n_groups);
        let mut groups: Vec<GroupScratch> = (0..n_groups)
            .map(|_| GroupScratch::new(n, group_cap))
            .collect();

        // Labels committed by the current batch, dense per (node, batch-local
        // root): `bd_fwd[v * b + j]` mirrors the rank-`(base + j)` entry of
        // `label_in[v]` (forward commits), `bd_bwd` the `label_out[v]` entry
        // (backward commits). `UNREACHABLE` = no label; reset via the touched
        // lists after every batch.
        let mut bd_fwd = vec![UNREACHABLE; n * b];
        let mut bd_bwd = vec![UNREACHABLE; n * b];
        let mut touched_fwd: Vec<usize> = Vec::new();
        let mut touched_bwd: Vec<usize> = Vec::new();

        let mut dist = vec![UNREACHABLE; n];
        let mut queue = VecDeque::new();
        let mut hub_side: Vec<(usize, u16)> = Vec::with_capacity(b);

        let mut base = 0usize;
        while base < n {
            let len = b.min(n - base);
            let roots = &order[base..base + len];
            let gw = len.div_ceil(n_groups);

            // Phase A: one item per non-empty root group, both directions.
            // A handful of heavy items: the hint says fan out regardless.
            exec.for_each_mut(&mut groups[..len.div_ceil(gw)], usize::MAX, |gi, group| {
                let roots = &roots[gi * gw..((gi + 1) * gw).min(len)];
                group.phase_a(g, roots, Direction::Forward, &label_out, &label_in);
                group.phase_a(g, roots, Direction::Backward, &label_out, &label_in);
            });

            // Phase B: exact replay in rank order — the traversal of the
            // sequential build, with the label merge-join replaced by the
            // cached phase-A prune value plus the intra-batch term over the
            // same-batch labels committed so far.
            for j in 0..len {
                let rank = (base + j) as u32;
                let hub = roots[j];
                let grp = &groups[j / gw];
                let jl = j % gw;
                // Forward commits `label_in`; its intra-batch term runs over
                // common hubs base..base+j — hub-side distances from backward
                // commits, node-side from forward commits. Backward is the
                // mirror image. (The root's own fresh forward label is rank
                // base+j on the in-side only, so it never joins.)
                for direction in [Direction::Forward, Direction::Backward] {
                    let (already, hub_bd, node_bd, touched, labels) = match direction {
                        Direction::Forward => (
                            &grp.already_fwd,
                            &bd_bwd,
                            &mut bd_fwd,
                            &mut touched_fwd,
                            &mut label_in,
                        ),
                        Direction::Backward => (
                            &grp.already_bwd,
                            &bd_fwd,
                            &mut bd_bwd,
                            &mut touched_bwd,
                            &mut label_out,
                        ),
                    };
                    let already = &already[jl * n..(jl + 1) * n];
                    // The finite hub-side distances per lower local rank.
                    hub_side.clear();
                    let hub_row = &hub_bd[hub.index() * b..hub.index() * b + j];
                    for (j2, &dh) in hub_row.iter().enumerate() {
                        if dh != UNREACHABLE {
                            hub_side.push((j2, dh));
                        }
                    }
                    pruned_bfs(g, hub, 0, direction, &mut dist, &mut queue, |v, d| {
                        // Every node popped here was visited by phase A at
                        // depth <= d, so the cached slot is fresh; the stored
                        // value prunes identically to the full pre-batch
                        // merge-join (an early-terminated value is only ever
                        // `<= the phase-A depth <= d`, which decides the same
                        // way).
                        let mut best = already[v.index()];
                        let row = v.index() * b;
                        if best > d {
                            for &(j2, dh) in &hub_side {
                                let dn = node_bd[row + j2];
                                if dn != UNREACHABLE {
                                    let sum = path_sum(dh, dn);
                                    if sum < best {
                                        best = sum;
                                        if sum <= d {
                                            break;
                                        }
                                    }
                                }
                            }
                        }
                        if best <= d {
                            return false;
                        }
                        // Commit as the sequential build does; slot `j` of a
                        // row is never read back by this root's own replay.
                        labels[v.index()].push((rank, d));
                        node_bd[row + j] = d;
                        touched.push(row + j);
                        true
                    });
                }
            }

            for &slot in &touched_fwd {
                bd_fwd[slot] = UNREACHABLE;
            }
            touched_fwd.clear();
            for &slot in &touched_bwd {
                bd_bwd[slot] = UNREACHABLE;
            }
            touched_bwd.clear();
            base += len;
        }

        Self::with_diagonal(g, label_out, label_in, order)
    }

    /// Finishes an index from committed labels: the non-empty diagonal (the
    /// shortest cycle through `v` is `1 + min over out-neighbours s of
    /// dist(s, v)`) is pure label queries, one pass over the nodes on the
    /// caller thread.
    fn with_diagonal(
        g: &DataGraph,
        label_out: Vec<Vec<LabelEntry>>,
        label_in: Vec<Vec<LabelEntry>>,
        hubs_by_rank: Vec<NodeId>,
    ) -> Self {
        let mut index = TwoHopIndex {
            label_out,
            label_in,
            diagonal: Vec::new(),
            hubs_by_rank,
        };
        index.diagonal = g
            .nodes()
            .map(|v| {
                let mut best = UNREACHABLE;
                for &s in g.out_neighbors(v) {
                    let d = if s == v {
                        0 // self-loop: cycle of length 1
                    } else {
                        index.standard_distance_raw(s, v)
                    };
                    if d != UNREACHABLE {
                        best = best.min(hop_sum(0, d));
                    }
                }
                best
            })
            .collect();
        index
    }

    /// Standard distance (diagonal 0) between two nodes, `None` if `y` is not
    /// reachable from `x`.
    pub fn standard_distance(&self, x: NodeId, y: NodeId) -> Option<u32> {
        match self.standard_distance_raw(x, y) {
            UNREACHABLE => None,
            d => Some(u32::from(d)),
        }
    }

    /// Non-empty distance between two nodes (diagonal = shortest cycle).
    pub fn nonempty_distance(&self, x: NodeId, y: NodeId) -> Option<u32> {
        match self.nonempty_raw(x, y) {
            UNREACHABLE => None,
            d => Some(u32::from(d)),
        }
    }

    /// Whether a non-empty path from `x` to `y` exists, answered from the
    /// labels alone (the "filter" the paper describes).
    pub fn reachable(&self, x: NodeId, y: NodeId) -> bool {
        self.nonempty_raw(x, y) != UNREACHABLE
    }

    /// Total number of label entries (a proxy for index size).
    pub fn label_entries(&self) -> usize {
        self.label_out.iter().map(Vec::len).sum::<usize>()
            + self.label_in.iter().map(Vec::len).sum::<usize>()
    }

    pub(crate) fn standard_distance_raw(&self, x: NodeId, y: NodeId) -> u16 {
        if x == y {
            return 0;
        }
        merge_min(&self.label_out[x.index()], &self.label_in[y.index()])
    }

    /// Raw non-empty distance (diagonal = shortest cycle), `UNREACHABLE` = ∅.
    pub(crate) fn nonempty_raw(&self, x: NodeId, y: NodeId) -> u16 {
        if x == y {
            self.diagonal[x.index()]
        } else {
            self.standard_distance_raw(x, y)
        }
    }
}

/// Merge-join of two rank-sorted label lists, returning the minimal distance
/// sum over common hubs.
///
/// Label entries are always finite, but the *sum* of two saturated entries
/// can hit `UNREACHABLE` exactly — that would conflate a very long path with
/// the ∅ ("no path") sentinel, so the sum is clamped to the horizon
/// ([`path_sum`]), the saturation convention of every back-end.
pub(crate) fn merge_min(out: &[LabelEntry], inc: &[LabelEntry]) -> u16 {
    let mut best = UNREACHABLE;
    let (mut i, mut j) = (0, 0);
    while i < out.len() && j < inc.len() {
        match out[i].0.cmp(&inc[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                best = best.min(path_sum(out[i].1, inc[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    best
}

/// Default number of same-batch roots packed into one word-parallel BFS
/// frontier (one bit per root; the word is a `u64`).
pub(crate) const DEFAULT_BATCH: usize = 64;

/// The landmark order of both builds, rank 0 first: descending total degree,
/// ties by node id.
fn landmark_order(g: &DataGraph) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(g.total_degree(v)), v));
    order
}

/// Per-group scratch for the batched construction, persistent across batches
/// (every buffer is reset through a touched list, never reallocated).
struct GroupScratch {
    n: usize,
    /// Row capacity: max roots this group handles per batch.
    cap: usize,
    /// The word-parallel pruned search of phase A.
    bfs: MultiBfs,
    /// Dense hub-side label table: `tmp[rank * cap + j]` = pre-batch
    /// `label_out`/`label_in` entry of root `j`'s hub for `rank`.
    tmp: Vec<u16>,
    tmp_touched: Vec<usize>,
    /// Cached phase-A prune values, `already_*[j * n + v]`; only slots the
    /// phase-A BFS visited this batch are ever read back, so no reset.
    already_fwd: Vec<u16>,
    already_bwd: Vec<u16>,
}

impl GroupScratch {
    fn new(n: usize, cap: usize) -> Self {
        GroupScratch {
            n,
            cap,
            bfs: MultiBfs::default(),
            tmp: vec![UNREACHABLE; n * cap],
            tmp_touched: Vec::new(),
            already_fwd: vec![0; n * cap],
            already_bwd: vec![0; n * cap],
        }
    }

    /// Phase A: word-parallel pruned BFS for this group's `roots`, pruning
    /// against the labels committed by earlier batches only. Caches the
    /// computed prune value for every (root, node) visit in `already_fwd` /
    /// `already_bwd`. A root's bit stops expanding as soon as its prune value
    /// resolves to `<= depth`, exactly like the sequential prune — except
    /// that the intra-batch label term is deferred to phase B.
    fn phase_a(
        &mut self,
        g: &DataGraph,
        roots: &[NodeId],
        direction: Direction,
        label_out: &[Vec<LabelEntry>],
        label_in: &[Vec<LabelEntry>],
    ) {
        let (n, cap) = (self.n, self.cap);
        debug_assert!(roots.len() <= cap);

        // Dense hub-side table: one column per root, rows indexed by the
        // pre-batch rank of the joining hub.
        for (j, &hub) in roots.iter().enumerate() {
            let hub_labels = match direction {
                Direction::Forward => &label_out[hub.index()],
                Direction::Backward => &label_in[hub.index()],
            };
            for &(r, d) in hub_labels {
                let slot = r as usize * cap + j;
                self.tmp[slot] = d;
                self.tmp_touched.push(slot);
            }
        }

        let tmp = &self.tmp;
        let already = match direction {
            Direction::Forward => &mut self.already_fwd,
            Direction::Backward => &mut self.already_bwd,
        };
        multi_bfs(
            g,
            roots,
            direction,
            false,
            &mut self.bfs,
            |v, arrived, d| {
                let v = v.index();
                let node_labels = match direction {
                    Direction::Forward => &label_in[v],
                    Direction::Backward => &label_out[v],
                };
                // One scan of the node-side label list serves every root bit
                // that arrived at this level; a bit leaves the alive mask as
                // soon as a common-hub sum resolves it as pruned, and the bits
                // still alive after the scan are the roots that continue.
                let mut cur = [UNREACHABLE; 64];
                let mut alive = arrived;
                'scan: for &(r, dv) in node_labels {
                    let row = r as usize * cap;
                    let mut bits = alive;
                    while bits != 0 {
                        let j = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let t = tmp[row + j];
                        if t != UNREACHABLE {
                            let sum = path_sum(t, dv);
                            if sum < cur[j] {
                                cur[j] = sum;
                                if sum <= d {
                                    alive &= !(1u64 << j);
                                    if alive == 0 {
                                        break 'scan;
                                    }
                                }
                            }
                        }
                    }
                }
                let mut bits = arrived;
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    already[j * n + v] = cur[j];
                }
                alive
            },
        );

        for &slot in &self.tmp_touched {
            self.tmp[slot] = UNREACHABLE;
        }
        self.tmp_touched.clear();
    }
}

/// [`DistanceQuery`] built on a [`TwoHopIndex`], mirroring the paper's
/// implementation: labels answer the reachability filter, and a BFS computes
/// the exact distance only for reachable pairs.
#[derive(Debug)]
pub struct TwoHopOracle {
    index: TwoHopIndex,
    bfs: crate::bfs_oracle::BfsOracle,
}

impl TwoHopOracle {
    /// Builds the labeling for `g` and wraps it as an oracle.
    pub fn build(g: &DataGraph) -> Self {
        TwoHopOracle {
            index: TwoHopIndex::build(g),
            bfs: crate::bfs_oracle::BfsOracle::new(),
        }
    }

    /// Builds the labeling on the shared executor and wraps it as an oracle.
    pub fn build_with(g: &DataGraph, exec: &Executor) -> Self {
        TwoHopOracle {
            index: TwoHopIndex::build_with(g, exec),
            bfs: crate::bfs_oracle::BfsOracle::new(),
        }
    }

    /// The underlying labeling.
    pub fn index(&self) -> &TwoHopIndex {
        &self.index
    }
}

impl DistanceQuery for TwoHopOracle {
    fn nonempty_distance(&self, g: &DataGraph, from: NodeId, to: NodeId) -> Option<u32> {
        // Filter on the labels first: unreachable pairs never hit the BFS.
        if !self.index.reachable(from, to) {
            return None;
        }
        self.bfs.nonempty_distance(g, from, to)
    }

    fn name(&self) -> &'static str {
        "2-hop"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DistanceMatrix;
    use gpm_graph::EdgeBound;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn sample() -> DataGraph {
        // Two components: a cycle 0-1-2 with a tail to 3, and isolated 4 -> 5.
        let mut g = DataGraph::new();
        g.add_nodes(6);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(2), n(0)).unwrap();
        g.add_edge(n(2), n(3)).unwrap();
        g.add_edge(n(4), n(5)).unwrap();
        g
    }

    #[test]
    fn exact_distances_match_matrix() {
        let g = sample();
        let m = DistanceMatrix::build(&g);
        let idx = TwoHopIndex::build(&g);
        for x in g.nodes() {
            for y in g.nodes() {
                assert_eq!(
                    idx.nonempty_distance(x, y),
                    m.nonempty_distance(x, y),
                    "mismatch at ({x}, {y})"
                );
                assert_eq!(
                    idx.standard_distance(x, y),
                    m.standard_distance(x, y),
                    "standard mismatch at ({x}, {y})"
                );
            }
        }
    }

    #[test]
    fn reachability_filter() {
        let g = sample();
        let idx = TwoHopIndex::build(&g);
        assert!(idx.reachable(n(0), n(3)));
        assert!(!idx.reachable(n(3), n(0)));
        assert!(!idx.reachable(n(0), n(5)));
        assert!(idx.reachable(n(0), n(0))); // on a cycle
        assert!(!idx.reachable(n(3), n(3))); // not on a cycle
    }

    #[test]
    fn label_size_statistics() {
        let g = sample();
        let idx = TwoHopIndex::build(&g);
        assert!(idx.label_entries() > 0);
    }

    #[test]
    fn oracle_agrees_with_index() {
        let g = sample();
        let o = TwoHopOracle::build(&g);
        let m = DistanceMatrix::build(&g);
        for x in g.nodes() {
            for y in g.nodes() {
                assert_eq!(o.nonempty_distance(&g, x, y), m.nonempty_distance(x, y));
            }
        }
        assert!(o.within(&g, n(0), n(3), EdgeBound::Hops(3)));
        assert!(!o.within(&g, n(0), n(5), EdgeBound::Unbounded));
        assert_eq!(o.name(), "2-hop");
        assert!(o.index().reachable(n(0), n(1)));
    }

    #[test]
    fn empty_graph() {
        let g = DataGraph::new();
        let idx = TwoHopIndex::build(&g);
        assert_eq!(idx.label_entries(), 0);
    }

    #[test]
    fn isolated_nodes_from_declared_node_sets() {
        // Nodes declared with no incident edges (the `.attrs`-file case):
        // standard self-distance is 0, non-empty self-distance is ∅, and no
        // cross pair is reachable.
        let mut g = DataGraph::new();
        g.add_nodes(3);
        let idx = TwoHopIndex::build(&g);
        let m = DistanceMatrix::build(&g);
        for x in g.nodes() {
            assert_eq!(idx.standard_distance(x, x), Some(0));
            assert_eq!(idx.nonempty_distance(x, x), None);
            assert!(!idx.reachable(x, x));
            for y in g.nodes() {
                assert_eq!(idx.nonempty_distance(x, y), m.nonempty_distance(x, y));
                assert_eq!(idx.standard_distance(x, y), m.standard_distance(x, y));
                if x != y {
                    assert!(!idx.reachable(x, y));
                }
            }
        }
    }

    #[test]
    fn unreachable_pairs_are_none_not_huge() {
        // Across components both conventions must report ∅ (None), never a
        // saturated finite value.
        let g = sample();
        let idx = TwoHopIndex::build(&g);
        assert_eq!(idx.standard_distance(n(0), n(5)), None);
        assert_eq!(idx.nonempty_distance(n(0), n(5)), None);
        assert_eq!(idx.standard_distance(n(5), n(4)), None);
        // Within a component but against edge direction: also ∅.
        assert_eq!(idx.standard_distance(n(3), n(0)), None);
        assert_eq!(idx.nonempty_distance(n(3), n(0)), None);
    }

    #[test]
    fn saturated_label_sums_stay_finite() {
        // Two saturated-but-finite label entries must not sum to the ∅
        // sentinel: a very long path is still a path.
        let idx = TwoHopIndex {
            label_out: vec![vec![(0, UNREACHABLE - 1)], Vec::new()],
            label_in: vec![Vec::new(), vec![(0, UNREACHABLE - 1)]],
            diagonal: vec![UNREACHABLE, UNREACHABLE],
            hubs_by_rank: vec![n(0), n(1)],
        };
        assert_eq!(
            idx.standard_distance(n(0), n(1)),
            Some(u32::from(UNREACHABLE - 1))
        );
        assert_eq!(
            idx.nonempty_distance(n(0), n(1)),
            Some(u32::from(UNREACHABLE - 1))
        );
        assert!(idx.reachable(n(0), n(1)));
        // The diagonal honours the same convention.
        assert_eq!(idx.nonempty_distance(n(0), n(0)), None);
        assert!(!idx.reachable(n(0), n(0)));
    }

    #[test]
    fn self_distance_conventions_on_a_cycle() {
        let g = sample();
        let idx = TwoHopIndex::build(&g);
        // On the 0-1-2 cycle: standard diagonal is 0, non-empty is the cycle.
        assert_eq!(idx.standard_distance(n(0), n(0)), Some(0));
        assert_eq!(idx.nonempty_distance(n(0), n(0)), Some(3));
        // Off the cycle: standard 0, non-empty ∅.
        assert_eq!(idx.standard_distance(n(3), n(3)), Some(0));
        assert_eq!(idx.nonempty_distance(n(3), n(3)), None);
    }

    #[test]
    fn self_loop_diagonal() {
        let mut g = DataGraph::new();
        g.add_nodes(2);
        g.add_edge(n(0), n(0)).unwrap();
        g.add_edge(n(0), n(1)).unwrap();
        let idx = TwoHopIndex::build(&g);
        assert_eq!(idx.nonempty_distance(n(0), n(0)), Some(1));
        assert_eq!(idx.nonempty_distance(n(1), n(1)), None);
    }

    #[test]
    fn batched_build_is_bit_identical_to_sequential() {
        let g = sample();
        let seq = TwoHopIndex::build_sequential(&g);
        for threads in [1usize, 2, 8] {
            let exec =
                Executor::new(gpm_exec::Parallelism::new(threads).with_sequential_threshold(0));
            for bs in [1usize, 7, 64] {
                let batched = TwoHopIndex::build_batched(&g, &exec, bs);
                assert_eq!(batched, seq, "threads={threads} batch={bs}");
            }
        }
    }

    proptest! {
        /// The batched construction reproduces the sequential labels bit for
        /// bit on random graphs, for every batch size.
        #[test]
        fn prop_batched_is_bit_identical(
            nodes in 2usize..14,
            edges in proptest::collection::vec((0u32..14, 0u32..14), 0..60),
            batch in 1usize..9
        ) {
            let mut g = DataGraph::new();
            g.add_nodes(nodes);
            for (a, b) in edges {
                if (a as usize) < nodes && (b as usize) < nodes {
                    let _ = g.try_add_edge(n(a), n(b));
                }
            }
            let seq = TwoHopIndex::build_sequential(&g);
            let exec = Executor::new(
                gpm_exec::Parallelism::new(3).with_sequential_threshold(0),
            );
            prop_assert_eq!(TwoHopIndex::build_batched(&g, &exec, batch), seq);
        }
    }

    proptest! {
        /// 2-hop labels give exactly the same distances as the matrix on
        /// random graphs.
        #[test]
        fn prop_agrees_with_matrix(
            nodes in 2usize..14,
            edges in proptest::collection::vec((0u32..14, 0u32..14), 0..60)
        ) {
            let mut g = DataGraph::new();
            g.add_nodes(nodes);
            for (a, b) in edges {
                if (a as usize) < nodes && (b as usize) < nodes {
                    let _ = g.try_add_edge(n(a), n(b));
                }
            }
            let m = DistanceMatrix::build(&g);
            let idx = TwoHopIndex::build(&g);
            for x in g.nodes() {
                for y in g.nodes() {
                    prop_assert_eq!(idx.nonempty_distance(x, y), m.nonempty_distance(x, y));
                    prop_assert_eq!(idx.reachable(x, y), m.reachable(x, y));
                }
            }
        }
    }
}
