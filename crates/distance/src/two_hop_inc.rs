//! An incrementally maintainable 2-hop labeling — the sublinear-memory
//! distance backend.
//!
//! [`IncrementalTwoHop`] answers every query from the pruned landmark labels
//! of a [`TwoHopIndex`] alone (no fallback BFS) and is a maintainable
//! [`DistanceOracle`]: [`DistanceOracle::apply_batch`] is its one maintenance
//! entry point (a unit update is a one-element batch), and every effective
//! update of a batch is repaired **in place**. Nothing rebuilds;
//! [`TwoHopIndex::build_with`] is the differential reference the tests
//! compare the maintained labels against.
//!
//! # Invariants
//!
//! Hubs are ranked, rank 0 highest. A fresh build has both of these, and
//! every unit repair leaves both behind:
//!
//! * **(I1) no entry under-estimates** — `(h, d) ∈ L_in(v)` implies
//!   `d ≥ dist(h, v)` in the current graph, and the same for `L_out`;
//! * **(I2) canonical-hub cover** — for every connected pair `(x, y)`, the
//!   highest-ranked vertex `g` with `dist(x, g) + dist(g, y) = dist(x, y)`
//!   (the pair's *canonical hub*) has *exact* entries in `L_out(x)` and
//!   `L_in(y)`.
//!
//! (I1) makes every common-hub sum an upper bound and (I2) makes one of them
//! exact, so queries are exact. Whether `g` lies on a shortest `x → y` path
//! depends on those three distances only, which is what bounds a repair: a
//! pair none of whose shortest paths could use the updated edge keeps its
//! canonical hub and its entries.
//!
//! # Insertions
//!
//! The dynamic pruned-landmark scheme of Akiba, Iwata and Yoshida ("Dynamic
//! and historical shortest-path distance queries on large evolving
//! networks", WWW 2014), adapted to directed graphs: for every hub of
//! `L_in(s)` a *resumed* pruned BFS continues forward from `t`, for every hub
//! of `L_out(t)` backward from `s` — in **one merged pass in rank order**,
//! each pruning on the **prefixal** query (hubs ranked at or above the
//! resuming one). The full query would let a lower-ranked hub cut off a
//! canonical hub's BFS and lose (I2); rank order means every entry the prune
//! reads is already repaired, so no entry is written for a hub ranked below
//! the node it labels. Over-estimating entries may linger: they never win an
//! exact minimum, and the growth they cause plateaus (≈ 1.1 × a fresh build
//! on the churn benchmark, ≤ 2 × after 3 000 updates — both pinned by tests).
//! Each resume is the crate's pruned BFS kernel (`bfs.rs`) started at the far
//! endpoint of the new edge; only the prune test lives here. The unit's
//! `AFF1` is computed first, against the not-yet-repaired labels, by the
//! function the matrix runs: the affected-cone sweep of
//! [`crate::incremental`], with `old(x, y)` a label query instead of a row
//! read and one BFS row for `std(t, ·)`.
//!
//! # Deletions
//!
//! `delete_repair` handles `(s, t)` with the labels still exact for the
//! graph that has the edge (D'Angelo, D'Emidio and Frigioni, "Fully dynamic
//! 2-hop cover labeling", JEA 2019, recast as one pass over the affected
//! rectangle). `std(·, s)` and `std(t, ·)` do not change (no shortest path
//! into `s` or out of `t` uses the edge), so with `via(x, y) = std(x, s) + 1
//! + std(t, y)`, every pair has `old = min(new, via)`:
//!
//! * `A' = {x : new(x, t) ≥ via(x, t)}` and `B' = {y : new(s, y) ≥ via(s, y)}`
//!   are the nodes with an old shortest path to `t` / from `s` through the
//!   edge, `A ⊆ A'` and `B ⊆ B'` (strict `>`) those whose distance changed;
//!   `AFF1 ⊆ A × B`, new values from one BFS row per node of the *smaller*
//!   side;
//! * the **candidates** are the pairs some old shortest path of which used
//!   the edge (`old = via`): all of those in `A × B`, and of those in
//!   `A × (B' ∖ B)` and `(A' ∖ A) × B` — distance unchanged, found by label
//!   query — the ones whose `x` (resp. `y`) holds an entry of a changed
//!   pair. Only a candidate can have an entry that now under-estimates, and
//!   only a candidate can have lost its canonical hub (the hub dropped off
//!   the pair's shortest paths because its own distance from `x` or to `y`
//!   changed);
//! * **every old value is read before the first label write** — a
//!   half-repaired index over-estimates;
//! * each candidate's own entries are removed, then the candidates are
//!   re-decided in the rank order of their higher-ranked endpoint `h`: the
//!   entry `(h, new)` goes back into the other endpoint's label iff `new` is
//!   finite and the prefixal query over the hubs above `h` exceeds it — the
//!   build's own prune test, restricted to the rectangle. Entries outside
//!   the candidates keep their distance, so (I1) holds; rank order means the
//!   prefixal query reads repaired entries only, which restores (I2).
//!
//! **Diagonal caveat.** `A'`/`B'` are defined on standard distances, so
//! `s ∉ B'` and `t ∉ A'`, and the labels do not store the diagonal: shortest
//! cycles get their own pass (`diag(x) = via(x, x)` with `x = s`, `x = t` or
//! `x ∈ A ∩ B`, recomputed by one non-empty BFS each). Deleting a self-loop
//! changes `diag(s)` only.
//!
//! The reported `AFF1` is **bit-identical** to the distance matrix's: the
//! same pairs with the same old/new values, sorted by `(source, sink)`.
//! Downstream match repair treats `AFF1` as a set of affected sources, so
//! both backends drive identical match deltas.

use crate::bfs::{bfs_row, distance_row, hop_sum, pruned_bfs, Direction};
use crate::incremental::{
    insertion_sweep, replay_batch, AffectedPair, AffectedPairs, EdgeUpdate, Sweep,
};
use crate::oracle::{DistanceOracle, DistanceQuery};
use crate::two_hop::{merge_min, LabelEntry, TwoHopIndex};
use crate::{hop_limit, UNREACHABLE};
use gpm_exec::Executor;
use gpm_graph::{Adjacency, DataGraph, EdgeBound, NodeId};
use std::collections::VecDeque;

/// A 2-hop labeled distance oracle with incremental maintenance.
///
/// Memory is proportional to the number of label entries (typically far
/// below `|V|²` on the skewed-degree graphs of the evaluation), which is what
/// lets bounded-simulation runs scale to node counts where the
/// [`crate::DistanceMatrix`] cannot even be allocated. See the README's
/// "Distance backends" table for the trade-offs.
#[derive(Clone, Debug)]
pub struct IncrementalTwoHop {
    index: TwoHopIndex,
    /// Node → hub rank, the inverse of the index's `hubs_by_rank`.
    rank_of: Vec<u32>,
}

impl IncrementalTwoHop {
    /// Builds the labeling for `g`.
    pub fn build(g: &DataGraph) -> Self {
        Self::build_with(g, &Executor::from_env())
    }

    /// Builds the labeling on the shared executor.
    pub fn build_with(g: &DataGraph, exec: &Executor) -> Self {
        let index = TwoHopIndex::build_with(g, exec);
        let mut rank_of = vec![0; index.hubs_by_rank.len()];
        for (rank, hub) in index.hubs_by_rank.iter().enumerate() {
            rank_of[hub.index()] = rank as u32;
        }
        IncrementalTwoHop { index, rank_of }
    }

    /// The underlying labeling.
    pub fn index(&self) -> &TwoHopIndex {
        &self.index
    }

    /// Approximate resident size of the index in bytes.
    ///
    /// Label storage is accounted at Vec *capacity* — the per-node label
    /// vectors carry a 3-word header each plus whatever slack their growth
    /// left behind (insertion repair appends entries one at a time), and the
    /// old entries-times-entry-size formula under-reported both in the
    /// `exp_oracle_scale` and `svc_*` memory columns.
    pub fn memory_bytes(&self) -> usize {
        let header = std::mem::size_of::<Vec<LabelEntry>>();
        let entry = std::mem::size_of::<LabelEntry>();
        let entries: usize = self
            .index
            .label_out
            .iter()
            .chain(self.index.label_in.iter())
            .map(Vec::capacity)
            .sum();
        entries * entry
            + (self.index.label_out.capacity() + self.index.label_in.capacity()) * header
            + self.index.diagonal.capacity() * std::mem::size_of::<u16>()
            + self.index.hubs_by_rank.capacity() * std::mem::size_of::<NodeId>()
            + self.rank_of.capacity() * std::mem::size_of::<u32>()
    }

    /// Non-empty distance between two nodes (diagonal = shortest cycle).
    pub fn nonempty_distance(&self, x: NodeId, y: NodeId) -> Option<u32> {
        self.index.nonempty_distance(x, y)
    }

    /// Standard distance (diagonal 0), `None` if unreachable.
    pub fn standard_distance(&self, x: NodeId, y: NodeId) -> Option<u32> {
        self.index.standard_distance(x, y)
    }

    fn insert_repair<G: Adjacency>(
        &mut self,
        g: &G,
        s: NodeId,
        t: NodeId,
        ws: &mut Sweep,
    ) -> Vec<AffectedPair> {
        let n = g.node_count();
        // `old` distances are label queries against the not-yet-repaired
        // index, which is exact for the pre-insertion graph.
        let pairs = self.insertion_aff1(g, s, t, ws);

        // The labels do not store the diagonal; repair it straight from the
        // AFF1 entries (new cycles through v all run v ⇝ s → t ⇝ v).
        for p in &pairs {
            if p.source == p.sink {
                self.index.diagonal[p.source.index()] = p.new;
            }
        }

        // Dynamic label repair: resume a pruned BFS from t for every hub
        // that reaches s, and backwards from s for every hub reached from t,
        // merged into one pass in rank order (module docs, *Insertions*).
        let forward = self.index.label_in[s.index()].iter();
        let backward = self.index.label_out[t.index()].iter();
        let mut resumes: Vec<(LabelEntry, Direction, NodeId)> = forward
            .map(|&e| (e, Direction::Forward, t))
            .chain(backward.map(|&e| (e, Direction::Backward, s)))
            .collect();
        resumes.sort_by_key(|&((rank, _), ..)| rank);
        let mut dist = vec![UNREACHABLE; n];
        let mut queue = VecDeque::new();
        let TwoHopIndex {
            label_out,
            label_in,
            hubs_by_rank,
            ..
        } = &mut self.index;
        for ((rank, d), direction, start) in resumes {
            // Resume the hub's pruned BFS across the new edge, inserting or
            // tightening the label of every node the edge brought closer.
            let (hub, d0) = (hubs_by_rank[rank as usize].index(), hop_sum(d, 0));
            pruned_bfs(g, start, d0, direction, &mut dist, &mut queue, |v, dv| {
                let v = v.index();
                // Prune where the hub's own entry or a higher-ranked hub
                // already certifies `<= dv` — existing entries are valid
                // upper bounds (insertions only shrink distances), so
                // anything at or below the resumed frontier needs no repair.
                // Lower-ranked hubs get no say: they must not cut off the
                // BFS of a pair's canonical hub.
                let (certified, list) = match direction {
                    Direction::Forward => (
                        prefix_min(&label_out[hub], &label_in[v], rank),
                        &mut label_in[v],
                    ),
                    Direction::Backward => (
                        prefix_min(&label_out[v], &label_in[hub], rank),
                        &mut label_out[v],
                    ),
                };
                if certified <= dv {
                    return false;
                }
                upsert(list, rank, dv);
                true
            });
        }

        pairs
    }

    /// `AFF1` of the insertion of `(s, t)`: the matrix's own affected-cone
    /// sweep ([`insertion_sweep`]), pair for pair and in the same order, with
    /// old distances read from the labels instead of a row.
    fn insertion_aff1<G: Adjacency>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
        ws: &mut Sweep,
    ) -> Vec<AffectedPair> {
        debug_assert!(g.has_edge(s, t), "graph must already contain the new edge");
        // std(t, y) is unchanged by the insertion (a path using the new edge
        // would revisit t and contain a removable cycle), so a BFS on the
        // *updated* graph recovers the old values the sweep needs.
        let queue = &mut VecDeque::new();
        bfs_row(g, t, Direction::Forward, false, &mut ws.from_t, queue);
        insertion_sweep(g, s, ws, |x, y, via| {
            let old = self.index.nonempty_raw(x, y);
            (via < old).then_some(old)
        })
    }

    /// The one deletion unit: exact `AFF1` of deleting `(s, t)` *and* the
    /// label repair, from a single pass over the affected rectangle (module
    /// docs, *Deletions*). `g` no longer has the edge; the labels are exact
    /// for the graph that still had it.
    fn delete_repair<G: Adjacency>(
        &mut self,
        g: &G,
        s: NodeId,
        t: NodeId,
        exec: &Executor,
    ) -> Vec<AffectedPair> {
        debug_assert!(
            !g.has_edge(s, t),
            "graph must no longer contain the deleted edge"
        );
        let n = g.node_count();
        let to_s = distance_row(g, s, Direction::Backward, false);
        let from_t = distance_row(g, t, Direction::Forward, false);
        let new_to_t = distance_row(g, t, Direction::Backward, false);
        let new_from_s = distance_row(g, s, Direction::Forward, false);
        let (a, a_tied) = rectangle_side(&to_s, &new_to_t);
        let (b, b_tied) = rectangle_side(&from_t, &new_from_s);

        // A × B. A candidate is an `AffectedPair` whose old value is `via`;
        // it belongs to AFF1 when the new value differs.
        let (rows_of, across, direction) = if a.len() <= b.len() {
            (&a, &b, Direction::Forward)
        } else {
            (&b, &a, Direction::Backward)
        };
        let per_row: Vec<Vec<AffectedPair>> = exec.map_tasks(rows_of.len(), n, |i| {
            let (v, dv) = rows_of[i];
            let row = distance_row(g, v, direction, false);
            let mut found = Vec::new();
            for &(w, dw) in across.iter().filter(|&&(w, _)| w != v) {
                let (via, new) = (hop_sum(dv, dw), row[w.index()]);
                if via <= new {
                    let (source, sink) = match direction {
                        Direction::Forward => (v, w),
                        Direction::Backward => (w, v),
                    };
                    found.push(AffectedPair {
                        source,
                        sink,
                        old: via,
                        new,
                    });
                }
            }
            found
        });
        let mut candidates: Vec<AffectedPair> = per_row.into_iter().flatten().collect();
        let mut aff1: Vec<AffectedPair> = candidates
            .iter()
            .filter(|p| p.old != p.new)
            .copied()
            .collect();

        // The tied fringes: distance unchanged, but the canonical hub is
        // gone if x (resp. y) held an entry of a changed pair.
        let (mut out_hit, mut in_hit) = (vec![false; n], vec![false; n]);
        for p in &aff1 {
            let (x, y) = (p.source.index(), p.sink.index());
            out_hit[x] |= find_entry(&self.index.label_out[x], self.rank_of[y]).is_ok();
            in_hit[y] |= find_entry(&self.index.label_in[y], self.rank_of[x]).is_ok();
        }
        let mut rect_pairs = (a.len() * b.len()) as u64;
        let mut fringe = |(x, dx): (NodeId, u16), (y, dy): (NodeId, u16)| {
            rect_pairs += 1;
            let via = hop_sum(dx, dy);
            if x != y && self.index.standard_distance_raw(x, y) == via {
                candidates.push(AffectedPair {
                    source: x,
                    sink: y,
                    old: via,
                    new: via,
                });
            }
        };
        for &x in a.iter().filter(|x| out_hit[x.0.index()]) {
            b_tied.iter().for_each(|&y| fringe(x, y));
        }
        for &y in b.iter().filter(|y| in_hit[y.0.index()]) {
            a_tied.iter().for_each(|&x| fringe(x, y));
        }

        // Shortest cycles (module docs, *Diagonal caveat*).
        for xi in 0..n {
            let x = NodeId::new(xi as u32);
            let old = self.index.diagonal[xi];
            let through_edge = to_s[xi] != UNREACHABLE
                && from_t[xi] != UNREACHABLE
                && old == hop_sum(to_s[xi], from_t[xi]);
            let lost_both =
                new_to_t[xi] > hop_sum(to_s[xi], 0) && new_from_s[xi] > hop_sum(0, from_t[xi]);
            if through_edge && (x == s || x == t || lost_both) {
                let new = distance_row(g, x, Direction::Forward, true)[xi];
                if new != old {
                    self.index.diagonal[xi] = new;
                    aff1.push(AffectedPair {
                        source: x,
                        sink: x,
                        old,
                        new,
                    });
                }
            }
        }

        // Label writes, sequential: drop every candidate's own entries, then
        // re-decide the candidates in the rank order of their hub.
        let rank_of = &self.rank_of;
        let TwoHopIndex {
            label_out,
            label_in,
            ..
        } = &mut self.index;
        for p in &candidates {
            let (x, y) = (p.source.index(), p.sink.index());
            remove_entry(&mut label_out[x], rank_of[y]);
            remove_entry(&mut label_in[y], rank_of[x]);
        }
        candidates.sort_by_key(|p| rank_of[p.source.index()].min(rank_of[p.sink.index()]));
        let mut rewritten = 0u64;
        for p in candidates.iter().filter(|p| p.new != UNREACHABLE) {
            let (x, y) = (p.source.index(), p.sink.index());
            let (rx, ry) = (rank_of[x], rank_of[y]);
            // Own entries are gone, so "up to the hub's rank" reads the hubs
            // above it only.
            if prefix_min(&label_out[x], &label_in[y], rx.min(ry)) > p.new {
                if rx < ry {
                    upsert(&mut label_in[y], rx, p.new);
                } else {
                    upsert(&mut label_out[x], ry, p.new);
                }
                rewritten += 1;
            }
        }

        let mx = crate::metrics::twohop_extra();
        mx.delete_rect_pairs.add(rect_pairs);
        mx.delete_candidates.add(candidates.len() as u64);
        mx.entries_rewritten.add(rewritten);
        aff1
    }
}

impl DistanceQuery for IncrementalTwoHop {
    #[inline]
    fn nonempty_distance(&self, _g: &DataGraph, from: NodeId, to: NodeId) -> Option<u32> {
        crate::metrics::twohop_extra().label_queries.inc();
        self.index.nonempty_distance(from, to)
    }

    #[inline]
    fn within(&self, _g: &DataGraph, from: NodeId, to: NodeId, bound: EdgeBound) -> bool {
        crate::metrics::twohop_extra().label_queries.inc();
        self.index.nonempty_raw(from, to) <= hop_limit(bound)
    }

    fn name(&self) -> &'static str {
        "two-hop"
    }

    fn memory_bytes(&self) -> usize {
        IncrementalTwoHop::memory_bytes(self)
    }
}

impl DistanceOracle for IncrementalTwoHop {
    /// Batch maintenance: every effective update is repaired in the labels,
    /// in batch order, against the graph at its position.
    fn apply_batch(
        &mut self,
        g: &DataGraph,
        updates: &[EdgeUpdate],
        exec: &Executor,
    ) -> AffectedPairs {
        replay_batch(
            self,
            g,
            updates,
            crate::metrics::twohop(),
            |this, from, to| this.index.nonempty_raw(from, to) == 1,
            |this, view, u, ws| {
                let (from, to) = u.endpoints();
                if u.is_insert() {
                    this.insert_repair(view, from, to, ws)
                } else {
                    this.delete_repair(view, from, to, exec)
                }
            },
        )
    }

    fn clone_box(&self) -> Box<dyn DistanceOracle + Send + Sync> {
        Box::new(self.clone())
    }
}

/// One side of a deletion's affected rectangle: `(node, fixed distance)`.
type Side = Vec<(NodeId, u16)>;

/// Splits one side of a deletion's affected rectangle: `fixed` is the
/// unchanged standard row to `s` (resp. from `t`), `new` the post-deletion
/// row to `t` (resp. from `s`). A node whose old shortest route ran through
/// the edge has `new ≥ fixed + 1`; it is *changed* when that is strict and
/// *tied* otherwise.
fn rectangle_side(fixed: &[u16], new: &[u16]) -> (Side, Side) {
    let (mut changed, mut tied) = (Vec::new(), Vec::new());
    for (v, (&d, &new)) in fixed.iter().zip(new).enumerate() {
        if d == UNREACHABLE {
            continue;
        }
        match new.cmp(&hop_sum(d, 0)) {
            std::cmp::Ordering::Greater => changed.push((NodeId::new(v as u32), d)),
            std::cmp::Ordering::Equal => tied.push((NodeId::new(v as u32), d)),
            std::cmp::Ordering::Less => {}
        }
    }
    (changed, tied)
}

/// The prefixal query: [`merge_min`] over the hubs ranked at or above `rank`
/// (rank index `<= rank`; rank 0 is the highest) — the prefixes of the two
/// rank-sorted lists.
fn prefix_min(out: &[LabelEntry], inc: &[LabelEntry], rank: u32) -> u16 {
    let upto = |list: &[LabelEntry]| list.partition_point(|e| e.0 <= rank);
    merge_min(&out[..upto(out)], &inc[..upto(inc)])
}

/// Position of the entry for `rank` in a rank-sorted label list.
fn find_entry(list: &[LabelEntry], rank: u32) -> Result<usize, usize> {
    list.binary_search_by_key(&rank, |e| e.0)
}

/// Inserts or tightens the rank-sorted label entry for `rank`.
fn upsert(list: &mut Vec<LabelEntry>, rank: u32, d: u16) {
    match find_entry(list, rank) {
        Ok(i) => {
            if d < list[i].1 {
                list[i].1 = d;
            }
        }
        Err(i) => list.insert(i, (rank, d)),
    }
}

/// Removes the entry for `rank`, if there is one.
fn remove_entry(list: &mut Vec<LabelEntry>, rank: u32) {
    if let Ok(i) = find_entry(list, rank) {
        list.remove(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::EdgeUpdate;
    use crate::matrix::DistanceMatrix;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom as _;
    use rand::{Rng as _, SeedableRng as _};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn path_graph(len: u32) -> DataGraph {
        let mut g = DataGraph::new();
        g.add_nodes(len as usize);
        for i in 0..len - 1 {
            g.add_edge(n(i), n(i + 1)).unwrap();
        }
        g
    }

    fn assert_all_pairs_agree(g: &DataGraph, oracle: &IncrementalTwoHop, m: &DistanceMatrix) {
        for x in g.nodes() {
            for y in g.nodes() {
                // Raw values: the long streams make ~10⁸ of these comparisons.
                if oracle.index.nonempty_raw(x, y) != m.get(x, y) {
                    panic!(
                        "mismatch at ({x}, {y}): labels {:?}, matrix {:?}",
                        oracle.nonempty_distance(x, y),
                        m.nonempty_distance(x, y)
                    );
                }
            }
        }
    }

    /// Applies one effective update to both back-ends (`g` already has it)
    /// and asserts the two `AFF1`s are bit-identical and every one of the
    /// `|V|²` non-empty distances agrees.
    fn step(
        g: &DataGraph,
        oracle: &mut IncrementalTwoHop,
        m: &mut DistanceMatrix,
        u: EdgeUpdate,
    ) -> AffectedPairs {
        let exec = Executor::sequential();
        let aff_o = oracle.apply_batch(g, &[u], &exec);
        let aff_m = m.apply_batch(g, &[u], &exec);
        assert_eq!(aff_o, aff_m, "AFF1 must be bit-identical ({u})");
        assert_all_pairs_agree(g, oracle, m);
        aff_o
    }

    /// Drives a whole unit stream through [`step`], skipping the updates
    /// that are no-ops at their position.
    fn drive_stream(mut g: DataGraph, updates: impl IntoIterator<Item = EdgeUpdate>) {
        let mut oracle = IncrementalTwoHop::build(&g);
        let mut m = DistanceMatrix::build(&g);
        for u in updates {
            if u.apply(&mut g) {
                step(&g, &mut oracle, &mut m, u);
            }
        }
    }

    #[test]
    fn insertion_matches_matrix_aff1_exactly() {
        let mut g = path_graph(4);
        let mut oracle = IncrementalTwoHop::build(&g);
        let mut m = DistanceMatrix::build(&g);

        g.add_edge(n(3), n(0)).unwrap();
        step(&g, &mut oracle, &mut m, EdgeUpdate::Insert(n(3), n(0)));
        // The cycle gave every node a finite diagonal.
        assert_eq!(oracle.nonempty_distance(n(0), n(0)), Some(4));
    }

    #[test]
    fn source_node_deletion_is_repaired_in_place() {
        // Nothing reaches node 0, so cutting its out-edge only changes the
        // row of 0: A = {0}, one BFS row.
        let mut g = path_graph(4);
        let mut oracle = IncrementalTwoHop::build(&g);
        let mut m = DistanceMatrix::build(&g);

        g.remove_edge(n(0), n(1)).unwrap();
        let aff = step(&g, &mut oracle, &mut m, EdgeUpdate::Delete(n(0), n(1)));
        assert!(aff.iter().all(|p| p.source == n(0)));

        // The repaired labels must survive *further* maintenance.
        g.add_edge(n(0), n(2)).unwrap();
        step(&g, &mut oracle, &mut m, EdgeUpdate::Insert(n(0), n(2)));
    }

    #[test]
    fn deletion_with_upstream_sources_rebuilds() {
        // Cutting an interior chain edge affects upstream sources too — the
        // case that used to cost a rebuild is repaired in the labels, which
        // end up answering exactly like a fresh build.
        let mut g = path_graph(4);
        let mut oracle = IncrementalTwoHop::build(&g);
        let mut m = DistanceMatrix::build(&g);

        g.remove_edge(n(2), n(3)).unwrap();
        let aff = step(&g, &mut oracle, &mut m, EdgeUpdate::Delete(n(2), n(3)));
        assert_eq!(aff.len(), 3, "every upstream node lost its path to 3");
        assert_all_pairs_agree(&g, &IncrementalTwoHop::build(&g), &m);
        assert_eq!(DistanceOracle::rebuilds(&oracle), 0);
    }

    #[test]
    fn batch_maintenance_matches_matrix() {
        let mut g = path_graph(6);
        g.add_edge(n(5), n(0)).unwrap();
        let exec = Executor::sequential();
        let mut oracle = IncrementalTwoHop::build(&g);
        let mut m = DistanceMatrix::build(&g);

        let updates = vec![
            EdgeUpdate::Insert(n(0), n(3)),
            EdgeUpdate::Delete(n(2), n(3)),
            EdgeUpdate::Insert(n(3), n(1)),
            EdgeUpdate::Delete(n(5), n(0)),
        ];
        for u in &updates {
            u.apply(&mut g);
        }
        let aff_o = oracle.apply_batch(&g, &updates, &exec);
        let aff_m = m.apply_batch(&g, &updates, &exec);
        assert_eq!(aff_o, aff_m, "batch AFF1s are sorted: directly comparable");
        assert_all_pairs_agree(&g, &oracle, &m);
    }

    #[test]
    fn missing_delete_in_a_raw_batch_fabricates_no_edge() {
        // {1→2, 1→3}; the raw batch deletes (1,2) and the absent (3,2).
        // A blind undo would rewind into a graph with a (3,2) edge, where
        // the (1,2) deletion finds the detour 1→3→2.
        let mut g = DataGraph::from_edges(4, &[(1, 2), (1, 3)]).unwrap();
        let exec = Executor::sequential();
        let mut oracle = IncrementalTwoHop::build(&g);
        let mut m = DistanceMatrix::build(&g);
        let updates = [
            EdgeUpdate::Delete(n(1), n(2)),
            EdgeUpdate::Delete(n(3), n(2)),
        ];
        for u in &updates {
            u.apply(&mut g);
        }
        let expected = AffectedPairs {
            pairs: vec![AffectedPair {
                source: n(1),
                sink: n(2),
                old: 1,
                new: UNREACHABLE,
            }],
        };
        assert_eq!(m.apply_batch(&g, &updates, &exec), expected);
        assert_eq!(oracle.apply_batch(&g, &updates, &exec), expected);
        assert_eq!(m, DistanceMatrix::build(&g));
        assert_all_pairs_agree(&g, &oracle, &m);
    }

    #[test]
    fn memory_and_introspection() {
        let g = path_graph(5);
        let oracle = IncrementalTwoHop::build(&g);
        assert!(oracle.memory_bytes() > 0);
        assert!(oracle.index().label_entries() > 0);
        assert_eq!(oracle.standard_distance(n(0), n(0)), Some(0));
        let o: &dyn DistanceOracle = &oracle;
        assert_eq!(o.name(), "two-hop");
        assert_eq!(o.rebuilds(), 0);
        assert!(o.memory_bytes() > 0);
        assert!(o.within(&g, n(0), n(4), EdgeBound::Hops(4)));
        assert!(!o.within(&g, n(0), n(4), EdgeBound::Hops(3)));
        assert!(!o.within(&g, n(4), n(0), EdgeBound::Unbounded));
    }

    #[test]
    fn memory_accounting_counts_headers_and_capacity() {
        let g = path_graph(5);
        let oracle = IncrementalTwoHop::build(&g);
        let header = std::mem::size_of::<Vec<LabelEntry>>();
        let entry = std::mem::size_of::<LabelEntry>();
        let idx = oracle.index();
        let label_capacity: usize = idx
            .label_out
            .iter()
            .chain(idx.label_in.iter())
            .map(Vec::capacity)
            .sum();
        let expected = label_capacity * entry
            + (idx.label_out.capacity() + idx.label_in.capacity()) * header
            + idx.diagonal.capacity() * std::mem::size_of::<u16>()
            + idx.hubs_by_rank.capacity() * std::mem::size_of::<NodeId>()
            + oracle.rank_of.capacity() * std::mem::size_of::<u32>();
        assert_eq!(oracle.memory_bytes(), expected);
        // The old entries-only formula dropped the 2·|V| label-Vec headers
        // (and capacity slack) — the fixed accounting is strictly larger.
        assert!(
            oracle.memory_bytes() > idx.label_entries() * entry,
            "capacity accounting must exceed the old entries-only formula"
        );
    }

    #[test]
    fn batch_of_rebuild_demanding_deletes_pays_one_rebuild() {
        // Star with an upstream source: 0 → 1 → {2..2+LEAVES}. Deleting any
        // (1, leaf) edge changes the row of 1 while 0 still reaches 1 — the
        // shape every unit of which used to demand a rebuild. The batch now
        // lands exactly where the same deletions one by one land.
        const LEAVES: u32 = 5;
        let mut g = DataGraph::new();
        g.add_nodes(2 + LEAVES as usize);
        g.add_edge(n(0), n(1)).unwrap();
        for i in 0..LEAVES {
            g.add_edge(n(1), n(2 + i)).unwrap();
        }
        let exec = Executor::sequential();
        let mut oracle = IncrementalTwoHop::build(&g);
        let mut m = DistanceMatrix::build(&g);
        let (mut g_unit, mut oracle_unit, mut m_unit) = (g.clone(), oracle.clone(), m.clone());

        let updates: Vec<EdgeUpdate> = (0..LEAVES)
            .map(|i| EdgeUpdate::Delete(n(1), n(2 + i)))
            .collect();
        for &u in &updates {
            u.apply(&mut g);
            u.apply(&mut g_unit);
            let aff = step(&g_unit, &mut oracle_unit, &mut m_unit, u);
            assert_eq!(aff.len(), 2, "{u}: the leaf is lost to 0 and to 1");
        }
        let aff_o = oracle.apply_batch(&g, &updates, &exec);
        let aff_m = m.apply_batch(&g, &updates, &exec);
        assert_eq!(aff_o, aff_m);
        assert_all_pairs_agree(&g, &oracle, &m);
        assert_eq!(oracle.index, oracle_unit.index);
        assert_all_pairs_agree(&g, &IncrementalTwoHop::build(&g), &m);
    }

    #[test]
    fn deleting_the_only_short_cycle_edge_repairs_the_diagonal_of_s_and_t() {
        // 0 → 1 → 2 → 0 and the detour 0 → 3 → 1: every node's shortest
        // cycle (3) uses (0, 1), and `s = 0 ∉ B'`, `t = 1 ∉ A'` — the
        // rectangle alone would miss both of their diagonals.
        let mut g = DataGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 1)]).unwrap();
        let mut oracle = IncrementalTwoHop::build(&g);
        let mut m = DistanceMatrix::build(&g);
        g.remove_edge(n(0), n(1)).unwrap();
        let aff = step(&g, &mut oracle, &mut m, EdgeUpdate::Delete(n(0), n(1)));
        for x in [0, 1, 2] {
            let diagonal = AffectedPair {
                source: n(x),
                sink: n(x),
                old: 3,
                new: 4,
            };
            assert!(aff.pairs.contains(&diagonal), "diagonal of {x}: {aff:?}");
        }
        // Cutting the detour too leaves no cycle at all.
        g.remove_edge(n(3), n(1)).unwrap();
        let aff = step(&g, &mut oracle, &mut m, EdgeUpdate::Delete(n(3), n(1)));
        assert_eq!(aff.iter().filter(|p| p.source == p.sink).count(), 4);
        assert_eq!(oracle.nonempty_distance(n(0), n(0)), None);
    }

    #[test]
    fn self_loop_deletion_changes_only_its_own_diagonal() {
        let mut g = DataGraph::from_edges(2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let mut oracle = IncrementalTwoHop::build(&g);
        let mut m = DistanceMatrix::build(&g);
        let before = oracle.index.clone();
        g.remove_edge(n(0), n(0)).unwrap();
        let aff = step(&g, &mut oracle, &mut m, EdgeUpdate::Delete(n(0), n(0)));
        let expected = AffectedPair {
            source: n(0),
            sink: n(0),
            old: 1,
            new: 2,
        };
        assert_eq!(aff.pairs, [expected]);
        assert_eq!(oracle.index.label_out, before.label_out);
        assert_eq!(oracle.index.label_in, before.label_in);
    }

    #[test]
    fn deleting_one_of_two_tied_paths_changes_the_deleted_pair_only() {
        // 0 → 1 → 3 and 0 → 2 → 3 tie. Losing (1, 3) changes (1, 3) itself
        // (a deleted edge always does) and nothing else: 0 ∈ A' ∖ A.
        let mut g = DataGraph::from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
        let mut oracle = IncrementalTwoHop::build(&g);
        let mut m = DistanceMatrix::build(&g);
        g.remove_edge(n(1), n(3)).unwrap();
        let aff = step(&g, &mut oracle, &mut m, EdgeUpdate::Delete(n(1), n(3)));
        let expected = AffectedPair {
            source: n(1),
            sink: n(3),
            old: 1,
            new: UNREACHABLE,
        };
        assert_eq!(aff.pairs, [expected]);
        assert_eq!(oracle.nonempty_distance(n(0), n(3)), Some(2));
        // The labels are still a sound base for insertion repair.
        g.add_edge(n(3), n(0)).unwrap();
        step(&g, &mut oracle, &mut m, EdgeUpdate::Insert(n(3), n(0)));
        g.add_edge(n(1), n(3)).unwrap();
        step(&g, &mut oracle, &mut m, EdgeUpdate::Insert(n(1), n(3)));
    }

    #[test]
    fn unchanged_pair_that_loses_its_canonical_hub_is_recovered() {
        // u = 0, s = 1, t = 2, v = 3. Two routes 0 ⇝ 3 of length 3 tie:
        // 0 → 1 → 2 → 3 through the top-ranked hub 2 (fattened by the
        // leaves 7, 8, 9) and 0 → 4 → 5 → 3; 1 → 6 → 3 ties 1 → 2 → 3, so
        // 3 ∈ B' ∖ B. Deleting (1, 2) leaves dist(0, 3) = 3 but takes hub 2
        // off its shortest paths: (0, 3) is in no AFF1, and is a candidate
        // only through the tied fringe.
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (0, 4),
            (4, 5),
            (5, 3),
            (1, 6),
            (6, 3),
            (2, 7),
            (2, 8),
            (2, 9),
        ];
        let mut g = DataGraph::from_edges(10, &edges).unwrap();
        let mut oracle = IncrementalTwoHop::build(&g);
        let mut m = DistanceMatrix::build(&g);
        let idx = &oracle.index;
        assert_eq!(oracle.rank_of[2], 0, "2 has the highest degree");
        assert_eq!(
            merge_min(&idx.label_out[0][1..], &idx.label_in[3][1..]),
            UNREACHABLE,
            "hub 2 is the only witness of dist(0, 3)"
        );

        g.remove_edge(n(1), n(2)).unwrap();
        let aff = step(&g, &mut oracle, &mut m, EdgeUpdate::Delete(n(1), n(2)));
        assert!(aff.iter().all(|p| (p.source, p.sink) != (n(0), n(3))));
        assert_eq!(oracle.nonempty_distance(n(0), n(3)), Some(3));
        assert_all_pairs_agree(&g, &IncrementalTwoHop::build(&g), &m);
    }

    /// `total` stream seeds in an optimised build (the CI step that runs
    /// these by name), a quarter of them in the debug build of tier-1,
    /// where one label query costs ten times as much.
    fn stream_seeds(total: u64) -> std::ops::Range<u64> {
        0..if cfg!(debug_assertions) {
            total / 4
        } else {
            total
        }
    }

    // Long interleaved unit streams from the existing generator, every
    // update checked: an in-place deletion that loses a canonical hub, or an
    // insertion resume cut off by a lower-ranked hub, answers correctly at
    // first and over-estimates only many updates later.
    #[test]
    fn soundness_streams_30_nodes() {
        for seed in stream_seeds(200) {
            let (g, stream) = random_graph_and_updates(seed, 30, 90, 200);
            drive_stream(g, stream);
        }
    }

    #[test]
    fn soundness_streams_60_nodes() {
        for seed in stream_seeds(40) {
            let (g, stream) = random_graph_and_updates(seed, 60, 150, 300);
            drive_stream(g, stream);
        }
    }

    #[test]
    fn soundness_streams_8_nodes() {
        for seed in stream_seeds(1000) {
            let (g, stream) = random_graph_and_updates(seed, 8, 14, 60);
            drive_stream(g, stream);
        }
    }

    #[test]
    fn soundness_streams_deletions_only() {
        for seed in stream_seeds(100) {
            let (g, stream) = random_graph_and_updates(seed, 30, 200, 150);
            drive_stream(g, stream.into_iter().filter(|u| !u.is_insert()));
        }
    }

    #[test]
    fn prune_dominated_bounds_growth_and_keeps_queries_exact() {
        // A long interleaved insert/delete stream leaves dominated entries
        // behind. Without any pruning the labels must stay within a
        // constant factor of a fresh build and answer exactly like it.
        for (seed, nodes, edges, updates) in [(7, 12, 24, 60), (11, 60, 150, 3000)] {
            let (mut g, stream) = random_graph_and_updates(seed, nodes, edges, updates);
            let exec = Executor::sequential();
            let mut oracle = IncrementalTwoHop::build(&g);
            for u in stream {
                if u.apply(&mut g) {
                    oracle.apply_batch(&g, &[u], &exec);
                }
            }
            let fresh = IncrementalTwoHop::build(&g);
            let before = oracle.index().label_entries();
            assert!(
                before <= 2 * fresh.index().label_entries(),
                "maintained index ({before} entries) must stay within 2x of a fresh build ({})",
                fresh.index().label_entries()
            );
            let m = DistanceMatrix::build(&g);
            assert_all_pairs_agree(&g, &fresh, &m);
            assert_all_pairs_agree(&g, &oracle, &m);
        }
    }

    fn random_graph_and_updates(
        seed: u64,
        nodes: usize,
        edges: usize,
        updates: usize,
    ) -> (DataGraph, Vec<EdgeUpdate>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = DataGraph::new();
        g.add_nodes(nodes);
        while g.edge_count() < edges {
            let a = rng.gen_range(0..nodes as u32);
            let b = rng.gen_range(0..nodes as u32);
            let _ = g.try_add_edge(n(a), n(b));
        }
        let mut scratch = g.clone();
        let mut ups = Vec::new();
        for _ in 0..updates {
            if rng.gen_bool(0.5) && scratch.edge_count() > 0 {
                let edges: Vec<_> = scratch.edges().collect();
                let &(a, b) = edges.choose(&mut rng).unwrap();
                let u = EdgeUpdate::Delete(a, b);
                u.apply(&mut scratch);
                ups.push(u);
            } else {
                let a = n(rng.gen_range(0..nodes as u32));
                let b = n(rng.gen_range(0..nodes as u32));
                if !scratch.has_edge(a, b) {
                    let u = EdgeUpdate::Insert(a, b);
                    u.apply(&mut scratch);
                    ups.push(u);
                }
            }
        }
        (g, ups)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Under randomized interleaved unit updates the maintained labels
        /// agree with the maintained matrix on every pair and every AFF1 is
        /// bit-identical.
        #[test]
        fn prop_unit_updates_agree_with_matrix(seed in 0u64..400) {
            let (g, updates) = random_graph_and_updates(seed, 13, 26, 10);
            drive_stream(g, updates);
        }

        /// Whole random batches (mixed inserts and deletes) produce the same
        /// net AFF1 set as the matrix and leave every query exact.
        #[test]
        fn prop_batches_agree_with_matrix(seed in 400u64..600) {
            let (mut g, updates) = random_graph_and_updates(seed, 12, 24, 8);
            let exec = Executor::sequential();
            let mut oracle = IncrementalTwoHop::build(&g);
            let mut m = DistanceMatrix::build(&g);
            for u in &updates {
                u.apply(&mut g);
            }
            let aff_o = oracle.apply_batch(&g, &updates, &exec);
            let aff_m = m.apply_batch(&g, &updates, &exec);
            prop_assert_eq!(aff_o, aff_m, "seed {}: batch AFF1 must be identical", seed);
            for x in g.nodes() {
                for y in g.nodes() {
                    prop_assert_eq!(
                        oracle.nonempty_distance(x, y),
                        m.nonempty_distance(x, y),
                        "seed {}: mismatch at ({}, {})", seed, x, y
                    );
                }
            }
        }

        /// A raw batch — duplicate inserts, missing deletes, insert-then-
        /// delete of one edge, self-loops — leaves both back-ends exactly
        /// where its effective updates alone leave them, which is where a
        /// rebuild lands; a batch of pure no-ops touches nothing.
        #[test]
        fn prop_raw_batch_equals_effective_updates_equals_rebuild(
            edges in collection::vec((0u32..9, 0u32..9), 0..30),
            raw in collection::vec((0u32..9, 0u32..9, 0u8..2), 0..16),
        ) {
            let mut g = DataGraph::new();
            g.add_nodes(9);
            for &(a, b) in &edges {
                let _ = g.try_add_edge(n(a), n(b)).unwrap();
            }
            let exec = Executor::sequential();
            let built = (IncrementalTwoHop::build(&g), DistanceMatrix::build(&g));
            let raw: Vec<EdgeUpdate> = raw
                .iter()
                .map(|&(a, b, kind)| match kind {
                    0 => EdgeUpdate::Insert(n(a), n(b)),
                    _ => EdgeUpdate::Delete(n(a), n(b)),
                })
                .collect();
            let effective: Vec<EdgeUpdate> =
                raw.iter().copied().filter(|u| u.apply(&mut g)).collect();

            let (mut oracle_raw, mut m_raw) = built.clone();
            let (mut oracle_eff, mut m_eff) = built.clone();
            let aff_m = m_raw.apply_batch(&g, &raw, &exec);
            prop_assert_eq!(&aff_m, &m_eff.apply_batch(&g, &effective, &exec));
            prop_assert_eq!(&aff_m, &oracle_raw.apply_batch(&g, &raw, &exec));
            prop_assert_eq!(&aff_m, &oracle_eff.apply_batch(&g, &effective, &exec));
            prop_assert_eq!(&m_raw, &DistanceMatrix::build(&g));
            prop_assert_eq!(&m_raw, &m_eff);
            assert_all_pairs_agree(&g, &oracle_raw, &m_raw);
            prop_assert_eq!(&oracle_raw.index, &oracle_eff.index);
            if effective.is_empty() {
                prop_assert!(aff_m.is_empty());
                prop_assert_eq!(&oracle_raw.index, &built.0.index);
            }
        }
    }
}
