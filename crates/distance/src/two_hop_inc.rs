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
//! read and one BFS row for `std(t, ·)`. The sweep asks for the sinks of one
//! source in a run, so the query is **source-resident** (`SourceResident`,
//! the query Akiba et al. run at a BFS root): `L_out(x)` is scattered by hub
//! rank once per source and `old(x, y)` is one scan of `L_in(y)` — the same
//! minimum over the same common hubs as the merge-join, stale entries
//! included, without walking `L_out(x)` again for every sink.
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
//!   edge, `A ⊆ A'` and `B ⊆ B'` (strict `>`) those whose distance changed —
//!   four BFS rows around the edge; `AFF1 ⊆ A × B`;
//! * the **rows** of the rectangle are those of its *smaller* side, taken 64
//!   at a time from the multi-source kernel (`multi_bfs`): the nodes of one
//!   side sit in one cone behind `s` (ahead of `t`) and walk the same graph,
//!   so their frontiers travel as one word per node and an edge is scanned
//!   once per level, not once per root. A pass keeps `new` only at the
//!   columns it will read — the side across and that side's tied fringe —
//!   as a `64 × columns` table, never a `|V|`-row per root. The chunks run
//!   one after another on the caller thread: the label writes after them are
//!   sequential and dominate the unit, so a second thread never paid;
//! * the **candidates** are the pairs some old shortest path of which used
//!   the edge (`old = via`): all of those in `A × B`, and of those in
//!   `A × (B' ∖ B)` and `(A' ∖ A) × B` — distance unchanged — the ones
//!   whose `x` (resp. `y`) holds an entry of a changed pair. Only a
//!   candidate can have an entry that now under-estimates, and only a
//!   candidate can have lost its canonical hub (the hub dropped off the
//!   pair's shortest paths because its own distance from `x` or to `y`
//!   changed);
//! * the fringe **beside the rows** (`A × (B' ∖ B)` when `A` has the rows)
//!   is read off them: `old = min(new, via)`, so `old = via` iff
//!   `via ≤ new`, which is the rectangle's own test and needs no label.
//!   The other fringe has no rows and asks the labels for `old`;
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
//! `x ∈ A ∩ B` — those nodes are all the pass visits — recomputed by one
//! non-empty BFS each). Deleting a self-loop changes `diag(s)` only.
//!
//! Everything a unit of either kind needs that is sized by `|V|` lives in
//! the batch's workspace (`LabelScratch`) and is reset through what the unit
//! touched: a unit allocates for what it finds, not for the graph.
//!
//! The reported `AFF1` is **bit-identical** to the distance matrix's: the
//! same pairs with the same old/new values, sorted by `(source, sink)`.
//! Downstream match repair treats `AFF1` as a set of affected sources, so
//! both backends drive identical match deltas.

use crate::bfs::{bfs_row, hop_sum, multi_bfs, path_sum, pruned_bfs, Direction, MultiBfs};
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
        let LabelScratch { dist, queue, .. } = &mut ws.labels;
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
            pruned_bfs(g, start, d0, direction, dist, queue, |v, dv| {
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
    /// old distances read from the labels instead of a row — through the
    /// [`SourceResident`] query, because the sweep asks for one source's
    /// sinks in a run.
    fn insertion_aff1<G: Adjacency>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
        ws: &mut Sweep,
    ) -> Vec<AffectedPair> {
        debug_assert!(g.has_edge(s, t), "graph must already contain the new edge");
        ws.labels.fit(g.node_count());
        // std(t, y) is unchanged by the insertion (a path using the new edge
        // would revisit t and contain a removable cycle), so a BFS on the
        // *updated* graph recovers the old values the sweep needs.
        let queue = &mut ws.labels.queue;
        bfs_row(g, t, Direction::Forward, false, &mut ws.from_t, queue);
        // Out of the workspace for the sweep, which borrows all of it.
        let mut out_by_rank = std::mem::take(&mut ws.labels.out_by_rank);
        let mut labels = SourceResident::new(&self.index, &mut out_by_rank);
        let pairs = insertion_sweep(g, s, ws, |x, y, via| {
            let old = labels.nonempty_raw(x, y);
            (via < old).then_some(old)
        });
        labels.evict();
        ws.labels.out_by_rank = out_by_rank;
        pairs
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
        ws: &mut Sweep,
    ) -> Vec<AffectedPair> {
        debug_assert!(
            !g.has_edge(s, t),
            "graph must no longer contain the deleted edge"
        );
        let n = g.node_count();
        ws.labels.fit(n);
        let from_t = &mut ws.from_t;
        let LabelScratch {
            queue,
            to_s,
            new_to_t,
            new_from_s,
            cycle,
            column,
            hit,
            bfs,
            roots,
            table,
            ..
        } = &mut ws.labels;
        bfs_row(g, s, Direction::Backward, false, to_s, queue);
        bfs_row(g, t, Direction::Forward, false, from_t, queue);
        bfs_row(g, t, Direction::Backward, false, new_to_t, queue);
        bfs_row(g, s, Direction::Forward, false, new_from_s, queue);
        let mut traversals = 4u64;
        let (a, a_tied) = rectangle_side(to_s, new_to_t);
        let (b, b_tied) = rectangle_side(from_t, new_from_s);

        // A × B, by the rows of its smaller side: `v` is a node of the side
        // that has rows, `w` one of the side across.
        let (rows_of, rows_tied, across, across_tied, direction) = if a.len() <= b.len() {
            (&a, &a_tied, &b, &b_tied, Direction::Forward)
        } else {
            (&b, &b_tied, &a, &a_tied, Direction::Backward)
        };
        let rows_are_sources = matches!(direction, Direction::Forward);
        let orient = |v: NodeId, w: NodeId| if rows_are_sources { (v, w) } else { (w, v) };
        let candidate = |v: NodeId, w: NodeId, old: u16, new: u16| {
            let (source, sink) = orient(v, w);
            AffectedPair {
                source,
                sink,
                old,
                new,
            }
        };
        // Whether the source (else the sink) of a changed pair holds the
        // pair's own entry: its tied fringe may have lost a canonical hub.
        let (index, rank_of) = (&self.index, &self.rank_of);
        let holds_entry = |p: &AffectedPair, source: bool| {
            let (x, y) = (p.source.index(), p.sink.index());
            match source {
                true => find_entry(&index.label_out[x], rank_of[y]),
                false => find_entry(&index.label_in[y], rank_of[x]),
            }
            .is_ok()
        };

        // One multi-source BFS per 64 rows, read at the columns of the side
        // across and of its tied fringe only. A candidate is an
        // `AffectedPair` whose old value is `via`; it belongs to AFF1 when
        // the new value differs. A row that holds an entry of a changed pair
        // decides its tied fringe on the spot: `old = min(new, via)`, so a
        // pair is tied iff `via <= new`.
        let width = across.len() + across_tied.len();
        for (c, &(w, _)) in across.iter().chain(across_tied).enumerate() {
            column[w.index()] = c as u32;
        }
        let (mut candidates, mut row_fringe, mut hit_rows) = (Vec::new(), Vec::new(), 0);
        for rows in rows_of.chunks(64) {
            traversals += 1;
            roots.clear();
            roots.extend(rows.iter().map(|&(v, _)| v));
            table.clear();
            table.resize(rows.len() * width, UNREACHABLE);
            multi_bfs(g, roots, direction, false, bfs, |w, arrived, d| {
                let col = column[w.index()];
                if col != NO_COLUMN {
                    let mut bits = arrived;
                    while bits != 0 {
                        let j = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        table[j * width + col as usize] = d;
                    }
                }
                arrived
            });
            for (j, &(v, dv)) in rows.iter().enumerate() {
                let (new_across, new_tied) = table[j * width..][..width].split_at(across.len());
                let from = candidates.len();
                for (&(w, dw), &new) in across.iter().zip(new_across) {
                    let via = hop_sum(dv, dw);
                    if w != v && via <= new {
                        candidates.push(candidate(v, w, via, new));
                    }
                }
                let mut changed = candidates[from..].iter().filter(|p| p.old != p.new);
                if changed.any(|p| holds_entry(p, rows_are_sources)) {
                    hit_rows += 1;
                    for (&(w, dw), &new) in across_tied.iter().zip(new_tied) {
                        let via = hop_sum(dv, dw);
                        if w != v && via <= new {
                            row_fringe.push(candidate(v, w, via, via));
                        }
                    }
                }
            }
        }
        let mut aff1: Vec<AffectedPair> = candidates
            .iter()
            .filter(|p| p.old != p.new)
            .copied()
            .collect();

        // The tied fringe of the side across has no rows: label queries,
        // for the nodes across that hold an entry of a changed pair.
        hit.clear();
        hit.resize(across.len(), false);
        for p in &aff1 {
            let w = if rows_are_sources { p.sink } else { p.source };
            hit[column[w.index()] as usize] |= holds_entry(p, !rows_are_sources);
        }
        let mut label_fringe = Vec::new();
        let hit_across = across.iter().zip(hit.iter()).filter(|(_, &hit)| hit);
        for (&(w, dw), _) in hit_across.clone() {
            for &(v, dv) in rows_tied {
                let (via, (x, y)) = (hop_sum(dv, dw), orient(v, w));
                if x != y && index.standard_distance_raw(x, y) == via {
                    label_fringe.push(candidate(v, w, via, via));
                }
            }
        }
        let rect_pairs =
            a.len() * b.len() + hit_rows * across_tied.len() + hit_across.count() * rows_tied.len();
        // The fringe of A's nodes goes before the fringe of B's.
        let fringes = match rows_are_sources {
            true => [row_fringe, label_fringe],
            false => [label_fringe, row_fringe],
        };
        candidates.extend(fringes.into_iter().flatten());

        // Shortest cycles (module docs, *Diagonal caveat*), in node order.
        let in_both = |v: &NodeId| (column[v.index()] as usize) < across.len();
        let mut on_cycle: Vec<NodeId> = rows_of.iter().map(|&(v, _)| v).filter(in_both).collect();
        on_cycle.extend([s, t]);
        on_cycle.sort_unstable();
        on_cycle.dedup();
        for x in on_cycle {
            let xi = x.index();
            let old = self.index.diagonal[xi];
            let through_edge = to_s[xi] != UNREACHABLE
                && from_t[xi] != UNREACHABLE
                && old == hop_sum(to_s[xi], from_t[xi]);
            if through_edge {
                traversals += 1;
                bfs_row(g, x, Direction::Forward, true, cycle, queue);
                let new = cycle[xi];
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
        let column = &mut ws.labels.column;
        for &(w, _) in across.iter().chain(across_tied) {
            column[w.index()] = NO_COLUMN;
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

        let work = DeleteWork {
            traversals,
            rect_pairs: rect_pairs as u64,
            candidates: candidates.len() as u64,
            rewritten,
        };
        let mx = crate::metrics::twohop_extra();
        mx.delete_traversals.add(work.traversals);
        mx.delete_rect_pairs.add(work.rect_pairs);
        mx.delete_candidates.add(work.candidates);
        mx.entries_rewritten.add(work.rewritten);
        ws.labels.deleted = work;
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
        _exec: &Executor,
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
                    this.delete_repair(view, from, to, ws)
                }
            },
        )
    }
}

/// The 2-hop units' share of the batch's [`Sweep`] workspace: everything
/// they need that is sized by `|V|`, sized by the first unit of the batch
/// that needs it (a matrix batch never does) and handed from unit to unit.
/// The rows are overwritten whole by `bfs_row`; everything else is restored
/// by the unit that marked it, through what it touched.
#[derive(Default)]
pub(crate) struct LabelScratch {
    queue: VecDeque<NodeId>,
    /// The distances of a resumed `pruned_bfs`.
    dist: Vec<u16>,
    /// [`SourceResident`]'s row: all [`UNREACHABLE`] between units.
    out_by_rank: Vec<u16>,
    /// A deletion's rows beside `Sweep::from_t`: `std(·, s)`, and without
    /// the edge `std(·, t)` and `std(s, ·)`.
    to_s: Vec<u16>,
    new_to_t: Vec<u16>,
    new_from_s: Vec<u16>,
    /// The non-empty row of a diagonal under recomputation.
    cycle: Vec<u16>,
    /// Node → its column in the rectangle chunks' tables: the side across,
    /// then its tied fringe. All [`NO_COLUMN`] between units.
    column: Vec<u32>,
    /// Per column of the side across: holds an entry of a changed pair.
    hit: Vec<bool>,
    /// What one chunk of rectangle rows — at most 64 roots — works in;
    /// `table` holds `new(root j, column c)` at `j * width + c`.
    bfs: MultiBfs,
    roots: Vec<NodeId>,
    table: Vec<u16>,
    /// The work of the latest deletion unit.
    deleted: DeleteWork,
}

/// The counted work of one deletion unit, reported to the `twohop.delete_*`
/// and `twohop.entries_rewritten` counters, whose docs
/// (`metrics::TwoHopMetrics`) give each one's bound in the unit's sizes.
#[derive(Clone, Copy, Debug, Default)]
struct DeleteWork {
    traversals: u64,
    rect_pairs: u64,
    candidates: u64,
    rewritten: u64,
}

/// Not a column of the rectangle in hand.
const NO_COLUMN: u32 = u32::MAX;

impl LabelScratch {
    /// Sizes the scratch for graphs of `n` nodes.
    fn fit(&mut self, n: usize) {
        if self.column.len() == n {
            return;
        }
        let Self {
            dist,
            out_by_rank,
            to_s,
            new_to_t,
            new_from_s,
            cycle,
            column,
            ..
        } = self;
        for row in [dist, out_by_rank, to_s, new_to_t, new_from_s, cycle] {
            row.clear();
            row.resize(n, UNREACHABLE);
        }
        column.clear();
        column.resize(n, NO_COLUMN);
    }
}

/// The pre-repair label query of a sweep that asks for one source's sinks in
/// a run (Akiba, Iwata and Yoshida's query at a BFS root): `L_out` of the
/// current source lies scattered by hub rank, so `old(x, y)` is one scan of
/// `L_in(y)` instead of a merge-join that walks `L_out(x)` again for every
/// sink. Answers exactly [`TwoHopIndex::nonempty_raw`].
struct SourceResident<'a> {
    index: &'a TwoHopIndex,
    /// `dist(source, hub)` by hub rank, [`UNREACHABLE`] where `L_out(source)`
    /// has no entry.
    out_by_rank: &'a mut [u16],
    source: Option<NodeId>,
}

impl<'a> SourceResident<'a> {
    /// `out_by_rank` is all [`UNREACHABLE`], and is again after
    /// [`evict`](Self::evict).
    fn new(index: &'a TwoHopIndex, out_by_rank: &'a mut [u16]) -> Self {
        SourceResident {
            index,
            out_by_rank,
            source: None,
        }
    }

    fn nonempty_raw(&mut self, x: NodeId, y: NodeId) -> u16 {
        if x == y {
            return self.index.diagonal[x.index()];
        }
        if self.source != Some(x) {
            self.evict();
            for &(rank, d) in &self.index.label_out[x.index()] {
                self.out_by_rank[rank as usize] = d;
            }
            self.source = Some(x);
        }
        let sums = self.index.label_in[y.index()].iter().map(|&(rank, d)| {
            match self.out_by_rank[rank as usize] {
                UNREACHABLE => UNREACHABLE,
                out => path_sum(out, d),
            }
        });
        sums.min().unwrap_or(UNREACHABLE)
    }

    fn evict(&mut self) {
        if let Some(x) = self.source.take() {
            for &(rank, _) in &self.index.label_out[x.index()] {
                self.out_by_rank[rank as usize] = UNREACHABLE;
            }
        }
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
    use crate::bfs::distance_row;
    use crate::incremental::EdgeUpdate;
    use crate::matrix::DistanceMatrix;
    use gpm_datagen::adversarial::{cut_chain_updates, deep_chain};
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
    fn deletion_with_upstream_sources_repairs_labels_in_place() {
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
    fn batch_of_upstream_source_deletes_lands_on_the_unit_labels() {
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

    /// `sources` nodes fan into `s = 0` and `t = 1` fans out to `sinks`
    /// nodes; the detour `0 → 2 → 3 → 1` survives the edge, `4` (through
    /// `5`) ties into `t` and `6` (through `7`) ties out of `s`, and the
    /// first sink points back at the first source, so that both are on a
    /// cycle through the edge and in both sides of its rectangle:
    /// `|A| = sources + 2` and `|B| = sinks + 2`.
    fn fan_through_an_edge(sources: u32, sinks: u32) -> DataGraph {
        let (first_source, first_sink) = (8, 8 + sources);
        let mut edges = vec![(0, 1), (0, 2), (2, 3), (3, 1)];
        edges.extend([(4, 0), (4, 5), (5, 1), (1, 6), (0, 7), (7, 6)]);
        edges.extend((0..sources).map(|i| (first_source + i, 0)));
        edges.extend((0..sinks).map(|i| (1, first_sink + i)));
        edges.push((first_sink, first_source));
        DataGraph::from_edges((first_sink + sinks) as usize, &edges).unwrap()
    }

    /// Deletes `(s, t)` from `g`: `AFF1` ≡ the brute-force diff of two
    /// matrix builds, distances ≡ a fresh build's. `smaller` is the size of
    /// the smaller rectangle side, checked so that the chunking the caller
    /// means to exercise is the one that runs.
    fn assert_deletion_repairs_exactly(g: &DataGraph, s: NodeId, t: NodeId, smaller: usize) {
        let mut after = g.clone();
        after.remove_edge(s, t).unwrap();
        let side = |fixed: (NodeId, Direction), new: (NodeId, Direction)| {
            let row = |(origin, direction)| distance_row(&after, origin, direction, false);
            rectangle_side(&row(fixed), &row(new)).0.len()
        };
        let a = side((s, Direction::Backward), (t, Direction::Backward));
        let b = side((t, Direction::Forward), (s, Direction::Forward));
        assert_eq!(a.min(b), smaller, "|A| = {a}, |B| = {b}");

        let (m_before, m_after) = (DistanceMatrix::build(g), DistanceMatrix::build(&after));
        let mut brute = Vec::new();
        for source in g.nodes() {
            for sink in g.nodes() {
                let (old, new) = (m_before.get(source, sink), m_after.get(source, sink));
                if old != new {
                    brute.push(AffectedPair {
                        source,
                        sink,
                        old,
                        new,
                    });
                }
            }
        }
        let mut oracle = IncrementalTwoHop::build(g);
        let exec = Executor::sequential();
        let aff = oracle.apply_batch(&after, &[EdgeUpdate::Delete(s, t)], &exec);
        assert_eq!(aff.pairs, brute);
        assert_all_pairs_agree(&after, &oracle, &m_after);
        let fresh = TwoHopIndex::build_with(&after, &exec);
        for x in g.nodes() {
            for y in g.nodes() {
                assert_eq!(oracle.index.nonempty_raw(x, y), fresh.nonempty_raw(x, y));
            }
        }
    }

    #[test]
    fn multi_bfs_chunks_of_63_64_65_and_130_rows_repair_exactly() {
        for rows in [63, 64, 65, 130] {
            // Rows on the source side, rows on the sink side, and a chain
            // cut `rows` nodes from its head (no row shares a step there).
            let g = fan_through_an_edge(rows - 2, rows + 3);
            assert_deletion_repairs_exactly(&g, n(0), n(1), rows as usize);
            let g = fan_through_an_edge(rows + 3, rows - 2);
            assert_deletion_repairs_exactly(&g, n(0), n(1), rows as usize);
            let len = 2 * rows as usize + 9;
            let (s, t) = cut_chain_updates(len, rows as usize - 1)[0].endpoints();
            assert_deletion_repairs_exactly(&deep_chain(len), s, t, rows as usize);
        }
    }

    /// Deletes each present edge of `deletions` from `g` in turn through
    /// `delete_repair` and holds the unit's work to the per-unit bounds of
    /// `metrics::TwoHopMetrics`, read from the workspace. The rectangle's
    /// sides are counted here, from BFS rows of the graph without the edge:
    /// a node is in `A′` when its old shortest route to `t` could run
    /// through the edge (`new(x, t) ≥ std(x, s) + 1`), in `A` when that is
    /// strict; `B′` and `B` mirror them from `s`. The labels are checked
    /// against a matrix build at the end.
    fn assert_delete_work_within_bounds(
        mut g: DataGraph,
        deletions: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) {
        let mut oracle = IncrementalTwoHop::build(&g);
        let mut ws = Sweep::new(g.node_count());
        for (s, t) in deletions {
            if !g.has_edge(s, t) {
                continue;
            }
            g.remove_edge(s, t).unwrap();
            let row = |origin, direction| distance_row(&g, origin, direction, false);
            // Per node: (changed, through the edge).
            let side = |fixed: Vec<u16>, new: Vec<u16>| -> Vec<(bool, bool)> {
                let mark = |(&d, &new): (&u16, &u16)| {
                    let via = u32::from(d) + 1;
                    let through = d != UNREACHABLE && u32::from(new) >= via;
                    (through && u32::from(new) > via, through)
                };
                fixed.iter().zip(&new).map(mark).collect()
            };
            let a = side(row(s, Direction::Backward), row(t, Direction::Backward));
            let b = side(row(t, Direction::Forward), row(s, Direction::Forward));
            // (changed, through the edge) node counts: (|A|, |A′|), (|B|, |B′|).
            let sizes = |side: &[(bool, bool)]| {
                let count = |pick: fn(&&(bool, bool)) -> bool| side.iter().filter(pick).count();
                (count(|x| x.0) as u64, count(|x| x.1) as u64)
            };
            let ((a_len, a_through), (b_len, b_through)) = (sizes(&a), sizes(&b));
            let both = a.iter().zip(&b).filter(|(x, y)| x.0 && y.0).count() as u64;

            oracle.delete_repair(&g, s, t, &mut ws);
            let work = ws.labels.deleted;
            let what = format!("delete ({s}, {t}): {work:?}");
            let fixed = 4 + a_len.min(b_len).div_ceil(64);
            assert!(
                (fixed..=fixed + both + 2).contains(&work.traversals),
                "{what}: traversals outside {fixed} + [0, |A ∩ B| + 2 = {}]",
                both + 2
            );
            assert!(
                work.rect_pairs <= a_through * b_through,
                "{what}: |A′|·|B′| = {a_through}·{b_through}"
            );
            assert!(work.candidates <= work.rect_pairs, "{what}");
            assert!(work.rewritten <= work.candidates, "{what}");
        }
        assert_all_pairs_agree(&g, &oracle, &DistanceMatrix::build(&g));
    }

    #[test]
    fn deletion_work_stays_within_its_bounds_on_random_deletion_streams() {
        for seed in stream_seeds(40) {
            let (g, stream) = random_graph_and_updates(seed, 30, 200, 150);
            let deletions = stream.iter().filter(|u| !u.is_insert());
            assert_delete_work_within_bounds(g, deletions.map(|u| u.endpoints()));
        }
        // Rectangles of more than one 64-row chunk.
        let g = fan_through_an_edge(128, 133);
        assert_delete_work_within_bounds(g, [(n(0), n(1))]);
    }

    #[test]
    fn deletion_work_stays_within_its_bounds_on_adversarial_topologies() {
        use gpm_datagen::adversarial::*;
        // The scripts hold the dependency's copy of this crate's `EdgeUpdate`.
        macro_rules! edges {
            ($script:expr) => {
                $script.iter().map(|u| u.endpoints()).collect::<Vec<_>>()
            };
        }
        assert_delete_work_within_bounds(star(12), edges!(delete_hub_updates(12)));
        let spokes = (1..=12).map(|leaf| (n(leaf), n(0)));
        assert_delete_work_within_bounds(star(12), spokes);
        for (len, k) in [(16, 0), (16, 7), (16, 14), (160, 80)] {
            assert_delete_work_within_bounds(deep_chain(len), edges!(cut_chain_updates(len, k)));
        }
        assert_delete_work_within_bounds(bowtie(6), edges!(sever_waist_updates(6)));
        let feeders = (1..=6).map(|source| (n(source), n(0)));
        assert_delete_work_within_bounds(bowtie(6), feeders);
        for q in [0, 1] {
            let script = edges!(cut_bridge_updates(3, 4, q));
            assert_delete_work_within_bounds(cliques_with_bridges(3, 4), script);
        }
        let inside = [(4, 5), (5, 4), (7, 4), (3, 0)].map(|(a, b)| (n(a), n(b)));
        assert_delete_work_within_bounds(cliques_with_bridges(3, 4), inside);
        let cells = [(0, 1), (0, 5), (6, 7), (6, 11), (12, 13), (18, 23)];
        assert_delete_work_within_bounds(grid(5, 5), cells.map(|(a, b)| (n(a), n(b))));
    }

    #[test]
    fn source_resident_query_equals_nonempty_raw_on_maintained_labels() {
        let mut stale = 0;
        for seed in 0..6 {
            let (mut g, stream) = random_graph_and_updates(seed, 30, 90, 700);
            assert!(stream.len() >= 300, "every generated update is effective");
            let exec = Executor::sequential();
            let mut oracle = IncrementalTwoHop::build(&g);
            for u in stream {
                assert!(u.apply(&mut g));
                oracle.apply_batch(&g, &[u], &exec);
            }
            // Entries that over-estimate (module docs, *Insertions*) must
            // lose in the scattered scan as they lose in the merge-join.
            let m = DistanceMatrix::build(&g);
            let index = &oracle.index;
            for x in g.nodes() {
                let entries = index.label_out[x.index()].iter();
                let hubs = entries.map(|&(rank, d)| (index.hubs_by_rank[rank as usize], d));
                stale += hubs
                    .filter(|&(hub, d)| hub != x && d > m.get(x, hub))
                    .count();
            }

            let mut row = vec![UNREACHABLE; g.node_count()];
            let mut resident = SourceResident::new(index, &mut row);
            // A run of sinks per source, as the sweep asks; then a new
            // source at every query.
            for x in g.nodes() {
                for y in g.nodes() {
                    assert_eq!(resident.nonempty_raw(x, y), index.nonempty_raw(x, y));
                }
            }
            for y in g.nodes() {
                for x in g.nodes() {
                    assert_eq!(resident.nonempty_raw(x, y), index.nonempty_raw(x, y));
                }
            }
            resident.evict();
            assert!(row.iter().all(|&d| d == UNREACHABLE), "row not restored");
        }
        assert!(stale > 0, "the streams should leave stale entries behind");
    }

    /// `total` stream seeds in an optimised build (the release test runs
    /// of CI), a quarter of them in the debug build of tier-1, where one
    /// label query costs ten times as much.
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

        /// The fringe read off the rectangle's rows is the fringe the labels
        /// decide: before a deletion is repaired, `via <= new` exactly where
        /// the old distance (a query of the not-yet-repaired labels) is
        /// `via` — over all of `A' × B'`, at every deletion of a stream.
        #[test]
        fn prop_row_decided_fringe_equals_label_decided_fringe(seed in 0u64..400) {
            let (mut g, updates) = random_graph_and_updates(seed, 14, 34, 30);
            let exec = Executor::sequential();
            let mut oracle = IncrementalTwoHop::build(&g);
            for u in updates {
                prop_assert!(u.apply(&mut g));
                let (s, t) = u.endpoints();
                if !u.is_insert() {
                    let to_s = distance_row(&g, s, Direction::Backward, false);
                    let from_t = distance_row(&g, t, Direction::Forward, false);
                    for x in g.nodes().filter(|x| to_s[x.index()] != UNREACHABLE) {
                        let new = distance_row(&g, x, Direction::Forward, false);
                        for y in g.nodes().filter(|&y| y != x && from_t[y.index()] != UNREACHABLE) {
                            let via = hop_sum(to_s[x.index()], from_t[y.index()]);
                            prop_assert_eq!(
                                via <= new[y.index()],
                                oracle.index.standard_distance_raw(x, y) == via,
                                "seed {}, {}: ({}, {})", seed, u, x, y
                            );
                        }
                    }
                }
                oracle.apply_batch(&g, &[u], &exec);
            }
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
