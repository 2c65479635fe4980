//! An incrementally maintainable 2-hop labeling — the sublinear-memory
//! distance backend.
//!
//! [`IncrementalTwoHop`] answers every query from the pruned landmark labels
//! of a [`TwoHopIndex`] alone (no fallback BFS) and is a maintainable
//! [`DistanceOracle`]: [`DistanceOracle::apply_batch`] is its one maintenance
//! entry point (a unit update is a one-element batch), and every effective
//! update of a batch takes one of these paths:
//!
//! * **insertions** are repaired in place with the dynamic pruned-landmark
//!   scheme of Akiba, Iwata and Yoshida ("Dynamic and historical shortest-path
//!   distance queries on large evolving networks", WWW 2014), adapted to
//!   directed graphs: for every hub that reaches the new edge's source, a
//!   *resumed* pruned BFS continues from the edge's target (and symmetrically
//!   backwards from the source for hubs reached from the target). Stale,
//!   dominated label entries may linger, but queries stay exact and the index
//!   only grows by the labels the insertion actually needs;
//! * **deletions** are triaged into two in-place tiers. The non-empty
//!   distance row of the edge source `s` is rebuilt with one BFS and diffed
//!   against the labels. *No-op tier:* if the row is unchanged the deletion
//!   provably changed *no* pair and the labels are kept as they are.
//!   *Row-repair tier:* if the row changed but **no other node reaches `s`**
//!   (deleting the first edge of a chain, trimming a source node), every
//!   affected pair has source `s` and the stale hub entries of `s` are
//!   overwritten with the fresh BFS row, which keeps every query exact;
//! * any other deletion flips the rest of the batch into **deferred** mode —
//!   general decremental label repair is unsound (a label may certify a path
//!   the deletion destroyed). From then on every unit's `AFF1` is computed
//!   against a truth overlay (BFS distances for the pairs whose labels went
//!   stale) without touching the labels, and the batch ends with a single
//!   batched, parallel [`TwoHopIndex::build_with`] on the final graph
//!   followed by a [`prune_dominated`](IncrementalTwoHop::prune_dominated)
//!   pass. A batch therefore pays at most **one** rebuild no matter how many
//!   of its deletions demand one, and there is no other rebuild path: each
//!   is recorded in [`rebuild_count`](IncrementalTwoHop::rebuild_count) so
//!   benchmarks and the adversarial-topology tests can observe exactly where
//!   incremental repair degrades.
//!
//! The reported `AFF1` is **bit-identical** to the distance matrix's: the
//! same pairs with the same old/new values, sorted by `(source, sink)`.
//! Downstream match repair treats `AFF1` as a set of affected sources, so
//! both backends drive identical match deltas.

use crate::incremental::{replay_batch, AffectedPair, AffectedPairs, EdgeUpdate};
use crate::oracle::{DistanceOracle, DistanceQuery};
use crate::two_hop::{merge_min, Direction, LabelEntry, TwoHopIndex};
use crate::UNREACHABLE;
use gpm_exec::Executor;
use gpm_graph::{Adjacency, DataGraph, EdgeBound, NodeId};
use rustc_hash::FxHashMap;
use std::collections::VecDeque;

/// True non-empty distances for the pairs whose label answers went stale
/// during a deferred batch (`UNREACHABLE` = ∅). Absent pairs are exact in the
/// labels; the overlay is dropped when the end-of-batch rebuild lands.
type Overlay = FxHashMap<(NodeId, NodeId), u16>;

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
    /// Hub rank → node, recovered from the self-label entries (`d == 0`).
    hubs_by_rank: Vec<NodeId>,
    /// How many deletions degraded to a full rebuild.
    rebuilds: usize,
}

impl IncrementalTwoHop {
    /// Builds the labeling for `g`.
    pub fn build(g: &DataGraph) -> Self {
        Self::build_with(g, &Executor::from_env())
    }

    /// Builds the labeling on the shared executor.
    pub fn build_with(g: &DataGraph, exec: &Executor) -> Self {
        let index = TwoHopIndex::build_with(g, exec);
        let hubs_by_rank = recover_ranks(&index);
        IncrementalTwoHop {
            index,
            hubs_by_rank,
            rebuilds: 0,
        }
    }

    /// The underlying labeling.
    pub fn index(&self) -> &TwoHopIndex {
        &self.index
    }

    /// How many deletions degraded to a full index rebuild so far.
    pub fn rebuild_count(&self) -> usize {
        self.rebuilds
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
            + self.hubs_by_rank.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Non-empty distance between two nodes (diagonal = shortest cycle).
    pub fn nonempty_distance(&self, x: NodeId, y: NodeId) -> Option<u32> {
        self.index.nonempty_distance(x, y)
    }

    /// Standard distance (diagonal 0), `None` if unreachable.
    pub fn standard_distance(&self, x: NodeId, y: NodeId) -> Option<u32> {
        self.index.standard_distance(x, y)
    }

    /// Drops label entries that the remaining labels *strictly* dominate,
    /// returning how many were removed.
    ///
    /// Insertion repair deliberately leaves stale entries behind ("may
    /// linger", module docs): they keep queries exact — every entry is a real
    /// path length, so an out-of-date one can only over-estimate and never
    /// wins an exact minimum — but a long insert stream grows the index
    /// without bound and skews [`memory_bytes`](Self::memory_bytes) trends.
    /// An entry `(h, d)` of `label_in(v)` is dropped when the 2-hop query
    /// `h → v` over the other common hubs is `< d`: strictness is what makes
    /// the drop provably safe (the certificate is itself a path, so `< d`
    /// means the entry over-estimates the true distance and can never be the
    /// unique exact witness of any query). Self entries (`d == 0`) can never
    /// be strictly beaten, so the rank recovery the repair paths rely on is
    /// preserved.
    ///
    /// `O(Σ label sizes × average label size)` and a no-op right after a
    /// fresh build in the common case. Mirroring
    /// [`DataGraph::compact`](gpm_graph::DataGraph::compact), long-running
    /// incremental workloads call it at convenient quiesce points; the
    /// end-of-batch deferred rebuild calls it automatically.
    pub fn prune_dominated(&mut self) -> usize {
        let hubs = &self.hubs_by_rank;
        let n = self.index.label_in.len();
        let mut dropped = 0usize;
        // In-labels first against intact out-labels, then out-labels against
        // the pruned in-labels: each drop is individually safe, so the fixed
        // deterministic order only matters for reproducibility.
        for v in 0..n {
            let mut i = 0;
            while i < self.index.label_in[v].len() {
                let (r, d) = self.index.label_in[v][i];
                let hub = hubs[r as usize];
                if merge_min(&self.index.label_out[hub.index()], &self.index.label_in[v]) < d {
                    self.index.label_in[v].remove(i);
                    dropped += 1;
                } else {
                    i += 1;
                }
            }
        }
        for v in 0..n {
            let mut i = 0;
            while i < self.index.label_out[v].len() {
                let (r, d) = self.index.label_out[v][i];
                let hub = hubs[r as usize];
                if merge_min(&self.index.label_out[v], &self.index.label_in[hub.index()]) < d {
                    self.index.label_out[v].remove(i);
                    dropped += 1;
                } else {
                    i += 1;
                }
            }
        }
        if dropped > 0 {
            crate::metrics::twohop_extra()
                .pruned_labels
                .add(dropped as u64);
        }
        dropped
    }

    fn insert_repair<G: Adjacency>(
        &mut self,
        g: &G,
        s: NodeId,
        t: NodeId,
        exec: &Executor,
    ) -> Vec<AffectedPair> {
        let n = g.node_count();
        // `old` distances are label queries against the not-yet-repaired
        // index, which is exact for the pre-insertion graph.
        let pairs = self.insertion_aff1(g, s, t, exec, None);

        // The labels do not store the diagonal; repair it straight from the
        // AFF1 entries (new cycles through v all run v ⇝ s → t ⇝ v).
        for p in &pairs {
            if p.source == p.sink {
                self.index.diagonal[p.source.index()] = p.new;
            }
        }

        // Dynamic label repair: resume a pruned BFS from t for every hub
        // that reaches s, and backwards from s for every hub reached from t.
        let hub_in: Vec<LabelEntry> = self.index.label_in[s.index()].clone();
        let hub_out: Vec<LabelEntry> = self.index.label_out[t.index()].clone();
        let mut dist = vec![UNREACHABLE; n];
        let mut queue = VecDeque::new();
        let hubs = &self.hubs_by_rank;
        let TwoHopIndex {
            label_out,
            label_in,
            ..
        } = &mut self.index;
        for (rank, d) in hub_in {
            let hub = hubs[rank as usize];
            let start = d.saturating_add(1).min(UNREACHABLE - 1);
            resume_label_repair(
                g,
                Direction::Forward,
                rank,
                hub,
                t,
                start,
                label_out,
                label_in,
                &mut dist,
                &mut queue,
            );
        }
        for (rank, d) in hub_out {
            let hub = hubs[rank as usize];
            let start = d.saturating_add(1).min(UNREACHABLE - 1);
            resume_label_repair(
                g,
                Direction::Backward,
                rank,
                hub,
                s,
                start,
                label_out,
                label_in,
                &mut dist,
                &mut queue,
            );
        }

        pairs
    }

    /// The cheap deletion triage (row diff + upstream-source probe):
    /// classifies a deletion as no-op / row-repair / rebuild-demanding and
    /// performs the in-place repair for the first two tiers, returning their
    /// final `AFF1`. For the third it returns `None` and deliberately leaves
    /// the labels untouched — still exact for the *pre-deletion* graph — so
    /// the deferred path can read old values out of them.
    fn delete_triage<G: Adjacency>(&mut self, g: &G, s: NodeId) -> Option<Vec<AffectedPair>> {
        // Any affected pair forces the row of s to change (its old shortest
        // path ran x ⇝ s → t ⇝ y, so (s, y) loses that route too): rebuild
        // the non-empty row of s with one BFS and diff it against the labels.
        let new_row = distance_row(g, s, Direction::Forward, true);
        let mut affected = Vec::new();
        for (yi, &new) in new_row.iter().enumerate() {
            let y = NodeId::new(yi as u32);
            let old = self.index.nonempty_raw(s, y);
            if old != new {
                affected.push(AffectedPair {
                    source: s,
                    sink: y,
                    old,
                    new,
                });
            }
        }
        if affected.is_empty() {
            // Provable no-op: the labels stay exact, no rebuild needed.
            crate::metrics::twohop_extra().delete_noop.inc();
            return Some(affected);
        }

        // std(x, s) is unchanged by the deletion, so any other node reaching
        // s may have lost a path through the deleted edge too.
        let to_s = distance_row(g, s, Direction::Backward, false);
        let upstream = (0..to_s.len()).any(|x| x != s.index() && to_s[x] != UNREACHABLE);
        if upstream {
            return None;
        }
        // Every affected pair has source s (nothing else reaches s, and
        // hub-s label entries can only serve queries out of s), so the
        // labels are repairable in place from the fresh BFS row.
        crate::metrics::twohop_extra().delete_row_repair.inc();
        self.repair_source_row(g, s, &new_row);
        Some(affected)
    }

    /// In-place label repair for a deletion that only changed the row of `s`
    /// (no other node reaches `s`). `new_row` is the fresh non-empty BFS row
    /// of `s` on the updated graph.
    ///
    /// Soundness: since no `x ≠ s` reaches `s`, no label anywhere certifies a
    /// path *into* `s`, so hub-`s` entries only ever serve queries with
    /// source `s`, and the stale entries that could under-estimate are
    /// exactly (a) the out-label of `s` itself and (b) the `(rank(s), ·)`
    /// in-label entries. Both are overwritten with exact fresh values, and
    /// `(rank(s), std_new(s, y))` is upserted for every reachable `y` so the
    /// 2-hop cover of every `(s, y)` pair is restored.
    fn repair_source_row<G: Adjacency>(&mut self, g: &G, s: NodeId, new_row: &[u16]) {
        debug_assert_eq!(new_row.len(), g.node_count());
        let rank_s = self.index.label_in[s.index()]
            .iter()
            .find(|&&(_, d)| d == 0)
            .expect("every node self-labels at distance 0")
            .0;
        // (a) Out-label of s: refresh every entry to the exact new distance.
        let hubs = &self.hubs_by_rank;
        self.index.label_out[s.index()].retain_mut(|e| {
            let h = hubs[e.0 as usize];
            let d = if h == s { 0 } else { new_row[h.index()] };
            if d == UNREACHABLE {
                return false;
            }
            e.1 = d;
            true
        });
        // (b) Hub-s in-label entries: exact new value for every reachable
        // node, removed where s no longer reaches.
        for (vi, &row_d) in new_row.iter().enumerate() {
            let d = if vi == s.index() { 0 } else { row_d };
            let list = &mut self.index.label_in[vi];
            match list.binary_search_by_key(&rank_s, |e| e.0) {
                Ok(i) => {
                    if d == UNREACHABLE {
                        list.remove(i);
                    } else {
                        list[i].1 = d;
                    }
                }
                Err(i) => {
                    if d != UNREACHABLE {
                        list.insert(i, (rank_s, d));
                    }
                }
            }
        }
        // The only diagonal that can change is s's own (any other cycle
        // through the deleted edge would have to reach s).
        self.index.diagonal[s.index()] = new_row[s.index()];
    }

    /// True non-empty distance under a deferred batch: the overlay wins,
    /// absent pairs are still exact in the labels.
    fn overlay_distance(&self, overlay: &Overlay, x: NodeId, y: NodeId) -> u16 {
        overlay
            .get(&(x, y))
            .copied()
            .unwrap_or_else(|| self.index.nonempty_raw(x, y))
    }

    /// `AFF1` of the insertion of `(s, t)` over the
    /// `ancestors(s) × descendants(t)` rectangle, replicating the matrix
    /// computation pair for pair (same order, same values). Old distances
    /// come from the labels, or — inside a deferred batch — from the truth
    /// `overlay` first.
    fn insertion_aff1<G: Adjacency>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
        exec: &Executor,
        overlay: Option<&Overlay>,
    ) -> Vec<AffectedPair> {
        debug_assert!(g.has_edge(s, t), "graph must already contain the new edge");
        let n = g.node_count();
        // std(x, s) and std(t, y) are unchanged by the insertion (a path
        // using the new edge would revisit s / t and contain a removable
        // cycle), so BFS on the *updated* graph recovers the old values the
        // AFF1 contract needs.
        let to_s = distance_row(g, s, Direction::Backward, false);
        let from_t = distance_row(g, t, Direction::Forward, false);
        let sinks: Vec<(NodeId, u16)> = (0..n as u32)
            .map(NodeId::new)
            .filter_map(|y| {
                let d = from_t[y.index()];
                (d != UNREACHABLE).then_some((y, d))
            })
            .collect();
        let old = |x, y| match overlay {
            Some(ov) => self.overlay_distance(ov, x, y),
            None => self.index.nonempty_raw(x, y),
        };
        let per_source: Vec<Vec<AffectedPair>> = exec.par_map_index(n, |xi| {
            let x = NodeId::new(xi as u32);
            let dx = to_s[xi];
            if dx == UNREACHABLE || u32::from(old(x, t)) <= u32::from(dx) + 1 {
                return Vec::new(); // no improvement possible through the new edge
            }
            let mut improved = Vec::new();
            for &(y, dy) in &sinks {
                let via = u32::from(dx) + 1 + u32::from(dy);
                let new = via.min(u32::from(UNREACHABLE - 1)) as u16;
                let old = old(x, y);
                if new < old {
                    improved.push(AffectedPair {
                        source: x,
                        sink: y,
                        old,
                        new,
                    });
                }
            }
            improved
        });
        per_source.into_iter().flatten().collect()
    }

    /// AFF1 for an insertion inside a deferred batch: performs **no** label
    /// surgery — every improved pair is recorded in `overlay` instead, and
    /// the end-of-batch rebuild makes the labels exact again.
    fn deferred_insert<G: Adjacency>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
        exec: &Executor,
        overlay: &mut Overlay,
    ) -> Vec<AffectedPair> {
        let pairs = self.insertion_aff1(g, s, t, exec, Some(overlay));
        for p in &pairs {
            overlay.insert((p.source, p.sink), p.new);
        }
        pairs
    }

    /// AFF1 for a deletion inside a deferred batch: the same row-diff +
    /// rectangle shape as [`delete_triage`](Self::delete_triage), but every
    /// rectangle value comes from a fresh BFS row (the labels may be stale)
    /// and every changed pair is recorded in `overlay` instead of repaired.
    ///
    /// Rectangle completeness carries over from the unit argument: an
    /// affected `(x, y)` lost a path running `x ⇝ s → t ⇝ y`, whose prefix
    /// `x ⇝ s` survives the deletion — so `x` still reaches `s` and `(s, y)`
    /// changed too.
    fn deferred_delete<G: Adjacency>(
        &self,
        g: &G,
        s: NodeId,
        overlay: &mut Overlay,
    ) -> Vec<AffectedPair> {
        let n = g.node_count();
        let mut pairs = Vec::new();
        let new_row = distance_row(g, s, Direction::Forward, true);
        let mut changed_sinks: Vec<NodeId> = Vec::new();
        for (yi, &new) in new_row.iter().enumerate() {
            let y = NodeId::new(yi as u32);
            let old = self.overlay_distance(overlay, s, y);
            if old != new {
                pairs.push(AffectedPair {
                    source: s,
                    sink: y,
                    old,
                    new,
                });
                changed_sinks.push(y);
            }
        }
        if changed_sinks.is_empty() {
            crate::metrics::twohop_extra().delete_noop.inc();
            return pairs;
        }
        let to_s = distance_row(g, s, Direction::Backward, false);
        let sources: Vec<NodeId> = (0..n as u32)
            .map(NodeId::new)
            .filter(|&x| x != s && to_s[x.index()] != UNREACHABLE)
            .collect();
        for &y in &changed_sinks {
            // One exact backward row serves the whole column of y.
            let to_y = distance_row(g, y, Direction::Backward, false);
            for &x in &sources {
                let new = if x == y {
                    // Non-empty diagonal: shortest cycle through y.
                    let mut best = UNREACHABLE;
                    for &w in g.out_neighbors(y) {
                        let d = to_y[w.index()];
                        if d != UNREACHABLE {
                            best = best.min(d.saturating_add(1).min(UNREACHABLE - 1));
                        }
                    }
                    best
                } else {
                    to_y[x.index()]
                };
                let old = self.overlay_distance(overlay, x, y);
                if old != new {
                    pairs.push(AffectedPair {
                        source: x,
                        sink: y,
                        old,
                        new,
                    });
                }
            }
        }
        for p in &pairs {
            overlay.insert((p.source, p.sink), p.new);
        }
        pairs
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
        match bound {
            EdgeBound::Hops(k) => {
                let d = self.index.nonempty_raw(from, to);
                d != UNREACHABLE && u32::from(d) <= k
            }
            EdgeBound::Unbounded => self.index.reachable(from, to),
        }
    }

    fn name(&self) -> &'static str {
        "two-hop"
    }

    fn memory_bytes(&self) -> usize {
        IncrementalTwoHop::memory_bytes(self)
    }
}

impl DistanceOracle for IncrementalTwoHop {
    /// Batch maintenance with at most **one** rebuild no matter how many
    /// deletions demand one (module docs, *deferred* mode). Healthy units are
    /// repaired in the labels; the first rebuild-demanding deletion flips
    /// the batch into deferred mode, where AFF1s are computed from BFS rows
    /// against a truth overlay and the batch ends with a single batched,
    /// parallel rebuild on the final graph.
    fn apply_batch(
        &mut self,
        g: &DataGraph,
        updates: &[EdgeUpdate],
        exec: &Executor,
    ) -> AffectedPairs {
        if updates.is_empty() {
            return AffectedPairs::default();
        }
        let m = crate::metrics::twohop();
        let _span = m.apply_ns.span();
        let mut overlay: Option<Overlay> = None;
        let combined = replay_batch(
            self,
            g,
            updates,
            |this, from, to| this.index.nonempty_raw(from, to) == 1,
            |this, view, u| {
                let (from, to) = u.endpoints();
                let pairs = match (&mut overlay, u.is_insert()) {
                    (None, true) => this.insert_repair(view, from, to, exec),
                    (None, false) => match this.delete_triage(view, from) {
                        Some(pairs) => pairs,
                        None => {
                            // First rebuild-demanding deletion: defer. The
                            // labels are untouched and exact for the
                            // pre-deletion graph, so an empty overlay is the
                            // correct starting truth (the triage's two BFS
                            // rows are recomputed — a once-per-batch cost).
                            let ov = overlay.insert(Overlay::default());
                            this.deferred_delete(view, from, ov)
                        }
                    },
                    (Some(ov), true) => this.deferred_insert(view, from, to, exec, ov),
                    (Some(ov), false) => this.deferred_delete(view, from, ov),
                };
                m.note_unit(u.is_insert(), pairs.len());
                pairs
            },
        );
        if overlay.is_some() {
            // The one rebuild the whole batch shares.
            let rebuild_start = gpm_obs::enabled().then(std::time::Instant::now);
            self.index = TwoHopIndex::build_with(g, exec);
            self.hubs_by_rank = recover_ranks(&self.index);
            self.rebuilds += 1;
            self.prune_dominated();
            if let Some(start) = rebuild_start {
                let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                let mx = crate::metrics::twohop_extra();
                mx.batch_deferred.inc();
                mx.rebuilds.inc();
                mx.rebuild_ns.record(ns);
                gpm_obs::emit_event(
                    "oracle",
                    "rebuild",
                    &[("dur_ns", ns)],
                    &[("backend", "two-hop"), ("cause", "batch-delete")],
                );
            }
        }
        combined
    }

    fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    fn clone_box(&self) -> Box<dyn DistanceOracle + Send + Sync> {
        Box::new(self.clone())
    }
}

/// Recovers the hub-rank → node mapping from the self-label entries: every
/// node carries `(own rank, 0)` in its incoming label.
fn recover_ranks(index: &TwoHopIndex) -> Vec<NodeId> {
    let n = index.label_in.len();
    let mut hubs = vec![NodeId::new(0); n];
    for v in 0..n {
        let (rank, _) = index.label_in[v]
            .iter()
            .copied()
            .find(|&(_, d)| d == 0)
            .expect("every node self-labels at distance 0");
        hubs[rank as usize] = NodeId::new(v as u32);
    }
    hubs
}

/// One full BFS row from `origin` (standard when `nonempty` is false,
/// non-empty — seeded at the neighbours, diagonal = shortest cycle — when
/// true), saturating at `UNREACHABLE - 1`.
fn distance_row<G: Adjacency>(
    g: &G,
    origin: NodeId,
    direction: Direction,
    nonempty: bool,
) -> Vec<u16> {
    let n = g.node_count();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = VecDeque::new();
    let neighbours_of = |v: NodeId| match direction {
        Direction::Forward => g.out_neighbors(v),
        Direction::Backward => g.in_neighbors(v),
    };
    if nonempty {
        for &w in neighbours_of(origin) {
            if dist[w.index()] == UNREACHABLE {
                dist[w.index()] = 1;
                queue.push_back(w);
            }
        }
    } else {
        dist[origin.index()] = 0;
        queue.push_back(origin);
    }
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()];
        if d >= UNREACHABLE - 1 {
            continue;
        }
        for &w in neighbours_of(v) {
            if dist[w.index()] == UNREACHABLE {
                dist[w.index()] = d + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Resumes a pruned BFS for `hub` from `start` at distance `start_dist`,
/// inserting/tightening the labels of every node the new edge brought closer
/// to the hub. `dist` is scratch space, fully reset before returning.
#[allow(clippy::too_many_arguments)]
fn resume_label_repair<G: Adjacency>(
    g: &G,
    direction: Direction,
    hub_rank: u32,
    hub: NodeId,
    start: NodeId,
    start_dist: u16,
    label_out: &mut [Vec<LabelEntry>],
    label_in: &mut [Vec<LabelEntry>],
    dist: &mut [u16],
    queue: &mut VecDeque<NodeId>,
) {
    queue.clear();
    dist[start.index()] = start_dist;
    queue.push_back(start);
    let mut visited: Vec<NodeId> = vec![start];
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        // Prune where the current labels already certify `<= dv` — existing
        // entries are valid upper bounds (insertions only shrink distances),
        // so anything at or below the resumed frontier needs no repair.
        let already = match direction {
            Direction::Forward => merge_min(&label_out[hub.index()], &label_in[v.index()]),
            Direction::Backward => merge_min(&label_out[v.index()], &label_in[hub.index()]),
        };
        if already <= dv {
            continue;
        }
        let list = match direction {
            Direction::Forward => &mut label_in[v.index()],
            Direction::Backward => &mut label_out[v.index()],
        };
        upsert(list, hub_rank, dv);
        if dv >= UNREACHABLE - 1 {
            continue;
        }
        let neighbours = match direction {
            Direction::Forward => g.out_neighbors(v),
            Direction::Backward => g.in_neighbors(v),
        };
        for &w in neighbours {
            if dist[w.index()] == UNREACHABLE {
                dist[w.index()] = dv + 1;
                visited.push(w);
                queue.push_back(w);
            }
        }
    }
    for v in visited {
        dist[v.index()] = UNREACHABLE;
    }
}

/// Inserts or tightens the rank-sorted label entry for `rank`.
fn upsert(list: &mut Vec<LabelEntry>, rank: u32, d: u16) {
    match list.binary_search_by_key(&rank, |e| e.0) {
        Ok(i) => {
            if d < list[i].1 {
                list[i].1 = d;
            }
        }
        Err(i) => list.insert(i, (rank, d)),
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
                assert_eq!(
                    oracle.nonempty_distance(x, y),
                    m.nonempty_distance(x, y),
                    "mismatch at ({x}, {y})"
                );
            }
        }
    }

    #[test]
    fn insertion_matches_matrix_aff1_exactly() {
        let mut g = path_graph(4);
        let exec = Executor::sequential();
        let mut oracle = IncrementalTwoHop::build(&g);
        let mut m = DistanceMatrix::build(&g);

        g.add_edge(n(3), n(0)).unwrap();
        let aff_o = oracle.apply_insert(&g, n(3), n(0), &exec);
        let aff_m = m.apply_insert(&g, n(3), n(0), &exec);
        assert_eq!(aff_o, aff_m, "AFF1 must be bit-identical");
        assert_all_pairs_agree(&g, &oracle, &m);
        assert_eq!(oracle.rebuild_count(), 0);
        // The cycle gave every node a finite diagonal.
        assert_eq!(oracle.nonempty_distance(n(0), n(0)), Some(4));
    }

    #[test]
    fn source_node_deletion_is_repaired_in_place() {
        // Nothing reaches node 0, so cutting its out-edge only changes the
        // row of 0 — the labels are repaired in place, no rebuild.
        let mut g = path_graph(4);
        let exec = Executor::sequential();
        let mut oracle = IncrementalTwoHop::build(&g);
        let mut m = DistanceMatrix::build(&g);

        g.remove_edge(n(0), n(1)).unwrap();
        let aff_o = oracle.apply_delete(&g, n(0), n(1), &exec);
        let aff_m = m.apply_delete(&g, n(0), n(1), &exec);
        assert_eq!(aff_o, aff_m);
        assert_all_pairs_agree(&g, &oracle, &m);
        assert_eq!(oracle.rebuild_count(), 0, "in-place source-row repair");

        // The repaired labels must survive *further* maintenance.
        g.add_edge(n(0), n(2)).unwrap();
        let aff_o = oracle.apply_insert(&g, n(0), n(2), &exec);
        let aff_m = m.apply_insert(&g, n(0), n(2), &exec);
        assert_eq!(aff_o, aff_m);
        assert_all_pairs_agree(&g, &oracle, &m);
    }

    #[test]
    fn deletion_with_upstream_sources_rebuilds() {
        // Cutting an interior chain edge affects upstream sources too —
        // repair degrades to a (counted) rebuild.
        let mut g = path_graph(4);
        let exec = Executor::sequential();
        let mut oracle = IncrementalTwoHop::build(&g);
        let mut m = DistanceMatrix::build(&g);

        g.remove_edge(n(2), n(3)).unwrap();
        let aff_o = oracle.apply_delete(&g, n(2), n(3), &exec);
        let aff_m = m.apply_delete(&g, n(2), n(3), &exec);
        assert_eq!(aff_o, aff_m);
        assert_all_pairs_agree(&g, &oracle, &m);
        assert_eq!(oracle.rebuild_count(), 1, "interior cut forces a rebuild");
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
            + oracle.hubs_by_rank.capacity() * std::mem::size_of::<NodeId>();
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
        // (1, leaf) edge changes the row of 1 while 0 still reaches 1, so
        // every unit demands a rebuild — a stream of one-element batches
        // would pay LEAVES rebuilds, the one batch exactly one.
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

        let updates: Vec<EdgeUpdate> = (0..LEAVES)
            .map(|i| EdgeUpdate::Delete(n(1), n(2 + i)))
            .collect();
        for u in &updates {
            u.apply(&mut g);
        }
        let aff_o = oracle.apply_batch(&g, &updates, &exec);
        let aff_m = m.apply_batch(&g, &updates, &exec);
        assert_eq!(aff_o, aff_m);
        assert_all_pairs_agree(&g, &oracle, &m);
        assert_eq!(
            oracle.rebuild_count(),
            1,
            "a batch of rebuild-demanding deletions pays exactly one rebuild"
        );
    }

    #[test]
    fn prune_dominated_bounds_growth_and_keeps_queries_exact() {
        // A long interleaved insert/delete stream leaves stale dominated
        // entries behind; the quiesce hook must drop them without changing
        // any query, landing within a constant factor of a fresh build.
        let (mut g, updates) = random_graph_and_updates(7, 12, 24, 60);
        let exec = Executor::sequential();
        let mut oracle = IncrementalTwoHop::build(&g);
        for u in updates {
            if !u.apply(&mut g) {
                continue;
            }
            let (a, b) = u.endpoints();
            if u.is_insert() {
                oracle.apply_insert(&g, a, b, &exec);
            } else {
                oracle.apply_delete(&g, a, b, &exec);
            }
        }
        let before = oracle.index().label_entries();
        let dropped = oracle.prune_dominated();
        assert_eq!(oracle.index().label_entries() + dropped, before);

        let m = DistanceMatrix::build(&g);
        assert_all_pairs_agree(&g, &oracle, &m);

        let fresh = IncrementalTwoHop::build(&g);
        assert!(
            oracle.index().label_entries() <= 2 * fresh.index().label_entries(),
            "pruned index ({} entries) must stay within 2x of a fresh build ({})",
            oracle.index().label_entries(),
            fresh.index().label_entries()
        );
        // Idempotent at the fixpoint.
        assert_eq!(oracle.prune_dominated(), 0);
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
            let (mut g, updates) = random_graph_and_updates(seed, 13, 26, 10);
            let exec = Executor::sequential();
            let mut oracle = IncrementalTwoHop::build(&g);
            let mut m = DistanceMatrix::build(&g);
            for u in updates {
                if !u.apply(&mut g) {
                    continue;
                }
                let (a, b) = u.endpoints();
                let (aff_o, aff_m) = if u.is_insert() {
                    (oracle.apply_insert(&g, a, b, &exec), m.apply_insert(&g, a, b, &exec))
                } else {
                    (oracle.apply_delete(&g, a, b, &exec), m.apply_delete(&g, a, b, &exec))
                };
                prop_assert_eq!(&aff_o, &aff_m, "AFF1 must be bit-identical ({})", u);
                for x in g.nodes() {
                    for y in g.nodes() {
                        prop_assert_eq!(
                            oracle.nonempty_distance(x, y),
                            m.nonempty_distance(x, y),
                            "seed {} after {}: mismatch at ({}, {})", seed, u, x, y
                        );
                    }
                }
            }
        }

        /// Whole random batches (mixed inserts and deletes, including
        /// rebuild-demanding ones) produce the same net AFF1 set as the
        /// matrix, leave every query exact, and pay at most one rebuild.
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
            prop_assert!(oracle.rebuild_count() <= 1, "at most one rebuild per batch");
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
            let (mut oracle_eff, mut m_eff) = built;
            let aff_m = m_raw.apply_batch(&g, &raw, &exec);
            prop_assert_eq!(&aff_m, &m_eff.apply_batch(&g, &effective, &exec));
            prop_assert_eq!(&aff_m, &oracle_raw.apply_batch(&g, &raw, &exec));
            prop_assert_eq!(&aff_m, &oracle_eff.apply_batch(&g, &effective, &exec));
            prop_assert_eq!(&m_raw, &DistanceMatrix::build(&g));
            prop_assert_eq!(&m_raw, &m_eff);
            assert_all_pairs_agree(&g, &oracle_raw, &m_raw);
            assert_all_pairs_agree(&g, &oracle_eff, &m_raw);
            prop_assert_eq!(oracle_raw.rebuild_count(), oracle_eff.rebuild_count());
            if effective.is_empty() {
                prop_assert!(aff_m.is_empty());
                prop_assert_eq!(oracle_raw.rebuild_count(), 0);
            }
        }
    }
}
