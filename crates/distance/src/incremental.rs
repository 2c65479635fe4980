//! Incremental maintenance of the distance matrix — the paper's `UpdateM`
//! (unit updates) and `UpdateBM` (batch updates).
//!
//! Both procedures take the data graph *after* the update has been applied,
//! patch the matrix in place and return `AFF1`: the set of source–sink pairs
//! whose (non-empty) distance changed, together with the old and new values.
//! `AFF1` is what drives `Match−`/`Match+`/`IncMatch` in `gpm-incremental`,
//! and its size is the first factor of the `O(|AFF1| |AFF2|²)` bound of
//! Theorem 4.1.
//!
//! # The affected cone
//!
//! A unit on the edge `(s, t)` is one pruned backward sweep from `s`
//! (`cone_sweep`; per direction `insertion_sweep` and `deletion_sweep`)
//! that enumerates `AFF1` source by source and touches only the rows of the
//! affected sources and of their in-neighbours. Write `std` for standard
//! distances (diagonal 0), `old` / `new` for the non-empty distances around
//! the unit, `via(x, y) = std(x, s) + 1 + std(t, y)` for the best route
//! through the edge, and `Y(x)` for the sinks `y` with `(x, y) ∈ AFF1`. An
//! insertion has
//! `new = min(old, via)`, so `y ∈ Y(x)` iff `via(x, y) < old(x, y)`; a
//! deletion changes `(x, y)` only if every old shortest path used the edge,
//! which forces `old(x, y) = via(x, y)` (a *tied* pair; it is affected when
//! no route of that length avoids the edge).
//!
//! **Lemma.** If `x ≠ s` and `w` is the next node on *any* shortest
//! `x ⇝ s` path, then `Y(x) ⊆ Y(w)`.
//!
//! * *Insertion.* Let `y ∉ Y(w)`: `old(w, y) ≤ via(w, y)`. Then
//!   `old(x, y) ≤ 1 + old(w, y) ≤ 1 + std(w, s) + 1 + std(t, y) = via(x, y)`,
//!   so `y ∉ Y(x)`.
//! * *Deletion.* Let `y ∈ Y(x)`, so `old(x, y) = via(x, y)`, and suppose
//!   `y ∉ Y(w)`: some shortest `w ⇝ y` path avoids the edge. It is no longer
//!   than `via(w, y) = via(x, y) − 1`, and `x → w` is not the deleted edge
//!   (`x ≠ s`), so prefixing it gives an `x ⇝ y` route of length
//!   `≤ old(x, y)` that survives the deletion — `(x, y)` is unaffected, a
//!   contradiction.
//!
//! Distances are non-empty throughout, so both arguments cover `y = x` (the
//! shortest cycle through `x`) and `y = w`. The affected sources are
//! therefore exactly the cone reached backward from `s` along in-edges
//! through sources with `Y ≠ ∅`, and a source only has to test the sinks of a
//! successor's `Y(w)` — on its own contiguous row. The classical filters are
//! special cases: every `Y(x) ⊆ Y(s)` (suffix optimality), and the lemma's
//! mirror image on the sink side puts `t` in every non-empty `Y(x)` (prefix
//! optimality).
//!
//! **Pre-unit values.** No shortest path into `s` or out of `t` uses
//! `(s, t)` — it would pass its own endpoint twice — so `std(·, s)` and
//! `std(t, ·)` are the same before and after the unit. The sweep needs
//! `std(t, ·)` as one row (row `t`, diagonal 0) and copies it before the
//! first write, because `t` is itself a source whenever it reaches `s` and
//! its row is then rewritten mid-sweep. `std(·, s)` is never read: **the
//! sweep's own BFS level is `std(p, s)`** for every source that matters. A
//! source with `Y(p) ≠ ∅` has, by the lemma, every node of every shortest
//! `p ⇝ s` path in the cone, so the FIFO reaches it first from a true
//! successor, at its true level. A node reached deeper than its true level
//! therefore has `Y = ∅`, and the over-estimated level cannot invent a pair
//! for it: an insertion's `via` only grows with the level, and a deletion's
//! spuriously tied entries are settled by the exact row repair at the
//! value they already hold. Either way it is marked visited with `Y = ∅`
//! and the sweep does not continue through it.
//!
//! **No special cases.** A self-loop (`s = t`) is the general rule with
//! `std(t, s) = 0`: only the diagonal of `s` is tied or improves. A cycle
//! through the edge is the sink `y = p` of source `p`, tested like any other
//! sink of `Y(w)` against `std(t, p)`. `t` as a source is covered by the
//! copied row.
//!
//! # The deletion's row repair
//!
//! A deletion source decides its tied sinks on its own row with Ramalingam
//! and Reps' two phases (`Repair::run`). **Phase 1** visits the candidates in
//! ascending old distance and settles every `y` that an in-neighbour still
//! gives `old(p, y)`: `p` itself at distance 1, or a `v` already final with
//! `row[v] + 1 = old`. It is *sound in any order* — a final in-neighbour
//! bounds `new ≤ old`, and a deletion never shortens a distance — and
//! *complete in ascending order*: the node before an unchanged `y` on a
//! shortest surviving path is `p`, a non-candidate (unchanged by the lemma)
//! or an unchanged candidate with a smaller `old`, settled first. So what
//! phase 1 leaves pending is exactly `Y(p)`, and **phase 2**, a search from
//! the fixed boundary, pays only for the pairs that change. The repair's
//! two tallies make that a counted bound: `matrix.repair_searched` is the
//! summed `|AFF1|` of the deletion units, below `matrix.repair_candidates`,
//! below `matrix.pairs_examined`.
//!
//! # Order
//!
//! A unit's `AFF1` is in **sweep order** — one run per source, sources in
//! FIFO order from `s`, every run ascending by sink (`Y(s)` is found in sink
//! order and every `Y(p)` is filtered out of a `Y(w)` in order); the vector
//! doubles as the sweep's arena (`Y(w)` is a range of it). A **batch** is
//! replayed unit by unit against a [`BatchReplay`] view of the post-batch
//! graph — never a copy of it — and the units' `AFF1`s are folded by
//! `AffectedPairs::net` into the batch's `AFF1`, sorted by `(source, sink)`.

use crate::bfs::{hop_sum, HORIZON};
use crate::matrix::DistanceMatrix;
use crate::metrics::OracleMetrics;
use crate::two_hop_inc::LabelScratch;
use crate::UNREACHABLE;
use gpm_graph::{Adjacency, BatchReplay, DataGraph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::Range;

/// A single edge update applied to a data graph.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeUpdate {
    /// Insert the edge `(from, to)`.
    Insert(NodeId, NodeId),
    /// Delete the edge `(from, to)`.
    Delete(NodeId, NodeId),
}

impl EdgeUpdate {
    /// The edge endpoints `(from, to)` of the update.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            EdgeUpdate::Insert(a, b) | EdgeUpdate::Delete(a, b) => (a, b),
        }
    }

    /// Whether this is an insertion.
    pub fn is_insert(&self) -> bool {
        matches!(self, EdgeUpdate::Insert(..))
    }

    /// Applies this update to `g`; returns `false` (and leaves `g` unchanged)
    /// if it is a no-op (inserting an existing edge / deleting a missing one).
    pub fn apply(&self, g: &mut DataGraph) -> bool {
        match *self {
            EdgeUpdate::Insert(a, b) => g.try_add_edge(a, b).unwrap_or(false),
            EdgeUpdate::Delete(a, b) => g.remove_edge(a, b).is_ok(),
        }
    }
}

impl std::fmt::Display for EdgeUpdate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeUpdate::Insert(a, b) => write!(f, "+({a}, {b})"),
            EdgeUpdate::Delete(a, b) => write!(f, "-({a}, {b})"),
        }
    }
}

/// One entry of `AFF1`: the distance from `source` to `sink` changed from
/// `old` to `new` (both in hops, `UNREACHABLE` = no path).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AffectedPair {
    /// The source of the affected pair.
    pub source: NodeId,
    /// The sink of the affected pair.
    pub sink: NodeId,
    /// The distance before the update.
    pub old: u16,
    /// The distance after the update.
    pub new: u16,
}

impl AffectedPair {
    /// Whether the distance increased (deletions) rather than decreased.
    pub fn increased(&self) -> bool {
        self.new > self.old
    }
}

/// The set `AFF1` of node pairs whose pairwise distance changed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AffectedPairs {
    /// The affected pairs. A batch's `AFF1` — everything
    /// [`DistanceOracle::apply_batch`](crate::DistanceOracle::apply_batch)
    /// returns — is sorted by `(source, sink)`.
    pub pairs: Vec<AffectedPair>,
}

impl AffectedPairs {
    /// Number of affected source–sink pairs, `|AFF1|`.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pair was affected.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates over the affected pairs.
    pub fn iter(&self) -> impl Iterator<Item = &AffectedPair> {
        self.pairs.iter()
    }

    /// The net `AFF1` of a sequence of unit `AFF1`s laid end to end: per
    /// pair the earliest `old` and the latest `new` value, pairs whose
    /// distance ends up unchanged dropped, sorted by `(source, sink)`.
    ///
    /// Any sequence is accepted. The pairs are bucketed by source — a stable
    /// counting sort, no comparisons — and a source's sinks are sorted only
    /// where they are not ascending already: a sweep emits every source's
    /// run ascending (module docs, *Order*), which leaves the sources that
    /// more than one unit of the batch reached.
    pub(crate) fn net(sequence: Vec<AffectedPair>) -> AffectedPairs {
        // `slot[x]`: where the next pair of source `x` goes.
        let sources = 1 + sequence.iter().map(|p| p.source.index()).max().unwrap_or(0);
        let mut slot = vec![0usize; sources + 1];
        for p in &sequence {
            slot[p.source.index() + 1] += 1;
        }
        for x in 1..sources {
            slot[x] += slot[x - 1];
        }
        let mut pairs = sequence.clone();
        for p in sequence {
            let at = &mut slot[p.source.index()];
            pairs[*at] = p;
            *at += 1;
        }
        let mut from = 0;
        while from < pairs.len() {
            let source = pairs[from].source;
            let run = pairs[from..].iter().take_while(|p| p.source == source);
            let to = from + run.count();
            if !pairs[from..to].windows(2).all(|w| w[0].sink < w[1].sink) {
                pairs[from..to].sort_by_key(|p| p.sink); // stable: unit order
            }
            from = to;
        }
        // The entries of one pair are adjacent now, in unit order.
        pairs.dedup_by(|later, first| {
            let same = (later.source, later.sink) == (first.source, first.sink);
            if same {
                first.new = later.new;
            }
            same
        });
        pairs.retain(|p| p.old != p.new);
        AffectedPairs { pairs }
    }
}

/// Everything a unit needs that is sized by `|V|`, allocated once per batch
/// by [`replay_batch`] and handed from unit to unit. Each unit restores what
/// it marked through the lists of what it touched (as `pruned_bfs` restores
/// its `dist`), so a unit costs what it reaches, not `|V|`.
#[derive(Default)]
pub(crate) struct Sweep {
    cone: Cone,
    /// `std(t, ·)` before the unit (row `t`, diagonal 0). The caller of a
    /// sweep fills it; every entry is overwritten per unit.
    pub(crate) from_t: Vec<u16>,
    repair: Repair,
    /// What the 2-hop units keep between them.
    pub(crate) labels: LabelScratch,
    /// `(source, sink)` pairs whose old distance was read, over the
    /// workspace's lifetime.
    pairs: u64,
}

/// The traversal state of [`cone_sweep`].
#[derive(Default)]
struct Cone {
    /// Sources the current unit has tested; all `false` between units.
    visited: Vec<bool>,
    /// The nodes marked in `visited`, for the reset.
    touched: Vec<NodeId>,
    /// Sources with `Y ≠ ∅` still to expand: the source, its level
    /// `std(p, s)` and `Y(p)` as a range of the unit's `AFF1`.
    queue: VecDeque<(NodeId, u16, Range<usize>)>,
    /// Sources tested over the workspace's lifetime.
    rows: u64,
}

/// The scratch of a deletion's row repairs ([`Repair::run`]).
#[derive(Default)]
struct Repair {
    /// Marks the candidates not yet decided; all `false` between repairs.
    pending: Vec<bool>,
    /// The tied sinks of the row under repair, with their old distances.
    candidates: Vec<(NodeId, u16)>,
    /// `(old distance, candidate)`, in phase 1's order.
    order: Vec<(u16, NodeId)>,
    /// `(old distance, candidate)`: the pending candidates whose key phase 1
    /// could not know yet.
    unsure: Vec<(u16, NodeId)>,
    /// `(distance, candidate)`: phase 2's boundary keys, sorted, and its
    /// FIFO of relaxations, consumed by index.
    keys: Vec<(u16, NodeId)>,
    relaxed: Vec<(u16, NodeId)>,
    /// Candidates handed to the repair, over the workspace's lifetime.
    handed: u64,
    /// Candidates still pending after phase 1, over the workspace's
    /// lifetime: exactly the pairs the repairs changed.
    searched: u64,
}

impl Sweep {
    /// A workspace for graphs of `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        let mut ws = Sweep::default();
        ws.cone.visited.resize(n, false);
        ws.from_t.resize(n, 0);
        ws.repair.pending.resize(n, false);
        ws
    }
}

/// `UpdateM`: maintains the distance matrix under a **single** edge update —
/// the unit [`DistanceMatrix`]'s `apply_batch` hands to [`replay_batch`].
///
/// `g` must already reflect the update (edge inserted/removed); `matrix` must
/// be the matrix of the graph *before* the update. Returns `AFF1` in sweep
/// order. One sequential kernel per direction at every thread count: a whole
/// unit costs about what opening one parallel region does.
pub(crate) fn update_unit<G: Adjacency>(
    matrix: &mut DistanceMatrix,
    g: &G,
    update: EdgeUpdate,
    ws: &mut Sweep,
) -> Vec<AffectedPair> {
    debug_assert_eq!(g.node_count(), matrix.node_count());
    let (s, t) = update.endpoints();
    debug_assert_eq!(g.has_edge(s, t), update.is_insert(), "g reflects {update}");
    ws.from_t.copy_from_slice(matrix.row(t));
    ws.from_t[t.index()] = 0;
    if update.is_insert() {
        insertion_sweep(g, s, ws, |p, y, via| {
            let entry = &mut matrix.row_mut(p)[y.index()];
            (via < *entry).then(|| std::mem::replace(entry, via))
        })
    } else {
        deletion_sweep(g, matrix, s, ws)
    }
}

/// The one batch-replay loop of the crate: steps a [`BatchReplay`] view of
/// `g` (the post-batch graph) through `updates`, hands every *effective*
/// update to `unit` together with the graph at that position, and folds the
/// units' `AFF1`s into the batch's net `AFF1`.
///
/// `oracle` still reflects the pre-batch graph when this is called, which is
/// what makes the rewind exact: `existed_before` answers whether a touched
/// edge was there before the batch (its non-empty distance is 1).
///
/// The back-ends' shared accounting lives here, so that both count the same
/// things under the same names: one `apply_ns` span per non-empty batch, one
/// `note_unit` per effective update with the size of its *unit* `AFF1`, and
/// the work tallies of the batch's one [`Sweep`] workspace.
pub(crate) fn replay_batch<O>(
    oracle: &mut O,
    g: &DataGraph,
    updates: &[EdgeUpdate],
    metrics: &OracleMetrics,
    existed_before: impl Fn(&O, NodeId, NodeId) -> bool,
    mut unit: impl FnMut(&mut O, &BatchReplay<'_>, EdgeUpdate, &mut Sweep) -> Vec<AffectedPair>,
) -> AffectedPairs {
    if updates.is_empty() {
        return AffectedPairs::default();
    }
    let _span = metrics.apply_ns.span();
    let mut view = BatchReplay::rewind(g, updates.iter().map(EdgeUpdate::endpoints), |a, b| {
        existed_before(oracle, a, b)
    });
    let mut ws = Sweep::new(g.node_count());
    let mut sequence = Vec::new();
    for &u in updates {
        let (from, to) = u.endpoints();
        if view.set_edge(from, to, u.is_insert()) {
            let pairs = unit(oracle, &view, u, &mut ws);
            metrics.note_unit(u.is_insert(), pairs.len());
            sequence.extend(pairs);
        }
    }
    metrics.sweep_rows.add(ws.cone.rows);
    metrics.pairs_examined.add(ws.pairs);
    if let Some(repair) = &metrics.repair {
        repair.candidates.add(ws.repair.handed);
        repair.searched.add(ws.repair.searched);
    }
    AffectedPairs::net(sequence)
}

/// The pruned backward sweep from `s` both unit kernels are (module docs,
/// *The affected cone*). `decide(p, level, within, aff1)` appends `Y(p)` to
/// `aff1`, the unit's `AFF1`: `within` is `Y(w)` of the successor `p` was
/// reached from, as a range of `aff1` — the only sinks `p` has to test — or
/// `None` for `s` itself, which tests every sink. `level` is `std(p, s)`
/// whenever `Y(p)` can be non-empty.
fn cone_sweep<G: Adjacency>(
    g: &G,
    s: NodeId,
    cone: &mut Cone,
    mut decide: impl FnMut(NodeId, u16, Option<Range<usize>>, &mut Vec<AffectedPair>),
) -> Vec<AffectedPair> {
    let mut aff1 = Vec::new();
    cone.visited[s.index()] = true;
    cone.touched.push(s);
    decide(s, 0, None, &mut aff1);
    if !aff1.is_empty() {
        cone.queue.push_back((s, 0, 0..aff1.len()));
    }
    while let Some((w, level, within)) = cone.queue.pop_front() {
        if level >= HORIZON {
            continue; // the horizon: farther nodes do not reach `s`
        }
        for &p in g.in_neighbors(w) {
            // Visited even if `Y(p)` comes out empty: it is empty against
            // every successor.
            if std::mem::replace(&mut cone.visited[p.index()], true) {
                continue;
            }
            cone.touched.push(p);
            let start = aff1.len();
            decide(p, level + 1, Some(within.clone()), &mut aff1);
            if aff1.len() > start {
                cone.queue.push_back((p, level + 1, start..aff1.len()));
            }
        }
    }
    cone.rows += cone.touched.len() as u64;
    for p in cone.touched.drain(..) {
        cone.visited[p.index()] = false;
    }
    aff1
}

/// `AFF1` of inserting `(s, t)`, in sweep order: source `p` at level `l`
/// improves exactly the sinks `y` of its successor's `Y(w)` with
/// `l + 1 + std(t, y) < old(p, y)`; `Y(s)` is read off rows `s` and `t`.
/// `ws.from_t` holds `std(t, ·)`. The function is generic over how `old` is
/// read and an improvement is stored, and is shared with the 2-hop labeling:
/// `improve(p, y, via)` compares the route of `via` hops through the new edge
/// with `old(p, y)` and returns `old(p, y)` if the route is shorter — having
/// stored `via`, if the caller keeps its distances in place.
pub(crate) fn insertion_sweep<G: Adjacency>(
    g: &G,
    s: NodeId,
    ws: &mut Sweep,
    mut improve: impl FnMut(NodeId, NodeId, u16) -> Option<u16>,
) -> Vec<AffectedPair> {
    let Sweep {
        cone,
        from_t,
        pairs,
        ..
    } = ws;
    cone_sweep(g, s, cone, |p, level, within, aff1| {
        let mut test = |y: NodeId, aff1: &mut Vec<AffectedPair>| {
            *pairs += 1;
            let new = hop_sum(level, from_t[y.index()]);
            if let Some(old) = improve(p, y, new) {
                aff1.push(AffectedPair {
                    source: p,
                    sink: y,
                    old,
                    new,
                });
            }
        };
        match within {
            Some(sinks) => sinks.for_each(|i| test(aff1[i].sink, aff1)),
            None => (0..from_t.len())
                .filter(|&y| from_t[y] != UNREACHABLE)
                .for_each(|y| test(NodeId::new(y as u32), aff1)),
        }
    })
}

/// `AFF1` of deleting `(s, t)`, in sweep order: source `p` collects the sinks
/// of `Y(w)` that are tied on its row (for `s`: every tied entry of the row)
/// and repairs them in place; those that changed are `Y(p)`. `ws.from_t`
/// holds `std(t, ·)`.
fn deletion_sweep<G: Adjacency>(
    g: &G,
    matrix: &mut DistanceMatrix,
    s: NodeId,
    ws: &mut Sweep,
) -> Vec<AffectedPair> {
    let Sweep {
        cone,
        from_t,
        repair,
        pairs,
        ..
    } = ws;
    cone_sweep(g, s, cone, |p, level, within, aff1| {
        let row = matrix.row_mut(p);
        let through = u32::from(level) + 1;
        let tied = |y: NodeId| {
            let old = row[y.index()];
            let tied = u32::from(old) == through + u32::from(from_t[y.index()]);
            (tied && old != UNREACHABLE).then_some((y, old))
        };
        repair.candidates.clear();
        match within {
            Some(sinks) => {
                *pairs += sinks.len() as u64;
                let sinks = aff1[sinks].iter().map(|pair| pair.sink);
                repair.candidates.extend(sinks.filter_map(tied));
            }
            None => {
                *pairs += row.len() as u64;
                let sinks = (0..row.len() as u32).map(NodeId::new);
                repair.candidates.extend(sinks.filter_map(tied));
            }
        }
        repair.run(g, p, row, aff1);
    })
}

impl Repair {
    /// Recomputes the entries of `row` — the row of source `p` — at
    /// `self.candidates` against the graph without the deleted edge, and
    /// appends those that changed to `aff1`: Ramalingam and Reps' deletion
    /// repair, both phases, transposed so that one repair reads and writes
    /// one row.
    ///
    /// Every other entry of the row is provably unchanged (outside `Y(w)` by
    /// the lemma, untied because an affected pair is tied) and acts as the
    /// fixed boundary.
    ///
    /// **Phase 1 settles the candidates that keep their distance.** It visits
    /// them in ascending old distance and settles `y` when an in-neighbour
    /// still gives `old(p, y)`: `p` itself when `old = 1`, or a `v` that is
    /// not pending with `row[v] + 1 = old`. *Sound in any order:* a settled
    /// in-neighbour bounds `new ≤ old`, and a deletion never shortens a
    /// distance. *Complete in ascending order:* on a shortest surviving path
    /// of an unchanged `y`, the node before `y` is `p`, a non-candidate
    /// (fixed boundary) or a candidate with a smaller `old` that is itself
    /// unchanged and was settled first. So the candidates left pending are
    /// exactly the sinks of the row that change — `Y(p)`.
    ///
    /// **Phase 2 searches the pending ones.** The key of a pending `y` is
    /// the minimum over its in-neighbours `v` of `1` if `v = p`, else
    /// `new(p, v) + 1` for `v` not pending. Phase 1's scan of `y` has
    /// already seen every in-neighbour, so it keeps that minimum unless one
    /// of them is a candidate it has not decided yet (`old(v) ≥ old(p, y)`:
    /// it may still settle); only those `y` are scanned again. Weights are
    /// 1, so no heap: the sorted keys and a FIFO of relaxations are both
    /// non-decreasing, so is their merged pop order, and **the first pop of
    /// a candidate is final** (a later pop, or a relaxation from a later one,
    /// cannot be shorter). A candidate never popped has lost its last path.
    fn run<G: Adjacency>(
        &mut self,
        g: &G,
        p: NodeId,
        row: &mut [u16],
        aff1: &mut Vec<AffectedPair>,
    ) {
        let Repair {
            pending,
            candidates,
            order,
            unsure,
            keys,
            relaxed,
            handed,
            searched,
        } = self;
        for (y, _) in candidates.iter() {
            pending[y.index()] = true;
        }
        *handed += candidates.len() as u64;
        // Phase 1, in ascending old distance: a candidate is settled by an
        // in-neighbour one hop closer that is final already (`p` itself at
        // hop 0).
        order.clear();
        order.extend(candidates.iter().map(|&(y, old)| (old, y)));
        order.sort_unstable_by_key(|&(old, _)| old);
        keys.clear();
        unsure.clear();
        for &(old, y) in order.iter() {
            let (kept, key, open) = scan_in(g, p, row, pending, y, old);
            if kept {
                pending[y.index()] = false;
                continue;
            }
            *searched += 1;
            if open {
                unsure.push((old, y));
            } else if key != UNREACHABLE {
                keys.push((key, y));
            }
        }
        // Phase 2 over the candidates still pending; every candidate is
        // decided now, so a second scan of the unsure ones finds their keys.
        for &(old, y) in unsure.iter() {
            let (_, key, _) = scan_in(g, p, row, pending, y, old);
            if key != UNREACHABLE {
                keys.push((key, y));
            }
        }
        keys.sort_unstable();
        relaxed.clear();
        let (mut next_key, mut next_relaxed) = (0, 0);
        loop {
            // Both lists are non-decreasing: pop the smaller head
            // (`UNREACHABLE`, which no distance equals: the list is spent).
            let key = keys.get(next_key).map_or(UNREACHABLE, |key| key.0);
            let hop = relaxed.get(next_relaxed).map_or(UNREACHABLE, |hop| hop.0);
            let (list, next) = match hop < key {
                true => (&*relaxed, &mut next_relaxed),
                false => (&*keys, &mut next_key),
            };
            let Some(&(d, y)) = list.get(*next) else {
                break;
            };
            *next += 1;
            // The first pop of a candidate is final.
            if !std::mem::take(&mut pending[y.index()]) {
                continue;
            }
            row[y.index()] = d;
            if d < HORIZON {
                let onward = g.out_neighbors(y).iter();
                relaxed.extend(onward.filter(|z| pending[z.index()]).map(|&z| (d + 1, z)));
            }
        }
        // In candidate order, which keeps every `Y(p)` ascending by sink.
        for &(y, old) in candidates.iter() {
            if std::mem::take(&mut pending[y.index()]) {
                row[y.index()] = UNREACHABLE; // never popped: no path is left
            }
            let new = row[y.index()];
            if new != old {
                aff1.push(AffectedPair {
                    source: p,
                    sink: y,
                    old,
                    new,
                });
            }
        }
    }
}

/// One pass over the in-neighbours `v` of the candidate `y` of row `p`, whose
/// old distance is `old`. Returns whether some `v` still gives `old` (`p`
/// itself at hop 0, or a final `v` with `row[v] + 1 = old`); the shortest
/// route into `y` through a final `v` below the horizon or `p`
/// (`UNREACHABLE` if none); and whether a `v` is a candidate not decided
/// yet (pending at `old(v) ≥ old`, so it may still settle and give `y` a
/// shorter key).
// Forced inline: it runs once per candidate, and the out-of-line call read
// ≈ 3 % slower deletion batches on the `inproc-maintain` script.
#[inline(always)]
fn scan_in<G: Adjacency>(
    g: &G,
    p: NodeId,
    row: &[u16],
    pending: &[bool],
    y: NodeId,
    old: u16,
) -> (bool, u16, bool) {
    let (mut key, mut open) = (UNREACHABLE, false);
    let kept = g.in_neighbors(y).iter().any(|&v| {
        let d = match v == p {
            true => 0,
            false if pending[v.index()] => {
                open |= row[v.index()] >= old;
                return false;
            }
            false => row[v.index()],
        };
        if d < HORIZON {
            key = key.min(d + 1);
        }
        u32::from(d) + 1 == u32::from(old)
    });
    (kept, key, open)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistanceOracle as _, IncrementalTwoHop};
    use gpm_exec::Executor;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom as _;
    use rand::{Rng as _, SeedableRng as _};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// One unit straight through the dispatcher, `AFF1` in sweep order; a
    /// batch goes through `apply_batch`.
    fn update_matrix(g: &DataGraph, m: &mut DistanceMatrix, u: EdgeUpdate) -> AffectedPairs {
        let pairs = update_unit(m, g, u, &mut Sweep::new(g.node_count()));
        AffectedPairs { pairs }
    }

    fn update_matrix_batch(
        g: &DataGraph,
        m: &mut DistanceMatrix,
        updates: &[EdgeUpdate],
    ) -> AffectedPairs {
        m.apply_batch(g, updates, &Executor::from_env())
    }

    fn path_graph(len: u32) -> DataGraph {
        let mut g = DataGraph::new();
        g.add_nodes(len as usize);
        for i in 0..len - 1 {
            g.add_edge(n(i), n(i + 1)).unwrap();
        }
        g
    }

    fn pair(source: u32, sink: u32, old: u16, new: u16) -> AffectedPair {
        AffectedPair {
            source: n(source),
            sink: n(sink),
            old,
            new,
        }
    }

    #[test]
    fn edge_update_helpers() {
        let mut g = path_graph(3);
        let ins = EdgeUpdate::Insert(n(2), n(0));
        let del = EdgeUpdate::Delete(n(0), n(1));
        assert_eq!(ins.endpoints(), (n(2), n(0)));
        assert!(ins.is_insert());
        assert!(!del.is_insert());
        assert_eq!(ins.to_string(), "+(v2, v0)");
        assert_eq!(del.to_string(), "-(v0, v1)");
        assert!(ins.apply(&mut g));
        assert!(!ins.apply(&mut g)); // duplicate insert is a no-op
        assert!(del.apply(&mut g));
        assert!(!del.apply(&mut g)); // already deleted
    }

    #[test]
    fn insertion_creates_shortcut() {
        // 0 -> 1 -> 2 -> 3; insert 0 -> 3.
        let mut g = path_graph(4);
        let mut m = DistanceMatrix::build(&g);
        assert_eq!(m.nonempty_distance(n(0), n(3)), Some(3));

        let update = EdgeUpdate::Insert(n(0), n(3));
        update.apply(&mut g);
        let aff = update_matrix(&g, &mut m, update);

        assert_eq!(m.nonempty_distance(n(0), n(3)), Some(1));
        assert_eq!(m, DistanceMatrix::build(&g));
        assert!(aff
            .iter()
            .any(|p| p.source == n(0) && p.sink == n(3) && !p.increased()));
    }

    #[test]
    fn insertion_creating_cycle_updates_diagonal() {
        // 0 -> 1 -> 2; insert 2 -> 0 closing a cycle.
        let mut g = path_graph(3);
        let mut m = DistanceMatrix::build(&g);
        assert_eq!(m.nonempty_distance(n(0), n(0)), None);

        let update = EdgeUpdate::Insert(n(2), n(0));
        update.apply(&mut g);
        let aff = update_matrix(&g, &mut m, update);

        assert_eq!(m, DistanceMatrix::build(&g));
        assert_eq!(m.nonempty_distance(n(0), n(0)), Some(3));
        assert_eq!(m.nonempty_distance(n(2), n(1)), Some(2));
        assert!(!aff.is_empty());
    }

    #[test]
    fn deletion_disconnects() {
        // 0 -> 1 -> 2 -> 3; delete 1 -> 2.
        let mut g = path_graph(4);
        let mut m = DistanceMatrix::build(&g);

        let update = EdgeUpdate::Delete(n(1), n(2));
        update.apply(&mut g);
        let aff = update_matrix(&g, &mut m, update);

        assert_eq!(m, DistanceMatrix::build(&g));
        assert_eq!(m.nonempty_distance(n(0), n(3)), None);
        assert!(aff
            .iter()
            .any(|p| p.source == n(0) && p.sink == n(3) && p.increased()));
        // Pairs not using the edge are untouched.
        assert!(!aff.iter().any(|p| p.source == n(2)));
    }

    #[test]
    fn deletion_with_alternative_path() {
        // 0 -> 1 -> 3 and 0 -> 2 -> 3; deleting 1 -> 3 keeps dist(0,3) = 2.
        let mut g = DataGraph::new();
        g.add_nodes(4);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(3)).unwrap();
        g.add_edge(n(0), n(2)).unwrap();
        g.add_edge(n(2), n(3)).unwrap();
        let mut m = DistanceMatrix::build(&g);

        let update = EdgeUpdate::Delete(n(1), n(3));
        update.apply(&mut g);
        let aff = update_matrix(&g, &mut m, update);

        assert_eq!(m, DistanceMatrix::build(&g));
        assert_eq!(m.nonempty_distance(n(0), n(3)), Some(2));
        // dist(0, 3) did not change; only (1, 3) got worse.
        assert!(aff.iter().all(|p| p.source != n(0) || p.sink != n(3)));
        assert!(aff.iter().any(|p| p.source == n(1) && p.sink == n(3)));
    }

    #[test]
    fn net_aff1_chains_units_and_sorts() {
        let net = AffectedPairs::net(vec![
            pair(2, 3, UNREACHABLE, 4),
            pair(0, 1, 3, 5),
            pair(2, 3, 4, 1),
            pair(0, 1, 5, 3),
            pair(1, 0, 2, 7),
        ]);
        // (0,1) went 3 -> 5 -> 3: net unchanged, dropped; (2,3) keeps its
        // earliest old and latest new; the rest comes out sorted.
        assert_eq!(
            net.pairs,
            vec![pair(1, 0, 2, 7), pair(2, 3, UNREACHABLE, 1)]
        );
    }

    /// The reference fold `net` is held against: one stable sort of the pairs.
    fn net_by_pair_sort(mut sequence: Vec<AffectedPair>) -> Vec<AffectedPair> {
        sequence.sort_by_key(|p| (p.source, p.sink));
        let mut pairs: Vec<AffectedPair> = Vec::new();
        for p in sequence {
            match pairs.last_mut() {
                Some(last) if (last.source, last.sink) == (p.source, p.sink) => last.new = p.new,
                _ => pairs.push(p),
            }
        }
        pairs.retain(|p| p.old != p.new);
        pairs
    }

    #[test]
    fn net_aff1_folds_source_runs_like_a_sort_of_the_pairs() {
        // Three units in sweep order: runs of one source, sources in no
        // order, a source in several units, sinks of a run unsorted (a
        // deletion's), a pair that moves three times and one that returns.
        let units = vec![
            pair(5, 1, 2, 3),
            pair(5, 4, 1, 2),
            pair(2, 7, 4, 6),
            pair(2, 3, 3, 5),
            pair(9, 9, 2, UNREACHABLE),
            pair(2, 3, 5, 4),
            pair(5, 4, 2, 1),
            pair(5, 0, 7, 6),
            pair(0, 8, 3, 2),
            pair(2, 3, 4, 2),
            pair(9, 9, UNREACHABLE, 5),
        ];
        let expected = vec![
            pair(0, 8, 3, 2),
            pair(2, 3, 3, 2),
            pair(2, 7, 4, 6),
            pair(5, 0, 7, 6),
            pair(5, 1, 2, 3),
            pair(9, 9, 2, 5),
        ];
        assert_eq!(net_by_pair_sort(units.clone()), expected);
        assert_eq!(AffectedPairs::net(units).pairs, expected);
        assert!(AffectedPairs::net(Vec::new()).is_empty());
    }

    #[test]
    fn batch_update_equals_recompute() {
        let mut g = path_graph(6);
        g.add_edge(n(5), n(0)).unwrap();
        let mut m = DistanceMatrix::build(&g);
        let before = m.clone();

        let updates = vec![
            EdgeUpdate::Insert(n(0), n(3)),
            EdgeUpdate::Delete(n(2), n(3)),
            EdgeUpdate::Insert(n(3), n(1)),
            EdgeUpdate::Delete(n(5), n(0)),
        ];
        for u in &updates {
            u.apply(&mut g);
        }
        let aff = update_matrix_batch(&g, &mut m, &updates);
        assert_eq!(m, DistanceMatrix::build(&g));

        // AFF1 lists exactly the pairs whose distance differs from before.
        for p in aff.iter() {
            assert_ne!(before.get(p.source, p.sink), m.get(p.source, p.sink));
            assert_eq!(p.old, before.get(p.source, p.sink));
            assert_eq!(p.new, m.get(p.source, p.sink));
        }
        for x in g.nodes() {
            for y in g.nodes() {
                if before.get(x, y) != m.get(x, y) {
                    assert!(
                        aff.iter().any(|p| p.source == x && p.sink == y),
                        "changed pair ({x},{y}) missing from AFF1"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_with_noop_updates() {
        let mut g = path_graph(3);
        let mut m = DistanceMatrix::build(&g);
        // Deleting a non-existent edge and re-inserting an existing one are
        // both no-ops and must not corrupt the matrix.
        let updates = vec![
            EdgeUpdate::Delete(n(2), n(0)),
            EdgeUpdate::Insert(n(0), n(1)),
        ];
        let aff = update_matrix_batch(&g, &mut m, &updates);
        assert!(aff.is_empty());
        assert_eq!(m, DistanceMatrix::build(&g));
        let _ = &mut g;
    }

    #[test]
    fn empty_batch() {
        let g = path_graph(3);
        let mut m = DistanceMatrix::build(&g);
        let aff = update_matrix_batch(&g, &mut m, &[]);
        assert!(aff.is_empty());
    }

    /// A random stream of `updates` unit updates, each effective where it
    /// stands when the stream is applied to `g` in order.
    fn random_stream(g: &DataGraph, rng: &mut StdRng, updates: usize) -> Vec<EdgeUpdate> {
        let nodes = g.node_count() as u32;
        let mut scratch = g.clone();
        let mut ups = Vec::new();
        for _ in 0..updates {
            if rng.gen_bool(0.5) && scratch.edge_count() > 0 {
                // Delete a random existing edge.
                let edges: Vec<_> = scratch.edges().collect();
                let &(a, b) = edges.choose(rng).unwrap();
                let u = EdgeUpdate::Delete(a, b);
                u.apply(&mut scratch);
                ups.push(u);
            } else {
                let a = n(rng.gen_range(0..nodes));
                let b = n(rng.gen_range(0..nodes));
                if !scratch.has_edge(a, b) {
                    let u = EdgeUpdate::Insert(a, b);
                    u.apply(&mut scratch);
                    ups.push(u);
                }
            }
        }
        ups
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
        let ups = random_stream(&g, &mut rng, updates);
        (g, ups)
    }

    #[test]
    fn randomized_unit_updates_match_recompute() {
        for seed in 0..8u64 {
            let (mut g, updates) = random_graph_and_updates(seed, 14, 30, 12);
            let mut m = DistanceMatrix::build(&g);
            for u in updates {
                if !u.apply(&mut g) {
                    continue;
                }
                update_matrix(&g, &mut m, u);
                assert_eq!(m, DistanceMatrix::build(&g), "seed {seed}, update {u}");
            }
        }
    }

    /// `AFF1` by brute force: every pair on which two matrices differ, in
    /// `(source, sink)` order.
    fn diff(before: &DistanceMatrix, after: &DistanceMatrix) -> Vec<AffectedPair> {
        let nodes = || (0..before.node_count() as u32).map(n);
        nodes()
            .flat_map(|x| nodes().map(move |y| (x, y)))
            .filter(|&(x, y)| before.get(x, y) != after.get(x, y))
            .map(|(x, y)| AffectedPair {
                source: x,
                sink: y,
                old: before.get(x, y),
                new: after.get(x, y),
            })
            .collect()
    }

    /// The rows a sweep from `s` has to test to produce `unit`: `s` and the
    /// in-neighbours of every affected source, ascending.
    fn cone_and_fringe(g: &DataGraph, s: NodeId, unit: &[AffectedPair]) -> Vec<NodeId> {
        let sources = unit.iter().map(|p| p.source);
        let mut rows: Vec<NodeId> = sources.flat_map(|w| g.in_neighbors(w)).copied().collect();
        rows.push(s);
        rows.sort();
        rows.dedup();
        rows
    }

    /// The differential gate of one unit. `g` already has the effective
    /// update `u`; `m` and `labels` reflect the graph before it. Checks the
    /// maintained matrix against a build, the unit's `AFF1` against the
    /// brute-force diff of the two matrices, after a deletion the repaired
    /// row of `s` against `rebuild_row`'s BFS, the 2-hop's unit `AFF1`
    /// (sorted by its one-element batch) against the same diff, that the
    /// sweep emitted one run per source and tested exactly the cone and its
    /// fringe, and that a deletion's row repairs searched exactly its
    /// `AFF1` — phase 1 settled every candidate that kept its distance.
    /// Returns the unit's `AFF1` in sweep order.
    fn check_unit(
        g: &DataGraph,
        m: &mut DistanceMatrix,
        labels: &mut IncrementalTwoHop,
        u: EdgeUpdate,
    ) -> Vec<AffectedPair> {
        let before = m.clone();
        let mut ws = Sweep::new(g.node_count());
        let unit = update_unit(m, g, u, &mut ws);
        assert_eq!(*m, DistanceMatrix::build(g), "{u}: matrix vs build");
        let brute = diff(&before, m);
        let mut sorted = unit.clone();
        sorted.sort_by_key(|p| (p.source, p.sink));
        assert_eq!(sorted, brute, "{u}: unit AFF1 vs brute-force diff");
        let s = u.endpoints().0;
        if !u.is_insert() {
            let mut bfs = before.clone();
            bfs.rebuild_row(g, s);
            assert_eq!(m.row(s), bfs.row(s), "{u}: repaired row of s vs BFS");
        }
        let by_labels = labels.apply_batch(g, &[u], &Executor::sequential());
        assert_eq!(by_labels.pairs, brute, "{u}: 2-hop unit AFF1");

        let mut runs: Vec<NodeId> = unit.iter().map(|p| p.source).collect();
        runs.dedup();
        let mut distinct = runs.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(runs.len(), distinct.len(), "{u}: one run per source");
        let ascending = |w: &[AffectedPair]| w[0].source != w[1].source || w[0].sink < w[1].sink;
        assert!(unit.windows(2).all(ascending), "{u}: runs ascend by sink");
        let tested = cone_and_fringe(g, s, &unit).len();
        assert_eq!(ws.cone.rows, tested as u64, "{u}: rows tested");

        let Repair {
            handed, searched, ..
        } = ws.repair;
        assert!(
            searched <= handed && handed <= ws.pairs,
            "{u}: repair tallies"
        );
        let changed = if u.is_insert() { 0 } else { unit.len() as u64 };
        assert_eq!(searched, changed, "{u}: candidates searched vs |AFF1|");
        unit
    }

    /// Drives a stream through [`check_unit`], skipping the updates that are
    /// no-ops where they stand.
    fn check_stream(mut g: DataGraph, updates: impl IntoIterator<Item = EdgeUpdate>) {
        let mut m = DistanceMatrix::build(&g);
        let mut labels = IncrementalTwoHop::build(&g);
        for u in updates {
            if u.apply(&mut g) {
                check_unit(&g, &mut m, &mut labels, u);
            }
        }
    }

    #[test]
    fn sweep_random_streams_pass_the_differential_gate_after_every_unit() {
        for seed in 0..24u64 {
            let (g, updates) = random_graph_and_updates(seed, 14, 34, 16);
            check_stream(g, updates);
        }
        for seed in 100..108u64 {
            let (g, updates) = random_graph_and_updates(seed, 30, 90, 40);
            check_stream(g, updates);
        }
    }

    #[test]
    fn sweep_power_law_streams_with_hubs_pass_the_differential_gate() {
        use gpm_datagen::{powerlaw_graph, PowerLawConfig};
        for seed in 0..4u64 {
            let g = powerlaw_graph(&PowerLawConfig::new(60, 200).with_seed(seed));
            let max_in = g.nodes().map(|v| g.in_degree(v)).max().unwrap();
            assert!(max_in >= 10, "seed {seed}: no hub (max in-degree {max_in})");
            let updates = random_stream(&g, &mut StdRng::seed_from_u64(seed), 40);
            check_stream(g, updates);
        }
    }

    /// A tear-down script followed by its inverse: every update of
    /// `deletions` (a `gpm_datagen::adversarial` script, whose `EdgeUpdate`
    /// is the dependency's copy of this crate's), then the same edges
    /// re-inserted in reverse order.
    fn there_and_back(deletions: &[(NodeId, NodeId)]) -> Vec<EdgeUpdate> {
        let down = deletions.iter().map(|&(a, b)| EdgeUpdate::Delete(a, b));
        let up = deletions
            .iter()
            .rev()
            .map(|&(a, b)| EdgeUpdate::Insert(a, b));
        down.chain(up).collect()
    }

    #[test]
    fn sweep_adversarial_scripts_pass_the_differential_gate() {
        use gpm_datagen::adversarial::*;
        macro_rules! edges {
            ($script:expr) => {
                $script.iter().map(|u| u.endpoints()).collect::<Vec<_>>()
            };
        }
        // Hub teardown and rebuild: every leaf is a source of every unit.
        check_stream(star(12), there_and_back(&edges!(delete_hub_updates(12))));
        // The leaves' edges into the hub: one sink column each.
        let spokes: Vec<_> = (1..=12).map(|leaf| (n(leaf), n(0))).collect();
        check_stream(star(12), there_and_back(&spokes));
        // Chain cuts at the head (many sinks), the middle, the tail (many
        // sources), each healed again.
        for k in [0, 7, 14] {
            check_stream(
                deep_chain(16),
                there_and_back(&edges!(cut_chain_updates(16, k))),
            );
        }
        // Waist → sink strands one sink from every source; source → waist
        // empties one row.
        check_stream(bowtie(6), there_and_back(&edges!(sever_waist_updates(6))));
        let feeders: Vec<_> = (1..=6).map(|source| (n(source), n(0))).collect();
        check_stream(bowtie(6), there_and_back(&feeders));
        // Bridges: everything upstream × everything downstream; an edge
        // inside a clique: ties everywhere.
        for q in [0, 1] {
            let script = there_and_back(&edges!(cut_bridge_updates(3, 4, q)));
            check_stream(cliques_with_bridges(3, 4), script);
        }
        let inside = [(n(4), n(5)), (n(5), n(4)), (n(7), n(4)), (n(3), n(0))];
        check_stream(cliques_with_bridges(3, 4), there_and_back(&inside));
        // Grid edges: every sink below and right of a cut has many tied
        // routes, and most tied candidates keep their distance through
        // other candidates.
        let cells = [(0, 1), (0, 5), (6, 7), (6, 11), (12, 13), (18, 23)];
        let cells: Vec<_> = cells.iter().map(|&(a, b)| (n(a), n(b))).collect();
        check_stream(grid(5, 5), there_and_back(&cells));
    }

    /// Applies `u` to `g` and runs it through [`check_unit`] against a fresh
    /// matrix and labeling of the graph before it.
    fn check_one(g: &mut DataGraph, u: EdgeUpdate) -> Vec<AffectedPair> {
        let mut m = DistanceMatrix::build(g);
        let mut labels = IncrementalTwoHop::build(g);
        assert!(u.apply(g), "{u} must be effective");
        check_unit(g, &mut m, &mut labels, u)
    }

    #[test]
    fn sweep_self_loop_insert_and_delete_touch_one_diagonal() {
        // 0 ⇄ 1: the shortest cycle through 0 has length 2.
        let mut g = DataGraph::from_edges(2, &[(0, 1), (1, 0)]).unwrap();
        let aff = check_one(&mut g, EdgeUpdate::Insert(n(0), n(0)));
        assert_eq!(aff, [pair(0, 0, 2, 1)]);
        let aff = check_one(&mut g, EdgeUpdate::Delete(n(0), n(0)));
        assert_eq!(aff, [pair(0, 0, 1, 2)]);
        // On a node that lies on no other cycle.
        let mut g = path_graph(3);
        let aff = check_one(&mut g, EdgeUpdate::Insert(n(1), n(1)));
        assert_eq!(aff, [pair(1, 1, UNREACHABLE, 1)]);
        let aff = check_one(&mut g, EdgeUpdate::Delete(n(1), n(1)));
        assert_eq!(aff, [pair(1, 1, 1, UNREACHABLE)]);
    }

    #[test]
    fn sweep_insertion_closing_a_cycle_sets_the_diagonal_of_every_node_on_it() {
        let mut g = path_graph(4);
        let aff = check_one(&mut g, EdgeUpdate::Insert(n(3), n(0)));
        for v in 0..4 {
            assert!(aff.contains(&pair(v, v, UNREACHABLE, 4)), "{v}: {aff:?}");
        }
        // 4 diagonals and the 6 pairs that pointed backwards along the path.
        assert_eq!(aff.len(), 10);
        // Sweep order: s = 3 first, then up the path.
        let sources: Vec<u32> = aff.iter().map(|p| p.source.0).collect();
        assert_eq!(sources, [3, 3, 3, 3, 2, 2, 2, 1, 1, 0]);
    }

    #[test]
    fn sweep_deleting_one_of_two_tied_paths_changes_the_deleted_pair_only() {
        // 0 → 1 → 3 and 0 → 2 → 3 tie. The deleted pair itself always
        // changes (its distance was 1), so that is the smallest AFF1 a
        // deletion can have: (0, 3) is tied on row 0 and repairs to itself.
        let mut g = DataGraph::from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
        let aff = check_one(&mut g, EdgeUpdate::Delete(n(1), n(3)));
        assert_eq!(aff, [pair(1, 3, 1, UNREACHABLE)]);
        // With a detour for the deleted pair too, the unit still stops at s.
        let mut g =
            DataGraph::from_edges(5, &[(0, 1), (1, 3), (0, 2), (2, 3), (1, 4), (4, 3)]).unwrap();
        let aff = check_one(&mut g, EdgeUpdate::Delete(n(1), n(3)));
        assert_eq!(aff, [pair(1, 3, 1, 2)]);
    }

    #[test]
    fn sweep_t_reaches_s_so_row_t_is_rewritten_mid_sweep() {
        // The 4-cycle 0 → 1 → 2 → 3 → 0 with the chord (0, 2): t = 2 reaches
        // s = 0 through 3, so t is a source of its own unit (the cycle
        // through it) and its row is written while later sources still
        // need std(t, ·).
        let mut g = DataGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 1)]).unwrap();
        let aff = check_one(&mut g, EdgeUpdate::Insert(n(0), n(2)));
        assert!(aff.contains(&pair(2, 2, 4, 3)), "{aff:?}");
        assert!(aff.contains(&pair(3, 2, 3, 2)), "{aff:?}");
        let aff = check_one(&mut g, EdgeUpdate::Delete(n(0), n(2)));
        assert!(aff.contains(&pair(2, 2, 3, 4)), "{aff:?}");
        assert!(aff.contains(&pair(3, 2, 2, 3)), "{aff:?}");
        // The source 4 hangs off node 1 and never used the chord.
        assert!(aff.iter().all(|p| p.source != n(4)));
    }

    #[test]
    fn sweep_disconnecting_deletion_and_reconnecting_insertion_mirror_each_other() {
        let mut g = path_graph(5);
        let cut = check_one(&mut g, EdgeUpdate::Delete(n(1), n(2)));
        assert_eq!(cut.len(), 2 * 3, "{{0, 1}} × {{2, 3, 4}}");
        assert!(cut.iter().all(|p| p.new == UNREACHABLE));
        let mut healed = check_one(&mut g, EdgeUpdate::Insert(n(1), n(2)));
        for p in &mut healed {
            std::mem::swap(&mut p.old, &mut p.new);
        }
        let by_pair = |mut pairs: Vec<AffectedPair>| {
            pairs.sort_by_key(|p| (p.source, p.sink));
            pairs
        };
        assert_eq!(by_pair(healed), by_pair(cut));
    }

    #[test]
    fn sweep_source_with_in_degree_zero_is_the_whole_cone() {
        let mut g = path_graph(4);
        g.add_edge(n(0), n(2)).unwrap();
        for u in [
            EdgeUpdate::Delete(n(0), n(1)),
            EdgeUpdate::Insert(n(0), n(1)),
        ] {
            let mut m = DistanceMatrix::build(&g);
            assert!(u.apply(&mut g));
            let mut ws = Sweep::new(4);
            let aff = update_unit(&mut m, &g, u, &mut ws);
            assert_eq!(m, DistanceMatrix::build(&g));
            assert_eq!(aff.len(), 1, "{u}: only (0, 1) moves: {aff:?}");
            assert_eq!(ws.cone.rows, 1, "{u}: one row");
        }
    }

    /// Deletes `(s, t)` from `g` and holds the unit to the sweep's contract
    /// ([`check_unit`]), then runs it through `apply_batch` at 1/2/8 threads
    /// against a rebuild and the brute-force `AFF1`.
    fn check_deletion_kernels(g: &mut DataGraph, s: NodeId, t: NodeId) {
        let before = DistanceMatrix::build(g);
        check_one(g, EdgeUpdate::Delete(s, t));
        let rebuilt = DistanceMatrix::build(g);
        let brute = diff(&before, &rebuilt);
        for threads in [1, 2, 8] {
            let exec =
                Executor::new(gpm_exec::Parallelism::new(threads).with_sequential_threshold(0));
            let mut m = before.clone();
            let aff = m.apply_batch(g, &[EdgeUpdate::Delete(s, t)], &exec);
            assert_eq!(m, rebuilt, "delete ({s}, {t}) at {threads} threads");
            assert_eq!(aff.pairs, brute, "delete ({s}, {t}) at {threads} threads");
        }
    }

    #[test]
    fn row_major_gather_matches_column_scan_on_adversarial_topologies() {
        use gpm_datagen::adversarial::{bowtie, deep_chain, star};
        // Hub deletion: one source row, many sinks, every leaf a source.
        let mut g = star(12);
        for leaf in 1..=12 {
            check_deletion_kernels(&mut g, n(0), n(leaf));
        }
        // Chain cuts: at the head (many sinks), the middle, the tail (many
        // sources).
        for k in [0, 7, 14] {
            check_deletion_kernels(&mut deep_chain(16), n(k), n(k + 1));
        }
        // Waist → sink strands one sink from every source; source → waist
        // empties one row.
        let mut g = bowtie(6);
        check_deletion_kernels(&mut g, n(0), n(7));
        check_deletion_kernels(&mut g, n(1), n(0));
    }

    #[test]
    fn sweep_unit_inside_a_tail_visits_a_handful_of_rows_of_a_large_graph() {
        // 2 000 well-connected nodes fed by the tail 2000 → 2001 → 2002 → 0.
        // Nothing reaches the tail, so a unit inside it has a cone of at
        // most three sources however many sinks each of them loses or gains.
        let (mut g, _) = random_graph_and_updates(7, 2000, 8000, 0);
        g.add_nodes(3);
        for (a, b) in [(2000, 2001), (2001, 2002), (2002, 0)] {
            g.add_edge(n(a), n(b)).unwrap();
        }
        let mut m = DistanceMatrix::build(&g);
        let mut ws = Sweep::new(g.node_count());
        let script = [
            EdgeUpdate::Insert(n(2000), n(2002)),
            EdgeUpdate::Delete(n(2001), n(2002)),
            EdgeUpdate::Delete(n(2000), n(2002)),
        ];
        for u in script {
            let (rows_before, pairs_before) = (ws.cone.rows, ws.pairs);
            assert!(u.apply(&mut g));
            let aff = update_unit(&mut m, &g, u, &mut ws);
            assert!(aff.len() > 1000, "{u}: |AFF1| = {}", aff.len());
            let rows = ws.cone.rows - rows_before;
            assert!(rows < 10, "{u}: {rows} rows");
            let examined = (ws.pairs - pairs_before) as usize;
            assert!(examined <= 2 * g.node_count(), "{u}: {examined} pairs");
        }
        assert_eq!(m, DistanceMatrix::build(&g));
    }

    #[test]
    fn sweep_pairs_examined_track_aff1_on_a_maintain_shaped_script() {
        use gpm_datagen::{random_updates, Dataset, UpdateStreamConfig};
        // The `inproc-maintain` shape: the 1 038-node YouTube stand-in, every
        // op two deletions then two insertions.
        let mut g = Dataset::YouTube.generate(0.07, 2010);
        assert_eq!(g.node_count(), 1038);
        let mut m = DistanceMatrix::build(&g);
        let mut ws = Sweep::new(g.node_count());
        let (mut aff1_total, mut fringe_in_degree, mut deleted_aff1) = (0, 0, 0);
        for i in 0..80u64 {
            let direction = match i % 2 {
                0 => UpdateStreamConfig::deletions(2),
                _ => UpdateStreamConfig::insertions(2),
            };
            for u in random_updates(&g, &direction.with_seed(i)) {
                let (s, t) = u.endpoints();
                let u = match u.is_insert() {
                    true => EdgeUpdate::Insert(s, t),
                    false => EdgeUpdate::Delete(s, t),
                };
                assert!(u.apply(&mut g));
                let aff = update_unit(&mut m, &g, u, &mut ws);
                aff1_total += aff.len();
                if !u.is_insert() {
                    deleted_aff1 += aff.len() as u64;
                }
                let tested = cone_and_fringe(&g, s, &aff);
                fringe_in_degree += tested.iter().map(|&v| g.in_degree(v)).sum::<usize>();
            }
        }
        assert_eq!(m, DistanceMatrix::build(&g));
        assert!(
            ws.pairs as usize <= 4 * aff1_total + fringe_in_degree,
            "{} pairs examined for Σ|AFF1| = {aff1_total}, Σ in-degree = {fringe_in_degree}",
            ws.pairs
        );
        // The row repairs searched the deletions' AFF1 and nothing else.
        assert_eq!(ws.repair.searched, deleted_aff1);
        assert!(ws.repair.searched < ws.repair.handed && ws.repair.handed <= ws.pairs);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// After an arbitrary batch, the incrementally maintained matrix
        /// equals a from-scratch rebuild, and AFF1 is exactly the changed set.
        #[test]
        fn prop_batch_matches_recompute(seed in 0u64..500) {
            let (mut g, updates) = random_graph_and_updates(seed, 12, 24, 8);
            let mut m = DistanceMatrix::build(&g);
            let before = m.clone();
            for u in &updates {
                u.apply(&mut g);
            }
            let aff = update_matrix_batch(&g, &mut m, &updates);
            let rebuilt = DistanceMatrix::build(&g);
            prop_assert_eq!(&m, &rebuilt);
            let mut changed = 0usize;
            for x in g.nodes() {
                for y in g.nodes() {
                    if before.get(x, y) != rebuilt.get(x, y) {
                        changed += 1;
                        prop_assert!(aff.iter().any(|p| p.source == x && p.sink == y));
                    }
                }
            }
            prop_assert_eq!(changed, aff.len());
        }

        /// On random graphs every deletion of a random stream passes the
        /// sweep's gate and lands on a rebuild at every thread count.
        #[test]
        fn prop_row_major_gather_matches_column_scan(seed in 500u64..1000) {
            let (mut g, updates) = random_graph_and_updates(seed, 14, 34, 10);
            for u in updates {
                match u {
                    EdgeUpdate::Delete(s, t) => check_deletion_kernels(&mut g, s, t),
                    EdgeUpdate::Insert(..) => {
                        u.apply(&mut g);
                    }
                }
            }
        }

        /// The lemma the sweep rests on, on brute-force `AFF1`s alone (no
        /// kernel involved): if `(x, y)` is affected and `x ≠ s`, then so is
        /// `(w, y)` for every out-neighbour `w` of `x` one step closer to
        /// `s`.
        #[test]
        fn sweep_lemma_affected_sinks_shrink_along_shortest_paths_to_s(seed in 1000u64..1400) {
            let (mut g, updates) = random_graph_and_updates(seed, 12, 26, 6);
            for u in updates {
                let before = DistanceMatrix::build(&g);
                prop_assert!(u.apply(&mut g));
                let aff1 = diff(&before, &DistanceMatrix::build(&g));
                let s = u.endpoints().0;
                // std(·, s) is the same on both sides of the unit, and so
                // are the out-edges of every x ≠ s.
                let to_s = |x: NodeId| before.standard_distance(x, s);
                for p in aff1.iter().filter(|p| p.source != s) {
                    let level = to_s(p.source).expect("an affected source reaches s");
                    for &w in g.out_neighbors(p.source) {
                        if to_s(w) == Some(level - 1) {
                            prop_assert!(
                                aff1.iter().any(|q| (q.source, q.sink) == (w, p.sink)),
                                "{}: ({}, {}) is affected, ({}, {}) is not", u, p.source, p.sink, w, p.sink
                            );
                        }
                    }
                }
            }
        }
    }
}
