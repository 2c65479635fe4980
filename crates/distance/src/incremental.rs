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
//! Implementation notes:
//!
//! * **insertion** of `(s, t)` can only shorten distances, and any new
//!   shortest path uses the new edge exactly once, so
//!   `new(x, y) = min(old(x, y), std(x, s) + 1 + std(t, y))` computed over
//!   `ancestors(s) × descendants(t)` — work proportional to the affected
//!   rectangle;
//! * **deletion** of `(s, t)` can only lengthen distances and can only affect
//!   pairs `(x, y)` whose old shortest path went through the deleted edge
//!   (`std(x, s) + 1 + std(t, y) = old(x, y)`). Such a pair forces `(s, y)`
//!   to change too, so one BFS from `s` yields the affected sinks; and the
//!   prefix `x ⇝ s → t` of its old shortest path is itself shortest
//!   (*prefix optimality*), so `old(x, t) = std(x, s) + 1` — the mirror of
//!   the insertion filter. The sources passing that filter are bucketed
//!   under the affected sinks in one **row-major** pass (each source's row
//!   is contiguous; the sinks' columns are 2·|V| bytes apart), and every
//!   sink's column is then repaired by a Dijkstra-style pass over its
//!   bucket;
//! * a **batch** is replayed unit by unit against a [`BatchReplay`] view of
//!   the post-batch graph — never a copy of it — and the units' `AFF1`s are
//!   folded into the batch's net `AFF1` once, at the end.

use crate::bfs::{hop_sum, HORIZON};
use crate::matrix::DistanceMatrix;
use crate::UNREACHABLE;
use gpm_exec::Executor;
use gpm_graph::{Adjacency, BatchReplay, DataGraph, NodeId};
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    pub(crate) fn net(mut sequence: Vec<AffectedPair>) -> AffectedPairs {
        // Stable, so the entries of one pair stay in unit order.
        sequence.sort_by_key(|p| (p.source, p.sink));
        let mut pairs: Vec<AffectedPair> = Vec::with_capacity(sequence.len());
        for p in sequence {
            match pairs.last_mut() {
                Some(last) if (last.source, last.sink) == (p.source, p.sink) => last.new = p.new,
                _ => pairs.push(p),
            }
        }
        pairs.retain(|p| p.old != p.new);
        AffectedPairs { pairs }
    }
}

/// `UpdateM`: maintains the distance matrix under a **single** edge update —
/// the unit [`DistanceMatrix`]'s `apply_batch` hands to [`replay_batch`].
///
/// `g` must already reflect the update (edge inserted/removed); `matrix` must
/// be the matrix of the graph *before* the update. Returns `AFF1` in the
/// order the kernel found the pairs.
///
/// The affected area is partitioned across the workers: insertions scan the
/// `ancestors(s) × descendants(t)` rectangle one source row per task (each
/// row is read/written independently), deletions repair one affected sink
/// column per task (columns are disjoint; the shared column of `s` is
/// read-only during repair). Results are merged in source/sink order, so the
/// outcome — including the order of `AFF1` — is identical at every thread
/// count.
pub(crate) fn update_unit<G: Adjacency>(
    g: &G,
    matrix: &mut DistanceMatrix,
    update: EdgeUpdate,
    exec: &Executor,
) -> AffectedPairs {
    debug_assert_eq!(g.node_count(), matrix.node_count());
    match update {
        EdgeUpdate::Insert(s, t) => apply_insertion(g, matrix, s, t, exec),
        EdgeUpdate::Delete(s, t) => apply_deletion(g, matrix, s, t, exec),
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
pub(crate) fn replay_batch<O>(
    oracle: &mut O,
    g: &DataGraph,
    updates: &[EdgeUpdate],
    existed_before: impl Fn(&O, NodeId, NodeId) -> bool,
    mut unit: impl FnMut(&mut O, &BatchReplay<'_>, EdgeUpdate) -> Vec<AffectedPair>,
) -> AffectedPairs {
    let mut view = BatchReplay::rewind(g, updates.iter().map(EdgeUpdate::endpoints), |a, b| {
        existed_before(oracle, a, b)
    });
    let mut sequence = Vec::new();
    for &u in updates {
        let (from, to) = u.endpoints();
        if view.set_edge(from, to, u.is_insert()) {
            sequence.extend(unit(oracle, &view, u));
        }
    }
    AffectedPairs::net(sequence)
}

fn apply_insertion<G: Adjacency>(
    g: &G,
    matrix: &mut DistanceMatrix,
    s: NodeId,
    t: NodeId,
    exec: &Executor,
) -> AffectedPairs {
    debug_assert!(g.has_edge(s, t), "graph must already contain the new edge");
    let n = g.node_count();

    // Only pairs (x, y) with x an ancestor of s and y a descendant of t can
    // improve, and x only matters if its distance *to t itself* improves
    // (otherwise `x → s → t → y` cannot beat the existing route for any y):
    // dist(x, t) > dist(x, s) + 1.
    let sinks: Vec<(NodeId, u16)> = (0..n as u32)
        .map(NodeId::new)
        .filter_map(|y| {
            let d = if y == t { 0 } else { matrix.get(t, y) };
            (d != UNREACHABLE).then_some((y, d))
        })
        .collect();

    // Phase 1 (parallel, read-only): each source row of the affected
    // rectangle is scanned independently — every value a row needs (its own
    // `(x, s)` / `(x, t)` entries and the captured `sinks` of row `t`) is
    // fixed before any write happens, so computing improvements first and
    // writing them afterwards yields exactly the sequential result.
    let per_source: Vec<Vec<AffectedPair>> = exec.par_map_index(n, |xi| {
        let x = NodeId::new(xi as u32);
        let dx = if x == s { 0 } else { matrix.get(x, s) };
        if dx == UNREACHABLE {
            return Vec::new();
        }
        let to_t = matrix.get(x, t);
        if u32::from(to_t) <= u32::from(dx) + 1 {
            return Vec::new(); // no improvement possible through the new edge
        }
        let mut improved = Vec::new();
        for &(y, dy) in &sinks {
            let via = hop_sum(dx, dy);
            let old = matrix.get(x, y);
            if via < old {
                improved.push(AffectedPair {
                    source: x,
                    sink: y,
                    old,
                    new: via,
                });
            }
        }
        improved
    });

    // Phase 2: apply the improvements in source order.
    let mut affected = Vec::new();
    for pairs in per_source {
        for p in pairs {
            matrix.set(p.source, p.sink, p.new);
            affected.push(p);
        }
    }
    AffectedPairs { pairs: affected }
}

fn apply_deletion<G: Adjacency>(
    g: &G,
    matrix: &mut DistanceMatrix,
    s: NodeId,
    t: NodeId,
    exec: &Executor,
) -> AffectedPairs {
    debug_assert!(
        !g.has_edge(s, t),
        "graph must no longer contain the deleted edge"
    );
    let n = g.node_count();

    // A pair (x, y) can only be affected if *every* old shortest path from x
    // to y went through the deleted edge, which forces
    //   old(x, y) = std_old(x, s) + 1 + std_old(t, y),
    // and in that case the distance from s to y itself must change as well.
    // So: (1) rebuild the row of s with one BFS and diff it to obtain the set
    // D of truly affected sinks; (2) repair each sink in D independently with
    // a Dijkstra-style pass over its candidate sources (the Ramalingam–Reps
    // deletion repair), touching only work proportional to the affected area.
    let changed = matrix.rebuild_row(g, s);
    let mut affected: Vec<AffectedPair> = changed
        .iter()
        .map(|&(sink, old, new)| AffectedPair {
            source: s,
            sink,
            old,
            new,
        })
        .collect();
    // The changed sinks t reached, with std_old(t, y). Row t still holds old
    // values unless it is the row just rebuilt (a self-loop deletion), and
    // then the diff carries them.
    let repair_sinks: Vec<(NodeId, u16)> = changed
        .iter()
        .filter_map(|&(y, old, _)| {
            let from_t = if y == t {
                0
            } else if s == t {
                old
            } else {
                matrix.get(t, y)
            };
            (from_t != UNREACHABLE).then_some((y, from_t))
        })
        .collect();
    if repair_sinks.is_empty() {
        return AffectedPairs { pairs: affected };
    }
    let candidates = gather_candidates(matrix, s, t, &repair_sinks);

    // Repair the affected sinks: each repair touches only its own matrix
    // column, so the sinks partition the affected area across the workers
    // (and gathering every sink's candidates up front reads the same values
    // a per-sink scan would). When the region actually runs parallel, every
    // task computes its column's changes against the unmodified matrix
    // (pending values in a local overlay) and the changes are applied in
    // sink order afterwards; a single-worker region writes the matrix in
    // place instead, skipping the overlay lookups. Both column stores run
    // the identical repair algorithm, so the output — order included — is
    // the same either way (the determinism suite pits the two paths against
    // each other).
    if repair_sinks.len() <= 1 || !exec.parallelism().should_parallelise(n) {
        let mut state = vec![SETTLED; n];
        for (&(y, _), candidates) in repair_sinks.iter().zip(&candidates) {
            let mut column = DirectColumn { matrix, y };
            compute_sink_repair(g, &mut column, y, candidates, &mut state, &mut affected);
        }
        return AffectedPairs { pairs: affected };
    }
    let snapshot: &DistanceMatrix = matrix;
    let per_sink: Vec<Vec<AffectedPair>> = exec.map_tasks(repair_sinks.len(), n, |i| {
        let y = repair_sinks[i].0;
        let mut column = SnapshotColumn {
            matrix: snapshot,
            y,
            settled: FxHashMap::default(),
        };
        let (mut changes, mut state) = (Vec::new(), vec![SETTLED; n]);
        compute_sink_repair(g, &mut column, y, &candidates[i], &mut state, &mut changes);
        changes
    });
    for changes in per_sink {
        for p in changes {
            matrix.set(p.source, p.sink, p.new);
            affected.push(p);
        }
    }
    AffectedPairs { pairs: affected }
}

/// The affected-source candidates of every repair sink after the deletion
/// of `(s, t)`, in ascending source order: `x ≠ s` is a candidate for `y`
/// iff `old(x, y) = std(x, s) + 1 + std_old(t, y)`.
///
/// One source-major pass. A source is skipped outright unless
/// `old(x, t) = std(x, s) + 1` (prefix optimality, module docs); the ones
/// left scan their own contiguous row against `repair_sinks`, the
/// `(y, std_old(t, y))` list. Rows other than `s` and the column of `s`
/// still hold pre-deletion values (no shortest path to `s` uses `(s, t)`).
fn gather_candidates(
    matrix: &DistanceMatrix,
    s: NodeId,
    t: NodeId,
    repair_sinks: &[(NodeId, u16)],
) -> Vec<Vec<NodeId>> {
    let mut per_sink = vec![Vec::new(); repair_sinks.len()];
    for x in (0..matrix.node_count() as u32).map(NodeId::new) {
        let row = matrix.row(x);
        let to_s = row[s.index()];
        if x == s || to_s == UNREACHABLE {
            continue;
        }
        let to_t = u32::from(to_s) + 1;
        if u32::from(row[t.index()]) != to_t {
            continue;
        }
        for (&(y, from_t), bucket) in repair_sinks.iter().zip(&mut per_sink) {
            let old = row[y.index()];
            if old != UNREACHABLE && u32::from(old) == to_t + u32::from(from_t) {
                bucket.push(x);
            }
        }
    }
    per_sink
}

/// One matrix column as seen by a sink repair (see [`compute_sink_repair`]).
trait ColumnStore {
    /// The current distance from `w` to the repair's sink.
    fn get(&self, w: NodeId) -> u16;
    /// Records the repaired distance from `x` to the sink.
    fn set(&mut self, x: NodeId, value: u16);
}

/// In-place column access: reads and writes go straight to the matrix
/// (single-worker repairs, no overlay overhead).
struct DirectColumn<'a> {
    matrix: &'a mut DistanceMatrix,
    y: NodeId,
}

impl ColumnStore for DirectColumn<'_> {
    #[inline]
    fn get(&self, w: NodeId) -> u16 {
        self.matrix.get(w, self.y)
    }
    #[inline]
    fn set(&mut self, x: NodeId, value: u16) {
        self.matrix.set(x, self.y, value);
    }
}

/// Read-only column access with a local overlay of the values this repair
/// has settled, so independent sinks can be repaired concurrently against
/// the same matrix snapshot.
struct SnapshotColumn<'a> {
    matrix: &'a DistanceMatrix,
    y: NodeId,
    settled: FxHashMap<NodeId, u16>,
}

impl ColumnStore for SnapshotColumn<'_> {
    #[inline]
    fn get(&self, w: NodeId) -> u16 {
        self.settled
            .get(&w)
            .copied()
            .unwrap_or_else(|| self.matrix.get(w, self.y))
    }
    #[inline]
    fn set(&mut self, x: NodeId, value: u16) {
        self.settled.insert(x, value);
    }
}

/// Per-node state of one sink repair: everything outside the candidate list
/// is `SETTLED`; a candidate is `PENDING` until its new distance is `FINAL`.
const SETTLED: u8 = 0;
const PENDING: u8 = 1;
const FINAL: u8 = 2;

/// Repairs the column of sink `y` after the deletion of `(s, t)`, reading
/// and writing the column through a [`ColumnStore`] and appending every
/// change to `changes`.
///
/// `candidates` are the only possible affected sources (see
/// [`gather_candidates`]). Non-candidate nodes keep provably correct values
/// and act as the fixed boundary of a Dijkstra-like repair. `state` is one
/// entry per node, all-`SETTLED` on entry and on return, so the sinks of a
/// deletion share it.
fn compute_sink_repair<G: Adjacency, C: ColumnStore>(
    g: &G,
    column: &mut C,
    y: NodeId,
    candidates: &[NodeId],
    state: &mut [u8],
    changes: &mut Vec<AffectedPair>,
) {
    if candidates.is_empty() {
        return;
    }
    let mut heap: BinaryHeap<Reverse<(u32, NodeId)>> = BinaryHeap::new();
    for &x in candidates {
        state[x.index()] = PENDING;
    }

    // Best standard distance from `x` to `y` over the out-neighbours whose
    // own distance is provably correct (boundary nodes and finalized
    // candidates).
    let best_via_neighbours = |x: NodeId, column: &C, state: &[u8]| -> Option<u32> {
        g.out_neighbors(x)
            .iter()
            .filter_map(|&w| {
                if w == y {
                    return Some(1);
                }
                if state[w.index()] == PENDING {
                    return None;
                }
                match column.get(w) {
                    UNREACHABLE => None,
                    d => Some(u32::from(d) + 1),
                }
            })
            .min()
    };

    for &x in candidates {
        if let Some(best) = best_via_neighbours(x, column, state) {
            heap.push(Reverse((best, x)));
        }
    }

    while let Some(Reverse((dist, x))) = heap.pop() {
        if state[x.index()] == FINAL {
            continue;
        }
        // Lazy-deletion Dijkstra: verify the entry is still the best known.
        let Some(best) = best_via_neighbours(x, column, state) else {
            continue;
        };
        if best > dist {
            heap.push(Reverse((best, x)));
            continue;
        }
        state[x.index()] = FINAL;
        let new = best.min(u32::from(HORIZON)) as u16;
        let old = column.get(x);
        if new != old {
            column.set(x, new);
            changes.push(AffectedPair {
                source: x,
                sink: y,
                old,
                new,
            });
        }
        // Relax candidate predecessors of x.
        for &p in g.in_neighbors(x) {
            if state[p.index()] == PENDING {
                heap.push(Reverse((u32::from(new) + 1, p)));
            }
        }
    }

    // Candidates never finalized are no longer able to reach y at all.
    for &x in candidates {
        if state[x.index()] == PENDING {
            let old = column.get(x);
            if old != UNREACHABLE {
                column.set(x, UNREACHABLE);
                changes.push(AffectedPair {
                    source: x,
                    sink: y,
                    old,
                    new: UNREACHABLE,
                });
            }
        }
        state[x.index()] = SETTLED;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistanceOracle as _;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom as _;
    use rand::{Rng as _, SeedableRng as _};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    // The tests below predate the single maintenance door and keep their
    // spelling: a unit goes straight to the dispatcher (so the pinned unit
    // orders hold), a batch through `apply_batch`.
    use super::update_unit as update_matrix_with;

    fn update_matrix(g: &DataGraph, m: &mut DistanceMatrix, u: EdgeUpdate) -> AffectedPairs {
        update_unit(g, m, u, &Executor::from_env())
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
        let pair = |a, b, old, new| AffectedPair {
            source: n(a),
            sink: n(b),
            old,
            new,
        };
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
                // Delete a random existing edge.
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

    /// The candidate lists the pre-row-major column scan produced, computed
    /// from the pre-deletion matrix alone: for every changed sink `y` that
    /// `t` reached, the sources `x ≠ s` with
    /// `old(x, y) = std(x, s) + 1 + std_old(t, y)`, ascending.
    fn column_scan_candidates(
        before: &DistanceMatrix,
        s: NodeId,
        t: NodeId,
        changed_sinks: &[NodeId],
    ) -> Vec<(NodeId, u16, Vec<NodeId>)> {
        let nodes = || (0..before.node_count() as u32).map(n);
        changed_sinks
            .iter()
            .filter_map(|&y| {
                let from_t = if y == t { 0 } else { before.get(t, y) };
                (from_t != UNREACHABLE).then_some((y, from_t))
            })
            .map(|(y, from_t)| {
                let candidates = nodes()
                    .filter(|&x| x != s && before.get(x, s) != UNREACHABLE)
                    .filter(|&x| {
                        let old = before.get(x, y);
                        old != UNREACHABLE
                            && u32::from(old) == u32::from(before.get(x, s)) + 1 + u32::from(from_t)
                    })
                    .collect();
                (y, from_t, candidates)
            })
            .collect()
    }

    /// Deletes `(s, t)` from `g` and checks the row-major gather against the
    /// column scan, then the whole unit at 1/2/8 threads (in-place and
    /// snapshot column stores) against a rebuild and against each other.
    fn check_deletion_kernels(g: &mut DataGraph, s: NodeId, t: NodeId) {
        let before = DistanceMatrix::build(g);
        g.remove_edge(s, t).unwrap();

        let mut m = before.clone();
        let changed_sinks: Vec<NodeId> =
            m.rebuild_row(g, s).into_iter().map(|(y, _, _)| y).collect();
        let reference = column_scan_candidates(&before, s, t, &changed_sinks);
        let repair_sinks: Vec<(NodeId, u16)> = reference
            .iter()
            .map(|(y, from_t, _)| (*y, *from_t))
            .collect();
        let gathered = gather_candidates(&m, s, t, &repair_sinks);
        let expected: Vec<Vec<NodeId>> = reference.into_iter().map(|(_, _, c)| c).collect();
        assert_eq!(gathered, expected, "delete ({s}, {t})");

        let rebuilt = DistanceMatrix::build(g);
        let mut sequential = None;
        for threads in [1, 2, 8] {
            let exec =
                Executor::new(gpm_exec::Parallelism::new(threads).with_sequential_threshold(0));
            let mut m = before.clone();
            let aff = update_matrix_with(g, &mut m, EdgeUpdate::Delete(s, t), &exec);
            assert_eq!(m, rebuilt, "delete ({s}, {t}) at {threads} threads");
            let first = sequential.get_or_insert_with(|| aff.clone());
            assert_eq!(&aff, first, "delete ({s}, {t}) at {threads} threads");
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

        /// On random graphs every deletion of a random stream gathers the
        /// candidates of the column scan and repairs to a rebuild at every
        /// thread count.
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
    }
}
