//! Match deltas and subscriptions — how result changes leave the service.
//!
//! Every update batch ends with one [`MatchDelta`] per registered query
//! whose *visible* result changed: the pairs that entered and left the
//! query's match relation. The service's emission loop pushes each delta
//! into the query's subscriber sinks; a [`Subscription`] is the receiving
//! end of the channel sink `MatchService::subscribe` registers. Deltas are
//! self-describing (query id + epoch) and fold: replaying a query's delta
//! stream over an empty relation, in epoch order, reconstructs its current
//! result — the property the differential test suite leans on.
//!
//! Deltas follow the paper's `∅` convention for the visible result: when a
//! pattern node loses its last match the *entire* relation empties, so the
//! delta removes every pair; when a later insertion revives the match, the
//! delta re-adds the full relation.

use gpm_core::MatchRelation;
use gpm_graph::{NodeId, PatternNodeId};
use serde::{Deserialize, Serialize};
use std::sync::mpsc;

/// A stable handle for a registered query. Ids are never reused, so a
/// delta's origin stays unambiguous across deregistrations.
#[derive(
    Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct QueryId(pub(crate) u64);

impl QueryId {
    /// The raw id value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from a raw id value.
    ///
    /// This is how ids cross process boundaries (the durable manifest, the
    /// `gpm-net` wire protocol): the service itself never invents ids this
    /// way, and calls with an id that was never issued simply address an
    /// unknown query (`None`/`false` from every engine entry point).
    pub fn from_raw(id: u64) -> Self {
        QueryId(id)
    }
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// The change to one query's visible result produced by one update batch
/// (or by a subscription snapshot / a `resume` catch-up).
///
/// Both pair lists are sorted by `(pattern node, data node)` and disjoint,
/// so equal streams are bit-identical — the determinism suite compares them
/// directly across thread counts.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchDelta {
    /// The query this delta belongs to.
    pub query: QueryId,
    /// The batch sequence number current when this delta was produced.
    /// Subscription snapshots and `resume` catch-up deltas carry
    /// the epoch of the moment they were emitted (0 only if that moment
    /// precedes the first batch), so a stream's epochs are non-decreasing
    /// but a snapshot is identified by its position (first in the stream),
    /// not by its epoch value.
    pub epoch: u64,
    /// Pairs that entered the visible result.
    pub added: Vec<(PatternNodeId, NodeId)>,
    /// Pairs that left the visible result.
    pub removed: Vec<(PatternNodeId, NodeId)>,
}

impl MatchDelta {
    /// The delta that turns `old` into `new`, with sorted pair lists.
    pub fn between(query: QueryId, epoch: u64, old: &MatchRelation, new: &MatchRelation) -> Self {
        debug_assert_eq!(old.pattern_node_count(), new.pattern_node_count());
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for ui in 0..new.pattern_node_count() {
            let u = PatternNodeId::new(ui as u32);
            let (olds, news) = (old.matches_of(u), new.matches_of(u));
            // Both sides are sorted and deduplicated: one merge walk.
            let (mut i, mut j) = (0usize, 0usize);
            while i < olds.len() || j < news.len() {
                match (olds.get(i), news.get(j)) {
                    (Some(&o), Some(&n)) if o == n => {
                        i += 1;
                        j += 1;
                    }
                    (Some(&o), Some(&n)) if o < n => {
                        removed.push((u, o));
                        i += 1;
                    }
                    (Some(_), Some(&n)) => {
                        added.push((u, n));
                        j += 1;
                    }
                    (Some(&o), None) => {
                        removed.push((u, o));
                        i += 1;
                    }
                    (None, Some(&n)) => {
                        added.push((u, n));
                        j += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
        }
        MatchDelta {
            query,
            epoch,
            added,
            removed,
        }
    }

    /// A snapshot delta: the full relation as additions (what a fresh
    /// subscriber receives so that folding starts from `∅`).
    pub fn snapshot(query: QueryId, epoch: u64, relation: &MatchRelation) -> Self {
        MatchDelta::between(
            query,
            epoch,
            &MatchRelation::empty(relation.pattern_node_count()),
            relation,
        )
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Number of changed pairs.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Folds this delta into `relation` (removals first, then additions).
    pub fn apply_to(&self, relation: &mut MatchRelation) {
        for &(u, v) in &self.removed {
            relation.remove(u, v);
        }
        for &(u, v) in &self.added {
            relation.insert(u, v);
        }
    }
}

/// Folds a delta stream over an empty relation; `pattern_nodes` sizes the
/// relation. Deltas must be in emission order.
pub fn fold_deltas<'a, I>(pattern_nodes: usize, deltas: I) -> MatchRelation
where
    I: IntoIterator<Item = &'a MatchDelta>,
{
    let mut rel = MatchRelation::empty(pattern_nodes);
    for d in deltas {
        d.apply_to(&mut rel);
    }
    rel
}

/// A consumer handle for one query's delta stream.
///
/// Created by `MatchService::subscribe`; the first delta in the stream is a
/// [`MatchDelta::snapshot`] of the result at subscribe time, so folding the
/// stream from an empty relation always reproduces the query's current
/// result. The channel closes when the query is deregistered or the service
/// is dropped.
#[derive(Debug)]
pub struct Subscription {
    pub(crate) query: QueryId,
    pub(crate) rx: mpsc::Receiver<MatchDelta>,
}

impl Subscription {
    /// The query this subscription follows.
    pub fn query(&self) -> QueryId {
        self.query
    }

    /// Drains every delta currently buffered, in emission order, without
    /// blocking.
    pub fn drain(&self) -> Vec<MatchDelta> {
        self.rx.try_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PatternNodeId {
        PatternNodeId::new(i)
    }

    fn d(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn rel(sets: Vec<Vec<u32>>) -> MatchRelation {
        MatchRelation::from_sets(
            sets.into_iter()
                .map(|s| s.into_iter().map(NodeId::new).collect())
                .collect(),
        )
    }

    #[test]
    fn between_produces_sorted_disjoint_delta() {
        let old = rel(vec![vec![0, 1, 5], vec![2]]);
        let new = rel(vec![vec![1, 3, 5], vec![]]);
        let delta = MatchDelta::between(QueryId(7), 3, &old, &new);
        assert_eq!(delta.query, QueryId(7));
        assert_eq!(delta.epoch, 3);
        assert_eq!(delta.added, vec![(p(0), d(3))]);
        assert_eq!(delta.removed, vec![(p(0), d(0)), (p(1), d(2))]);
        assert_eq!(delta.len(), 3);

        // Applying the delta to `old` yields `new`.
        let mut folded = old.clone();
        delta.apply_to(&mut folded);
        assert_eq!(folded, new);
    }

    #[test]
    fn identical_relations_give_empty_delta() {
        let r = rel(vec![vec![1, 2], vec![3]]);
        let delta = MatchDelta::between(QueryId(0), 1, &r, &r);
        assert!(delta.is_empty());
        assert_eq!(delta.len(), 0);
    }

    #[test]
    fn snapshot_folds_from_empty() {
        let r = rel(vec![vec![0, 4], vec![1]]);
        let snap = MatchDelta::snapshot(QueryId(1), 0, &r);
        assert!(snap.removed.is_empty());
        let folded = fold_deltas(2, [&snap]);
        assert_eq!(folded, r);
    }

    #[test]
    fn fold_replays_a_stream() {
        let a = rel(vec![vec![0], vec![1]]);
        let b = rel(vec![vec![0, 2], vec![]]);
        let c = rel(vec![vec![2], vec![5]]);
        let d0 = MatchDelta::snapshot(QueryId(0), 0, &a);
        let d1 = MatchDelta::between(QueryId(0), 1, &a, &b);
        let d2 = MatchDelta::between(QueryId(0), 2, &b, &c);
        assert_eq!(fold_deltas(2, [&d0, &d1, &d2]), c);
    }

    #[test]
    fn query_id_display() {
        assert_eq!(QueryId(12).to_string(), "q12");
        assert_eq!(QueryId(12).value(), 12);
    }
}
