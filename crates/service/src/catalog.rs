//! The query catalog: per-query state behind stable [`QueryId`]s.
//!
//! Each registered pattern owns a [`QueryEntry`]: the pattern itself, its
//! [`MatchState`], the last relation its subscribers were told about, and
//! the subscriber sinks the emission loop pushes into (they run under the
//! service lock and must not call back into the service). A query is
//! active iff it holds a state. The catalog supports deregistration (the
//! entry and its sinks are dropped, which closes their streams) and
//! suspension: suspending a query frees its match state, so batches skip
//! it entirely; resuming rebuilds the state from the shared distance oracle
//! at once, and subscribers receive one catch-up delta that reconciles
//! everything they missed while suspended. A reopened durable service
//! resumes its active queries the same way: no match state is persisted.

use crate::delta::{MatchDelta, QueryId};
use gpm_core::MatchRelation;
use gpm_graph::PatternGraph;
use gpm_incremental::MatchState;

/// How a query's state was brought up to date: by a batch's repair, which
/// serves every pattern, or by `resume`'s rebuild.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RepairKind {
    /// Incremental repair from the shared `AFF1` (the common path).
    Incremental,
    /// Activation: `resume` rebuilt the state of a suspended query, or of
    /// an active one that a durable service reopened.
    Activation,
}

/// Where a query's deltas go: handed each one from inside the emission
/// loop, `false` means "forget me" (see `MatchService::subscribe_with`).
pub(crate) type DeltaSink = Box<dyn FnMut(&MatchDelta) -> bool + Send>;

/// One registered query.
pub struct QueryEntry {
    pub(crate) id: QueryId,
    pub(crate) pattern: PatternGraph,
    /// `None` exactly while the query is suspended.
    pub(crate) state: Option<MatchState>,
    /// The visible relation as of the last delta emission — the fold of
    /// everything subscribers have been sent.
    pub(crate) emitted: MatchRelation,
    pub(crate) subscribers: Vec<DeltaSink>,
}

impl std::fmt::Debug for QueryEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEntry")
            .field("id", &self.id)
            .field("pattern", &self.pattern)
            .field("state", &self.state)
            .field("emitted", &self.emitted)
            .field("subscribers", &self.subscribers.len())
            .finish()
    }
}

impl QueryEntry {
    /// The query's id.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// The registered pattern.
    pub fn pattern(&self) -> &PatternGraph {
        &self.pattern
    }

    /// Whether the query participates in per-batch repair: it holds a
    /// match state, which only suspension frees.
    pub fn is_active(&self) -> bool {
        self.state.is_some()
    }
}

/// All registered queries, in registration order.
///
/// Ids are allocated monotonically and never reused; iteration order is
/// ascending id order, which is what makes the service's delta emission
/// deterministic.
#[derive(Debug, Default)]
pub struct QueryCatalog {
    entries: Vec<QueryEntry>,
    next_id: u64,
}

impl QueryCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        QueryCatalog::default()
    }

    /// Registers a pattern with an initial state and visible relation,
    /// returning its fresh id.
    pub(crate) fn register(
        &mut self,
        pattern: PatternGraph,
        state: MatchState,
        emitted: MatchRelation,
    ) -> QueryId {
        let id = QueryId(self.next_id);
        self.next_id += 1;
        self.entries.push(QueryEntry {
            id,
            pattern,
            state: Some(state),
            emitted,
            subscribers: Vec::new(),
        });
        id
    }

    /// Removes a query; its subscriber sinks are dropped. Returns whether
    /// the id was present.
    pub fn deregister(&mut self, id: QueryId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.id != id);
        self.entries.len() != before
    }

    /// Number of registered queries (active or suspended).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The registered ids, in registration order.
    pub fn ids(&self) -> Vec<QueryId> {
        self.entries.iter().map(|e| e.id).collect()
    }

    /// Shared access to an entry.
    pub fn get(&self, id: QueryId) -> Option<&QueryEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    pub(crate) fn get_mut(&mut self, id: QueryId) -> Option<&mut QueryEntry> {
        self.entries.iter_mut().find(|e| e.id == id)
    }

    /// Rebuilds a catalog from recovered entries (durability layer).
    ///
    /// Entries must be in registration order with strictly ascending ids all
    /// below `next_id`, or the persisted catalog could allocate a duplicate
    /// id after recovery — rejected as corruption.
    pub(crate) fn restore(next_id: u64, entries: Vec<QueryEntry>) -> Result<Self, String> {
        let mut prev: Option<u64> = None;
        for e in &entries {
            if prev.is_some_and(|p| p >= e.id.0) {
                return Err(format!(
                    "catalog snapshot ids are not strictly ascending at {}",
                    e.id
                ));
            }
            if e.id.0 >= next_id {
                return Err(format!(
                    "catalog snapshot contains {} but next_id is only {next_id}",
                    e.id
                ));
            }
            prev = Some(e.id.0);
        }
        Ok(QueryCatalog { entries, next_id })
    }

    /// The id the next registration will be assigned (durability layer:
    /// persisted so recovered services never reuse an id).
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Builds one recovered entry: suspended, and with no subscribers
    /// (subscriptions are ephemeral and do not survive a restart).
    pub(crate) fn restored_entry(
        id: QueryId,
        pattern: PatternGraph,
        emitted: MatchRelation,
    ) -> QueryEntry {
        QueryEntry {
            id,
            pattern,
            state: None,
            emitted,
            subscribers: Vec::new(),
        }
    }

    /// Iterates over every entry in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &QueryEntry> {
        self.entries.iter()
    }

    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut QueryEntry> {
        self.entries.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::PatternGraphBuilder;

    fn entry_pattern() -> PatternGraph {
        PatternGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("B")
            .edge("A", "B", 1u32)
            .build()
            .unwrap()
            .0
    }

    fn dummy_state(p: &PatternGraph) -> MatchState {
        let g = gpm_graph::DataGraph::new();
        let m = gpm_distance::DistanceMatrix::build(&g);
        MatchState::initialise(p, &g, &m)
    }

    #[test]
    fn ids_are_monotonic_and_never_reused() {
        let mut c = QueryCatalog::new();
        let p = entry_pattern();
        let a = c.register(p.clone(), dummy_state(&p), MatchRelation::empty(2));
        let b = c.register(p.clone(), dummy_state(&p), MatchRelation::empty(2));
        assert!(a < b);
        assert!(c.deregister(a));
        assert!(!c.deregister(a), "double deregister is a no-op");
        let d = c.register(p.clone(), dummy_state(&p), MatchRelation::empty(2));
        assert!(d > b, "freed ids are not recycled");
        assert_eq!(c.ids(), vec![b, d]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn get_and_accessors() {
        let mut c = QueryCatalog::new();
        let p = entry_pattern();
        let id = c.register(p.clone(), dummy_state(&p), MatchRelation::empty(2));
        let e = c.get(id).unwrap();
        assert_eq!(e.id(), id);
        assert_eq!(e.pattern().node_count(), 2);
        assert!(e.is_active());
        assert!(c.get(QueryId(999)).is_none());
        assert_eq!(c.iter().count(), 1);
    }
}
