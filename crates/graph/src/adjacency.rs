//! Read-only adjacency, and a replay view over the endpoints a batch touched.
//!
//! Batch maintenance of a distance oracle (`UpdateBM`) replays a batch one
//! unit at a time, and every unit must see the adjacency *at its position in
//! the batch* — but the caller only holds the post-batch [`DataGraph`].
//! [`BatchReplay`] reconstructs the intermediate graphs without copying it:
//! it borrows the post-batch graph and owns only the neighbour lists of the
//! endpoints the batch touches, rewound to the pre-batch state and stepped
//! forward one unit at a time. A batch costs `O(Σ deg(touched endpoints))`
//! plus one slot per node — no attributes, no edge set, no other lists. The
//! maintenance kernels read either graph through [`Adjacency`].

use crate::data_graph::DataGraph;
use crate::node_id::NodeId;

/// The adjacency queries the distance-maintenance kernels need. `Sync`,
/// because the kernels read it from every worker of a parallel region.
pub trait Adjacency: Sync {
    /// Number of nodes `|V|`.
    fn node_count(&self) -> usize;
    /// The out-neighbours of `v` as one contiguous slice.
    fn out_neighbors(&self, v: NodeId) -> &[NodeId];
    /// The in-neighbours of `v` as one contiguous slice.
    fn in_neighbors(&self, v: NodeId) -> &[NodeId];
    /// Whether the edge `(from, to)` exists.
    fn has_edge(&self, from: NodeId, to: NodeId) -> bool;
}

impl Adjacency for DataGraph {
    #[inline]
    fn node_count(&self) -> usize {
        DataGraph::node_count(self)
    }
    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        DataGraph::out_neighbors(self, v)
    }
    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        DataGraph::in_neighbors(self, v)
    }
    #[inline]
    fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        DataGraph::has_edge(self, from, to)
    }
}

/// Marks a node whose neighbour list the view does not own.
const BORROWED: u32 = u32::MAX;

/// One direction of the view: the owned neighbour lists of touched nodes.
#[derive(Debug)]
struct OwnedLists {
    /// Per node: index into `lists`, or [`BORROWED`].
    slot: Vec<u32>,
    lists: Vec<Vec<NodeId>>,
}

impl OwnedLists {
    fn new(nodes: usize) -> Self {
        OwnedLists {
            slot: vec![BORROWED; nodes],
            lists: Vec::new(),
        }
    }

    /// Where the owned list of `v` is; `None` if borrowed or out of range.
    #[inline]
    fn index(&self, v: NodeId) -> Option<usize> {
        self.slot
            .get(v.index())
            .filter(|&&i| i != BORROWED)
            .map(|&i| i as usize)
    }

    /// Takes ownership of the list of `v`, copying `current`, once.
    fn own(&mut self, v: NodeId, current: &[NodeId]) {
        if self.slot[v.index()] == BORROWED {
            self.slot[v.index()] = self.lists.len() as u32;
            self.lists.push(current.to_vec());
        }
    }
}

/// The graph at one position inside an update batch, as a view over the
/// post-batch graph (see the module docs): built by
/// [`rewind`](BatchReplay::rewind) at the pre-batch state, advanced by
/// [`set_edge`](BatchReplay::set_edge), equal to the borrowed graph again
/// after the last unit.
#[derive(Debug)]
pub struct BatchReplay<'g> {
    post: &'g DataGraph,
    out: OwnedLists,
    inn: OwnedLists,
}

impl<'g> BatchReplay<'g> {
    /// The pre-batch view of `post`, the graph after a batch that touched
    /// the edges `touched` (repeats and out-of-range endpoints allowed).
    ///
    /// `existed_before(from, to)` must say whether a touched edge was in the
    /// graph **before** the batch. Undoing the updates in reverse cannot
    /// tell: a delete that was a no-op would be undone into an edge that
    /// never existed. A distance oracle that still reflects the pre-batch
    /// graph can — the edge existed iff its non-empty distance is 1.
    pub fn rewind(
        post: &'g DataGraph,
        touched: impl IntoIterator<Item = (NodeId, NodeId)>,
        existed_before: impl Fn(NodeId, NodeId) -> bool,
    ) -> Self {
        let n = post.node_count();
        let mut view = BatchReplay {
            post,
            out: OwnedLists::new(n),
            inn: OwnedLists::new(n),
        };
        for (from, to) in touched {
            if post.contains_node(from) && post.contains_node(to) {
                view.out.own(from, post.out_neighbors(from));
                view.inn.own(to, post.in_neighbors(to));
                view.set_edge(from, to, existed_before(from, to));
            }
        }
        view
    }

    /// Makes the edge `(from, to)` present or absent. Returns `false`, and
    /// changes nothing, if it already is — or if it is not one of the
    /// `touched` edges given to [`rewind`](BatchReplay::rewind), which
    /// covers out-of-range endpoints.
    pub fn set_edge(&mut self, from: NodeId, to: NodeId, present: bool) -> bool {
        let (Some(o), Some(i)) = (self.out.index(from), self.inn.index(to)) else {
            return false;
        };
        let (outs, ins) = (&mut self.out.lists[o], &mut self.inn.lists[i]);
        match (outs.iter().position(|&w| w == to), present) {
            (None, true) => {
                outs.push(to);
                ins.push(from);
            }
            (Some(at), false) => {
                outs.swap_remove(at);
                let at = ins.iter().position(|&w| w == from);
                ins.swap_remove(at.expect("in-list mirrors out-list"));
            }
            _ => return false,
        }
        true
    }
}

impl Adjacency for BatchReplay<'_> {
    #[inline]
    fn node_count(&self) -> usize {
        self.post.node_count()
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        match self.out.index(v) {
            Some(i) => &self.out.lists[i],
            None => self.post.out_neighbors(v),
        }
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        match self.inn.index(v) {
            Some(i) => &self.inn.lists[i],
            None => self.post.in_neighbors(v),
        }
    }

    /// `O(deg(from))` when the view owns the out-list of `from`: every edge
    /// whose state differs from the borrowed graph has such a source.
    fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        match self.out.index(from) {
            Some(i) => self.out.lists[i].contains(&to),
            None => self.post.has_edge(from, to),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn sorted(list: &[NodeId]) -> Vec<NodeId> {
        let mut v = list.to_vec();
        v.sort();
        v
    }

    /// The view answers every adjacency query like `reference` does.
    fn assert_same(view: &BatchReplay<'_>, reference: &DataGraph) {
        assert_eq!(Adjacency::node_count(view), reference.node_count());
        for v in reference.nodes() {
            assert_eq!(
                sorted(view.out_neighbors(v)),
                sorted(reference.out_neighbors(v))
            );
            assert_eq!(
                sorted(view.in_neighbors(v)),
                sorted(reference.in_neighbors(v))
            );
            for w in reference.nodes() {
                assert_eq!(view.has_edge(v, w), reference.has_edge(v, w));
            }
        }
    }

    #[test]
    fn missing_delete_is_not_rewound_into_an_edge() {
        // {1→2, 1→3}; the batch deletes (1,2) and the absent (3,2).
        let mut g = DataGraph::from_edges(4, &[(1, 2), (1, 3)]).unwrap();
        let before = g.clone();
        g.remove_edge(n(1), n(2)).unwrap();
        let touched = [(n(1), n(2)), (n(3), n(2))];
        let mut view = BatchReplay::rewind(&g, touched, |a, b| before.has_edge(a, b));
        assert!(
            !view.has_edge(n(3), n(2)),
            "a no-op delete fabricates nothing"
        );
        assert!(view.has_edge(n(1), n(2)));
        assert!(view.set_edge(n(1), n(2), false));
        assert!(!view.set_edge(n(3), n(2), false));
        assert!(view.in_neighbors(n(2)).is_empty());
    }

    #[test]
    fn out_of_range_and_unannounced_edges_are_no_ops() {
        let g = DataGraph::from_edges(3, &[(0, 1)]).unwrap();
        let mut view =
            BatchReplay::rewind(&g, [(n(0), n(9)), (n(0), n(1))], |a, b| g.has_edge(a, b));
        assert!(!view.set_edge(n(0), n(9), true));
        assert!(!view.set_edge(n(9), n(0), false));
        assert!(!view.set_edge(n(1), n(2), true), "not announced to rewind");
        assert!(!view.set_edge(n(0), n(1), true), "already present");
        assert_eq!(view.out_neighbors(n(0)), &[n(1)]);
    }

    proptest! {
        /// At every step of a raw batch (duplicates, missing deletes,
        /// insert-then-delete, self-loops) the view equals the graph a
        /// clone-and-replay produces, and the post-batch graph at the end.
        #[test]
        fn prop_view_tracks_clone_and_replay(
            edges in proptest::collection::vec((0u32..10, 0u32..10), 0..40),
            batch in proptest::collection::vec((0u32..10, 0u32..10, 0u8..2), 0..24),
        ) {
            let mut pre = DataGraph::new();
            pre.add_nodes(10);
            for &(a, b) in &edges {
                let _ = pre.try_add_edge(n(a), n(b)).unwrap();
            }
            let mut post = pre.clone();
            for &(a, b, kind) in &batch {
                if kind == 0 {
                    let _ = post.try_add_edge(n(a), n(b)).unwrap();
                } else {
                    let _ = post.remove_edge(n(a), n(b));
                }
            }
            let touched = batch.iter().map(|&(a, b, _)| (n(a), n(b)));
            let mut view = BatchReplay::rewind(&post, touched, |a, b| pre.has_edge(a, b));
            let mut scratch = pre.clone();
            assert_same(&view, &scratch);
            for &(a, b, kind) in &batch {
                let expected = if kind == 0 {
                    scratch.try_add_edge(n(a), n(b)).unwrap()
                } else {
                    scratch.remove_edge(n(a), n(b)).is_ok()
                };
                prop_assert_eq!(view.set_edge(n(a), n(b), kind == 0), expected);
                assert_same(&view, &scratch);
            }
            assert_same(&view, &post);
        }
    }
}
