//! Compressed-sparse-row adjacency with a mutable delta overlay.
//!
//! One direction (out- or in-) of a [`crate::DataGraph`]'s adjacency is
//! stored as two flat arrays:
//!
//! ```text
//! offsets: [0,    2,       5, 5,    7]        (node_count + 1 entries)
//! targets: [1, 3, 0, 2, 4,    1, 2]           (one entry per edge)
//!           └─v0─┘ └──v1──┘ └─v3─┘            (v2 has no neighbours)
//! ```
//!
//! `targets[offsets[v] .. offsets[v + 1]]` is the neighbour list of `v`, so
//! the BFS-heavy distance oracles and the matcher's candidate refinement
//! iterate contiguous memory instead of chasing one heap allocation per node
//! (the `Vec<Vec<NodeId>>` layout this replaced).
//!
//! Because the incremental algorithms (`Match+`, `Match−`, `IncMatch`)
//! mutate the graph edge by edge, the CSR base is paired with a **delta
//! overlay**: the first update that touches a node copies that node's base
//! slice into a per-node side list and edits the copy; lookups consult the
//! overlay first and fall back to the base. An update therefore costs
//! `O(deg(v))` on first touch and `O(1)`/`O(deg(v))` afterwards — never the
//! `O(|E|)` a full CSR rebuild would cost. [`CsrAdjacency::compact`] folds
//! the overlay back into a fresh base in `O(|V| + |E|)`; bulk constructors
//! (builders, loaders, decoders, generators) call it once after loading.

use crate::node_id::NodeId;
use rustc_hash::FxHashMap;

/// One direction of adjacency: a CSR base plus a per-node delta overlay.
///
/// Invariants:
///
/// * `offsets.len() == node_count + 1` once at least one node exists (the
///   freshly-`Default`ed state with no nodes is also valid);
/// * `offsets` is non-decreasing and `*offsets.last() == targets.len()`;
/// * an overlay entry for `v` holds `v`'s *complete, current* neighbour
///   list — the base slice of `v` is stale and ignored until `compact`.
#[derive(Clone, Debug, Default)]
pub(crate) struct CsrAdjacency {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    overlay: FxHashMap<u32, Vec<NodeId>>,
}

impl CsrAdjacency {
    /// Creates an empty adjacency with room reserved for `nodes` nodes.
    pub(crate) fn with_capacity(nodes: usize) -> Self {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        CsrAdjacency {
            offsets,
            targets: Vec::new(),
            overlay: FxHashMap::default(),
        }
    }

    /// Number of nodes covered.
    pub(crate) fn node_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Registers one more node (with no neighbours).
    pub(crate) fn push_node(&mut self) {
        let end = self.offsets.last().copied().unwrap_or_else(|| {
            self.offsets.push(0);
            0
        });
        self.offsets.push(end);
    }

    /// The base slice of `v` in the CSR arrays (ignores the overlay).
    #[inline]
    fn base(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.targets[lo..hi]
    }

    /// The current neighbour list of `v` as one contiguous slice.
    #[inline]
    pub(crate) fn neighbors(&self, v: NodeId) -> &[NodeId] {
        // The `is_empty` check keeps the common compacted case free of a
        // hash lookup.
        if !self.overlay.is_empty() {
            if let Some(list) = self.overlay.get(&v.0) {
                return list;
            }
        }
        self.base(v)
    }

    /// Current degree of `v`.
    #[inline]
    pub(crate) fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// The overlay list of `v`, materialising it from the base on first use.
    fn materialise(&mut self, v: NodeId) -> &mut Vec<NodeId> {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        let targets = &self.targets;
        self.overlay
            .entry(v.0)
            .or_insert_with(|| targets[lo..hi].to_vec())
    }

    /// Appends `w` to the neighbour list of `v` (duplicate checking is the
    /// caller's job — `DataGraph` guards with its edge set).
    pub(crate) fn insert(&mut self, v: NodeId, w: NodeId) {
        self.materialise(v).push(w);
    }

    /// Removes the first occurrence of `w` from the neighbour list of `v`
    /// (swap-remove; list order is not semantically meaningful once edges
    /// are deleted).
    pub(crate) fn remove(&mut self, v: NodeId, w: NodeId) {
        let list = self.materialise(v);
        if let Some(pos) = list.iter().position(|&x| x == w) {
            list.swap_remove(pos);
        }
    }

    /// Whether the overlay is empty (every list lives in the CSR base).
    pub(crate) fn is_compact(&self) -> bool {
        self.overlay.is_empty()
    }

    /// Folds the overlay back into a freshly-packed CSR base.
    /// `O(|V| + |E|)`; a no-op when already compact.
    pub(crate) fn compact(&mut self) {
        if self.overlay.is_empty() {
            return;
        }
        let n = self.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(self.targets.len());
        offsets.push(0);
        for v in 0..n as u32 {
            targets.extend_from_slice(self.neighbors(NodeId::new(v)));
            offsets.push(targets.len() as u32);
        }
        self.offsets = offsets;
        self.targets = targets;
        self.overlay.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn empty_and_push_node() {
        let mut a = CsrAdjacency::default();
        assert_eq!(a.node_count(), 0);
        a.push_node();
        a.push_node();
        assert_eq!(a.node_count(), 2);
        assert!(a.neighbors(n(0)).is_empty());
        assert!(a.neighbors(n(1)).is_empty());
        assert!(a.is_compact());
    }

    #[test]
    fn insert_remove_compact_roundtrip() {
        let mut a = CsrAdjacency::with_capacity(3);
        for _ in 0..3 {
            a.push_node();
        }
        a.insert(n(0), n(1));
        a.insert(n(0), n(2));
        a.insert(n(2), n(0));
        assert!(!a.is_compact());
        assert_eq!(a.neighbors(n(0)), &[n(1), n(2)]);
        assert_eq!(a.degree(n(2)), 1);

        a.compact();
        assert!(a.is_compact());
        assert_eq!(a.neighbors(n(0)), &[n(1), n(2)]);
        assert_eq!(a.neighbors(n(1)), &[] as &[NodeId]);
        assert_eq!(a.neighbors(n(2)), &[n(0)]);

        // Mutating after compaction touches only the affected node.
        a.remove(n(0), n(1));
        assert!(!a.is_compact());
        assert_eq!(a.neighbors(n(0)), &[n(2)]);
        assert_eq!(a.neighbors(n(2)), &[n(0)]); // untouched node: base slice
    }

    #[test]
    fn push_node_with_dirty_overlay() {
        let mut a = CsrAdjacency::with_capacity(2);
        a.push_node();
        a.push_node();
        a.insert(n(0), n(1));
        a.push_node(); // node 2 arrives while node 0 lives in the overlay
        assert_eq!(a.node_count(), 3);
        assert!(a.neighbors(n(2)).is_empty());
        assert_eq!(a.neighbors(n(0)), &[n(1)]);
        a.compact();
        assert_eq!(a.neighbors(n(0)), &[n(1)]);
        assert!(a.neighbors(n(2)).is_empty());
    }

    /// Reference model: the `Vec<Vec<NodeId>>` layout CSR replaced, mutated
    /// with exactly the old semantics (push on insert, swap-remove first
    /// occurrence on delete).
    #[derive(Default)]
    struct VecVecModel {
        lists: Vec<Vec<NodeId>>,
    }

    impl VecVecModel {
        fn push_node(&mut self) {
            self.lists.push(Vec::new());
        }
        fn insert(&mut self, v: NodeId, w: NodeId) {
            self.lists[v.index()].push(w);
        }
        fn remove(&mut self, v: NodeId, w: NodeId) {
            let list = &mut self.lists[v.index()];
            if let Some(pos) = list.iter().position(|&x| x == w) {
                list.swap_remove(pos);
            }
        }
    }

    fn sorted(s: &[NodeId]) -> Vec<NodeId> {
        let mut v = s.to_vec();
        v.sort();
        v
    }

    proptest! {
        /// Under random interleaved inserts, deletes, node additions and
        /// compactions, the CSR+overlay neighbour multisets equal the old
        /// `Vec<Vec<_>>` semantics at every step.
        #[test]
        fn prop_matches_vecvec_model(
            ops in proptest::collection::vec((0u32..10, 0u32..10, 0u8..10), 0..200),
        ) {
            let mut csr = CsrAdjacency::default();
            let mut model = VecVecModel::default();
            let base_nodes = 10u32;
            for _ in 0..base_nodes {
                csr.push_node();
                model.push_node();
            }
            let mut nodes = base_nodes;
            for &(a, b, kind) in &ops {
                let (a, b) = (n(a % nodes), n(b % nodes));
                match kind {
                    0..=4 => {
                        csr.insert(a, b);
                        model.insert(a, b);
                    }
                    5..=7 => {
                        csr.remove(a, b);
                        model.remove(a, b);
                    }
                    8 => {
                        csr.compact();
                        prop_assert!(csr.is_compact());
                    }
                    _ => {
                        csr.push_node();
                        model.push_node();
                        nodes += 1;
                    }
                }
                // The multiset of neighbours must agree after every op
                // (order may differ only across a compact boundary, where
                // overlay swap-removes have been re-packed).
                for v in 0..nodes {
                    prop_assert_eq!(
                        sorted(csr.neighbors(n(v))),
                        sorted(&model.lists[v as usize]),
                        "node {} diverged", v
                    );
                    prop_assert_eq!(csr.degree(n(v)), model.lists[v as usize].len());
                }
            }
            csr.compact();
            for v in 0..nodes {
                prop_assert_eq!(sorted(csr.neighbors(n(v))), sorted(&model.lists[v as usize]));
            }
        }
    }
}
