//! # gpm-distance
//!
//! Distance oracles for bounded-simulation graph pattern matching.
//!
//! The `Match` algorithm of Fan et al. (VLDB 2010) decides, for a pattern
//! edge `(u, u')` with bound `k`, whether a data node `x` has a *non-empty*
//! path of length `<= k` to some node matching `u'`. All of that reduces to
//! queries of the form "what is the length of the shortest **non-empty** path
//! from `x` to `y`?", which this crate answers through interchangeable
//! back-ends behind two traits.
//!
//! [`DistanceQuery`] is the read side (`nonempty_distance`, `within`,
//! `count_within`) — what `Match` and the match-repair passes are generic
//! over. Every back-end implements it, including the three variants compared
//! in Exp-2 of the paper:
//!
//! * [`DistanceMatrix`] — the paper's distance matrix `M`: all-pairs
//!   non-empty shortest distances, `O(|V|(|V|+|E|))` to build, `O(1)` to
//!   query ("Match" in the figures);
//! * [`BfsOracle`] — on-demand BFS with per-source memoisation ("BFS");
//! * [`TwoHopIndex`] / [`TwoHopOracle`] — a pruned 2-hop reachability/distance
//!   labeling used as a filter in front of BFS ("2-hop").
//!
//! [`DistanceOracle`] extends it with the **incremental shortest-path
//! maintenance** the incremental matching algorithms rely on, as one
//! required method: [`DistanceOracle::apply_batch`] (the paper's `UpdateBM`;
//! `UpdateM` is a one-element batch), reporting the set of affected
//! source–sink pairs (`AFF1`). That method is the only maintenance door: no
//! back-end exports free maintenance functions. Two back-ends are
//! maintainable — [`DistanceMatrix`] and the sublinear-memory
//! [`IncrementalTwoHop`] labeling, which repairs insertions and deletions
//! alike in its labels and never rebuilds — selected at runtime via
//! [`OracleBackend`] (the `GPM_ORACLE` environment variable / `--oracle`
//! flag). [`BfsOracle`] and [`TwoHopOracle`] are query-only: handing one to
//! code that maintains its oracle is a compile error.
//!
//! ## Non-empty distances
//!
//! Bounded simulation requires witness paths of length `>= 1`, so the
//! distance from a node to itself is the length of the shortest cycle through
//! it (or "unreachable" if it lies on no cycle), not 0. Everything in this
//! crate works with that convention; standard distances are available where
//! needed via [`DistanceMatrix::standard_distance`].
//!
//! ## One BFS, one horizon
//!
//! Everything above is a breadth-first search over a `u16` store, and the
//! crate spells it once: a private `bfs` module owns the row kernel
//! (`BfsOracle`'s memoised rows, the four rows a 2-hop deletion takes around
//! its edge), the pruned kernel (the sequential 2-hop build, the
//! bit-parallel build's replay, the insertion repair's resumed searches),
//! the multi-source kernel — 64 rows to a traversal, one frontier word per
//! node (the matrix build, the rows of a 2-hop deletion's rectangle) — and
//! the horizon arithmetic. Stored distances are at most 65 534, one below
//! [`UNREACHABLE`]; no kernel expands a node at that horizon and every
//! sum of stored distances clamps there, so **a node farther than the
//! horizon is reported unreachable by every back-end and no BFS wraps** —
//! the back-ends saturate identically because they run the same function.
//!
//! ## Paper map
//!
//! | paper | here |
//! |-------|------|
//! | matrix `M`, Theorem 3.1 proof | [`DistanceMatrix`] (`build` = the proof's BFS per source, 64 sources to a word-parallel traversal: the multi-source kernel; same `O(\|V\|(\|V\| + \|E\|))` bound) |
//! | "BFS" curves, Fig. 6(f)–(h) | [`BfsOracle`] |
//! | "2-hop" curves, Fig. 6(f)–(h) | [`TwoHopIndex`] / [`TwoHopOracle`] (pruned kernel) |
//! | `UpdateM` / `UpdateBM`, Section 4 | [`DistanceOracle::apply_batch`] (`UpdateM` = a one-element batch) |
//! | `AFF1` | [`AffectedPairs`] |
//!
//! All oracles consume the data graph through its neighbour-list accessors
//! (`out_neighbors`/`in_neighbors`), each one contiguous slice, so a BFS
//! expansion scans one node's neighbours without chasing pointers. The
//! maintenance kernels are generic over
//! [`gpm_graph::Adjacency`]: a unit update reads the [`gpm_graph::DataGraph`]
//! itself, a batch reads a [`gpm_graph::BatchReplay`] view of the post-batch
//! graph stepped through the batch, so `apply_batch` never copies the graph
//! (see the [`incremental`] module docs).
//!
//! Construction runs on the shared `gpm-exec` executor:
//! [`DistanceMatrix::build_with`] deals one block of 64 rows — one
//! multi-source traversal — per task on every executor, and
//! [`TwoHopIndex::build_with`] one group of a batch's roots per task in
//! phase A. The `*_with`-less entry points default to the process-wide
//! [`gpm_exec::Parallelism::from_env`] policy, except
//! [`DistanceMatrix::build`], which runs on the caller thread whatever
//! `GPM_THREADS` says. Maintenance runs on the caller thread on both
//! back-ends: an insertion or a matrix deletion is one sweep over its
//! affected cone (a whole unit costs about what opening a parallel region
//! does), and a 2-hop deletion runs the rows of its rectangle one
//! multi-source BFS per chunk of 64, chunk after chunk, before its
//! sequential label writes (ARCHITECTURE.md § `gpm-exec` has the two-thread
//! measurements).
//!
//! ## Example
//!
//! ```
//! use gpm_distance::DistanceMatrix;
//! use gpm_graph::{DataGraph, NodeId};
//!
//! // 0 -> 1 -> 2 -> 0: every node lies on a 3-cycle.
//! let g = DataGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
//! let m = DistanceMatrix::build(&g);
//! assert_eq!(m.nonempty_distance(NodeId::new(0), NodeId::new(2)), Some(2));
//! // Non-empty convention: the diagonal holds the shortest cycle length.
//! assert_eq!(m.nonempty_distance(NodeId::new(0), NodeId::new(0)), Some(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod bfs;
pub mod bfs_oracle;
pub mod incremental;
pub mod matrix;
mod metrics;
pub mod oracle;
pub mod two_hop;
pub mod two_hop_inc;

pub use backend::OracleBackend;
pub use bfs_oracle::BfsOracle;
pub use incremental::{AffectedPair, AffectedPairs, EdgeUpdate};
pub use matrix::DistanceMatrix;
pub use oracle::{DistanceOracle, DistanceQuery};
pub use two_hop::{TwoHopIndex, TwoHopOracle};
pub use two_hop_inc::IncrementalTwoHop;

use gpm_graph::{EdgeBound, NodeId};

/// Hop count representing "no path"; distances are stored as `u16` because
/// no graph in this workload family has a diameter anywhere near 65k hops.
/// The largest finite stored distance is one below it (the *horizon*,
/// 65 534): a node farther than that is reported unreachable by every
/// back-end, and no BFS wraps.
pub const UNREACHABLE: u16 = u16::MAX;

/// The largest stored hop count that satisfies `bound`: `Hops(k)` clamped
/// below the [`UNREACHABLE`] sentinel (the `u16` horizon — no stored distance
/// exceeds 65 534, so a larger `k` must not admit unreachable pairs), `*` =
/// any finite entry. `d <= hop_limit(bound)` is the whole bound test on a
/// stored distance `d`.
#[inline]
pub(crate) fn hop_limit(bound: EdgeBound) -> u16 {
    match bound {
        EdgeBound::Hops(k) => k.min(u32::from(bfs::HORIZON)) as u16,
        EdgeBound::Unbounded => bfs::HORIZON,
    }
}

/// How many of `targets` lie within `bound` of the source whose stored row of
/// non-empty distances is `row`: one limit, then a branch-free gather.
#[inline]
pub(crate) fn count_row_within(row: &[u16], targets: &[NodeId], bound: EdgeBound) -> u32 {
    let limit = hop_limit(bound);
    targets
        .iter()
        .map(|y| u32::from(row[y.index()] <= limit))
        .sum()
}
