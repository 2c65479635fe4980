//! # gpm-incremental
//!
//! Incremental graph pattern matching (Section 4 of Fan et al., VLDB 2010):
//! maintain the maximum bounded-simulation match of a pattern while the data
//! graph is updated by edge insertions and deletions, without recomputing it
//! from scratch.
//!
//! Section 4's three algorithms are one idea — maintain the distance oracle,
//! take `AFF1`, propagate removals, then additions — so they are three
//! paper-named wrappers (validate, mutate the graph) over **one kernel**:
//! [`DistanceOracle::apply_batch`](gpm_distance::DistanceOracle::apply_batch)
//! followed by [`repair_match_state`], seeded from the sources of `AFF1`
//! whose change crosses one of the pattern's bounds.
//!
//! * [`match_minus`] — the paper's `Match−` (Fig. 5): unit edge **deletion**,
//!   arbitrary (possibly cyclic) patterns;
//! * [`match_plus`] — `Match+` (Fig. 7): unit edge **insertion**, DAG
//!   patterns;
//! * [`inc_match`] — `IncMatch` (Fig. 8): a batch of updates, DAG patterns;
//! * [`repair_match_state`] — the repair half of the kernel on its own,
//!   driven by a precomputed `AFF1` and reading the oracle through
//!   [`DistanceQuery`](gpm_distance::DistanceQuery) only, so a multi-query
//!   service (`gpm-service`) can pay the shared graph/oracle maintenance
//!   once per batch and replay only the cheap per-query repair for every
//!   registered pattern. The service owns the graph, the oracle and the
//!   states — it is what an application embeds, with one query or many.
//!
//! The kernel serves every pattern, cyclic ones included: the additions
//! half admits a candidate optimistically on the pattern edges that lie on
//! a cycle and re-verifies those admissions with the removal cascade
//! ([`insert`] has the rule and its proof). On a DAG that is the paper's
//! `Match+` exactly, so only the paper-named [`match_plus`] and
//! [`inc_match`] keep the paper's DAG restriction, and
//! [`repair_match_state`] cannot fail.
//!
//! Every operation reports the affected areas: `AFF1` (node pairs whose
//! distance changed — from `gpm-distance`) and `AFF2` (match pairs added or
//! removed), whose sizes drive the `O(|AFF1| |AFF2|²)` bound of Theorem 4.1
//! and the `|AFF|` annotations of Figures 6(i)–(k).
//!
//! The repair keeps to that bound's shape. [`MatchState`] (module
//! [`state`]) is `Match`'s own refinement state, witness counters included,
//! and the repair continues that refinement: `AFF1`'s bound-crossing pairs
//! move the counters, and `Match`'s wave propagates each removal to the
//! parents within bound, one decrement each. Every step reads the packed
//! match and predicate lists, so its cost follows the matches it visits,
//! never `|V|`. What it cannot shrink is `AFF1` itself, which the oracle
//! enumerates in full.
//!
//! Updates edit the data graph's neighbour lists in place (`O(deg)` per
//! touched node, no rebuild, no maintenance call).
//!
//! ## Example
//!
//! ```
//! use gpm_distance::DistanceMatrix;
//! use gpm_exec::Executor;
//! use gpm_graph::{DataGraphBuilder, PatternGraphBuilder};
//! use gpm_incremental::{match_plus, MatchState};
//!
//! let (mut g, ids) = DataGraphBuilder::new()
//!     .labeled_node("boss")
//!     .labeled_node("mid")
//!     .labeled_node("worker")
//!     .edge("boss", "mid")
//!     .build()
//!     .unwrap();
//! let (p, _) = PatternGraphBuilder::new()
//!     .labeled_node("boss")
//!     .labeled_node("worker")
//!     .edge("boss", "worker", 2u32)
//!     .build()
//!     .unwrap();
//!
//! // Compute the match once ...
//! let mut m = DistanceMatrix::build(&g);
//! let mut state = MatchState::initialise(&p, &g, &m);
//! assert!(!state.all_matched()); // no path from boss to worker yet
//!
//! // ... then one inserted edge completes boss -> mid -> worker: Match+
//! // repairs the match without recomputing it from scratch.
//! let exec = Executor::sequential();
//! match_plus(&p, &mut g, &mut m, &mut state, ids["mid"], ids["worker"], &exec).unwrap();
//! assert!(state.all_matched());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affected;
pub mod batch;
pub mod delete;
pub mod insert;
pub mod repair;
pub mod state;

pub use affected::{Aff2, IncrementalStats};
pub use batch::inc_match;
pub use delete::match_minus;
pub use insert::match_plus;
pub use repair::{crosses_a_bound, repair_match_state, split_aff1_sources, RepairOutcome};
pub use state::MatchState;

/// Result alias for incremental operations.
pub type Result<T> = std::result::Result<T, gpm_graph::GraphError>;
