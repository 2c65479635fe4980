//! # gpm-core
//!
//! Bounded graph simulation — the primary contribution of Fan et al.,
//! *Graph Pattern Matching: From Intractable to Polynomial Time* (VLDB 2010).
//!
//! The crate provides:
//!
//! * [`bounded_simulation`] / [`bounded_simulation_with_oracle`] — the
//!   cubic-time `Match` algorithm (Fig. 4) computing the unique **maximum
//!   match** of a pattern in a data graph, generic over the distance oracle
//!   so the paper's three variants (distance matrix, BFS, 2-hop) share one
//!   implementation;
//! * [`naive::bounded_simulation_naive`] — a straightforward fixpoint used as
//!   a test oracle and ablation baseline;
//! * [`graph_simulation`] — plain graph simulation (Henzinger, Henzinger &
//!   Kopke), the special case with unit bounds and label-only predicates;
//! * [`MatchRelation`] — the match relation `S ⊆ V_p × V` with verification
//!   helpers implementing the definition of Section 2.2;
//! * [`ResultGraph`] — the compact representation of a maximum match
//!   (Section 2.2, "Result graph").
//!
//! ## Example
//!
//! ```
//! use gpm_graph::{DataGraphBuilder, PatternGraphBuilder, EdgeBound};
//! use gpm_core::bounded_simulation;
//!
//! // Boss -> workers within 2 hops.
//! let (g, ids) = DataGraphBuilder::new()
//!     .labeled_node("boss")
//!     .labeled_node("w1")
//!     .labeled_node("w2")
//!     .edge("boss", "w1")
//!     .edge("w1", "w2")
//!     .build()
//!     .unwrap();
//! # let _ = &ids;
//! let (p, pids) = PatternGraphBuilder::new()
//!     .labeled_node("boss")
//!     .labeled_node("w2")
//!     .edge("boss", "w2", 2u32)
//!     .build()
//!     .unwrap();
//!
//! let outcome = bounded_simulation(&p, &g);
//! assert!(outcome.relation.is_match(&p));
//! assert_eq!(outcome.relation.matches_of(pids["w2"]).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded_sim;
pub mod graph_sim;
pub mod match_relation;
pub mod naive;
pub mod result_graph;

pub use bounded_sim::{
    bounded_simulation, bounded_simulation_on, bounded_simulation_with_oracle,
    bounded_simulation_with_oracle_on, MatchOutcome, MatchStats, Refinement,
};
pub use graph_sim::graph_simulation;
pub use match_relation::MatchRelation;
pub use result_graph::ResultGraph;
