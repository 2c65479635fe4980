//! # gpm — Graph Pattern Matching via Bounded Simulation
//!
//! A Rust implementation of *"Graph Pattern Matching: From Intractable to
//! Polynomial Time"* (Fan, Li, Ma, Tang, Wu & Wu, PVLDB 3(1), 2010).
//!
//! This facade crate re-exports the whole public API:
//!
//! | module | contents |
//! |--------|----------|
//! | [`graph`] | attributed data graphs, pattern graphs, predicates, traversals, dataset IO |
//! | [`exec`] | the scoped fork-join executor and its [`Parallelism`] policy |
//! | [`distance`] | distance matrix, BFS and 2-hop oracles, incremental shortest paths, pluggable backends ([`OracleBackend`]) |
//! | [`matching`] | the cubic-time `Match` (bounded simulation), graph simulation, result graphs |
//! | [`incremental`] | `Match−`, `Match+`, `IncMatch`, shared-AFF repair |
//! | [`service`] | the continuous multi-pattern matching service (`MatchService`: register/apply/subscribe) |
//! | [`net`] | network front-end for the service (CRC-framed wire protocol, server, client; see PROTOCOL.md) |
//! | [`iso`] | subgraph-isomorphism baselines (Ullmann `SubIso`, VF2) |
//! | [`obs`] | zero-dependency metrics/tracing (counters, histograms, spans; `GPM_OBS`) |
//! | [`datagen`] | synthetic graphs, simulated Matter/PBlog/YouTube datasets, adversarial topologies, dataset sources/export, pattern generator, update streams |
//!
//! The most common entry points are also re-exported at the crate root.
//!
//! Data graphs keep one neighbour list per node and direction, edited in
//! place by incremental updates — see the "Physical layout" section of the
//! [`graph`] module docs.
//!
//! ## Parallelism
//!
//! Three hot paths — `Match`'s candidate refinement, the distance-matrix
//! build and the 2-hop build — run on a shared fork-join executor (the
//! [`exec`] module). Candidate selection and batch-update maintenance run on
//! the caller thread: fanned out, they never ran faster at two threads
//! (ARCHITECTURE.md § `gpm-exec` lists every site). Every entry point
//! defaults to the process-wide [`Parallelism::from_env`] policy (all
//! available cores, overridable with the `GPM_THREADS` environment
//! variable); `*_on`/`*_with` variants accept an explicit [`Executor`] or
//! [`Parallelism`]. Parallel and sequential runs return **bit-identical**
//! results: every merge happens in a fixed order that does not depend on
//! thread count (see `bounded_simulation_with_oracle_on`).
//!
//! ```
//! use gpm::{bounded_simulation_on, Executor, Parallelism};
//! use gpm::{DataGraphBuilder, PatternGraphBuilder};
//!
//! let (graph, _) = DataGraphBuilder::new()
//!     .labeled_node("a").labeled_node("b").path(&["a", "b"])
//!     .build().unwrap();
//! let (pattern, _) = PatternGraphBuilder::new()
//!     .labeled_node("a").labeled_node("b").edge("a", "b", 1u32)
//!     .build().unwrap();
//!
//! let sequential = bounded_simulation_on(&pattern, &graph, &Executor::sequential());
//! let parallel = bounded_simulation_on(
//!     &pattern,
//!     &graph,
//!     &Executor::new(Parallelism::new(8).with_sequential_threshold(0)),
//! );
//! assert_eq!(sequential, parallel); // bit-identical, including stats
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use gpm::{DataGraphBuilder, PatternGraphBuilder, bounded_simulation};
//!
//! // Build a tiny "who supervises whom" data graph.
//! let (graph, _) = DataGraphBuilder::new()
//!     .labeled_node("boss")
//!     .labeled_node("manager")
//!     .labeled_node("worker")
//!     .path(&["boss", "manager", "worker"])
//!     .build()
//!     .unwrap();
//!
//! // Pattern: a boss connected to a worker within 2 hops.
//! let (pattern, ids) = PatternGraphBuilder::new()
//!     .labeled_node("boss")
//!     .labeled_node("worker")
//!     .edge("boss", "worker", 2u32)
//!     .build()
//!     .unwrap();
//!
//! let outcome = bounded_simulation(&pattern, &graph);
//! assert!(outcome.relation.is_match(&pattern));
//! assert_eq!(outcome.relation.matches_of(ids["worker"]).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Attributed data graphs and pattern graphs (re-export of `gpm-graph`).
pub mod graph {
    pub use gpm_graph::*;
}

/// The scoped fork-join executor (re-export of `gpm-exec`).
pub mod exec {
    pub use gpm_exec::*;
}

/// Distance oracles and incremental shortest paths (re-export of
/// `gpm-distance`).
pub mod distance {
    pub use gpm_distance::*;
}

/// Bounded simulation, graph simulation and result graphs (re-export of
/// `gpm-core`).
pub mod matching {
    pub use gpm_core::*;
}

/// Incremental matching (re-export of `gpm-incremental`).
pub mod incremental {
    pub use gpm_incremental::*;
}

/// The continuous multi-pattern matching service (re-export of
/// `gpm-service`).
pub mod service {
    pub use gpm_service::*;
}

/// Network front-end for the matching service (re-export of `gpm-net`).
///
/// Exposes a [`service::MatchService`] on a TCP socket: CRC-framed wire
/// protocol (PROTOCOL.md), thread-per-connection server with backpressured
/// subscriber streams, and a blocking client. Wire-observed delta streams
/// are bit-identical to in-process [`service::Subscription`] streams.
pub mod net {
    pub use gpm_net::*;
}

/// Subgraph-isomorphism baselines (re-export of `gpm-iso`).
pub mod iso {
    pub use gpm_iso::*;
}

/// Zero-dependency metrics and structured tracing (re-export of `gpm-obs`).
///
/// Disabled by default; enable with the `GPM_OBS=1` environment variable or
/// [`obs::set_enabled`]. See the `gpm-obs` crate docs for the report and
/// JSONL formats.
pub mod obs {
    pub use gpm_obs::*;
}

/// Workload generators and simulated datasets (re-export of `gpm-datagen`).
pub mod datagen {
    pub use gpm_datagen::*;
}

// Root-level convenience re-exports.
pub use gpm_core::{
    bounded_simulation, bounded_simulation_on, bounded_simulation_with_oracle,
    bounded_simulation_with_oracle_on, graph_simulation, MatchOutcome, MatchRelation, MatchStats,
    ResultGraph,
};
pub use gpm_datagen::{
    generate_pattern, random_graph, random_updates, timed_update_stream, Dataset, DatasetSource,
    PatternGenConfig, RandomGraphConfig, TimedBatch, TimedStreamConfig, UpdateStreamConfig,
};
pub use gpm_distance::{
    BfsOracle, DistanceMatrix, DistanceOracle, DistanceQuery, EdgeUpdate, IncrementalTwoHop,
    OracleBackend, TwoHopIndex, TwoHopOracle,
};
pub use gpm_exec::{Executor, Parallelism};
pub use gpm_graph::{
    load_dataset, AttrSchema, AttrType, AttrValue, Attributes, CmpOp, DataGraph, DataGraphBuilder,
    EdgeBound, GraphError, NodeId, OnDiskDataset, PatternGraph, PatternGraphBuilder, PatternNodeId,
    Predicate,
};
pub use gpm_incremental::{
    inc_match, match_minus, match_plus, repair_match_state, MatchState, RepairOutcome,
};
pub use gpm_iso::{subgraph_isomorphism_ullmann, subgraph_isomorphism_vf2, IsoConfig, IsoOutcome};
pub use gpm_service::{
    fold_deltas, BatchOutcome, DurabilityError, DurableOptions, Executed, MatchDelta, MatchService,
    QueryCatalog, QueryId, ServiceStats, Subscription,
};
