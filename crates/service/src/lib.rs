//! # gpm-service
//!
//! A continuous multi-pattern matching service: many standing
//! bounded-simulation queries over **one** evolving data graph, maintained
//! incrementally with shared state.
//!
//! The paper's incremental results (`Match−`/`Match+`/`IncMatch`, Section 4)
//! maintain *one* pattern per graph. Production graph workloads register
//! many patterns against the same graph and stream updates continuously;
//! recomputing — or even incrementally maintaining — each query in isolation
//! repeats the expensive shared work (distance maintenance, affected-area
//! computation) once per query. This crate multiplexes instead:
//!
//! * [`MatchService`] owns one [`gpm_graph::DataGraph`] and one
//!   [`gpm_distance::DistanceMatrix`] shared by every registered query;
//! * each update batch runs `UpdateBM` **once**, producing one shared
//!   `AFF1`; every active query then repairs its own
//!   [`gpm_incremental::MatchState`] from that `AFF1`
//!   ([`gpm_incremental::repair_match_state`], which serves every pattern,
//!   cyclic ones included, and cannot fail), so a batch never recomputes a
//!   query's state;
//! * results leave the service as per-query [`MatchDelta`]s — the pairs
//!   entering and leaving each query's visible result — through pull
//!   ([`MatchService::apply`]'s [`BatchOutcome`]) and push: one sequential
//!   loop refreshes each query and emits its delta, in registration order so
//!   streams are bit-identical at any thread count, handing each delta to
//!   the query's subscriber sinks — a
//!   [`Subscription`] channel, or the caller's own closure
//!   ([`MatchService::subscribe_with`]; it runs inside that loop, under the
//!   service lock of `gpm-net`, and must not call back into the service);
//! * the [`QueryCatalog`] supports deregistration and suspension: a query
//!   is active iff it holds a match state, suspended queries cost nothing
//!   per batch, and [`MatchService::resume`] rebuilds the state at once,
//!   with a catch-up delta reconciling its subscribers;
//!   [`MatchService::result`] is a pure read.
//!
//! With `K` registered queries and `U` update batches the service performs
//! `U` affected-area computations where `K` single-query services perform
//! `K·U` — the amortisation the `svc_continuous` experiment measures. A
//! single-query service is also how an application maintains one pattern.
//!
//! ## Example
//!
//! ```
//! use gpm_graph::{DataGraphBuilder, PatternGraphBuilder};
//! use gpm_distance::EdgeUpdate;
//! use gpm_service::{fold_deltas, MatchService};
//!
//! let (g, ids) = DataGraphBuilder::new()
//!     .labeled_node("fraudster")
//!     .labeled_node("mule")
//!     .labeled_node("account")
//!     .edge("fraudster", "mule")
//!     .build()
//!     .unwrap();
//!
//! let (ring, _) = PatternGraphBuilder::new()
//!     .labeled_node("fraudster")
//!     .labeled_node("account")
//!     .edge("fraudster", "account", 2u32)
//!     .build()
//!     .unwrap();
//!
//! let mut svc = MatchService::new(g);
//! let q = svc.register(ring);
//! let sub = svc.subscribe(q).unwrap();
//!
//! // A new money trail completes the pattern: subscribers see the delta.
//! svc.apply(&[EdgeUpdate::Insert(ids["mule"], ids["account"])]);
//! let stream = sub.drain();
//! assert_eq!(fold_deltas(2, stream.iter()), svc.result(q).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod delta;
pub mod engine;
pub(crate) mod metrics;
pub mod snapshot;
pub mod wal;

pub use catalog::{QueryCatalog, QueryEntry, RepairKind};
pub use delta::{fold_deltas, MatchDelta, QueryId, Subscription};
pub use engine::{BatchOutcome, DurableOptions, Executed, MatchService, ServiceStats};
pub use snapshot::{GraphFormat, Manifest, QuerySnapshot};
pub use wal::{DurabilityError, WalOp, WalReadOutcome, WalRecord, WalWriter};
