//! Network front-end for the continuous matching service.
//!
//! `gpm-net` puts a socket in front of [`gpm_service::MatchService`]:
//! register, deregister, suspend, resume, apply-batch, result and
//! subscribe all work over a TCP connection with exactly the in-process
//! semantics — the server serialises every mutation through one service
//! lock and registers each wire subscriber as a sink of the service's own
//! emission loop ([`gpm_service::MatchService::subscribe_with`]),
//! so a delta stream observed over the wire is **bit-identical** to the
//! stream an embedded [`gpm_service::Subscription`] yields (the
//! `net_differential` suite pins this at several thread counts and on both
//! oracle backends).
//!
//! The wire format reuses the WAL's integrity envelope: every message is
//! one `len ++ crc ++ json` frame ([`gpm_service::wal`]), so corruption
//! detection on the socket and on disk is literally the same code.
//! `PROTOCOL.md` in the repository root is the normative wire spec;
//! `ARCHITECTURE.md` places this crate in the workspace.
//!
//! # Example: serve, connect, subscribe — all on loopback
//!
//! ```
//! use gpm_graph::{DataGraphBuilder, PatternGraphBuilder};
//! use gpm_distance::EdgeUpdate;
//! use gpm_net::{NetClient, NetServer, ServerOptions};
//! use gpm_service::{fold_deltas, MatchService};
//!
//! let (g, ids) = DataGraphBuilder::new()
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
//! // Serve the service on an OS-assigned loopback port.
//! let server = NetServer::bind("127.0.0.1:0", MatchService::new(g), ServerOptions::default())
//!     .unwrap();
//! let addr = server.local_addr().unwrap();
//! let handle = server.spawn().unwrap();
//!
//! // One connection registers and applies updates...
//! let mut admin = NetClient::connect(addr).unwrap();
//! let q = admin.register(&p).unwrap();
//!
//! // ...another becomes a delta stream for the query.
//! let mut sub = NetClient::connect(addr).unwrap().subscribe(q).unwrap();
//! let snapshot = sub.next().unwrap().unwrap(); // first delta = snapshot
//! assert!(snapshot.added.is_empty()); // no boss→worker path yet
//!
//! let out = admin.apply(&[EdgeUpdate::Insert(ids["mid"], ids["worker"])]).unwrap();
//! assert_eq!(out.deltas.len(), 1); // the match appeared
//! let delta = sub.next().unwrap().unwrap();
//! assert_eq!(delta, out.deltas[0]); // wire stream == batch outcome
//!
//! // Folding the stream reproduces the live result.
//! let folded = fold_deltas(2, [&snapshot, &delta]);
//! assert_eq!(Some(folded), admin.result(q).unwrap());
//!
//! // Deregistering ends the stream explicitly, never silently.
//! admin.deregister(q).unwrap();
//! assert!(sub.next().unwrap().is_none());
//! assert_eq!(sub.end_reason(), Some(gpm_net::EndReason::QueryClosed));
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod error;
mod metrics;
pub mod proto;

mod client;
mod server;

pub use client::{AppliedBatch, NetClient, NetSubscription};
pub use error::NetError;
pub use proto::{EndReason, ErrorCode, Request, Response, StreamMsg, PROTOCOL_VERSION};
pub use server::{BackpressurePolicy, NetServer, ServerHandle, ServerOptions};
