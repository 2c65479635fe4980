//! The wire message vocabulary.
//!
//! Every message — request, response or stream element — is one compact
//! JSON document inside one CRC-framed envelope (see [`crate::codec`]).
//! `PROTOCOL.md` in the repository root is the normative spec: field
//! tables, the handshake rules, the error and backpressure semantics, and
//! a worked byte-level exchange (pinned by a test in this module, so spec
//! and implementation cannot drift).
//!
//! The conversation shape is deliberately minimal:
//!
//! 1. the client opens with [`Request::Hello`]; the server answers
//!    [`Response::HelloAck`] (or an [`ErrorCode::UnsupportedVersion`] error
//!    and closes);
//! 2. request/response pairs follow in lockstep — one response per request,
//!    in order, no pipelining obligations on the server;
//! 3. a [`Request::Subscribe`] answered by [`Response::Subscribed`]
//!    converts the connection into a one-way delta stream: from then on the
//!    server sends only [`StreamMsg`] frames and ignores nothing — further
//!    client frames are a protocol violation.

use gpm_core::MatchRelation;
use gpm_distance::EdgeUpdate;
use gpm_graph::PatternGraph;
use gpm_service::MatchDelta;
use serde::{Deserialize, Serialize};

/// Version carried by the [`Request::Hello`]/[`Response::HelloAck`]
/// handshake. Servers refuse clients whose version differs; there is no
/// negotiation below the newest version (the protocol is young).
pub const PROTOCOL_VERSION: u32 = 2;

/// A client-to-server message.
///
/// Mutating requests map one-to-one onto [`gpm_service::MatchService`]
/// methods, and the server executes them under one service-wide lock, so a
/// wire client observes exactly the in-process semantics (same epochs, same
/// deltas, same catalog behaviour).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Mandatory first message of every connection.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// `MatchService::register` — computes the initial match immediately.
    Register {
        /// The standing pattern to register.
        pattern: PatternGraph,
    },
    /// `MatchService::deregister`.
    Deregister {
        /// Raw [`gpm_service::QueryId`] value.
        query: u64,
    },
    /// `MatchService::suspend`.
    Suspend {
        /// Raw [`gpm_service::QueryId`] value.
        query: u64,
    },
    /// `MatchService::resume`: the state is rebuilt and the catch-up delta
    /// is queued for the query's subscribers before `Done` is sent.
    Resume {
        /// Raw [`gpm_service::QueryId`] value.
        query: u64,
    },
    /// `MatchService::apply` — one update batch, applied atomically.
    ApplyBatch {
        /// The edge updates, in application order.
        updates: Vec<EdgeUpdate>,
    },
    /// `MatchService::result` — the query's current visible relation.
    Result {
        /// Raw [`gpm_service::QueryId`] value.
        query: u64,
    },
    /// Converts this connection into a delta stream for one query. The
    /// first streamed delta is a snapshot of the result at subscribe time
    /// (fold the stream from an empty relation to reproduce the live
    /// result), exactly like `MatchService::subscribe`.
    Subscribe {
        /// Raw [`gpm_service::QueryId`] value.
        query: u64,
    },
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
}

/// A server-to-client answer. Exactly one per [`Request`], in order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Successful handshake.
    HelloAck {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
        /// The service's distance-oracle backend name (`"matrix"` /
        /// `"two-hop"`) — diagnostic, not contractual.
        backend: String,
        /// The service epoch at handshake time.
        epoch: u64,
    },
    /// Answer to [`Request::Register`].
    Registered {
        /// The raw id assigned to the new query.
        query: u64,
    },
    /// Answer to deregister/suspend/resume.
    Done {
        /// Whether the id named a registered query (`false` = no-op).
        known: bool,
    },
    /// Answer to [`Request::ApplyBatch`] — the full
    /// [`gpm_service::BatchOutcome`] of the batch.
    Applied {
        /// The epoch the batch was assigned.
        epoch: u64,
        /// Updates that took effect (no-ops excluded).
        applied: u64,
        /// `|AFF1|` of the shared distance maintenance.
        aff1: u64,
        /// Every non-empty per-query delta, in registration order.
        deltas: Vec<MatchDelta>,
    },
    /// Answer to [`Request::Result`].
    ResultRelation {
        /// The visible relation; `None` for unknown or suspended queries.
        relation: Option<MatchRelation>,
    },
    /// Answer to [`Request::Subscribe`]; every following server frame is a
    /// [`StreamMsg`].
    Subscribed {
        /// Echo of the subscribed query id.
        query: u64,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Any request the server refuses. After protocol-level errors
    /// ([`ErrorCode::BadFrame`], [`ErrorCode::BadHandshake`],
    /// [`ErrorCode::UnsupportedVersion`]) the server also closes the
    /// connection; service-level errors ([`ErrorCode::UnknownQuery`]) leave
    /// it usable.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Machine-readable classes for [`Response::Error`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The first message was not a [`Request::Hello`].
    BadHandshake,
    /// The hello's version differs from the server's.
    UnsupportedVersion,
    /// A frame failed its integrity envelope (CRC mismatch, oversized
    /// length field, or an undecodable payload). Connection closes.
    BadFrame,
    /// A structurally valid request the server cannot serve in this state
    /// (e.g. any request after the connection became a delta stream).
    BadRequest,
    /// A subscribe named an id with no registered query.
    UnknownQuery,
    /// Reserved for internal failures.
    Internal,
}

/// A server-to-client element of a subscription stream.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum StreamMsg {
    /// One delta, in emission order. The first is always the subscribe-time
    /// snapshot.
    Delta(MatchDelta),
    /// Explicit end of stream; the server closes the connection right after
    /// writing it. Streams are never silently dropped: a subscriber either
    /// sees this frame or a socket error, not a quiet gap.
    End {
        /// Why the stream ended.
        reason: EndReason,
    },
}

/// Why a subscription stream ended ([`StreamMsg::End`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EndReason {
    /// The query was deregistered (or the service shut down).
    QueryClosed,
    /// The subscriber fell behind a full queue under
    /// [`crate::BackpressurePolicy::Disconnect`].
    Backpressure,
    /// The server is shutting down.
    ServerShutdown,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::PatternGraphBuilder;
    use gpm_graph::{NodeId, PatternNodeId};
    use gpm_service::QueryId;

    fn roundtrip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(msg: &T) {
        let text = serde_json::to_string(msg).unwrap();
        let back: T = serde_json::from_str(&text).unwrap();
        assert_eq!(&back, msg, "roundtrip changed {text}");
    }

    /// Pins the worked byte-level example of PROTOCOL.md ("A worked
    /// exchange"): if the wire encoding of the register→apply→delta
    /// conversation changes, this test and the spec must change together.
    #[test]
    fn worked_example_bytes_match_protocol_md() {
        let (pattern, _) = PatternGraphBuilder::new()
            .labeled_node("a")
            .labeled_node("b")
            .edge("a", "b", 2u32)
            .build()
            .unwrap();
        let frames = [
            (
                "Hello",
                crate::codec::encode_message(&Request::Hello { version: 2 }).unwrap(),
            ),
            (
                "Register",
                crate::codec::encode_message(&Request::Register { pattern }).unwrap(),
            ),
            (
                "ApplyBatch",
                crate::codec::encode_message(&Request::ApplyBatch {
                    updates: vec![EdgeUpdate::Insert(NodeId::new(1), NodeId::new(2))],
                })
                .unwrap(),
            ),
            (
                "Delta",
                crate::codec::encode_message(&StreamMsg::Delta(MatchDelta {
                    query: QueryId::from_raw(0),
                    epoch: 1,
                    added: vec![(PatternNodeId::new(1), NodeId::new(2))],
                    removed: vec![],
                }))
                .unwrap(),
            ),
        ];
        let hex = |frame: &[u8]| -> String { frame.iter().map(|b| format!("{b:02x}")).collect() };
        let payload =
            |frame: &[u8]| -> String { std::str::from_utf8(&frame[8..]).unwrap().to_string() };

        // The exact frames shown in PROTOCOL.md's "A worked exchange".
        assert_eq!(
            hex(&frames[0].1),
            "1700000044c045fb7b2248656c6c6f223a7b2276657273696f6e223a327d7d"
        );
        assert_eq!(payload(&frames[0].1), r#"{"Hello":{"version":2}}"#);

        assert_eq!(hex(&frames[1].1)[..16], *"fb000000604c384f");
        assert_eq!(
            payload(&frames[1].1),
            r#"{"Register":{"pattern":{"nodes":[{"predicate":{"atoms":[{"attr":"label","op":"Eq","value":{"Str":"a"}}]},"name":"a"},{"predicate":{"atoms":[{"attr":"label","op":"Eq","value":{"Str":"b"}}]},"name":"b"}],"edges":[{"from":0,"to":1,"bound":{"Hops":2}}]}}}"#
        );

        assert_eq!(
            hex(&frames[2].1),
            "2d000000fd2431ca7b224170706c794261746368223a7b2275706461746573223a5b7b22496e7365\
             7274223a5b312c325d7d5d7d7d"
                .replace(char::is_whitespace, "")
        );
        assert_eq!(
            payload(&frames[2].1),
            r#"{"ApplyBatch":{"updates":[{"Insert":[1,2]}]}}"#
        );

        assert_eq!(
            hex(&frames[3].1),
            "3c000000b52ce2507b2244656c7461223a7b227175657279223a302c2265706f6368223a312c2261\
             64646564223a5b5b312c325d5d2c2272656d6f766564223a5b5d7d7d"
                .replace(char::is_whitespace, "")
        );
        assert_eq!(
            payload(&frames[3].1),
            r#"{"Delta":{"query":0,"epoch":1,"added":[[1,2]],"removed":[]}}"#
        );
    }

    #[test]
    fn every_message_shape_roundtrips() {
        let (pattern, _) = PatternGraphBuilder::new()
            .labeled_node("a")
            .labeled_node("b")
            .edge("a", "b", 2u32)
            .build()
            .unwrap();
        let delta = MatchDelta {
            query: QueryId::from_raw(3),
            epoch: 7,
            added: vec![(PatternNodeId::new(0), NodeId::new(4))],
            removed: vec![(PatternNodeId::new(1), NodeId::new(9))],
        };
        roundtrip(&Request::Hello {
            version: PROTOCOL_VERSION,
        });
        roundtrip(&Request::Register { pattern });
        roundtrip(&Request::Deregister { query: 1 });
        roundtrip(&Request::Suspend { query: 2 });
        roundtrip(&Request::Resume { query: 2 });
        roundtrip(&Request::ApplyBatch {
            updates: vec![
                EdgeUpdate::Insert(NodeId::new(0), NodeId::new(1)),
                EdgeUpdate::Delete(NodeId::new(2), NodeId::new(3)),
            ],
        });
        roundtrip(&Request::Result { query: 3 });
        roundtrip(&Request::Subscribe { query: 3 });
        roundtrip(&Request::Ping);

        roundtrip(&Response::HelloAck {
            version: PROTOCOL_VERSION,
            backend: "matrix".to_string(),
            epoch: 0,
        });
        roundtrip(&Response::Registered { query: 5 });
        roundtrip(&Response::Done { known: true });
        roundtrip(&Response::Applied {
            epoch: 1,
            applied: 2,
            aff1: 3,
            deltas: vec![delta.clone()],
        });
        roundtrip(&Response::ResultRelation {
            relation: Some(MatchRelation::from_sets(vec![vec![NodeId::new(1)]])),
        });
        roundtrip(&Response::ResultRelation { relation: None });
        roundtrip(&Response::Subscribed { query: 3 });
        roundtrip(&Response::Pong);
        roundtrip(&Response::Error {
            code: ErrorCode::UnknownQuery,
            message: "q99".to_string(),
        });

        roundtrip(&StreamMsg::Delta(delta));
        roundtrip(&StreamMsg::End {
            reason: EndReason::Backpressure,
        });
    }
}
