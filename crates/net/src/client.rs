//! Blocking client for the wire protocol.
//!
//! [`NetClient`] speaks the lockstep request/response phase;
//! [`NetClient::subscribe`] consumes it and returns a
//! [`NetSubscription`], mirroring the protocol's own one-way conversion —
//! the type system forbids sending requests down a streaming connection.

use crate::codec::{read_message, write_message, ReadOutcome};
use crate::error::NetError;
use crate::proto::{EndReason, Request, Response, StreamMsg, PROTOCOL_VERSION};
use gpm_core::MatchRelation;
use gpm_distance::EdgeUpdate;
use gpm_graph::PatternGraph;
use gpm_service::MatchDelta;
use std::net::{TcpStream, ToSocketAddrs};

/// What [`NetClient::apply`] returns: the wire copy of
/// [`gpm_service::BatchOutcome`].
#[derive(Clone, Debug, PartialEq)]
pub struct AppliedBatch {
    /// The epoch the batch was assigned.
    pub epoch: u64,
    /// Updates that took effect (no-ops excluded).
    pub applied: u64,
    /// `|AFF1|` of the shared distance maintenance.
    pub aff1: u64,
    /// Every non-empty per-query delta, in registration order.
    pub deltas: Vec<MatchDelta>,
}

/// A connected, handshaken client in the request/response phase.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    backend: String,
    epoch_at_connect: u64,
}

impl NetClient {
    /// Connects and performs the `Hello`/`HelloAck` handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<NetClient, NetError> {
        let mut stream = TcpStream::connect(addr)?;
        // Every frame is one complete write: send it now (see the server).
        stream.set_nodelay(true)?;
        write_message(
            &mut stream,
            &Request::Hello {
                version: PROTOCOL_VERSION,
            },
        )?;
        match read_response(&mut stream)? {
            Response::HelloAck {
                version,
                backend,
                epoch,
            } => {
                if version != PROTOCOL_VERSION {
                    return Err(NetError::Protocol(format!(
                        "server acknowledged version {version}, expected {PROTOCOL_VERSION}"
                    )));
                }
                Ok(NetClient {
                    stream,
                    backend,
                    epoch_at_connect: epoch,
                })
            }
            other => Err(unexpected("HelloAck", &other)),
        }
    }

    /// The server's distance-oracle backend name (diagnostic).
    pub fn backend(&self) -> &str {
        &self.backend
    }

    /// The service epoch observed during the handshake.
    pub fn epoch_at_connect(&self) -> u64 {
        self.epoch_at_connect
    }

    fn call(&mut self, req: &Request) -> Result<Response, NetError> {
        write_message(&mut self.stream, req)?;
        read_response(&mut self.stream)
    }

    /// Registers a standing query; returns its raw id.
    pub fn register(&mut self, pattern: &PatternGraph) -> Result<u64, NetError> {
        match self.call(&Request::Register {
            pattern: pattern.clone(),
        })? {
            Response::Registered { query } => Ok(query),
            other => Err(unexpected("Registered", &other)),
        }
    }

    /// Deregisters a query; `false` if the id was unknown.
    pub fn deregister(&mut self, query: u64) -> Result<bool, NetError> {
        match self.call(&Request::Deregister { query })? {
            Response::Done { known } => Ok(known),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// Suspends a query; `false` if the id was unknown.
    pub fn suspend(&mut self, query: u64) -> Result<bool, NetError> {
        match self.call(&Request::Suspend { query })? {
            Response::Done { known } => Ok(known),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// Resumes a suspended query; `false` if the id was unknown.
    pub fn resume(&mut self, query: u64) -> Result<bool, NetError> {
        match self.call(&Request::Resume { query })? {
            Response::Done { known } => Ok(known),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// Applies one atomic update batch and returns its outcome.
    pub fn apply(&mut self, updates: &[EdgeUpdate]) -> Result<AppliedBatch, NetError> {
        match self.call(&Request::ApplyBatch {
            updates: updates.to_vec(),
        })? {
            Response::Applied {
                epoch,
                applied,
                aff1,
                deltas,
            } => Ok(AppliedBatch {
                epoch,
                applied,
                aff1,
                deltas,
            }),
            other => Err(unexpected("Applied", &other)),
        }
    }

    /// Fetches a query's current visible relation (`None` for unknown or
    /// suspended queries).
    pub fn result(&mut self, query: u64) -> Result<Option<MatchRelation>, NetError> {
        match self.call(&Request::Result { query })? {
            Response::ResultRelation { relation } => Ok(relation),
            other => Err(unexpected("ResultRelation", &other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Converts this connection into a one-way delta stream for `query`.
    /// The first delta is a snapshot of the result at subscribe time.
    pub fn subscribe(mut self, query: u64) -> Result<NetSubscription, NetError> {
        match self.call(&Request::Subscribe { query })? {
            Response::Subscribed { query: echoed } if echoed == query => Ok(NetSubscription {
                stream: self.stream,
                query,
                end: None,
            }),
            Response::Subscribed { query: echoed } => Err(NetError::Protocol(format!(
                "subscribed to {query} but server echoed {echoed}"
            ))),
            other => Err(unexpected("Subscribed", &other)),
        }
    }
}

/// The receiving end of a wire subscription.
#[derive(Debug)]
pub struct NetSubscription {
    stream: TcpStream,
    query: u64,
    end: Option<EndReason>,
}

impl NetSubscription {
    /// The raw id of the subscribed query.
    pub fn query(&self) -> u64 {
        self.query
    }

    /// Why the stream ended, once [`NetSubscription::next`] has returned
    /// `Ok(None)`.
    pub fn end_reason(&self) -> Option<EndReason> {
        self.end
    }

    /// Blocks for the next delta. `Ok(None)` means the server ended the
    /// stream explicitly ([`NetSubscription::end_reason`] says why); a
    /// connection that dies *without* an end marker is an error, never a
    /// silent end.
    // Not an Iterator: the item shape is Result<Option<_>>, so errors end
    // the loop instead of repeating forever on a dead socket.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<MatchDelta>, NetError> {
        if self.end.is_some() {
            return Ok(None);
        }
        match read_message::<_, StreamMsg>(&mut self.stream)? {
            ReadOutcome::Msg(StreamMsg::Delta(delta), _) => Ok(Some(delta)),
            ReadOutcome::Msg(StreamMsg::End { reason }, _) => {
                self.end = Some(reason);
                Ok(None)
            }
            ReadOutcome::Eof => Err(NetError::Protocol(
                "stream closed without an End marker".to_string(),
            )),
        }
    }

    /// Collects deltas until the stream ends; fails on a close without an
    /// end marker, like [`NetSubscription::next`].
    pub fn collect_to_end(&mut self) -> Result<Vec<MatchDelta>, NetError> {
        let mut out = Vec::new();
        while let Some(d) = self.next()? {
            out.push(d);
        }
        Ok(out)
    }
}

fn read_response(stream: &mut TcpStream) -> Result<Response, NetError> {
    match read_message::<_, Response>(stream)? {
        ReadOutcome::Msg(Response::Error { code, message }, _) => {
            Err(NetError::Remote { code, message })
        }
        ReadOutcome::Msg(resp, _) => Ok(resp),
        ReadOutcome::Eof => Err(NetError::Protocol(
            "server closed the connection instead of responding".to_string(),
        )),
    }
}

fn unexpected(wanted: &str, got: &Response) -> NetError {
    NetError::Protocol(format!("expected {wanted}, got {got:?}"))
}
