//! Thread-per-connection server exposing one [`MatchService`] on a socket.
//!
//! Every connection talks the lockstep protocol of [`crate::proto`]; one
//! service-wide [`Mutex`] serialises all mutations, so wire clients observe
//! exactly the in-process semantics — same epochs, same registration-order
//! delta emission, bit-identical streams.
//!
//! # Delta fan-out
//!
//! A wire subscriber is a sink of the service's own emission loop
//! ([`MatchService::subscribe_with`]): the service hands the snapshot and
//! every later delta of the query straight into that subscriber's bounded
//! queue, and a writer thread per subscriber moves queue entries onto the
//! socket. The emission runs under the service lock and in registration
//! order, so the interleaving of batches and forwarded deltas is identical
//! for every subscriber regardless of thread count, and that queue is the
//! only one a delta sits in between the service and the socket.
//!
//! # Backpressure
//!
//! The per-subscriber queue is bounded ([`ServerOptions::subscriber_queue`]).
//! When it fills, [`ServerOptions::backpressure`] decides:
//!
//! * [`BackpressurePolicy::Block`] — the emission blocks, which blocks the
//!   request being served. Slow subscribers slow the service; nothing is
//!   ever dropped.
//! * [`BackpressurePolicy::Disconnect`] — the subscriber is kicked: its
//!   stream ends with [`StreamMsg::End`] / [`EndReason::Backpressure`]
//!   after the queued deltas drain. Dropping is always *explicit*, never a
//!   silent gap in the stream.

use crate::codec::{read_message, write_message, ReadOutcome};
use crate::error::NetError;
use crate::metrics;
use crate::proto::{EndReason, ErrorCode, Request, Response, StreamMsg, PROTOCOL_VERSION};
use gpm_service::{Executed, MatchDelta, MatchService, QueryId, WalOp};
use parking_lot::Mutex;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;

/// What to do with a subscriber whose bounded queue is full.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block the producing request until the subscriber drains. Nothing is
    /// dropped; slow subscribers slow the whole service.
    Block,
    /// Disconnect the subscriber with an explicit
    /// [`EndReason::Backpressure`] end-of-stream marker.
    Disconnect,
}

/// Tunables for [`NetServer`].
#[derive(Copy, Clone, Debug)]
pub struct ServerOptions {
    /// Bounded depth of each subscriber's delta queue (messages, not
    /// bytes). Must be at least 1.
    pub subscriber_queue: usize,
    /// Policy when a subscriber's queue is full.
    pub backpressure: BackpressurePolicy,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            subscriber_queue: 1024,
            backpressure: BackpressurePolicy::Block,
        }
    }
}

struct Shared {
    svc: Mutex<MatchService>,
    opts: ServerOptions,
}

/// The service-side end of one wire subscriber: pushes a delta into the
/// bounded queue its writer thread drains, deciding backpressure on a full
/// one. `false` — the service then forgets the sink, which hangs up the
/// queue — when the writer is gone (client hung up) or the subscriber is
/// kicked; `end` tells the writer which. A sink the service drops with its
/// query leaves `end` empty: [`EndReason::QueryClosed`].
fn wire_sink(
    tx: SyncSender<MatchDelta>,
    end: Arc<Mutex<Option<EndReason>>>,
    policy: BackpressurePolicy,
) -> impl FnMut(&MatchDelta) -> bool + Send {
    move |delta| {
        let obs = metrics::net();
        let queued = match policy {
            BackpressurePolicy::Block => tx.send(delta.clone()).is_ok(),
            BackpressurePolicy::Disconnect => match tx.try_send(delta.clone()) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) => {
                    *end.lock() = Some(EndReason::Backpressure);
                    obs.kicked_subscribers.inc();
                    false
                }
                Err(TrySendError::Disconnected(_)) => false,
            },
        };
        if queued {
            obs.deltas_streamed.inc();
        }
        queued
    }
}

/// A bound-but-not-yet-serving server. [`NetServer::spawn`] starts the
/// accept loop; see the crate docs for a full serve/connect example.
pub struct NetServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl NetServer {
    /// Binds a listener and wraps `service` for network access. Use port 0
    /// to let the OS pick (read it back via [`NetServer::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        service: MatchService,
        opts: ServerOptions,
    ) -> io::Result<NetServer> {
        assert!(opts.subscriber_queue >= 1, "subscriber_queue must be >= 1");
        let listener = TcpListener::bind(addr)?;
        Ok(NetServer {
            listener,
            shared: Arc::new(Shared {
                svc: Mutex::new(service),
                opts,
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the accept loop on a background thread and returns the
    /// control handle.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let shared = self.shared;
        let listener = self.listener;
        let join = thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                // A subscriber stream is one-way: with Nagle on, a delta
                // written while the previous one is unacknowledged would wait
                // for the peer's delayed ACK.
                let _ = stream.set_nodelay(true);
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    metrics::net().connections.inc();
                    // Connection errors are the peer's problem; the service
                    // behind the lock is untouched by a failed connection.
                    let _ = serve_connection(&shared, stream);
                });
            }
        });
        Ok(ServerHandle {
            addr,
            stop,
            join: Some(join),
        })
    }
}

/// Control handle for a spawned server: address + shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections and joins the accept loop (what
    /// dropping the handle does). Established connections run until their
    /// client disconnects.
    pub fn shutdown(self) {}
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Reads one request, mapping frame-level failures to the error response
/// the server should send before closing.
fn read_request(stream: &mut TcpStream) -> Result<Option<Request>, (ErrorCode, String)> {
    match read_message::<_, Request>(stream) {
        Ok(ReadOutcome::Msg(req, n)) => {
            metrics::net().bytes_in.add(n as u64);
            Ok(Some(req))
        }
        Ok(ReadOutcome::Eof) => Ok(None),
        Err(NetError::Frame(m)) | Err(NetError::Codec(m)) => {
            metrics::net().bad_frames.inc();
            Err((ErrorCode::BadFrame, m))
        }
        Err(e) => Err((ErrorCode::Internal, e.to_string())),
    }
}

fn send(stream: &mut TcpStream, resp: &Response) -> Result<(), NetError> {
    let n = write_message(stream, resp)?;
    metrics::net().bytes_out.add(n as u64);
    Ok(())
}

/// Runs one connection to completion: handshake, lockstep requests, and —
/// if the client subscribes — the one-way stream tail.
fn serve_connection(shared: &Shared, mut stream: TcpStream) -> Result<(), NetError> {
    let obs = metrics::net();

    // Handshake: the first frame must be a version-matching Hello.
    match read_request(&mut stream) {
        Ok(Some(Request::Hello { version })) if version == PROTOCOL_VERSION => {
            let svc = shared.svc.lock();
            let ack = Response::HelloAck {
                version: PROTOCOL_VERSION,
                backend: svc.oracle().name().to_string(),
                epoch: svc.epoch(),
            };
            drop(svc);
            send(&mut stream, &ack)?;
        }
        Ok(Some(Request::Hello { version })) => {
            let _ = send(
                &mut stream,
                &Response::Error {
                    code: ErrorCode::UnsupportedVersion,
                    message: format!(
                        "server speaks version {PROTOCOL_VERSION}, client sent {version}"
                    ),
                },
            );
            return Ok(());
        }
        Ok(Some(other)) => {
            let _ = send(
                &mut stream,
                &Response::Error {
                    code: ErrorCode::BadHandshake,
                    message: format!("first message must be Hello, got {other:?}"),
                },
            );
            return Ok(());
        }
        Ok(None) => return Ok(()), // connected and left; fine
        Err((code, message)) => {
            let _ = send(&mut stream, &Response::Error { code, message });
            return Ok(());
        }
    }

    // Lockstep request/response until EOF, a fatal frame error, or a
    // subscribe (which converts the connection into a stream).
    loop {
        let req = match read_request(&mut stream) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()),
            Err((code, message)) => {
                let _ = send(&mut stream, &Response::Error { code, message });
                return Ok(());
            }
        };
        obs.requests.inc();
        let _span = obs.request_ns.span();

        let resp = match req {
            Request::Hello { .. } => Response::Error {
                code: ErrorCode::BadRequest,
                message: "connection is already past its handshake".to_string(),
            },
            Request::Ping => Response::Pong,
            Request::Register { pattern } => mutate(shared, WalOp::Register(pattern)),
            // Dropping the query drops its sinks, which ends its wire streams.
            Request::Deregister { query } => mutate(shared, WalOp::Deregister(query)),
            Request::Suspend { query } => mutate(shared, WalOp::Suspend(query)),
            Request::Resume { query } => mutate(shared, WalOp::Resume(query)),
            Request::ApplyBatch { updates } => mutate(shared, WalOp::Batch(updates)),
            Request::Result { query } => Response::ResultRelation {
                relation: shared.svc.lock().result(QueryId::from_raw(query)),
            },
            Request::Subscribe { query } => {
                let (tx, rx) = sync_channel(shared.opts.subscriber_queue);
                let end = Arc::new(Mutex::new(None));
                let sink = wire_sink(tx, Arc::clone(&end), shared.opts.backpressure);
                // The snapshot is queued before the lock drops, so the
                // Subscribed reply is immediately followed by it.
                if shared
                    .svc
                    .lock()
                    .subscribe_with(QueryId::from_raw(query), sink)
                {
                    obs.subscriptions.inc();
                    send(&mut stream, &Response::Subscribed { query })?;
                    return stream_subscriber(stream, rx, end);
                }
                Response::Error {
                    code: ErrorCode::UnknownQuery,
                    message: format!("no registered query with id {query}"),
                }
            }
        };
        send(&mut stream, &resp)?;
    }
}

/// Runs one mutation through [`MatchService::execute`], the service's only
/// mutating path, so no request reaches a method that panics. A durability
/// error answers `Internal` and the connection stays open; the service is
/// stopped by then, so every later mutation answers it too.
fn mutate(shared: &Shared, op: WalOp) -> Response {
    match shared.svc.lock().execute(op) {
        Ok(Executed::Registered(id)) => Response::Registered { query: id.value() },
        Ok(Executed::Known(known)) => Response::Done { known },
        Ok(Executed::Applied(out)) => Response::Applied {
            epoch: out.epoch,
            applied: out.applied as u64,
            aff1: out.aff1 as u64,
            deltas: out.deltas,
        },
        Err(e) => Response::Error {
            code: ErrorCode::Internal,
            message: e.to_string(),
        },
    }
}

/// The one-way tail of a subscribed connection: moves queued deltas onto
/// the socket, then writes the explicit end-of-stream marker.
fn stream_subscriber(
    mut stream: TcpStream,
    rx: Receiver<MatchDelta>,
    end: Arc<Mutex<Option<EndReason>>>,
) -> Result<(), NetError> {
    let obs = metrics::net();
    loop {
        match rx.recv() {
            Ok(delta) => {
                let n = write_message(&mut stream, &StreamMsg::Delta(delta))?;
                obs.bytes_out.add(n as u64);
            }
            Err(_) => {
                // The service dropped our sink: every queued delta has been
                // written, and the slot says why the stream ended.
                let reason = end.lock().take().unwrap_or(EndReason::QueryClosed);
                let _ = write_message(&mut stream, &StreamMsg::End { reason });
                return Ok(());
            }
        }
    }
}
