//! Hostile-input tests: a live server fed garbage, torn frames, oversized
//! length fields, malformed patterns, protocol violations and mid-catch-up
//! disconnects must fail each *connection* cleanly while the *service*
//! behind it keeps serving well-behaved clients with correct results.

use gpm_datagen::{random_graph, random_updates, RandomGraphConfig, UpdateStreamConfig};
use gpm_exec::Parallelism;
use gpm_graph::{PatternGraph, PatternGraphBuilder, Predicate};
use gpm_net::codec::{encode_message, read_message, ReadOutcome, MAX_FRAME_LEN};
use gpm_net::{
    ErrorCode, NetClient, NetError, NetServer, Request, Response, ServerHandle, ServerOptions,
    PROTOCOL_VERSION,
};
use gpm_service::wal::encode_frame;
use gpm_service::MatchService;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// `net.bad_frames` is process-global: every test here that provokes bad
/// frames holds this lock, so one of them can count its own.
fn bad_frames_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn dag_pattern(labels: [&str; 2]) -> PatternGraph {
    let (p, _) = PatternGraphBuilder::new()
        .node("x", Predicate::label(labels[0]))
        .node("y", Predicate::label(labels[1]))
        .edge("x", "y", 2u32)
        .build()
        .unwrap();
    p
}

/// A served service over a small random graph.
fn serve() -> (ServerHandle, SocketAddr) {
    let g = random_graph(&RandomGraphConfig::new(60, 200, 4).with_seed(7));
    let svc = MatchService::with_parallelism(g, Parallelism::new(1));
    let server = NetServer::bind("127.0.0.1:0", svc, ServerOptions::default()).unwrap();
    let addr = server.local_addr().unwrap();
    (server.spawn().unwrap(), addr)
}

/// Exercises the full request vocabulary over a well-behaved client and
/// checks the results are coherent — run *after* each attack to prove the
/// service was not poisoned.
fn assert_service_healthy(addr: SocketAddr) {
    let mut c = NetClient::connect(addr).expect("healthy connect");
    c.ping().expect("healthy ping");
    let q = c.register(&dag_pattern(["a0", "a1"])).expect("register");
    let before = c.result(q).expect("result").expect("known query");

    // Apply a real batch; the relation stays consistent with the outcome.
    let g = random_graph(&RandomGraphConfig::new(60, 200, 4).with_seed(7));
    let updates = random_updates(&g, &UpdateStreamConfig::mixed(10).with_seed(3));
    let out = c.apply(&updates).expect("apply");
    assert!(out.applied <= updates.len() as u64);
    let after = c.result(q).expect("result").expect("known query");
    let changed = out.deltas.iter().any(|d| d.query.value() == q);
    if !changed {
        assert_eq!(before, after, "no delta for q{q} but its result moved");
    }
    assert!(c.deregister(q).expect("deregister"));
}

#[test]
fn garbage_bytes_fail_the_connection_not_the_service() {
    let _bad_frames = bad_frames_lock();
    let (handle, addr) = serve();
    for seed in 0u8..4 {
        let mut raw = TcpStream::connect(addr).unwrap();
        let junk: Vec<u8> = (0..64u32)
            .map(|i| (i as u8).wrapping_mul(37) ^ seed)
            .collect();
        raw.write_all(&junk).unwrap();
        let _ = raw.shutdown(std::net::Shutdown::Write);
        // Whatever the server answered (a BadFrame error or a hang-up), it
        // must not accept the junk as a message.
        match read_message::<_, Response>(&mut raw) {
            Ok(ReadOutcome::Msg(Response::Error { code, .. }, _)) => {
                assert_eq!(code, ErrorCode::BadFrame)
            }
            Ok(ReadOutcome::Msg(other, _)) => panic!("junk produced a response: {other:?}"),
            Ok(ReadOutcome::Eof) | Err(_) => {}
        }
    }
    assert_service_healthy(addr);
    handle.shutdown();
}

#[test]
fn truncated_frame_is_rejected_and_service_survives() {
    let _bad_frames = bad_frames_lock();
    let (handle, addr) = serve();
    // A valid handshake, then a frame cut off mid-payload.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(
        &encode_message(&Request::Hello {
            version: PROTOCOL_VERSION,
        })
        .unwrap(),
    )
    .unwrap();
    match read_message::<_, Response>(&mut raw).unwrap() {
        ReadOutcome::Msg(Response::HelloAck { .. }, _) => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    let frame = encode_message(&Request::Ping).unwrap();
    raw.write_all(&frame[..frame.len() - 3]).unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    match read_message::<_, Response>(&mut raw) {
        Ok(ReadOutcome::Msg(Response::Error { code, .. }, _)) => {
            assert_eq!(code, ErrorCode::BadFrame)
        }
        Ok(ReadOutcome::Msg(other, _)) => panic!("torn frame produced {other:?}"),
        Ok(ReadOutcome::Eof) | Err(_) => {}
    }
    assert_service_healthy(addr);
    handle.shutdown();
}

#[test]
fn oversized_length_field_is_refused_without_allocation() {
    let _bad_frames = bad_frames_lock();
    let (handle, addr) = serve();
    let mut raw = TcpStream::connect(addr).unwrap();
    // A length field claiming ~4 GiB; the server must refuse at the header.
    let mut evil = (u32::MAX - 7).to_le_bytes().to_vec();
    evil.extend_from_slice(&[0xAB; 4]);
    raw.write_all(&evil).unwrap();
    match read_message::<_, Response>(&mut raw) {
        Ok(ReadOutcome::Msg(Response::Error { code, message }, _)) => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(message.contains("MAX_FRAME_LEN"), "got: {message}");
        }
        Ok(ReadOutcome::Msg(other, _)) => panic!("oversized len produced {other:?}"),
        Ok(ReadOutcome::Eof) | Err(_) => {}
    }
    // Also just over the cap, not just the absurd case.
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut evil = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
    evil.extend_from_slice(&[0u8; 4]);
    raw.write_all(&evil).unwrap();
    let _ = read_message::<_, Response>(&mut raw);
    assert_service_healthy(addr);
    handle.shutdown();
}

#[test]
fn single_bit_garbled_payload_is_a_bad_frame() {
    let _bad_frames = bad_frames_lock();
    let (handle, addr) = serve();
    let frame = encode_message(&Request::Hello {
        version: PROTOCOL_VERSION,
    })
    .unwrap();
    // Flip one bit at a few positions across header and payload.
    for pos in [0usize, 4, 8, frame.len() / 2, frame.len() - 1] {
        let mut garbled = frame.clone();
        garbled[pos] ^= 0x10;
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&garbled).unwrap();
        let _ = raw.shutdown(std::net::Shutdown::Write);
        match read_message::<_, Response>(&mut raw) {
            Ok(ReadOutcome::Msg(Response::Error { code, .. }, _)) => {
                assert_eq!(code, ErrorCode::BadFrame, "bit flip at {pos}")
            }
            Ok(ReadOutcome::Msg(other, _)) => {
                panic!("bit flip at {pos} produced a response: {other:?}")
            }
            Ok(ReadOutcome::Eof) | Err(_) => {}
        }
    }
    assert_service_healthy(addr);
    handle.shutdown();
}

/// A raw `Register` frame in the version-1 form — node ids and adjacency
/// lists included, so the decoder of that version accepted it — whose
/// two-node pattern has the given edges and adjacency lists.
fn register_frame(edges: &[(u32, u32, &str)], out_adj: &str, in_adj: &str) -> Vec<u8> {
    let node = |id: u32| format!(r#"{{"id":{id},"predicate":{{"atoms":[]}},"name":null}}"#);
    let edges: Vec<String> = edges
        .iter()
        .map(|(from, to, bound)| format!(r#"{{"from":{from},"to":{to},"bound":{bound}}}"#))
        .collect();
    let json = format!(
        r#"{{"Register":{{"pattern":{{"nodes":[{},{}],"edges":[{}],"out_adj":{out_adj},"in_adj":{in_adj}}}}}}}"#,
        node(0),
        node(1),
        edges.join(",")
    );
    encode_frame(json.as_bytes()).unwrap()
}

#[test]
fn malformed_patterns_are_bad_frames_and_register_nothing() {
    let _bad_frames = bad_frames_lock();
    gpm_obs::set_enabled(true);
    let bad_frames = gpm_obs::registry().scope("net").counter("bad_frames");
    let (handle, addr) = serve();
    let (one, two) = (r#"{"Hops":1}"#, r#"{"Hops":2}"#);
    let cases = [
        (
            "unknown node",
            register_frame(&[(0, 9, one)], "[[0],[]]", "[[],[]]"),
        ),
        (
            "self-loop",
            register_frame(&[(0, 0, one)], "[[0],[]]", "[[0],[]]"),
        ),
        (
            "zero bound",
            register_frame(&[(0, 1, r#"{"Hops":0}"#)], "[[0],[]]", "[[],[0]]"),
        ),
        (
            "duplicate edge",
            register_frame(&[(0, 1, one), (0, 1, two)], "[[0,1],[]]", "[[],[0,1]]"),
        ),
        (
            // The lists name the second edge only, hiding the duplicate.
            "adjacency disagreeing with the edges",
            register_frame(&[(0, 1, one), (0, 1, two)], "[[1],[]]", "[[],[1]]"),
        ),
    ];
    for (case, frame) in cases {
        let before = bad_frames.get();
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(
            &encode_message(&Request::Hello {
                version: PROTOCOL_VERSION,
            })
            .unwrap(),
        )
        .unwrap();
        let ReadOutcome::Msg(Response::HelloAck { .. }, _) =
            read_message::<_, Response>(&mut raw).unwrap()
        else {
            panic!("{case}: expected HelloAck");
        };
        raw.write_all(&frame).unwrap();
        match read_message::<_, Response>(&mut raw) {
            Ok(ReadOutcome::Msg(Response::Error { code, .. }, _)) => {
                assert_eq!(code, ErrorCode::BadFrame, "{case}")
            }
            other => panic!("{case}: expected a BadFrame error, got {other:?}"),
        }
        assert_eq!(bad_frames.get(), before + 1, "{case}");
    }
    let mut c = NetClient::connect(addr).unwrap();
    assert_eq!(c.result(0).unwrap(), None, "a malformed pattern registered");
    assert_service_healthy(addr);
    handle.shutdown();
}

#[test]
fn handshake_violations_are_explicit() {
    let (handle, addr) = serve();

    // First message is not Hello.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&encode_message(&Request::Ping).unwrap())
        .unwrap();
    match read_message::<_, Response>(&mut raw).unwrap() {
        ReadOutcome::Msg(Response::Error { code, .. }, _) => {
            assert_eq!(code, ErrorCode::BadHandshake)
        }
        other => panic!("expected BadHandshake, got {other:?}"),
    }

    // Wrong version.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&encode_message(&Request::Hello { version: 999 }).unwrap())
        .unwrap();
    match read_message::<_, Response>(&mut raw).unwrap() {
        ReadOutcome::Msg(Response::Error { code, .. }, _) => {
            assert_eq!(code, ErrorCode::UnsupportedVersion)
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    // A second Hello after the handshake is a BadRequest, and the
    // connection stays usable afterwards.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(
        &encode_message(&Request::Hello {
            version: PROTOCOL_VERSION,
        })
        .unwrap(),
    )
    .unwrap();
    let ReadOutcome::Msg(Response::HelloAck { .. }, _) =
        read_message::<_, Response>(&mut raw).unwrap()
    else {
        panic!("expected HelloAck");
    };
    raw.write_all(
        &encode_message(&Request::Hello {
            version: PROTOCOL_VERSION,
        })
        .unwrap(),
    )
    .unwrap();
    let ReadOutcome::Msg(Response::Error { code, .. }, _) =
        read_message::<_, Response>(&mut raw).unwrap()
    else {
        panic!("expected Error");
    };
    assert_eq!(code, ErrorCode::BadRequest);
    raw.write_all(&encode_message(&Request::Ping).unwrap())
        .unwrap();
    let ReadOutcome::Msg(Response::Pong, _) = read_message::<_, Response>(&mut raw).unwrap() else {
        panic!("expected Pong after the survivable error");
    };

    assert_service_healthy(addr);
    handle.shutdown();
}

#[test]
fn subscribing_to_an_unknown_query_keeps_the_connection_usable() {
    let (handle, addr) = serve();
    let client = NetClient::connect(addr).unwrap();
    match client.subscribe(999_999_999) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownQuery),
        other => panic!("expected UnknownQuery, got {other:?}"),
    }
    assert_service_healthy(addr);
    handle.shutdown();
}

#[test]
fn mid_catchup_disconnect_does_not_poison_the_service() {
    let (handle, addr) = serve();
    let mut admin = NetClient::connect(addr).unwrap();
    let q = admin.register(&dag_pattern(["a0", "a1"])).unwrap();

    // Several subscribers connect, receive Subscribed (catch-up snapshot
    // queued server-side) and hang up immediately without reading it.
    for _ in 0..4 {
        let sub = NetClient::connect(addr).unwrap().subscribe(q).unwrap();
        drop(sub); // closes the socket with the snapshot still in flight
    }

    // The service keeps applying batches and serving live subscribers; the
    // dead subscribers' writer threads fail on their sockets and the
    // service's emission forgets their sinks.
    let g = random_graph(&RandomGraphConfig::new(60, 200, 4).with_seed(7));
    let mut live = NetClient::connect(addr).unwrap().subscribe(q).unwrap();
    let snapshot = live.next().unwrap().expect("snapshot");
    let mut folded = snapshot.clone();
    // One more peer reads its snapshot, follows the first round and then
    // hangs up mid-stream: it is forgotten on a later emission the same way.
    let mut quitter = Some(NetClient::connect(addr).unwrap().subscribe(q).unwrap());
    quitter.as_mut().unwrap().next().unwrap().expect("snapshot");
    for round in 0..6u64 {
        let updates = random_updates(&g, &UpdateStreamConfig::mixed(12).with_seed(round + 40));
        let out = admin.apply(&updates).unwrap();
        for d in out.deltas.iter().filter(|d| d.query.value() == q) {
            let wire = live.next().unwrap().expect("live delta");
            assert_eq!(&wire, d, "live subscriber diverged after dead peers");
            if let Some(quitter) = quitter.as_mut() {
                assert_eq!(quitter.next().unwrap().as_ref(), Some(d));
            }
            folded = wire;
        }
        quitter = None;
    }
    let _ = folded;
    assert_service_healthy(addr);
    handle.shutdown();
}
