//! Backpressure on the wire: what a subscriber that does not keep up sees
//! under each [`BackpressurePolicy`], with the smallest queue the server
//! accepts (`subscriber_queue: 1`).
//!
//! Both tests toggle one edge that flips a ~2 000-pair match between `∅`
//! and full, so every batch emits one large delta and a peer that stops
//! reading fills its socket buffers within a few hundred batches.

use gpm_distance::EdgeUpdate;
use gpm_graph::{Attributes, DataGraph, NodeId, PatternGraph, PatternGraphBuilder};
use gpm_net::{
    AppliedBatch, BackpressurePolicy, EndReason, NetClient, NetServer, ServerHandle, ServerOptions,
};
use gpm_service::{fold_deltas, MatchDelta, MatchService};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

const WORKERS: u32 = 2_000;

/// `boss → worker_i` for every worker, plus a lone `clerk`: the pattern
/// below matches (boss, every worker, the clerk) iff `boss → clerk` exists.
fn star_graph() -> DataGraph {
    let mut g = DataGraph::new();
    let boss = g.add_node(Attributes::labeled("boss"));
    g.add_node(Attributes::labeled("clerk"));
    for _ in 0..WORKERS {
        let w = g.add_node(Attributes::labeled("worker"));
        g.add_edge(boss, w).unwrap();
    }
    g
}

fn pattern() -> PatternGraph {
    let (p, _) = PatternGraphBuilder::new()
        .labeled_node("boss")
        .labeled_node("worker")
        .labeled_node("clerk")
        .edge("boss", "worker", 1u32)
        .edge("boss", "clerk", 1u32)
        .build()
        .unwrap();
    p
}

/// The batch of epoch `epoch` (1-based): insert `boss → clerk` on odd
/// epochs, delete it on even ones — every batch changes the watched query.
fn toggle(epoch: u64) -> [EdgeUpdate; 1] {
    let (boss, clerk) = (NodeId::new(0), NodeId::new(1));
    if epoch % 2 == 1 {
        [EdgeUpdate::Insert(boss, clerk)]
    } else {
        [EdgeUpdate::Delete(boss, clerk)]
    }
}

fn serve(backpressure: BackpressurePolicy) -> (ServerHandle, SocketAddr) {
    let opts = ServerOptions {
        subscriber_queue: 1,
        backpressure,
    };
    let server = NetServer::bind("127.0.0.1:0", MatchService::new(star_graph()), opts).unwrap();
    let addr = server.local_addr().unwrap();
    (server.spawn().unwrap(), addr)
}

/// Applies the batch of `epoch` and returns the one delta it must emit.
fn apply_toggle(admin: &mut NetClient, epoch: u64) -> MatchDelta {
    let AppliedBatch {
        epoch: assigned,
        mut deltas,
        ..
    } = admin
        .apply(&toggle(epoch))
        .expect("the admin is never refused");
    assert_eq!(assigned, epoch);
    assert_eq!(deltas.len(), 1, "every toggle flips the query");
    assert_eq!(deltas[0].len(), WORKERS as usize + 2);
    deltas.pop().unwrap()
}

/// `Disconnect`: a subscriber that never reads is cut with an explicit
/// `End { Backpressure }` after a gap-free prefix of the stream, the admin
/// is never blocked, and a subscriber that keeps reading is untouched.
#[test]
fn disconnect_policy_cuts_a_stalled_subscriber_without_a_gap() {
    // Far more than any loopback socket buffers: 4 000 × ~16 KiB.
    const MAX_BATCHES: u64 = 4_000;
    gpm_obs::set_enabled(true);
    let kicked = gpm_obs::registry()
        .scope("net")
        .counter("kicked_subscribers");
    let kicked_before = kicked.get();

    let (handle, addr) = serve(BackpressurePolicy::Disconnect);
    let mut admin = NetClient::connect(addr).unwrap();
    let q = admin.register(&pattern()).unwrap();
    let mut stalled = NetClient::connect(addr).unwrap().subscribe(q).unwrap();
    let mut reading = NetClient::connect(addr).unwrap().subscribe(q).unwrap();
    let (seen_tx, seen_rx) = mpsc::channel();
    let reader = thread::spawn(move || {
        while let Some(delta) = reading.next().unwrap() {
            seen_tx.send(delta).unwrap();
        }
        reading.end_reason()
    });
    let mut read_stream = vec![seen_rx.recv().unwrap()]; // the snapshot

    // Apply until the stalled peer is kicked. Waiting for the reading peer
    // to receive delta k before batch k + 1 guarantees its writer thread
    // has emptied its one-slot queue, so only the stalled peer can fill up.
    let mut emitted: Vec<MatchDelta> = Vec::new();
    let mut cut_at = None;
    for epoch in 1..=MAX_BATCHES {
        emitted.push(apply_toggle(&mut admin, epoch));
        read_stream.push(seen_rx.recv().unwrap());
        if kicked.get() > kicked_before {
            cut_at = Some(epoch);
            break;
        }
    }
    let cut_at = cut_at.expect("a peer that never reads must fill its queue eventually");
    // The cut is final: later batches do not reach the kicked peer.
    for epoch in cut_at + 1..=cut_at + 2 {
        emitted.push(apply_toggle(&mut admin, epoch));
        read_stream.push(seen_rx.recv().unwrap());
    }
    assert_eq!(kicked.get() - kicked_before, 1, "exactly one kick");

    // The stalled peer: snapshot, deltas 1..cut_at in emission order, End.
    let snapshot = stalled.next().unwrap().expect("snapshot first");
    assert!(snapshot.is_empty() && snapshot.epoch == 0);
    let prefix = stalled.collect_to_end().unwrap();
    assert_eq!(stalled.end_reason(), Some(EndReason::Backpressure));
    assert_eq!(prefix.len() as u64, cut_at - 1, "cut at the full queue");
    assert_eq!(prefix[..], emitted[..prefix.len()], "no gap before the cut");

    // The reading peer saw everything and folds to the live result.
    let live = admin.result(q).unwrap().expect("registered");
    assert!(admin.deregister(q).unwrap());
    assert_eq!(reader.join().unwrap(), Some(EndReason::QueryClosed));
    assert_eq!(read_stream[1..], emitted[..]);
    assert_eq!(fold_deltas(3, read_stream.iter()), live);
    handle.shutdown();
}

/// `Block`: a slow reader slows the service down but loses nothing.
#[test]
fn block_policy_drops_nothing_for_a_slow_reader() {
    const BATCHES: u64 = 120;
    let (handle, addr) = serve(BackpressurePolicy::Block);
    let mut admin = NetClient::connect(addr).unwrap();
    let q = admin.register(&pattern()).unwrap();
    let mut slow = NetClient::connect(addr).unwrap().subscribe(q).unwrap();
    let reader = thread::spawn(move || {
        let mut stream = Vec::new();
        while let Some(delta) = slow.next().unwrap() {
            stream.push(delta);
            thread::sleep(Duration::from_millis(2));
        }
        (stream, slow.end_reason())
    });

    let emitted: Vec<MatchDelta> = (1..=BATCHES)
        .map(|epoch| apply_toggle(&mut admin, epoch))
        .collect();
    let live = admin.result(q).unwrap().expect("registered");
    assert!(admin.deregister(q).unwrap());

    let (stream, end) = reader.join().unwrap();
    assert_eq!(end, Some(EndReason::QueryClosed));
    assert_eq!(stream[1..], emitted[..], "snapshot, then every delta");
    assert_eq!(fold_deltas(3, stream.iter()), live);
    handle.shutdown();
}
