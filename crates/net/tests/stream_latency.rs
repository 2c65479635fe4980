//! Delta latency on a live subscription: a delta reaches the subscriber as
//! soon as it is written, not when the previous frame is acknowledged.
//!
//! A subscription opens with two back-to-back writes (the `Subscribed`
//! reply, then the snapshot) to a peer that has just sent a request, and
//! such a peer delays its ACK. With Nagle's algorithm on, the snapshot and
//! every delta behind it wait for that delayed ACK — up to ~40 ms on Linux
//! loopback — instead of the tens of microseconds a write costs.

use gpm_distance::EdgeUpdate;
use gpm_graph::{Attributes, DataGraph, PatternGraphBuilder};
use gpm_net::{NetClient, NetServer, ServerOptions};
use gpm_service::MatchService;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

const BATCHES: u64 = 60;

#[test]
fn deltas_reach_the_subscriber_without_waiting_for_acks() {
    // boss → clerk toggles a two-pair match on and off: every batch emits
    // one small delta.
    let mut g = DataGraph::new();
    let boss = g.add_node(Attributes::labeled("boss"));
    let clerk = g.add_node(Attributes::labeled("clerk"));
    let (p, _) = PatternGraphBuilder::new()
        .labeled_node("boss")
        .labeled_node("clerk")
        .edge("boss", "clerk", 1u32)
        .build()
        .unwrap();
    let server = NetServer::bind(
        "127.0.0.1:0",
        MatchService::new(g),
        ServerOptions::default(),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();

    let mut admin = NetClient::connect(addr).unwrap();
    let q = admin.register(&p).unwrap();
    let mut sub = NetClient::connect(addr).unwrap().subscribe(q).unwrap();
    let (seen_tx, seen_rx) = mpsc::channel();
    let reader = thread::spawn(move || {
        while let Some(delta) = sub.next().unwrap() {
            seen_tx.send((delta.epoch, Instant::now())).unwrap();
        }
    });
    // The batches start without waiting for the snapshot, one per
    // millisecond, so the stream spans longer than a delayed ACK.
    let mut sent = Vec::with_capacity(BATCHES as usize);
    for epoch in 1..=BATCHES {
        thread::sleep(Duration::from_millis(1));
        let update = if epoch % 2 == 1 {
            EdgeUpdate::Insert(boss, clerk)
        } else {
            EdgeUpdate::Delete(boss, clerk)
        };
        sent.push(Instant::now());
        let out = admin.apply(&[update]).unwrap();
        assert_eq!((out.epoch, out.deltas.len()), (epoch, 1));
    }
    assert_eq!(seen_rx.recv().unwrap().0, 0, "the snapshot comes first");
    let mut latencies: Vec<Duration> = (1..=BATCHES)
        .map(|epoch| {
            let (seen_epoch, at) = seen_rx.recv().unwrap();
            assert_eq!(seen_epoch, epoch, "one delta per batch, in order");
            at - sent[epoch as usize - 1]
        })
        .collect();
    assert!(admin.deregister(q).unwrap());
    reader.join().unwrap();
    handle.shutdown();

    latencies.sort();
    let p90 = latencies[latencies.len() * 9 / 10];
    assert!(
        p90 < Duration::from_millis(10),
        "send → decode p90 {p90:?} (p50 {:?}): deltas are waiting for ACKs",
        latencies[latencies.len() / 2]
    );
}
