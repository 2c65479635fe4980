//! Wire/in-process differential: a delta stream observed over the `gpm-net`
//! socket must be **bit-identical** to the stream an in-process
//! `Subscription` yields for the same service history — same snapshot, same
//! deltas, same order — on both oracle backends, including a subscriber
//! that joins mid-stream.
//!
//! The two runs share nothing but a script of the service simulator
//! (`support::sim`): one drives a `MatchService` embedded in the test, the
//! other drives an identical service through a loopback server with real
//! sockets, CRC frames and JSON payloads in between.

use gpm::net::{NetClient, NetServer, ServerOptions};
use gpm::{fold_deltas, MatchService, OracleBackend};

mod support;
use support::forced;
use support::sim::*;

/// Three seeds on both back-ends, the server at 1, 2 and 8 workers.
#[test]
fn wire_streams_are_bit_identical_to_inprocess_streams() {
    for seed in [0, 1, 2] {
        let script = Script::generate(seed, 40, 20);
        for backend in OracleBackend::ALL {
            let inprocess = run_inprocess(&script, backend, forced(1), false);
            assert!(
                inprocess.streams.iter().any(|s| s.len() > 1),
                "workload too quiet to be a differential (seed {seed}, {backend:?})"
            );
            assert!(
                (inprocess.streams.iter()).all(|s| !s.is_empty() && s[0].removed.is_empty()),
                "every stream, the mid-stream joiner's too, starts with its snapshot"
            );
            for threads in THREAD_COUNTS {
                let (outcomes, streams) = run_wire(&script, backend, threads, &inprocess.results);
                let what = format!("seed {seed}, {backend:?}, {threads} threads");
                assert_eq!(outcomes, inprocess.outcomes, "batch replies, {what}");
                assert_eq!(streams, inprocess.streams, "wire streams diverged, {what}");
            }
        }
    }
}

/// A subscriber that joins after the whole script is sent one snapshot,
/// which folds to the live result over the wire and in process alike.
#[test]
fn wire_snapshot_folds_to_the_live_result() {
    let script = Script::generate(11, 40, 12);
    let inprocess = run_inprocess(&script, OracleBackend::Matrix, forced(1), false);
    let svc = MatchService::with_backend(script.graph.clone(), OracleBackend::Matrix, forced(2));
    let server = NetServer::bind("127.0.0.1:0", svc, ServerOptions::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();

    let mut admin = NetClient::connect(addr).unwrap();
    for op in script.ops() {
        wire_exec(&mut admin, &op);
    }
    for (id, result) in &inprocess.results {
        let live = admin.result(id.value()).unwrap().expect("registered query");
        assert_eq!(Some(&live), result.as_ref(), "{id} over the wire");
        let mut sub = NetClient::connect(addr)
            .unwrap()
            .subscribe(id.value())
            .unwrap();
        let snapshot = sub.next().unwrap().expect("snapshot-first");
        let folded = fold_deltas(live.pattern_node_count(), [&snapshot]);
        assert_eq!(
            folded, live,
            "{id}: snapshot did not reproduce the live result"
        );
    }
    handle.shutdown();
}
