//! A durability error over the wire: the server runs every mutation through
//! `MatchService::execute`, so an error the service meets answers the
//! request with `Internal` instead of ending the connection, and the
//! stopped service refuses every later mutation without touching its log,
//! even once the fault is gone, while reads keep answering.

use gpm_datagen::{random_graph, random_updates, RandomGraphConfig, UpdateStreamConfig};
use gpm_distance::OracleBackend;
use gpm_exec::Parallelism;
use gpm_graph::{PatternGraphBuilder, Predicate};
use gpm_net::{ErrorCode, NetClient, NetError, NetServer, ServerOptions};
use gpm_service::snapshot::{MANIFEST_TMP_FILE, SNAPSHOT_DIR};
use gpm_service::wal::WAL_FILE;
use gpm_service::{DurableOptions, MatchService};
use std::fs;

fn assert_internal<T: std::fmt::Debug>(reply: Result<T, NetError>, what: &str) {
    match reply {
        Err(NetError::Remote {
            code: ErrorCode::Internal,
            ..
        }) => {}
        other => panic!("{what}: expected an Internal error, got {other:?}"),
    }
}

#[test]
fn a_durability_error_answers_internal_and_the_connection_stays_open() {
    let (pattern, _) = PatternGraphBuilder::new()
        .node("x", Predicate::label("a0"))
        .node("y", Predicate::label("a1"))
        .edge("x", "y", 2u32)
        .build()
        .unwrap();
    let graph = random_graph(&RandomGraphConfig::new(50, 150, 4).with_seed(5));
    for backend in OracleBackend::ALL {
        for threads in [1, 4] {
            let dir = std::env::temp_dir().join(format!(
                "gpm-net-failstop-{}-{threads}-{}",
                backend.name(),
                std::process::id()
            ));
            let _ = fs::remove_dir_all(&dir);
            // Every op after the first finds a snapshot due, and a directory
            // where the snapshot's temporary file goes makes it fail.
            let svc = MatchService::create_durable_with(
                &dir,
                graph.clone(),
                backend,
                Parallelism::new(threads),
                DurableOptions {
                    snapshot_every: Some(1),
                },
            )
            .unwrap();
            let obstacle = dir.join(SNAPSHOT_DIR).join(MANIFEST_TMP_FILE);
            fs::create_dir(&obstacle).unwrap();
            let server = NetServer::bind("127.0.0.1:0", svc, ServerOptions::default()).unwrap();
            let addr = server.local_addr().unwrap();
            let handle = server.spawn().unwrap();

            let mut c = NetClient::connect(addr).unwrap();
            let q = c.register(&pattern).unwrap();
            let before = c.result(q).unwrap();
            assert!(before.is_some());
            let wal = dir.join(WAL_FILE);
            let logged = fs::metadata(&wal).unwrap().len();
            let updates = random_updates(&graph, &UpdateStreamConfig::mixed(8).with_seed(3));

            assert_internal(c.apply(&updates), "the op that met the error");
            // The stopped service stays stopped once the fault is gone.
            fs::remove_dir(&obstacle).unwrap();
            c.ping().expect("the connection stays open");
            assert_eq!(c.result(q).unwrap(), before, "reads keep answering");
            assert_internal(c.apply(&updates), "a batch on a stopped service");
            assert_internal(c.suspend(q), "a suspend on a stopped service");
            let mut other = NetClient::connect(addr).unwrap();
            assert_internal(other.register(&pattern), "a register on a stopped service");
            assert_eq!(other.result(q).unwrap(), before);
            assert_eq!(
                fs::metadata(&wal).unwrap().len(),
                logged,
                "a stopped service grew its log ({backend:?}, {threads} threads)"
            );
            drop((c, other));
            handle.shutdown();
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}
