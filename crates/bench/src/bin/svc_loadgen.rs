//! `svc_loadgen` — replayable network load driver for the `gpm-net` front
//! end: one `MatchService` served on loopback, K registered queries × M
//! wire subscribers per query, driven by a deterministic timestamped update
//! stream at a target rate.
//!
//! Per (K, M) cell the driver binds a fresh server, registers K patterns
//! over an admin connection, connects K×M subscriber connections, then
//! paces [`gpm::timed_update_stream`] batches to their scheduled instants.
//! Every subscriber thread stamps each received delta against the driver's
//! send instant for that epoch, so the reported p50/p99/p999 is true
//! **end-to-end delta latency**: apply request → framed delta decoded on
//! the subscriber's socket. The table reports the achieved sustained rate
//! next to the target — when the service cannot keep up, the driver falls
//! behind its schedule and the gap is visible, never hidden.
//!
//! With `--obs` the latencies also feed the `loadgen` obs scope (log-bucket
//! histogram + per-cell events); `--obs-out <path>` streams JSONL and the
//! run self-checks that every line parses.

use gpm::net::{NetClient, NetServer, ServerOptions};
use gpm::{timed_update_stream, MatchService, PatternGraph, TimedStreamConfig};
use gpm_bench::{
    dag_pattern, fmt_ms, load_source_or_exit, percentile_exact, time, LoadgenArgs, Table,
};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

struct CellOutcome {
    achieved_rate: f64,
    deltas_received: usize,
    latencies: Vec<Duration>,
}

/// Runs one (K queries, M subscribers per query) cell against a fresh
/// server and returns the end-to-end latency sample.
fn run_cell(graph: &gpm::DataGraph, k: usize, m: usize, args: &LoadgenArgs) -> CellOutcome {
    let svc = MatchService::with_backend(
        graph.clone(),
        args.harness.oracle,
        args.harness.parallelism(),
    );
    let server = NetServer::bind("127.0.0.1:0", svc, ServerOptions::default())
        .expect("bind loopback listener");
    let addr = server.local_addr().expect("local addr");
    let handle = server.spawn().expect("spawn accept loop");

    let mut admin = NetClient::connect(addr).expect("admin connect");
    let patterns: Vec<PatternGraph> = (0..k)
        .map(|i| dag_pattern(graph, 4, 4, 3, args.harness.seed + i as u64 * 131))
        .collect();
    let queries: Vec<u64> = patterns
        .iter()
        .map(|p| admin.register(p).expect("register"))
        .collect();
    // Epoch base after registration: batch i will carry epoch e0 + i + 1.
    let e0 = NetClient::connect(addr)
        .expect("probe connect")
        .epoch_at_connect();

    let stream = timed_update_stream(
        graph,
        &TimedStreamConfig::mixed(args.batches, args.batch_size, args.rate)
            .with_seed(args.harness.seed + 77),
    );

    // Send instants, indexed by batch: slot i is filled immediately before
    // batch i's apply request leaves, so a subscriber can never observe a
    // delta whose slot is still empty.
    let send_at: Arc<Vec<Mutex<Option<Instant>>>> =
        Arc::new((0..args.batches).map(|_| Mutex::new(None)).collect());
    // Subscribers subscribe first (snapshot streams included), then everyone
    // releases the barrier together and the driver starts the clock.
    let barrier = Arc::new(Barrier::new(k * m + 1));

    let mut workers = Vec::with_capacity(k * m);
    for &q in &queries {
        for _ in 0..m {
            let barrier = Arc::clone(&barrier);
            let send_at = Arc::clone(&send_at);
            workers.push(std::thread::spawn(move || {
                subscriber_loop(addr, q, e0, &barrier, &send_at)
            }));
        }
    }

    barrier.wait();
    let start = Instant::now();
    for (i, batch) in stream.iter().enumerate() {
        let due = Duration::from_nanos(batch.at_ns);
        while start.elapsed() < due {
            std::thread::sleep(due - start.elapsed());
        }
        *send_at[i].lock() = Some(Instant::now());
        admin.apply(&batch.updates).expect("apply batch");
    }
    let elapsed = start.elapsed();

    // Deregistering every query ends each stream with an explicit
    // QueryClosed marker; the subscriber threads drain and exit.
    for &q in &queries {
        admin.deregister(q).expect("deregister");
    }
    let mut latencies = Vec::new();
    let mut deltas_received = 0usize;
    for w in workers {
        let worker_lat = w.join().expect("subscriber thread");
        deltas_received += worker_lat.len();
        latencies.extend(worker_lat);
    }
    handle.shutdown();

    let total_updates = args.batches * args.batch_size;
    CellOutcome {
        achieved_rate: total_updates as f64 / elapsed.as_secs_f64(),
        deltas_received,
        latencies,
    }
}

/// One wire subscriber: subscribe, release the start barrier, then stamp
/// every post-start delta against the driver's send instant for its epoch.
fn subscriber_loop(
    addr: SocketAddr,
    query: u64,
    e0: u64,
    barrier: &Barrier,
    send_at: &[Mutex<Option<Instant>>],
) -> Vec<Duration> {
    let hist = gpm::obs::registry()
        .scope("loadgen")
        .histogram("e2e_delta_ns");
    let mut sub = NetClient::connect(addr)
        .expect("subscriber connect")
        .subscribe(query)
        .expect("subscribe");
    barrier.wait();
    let mut latencies = Vec::new();
    loop {
        match sub.next() {
            Ok(Some(delta)) => {
                if delta.epoch <= e0 {
                    continue; // the subscribe-time snapshot
                }
                let idx = (delta.epoch - e0 - 1) as usize;
                let sent = send_at
                    .get(idx)
                    .and_then(|slot| *slot.lock())
                    .expect("delta for a batch the driver sent");
                let e2e = sent.elapsed();
                hist.record_duration(e2e);
                latencies.push(e2e);
            }
            Ok(None) => break, // explicit end-of-stream (QueryClosed)
            Err(e) => {
                eprintln!("subscriber for q{query}: stream error: {e}");
                break;
            }
        }
    }
    latencies
}

fn main() {
    let args = LoadgenArgs::from_env();
    let source = args.harness.update_source_or_exit();
    let graph = load_source_or_exit(&source, &args.harness);

    println!(
        "{}: |V| = {}, |E| = {}, {} batches x {} updates at {:.0} updates/s, {} threads, {} oracle\n",
        source.name(),
        graph.node_count(),
        graph.edge_count(),
        args.batches,
        args.batch_size,
        args.rate,
        args.harness.parallelism().threads(),
        args.harness.oracle.name(),
    );

    let mut table = Table::new(
        "svc_loadgen: sustained rate and end-to-end delta latency over the wire",
        &[
            "K queries",
            "M subs/query",
            "target up/s",
            "achieved up/s",
            "deltas",
            "p50 (ms)",
            "p99 (ms)",
            "p999 (ms)",
        ],
    );

    for &k in &args.queries {
        for &m in &args.subscribers {
            let (cell, wall) = time(|| run_cell(&graph, k, m, &args));
            gpm::obs::emit_event(
                "loadgen",
                "cell",
                &[
                    ("k", k as u64),
                    ("m", m as u64),
                    ("deltas", cell.deltas_received as u64),
                    ("achieved_ups", cell.achieved_rate as u64),
                    ("wall_ms", wall.as_millis() as u64),
                ],
                &[("oracle", args.harness.oracle.name())],
            );
            table.row(vec![
                k.to_string(),
                m.to_string(),
                format!("{:.0}", args.rate),
                format!("{:.0}", cell.achieved_rate),
                cell.deltas_received.to_string(),
                fmt_ms(percentile_exact(&cell.latencies, 0.50)),
                fmt_ms(percentile_exact(&cell.latencies, 0.99)),
                fmt_ms(percentile_exact(&cell.latencies, 0.999)),
            ]);
        }
    }
    table.print();
    println!(
        "\nLatency is end-to-end: apply request sent -> CRC-framed delta decoded on the\n\
         subscriber's socket. `achieved up/s` below target means the service could not\n\
         keep the batch schedule; the driver never drops or reorders batches to hide it."
    );

    args.harness.finish_obs();
}
