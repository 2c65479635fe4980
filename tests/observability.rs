//! Observability contract suite for `gpm::obs`:
//!
//! 1. **Overhead gate** — the same scripted service session produces
//!    byte-identical outcomes, delta streams, final results and stats with
//!    observability off and on. Metrics are a read-only tap: flipping
//!    `GPM_OBS` must never change what the engine computes.
//! 2. **Determinism** — the deterministic counters (everything
//!    `Registry::snapshot().det_counters()` reports: match, oracle,
//!    incremental and service scopes) are bit-identical at 1, 2 and 8
//!    worker threads. Timing histograms and the `exec` scope are
//!    scheduling-dependent by nature and excluded by construction.
//! 3. **JSONL sink** — every exported line parses as a JSON object and the
//!    registry snapshot round-trips through the vendored `serde_json`.
//!
//! The `gpm-obs` registry and enable-flag are process-global, so the tests
//! serialise on one mutex and leave observability disabled on exit.

use gpm::OracleBackend;
use gpm::{
    generate_pattern, random_updates, BatchOutcome, DataGraph, MatchDelta, MatchService,
    PatternGenConfig, ServiceStats, UpdateStreamConfig,
};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

mod support;
use support::{forced, labelled_graph};

/// Serialises every test in this binary: the registry and the enabled flag
/// are process-global state.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The scripted session every test replays: register K queries, subscribe,
/// suspend/resume one mid-stream (covering the activation `resume` counts),
/// apply a mixed update stream, and return everything observable.
fn run_session(
    threads: usize,
    seed: u64,
) -> (
    Vec<BatchOutcome>,
    Vec<Vec<MatchDelta>>,
    Vec<gpm::MatchRelation>,
    ServiceStats,
) {
    let queries = 4usize;
    let batches = 5u64;
    let g = labelled_graph(45, 130, 4, seed);
    let mut svc = MatchService::with_parallelism(g, forced(threads));
    let ids: Vec<_> = (0..queries as u64)
        .map(|i| {
            let (p, _) = generate_pattern(
                svc.graph(),
                &PatternGenConfig::new(3, 3, 3).with_seed(seed * 13 + i),
            );
            svc.register(p)
        })
        .collect();
    let subs: Vec<_> = ids.iter().map(|&id| svc.subscribe(id).unwrap()).collect();

    let parked = ids[1];
    let mut outcomes = Vec::new();
    for round in 0..batches {
        if round == 1 {
            svc.suspend(parked);
        }
        if round == batches - 1 {
            svc.resume(parked);
        }
        let updates = random_updates(
            svc.graph(),
            &UpdateStreamConfig::mixed(12).with_seed(seed * 97 + round),
        );
        outcomes.push(svc.apply(&updates));
    }

    let streams: Vec<Vec<MatchDelta>> = subs.iter().map(|s| s.drain()).collect();
    let finals: Vec<gpm::MatchRelation> = ids.iter().map(|&id| svc.result(id).unwrap()).collect();
    (outcomes, streams, finals, svc.stats().clone())
}

/// Flipping observability on must not change a single byte of what the
/// service computes — same outcomes, same delta streams, same final
/// relations, same work counters.
#[test]
fn results_identical_with_obs_off_and_on() {
    let _guard = obs_lock();
    gpm::obs::set_enabled(false);
    let off = run_session(2, 4242);

    gpm::obs::set_enabled(true);
    gpm::obs::registry().reset();
    let on = run_session(2, 4242);
    gpm::obs::set_enabled(false);

    assert_eq!(off.0, on.0, "batch outcomes changed under observation");
    assert_eq!(off.1, on.1, "delta streams changed under observation");
    assert_eq!(off.2, on.2, "final results changed under observation");
    assert_eq!(off.3, on.3, "service stats changed under observation");
}

/// The deterministic counters are part of the determinism contract: the
/// same session at 1, 2 and 8 threads produces bit-identical values for
/// every counter `det_counters()` reports.
#[test]
fn det_counters_identical_across_thread_counts() {
    let _guard = obs_lock();
    let run = |threads: usize| -> BTreeMap<String, u64> {
        gpm::obs::set_enabled(true);
        gpm::obs::registry().reset();
        run_session(threads, 777);
        let counters = gpm::obs::registry().snapshot().det_counters();
        gpm::obs::set_enabled(false);
        counters
    };
    let baseline = run(1);
    assert!(
        baseline.keys().any(|k| k.starts_with("match.")),
        "session should populate the match scope"
    );
    assert!(
        baseline.keys().any(|k| k.starts_with("service.")),
        "session should populate the service scope"
    );
    // The session's back-end comes from `GPM_ORACLE`; each back-end must
    // report its own maintenance work among the compared counters: the
    // matrix its affected-cone sweep and deletion row repairs, the 2-hop
    // its deletion rectangles.
    let own_work: &[&str] = match OracleBackend::from_env() {
        OracleBackend::Matrix => &[
            "matrix.sweep_rows",
            "matrix.pairs_examined",
            "matrix.repair_candidates",
            "matrix.repair_searched",
        ],
        OracleBackend::TwoHop => &[
            "twohop.delete_traversals",
            "twohop.delete_rect_pairs",
            "twohop.delete_candidates",
            "twohop.entries_rewritten",
        ],
    };
    for work in own_work {
        assert!(
            baseline
                .get(&format!("oracle.{work}"))
                .is_some_and(|&v| v > 0),
            "the back-end's `{work}` tally should be non-zero among the compared counters"
        );
    }
    for threads in [2usize, 8] {
        let counters = run(threads);
        assert_eq!(
            baseline, counters,
            "deterministic counters diverged at {threads} threads"
        );
    }
}

/// The `resume` that rebuilds a suspended query is an activation and an
/// emission like any other: `register → subscribe → suspend → apply → resume
/// → result` hands the subscriber one catch-up delta, and `ServiceStats` and
/// the `service` scope both say so — on both back-ends, and bit-identically
/// at 1, 2 and 8 threads.
#[test]
fn resume_activation_is_counted_where_it_is_emitted() {
    use gpm::{DataGraphBuilder, EdgeUpdate, PatternGraphBuilder};
    let _guard = obs_lock();
    let (g, ids) = DataGraphBuilder::new()
        .labeled_node("boss")
        .labeled_node("mid")
        .labeled_node("worker")
        .edge("boss", "mid")
        .build()
        .unwrap();
    let (p, _) = PatternGraphBuilder::new()
        .labeled_node("boss")
        .labeled_node("worker")
        .edge("boss", "worker", 2u32)
        .build()
        .unwrap();
    for backend in OracleBackend::ALL {
        let mut baseline: Option<BTreeMap<String, u64>> = None;
        for threads in [1usize, 2, 8] {
            gpm::obs::set_enabled(true);
            gpm::obs::registry().reset();
            let mut svc = MatchService::with_backend(g.clone(), backend, forced(threads));
            let q = svc.register(p.clone());
            let sub = svc.subscribe(q).unwrap();
            svc.suspend(q);
            svc.apply(&[EdgeUpdate::Insert(ids["mid"], ids["worker"])]);
            svc.resume(q);
            let live = svc.result(q).expect("resumed query answers");
            let counters = gpm::obs::registry().snapshot().det_counters();
            gpm::obs::set_enabled(false);

            let stream = sub.drain();
            assert_eq!(stream.len(), 2, "snapshot, then the catch-up delta");
            assert_eq!(stream[1].len(), 2, "(boss, boss) and (worker, worker)");
            assert_eq!(gpm::fold_deltas(2, stream.iter()), live);
            let stats = svc.stats();
            assert_eq!((stats.activations, stats.deltas_emitted), (1, 1));
            let count = |name: &str| counters.get(name).copied().unwrap_or(0);
            assert_eq!(count("service.activations"), stats.activations as u64);
            assert_eq!(count("service.deltas_emitted"), stats.deltas_emitted as u64);
            assert_eq!(count("service.delta_pairs"), stream[1].len() as u64);
            assert_eq!(count(&format!("service.q{}.deltas", q.value())), 1);
            let baseline = baseline.get_or_insert_with(|| counters.clone());
            assert_eq!(*baseline, counters, "{backend:?} at {threads} threads");
        }
    }
}

/// The two maintainable back-ends count the same things under the same
/// names: *effective* units (no-ops of a raw batch excluded) in
/// `oracle.<backend>.inserts` / `deletes`, the sizes of the *unit* `AFF1`s in
/// `aff1_pairs` / `aff1_size`, and one `apply_ns` span per non-empty batch —
/// not the raw updates, and not the net batch `AFF1`.
#[test]
fn oracle_backends_count_effective_units_and_unit_aff1s_alike() {
    use gpm::{DistanceMatrix, DistanceOracle, EdgeUpdate, Executor, IncrementalTwoHop, NodeId};
    let _guard = obs_lock();
    let n = NodeId::new;
    let pre = DataGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
    let exec = Executor::sequential();
    // What a batch adds to the registry, applied to both back-ends.
    let record = |raw: &[EdgeUpdate]| {
        let mut post = pre.clone();
        for u in raw {
            u.apply(&mut post);
        }
        gpm::obs::set_enabled(true);
        gpm::obs::registry().reset();
        let net = DistanceMatrix::build(&pre).apply_batch(&post, raw, &exec);
        assert_eq!(
            net,
            IncrementalTwoHop::build(&pre).apply_batch(&post, raw, &exec)
        );
        let snapshot = gpm::obs::registry().snapshot();
        gpm::obs::set_enabled(false);
        let oracle = snapshot.scopes.get("oracle").cloned().unwrap_or_default();
        let of = |backend: &str| -> Vec<u64> {
            let counter = |name: &str| {
                let c = oracle.counters.get(&format!("{backend}.{name}"));
                c.map_or(0, |c| c.value)
            };
            let spans = |name: &str| {
                let h = oracle.histograms.get(&format!("{backend}.{name}"));
                h.map_or(0, |h| h.count)
            };
            let counters = ["inserts", "deletes", "aff1_pairs"].map(counter);
            let histograms = ["aff1_size", "apply_ns"].map(spans);
            counters.into_iter().chain(histograms).collect()
        };
        (net.len(), of("matrix"), of("twohop"))
    };

    // A duplicate insert, a missing delete, and {0, 1} × {2, 3} cut off by
    // one unit and restored by the next: six raw updates, three effective
    // units with |AFF1| = 4, 4 and 1, a net AFF1 of that last pair alone.
    let raw = [
        EdgeUpdate::Insert(n(0), n(1)),
        EdgeUpdate::Delete(n(3), n(0)),
        EdgeUpdate::Delete(n(1), n(2)),
        EdgeUpdate::Insert(n(1), n(2)),
        EdgeUpdate::Insert(n(0), n(3)),
        EdgeUpdate::Insert(n(0), n(3)),
    ];
    let (net, matrix, twohop) = record(&raw);
    assert_eq!(net, 1);
    assert_eq!(
        matrix,
        [2, 1, 9, 3, 1],
        "inserts, deletes, pairs, units, spans"
    );
    assert_eq!(matrix, twohop);

    // A batch of no-ops counts no unit and no pair; an empty batch does not
    // even open a span.
    let (net, matrix, twohop) = record(&raw[..2]);
    assert_eq!(
        (net, &matrix[..], &twohop[..]),
        (0, &[0, 0, 0, 0, 1][..], &[0, 0, 0, 0, 1][..])
    );
    let (net, matrix, twohop) = record(&[]);
    assert_eq!(
        (net, &matrix[..], &twohop[..]),
        (0, &[0; 5][..], &[0; 5][..])
    );
}

/// `oracle.twohop.delete_traversals` keeps a BFS per rectangle node from
/// growing back: a deletion unit whose smaller rectangle side has `m` nodes
/// starts the four rows around its edge, one multi-source pass per 64 of the
/// `m`, and one more per diagonal it recomputes — exactly, and the same at
/// 1, 2 and 8 threads. Maintenance asks the labels through no counted door:
/// `twohop.label_queries` counts the matcher's reads only, so no fringe —
/// read off the rows or asked of the labels — shows up there.
#[test]
fn twohop_delete_traversals_are_pinned_and_thread_independent() {
    use gpm::{DistanceOracle, EdgeUpdate, Executor, IncrementalTwoHop, NodeId};
    let _guard = obs_lock();
    let n = NodeId::new;
    // What deleting `(s, t)` from `pre` adds to the 2-hop's counters.
    let record = |pre: &DataGraph, (s, t): (u32, u32), threads: usize| {
        let mut post = pre.clone();
        post.remove_edge(n(s), n(t)).unwrap();
        let mut oracle = IncrementalTwoHop::build(pre);
        let exec = Executor::new(forced(threads));
        gpm::obs::set_enabled(true);
        gpm::obs::registry().reset();
        oracle.apply_batch(&post, &[EdgeUpdate::Delete(n(s), n(t))], &exec);
        let mut counters = gpm::obs::registry().snapshot().det_counters();
        gpm::obs::set_enabled(false);
        counters.retain(|name, _| name.starts_with("oracle.twohop."));
        counters
    };
    let traversals = |counters: &BTreeMap<String, u64>| counters["oracle.twohop.delete_traversals"];

    // m sources → s → t → m + 5 sinks, no cycle: A = sources + s.
    for (m, passes) in [(1u32, 1), (64, 1), (65, 2), (130, 3)] {
        let sources = (0..m - 1).map(|i| (2 + i, 0));
        let sinks = (0..m + 4).map(|i| (1, 1 + m + i));
        let edges: Vec<(u32, u32)> = [(0, 1)].into_iter().chain(sources).chain(sinks).collect();
        let pre = DataGraph::from_edges(2 * m as usize + 5, &edges).unwrap();
        let baseline = record(&pre, (0, 1), 1);
        assert_eq!(traversals(&baseline), 4 + passes, "smaller side of {m}");
        assert_eq!(
            baseline["oracle.twohop.delete_candidates"],
            u64::from(m * (m + 5))
        );
        assert_eq!(baseline["oracle.twohop.label_queries"], 0);
        for threads in [2, 8] {
            assert_eq!(baseline, record(&pre, (0, 1), threads), "{threads} threads");
        }
    }

    // 0 → 1 → 2 → 0 with the detour 0 → 3 → 1: A = {0, 2}, one pass, and
    // the shortest cycles of 0, 1 and 2 ran through the edge.
    let pre = DataGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 1)]).unwrap();
    let baseline = record(&pre, (0, 1), 1);
    assert_eq!(traversals(&baseline), 4 + 1 + 3);
    assert_eq!(baseline, record(&pre, (0, 1), 8));
}

/// A matrix build takes its rows 64 to a multi-source traversal:
/// `oracle.matrix.build_traversals` counts `⌈|V| / 64⌉` per build — exactly,
/// the same at 1, 2 and 8 threads — and the `oracle`/`build` event of a
/// matrix carries the same number, so that a BFS per source cannot grow back
/// unnoticed.
#[test]
fn matrix_build_traversals_are_pinned_and_thread_independent() {
    use gpm::{DistanceMatrix, Executor, OracleBackend};
    let _guard = obs_lock();
    let ring = |nodes: u32| {
        let edges: Vec<(u32, u32)> = (0..nodes).map(|i| (i, (i + 1) % nodes)).collect();
        DataGraph::from_edges(nodes as usize, &edges).unwrap()
    };
    let record = |g: &DataGraph, threads: usize| {
        let exec = Executor::new(forced(threads));
        gpm::obs::set_enabled(true);
        gpm::obs::registry().reset();
        DistanceMatrix::build_with(g, &exec);
        let mut counters = gpm::obs::registry().snapshot().det_counters();
        gpm::obs::set_enabled(false);
        counters.retain(|name, _| name.starts_with("oracle."));
        counters
    };
    for (nodes, passes) in [(0, 0), (1, 1), (64, 1), (65, 2), (130, 3), (1_038, 17)] {
        let g = ring(nodes);
        let baseline = record(&g, 1);
        assert_eq!(
            baseline["oracle.matrix.build_traversals"], passes,
            "{nodes} nodes"
        );
        for threads in [2, 8] {
            assert_eq!(baseline, record(&g, threads), "{threads} threads");
        }
    }

    // The build event, through the door the service and the bins use.
    let path = std::env::temp_dir().join(format!("gpm-obs-build-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    gpm::obs::set_enabled(true);
    gpm::obs::registry().reset();
    assert!(gpm::obs::set_out_path(&path), "sink must open");
    let g = ring(130);
    for backend in OracleBackend::ALL {
        backend.build(&g, &Executor::new(forced(2)));
    }
    let counters = gpm::obs::registry().snapshot().det_counters();
    gpm::obs::set_enabled(false);
    assert_eq!(counters["oracle.builds"], 2);
    assert_eq!(counters["oracle.matrix.build_traversals"], 3);
    let text = std::fs::read_to_string(&path).expect("sink file readable");
    let _ = std::fs::remove_file(&path);
    let builds: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"scope\":\"oracle\",\"name\":\"build\""))
        .collect();
    assert_eq!(builds.len(), 2, "{text}");
    assert!(builds[0].contains("\"nodes\":130,\"traversals\":3,\"backend\":\"matrix\""));
    assert!(builds[1].contains("\"backend\":\"two-hop\"") && !builds[1].contains("traversals"));
}

/// Every line of the JSONL sink parses as a JSON object, the final registry
/// snapshot is among them, and each line round-trips through the vendored
/// `serde_json` unchanged in meaning.
#[test]
fn jsonl_export_parses_and_round_trips() {
    let _guard = obs_lock();
    let path = std::env::temp_dir().join(format!("gpm-obs-test-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    gpm::obs::set_enabled(true);
    gpm::obs::registry().reset();
    assert!(gpm::obs::set_out_path(&path), "sink must open");
    run_session(2, 99);
    gpm::obs::emit_event(
        "test",
        "marker",
        &[("answer", 42)],
        &[("note", "esc \"quotes\" and \\slashes\\")],
    );
    assert!(
        gpm::obs::registry().export_snapshot(),
        "snapshot export must reach the sink"
    );
    gpm::obs::set_enabled(false);

    let text = std::fs::read_to_string(&path).expect("sink file readable");
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "sink should contain at least one line");

    let mut types = Vec::new();
    for line in &lines {
        let value: serde::Value = serde_json::from_str(line).expect("line parses");
        let serde::Value::Map(ref entries) = value else {
            panic!("line is not a JSON object: {line}");
        };
        let ty = entries
            .iter()
            .find(|(k, _)| k == "type")
            .map(|(_, v)| v.clone())
            .expect("line has a type field");
        types.push(ty);

        // Round-trip: render the parsed tree back to text and re-parse.
        let rendered = serde_json::to_string(&value).expect("re-serializes");
        let reparsed: serde::Value = serde_json::from_str(&rendered).expect("round-trips");
        assert_eq!(value, reparsed, "JSONL line changed across a round-trip");
    }
    assert!(
        types.contains(&serde::Value::Str("event".into())),
        "the explicit marker event should be present"
    );
    assert!(
        types.contains(&serde::Value::Str("snapshot".into())),
        "the final registry snapshot should be present"
    );

    // The snapshot line carries the full scope tree, including the session's
    // deterministic counters.
    let snapshot_line = lines
        .iter()
        .find(|l| l.contains("\"type\":\"snapshot\""))
        .expect("snapshot line");
    let snapshot: serde::Value = serde_json::from_str(snapshot_line).expect("snapshot parses");
    let scopes = snapshot.field("scopes").expect("snapshot has scopes");
    assert!(
        matches!(scopes.field("service"), Ok(serde::Value::Map(_))),
        "snapshot should include the service scope"
    );

    let _ = std::fs::remove_file(&path);
}
