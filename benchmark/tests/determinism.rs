//! The script generator and the exact-repeat counts are functions of the
//! seed alone, and a seed other than the default still passes the gate.
//!
//! The shapes are the benchmark's own with `ops` cut down, so that the
//! suite also finishes in a debug build.

use gpm_benchmark::e2e::{ColdRunner, InprocRunner, Measurement, Runner, WireRunner};
use gpm_benchmark::layers::{replay_match_round, replay_update_round, WireReplay};
use gpm_benchmark::script::{
    match_script_with, update_script_with, ColdShape, MatchScript, UpdateScript, Workload,
};
use gpm_benchmark::span::Tracer;
use std::path::PathBuf;

fn small_update(workload: Workload, seed: u64) -> UpdateScript {
    let mut shape = workload.update_shape().expect("an update workload");
    shape.ops = 40;
    update_script_with(shape, seed)
}

fn small_cold(seed: u64) -> MatchScript {
    let shape = ColdShape {
        nodes: 300,
        edges: 600,
        labels: 30,
        per_size: 5,
    };
    match_script_with(shape, seed)
}

/// A scratch directory under the package's own `out/`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const UPDATE_WORKLOADS: [Workload; 3] = [
    Workload::WireStream,
    Workload::InprocMaintain,
    Workload::TwohopChurn,
];

#[test]
fn scripts_are_byte_identical_for_a_seed_and_differ_across_seeds() {
    for w in UPDATE_WORKLOADS {
        let a = small_update(w, 11).to_bytes();
        assert_eq!(a, small_update(w, 11).to_bytes(), "{}", w.name());
        assert_ne!(a, small_update(w, 12).to_bytes(), "{}", w.name());
    }
    let a = small_cold(11).to_bytes();
    assert_eq!(a, small_cold(11).to_bytes());
    assert_ne!(a, small_cold(12).to_bytes());
}

#[test]
fn update_scripts_have_the_declared_shape() {
    let s = small_update(Workload::InprocMaintain, 3);
    assert_eq!(s.batches_per_op, 2);
    assert_eq!(s.batches.len(), 80);
    for (i, batch) in s.batches.iter().enumerate() {
        let insert = i % 2 == 1;
        assert_eq!(s.batch_is_insert[i], Some(insert));
        assert!(batch.iter().all(|u| u.is_insert() == insert), "batch {i}");
    }
    // Deletions and insertions cancel: |E| is stationary.
    let mut g = s.graph.clone();
    for u in s.batches.iter().flatten() {
        assert!(
            u.apply(&mut g),
            "every update is valid when applied in order"
        );
    }
    assert_eq!(g.edge_count(), s.graph.edge_count());

    let s = small_update(Workload::WireStream, 3);
    assert_eq!(s.batches_per_op, 1);
    assert!(s.batches.iter().all(|b| b.len() == 2));
    assert!(s.patterns.iter().all(|p| p.is_dag()));
}

/// Runs `rounds` rounds and requires every one to pass the gate.
fn passing(runner: &mut dyn Runner, rounds: usize) -> Measurement {
    let mut m = Measurement::new(runner.ops());
    for _ in 0..rounds {
        m.record(runner.round());
    }
    assert_eq!(m.failures, Vec::<String>::new());
    assert_eq!(m.failed, 0);
    assert_eq!(m.attempted, (rounds * runner.ops()) as u64);
    m
}

#[test]
fn end_to_end_counts_repeat_exactly_for_a_seed() {
    for w in [Workload::InprocMaintain, Workload::TwohopChurn] {
        let s = small_update(w, 5);
        // `record` itself fails a round whose counts differ from the
        // first, so two passing rounds already repeat; a second runner
        // shows the counts belong to the seed, not to the runner.
        let a = passing(&mut InprocRunner::new(&s), 2).counts;
        let b = passing(&mut InprocRunner::new(&small_update(w, 5)), 1).counts;
        assert_eq!(a, b, "{}", w.name());
        assert!(a.aff1_pairs > 0 && a.verifications > 0, "{}", w.name());
    }
    let a = passing(&mut ColdRunner::new(&small_cold(5)), 2).counts;
    let b = passing(&mut ColdRunner::new(&small_cold(5)), 1).counts;
    assert_eq!(a, b);
}

#[test]
fn twohop_rebuilds_are_counted_and_the_matrix_never_rebuilds() {
    let twohop = passing(
        &mut InprocRunner::new(&small_update(Workload::TwohopChurn, 5)),
        1,
    );
    assert!(twohop.counts.rebuilds > 0);
    let matrix = passing(
        &mut InprocRunner::new(&small_update(Workload::InprocMaintain, 5)),
        1,
    );
    assert_eq!(matrix.counts.rebuilds, 0);
}

#[test]
fn layer_replay_counts_repeat_exactly_and_agree_with_the_service() {
    for w in [Workload::InprocMaintain, Workload::TwohopChurn] {
        let s = small_update(w, 9);
        let (a, end_a) = replay_update_round(&s, None, &mut Tracer::new()).unwrap();
        let (b, _) = replay_update_round(&s, None, &mut Tracer::new()).unwrap();
        // distance.aff1_pairs, distance.rebuilds, incremental.verifications,
        // service.deltas_emitted, core.result_pairs and the rest.
        assert_eq!(a, b, "{}", w.name());
        assert_eq!(end_a.relations, s.expected, "{}", w.name());
        // The replay pushes the script through the layers the way
        // `MatchService::apply` does, so the service counts the same.
        let svc = passing(&mut InprocRunner::new(&s), 1).counts;
        assert_eq!(a.aff1_pairs, svc.aff1_pairs, "{}", w.name());
        assert_eq!(a.verifications, svc.verifications, "{}", w.name());
        assert_eq!(a.deltas_emitted, svc.deltas_emitted, "{}", w.name());
        assert_eq!(a.delta_pairs, svc.delta_pairs, "{}", w.name());
        assert_eq!(a.rebuilds, svc.rebuilds, "{}", w.name());
    }
    let s = small_cold(9);
    let a = replay_match_round(&s, &mut Tracer::new());
    assert_eq!(a, replay_match_round(&s, &mut Tracer::new()));
    assert_eq!(
        a.result_pairs,
        passing(&mut ColdRunner::new(&s), 1).counts.result_pairs
    );
}

#[test]
fn wire_replay_records_every_layer_under_each_op() {
    let scratch = Scratch::new("wire-replay");
    let s = small_update(Workload::WireStream, 9);
    let mut wire = WireReplay::start(&scratch.0).unwrap();
    let mut tracer = Tracer::new();
    let (counts, _) = replay_update_round(&s, Some(&mut wire), &mut tracer).unwrap();
    assert_eq!(counts.batches, 40);
    assert!(counts.wal_bytes > 0 && counts.req_bytes > 0);
    for name in [
        "net.req_encode",
        "net.transport",
        "net.req_decode",
        "service.wal_append",
        "graph.mutate",
        "distance.apply_batch",
        "net.resp_encode",
        "net.resp_decode",
    ] {
        let n = tracer.spans().iter().filter(|sp| sp.name == name).count();
        assert_eq!(n, 40, "{name}");
    }
    // Every layer span of an op hangs under that op's root.
    for sp in tracer.spans().iter().filter(|sp| sp.name != "op") {
        if let Some(p) = sp.parent {
            assert_eq!(tracer.spans()[p].op, sp.op, "{}", sp.name);
        }
    }
}

#[test]
fn a_seed_other_than_the_default_passes_the_gate_on_every_workload() {
    let scratch = Scratch::new("gate");
    for seed in [7, 4242] {
        let wire = small_update(Workload::WireStream, seed);
        let m = passing(&mut WireRunner::new(&wire), 2);
        assert_eq!(
            m.deltas.as_ref().map_or(0, |d| d.floors().len()),
            wire.busiest_deltas
        );
        for w in [Workload::InprocMaintain, Workload::TwohopChurn] {
            passing(&mut InprocRunner::new(&small_update(w, seed)), 1);
        }
        // The durable pass of the traced run: its gate includes the
        // recovered service.
        let durable = passing(&mut InprocRunner::durable(&wire, &scratch.0), 1);
        assert!(durable.recover.get() > std::time::Duration::ZERO);
        passing(&mut ColdRunner::new(&small_cold(seed)), 1);
    }
}

#[test]
fn the_gate_catches_a_wrong_answer() {
    let mut s = small_update(Workload::InprocMaintain, 7);
    // Corrupt the reference: the service is right, so the gate must object.
    let victim = s
        .expected
        .iter_mut()
        .find(|r| !r.is_empty())
        .expect("some query matches");
    victim.clear();
    let mut runner = InprocRunner::new(&s);
    let mut m = Measurement::new(runner.ops());
    m.record(runner.round());
    assert_eq!(m.failed, m.attempted);
    assert_eq!(m.ops.rounds(), 0, "a failed round contributes no timing");
    assert!(m.failures[0].contains("differs from the recomputed match"));
}
