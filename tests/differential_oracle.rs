//! Differential backend suite: the two maintainable distance back-ends —
//! the paper's all-pairs [`DistanceMatrix`] and the 2-hop labeling behind
//! [`OracleBackend::TwoHop`] — must be observationally identical.
//!
//! Identical means bit-identical, not merely "both correct": the same `AFF1`
//! sets under interleaved inserts and deletes, the same maintained
//! match relations, and the same per-batch service deltas at 1, 2 and 8
//! worker threads. Any divergence pinpoints a bug in exactly one backend's
//! `UpdateM` implementation (or a thread-count dependence in the folding
//! above it).

use gpm::datagen::{powerlaw_graph, PowerLawConfig};
use gpm::distance::AffectedPairs;
use gpm::{
    fold_deltas, generate_pattern, inc_match, random_updates, BatchOutcome, DataGraph, EdgeUpdate,
    Executor, MatchRelation, MatchService, MatchState, NodeId, OracleBackend, Parallelism,
    PatternGenConfig, PatternGraph, PatternGraphBuilder, Predicate, UpdateStreamConfig,
};

fn labelled_graph(nodes: usize, edges: usize, labels: usize, seed: u64) -> DataGraph {
    let mut g = powerlaw_graph(&PowerLawConfig::new(nodes, edges).with_seed(seed));
    for v in 0..g.node_count() {
        let label = format!("a{}", v % labels);
        g.attributes_mut(NodeId::new(v as u32)).set("label", label);
    }
    g
}

fn dag_pattern(graph: &DataGraph, seed: u64) -> PatternGraph {
    for attempt in 0..32 {
        let cfg = PatternGenConfig::new(3, 3, 3).with_seed(seed + attempt * 101);
        let (p, _) = generate_pattern(graph, &cfg);
        if p.is_dag() {
            return p;
        }
    }
    panic!("could not generate a DAG pattern");
}

/// `AFF1` as a canonically ordered set — the contract fixes the *set* of
/// changed pairs with their old/new distances, not the emission order.
fn sorted_pairs(aff: &AffectedPairs) -> Vec<(u32, u32, u16, u16)> {
    let mut v: Vec<_> = aff
        .iter()
        .map(|p| (p.source.0, p.sink.0, p.old, p.new))
        .collect();
    v.sort_unstable();
    v
}

fn assert_all_pairs_agree(
    g: &DataGraph,
    matrix: &dyn gpm::DistanceOracle,
    two_hop: &dyn gpm::DistanceOracle,
    ctx: &str,
) {
    let n = g.node_count() as u32;
    for x in (0..n).map(NodeId::new) {
        for y in (0..n).map(NodeId::new) {
            assert_eq!(
                matrix.nonempty_distance(g, x, y),
                two_hop.nonempty_distance(g, x, y),
                "{ctx}: backends disagree at ({x:?}, {y:?})"
            );
        }
    }
}

/// Unit-at-a-time maintenance: both back-ends report the same `AFF1` for every update and answer every
/// pair identically afterwards.
#[test]
fn unit_updates_keep_backends_bit_identical() {
    for seed in [7u64, 19, 101] {
        let mut g = labelled_graph(30, 80, 3, seed);
        let exec = Executor::new(Parallelism::new(2).with_sequential_threshold(0));
        let mut matrix = OracleBackend::Matrix.build(&g, &exec);
        let mut two_hop = OracleBackend::TwoHop.build(&g, &exec);
        assert_eq!(matrix.name(), "matrix");
        assert_eq!(two_hop.name(), "two-hop");

        let stream = random_updates(&g, &UpdateStreamConfig::mixed(20).with_seed(seed + 1));
        let mut applied = 0usize;
        for (i, u) in stream.iter().enumerate() {
            if !u.apply(&mut g) {
                continue; // no-op against the evolved graph
            }
            applied += 1;
            let (a, b) = u.endpoints();
            let (aff_m, aff_t) = if u.is_insert() {
                (
                    matrix.apply_insert(&g, a, b, &exec),
                    two_hop.apply_insert(&g, a, b, &exec),
                )
            } else {
                (
                    matrix.apply_delete(&g, a, b, &exec),
                    two_hop.apply_delete(&g, a, b, &exec),
                )
            };
            assert_eq!(
                sorted_pairs(&aff_m),
                sorted_pairs(&aff_t),
                "AFF1 diverged at update {i} ({u}) (seed {seed})"
            );
            assert_all_pairs_agree(
                &g,
                matrix.as_ref(),
                two_hop.as_ref(),
                &format!("after update {i} (seed {seed})"),
            );
        }
        assert!(applied > 0, "stream was all no-ops (seed {seed})");
    }
}

/// The pruned-landmark construction is *bit-identical* whichever way it is
/// scheduled: the sequential reference loop and the rank-batched,
/// bit-parallel build must produce the same labels entry for entry, at 1, 2
/// and 8 threads and batch sizes 1, 7 and 64 (degenerate, straddling and
/// full-word batches). On the 170-node input the production batch size, 64,
/// spans three batches, the last of them partial.
#[test]
fn batched_build_is_bit_identical_across_threads_and_batch_sizes() {
    use gpm::TwoHopIndex;
    for (nodes, edges, seed) in [(40, 110, 5u64), (40, 110, 23), (170, 520, 7)] {
        let g = labelled_graph(nodes, edges, 3, seed);
        let reference = TwoHopIndex::build_sequential(&g);
        for threads in [1usize, 2, 8] {
            let exec = Executor::new(Parallelism::new(threads).with_sequential_threshold(0));
            for batch in [1usize, 7, 64] {
                let built = TwoHopIndex::build_batched(&g, &exec, batch);
                assert_eq!(
                    built, reference,
                    "batched build diverged ({nodes} nodes, seed {seed}, {threads} threads, \
                     batch {batch})"
                );
            }
        }
    }
}

/// The batched `UpdateBM` surface agrees too (both back-ends replay the
/// batch unit by unit and repair in place).
#[test]
fn batch_updates_keep_backends_bit_identical() {
    let g0 = labelled_graph(28, 70, 3, 5);
    let exec = Executor::new(Parallelism::new(2).with_sequential_threshold(0));
    let mut matrix = OracleBackend::Matrix.build(&g0, &exec);
    let mut two_hop = OracleBackend::TwoHop.build(&g0, &exec);
    let mut g = g0;

    for round in 0..3u64 {
        let batch = random_updates(&g, &UpdateStreamConfig::mixed(8).with_seed(round + 40));
        let effective: Vec<EdgeUpdate> =
            batch.iter().filter(|u| u.apply(&mut g)).copied().collect();
        let aff_m = matrix.apply_batch(&g, &effective, &exec);
        let aff_t = two_hop.apply_batch(&g, &effective, &exec);
        assert_eq!(
            sorted_pairs(&aff_m),
            sorted_pairs(&aff_t),
            "batch AFF1 diverged at round {round}"
        );
        assert_all_pairs_agree(
            &g,
            matrix.as_ref(),
            two_hop.as_ref(),
            &format!("after batch {round}"),
        );
    }
}

/// The repo benchmark's `twohop-churn` shape — the 222-node YouTube fixture
/// under 300 mixed batches of 2–4 — at 1, 2 and 8 threads: every batch
/// `AFF1` is the matrix's, bit for bit, and with nothing ever rebuilding or
/// pruning the labels stay within twice a fresh build's size and answer
/// every pair like it.
#[test]
fn churn_script_repairs_in_place_and_stays_within_twice_a_fresh_build() {
    use gpm::datagen::Dataset;
    use gpm::distance::IncrementalTwoHop;
    use gpm::DistanceOracle as _;

    let g0 = Dataset::YouTube.generate(0.015, 2010);
    assert_eq!(g0.node_count(), 222);
    let mut entries_at_one_thread = None;
    for threads in [1usize, 2, 8] {
        let exec = Executor::new(Parallelism::new(threads).with_sequential_threshold(0));
        let mut g = g0.clone();
        let mut matrix = OracleBackend::Matrix.build(&g, &exec);
        let mut labels = IncrementalTwoHop::build_with(&g, &exec);
        for i in 0..300u64 {
            let config = UpdateStreamConfig::mixed(2 + (i % 3) as usize).with_seed(9000 + i);
            let batch = random_updates(&g, &config);
            for u in &batch {
                u.apply(&mut g);
            }
            assert_eq!(
                labels.apply_batch(&g, &batch, &exec),
                matrix.apply_batch(&g, &batch, &exec),
                "batch {i} AFF1 diverged at {threads} threads"
            );
        }
        assert_eq!(labels.rebuilds(), 0);

        let fresh = IncrementalTwoHop::build_with(&g, &exec);
        let maintained = labels.index().label_entries();
        assert!(
            maintained <= 2 * fresh.index().label_entries(),
            "maintained labels ({maintained} entries) outgrew twice a fresh build ({})",
            fresh.index().label_entries()
        );
        assert_eq!(
            *entries_at_one_thread.get_or_insert(maintained),
            maintained,
            "label writes are sequential: same labels at every thread count"
        );
        assert_all_pairs_agree(&g, &fresh, &labels, "maintained vs fresh build");
        assert_all_pairs_agree(&g, matrix.as_ref(), &labels, "maintained vs matrix");
    }
}

/// `IncMatch` maintains the *same match* on either backend: the folded
/// `AFF1 → AFF2 → relation` chain is backend-independent.
#[test]
fn maintained_matches_are_identical_across_backends() {
    let g = labelled_graph(35, 90, 4, 3);
    let pattern = dag_pattern(&g, 1);
    let exec = Executor::new(Parallelism::new(1));
    // Each back-end maintains a graph, an oracle and a state of its own.
    let [mut on_matrix, mut on_two_hop] = [OracleBackend::Matrix, OracleBackend::TwoHop].map(|b| {
        let oracle = b.build(&g, &exec);
        let state = MatchState::initialise_with(&pattern, &g, oracle.as_ref(), &exec);
        (g.clone(), oracle, state)
    });
    assert_eq!(
        on_matrix.2.relation(),
        on_two_hop.2.relation(),
        "initial Match"
    );

    for round in 0..3u64 {
        let updates = random_updates(
            &on_matrix.0,
            &UpdateStreamConfig::mixed(10).with_seed(round + 60),
        );
        let [out_m, out_t] = [&mut on_matrix, &mut on_two_hop].map(|(g, oracle, state)| {
            inc_match(&pattern, g, oracle.as_mut(), state, &updates, &exec).unwrap()
        });
        assert_eq!(
            out_m.stats.aff1, out_t.stats.aff1,
            "|AFF1| diverged at round {round}"
        );
        assert_eq!(
            out_m.stats.aff2, out_t.stats.aff2,
            "|AFF2| diverged at round {round}"
        );
        assert_eq!(
            on_matrix.2.relation(),
            on_two_hop.2.relation(),
            "maintained match diverged at round {round}"
        );
    }
}

/// Drives one service run and returns everything observable about it.
fn run_service(
    backend: OracleBackend,
    threads: usize,
    g: &DataGraph,
    patterns: &[PatternGraph],
    batches: &[Vec<EdgeUpdate>],
) -> (Vec<BatchOutcome>, Vec<MatchRelation>, Vec<MatchRelation>) {
    let par = Parallelism::new(threads).with_sequential_threshold(0);
    let mut svc = MatchService::with_backend(g.clone(), backend, par);
    let mut ids = Vec::new();
    let mut subs = Vec::new();
    for p in patterns {
        let q = svc.register(p.clone());
        subs.push(svc.subscribe(q).unwrap());
        ids.push(q);
    }
    let outcomes: Vec<BatchOutcome> = batches.iter().map(|b| svc.apply(b)).collect();
    let results: Vec<MatchRelation> = ids.iter().map(|&q| svc.result(q).unwrap()).collect();
    let folded: Vec<MatchRelation> = patterns
        .iter()
        .zip(&subs)
        .map(|(p, s)| fold_deltas(p.node_count(), s.drain().iter()))
        .collect();
    (outcomes, results, folded)
}

/// The service emits *bit-identical* batch outcomes (epochs, applied counts,
/// `|AFF1|`, full delta payloads), final results and folded subscription
/// streams on either backend, at 1, 2 and 8 worker threads — the ISSUE's
/// acceptance gate for backend pluggability. A cyclic pattern rides along to
/// cover the repair of pattern cycles on a non-matrix oracle.
#[test]
fn service_deltas_are_bit_identical_across_backends_and_threads() {
    let g = labelled_graph(32, 85, 4, 11);
    let mut patterns = vec![dag_pattern(&g, 2), dag_pattern(&g, 900)];
    let (cyclic, _) = PatternGraphBuilder::new()
        .node("a", Predicate::label_eq("label", "a0"))
        .node("b", Predicate::label_eq("label", "a1"))
        .edge("a", "b", 2u32)
        .edge("b", "a", 2u32)
        .build()
        .unwrap();
    assert!(!cyclic.is_dag());
    patterns.push(cyclic);

    // Pre-roll the batches against an evolving scratch copy so every run
    // sees the exact same update stream.
    let mut scratch = g.clone();
    let mut batches = Vec::new();
    for round in 0..4u64 {
        let batch = random_updates(
            &scratch,
            &UpdateStreamConfig::mixed(8).with_seed(round + 500),
        );
        for u in &batch {
            u.apply(&mut scratch);
        }
        batches.push(batch);
    }

    let reference = run_service(OracleBackend::Matrix, 1, &g, &patterns, &batches);
    for threads in [1usize, 2, 8] {
        for backend in OracleBackend::ALL {
            if backend == OracleBackend::Matrix && threads == 1 {
                continue; // that is the reference run itself
            }
            let run = run_service(backend, threads, &g, &patterns, &batches);
            assert_eq!(
                reference.0, run.0,
                "batch outcomes diverged on {backend} at {threads} threads"
            );
            assert_eq!(
                reference.1, run.1,
                "final results diverged on {backend} at {threads} threads"
            );
            assert_eq!(
                reference.2, run.2,
                "folded delta streams diverged on {backend} at {threads} threads"
            );
        }
    }
}
