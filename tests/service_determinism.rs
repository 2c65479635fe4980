//! Determinism suite for the service: with identical inputs, the per-query
//! delta streams, batch outcomes and work counters are **bit-for-bit
//! identical** at 1, 2 and 8 worker threads.
//!
//! Mirrors `parallel_determinism.rs` for `gpm-service`: the oracle build and
//! every match-state build (registration, resume) run on the `gpm-exec`
//! executor, while the per-batch repair-and-emit loop
//! walks the catalog sequentially in registration order, so scheduling
//! cannot leak into the output. Thread policies force
//! `sequential_threshold(0)` so even test-sized inputs genuinely hit the
//! threaded paths. (Per BENCHMARKS.md: a single-vCPU host verifies
//! determinism, not speedup.)

use gpm::exec::Parallelism;
use gpm::{datagen::powerlaw_graph, datagen::PowerLawConfig};
use gpm::{
    fold_deltas, generate_pattern, random_updates, BatchOutcome, DataGraph, MatchDelta,
    MatchService, PatternGenConfig, ServiceStats, UpdateStreamConfig,
};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn forced(threads: usize) -> Parallelism {
    Parallelism::new(threads).with_sequential_threshold(0)
}

fn labelled_graph(nodes: usize, edges: usize, labels: usize, seed: u64) -> DataGraph {
    let mut g = powerlaw_graph(&PowerLawConfig::new(nodes, edges).with_seed(seed));
    for v in 0..g.node_count() {
        let label = format!("a{}", v % labels);
        g.attributes_mut(gpm::NodeId::new(v as u32))
            .set("label", label);
    }
    g
}

/// Runs the same scripted session at a given thread count and returns
/// everything observable: per-batch outcomes, subscription streams, final
/// results and stats.
fn run_session(
    threads: usize,
    seed: u64,
    queries: usize,
    batches: usize,
) -> (
    Vec<BatchOutcome>,
    Vec<Vec<MatchDelta>>,
    Vec<gpm::MatchRelation>,
    ServiceStats,
) {
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

    // Suspend one query mid-stream and resume it later so the activation
    // path is covered by the determinism contract too.
    let parked = ids[1];
    let mut outcomes = Vec::new();
    for round in 0..batches as u64 {
        if round == 1 {
            svc.suspend(parked);
        }
        if round == batches as u64 - 1 {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batch outcomes, delta streams, final results and stats are identical
    /// at every thread count.
    #[test]
    fn delta_streams_are_bit_identical_across_thread_counts(
        seed in 0u64..5_000,
        queries in 2usize..6,
        batches in 2usize..6,
    ) {
        let baseline = run_session(1, seed, queries, batches);
        for threads in THREAD_COUNTS {
            let run = run_session(threads, seed, queries, batches);
            prop_assert_eq!(&run.0, &baseline.0, "batch outcomes diverged at {} threads", threads);
            prop_assert_eq!(&run.1, &baseline.1, "delta streams diverged at {} threads", threads);
            prop_assert_eq!(&run.2, &baseline.2, "final results diverged at {} threads", threads);
            prop_assert_eq!(&run.3, &baseline.3, "stats diverged at {} threads", threads);
        }
    }
}

/// A fixed-seed session large enough to clear the *default* sequential
/// threshold where the hint is the graph (300 nodes: the oracle build and
/// the registration `Match` runs fan out). The per-query repair is a
/// sequential loop at every thread count.
#[test]
fn default_policy_session_agrees_with_sequential() {
    let build = |threads: usize| {
        let g = labelled_graph(300, 1_100, 5, 99);
        let mut svc = MatchService::with_parallelism(g, Parallelism::new(threads));
        let ids: Vec<_> = (0..6u64)
            .map(|i| {
                let (p, _) = generate_pattern(
                    svc.graph(),
                    &PatternGenConfig::new(4, 4, 3).with_seed(200 + i),
                );
                svc.register(p)
            })
            .collect();
        let mut all_deltas = Vec::new();
        for round in 0..3u64 {
            let updates = random_updates(
                svc.graph(),
                &UpdateStreamConfig::mixed(25).with_seed(300 + round),
            );
            all_deltas.push(svc.apply(&updates));
        }
        let finals: Vec<_> = ids.iter().map(|&id| svc.result(id).unwrap()).collect();
        (all_deltas, finals)
    };
    let sequential = build(1);
    for threads in THREAD_COUNTS {
        let run = build(threads);
        assert_eq!(run, sequential, "diverged at {threads} threads");
    }
}

/// The subscription fold is itself thread-count independent: folding the
/// stream from any run reproduces the same relation.
#[test]
fn folded_streams_agree_across_thread_counts() {
    let mut folded_per_thread = Vec::new();
    for threads in THREAD_COUNTS {
        let (_, streams, finals, _) = run_session(threads, 4242, 4, 4);
        let folds: Vec<_> = streams
            .iter()
            .zip(&finals)
            .map(|(stream, fin)| {
                let folded = fold_deltas(fin.pattern_node_count(), stream.iter());
                assert_eq!(&folded, fin, "fold ≠ live result at {threads} threads");
                folded
            })
            .collect();
        folded_per_thread.push(folds);
    }
    assert!(folded_per_thread.windows(2).all(|w| w[0] == w[1]));
}
