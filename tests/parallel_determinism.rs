//! Determinism suite for the `gpm-exec` parallel runtime.
//!
//! The contract under test: every ported hot path — `Match`, `IncMatch`,
//! matrix and 2-hop construction, matrix maintenance — produces
//! **bit-identical** output at any thread count, because all merges happen
//! in a fixed (task-index) order. The policies below set
//! `sequential_threshold(0)` so even these test-sized graphs genuinely
//! exercise the threaded machinery rather than the inline fallback.

use gpm::datagen::{powerlaw_graph, PowerLawConfig};
use gpm::exec::{Executor, Parallelism};
use gpm::{
    bounded_simulation_with_oracle, bounded_simulation_with_oracle_on, inc_match, random_updates,
    DataGraph, DistanceMatrix, MatchService, MatchState, OracleBackend, PatternGraph,
    UpdateStreamConfig,
};
use gpm::{generate_pattern, PatternGenConfig};
use proptest::prelude::*;

/// The thread counts every path is checked at (1 = inline passthrough).
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn forced_executor(threads: usize) -> Executor {
    Executor::new(Parallelism::new(threads).with_sequential_threshold(0))
}

/// A labelled power-law graph: the generator leaves attributes empty, so
/// labels `a0..a<k>` are assigned round-robin for the pattern predicates to
/// bite on.
fn labelled_powerlaw(nodes: usize, edges: usize, labels: usize, seed: u64) -> DataGraph {
    let mut g = powerlaw_graph(&PowerLawConfig::new(nodes, edges).with_seed(seed));
    for v in 0..g.node_count() {
        let label = format!("a{}", v % labels);
        g.attributes_mut(gpm::NodeId::new(v as u32))
            .set("label", label);
    }
    g
}

fn pattern_for(g: &DataGraph, size: usize, seed: u64) -> PatternGraph {
    generate_pattern(g, &PatternGenConfig::new(size, size, 3).with_seed(seed)).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `Match` returns the same `MatchOutcome` — relation *and* stats — at
    /// every thread count, on random power-law graphs and patterns.
    #[test]
    fn match_is_bit_identical_across_thread_counts(
        seed in 0u64..10_000,
        nodes in 30usize..120,
        psize in 2usize..6,
    ) {
        let g = labelled_powerlaw(nodes, nodes * 3, 5, seed);
        let p = pattern_for(&g, psize, seed ^ 0xfeed);
        let matrix = DistanceMatrix::build(&g);
        let baseline = bounded_simulation_with_oracle_on(&p, &g, &matrix, &Executor::sequential());
        for threads in THREAD_COUNTS {
            let out = bounded_simulation_with_oracle_on(&p, &g, &matrix, &forced_executor(threads));
            prop_assert_eq!(&out, &baseline, "Match diverged at {} threads", threads);
        }
        // The default-policy entry point agrees as well.
        prop_assert_eq!(&bounded_simulation_with_oracle(&p, &g, &matrix), &baseline);
    }

    /// `IncMatch` (matrix, match state and the AFF1/AFF2 report) is
    /// identical at every thread count for mixed update batches.
    #[test]
    fn incmatch_is_bit_identical_across_thread_counts(
        seed in 0u64..5_000,
        batch in 5usize..30,
    ) {
        let g0 = labelled_powerlaw(40, 120, 4, seed);
        // DAG pattern requirement: keep regenerating until acyclic.
        let p = (0..20u64)
            .map(|i| pattern_for(&g0, 4, seed * 31 + i))
            .find(|p| p.is_dag());
        let Some(p) = p else {
            return Ok(()); // no DAG pattern for this seed; nothing to test
        };
        let updates = random_updates(&g0, &UpdateStreamConfig::mixed(batch).with_seed(seed + 7));

        let mut reference = None;
        for threads in THREAD_COUNTS {
            let exec = forced_executor(threads);
            let mut g = g0.clone();
            let mut m = DistanceMatrix::build(&g);
            let mut s = MatchState::initialise_with(&p, &g, &m, &exec);
            let out = inc_match(&p, &mut g, &mut m, &mut s, &updates, &exec).unwrap();
            let snapshot = (out, m, s.relation());
            match &reference {
                None => reference = Some(snapshot),
                Some(expected) => {
                    prop_assert_eq!(&snapshot.0, &expected.0, "outcome diverged at {} threads", threads);
                    prop_assert_eq!(&snapshot.1, &expected.1, "matrix diverged at {} threads", threads);
                    prop_assert_eq!(&snapshot.2, &expected.2, "relation diverged at {} threads", threads);
                }
            }
        }
    }

    /// Parallel matrix construction equals the sequential build.
    #[test]
    fn matrix_build_is_identical_across_thread_counts(
        seed in 0u64..10_000,
        nodes in 2usize..80,
    ) {
        let g = labelled_powerlaw(nodes, nodes * 4, 3, seed);
        let baseline = DistanceMatrix::build_with(&g, &Executor::sequential());
        for threads in THREAD_COUNTS {
            let m = DistanceMatrix::build_with(&g, &forced_executor(threads));
            prop_assert_eq!(&m, &baseline, "matrix diverged at {} threads", threads);
        }
    }
}

/// A unit `apply` stream on a single-query service runs on the service's own
/// executor — not on a per-call `Executor::from_env()` — and reports
/// identical outcomes (`|AFF1|`, the `AFF2` deltas, work counters) at every
/// thread count, on both back-ends.
#[test]
fn unit_apply_stream_is_bit_identical_across_thread_counts() {
    for seed in 0..4u64 {
        let g0 = labelled_powerlaw(40, 120, 4, seed);
        let p = pattern_for(&g0, 4, seed * 31);
        let updates = random_updates(&g0, &UpdateStreamConfig::mixed(20).with_seed(seed + 7));
        for backend in OracleBackend::ALL {
            let mut reference = None;
            for threads in THREAD_COUNTS {
                let policy = Parallelism::new(threads).with_sequential_threshold(0);
                let mut svc = MatchService::with_backend(g0.clone(), backend, policy);
                let q = svc.register(p.clone());
                let outcomes: Vec<_> = updates.iter().map(|&u| svc.apply_one(u)).collect();
                assert!(
                    outcomes.iter().all(|o| o.applied == 1),
                    "every unit applies"
                );
                let snapshot = (outcomes, svc.stats().clone(), svc.result(q));
                let expected = reference.get_or_insert_with(|| snapshot.clone());
                assert_eq!(
                    &snapshot, expected,
                    "seed {seed}, {backend}: diverged at {threads} threads"
                );
            }
        }
    }
}

/// The batched 2-hop build — phase A's root groups fan out, the rank-order
/// replay and the diagonal pass run on the caller — produces the same index,
/// labels, diagonal and landmark order, at every thread count.
#[test]
fn two_hop_build_is_identical_across_thread_counts() {
    use gpm::distance::TwoHopIndex;
    let g = labelled_powerlaw(150, 600, 4, 7);
    let baseline = TwoHopIndex::build_with(&g, &Executor::sequential());
    for threads in THREAD_COUNTS {
        let idx = TwoHopIndex::build_with(&g, &forced_executor(threads));
        assert!(idx == baseline, "2-hop index diverged at {threads} threads");
    }
}

/// A fixed-seed smoke check that parallel `Match` agrees with sequential on
/// a graph large enough to pass the *default* sequential threshold, so the
/// default-policy path is exercised end to end too.
#[test]
fn default_policy_match_agrees_on_larger_graph() {
    let g = labelled_powerlaw(600, 2_400, 6, 42);
    let p = pattern_for(&g, 6, 43);
    let matrix = DistanceMatrix::build(&g);
    let sequential = bounded_simulation_with_oracle_on(&p, &g, &matrix, &Executor::sequential());
    for threads in THREAD_COUNTS {
        let exec = Executor::new(Parallelism::new(threads)); // default threshold
        let out = bounded_simulation_with_oracle_on(&p, &g, &matrix, &exec);
        assert_eq!(out, sequential, "diverged at {threads} threads");
    }
}
