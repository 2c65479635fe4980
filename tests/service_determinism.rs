//! Determinism of the service: with identical inputs, the batch outcomes,
//! per-query delta streams, final results and `ServiceStats` are
//! **bit-for-bit identical** at 1, 2 and 8 worker threads.
//!
//! The oracle build and every match-state build (registration, resume) run
//! on the `gpm-exec` executor, while the per-batch repair-and-emit loop
//! walks the catalog sequentially in registration order, so scheduling
//! cannot leak into the output. Each run is a script of the service
//! simulator (`support::sim`): random seeds, pinned seeds on both
//! back-ends, and a graph large enough for the default policy to fan out.
//! (Per BENCHMARKS.md: a single-vCPU host verifies determinism, not
//! speedup.)

use gpm::exec::Parallelism;
use gpm::OracleBackend;
use proptest::prelude::*;

mod support;
use support::forced;
use support::sim::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batch outcomes, delta streams, final results and stats are identical
    /// at every forced thread count.
    #[test]
    fn delta_streams_are_bit_identical_across_thread_counts(
        seed in 0u64..5_000,
        rolls in 4usize..12,
    ) {
        let script = Script::generate(seed, 30, rolls);
        let baseline = run_inprocess(&script, OracleBackend::from_env(), forced(1), false);
        for threads in THREAD_COUNTS {
            let run = run_inprocess(&script, OracleBackend::from_env(), forced(threads), false);
            prop_assert_eq!(&run, &baseline, "diverged at {} threads", threads);
        }
    }
}

/// A script on a graph large enough to clear the *default* sequential
/// threshold where the hint is the graph (300 nodes: the oracle build and
/// the registration `Match` runs fan out). The per-query repair is a
/// sequential loop at every thread count.
#[test]
fn default_policy_session_agrees_with_sequential() {
    let script = Script::generate(99, 300, 12);
    let run = |threads| {
        run_inprocess(
            &script,
            OracleBackend::Matrix,
            Parallelism::new(threads),
            false,
        )
    };
    let sequential = run(1);
    for threads in THREAD_COUNTS {
        assert_eq!(run(threads), sequential, "diverged at {threads} threads");
    }
}

/// Pinned seeds on both back-ends: every run equals the one-worker matrix
/// run — outcomes, streams, results and stats — so each stream folds to the
/// same relation at every thread count, the live one (which `run_inprocess`
/// checks) for a query still active.
#[test]
fn folded_streams_agree_across_thread_counts() {
    for seed in [4242].into_iter().chain(SEEDS) {
        let script = Script::generate(seed, 40, 20);
        let base = run_inprocess(&script, OracleBackend::Matrix, forced(1), false);
        assert!(
            base.streams.iter().any(|s| s.len() > 1),
            "seed {seed:#x}: no subscriber was sent a delta"
        );
        for backend in OracleBackend::ALL {
            for threads in THREAD_COUNTS {
                let run = run_inprocess(&script, backend, forced(threads), false);
                assert_eq!(run, base, "seed {seed:#x}, {backend:?}, {threads} threads");
            }
        }
    }
}
