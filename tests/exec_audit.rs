//! The parallelism audit, pinned: batch maintenance runs on the caller
//! thread on both back-ends, whatever the executor allows.
//!
//! Neither `apply_batch` fans out. The 2-hop deletion rectangle used to run
//! its 64-row chunks on the executor and never ran faster at two threads
//! (ARCHITECTURE.md § `gpm-exec`). An executor region registers in the
//! `exec` scope of the `gpm-obs` registry, so a batch that reaches the
//! rectangle with three chunks of rows, on an executor forced to fan out
//! everything, must leave `exec.regions` at zero. The matrix build on the
//! same executor is the control: it does fan out.
//!
//! The registry is process-global, which is why this is a test binary of
//! its own with a single test.

use gpm::exec::{Executor, Parallelism};
use gpm::{DataGraph, DistanceMatrix, EdgeUpdate, NodeId, OracleBackend};

/// `exec.regions` since the last registry reset.
fn regions() -> u64 {
    let snapshot = gpm::obs::registry().snapshot();
    let exec = snapshot.scopes.get("exec");
    exec.and_then(|scope| scope.counters.get("regions"))
        .map_or(0, |counter| counter.value)
}

/// `fan` sources point at `s = 0`, `t = 1` points at `fan` sinks, and
/// `s → t` is the only way across, so deleting it changes every
/// source-to-sink pair: a rectangle of `fan + 1` rows on either side.
fn bridge(fan: u32) -> DataGraph {
    let mut edges = vec![(0, 1)];
    edges.extend((0..fan).map(|i| (2 + i, 0)));
    edges.extend((0..fan).map(|i| (1, 2 + fan + i)));
    DataGraph::from_edges(2 + 2 * fan as usize, &edges).unwrap()
}

#[test]
fn batch_maintenance_registers_no_executor_region_on_either_backend() {
    let exec = Executor::new(Parallelism::new(8).with_sequential_threshold(0));
    let fan = 140;
    let g0 = bridge(fan);
    let n = |i: u32| NodeId::new(i);
    // Mixed: the bridge goes, a sink gains a way back to a source, and one
    // more source gets a direct edge to `t`.
    let updates = [
        EdgeUpdate::Delete(n(0), n(1)),
        EdgeUpdate::Insert(n(2 + fan), n(2)),
        EdgeUpdate::Insert(n(3), n(1)),
    ];
    let mut g = g0.clone();
    for u in &updates {
        assert!(u.apply(&mut g), "{u:?} is effective");
    }

    gpm::obs::set_enabled(true);
    for backend in OracleBackend::ALL {
        let mut oracle = backend.build(&g0, &exec);
        gpm::obs::registry().reset();
        let aff1 = oracle.apply_batch(&g, &updates, &exec);
        assert!(
            aff1.len() >= 130 * 130,
            "{backend}: the deletion reaches the rectangle ({} pairs)",
            aff1.len()
        );
        assert_eq!(regions(), 0, "{backend}: apply_batch fanned out");
    }

    gpm::obs::registry().reset();
    let matrix = DistanceMatrix::build_with(&g, &exec);
    assert_eq!(matrix.node_count(), g.node_count());
    let control = regions();
    gpm::obs::set_enabled(false);
    assert!(control >= 1, "the matrix build registers its regions");
}
