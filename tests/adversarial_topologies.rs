//! Adversarial topologies for the distance back-ends: the deterministic
//! worst-case generators from `gpm::datagen::adversarial` driven through
//! both maintainable oracles, asserting (a) bit-identical behaviour — every
//! `AFF1` and, after every update, all `|V|²` distances of the matrix, the
//! maintained labels and a fresh 2-hop build — and (b) *how much work* the
//! 2-hop backend's in-place repair does. Nothing rebuilds
//! ([`gpm::DistanceOracle::rebuilds`] stays 0 everywhere); what degrades on
//! a bad topology is the size of the affected rectangle, pinned here through
//! the deterministic obs counter `oracle.twohop.delete_candidates` (the
//! pairs whose label entries a deletion re-decides).
//!
//! The degradation map these tests pin down:
//!
//! | script | affected rectangle `A × B` per deletion | candidate pairs |
//! |--------|------------------------------------------|-----------------|
//! | insertions (any topology) | — (resumed pruned BFS) | 0 |
//! | cut chain at the head (`k = 0`) | `{head}` × the other 63 nodes | 63 |
//! | cut chain mid-way (`k = 31`) | prefix × suffix, `32 × 32` — the honest worst case | 1 024 |
//! | delete every hub→leaf star edge | `{hub, other leaves}` × `{leaf}` | 24 per edge |
//! | cut a clique bridge | everything upstream × everything downstream, `10 × 5` | 50 |
//! | sever a bowtie `source → waist` edge | `{source}` × `{waist, sinks}` | 13 |
//! | sever every bowtie `waist → sink` edge | `{waist, sources}` × `{sink}` | 13 per edge |
//!
//! A batch ([`gpm::DistanceOracle::apply_batch`]) replays its units one by
//! one, so it pays exactly what unit-by-unit application pays; the two
//! teardown-batch tests at the bottom pin that down.
//!
//! The test names are the ones the suite has always had (the test floor
//! tracks them by name): where one says "rebuild", read "the case that used
//! to cost a rebuild".

use gpm::datagen::{
    bowtie, cliques_with_bridges, cut_bridge_updates, cut_chain_updates, deep_chain,
    delete_hub_updates, grid, sever_waist_updates, star,
};
use gpm::{DataGraph, DistanceOracle, EdgeUpdate, Executor, NodeId, OracleBackend, Parallelism};
use std::sync::Mutex;

fn exec() -> Executor {
    Executor::new(Parallelism::new(2).with_sequential_threshold(0))
}

/// Runs `f` with observability on and a zeroed registry, returning what it
/// added to `oracle.twohop.delete_candidates`. The registry and the enabled
/// flag are process-global, so every test of this binary runs under one
/// lock, as in `tests/observability.rs`.
fn counting_candidates<R>(f: impl FnOnce() -> R) -> (R, u64) {
    static LOCK: Mutex<()> = Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let was_enabled = gpm::obs::enabled();
    gpm::obs::set_enabled(true);
    gpm::obs::registry().reset();
    let result = f();
    let counters = gpm::obs::registry().snapshot().det_counters();
    gpm::obs::set_enabled(was_enabled);
    let candidates = counters
        .get("oracle.twohop.delete_candidates")
        .copied()
        .unwrap_or(0);
    (result, candidates)
}

fn assert_backends_agree(
    g: &DataGraph,
    matrix: &dyn DistanceOracle,
    two_hop: &dyn DistanceOracle,
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

/// The matrix, the maintained labels and a fresh 2-hop build all answer
/// every pair identically, and nothing has rebuilt.
fn assert_exact(
    g: &DataGraph,
    matrix: &dyn DistanceOracle,
    two_hop: &dyn DistanceOracle,
    ctx: &str,
) {
    assert_backends_agree(g, matrix, two_hop, ctx);
    let fresh = OracleBackend::TwoHop.build(g, &exec());
    assert_backends_agree(g, matrix, fresh.as_ref(), &format!("{ctx} (fresh build)"));
    assert_eq!(matrix.rebuilds(), 0, "{ctx}: the matrix never falls back");
    assert_eq!(two_hop.rebuilds(), 0, "{ctx}: the labels repair in place");
}

/// `AFF1` as a canonically ordered set.
fn sorted_aff(aff: &gpm::distance::AffectedPairs) -> Vec<(u32, u32, u16, u16)> {
    let mut v: Vec<_> = aff
        .iter()
        .map(|p| (p.source.0, p.sink.0, p.old, p.new))
        .collect();
    v.sort_unstable();
    v
}

/// Drives `script` unit-by-unit through both back-ends on `g`, asserting
/// identical `AFF1` and [`assert_exact`] after every update; returns the
/// candidate pairs the 2-hop deletions re-decided.
fn drive(mut g: DataGraph, script: &[EdgeUpdate], label: &str) -> u64 {
    let exec = exec();
    let ((), candidates) = counting_candidates(|| {
        let mut matrix = OracleBackend::Matrix.build(&g, &exec);
        let mut two_hop = OracleBackend::TwoHop.build(&g, &exec);
        assert_backends_agree(
            &g,
            matrix.as_ref(),
            two_hop.as_ref(),
            &format!("{label}: initial"),
        );

        for (i, u) in script.iter().enumerate() {
            assert!(
                u.apply(&mut g),
                "{label}: script update {i} ({u}) must apply"
            );
            let (aff_m, aff_t) = (
                matrix.apply_batch(&g, &[*u], &exec),
                two_hop.apply_batch(&g, &[*u], &exec),
            );
            assert_eq!(
                sorted_aff(&aff_m),
                sorted_aff(&aff_t),
                "{label}: AFF1 diverged at update {i} ({u})"
            );
            assert_exact(
                &g,
                matrix.as_ref(),
                two_hop.as_ref(),
                &format!("{label}: after update {i}"),
            );
        }
    });
    candidates
}

/// Applies `script` to `g0` as **one** batch on both back-ends, asserting
/// identical `AFF1` and [`assert_exact`]; returns the final graph, the
/// maintained 2-hop oracle and the candidate pairs.
fn drive_batch(
    g0: &DataGraph,
    script: &[EdgeUpdate],
    label: &str,
) -> (DataGraph, Box<dyn DistanceOracle + Send + Sync>, u64) {
    let exec = exec();
    let ((g, two_hop), candidates) = counting_candidates(|| {
        let mut g = g0.clone();
        let mut matrix = OracleBackend::Matrix.build(g0, &exec);
        let mut two_hop = OracleBackend::TwoHop.build(g0, &exec);
        for u in script {
            assert!(u.apply(&mut g));
        }
        let aff_m = matrix.apply_batch(&g, script, &exec);
        let aff_t = two_hop.apply_batch(&g, script, &exec);
        assert_eq!(
            sorted_aff(&aff_m),
            sorted_aff(&aff_t),
            "{label}: batch AFF1 diverged"
        );
        assert_exact(&g, matrix.as_ref(), two_hop.as_ref(), label);
        (g, two_hop)
    });
    (g, two_hop, candidates)
}

/// Cutting the chain at its head only changes the head's own row: nothing
/// reaches the head, so `A = {head}` and one BFS row settles the rectangle.
#[test]
fn chain_cut_at_head_repairs_in_place() {
    let candidates = drive(deep_chain(64), &cut_chain_updates(64, 0), "chain k=0");
    assert_eq!(candidates, 63, "the head lost every other node");
}

/// Cutting the chain mid-way invalidates the distance of every upstream
/// node to every node past the cut — the honest worst case of in-place
/// repair: the rectangle is a quarter of all pairs and all of it changes.
#[test]
fn chain_cut_midway_decides_prefix_times_suffix() {
    let candidates = drive(deep_chain(64), &cut_chain_updates(64, 31), "chain k=31");
    assert_eq!(candidates, 32 * 32, "prefix × suffix");
}

/// Deleting the star hub's out-edges one by one strands one leaf per
/// deletion while the remaining leaves still reach the hub: every deletion
/// changes the column of its leaf — the hub and the other leaves — and
/// nothing else.
#[test]
fn star_hub_teardown_decides_one_column_per_deletion() {
    const LEAVES: usize = 24;
    let candidates = drive(star(LEAVES), &delete_hub_updates(LEAVES), "star hub");
    assert_eq!(
        candidates,
        (LEAVES * LEAVES) as u64,
        "{{hub, other leaves}} × {{leaf}} per hub-edge deletion"
    );
}

/// Cutting a bridge between cliques disconnects everything upstream from
/// everything downstream, after which all three oracles agree the
/// components are mutually unreachable.
#[test]
fn clique_bridge_cut_decides_upstream_cliques_times_downstream() {
    const CLIQUES: usize = 3;
    const SIZE: usize = 5;
    let candidates = drive(
        cliques_with_bridges(CLIQUES, SIZE),
        &cut_bridge_updates(CLIQUES, SIZE, 1),
        "bridge q=1",
    );
    assert_eq!(
        candidates,
        (2 * SIZE * SIZE) as u64,
        "the two cliques before the bridge × the one past it"
    );
}

/// Severing a bowtie's out-wing strands one sink per deletion from the
/// waist *and* every source at once — like the star teardown, each edge
/// changes one whole column.
#[test]
fn bowtie_waist_severing_decides_one_column_per_sink() {
    const WING: usize = 12;
    let candidates = drive(bowtie(WING), &sever_waist_updates(WING), "bowtie out-wing");
    assert_eq!(
        candidates,
        (WING * (WING + 1)) as u64,
        "{{waist, sources}} × {{sink}} per waist→sink deletion"
    );
}

/// Severing a single `source → waist` edge mirrors the chain's head cut:
/// the bowtie sources have in-degree 0, so only the severed source's own
/// row changes.
#[test]
fn bowtie_source_cut_repairs_in_place() {
    const WING: usize = 12;
    let script = [EdgeUpdate::Delete(NodeId::new(3), NodeId::new(0))];
    let candidates = drive(bowtie(WING), &script, "bowtie in-wing");
    assert_eq!(
        candidates,
        (WING + 1) as u64,
        "{{source}} × {{waist, sinks}}"
    );
}

/// Insertions never touch the deletion path, even on the high-diameter grid
/// where a single shortcut changes a quadratic number of distances.
#[test]
fn grid_shortcut_insertions_decide_no_deletion_pair() {
    const ROWS: usize = 8;
    const COLS: usize = 8;
    let g = grid(ROWS, COLS);
    // Diagonal shortcuts (r, c) → (r+1, c+1) down the main diagonal: each
    // one halves a stretch of grid detours.
    let script: Vec<EdgeUpdate> = (0..ROWS.min(COLS) - 1)
        .map(|i| {
            EdgeUpdate::Insert(
                NodeId::new((i * COLS + i) as u32),
                NodeId::new(((i + 1) * COLS + i + 1) as u32),
            )
        })
        .collect();
    let candidates = drive(g, &script, "grid diagonal");
    assert_eq!(candidates, 0, "insert repair re-decides no deletion pair");
}

/// Worst-case scripts applied through the *batch* surface give the same
/// end state as unit application (the star teardown ends with every leaf
/// pair unreachable and hub→leaf gone, leaf→hub intact) and pay the same
/// work: one column per edge.
#[test]
fn star_teardown_batch_matches_unit_semantics() {
    const LEAVES: usize = 12;
    let (g, oracle, candidates) =
        drive_batch(&star(LEAVES), &delete_hub_updates(LEAVES), "star batch");

    let hub = NodeId::new(0);
    for leaf in (1..=LEAVES as u32).map(NodeId::new) {
        assert_eq!(
            oracle.nonempty_distance(&g, hub, leaf),
            None,
            "hub must no longer reach {leaf:?}"
        );
        assert_eq!(
            oracle.nonempty_distance(&g, leaf, hub),
            Some(1),
            "leaf→hub edges survive the teardown"
        );
    }
    assert_eq!(candidates, (LEAVES * LEAVES) as u64);
}

/// The bowtie waist teardown — E deletions in one batch, each of which used
/// to force a rebuild: the batch `AFF1` matches the matrix as a set, every
/// pair agrees, and the work is E columns, as unit by unit.
#[test]
fn bowtie_waist_teardown_batch_decides_one_column_per_sink() {
    const WING: usize = 12;
    let script = sever_waist_updates(WING);
    assert!(script.len() > 1, "the batch must contain E > 1 deletions");
    assert!(script.iter().all(|u| !u.is_insert()));
    let (_, _, candidates) = drive_batch(&bowtie(WING), &script, "bowtie batch");
    assert_eq!(candidates, (WING * (WING + 1)) as u64);
}
