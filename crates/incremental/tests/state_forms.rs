//! `MatchState` keeps every set twice: membership flags (per slot, and as
//! bits of a `|V|`-bit row for lookups by node id) and a packed
//! ascending list. This property holds the two forms to each other after
//! every step of unit and batch update streams repaired on both distance
//! back-ends:
//!
//! * `matches_of(u)` is the ascending scan of `in_mat(u, ·)`;
//! * `candidates_of(u)` is the ascending scan of `in_can(u, ·)`;
//! * `relation()` is the scan-derived relation under the `∅` convention.

use gpm_core::{bounded_simulation_with_oracle, MatchRelation};
use gpm_datagen::{random_graph, random_updates, RandomGraphConfig, UpdateStreamConfig};
use gpm_distance::{EdgeUpdate, OracleBackend};
use gpm_exec::Executor;
use gpm_graph::{DataGraph, EdgeBound, NodeId, PatternGraph, PatternNodeId, Predicate};
use gpm_incremental::{repair_match_state, MatchState};
use proptest::prelude::*;

const NODES: usize = 30;
const LABELS: usize = 4;

/// `x:a0 -[xy]-> y:a1 -[yz]-> z:a2`, plus `x -[xz]-> z`; a bound of 0
/// stands for `*`.
fn dag_pattern(xy: u32, yz: u32, xz: u32) -> PatternGraph {
    let bound = |k: u32| {
        if k == 0 {
            EdgeBound::Unbounded
        } else {
            EdgeBound::Hops(k)
        }
    };
    let mut p = PatternGraph::new();
    let x = p.add_node(Predicate::label("a0"));
    let y = p.add_node(Predicate::label("a1"));
    let z = p.add_node(Predicate::label("a2"));
    p.add_edge(x, y, bound(xy)).unwrap();
    p.add_edge(y, z, bound(yz)).unwrap();
    p.add_edge(x, z, bound(xz)).unwrap();
    p
}

fn graph(seed: u64) -> DataGraph {
    random_graph(&RandomGraphConfig::new(NODES, 70, LABELS).with_seed(seed))
}

/// Checks both forms of `state` against each other over `nodes` data nodes.
fn check_forms(state: &MatchState, nodes: usize) -> Result<(), String> {
    let scan = |keep: &dyn Fn(NodeId) -> bool| -> Vec<NodeId> {
        (0..nodes as u32)
            .map(NodeId::new)
            .filter(|&v| keep(v))
            .collect()
    };
    let mut mat_sets = Vec::new();
    for ui in 0..state.pattern_node_count() {
        let u = PatternNodeId::new(ui as u32);
        let matched = scan(&|v| state.in_mat(u, v));
        prop_assert_eq!(state.matches_of(u), &matched[..], "matches_of({ui})");
        prop_assert_eq!(
            state.candidates_of(u).collect::<Vec<_>>(),
            scan(&|v| state.in_can(u, v)),
            "candidates_of({ui})"
        );
        mat_sets.push(matched);
    }
    let expected = if mat_sets.iter().all(|s| !s.is_empty()) {
        MatchRelation::from_sets(mat_sets)
    } else {
        MatchRelation::empty(state.pattern_node_count())
    };
    prop_assert_eq!(state.relation(), expected);
    Ok(())
}

/// Applies `updates` in batches of `batch` to a fresh service-like setup on
/// `backend`, repairing after each batch and checking the forms (and the
/// result against a recompute) every time.
fn repair_stream(
    backend: OracleBackend,
    pattern: &PatternGraph,
    mut g: DataGraph,
    updates: &[EdgeUpdate],
    batch: usize,
) -> Result<(), String> {
    let exec = Executor::sequential();
    let mut oracle = backend.build(&g, &exec);
    let mut state = MatchState::initialise_with(pattern, &g, oracle.as_ref(), &exec);
    check_forms(&state, g.node_count())?;
    for chunk in updates.chunks(batch) {
        let applied: Vec<EdgeUpdate> = chunk.iter().copied().filter(|u| u.apply(&mut g)).collect();
        let aff1 = oracle.apply_batch(&g, &applied, &exec);
        repair_match_state(pattern, &g, oracle.as_ref(), &mut state, &aff1)
            .unwrap_or_else(|never| match never {});
        check_forms(&state, g.node_count())?;
        prop_assert_eq!(
            state.relation(),
            bounded_simulation_with_oracle(pattern, &g, oracle.as_ref()).relation,
            "{} after a batch of {}",
            backend.name(),
            applied.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unit (`batch = 1`) and batch update streams through
    /// `repair_match_state`, on the matrix and the 2-hop back-end.
    #[test]
    fn repaired_states_keep_both_forms_equal(
        seed in 0u64..1_000,
        count in 4usize..24,
        batch in 1usize..6,
        bounds in (0u32..4, 1u32..4, 0u32..5),
    ) {
        let g = graph(seed);
        let p = dag_pattern(bounds.0, bounds.1, bounds.2);
        let updates = random_updates(&g, &UpdateStreamConfig::mixed(count).with_seed(seed + 1));
        for backend in [OracleBackend::Matrix, OracleBackend::TwoHop] {
            repair_stream(backend, &p, g.clone(), &updates, batch)?;
        }
    }
}
