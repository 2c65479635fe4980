//! Cross-crate consistency of incremental matching: after any stream of
//! updates, the incrementally maintained match equals a from-scratch run of
//! `Match` on the updated graph (and the maintained distance oracle answers
//! exactly like a freshly built matrix).
//!
//! These tests run on whichever backend `GPM_ORACLE` selects, so the CI
//! two-hop leg re-proves them against the label-based oracle.

use gpm::{
    bounded_simulation_with_oracle, generate_pattern, inc_match, match_minus, match_plus,
    random_graph, random_updates, Dataset, DistanceMatrix, EdgeUpdate, Executor, MatchService,
    MatchState, NodeId, OracleBackend, Parallelism, PatternGenConfig, PatternGraphBuilder,
    Predicate, RandomGraphConfig, UpdateStreamConfig,
};

fn dag_pattern(graph: &gpm::DataGraph, seed: u64) -> gpm::PatternGraph {
    for attempt in 0..32 {
        let cfg = PatternGenConfig::new(4, 4, 3).with_seed(seed + attempt * 101);
        let (p, _) = generate_pattern(graph, &cfg);
        if p.is_dag() {
            return p;
        }
    }
    panic!("could not generate a DAG pattern");
}

/// The maintained oracle answers every pair exactly like a matrix rebuilt
/// from scratch on the updated graph.
fn assert_oracle_matches_rebuild(svc: &MatchService, ctx: &str) {
    let rebuilt = DistanceMatrix::build(svc.graph());
    let n = svc.graph().node_count() as u32;
    for x in (0..n).map(NodeId::new) {
        for y in (0..n).map(NodeId::new) {
            assert_eq!(
                svc.oracle().nonempty_distance(svc.graph(), x, y),
                rebuilt.nonempty_distance(x, y),
                "{ctx}: oracle diverged at ({x:?}, {y:?})"
            );
        }
    }
}

/// Applies one update that must take effect.
fn apply_unit(svc: &mut MatchService, update: EdgeUpdate) {
    assert_eq!(svc.apply_one(update).applied, 1, "{update} must apply");
}

#[test]
fn incremental_matcher_tracks_batch_recompute_on_youtube() {
    let graph = Dataset::YouTube.generate(0.015, 11);
    let pattern = dag_pattern(&graph, 1);
    let mut svc = MatchService::new(graph);
    let q = svc.register(pattern.clone());

    let mut changed = 0;
    for round in 0..4u64 {
        let updates = random_updates(
            svc.graph(),
            &UpdateStreamConfig::mixed(40).with_seed(round + 100),
        );
        changed += usize::from(svc.apply(&updates).aff1 > 0);

        // Maintained oracle equals a rebuilt matrix.
        assert_oracle_matches_rebuild(&svc, &format!("round {round}"));

        // Maintained match equals recomputation.
        let rebuilt = DistanceMatrix::build(svc.graph());
        let recomputed = bounded_simulation_with_oracle(&pattern, svc.graph(), &rebuilt);
        assert_eq!(
            svc.result(q).unwrap(),
            recomputed.relation,
            "match diverged at round {round}"
        );
    }
    // Every batch that moved a distance was repaired, none rebuilt.
    assert_eq!(svc.stats().repairs, changed);
}

#[test]
fn unit_updates_match_batch_updates() {
    // Applying a stream one update at a time gives the same final state as
    // applying it as one batch.
    let graph = Dataset::PBlog.generate(0.03, 5);
    let pattern = dag_pattern(&graph, 2);
    let updates = random_updates(&graph, &UpdateStreamConfig::mixed(30).with_seed(9));

    let mut unit = MatchService::new(graph.clone());
    let unit_q = unit.register(pattern.clone());
    for u in &updates {
        apply_unit(&mut unit, *u);
    }

    let mut batch = MatchService::new(graph);
    let batch_q = batch.register(pattern);
    batch.apply(&updates);

    assert_eq!(unit.result(unit_q), batch.result(batch_q));
    assert_eq!(unit.graph().edge_count(), batch.graph().edge_count());
    let n = unit.graph().node_count() as u32;
    for x in (0..n).map(NodeId::new) {
        for y in (0..n).map(NodeId::new) {
            assert_eq!(
                unit.oracle().nonempty_distance(unit.graph(), x, y),
                batch.oracle().nonempty_distance(batch.graph(), x, y),
                "unit/batch oracles diverged at ({x:?}, {y:?})"
            );
        }
    }
}

#[test]
fn deletions_then_reinsertions_restore_the_match() {
    let graph = Dataset::Matter.generate(0.01, 21);
    let pattern = dag_pattern(&graph, 3);
    let mut svc = MatchService::new(graph.clone());
    let q = svc.register(pattern);
    let initial = svc.result(q).unwrap();

    // Delete a handful of edges, then re-insert them in reverse order.
    let victims: Vec<(gpm::NodeId, gpm::NodeId)> = graph.edges().take(12).collect();
    for &(a, b) in &victims {
        apply_unit(&mut svc, EdgeUpdate::Delete(a, b));
    }
    for &(a, b) in victims.iter().rev() {
        apply_unit(&mut svc, EdgeUpdate::Insert(a, b));
    }
    assert_eq!(
        svc.result(q).unwrap(),
        initial,
        "round trip should restore the match"
    );
    assert_oracle_matches_rebuild(&svc, "after round trip");
}

/// One owner of a maintained match: a single-query `MatchService` repairs
/// every pattern with one kernel, which on a DAG is the paper's. On the same
/// graph and the same mixed stream of unit and batch updates, on both
/// back-ends, it holds after every step
///
/// * for a DAG pattern: exactly what `Match−`/`Match+`/`IncMatch` hold on
///   their own graph, oracle and state;
/// * for a cyclic pattern: a from-scratch `Match` — across bound-crossing
///   distance decreases, which the paper's algorithms refuse, somewhere in
///   the stream.
///
/// Every step that moves a distance counts one repair.
#[test]
fn matcher_and_single_query_service_share_one_policy() {
    let (dag, _) = PatternGraphBuilder::new()
        .node("x", Predicate::label("a0"))
        .node("y", Predicate::label("a1"))
        .node("z", Predicate::label("a2"))
        .edge("x", "y", 2u32)
        .edge("y", "z", 3u32)
        .build()
        .unwrap();
    let (cyclic, _) = PatternGraphBuilder::new()
        .node("x", Predicate::label("a0"))
        .node("y", Predicate::label("a1"))
        .edge("x", "y", 2u32)
        .edge("y", "x", 2u32)
        .build()
        .unwrap();
    assert!(dag.is_dag() && !cyclic.is_dag());

    let exec = Executor::sequential();
    let crosses = gpm::incremental::crosses_a_bound(&cyclic);
    let mut cyclic_crossing_decreases = 0;
    for seed in 0..4u64 {
        let graph = random_graph(&RandomGraphConfig::new(40, 90, 4).with_seed(seed));
        let updates = random_updates(&graph, &UpdateStreamConfig::mixed(36).with_seed(seed + 40));
        for backend in OracleBackend::ALL {
            for pattern in [&dag, &cyclic] {
                let policy = Parallelism::sequential();
                let mut service = MatchService::with_backend(graph.clone(), backend, policy);
                let id = service.register(pattern.clone());
                // The paper's algorithms on a (graph, oracle, state) of their own.
                let mut g = graph.clone();
                let mut oracle = backend.build(&g, &exec);
                let mut state = MatchState::initialise_with(pattern, &g, oracle.as_ref(), &exec);

                // Alternate one unit update with one batch of five.
                let mut rest = updates.as_slice();
                let (mut step, mut changed) = (0, 0);
                while !rest.is_empty() {
                    let take = if step % 2 == 0 { 1 } else { rest.len().min(5) };
                    let (now, later) = rest.split_at(take);
                    rest = later;
                    let outcome = if let [unit] = now {
                        service.apply_one(*unit)
                    } else {
                        service.apply(now)
                    };
                    changed += usize::from(outcome.aff1 > 0);
                    let ctx = format!("seed {seed}, {backend}, step {step}");
                    let expected = if pattern.is_dag() {
                        let o = oracle.as_mut();
                        match now {
                            [EdgeUpdate::Delete(a, b)] => {
                                match_minus(pattern, &mut g, o, &mut state, *a, *b, &exec)
                            }
                            [EdgeUpdate::Insert(a, b)] => {
                                match_plus(pattern, &mut g, o, &mut state, *a, *b, &exec)
                            }
                            batch => inc_match(pattern, &mut g, o, &mut state, batch, &exec),
                        }
                        .unwrap();
                        state.relation()
                    } else {
                        let applied: Vec<EdgeUpdate> =
                            now.iter().copied().filter(|u| u.apply(&mut g)).collect();
                        let aff1 = oracle.apply_batch(&g, &applied, &exec);
                        cyclic_crossing_decreases +=
                            usize::from(aff1.iter().any(|p| !p.increased() && crosses(p)));
                        let fresh = DistanceMatrix::build(service.graph());
                        bounded_simulation_with_oracle(pattern, service.graph(), &fresh).relation
                    };
                    assert_eq!(Some(expected), service.result(id), "{ctx}");
                    assert_eq!(service.stats().repairs, changed, "{ctx}");
                    step += 1;
                }
            }
        }
    }
    assert!(
        cyclic_crossing_decreases > 0,
        "the stream never moved a distance of the cyclic pattern across a bound downwards"
    );
}
