//! Cross-crate consistency of incremental matching: after any stream of
//! updates, the incrementally maintained match equals a from-scratch run of
//! `Match` on the updated graph (and the maintained distance oracle answers
//! exactly like a freshly built matrix).
//!
//! These tests run on whichever backend `GPM_ORACLE` selects, so the CI
//! two-hop leg re-proves them against the label-based oracle.

use gpm::{
    bounded_simulation_with_oracle, generate_pattern, random_graph, random_updates, Dataset,
    DistanceMatrix, EdgeUpdate, IncrementalMatcher, MatchService, NodeId, OracleBackend,
    Parallelism, PatternGenConfig, PatternGraphBuilder, Predicate, RandomGraphConfig,
    UpdateStreamConfig,
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
fn assert_oracle_matches_rebuild(matcher: &IncrementalMatcher, ctx: &str) {
    let rebuilt = DistanceMatrix::build(matcher.graph());
    let n = matcher.graph().node_count() as u32;
    for x in (0..n).map(NodeId::new) {
        for y in (0..n).map(NodeId::new) {
            assert_eq!(
                matcher.oracle().nonempty_distance(matcher.graph(), x, y),
                rebuilt.nonempty_distance(x, y),
                "{ctx}: oracle diverged at ({x:?}, {y:?})"
            );
        }
    }
}

#[test]
fn incremental_matcher_tracks_batch_recompute_on_youtube() {
    let graph = Dataset::YouTube.generate(0.015, 11);
    let pattern = dag_pattern(&graph, 1);
    let mut matcher = IncrementalMatcher::new(pattern.clone(), graph.clone());

    for round in 0..4u64 {
        let updates = random_updates(
            matcher.graph(),
            &UpdateStreamConfig::mixed(40).with_seed(round + 100),
        );
        matcher.apply_batch(&updates);

        // Maintained oracle equals a rebuilt matrix.
        assert_oracle_matches_rebuild(&matcher, &format!("round {round}"));

        // Maintained match equals recomputation.
        let rebuilt = DistanceMatrix::build(matcher.graph());
        let recomputed = bounded_simulation_with_oracle(&pattern, matcher.graph(), &rebuilt);
        assert_eq!(
            matcher.relation(),
            recomputed.relation,
            "match diverged at round {round}"
        );
    }
    assert_eq!(matcher.recompute_fallbacks(), 0);
}

#[test]
fn unit_updates_match_batch_updates() {
    // Applying a stream one update at a time gives the same final state as
    // applying it as one batch.
    let graph = Dataset::PBlog.generate(0.03, 5);
    let pattern = dag_pattern(&graph, 2);
    let updates = random_updates(&graph, &UpdateStreamConfig::mixed(30).with_seed(9));

    let mut unit = IncrementalMatcher::new(pattern.clone(), graph.clone());
    for u in &updates {
        unit.apply(*u).unwrap();
    }

    let mut batch = IncrementalMatcher::new(pattern, graph);
    batch.apply_batch(&updates);

    assert_eq!(unit.relation(), batch.relation());
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
    let mut matcher = IncrementalMatcher::new(pattern, graph.clone());
    let initial = matcher.relation();

    // Delete a handful of edges, then re-insert them in reverse order.
    let victims: Vec<(gpm::NodeId, gpm::NodeId)> = graph.edges().take(12).collect();
    for &(a, b) in &victims {
        matcher.apply(EdgeUpdate::Delete(a, b)).unwrap();
    }
    for &(a, b) in victims.iter().rev() {
        matcher.apply(EdgeUpdate::Insert(a, b)).unwrap();
    }
    assert_eq!(
        matcher.relation(),
        initial,
        "round trip should restore the match"
    );
    assert_oracle_matches_rebuild(&matcher, "after round trip");
}

/// The two owners of a maintained match — the `IncrementalMatcher` facade
/// and a single-query `MatchService` — run one policy: on the same graph and
/// the same mixed stream of unit and batch updates they hold the same
/// relation after every step and fall back to recomputation on exactly the
/// same steps, for DAG and cyclic patterns, on both back-ends.
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

    let mut cyclic_fallbacks = 0;
    for seed in 0..4u64 {
        let graph = random_graph(&RandomGraphConfig::new(40, 90, 4).with_seed(seed));
        let updates = random_updates(&graph, &UpdateStreamConfig::mixed(36).with_seed(seed + 40));
        for backend in OracleBackend::ALL {
            for pattern in [&dag, &cyclic] {
                let policy = Parallelism::sequential();
                let mut matcher = IncrementalMatcher::with_backend(
                    pattern.clone(),
                    graph.clone(),
                    backend,
                    policy.clone(),
                );
                let mut service = MatchService::with_backend(graph.clone(), backend, policy);
                let id = service.register(pattern.clone());

                // Alternate one unit update with one batch of five.
                let mut rest = updates.as_slice();
                let mut step = 0;
                while !rest.is_empty() {
                    let take = if step % 2 == 0 { 1 } else { rest.len().min(5) };
                    let (now, later) = rest.split_at(take);
                    rest = later;
                    if let [unit] = now {
                        matcher.apply(*unit).unwrap();
                        service.apply_one(*unit);
                    } else {
                        matcher.apply_batch(now);
                        service.apply(now);
                    }
                    let ctx = format!("seed {seed}, {backend}, step {step}");
                    assert_eq!(Some(matcher.relation()), service.result(id), "{ctx}");
                    assert_eq!(
                        matcher.recompute_fallbacks(),
                        service.stats().recompute_fallbacks,
                        "{ctx}"
                    );
                    step += 1;
                }
                if pattern.is_dag() {
                    assert_eq!(matcher.recompute_fallbacks(), 0);
                } else {
                    cyclic_fallbacks += matcher.recompute_fallbacks();
                }
            }
        }
    }
    assert!(
        cyclic_fallbacks > 0,
        "the stream never exercised the fallback"
    );
}
