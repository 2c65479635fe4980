//! Smoke tests at moderately large sizes: the full pipeline stays correct and
//! finishes quickly enough to live in the normal test suite. (The real
//! scalability study is the benchmark harness in `crates/bench`.)

use gpm::{
    bounded_simulation_with_oracle, generate_pattern, graph_simulation, inc_match, random_graph,
    random_updates, DistanceMatrix, Executor, MatchState, OracleBackend, Parallelism,
    PatternGenConfig, RandomGraphConfig, UpdateStreamConfig,
};

#[test]
fn match_on_a_five_thousand_edge_graph() {
    let graph = random_graph(&RandomGraphConfig::new(2_000, 5_000, 40).with_seed(77));
    let matrix = DistanceMatrix::build_with(&graph, &Executor::new(Parallelism::new(4)));
    assert_eq!(matrix.node_count(), 2_000);

    let mut matched = 0;
    for seed in 0..4u64 {
        // Spanning-structure patterns (|Ep| = |Vp| - 1) are positive by
        // construction, so at least some of them must match.
        let (pattern, _) =
            generate_pattern(&graph, &PatternGenConfig::new(6, 5, 3).with_seed(seed));
        let outcome = bounded_simulation_with_oracle(&pattern, &graph, &matrix);
        assert!(outcome.relation.is_valid_match(&pattern, &graph, &matrix));
        if outcome.relation.is_match(&pattern) {
            matched += 1;
        }
    }
    assert!(matched >= 1, "at least one generated pattern should match");
}

#[test]
fn parallel_and_sequential_matrix_agree_at_scale() {
    let graph = random_graph(&RandomGraphConfig::new(1_200, 4_800, 25).with_seed(3));
    let seq = DistanceMatrix::build(&graph);
    let par = DistanceMatrix::build_with(&graph, &Executor::new(Parallelism::new(8)));
    assert_eq!(seq, par);
}

#[test]
fn graph_simulation_scales_without_distance_matrix() {
    // Plain simulation needs no distance matrix, so it can run on a larger
    // graph comfortably inside a unit-test budget.
    let graph = random_graph(&RandomGraphConfig::new(20_000, 60_000, 100).with_seed(5));
    let (pattern, _) = generate_pattern(
        &graph,
        &PatternGenConfig {
            max_bound: 1,
            bound_variation: 0,
            unbounded_probability: 0.0,
            ..PatternGenConfig::new(5, 5, 1).with_seed(8)
        },
    );
    let outcome = graph_simulation(&pattern, &graph);
    // Either it matches or it does not, but it must terminate and be
    // internally consistent.
    assert_eq!(outcome.relation.pattern_node_count(), 5);
}

#[test]
fn incremental_maintenance_over_a_long_update_stream() {
    let graph = random_graph(&RandomGraphConfig::new(800, 2_400, 12).with_seed(10));
    // DAG pattern for IncMatch; advance the seed until one comes out acyclic.
    let pattern = (31..)
        .map(|seed| generate_pattern(&graph, &PatternGenConfig::new(4, 4, 3).with_seed(seed)).0)
        .find(|p| p.is_dag())
        .expect("some seed yields a DAG pattern");
    let exec = Executor::from_env();
    let mut g = graph.clone();
    let mut oracle = OracleBackend::from_env().build(&g, &exec);
    let mut state = MatchState::initialise_with(&pattern, &g, oracle.as_ref(), &exec);
    let updates = random_updates(&graph, &UpdateStreamConfig::mixed(300).with_seed(13));
    inc_match(
        &pattern,
        &mut g,
        oracle.as_mut(),
        &mut state,
        &updates,
        &exec,
    )
    .unwrap();

    let rebuilt = DistanceMatrix::build(&g);
    let recomputed = bounded_simulation_with_oracle(&pattern, &g, &rebuilt);
    assert_eq!(state.relation(), recomputed.relation);
}
