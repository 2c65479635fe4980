//! End-to-end integration tests across the whole stack: dataset generation,
//! distance oracles, bounded simulation, result graphs and serialization.

use gpm::{
    bounded_simulation, bounded_simulation_with_oracle, generate_pattern, BfsOracle, DataGraph,
    Dataset, DistanceMatrix, PatternGenConfig, PatternGraph, ResultGraph, TwoHopOracle,
};

#[test]
fn youtube_pipeline_end_to_end() {
    // Generate a small simulated YouTube graph, generate patterns against it,
    // match them, and validate every result against the definition.
    let graph = Dataset::YouTube.generate(0.02, 42);
    let matrix = DistanceMatrix::build(&graph);
    assert_eq!(matrix.node_count(), graph.node_count());

    let mut matched_patterns = 0;
    for seed in 0..6u64 {
        let cfg = PatternGenConfig::new(4, 4, 3).with_seed(seed);
        let (pattern, _) = generate_pattern(&graph, &cfg);
        let outcome = bounded_simulation_with_oracle(&pattern, &graph, &matrix);

        // The relation always satisfies the definition of a match.
        assert!(outcome.relation.is_valid_match(&pattern, &graph, &matrix));

        if outcome.relation.is_match(&pattern) {
            matched_patterns += 1;
            let rg = ResultGraph::build(&pattern, &graph, &outcome.relation);
            assert_eq!(rg.pair_count(), outcome.relation.pair_count());
            assert!(rg.node_count() <= graph.node_count());
            // Every result edge witnesses at least one pattern edge.
            for e in rg.edges() {
                assert!(!e.pattern_edges.is_empty());
            }
        }
    }
    // The generator is biased towards positive patterns, so most must match.
    assert!(
        matched_patterns >= 2,
        "only {matched_patterns}/6 patterns matched"
    );
}

#[test]
fn all_three_oracles_agree_on_every_dataset() {
    for dataset in Dataset::ALL {
        let graph = dataset.generate(0.01, 7);
        let matrix = DistanceMatrix::build(&graph);
        let two_hop = TwoHopOracle::build(&graph);
        let bfs = BfsOracle::new();
        for seed in 0..3u64 {
            let cfg = PatternGenConfig::new(4, 4, 3).with_seed(seed);
            let (pattern, _) = generate_pattern(&graph, &cfg);
            let a = bounded_simulation_with_oracle(&pattern, &graph, &matrix);
            let b = bounded_simulation_with_oracle(&pattern, &graph, &two_hop);
            let c = bounded_simulation_with_oracle(&pattern, &graph, &bfs);
            assert_eq!(
                a.relation, b.relation,
                "{dataset} seed {seed}: matrix vs 2-hop"
            );
            assert_eq!(
                a.relation, c.relation,
                "{dataset} seed {seed}: matrix vs BFS"
            );
        }
    }
}

#[test]
fn graph_serialization_roundtrip_preserves_matching() {
    let graph = Dataset::PBlog.generate(0.02, 3);
    let json = serde_json::to_string(&graph).unwrap();
    let restored = serde_json::from_str::<DataGraph>(&json).unwrap();

    let cfg = PatternGenConfig::new(3, 3, 2).with_seed(5);
    let (pattern, _) = generate_pattern(&graph, &cfg);
    let original = bounded_simulation(&pattern, &graph);
    let after = bounded_simulation(&pattern, &restored);
    assert_eq!(original.relation, after.relation);

    use gpm::graph::dataset::{dataset_attrs_string, dataset_edges_string, read_dataset_strs};
    let (edges, attrs) = (
        dataset_edges_string(&graph),
        dataset_attrs_string(&graph).unwrap(),
    );
    let (restored, _, _) = read_dataset_strs(&edges, &attrs).unwrap();
    let after = bounded_simulation(&pattern, &restored);
    assert_eq!(original.relation, after.relation);
}

#[test]
fn pattern_serialization_roundtrip() {
    let graph = Dataset::Matter.generate(0.01, 9);
    let (pattern, _) = generate_pattern(&graph, &PatternGenConfig::new(5, 6, 3).with_seed(1));
    let json = serde_json::to_string(&pattern).unwrap();
    let restored = serde_json::from_str::<PatternGraph>(&json).unwrap();
    let a = bounded_simulation(&pattern, &graph);
    let b = bounded_simulation(&restored, &graph);
    assert_eq!(a.relation, b.relation);
}
