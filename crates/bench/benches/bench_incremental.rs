//! Criterion micro-benchmarks for incremental matching: `IncMatch` on small
//! batches vs recomputing `Match` (including the distance matrix), the
//! micro view behind Figs. 6(i)–(k).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpm::{
    bounded_simulation_with_oracle, inc_match, random_graph, random_updates, DistanceMatrix,
    Executor, MatchState, PatternGraphBuilder, Predicate, RandomGraphConfig, UpdateStreamConfig,
};

fn dag_pattern() -> gpm::PatternGraph {
    let (p, _) = PatternGraphBuilder::new()
        .node("x", Predicate::label("a0"))
        .node("y", Predicate::label("a1"))
        .node("z", Predicate::label("a2"))
        .edge("x", "y", 2u32)
        .edge("y", "z", 3u32)
        .build()
        .unwrap();
    p
}

fn bench_incremental_vs_batch(c: &mut Criterion) {
    let graph = random_graph(&RandomGraphConfig::new(1_500, 4_500, 10).with_seed(6));
    let pattern = dag_pattern();
    let exec = Executor::from_env();
    let matrix = DistanceMatrix::build_with(&graph, &exec);
    let state = MatchState::initialise_with(&pattern, &graph, &matrix, &exec);

    let mut group = c.benchmark_group("incremental/batch-size");
    group.sample_size(10);
    for delta in [8usize, 32, 128] {
        let updates = random_updates(&graph, &UpdateStreamConfig::mixed(delta).with_seed(9));
        group.bench_with_input(BenchmarkId::new("IncMatch", delta), &updates, |b, ups| {
            b.iter(|| {
                let (mut g, mut m, mut s) = (graph.clone(), matrix.clone(), state.clone());
                inc_match(&pattern, &mut g, &mut m, &mut s, ups, &exec).unwrap()
            });
        });
        group.bench_with_input(
            BenchmarkId::new("Match recompute", delta),
            &updates,
            |b, ups| {
                b.iter(|| {
                    let mut g = graph.clone();
                    for u in ups {
                        u.apply(&mut g);
                    }
                    let matrix = DistanceMatrix::build(&g);
                    bounded_simulation_with_oracle(&pattern, &g, &matrix)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_incremental_vs_batch);
criterion_main!(benches);
