//! Criterion micro-benchmarks for the distance substrate: matrix
//! construction (sequential vs parallel), 2-hop label construction, and
//! incremental maintenance vs full rebuild for unit updates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpm::{
    random_graph, DistanceMatrix, DistanceOracle as _, EdgeUpdate, Executor, NodeId, Parallelism,
    RandomGraphConfig, TwoHopIndex,
};

fn bench_matrix_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance/matrix-build");
    group.sample_size(10);
    for nodes in [500usize, 1_500] {
        let graph = random_graph(&RandomGraphConfig::new(nodes, nodes * 3, 20).with_seed(3));
        group.bench_with_input(BenchmarkId::new("sequential", nodes), &graph, |b, g| {
            b.iter(|| DistanceMatrix::build(g));
        });
        group.bench_with_input(BenchmarkId::new("parallel", nodes), &graph, |b, g| {
            let exec = Executor::new(Parallelism::new(4));
            b.iter(|| DistanceMatrix::build_with(g, &exec));
        });
    }
    group.finish();
}

fn bench_two_hop_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance/two-hop-build");
    group.sample_size(10);
    for nodes in [500usize, 1_500] {
        let graph = random_graph(&RandomGraphConfig::new(nodes, nodes * 3, 20).with_seed(4));
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &graph, |b, g| {
            b.iter(|| TwoHopIndex::build(g));
        });
    }
    group.finish();
}

fn bench_incremental_vs_rebuild(c: &mut Criterion) {
    let nodes = 1_000usize;
    let graph = random_graph(&RandomGraphConfig::new(nodes, nodes * 3, 20).with_seed(5));
    let matrix = DistanceMatrix::build(&graph);
    // A fresh edge to insert and an existing edge to delete.
    let insert = {
        let mut found = None;
        'outer: for a in 0..nodes as u32 {
            for b in 0..nodes as u32 {
                if !graph.has_edge(NodeId::new(a), NodeId::new(b)) {
                    found = Some((NodeId::new(a), NodeId::new(b)));
                    break 'outer;
                }
            }
        }
        found.unwrap()
    };
    let delete = graph.edges().next().unwrap();

    let exec = Executor::from_env();
    let mut group = c.benchmark_group("distance/unit-update");
    group.sample_size(10);
    group.bench_function("UpdateM insert", |b| {
        b.iter(|| {
            let mut g = graph.clone();
            let mut m = matrix.clone();
            let u = EdgeUpdate::Insert(insert.0, insert.1);
            u.apply(&mut g);
            m.apply_batch(&g, &[u], &exec)
        });
    });
    group.bench_function("UpdateM delete", |b| {
        b.iter(|| {
            let mut g = graph.clone();
            let mut m = matrix.clone();
            let u = EdgeUpdate::Delete(delete.0, delete.1);
            u.apply(&mut g);
            m.apply_batch(&g, &[u], &exec)
        });
    });
    group.bench_function("full rebuild", |b| {
        b.iter(|| DistanceMatrix::build(&graph));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matrix_build,
    bench_two_hop_build,
    bench_incremental_vs_rebuild
);
criterion_main!(benches);
