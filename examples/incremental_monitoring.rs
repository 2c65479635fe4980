//! Continuous community monitoring over an evolving graph — the Section 4
//! workflow: compute the maximum match once, then maintain it incrementally
//! with `IncMatch` while edges are inserted and deleted, instead of re-running
//! `Match` after every change.
//!
//! A single-query [`gpm::MatchService`] owns the graph, the distance oracle
//! and the match; one subscriber follows the query's delta stream. Each wave
//! is checked three ways — the folded deltas, `result()` and a from-scratch
//! `Match` — and timed against the paper's baseline, which rebuilds the
//! distance matrix before it re-runs `Match`.
//!
//! Run with `cargo run -p gpm --release --example incremental_monitoring`.

use gpm::{
    bounded_simulation_with_oracle, fold_deltas, random_updates, Dataset, DistanceMatrix,
    MatchService, PatternGraphBuilder, Predicate, UpdateStreamConfig,
};
use std::time::Instant;

fn main() {
    // A scaled-down simulated YouTube network.
    let graph = Dataset::YouTube.generate(0.05, 7);
    println!(
        "monitoring a graph with {} nodes / {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    // A DAG pattern (the service repairs cyclic ones too): popular music
    // videos recommending well-viewed videos that lead to "People" videos.
    let (pattern, _) = PatternGraphBuilder::new()
        .node(
            "music",
            Predicate::label_eq("category", "Music").and("rate", gpm::CmpOp::Gt, 3.0),
        )
        .node("hub", Predicate::atom("views", gpm::CmpOp::Gt, 1_000))
        .node("people", Predicate::label_eq("category", "People"))
        .edge("music", "hub", 2u32)
        .edge("hub", "people", 3u32)
        .edge("music", "people", 4u32)
        .build()
        .unwrap();

    // Initial batch computation (distance oracle + maximum match).
    let t0 = Instant::now();
    let mut svc = MatchService::new(graph);
    let q = svc.register(pattern.clone());
    println!(
        "initial Match: {} pairs in {:?}",
        svc.result(q).unwrap().pair_count(),
        t0.elapsed()
    );
    let sub = svc.subscribe(q).unwrap();
    let mut deltas = Vec::new();

    // Apply five waves of mixed updates, maintaining the match incrementally,
    // and compare against recomputing from scratch each time.
    for wave in 1..=5u64 {
        let updates = random_updates(svc.graph(), &UpdateStreamConfig::mixed(100).with_seed(wave));

        let t_inc = Instant::now();
        let outcome = svc.apply(&updates);
        let inc_time = t_inc.elapsed();

        // The baseline pays for the distance matrix, as in Figs. 6(i)–(k).
        let t_batch = Instant::now();
        let matrix = DistanceMatrix::build(svc.graph());
        let recomputed = bounded_simulation_with_oracle(&pattern, svc.graph(), &matrix);
        let batch_time = t_batch.elapsed();

        deltas.extend(sub.drain());
        let live = svc.result(q).unwrap();
        assert_eq!(live, recomputed.relation, "incremental = recompute");
        assert_eq!(
            fold_deltas(pattern.node_count(), deltas.iter()),
            live,
            "folded deltas = result()"
        );
        let changed = outcome.deltas.iter().map(|d| d.len()).sum::<usize>();
        println!(
            "wave {wave}: |δ| = {:>3}  |AFF1| = {:>6}  changed pairs = {:>4}  pairs = {:>5}  \
             IncMatch {:>10?}, matrix rebuild + Match {:>10?}",
            updates.len(),
            outcome.aff1,
            changed,
            live.pair_count(),
            inc_time,
            batch_time,
        );
    }
    println!("\nfolded deltas, result() and a from-scratch Match agreed after every wave.");
}
