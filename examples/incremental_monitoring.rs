//! Continuous community monitoring over an evolving graph — the Section 4
//! workflow: compute the maximum match once, then maintain it incrementally
//! with `IncMatch` while edges are inserted and deleted, instead of re-running
//! `Match` after every change.
//!
//! Run with `cargo run -p gpm --release --example incremental_monitoring`.

use gpm::{
    bounded_simulation_with_oracle, random_updates, Dataset, IncrementalMatcher,
    PatternGraphBuilder, Predicate, UpdateStreamConfig,
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

    // A DAG pattern (IncMatch requires DAG patterns): popular music videos
    // recommending well-viewed videos that lead to "People" videos.
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

    // Initial batch computation (distance matrix + maximum match).
    let t0 = Instant::now();
    let mut matcher = IncrementalMatcher::new(pattern, graph);
    println!(
        "initial Match: {} pairs in {:?}",
        matcher.relation().pair_count(),
        t0.elapsed()
    );

    // Apply five waves of mixed updates, maintaining the match incrementally,
    // and compare against recomputing from scratch each time.
    for wave in 1..=5u64 {
        let updates = random_updates(
            matcher.graph(),
            &UpdateStreamConfig::mixed(100).with_seed(wave),
        );

        let t_inc = Instant::now();
        let outcome = matcher.apply_batch(&updates);
        let inc_time = t_inc.elapsed();

        let t_batch = Instant::now();
        let recomputed =
            bounded_simulation_with_oracle(matcher.pattern(), matcher.graph(), matcher.oracle());
        let batch_time = t_batch.elapsed();

        assert_eq!(
            matcher.relation(),
            recomputed.relation,
            "incremental = batch"
        );
        println!(
            "wave {wave}: |δ| = {:>3}  |AFF1| = {:>6}  |AFF2| = {:>4}  pairs = {:>5}  \
             IncMatch {:>10?} vs re-Match {:>10?}",
            updates.len(),
            outcome.stats.aff1,
            outcome.stats.aff2,
            matcher.relation().pair_count(),
            inc_time,
            batch_time,
        );
    }
    println!("\nincremental and batch results agreed after every wave.");
}
