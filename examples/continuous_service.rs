//! Continuous fraud monitoring with the `gpm-service` layer.
//!
//! A payments graph evolves while three standing patterns watch it: a fan-in
//! mule pattern, a layering chain, and a (cyclic) round-trip pattern. All
//! three share one data graph and one distance matrix inside
//! [`gpm::MatchService`]; every update batch computes the affected area once
//! and repairs each query from it, and subscribers receive only the pairs
//! that entered or left their result.
//!
//! Run with `cargo run --example continuous_service`.

use gpm::{fold_deltas, DataGraphBuilder, EdgeUpdate, MatchService, PatternGraphBuilder, QueryId};

fn main() {
    // A small payments graph: two source accounts, two intermediaries, one
    // collection account. More edges will stream in below.
    let (graph, ids) = DataGraphBuilder::new()
        .labeled_node("src1")
        .labeled_node("src2")
        .labeled_node("mule1")
        .labeled_node("mule2")
        .labeled_node("sink")
        .edge("src1", "mule1")
        .edge("src2", "mule2")
        .build()
        .unwrap();
    // Give the service something to label-match on.
    let mut graph = graph;
    for (name, label) in [
        ("src1", "account"),
        ("src2", "account"),
        ("mule1", "mule"),
        ("mule2", "mule"),
        ("sink", "collector"),
    ] {
        graph.attributes_mut(ids[name]).set("label", label);
    }

    let mut svc = MatchService::new(graph);

    // Standing query 1: an account funnelling to a collector within 2 hops.
    let (funnel, _) = PatternGraphBuilder::new()
        .labeled_node("account")
        .labeled_node("collector")
        .edge("account", "collector", 2u32)
        .build()
        .unwrap();
    // Standing query 2: a full layering chain account -> mule -> collector.
    let (chain, _) = PatternGraphBuilder::new()
        .labeled_node("account")
        .labeled_node("mule")
        .labeled_node("collector")
        .edge("account", "mule", 1u32)
        .edge("mule", "collector", 1u32)
        .build()
        .unwrap();
    // Standing query 3 (cyclic): money that comes back — account and mule
    // reachable from each other. The service repairs cyclic patterns like
    // DAGs, also when a batch shortens distances.
    let (round_trip, _) = PatternGraphBuilder::new()
        .labeled_node("account")
        .labeled_node("mule")
        .edge("account", "mule", 2u32)
        .edge("mule", "account", 2u32)
        .build()
        .unwrap();

    let q_funnel = svc.register(funnel);
    let q_chain = svc.register(chain);
    let q_round = svc.register(round_trip);
    let names = |q: QueryId| match q {
        q if q == q_funnel => "funnel",
        q if q == q_chain => "chain",
        q if q == q_round => "round-trip",
        _ => "?",
    };

    // Follow the chain query's delta stream.
    let chain_sub = svc.subscribe(q_chain).unwrap();

    println!("three standing queries registered; streaming updates...\n");
    let batches: Vec<(&str, Vec<EdgeUpdate>)> = vec![
        (
            "mules forward to the collection account",
            vec![
                EdgeUpdate::Insert(ids["mule1"], ids["sink"]),
                EdgeUpdate::Insert(ids["mule2"], ids["sink"]),
            ],
        ),
        (
            "kickback: sink wires back to src1",
            vec![EdgeUpdate::Insert(ids["sink"], ids["src1"])],
        ),
        (
            "mule1's forwarding edge is taken down",
            vec![EdgeUpdate::Delete(ids["mule1"], ids["sink"])],
        ),
    ];

    for (label, batch) in batches {
        let out = svc.apply(&batch);
        println!("batch {} ({label}):", out.epoch);
        if out.deltas.is_empty() {
            println!("  no result changes");
        }
        for d in &out.deltas {
            println!(
                "  {}: +{} pairs, -{} pairs",
                names(d.query),
                d.added.len(),
                d.removed.len()
            );
        }
    }

    // The subscriber's fold equals the live result — deltas are lossless.
    let folded = fold_deltas(3, chain_sub.drain().iter());
    assert_eq!(folded, svc.result(q_chain).unwrap());
    println!(
        "\nchain query result ({} pairs) reconstructed exactly from its delta stream",
        folded.pair_count()
    );
    println!(
        "shared AFF computations: {} (one per effective batch, however many queries)",
        svc.stats().aff_computations
    );
}
