//! Appendix statistics — |Gr| (result-graph size) and the relationship
//! between |AFF1|, |AFF2| and the "relevant" part of AFF1 (pairs that touch a
//! current match), complementing Exp-2/Exp-3.

use gpm::{inc_match, random_updates, MatchState, ResultGraph, UpdateStreamConfig};
use gpm_bench::{dag_pattern, load_source_or_exit, patterns_for, HarnessArgs, Subject, Table};

fn main() {
    let args = HarnessArgs::from_env();
    let source = args.update_source_or_exit();
    let graph = load_source_or_exit(&source, &args);
    let subject = Subject::with_parallelism(graph, args.parallelism());
    println!(
        "{}: |V| = {}, |E| = {} [{}]\n",
        source.name(),
        subject.graph.node_count(),
        subject.graph.edge_count(),
        source.describe(args.scale)
    );

    // (1) Result-graph sizes for P(4,4,3) patterns.
    let mut table = Table::new(
        "Result-graph size |Gr| for P(4,4,3) patterns",
        &["pattern", "|S| pairs", "Gr nodes", "Gr edges", "components"],
    );
    let patterns = patterns_for(&subject.graph, 4, 4, 3, args.patterns, args.seed);
    for (i, pattern) in patterns.iter().enumerate() {
        let outcome = subject.run_match(pattern);
        let rg = ResultGraph::build(pattern, &subject.graph, &outcome.relation);
        table.row(vec![
            format!("P#{i}"),
            outcome.relation.pair_count().to_string(),
            rg.node_count().to_string(),
            rg.edge_count().to_string(),
            rg.weakly_connected_components().len().to_string(),
        ]);
    }
    table.print();
    println!(
        "paper reference: around 70 nodes and 174 edges per result graph for (4,4,3) patterns\n\
         on the full-size YouTube graph (sizes scale with --scale).\n"
    );

    // (2) AFF statistics for insertion batches — read off the `incremental`
    // scope of the `gpm::obs` registry rather than recomputed ad hoc:
    // `repair_match_state` counts the relevant AFF1 pairs (source or sink
    // matched before or after the repair) as it runs, so the table and any
    // JSONL consumer see the same numbers.
    gpm::obs::set_enabled(true);
    let pattern = dag_pattern(&subject.graph, 4, 4, 3, args.seed);
    let exec = &subject.exec;
    let base = MatchState::initialise_with(&pattern, &subject.graph, &subject.matrix, exec);
    let mut table = Table::new(
        "Affected areas for insertion batches",
        &["|δ|", "|AFF1|", "|AFF1| relevant", "|AFF2|"],
    );
    for &delta in &[50usize, 100, 200, 400] {
        let updates = random_updates(
            &subject.graph,
            &UpdateStreamConfig::insertions(delta).with_seed(args.seed + delta as u64),
        );
        let (mut g, mut state) = (subject.graph.clone(), base.clone());
        let mut oracle = args.oracle.build(&g, exec);
        gpm::obs::registry().reset();
        let outcome = inc_match(
            &pattern,
            &mut g,
            oracle.as_mut(),
            &mut state,
            &updates,
            exec,
        )
        .expect("the pattern is a DAG");
        let counters = gpm::obs::registry().snapshot().det_counters();
        let get = |name: &str| {
            counters
                .get(&format!("incremental.{name}"))
                .copied()
                .unwrap_or(0)
        };
        assert_eq!(
            get("aff1_pairs"),
            outcome.stats.aff1 as u64,
            "obs counter must agree with the repair outcome"
        );
        table.row(vec![
            updates.len().to_string(),
            get("aff1_pairs").to_string(),
            get("aff1_relevant").to_string(),
            get("aff2_pairs").to_string(),
        ]);
    }
    table.print();
    println!(
        "paper reference: although |AFF1| can be large, only a small fraction of it can affect\n\
         the match, and |AFF2| stays far smaller than |AFF1| — bounded simulation is relatively\n\
         insensitive to data-graph updates."
    );
    args.finish_obs();
}
