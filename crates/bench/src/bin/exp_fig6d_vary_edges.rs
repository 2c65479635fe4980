//! Fig. 6(d) — flexibility: the impact of adding pattern edges.
//!
//! Synthetic graph (paper: 20K nodes, 40K edges, 2K distinct attributes);
//! patterns P(|Vp|, E, 9) for |Vp| ∈ {4, 6, 8, 10, 12}. Starting from the
//! positive spanning structure (|Vp| - 1 edges), 1..8 extra edges are added;
//! the y-axis reports how much of the pattern still finds matches.

use gpm::{generate_pattern, random_graph, PatternGenConfig, RandomGraphConfig};
use gpm_bench::{HarnessArgs, Subject, Table};

fn main() {
    let args = HarnessArgs::from_env();
    let nodes = args.scaled(20_000);
    let edges = args.scaled(40_000);
    let graph = random_graph(
        &RandomGraphConfig::new(nodes, edges, 2_000.min(nodes / 10).max(4)).with_seed(args.seed),
    );
    let subject = Subject::with_parallelism(graph, args.parallelism());
    println!(
        "synthetic graph: |V| = {}, |E| = {}\n",
        subject.graph.node_count(),
        subject.graph.edge_count()
    );

    let mut table = Table::new(
        "Fig. 6(d): matches vs number of pattern edges added (avg over patterns)",
        &[
            "edges added",
            "P(4,E,9)",
            "P(6,E,9)",
            "P(8,E,9)",
            "P(10,E,9)",
            "P(12,E,9)",
        ],
    );

    for added in 1..=8usize {
        let mut cells = vec![added.to_string()];
        for &vp in &[4usize, 6, 8, 10, 12] {
            let mut matched_pairs = 0usize;
            for rep in 0..args.patterns {
                let cfg = PatternGenConfig::new(vp, (vp - 1) + added, 9)
                    .with_seed(args.seed + (vp * 1_000 + rep) as u64);
                let (pattern, _) = generate_pattern(&subject.graph, &cfg);
                let outcome = subject.run_match(&pattern);
                matched_pairs += outcome.relation.pair_count();
            }
            cells.push((matched_pairs / args.patterns).to_string());
        }
        table.row(cells);
    }
    table.print();
    println!(
        "paper reference: with 1 extra edge every pattern matches; by ~8 extra edges most\n\
         patterns stop matching — each added edge is an extra constraint."
    );
    args.finish_obs();
}
