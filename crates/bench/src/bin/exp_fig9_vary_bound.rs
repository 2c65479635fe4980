//! Appendix Fig. 9 — effectiveness for various bounds `k`.
//!
//! Spanning-tree patterns P(|Vp|, |Vp| - 1, k) for |Vp| ∈ {4, 6, 8, 10, 12}
//! and k = 4..13 over a synthetic graph; the cell reports the average number
//! of matches (|S|), which grows with k up to a saturation point.

use gpm::{generate_pattern, random_graph, PatternGenConfig, RandomGraphConfig};
use gpm_bench::{HarnessArgs, Subject, Table};

fn main() {
    let args = HarnessArgs::from_env();
    let nodes = args.scaled(20_000);
    let edges = args.scaled(40_000);
    let graph = random_graph(
        &RandomGraphConfig::new(nodes, edges, (nodes / 10).max(4)).with_seed(args.seed),
    );
    let subject = Subject::with_parallelism(graph, args.parallelism());
    println!(
        "synthetic graph: |V| = {}, |E| = {}\n",
        subject.graph.node_count(),
        subject.graph.edge_count()
    );

    let sizes = [4usize, 6, 8, 10, 12];
    let headers: Vec<String> = std::iter::once("bound k".to_string())
        .chain(sizes.iter().map(|n| format!("P({n},{},k)", n - 1)))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new("Fig. 9: average |S| for various bounds k", &header_refs);

    for k in 4..=13u32 {
        let mut cells = vec![k.to_string()];
        for &vp in &sizes {
            let mut total = 0usize;
            for rep in 0..args.patterns {
                let cfg = PatternGenConfig {
                    unbounded_probability: 0.0,
                    bound_variation: 1,
                    ..PatternGenConfig::new(vp, vp - 1, k)
                        .with_seed(args.seed + (vp * 100 + rep) as u64)
                };
                let (pattern, _) = generate_pattern(&subject.graph, &cfg);
                let outcome = subject.run_match(&pattern);
                total += outcome.relation.pair_count();
            }
            cells.push((total / args.patterns).to_string());
        }
        table.row(cells);
    }
    table.print();
    println!(
        "paper reference: increasing the bound k admits more matches, up to a saturation point\n\
         beyond which no new matches appear."
    );
    args.finish_obs();
}
