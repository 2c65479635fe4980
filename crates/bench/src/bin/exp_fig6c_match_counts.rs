//! Fig. 6(c) — number of matches found by `Match` vs VF2 on the (simulated)
//! YouTube graph, for patterns P(|Vp|, |Ep|, 3) with |Vp| = |Ep| = 3..8.
//!
//! `Match` reports the size of the maximum match relation (|S|, i.e. matched
//! (pattern node, data node) pairs); VF2 reports the number of isomorphic
//! embeddings it enumerates (capped).

use gpm::{subgraph_isomorphism_vf2, Dataset, IsoConfig};
use gpm_bench::{patterns_for, HarnessArgs, Subject, Table};

fn main() {
    let args = HarnessArgs::from_env();
    let graph = Dataset::YouTube.generate(args.scale, args.seed);
    let subject = Subject::with_parallelism(graph, args.parallelism());
    println!(
        "simulated YouTube: |V| = {}, |E| = {}\n",
        subject.graph.node_count(),
        subject.graph.edge_count()
    );

    let mut table = Table::new(
        "Fig. 6(c): number of matches, Match vs VF2 (avg per pattern)",
        &["pattern", "Match |S|", "VF2 embeddings", "VF2 truncated"],
    );
    for size in 3..=8usize {
        let patterns = patterns_for(
            &subject.graph,
            size,
            size,
            3,
            args.patterns,
            args.seed + size as u64,
        );
        let mut match_pairs = 0usize;
        let mut vf2_embeddings = 0usize;
        let mut truncated = 0usize;
        for pattern in &patterns {
            let outcome = subject.run_match(pattern);
            match_pairs += outcome.relation.pair_count();
            let iso = subgraph_isomorphism_vf2(pattern, &subject.graph, &IsoConfig::default());
            vf2_embeddings += iso.count();
            if iso.truncated {
                truncated += 1;
            }
        }
        let n = patterns.len();
        table.row(vec![
            format!("({size},{size},3)"),
            (match_pairs / n).to_string(),
            (vf2_embeddings / n).to_string(),
            format!("{truncated}/{n}"),
        ]);
    }
    table.print();
    println!("paper reference: Match finds far more matches than VF2 in all cases (Fig. 6(c)).");
    args.finish_obs();
}
