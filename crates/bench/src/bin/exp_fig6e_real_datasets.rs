//! Fig. 6(e) — Match vs 2-hop vs BFS on the three real-life datasets, for
//! patterns P(4,4,4) and P(8,8,4).
//!
//! By default the simulated Matter/PBlog/YouTube stand-ins are used; with
//! `--dataset-dir <path>` the experiment consumes real on-disk datasets
//! (`<name>.edges` SNAP edge list + optional `<name>.attrs` attribute CSV)
//! directly — `--dataset-dir fixtures` runs it on the checked-in
//! mini-dataset, and a directory of downloaded SNAP crawls reproduces the
//! figure against the real data.
//!
//! The distance matrix and the 2-hop labels are precomputed and not counted
//! (as in the paper); the BFS variant computes distances on demand. The BFS
//! oracle is constructed once per dataset — outside the timing loop, like
//! the other two subjects — so its column times only matching (plus its
//! on-demand BFS runs, which are the point of that variant).
//!
//! Under the paper's sentence the bin prints this run's verdict on the same
//! terms: the rows `Match` won against both 2-hop and BFS, and the datasets
//! on which 2-hop beat BFS for every pattern size.

use gpm::{bounded_simulation_with_oracle_on, BfsOracle, TwoHopOracle};
use gpm_bench::{fmt_ms, load_source_or_exit, patterns_for, time, HarnessArgs, Subject, Table};
use std::time::Duration;

fn main() {
    let args = HarnessArgs::from_env();
    let sources = args.dataset_sources_or_exit();
    let shapes = [(4usize, 4usize, 4u32), (8, 8, 4)];
    let mut match_wins = 0;
    let mut two_hop_datasets = Vec::new();
    let mut table = Table::new(
        "Fig. 6(e): elapsed time (ms, avg per pattern) on real-life datasets",
        &["dataset", "pattern", "Match", "2-hop", "BFS"],
    );

    for source in &sources {
        let graph = load_source_or_exit(source, &args);
        let subject = Subject::with_parallelism(graph, args.parallelism());
        let exec = &subject.exec;
        let (two_hop, label_time) = time(|| TwoHopOracle::build_with(&subject.graph, exec));
        // One memoising BFS oracle per dataset, hoisted out of the timing
        // loop so all three subjects amortise their preprocessing the same
        // way.
        let bfs = BfsOracle::new();
        eprintln!(
            "{}: |V| = {}, |E| = {}, matrix {} ms, 2-hop labels {} ms [{}]",
            source.name(),
            subject.graph.node_count(),
            subject.graph.edge_count(),
            fmt_ms(subject.matrix_build_time),
            fmt_ms(label_time),
            source.describe(args.scale)
        );

        let mut two_hop_wins = 0;
        for &(vp, ep, k) in &shapes {
            let patterns = patterns_for(
                &subject.graph,
                vp,
                ep,
                k,
                args.patterns,
                args.seed + vp as u64,
            );
            let mut t_matrix = Duration::ZERO;
            let mut t_two_hop = Duration::ZERO;
            let mut t_bfs = Duration::ZERO;
            for pattern in &patterns {
                let (_, t) = time(|| subject.run_match(pattern));
                t_matrix += t;
                let (_, t) = time(|| {
                    bounded_simulation_with_oracle_on(pattern, &subject.graph, &two_hop, exec)
                });
                t_two_hop += t;
                let (_, t) =
                    time(|| bounded_simulation_with_oracle_on(pattern, &subject.graph, &bfs, exec));
                t_bfs += t;
            }
            match_wins += usize::from(t_matrix < t_two_hop && t_matrix < t_bfs);
            two_hop_wins += usize::from(t_two_hop < t_bfs);
            let n = patterns.len() as u32;
            table.row(vec![
                source.name(),
                format!("P({vp},{ep},{k})"),
                fmt_ms(t_matrix / n),
                fmt_ms(t_two_hop / n),
                fmt_ms(t_bfs / n),
            ]);
        }
        if two_hop_wins == shapes.len() {
            two_hop_datasets.push(source.name());
        }
    }
    table.print();
    println!(
        "paper reference: Match (distance matrix) is fastest on every dataset; 2-hop helps over\n\
         plain BFS when many node pairs are unreachable (e.g. Matter), less so on dense graphs."
    );
    println!(
        "measured: Match won {match_wins}/{} rows; 2-hop beat BFS on every pattern of {}/{} \
         datasets: [{}]",
        shapes.len() * sources.len(),
        two_hop_datasets.len(),
        sources.len(),
        two_hop_datasets.join(", ")
    );
    args.finish_obs();
}
