//! Figs. 6(f), 6(g), 6(h) — scalability of Match / 2-hop / BFS on synthetic
//! graphs with |V| = 20K and |E| ∈ {20K, 40K, 60K}, for patterns
//! P(|Vp|, |Ep|, 3) with |Vp| = |Ep| = 4..10.
//!
//! `--threads <n>` pins the parallel runtime to `n` workers (0 = process
//! default); running the binary at 1, 2, 4, 8 sweeps the core-scaling curves
//! for BENCHMARKS.md. A per-figure thread-scaling table for `Match` on the
//! matrix oracle is printed as well, so a single invocation on a
//! multi-core machine records the sweep.
//!
//! Under the paper's sentence the bin prints this run's verdict on the same
//! terms: the rows `Match` won against both 2-hop and BFS, and, per pattern
//! size, `Match`'s time on 6(h) ÷ its time on 6(f) (1 = insensitive to |E|).

use gpm::{
    bounded_simulation_with_oracle_on, random_graph, BfsOracle, Executor, Parallelism,
    RandomGraphConfig, TwoHopOracle,
};
use gpm_bench::{fmt_ms, patterns_for, time, HarnessArgs, Subject, Table};
use std::time::Duration;

fn main() {
    let args = HarnessArgs::from_env();
    let nodes = args.scaled(20_000);
    let sizes: Vec<usize> = (4..=10).step_by(2).collect();
    // `Match`'s time per pattern size, one vector per figure.
    let mut match_times: Vec<Vec<Duration>> = Vec::new();
    let mut match_wins = 0;

    for (figure, paper_edges) in [("6(f)", 20_000usize), ("6(g)", 40_000), ("6(h)", 60_000)] {
        let edges = args.scaled(paper_edges);
        let graph = random_graph(
            &RandomGraphConfig::new(nodes, edges, (nodes / 10).max(4)).with_seed(args.seed),
        );
        let subject = Subject::with_parallelism(graph, args.parallelism());
        let exec = &subject.exec;
        let (two_hop, label_time) = time(|| TwoHopOracle::build_with(&subject.graph, exec));
        eprintln!(
            "fig {figure}: |V| = {}, |E| = {}, matrix {} ms, 2-hop labels {} ms",
            subject.graph.node_count(),
            subject.graph.edge_count(),
            fmt_ms(subject.matrix_build_time),
            fmt_ms(label_time)
        );

        let mut table = Table::new(
            format!(
                "Fig. {figure}: |V| = {} |E| = {} — elapsed time (ms, avg per pattern)",
                subject.graph.node_count(),
                subject.graph.edge_count()
            ),
            &["pattern", "Match", "2-hop", "BFS"],
        );
        let mut figure_times = Vec::with_capacity(sizes.len());
        for &size in &sizes {
            let patterns = patterns_for(
                &subject.graph,
                size,
                size,
                3,
                args.patterns,
                args.seed + size as u64,
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
                let bfs = BfsOracle::new();
                let (_, t) =
                    time(|| bounded_simulation_with_oracle_on(pattern, &subject.graph, &bfs, exec));
                t_bfs += t;
            }
            let n = patterns.len() as u32;
            match_wins += usize::from(t_matrix < t_two_hop && t_matrix < t_bfs);
            figure_times.push(t_matrix / n);
            table.row(vec![
                format!("P({size},{size},3)"),
                fmt_ms(t_matrix / n),
                fmt_ms(t_two_hop / n),
                fmt_ms(t_bfs / n),
            ]);
        }
        table.print();
        match_times.push(figure_times);

        // Thread-scaling sweep: Match (matrix oracle, prebuilt matrix) on
        // the largest pattern size, at 1/2/4/8 workers. Outputs are
        // asserted bit-identical across thread counts.
        let sweep_patterns = patterns_for(&subject.graph, 10, 10, 3, args.patterns, args.seed + 10);
        let mut sweep = Table::new(
            format!("Fig. {figure}: Match thread scaling, P(10,10,3) (ms, avg per pattern)"),
            &["threads", "Match process", "matrix build"],
        );
        let baseline: Vec<_> = sweep_patterns
            .iter()
            .map(|p| {
                bounded_simulation_with_oracle_on(
                    p,
                    &subject.graph,
                    &subject.matrix,
                    &Executor::sequential(),
                )
            })
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let texec = Executor::new(Parallelism::new(threads));
            let (matrix_t, build_t) =
                time(|| gpm::DistanceMatrix::build_with(&subject.graph, &texec));
            assert_eq!(matrix_t, subject.matrix, "parallel matrix build diverged");
            let mut t_total = Duration::ZERO;
            for (pattern, expected) in sweep_patterns.iter().zip(&baseline) {
                let (out, t) = time(|| {
                    bounded_simulation_with_oracle_on(
                        pattern,
                        &subject.graph,
                        &subject.matrix,
                        &texec,
                    )
                });
                assert_eq!(
                    &out, expected,
                    "parallel Match diverged at {threads} threads"
                );
                t_total += t;
            }
            sweep.row(vec![
                threads.to_string(),
                fmt_ms(t_total / sweep_patterns.len() as u32),
                fmt_ms(build_t),
            ]);
        }
        sweep.print();
    }
    println!(
        "paper reference: Match is fastest everywhere and insensitive to |E| (constant-time\n\
         distance checks); 2-hop helps at |E| = 20K but fades as the graph gets denser."
    );
    let (first, last) = (&match_times[0], &match_times[match_times.len() - 1]);
    let ratios: Vec<String> = sizes
        .iter()
        .zip(first.iter().zip(last))
        .map(|(size, (f, h))| {
            format!(
                "P({size},{size},3) {:.2}",
                h.as_secs_f64() / f.as_secs_f64().max(1e-9)
            )
        })
        .collect();
    println!(
        "measured: Match won {match_wins}/{} rows; Match 6(h) ÷ 6(f): {}",
        sizes.len() * match_times.len(),
        ratios.join(", ")
    );
    args.finish_obs();
}
