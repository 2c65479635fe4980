//! Shared driver for the incremental experiments (Figs. 6(i), 6(j), 6(k)).
//!
//! The subject graph comes from [`HarnessArgs::update_source`]: the
//! simulated YouTube stand-in by default, or a real on-disk dataset with
//! `--dataset-dir`/`--dataset`. For each batch size `|δ|` on the x-axis the
//! driver:
//!
//! 1. generates an update stream with the requested insert/delete mix;
//! 2. runs the paper's [`inc_match`] on its own copy of the graph, of the
//!    precomputed match state and of the distance oracle (`--oracle`); the
//!    copies are made before the clock starts, so the time covers graph
//!    mutation, `UpdateBM` and the repair;
//! 3. runs the batch baseline: apply the updates to a copy of the graph,
//!    **rebuild the same oracle** (its cost is counted, as in the paper) on
//!    the executor IncMatch uses, and re-run `Match` on it;
//! 4. checks the two results agree and reports both times plus, per update,
//!    `|AFF| = |AFF1| + |AFF2|` and the bound-crossing part of `AFF1`: the
//!    pairs whose change crosses one of the pattern's bounds
//!    ([`crosses_a_bound`], the rule the repair seeds from), which are the
//!    only ones the pattern can see.
//!
//! Under the table it prints the paper's sentence about the figure and,
//! beneath it, this run's verdict on the same terms: the rows IncMatch won
//! and the medians of both per-update counts.

use crate::{fmt_ms, load_source_or_exit, time, HarnessArgs, Table};
use gpm::incremental::crosses_a_bound;
use gpm::{
    bounded_simulation_with_oracle_on, generate_pattern, inc_match, random_updates, EdgeUpdate,
    Executor, MatchState, PatternGenConfig, PatternGraph, UpdateStreamConfig,
};

/// Which update mix an experiment uses.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum UpdateMix {
    /// Half insertions, half deletions (Fig. 6(i)).
    Mixed,
    /// Deletions only (Fig. 6(j)).
    Deletions,
    /// Insertions only (Fig. 6(k)).
    Insertions,
}

impl UpdateMix {
    fn config(self, count: usize) -> UpdateStreamConfig {
        match self {
            UpdateMix::Mixed => UpdateStreamConfig::mixed(count),
            UpdateMix::Deletions => UpdateStreamConfig::deletions(count),
            UpdateMix::Insertions => UpdateStreamConfig::insertions(count),
        }
    }
}

/// Pre-generates `batches` update batches of `batch_size` mixed updates each
/// against an evolving copy of the graph, so every run of a `svc_*` bin
/// replays the exact same stream.
pub fn scripted_batches(
    graph: &gpm::DataGraph,
    batches: usize,
    batch_size: usize,
    seed: u64,
) -> Vec<Vec<EdgeUpdate>> {
    let mut scratch = graph.clone();
    let mut script = Vec::with_capacity(batches);
    for round in 0..batches {
        let updates = random_updates(
            &scratch,
            &UpdateStreamConfig::mixed(batch_size).with_seed(seed + round as u64),
        );
        for u in &updates {
            u.apply(&mut scratch);
        }
        script.push(updates);
    }
    script
}

/// Generates a DAG pattern for the incremental experiments (IncMatch requires
/// acyclic patterns); retries seeds until the generator produces one.
pub fn dag_pattern(
    graph: &gpm::DataGraph,
    nodes: usize,
    edges: usize,
    bound: u32,
    seed: u64,
) -> PatternGraph {
    for attempt in 0..64u64 {
        let cfg = PatternGenConfig::new(nodes, edges, bound).with_seed(seed + attempt * 7919);
        let (pattern, _) = generate_pattern(graph, &cfg);
        if pattern.is_dag() {
            return pattern;
        }
    }
    // Spanning structures are always DAGs, so this is effectively unreachable;
    // fall back to a tree-shaped pattern.
    let cfg = PatternGenConfig::new(nodes, nodes.saturating_sub(1), bound).with_seed(seed);
    generate_pattern(graph, &cfg).0
}

/// Runs one of the incremental experiments and prints its table, then
/// `paper_reference` with the run's measured verdict under it.
pub fn run_update_experiment(
    title: &str,
    mix: UpdateMix,
    paper_deltas: &[usize],
    paper_reference: &str,
    args: &HarnessArgs,
) {
    let source = args.update_source_or_exit();
    let graph = load_source_or_exit(&source, args);
    println!(
        "{}: |V| = {}, |E| = {} [{}]",
        source.name(),
        graph.node_count(),
        graph.edge_count(),
        source.describe(args.scale)
    );

    let pattern = dag_pattern(&graph, 4, 4, 3, args.seed);
    let exec = Executor::new(args.parallelism());
    let (base, setup_time) = time(|| {
        let oracle = args.oracle.build(&graph, &exec);
        MatchState::initialise_with(&pattern, &graph, oracle.as_ref(), &exec)
    });
    println!(
        "initial Match ({} + maximum match): {} ms, {} pairs\n",
        args.oracle,
        fmt_ms(setup_time),
        base.relation().pair_count()
    );

    let mut table = Table::new(
        title.to_string(),
        &[
            "|δ| (paper)",
            "|δ| (scaled)",
            "IncMatch (ms)",
            "Match recompute (ms)",
            "|AFF|/update",
            "|AFF1| crossing/update",
            "agree",
        ],
    );

    let crosses = crosses_a_bound(&pattern);
    let mut inc_wins = 0;
    let mut aff_per_row = Vec::with_capacity(paper_deltas.len());
    let mut crossing_per_row = Vec::with_capacity(paper_deltas.len());
    for &paper_delta in paper_deltas {
        let delta = ((paper_delta as f64 * args.scale).round() as usize).max(4);
        let updates = random_updates(
            &graph,
            &mix.config(delta).with_seed(args.seed + paper_delta as u64),
        );

        // Incremental: start from the shared precomputed state, on copies
        // made (and an oracle rebuilt) outside the timed region.
        let (mut g, mut state) = (graph.clone(), base.clone());
        let mut oracle = args.oracle.build(&g, &exec);
        let (outcome, inc_time) = time(|| {
            inc_match(
                &pattern,
                &mut g,
                oracle.as_mut(),
                &mut state,
                &updates,
                &exec,
            )
        });
        let outcome = outcome.expect("the experiment pattern is a DAG");

        // Batch baseline: apply updates, rebuild the oracle IncMatch
        // maintains on the same executor (cost counted), re-run Match.
        let mut updated_graph = graph.clone();
        for u in &updates {
            u.apply(&mut updated_graph);
        }
        let (batch_relation, batch_time) = time(|| {
            let oracle = args.oracle.build(&updated_graph, &exec);
            bounded_simulation_with_oracle_on(&pattern, &updated_graph, oracle.as_ref(), &exec)
                .relation
        });

        let agree = state.relation() == batch_relation;
        let per_update = |count: usize| count / updates.len().max(1);
        let aff_per_update = per_update(outcome.stats.total_affected());
        let crossing = outcome.aff1.iter().filter(|p| crosses(p)).count();
        let crossing_per_update = per_update(crossing);
        inc_wins += usize::from(inc_time < batch_time);
        aff_per_row.push(aff_per_update);
        crossing_per_row.push(crossing_per_update);
        table.row(vec![
            paper_delta.to_string(),
            updates.len().to_string(),
            fmt_ms(inc_time),
            fmt_ms(batch_time),
            aff_per_update.to_string(),
            crossing_per_update.to_string(),
            agree.to_string(),
        ]);
    }
    table.print();
    println!("paper reference: {paper_reference}");
    println!(
        "measured: IncMatch won {inc_wins}/{} rows; median |AFF|/update {}, \
         median |AFF1| crossing/update {}",
        paper_deltas.len(),
        median(&mut aff_per_row),
        median(&mut crossing_per_row)
    );
}

/// The median of `values` (the mean of the middle two for an even count).
fn median(values: &mut [usize]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let mid = values.len() / 2;
    if values.len() % 2 == 0 {
        (values[mid - 1] + values[mid]) as f64 / 2.0
    } else {
        values[mid] as f64
    }
}

#[cfg(test)]
mod tests {
    use super::median;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [7]), 7.0);
        assert_eq!(median(&mut [9, 1, 5]), 5.0);
        assert_eq!(median(&mut [400, 300, 500, 350]), 375.0);
    }
}
