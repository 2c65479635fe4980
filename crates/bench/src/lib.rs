//! # gpm-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (Section 5 + appendix). Each experiment is a binary in
//! `src/bin/` printing a plain-text table with one row per x-axis point of
//! the corresponding figure. End-to-end numbers are the repo benchmark's
//! (`benchmark/`), not this crate's.
//!
//! All binaries accept:
//!
//! * `--scale <f>` — fraction of the paper's dataset sizes to generate
//!   (default keeps every experiment laptop-friendly; `--scale 1.0` uses the
//!   paper's sizes);
//! * `--seed <n>` — RNG seed for graphs, patterns and update streams;
//! * `--patterns <n>` — number of random patterns to average over where the
//!   paper averages over 20;
//! * `--threads <n>` — worker threads for the `gpm-exec` parallel runtime
//!   (0 = process default, i.e. `GPM_THREADS` or all available cores);
//!   running `exp_fig6fgh_scalability` at 1, 2, 4, 8 sweeps the core-scaling
//!   curves;
//! * `--oracle matrix|two-hop` — the distance backend every matcher and
//!   service runs on (default `GPM_ORACLE`, i.e. the paper's matrix when
//!   unset);
//! * `--dataset-dir <path>` / `--dataset <name>` — run on real on-disk
//!   datasets (`<name>.edges` SNAP edge list + optional `<name>.attrs`
//!   typed attribute CSV, see `gpm::graph::dataset`) instead of the
//!   synthetic stand-ins. `--dataset-dir fixtures` uses the checked-in
//!   mini-dataset; pointing it at a directory of downloaded SNAP crawls
//!   reproduces Fig. 6(e)/Table 1 against the real data;
//! * `--cutoff-ms <n>` — wall-clock budget per curve for baselines with
//!   exponential worst cases (VF2 in the extended Fig. 6(b) sweep);
//! * `--obs` / `--obs-out <path>` — enable the `gpm-obs` observability layer
//!   (equivalent to `GPM_OBS=1` / `GPM_OBS_OUT=<path>`): every binary
//!   appends a `Registry::report()` dump, and `--obs-out` additionally
//!   streams JSONL events plus a final full-registry snapshot, both written
//!   by [`HarnessArgs::finish_obs`];
//! * `--json <path>` — append every table the binary prints to `path`, one
//!   JSON line per table: `{"title": …, "headers": […], "rows": [[…], …]}`.
//!
//! ## Paper map
//!
//! | figure/table | binary |
//! |--------------|--------|
//! | Table 1 | `exp_table1_datasets` |
//! | Exp-1 (match quality) | `exp1_effectiveness` |
//! | Fig. 6(b)–(d) | `exp_fig6b_match_vs_vf2`, `exp_fig6c_match_counts`, `exp_fig6d_vary_edges` |
//! | Fig. 6(e)–(h) | `exp_fig6e_real_datasets`, `exp_fig6fgh_scalability` |
//! | Fig. 6(i)–(k) | `exp_fig6i_batch_updates`, `exp_fig6j_deletions`, `exp_fig6k_insertions` |
//! | Fig. 9 | `exp_fig9_vary_bound` |
//! | `\|AFF\|`, `\|Gr\|` stats (Section 5) | `exp_stats_aff_gr` |
//! | service layer (beyond the paper) | `svc_continuous` — shared-AFF amortisation of `gpm-service` vs K single-query services |
//! | oracle scaling (beyond the paper) | `exp_oracle_scale` — match + update a Fig. 6-class graph on the 2-hop backend where the `\|V\|²` matrix cannot allocate |
//!
//! See BENCHMARKS.md at the repository root for the measurement protocol and
//! the recorded result batches.
//!
//! ## Example
//!
//! The library pieces are reusable outside the binaries — timing helpers,
//! the [`Subject`] wrapper (graph + shared distance matrix) and plain-text
//! [`Table`] rendering:
//!
//! ```
//! use gpm_bench::{fmt_ms, time, Table};
//!
//! let (sum, elapsed) = time(|| (0..1000u64).sum::<u64>());
//! assert_eq!(sum, 499_500);
//!
//! let mut table = Table::new("demo", &["n", "elapsed (ms)"]);
//! table.row(vec!["1000".into(), fmt_ms(elapsed)]);
//! assert_eq!(table.len(), 1);
//! ```

use gpm::{
    bounded_simulation_with_oracle_on, DataGraph, DistanceMatrix, Executor, MatchOutcome,
    Parallelism, PatternGraph,
};
use std::time::{Duration, Instant};

pub mod args;
pub mod incremental_exp;
pub mod table;

pub use args::{load_source_or_exit, HarnessArgs, LoadgenArgs};
pub use incremental_exp::{dag_pattern, run_update_experiment, scripted_batches, UpdateMix};
pub use table::Table;

/// Measures the wall-clock time of a closure, returning its result as well.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Reads a `gpm::obs` JSONL sink back and requires every non-empty line to
/// parse as a JSON object, exiting the process with a message otherwise (the
/// experiment binaries' shared error path). Returns the object count — the
/// structured output is only useful if downstream tooling can consume it
/// blind, so the binaries fail loudly instead of shipping a corrupt sink.
pub(crate) fn obs_jsonl_check_or_exit(path: &std::path::Path) -> usize {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs JSONL self-check: cannot read {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let mut lines = 0usize;
    for (i, line) in text.lines().filter(|l| !l.is_empty()).enumerate() {
        match serde_json::from_str::<serde::Value>(line) {
            Ok(serde::Value::Map(_)) => lines += 1,
            Ok(other) => {
                eprintln!(
                    "obs JSONL self-check: line {} is not an object: {other:?}",
                    i + 1
                );
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("obs JSONL self-check: line {} does not parse: {e}", i + 1);
                std::process::exit(1);
            }
        }
    }
    lines
}

/// Exact nearest-rank percentile over a sample of durations: the smallest
/// value whose rank is at least `ceil(q * n)`. The latency tables report
/// p50/p99/p999 from full per-batch samples with this helper, which also
/// serves as ground truth against the log-bucketed `gpm::obs` histograms
/// (≤ 1/16 relative error).
///
/// Returns `Duration::ZERO` on an empty sample.
pub fn percentile_exact(samples: &[Duration], q: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted: Vec<Duration> = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Formats a duration in milliseconds with a sensible precision for tables.
pub fn fmt_ms(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.1}")
    } else {
        format!("{ms:.3}")
    }
}

/// The standard experimental subject: a data graph plus its distance matrix
/// (which the paper precomputes once and shares across patterns), and the
/// executor both were made for.
pub struct Subject {
    /// The data graph under test.
    pub graph: DataGraph,
    /// Its all-pairs non-empty distance matrix.
    pub matrix: DistanceMatrix,
    /// How long the matrix construction took (reported separately, as in
    /// Fig. 6(b)'s "Match(Total)" vs "Match(Match Process)" curves).
    pub matrix_build_time: Duration,
    /// The executor the matrix was built on and `Match` runs on.
    pub exec: Executor,
}

impl Subject {
    /// Builds the subject for a data graph, timing the matrix construction
    /// on the given [`Parallelism`] policy (the experiment binaries pass
    /// `--threads` through here).
    pub fn with_parallelism(graph: DataGraph, parallelism: Parallelism) -> Self {
        let exec = Executor::new(parallelism);
        let (matrix, matrix_build_time) = time(|| DistanceMatrix::build_with(&graph, &exec));
        Subject {
            graph,
            matrix,
            matrix_build_time,
            exec,
        }
    }

    /// Runs `Match` for `pattern` on the subject's matrix and executor.
    pub fn run_match(&self, pattern: &PatternGraph) -> MatchOutcome {
        bounded_simulation_with_oracle_on(pattern, &self.graph, &self.matrix, &self.exec)
    }
}

/// Generates the `count` evaluation patterns for a graph at the paper's
/// `P(|V_p|, |E_p|, k)` parameters, varying the seed.
pub fn patterns_for(
    graph: &DataGraph,
    nodes: usize,
    edges: usize,
    bound: u32,
    count: usize,
    base_seed: u64,
) -> Vec<PatternGraph> {
    (0..count)
        .map(|i| {
            let cfg = gpm::PatternGenConfig::new(nodes, edges, bound)
                .with_seed(base_seed.wrapping_mul(1_000_003).wrapping_add(i as u64));
            gpm::generate_pattern(graph, &cfg).0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm::{random_graph, RandomGraphConfig};

    #[test]
    fn time_and_format() {
        let (v, d) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
        assert_eq!(fmt_ms(Duration::from_millis(250)), "250");
        assert_eq!(fmt_ms(Duration::from_micros(1500)), "1.5");
        assert_eq!(fmt_ms(Duration::from_micros(90)), "0.090");
    }

    #[test]
    fn percentile_exact_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile_exact(&ms, 0.50), Duration::from_millis(50));
        assert_eq!(percentile_exact(&ms, 0.99), Duration::from_millis(99));
        assert_eq!(percentile_exact(&ms, 0.999), Duration::from_millis(100));
        assert_eq!(percentile_exact(&ms, 1.0), Duration::from_millis(100));
        assert_eq!(percentile_exact(&[], 0.5), Duration::ZERO);
        let one = [Duration::from_millis(7)];
        assert_eq!(percentile_exact(&one, 0.01), Duration::from_millis(7));
    }

    #[test]
    fn subject_builds_matrix() {
        let g = random_graph(&RandomGraphConfig::new(50, 120, 5).with_seed(1));
        let s = Subject::with_parallelism(g, Parallelism::new(2));
        assert_eq!(s.matrix.node_count(), 50);
        assert_eq!(s.graph.node_count(), 50);
    }

    #[test]
    fn patterns_for_produces_distinct_patterns() {
        let g = random_graph(&RandomGraphConfig::new(100, 300, 8).with_seed(2));
        let ps = patterns_for(&g, 4, 4, 3, 5, 7);
        assert_eq!(ps.len(), 5);
        for p in &ps {
            assert_eq!(p.node_count(), 4);
        }
    }
}
