//! `svc_continuous` — the continuous multi-pattern service under a shared
//! update stream: N registered patterns × U update batches, versus N
//! single-query services fed the same stream.
//!
//! The point under measurement is **shared-AFF amortisation**: the service
//! maintains one graph + one distance matrix and computes the affected area
//! (`UpdateBM`) once per batch, where N single-query services each maintain
//! their own copies and compute it N times. Both sides run the same engine —
//! repair, recompute fallback and delta emission alike — and count their
//! affected-area computations with the same rule
//! (`ServiceStats::aff_computations`). The table reports both wall clock
//! and those counts, and cross-checks that every query's result is the same
//! on both sides.
//!
//! A second table reports **per-batch apply latency** over a longer scripted
//! stream — exact nearest-rank p50/p99/p999 plus the oracle's resident
//! size. With `--obs` the `gpm-obs` registry report follows the tables, and
//! `--obs-out <path>` streams JSONL (self-checked: every line must parse).

use gpm::{MatchService, PatternGraph};
use gpm_bench::{
    dag_pattern, fmt_ms, load_source_or_exit, percentile_exact, scripted_batches, time,
    HarnessArgs, Table,
};
use std::time::Duration;

fn main() {
    let args = HarnessArgs::from_env();
    let source = args.update_source_or_exit();
    let graph = load_source_or_exit(&source, &args);
    let parallelism = args.parallelism();

    let batches = 8usize;
    let batch_size = args.scaled(100).min(100);
    println!(
        "{}: |V| = {}, |E| = {}, {} batches x {} updates, {} threads [{}]\n",
        source.name(),
        graph.node_count(),
        graph.edge_count(),
        batches,
        batch_size,
        parallelism.threads(),
        source.describe(args.scale)
    );

    let script = scripted_batches(&graph, batches, batch_size, args.seed + 77);

    let mut table = Table::new(
        "svc_continuous: shared incremental maintenance vs K single-query services",
        &[
            "K queries",
            "service (ms)",
            "K services (ms)",
            "service AFF comps",
            "independent AFF comps",
            "AFF amortisation",
            "agree",
        ],
    );

    for k in [2usize, 4, 8, 16] {
        let patterns: Vec<PatternGraph> = (0..k)
            .map(|i| dag_pattern(&graph, 4, 4, 3, args.seed + i as u64 * 131))
            .collect();

        // Continuous service: one graph, one matrix, K registered queries.
        let mut svc = MatchService::with_parallelism(graph.clone(), parallelism.clone());
        let ids: Vec<_> = patterns.iter().map(|p| svc.register(p.clone())).collect();
        let (_, svc_time) = time(|| {
            for batch in &script {
                svc.apply(batch);
            }
        });
        let svc_affs = svc.stats().aff_computations;

        // Baseline: K single-query services, each with its own graph and
        // oracle.
        let mut singles: Vec<_> = patterns
            .iter()
            .map(|p| {
                let mut single = MatchService::with_parallelism(graph.clone(), parallelism.clone());
                let id = single.register(p.clone());
                (single, id)
            })
            .collect();
        let (_, ind_time) = time(|| {
            for batch in &script {
                for (single, _) in singles.iter_mut() {
                    single.apply(batch);
                }
            }
        });
        let ind_affs: usize = singles
            .iter()
            .map(|(s, _)| s.stats().aff_computations)
            .sum();

        let agree = ids
            .iter()
            .zip(singles.iter_mut())
            .all(|(&id, (single, single_id))| svc.result(id) == single.result(*single_id));

        table.row(vec![
            k.to_string(),
            fmt_ms(svc_time),
            fmt_ms(ind_time),
            svc_affs.to_string(),
            ind_affs.to_string(),
            format!("{:.1}x", ind_affs as f64 / svc_affs.max(1) as f64),
            agree.to_string(),
        ]);
    }
    table.print();
    println!(
        "\nThe service computes the shared affected area once per batch; K single-query\n\
         services compute it K times. The `AFF amortisation` column is exactly K when\n\
         every batch touches the matrix; wall-clock follows on update-dominated loads."
    );

    // Per-batch apply latency over a longer stream (BENCHMARKS.md batch 7).
    // Exact nearest-rank percentiles from the full sample; the memory
    // column surfaces `DistanceOracle::memory_bytes` so backend growth
    // shows up next to the latencies it causes.
    let lat_batches = 40usize;
    let lat_script = scripted_batches(&graph, lat_batches, batch_size, args.seed + 177);
    let mut latency = Table::new(
        format!("svc_continuous: per-batch apply latency ({lat_batches} batches)"),
        &[
            "K queries",
            "p50 (ms)",
            "p99 (ms)",
            "p999 (ms)",
            "max (ms)",
            "oracle mem (MiB)",
        ],
    );
    for k in [2usize, 4, 8, 16] {
        let patterns: Vec<PatternGraph> = (0..k)
            .map(|i| dag_pattern(&graph, 4, 4, 3, args.seed + i as u64 * 131))
            .collect();
        let mut svc = MatchService::with_parallelism(graph.clone(), parallelism.clone());
        for p in &patterns {
            svc.register(p.clone());
        }
        let mut samples: Vec<Duration> = Vec::with_capacity(lat_batches);
        for batch in &lat_script {
            let (_, d) = time(|| svc.apply(batch));
            samples.push(d);
        }
        latency.row(vec![
            k.to_string(),
            fmt_ms(percentile_exact(&samples, 0.50)),
            fmt_ms(percentile_exact(&samples, 0.99)),
            fmt_ms(percentile_exact(&samples, 0.999)),
            fmt_ms(samples.iter().max().copied().unwrap_or_default()),
            format!(
                "{:.1}",
                svc.oracle().memory_bytes() as f64 / (1024.0 * 1024.0)
            ),
        ]);
    }
    println!();
    latency.print();

    args.finish_obs();
}
