//! `svc_recovery` — what durability costs, and what recovery buys.
//!
//! Three questions, one table each:
//!
//! 1. **Logging overhead**: the same K-query × U-batch schedule on an
//!    ephemeral service versus a durable one (every batch appended to the
//!    fsynced write-ahead log before it applies), and versus a durable one
//!    with automatic snapshot folding. The overhead column is the price of
//!    the crash guarantee per batch. What is timed is the schedule's
//!    `apply` calls, summed; registering the queries is not.
//! 2. **Recovery latency**: reopening each durable directory — pure log
//!    replay (the snapshot holds only the initial graph) versus
//!    snapshot-then-short-tail — timed, with the recovered results
//!    cross-checked bit-for-bit against the uninterrupted service. The
//!    binary exits 1 when any mode's results disagree.
//!
//! Every mode runs the schedule [`PASSES`] times on a fresh service, the
//! three modes alternating within each pass, and each time above is the
//! median over the passes: one pass per mode read the WAL's overhead
//! anywhere from 0.86× to 2.44× on a shared two-vCPU host.
//! 3. **Footprint**: bytes on disk per mode (WAL + the snapshot file).
//!
//! A per-batch latency table (exact nearest-rank p50/p99/p999 plus the
//! oracle's resident size) shows where the fsync cost
//! lands; `--obs` appends the `gpm-obs` registry report (the `wal` scope
//! breaks appends into encode and fsync time) and `--obs-out` streams JSONL.
//!
//! Durable runs force `--threads`-independent results by construction, so
//! the cross-check is exact equality, not approximation.

use gpm::service::wal::WAL_FILE;
use gpm::{DurableOptions, MatchService, PatternGraph};
use gpm_bench::{
    dag_pattern, fmt_ms, load_source_or_exit, percentile_exact, scripted_batches, time,
    HarnessArgs, Table,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let meta = e.metadata().expect("stat");
            if meta.is_dir() {
                dir_bytes(&e.path())
            } else {
                meta.len()
            }
        })
        .sum()
}

fn fmt_kib(b: u64) -> String {
    format!("{:.1} KiB", b as f64 / 1024.0)
}

/// Passes over the schedule per mode; every time is the median over them.
const PASSES: usize = 5;

/// What one mode measured, over every pass.
#[derive(Default)]
struct ModeRun {
    /// Per pass, the summed `apply` time of the schedule.
    apply: Vec<Duration>,
    /// Every batch's `apply` time, all passes pooled.
    samples: Vec<Duration>,
    /// Per pass, the reopen time (durable modes).
    reopen: Vec<Duration>,
    /// Whether a reopened service disagreed with the reference.
    disagreed: bool,
    oracle_bytes: usize,
    wal_bytes: u64,
    snap_bytes: u64,
    replayed: usize,
}

/// The median of `times` (the lower one of an even count).
fn median(times: &[Duration]) -> Duration {
    percentile_exact(times, 0.5)
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpm-svc-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let args = HarnessArgs::from_env();
    let source = args.update_source_or_exit();
    let graph = load_source_or_exit(&source, &args);
    let parallelism = args.parallelism();

    let queries = 8usize;
    let batches = 16usize;
    let batch_size = args.scaled(50).min(50);
    let cadence = 4u64; // records between automatic snapshots (durable+snap)
    let mut all_agree = true;
    println!(
        "{}: |V| = {}, |E| = {}, {} queries, {} batches x {} updates, {} threads [{}]\n",
        source.name(),
        graph.node_count(),
        graph.edge_count(),
        queries,
        batches,
        batch_size,
        parallelism.threads(),
        source.describe(args.scale)
    );

    let script = scripted_batches(&graph, batches, batch_size, args.seed + 77);
    let patterns: Vec<PatternGraph> = (0..queries)
        .map(|i| dag_pattern(&graph, 4, 4, 3, args.seed + i as u64 * 131))
        .collect();

    // The modes alternate within each pass, so a slow stretch of a shared
    // host lands on every mode alike; each time cell is a median over
    // passes. The first ephemeral pass is the uninterrupted reference.
    let modes: [(&str, Option<Option<u64>>); 3] = [
        ("ephemeral", None),
        ("durable wal-only", Some(None)),
        ("durable snap", Some(Some(cadence))),
    ];
    let mut runs: Vec<ModeRun> = modes.iter().map(|_| ModeRun::default()).collect();
    let mut ref_results = Vec::new();
    for pass in 0..PASSES {
        for ((mode, durable), run) in modes.iter().zip(&mut runs) {
            let opts = durable.map(|snapshot_every| DurableOptions { snapshot_every });
            let root = temp_root(&format!("{}-{pass}", mode.replace(' ', "-")));
            let mut svc = match opts {
                None => MatchService::with_backend(graph.clone(), args.oracle, parallelism.clone()),
                Some(opts) => MatchService::create_durable_with(
                    &root,
                    graph.clone(),
                    args.oracle,
                    parallelism.clone(),
                    opts,
                )
                .expect("fresh durable root"),
            };
            let ids: Vec<_> = patterns.iter().map(|p| svc.register(p.clone())).collect();
            let mut samples: Vec<Duration> = Vec::with_capacity(script.len());
            for batch in &script {
                let (_, d) = time(|| svc.apply(batch));
                samples.push(d);
            }
            run.apply.push(samples.iter().sum());
            run.samples.extend(samples);
            run.oracle_bytes = svc.oracle().memory_bytes();
            let results: Vec<_> = ids
                .iter()
                .map(|&id| svc.result(id).expect("active query"))
                .collect();
            drop(svc); // crash
            if ref_results.is_empty() {
                ref_results = results;
                continue;
            }
            all_agree &= results == ref_results;
            let Some(opts) = opts else {
                continue;
            };

            run.wal_bytes = fs::metadata(root.join(WAL_FILE)).map_or(0, |m| m.len());
            run.snap_bytes = dir_bytes(&root.join("snapshot"));
            run.replayed = gpm::service::wal::read_wal(&root.join(WAL_FILE))
                .expect("clean log")
                .records
                .len();
            let (recovered, reopen) = time(|| {
                MatchService::open_durable_with(&root, parallelism.clone(), opts)
                    .expect("recoverable root")
            });
            run.reopen.push(reopen);
            run.disagreed |= ids
                .iter()
                .zip(&ref_results)
                .any(|(&id, expected)| recovered.result(id).as_ref() != Some(expected));
            drop(recovered);
            let _ = fs::remove_dir_all(&root);
        }
    }

    let mut overhead = Table::new(
        "svc_recovery: logging overhead per mode (same schedule, same results)",
        &[
            "mode",
            "apply (ms, median)",
            "vs ephemeral",
            "on disk",
            "WAL",
            "snapshot",
        ],
    );
    // Per-batch apply latency per mode, over every pass: the WAL's fsync
    // cost lands in the tail, and the memory column
    // (`DistanceOracle::memory_bytes`) ties backend growth to the mode that
    // caused it.
    let mut latency = Table::new(
        "svc_recovery: per-batch apply latency",
        &[
            "mode",
            "p50 (ms)",
            "p99 (ms)",
            "p999 (ms)",
            "max (ms)",
            "oracle mem (MiB)",
        ],
    );
    let mut recovery = Table::new(
        "svc_recovery: reopen latency (snapshot load + log replay)",
        &[
            "mode",
            "recover (ms, median)",
            "replayed records",
            "results agree",
        ],
    );
    let ref_apply = median(&runs[0].apply);
    for ((mode, durable), run) in modes.iter().zip(&runs) {
        let apply = median(&run.apply);
        let disk = |bytes: u64| match durable {
            None => "-".to_string(),
            Some(_) => fmt_kib(bytes),
        };
        overhead.row(vec![
            (*mode).into(),
            fmt_ms(apply),
            format!("{:.2}x", apply.as_secs_f64() / ref_apply.as_secs_f64()),
            disk(run.wal_bytes + run.snap_bytes),
            disk(run.wal_bytes),
            disk(run.snap_bytes),
        ]);
        latency.row(vec![
            (*mode).into(),
            fmt_ms(percentile_exact(&run.samples, 0.50)),
            fmt_ms(percentile_exact(&run.samples, 0.99)),
            fmt_ms(percentile_exact(&run.samples, 0.999)),
            fmt_ms(run.samples.iter().max().copied().unwrap_or_default()),
            format!("{:.1}", run.oracle_bytes as f64 / (1024.0 * 1024.0)),
        ]);
        if durable.is_some() {
            all_agree &= !run.disagreed;
            recovery.row(vec![
                (*mode).into(),
                fmt_ms(median(&run.reopen)),
                run.replayed.to_string(),
                (!run.disagreed).to_string(),
            ]);
        }
    }

    overhead.print();
    println!();
    latency.print();
    println!();
    recovery.print();
    println!(
        "\nEvery durable batch is one fsynced WAL append before it applies; the snap mode\n\
         additionally folds the service into an atomic snapshot every {cadence} records,\n\
         which bounds both the log and the replay at the price of periodic snapshot\n\
         writes. Recovery = load snapshot + replay surviving records; `results agree`\n\
         is exact equality with the uninterrupted run (the crash-point fuzz suite in\n\
         tests/service_recovery.rs proves the same for every torn prefix)."
    );
    args.finish_obs();
    if !all_agree {
        eprintln!("svc_recovery: a recovered service disagrees with the uninterrupted run");
        std::process::exit(1);
    }
}
