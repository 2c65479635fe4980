//! `svc_recovery` — what durability costs, and what recovery buys.
//!
//! Three questions, one table each:
//!
//! 1. **Logging overhead**: the same K-query × U-batch schedule on an
//!    ephemeral service versus a durable one (every batch appended to the
//!    fsynced write-ahead log before it applies), and versus a durable one
//!    with automatic snapshot folding. The overhead column is the price of
//!    the crash guarantee per batch.
//! 2. **Recovery latency**: reopening each durable directory — pure log
//!    replay (the snapshot holds only the initial graph) versus
//!    snapshot-then-short-tail — timed, with the recovered results
//!    cross-checked bit-for-bit against the uninterrupted service.
//! 3. **Footprint**: bytes on disk per mode (WAL + snapshot segments).
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

    // Uninterrupted reference: plain in-memory service.
    let mut reference = MatchService::with_backend(graph.clone(), args.oracle, parallelism.clone());
    let ref_ids: Vec<_> = patterns
        .iter()
        .map(|p| reference.register(p.clone()))
        .collect();
    let mut ref_samples: Vec<Duration> = Vec::with_capacity(script.len());
    for batch in &script {
        let (_, d) = time(|| reference.apply(batch));
        ref_samples.push(d);
    }
    let ref_apply: Duration = ref_samples.iter().sum();
    let ref_results: Vec<_> = ref_ids
        .iter()
        .map(|&id| reference.result(id).expect("active query"))
        .collect();

    let mut overhead = Table::new(
        "svc_recovery: logging overhead per mode (same schedule, same results)",
        &[
            "mode",
            "register+apply (ms)",
            "vs ephemeral",
            "on disk",
            "WAL",
            "snapshot",
        ],
    );
    overhead.row(vec![
        "ephemeral".into(),
        fmt_ms(ref_apply),
        "1.00x".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);

    let modes: [(&str, Option<u64>); 2] =
        [("durable wal-only", None), ("durable snap", Some(cadence))];
    let mut recovery = Table::new(
        "svc_recovery: reopen latency (snapshot load + log replay)",
        &["mode", "recover (ms)", "replayed records", "results agree"],
    );

    // Per-batch apply latency per mode: the WAL's fsync cost lands in the
    // tail, and the memory column (`DistanceOracle::memory_bytes`) ties
    // backend growth to the mode that caused it.
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
    let latency_row = |latency: &mut Table, mode: &str, samples: &[Duration], mem_bytes: usize| {
        latency.row(vec![
            mode.into(),
            fmt_ms(percentile_exact(samples, 0.50)),
            fmt_ms(percentile_exact(samples, 0.99)),
            fmt_ms(percentile_exact(samples, 0.999)),
            fmt_ms(samples.iter().max().copied().unwrap_or_default()),
            format!("{:.1}", mem_bytes as f64 / (1024.0 * 1024.0)),
        ]);
    };
    latency_row(
        &mut latency,
        "ephemeral",
        &ref_samples,
        reference.oracle().memory_bytes(),
    );

    let mut roots = Vec::new();
    for (mode, snapshot_every) in modes {
        let root = temp_root(&mode.replace(' ', "-"));
        let opts = DurableOptions { snapshot_every };
        let mut svc = MatchService::create_durable_with(
            &root,
            graph.clone(),
            args.oracle,
            parallelism.clone(),
            opts,
        )
        .expect("fresh durable root");
        let ids: Vec<_> = patterns.iter().map(|p| svc.register(p.clone())).collect();
        let mut samples: Vec<Duration> = Vec::with_capacity(script.len());
        for batch in &script {
            let (_, d) = time(|| svc.apply(batch));
            samples.push(d);
        }
        let apply: Duration = samples.iter().sum();
        latency_row(&mut latency, mode, &samples, svc.oracle().memory_bytes());
        drop(svc); // crash

        let wal_bytes = fs::metadata(root.join(WAL_FILE)).map_or(0, |m| m.len());
        let snap_bytes = dir_bytes(&root.join("snapshot"));
        overhead.row(vec![
            mode.into(),
            fmt_ms(apply),
            format!("{:.2}x", apply.as_secs_f64() / ref_apply.as_secs_f64()),
            fmt_kib(wal_bytes + snap_bytes),
            fmt_kib(wal_bytes),
            fmt_kib(snap_bytes),
        ]);

        let replayed = gpm::service::wal::read_wal(&root.join(WAL_FILE))
            .expect("clean log")
            .records
            .len();
        let (recovered, reopen) = time(|| {
            MatchService::open_durable_with(&root, parallelism.clone(), opts)
                .expect("recoverable root")
        });
        let agree = ids
            .iter()
            .zip(&ref_results)
            .all(|(&id, expected)| recovered.result(id).as_ref() == Some(expected));
        recovery.row(vec![
            mode.into(),
            fmt_ms(reopen),
            replayed.to_string(),
            agree.to_string(),
        ]);
        roots.push(root);
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
    for root in roots {
        let _ = fs::remove_dir_all(&root);
    }

    args.finish_obs();
}
