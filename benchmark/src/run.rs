//! One run of one workload: the end-to-end pass (`--trace 0`) or the traced
//! pass (`--trace 1`), each ending in the contract's result object.

use crate::e2e::{measure, ColdRunner, InprocRunner, Measurement, Runner, WireRunner, MIN_ROUNDS};
use crate::layers::{
    probe_durable, probe_graph, probe_region_overhead, probe_within_ns, replay_match_round,
    replay_update_round, LayerFloors, WireReplay,
};
use crate::report::{metric, Metric, RunResult};
use crate::script::{exec1, match_script, update_script, MatchScript, UpdateScript, Workload};
use crate::span::Tracer;
use crate::stats::{ms, us, FloorTable};
use gpm::obs::RegistrySnapshot;
use gpm::DistanceMatrix;
use gpm_bench::percentile_exact;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What to run and where its files go.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the run measures.
    pub seconds: f64,
    /// Per-run temp dir for durable directories; the caller removes it.
    pub tmp: PathBuf,
    /// Where `trace-<workload>.json` is written.
    pub out_dir: PathBuf,
}

/// A finished run.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The contract's result object.
    pub result: RunResult,
    /// Never end-to-end metrics: the pooled (un-floored) median, the
    /// interference ratio, round count and the workload-specific timings.
    pub diagnostics: Vec<Metric>,
    /// `N`, `R` and input sizes, for the header.
    pub sizes: String,
    /// One line per failed round or failed check.
    pub failures: Vec<String>,
}

/// One interleaved sub-pass of the traced run.
struct Pass<'a> {
    runner: InprocRunner<'a>,
    m: Measurement,
}

impl Pass<'_> {
    fn round(&mut self) {
        self.m.record(self.runner.round());
    }
}

/// The workload's script, generated once per run.
enum Script {
    Update(UpdateScript),
    Match(MatchScript),
}

impl Script {
    fn generate(workload: Workload, seed: u64) -> Script {
        match workload {
            Workload::MatchCold => Script::Match(match_script(seed)),
            w => Script::Update(update_script(w, seed)),
        }
    }

    fn runner<'a>(&'a self, workload: Workload) -> Box<dyn Runner + 'a> {
        match self {
            Script::Match(s) => Box::new(ColdRunner::new(s)),
            Script::Update(s) if workload == Workload::WireStream => Box::new(WireRunner::new(s)),
            Script::Update(s) => Box::new(InprocRunner::new(s)),
        }
    }

    fn sizes(&self, rounds: usize) -> String {
        match self {
            Script::Update(s) => format!(
                "|V|={} |E|={} K={} N={} R={} watched-deltas={}",
                s.graph.node_count(),
                s.graph.edge_count(),
                s.patterns.len(),
                s.shape.ops,
                rounds,
                s.busiest_deltas
            ),
            Script::Match(s) => format!(
                "|V|={} |E|={} N={} R={}",
                s.graph.node_count(),
                s.graph.edge_count(),
                s.patterns.len(),
                rounds
            ),
        }
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end_metrics(m: &Measurement) -> Vec<Metric> {
    vec![
        metric("setup_s", m.setup.get().as_secs_f64(), "s"),
        metric("op_p50_ms", ms(m.ops.percentile(0.5)), "ms"),
        metric("op_p90_ms", ms(m.ops.percentile(0.9)), "ms"),
        metric("ops_per_s", m.ops.ops_per_s(), "1/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// p50 over the batches of one direction of `inproc-maintain`, from a
/// per-batch table; zero elsewhere.
fn direction_p50(table: Option<&FloorTable>, script: &Script, insert: bool) -> Duration {
    match (table, script) {
        (Some(t), Script::Update(s)) if s.batches_per_op > 1 => {
            t.percentile_where(0.5, |i| s.batch_is_insert[i] == Some(insert))
        }
        _ => Duration::ZERO,
    }
}

/// `recover` is the measurement whose rounds reopened a durable directory:
/// `m` itself, or the durable in-process pass of a traced `wire-stream` run.
fn diagnostic_metrics(m: &Measurement, recover: &Measurement, script: &Script) -> Vec<Metric> {
    let delta = |q: f64| m.deltas.as_ref().map_or(0.0, |d| ms(d.percentile(q)));
    vec![
        metric("e2e.delta_p50_ms", delta(0.5), "ms"),
        metric("e2e.delta_p90_ms", delta(0.9), "ms"),
        metric("e2e.recover_ms", ms(recover.recover.get()), "ms"),
        metric(
            "e2e.ins_p50_ms",
            ms(direction_p50(m.batches.as_ref(), script, true)),
            "ms",
        ),
        metric(
            "e2e.del_p50_ms",
            ms(direction_p50(m.batches.as_ref(), script, false)),
            "ms",
        ),
        metric("e2e.pooled_p50_ms", ms(m.ops.pooled_percentile(0.5)), "ms"),
        metric(
            "e2e.interference_ratio",
            m.ops.interference_ratio(),
            "ratio",
        ),
        metric("e2e.rounds", m.ops.rounds() as f64, "count"),
    ]
}

fn result_of(m: &[&Measurement], checks: &[String], metrics: Vec<Metric>) -> RunResult {
    let attempted: u64 = m.iter().map(|m| m.attempted).sum();
    let failed: u64 = m.iter().map(|m| m.failed).sum();
    RunResult {
        correct: failed == 0 && checks.is_empty(),
        attempted,
        failed,
        metrics,
    }
}

/// The end-to-end pass: tracing and `GPM_OBS` off.
pub fn run_end_to_end(cfg: &RunConfig) -> RunOutput {
    gpm::obs::set_enabled(false);
    let script = Script::generate(cfg.workload, cfg.seed);
    let m = measure(
        script.runner(cfg.workload).as_mut(),
        Duration::from_secs_f64(cfg.seconds),
    );
    RunOutput {
        result: result_of(&[&m], &[], end_to_end_metrics(&m)),
        diagnostics: diagnostic_metrics(&m, &m, &script),
        sizes: script.sizes(m.ops.rounds()),
        failures: m.failures,
    }
}

/// Obs counters a traced in-process round must reproduce exactly.
fn obs_crosscheck(
    snapshot: &RegistrySnapshot,
    expected: &[(&str, u64)],
    failures: &mut Vec<String>,
) {
    let counters = snapshot.det_counters();
    for (name, want) in expected {
        let got = counters.get(*name).copied().unwrap_or(0);
        if got != *want {
            failures.push(format!(
                "obs cross-check: {name} = {got}, the harness counted {want}"
            ));
        }
    }
}

fn nonzero_p50(table: Option<&FloorTable>) -> Duration {
    table.map_or(Duration::ZERO, |t| {
        t.percentile_where(0.5, |i| !t.floors()[i].is_zero())
    })
}

/// The traced pass. Rounds of every sub-pass are interleaved — plain
/// end-to-end, end-to-end with `GPM_OBS` on, layer replay, and on
/// `wire-stream` the same script in process with and without a WAL — so a
/// noisy stretch of the host hits numerator and denominator of every ratio
/// alike.
pub fn run_trace(cfg: &RunConfig) -> Result<RunOutput, String> {
    gpm::obs::set_enabled(false);
    let script = Script::generate(cfg.workload, cfg.seed);
    let wire = cfg.workload == Workload::WireStream;
    let mut runner = script.runner(cfg.workload);
    let n = runner.ops();
    let mut plain = Measurement::new(n);
    let mut observed = Measurement::new(n);
    let mut layers = LayerFloors::new(n);
    let mut checks: Vec<String> = Vec::new();
    let mut obs_round: Option<RegistrySnapshot> = None;
    let mut replay_end = None;

    let mut wire_replay = if wire {
        Some(WireReplay::start(&cfg.tmp)?)
    } else {
        None
    };
    // wire-stream only: the same script in process, with a WAL (which also
    // prices recovery) and without (the difference to it is the wire).
    let mut inproc = match &script {
        Script::Update(s) if wire => Some((
            Pass {
                runner: InprocRunner::durable(s, &cfg.tmp),
                m: Measurement::new(n),
            },
            Pass {
                runner: InprocRunner::new(s),
                m: Measurement::new(n),
            },
        )),
        _ => None,
    };

    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    while layers.rounds() < MIN_ROUNDS || start.elapsed() < budget {
        plain.record(runner.round());

        gpm::obs::registry().reset();
        gpm::obs::set_enabled(true);
        observed.record(runner.round());
        gpm::obs::set_enabled(false);
        obs_round.get_or_insert_with(|| gpm::obs::registry().snapshot());

        let mut tracer = Tracer::new();
        let counts = match &script {
            Script::Update(s) => {
                let (counts, end) = replay_update_round(s, wire_replay.as_mut(), &mut tracer)?;
                if end.relations != s.expected {
                    checks.push("layer replay ended on different relations".to_string());
                }
                replay_end = Some(end.graph);
                counts
            }
            Script::Match(s) => replay_match_round(s, &mut tracer),
        };
        layers.record(tracer, counts);

        if let Some((durable, volatile)) = inproc.as_mut() {
            durable.round();
            volatile.round();
        }
    }
    if layers.count_mismatches > 0 {
        checks.push(format!(
            "{} replay rounds counted differently from the first",
            layers.count_mismatches
        ));
    }

    // Probes: costs a replay cannot isolate.
    let c = layers.counts.clone();
    let (within_ns, graph_probe) = match &script {
        Script::Update(s) => {
            let oracle = s.shape.backend.build(&s.graph, &exec1());
            (
                probe_within_ns(oracle.as_ref(), &s.graph),
                probe_graph(replay_end.as_ref().expect("at least one replay round")),
            )
        }
        Script::Match(s) => {
            let matrix = DistanceMatrix::build_with(&s.graph, &exec1());
            (probe_within_ns(&matrix, &s.graph), probe_graph(&s.graph))
        }
    };
    let queries = match &script {
        Script::Update(s) => s.patterns.len(),
        Script::Match(_) => 1,
    };
    let region = probe_region_overhead(queries);
    let durable_probe = match &script {
        Script::Update(s) if wire => Some(probe_durable(s, &cfg.tmp.join("probe"))?),
        _ => None,
    };

    // Cross-check against the program's own counters.
    let snapshot = obs_round.expect("at least one observed round");
    match &script {
        Script::Update(_) => obs_crosscheck(
            &snapshot,
            &[
                ("service.batches", c.batches),
                ("service.updates_applied", c.updates_applied),
                ("service.deltas_emitted", c.deltas_emitted),
                ("service.delta_pairs", c.delta_pairs),
                ("service.verifications", c.verifications),
                ("service.repairs", c.repairs),
            ],
            &mut checks,
        ),
        Script::Match(_) => obs_crosscheck(&snapshot, &[("match.runs", n as u64)], &mut checks),
    }
    // `WalWriter::append` syncs once per call, and the replay appends
    // every batch.
    let wal_fsyncs = if wire { c.batches } else { 0 };

    // The in-process `apply` the service layer is priced with, and the
    // pass whose rounds ended in a recovery.
    let (apply, durable) = match &inproc {
        Some((durable, volatile)) => (&volatile.m, &durable.m),
        None => (&plain, &plain),
    };
    let apply_p50 = apply.ops.percentile(0.5);
    let inner: Vec<Duration> = ["graph.mutate", "distance.apply_batch", "incremental.repair"]
        .iter()
        .filter_map(|name| layers.table(name))
        .fold(vec![Duration::ZERO; n], |mut acc, t| {
            for (a, f) in acc.iter_mut().zip(t.floors()) {
                *a += *f;
            }
            acc
        });
    let service_self: Vec<Duration> = apply
        .ops
        .floors()
        .iter()
        .zip(&inner)
        .map(|(a, i)| a.saturating_sub(*i))
        .collect();
    let seq_p50 = |name: &str| {
        layers
            .sequence(name)
            .map_or(Duration::ZERO, |t| t.percentile(0.5))
    };
    let seq_sum = |name: &str| {
        layers
            .sequence(name)
            .map_or(Duration::ZERO, FloorTable::floor_sum)
    };
    let updates = matches!(script, Script::Update(_));
    let per_op = |total: u64| total as f64 / n as f64;
    let direction =
        |insert: bool| direction_p50(layers.sequence("distance.apply_batch"), &script, insert);
    let (wire_overhead, durable_overhead) = match &inproc {
        Some((durable, volatile)) => (
            us(plain.ops.percentile(0.5)) - us(volatile.m.ops.percentile(0.5)),
            us(durable.m.ops.percentile(0.5)) - us(volatile.m.ops.percentile(0.5)),
        ),
        None => (0.0, 0.0),
    };
    let watched_deltas = match &script {
        Script::Update(s) => s.busiest_deltas.max(1) as f64,
        Script::Match(_) => 1.0,
    };
    let coverage = layers.covered.floor_sum().as_secs_f64() / plain.ops.floor_sum().as_secs_f64();

    let mut metrics = diagnostic_metrics(&plain, durable, &script);
    metrics.extend([
        metric("net.req_encode_us", us(layers.p50("net.req_encode")), "us"),
        metric("net.req_decode_us", us(layers.p50("net.req_decode")), "us"),
        metric("net.req_bytes", per_op(c.req_bytes), "bytes"),
        metric(
            "net.delta_encode_us",
            us(nonzero_p50(layers.table("net.delta_encode"))),
            "us",
        ),
        metric(
            "net.delta_bytes",
            c.delta_bytes as f64 / watched_deltas,
            "bytes",
        ),
        metric("net.ping_rtt_us", us(layers.p50("net.transport")), "us"),
        metric("net.wire_overhead_us", wire_overhead, "us"),
        metric(
            "service.apply_us",
            if updates { us(apply_p50) } else { 0.0 },
            "us",
        ),
        metric(
            "service.self_us",
            if updates {
                us(percentile_exact(&service_self, 0.5))
            } else {
                0.0
            },
            "us",
        ),
        metric(
            "service.wal_append_us",
            us(layers.p50("service.wal_append")),
            "us",
        ),
        metric("service.wal_bytes_per_op", per_op(c.wal_bytes), "bytes"),
        metric("service.wal_fsyncs", wal_fsyncs as f64, "count"),
        metric("service.durable_overhead_us", durable_overhead, "us"),
        metric(
            "service.snapshot_ms",
            durable_probe.as_ref().map_or(0.0, |p| ms(p.snapshot)),
            "ms",
        ),
        metric(
            "service.snapshot_bytes",
            durable_probe
                .as_ref()
                .map_or(0.0, |p| p.snapshot_bytes as f64),
            "bytes",
        ),
        metric(
            "service.recover_load_ms",
            durable_probe.as_ref().map_or(0.0, |p| ms(p.recover_load)),
            "ms",
        ),
        metric(
            "service.recover_replay_ms",
            durable_probe.as_ref().map_or(0.0, |p| {
                ms(durable.recover.get().saturating_sub(p.recover_load))
            }),
            "ms",
        ),
        metric(
            "service.register_ms",
            if updates {
                ms(plain.register.get())
            } else {
                0.0
            },
            "ms",
        ),
        metric("service.batches", c.batches as f64, "count"),
        metric("service.updates_applied", c.updates_applied as f64, "count"),
        metric("service.repairs", c.repairs as f64, "count"),
        metric("service.recompute_fallbacks", c.recomputes as f64, "count"),
        metric("service.deltas_emitted", c.deltas_emitted as f64, "count"),
        metric("service.delta_pairs", c.delta_pairs as f64, "count"),
        metric(
            "distance.build_ms",
            ms(layers.setup("distance.build")),
            "ms",
        ),
        metric(
            "distance.apply_batch_us",
            us(layers.p50("distance.apply_batch")),
            "us",
        ),
        metric("distance.ins_batch_us", us(direction(true)), "us"),
        metric("distance.del_batch_us", us(direction(false)), "us"),
        metric("distance.aff1_pairs", c.aff1_pairs as f64, "count"),
        metric("distance.aff1_sources", c.aff1_sources as f64, "count"),
        metric("distance.rebuilds", c.rebuilds as f64, "count"),
        metric(
            "distance.rebuild_share",
            c.rebuilds as f64 / c.batches.max(1) as f64,
            "ratio",
        ),
        metric("distance.memory_mb", c.oracle_bytes as f64 / 1e6, "MB"),
        metric("distance.label_entries", c.label_entries as f64, "count"),
        metric("distance.within_ns", within_ns, "ns"),
        metric("graph.mutate_us", us(layers.p50("graph.mutate")), "us"),
        metric("graph.clone_us", us(graph_probe.clone), "us"),
        metric("graph.compact_ms", ms(graph_probe.compact), "ms"),
        metric("graph.scan_ns_per_edge", graph_probe.scan_ns_per_edge, "ns"),
        metric(
            "graph.scan_overlay_ratio",
            graph_probe.scan_overlay_ratio,
            "ratio",
        ),
        metric(
            "incremental.repair_us",
            us(seq_p50("incremental.repair")),
            "us",
        ),
        metric(
            "incremental.repair_total_ms",
            ms(seq_sum("incremental.repair")),
            "ms",
        ),
        metric(
            "incremental.init_state_ms",
            ms(layers.setup("incremental.init_state")),
            "ms",
        ),
        metric("incremental.verifications", c.verifications as f64, "count"),
        metric("incremental.recomputes", c.recomputes as f64, "count"),
        metric("core.match_us", us(seq_p50("core.match")), "us"),
        metric("core.match_total_ms", ms(seq_sum("core.match")), "ms"),
        metric("core.result_pairs", c.result_pairs as f64, "count"),
        metric("exec.region_overhead_us", us(region), "us"),
        metric(
            "obs.on_overhead_ratio",
            observed.ops.percentile(0.5).as_secs_f64() / plain.ops.percentile(0.5).as_secs_f64(),
            "ratio",
        ),
        metric("trace.coverage_ratio", coverage, "ratio"),
    ]);

    if !(COVERAGE_MIN..=COVERAGE_MAX).contains(&coverage) {
        checks.push(format!(
            "trace.coverage_ratio {coverage:.3} is outside {COVERAGE_MIN}–{COVERAGE_MAX}: the layer replay no longer explains an end-to-end op"
        ));
    }

    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let trace_path = cfg
        .out_dir
        .join(format!("trace-{}.json", cfg.workload.name()));
    let trace = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"replay_rounds\":{},\"note\":\"spans of the last replay round; times in ns since that round began\",\"spans\":{}}}\n",
        cfg.workload.name(),
        cfg.seed,
        layers.rounds(),
        layers.last.to_json()
    );
    std::fs::write(&trace_path, trace).map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let mut passes = vec![&plain, &observed];
    if let Some((durable, volatile)) = &inproc {
        passes.extend([&durable.m, &volatile.m]);
    }
    let mut failures = checks.clone();
    failures.extend(passes.iter().flat_map(|m| m.failures.iter().cloned()));
    Ok(RunOutput {
        result: result_of(&passes, &checks, metrics),
        diagnostics: Vec::new(),
        sizes: script.sizes(plain.ops.rounds()),
        failures,
    })
}

/// `trace.coverage_ratio` outside this range fails the traced run: the
/// replay has drifted from what `MatchService::apply` does. On a quiet host
/// the ratio is 0.9–1.05; the few rounds a traced sub-pass gets move it by
/// ± 0.15 on a noisy one (0.93–1.23 seen on `wire-stream`), and a gate that
/// noise can trip would make every later run a coin toss.
pub const COVERAGE_MIN: f64 = 0.6;
/// See [`COVERAGE_MIN`].
pub const COVERAGE_MAX: f64 = 1.5;
