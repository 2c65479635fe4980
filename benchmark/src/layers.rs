//! The layer replay: push a workload's script through each layer's public
//! functions in the order `MatchService::apply` calls them, with a span
//! around every call, and a handful of fixed probes for costs a replay
//! cannot isolate (oracle reads, CSR scans, the scratch clone, snapshots).
//!
//! Layers are the crates. Nothing here is inside the program: in-program
//! spans are a later change, and until then `trace.coverage_ratio` says how
//! much of an end-to-end op the outside view explains.

use crate::script::{exec1, MatchScript, UpdateScript};
use crate::span::Tracer;
use crate::stats::{FloorScalar, FloorTable};
use gpm::distance::{DistanceOracle, IncrementalTwoHop};
use gpm::graph::{bfs_distances_bounded, EdgeBound, NodeId};
use gpm::incremental::split_aff1_sources;
use gpm::net::codec::{decode_message, encode_message};
use gpm::net::{NetClient, NetServer, Request, Response, ServerHandle, ServerOptions, StreamMsg};
use gpm::service::{WalOp, WalWriter};
use gpm::{
    bounded_simulation_with_oracle_on, repair_match_state, DataGraph, DistanceMatrix,
    DurableOptions, EdgeUpdate, Executor, MatchDelta, MatchRelation, MatchService, MatchState,
    OracleBackend, Parallelism, QueryId,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The `op` of spans that belong to a round's set-up, not to a scripted op.
pub const SETUP_OP: usize = usize::MAX;

/// Span names whose every occurrence gets a floor of its own.
pub const SEQUENCED: [&str; 3] = ["incremental.repair", "core.match", "distance.apply_batch"];

/// Counts one replay round produces; they must repeat exactly for a seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Batches pushed through.
    pub batches: u64,
    /// Updates that took effect.
    pub updates_applied: u64,
    /// `Σ |AFF1|`.
    pub aff1_pairs: u64,
    /// `Σ` distinct affected sources (what repair consumes).
    pub aff1_sources: u64,
    /// Per-query incremental repairs.
    pub repairs: u64,
    /// Per-query recomputations (cyclic pattern + distance decrease).
    pub recomputes: u64,
    /// Candidate re-verifications.
    pub verifications: u64,
    /// Non-empty deltas.
    pub deltas_emitted: u64,
    /// Pairs in those deltas.
    pub delta_pairs: u64,
    /// Oracle rebuilds.
    pub rebuilds: u64,
    /// 2-hop label entries at the end of the round (0 on the matrix).
    pub label_entries: u64,
    /// `memory_bytes()` of the oracle at the end of the round.
    pub oracle_bytes: u64,
    /// Pairs of the initial `Match` of every pattern.
    pub result_pairs: u64,
    /// Encoded `ApplyBatch` request bytes.
    pub req_bytes: u64,
    /// Encoded delta-stream bytes of the watched query.
    pub delta_bytes: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
}

/// Floors of everything the replay rounds of one workload recorded.
#[derive(Debug)]
pub struct LayerFloors {
    ops: usize,
    /// Per span name: per-op sum of the durations of spans with that name.
    per_op: BTreeMap<&'static str, FloorTable>,
    /// Per span name: sum over the round's set-up spans with that name.
    setup: BTreeMap<&'static str, FloorScalar>,
    /// For the names in [`SEQUENCED`]: one entry per span, in replay order.
    sequences: BTreeMap<&'static str, FloorTable>,
    /// Per op: the self times of every layer span under the op's root.
    pub covered: FloorTable,
    /// Counts of the first round.
    pub counts: ReplayCounts,
    /// Rounds whose counts differed from the first round's.
    pub count_mismatches: usize,
    /// The last round's spans, for the trace file.
    pub last: Tracer,
}

impl LayerFloors {
    /// Empty floors for a script of `ops` ops.
    pub fn new(ops: usize) -> Self {
        LayerFloors {
            ops,
            per_op: BTreeMap::new(),
            setup: BTreeMap::new(),
            sequences: BTreeMap::new(),
            covered: FloorTable::new(ops),
            counts: ReplayCounts::default(),
            count_mismatches: 0,
            last: Tracer::new(),
        }
    }

    /// Rounds recorded.
    pub fn rounds(&self) -> usize {
        self.covered.rounds()
    }

    /// Folds one replay round in.
    pub fn record(&mut self, tracer: Tracer, counts: ReplayCounts) {
        if self.rounds() == 0 {
            self.counts = counts;
        } else if counts != self.counts {
            self.count_mismatches += 1;
        }
        let selfs = tracer.self_times_ns();
        let mut per_op: BTreeMap<&'static str, Vec<Duration>> = BTreeMap::new();
        let mut setup: BTreeMap<&'static str, Duration> = BTreeMap::new();
        let mut covered = vec![Duration::ZERO; self.ops];
        let mut sequences: BTreeMap<&'static str, Vec<Duration>> = BTreeMap::new();
        for (span, self_ns) in tracer.spans().iter().zip(selfs) {
            let d = Duration::from_nanos(span.duration_ns());
            if SEQUENCED.contains(&span.name) {
                sequences.entry(span.name).or_default().push(d);
            }
            if span.op == SETUP_OP {
                *setup.entry(span.name).or_default() += d;
                continue;
            }
            per_op
                .entry(span.name)
                .or_insert_with(|| vec![Duration::ZERO; self.ops])[span.op] += d;
            if span.parent.is_some() {
                covered[span.op] += Duration::from_nanos(self_ns);
            }
        }
        for (name, times) in per_op {
            self.per_op
                .entry(name)
                .or_insert_with(|| FloorTable::new(self.ops))
                .record_round(&times);
        }
        for (name, d) in setup {
            self.setup.entry(name).or_default().record(d);
        }
        for (name, times) in sequences {
            self.sequences
                .entry(name)
                .or_insert_with(|| FloorTable::new(times.len()))
                .record_round(&times);
        }
        self.covered.record_round(&covered);
        self.last = tracer;
    }

    /// Floor-p50 per op of the spans named `name`; zero if never recorded.
    pub fn p50(&self, name: &str) -> Duration {
        self.per_op
            .get(name)
            .map_or(Duration::ZERO, |t| t.percentile(0.5))
    }

    /// The per-op floor table of the spans named `name`.
    pub fn table(&self, name: &str) -> Option<&FloorTable> {
        self.per_op.get(name)
    }

    /// Floor of the set-up spans named `name`; zero if never recorded.
    pub fn setup(&self, name: &str) -> Duration {
        self.setup.get(name).map_or(Duration::ZERO, |f| f.get())
    }

    /// Floors of every single span named `name` (one of [`SEQUENCED`]), in
    /// replay order: per batch × query for repairs, per batch for
    /// `apply_batch`, per pattern for `Match`.
    pub fn sequence(&self, name: &str) -> Option<&FloorTable> {
        self.sequences.get(name)
    }
}

/// What the wire layers of a replay round need: a WAL to append to and a
/// live loopback connection to an idle server for the transport span.
pub struct WireReplay {
    wal_path: PathBuf,
    client: NetClient,
    _server: ServerHandle,
}

impl WireReplay {
    /// Binds an idle server (a 16-node service nobody updates) and connects.
    pub fn start(tmp: &Path) -> Result<WireReplay, String> {
        let idle = MatchService::with_backend(
            gpm::datagen::Dataset::YouTube.generate(0.0, 0),
            OracleBackend::Matrix,
            Parallelism::new(1),
        );
        let server = NetServer::bind("127.0.0.1:0", idle, ServerOptions::default())
            .map_err(|e| format!("bind idle server: {e}"))?;
        let handle = server
            .spawn()
            .map_err(|e| format!("spawn idle server: {e}"))?;
        let client =
            NetClient::connect(handle.addr()).map_err(|e| format!("connect idle server: {e}"))?;
        Ok(WireReplay {
            wal_path: tmp.join("replay-wal.log"),
            client,
            _server: handle,
        })
    }
}

/// The concrete oracle of a replay round: the service holds a boxed trait
/// object, the replay needs the 2-hop index for `label_entries`.
enum ReplayOracle {
    Matrix(DistanceMatrix),
    TwoHop(IncrementalTwoHop),
}

impl ReplayOracle {
    fn build(backend: OracleBackend, g: &DataGraph, exec: &Executor) -> Self {
        match backend {
            OracleBackend::Matrix => ReplayOracle::Matrix(DistanceMatrix::build_with(g, exec)),
            OracleBackend::TwoHop => ReplayOracle::TwoHop(IncrementalTwoHop::build_with(g, exec)),
        }
    }

    fn as_dyn(&self) -> &(dyn DistanceOracle + Send + Sync) {
        match self {
            ReplayOracle::Matrix(m) => m,
            ReplayOracle::TwoHop(t) => t,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut (dyn DistanceOracle + Send + Sync) {
        match self {
            ReplayOracle::Matrix(m) => m,
            ReplayOracle::TwoHop(t) => t,
        }
    }

    fn label_entries(&self) -> u64 {
        match self {
            ReplayOracle::Matrix(_) => 0,
            ReplayOracle::TwoHop(t) => t.index().label_entries() as u64,
        }
    }
}

/// What a replay round leaves behind for the probes and the gate.
pub struct ReplayEnd {
    /// The graph after the last batch, overlay not compacted.
    pub graph: DataGraph,
    /// The relations the replayed states ended with.
    pub relations: Vec<MatchRelation>,
}

/// One layer-replay round of an update workload.
///
/// Mirrors `MatchService::apply` step by step: `EdgeUpdate::apply` on the
/// graph, `apply_batch` on a standalone oracle, `repair_match_state` on
/// every harness-held state (skipped, like the service does, when `AFF1` is
/// empty), `MatchDelta::between`. With `wire`, the request and reply also
/// pass the codec and a real `ping` stands in for the loopback hop and
/// thread wake; beside each op the batch is appended to a WAL and the
/// watched query's delta is encoded for the subscriber.
pub fn replay_update_round(
    s: &UpdateScript,
    mut wire: Option<&mut WireReplay>,
    tr: &mut Tracer,
) -> Result<(ReplayCounts, ReplayEnd), String> {
    let exec = exec1();
    let mut counts = ReplayCounts::default();
    let mut graph = s.graph.clone();

    let mut oracle = tr.span("distance.build", SETUP_OP, || {
        ReplayOracle::build(s.shape.backend, &graph, &exec)
    });
    let mut states = Vec::with_capacity(s.patterns.len());
    let mut emitted = Vec::with_capacity(s.patterns.len());
    for p in &s.patterns {
        let rel = tr.span("core.match", SETUP_OP, || {
            bounded_simulation_with_oracle_on(p, &graph, oracle.as_dyn(), &exec).relation
        });
        counts.result_pairs += rel.pair_count() as u64;
        let state = tr.span("incremental.init_state", SETUP_OP, || {
            MatchState::initialise_with(p, &graph, oracle.as_dyn(), &exec)
        });
        emitted.push(state.relation());
        states.push(state);
    }
    let mut wal = match wire.as_deref() {
        Some(w) => Some(WalWriter::create(&w.wal_path, 0).map_err(|e| format!("WAL: {e}"))?),
        None => None,
    };

    for (flat, batch) in s.batches.iter().enumerate() {
        // Every `apply` of an op is a root span of its own with the op's
        // id; per-op figures sum over them.
        let op = flat / s.batches_per_op;
        let root = tr.enter("op", op);
        let epoch = flat as u64 + 1;
        if let Some(w) = wire.as_deref_mut() {
            let request = Request::ApplyBatch {
                updates: batch.clone(),
            };
            let frame = tr
                .span("net.req_encode", op, || encode_message(&request))
                .map_err(|e| format!("encode request: {e}"))?;
            counts.req_bytes += frame.len() as u64;
            tr.span("net.transport", op, || w.client.ping())
                .map_err(|e| format!("ping: {e}"))?;
            let decoded: Request = tr
                .span("net.req_decode", op, || decode_message(&frame))
                .map_err(|e| format!("decode request: {e}"))?;
            black_box(decoded);
        }

        let apply = tr.enter("service.apply", op);
        let applied: Vec<EdgeUpdate> = tr.span("graph.mutate", op, || {
            batch
                .iter()
                .copied()
                .filter(|u| u.apply(&mut graph))
                .collect()
        });
        counts.batches += 1;
        counts.updates_applied += applied.len() as u64;
        let aff1 = tr.span("distance.apply_batch", op, || {
            oracle.as_dyn_mut().apply_batch(&graph, &applied, &exec)
        });
        counts.aff1_pairs += aff1.len() as u64;
        let (inc, dec) = split_aff1_sources(&aff1);
        counts.aff1_sources += (inc.len() + dec.len()) as u64;

        let mut deltas = Vec::new();
        if !aff1.is_empty() {
            for (k, p) in s.patterns.iter().enumerate() {
                let repaired = tr.span("incremental.repair", op, || {
                    repair_match_state(p, &graph, oracle.as_dyn(), &mut states[k], &aff1)
                });
                match repaired {
                    Ok(out) => {
                        counts.repairs += 1;
                        counts.verifications += out.verifications as u64;
                    }
                    Err(_) => {
                        counts.recomputes += 1;
                        states[k] = tr.span("incremental.init_state", op, || {
                            MatchState::initialise_with(p, &graph, oracle.as_dyn(), &exec)
                        });
                    }
                }
                let delta = tr.span("service.delta_diff", op, || {
                    let visible = states[k].relation();
                    let d = MatchDelta::between(
                        QueryId::from_raw(k as u64),
                        epoch,
                        &emitted[k],
                        &visible,
                    );
                    emitted[k] = visible;
                    d
                });
                if !delta.is_empty() {
                    counts.deltas_emitted += 1;
                    counts.delta_pairs += delta.len() as u64;
                    deltas.push(delta);
                }
            }
        }
        tr.exit(apply);

        let watched = deltas
            .iter()
            .find(|d| d.query == QueryId::from_raw(s.busiest as u64))
            .cloned();
        if wire.is_some() {
            let reply = Response::Applied {
                epoch,
                applied: applied.len() as u64,
                aff1: aff1.len() as u64,
                deltas,
            };
            let frame = tr
                .span("net.resp_encode", op, || encode_message(&reply))
                .map_err(|e| format!("encode reply: {e}"))?;
            let decoded: Response = tr
                .span("net.resp_decode", op, || decode_message(&frame))
                .map_err(|e| format!("decode reply: {e}"))?;
            black_box(decoded);
        }
        tr.exit(root);

        // The end-to-end service is not durable (see `WireRunner`), so the
        // WAL append a durable one would make is a root of its own, outside
        // coverage. So is the subscriber's copy of the delta, which the
        // server encodes on its stream thread, beside the ack.
        if let Some(wal) = wal.as_mut() {
            tr.span("service.wal_append", op, || {
                wal.append(WalOp::Batch(batch.clone()))
            })
            .map_err(|e| format!("WAL append: {e}"))?;
        }
        if let (Some(_), Some(d)) = (wire.as_deref(), watched) {
            let msg = StreamMsg::Delta(d);
            let frame = tr
                .span("net.delta_encode", op, || encode_message(&msg))
                .map_err(|e| format!("encode delta: {e}"))?;
            counts.delta_bytes += frame.len() as u64;
            let decoded: StreamMsg = tr
                .span("net.delta_decode", op, || decode_message(&frame))
                .map_err(|e| format!("decode delta: {e}"))?;
            black_box(decoded);
        }
    }

    counts.rebuilds = oracle.as_dyn().rebuilds() as u64;
    counts.oracle_bytes = oracle.as_dyn().memory_bytes() as u64;
    counts.label_entries = oracle.label_entries();
    if let Some(w) = wire.as_deref() {
        drop(wal);
        counts.wal_bytes = std::fs::metadata(&w.wal_path)
            .map_err(|e| format!("WAL size: {e}"))?
            .len();
    }
    Ok((
        counts,
        ReplayEnd {
            graph,
            relations: emitted,
        },
    ))
}

/// One layer-replay round of `match-cold`: the build, then one `core.match`
/// span per pattern under the op's root.
pub fn replay_match_round(s: &MatchScript, tr: &mut Tracer) -> ReplayCounts {
    let exec = exec1();
    let mut counts = ReplayCounts::default();
    let matrix = tr.span("distance.build", SETUP_OP, || {
        DistanceMatrix::build_with(&s.graph, &exec)
    });
    for (op, p) in s.patterns.iter().enumerate() {
        let root = tr.enter("op", op);
        let out = tr.span("core.match", op, || {
            bounded_simulation_with_oracle_on(black_box(p), &s.graph, &matrix, &exec)
        });
        tr.exit(root);
        counts.result_pairs += out.relation.pair_count() as u64;
    }
    counts.oracle_bytes = matrix.memory_bytes() as u64;
    counts
}

/// How often a probe repeats; the floor is reported.
const PROBE_REPS: usize = 9;

fn floor_of(mut f: impl FnMut() -> Duration) -> Duration {
    (0..PROBE_REPS).map(|_| f()).min().expect("PROBE_REPS > 0")
}

/// Mean cost of `DistanceOracle::within` over a fixed sample of 10⁶
/// `(x, y, ≤ 3 hops)` triples drawn by a fixed LCG.
pub fn probe_within_ns(oracle: &(dyn DistanceOracle + Send + Sync), g: &DataGraph) -> f64 {
    const TRIPLES: u32 = 1_000_000;
    let n = g.node_count() as u64;
    let floor = floor_of(|| {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut hits = 0u32;
        let t = Instant::now();
        for _ in 0..TRIPLES {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let x = NodeId::new(((state >> 33) % n) as u32);
            let y = NodeId::new(((state >> 13) % n) as u32);
            hits += oracle.within(g, x, y, EdgeBound::Hops(3)) as u32;
        }
        black_box(hits);
        t.elapsed()
    });
    floor.as_nanos() as f64 / TRIPLES as f64
}

/// Graph-layer probes on the graph a replay round ended with.
pub struct GraphProbe {
    /// `DataGraph::clone` — the per-batch scratch copy inside `apply_batch`.
    pub clone: Duration,
    /// `DataGraph::compact` of the overlay the script left behind.
    pub compact: Duration,
    /// BFS sweep on the compacted CSR, per edge visited.
    pub scan_ns_per_edge: f64,
    /// The same sweep on the un-compacted graph ÷ the compacted one.
    pub scan_overlay_ratio: f64,
}

/// The (up to) 64 evenly spaced sources of a sweep.
fn sweep_sources(g: &DataGraph) -> impl Iterator<Item = NodeId> {
    let n = g.node_count();
    (0..n)
        .step_by((n / 64).max(1))
        .map(|s| NodeId::new(s as u32))
}

/// Times one BFS from every sweep source.
fn bfs_sweep(g: &DataGraph) -> Duration {
    let t = Instant::now();
    for s in sweep_sources(g) {
        black_box(bfs_distances_bounded(g, s, None));
    }
    t.elapsed()
}

/// Edges one sweep scans: the out-edges of every node a source reaches.
fn sweep_edges(g: &DataGraph) -> u64 {
    sweep_sources(g)
        .map(|s| {
            let dist = bfs_distances_bounded(g, s, None);
            g.nodes()
                .filter(|v| dist[v.index()].is_some())
                .map(|v| g.out_degree(v) as u64)
                .sum::<u64>()
        })
        .sum::<u64>()
        .max(1)
}

/// Runs the graph probes on `overlaid`, a graph with an un-compacted overlay.
pub fn probe_graph(overlaid: &DataGraph) -> GraphProbe {
    let clone = floor_of(|| {
        let t = Instant::now();
        black_box(overlaid.clone());
        t.elapsed()
    });
    let compact = floor_of(|| {
        let mut g = overlaid.clone();
        let t = Instant::now();
        g.compact();
        t.elapsed()
    });
    let mut compacted = overlaid.clone();
    compacted.compact();
    // Compaction changes the layout, not the graph: both sweeps scan the
    // same edges.
    let edges = sweep_edges(&compacted) as f64;
    let scan = floor_of(|| bfs_sweep(&compacted)).as_nanos() as f64;
    let scan_overlay = floor_of(|| bfs_sweep(overlaid)).as_nanos() as f64;
    GraphProbe {
        clone,
        compact,
        scan_ns_per_edge: scan / edges,
        scan_overlay_ratio: scan_overlay / scan,
    }
}

/// Fixed fan-out cost of one batch: an empty `par_chunks_mut` region over
/// `items` one-element chunks on the single-worker executor, mean of 10⁵.
pub fn probe_region_overhead(items: usize) -> Duration {
    const REGIONS: u32 = 100_000;
    let exec = exec1();
    let mut data = vec![0u8; items.max(1)];
    floor_of(|| {
        let t = Instant::now();
        for _ in 0..REGIONS {
            exec.par_chunks_mut(black_box(&mut data), 1, |_, chunk| {
                black_box(chunk);
            });
        }
        t.elapsed()
    }) / REGIONS
}

/// Snapshot and recovery probes on a durable service that has run the
/// whole script.
pub struct DurableProbe {
    /// `snapshot_now()`.
    pub snapshot: Duration,
    /// Bytes under `snapshot/` afterwards.
    pub snapshot_bytes: u64,
    /// `open_durable_with` right after a snapshot: load only, empty WAL.
    pub recover_load: Duration,
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Runs the script through a durable in-process service under `dir`, then
/// times `snapshot_now` and a load-only reopen.
pub fn probe_durable(s: &UpdateScript, dir: &Path) -> Result<DurableProbe, String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    let opts = DurableOptions::default();
    let mut svc = MatchService::create_durable_with(
        dir,
        s.graph.clone(),
        s.shape.backend,
        Parallelism::new(1),
        opts,
    )
    .map_err(|e| err("create_durable_with", &e))?;
    for p in &s.patterns {
        svc.register(p.clone());
    }
    for batch in &s.batches {
        svc.apply(batch);
    }
    let mut snapshot = Duration::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        svc.snapshot_now().map_err(|e| err("snapshot_now", &e))?;
        snapshot = snapshot.min(t.elapsed());
    }
    drop(svc);
    let snapshot_bytes =
        dir_bytes(&dir.join(gpm::service::snapshot::SNAPSHOT_DIR)).map_err(|e| err("du", &e))?;
    let mut recover_load = Duration::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        let svc = MatchService::open_durable_with(dir, Parallelism::new(1), opts)
            .map_err(|e| err("open_durable_with", &e))?;
        recover_load = recover_load.min(t.elapsed());
        drop(svc);
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(DurableProbe {
        snapshot,
        snapshot_bytes,
        recover_load,
    })
}
