//! The service simulator: one seeded script of service operations, one
//! executor and one reference, shared by every service suite.
//!
//! The maximum match is unique, so after any interleaving of batches,
//! registrations, suspensions, crashes and reopens every active query must
//! equal a from-scratch `Match`. A [`Script`] is a list of [`WalOp`]s — the
//! operations the write-ahead log records — with subscribe and snapshot
//! steps between them, generated against an evolving copy of a labelled
//! power-law graph so every batch is valid at its position
//! ([`Script::generate`] rolls one at random; a [`Generator`] writes one by
//! hand). [`exec`] runs one op, and [`assert_reference`] is the one
//! reference: the service's oracle equals a rebuilt `DistanceMatrix`, and
//! each active query equals the naive fixpoint on it. The runs:
//!
//! * [`run_inprocess`] — on an in-process service, the reference after
//!   every step, and at the end every subscription's folded deltas equal
//!   the live result;
//! * [`durable_run`] and [`crash_sweep`] — a durable service, then a crash
//!   at each cut of its log, each reopen equal to a [`Rolling`] in-process
//!   reference over the records that survived, and one reopened at a
//!   record boundary driven on to the script's end and a tail;
//! * [`run_wire`] — the script through a `NetServer` on loopback.

use super::{forced, labelled_graph, TempRoot};
use gpm::exec::Parallelism;
use gpm::matching::naive::bounded_simulation_naive_with_oracle;
use gpm::net::{NetClient, NetServer, ServerOptions};
use gpm::service::snapshot::{decode_manifest, MANIFEST_FILE, SNAPSHOT_DIR};
use gpm::service::wal::{encode_record, read_wal_bytes, WalOp, WAL_FILE, WAL_MAGIC};
use gpm::{
    fold_deltas, generate_pattern, random_updates, BatchOutcome, DataGraph, DistanceMatrix,
    DurableOptions, EdgeUpdate, Executed, MatchDelta, MatchRelation, MatchService, NodeId,
    OracleBackend, PatternGenConfig, PatternGraph, QueryId, ServiceStats, UpdateStreamConfig,
};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::mpsc;

pub const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Seeds whose 20-roll scripts the in-process and thread-count suites run
/// on both back-ends.
pub const SEEDS: [u64; 6] = [0, 1, 2, 3, 0xC0FFEE, 0xBEE5];

/// One step of a script.
#[derive(Clone, Debug)]
pub enum Step {
    /// A logged operation. The generator writes only ops that take effect,
    /// so each appends exactly one WAL record and the first `k` ops are the
    /// history of a log holding `k` records.
    Op(WalOp),
    /// A new subscriber joins the query with this raw id.
    Subscribe(u64),
    /// `snapshot_now`, taken by the durable runs that keep snapshots.
    Snapshot,
}

/// A seeded script: its starting graph, its steps, the edges the steps
/// leave, and a tail of batches valid on that graph, which a reopened
/// service is driven through after the rest of the script.
pub struct Script {
    pub seed: u64,
    pub graph: DataGraph,
    pub steps: Vec<Step>,
    pub edges: Vec<(NodeId, NodeId)>,
    pub tail: Vec<Vec<EdgeUpdate>>,
}

impl Script {
    /// `rolls` random steps over a `nodes`-node graph. A batch on the
    /// empty catalog opens every script, a DAG and a cyclic query follow,
    /// one subscriber joins at the midpoint, at least one query is
    /// suspended across a batch, and the script ends with every suspended
    /// query resumed.
    pub fn generate(seed: u64, nodes: usize, rolls: usize) -> Script {
        let mut gen = Generator::new(seed, nodes);
        gen.mixed_batch();
        for dag in [true, false] {
            let p = gen.pattern(dag);
            gen.register(p);
            gen.subscribe();
        }
        for roll in 0..rolls {
            if roll == rolls / 2 {
                gen.subscribe();
            }
            match gen.rng.gen_range(0..14u32) {
                0 | 1 if gen.roster.len() < 5 => {
                    let p = match gen.retired.pop() {
                        Some(p) if gen.rng.gen_bool(0.5) => p,
                        _ => {
                            let dag = gen.rng.gen_bool(0.5);
                            gen.pattern(dag)
                        }
                    };
                    gen.register(p);
                }
                2 if gen.roster.len() > 2 => {
                    let i = gen.rng.gen_range(0..gen.roster.len());
                    gen.deregister_at(i);
                }
                3 | 4 => {
                    let i = gen.rng.gen_range(0..gen.roster.len());
                    gen.toggle_at(i);
                }
                5 => gen.batch(UpdateStreamConfig::mixed(1)),
                6 => gen.push_batch(Vec::new()),
                7 => gen.degenerate_batch(),
                8 => gen.subscribe(),
                9 => gen.steps.push(Step::Snapshot),
                _ => gen.mixed_batch(),
            }
        }
        if !gen.suspended_once {
            gen.toggle_at(0);
            gen.mixed_batch();
        }
        for i in 0..gen.roster.len() {
            if !gen.roster[i].2 {
                gen.toggle_at(i);
            }
        }
        gen.finish()
    }

    /// The logged operations, in order.
    pub fn ops(&self) -> Vec<WalOp> {
        self.steps
            .iter()
            .filter_map(|step| match step {
                Step::Op(op) => Some(op.clone()),
                _ => None,
            })
            .collect()
    }
}

pub fn sorted_edges(g: &DataGraph) -> Vec<(NodeId, NodeId)> {
    let mut edges: Vec<_> = g.edges().collect();
    edges.sort();
    edges
}

/// The generator's view of the service: the graph as the script has left
/// it and the catalog the script has built.
pub struct Generator {
    seed: u64,
    graph: DataGraph,
    rng: StdRng,
    scratch: DataGraph,
    steps: Vec<Step>,
    /// `(raw id, pattern, active)` of every registered query.
    roster: Vec<(u64, PatternGraph, bool)>,
    /// Deregistered patterns, which may be registered again.
    retired: Vec<PatternGraph>,
    next_id: u64,
    suspended_once: bool,
}

impl Generator {
    /// An empty script over a `nodes`-node labelled power-law graph with
    /// two edges per node.
    pub fn new(seed: u64, nodes: usize) -> Self {
        let graph = labelled_graph(nodes, nodes * 2, 4, seed);
        Generator {
            seed,
            rng: StdRng::seed_from_u64(seed),
            scratch: graph.clone(),
            graph,
            steps: Vec::new(),
            roster: Vec::new(),
            retired: Vec::new(),
            next_id: 0,
            suspended_once: false,
        }
    }

    /// A tree pattern of three or four nodes, or a three-node pattern with
    /// three edges and a cycle; bounds are 1, 2 or `*`, so batches move the
    /// matches of a two-edges-per-node graph.
    pub fn pattern(&mut self, dag: bool) -> PatternGraph {
        let (nodes, edges) = if dag {
            let n = self.rng.gen_range(3..5usize);
            (n, n - 1)
        } else {
            (3, 3)
        };
        (0..64)
            .map(|_| {
                let config = PatternGenConfig::new(nodes, edges, 2).with_seed(self.rng.gen());
                generate_pattern(&self.scratch, &config).0
            })
            .find(|p| p.is_dag() == dag)
            .expect("64 tries yield a pattern of either shape")
    }

    pub fn register(&mut self, p: PatternGraph) {
        self.steps.push(Step::Op(WalOp::Register(p.clone())));
        self.roster.push((self.next_id, p, true));
        self.next_id += 1;
    }

    /// Deregisters the `i`-th query of the roster.
    pub fn deregister_at(&mut self, i: usize) {
        let (id, p, _) = self.roster.remove(i);
        self.steps.push(Step::Op(WalOp::Deregister(id)));
        self.retired.push(p);
    }

    /// Suspends the `i`-th query of the roster if it is active, or resumes
    /// it if it is suspended.
    pub fn toggle_at(&mut self, i: usize) {
        let (id, _, active) = &mut self.roster[i];
        let op = if *active {
            self.suspended_once = true;
            WalOp::Suspend(*id)
        } else {
            WalOp::Resume(*id)
        };
        *active = !*active;
        self.steps.push(Step::Op(op));
    }

    /// A new subscriber on a random query of the roster.
    pub fn subscribe(&mut self) {
        let i = self.rng.gen_range(0..self.roster.len());
        self.steps.push(Step::Subscribe(self.roster[i].0));
    }

    pub fn batch(&mut self, config: UpdateStreamConfig) {
        let updates = random_updates(&self.scratch, &config.with_seed(self.rng.gen()));
        self.push_batch(updates);
    }

    pub fn mixed_batch(&mut self) {
        let n = self.rng.gen_range(3..15usize);
        self.batch(UpdateStreamConfig::mixed(n));
    }

    /// A batch of no-ops: a duplicate insert, a delete of a missing edge
    /// and an update on an unknown node.
    pub fn degenerate_batch(&mut self) {
        let Some((a, b)) = self.scratch.edges().next() else {
            return;
        };
        let missing = NodeId::new(self.scratch.node_count() as u32 + 5);
        self.push_batch(vec![
            EdgeUpdate::Insert(a, b),
            EdgeUpdate::Delete(missing, a),
            EdgeUpdate::Insert(missing, missing),
        ]);
    }

    pub fn push_batch(&mut self, updates: Vec<EdgeUpdate>) {
        for u in &updates {
            u.apply(&mut self.scratch);
        }
        self.steps.push(Step::Op(WalOp::Batch(updates)));
    }

    /// The script written so far, with the edges it leaves and a tail of
    /// two batches on them.
    pub fn finish(mut self) -> Script {
        let edges = sorted_edges(&self.scratch);
        let tail = (0..2u64)
            .map(|i| {
                let updates = random_updates(
                    &self.scratch,
                    &UpdateStreamConfig::mixed(5).with_seed(self.seed * 503 + i),
                );
                for u in &updates {
                    u.apply(&mut self.scratch);
                }
                updates
            })
            .collect();
        Script {
            seed: self.seed,
            graph: self.graph,
            steps: self.steps,
            edges,
            tail,
        }
    }
}

/// Runs one logged operation through `MatchService::execute` — the path
/// the public calls, reopening's replay and the wire server run — and
/// checks that it takes effect, as every op a script holds must.
pub fn exec(svc: &mut MatchService, op: &WalOp) -> Option<BatchOutcome> {
    match op {
        WalOp::Suspend(q) => {
            let q = QueryId::from_raw(*q);
            assert!(svc.result(q).is_some(), "suspends an active query");
        }
        WalOp::Resume(q) => {
            let q = QueryId::from_raw(*q);
            assert!(svc.result(q).is_none(), "resumes a suspended query");
        }
        _ => {}
    }
    match (op, svc.execute(op.clone()).unwrap()) {
        (WalOp::Batch(_), Executed::Applied(outcome)) => return Some(outcome),
        (WalOp::Register(_), Executed::Registered(id)) => {
            let ids = svc.catalog().ids();
            assert!(ids.iter().all(|&q| q <= id), "{id} reuses an id: {ids:?}");
        }
        (WalOp::Deregister(_) | WalOp::Suspend(_) | WalOp::Resume(_), Executed::Known(known)) => {
            assert!(known, "{op:?} names a registered query")
        }
        (op, executed) => panic!("{op:?} answered {executed:?}"),
    }
    None
}

/// The reference: the service's oracle answers every pair like a matrix
/// rebuilt from its graph, each active query equals the naive fixpoint on
/// that matrix, and a suspended one answers nothing.
pub fn assert_reference(svc: &MatchService, context: &str) {
    let g = svc.graph();
    let rebuilt = DistanceMatrix::build(g);
    for x in g.nodes() {
        for y in g.nodes() {
            assert_eq!(
                svc.oracle().nonempty_distance(g, x, y),
                rebuilt.nonempty_distance(x, y),
                "oracle at ({x:?}, {y:?}), {context}"
            );
        }
    }
    for id in svc.catalog().ids() {
        let entry = svc.catalog().get(id).unwrap();
        let live = svc.result(id);
        assert_eq!(live.is_some(), entry.is_active(), "query {id}, {context}");
        if let Some(live) = live {
            let naive = bounded_simulation_naive_with_oracle(entry.pattern(), g, &rebuilt);
            assert_eq!(live, naive.relation, "query {id}, {context}");
        }
    }
}

/// Everything a run shows its clients.
#[derive(Debug, PartialEq)]
pub struct Observed {
    /// Every batch's outcome, in script order.
    pub outcomes: Vec<BatchOutcome>,
    /// Each subscription's stream, in the order the script subscribed.
    pub streams: Vec<Vec<MatchDelta>>,
    /// Each registered query's final result.
    pub results: Vec<(QueryId, Option<MatchRelation>)>,
    pub stats: ServiceStats,
}

/// Runs a script on an in-process service. `checked` holds the reference
/// after every step; the graph the script leaves and the folded streams
/// are always checked at the end.
pub fn run_inprocess(
    script: &Script,
    backend: OracleBackend,
    parallelism: Parallelism,
    checked: bool,
) -> Observed {
    let mut svc = MatchService::with_backend(script.graph.clone(), backend, parallelism);
    let (mut outcomes, mut subs) = (Vec::new(), Vec::new());
    for (i, step) in script.steps.iter().enumerate() {
        match step {
            Step::Op(op) => outcomes.extend(exec(&mut svc, op)),
            Step::Subscribe(q) => subs.push(svc.subscribe(QueryId::from_raw(*q)).unwrap()),
            Step::Snapshot => {}
        }
        if checked {
            let context = format!("seed {:#x} step {i}, {backend:?}", script.seed);
            assert_reference(&svc, &context);
        }
    }
    assert_eq!(
        sorted_edges(svc.graph()),
        script.edges,
        "seed {:#x}",
        script.seed
    );
    let streams: Vec<Vec<MatchDelta>> = subs.iter().map(|s| s.drain()).collect();
    for (sub, stream) in subs.iter().zip(&streams) {
        if let Some(live) = svc.result(sub.query()) {
            let folded = fold_deltas(live.pattern_node_count(), stream.iter());
            assert_eq!(
                folded,
                live,
                "fold of {} (seed {:#x})",
                sub.query(),
                script.seed
            );
        }
    }
    let results = svc
        .catalog()
        .ids()
        .into_iter()
        .map(|id| (id, svc.result(id)))
        .collect();
    Observed {
        outcomes,
        streams,
        results,
        stats: svc.stats().clone(),
    }
}

pub fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// No automatic snapshots: the log keeps every op since the last
/// `snapshot_now`.
pub const WAL_ONLY: DurableOptions = DurableOptions {
    snapshot_every: None,
};

/// What a reopen must reproduce: the epoch, the graph, and for each query
/// whether it is active and the snapshot a new subscriber is sent.
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    pub epoch: u64,
    pub edges: Vec<(NodeId, NodeId)>,
    pub queries: Vec<(QueryId, bool, MatchDelta)>,
}

pub fn fingerprint(svc: &mut MatchService) -> Fingerprint {
    let edges = sorted_edges(svc.graph());
    let queries = svc
        .catalog()
        .ids()
        .into_iter()
        .map(|id| {
            let active = svc.catalog().get(id).unwrap().is_active();
            let mut stream = svc.subscribe(id).unwrap().drain();
            assert_eq!(stream.len(), 1, "a new subscriber is sent one snapshot");
            (id, active, stream.remove(0))
        })
        .collect();
    Fingerprint {
        epoch: svc.epoch(),
        edges,
        queries,
    }
}

/// The uninterrupted in-process run, advanced op by op, so each crash
/// point compares against the first `k` ops without re-running them.
pub struct Rolling {
    ops: Vec<WalOp>,
    svc: MatchService,
    done: usize,
    print: Fingerprint,
}

impl Rolling {
    pub fn new(script: &Script, backend: OracleBackend) -> Self {
        let mut svc = MatchService::with_backend(script.graph.clone(), backend, forced(1));
        let print = fingerprint(&mut svc);
        Rolling {
            ops: script.ops(),
            svc,
            done: 0,
            print,
        }
    }

    /// The fingerprint after the first `k` ops; `k` never decreases.
    pub fn at(&mut self, k: usize) -> &Fingerprint {
        assert!(k >= self.done, "crash points visit prefixes in order");
        if k > self.done {
            for op in &self.ops[self.done..k] {
                exec(&mut self.svc, op);
            }
            self.done = k;
            self.print = fingerprint(&mut self.svc);
        }
        &self.print
    }
}

/// An uninterrupted durable run of a script.
pub struct DurableRun {
    /// The directory just after `create_durable`.
    pub created: PathBuf,
    /// The directory after the script.
    pub dir: PathBuf,
    /// Each op's outcome (`None` for an op that is not a batch).
    pub outcomes: Vec<Option<BatchOutcome>>,
    /// The tail's outcomes.
    pub tail: Vec<BatchOutcome>,
    /// The log the script left (before the tail).
    pub wal: Vec<u8>,
    /// The directory as the script left it, before the tail: the snapshot
    /// that `wal` continues.
    pub scripted: PathBuf,
    /// The ops that snapshot holds (0 without one).
    pub base: usize,
    /// The fingerprint after the tail.
    pub end: Fingerprint,
}

/// Runs a script, then its tail, on a new durable service under `root`.
/// Snapshot steps are taken only when `opts` folds the log on its own
/// cadence, so a `WAL_ONLY` log keeps the whole history. Each subscriber
/// reads the log as each delta reaches it: the op that emitted the delta
/// must already be its last record. With a cadence of `n`, the log holds
/// fewer than `n` records after every op.
pub fn durable_run(
    script: &Script,
    root: &TempRoot,
    backend: OracleBackend,
    threads: usize,
    opts: DurableOptions,
) -> DurableRun {
    let (created, dir) = (root.path("created"), root.path("svc"));
    let mut svc = MatchService::create_durable_with(
        &dir,
        script.graph.clone(),
        backend,
        forced(threads),
        opts,
    )
    .unwrap();
    copy_dir(&dir, &created);
    let wal_path = dir.join(WAL_FILE);
    let logged = |path: &Path| read_wal_bytes(&fs::read(path).unwrap()).unwrap().records;
    let (tx, rx) = mpsc::channel();
    let mut outcomes = Vec::new();
    for step in &script.steps {
        match step {
            Step::Op(op) => {
                outcomes.push(exec(&mut svc, op));
                for seen in rx.try_iter() {
                    assert_eq!(
                        seen,
                        Some(outcomes.len() as u64),
                        "a delta of op {} was sent before the op was logged",
                        outcomes.len() - 1
                    );
                }
                if let Some(n) = opts.snapshot_every {
                    assert!((logged(&wal_path).len() as u64) < n, "the log outgrew {n}");
                }
            }
            Step::Subscribe(q) => {
                let (tx, path) = (tx.clone(), wal_path.clone());
                let sink = move |_: &MatchDelta| {
                    let last = logged(&path).last().map(|r| r.seq + 1);
                    tx.send(last).is_ok()
                };
                assert!(svc.subscribe_with(QueryId::from_raw(*q), sink));
                rx.try_iter().for_each(drop); // the snapshot
            }
            Step::Snapshot if opts.snapshot_every.is_some() => svc.snapshot_now().unwrap(),
            Step::Snapshot => {}
        }
    }
    let wal = fs::read(&wal_path).unwrap();
    let scripted = root.path("scripted");
    copy_dir(&dir, &scripted);
    let base = match fs::read(scripted.join(SNAPSHOT_DIR).join(MANIFEST_FILE)) {
        Ok(manifest) => decode_manifest(&manifest).unwrap().next_seq as usize,
        Err(_) => 0,
    };
    let tail = script.tail.iter().map(|b| svc.apply(b)).collect();
    DurableRun {
        created,
        dir,
        outcomes,
        tail,
        wal,
        scripted,
        base,
        end: fingerprint(&mut svc),
    }
}

/// Which prefixes of a log a sweep crashes at.
pub enum Cuts {
    /// Every byte: each record boundary and each torn prefix.
    EveryByte,
    /// The empty file, the bare magic and each record boundary.
    Records,
}

/// Crashes a durable run: its log, cut at each of `cuts`, is put beside
/// the snapshot of `from` (whose snapshot holds the first `base` ops) and
/// reopened. Each reopen must equal the rolling reference over the records
/// that survived. At a record boundary the reopened service, with a new
/// subscriber on every query, is driven through the rest of the script and
/// the tail: its batch outcomes and its end must be the uninterrupted
/// run's, and each subscriber's folded stream the live result. Returns the
/// number of boundaries driven on.
pub fn crash_sweep(
    script: &Script,
    run: &DurableRun,
    from: &Path,
    base: usize,
    (backend, threads): (OracleBackend, usize),
    cuts: Cuts,
) -> usize {
    let crash = from.with_extension("crash");
    let _ = fs::remove_dir_all(&crash);
    copy_dir(from, &crash);
    let cuts: Vec<usize> = match cuts {
        Cuts::EveryByte => (0..=run.wal.len()).collect(),
        Cuts::Records => {
            let mut cuts = vec![0, WAL_MAGIC.len()];
            for record in read_wal_bytes(&run.wal).unwrap().records {
                cuts.push(cuts.last().unwrap() + encode_record(&record).unwrap().len());
            }
            cuts
        }
    };
    let ops = script.ops();
    let mut rolling = Rolling::new(script, backend);
    let mut boundaries = 0;
    for cut in cuts {
        let image = &run.wal[..cut];
        let decoded = read_wal_bytes(image).unwrap();
        let k = base + decoded.records.len();
        fs::write(crash.join(WAL_FILE), image).unwrap();
        let mut svc = MatchService::open_durable_with(&crash, forced(threads), WAL_ONLY)
            .unwrap_or_else(|e| panic!("the cut at byte {cut} did not reopen: {e}"));
        let context = format!("seed {:#x}, cut at byte {cut}, {k} ops", script.seed);
        assert_eq!(fingerprint(&mut svc), *rolling.at(k), "{context}");
        if decoded.torn_bytes > 0 {
            continue;
        }
        boundaries += 1;
        let subs: Vec<_> = (svc.catalog().ids().into_iter())
            .map(|id| svc.subscribe(id).unwrap())
            .collect();
        let mut continued: Vec<_> = ops[k..]
            .iter()
            .filter_map(|op| exec(&mut svc, op))
            .collect();
        continued.extend(script.tail.iter().map(|b| svc.apply(b)));
        let expected: Vec<_> = (run.outcomes[k..].iter().flatten())
            .chain(&run.tail)
            .cloned()
            .collect();
        assert_eq!(continued, expected, "outcomes driven on, {context}");
        for sub in &subs {
            if let Some(live) = svc.result(sub.query()) {
                let folded = fold_deltas(live.pattern_node_count(), sub.drain().iter());
                assert_eq!(folded, live, "fold of {}, {context}", sub.query());
            }
        }
        assert_eq!(fingerprint(&mut svc), run.end, "the end, {context}");
    }
    boundaries
}

/// Runs one logged operation through a wire client, as [`exec`] does in
/// process; a batch's reply comes back as a [`BatchOutcome`].
pub fn wire_exec(admin: &mut NetClient, op: &WalOp) -> Option<BatchOutcome> {
    match op {
        WalOp::Batch(updates) => {
            let reply = admin.apply(updates).unwrap();
            return Some(BatchOutcome {
                epoch: reply.epoch,
                applied: reply.applied as usize,
                aff1: reply.aff1 as usize,
                deltas: reply.deltas,
            });
        }
        WalOp::Register(p) => {
            admin.register(p).unwrap();
        }
        WalOp::Deregister(q) => assert!(admin.deregister(*q).unwrap()),
        WalOp::Suspend(q) => assert!(admin.suspend(*q).unwrap()),
        WalOp::Resume(q) => assert!(admin.resume(*q).unwrap()),
    }
    None
}

/// Runs a script through a loopback `NetServer`: one admin connection for
/// the ops, one connection per subscribe step. Each query's `result` over
/// the wire must equal `live`. Returns each batch's reply and each
/// subscription's stream, ended by deregistering every query.
pub fn run_wire(
    script: &Script,
    backend: OracleBackend,
    threads: usize,
    live: &[(QueryId, Option<MatchRelation>)],
) -> (Vec<BatchOutcome>, Vec<Vec<MatchDelta>>) {
    let svc = MatchService::with_backend(script.graph.clone(), backend, forced(threads));
    let server = NetServer::bind("127.0.0.1:0", svc, ServerOptions::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();
    let mut admin = NetClient::connect(addr).unwrap();
    let (mut outcomes, mut subs) = (Vec::new(), Vec::new());
    for step in &script.steps {
        match step {
            Step::Op(op) => outcomes.extend(wire_exec(&mut admin, op)),
            Step::Subscribe(q) => {
                subs.push(NetClient::connect(addr).unwrap().subscribe(*q).unwrap())
            }
            Step::Snapshot => {}
        }
    }
    for (id, result) in live {
        assert_eq!(
            &admin.result(id.value()).unwrap(),
            result,
            "{id} over the wire"
        );
        assert!(admin.deregister(id.value()).unwrap());
    }
    let streams = subs
        .iter_mut()
        .map(|s| s.collect_to_end().unwrap())
        .collect();
    handle.shutdown();
    (outcomes, streams)
}
