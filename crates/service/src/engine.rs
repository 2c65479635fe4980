//! The continuous-query engine: one evolving graph, many standing patterns.
//!
//! [`MatchService`] owns the shared state every registered query needs — the
//! data graph and its maintained distance oracle — and multiplexes update
//! batches across the catalog:
//!
//! 1. the batch is applied to the graph and the oracle is maintained with
//!    `UpdateBM` **once**, producing the shared affected area `AFF1`
//!    (this is the expensive step, and it is paid per batch, not per query);
//! 2. if that `AFF1` is non-empty, one sequential loop in registration
//!    order repairs each active query's match state from it
//!    (`gpm_incremental::repair_match_state`) and emits the query's delta —
//!    counted once, then pushed into its subscriber sinks — so the
//!    per-query streams (and the batch outcome) are bit-identical at any
//!    thread count. The service is the one owner of a maintained match, and
//!    [`MatchService::apply`] is its one refresh path.
//!
//! A query is active iff it holds a match state. [`MatchService::suspend`]
//! frees it; [`MatchService::resume`] rebuilds it at once and hands the
//! catch-up delta to the same private `emit` every batch delta goes
//! through, so there is one place that diffs a state against what
//! subscribers were told, counts it and hands it out, and
//! [`MatchService::result`] is a pure read.
//!
//! Cyclic patterns are first-class: the repair serves every pattern, so a
//! batch never recomputes a query's state — only registration and
//! [`MatchService::resume`] build one from scratch, and reopening a durable
//! service resumes each active query: snapshots persist no match state.
//!
//! The distance backend is pluggable ([`MatchService::with_backend`] /
//! `GPM_ORACLE`): the paper's quadratic matrix, or the sublinear-memory
//! incremental 2-hop labeling for graphs where `|V|²` does not fit.

use crate::catalog::{QueryCatalog, QueryEntry, RepairKind};
use crate::delta::{MatchDelta, QueryId, Subscription};
use crate::snapshot::{self, SNAPSHOT_DIR};
use crate::wal::{self, DurabilityError, WalOp, WalReadOutcome, WalWriter, WAL_FILE};
use gpm_core::MatchRelation;
use gpm_distance::{AffectedPairs, DistanceOracle, EdgeUpdate, OracleBackend};
use gpm_exec::{Executor, Parallelism};
use gpm_graph::{DataGraph, PatternGraph};
use gpm_incremental::{repair_match_state, MatchState};
use std::path::{Path, PathBuf};
use std::sync::mpsc;

/// Counters describing the work the service has done since construction.
///
/// `aff_computations` is the headline amortisation metric: a service with
/// `K` registered queries performs **one** affected-area computation per
/// update batch, where `K` single-query services would perform `K` (the
/// `svc_continuous` experiment prints both sides).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Update batches applied.
    pub batches: usize,
    /// Individual updates that took effect (no-ops excluded).
    pub updates_applied: usize,
    /// Shared affected-area (`UpdateBM`) computations performed.
    pub aff_computations: usize,
    /// Per-query incremental repairs driven by a shared `AFF1`.
    pub repairs: usize,
    /// Activations: match states rebuilt by [`MatchService::resume`],
    /// reopening a durable service included.
    pub activations: usize,
    /// Non-empty per-query deltas emitted.
    pub deltas_emitted: usize,
    /// Candidate re-verifications across all per-query repairs.
    pub verifications: usize,
}

/// What one [`MatchService::apply`] call did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// The epoch this batch was assigned (monotonic, starting at 1).
    pub epoch: u64,
    /// Updates that took effect (duplicates/missing edges are skipped).
    pub applied: usize,
    /// `|AFF1|` of the shared distance maintenance.
    pub aff1: usize,
    /// The non-empty per-query deltas, in registration order. The same
    /// deltas are pushed to each query's subscribers.
    pub deltas: Vec<MatchDelta>,
}

/// Knobs for a durable service (see [`MatchService::create_durable`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DurableOptions {
    /// Fold state into a fresh snapshot (and truncate the log) every this
    /// many WAL records; `None` disables automatic snapshots — only
    /// [`MatchService::snapshot_now`] folds. Smaller values mean faster
    /// reopen, larger values mean less write amplification.
    pub snapshot_every: Option<u64>,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            snapshot_every: Some(512),
        }
    }
}

/// The attached durability state of a durable service.
struct Durability {
    dir: PathBuf,
    writer: WalWriter,
    backend: OracleBackend,
    snapshot_every: Option<u64>,
    records_since_snapshot: u64,
}

/// A continuous multi-pattern matching service over one evolving graph.
///
/// ```
/// use gpm_graph::{DataGraphBuilder, PatternGraphBuilder};
/// use gpm_distance::EdgeUpdate;
/// use gpm_service::MatchService;
///
/// let (g, ids) = DataGraphBuilder::new()
///     .labeled_node("boss")
///     .labeled_node("mid")
///     .labeled_node("worker")
///     .edge("boss", "mid")
///     .build()
///     .unwrap();
/// let (p, _) = PatternGraphBuilder::new()
///     .labeled_node("boss")
///     .labeled_node("worker")
///     .edge("boss", "worker", 2u32)
///     .build()
///     .unwrap();
///
/// let mut svc = MatchService::new(g);
/// let q = svc.register(p);
/// let sub = svc.subscribe(q).unwrap();
/// assert!(svc.result(q).unwrap().is_empty()); // no boss→worker path yet
///
/// let out = svc.apply(&[EdgeUpdate::Insert(ids["mid"], ids["worker"])]);
/// assert_eq!(out.deltas.len(), 1); // the match appeared
/// assert!(!svc.result(q).unwrap().is_empty());
/// // Subscribers see the same stream: snapshot + the batch delta.
/// assert_eq!(sub.drain().len(), 2);
/// ```
pub struct MatchService {
    graph: DataGraph,
    oracle: Box<dyn DistanceOracle + Send + Sync>,
    exec: Executor,
    catalog: QueryCatalog,
    epoch: u64,
    stats: ServiceStats,
    durability: Option<Durability>,
}

impl std::fmt::Debug for MatchService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatchService")
            .field("graph", &self.graph)
            .field("oracle", &self.oracle.name())
            .field("catalog", &self.catalog)
            .field("epoch", &self.epoch)
            .field("stats", &self.stats)
            .field("durable_dir", &self.durability.as_ref().map(|d| &d.dir))
            .finish_non_exhaustive()
    }
}

impl MatchService {
    /// Builds the service around a data graph: the shared distance oracle is
    /// computed once, up front, on the process-default [`Parallelism`]. The
    /// backend comes from [`OracleBackend::from_env`] (`GPM_ORACLE`).
    pub fn new(graph: DataGraph) -> Self {
        Self::with_parallelism(graph, Parallelism::from_env())
    }

    /// [`MatchService::new`] with an explicit [`Parallelism`] policy, used
    /// for the oracle build and every match-state build (registration and
    /// resume).
    pub fn with_parallelism(graph: DataGraph, parallelism: Parallelism) -> Self {
        Self::with_backend(graph, OracleBackend::from_env(), parallelism)
    }

    /// Builds the service on an explicitly selected distance backend.
    pub fn with_backend(
        graph: DataGraph,
        backend: OracleBackend,
        parallelism: Parallelism,
    ) -> Self {
        let exec = Executor::new(parallelism);
        let oracle = backend.build(&graph, &exec);
        MatchService {
            graph,
            oracle,
            exec,
            catalog: QueryCatalog::new(),
            epoch: 0,
            stats: ServiceStats::default(),
            durability: None,
        }
    }

    /// Creates a **durable** service rooted at `dir`: an initial snapshot of
    /// `graph` plus an empty write-ahead log, after which every mutating
    /// call is persisted before it returns. Backend and parallelism come
    /// from the environment (`GPM_ORACLE` / `GPM_THREADS`).
    ///
    /// Fails with [`DurabilityError::State`] if `dir` already holds a
    /// durable service (reopen those with [`MatchService::open_durable`]).
    ///
    /// ```
    /// use gpm_graph::{DataGraphBuilder, PatternGraphBuilder};
    /// use gpm_distance::EdgeUpdate;
    /// use gpm_service::{DurableOptions, MatchService};
    ///
    /// let dir = std::env::temp_dir().join(format!("gpm-durable-doc-{}", std::process::id()));
    /// let (g, ids) = DataGraphBuilder::new()
    ///     .labeled_node("boss")
    ///     .labeled_node("worker")
    ///     .build()
    ///     .unwrap();
    /// let (p, _) = PatternGraphBuilder::new()
    ///     .labeled_node("boss")
    ///     .labeled_node("worker")
    ///     .edge("boss", "worker", 2u32)
    ///     .build()
    ///     .unwrap();
    ///
    /// let mut svc = MatchService::create_durable(&dir, g, DurableOptions::default()).unwrap();
    /// let q = svc.register(p);
    /// svc.apply(&[EdgeUpdate::Insert(ids["boss"], ids["worker"])]);
    /// let live = svc.result(q).unwrap();
    /// drop(svc); // "crash"
    ///
    /// // Reopen: snapshot + log replay rebuild the exact same state.
    /// let mut svc = MatchService::open_durable(&dir, DurableOptions::default()).unwrap();
    /// assert_eq!(svc.result(q).unwrap(), live);
    /// std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn create_durable(
        dir: &Path,
        graph: DataGraph,
        opts: DurableOptions,
    ) -> Result<Self, DurabilityError> {
        Self::create_durable_with(
            dir,
            graph,
            OracleBackend::from_env(),
            Parallelism::from_env(),
            opts,
        )
    }

    /// [`MatchService::create_durable`] with explicit backend and
    /// parallelism. The backend choice is persisted in the snapshot
    /// manifest: reopening uses the *persisted* backend, not the
    /// environment's, so a directory never silently switches oracle.
    pub fn create_durable_with(
        dir: &Path,
        graph: DataGraph,
        backend: OracleBackend,
        parallelism: Parallelism,
        opts: DurableOptions,
    ) -> Result<Self, DurabilityError> {
        std::fs::create_dir_all(dir)?;
        if dir.join(WAL_FILE).exists() || dir.join(SNAPSHOT_DIR).exists() {
            return Err(DurabilityError::State(format!(
                "{} already holds a durable service — use open_durable",
                dir.display()
            )));
        }
        let mut svc = Self::with_backend(graph, backend, parallelism);
        snapshot::write_snapshot(dir, &svc.graph, backend, 0, 0, &svc.catalog)?;
        let writer = WalWriter::create(&dir.join(WAL_FILE), 0)?;
        svc.durability = Some(Durability {
            dir: dir.to_path_buf(),
            writer,
            backend,
            snapshot_every: opts.snapshot_every,
            records_since_snapshot: 0,
        });
        Ok(svc)
    }

    /// Reopens a durable service directory: loads the latest snapshot,
    /// detects and truncates any torn WAL tail, replays the surviving
    /// records through the normal engine paths, and resumes appending.
    ///
    /// The recovered service is **bit-identical** to the uninterrupted one:
    /// subsequent [`BatchOutcome`]s, [`Subscription`] streams and
    /// [`MatchService::result`]s are exactly what the original process
    /// would have produced — on either oracle backend and at any thread
    /// count (the differential recovery suite enforces this at every
    /// possible crash point). Each active query's match state is rebuilt
    /// by [`MatchService::resume`]. Uses the process-default [`Parallelism`].
    pub fn open_durable(dir: &Path, opts: DurableOptions) -> Result<Self, DurabilityError> {
        Self::open_durable_with(dir, Parallelism::from_env(), opts)
    }

    /// [`MatchService::open_durable`] with an explicit [`Parallelism`].
    pub fn open_durable_with(
        dir: &Path,
        parallelism: Parallelism,
        opts: DurableOptions,
    ) -> Result<Self, DurabilityError> {
        let loaded = snapshot::load_snapshot(dir)?;
        let backend = OracleBackend::parse(&loaded.manifest.backend).map_err(|e| {
            DurabilityError::Corrupt(format!("manifest names an unknown backend: {e}"))
        })?;
        // Only the backend *choice* is persisted: both oracles are exact,
        // so rebuilding one from the recovered graph reproduces every
        // distance — and therefore every downstream match — bit for bit.
        let mut svc = Self::with_backend(loaded.graph, backend, parallelism);
        svc.epoch = loaded.manifest.epoch;
        // Nor are match states: the catalog comes back suspended and
        // `resume` rebuilds each active one. The maximum match is unique, so
        // the rebuilt state is the lost one and its catch-up delta is empty.
        svc.catalog = snapshot::restore_catalog(&loaded.manifest)?;
        for q in loaded.manifest.queries.iter().filter(|q| q.active) {
            svc.resume(QueryId(q.id));
        }

        let wal_path = dir.join(WAL_FILE);
        let outcome = if wal_path.exists() {
            wal::read_wal(&wal_path)?
        } else {
            // Crash between `create_durable`'s first snapshot and its log:
            // the snapshot alone is the complete state.
            WalReadOutcome {
                records: Vec::new(),
                valid_len: 0,
                torn_bytes: 0,
            }
        };
        let mut next_seq = loaded.manifest.next_seq;
        for record in &outcome.records {
            if record.seq < loaded.manifest.next_seq {
                continue; // already folded into the snapshot
            }
            if record.seq != next_seq {
                return Err(DurabilityError::Corrupt(format!(
                    "WAL is missing records: expected seq {next_seq}, found {}",
                    record.seq
                )));
            }
            svc.replay(&record.op);
            next_seq += 1;
        }
        let replayed = next_seq - loaded.manifest.next_seq;
        let writer = WalWriter::resume(&wal_path, &outcome, next_seq)?;
        svc.durability = Some(Durability {
            dir: dir.to_path_buf(),
            writer,
            backend,
            snapshot_every: opts.snapshot_every,
            records_since_snapshot: replayed,
        });
        svc.maybe_autosnapshot();
        Ok(svc)
    }

    /// Re-executes one recovered operation through the normal engine paths
    /// (durability is not yet attached, so nothing is re-logged). Replaying
    /// the identical call sequence on identical state is what makes
    /// recovery bit-identical.
    fn replay(&mut self, op: &WalOp) {
        match op {
            WalOp::Batch(updates) => {
                self.apply(updates);
            }
            WalOp::Register(pattern) => {
                self.register(pattern.clone());
            }
            WalOp::Deregister(id) => {
                self.deregister(QueryId(*id));
            }
            WalOp::Suspend(id) => {
                self.suspend(QueryId(*id));
            }
            WalOp::Resume(id) => {
                self.resume(QueryId(*id));
            }
        }
    }

    /// Folds the current state into a fresh snapshot and truncates the log
    /// (one rename replaces the snapshot file — a crash mid-snapshot
    /// recovers to either the old or the new one, never a mix). Errors on
    /// non-durable services.
    pub fn snapshot_now(&mut self) -> Result<(), DurabilityError> {
        let Some(d) = self.durability.as_mut() else {
            return Err(DurabilityError::State(
                "snapshot_now on a non-durable service (open it with create_durable/open_durable)"
                    .to_string(),
            ));
        };
        let obs = crate::metrics::service();
        let fold_span = obs.fold_ns.span();
        let next_seq = d.writer.next_seq();
        snapshot::write_snapshot(
            &d.dir,
            &self.graph,
            d.backend,
            self.epoch,
            next_seq,
            &self.catalog,
        )?;
        // Only after the rename is durable may the log forget the history
        // the snapshot now covers.
        d.writer = WalWriter::create(&d.dir.join(WAL_FILE), next_seq)?;
        d.records_since_snapshot = 0;
        obs.snapshots.inc();
        let ns = fold_span.finish();
        if gpm_obs::enabled() {
            gpm_obs::emit_event(
                "service",
                "snapshot",
                &[
                    ("dur_ns", ns),
                    ("epoch", self.epoch),
                    ("next_seq", next_seq),
                ],
                &[],
            );
        }
        Ok(())
    }

    /// Appends one operation to the WAL (fsynced) before it takes effect.
    ///
    /// An append failure means durability can no longer be guaranteed; the
    /// service follows crash-stop semantics and panics rather than continue
    /// with an in-memory state the log does not cover.
    fn log_op(&mut self, op: WalOp) {
        if let Some(d) = self.durability.as_mut() {
            if let Err(e) = d.writer.append(op) {
                panic!("durable MatchService: WAL append failed, cannot continue safely: {e}");
            }
            d.records_since_snapshot += 1;
        }
    }

    /// Runs the automatic snapshot policy; called after every logged
    /// operation has fully taken effect. Crash-stop on failure, like
    /// [`MatchService::log_op`].
    fn maybe_autosnapshot(&mut self) {
        let due = self.durability.as_ref().is_some_and(|d| {
            d.snapshot_every
                .is_some_and(|n| d.records_since_snapshot >= n)
        });
        if due {
            if let Err(e) = self.snapshot_now() {
                panic!(
                    "durable MatchService: automatic snapshot failed, cannot continue safely: {e}"
                );
            }
        }
    }

    /// The current data graph.
    pub fn graph(&self) -> &DataGraph {
        &self.graph
    }

    /// The shared, maintained distance oracle.
    pub fn oracle(&self) -> &(dyn DistanceOracle + Send + Sync) {
        self.oracle.as_ref()
    }

    /// The query catalog (read access).
    pub fn catalog(&self) -> &QueryCatalog {
        &self.catalog
    }

    /// Work counters since construction.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The epoch of the most recent batch (0 before any update).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Registers a standing pattern; its initial match is computed against
    /// the current graph immediately. Returns the query's stable id.
    ///
    /// The match is computed before the registration is logged, so a build
    /// that panics leaves the log and the catalog as they were.
    pub fn register(&mut self, pattern: PatternGraph) -> QueryId {
        let obs = crate::metrics::service();
        obs.registers.inc();
        let _span = obs.register_ns.span();
        let state =
            MatchState::initialise_with(&pattern, &self.graph, self.oracle.as_ref(), &self.exec);
        if self.durability.is_some() {
            self.log_op(WalOp::Register(pattern.clone()));
        }
        let emitted = state.relation();
        let id = self.catalog.register(pattern, state, emitted);
        self.maybe_autosnapshot();
        id
    }

    /// Removes a query; its subscriptions close. Returns whether the id was
    /// registered.
    pub fn deregister(&mut self, id: QueryId) -> bool {
        if self.catalog.get(id).is_none() {
            return false; // no-op, nothing to log
        }
        self.log_op(WalOp::Deregister(id.0));
        let removed = self.catalog.deregister(id);
        self.maybe_autosnapshot();
        removed
    }

    /// Suspends a query: its match state is freed, so it stops
    /// participating in per-batch repair. Subscriptions stay open but
    /// silent. Suspending a suspended query changes nothing and logs
    /// nothing. Returns `false` for unknown ids.
    pub fn suspend(&mut self, id: QueryId) -> bool {
        let Some(entry) = self.catalog.get(id) else {
            return false;
        };
        if entry.state.is_some() {
            self.log_op(WalOp::Suspend(id.0));
            self.catalog.get_mut(id).expect("checked above").state = None;
            self.maybe_autosnapshot();
        }
        true
    }

    /// Resumes a suspended query: its state is rebuilt against the current
    /// graph right here (counted in [`ServiceStats::activations`]), and
    /// subscribers receive one catch-up delta covering everything missed
    /// while suspended. The state is built before the resume is logged, as
    /// in [`MatchService::register`]. Resuming an active query changes
    /// nothing and logs nothing. Returns `false` for unknown ids.
    pub fn resume(&mut self, id: QueryId) -> bool {
        let Some(entry) = self.catalog.get(id) else {
            return false;
        };
        if entry.state.is_none() {
            let state = MatchState::initialise_with(
                &entry.pattern,
                &self.graph,
                self.oracle.as_ref(),
                &self.exec,
            );
            self.log_op(WalOp::Resume(id.0));
            let entry = self.catalog.get_mut(id).expect("checked above");
            entry.state = Some(state);
            emit(
                entry,
                RepairKind::Activation,
                0,
                self.epoch,
                &mut self.stats,
            );
            self.maybe_autosnapshot();
        }
        true
    }

    /// Subscribes to a query's delta stream. The first delta is a snapshot
    /// of the result as of the last emission, so folding the stream from an
    /// empty relation reproduces the query's result. Returns `None` for
    /// unknown ids.
    pub fn subscribe(&mut self, id: QueryId) -> Option<Subscription> {
        let (tx, rx) = mpsc::channel();
        self.subscribe_with(id, move |delta| tx.send(delta.clone()).is_ok())
            .then_some(Subscription { query: id, rx })
    }

    /// [`MatchService::subscribe`] with the consumer's own sink in place of
    /// a channel: `sink` is handed the snapshot right here and every later
    /// delta of the query from inside the emission loop, in emission order,
    /// until it returns `false` (it is then forgotten) or the query is
    /// deregistered (it is then dropped). The sink runs while the service is
    /// mutably borrowed — under the service lock of `gpm-net` — so it must
    /// not call back into the service, and a sink that blocks blocks the
    /// batch being applied. Returns `false` for unknown ids.
    pub fn subscribe_with(
        &mut self,
        id: QueryId,
        mut sink: impl FnMut(&MatchDelta) -> bool + Send + 'static,
    ) -> bool {
        let epoch = self.epoch;
        let Some(entry) = self.catalog.get_mut(id) else {
            return false;
        };
        if sink(&MatchDelta::snapshot(id, epoch, &entry.emitted)) {
            entry.subscribers.push(Box::new(sink));
        }
        true
    }

    /// The query's current visible result — what its subscribers' folded
    /// streams equal. A pure read. Returns `None` for unknown or suspended
    /// queries.
    pub fn result(&self, id: QueryId) -> Option<MatchRelation> {
        self.catalog
            .get(id)?
            .state
            .as_ref()
            .map(MatchState::relation)
    }

    /// Applies one update (sugar for a one-element [`MatchService::apply`]).
    pub fn apply_one(&mut self, update: EdgeUpdate) -> BatchOutcome {
        self.apply(&[update])
    }

    /// Applies a batch of updates and brings every active query up to date.
    ///
    /// Updates that are no-ops at their position in the batch — inserting an
    /// existing edge, deleting a missing one, or touching an unknown node —
    /// are skipped, exactly like `IncMatch`'s batch semantics; the service
    /// never leaves queries inconsistent halfway through a batch. The
    /// returned outcome carries every non-empty per-query delta; the same
    /// deltas are pushed to subscribers.
    pub fn apply(&mut self, updates: &[EdgeUpdate]) -> BatchOutcome {
        let obs = crate::metrics::service();
        let batch_span = obs.batch_ns.span();
        if self.durability.is_some() {
            // Even empty batches bump the epoch, so every apply is logged.
            self.log_op(WalOp::Batch(updates.to_vec()));
        }
        self.epoch += 1;
        self.stats.batches += 1;
        obs.batches.inc();

        // Step 1: shared maintenance, paid once for the whole catalog.
        let mut applied: Vec<EdgeUpdate> = Vec::with_capacity(updates.len());
        for u in updates {
            if u.apply(&mut self.graph) {
                applied.push(*u);
            }
        }
        self.stats.updates_applied += applied.len();
        obs.updates_applied.add(applied.len() as u64);
        let aff1 = if applied.is_empty() {
            AffectedPairs::default()
        } else {
            self.stats.aff_computations += 1;
            let aff_span = obs.aff_ns.span();
            let aff1 = self.oracle.apply_batch(&self.graph, &applied, &self.exec);
            aff_span.finish();
            aff1
        };

        // Step 2: refresh and emit each active query, in registration
        // order. A batch that left the oracle untouched changes no query.
        let epoch = self.epoch;
        let mut outcome = BatchOutcome {
            epoch,
            applied: applied.len(),
            aff1: aff1.len(),
            deltas: Vec::new(),
        };
        let mut refreshed = 0u64;
        if !aff1.is_empty() {
            let (graph, oracle) = (&self.graph, self.oracle.as_ref());
            for entry in self.catalog.iter_mut() {
                let Some(state) = entry.state.as_mut() else {
                    continue;
                };
                let out = repair_match_state(&entry.pattern, graph, oracle, state, &aff1)
                    .unwrap_or_else(|never| match never {});
                refreshed += 1;
                let delta = emit(
                    entry,
                    RepairKind::Incremental,
                    out.verifications,
                    epoch,
                    &mut self.stats,
                );
                outcome.deltas.extend(delta);
            }
        }
        obs.fanout_size.record(refreshed);
        self.maybe_autosnapshot();
        batch_span.finish();
        outcome
    }
}

/// Hands one query's freshly refreshed state to its subscribers: counts
/// what the refresh did — [`ServiceStats`] and its `service.*` twins at one
/// site — diffs the state against what subscribers were last told, and
/// pushes a non-empty delta into the entry's sinks, dropping the sinks that
/// decline it. Returns that delta for the batch outcome.
fn emit(
    entry: &mut QueryEntry,
    kind: RepairKind,
    verifications: usize,
    epoch: u64,
    stats: &mut ServiceStats,
) -> Option<MatchDelta> {
    let obs = crate::metrics::service();
    match kind {
        RepairKind::Incremental => {
            stats.repairs += 1;
            obs.repairs.inc();
        }
        RepairKind::Activation => {
            stats.activations += 1;
            obs.activations.inc();
        }
    }
    stats.verifications += verifications;
    obs.verifications.add(verifications as u64);
    let visible = entry
        .state
        .as_ref()
        .expect("a refreshed query holds a state")
        .relation();
    let delta = MatchDelta::between(entry.id, epoch, &entry.emitted, &visible);
    entry.emitted = visible;
    if delta.is_empty() {
        return None;
    }
    stats.deltas_emitted += 1;
    if gpm_obs::enabled() {
        let pairs = delta.len() as u64;
        obs.deltas_emitted.inc();
        obs.delta_pairs.add(pairs);
        obs.delta_size.record(pairs);
        obs.scope
            .counter(&format!("q{}.deltas", delta.query.0))
            .inc();
    }
    entry.subscribers.retain_mut(|sink| sink(&delta));
    Some(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_core::bounded_simulation_with_oracle;
    use gpm_datagen::{
        generate_pattern, random_graph, random_updates, PatternGenConfig, RandomGraphConfig,
        UpdateStreamConfig,
    };
    use gpm_graph::{PatternGraphBuilder, Predicate};

    fn dag_pattern(labels: [&str; 3]) -> PatternGraph {
        let (p, _) = PatternGraphBuilder::new()
            .node("x", Predicate::label(labels[0]))
            .node("y", Predicate::label(labels[1]))
            .node("z", Predicate::label(labels[2]))
            .edge("x", "y", 2u32)
            .edge("y", "z", 3u32)
            .build()
            .unwrap();
        p
    }

    fn cyclic_pattern() -> PatternGraph {
        let (p, _) = PatternGraphBuilder::new()
            .node("x", Predicate::label("a0"))
            .node("y", Predicate::label("a1"))
            .edge("x", "y", 2u32)
            .edge("y", "x", 2u32)
            .build()
            .unwrap();
        p
    }

    fn assert_consistent(svc: &mut MatchService, ids: &[QueryId]) {
        for &id in ids {
            let Some(result) = svc.result(id) else {
                continue;
            };
            let pattern = svc.catalog().get(id).unwrap().pattern().clone();
            let recomputed = bounded_simulation_with_oracle(&pattern, svc.graph(), svc.oracle());
            assert_eq!(result, recomputed.relation, "query {id} diverged");
        }
    }

    #[test]
    fn shared_aff_is_computed_once_per_batch() {
        let g = random_graph(&RandomGraphConfig::new(40, 100, 5).with_seed(1));
        let mut svc = MatchService::new(g);
        let ids: Vec<QueryId> = (0..4)
            .map(|i| {
                svc.register(dag_pattern([
                    &format!("a{i}"),
                    &format!("a{}", (i + 1) % 5),
                    &format!("a{}", (i + 2) % 5),
                ]))
            })
            .collect();

        for round in 0..5u64 {
            let updates = random_updates(
                svc.graph(),
                &UpdateStreamConfig::mixed(15).with_seed(round + 10),
            );
            svc.apply(&updates);
            assert_consistent(&mut svc, &ids);
        }
        // 5 batches, 4 queries: 5 shared AFF computations, not 20.
        assert_eq!(svc.stats().aff_computations, 5);
        assert_eq!(svc.stats().batches, 5);
        assert_eq!(svc.stats().repairs, 20);

        // The maintained oracle equals a from-scratch matrix rebuild.
        let rebuilt = gpm_distance::DistanceMatrix::build(svc.graph());
        let n = svc.graph().node_count() as u32;
        for x in (0..n).map(gpm_graph::NodeId::new) {
            for y in (0..n).map(gpm_graph::NodeId::new) {
                assert_eq!(
                    svc.oracle().nonempty_distance(svc.graph(), x, y),
                    rebuilt.nonempty_distance(x, y),
                    "oracle diverged at ({x:?}, {y:?})"
                );
            }
        }
    }

    /// The whole engine — registration, batches, cyclic patterns — works
    /// unchanged on the 2-hop backend.
    #[test]
    fn two_hop_backend_runs_the_service() {
        let g = random_graph(&RandomGraphConfig::new(35, 90, 5).with_seed(21));
        let mut svc = MatchService::with_backend(g, OracleBackend::TwoHop, Parallelism::from_env());
        assert_eq!(svc.oracle().name(), "two-hop");
        let ids = vec![
            svc.register(dag_pattern(["a0", "a1", "a2"])),
            svc.register(cyclic_pattern()),
        ];
        for round in 0..5u64 {
            let updates = random_updates(
                svc.graph(),
                &UpdateStreamConfig::mixed(12).with_seed(round * 3 + 11),
            );
            svc.apply(&updates);
            assert_consistent(&mut svc, &ids);
        }
        assert_eq!(svc.stats().aff_computations, 5);
    }

    #[test]
    fn cyclic_patterns_repair_across_bound_crossing_decreases() {
        let g = random_graph(&RandomGraphConfig::new(30, 80, 4).with_seed(2));
        let mut svc = MatchService::new(g);
        let q = svc.register(cyclic_pattern());

        // Deletions increase distances, insertions decrease them: both are
        // repaired from the shared AFF1, one repair per batch.
        let dels = random_updates(svc.graph(), &UpdateStreamConfig::deletions(8).with_seed(3));
        svc.apply(&dels);
        assert_eq!(svc.stats().repairs, 1);
        assert_consistent(&mut svc, &[q]);
        let ins = random_updates(svc.graph(), &UpdateStreamConfig::insertions(8).with_seed(4));
        svc.apply(&ins);
        assert_eq!(svc.stats().repairs, 2);
        assert_consistent(&mut svc, &[q]);

        // By hand: 0:a0 ← 1:a1 and a relay 2 → 3 → 4 of unlabelled nodes.
        use gpm_graph::{Attributes, NodeId};
        let mut g = DataGraph::new();
        for label in ["a0", "a1", "-", "-", "-"] {
            g.add_node(Attributes::labeled(label));
        }
        for (a, b) in [(1, 0), (2, 3), (3, 4)] {
            g.add_edge(NodeId::new(a), NodeId::new(b)).unwrap();
        }
        let mut svc = MatchService::new(g);
        let q = svc.register(cyclic_pattern());
        assert!(svc.result(q).unwrap().is_empty());
        // d(2, 4) shrinks 2 → 1, inside the bound 2 on both sides: no
        // `within` flips, so the repair verifies nothing.
        svc.apply_one(EdgeUpdate::Insert(NodeId::new(2), NodeId::new(4)));
        assert_eq!((svc.stats().repairs, svc.stats().verifications), (1, 0));
        // d(0, 1) shrinks ∞ → 1 across the bound: 0 and 1 now support each
        // other around the pattern cycle, and the repair finds both.
        let closing = EdgeUpdate::Insert(NodeId::new(0), NodeId::new(1));
        let out = svc.apply_one(closing);
        assert_eq!(svc.stats().repairs, 2);
        assert_eq!(out.deltas.len(), 1);
        assert_eq!(out.deltas[0].added.len(), 2);
        assert_consistent(&mut svc, &[q]);
        // The deletion is repaired (`Match−` handles cycles).
        svc.apply_one(EdgeUpdate::Delete(NodeId::new(0), NodeId::new(1)));
        assert_eq!(svc.stats().repairs, 3);
        assert!(svc.result(q).unwrap().is_empty());
        // The same crossing insertion inside a batch is repaired too.
        svc.apply(&[EdgeUpdate::Delete(NodeId::new(2), NodeId::new(4)), closing]);
        assert_eq!(svc.stats().repairs, 4);
        assert!(!svc.result(q).unwrap().is_empty());
        assert_consistent(&mut svc, &[q]);
    }

    #[test]
    fn deltas_fold_to_the_result() {
        let g = random_graph(&RandomGraphConfig::new(40, 90, 4).with_seed(5));
        let mut svc = MatchService::new(g);
        let q = svc.register(dag_pattern(["a0", "a1", "a2"]));
        let sub = svc.subscribe(q).unwrap();

        for round in 0..6u64 {
            let updates = random_updates(
                svc.graph(),
                &UpdateStreamConfig::mixed(12).with_seed(round * 7 + 1),
            );
            svc.apply(&updates);
        }
        let deltas = sub.drain();
        let folded = crate::delta::fold_deltas(3, deltas.iter());
        assert_eq!(folded, svc.result(q).unwrap());
        // Epochs are non-decreasing and start with the snapshot.
        assert!(deltas.windows(2).all(|w| w[0].epoch <= w[1].epoch));
        assert_eq!(deltas[0].epoch, 0);
    }

    #[test]
    fn suspend_resume_reconciles_subscribers() {
        let g = random_graph(&RandomGraphConfig::new(40, 90, 4).with_seed(6));
        let mut svc = MatchService::new(g);
        let q = svc.register(dag_pattern(["a0", "a1", "a2"]));
        let sub = svc.subscribe(q).unwrap();

        svc.suspend(q);
        assert!(svc.result(q).is_none(), "suspended queries answer None");
        for round in 0..4u64 {
            let updates = random_updates(
                svc.graph(),
                &UpdateStreamConfig::mixed(10).with_seed(round + 40),
            );
            svc.apply(&updates);
        }
        let while_suspended = svc.stats().clone();
        assert_eq!(
            while_suspended.repairs, 0,
            "suspended queries pay no repair cost"
        );

        svc.resume(q);
        svc.apply(&[]);
        assert_eq!(svc.stats().activations, 1);

        // The subscriber's fold agrees with the live result after catch-up.
        let folded = crate::delta::fold_deltas(3, sub.drain().iter());
        assert_eq!(folded, svc.result(q).unwrap());
        assert_consistent(&mut svc, &[q]);
    }

    /// `resume` itself reconciles subscribers: with no batch after it, the
    /// catch-up delta has already been emitted when `result()` is read.
    #[test]
    fn resume_emits_catchup_delta_before_any_batch() {
        let g = random_graph(&RandomGraphConfig::new(40, 90, 4).with_seed(31));
        let mut svc = MatchService::new(g);
        let q = svc.register(dag_pattern(["a0", "a1", "a2"]));
        let sub = svc.subscribe(q).unwrap();

        svc.suspend(q);
        for round in 0..4u64 {
            let updates = random_updates(
                svc.graph(),
                &UpdateStreamConfig::mixed(12).with_seed(round + 60),
            );
            svc.apply(&updates);
        }
        svc.resume(q);

        // No apply() after resume: the resume itself reconciled.
        let live = svc.result(q).unwrap();
        assert_eq!(svc.stats().activations, 1);
        let folded = crate::delta::fold_deltas(3, sub.drain().iter());
        assert_eq!(folded, live, "catch-up delta must flow from resume()");
        // Reads are pure: another read emits nothing new.
        let _ = svc.result(q);
        assert!(sub.drain().is_empty());
    }

    /// Empty batches do no per-query work.
    #[test]
    fn empty_batch_skips_repair_for_live_queries() {
        let g = random_graph(&RandomGraphConfig::new(25, 60, 3).with_seed(33));
        let mut svc = MatchService::new(g);
        let _q = svc.register(dag_pattern(["a0", "a1", "a2"]));
        svc.apply(&[]);
        assert_eq!(svc.stats().repairs, 0, "no-op batch must not count repairs");
        assert_eq!(svc.stats().verifications, 0);
    }

    #[test]
    fn deregister_closes_subscriptions_and_stops_deltas() {
        let g = random_graph(&RandomGraphConfig::new(30, 70, 4).with_seed(7));
        let mut svc = MatchService::new(g);
        let q = svc.register(dag_pattern(["a0", "a1", "a2"]));
        let keep = svc.register(dag_pattern(["a1", "a2", "a3"]));
        let sub = svc.subscribe(q).unwrap();
        assert!(svc.deregister(q));
        assert!(svc.result(q).is_none());
        assert!(svc.subscribe(q).is_none());

        let updates = random_updates(svc.graph(), &UpdateStreamConfig::mixed(10).with_seed(8));
        let out = svc.apply(&updates);
        assert!(out.deltas.iter().all(|d| d.query != q));
        // Only the snapshot was delivered before deregistration.
        assert!(sub.drain().iter().all(|d| d.epoch == 0));
        assert_consistent(&mut svc, &[keep]);
    }

    #[test]
    fn dropped_subscriber_is_pruned() {
        let g = random_graph(&RandomGraphConfig::new(30, 70, 4).with_seed(9));
        let mut svc = MatchService::new(g);
        let q = svc.register(dag_pattern(["a0", "a1", "a2"]));
        let sub = svc.subscribe(q).unwrap();
        drop(sub);
        // A batch that changes the result prunes the dead channel.
        for round in 0..4u64 {
            let updates = random_updates(
                svc.graph(),
                &UpdateStreamConfig::mixed(12).with_seed(round + 80),
            );
            svc.apply(&updates);
        }
        assert!(
            svc.catalog().get(q).unwrap().subscribers.is_empty() || svc.stats().deltas_emitted == 0
        );
    }

    #[test]
    fn generated_patterns_stay_consistent_under_churn() {
        let g = random_graph(&RandomGraphConfig::new(50, 130, 5).with_seed(11));
        let mut svc = MatchService::new(g);
        let mut ids = Vec::new();
        for i in 0..6u64 {
            let (p, _) = generate_pattern(
                svc.graph(),
                &PatternGenConfig::new(3, 3, 3).with_seed(i * 17 + 1),
            );
            ids.push(svc.register(p));
        }
        for round in 0..4u64 {
            let updates = random_updates(
                svc.graph(),
                &UpdateStreamConfig::mixed(20).with_seed(round * 5 + 2),
            );
            svc.apply(&updates);
            assert_consistent(&mut svc, &ids);
        }
    }

    #[test]
    fn empty_batch_is_cheap_and_emits_nothing() {
        let g = random_graph(&RandomGraphConfig::new(20, 40, 3).with_seed(12));
        let mut svc = MatchService::new(g);
        let _q = svc.register(dag_pattern(["a0", "a1", "a2"]));
        let out = svc.apply(&[]);
        assert_eq!(out.applied, 0);
        assert_eq!(out.aff1, 0);
        assert!(out.deltas.is_empty());
        assert_eq!(svc.stats().aff_computations, 0);
        assert_eq!(out.epoch, 1);
    }
}
