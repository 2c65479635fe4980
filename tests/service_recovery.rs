//! Differential crash-recovery suite: killing a durable `MatchService` at
//! **every** crash point and reopening must be indistinguishable from never
//! having crashed.
//!
//! The harness scripts a deterministic schedule of service operations
//! (update batches, register/deregister, suspend/resume), runs it once
//! uninterrupted on a durable service, and then simulates a crash at every
//! byte boundary of the resulting write-ahead log — each record boundary
//! *and* each torn mid-record prefix. For every crash point the recovered
//! service must:
//!
//! * reopen successfully (torn tails are detected and truncated, never
//!   silently replayed);
//! * hold exactly the state of an uninterrupted run over the records that
//!   survived (epoch, catalog, which queries hold a state, and the
//!   subscription snapshot each query would stream — compared as raw
//!   `MatchDelta`s, i.e. byte-identical);
//! * when driven onward with the rest of the schedule, produce
//!   [`BatchOutcome`]s and final results **bit-identical** to the
//!   uninterrupted run's — on both oracle backends and at 1/2/8 threads.
//!
//! Garbled (bit-flipped) bytes must likewise truncate at the damaged
//! record: checksums turn corruption into clean truncation, and the prefix
//! before the damage replays exactly.

use gpm::exec::Parallelism;
use gpm::service::snapshot::{MANIFEST_FILE, MANIFEST_MAGIC, SNAPSHOT_DIR};
use gpm::service::wal::{
    encode_frame, encode_record, read_wal_bytes, WalOp, WalRecord, WAL_FILE, WAL_MAGIC,
};
use gpm::{
    bounded_simulation_with_oracle, fold_deltas, generate_pattern, random_updates, BatchOutcome,
    DataGraph, DistanceMatrix, DurabilityError, DurableOptions, EdgeUpdate, MatchDelta,
    MatchService, OracleBackend, PatternGenConfig, PatternGraph, QueryId, UpdateStreamConfig,
};
use gpm::{datagen::powerlaw_graph, datagen::PowerLawConfig};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use std::fs;
use std::path::{Path, PathBuf};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn forced(threads: usize) -> Parallelism {
    Parallelism::new(threads).with_sequential_threshold(0)
}

fn labelled_graph(nodes: usize, edges: usize, labels: usize, seed: u64) -> DataGraph {
    let mut g = powerlaw_graph(&PowerLawConfig::new(nodes, edges).with_seed(seed));
    for v in 0..g.node_count() {
        let label = format!("a{}", v % labels);
        g.attributes_mut(gpm::NodeId::new(v as u32))
            .set("label", label);
    }
    g
}

/// A concrete, replayable service operation. Each op appends exactly one
/// WAL record, so `ops[..k]` is the uninterrupted history of a log prefix
/// holding `k` complete records.
#[derive(Clone, Debug)]
enum Op {
    Batch(Vec<EdgeUpdate>),
    Register(PatternGraph),
    Deregister(u64),
    Suspend(u64),
    Resume(u64),
}

/// Executes one op, resolving raw ids through this run's own id roster
/// (ids are assigned in registration order, so rosters align across runs).
fn exec_op(svc: &mut MatchService, roster: &mut Vec<QueryId>, op: &Op) -> Option<BatchOutcome> {
    let resolve = |roster: &[QueryId], raw: u64| -> QueryId {
        *roster
            .iter()
            .find(|id| id.value() == raw)
            .expect("schedule refers to a registered id")
    };
    match op {
        Op::Batch(updates) => return Some(svc.apply(updates)),
        Op::Register(p) => roster.push(svc.register(p.clone())),
        Op::Deregister(raw) => {
            let id = resolve(roster, *raw);
            assert!(svc.deregister(id));
            roster.retain(|i| *i != id);
        }
        Op::Suspend(raw) => assert!(svc.suspend(resolve(roster, *raw))),
        Op::Resume(raw) => assert!(svc.resume(resolve(roster, *raw))),
    }
    None
}

/// Builds a deterministic schedule by simulating it once against a scratch
/// (non-durable) copy of the service, so every op carries concrete updates
/// and ids. Guarantees at least one suspend → batches → resume arc.
fn build_schedule(graph: &DataGraph, seed: u64, ops: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut svc = MatchService::with_parallelism(graph.clone(), forced(1));
    let mut roster: Vec<QueryId> = Vec::new();
    let mut suspended: Vec<u64> = Vec::new();
    let mut schedule = Vec::new();
    let mut push = |svc: &mut MatchService, roster: &mut Vec<QueryId>, op: Op| {
        exec_op(svc, roster, &op);
        schedule.push(op);
    };

    // Two seed queries so batches always touch standing state.
    for i in 0..2u64 {
        let (p, _) = generate_pattern(
            svc.graph(),
            &PatternGenConfig::new(3, 3, 3).with_seed(seed * 7 + i),
        );
        push(&mut svc, &mut roster, Op::Register(p));
    }
    for round in 0..ops as u64 {
        match rng.gen_range(0..8u32) {
            0 if roster.len() < 5 => {
                let (p, _) = generate_pattern(
                    svc.graph(),
                    &PatternGenConfig::new(3, 3, 3).with_seed(seed * 31 + round),
                );
                push(&mut svc, &mut roster, Op::Register(p));
            }
            1 if roster.len() > 2 => {
                let raw = roster[rng.gen_range(0..roster.len())].value();
                suspended.retain(|r| *r != raw);
                push(&mut svc, &mut roster, Op::Deregister(raw));
            }
            2 => {
                let raw = roster[rng.gen_range(0..roster.len())].value();
                if let Some(pos) = suspended.iter().position(|r| *r == raw) {
                    suspended.remove(pos);
                    push(&mut svc, &mut roster, Op::Resume(raw));
                } else {
                    suspended.push(raw);
                    push(&mut svc, &mut roster, Op::Suspend(raw));
                }
            }
            _ => {
                let n = rng.gen_range(2..8usize);
                let updates = random_updates(
                    svc.graph(),
                    &UpdateStreamConfig::mixed(n).with_seed(seed * 131 + round),
                );
                push(&mut svc, &mut roster, Op::Batch(updates));
            }
        }
    }
    // Make sure the suspended-across-crash arc is exercised: leave one
    // query suspended behind a trailing batch.
    if suspended.is_empty() {
        let raw = roster[0].value();
        push(&mut svc, &mut roster, Op::Suspend(raw));
        let updates = random_updates(
            svc.graph(),
            &UpdateStreamConfig::mixed(4).with_seed(seed * 977),
        );
        push(&mut svc, &mut roster, Op::Batch(updates));
    }
    schedule
}

/// Everything observable about a service without disturbing its semantic
/// state: epoch, catalog shape, and the exact snapshot delta every query
/// would stream to a fresh subscriber.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    epoch: u64,
    queries: Vec<(u64, bool, MatchDelta)>,
}

fn fingerprint(svc: &mut MatchService) -> Fingerprint {
    let ids = svc.catalog().ids();
    let mut queries = Vec::new();
    for id in ids {
        let active = svc.catalog().get(id).unwrap().is_active();
        let sub = svc.subscribe(id).unwrap();
        let mut stream = sub.drain();
        assert_eq!(stream.len(), 1, "a fresh subscription streams its snapshot");
        queries.push((id.value(), active, stream.remove(0)));
    }
    Fingerprint {
        epoch: svc.epoch(),
        queries,
    }
}

fn copy_dir(src: &Path, dst: &Path) {
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

struct TempRoot(PathBuf);

impl TempRoot {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("gpm-recovery-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TempRoot(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// No automatic snapshots: the WAL keeps the whole history, so crash points
/// cover every operation since creation.
const WAL_ONLY: DurableOptions = DurableOptions {
    snapshot_every: None,
};

/// The uninterrupted reference run: a durable service executing the full
/// schedule plus the tail, with everything observable collected.
struct Reference {
    outcomes: Vec<BatchOutcome>,
    tail_outcomes: Vec<BatchOutcome>,
    wal: Vec<u8>,
    template: PathBuf,
}

fn tail_batches(graph: &DataGraph, seed: u64) -> Vec<Vec<EdgeUpdate>> {
    // Fixed continuation applied after recovery: two mixed batches derived
    // from the *final* reference graph, so both sides apply identical data.
    (0..2u64)
        .map(|i| {
            random_updates(
                graph,
                &UpdateStreamConfig::mixed(5).with_seed(seed * 503 + i),
            )
        })
        .collect()
}

/// Runs the schedule uninterrupted on a fresh durable root; also snapshots
/// the pristine post-create directory as the template every simulated
/// crash starts from.
fn reference_run(
    root: &TempRoot,
    graph: &DataGraph,
    backend: OracleBackend,
    threads: usize,
    schedule: &[Op],
    seed: u64,
) -> (Reference, Vec<Vec<EdgeUpdate>>) {
    let dir = root.path(&format!("ref-{}-{threads}", backend.name()));
    let template = root.path(&format!("template-{}-{threads}", backend.name()));
    let mut svc =
        MatchService::create_durable_with(&dir, graph.clone(), backend, forced(threads), WAL_ONLY)
            .unwrap();
    copy_dir(&dir, &template);

    let mut roster = Vec::new();
    let mut outcomes = Vec::new();
    for op in schedule {
        if let Some(out) = exec_op(&mut svc, &mut roster, op) {
            outcomes.push(out);
        }
    }
    let tails = tail_batches(svc.graph(), seed);
    let wal = fs::read(dir.join(WAL_FILE)).unwrap();
    let tail_outcomes = tails.iter().map(|t| svc.apply(t)).collect();
    (
        Reference {
            outcomes,
            tail_outcomes,
            wal,
            template,
        },
        tails,
    )
}

/// Materialises a crash directory: the pristine template plus the given
/// WAL image, then reopens it.
fn reopen_crashed(
    root: &TempRoot,
    reference: &Reference,
    wal_image: &[u8],
    threads: usize,
    tag: &str,
) -> MatchService {
    let dir = root.path(tag);
    let _ = fs::remove_dir_all(&dir);
    copy_dir(&reference.template, &dir);
    fs::write(dir.join(WAL_FILE), wal_image).unwrap();
    MatchService::open_durable_with(&dir, forced(threads), WAL_ONLY).unwrap_or_else(|e| {
        panic!(
            "reopen failed for {tag} ({} wal bytes): {e}",
            wal_image.len()
        )
    })
}

/// The incremental uninterrupted reference: advances op by op so each of
/// the (many) crash points compares against it without re-running history.
struct RollingReference {
    svc: MatchService,
    roster: Vec<QueryId>,
    cursor: usize,
}

impl RollingReference {
    fn new(graph: &DataGraph, backend: OracleBackend, threads: usize) -> Self {
        RollingReference {
            svc: MatchService::with_backend(graph.clone(), backend, forced(threads)),
            roster: Vec::new(),
            cursor: 0,
        }
    }

    fn advance_to(&mut self, schedule: &[Op], k: usize) {
        assert!(k >= self.cursor, "crash points visit prefixes in order");
        for op in &schedule[self.cursor..k] {
            exec_op(&mut self.svc, &mut self.roster, op);
        }
        self.cursor = k;
    }
}

/// The tentpole: every byte boundary of the WAL is a crash point, and every
/// one recovers into exactly the uninterrupted state over the surviving
/// records.
#[test]
fn every_byte_crash_prefix_recovers_bit_identically() {
    let seed = 0xD15C;
    let graph = labelled_graph(20, 45, 3, seed);
    let schedule = build_schedule(&graph, seed, 10);
    let root = TempRoot::new("everybyte");
    let backend = OracleBackend::Matrix;
    let threads = 2;
    let (reference, tails) = reference_run(&root, &graph, backend, threads, &schedule, seed);

    let mut rolling = RollingReference::new(&graph, backend, threads);
    let mut boundary_points = 0usize;
    for cut in 0..=reference.wal.len() {
        let prefix = &reference.wal[..cut];
        let decoded = read_wal_bytes(prefix).unwrap();
        let k = decoded.records.len();
        let at_boundary = decoded.torn_bytes == 0;
        let mut recovered = reopen_crashed(&root, &reference, prefix, threads, "crash");

        rolling.advance_to(&schedule, k);
        assert_eq!(
            fingerprint(&mut recovered),
            fingerprint(&mut rolling.svc),
            "cut at byte {cut} ({k} records survived, torn {})",
            decoded.torn_bytes
        );

        // At record boundaries, drive the recovered service through the
        // rest of the schedule + tail: outcomes must be bit-identical to
        // the uninterrupted run's (subscribers receive these same deltas,
        // so this is stream equality too).
        if at_boundary {
            boundary_points += 1;
            let mut roster = recovered.catalog().ids();
            let mut continued = Vec::new();
            for op in &schedule[k..] {
                if let Some(out) = exec_op(&mut recovered, &mut roster, op) {
                    continued.push(out);
                }
            }
            for t in &tails {
                continued.push(recovered.apply(t));
            }
            let n_ref = reference.outcomes.len();
            let already = n_ref + reference.tail_outcomes.len() - continued.len();
            let mut expected: Vec<BatchOutcome> = reference.outcomes[already..].to_vec();
            expected.extend(reference.tail_outcomes.iter().cloned());
            assert_eq!(
                continued, expected,
                "continuation diverged after crash at record boundary {k}"
            );
        }
    }
    // One boundary per schedule op (each logs one record), plus the empty
    // file (torn header, byte 0) and the bare magic after creation.
    assert_eq!(boundary_points, schedule.len() + 2);
}

/// Bit-flips anywhere in the log must truncate at the damaged record —
/// detected by checksum, never silently replayed — and the undamaged
/// prefix must recover exactly. Flips inside the magic are a hard error.
#[test]
fn garbled_bytes_truncate_at_the_damaged_record() {
    let seed = 0x6A5B;
    let graph = labelled_graph(18, 40, 3, seed);
    let schedule = build_schedule(&graph, seed, 8);
    let root = TempRoot::new("garble");
    let backend = OracleBackend::Matrix;
    let threads = 1;
    let (reference, _tails) = reference_run(&root, &graph, backend, threads, &schedule, seed);

    let mut rolling = RollingReference::new(&graph, backend, threads);
    // Record boundaries, to locate which record a damaged byte falls into.
    let clean = read_wal_bytes(&reference.wal).unwrap();
    assert_eq!(clean.torn_bytes, 0);
    for garble_at in (0..reference.wal.len()).step_by(3) {
        for mask in [0x01u8, 0x80u8] {
            let mut image = reference.wal.clone();
            image[garble_at] ^= mask;
            if garble_at < WAL_MAGIC.len() {
                let dir = root.path("badmagic");
                let _ = fs::remove_dir_all(&dir);
                copy_dir(&reference.template, &dir);
                fs::write(dir.join(WAL_FILE), &image).unwrap();
                assert!(
                    MatchService::open_durable_with(&dir, forced(threads), WAL_ONLY).is_err(),
                    "a damaged magic must not open (byte {garble_at})"
                );
                continue;
            }
            let decoded = read_wal_bytes(&image).unwrap();
            let k = decoded.records.len();
            assert!(
                (decoded.valid_len as usize) <= garble_at,
                "the surviving prefix must stop before the damaged byte {garble_at}"
            );
            let mut recovered = reopen_crashed(&root, &reference, &image, threads, "garbled");
            rolling.advance_to(&schedule, k);
            assert_eq!(
                fingerprint(&mut recovered),
                fingerprint(&mut rolling.svc),
                "garbled byte {garble_at} mask {mask:#04x}: {k} records should survive"
            );
        }
    }
}

/// Record-boundary crashes recover bit-identically on both oracle backends
/// at 1, 2 and 8 threads — and every configuration agrees with every other.
#[test]
fn recovery_is_bit_identical_across_backends_and_threads() {
    let seed = 0xBEE5;
    let graph = labelled_graph(18, 40, 3, seed);
    let schedule = build_schedule(&graph, seed, 8);
    let root = TempRoot::new("matrix2hop");

    let mut all_final: Vec<(String, Vec<BatchOutcome>)> = Vec::new();
    for backend in [OracleBackend::Matrix, OracleBackend::TwoHop] {
        for threads in THREAD_COUNTS {
            let (reference, tails) =
                reference_run(&root, &graph, backend, threads, &schedule, seed);
            let boundaries: Vec<usize> = {
                // Every clean prefix of the WAL, by record count.
                let mut cuts = vec![WAL_MAGIC.len()];
                let mut bytes = WAL_MAGIC.len();
                let decoded = read_wal_bytes(&reference.wal).unwrap();
                for rec in &decoded.records {
                    let frame = gpm::service::wal::encode_record(rec).unwrap();
                    bytes += frame.len();
                    cuts.push(bytes);
                }
                cuts
            };
            for (k, &cut) in boundaries.iter().enumerate() {
                let tag = format!("cfg-{}-{threads}-{k}", backend.name());
                let mut recovered =
                    reopen_crashed(&root, &reference, &reference.wal[..cut], threads, &tag);
                let mut roster = recovered.catalog().ids();
                let mut continued = Vec::new();
                for op in &schedule[k..] {
                    if let Some(out) = exec_op(&mut recovered, &mut roster, op) {
                        continued.push(out);
                    }
                }
                for t in &tails {
                    continued.push(recovered.apply(t));
                }
                let n_batches_remaining = continued.len() - tails.len();
                let mut expected: Vec<BatchOutcome> =
                    reference.outcomes[reference.outcomes.len() - n_batches_remaining..].to_vec();
                expected.extend(reference.tail_outcomes.iter().cloned());
                assert_eq!(
                    continued,
                    expected,
                    "diverged: backend {} threads {threads} crash at record {k}",
                    backend.name()
                );
            }
            all_final.push((
                format!("{}-{threads}", backend.name()),
                reference
                    .outcomes
                    .iter()
                    .chain(reference.tail_outcomes.iter())
                    .cloned()
                    .collect(),
            ));
        }
    }
    // Cross-configuration: every backend × thread count produced the exact
    // same outcome stream.
    let (base_tag, base) = &all_final[0];
    for (tag, outcomes) in &all_final[1..] {
        assert_eq!(outcomes, base, "{tag} diverged from {base_tag}");
    }
}

/// `resume` rebuilds the state and emits the catch-up delta, so its
/// `Resume` record is the last one logged and reads log nothing: crashing
/// after the resume recovers the catch-up exactly once.
#[test]
fn resume_activation_is_logged_and_replayed() {
    let seed = 0xAC71;
    let graph = labelled_graph(18, 40, 3, seed);
    let root = TempRoot::new("resumelog");
    let dir = root.path("svc");
    let mut svc = MatchService::create_durable_with(
        &dir,
        graph.clone(),
        OracleBackend::Matrix,
        forced(1),
        WAL_ONLY,
    )
    .unwrap();
    let (p, _) = generate_pattern(svc.graph(), &PatternGenConfig::new(3, 3, 3).with_seed(seed));
    let q = svc.register(p.clone());
    svc.suspend(q);
    for i in 0..3u64 {
        let updates = random_updates(
            svc.graph(),
            &UpdateStreamConfig::mixed(5).with_seed(seed + i),
        );
        svc.apply(&updates);
    }
    svc.resume(q);
    let wal = fs::read(dir.join(WAL_FILE)).unwrap();
    let decoded = read_wal_bytes(&wal).unwrap();
    assert_eq!(
        decoded.records.last().unwrap().op,
        WalOp::Resume(q.value()),
        "the resume must be the last WAL record"
    );
    // Reads are pure: none grows the log.
    let live = svc.result(q).unwrap();
    let _ = svc.result(q);
    let wal2 = fs::read(dir.join(WAL_FILE)).unwrap();
    assert_eq!(wal.len(), wal2.len(), "reads must not grow the log");
    drop(svc);

    let mut reopened = MatchService::open_durable_with(&dir, forced(1), WAL_ONLY).unwrap();
    // The replayed resume rebuilt the state and already emitted the
    // catch-up: a fresh subscriber sees exactly the live relation, and
    // neither a read nor an empty batch emits anything further.
    let sub = reopened.subscribe(q).unwrap();
    assert_eq!(reopened.result(q).unwrap(), live);
    reopened.apply(&[]);
    let stream = sub.drain();
    assert_eq!(stream.len(), 1, "no second catch-up after recovery");
    assert_eq!(fold_deltas(p.node_count(), stream.iter()), live);
}

/// A `suspend` of a suspended query and a `resume` of an active one change
/// nothing, so they log nothing (and count nothing toward `snapshot_every`).
#[test]
fn no_op_suspend_and_resume_log_nothing() {
    let root = TempRoot::new("noop");
    let (dir, _) = suspended_root(&root);
    let records = || {
        read_wal_bytes(&fs::read(dir.join(WAL_FILE)).unwrap())
            .unwrap()
            .records
            .len()
    };
    let mut svc = MatchService::open_durable_with(&dir, forced(1), WAL_ONLY).unwrap();
    let q = svc.catalog().ids()[0];
    let logged = records();
    assert!(svc.suspend(q));
    assert_eq!(records(), logged, "suspending a suspended query was logged");
    assert!(svc.resume(q));
    assert_eq!(records(), logged + 1, "a real resume is logged");
    assert!(svc.resume(q));
    assert_eq!(records(), logged + 1, "resuming an active query was logged");
}

/// Every state a crash can leave the snapshot swap in reopens to the
/// uninterrupted service, on both back-ends. The copies taken before and
/// after a `snapshot_now` supply the pieces: (a) a stale `snapshot.tmp/`
/// beside the live snapshot, (b) `snapshot/` renamed away to
/// `snapshot.prev/` with the log not yet truncated, (c) the new `snapshot/`
/// promoted while `snapshot.prev/` and the un-truncated log remain.
#[test]
fn every_snapshot_swap_crash_state_reopens() {
    let seed = 0x5A9;
    let graph = labelled_graph(18, 40, 3, seed);
    let schedule = build_schedule(&graph, seed, 8);
    let half = schedule.len() / 2;
    for backend in OracleBackend::ALL {
        let root = TempRoot::new(&format!("swap-{}", backend.name()));
        let dir = root.path("svc");
        let mut svc =
            MatchService::create_durable_with(&dir, graph.clone(), backend, forced(1), WAL_ONLY)
                .unwrap();
        let mut roster = Vec::new();
        for (i, op) in schedule.iter().enumerate() {
            if i == half {
                svc.snapshot_now().unwrap();
            }
            exec_op(&mut svc, &mut roster, op);
        }
        let (before, after) = (root.path("before"), root.path("after"));
        copy_dir(&dir, &before);
        svc.snapshot_now().unwrap();
        copy_dir(&dir, &after);
        let expected = fingerprint(&mut svc);
        drop(svc);

        let old_snapshot = before.join(SNAPSHOT_DIR);
        let new_snapshot = after.join(SNAPSHOT_DIR);
        let states: [(&str, &[(&Path, &str)]); 3] = [
            (
                "a",
                &[(&old_snapshot, "snapshot"), (&new_snapshot, "snapshot.tmp")],
            ),
            (
                "b",
                &[
                    (&old_snapshot, "snapshot.prev"),
                    (&new_snapshot, "snapshot.tmp"),
                ],
            ),
            (
                "c",
                &[
                    (&new_snapshot, "snapshot"),
                    (&old_snapshot, "snapshot.prev"),
                ],
            ),
        ];
        for (state, dirs) in states {
            let crash = root.path(&format!("crash-{state}"));
            fs::create_dir_all(&crash).unwrap();
            fs::copy(before.join(WAL_FILE), crash.join(WAL_FILE)).unwrap();
            for (from, name) in dirs {
                copy_dir(from, &crash.join(name));
            }
            let mut recovered = MatchService::open_durable_with(&crash, forced(1), WAL_ONLY)
                .unwrap_or_else(|e| panic!("state ({state}) on {backend:?} did not reopen: {e}"));
            assert_eq!(
                fingerprint(&mut recovered),
                expected,
                "state ({state}) on {backend:?}"
            );
            for leftover in ["snapshot.tmp", "snapshot.prev"] {
                assert!(!crash.join(leftover).exists(), "({state}) kept {leftover}");
            }
        }
    }
}

/// A from-scratch `Match` of `pattern` on the service's graph.
fn recomputed(svc: &MatchService, pattern: &PatternGraph) -> gpm::MatchRelation {
    let matrix = DistanceMatrix::build(svc.graph());
    bounded_simulation_with_oracle(pattern, svc.graph(), &matrix).relation
}

/// A durable root holding one registered query, suspended, with a batch
/// applied since: the starting point of the compatibility tests.
fn suspended_root(root: &TempRoot) -> (PathBuf, PatternGraph) {
    let seed = 0xC0DE;
    let dir = root.path("svc");
    let graph = labelled_graph(18, 40, 3, seed);
    let mut svc =
        MatchService::create_durable_with(&dir, graph, OracleBackend::Matrix, forced(1), WAL_ONLY)
            .unwrap();
    let (p, _) = generate_pattern(svc.graph(), &PatternGenConfig::new(3, 3, 3).with_seed(seed));
    let q = svc.register(p.clone());
    assert_eq!(q.value(), 0);
    svc.suspend(q);
    let updates = random_updates(svc.graph(), &UpdateStreamConfig::mixed(6).with_seed(seed));
    svc.apply(&updates);
    (dir, p)
}

/// Versions that resumed lazily logged `Resume` and then the `Read` that
/// built the state. Such a log still opens, and the read replays as the
/// pure read it now is.
#[test]
fn a_lazy_resume_log_with_a_read_record_reopens() {
    let root = TempRoot::new("readrecord");
    let (dir, p) = suspended_root(&root);
    // Register, Suspend, Batch: records 0–2. Then the two frames, byte for
    // byte as those versions wrote them.
    let resume = r#"{"seq":3,"op":{"Resume":0}}"#;
    let read = r#"{"seq":4,"op":{"Read":0}}"#;
    let pinned = WalRecord {
        seq: 3,
        op: WalOp::Resume(0),
    };
    assert_eq!(
        encode_record(&pinned).unwrap(),
        encode_frame(resume.as_bytes()).unwrap()
    );
    let mut wal = fs::read(dir.join(WAL_FILE)).unwrap();
    assert_eq!(read_wal_bytes(&wal).unwrap().records.len(), 3);
    for frame in [resume, read] {
        wal.extend_from_slice(&encode_frame(frame.as_bytes()).unwrap());
    }
    fs::write(dir.join(WAL_FILE), wal).unwrap();

    let mut svc = MatchService::open_durable_with(&dir, forced(1), WAL_ONLY).unwrap();
    let q = svc.catalog().ids()[0];
    let sub = svc.subscribe(q).unwrap();
    let live = svc.result(q).expect("the resumed query answers");
    assert_eq!(live, recomputed(&svc, &p));
    assert_eq!(fold_deltas(p.node_count(), sub.drain().iter()), live);
    // The log goes on from the records it holds.
    svc.apply(&[]);
    drop(svc);
    let records = read_wal_bytes(&fs::read(dir.join(WAL_FILE)).unwrap())
        .unwrap()
        .records;
    assert_eq!(records.len(), 6);
    assert_eq!(records[4].op, WalOp::Read(0));
}

/// Replaces `from`, which must occur once, by `to` in the JSON payload of
/// the manifest at `path` (after its magic and 8-byte frame header) and
/// frames the payload again.
fn rewrite_manifest(path: &Path, from: &str, to: &str) {
    let bytes = fs::read(path).unwrap();
    let json = std::str::from_utf8(&bytes[MANIFEST_MAGIC.len() + 8..]).unwrap();
    assert_eq!(json.matches(from).count(), 1, "{json}");
    let mut framed = MANIFEST_MAGIC.to_vec();
    framed.extend(encode_frame(json.replace(from, to).as_bytes()).unwrap());
    fs::write(path, framed).unwrap();
}

/// A snapshot persists no match state: reopening builds the state of every
/// query its manifest marks active. So a manifest that marks a suspended
/// query active opens with the state built and the catch-up delta emitted,
/// and the `state` key that earlier versions wrote beside the flag is
/// ignored — here one that fits neither the graph nor the flag, spelled as
/// those versions encoded a state.
#[test]
fn reopen_builds_each_active_state_and_ignores_a_persisted_one() {
    let root = TempRoot::new("manifeststate");
    let (dir, p) = suspended_root(&root);
    let mut svc = MatchService::open_durable_with(&dir, forced(1), WAL_ONLY).unwrap();
    let q = svc.catalog().ids()[0];
    let told = fold_deltas(p.node_count(), svc.subscribe(q).unwrap().drain().iter());
    svc.snapshot_now().unwrap();
    drop(svc);
    let manifest = dir.join(SNAPSHOT_DIR).join(MANIFEST_FILE);
    let written = fs::read(&manifest).unwrap();
    let state = r#""state":{"nodes":2,"satisfies":[[1,0]],"mat":[[7]]},"#;

    let mut reopened = Vec::new();
    for (active, state) in [(true, ""), (true, state), (false, state)] {
        fs::write(&manifest, &written).unwrap();
        rewrite_manifest(
            &manifest,
            r#""active":false,"#,
            &format!(r#""active":{active},{state}"#),
        );
        let mut svc = MatchService::open_durable_with(&dir, forced(1), WAL_ONLY).unwrap();
        assert_eq!(svc.catalog().get(q).unwrap().is_active(), active);
        assert_eq!(svc.stats().activations, usize::from(active));
        if !active {
            assert_eq!(svc.result(q), None);
            svc.resume(q);
        }
        let live = svc.result(q).expect("the resumed query answers");
        assert_eq!(live, recomputed(&svc, &p));
        assert_ne!(
            live, told,
            "the batch since the suspension changed the match"
        );
        assert_eq!(svc.stats().deltas_emitted, 1, "one catch-up delta");
        let sub = svc.subscribe(q).unwrap();
        assert_eq!(fold_deltas(p.node_count(), sub.drain().iter()), live);
        reopened.push(live);
    }
    assert!(reopened.windows(2).all(|w| w[0] == w[1]));
}

/// The invariant reopening relies on: between operations an active query's
/// emitted relation is its state's, so a reopen right after a snapshot
/// rebuilds one state per active query and emits nothing.
#[test]
fn reopen_after_a_snapshot_rebuilds_the_active_states_and_emits_nothing() {
    let seed = 0xAC7;
    let graph = labelled_graph(24, 60, 3, seed);
    for backend in [OracleBackend::Matrix, OracleBackend::TwoHop] {
        let root = TempRoot::new(&format!("quietreopen-{}", backend.name()));
        let dir = root.path("svc");
        let mut svc =
            MatchService::create_durable_with(&dir, graph.clone(), backend, forced(2), WAL_ONLY)
                .unwrap();
        let ids: Vec<QueryId> = (0..4u64)
            .map(|i| {
                let config = PatternGenConfig::new(3 + i as usize % 2, 4, 3).with_seed(seed + i);
                svc.register(generate_pattern(svc.graph(), &config).0)
            })
            .collect();
        for i in 0..3u64 {
            let updates = random_updates(
                svc.graph(),
                &UpdateStreamConfig::mixed(6).with_seed(seed + 10 + i),
            );
            svc.apply(&updates);
        }
        svc.suspend(ids[1]);
        svc.snapshot_now().unwrap();
        let before = fingerprint(&mut svc);
        drop(svc);

        let mut reopened = MatchService::open_durable_with(&dir, forced(2), WAL_ONLY).unwrap();
        assert_eq!(reopened.stats().activations, ids.len() - 1);
        assert_eq!(reopened.stats().deltas_emitted, 0);
        assert_eq!(fingerprint(&mut reopened), before);
    }
}

/// Crashes on a root that mixes a mid-history snapshot with a WAL tail:
/// recovery folds snapshot + surviving suffix records. Also pins the
/// automatic cadence: `snapshot_every: Some(n)` keeps the live log at most
/// `n` records long.
#[test]
fn snapshot_plus_wal_tail_recovers_at_every_cut() {
    let seed = 0x5EED;
    let graph = labelled_graph(20, 45, 3, seed);
    let schedule = build_schedule(&graph, seed, 12);
    let root = TempRoot::new("mixed");
    let backend = OracleBackend::Matrix;
    let threads = 2;
    let cadence = 5u64;
    let dir = root.path("svc");
    let mut svc = MatchService::create_durable_with(
        &dir,
        graph.clone(),
        backend,
        forced(threads),
        DurableOptions {
            snapshot_every: Some(cadence),
        },
    )
    .unwrap();
    let mut roster = Vec::new();
    for op in &schedule {
        exec_op(&mut svc, &mut roster, op);
        let wal_records = read_wal_bytes(&fs::read(dir.join(WAL_FILE)).unwrap())
            .unwrap()
            .records
            .len() as u64;
        assert!(
            wal_records < cadence,
            "automatic snapshots must keep the log under {cadence} records"
        );
    }
    drop(svc);

    // The directory now holds a mid-history snapshot + a short WAL tail.
    // Crash at every byte of that tail; the uninterrupted state at k
    // surviving records is ops[..next_seq + k].
    let manifest_bytes = fs::read(dir.join("snapshot").join("MANIFEST.bin")).unwrap();
    let manifest = gpm::service::snapshot::decode_manifest(&manifest_bytes).unwrap();
    let wal = fs::read(dir.join(WAL_FILE)).unwrap();
    let base = manifest.next_seq as usize;

    let mut rolling = RollingReference::new(&graph, backend, threads);
    for cut in 0..=wal.len() {
        let prefix = &wal[..cut];
        let k = read_wal_bytes(prefix).unwrap().records.len();
        let crash_dir = root.path("crash");
        let _ = fs::remove_dir_all(&crash_dir);
        copy_dir(&dir, &crash_dir);
        fs::write(crash_dir.join(WAL_FILE), prefix).unwrap();
        let mut recovered = MatchService::open_durable_with(&crash_dir, forced(threads), WAL_ONLY)
            .unwrap_or_else(|e| panic!("reopen failed at tail byte {cut}: {e}"));
        rolling.advance_to(&schedule, base + k);
        assert_eq!(
            fingerprint(&mut recovered),
            fingerprint(&mut rolling.svc),
            "snapshot+tail crash at byte {cut} ({k} tail records)"
        );
    }
}

/// A graph the dataset CSV cannot carry (one attribute key, two types) is
/// snapshotted as its serde JSON, and reopening from that snapshot restores
/// the graph and every query bit-identically.
#[test]
fn json_snapshot_fallback_reopens_bit_identically() {
    let seed = 0x150;
    let mut graph = labelled_graph(20, 45, 3, seed);
    graph.attributes_mut(gpm::NodeId::new(0)).set("label", 7);
    let schedule = build_schedule(&graph, seed, 8);
    let root = TempRoot::new("jsonsnap");
    let dir = root.path("svc");
    let mut svc =
        MatchService::create_durable_with(&dir, graph, OracleBackend::Matrix, forced(1), WAL_ONLY)
            .unwrap();
    let mut roster = Vec::new();
    for op in &schedule {
        exec_op(&mut svc, &mut roster, op);
    }
    svc.snapshot_now().unwrap();
    assert!(dir.join("snapshot").join("graph.json").is_file());
    let sorted_edges = |g: &DataGraph| {
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort();
        edges
    };
    let edges = sorted_edges(svc.graph());
    let attrs: Vec<_> = svc
        .graph()
        .nodes()
        .map(|v| svc.graph().attributes(v).clone())
        .collect();
    let live = fingerprint(&mut svc);
    drop(svc);

    let mut reopened = MatchService::open_durable_with(&dir, forced(1), WAL_ONLY).unwrap();
    assert_eq!(sorted_edges(reopened.graph()), edges);
    let reopened_attrs: Vec<_> = reopened
        .graph()
        .nodes()
        .map(|v| reopened.graph().attributes(v).clone())
        .collect();
    assert_eq!(reopened_attrs, attrs);
    assert_eq!(fingerprint(&mut reopened), live);
}

/// `create_durable` refuses to clobber an existing root, and `open_durable`
/// refuses a directory that never finished `create_durable`.
#[test]
fn directory_lifecycle_errors() {
    let root = TempRoot::new("lifecycle");
    let dir = root.path("svc");
    let graph = labelled_graph(10, 20, 2, 1);
    let svc = MatchService::create_durable_with(
        &dir,
        graph.clone(),
        OracleBackend::Matrix,
        forced(1),
        WAL_ONLY,
    )
    .unwrap();
    drop(svc);
    assert!(
        MatchService::create_durable_with(
            &dir,
            graph.clone(),
            OracleBackend::Matrix,
            forced(1),
            WAL_ONLY,
        )
        .is_err(),
        "create over an existing root must fail"
    );
    let empty = root.path("never-created");
    fs::create_dir_all(&empty).unwrap();
    assert!(
        MatchService::open_durable_with(&empty, forced(1), WAL_ONLY).is_err(),
        "open on a root without a snapshot must fail"
    );
}

/// Reopening ignores `GPM_ORACLE`: the backend persisted in the manifest
/// wins, so a directory never silently changes oracle across restarts.
#[test]
fn persisted_backend_choice_survives_reopen() {
    let root = TempRoot::new("backendpin");
    let dir = root.path("svc");
    let graph = labelled_graph(12, 25, 2, 3);
    let svc =
        MatchService::create_durable_with(&dir, graph, OracleBackend::TwoHop, forced(1), WAL_ONLY)
            .unwrap();
    assert_eq!(svc.oracle().name(), "two-hop");
    drop(svc);
    let reopened = MatchService::open_durable_with(&dir, forced(1), WAL_ONLY).unwrap();
    assert_eq!(
        reopened.oracle().name(),
        "two-hop",
        "the manifest's backend choice must win on reopen"
    );
}

/// A CRC-valid `Register` record whose pattern names node 9 of 2 fails to
/// decode on reopen — a codec error, not a replay that panics on every
/// later open of the directory.
#[test]
fn a_malformed_register_record_is_a_codec_error() {
    let root = TempRoot::new("badregister");
    let dir = root.path("svc");
    let graph = labelled_graph(10, 20, 2, 1);
    drop(
        MatchService::create_durable_with(&dir, graph, OracleBackend::Matrix, forced(1), WAL_ONLY)
            .unwrap(),
    );
    // The version-1 field set (node ids, adjacency lists), which that
    // version's decoder accepted.
    let node = |id: u32| format!(r#"{{"id":{id},"predicate":{{"atoms":[]}},"name":null}}"#);
    let record = format!(
        r#"{{"seq":0,"op":{{"Register":{{"nodes":[{},{}],"edges":[{{"from":0,"to":9,"bound":{{"Hops":1}}}}],"out_adj":[[0],[]],"in_adj":[[],[]]}}}}}}"#,
        node(0),
        node(1)
    );
    let mut wal = fs::read(dir.join(WAL_FILE)).unwrap();
    wal.extend_from_slice(&encode_frame(record.as_bytes()).unwrap());
    fs::write(dir.join(WAL_FILE), wal).unwrap();
    match MatchService::open_durable_with(&dir, forced(1), WAL_ONLY) {
        Err(DurabilityError::Codec(msg)) => {
            assert!(msg.contains("unknown pattern node u9"), "{msg}")
        }
        other => panic!("expected a codec error, got {:?}", other.map(|_| ())),
    }
}
