//! Durability: crash sweeps over the write-ahead log, run through the
//! service simulator (`support::sim`) — a crash at every byte, garbled
//! bytes, a snapshot with a log tail, and a reopen at every record on every
//! configuration — then what the simulator does not script: the snapshot
//! file's format and its crash states, the directory lifecycle, and what
//! the log records.

use gpm::service::snapshot::{
    decode_manifest, MANIFEST_FILE, MANIFEST_MAGIC, MANIFEST_TMP_FILE, SNAPSHOT_DIR,
};
use gpm::service::wal::{encode_frame, read_wal_bytes, WalOp, WAL_FILE, WAL_MAGIC};
use gpm::{
    bounded_simulation_with_oracle, fold_deltas, generate_pattern, random_updates, DistanceMatrix,
    DurabilityError, DurableOptions, Executed, MatchService, OracleBackend, PatternGenConfig,
    PatternGraph, QueryId, UpdateStreamConfig,
};
use std::fs;
use std::path::{Path, PathBuf};

mod support;
use support::sim::*;
use support::{forced, labelled_graph, TempRoot};

/// Every byte of the log is a crash point — each record boundary and each
/// torn prefix — and every one reopens to the uninterrupted run over the
/// records that survived; one reopened at a record boundary, driven on to
/// the script's end and a tail, repeats the uninterrupted run.
#[test]
fn every_byte_crash_prefix_recovers_bit_identically() {
    let script = Script::generate(0xD15C, 20, 10);
    let root = TempRoot::new("everybyte");
    let config = (OracleBackend::Matrix, 2);
    let run = durable_run(&script, &root, config.0, config.1, WAL_ONLY);
    let boundaries = crash_sweep(&script, &run, &run.created, 0, config, Cuts::EveryByte);
    // One boundary per op, the empty file and the bare magic.
    assert_eq!(boundaries, script.ops().len() + 2);
}

/// A flipped bit anywhere in the log truncates it at the damaged record —
/// the checksum catches it, nothing is replayed from it — and the prefix
/// before recovers exactly. A flip inside the magic fails the reopen.
#[test]
fn garbled_bytes_truncate_at_the_damaged_record() {
    let script = Script::generate(0x6A5B, 18, 8);
    let root = TempRoot::new("garble");
    let run = durable_run(&script, &root, OracleBackend::Matrix, 1, WAL_ONLY);
    let crash = root.path("garbled");
    copy_dir(&run.created, &crash);
    let mut rolling = Rolling::new(&script, OracleBackend::Matrix);
    for at in (0..run.wal.len()).step_by(3) {
        for mask in [0x01u8, 0x80] {
            let mut image = run.wal.clone();
            image[at] ^= mask;
            fs::write(crash.join(WAL_FILE), &image).unwrap();
            let reopened = MatchService::open_durable_with(&crash, forced(1), WAL_ONLY);
            if at < WAL_MAGIC.len() {
                assert!(reopened.is_err(), "a damaged magic opened (byte {at})");
                continue;
            }
            let decoded = read_wal_bytes(&image).unwrap();
            assert!(decoded.valid_len as usize <= at, "byte {at} was replayed");
            let k = decoded.records.len();
            assert_eq!(
                fingerprint(&mut reopened.unwrap()),
                *rolling.at(k),
                "byte {at} mask {mask:#04x}: {k} records survive"
            );
        }
    }
}

/// A reopen at every record boundary repeats the uninterrupted run on both
/// back-ends at 1, 2 and 8 threads, and every configuration's outcomes,
/// tail outcomes and end are the same.
#[test]
fn recovery_is_bit_identical_across_backends_and_threads() {
    let script = Script::generate(0xBEE5, 18, 8);
    let mut base = None;
    for backend in OracleBackend::ALL {
        for threads in THREAD_COUNTS {
            let root = TempRoot::new(&format!("configs-{}-{threads}", backend.name()));
            let run = durable_run(&script, &root, backend, threads, WAL_ONLY);
            let config = (backend, threads);
            crash_sweep(&script, &run, &run.created, 0, config, Cuts::Records);
            let first = base.get_or_insert_with(|| (run.outcomes.clone(), run.tail.clone()));
            assert_eq!(
                (&run.outcomes, &run.tail),
                (&first.0, &first.1),
                "{backend:?} at {threads} threads"
            );
        }
    }
}

/// With automatic snapshots and the script's own snapshot steps, the
/// directory ends as a snapshot holding active queries plus a log tail:
/// every cut of that tail reopens to the reference and, at a record
/// boundary, drives on. With a cadence of 5 the log stays under 5 records.
/// The sweep starts from the directory as the script left it: on seed 3
/// the tail takes a due snapshot, which the log it cuts does not continue.
#[test]
fn snapshot_plus_wal_tail_recovers_at_every_cut() {
    for seed in [0x5EED, 3] {
        let script = Script::generate(seed, 20, 14);
        let root = TempRoot::new("cadence");
        let cadence = DurableOptions {
            snapshot_every: Some(5),
        };
        let config = (OracleBackend::Matrix, 2);
        let run = durable_run(&script, &root, config.0, config.1, cadence);
        let base = run.base;
        assert!(base > 0, "no snapshot was taken");
        let records = crash_sweep(&script, &run, &run.scripted, base, config, Cuts::EveryByte) - 2;
        assert!(records > 0, "the log tail is empty");
        assert_eq!(base + records, script.ops().len());
    }
}

/// Runs a script's ops on `svc`, with a `snapshot_now` before op
/// `snapshot_at`, then suspends the first query and applies the script's
/// tail, so the service ends with a suspended query whose emitted relation
/// lags the graph.
fn drive(svc: &mut MatchService, script: &Script, snapshot_at: Option<usize>) {
    for (i, op) in script.ops().iter().enumerate() {
        if snapshot_at == Some(i) {
            svc.snapshot_now().unwrap();
        }
        exec(svc, op);
    }
    assert!(svc.suspend(svc.catalog().ids()[0]));
    for batch in &script.tail {
        svc.apply(batch);
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

/// The names and bytes of the files in `dir`'s snapshot directory.
fn snapshot_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = fs::read_dir(dir.join(SNAPSHOT_DIR))
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

fn assert_only_the_manifest(dir: &Path, what: &str) {
    let names: Vec<_> = snapshot_files(dir).into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, [MANIFEST_FILE], "snapshot/ after {what}");
}

/// Every state a crash can leave a snapshot's one rename in reopens to the
/// uninterrupted service, on both back-ends at 1 and 4 threads, and leaves
/// `snapshot/` as it found it. The files before and after a `snapshot_now`
/// supply the states, each with the log not yet truncated: (a) a partial
/// temp file beside the old `MANIFEST.bin`, (b) a complete one, (c) the new
/// `MANIFEST.bin`. `create_durable` and every snapshot, including one over
/// a stale temp file, leave `MANIFEST.bin` alone in `snapshot/`.
#[test]
fn every_snapshot_swap_crash_state_reopens() {
    let script = Script::generate(0x5A9, 18, 8);
    let half = script.ops().len() / 2;
    for backend in OracleBackend::ALL {
        for threads in [1, 4] {
            let root = TempRoot::new(&format!("swap-{}-{threads}", backend.name()));
            let dir = root.path("svc");
            let mut svc = MatchService::create_durable_with(
                &dir,
                script.graph.clone(),
                backend,
                forced(threads),
                WAL_ONLY,
            )
            .unwrap();
            assert_only_the_manifest(&dir, "create_durable");
            drive(&mut svc, &script, Some(half));
            let manifest = dir.join(SNAPSHOT_DIR).join(MANIFEST_FILE);
            let (wal, old) = (
                fs::read(dir.join(WAL_FILE)).unwrap(),
                fs::read(&manifest).unwrap(),
            );
            svc.snapshot_now().unwrap();
            assert_only_the_manifest(&dir, "snapshot_now");
            let new = fs::read(&manifest).unwrap();
            let expected = fingerprint(&mut svc);
            drop(svc);

            let partial = &new[..new.len() / 2];
            let states = [
                (
                    "a",
                    vec![(MANIFEST_FILE, &old[..]), (MANIFEST_TMP_FILE, partial)],
                ),
                (
                    "b",
                    vec![(MANIFEST_FILE, &old[..]), (MANIFEST_TMP_FILE, &new[..])],
                ),
                ("c", vec![(MANIFEST_FILE, &new[..])]),
            ];
            for (state, files) in states {
                let crash = root.path(&format!("crash-{state}"));
                fs::create_dir_all(crash.join(SNAPSHOT_DIR)).unwrap();
                fs::write(crash.join(WAL_FILE), &wal).unwrap();
                for (name, bytes) in files {
                    fs::write(crash.join(SNAPSHOT_DIR).join(name), bytes).unwrap();
                }
                let listed = snapshot_files(&crash);
                let what = format!("state ({state}) on {backend:?} at {threads} threads");
                let mut recovered =
                    MatchService::open_durable_with(&crash, forced(threads), WAL_ONLY)
                        .unwrap_or_else(|e| panic!("{what} did not reopen: {e}"));
                assert_eq!(fingerprint(&mut recovered), expected, "{what}");
                assert_eq!(snapshot_files(&crash), listed, "{what}: reopening wrote");
                recovered.snapshot_now().unwrap();
                assert_only_the_manifest(&crash, &format!("a snapshot over {what}"));
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

/// The payloads of a snapshot file's frames: the manifest's JSON, then the
/// graph parts.
fn snapshot_parts(bytes: &[u8]) -> Vec<&[u8]> {
    let mut rest = &bytes[MANIFEST_MAGIC.len()..];
    let mut parts = Vec::new();
    while !rest.is_empty() {
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        parts.push(&rest[8..8 + len]);
        rest = &rest[8 + len..];
    }
    parts
}

/// A snapshot file of the given frame payloads.
fn framed_snapshot<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut bytes = MANIFEST_MAGIC.to_vec();
    for part in parts {
        bytes.extend(encode_frame(part).unwrap());
    }
    bytes
}

/// Replaces `from`, which must occur once, by `to` in the manifest part of
/// the snapshot at `path` and frames that part again; the graph parts stay
/// as they are.
fn rewrite_manifest(path: &Path, from: &str, to: &str) {
    let bytes = fs::read(path).unwrap();
    let parts = snapshot_parts(&bytes);
    let json = std::str::from_utf8(parts[0]).unwrap();
    assert_eq!(json.matches(from).count(), 1, "{json}");
    let json = json.replace(from, to);
    let rewritten = framed_snapshot([json.as_bytes()].into_iter().chain(parts[1..].to_vec()));
    fs::write(path, rewritten).unwrap();
}

/// A snapshot never half-loads: every single-byte flip of `MANIFEST.bin`,
/// a graph part dropped or repeated, and a trailing byte each fail the
/// reopen with a `DurabilityError`. So does a version-1 directory — its
/// manifest naming graph segment files beside it — with an error that
/// names the version.
#[test]
fn a_damaged_or_version_1_snapshot_fails_to_open() {
    let root = TempRoot::new("badsnapshot");
    let (dir, _) = suspended_root(&root);
    MatchService::open_durable_with(&dir, forced(1), WAL_ONLY)
        .unwrap()
        .snapshot_now()
        .unwrap();
    let path = dir.join(SNAPSHOT_DIR).join(MANIFEST_FILE);
    let good = fs::read(&path).unwrap();
    let open_with = |bytes: &[u8]| {
        fs::write(&path, bytes).unwrap();
        MatchService::open_durable_with(&dir, forced(1), WAL_ONLY).map(drop)
    };
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0x01;
        assert!(
            open_with(&bad).is_err(),
            "flipped byte {i} of {} opened",
            good.len()
        );
    }
    let parts = snapshot_parts(&good);
    assert_eq!(
        parts.len(),
        3,
        "the manifest, the edge list, the attributes"
    );
    let mut trailing = good.clone();
    trailing.push(b'\n');
    for (what, bytes) in [
        ("a missing part", framed_snapshot(parts[..2].to_vec())),
        (
            "an extra part",
            framed_snapshot(parts.iter().chain(&parts[2..]).copied()),
        ),
        ("a trailing byte", trailing),
    ] {
        assert!(
            matches!(open_with(&bytes), Err(DurabilityError::Corrupt(_))),
            "{what} opened"
        );
    }
    open_with(&good).expect("the undamaged snapshot opens");

    // Version 1: the manifest alone in MANIFEST.bin, each segment a file
    // with its length and CRC in the manifest.
    let mut segments = Vec::new();
    for (file, part) in ["graph.edges", "graph.attrs"].iter().zip(&parts[1..]) {
        fs::write(dir.join(SNAPSHOT_DIR).join(file), part).unwrap();
        let (len, crc) = (part.len(), gpm::service::wal::crc32(part));
        segments.push(format!(r#"{{"file":"{file}","len":{len},"crc":{crc}}}"#));
    }
    let json = std::str::from_utf8(parts[0]).unwrap();
    let v1 = json
        .replacen(r#""version":2,"#, r#""version":1,"#, 1)
        .replacen(
            r#""queries":"#,
            &format!(r#""segments":[{}],"queries":"#, segments.join(",")),
            1,
        );
    assert_ne!(v1, json);
    match open_with(&framed_snapshot([v1.as_bytes()])) {
        Err(DurabilityError::Corrupt(msg)) => assert!(msg.contains("version 1 "), "{msg}"),
        other => panic!("a version-1 snapshot: {:?}", other.map(|_| ())),
    }
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

/// A graph the dataset CSV cannot carry (one attribute key, two types) is
/// snapshotted as its serde JSON, and reopening from that snapshot restores
/// the graph and every query bit-identically.
#[test]
fn json_snapshot_fallback_reopens_bit_identically() {
    let mut script = Script::generate(0x150, 20, 8);
    (script.graph.attributes_mut(gpm::NodeId::new(0))).set("label", 7);
    let root = TempRoot::new("jsonsnap");
    let dir = root.path("svc");
    let graph = script.graph.clone();
    let mut svc =
        MatchService::create_durable_with(&dir, graph, OracleBackend::Matrix, forced(1), WAL_ONLY)
            .unwrap();
    drive(&mut svc, &script, None);
    svc.snapshot_now().unwrap();
    let manifest = fs::read(dir.join(SNAPSHOT_DIR).join(MANIFEST_FILE)).unwrap();
    assert_eq!(
        decode_manifest(&manifest).unwrap().graph_format,
        gpm::service::GraphFormat::Json
    );
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

/// `create_durable` refuses to clobber an existing root, `open_durable`
/// refuses a directory that never finished `create_durable`, and a reopen
/// whose due snapshot cannot be written returns the error, then succeeds
/// once the obstacle is gone.
#[test]
fn directory_lifecycle_errors() {
    let root = TempRoot::new("lifecycle");
    let dir = root.path("svc");
    let graph = labelled_graph(10, 20, 2, 1);
    let mut svc = MatchService::create_durable_with(
        &dir,
        graph.clone(),
        OracleBackend::Matrix,
        forced(1),
        WAL_ONLY,
    )
    .unwrap();
    let (p, _) = generate_pattern(svc.graph(), &PatternGenConfig::new(3, 3, 3).with_seed(1));
    let q = svc.register(p);
    let updates = random_updates(svc.graph(), &UpdateStreamConfig::mixed(5).with_seed(1));
    svc.apply(&updates);
    let live = svc.result(q).unwrap();
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
    // A directory where the snapshot's temporary file goes makes its
    // `File::create` fail, so the snapshot two replayed records make due
    // cannot be written.
    let every_op = DurableOptions {
        snapshot_every: Some(1),
    };
    let obstacle = dir.join(SNAPSHOT_DIR).join(MANIFEST_TMP_FILE);
    fs::create_dir(&obstacle).unwrap();
    match MatchService::open_durable_with(&dir, forced(1), every_op) {
        Err(DurabilityError::Io(_)) => {}
        other => panic!("expected an I/O error, got {:?}", other.map(|_| ())),
    }
    fs::remove_dir(&obstacle).unwrap();
    let reopened = MatchService::open_durable_with(&dir, forced(1), every_op).unwrap();
    assert_eq!(reopened.result(q).unwrap(), live);
}

/// A durability error stops the service (fail-stop). The fault: a
/// directory where the snapshot's temporary file goes, so the first
/// snapshot that comes due cannot be written. The op that meets it is not
/// applied; every later change, and `snapshot_now`, answers the same
/// error without growing the log, even once the fault is gone; reads keep
/// answering; and a reopen equals the service before the error.
#[test]
fn a_durability_error_stops_the_service() {
    let every_op = DurableOptions {
        snapshot_every: Some(1),
    };
    let script = Script::generate(0xFA11, 18, 6);
    for backend in OracleBackend::ALL {
        for threads in [1, 4] {
            let root = TempRoot::new(&format!("failstop-{}-{threads}", backend.name()));
            let run = durable_run(&script, &root, backend, threads, WAL_ONLY);
            // The reopen folds the replayed log into a snapshot; the fault
            // comes after it, so one op logs and the next finds a snapshot due.
            let mut svc =
                MatchService::open_durable_with(&run.dir, forced(threads), every_op).unwrap();
            let obstacle = run.dir.join(SNAPSHOT_DIR).join(MANIFEST_TMP_FILE);
            fs::create_dir(&obstacle).unwrap();
            let batch = |svc: &MatchService, seed| {
                let config = UpdateStreamConfig::mixed(8).with_seed(seed);
                WalOp::Batch(random_updates(svc.graph(), &config))
            };
            let first = batch(&svc, 1);
            assert!(matches!(svc.execute(first), Ok(Executed::Applied(_))));
            let ids = svc.catalog().ids();
            let results =
                |svc: &MatchService| -> Vec<_> { ids.iter().map(|&q| svc.result(q)).collect() };
            let wal_len = || fs::metadata(run.dir.join(WAL_FILE)).unwrap().len();
            let (before, logged, epoch) = (results(&svc), wal_len(), svc.epoch());
            let sub = svc.subscribe(ids[0]).unwrap();
            sub.drain();

            let second = batch(&svc, 2);
            match svc.execute(second.clone()) {
                Err(DurabilityError::Io(_)) => {}
                other => panic!("expected an I/O error, got {other:?}"),
            }
            let later = [
                second,
                WalOp::Suspend(ids[0].value()),
                WalOp::Deregister(ids[0].value()),
                WalOp::Register(svc.catalog().get(ids[0]).unwrap().pattern().clone()),
            ];
            for op in later.iter().cloned() {
                assert!(
                    matches!(svc.execute(op), Err(DurabilityError::Io(_))),
                    "a stopped service took a change"
                );
            }
            assert!(matches!(svc.snapshot_now(), Err(DurabilityError::Io(_))));
            fs::remove_dir(&obstacle).unwrap();
            assert!(
                svc.execute(later[0].clone()).is_err(),
                "a stopped service restarted"
            );
            assert!(svc.snapshot_now().is_err(), "a stopped service restarted");
            let context = format!("{backend:?} at {threads} threads");
            assert_eq!(
                wal_len(),
                logged,
                "a stopped service grew the log, {context}"
            );
            assert_eq!(results(&svc), before, "{context}");
            assert_eq!(svc.epoch(), epoch, "{context}");
            assert!(sub.drain().is_empty(), "an op that was not applied emitted");
            drop(svc);

            let reopened =
                MatchService::open_durable_with(&run.dir, forced(threads), every_op).unwrap();
            assert_eq!(results(&reopened), before, "the reopen, {context}");
            assert_eq!(reopened.epoch(), epoch, "the reopen, {context}");
        }
    }
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
