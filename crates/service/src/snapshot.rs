//! Versioned on-disk snapshots of a [`crate::MatchService`].
//!
//! A snapshot folds the whole service state at one WAL position into one
//! file the recovery path can load without replaying history:
//!
//! ```text
//! <root>/snapshot/MANIFEST.bin := MAGIC frame(manifest) frame(graph part)+
//! MAGIC  := b"GPMSNAP1"                             (8 bytes)
//! frame  := len:u32le crc:u32le payload[len]        (the WAL's frame)
//! manifest   = JSON Manifest
//! graph part = dataset edge list, then typed attribute CSV (format "Dataset")
//!            | the graph's serde JSON                       (format "Json")
//! ```
//!
//! The graph prefers the byte-exact dataset writers from `gpm_graph::dataset`
//! (human-readable, identical to the experiment fixtures); graphs whose
//! attributes the CSV schema cannot carry (conflicting column types, CSV
//! metacharacters) fall back to the graph's serde encoding — its attributes
//! and edge list, decoded through `add_node`/`add_edge` like the dataset
//! pair. The dataset pair is kept because it is the cheaper one: on the
//! benchmark's 297- to 1 038-node graphs the JSON is 3.4× the bytes, 3.6–4.3×
//! the encode time and 1.9–2.7× the decode time (BENCHMARKS.md batch 33).
//! The manifest records which encoding, the oracle-backend choice,
//! the service epoch, the WAL position (`next_seq`) the snapshot covers,
//! and the full catalog: per query its pattern, active flag and last
//! emitted relation.
//!
//! Every frame carries the WAL's CRC-32 over its length and payload, so a
//! flipped byte anywhere in the file, a missing or extra part and trailing
//! bytes are each a [`DurabilityError`], never a partial load.
//!
//! A snapshot holds inputs, not derived state. Like the distance oracle,
//! which is persisted by backend name only, a query's match state is a
//! function of its pattern and the graph (the maximum match is unique), so
//! reopening rebuilds each active query's state with
//! [`gpm_incremental::MatchState::initialise_with`], the build `register`
//! and `resume` run.
//!
//! ## Atomicity
//!
//! A snapshot is written whole to `snapshot/MANIFEST.tmp`, fsynced, and
//! renamed over `MANIFEST.bin`; the directory is fsynced before the caller
//! truncates the WAL. A crash therefore leaves the old `MANIFEST.bin` (with
//! the WAL that covers it, and perhaps a partial or complete temp file
//! beside it) or the new one. Loading reads `MANIFEST.bin` only and renames
//! or deletes nothing; the next snapshot overwrites a stale temp file.

use crate::catalog::QueryCatalog;
use crate::delta::QueryId;
use crate::wal::{decode_frame_exact, encode_frame, sync_dir, DurabilityError, FRAME_HEADER_LEN};
use gpm_core::MatchRelation;
use gpm_distance::OracleBackend;
use gpm_graph::{dataset, DataGraph, PatternGraph};
use serde::{Deserialize, Serialize};
use std::fs::{self, File};
use std::io::{ErrorKind, Write as _};
use std::path::Path;

/// Name of the snapshot directory under a durable service root.
pub const SNAPSHOT_DIR: &str = "snapshot";
/// The snapshot file inside the snapshot directory.
pub const MANIFEST_FILE: &str = "MANIFEST.bin";
/// The file a snapshot is written to before it is renamed over
/// [`MANIFEST_FILE`].
pub const MANIFEST_TMP_FILE: &str = "MANIFEST.tmp";
/// Magic bytes opening every snapshot file (8 bytes); the format version is
/// the manifest's [`SNAPSHOT_VERSION`].
pub const MANIFEST_MAGIC: &[u8; 8] = b"GPMSNAP1";
/// Current snapshot format version: version 1 kept the graph in segment
/// files beside the manifest and is not read.
pub const SNAPSHOT_VERSION: u32 = 2;

/// How the graph is encoded in the parts after the manifest.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GraphFormat {
    /// Two parts: the dataset edge list, then the typed attribute CSV — the
    /// byte-exact dataset pair.
    Dataset,
    /// One part: the graph's serde JSON (fallback for graphs the CSV
    /// attribute schema cannot represent).
    Json,
}

impl GraphFormat {
    /// The number of graph parts this format writes after the manifest.
    pub fn parts(self) -> usize {
        match self {
            GraphFormat::Dataset => 2,
            GraphFormat::Json => 1,
        }
    }
}

/// One query's persisted catalog entry.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuerySnapshot {
    /// The query's stable id.
    pub id: u64,
    /// The registered pattern.
    pub pattern: PatternGraph,
    /// Whether the query participates in per-batch repair. Reopening
    /// builds each active query's match state from the recovered graph; a
    /// suspended query stays suspended.
    pub active: bool,
    /// The relation as of the last delta emission.
    pub emitted: MatchRelation,
}

/// The snapshot manifest: everything needed to reopen the service except
/// the graph, which follows it in the same file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Snapshot format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Service epoch at snapshot time.
    pub epoch: u64,
    /// The WAL sequence number the next record will carry: every record
    /// with `seq < next_seq` is already folded into this snapshot and is
    /// skipped on replay.
    pub next_seq: u64,
    /// Persisted oracle-backend choice ([`OracleBackend::name`]); reopening
    /// uses this, not the environment, so a service never silently changes
    /// backend across a restart.
    pub backend: String,
    /// The catalog's next query id (ids are never reused, even across
    /// restarts).
    pub next_query_id: u64,
    /// How the graph parts encode the graph.
    pub graph_format: GraphFormat,
    /// Every registered query, in registration order.
    pub queries: Vec<QuerySnapshot>,
}

/// Encodes a snapshot file: the magic, the manifest's frame, then one frame
/// per graph part. `graph_parts` must hold the manifest's
/// `graph_format.parts()` parts.
pub fn encode_manifest(
    manifest: &Manifest,
    graph_parts: &[String],
) -> Result<Vec<u8>, DurabilityError> {
    let mut bytes = MANIFEST_MAGIC.to_vec();
    bytes.extend(encode_frame(serde_json::to_string(manifest)?.as_bytes())?);
    for part in graph_parts {
        bytes.extend(encode_frame(part.as_bytes())?);
    }
    Ok(bytes)
}

/// Strict inverse of [`encode_manifest`], returning the manifest: rejects
/// bad magic, any single-byte corruption (every frame is checksummed), a
/// version other than [`SNAPSHOT_VERSION`], a part more or fewer than the
/// graph format names, and trailing bytes.
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest, DurabilityError> {
    Ok(decode_snapshot(bytes)?.0)
}

/// [`decode_manifest`], returning the graph parts too.
fn decode_snapshot(bytes: &[u8]) -> Result<(Manifest, Vec<&str>), DurabilityError> {
    let magic = &bytes[..bytes.len().min(MANIFEST_MAGIC.len())];
    if magic != MANIFEST_MAGIC {
        return Err(DurabilityError::Corrupt(format!(
            "bad snapshot magic: expected {MANIFEST_MAGIC:?}, found {magic:?}"
        )));
    }
    let mut rest = &bytes[magic.len()..];
    let manifest: Manifest = serde_json::from_str(next_part(&mut rest, "manifest")?)?;
    if manifest.version != SNAPSHOT_VERSION {
        return Err(DurabilityError::Corrupt(format!(
            "unsupported snapshot version {} (this build reads {SNAPSHOT_VERSION})",
            manifest.version
        )));
    }
    let parts = (0..manifest.graph_format.parts())
        .map(|_| next_part(&mut rest, "graph"))
        .collect::<Result<_, _>>()?;
    if !rest.is_empty() {
        return Err(DurabilityError::Corrupt(format!(
            "{} bytes trail the snapshot's last part",
            rest.len()
        )));
    }
    Ok((manifest, parts))
}

/// Splits the next checksummed frame off `rest` and returns its payload.
fn next_part<'a>(rest: &mut &'a [u8], what: &str) -> Result<&'a str, DurabilityError> {
    let len = rest
        .get(..4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("a 4-byte slice")));
    let frame = len
        .and_then(|len| rest.get(..FRAME_HEADER_LEN + len as usize))
        .ok_or_else(|| DurabilityError::Corrupt(format!("snapshot ends inside its {what} part")))?;
    *rest = &rest[frame.len()..];
    std::str::from_utf8(decode_frame_exact(frame)?).map_err(|e| {
        DurabilityError::Corrupt(format!(
            "checksum-valid snapshot {what} part is not UTF-8: {e}"
        ))
    })
}

/// Serializes the graph, choosing the dataset pair when the attribute
/// schema can carry it and the JSON codec otherwise.
fn encode_graph(graph: &DataGraph) -> Result<(GraphFormat, Vec<String>), DurabilityError> {
    match dataset::dataset_attrs_string(graph) {
        Ok(attrs) => Ok((
            GraphFormat::Dataset,
            vec![dataset::dataset_edges_string(graph), attrs],
        )),
        Err(_) => {
            let json = serde_json::to_string(graph)
                .map_err(|e| DurabilityError::Codec(format!("graph JSON encoding failed: {e}")))?;
            Ok((GraphFormat::Json, vec![json]))
        }
    }
}

fn decode_graph(format: GraphFormat, parts: &[&str]) -> Result<DataGraph, DurabilityError> {
    match (format, parts) {
        (GraphFormat::Dataset, &[edges, attrs]) => {
            let (graph, _ids, _schema) = dataset::read_dataset_strs(edges, attrs).map_err(|e| {
                DurabilityError::Corrupt(format!("snapshot dataset did not parse: {e}"))
            })?;
            Ok(graph)
        }
        (GraphFormat::Json, &[json]) => serde_json::from_str(json).map_err(|e| {
            DurabilityError::Corrupt(format!("snapshot graph JSON did not parse: {e}"))
        }),
        _ => unreachable!("decode_snapshot returns the parts the format names"),
    }
}

/// Writes a complete snapshot of the service state to
/// `root/snapshot/MANIFEST.bin`, atomically replacing any previous one (see
/// the module docs). When it returns, the new snapshot is durable.
pub(crate) fn write_snapshot(
    root: &Path,
    graph: &DataGraph,
    backend: OracleBackend,
    epoch: u64,
    next_seq: u64,
    catalog: &QueryCatalog,
) -> Result<(), DurabilityError> {
    let dir = root.join(SNAPSHOT_DIR);
    let created = !dir.is_dir();
    if created {
        fs::create_dir(&dir)?;
    }
    let (graph_format, parts) = encode_graph(graph)?;
    let queries = catalog
        .iter()
        .map(|e| QuerySnapshot {
            id: e.id().value(),
            pattern: e.pattern().clone(),
            active: e.is_active(),
            emitted: e.emitted.clone(),
        })
        .collect();
    let manifest = Manifest {
        version: SNAPSHOT_VERSION,
        epoch,
        next_seq,
        backend: backend.name().to_string(),
        next_query_id: catalog.next_id(),
        graph_format,
        queries,
    };
    let tmp = dir.join(MANIFEST_TMP_FILE);
    let mut f = File::create(&tmp)?;
    f.write_all(&encode_manifest(&manifest, &parts)?)?;
    f.sync_all()?;
    fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
    sync_dir(&dir)?;
    if created {
        sync_dir(root)?;
    }
    Ok(())
}

/// A loaded snapshot: the decoded manifest plus the reconstructed graph.
#[derive(Debug)]
pub(crate) struct LoadedSnapshot {
    pub manifest: Manifest,
    pub graph: DataGraph,
}

/// Loads `root/snapshot/MANIFEST.bin`; touches nothing else.
pub(crate) fn load_snapshot(root: &Path) -> Result<LoadedSnapshot, DurabilityError> {
    let path = root.join(SNAPSHOT_DIR).join(MANIFEST_FILE);
    let bytes = fs::read(&path).map_err(|e| match e.kind() {
        ErrorKind::NotFound => DurabilityError::State(format!(
            "{} has no snapshot — not a durable service root (create_durable never completed here?)",
            root.display()
        )),
        _ => e.into(),
    })?;
    let (manifest, parts) = decode_snapshot(&bytes)?;
    let graph = decode_graph(manifest.graph_format, &parts)?;
    Ok(LoadedSnapshot { manifest, graph })
}
/// Rebuilds the in-memory catalog from a manifest with every query
/// suspended; the caller resumes the active ones.
pub(crate) fn restore_catalog(manifest: &Manifest) -> Result<QueryCatalog, DurabilityError> {
    let mut entries = Vec::with_capacity(manifest.queries.len());
    for q in &manifest.queries {
        let np = q.pattern.node_count();
        if q.emitted.pattern_node_count() != np {
            return Err(DurabilityError::Corrupt(format!(
                "query q{}: emitted relation has {} pattern nodes, pattern has {np}",
                q.id,
                q.emitted.pattern_node_count()
            )));
        }
        entries.push(QueryCatalog::restored_entry(
            QueryId(q.id),
            q.pattern.clone(),
            q.emitted.clone(),
        ));
    }
    QueryCatalog::restore(manifest.next_query_id, entries).map_err(DurabilityError::Corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> Manifest {
        Manifest {
            version: SNAPSHOT_VERSION,
            epoch: 12,
            next_seq: 40,
            backend: "matrix".to_string(),
            next_query_id: 3,
            graph_format: GraphFormat::Dataset,
            queries: vec![QuerySnapshot {
                id: 2,
                pattern: gpm_graph::PatternGraphBuilder::new()
                    .labeled_node("a")
                    .labeled_node("b")
                    .edge("a", "b", 2u32)
                    .build()
                    .unwrap()
                    .0,
                active: false,
                emitted: MatchRelation::empty(2),
            }],
        }
    }

    fn parts(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("part {i}\n")).collect()
    }

    #[test]
    fn manifest_roundtrip() {
        let m = sample_manifest();
        let bytes = encode_manifest(&m, &parts(2)).unwrap();
        assert_eq!(
            decode_snapshot(&bytes).unwrap(),
            (m, vec!["part 0\n", "part 1\n"])
        );
    }

    #[test]
    fn manifest_rejects_single_byte_corruption() {
        let bytes = encode_manifest(&sample_manifest(), &parts(2)).unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(
                decode_manifest(&bad).is_err(),
                "corrupting snapshot byte {i} went undetected"
            );
        }
    }

    #[test]
    fn manifest_rejects_future_version() {
        let mut m = sample_manifest();
        m.version = SNAPSHOT_VERSION + 1;
        let bytes = encode_manifest(&m, &parts(2)).unwrap();
        assert!(matches!(
            decode_manifest(&bytes),
            Err(DurabilityError::Corrupt(_))
        ));
    }
}
