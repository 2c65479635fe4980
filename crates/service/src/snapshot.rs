//! Versioned on-disk snapshots of a [`crate::MatchService`].
//!
//! A snapshot folds the whole service state at one WAL position into a
//! directory the recovery path can load without replaying history:
//!
//! ```text
//! <root>/snapshot/
//!   MANIFEST.bin    framed (len+crc32) JSON Manifest
//!   graph.edges     byte-exact dataset edge list      (format = "dataset")
//!   graph.attrs     typed attribute CSV               (format = "dataset")
//!   graph.json      the graph's serde JSON            (format = "json")
//! ```
//!
//! The graph prefers the byte-exact dataset writers from `gpm_graph::dataset`
//! (human-inspectable, identical to the experiment fixtures); graphs whose
//! attributes the CSV schema cannot carry (conflicting column types, CSV
//! metacharacters) fall back to the graph's serde encoding — its attributes
//! and edge list, decoded through `add_node`/`add_edge` like the dataset
//! pair. The manifest records which, plus a CRC-32 and length for every
//! segment, the oracle-backend choice, the service epoch, the WAL position
//! (`next_seq`) the snapshot covers, and the full catalog: per query its
//! pattern, active flag and last emitted relation.
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
//! Snapshots are replaced with a rename dance so a crash at any point
//! leaves a loadable directory:
//!
//! 1. the new snapshot is materialised in `snapshot.tmp/` and fsynced;
//! 2. the current `snapshot/` (if any) is renamed to `snapshot.prev/`;
//! 3. `snapshot.tmp/` is renamed to `snapshot/`;
//! 4. `snapshot.prev/` is removed.
//!
//! The load path undoes whatever prefix of that dance a crash left
//! behind: a missing `snapshot/` with a surviving `snapshot.prev/` rolls
//! back, stale `.tmp`/`.prev` directories are cleaned up, and the WAL —
//! which is only truncated *after* the swap completes — still covers the
//! rolled-back state.

use crate::catalog::QueryCatalog;
use crate::delta::QueryId;
use crate::wal::{crc32, decode_frame_exact, encode_frame, DurabilityError};
use gpm_core::MatchRelation;
use gpm_distance::OracleBackend;
use gpm_graph::{dataset, DataGraph, PatternGraph};
use serde::{Deserialize, Serialize};
use std::fs::{self, File};
use std::io::{Read as _, Write as _};
use std::path::Path;

/// Name of the live snapshot directory under a durable service root.
pub const SNAPSHOT_DIR: &str = "snapshot";
/// Scratch directory a snapshot is materialised in before the atomic swap.
pub const SNAPSHOT_TMP_DIR: &str = "snapshot.tmp";
/// Name the previous snapshot holds during the swap window.
pub const SNAPSHOT_PREV_DIR: &str = "snapshot.prev";
/// The manifest file inside a snapshot directory.
pub const MANIFEST_FILE: &str = "MANIFEST.bin";
/// Magic bytes opening every manifest (8 bytes, versioned).
pub const MANIFEST_MAGIC: &[u8; 8] = b"GPMSNAP1";
/// Current manifest schema version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// How the graph is persisted inside the snapshot directory.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GraphFormat {
    /// `graph.edges` + `graph.attrs`, the byte-exact dataset pair.
    Dataset,
    /// `graph.json`, the graph's serde JSON (fallback for graphs the CSV
    /// attribute schema cannot represent).
    Json,
}

/// Integrity envelope of one graph segment file.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// File name inside the snapshot directory.
    pub file: String,
    /// Byte length of the file.
    pub len: u64,
    /// CRC-32/IEEE of the file contents.
    pub crc: u32,
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
    /// suspended query stays suspended. The `state` key that older versions
    /// wrote beside this flag is ignored.
    pub active: bool,
    /// The relation as of the last delta emission.
    pub emitted: MatchRelation,
}

/// The snapshot manifest: everything needed to reopen the service minus the
/// graph segment bytes themselves.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest schema version ([`SNAPSHOT_VERSION`]).
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
    /// How the graph is encoded.
    pub graph_format: GraphFormat,
    /// The graph segment files with their integrity envelopes.
    pub segments: Vec<SegmentMeta>,
    /// Every registered query, in registration order.
    pub queries: Vec<QuerySnapshot>,
}

/// Encodes a manifest as magic + one checksummed frame.
pub fn encode_manifest(manifest: &Manifest) -> Result<Vec<u8>, DurabilityError> {
    let payload = serde_json::to_string(manifest)?;
    let mut bytes = MANIFEST_MAGIC.to_vec();
    bytes.extend_from_slice(&encode_frame(payload.as_bytes())?);
    Ok(bytes)
}

/// Strict inverse of [`encode_manifest`]: rejects bad magic, any
/// single-byte corruption (via the frame checksum), trailing bytes, and
/// unknown schema versions.
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest, DurabilityError> {
    if bytes.len() < MANIFEST_MAGIC.len() {
        return Err(DurabilityError::Corrupt(format!(
            "manifest of {} bytes is shorter than its magic",
            bytes.len()
        )));
    }
    let (magic, frame) = bytes.split_at(MANIFEST_MAGIC.len());
    if magic != MANIFEST_MAGIC {
        return Err(DurabilityError::Corrupt(format!(
            "bad manifest magic: expected {MANIFEST_MAGIC:?}, found {magic:?}"
        )));
    }
    let payload = decode_frame_exact(frame)?;
    let text = std::str::from_utf8(payload).map_err(|e| {
        DurabilityError::Codec(format!("checksum-valid manifest is not UTF-8: {e}"))
    })?;
    let manifest: Manifest = serde_json::from_str(text)?;
    if manifest.version != SNAPSHOT_VERSION {
        return Err(DurabilityError::Corrupt(format!(
            "unsupported snapshot version {} (this build reads {SNAPSHOT_VERSION})",
            manifest.version
        )));
    }
    Ok(manifest)
}

fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), DurabilityError> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    Ok(())
}

fn sync_dir(path: &Path) -> Result<(), DurabilityError> {
    // Directory fsync commits the renames/creations themselves. Some
    // filesystems refuse to fsync a directory handle; that is a platform
    // limitation, not an application error, so it is tolerated.
    if let Ok(d) = File::open(path) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Serializes the graph, choosing the dataset pair when the attribute
/// schema can carry it and the JSON codec otherwise. Returns the format and
/// `(file name, contents)` segments.
fn encode_graph(
    graph: &DataGraph,
) -> Result<(GraphFormat, Vec<(String, String)>), DurabilityError> {
    match dataset::dataset_attrs_string(graph) {
        Ok(attrs) => Ok((
            GraphFormat::Dataset,
            vec![
                (
                    "graph.edges".to_string(),
                    dataset::dataset_edges_string(graph),
                ),
                ("graph.attrs".to_string(), attrs),
            ],
        )),
        Err(_) => {
            let json = serde_json::to_string(graph)
                .map_err(|e| DurabilityError::Codec(format!("graph JSON encoding failed: {e}")))?;
            Ok((GraphFormat::Json, vec![("graph.json".to_string(), json)]))
        }
    }
}

fn decode_graph(dir: &Path, manifest: &Manifest) -> Result<DataGraph, DurabilityError> {
    let mut contents = Vec::with_capacity(manifest.segments.len());
    for seg in &manifest.segments {
        let path = dir.join(&seg.file);
        let mut bytes = Vec::new();
        File::open(&path)
            .map_err(|e| {
                DurabilityError::Corrupt(format!(
                    "snapshot segment {} is missing: {e}",
                    path.display()
                ))
            })?
            .read_to_end(&mut bytes)?;
        if bytes.len() as u64 != seg.len || crc32(&bytes) != seg.crc {
            return Err(DurabilityError::Corrupt(format!(
                "snapshot segment {} failed its integrity check ({} bytes, crc {:#010x}; manifest says {} bytes, crc {:#010x})",
                path.display(),
                bytes.len(),
                crc32(&bytes),
                seg.len,
                seg.crc
            )));
        }
        let text = String::from_utf8(bytes).map_err(|e| {
            DurabilityError::Corrupt(format!(
                "snapshot segment {} is not UTF-8: {e}",
                path.display()
            ))
        })?;
        contents.push((seg.file.as_str(), text));
    }
    let find = |name: &str| -> Result<&str, DurabilityError> {
        contents
            .iter()
            .find(|(f, _)| *f == name)
            .map(|(_, c)| c.as_str())
            .ok_or_else(|| DurabilityError::Corrupt(format!("manifest lists no {name} segment")))
    };
    match manifest.graph_format {
        GraphFormat::Dataset => {
            let (graph, _ids, _schema) =
                dataset::read_dataset_strs(find("graph.edges")?, find("graph.attrs")?).map_err(
                    |e| DurabilityError::Corrupt(format!("snapshot dataset did not parse: {e}")),
                )?;
            Ok(graph)
        }
        GraphFormat::Json => serde_json::from_str(find("graph.json")?).map_err(|e| {
            DurabilityError::Corrupt(format!("snapshot graph JSON did not parse: {e}"))
        }),
    }
}

/// Materialises a complete snapshot of the service state under
/// `root/snapshot/`, atomically replacing any previous one (see the module
/// docs for the crash-safe rename dance).
pub(crate) fn write_snapshot(
    root: &Path,
    graph: &DataGraph,
    backend: OracleBackend,
    epoch: u64,
    next_seq: u64,
    catalog: &QueryCatalog,
) -> Result<(), DurabilityError> {
    let tmp = root.join(SNAPSHOT_TMP_DIR);
    let live = root.join(SNAPSHOT_DIR);
    let prev = root.join(SNAPSHOT_PREV_DIR);
    if tmp.exists() {
        fs::remove_dir_all(&tmp)?;
    }
    fs::create_dir_all(&tmp)?;

    let (graph_format, segments) = encode_graph(graph)?;
    let mut segment_metas = Vec::with_capacity(segments.len());
    for (file, contents) in &segments {
        write_synced(&tmp.join(file), contents.as_bytes())?;
        segment_metas.push(SegmentMeta {
            file: file.clone(),
            len: contents.len() as u64,
            crc: crc32(contents.as_bytes()),
        });
    }
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
        segments: segment_metas,
        queries,
    };
    write_synced(&tmp.join(MANIFEST_FILE), &encode_manifest(&manifest)?)?;
    sync_dir(&tmp)?;

    // The swap. Every intermediate state is recoverable by load_snapshot.
    if prev.exists() {
        fs::remove_dir_all(&prev)?;
    }
    if live.exists() {
        fs::rename(&live, &prev)?;
    }
    fs::rename(&tmp, &live)?;
    sync_dir(root)?;
    if prev.exists() {
        fs::remove_dir_all(&prev)?;
    }
    Ok(())
}

/// A loaded snapshot: the decoded manifest plus the reconstructed graph.
#[derive(Debug)]
pub(crate) struct LoadedSnapshot {
    pub manifest: Manifest,
    pub graph: DataGraph,
}

/// Loads the live snapshot under `root`, first rolling back any
/// half-finished swap a crash left behind (missing `snapshot/` with a
/// surviving `snapshot.prev/`) and clearing stale scratch directories.
pub(crate) fn load_snapshot(root: &Path) -> Result<LoadedSnapshot, DurabilityError> {
    let live = root.join(SNAPSHOT_DIR);
    let prev = root.join(SNAPSHOT_PREV_DIR);
    let tmp = root.join(SNAPSHOT_TMP_DIR);
    if !live.exists() && prev.exists() {
        // Crashed between renaming the old snapshot away and promoting the
        // new one: the WAL was not yet truncated, so the old snapshot plus
        // the full log is still a consistent state. Roll back.
        fs::rename(&prev, &live)?;
        sync_dir(root)?;
    }
    if tmp.exists() {
        fs::remove_dir_all(&tmp)?;
    }
    if prev.exists() {
        fs::remove_dir_all(&prev)?;
    }
    if !live.exists() {
        return Err(DurabilityError::State(format!(
            "{} has no snapshot directory — not a durable service root (create_durable never completed here?)",
            root.display()
        )));
    }
    let mut bytes = Vec::new();
    File::open(live.join(MANIFEST_FILE))?.read_to_end(&mut bytes)?;
    let manifest = decode_manifest(&bytes)?;
    let graph = decode_graph(&live, &manifest)?;
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
            segments: vec![SegmentMeta {
                file: "graph.edges".to_string(),
                len: 17,
                crc: 0xDEAD_BEEF,
            }],
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

    #[test]
    fn manifest_roundtrip() {
        let m = sample_manifest();
        let bytes = encode_manifest(&m).unwrap();
        assert_eq!(decode_manifest(&bytes).unwrap(), m);
    }

    #[test]
    fn manifest_rejects_single_byte_corruption() {
        let bytes = encode_manifest(&sample_manifest()).unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(
                decode_manifest(&bad).is_err(),
                "corrupting manifest byte {i} went undetected"
            );
        }
    }

    #[test]
    fn manifest_rejects_future_version() {
        let mut m = sample_manifest();
        m.version = SNAPSHOT_VERSION + 1;
        let bytes = encode_manifest(&m).unwrap();
        assert!(matches!(
            decode_manifest(&bytes),
            Err(DurabilityError::Corrupt(_))
        ));
    }
}
