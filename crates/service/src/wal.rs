//! Write-ahead log for [`crate::MatchService`] durability.
//!
//! Every state-changing operation the service performs — an update batch
//! or a catalog change (register, deregister, suspend, resume) — is
//! appended to a single log file **before** it is considered applied, so a crashed
//! service can be reopened and replayed into the exact state (and the exact
//! subsequent [`crate::Subscription`] stream) of an uninterrupted run.
//!
//! ## On-disk format
//!
//! ```text
//! wal.log := MAGIC frame*
//! MAGIC   := b"GPMWAL1\n"                                (8 bytes)
//! frame   := len:u32le crc:u32le payload[len]
//! crc     := CRC-32/IEEE over (len:u32le ++ payload)
//! payload := compact JSON of a WalRecord
//! ```
//!
//! The checksum covers the **length prefix as well as the payload**, so a
//! flipped bit anywhere in a frame — including in the length field itself —
//! is detected deterministically (CRC-32 catches all burst errors of ≤ 32
//! bits). Readers treat the first incomplete or checksum-failing frame as a
//! *torn tail*: everything before it is trusted, everything from it on is
//! truncated on recovery and never silently replayed. A CRC-valid frame
//! that fails to decode is *not* a torn tail — the bytes were written that
//! way — and surfaces as a hard [`DurabilityError::Codec`] error instead.

use gpm_distance::EdgeUpdate;
use gpm_graph::PatternGraph;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::OnceLock;

/// File name of the write-ahead log inside a durable service directory.
pub const WAL_FILE: &str = "wal.log";

/// Magic bytes opening every WAL file (8 bytes, versioned).
pub const WAL_MAGIC: &[u8; 8] = b"GPMWAL1\n";

/// Bytes of framing overhead per record: `len: u32le` + `crc: u32le`.
pub const FRAME_HEADER_LEN: usize = 8;

/// Errors from the durability layer (WAL + snapshot).
#[derive(Debug)]
pub enum DurabilityError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// A CRC-valid payload could not be encoded or decoded — a format
    /// version mismatch or a bug, never a torn write.
    Codec(String),
    /// Persisted state is structurally invalid in a way checksums cannot
    /// excuse: bad magic, non-monotonic sequence numbers, a snapshot with
    /// a part missing, or an unsupported snapshot version.
    Corrupt(String),
    /// The requested operation does not fit the directory's state, e.g.
    /// creating a durable service where one already exists.
    State(String),
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "durability I/O error: {e}"),
            DurabilityError::Codec(m) => write!(f, "durability codec error: {m}"),
            DurabilityError::Corrupt(m) => write!(f, "durable state corrupt: {m}"),
            DurabilityError::State(m) => write!(f, "durability state error: {m}"),
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DurabilityError {
    fn from(e: io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

impl From<serde_json::Error> for DurabilityError {
    fn from(e: serde_json::Error) -> Self {
        DurabilityError::Codec(e.to_string())
    }
}

/// CRC-32/IEEE (the zlib/PNG polynomial, reflected), table-driven.
///
/// Hand-rolled because the workspace is offline; matches the standard
/// `crc32fast`/zlib check value: `crc32(b"123456789") == 0xCBF4_3926`.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    });
    let mut c = !0u32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// One logged state-changing operation.
///
/// Everything that can alter what a future [`crate::MatchService::apply`] or
/// [`crate::MatchService::result`] observes must appear here; reads do not.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WalOp {
    /// One `apply` call with its (possibly empty) update batch. Empty
    /// batches still bump the service epoch, so they are logged too.
    Batch(Vec<EdgeUpdate>),
    /// `register(pattern)` — assigns the next monotonic [`crate::QueryId`].
    Register(PatternGraph),
    /// `deregister(id)`.
    Deregister(u64),
    /// `suspend(id)` — frees the match state.
    Suspend(u64),
    /// `resume(id)` — rebuilds the state and emits the catch-up delta.
    Resume(u64),
}

/// A WAL record: a monotonic sequence number plus the operation.
///
/// Sequence numbers start at 0 for a fresh log and increase by exactly 1
/// per record across the whole history of the directory (snapshots record
/// the last folded sequence number, letting replay skip records a snapshot
/// already covers).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Position of this record in the directory's operation history.
    pub seq: u64,
    /// The logged operation.
    pub op: WalOp,
}

/// Frames an arbitrary payload as `len:u32le ++ crc:u32le ++ payload`,
/// with the CRC covering the length bytes and the payload.
///
/// This is the shared integrity envelope of the durability layer: WAL
/// records and the snapshot manifest both use it, so both inherit the same
/// single-byte-corruption detection guarantee.
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, DurabilityError> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        DurabilityError::Codec(format!("payload of {} bytes exceeds u32", payload.len()))
    })?;
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    let mut crc_input = Vec::with_capacity(4 + payload.len());
    crc_input.extend_from_slice(&len.to_le_bytes());
    crc_input.extend_from_slice(payload);
    frame.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Strict inverse of [`encode_frame`]: the slice must contain exactly one
/// complete, checksum-valid frame and nothing else. Returns the payload.
pub fn decode_frame_exact(frame: &[u8]) -> Result<&[u8], DurabilityError> {
    if frame.len() < FRAME_HEADER_LEN {
        return Err(DurabilityError::Corrupt(format!(
            "frame of {} bytes is shorter than the {FRAME_HEADER_LEN}-byte header",
            frame.len()
        )));
    }
    let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
    if frame.len() != FRAME_HEADER_LEN + len {
        return Err(DurabilityError::Corrupt(format!(
            "frame length {} does not match header ({} payload bytes expected)",
            frame.len(),
            len
        )));
    }
    let stored_crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
    let mut crc_input = Vec::with_capacity(4 + len);
    crc_input.extend_from_slice(&frame[0..4]);
    crc_input.extend_from_slice(&frame[8..]);
    let computed = crc32(&crc_input);
    if stored_crc != computed {
        return Err(DurabilityError::Corrupt(format!(
            "frame checksum mismatch: stored {stored_crc:#010x}, computed {computed:#010x}"
        )));
    }
    Ok(&frame[FRAME_HEADER_LEN..])
}

/// Encodes one record as a framed byte string (`len ++ crc ++ payload`).
pub fn encode_record(record: &WalRecord) -> Result<Vec<u8>, DurabilityError> {
    encode_frame(serde_json::to_string(record)?.as_bytes())
}

/// Strict decoder for exactly one frame: the slice must contain one
/// complete, checksum-valid record and nothing else.
///
/// This is the codec the round-trip/corruption proptests exercise: for any
/// encoded record, `decode_record_exact(&encode_record(r)) == r`, and any
/// single-byte change to the frame is rejected.
pub fn decode_record_exact(frame: &[u8]) -> Result<WalRecord, DurabilityError> {
    let payload = decode_frame_exact(frame)?;
    let text = std::str::from_utf8(payload)
        .map_err(|e| DurabilityError::Codec(format!("checksum-valid payload is not UTF-8: {e}")))?;
    Ok(serde_json::from_str(text)?)
}

/// Result of reading a (possibly crash-torn) WAL.
#[derive(Clone, Debug, PartialEq)]
pub struct WalReadOutcome {
    /// All records in the trusted prefix, in sequence order.
    pub records: Vec<WalRecord>,
    /// Byte length of the trusted prefix (magic + complete valid frames).
    /// Recovery truncates the file to this length before appending. A
    /// value below the magic length means even the header was torn and the
    /// file must be rewritten from scratch.
    pub valid_len: u64,
    /// Bytes of torn/corrupt tail that were discarded (0 for a clean log).
    pub torn_bytes: u64,
}

/// Reads a WAL image, trusting the longest well-formed prefix.
///
/// Torn or checksum-failing tails are reported, not errored: they are the
/// expected shape of a crash. Hard [`DurabilityError`]s are reserved for
/// states a crash cannot produce — a wrong magic, a CRC-valid frame that
/// does not decode, or non-monotonic sequence numbers.
pub fn read_wal_bytes(bytes: &[u8]) -> Result<WalReadOutcome, DurabilityError> {
    let header = &bytes[..bytes.len().min(WAL_MAGIC.len())];
    if header != &WAL_MAGIC[..header.len()] {
        return Err(DurabilityError::Corrupt(format!(
            "bad WAL magic: expected {WAL_MAGIC:?} prefix, found {header:?}"
        )));
    }
    if bytes.len() < WAL_MAGIC.len() {
        // Torn while writing the header of a brand-new log: nothing usable.
        return Ok(WalReadOutcome {
            records: Vec::new(),
            valid_len: 0,
            torn_bytes: bytes.len() as u64,
        });
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            break;
        }
        if rest.len() < FRAME_HEADER_LEN {
            break; // torn mid-header
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
        let Some(frame) = rest.get(..FRAME_HEADER_LEN + len) else {
            break; // torn mid-payload, or the length field itself is garbled
        };
        match decode_record_exact(frame) {
            Ok(record) => {
                let expected = records.last().map(|r: &WalRecord| r.seq + 1);
                if let Some(expected) = expected {
                    if record.seq != expected {
                        return Err(DurabilityError::Corrupt(format!(
                            "WAL sequence jumped from {} to {} at byte {pos}",
                            expected - 1,
                            record.seq
                        )));
                    }
                }
                records.push(record);
                pos += frame.len();
            }
            Err(DurabilityError::Corrupt(_)) => break, // checksum-failing tail
            Err(hard) => return Err(hard),
        }
    }
    Ok(WalReadOutcome {
        records,
        valid_len: pos as u64,
        torn_bytes: (bytes.len() - pos) as u64,
    })
}

/// Reads a WAL file from disk; see [`read_wal_bytes`].
pub fn read_wal(path: &Path) -> Result<WalReadOutcome, DurabilityError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    read_wal_bytes(&bytes)
}

/// Append handle on a WAL file. Every [`WalWriter::append`] writes one
/// framed record and syncs it to disk before returning.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    next_seq: u64,
}

impl WalWriter {
    /// Creates (or truncates to empty) a WAL at `path`, writing and syncing
    /// the magic header. The first appended record gets sequence `first_seq`.
    pub fn create(path: &Path, first_seq: u64) -> Result<Self, DurabilityError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync_all()?;
        Ok(WalWriter {
            file,
            next_seq: first_seq,
        })
    }

    /// Reopens an existing WAL after recovery: truncates any torn tail to
    /// `outcome.valid_len` in place, then positions for appending. If even
    /// the header was torn, the file is rewritten from scratch.
    pub fn resume(
        path: &Path,
        outcome: &WalReadOutcome,
        next_seq: u64,
    ) -> Result<Self, DurabilityError> {
        if outcome.valid_len < WAL_MAGIC.len() as u64 {
            return Self::create(path, next_seq);
        }
        let mut file = OpenOptions::new().write(true).read(true).open(path)?;
        file.set_len(outcome.valid_len)?;
        file.sync_all()?;
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter { file, next_seq })
    }

    /// Sequence number the next appended record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one operation, durably (frame written + fdatasync), and
    /// returns the sequence number it was assigned.
    pub fn append(&mut self, op: WalOp) -> Result<u64, DurabilityError> {
        let m = crate::metrics::wal();
        let append_span = m.append_ns.span();
        let record = WalRecord {
            seq: self.next_seq,
            op,
        };
        let frame = encode_record(&record)?;
        self.file.write_all(&frame)?;
        let fsync_span = m.fsync_ns.span();
        self.file.sync_data()?;
        fsync_span.finish();
        self.next_seq += 1;
        m.appends.inc();
        m.bytes.add(frame.len() as u64);
        append_span.finish();
        Ok(record.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::NodeId;

    fn sample_record(seq: u64) -> WalRecord {
        WalRecord {
            seq,
            op: WalOp::Batch(vec![
                EdgeUpdate::Insert(NodeId::new(1), NodeId::new(2)),
                EdgeUpdate::Delete(NodeId::new(3), NodeId::new(4)),
            ]),
        }
    }

    #[test]
    fn crc32_matches_reference_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_roundtrip() {
        let record = sample_record(7);
        let frame = encode_record(&record).unwrap();
        assert_eq!(decode_record_exact(&frame).unwrap(), record);
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let frame = encode_record(&sample_record(0)).unwrap();
        for i in 0..frame.len() {
            for mask in [0x01u8, 0x80u8] {
                let mut bad = frame.clone();
                bad[i] ^= mask;
                assert!(
                    decode_record_exact(&bad).is_err(),
                    "corrupting byte {i} with mask {mask:#04x} went undetected"
                );
            }
        }
    }

    #[test]
    fn read_wal_trusts_longest_prefix_and_reports_torn_tail() {
        let mut bytes = WAL_MAGIC.to_vec();
        let frames: Vec<Vec<u8>> = (0..3)
            .map(|s| encode_record(&sample_record(s)).unwrap())
            .collect();
        for f in &frames {
            bytes.extend_from_slice(f);
        }
        let clean_len = bytes.len() as u64;
        // Clean read.
        let out = read_wal_bytes(&bytes).unwrap();
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.valid_len, clean_len);
        assert_eq!(out.torn_bytes, 0);
        // Every truncation point inside the last frame loses exactly it.
        let last_start = (clean_len as usize) - frames[2].len();
        for cut in last_start..bytes.len() {
            let out = read_wal_bytes(&bytes[..cut]).unwrap();
            assert_eq!(out.records.len(), 2, "cut at byte {cut}");
            assert_eq!(out.valid_len as usize, last_start);
            assert_eq!(out.torn_bytes as usize, cut - last_start);
        }
    }

    #[test]
    fn read_wal_handles_torn_header_and_rejects_bad_magic() {
        for cut in 0..WAL_MAGIC.len() {
            let out = read_wal_bytes(&WAL_MAGIC[..cut]).unwrap();
            assert!(out.records.is_empty());
            assert_eq!(out.valid_len, 0);
        }
        assert!(read_wal_bytes(b"NOTAWAL!").is_err());
    }

    #[test]
    fn read_wal_rejects_sequence_gap() {
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&encode_record(&sample_record(0)).unwrap());
        bytes.extend_from_slice(&encode_record(&sample_record(2)).unwrap());
        assert!(matches!(
            read_wal_bytes(&bytes),
            Err(DurabilityError::Corrupt(_))
        ));
    }

    #[test]
    fn wal_writer_roundtrips_through_file() {
        let dir = std::env::temp_dir().join(format!("gpm-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::create(&path, 0).unwrap();
        assert_eq!(w.append(WalOp::Suspend(1)).unwrap(), 0);
        assert_eq!(w.append(WalOp::Resume(1)).unwrap(), 1);
        drop(w);
        let out = read_wal(&path).unwrap();
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.records[1].op, WalOp::Resume(1));
        // Resume after a simulated torn tail: chop 3 bytes off the file.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let torn = read_wal(&path).unwrap();
        assert_eq!(torn.records.len(), 1);
        let mut w = WalWriter::resume(&path, &torn, torn.records.len() as u64).unwrap();
        w.append(WalOp::Deregister(9)).unwrap();
        drop(w);
        let out = read_wal(&path).unwrap();
        assert_eq!(out.torn_bytes, 0);
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.records[1].op, WalOp::Deregister(9));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
