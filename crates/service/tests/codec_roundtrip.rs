//! Property tests for the durability codecs: WAL frames/records and
//! snapshot files.
//!
//! Two properties, each over arbitrary inputs:
//!
//! * **encode ∘ decode = id** — any record or snapshot survives a byte
//!   round-trip exactly (the recovery path's foundation);
//! * **any single-byte corruption is rejected** — the CRC-32 envelope
//!   covers the length prefix and the payload, and a one-byte XOR is a
//!   burst error of at most 8 bits, which CRC-32 always detects; the
//!   decoders must therefore never accept a damaged image.

use gpm_core::MatchRelation;
use gpm_distance::EdgeUpdate;
use gpm_graph::{NodeId, PatternGraph, PatternGraphBuilder};
use gpm_service::snapshot::{decode_manifest, encode_manifest, SNAPSHOT_VERSION};
use gpm_service::wal::{
    decode_frame_exact, decode_record_exact, encode_frame, encode_record, read_wal_bytes, WAL_MAGIC,
};
use gpm_service::{GraphFormat, Manifest, QuerySnapshot, WalOp, WalRecord};
use proptest::prelude::*;

/// A chain pattern with `n` nodes and per-edge bound `bound` — enough shape
/// diversity for a codec test without simulating anything.
fn chain_pattern(n: usize, bound: u32) -> PatternGraph {
    let mut b = PatternGraphBuilder::new();
    for i in 0..n {
        b = b.labeled_node(format!("l{i}"));
    }
    for i in 1..n {
        b = b.edge(format!("l{}", i - 1), format!("l{i}"), bound);
    }
    let (p, _) = b.build().expect("chain pattern is well-formed");
    p
}

fn arb_update() -> impl Strategy<Value = EdgeUpdate> {
    (0u32..2, 0u32..500, 0u32..500).prop_map(|(ins, a, b)| {
        if ins == 0 {
            EdgeUpdate::Insert(NodeId::new(a), NodeId::new(b))
        } else {
            EdgeUpdate::Delete(NodeId::new(a), NodeId::new(b))
        }
    })
}

/// Every [`WalOp`] shape, tag-selected (the vendored proptest has no
/// `prop_oneof`).
fn arb_op() -> impl Strategy<Value = WalOp> {
    (
        0u32..5,
        collection::vec(arb_update(), 0..16),
        (1usize..5, 1u32..4),
        0u64..1_000_000,
    )
        .prop_map(|(tag, updates, (n, bound), id)| match tag {
            0 => WalOp::Batch(updates),
            1 => WalOp::Register(chain_pattern(n, bound)),
            2 => WalOp::Deregister(id),
            3 => WalOp::Suspend(id),
            _ => WalOp::Resume(id),
        })
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    (0u64..1_000_000_000, arb_op()).prop_map(|(seq, op)| WalRecord { seq, op })
}

fn arb_relation() -> impl Strategy<Value = MatchRelation> {
    collection::vec(collection::vec(0u32..64, 0..8), 0..4).prop_map(|sets| {
        MatchRelation::from_sets(
            sets.into_iter()
                .map(|s| s.into_iter().map(NodeId::new).collect())
                .collect(),
        )
    })
}

fn arb_query() -> impl Strategy<Value = QuerySnapshot> {
    (
        (0u64..1_000_000, 0u32..2),
        (1usize..5, 1u32..4),
        arb_relation(),
    )
        .prop_map(|((id, active), (n, bound), emitted)| QuerySnapshot {
            id,
            pattern: chain_pattern(n, bound),
            active: active != 0,
            emitted,
        })
}

/// A manifest with as many graph parts as its format names (arbitrary
/// text: the codec frames the parts, it does not parse them).
fn arb_snapshot() -> impl Strategy<Value = (Manifest, Vec<String>)> {
    (
        (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
        0u32..4,
        collection::vec(collection::vec(32u8..127, 0..24), 2..3),
        collection::vec(arb_query(), 0..3),
    )
        .prop_map(
            |((epoch, next_seq, next_query_id), flags, parts, queries)| {
                let graph_format = if flags & 2 != 0 {
                    GraphFormat::Dataset
                } else {
                    GraphFormat::Json
                };
                let parts = parts
                    .into_iter()
                    .take(graph_format.parts())
                    .map(|p| String::from_utf8(p).expect("ascii part"))
                    .collect();
                let manifest = Manifest {
                    version: SNAPSHOT_VERSION,
                    epoch,
                    next_seq,
                    backend: if flags & 1 != 0 { "matrix" } else { "two-hop" }.into(),
                    next_query_id,
                    graph_format,
                    queries,
                };
                (manifest, parts)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode ∘ decode = id for raw frames, over arbitrary payload bytes.
    #[test]
    fn prop_frame_roundtrip(payload in collection::vec(0u8..255, 0..512)) {
        let frame = encode_frame(&payload).expect("encodable");
        prop_assert_eq!(decode_frame_exact(&frame).expect("decodable"), &payload[..]);
    }

    /// Any single-byte XOR anywhere in a frame is rejected.
    #[test]
    fn prop_frame_rejects_single_byte_corruption(
        payload in collection::vec(0u8..255, 0..128),
        pos_raw in 0usize..1_000_000,
        mask in 1u32..256,
    ) {
        let mut frame = encode_frame(&payload).expect("encodable");
        let pos = pos_raw % frame.len();
        frame[pos] ^= mask as u8;
        prop_assert!(
            decode_frame_exact(&frame).is_err(),
            "corruption at byte {} (mask {:#04x}) must not decode", pos, mask
        );
    }

    /// encode ∘ decode = id for WAL records across every op shape.
    #[test]
    fn prop_wal_record_roundtrip(record in arb_record()) {
        let frame = encode_record(&record).expect("encodable");
        prop_assert_eq!(decode_record_exact(&frame).expect("decodable"), record);
    }

    /// Any single-byte XOR anywhere in an encoded record is rejected.
    #[test]
    fn prop_wal_record_rejects_single_byte_corruption(
        record in arb_record(),
        pos_raw in 0usize..1_000_000,
        mask in 1u32..256,
    ) {
        let mut frame = encode_record(&record).expect("encodable");
        let pos = pos_raw % frame.len();
        frame[pos] ^= mask as u8;
        prop_assert!(
            decode_record_exact(&frame).is_err(),
            "corruption at byte {} (mask {:#04x}) must not decode", pos, mask
        );
    }

    /// A full WAL image of consecutive records reads back exactly, with no
    /// torn tail.
    #[test]
    fn prop_wal_image_roundtrip(
        first_seq in 0u64..1_000_000,
        ops in collection::vec(arb_op(), 0..6),
    ) {
        let mut image = WAL_MAGIC.to_vec();
        let records: Vec<WalRecord> = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| WalRecord { seq: first_seq + i as u64, op })
            .collect();
        for r in &records {
            image.extend(encode_record(r).expect("encodable"));
        }
        let outcome = read_wal_bytes(&image).expect("readable");
        prop_assert_eq!(outcome.records, records);
        prop_assert_eq!(outcome.valid_len, image.len() as u64);
        prop_assert_eq!(outcome.torn_bytes, 0);
    }

    /// encode ∘ decode = id for snapshot manifests.
    #[test]
    fn prop_manifest_roundtrip(snapshot in arb_snapshot()) {
        let (manifest, parts) = snapshot;
        let bytes = encode_manifest(&manifest, &parts).expect("encodable");
        prop_assert_eq!(decode_manifest(&bytes).expect("decodable"), manifest);
    }

    /// Any single-byte XOR anywhere in an encoded snapshot — magic, a
    /// length, a checksum or a payload, of the manifest or a graph part —
    /// is rejected.
    #[test]
    fn prop_manifest_rejects_single_byte_corruption(
        snapshot in arb_snapshot(),
        pos_raw in 0usize..1_000_000,
        mask in 1u32..256,
    ) {
        let (manifest, parts) = snapshot;
        let mut bytes = encode_manifest(&manifest, &parts).expect("encodable");
        let pos = pos_raw % bytes.len();
        bytes[pos] ^= mask as u8;
        prop_assert!(
            decode_manifest(&bytes).is_err(),
            "corruption at byte {} (mask {:#04x}) must not decode", pos, mask
        );
    }
}
