//! Corruption-matrix tests for the LVPT v2 binary format.
//!
//! Every row of the matrix takes a valid serialized trace, applies one
//! specific corruption, and asserts that reading it back produces the
//! *matching* [`TraceIoError`] variant — and, via `catch_unwind`, that
//! no corruption can panic the reader. Both the materializing
//! [`read_trace`] path and the streaming [`TraceReader`] path are
//! exercised for every case.

use lvp_trace::{
    read_trace, write_trace, BranchEvent, MemAccess, OpKind, RegRef, Trace, TraceEntry,
    TraceIoError, TraceReader,
};
use std::panic::catch_unwind;

fn sample_trace() -> Trace {
    let mut t = Trace::new();
    for i in 0..32u64 {
        t.push(TraceEntry::simple(0x10000 + 4 * i, OpKind::IntSimple));
        t.push(TraceEntry {
            pc: 0x20000 + 4 * i,
            kind: OpKind::Load,
            dst: Some(RegRef::int(10)),
            srcs: [Some(RegRef::int(2)), None],
            mem: Some(MemAccess {
                addr: 0x10_0000 + 8 * i,
                width: 8,
                value: i.wrapping_mul(0x9e3779b9),
                fp: false,
            }),
            branch: None,
        });
        t.push(TraceEntry {
            pc: 0x30000 + 4 * i,
            kind: OpKind::CondBranch,
            dst: None,
            srcs: [Some(RegRef::int(5)), Some(RegRef::int(6))],
            mem: None,
            branch: Some(BranchEvent {
                taken: i % 2 == 0,
                target: 0x10000,
            }),
        });
    }
    t
}

fn valid_v2_bytes() -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace(&mut buf, &sample_trace()).unwrap();
    buf
}

/// Reads `bytes` through both entry points, asserting that neither
/// panics and both fail, and returns the error from each path.
fn read_both(bytes: &[u8]) -> (TraceIoError, TraceIoError) {
    let owned = bytes.to_vec();
    let materialized = catch_unwind(move || read_trace(owned.as_slice()).map(|_| ()))
        .expect("read_trace panicked on corrupt input");
    let owned = bytes.to_vec();
    let streamed = catch_unwind(move || match TraceReader::new(owned.as_slice()) {
        Ok(reader) => {
            for entry in reader {
                entry?;
            }
            Ok(())
        }
        Err(e) => Err(e),
    })
    .expect("TraceReader panicked on corrupt input");
    (
        materialized.expect_err("read_trace accepted corrupt input"),
        streamed.expect_err("TraceReader accepted corrupt input"),
    )
}

#[test]
fn bad_magic_is_typed() {
    let mut buf = valid_v2_bytes();
    buf[0] = b'X';
    let (a, b) = read_both(&buf);
    assert!(matches!(a, TraceIoError::BadMagic), "{a:?}");
    assert!(matches!(b, TraceIoError::BadMagic), "{b:?}");
}

#[test]
fn unsupported_version_is_typed() {
    // Version 1, the retired flat format, is as unsupported as any other.
    for version in [1, 9] {
        let mut buf = valid_v2_bytes();
        buf[4] = version;
        let (a, b) = read_both(&buf);
        let v = u16::from(version);
        assert!(matches!(a, TraceIoError::BadVersion(x) if x == v), "{a:?}");
        assert!(matches!(b, TraceIoError::BadVersion(x) if x == v), "{b:?}");
    }
}

#[test]
fn truncated_header_is_typed() {
    // The v2 header is 24 bytes; cut it mid-count.
    let mut buf = valid_v2_bytes();
    buf.truncate(10);
    let (a, b) = read_both(&buf);
    assert!(matches!(a, TraceIoError::Truncated("header")), "{a:?}");
    assert!(matches!(b, TraceIoError::Truncated("header")), "{b:?}");
}

#[test]
fn truncation_mid_record_is_typed() {
    // Cut inside the first block's record bytes (header 24 + block
    // header 12 + a few record bytes).
    let mut buf = valid_v2_bytes();
    buf.truncate(24 + 12 + 5);
    let (a, b) = read_both(&buf);
    assert!(matches!(a, TraceIoError::Truncated(_)), "{a:?}");
    assert!(matches!(b, TraceIoError::Truncated(_)), "{b:?}");
}

#[test]
fn flipped_payload_byte_is_a_checksum_mismatch() {
    // Flip one bit in every single payload byte in turn; every flip
    // must surface as ChecksumMismatch on block 0 (the first block
    // covers all 96 sample entries), and none may panic.
    let buf = valid_v2_bytes();
    let payload_start = 24 + 12;
    for pos in [payload_start, payload_start + 13, buf.len() - 1] {
        let mut corrupted = buf.clone();
        corrupted[pos] ^= 0x10;
        let (a, b) = read_both(&corrupted);
        assert!(
            matches!(a, TraceIoError::ChecksumMismatch { block: 0 }),
            "flip at {pos}: {a:?}"
        );
        assert!(
            matches!(b, TraceIoError::ChecksumMismatch { block: 0 }),
            "flip at {pos}: {b:?}"
        );
    }
}

#[test]
fn oversize_declared_count_is_typed() {
    // Patch the header's entry-count field (bytes 8..16) far beyond
    // what the declared payload can hold.
    let mut buf = valid_v2_bytes();
    buf[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let (a, b) = read_both(&buf);
    assert!(
        matches!(a, TraceIoError::BadCount { declared, .. } if declared == 1 << 40),
        "{a:?}"
    );
    assert!(matches!(b, TraceIoError::BadCount { .. }), "{b:?}");
}

#[test]
fn undersize_declared_count_is_rejected() {
    // A count *smaller* than the payload means trailing blocks would be
    // silently ignored; the reader flags it instead.
    let mut buf = valid_v2_bytes();
    buf[8..16].copy_from_slice(&1u64.to_le_bytes());
    let (a, b) = read_both(&buf);
    assert!(matches!(a, TraceIoError::Corrupt(_)), "{a:?}");
    assert!(matches!(b, TraceIoError::Corrupt(_)), "{b:?}");
}

/// Meta-assertion: sweep a corruption over *every* byte position
/// (bit-flip) and every truncation length of a valid stream. Whatever
/// the outcome — some single-byte flips in a u64 value field are
/// legitimately undetectable without a mismatch elsewhere — the reader
/// must never panic, and any failure must be a typed [`TraceIoError`].
#[test]
fn no_corruption_panics() {
    let buf = valid_v2_bytes();
    for pos in 0..buf.len() {
        let mut corrupted = buf.clone();
        corrupted[pos] ^= 0x80;
        let owned = corrupted.clone();
        catch_unwind(move || {
            let _ = read_trace(owned.as_slice());
        })
        .unwrap_or_else(|_| panic!("read_trace panicked with byte {pos} flipped"));
    }
    for len in 0..buf.len() {
        let owned = buf[..len].to_vec();
        catch_unwind(move || {
            let _ = read_trace(owned.as_slice());
        })
        .unwrap_or_else(|_| panic!("read_trace panicked at truncation length {len}"));
        // Truncation strictly inside the stream must never be accepted.
        assert!(
            read_trace(&buf[..len]).is_err(),
            "truncation to {len} bytes was accepted"
        );
    }
}

// ---------------------------------------------------------------------
// Semantic corruption: checksum-valid records whose kind contradicts
// their fields. The timing models cost a load from its memory access
// and a branch from its branch event, so the reader rejects these
// instead of handing them on.
// ---------------------------------------------------------------------

/// Byte offset of the first v2 block's records (file header 24 bytes,
/// block header 12) and of its CRC field.
const RECORDS: usize = 24 + 12;
const BLOCK_CRC: usize = 24 + 8;

/// Sets the kind byte of the record at `record` (a byte offset into the
/// first block), then re-checksums the block so the CRC check passes
/// and only the record's meaning is wrong.
fn with_kind(record: usize, kind: u8) -> Vec<u8> {
    let mut buf = valid_v2_bytes();
    buf[record + 8] = kind;
    let len = u32::from_le_bytes(buf[24 + 4..24 + 8].try_into().unwrap()) as usize;
    let crc = lvp_trace::crc32(&buf[RECORDS..RECORDS + len]);
    buf[BLOCK_CRC..BLOCK_CRC + 4].copy_from_slice(&crc.to_le_bytes());
    buf
}

#[test]
fn kind_inconsistent_records_are_typed_despite_valid_checksums() {
    // Each group of the sample trace is an int op (13 bytes), a load
    // (30) and a conditional branch (21): 64 bytes. Rewrite the int op
    // of the first and of a middle group as each kind that needs a
    // field it does not carry (wire bytes: 4 load, 5 store, 6 branch,
    // 7 jump, 8 indirect jump).
    for group in [0, 17] {
        let record = RECORDS + 64 * group;
        for (kind, what) in [
            (4, "memory access"),
            (5, "memory access"),
            (6, "branch event"),
            (7, "branch event"),
            (8, "branch event"),
        ] {
            let (a, b) = read_both(&with_kind(record, kind));
            for err in [a, b] {
                assert!(
                    matches!(err, TraceIoError::Corrupt(m) if m.contains(what)),
                    "group {group}, kind {kind}: {err:?}"
                );
            }
        }
        // A kind that needs neither field stays valid.
        assert!(read_trace(with_kind(record, 9).as_slice()).is_ok());
    }
}
