//! Compact binary serialization of traces (the **LVPT** format).
//!
//! [`write_trace`] emits **version 2**, a checksummed, streamable block
//! format, and [`read_trace`]/[`TraceReader`](crate::TraceReader) read
//! it back; any other version is rejected.
//!
//! ```text
//! header:  magic "LVPT", version u16 = 2, reserved u16,
//!          entry count u64, payload length u64 (bytes after header)
//! block:   entry count u32, byte length u32, crc32 u32,
//!          then `byte length` bytes of consecutive records
//!
//! record:  pc u64
//!          kind u8
//!          flags u8       bit0 dst, bit1 src0, bit2 src1, bit3 mem, bit4 branch,
//!                         bit5 mem.fp, bit6 branch.taken
//!          dst u8         (class<<5 | num) if present
//!          src0 u8, src1 u8 (same encoding)
//!          mem: addr u64, width u8, value u64    if present
//!          branch: target u64                    if present
//! ```
//!
//! Every block's CRC-32 covers its record bytes, so a flipped bit
//! anywhere in the payload surfaces as
//! [`TraceIoError::ChecksumMismatch`] instead of silently corrupting an
//! experiment. All malformed inputs produce a typed [`TraceIoError`] —
//! never a panic.

use crate::crc32::crc32;
use crate::entry::{BranchEvent, MemAccess, OpKind, RegClass, RegRef, TraceEntry};
use crate::reader::TraceReader;
use crate::Trace;
use std::fmt;
use std::io::{self, Read, Write};

pub(crate) const MAGIC: &[u8; 4] = b"LVPT";
/// The trace format version [`write_trace`] produces. Cache keys that
/// embed serialized traces should include this so format bumps
/// invalidate stale artifacts.
pub const FORMAT_VERSION: u16 = 2;
/// Records per block; bounds both the writer's buffer and the
/// reader's resident window.
pub(crate) const BLOCK_ENTRIES: usize = 4096;
/// Block header bytes: entry count u32 + byte length u32 + crc32 u32.
pub(crate) const BLOCK_HEADER_BYTES: u64 = 12;
/// Smallest possible record: pc + kind + flags + three operand bytes.
pub(crate) const MIN_ENTRY_BYTES: u64 = 13;
/// Largest possible record: minimum plus memory (17) and branch (8).
pub(crate) const MAX_ENTRY_BYTES: u64 = MIN_ENTRY_BYTES + 17 + 8;

/// Error produced while reading or writing a binary trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// An underlying I/O error.
    Io(io::Error),
    /// The stream does not start with the trace magic.
    BadMagic,
    /// The stream has an unsupported format version.
    BadVersion(u16),
    /// The stream ended before the named structure was complete.
    Truncated(&'static str),
    /// The declared entry count cannot match the stream's contents.
    BadCount {
        /// The count the header (or block structure) promised.
        declared: u64,
        /// The most entries the stream could actually hold or deliver.
        limit: u64,
    },
    /// A block's payload does not match its stored CRC-32.
    ChecksumMismatch {
        /// Zero-based index of the failing block.
        block: u64,
    },
    /// A record field holds an invalid value.
    Corrupt(&'static str),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceIoError::BadMagic => f.write_str("not a trace stream (bad magic)"),
            TraceIoError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::Truncated(what) => write!(f, "truncated trace stream (reading {what})"),
            TraceIoError::BadCount { declared, limit } => write!(
                f,
                "declared entry count {declared} exceeds what the stream holds (limit {limit})"
            ),
            TraceIoError::ChecksumMismatch { block } => {
                write!(f, "checksum mismatch in trace block {block}")
            }
            TraceIoError::Corrupt(what) => write!(f, "corrupt trace record: {what}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> TraceIoError {
        TraceIoError::Io(e)
    }
}

/// `read_exact` that reports end-of-stream as [`TraceIoError::Truncated`]
/// naming the structure being read, instead of a bare I/O error.
pub(crate) fn read_exact_or_truncated<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), TraceIoError> {
    reader.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceIoError::Truncated(what)
        } else {
            TraceIoError::Io(e)
        }
    })
}

/// Maps an [`OpKind`] to its wire byte. The discriminants mirror the
/// order of [`OpKind::ALL`], which [`kind_from_u8`] indexes.
pub(crate) fn kind_to_u8(k: OpKind) -> u8 {
    match k {
        OpKind::IntSimple => 0,
        OpKind::IntComplex => 1,
        OpKind::FpSimple => 2,
        OpKind::FpComplex => 3,
        OpKind::Load => 4,
        OpKind::Store => 5,
        OpKind::CondBranch => 6,
        OpKind::Jump => 7,
        OpKind::IndirectJump => 8,
        OpKind::System => 9,
    }
}

fn kind_from_u8(b: u8) -> Option<OpKind> {
    OpKind::ALL.get(b as usize).copied()
}

fn reg_to_u8(r: RegRef) -> u8 {
    let class = match r.class {
        RegClass::Int => 0u8,
        RegClass::Fp => 1,
    };
    (class << 5) | (r.num & 0x1f)
}

fn reg_from_u8(b: u8) -> RegRef {
    let class = if b & 0x20 != 0 {
        RegClass::Fp
    } else {
        RegClass::Int
    };
    RegRef {
        class,
        num: b & 0x1f,
    }
}

/// Exact encoded byte length of one record.
pub(crate) fn encoded_len(e: &TraceEntry) -> u64 {
    MIN_ENTRY_BYTES + if e.mem.is_some() { 17 } else { 0 } + if e.branch.is_some() { 8 } else { 0 }
}

/// Appends one encoded record to `out`.
#[inline]
pub(crate) fn encode_entry(out: &mut Vec<u8>, e: &TraceEntry) {
    out.extend_from_slice(&e.pc.to_le_bytes());
    let mut flags = 0u8;
    if e.dst.is_some() {
        flags |= 1;
    }
    if e.srcs[0].is_some() {
        flags |= 2;
    }
    if e.srcs[1].is_some() {
        flags |= 4;
    }
    if e.mem.is_some() {
        flags |= 8;
    }
    if e.branch.is_some() {
        flags |= 16;
    }
    if e.mem.is_some_and(|m| m.fp) {
        flags |= 32;
    }
    if e.branch.is_some_and(|b| b.taken) {
        flags |= 64;
    }
    out.push(kind_to_u8(e.kind));
    out.push(flags);
    out.push(e.dst.map_or(0, reg_to_u8));
    out.push(e.srcs[0].map_or(0, reg_to_u8));
    out.push(e.srcs[1].map_or(0, reg_to_u8));
    if let Some(m) = e.mem {
        out.extend_from_slice(&m.addr.to_le_bytes());
        out.push(m.width);
        out.extend_from_slice(&m.value.to_le_bytes());
    }
    if let Some(b) = e.branch {
        out.extend_from_slice(&b.target.to_le_bytes());
    }
}

/// Decodes one record from `reader`; end-of-stream mid-record is
/// reported as `Truncated("record")`, and a record whose kind
/// contradicts its fields (see [`kind_inconsistency`]) as `Corrupt`.
pub(crate) fn decode_entry<R: Read>(reader: &mut R) -> Result<TraceEntry, TraceIoError> {
    let mut u64buf = [0u8; 8];
    read_exact_or_truncated(reader, &mut u64buf, "record")?;
    let pc = u64::from_le_bytes(u64buf);
    let mut head = [0u8; 5];
    read_exact_or_truncated(reader, &mut head, "record")?;
    let kind = kind_from_u8(head[0]).ok_or(TraceIoError::Corrupt("op kind"))?;
    let flags = head[1];
    let dst = (flags & 1 != 0).then(|| reg_from_u8(head[2]));
    let src0 = (flags & 2 != 0).then(|| reg_from_u8(head[3]));
    let src1 = (flags & 4 != 0).then(|| reg_from_u8(head[4]));
    let mem = if flags & 8 != 0 {
        read_exact_or_truncated(reader, &mut u64buf, "record")?;
        let addr = u64::from_le_bytes(u64buf);
        let mut w = [0u8; 1];
        read_exact_or_truncated(reader, &mut w, "record")?;
        if !matches!(w[0], 1 | 2 | 4 | 8) {
            return Err(TraceIoError::Corrupt("mem width"));
        }
        read_exact_or_truncated(reader, &mut u64buf, "record")?;
        let value = u64::from_le_bytes(u64buf);
        Some(MemAccess {
            addr,
            width: w[0],
            value,
            fp: flags & 32 != 0,
        })
    } else {
        None
    };
    let branch = if flags & 16 != 0 {
        read_exact_or_truncated(reader, &mut u64buf, "record")?;
        Some(BranchEvent {
            taken: flags & 64 != 0,
            target: u64::from_le_bytes(u64buf),
        })
    } else {
        None
    };
    let entry = TraceEntry {
        pc,
        kind,
        dst,
        srcs: [src0, src1],
        mem,
        branch,
    };
    match kind_inconsistency(&entry) {
        Some(what) => Err(TraceIoError::Corrupt(what)),
        None => Ok(entry),
    }
}

/// Why a record's kind contradicts its fields, if it does: a load or
/// store must carry its memory access, and a conditional branch or jump
/// its branch event, because the timing models cost them from those
/// fields. Both the binary decoder and the text parser reject such
/// records; [`Trace::push`] accepts them, for hand-built traces.
pub(crate) fn kind_inconsistency(e: &TraceEntry) -> Option<&'static str> {
    if e.kind.is_mem() && e.mem.is_none() {
        Some("load or store without a memory access")
    } else if e.kind.is_control() && e.branch.is_none() {
        Some("branch or jump without a branch event")
    } else {
        None
    }
}

/// Writes a trace in the **LVPT v2** block format. A `&mut`
/// reference works as a writer too.
///
/// Records are grouped into blocks of up to `BLOCK_ENTRIES` entries;
/// each block carries its byte length and a CRC-32 over its record
/// bytes, and the header carries the total payload length, so readers
/// can both stream and integrity-check without buffering the file.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_trace<W: Write>(mut writer: W, trace: &Trace) -> Result<(), TraceIoError> {
    // The encoded size of every record is determined by its flags, so
    // the payload length is computable up front without buffering the
    // whole stream.
    let record_bytes: u64 = trace.iter().map(|e| encoded_len(&e)).sum();
    let blocks = trace.len().div_ceil(BLOCK_ENTRIES) as u64;
    let payload_len = record_bytes + blocks * BLOCK_HEADER_BYTES;

    writer.write_all(MAGIC)?;
    writer.write_all(&FORMAT_VERSION.to_le_bytes())?;
    writer.write_all(&0u16.to_le_bytes())?;
    writer.write_all(&(trace.len() as u64).to_le_bytes())?;
    writer.write_all(&payload_len.to_le_bytes())?;

    let mut buf = Vec::with_capacity(BLOCK_ENTRIES * MAX_ENTRY_BYTES as usize);
    let mut entries = trace.iter();
    while entries.len() > 0 {
        let count = entries.len().min(BLOCK_ENTRIES);
        buf.clear();
        for e in entries.by_ref().take(count) {
            encode_entry(&mut buf, &e);
        }
        writer.write_all(&(count as u32).to_le_bytes())?;
        writer.write_all(&(buf.len() as u32).to_le_bytes())?;
        writer.write_all(&crc32(&buf).to_le_bytes())?;
        writer.write_all(&buf)?;
    }
    Ok(())
}

/// Reads a complete trace previously written with [`write_trace`]. A
/// `&mut` reference works as a reader too.
///
/// This materializes the whole trace; use
/// [`TraceReader`](crate::TraceReader) to stream entries instead.
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure or malformed input — bad
/// magic, unsupported version, truncation, checksum mismatch, or invalid
/// record fields. Never panics on malformed input.
pub fn read_trace<R: Read>(reader: R) -> Result<Trace, TraceIoError> {
    let reader = TraceReader::new(reader)?;
    let mut trace = Trace::with_capacity(reader.declared_entries().min(1 << 24) as usize);
    for entry in reader {
        trace.push(entry?);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.push(TraceEntry::simple(0x10000, OpKind::IntSimple));
        t.push(TraceEntry {
            pc: 0x10004,
            kind: OpKind::Load,
            dst: Some(RegRef::int(10)),
            srcs: [Some(RegRef::int(2)), None],
            mem: Some(MemAccess {
                addr: 0x10_0008,
                width: 8,
                value: u64::MAX,
                fp: false,
            }),
            branch: None,
        });
        t.push(TraceEntry {
            pc: 0x10008,
            kind: OpKind::Store,
            dst: None,
            srcs: [Some(RegRef::int(2)), Some(RegRef::fp(4))],
            mem: Some(MemAccess {
                addr: 0x10_0010,
                width: 8,
                value: 42,
                fp: true,
            }),
            branch: None,
        });
        t.push(TraceEntry {
            pc: 0x1000c,
            kind: OpKind::CondBranch,
            dst: None,
            srcs: [Some(RegRef::int(5)), Some(RegRef::int(6))],
            mem: None,
            branch: Some(BranchEvent {
                taken: true,
                target: 0x10000,
            }),
        });
        t
    }

    #[test]
    fn round_trip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn multi_block_round_trip() {
        let t: Trace = (0..3 * BLOCK_ENTRIES as u64 + 7)
            .map(|i| TraceEntry::simple(0x10000 + 4 * i, OpKind::IntSimple))
            .collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn kind_bytes_round_trip_for_all_kinds() {
        for (i, &k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(kind_to_u8(k) as usize, i, "{k:?} wire byte drifted");
            assert_eq!(kind_from_u8(kind_to_u8(k)), Some(k));
        }
        assert_eq!(kind_from_u8(OpKind::ALL.len() as u8), None);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(&b"NOPE0000"[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadMagic));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &Trace::new()).unwrap();
        buf[4] = 99;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BadVersion(99)));
    }

    #[test]
    fn rejects_truncated() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Truncated(_)), "{err:?}");
    }

    #[test]
    fn rejects_corrupt_kind() {
        let mut t = Trace::new();
        t.push(TraceEntry::simple(0, OpKind::IntSimple));
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        // Kind byte of the first record: header(24) + block header(12) +
        // pc(8). Recompute the block's CRC over the patched record so the
        // decoder, not the checksum, sees the corruption.
        let records = 24 + BLOCK_HEADER_BYTES as usize;
        buf[records + 8] = 200;
        let crc = crc32(&buf[records..]);
        buf[records - 4..records].copy_from_slice(&crc.to_le_bytes());
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Corrupt("op kind")), "{err:?}");
    }

    #[test]
    fn rejects_flipped_payload_byte_via_checksum() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, TraceIoError::ChecksumMismatch { block: 0 }),
            "{err:?}"
        );
    }

    #[test]
    fn error_display_is_informative() {
        let cases: Vec<(TraceIoError, &str)> = vec![
            (TraceIoError::BadMagic, "magic"),
            (TraceIoError::BadVersion(7), "version 7"),
            (TraceIoError::Truncated("header"), "header"),
            (
                TraceIoError::BadCount {
                    declared: 10,
                    limit: 2,
                },
                "10",
            ),
            (TraceIoError::ChecksumMismatch { block: 3 }, "block 3"),
            (TraceIoError::Corrupt("mem width"), "mem width"),
        ];
        for (e, needle) in cases {
            let s = e.to_string();
            assert!(s.contains(needle), "`{s}` missing `{needle}`");
        }
    }
}
