//! Streaming trace reader.
//!
//! [`TraceReader`] parses an LVPT v2 header eagerly and then yields
//! [`TraceEntry`] items on demand, holding at most one block
//! (≤ [`BLOCK_ENTRIES`](crate::io) records) in memory — a multi-gigabyte
//! trace file can be scanned, verified, or filtered without ever
//! materializing a [`Trace`](crate::Trace). Each block is CRC-checked
//! before any record in it is decoded.

use crate::crc32::crc32;
use crate::io::{
    decode_entry, read_exact_or_truncated, TraceIoError, BLOCK_ENTRIES, BLOCK_HEADER_BYTES,
    FORMAT_VERSION, MAGIC, MAX_ENTRY_BYTES, MIN_ENTRY_BYTES,
};
use crate::TraceEntry;
use std::io::Read;

/// A streaming iterator over the records of a binary trace.
///
/// Yields `Result<TraceEntry, TraceIoError>`; after the first error the
/// iterator is fused (returns `None` forever). Construction parses and
/// validates the header, so a reader you successfully build always has
/// meaningful [`declared_entries`](TraceReader::declared_entries) and
/// [`payload_len`](TraceReader::payload_len) values.
///
/// # Examples
///
/// ```
/// use lvp_trace::{write_trace, Trace, TraceEntry, TraceReader, OpKind};
///
/// let trace: Trace =
///     (0..5).map(|i| TraceEntry::simple(0x1000 + 4 * i, OpKind::IntSimple)).collect();
/// let mut buf = Vec::new();
/// write_trace(&mut buf, &trace)?;
///
/// let reader = TraceReader::new(buf.as_slice())?;
/// assert_eq!(reader.declared_entries(), 5);
/// let pcs: Vec<u64> = reader.map(|e| Ok::<_, lvp_trace::TraceIoError>(e?.pc))
///     .collect::<Result<_, _>>()?;
/// assert_eq!(pcs, [0x1000, 0x1004, 0x1008, 0x100c, 0x1010]);
/// # Ok::<(), lvp_trace::TraceIoError>(())
/// ```
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    reader: R,
    declared: u64,
    yielded: u64,
    /// Declared payload bytes after the header.
    payload_len: u64,
    /// Payload bytes not yet consumed.
    payload_left: u64,
    blocks_read: u64,
    /// Current block's record bytes (reused across blocks).
    block: Vec<u8>,
    block_pos: usize,
    block_entries_left: u32,
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Parses the stream header and positions the reader at the first
    /// record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] for a bad magic, an unsupported version,
    /// a truncated header, or a declared entry count the declared
    /// payload cannot possibly hold.
    pub fn new(mut reader: R) -> Result<TraceReader<R>, TraceIoError> {
        let mut magic = [0u8; 4];
        read_exact_or_truncated(&mut reader, &mut magic, "header")?;
        if &magic != MAGIC {
            return Err(TraceIoError::BadMagic);
        }
        let mut hdr = [0u8; 4];
        read_exact_or_truncated(&mut reader, &mut hdr, "header")?;
        let version = u16::from_le_bytes([hdr[0], hdr[1]]);
        if version != FORMAT_VERSION {
            return Err(TraceIoError::BadVersion(version));
        }
        let mut count_bytes = [0u8; 8];
        read_exact_or_truncated(&mut reader, &mut count_bytes, "header")?;
        let declared = u64::from_le_bytes(count_bytes);
        let mut len_bytes = [0u8; 8];
        read_exact_or_truncated(&mut reader, &mut len_bytes, "header")?;
        let payload_len = u64::from_le_bytes(len_bytes);
        // Up-front plausibility check: every record is at least
        // MIN_ENTRY_BYTES and every block adds a fixed header, so a
        // wildly oversized declared count is rejected before any block
        // is even read.
        let blocks = declared.div_ceil(BLOCK_ENTRIES as u64);
        if declared
            .saturating_mul(MIN_ENTRY_BYTES)
            .saturating_add(blocks.saturating_mul(BLOCK_HEADER_BYTES))
            > payload_len
        {
            return Err(TraceIoError::BadCount {
                declared,
                limit: payload_len / MIN_ENTRY_BYTES,
            });
        }
        Ok(TraceReader {
            reader,
            declared,
            yielded: 0,
            payload_len,
            payload_left: payload_len,
            blocks_read: 0,
            block: Vec::new(),
            block_pos: 0,
            block_entries_left: 0,
            done: false,
        })
    }

    /// The entry count the header declares.
    pub fn declared_entries(&self) -> u64 {
        self.declared
    }

    /// Entries successfully yielded so far.
    pub fn entries_read(&self) -> u64 {
        self.yielded
    }

    /// The payload length the header declares.
    pub fn payload_len(&self) -> u64 {
        self.payload_len
    }

    /// Number of blocks consumed (and checksum-verified) so far.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read
    }

    /// Loads and checksum-verifies the next block.
    fn next_block(&mut self) -> Result<(), TraceIoError> {
        if self.payload_left == 0 {
            // The declared payload is exhausted but the declared entry
            // count has not been reached.
            return Err(TraceIoError::BadCount {
                declared: self.declared,
                limit: self.yielded,
            });
        }
        if self.payload_left < BLOCK_HEADER_BYTES {
            return Err(TraceIoError::Truncated("block header"));
        }
        let mut hdr = [0u8; 12];
        read_exact_or_truncated(&mut self.reader, &mut hdr, "block header")?;
        let entries = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
        let byte_len = u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]);
        let checksum = u32::from_le_bytes([hdr[8], hdr[9], hdr[10], hdr[11]]);
        if entries == 0 {
            return Err(TraceIoError::Corrupt("empty block"));
        }
        let (lo, hi) = (
            entries as u64 * MIN_ENTRY_BYTES,
            entries as u64 * MAX_ENTRY_BYTES,
        );
        if (byte_len as u64) < lo || (byte_len as u64) > hi {
            return Err(TraceIoError::Corrupt("block length"));
        }
        if byte_len as u64 > self.payload_left - BLOCK_HEADER_BYTES {
            return Err(TraceIoError::Truncated("block payload"));
        }
        self.block.resize(byte_len as usize, 0);
        read_exact_or_truncated(&mut self.reader, &mut self.block, "block payload")?;
        let got = crc32(&self.block);
        if got != checksum {
            return Err(TraceIoError::ChecksumMismatch {
                block: self.blocks_read,
            });
        }
        self.payload_left -= BLOCK_HEADER_BYTES + byte_len as u64;
        self.blocks_read += 1;
        self.block_pos = 0;
        self.block_entries_left = entries;
        Ok(())
    }

    fn next_entry(&mut self) -> Result<Option<TraceEntry>, TraceIoError> {
        if self.yielded == self.declared {
            if self.payload_left != 0 || self.block_entries_left != 0 {
                return Err(TraceIoError::Corrupt("payload continues past entry count"));
            }
            return Ok(None);
        }
        if self.block_entries_left == 0 {
            self.next_block()?;
        }
        let mut slice = &self.block[self.block_pos..];
        let before = slice.len();
        // The block passed its CRC, so a record overrunning the block is
        // structural corruption, not truncation.
        let entry = decode_entry(&mut slice).map_err(|e| match e {
            TraceIoError::Truncated(_) => TraceIoError::Corrupt("record overruns block"),
            other => other,
        })?;
        self.block_pos += before - slice.len();
        self.block_entries_left -= 1;
        if self.block_entries_left == 0 && self.block_pos != self.block.len() {
            return Err(TraceIoError::Corrupt("trailing bytes in block"));
        }
        self.yielded += 1;
        Ok(Some(entry))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceEntry, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.next_entry() {
            Ok(Some(entry)) => Some(Ok(entry)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.declared - self.yielded) as usize;
        if self.done {
            (0, Some(0))
        } else {
            (0, Some(left))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_trace;
    use crate::{OpKind, Trace};

    fn big_trace(n: u64) -> Trace {
        (0..n)
            .map(|i| {
                let mut e = TraceEntry::simple(0x10000 + 4 * i, OpKind::Load);
                e.mem = Some(crate::MemAccess {
                    addr: 0x20_0000 + 8 * i,
                    width: 8,
                    value: i.wrapping_mul(0x9e37),
                    fp: false,
                });
                e
            })
            .collect()
    }

    #[test]
    fn streams_across_block_boundaries() {
        let n = 2 * BLOCK_ENTRIES as u64 + 17;
        let t = big_trace(n);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.declared_entries(), n);
        let mut count = 0u64;
        for (i, e) in reader.by_ref().enumerate() {
            let e = e.unwrap();
            assert_eq!(e.pc, 0x10000 + 4 * i as u64);
            count += 1;
        }
        assert_eq!(count, n);
        assert_eq!(reader.entries_read(), n);
        assert_eq!(reader.blocks_read(), 3);
    }

    #[test]
    fn fuses_after_error() {
        let t = big_trace(8);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 1;
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let first = reader.next().unwrap();
        assert!(first.is_err());
        assert!(reader.next().is_none(), "reader must fuse after an error");
    }

    #[test]
    fn header_errors_surface_at_construction() {
        assert!(matches!(
            TraceReader::new(&b"LVP"[..]).unwrap_err(),
            TraceIoError::Truncated("header")
        ));
        assert!(matches!(
            TraceReader::new(&b"XXXX\x02\x00\x00\x00"[..]).unwrap_err(),
            TraceIoError::BadMagic
        ));
    }

    #[test]
    fn rejects_oversize_declared_count_before_reading_blocks() {
        let t = big_trace(4);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        // Patch the count field (bytes 8..16) to something enormous.
        buf[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = TraceReader::new(buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, TraceIoError::BadCount { declared, .. } if declared == u64::MAX),
            "{err:?}"
        );
    }

    #[test]
    fn empty_trace_streams_zero_entries() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &Trace::new()).unwrap();
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.declared_entries(), 0);
        assert!(reader.next().is_none());
    }
}
