//! The in-memory layout's record table (DESIGN.md §6.3): a trace with
//! more distinct static records than the table holds, and trace
//! equality field by field, for records in the table and escaped ones.

use std::collections::HashSet;

use lvp_trace::{
    read_trace, write_trace, BranchEvent, MemAccess, OpKind, RegRef, Trace, TraceEntry,
};

/// Records the table holds; an entry bringing one more is escaped.
const CAP: usize = 65_535;
/// A table record: its pre-decoded entry plus a 24-byte key and memo.
const RECORD_BYTES: usize = 80;
/// The most an entry can cost: its id, an escaped pc, packed word and
/// branch target, and an access's `addr` and `value`.
const WORST_ENTRY_BYTES: usize = 2 + 24 + 16;
/// Distinct static instructions in `big_entries`, each run twice.
const DISTINCT: u64 = 70_000;

/// The `i`th static instruction's entry on `pass`: a mix of plain
/// operations, loads, loads that also carry a branch event (the most
/// costly entry), stores and conditional branches whose outcome changes
/// between passes.
fn entry(i: u64, pass: u64) -> TraceEntry {
    let pc = 0x10_0000 + 4 * i;
    let access = |fp| {
        Some(MemAccess {
            addr: 0x800_0000 + 8 * i + pass,
            width: [1, 2, 4, 8][(i / 5 % 4) as usize],
            value: i ^ pass << 40,
            fp,
        })
    };
    let mut e = TraceEntry::simple(pc, OpKind::IntSimple);
    match i % 5 {
        0 => {
            e.dst = Some(RegRef::int((i % 32) as u8));
            e.srcs = [Some(RegRef::fp((i / 32 % 32) as u8)), None];
        }
        1 => {
            e.kind = OpKind::Load;
            e.dst = Some(RegRef::fp(3));
            e.mem = access(i.is_multiple_of(2));
        }
        2 => {
            e.kind = OpKind::Load;
            e.mem = access(false);
            e.branch = Some(BranchEvent {
                taken: true,
                target: pc ^ 0xfff0,
            });
        }
        3 => {
            e.kind = OpKind::Store;
            e.srcs = [Some(RegRef::int(2)), Some(RegRef::int(31))];
            e.mem = access(false);
        }
        _ => {
            let taken = (i + pass).is_multiple_of(3);
            e.kind = OpKind::CondBranch;
            e.branch = Some(BranchEvent {
                taken,
                target: if taken { pc + 64 } else { pc + 4 },
            });
        }
    }
    e
}

fn big_entries() -> Vec<TraceEntry> {
    (0..2)
        .flat_map(|pass| (0..DISTINCT).map(move |i| entry(i, pass)))
        .collect()
}

fn assert_reads_back(trace: &Trace, entries: &[TraceEntry], what: &str) {
    assert_eq!(trace.len(), entries.len(), "{what}: length");
    for (i, (got, want)) in trace.iter().zip(entries).enumerate() {
        assert_eq!(got, *want, "{what}: entry {i}");
    }
}

#[test]
fn a_trace_past_the_record_cap_reads_back_exactly() {
    let entries = big_entries();
    let trace: Trace = entries.iter().copied().collect();
    assert_reads_back(&trace, &entries, "iter");

    // The table fills during the first pass. Both passes escape every
    // later record, as does the second pass's branch at a pc the table
    // knows with the other outcome: each escape adds its pc and packed
    // word, and its branch target if it has one.
    let mut table = HashSet::new();
    let mut bytes = 0;
    for e in &entries {
        let record = static_record(e);
        let in_table = table.contains(&record) || (table.len() < CAP && table.insert(record));
        bytes += 2 + 16 * usize::from(e.mem.is_some());
        if !in_table {
            bytes += 16 + 8 * usize::from(e.branch.is_some());
        }
    }
    assert_eq!(table.len(), CAP);
    assert_eq!(trace.heap_bytes(), bytes + CAP * RECORD_BYTES);
    assert!(trace.heap_bytes() <= WORST_ENTRY_BYTES * trace.len() + CAP * RECORD_BYTES);

    // The worst case is reached: an escaped load with a branch event.
    let mut worst = trace.clone();
    let before = worst.heap_bytes();
    worst.push(entry(DISTINCT + 2, 0));
    assert_eq!(worst.heap_bytes() - before, WORST_ENTRY_BYTES);

    // Windows, including ones that start among escaped entries.
    for (window, stride) in [(10_000, 9_973), (3, 65_534), (70_001, 70_000)] {
        let mut n = 0;
        for w in trace.windows(window, stride) {
            let end = (w.start + window).min(entries.len());
            assert_reads_back(&w.trace, &entries[w.start..end], "window");
            let loads = entries[..w.start].iter().filter(|e| e.is_load()).count();
            assert_eq!(w.load_offset, loads, "window at {}", w.start);
            n += 1;
        }
        assert_eq!(n, entries.len().div_ceil(stride), "w{window}/s{stride}");
    }

    // A clone keeps its own table: pushing to it leaves the original
    // alone, and it keeps reading back exactly past the cap.
    let mut clone = trace.clone();
    let mut extended = entries.clone();
    for e in [entry(7, 0), entry(DISTINCT - 1, 1), entry(DISTINCT + 9, 1)] {
        clone.push(e);
        extended.push(e);
    }
    assert_reads_back(&clone, &extended, "clone then push");
    assert_reads_back(&trace, &entries, "original after the clone's pushes");

    // LVPT v2 round trip.
    let mut file = Vec::new();
    write_trace(&mut file, &trace).unwrap();
    let back = read_trace(file.as_slice()).unwrap();
    assert!(back == trace, "read_trace(write_trace(t)) != t");
    assert_reads_back(&back, &entries, "LVPT v2");
}

/// Everything in `e` but its access's `addr` and `value`.
type StaticRecord = (
    u64,
    OpKind,
    Option<RegRef>,
    [Option<RegRef>; 2],
    Option<(u8, bool)>,
    Option<BranchEvent>,
);

fn static_record(e: &TraceEntry) -> StaticRecord {
    (
        e.pc,
        e.kind,
        e.dst,
        e.srcs,
        e.mem.map(|m| (m.width, m.fp)),
        e.branch,
    )
}

/// A short trace with every field in play: loads of both files, a
/// store, and branch events with both outcomes.
fn small_entries() -> Vec<TraceEntry> {
    let mut v: Vec<TraceEntry> = (0..10).map(|i| entry(i, 0)).collect();
    v.extend((0..10).map(|i| entry(i, 1)));
    v
}

/// One copy of `entries` per field a single entry can differ in.
fn one_field_variants(entries: &[TraceEntry]) -> Vec<(String, Vec<TraceEntry>)> {
    let mut out = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let mut vary = |what: &str, f: &dyn Fn(&mut TraceEntry)| {
            let mut v = entries.to_vec();
            f(&mut v[i]);
            assert_ne!(v[i], *e, "{what} of entry {i} did not change it");
            out.push((format!("{what} of entry {i}"), v));
        };
        vary("pc", &|e| e.pc += 4);
        if let Some(b) = e.branch {
            vary("taken bit", &|e| {
                e.branch = Some(BranchEvent {
                    taken: !b.taken,
                    ..b
                })
            });
            vary("target", &|e| {
                e.branch = Some(BranchEvent {
                    target: b.target + 8,
                    ..b
                })
            });
        }
        if let Some(m) = e.mem {
            let width = if m.width == 8 { 4 } else { m.width * 2 };
            vary("width", &|e| e.mem = Some(MemAccess { width, ..m }));
            vary("fp flag", &|e| e.mem = Some(MemAccess { fp: !m.fp, ..m }));
            vary("addr", &|e| {
                e.mem = Some(MemAccess {
                    addr: m.addr ^ 1 << 33,
                    ..m
                })
            });
            vary("value", &|e| {
                e.mem = Some(MemAccess {
                    value: !m.value,
                    ..m
                })
            });
        }
    }
    out
}

#[test]
fn traces_differing_in_one_field_compare_unequal() {
    let base = small_entries();
    // A table filled to its cap first, so the same entries are also
    // compared as escaped ones.
    let full: Trace = (0..CAP as u64).map(|i| entry(i + 1_000_000, 0)).collect();
    for prefix in [Trace::new(), full] {
        let escaped = !prefix.is_empty();
        let build = |entries: &[TraceEntry]| {
            let mut t = prefix.clone();
            t.extend(entries.iter().copied());
            t
        };
        let a = build(&base);
        assert!(a == build(&base), "escaped: {escaped}");
        let variants = one_field_variants(&base);
        assert!(
            variants.len() > 4 * base.len(),
            "{} variants",
            variants.len()
        );
        for (what, v) in variants {
            let b = build(&v);
            assert_eq!(a.len(), b.len());
            assert!(a != b, "{what} (escaped: {escaped}): traces compare equal");
        }
    }
}

#[test]
fn capacity_does_not_change_a_trace() {
    for entries in [small_entries(), big_entries()] {
        let mut reserved = Trace::with_capacity(entries.len());
        let mut grown = Trace::new();
        for e in &entries {
            reserved.push(*e);
            grown.push(*e);
        }
        assert!(reserved == grown, "{} entries", entries.len());
        assert_eq!(reserved.heap_bytes(), grown.heap_bytes());
    }
}
