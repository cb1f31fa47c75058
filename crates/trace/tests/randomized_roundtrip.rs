//! Seeded, hand-rolled randomized roundtrip tests for the in-memory
//! trace layout and the binary and text trace formats (no external
//! property-testing dependency, per the offline build rule).
//!
//! The generator first enumerates *every* combination of `OpKind` ×
//! operand presence × memory variant (none / int / fp) × branch variant
//! (none / not-taken / taken), then pads to ~1k entries with
//! LCG-generated random records, so all encoder flag paths are covered
//! deterministically on every run. The random records' pcs are random,
//! so most of them are records of their own in the in-memory layout's
//! table, and the successor memo guesses wrong for them.
//!
//! `Trace::push` holds every combination. The file formats reject a
//! load or store without a memory access and a branch or jump without a
//! branch event; their round trips keep every other combination and
//! assert that those are rejected.

use lvp_trace::rng::Lcg;
use lvp_trace::{
    dump_text, parse_text, read_trace, write_trace, BranchEvent, MemAccess, OpKind, RegRef, Trace,
    TraceEntry, TraceIoError, TraceReader, TraceStats,
};

const SEED: u64 = 0x5eed_1996_a5b1_05f6;

fn reg(kind: u64, num: u8) -> Option<RegRef> {
    match kind {
        0 => None,
        1 => Some(RegRef::int(num & 0x1f)),
        _ => Some(RegRef::fp(num & 0x1f)),
    }
}

fn mem(variant: u64, addr: u64, value: u64, width_sel: u64) -> Option<MemAccess> {
    let width = [1u8, 2, 4, 8][(width_sel % 4) as usize];
    match variant {
        0 => None,
        1 => Some(MemAccess {
            addr,
            width,
            value,
            fp: false,
        }),
        _ => Some(MemAccess {
            addr,
            width,
            value,
            fp: true,
        }),
    }
}

fn branch(variant: u64, target: u64) -> Option<BranchEvent> {
    match variant {
        0 => None,
        1 => Some(BranchEvent {
            taken: false,
            target,
        }),
        _ => Some(BranchEvent {
            taken: true,
            target,
        }),
    }
}

/// Whether the file formats accept `e`: loads and stores carry their
/// memory access, branches and jumps their branch event.
fn accepted(e: &TraceEntry) -> bool {
    let missing_access = e.kind.is_mem() && e.mem.is_none();
    let missing_event = e.kind.is_control() && e.branch.is_none();
    !(missing_access || missing_event)
}

/// [`all_combinations`] without the records the file formats reject.
fn generated_trace() -> Trace {
    all_combinations().into_iter().filter(accepted).collect()
}

/// Every (kind, dst, src0, src1, mem-variant, branch-variant)
/// combination once, then random entries up to ~1k total.
fn all_combinations() -> Vec<TraceEntry> {
    let mut t = Vec::new();
    let mut pc = 0x1_0000u64;
    for (ki, &kind) in OpKind::ALL.iter().enumerate() {
        for dst in 0..2 {
            for src0 in 0..2 {
                for src1 in 0..2 {
                    for mv in 0..3 {
                        for bv in 0..3 {
                            t.push(TraceEntry {
                                pc,
                                kind,
                                dst: reg(dst * (1 + (ki as u64 % 2)), ki as u8),
                                srcs: [
                                    reg(src0 * (1 + ((ki as u64 + 1) % 2)), 31),
                                    reg(src1 * 2, 0),
                                ],
                                mem: mem(mv, 0x20_0000 + pc, pc.wrapping_mul(0x9e37), pc),
                                branch: branch(bv, 0x1_0000),
                            });
                            pc += 4;
                        }
                    }
                }
            }
        }
    }
    let exhaustive = t.len();
    assert_eq!(exhaustive, 10 * 2 * 2 * 2 * 3 * 3, "combination count");

    let mut rng = Lcg::new(SEED);
    while t.len() < 1024 {
        t.push(random_entry(&mut rng));
    }
    t
}

/// One record with every field drawn from `rng`.
fn random_entry(rng: &mut Lcg) -> TraceEntry {
    let kind = OpKind::ALL[rng.below(OpKind::ALL.len() as u64) as usize];
    TraceEntry {
        pc: rng.next_full(),
        kind,
        dst: reg(rng.below(3), rng.next_full() as u8),
        srcs: [
            reg(rng.below(3), rng.next_full() as u8),
            reg(rng.below(3), rng.next_full() as u8),
        ],
        mem: mem(
            rng.below(3),
            rng.next_full(),
            rng.next_full(),
            rng.next_full(),
        ),
        branch: branch(rng.below(3), rng.next_full()),
    }
}

/// Everything in `e` but its access's `addr` and `value`: the fields the
/// in-memory layout stores once per distinct record.
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

/// A recount of `entries`' statistics, independent of `Trace::push`.
fn recount(entries: &[TraceEntry]) -> TraceStats {
    let count = |f: &dyn Fn(&TraceEntry) -> bool| entries.iter().filter(|e| f(e)).count() as u64;
    TraceStats {
        instructions: entries.len() as u64,
        loads: count(&|e| e.kind == OpKind::Load),
        stores: count(&|e| e.kind == OpKind::Store),
        cond_branches: count(&|e| e.kind == OpKind::CondBranch),
        jumps: count(&|e| matches!(e.kind, OpKind::Jump | OpKind::IndirectJump)),
        fp_ops: count(&|e| matches!(e.kind, OpKind::FpSimple | OpKind::FpComplex)),
    }
}

// ---------------------------------------------------------------------
// In-memory layout
// ---------------------------------------------------------------------

#[test]
fn layout_gives_back_every_pushed_entry() {
    let entries = all_combinations();
    let mut pushed = Trace::new();
    let mut records = std::collections::HashSet::new();
    for e in &entries {
        pushed.push(*e);
        records.insert(static_record(e));
    }
    assert!(
        records.len() > entries.len() / 2,
        "only {} distinct records: the random pcs must exercise the table",
        records.len()
    );
    assert_eq!(pushed.iter().len(), entries.len());
    for (i, (got, want)) in pushed.iter().zip(&entries).enumerate() {
        assert_eq!(got, *want, "entry {i}");
    }
    assert_eq!(*pushed.stats(), recount(&entries));

    // Every window shape gives back the entries it covers, with the
    // load offset of its start.
    for (window, stride) in [(100, 37), (64, 64), (50, 173), (1, 1), (2000, 3)] {
        let mut starts = 0;
        for w in pushed.windows(window, stride) {
            assert_eq!(w.start, starts * stride, "w{window}/s{stride}");
            let end = (w.start + window).min(entries.len());
            let got: Vec<TraceEntry> = w.trace.iter().collect();
            assert_eq!(
                got,
                entries[w.start..end],
                "w{window}/s{stride} at {}",
                w.start
            );
            assert_eq!(*w.trace.stats(), recount(&entries[w.start..end]));
            assert_eq!(w.load_offset as u64, recount(&entries[..w.start]).loads);
            starts += 1;
        }
        assert_eq!(
            starts,
            entries.len().div_ceil(stride),
            "w{window}/s{stride}"
        );
    }

    // The formats reproduce every record they accept.
    let accepted_only = generated_trace();
    let mut buf = Vec::new();
    write_trace(&mut buf, &accepted_only).unwrap();
    let back = read_trace(buf.as_slice()).unwrap();
    assert_eq!(back, accepted_only);
    assert_eq!(*back.stats(), recount(&back.iter().collect::<Vec<_>>()));
}

#[test]
fn formats_reject_every_kind_inconsistent_combination() {
    let rejected: Vec<TraceEntry> = all_combinations()
        .into_iter()
        .filter(|e| !accepted(e))
        .collect();
    // Per kind: no memory variant, or no branch variant, in 8 operand
    // shapes and 3 variants of the other field.
    assert!(rejected.len() >= 5 * 8 * 3, "{} rejected", rejected.len());
    for e in rejected {
        let trace: Trace = [e].into_iter().collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        assert!(
            matches!(read_trace(buf.as_slice()), Err(TraceIoError::Corrupt(_))),
            "{e:?} accepted"
        );
        assert!(
            matches!(
                TraceReader::new(buf.as_slice()).unwrap().next(),
                Some(Err(TraceIoError::Corrupt(_)))
            ),
            "{e:?} streamed"
        );
        assert!(parse_text(&dump_text(&trace)).is_err(), "{e:?} parsed");
    }
}

#[test]
fn write_stream_write_is_byte_identical() {
    let original = generated_trace();
    let mut first = Vec::new();
    write_trace(&mut first, &original).unwrap();

    // Stream-read (never materializing through read_trace) and rebuild.
    let rebuilt: Trace = TraceReader::new(first.as_slice())
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(rebuilt, original);

    let mut second = Vec::new();
    write_trace(&mut second, &rebuilt).unwrap();
    assert_eq!(first, second, "write→stream-read→write must be stable");
}

#[test]
fn random_truncations_of_random_traces_never_panic() {
    let original = generated_trace();
    let mut buf = Vec::new();
    write_trace(&mut buf, &original).unwrap();
    let mut rng = Lcg::new(SEED ^ 0xdead_beef);
    for _ in 0..256 {
        let len = rng.below(buf.len() as u64) as usize;
        assert!(
            read_trace(&buf[..len]).is_err(),
            "truncation to {len} bytes accepted"
        );
    }
}

// ---------------------------------------------------------------------
// Text format (`lvp trace pack` feeds user files to `parse_text`)
// ---------------------------------------------------------------------

/// Random inputs per text-format property.
const TEXT_CASES: u64 = 256;

#[test]
fn text_round_trip_preserves_random_traces() {
    let exhaustive = generated_trace();
    let back = parse_text(&dump_text(&exhaustive)).unwrap();
    assert_eq!(back, exhaustive);

    let mut rng = Lcg::new(SEED ^ 0x7e47);
    for case in 0..TEXT_CASES {
        let len = rng.below(200);
        let trace: Trace = (0..len)
            .map(|_| random_entry(&mut rng))
            .filter(accepted)
            .collect();
        let back = parse_text(&dump_text(&trace)).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(back, trace, "case {case}");
    }
}

#[test]
fn text_parser_never_panics_on_printable_garbage() {
    let printable: Vec<u8> = (b' '..=b'~').chain([b'\n']).collect();
    let dump = dump_text(&generated_trace());
    let lines: Vec<&str> = dump.lines().collect();
    let mut rng = Lcg::new(SEED ^ 0x6a7b);
    for _ in 0..TEXT_CASES {
        // Uniform printable noise.
        let noise: Vec<u8> = (0..rng.below(401)).map(|_| *rng.pick(&printable)).collect();
        let _ = parse_text(std::str::from_utf8(&noise).unwrap());

        // A few valid lines with printable bytes overwritten, inserted
        // or cut off, so the parser gets past the field split.
        let start = rng.below(lines.len() as u64) as usize;
        let end = (start + 1 + rng.below(8) as usize).min(lines.len());
        let mut text = lines[start..end].join("\n").into_bytes();
        for _ in 0..=rng.below(4) {
            let at = rng.below(text.len() as u64 + 1) as usize;
            match rng.below(3) {
                0 if at < text.len() => text[at] = *rng.pick(&printable),
                1 => text.insert(at, *rng.pick(&printable)),
                _ => text.truncate(at),
            }
        }
        let _ = parse_text(std::str::from_utf8(&text).unwrap());
    }
}
