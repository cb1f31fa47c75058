//! Differential oracle: the fastsim engine must be observationally
//! identical to the interpreter (`Machine`) on every benchmark of the
//! paper's 17-program suite, at every optimization level.
//!
//! "Identical" here is the full contract every downstream phase relies
//! on:
//!
//! * the same `TraceEntry` stream, entry for entry;
//! * the same per-stage counters (`TraceStats`);
//! * the same architectural end state (pc, instret, halted flag, all 32
//!   integer and 32 FP registers, the entire data/stack memory image);
//! * the same output channel and checksum, matching the workload's
//!   golden output;
//! * byte-identical LVPT-v2 serialization, so a trace file does not
//!   depend on which engine produced it.

use lvp::isa::{AsmProfile, FReg, Reg, DATA_BASE, MEM_SIZE};
use lvp::lang::{compile_with, OptLevel};
use lvp::sim::{FastSim, Machine};
use lvp::trace::{write_trace, Trace, TraceStats};
use lvp::workloads::{suite, Workload, DEFAULT_FUEL};

/// Above this many entries we skip materializing the interpreter's trace
/// a second time (and the double serialization) to bound the test's peak
/// memory; entry-stream equality is still checked by streaming, and
/// byte-identity follows because `write_trace` is a pure function of the
/// entries.
const MATERIALIZE_LIMIT: usize = 3_000_000;

fn serialize(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_trace(&mut bytes, trace).expect("serializing to a Vec cannot fail");
    bytes
}

fn assert_state_agrees(name: &str, opt: OptLevel, fast: &FastSim, interp: &Machine) {
    let tag = format!("{name}/{opt:?}");
    assert_eq!(fast.pc(), interp.pc(), "{tag}: final pc");
    assert_eq!(fast.instret(), interp.instret(), "{tag}: instret");
    assert_eq!(fast.halted(), interp.halted(), "{tag}: halted");
    assert_eq!(fast.output(), interp.output(), "{tag}: output channel");
    assert_eq!(
        fast.output_checksum(),
        interp.output_checksum(),
        "{tag}: output checksum"
    );
    for n in 0..32u8 {
        assert_eq!(
            fast.reg(Reg::new(n)),
            interp.reg(Reg::new(n)),
            "{tag}: x{n}"
        );
        assert_eq!(
            fast.freg(FReg::new(n)).to_bits(),
            interp.freg(FReg::new(n)).to_bits(),
            "{tag}: f{n}"
        );
    }
    let span = (MEM_SIZE - DATA_BASE) as usize;
    let mf = fast.memory().read_bytes(DATA_BASE, span).unwrap();
    let mi = interp.memory().read_bytes(DATA_BASE, span).unwrap();
    if mf != mi {
        let at = mf.iter().zip(mi).position(|(a, b)| a != b).unwrap();
        panic!(
            "{tag}: memory differs at {:#x}: fast {:#04x} vs interp {:#04x}",
            DATA_BASE + at as u64,
            mf[at],
            mi[at]
        );
    }
}

fn check_benchmark(w: &Workload, opt: OptLevel) {
    let tag = format!("{}/{opt:?}", w.name);
    let program = compile_with(w.source, AsmProfile::Toc, opt)
        .unwrap_or_else(|e| panic!("{tag}: compile failed: {e}"));

    let mut fast = FastSim::new(&program);
    let fast_trace = fast
        .run_traced(DEFAULT_FUEL)
        .unwrap_or_else(|e| panic!("{tag}: fastsim faulted: {e}"));
    assert_eq!(fast.output(), w.expected_output(), "{tag}: golden output");

    let mut interp = Machine::new(&program);
    if fast_trace.len() <= MATERIALIZE_LIMIT {
        let interp_trace = interp
            .run_traced(DEFAULT_FUEL)
            .unwrap_or_else(|e| panic!("{tag}: interpreter faulted: {e}"));
        assert_eq!(fast_trace, interp_trace, "{tag}: trace entries");
        assert_eq!(
            fast_trace.stats(),
            interp_trace.stats(),
            "{tag}: trace statistics"
        );
        assert_eq!(
            serialize(&fast_trace),
            serialize(&interp_trace),
            "{tag}: LVPT-v2 bytes"
        );
    } else {
        // Stream the interpreter against the materialized fastsim trace
        // so only one full trace is held at a time.
        let mut i = 0usize;
        let mut stats = TraceStats::default();
        let mut expected = fast_trace.iter();
        interp
            .run_with(DEFAULT_FUEL, |e| {
                assert_eq!(Some(*e), expected.next(), "{tag}: trace entry {i}");
                stats.record(e);
                i += 1;
            })
            .unwrap_or_else(|e| panic!("{tag}: interpreter faulted: {e}"));
        assert_eq!(i, fast_trace.len(), "{tag}: trace length");
        assert_eq!(&stats, fast_trace.stats(), "{tag}: trace statistics");
    }

    assert_state_agrees(w.name, opt, &fast, &interp);
}

#[test]
fn engines_agree_on_full_suite_o0() {
    for w in suite() {
        check_benchmark(&w, OptLevel::O0);
    }
}

#[test]
fn engines_agree_on_full_suite_o1() {
    for w in suite() {
        check_benchmark(&w, OptLevel::O1);
    }
}
