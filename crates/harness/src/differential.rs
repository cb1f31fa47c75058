//! Differential tests of the one-pass trace oracles against the
//! multi-walk versions they replaced (`valueflow::reference`,
//! `crosscheck::reference`): every report must be identical, `Debug`
//! for `Debug`, on the fast matrix's real traces and on seeded
//! perturbations of small programs' traces.

use crate::crosscheck::{self, cross_check, ViolationKind};
use crate::valueflow::{self, value_flow_check_with, ValueFlowViolationKind};
use lvp_analyze::{analyze_memory, analyze_value_flow, LoadPredictability, VfLoad};
use lvp_isa::{AsmProfile, Assembler, Program};
use lvp_lang::OptLevel;
use lvp_predictor::{presets, LvpConfig};
use lvp_sim::Machine;
use lvp_trace::rng::Lcg;
use lvp_trace::{MemAccess, OpKind, Trace, TraceEntry};
use std::collections::{BTreeMap, BTreeSet};

/// Both oracles, old and new, on one cell; returns the new reports.
fn assert_same(
    program: &Program,
    trace: &Trace,
    report: &lvp_analyze::ValueFlowReport,
    configs: &[LvpConfig],
    cell: &str,
) -> (
    valueflow::ValueFlowCheckReport,
    Vec<crosscheck::CrossCheckReport>,
) {
    let vf = value_flow_check_with(report, program, trace, cell.into());
    let vf_ref = valueflow::reference::value_flow_check_with(report, trace, cell.into());
    assert_eq!(
        format!("{vf:?}"),
        format!("{vf_ref:?}"),
        "value-flow {cell}"
    );
    let cc: Vec<_> = configs
        .iter()
        .map(|config| {
            let cc = cross_check(program, trace, config, cell.into());
            let cc_ref = crosscheck::reference::cross_check(program, trace, config, cell.into());
            assert_eq!(
                format!("{cc:?}"),
                format!("{cc_ref:?}"),
                "cross-check {cell} under {}",
                config.name
            );
            cc
        })
        .collect();
    (vf, cc)
}

#[test]
fn one_pass_oracles_match_the_reference_on_the_fast_matrix() {
    let cells: Vec<(&str, AsmProfile, OptLevel)> = crate::FAST_WORKLOADS
        .iter()
        .flat_map(|&name| {
            [AsmProfile::Toc, AsmProfile::Gp]
                .into_iter()
                .flat_map(move |p| [OptLevel::O0, OptLevel::O1].map(|o| (name, p, o)))
        })
        .collect();
    assert_eq!(cells.len(), 16);
    std::thread::scope(|s| {
        for half in cells.chunks(8) {
            s.spawn(move || {
                for &(name, profile, opt) in half {
                    let w = lvp_workloads::Workload::by_name(name).expect("fast workload");
                    let run = w.run_at(profile, opt).expect("fast workload runs");
                    let report = analyze_value_flow(&run.program);
                    let cell = format!("{name}/{profile}/{opt:?}");
                    assert_same(
                        &run.program,
                        &run.trace,
                        &report,
                        &[presets::simple()],
                        &cell,
                    );
                }
            });
        }
    });
}

/// Small programs with must-constant pool slots, a global counter (an
/// affine claim), a stored-to array and a swap. The text is padded past
/// 1K instructions so that `pc + 4096`, which shares a pc's entry in the
/// 1K-entry LVPT, is still a text pc.
const PROGRAMS: [&str; 2] = [
    ".data\nk1: .dword 42\ng: .dword 0\narr: .dword 1, 2, 3, 4, 5, 6, 7, 8\nk2: .word 7\n\
     k3: .half 300\nk4: .byte 9\n.text\nmain:\n li t0, 40\n la s0, arr\nloop:\n \
     la a0, k1\n ld a1, 0(a0)\n la a2, k2\n lw a3, 0(a2)\n la a6, k3\n lh a7, 0(a6)\n \
     la t4, k4\n lb t5, 0(t4)\n la a4, g\n ld a5, 0(a4)\n addi a5, a5, 5\n sd a5, 0(a4)\n \
     andi t1, t0, 7\n slli t1, t1, 3\n add t2, s0, t1\n ld t3, 0(t2)\n add t3, t3, a3\n \
     sd t3, 0(t2)\n addi t0, t0, -1\n bne t0, zero, loop\n out a5\n halt\n",
    ".data\na: .dword 1\nb: .dword 100\nv: .dword 77\n.text\nmain:\n li t0, 24\n la s0, a\n \
     la s1, b\nloop:\n ld a1, 0(s0)\n ld a2, 0(s1)\n sd a2, 0(s0)\n sd a1, 0(s1)\n la a0, v\n \
     ld a3, 0(a0)\n add a4, a1, a3\n addi t0, t0, -1\n bne t0, zero, loop\n out a4\n halt\n",
];

fn padded(src: &str) -> String {
    let mut s = src.to_string();
    for _ in 0..1100 {
        s.push_str(" nop\n");
    }
    s
}

fn mem_entry(pc: u64, kind: OpKind, addr: u64, width: u8, value: u64) -> TraceEntry {
    let mut e = TraceEntry::simple(pc, kind);
    e.mem = Some(MemAccess {
        addr,
        width,
        value,
        fp: false,
    });
    e
}

/// A seeded perturbation of `program`'s trace that stays physically
/// consistent (a load's value only changes through a store), so the LVP
/// unit's CVU coherence assertion holds:
/// - a quarter of the static load pcs move: past or before the text,
///   misaligned, `pc + 0x40000` (outside the text, sharing the pc's
///   entry in the 64K-entry tables) or `pc + 4096 * m` (the 1K-entry
///   tables);
/// - one load in eight runs at `pc + 2` or `pc + 0x40000` while its
///   own pc keeps running, so out-of-text loads share table entries
///   with a live text pc;
/// - silent stores (they leave memory as it was) of widths 1, 2, 4 and 8
///   straddle, cover exactly or sit inside the must-constant slots;
/// - a must-constant load now and then reads a new value between a
///   store of it and a store of the old value back.
///
/// With `scramble`, loads also get random values and widths, which only
/// the value-flow check (it has no coherence assertion) may see.
fn perturb(program: &Program, trace: &Trace, seed: u64, scramble: bool) -> Trace {
    let mut rng = Lcg::new(seed);
    let base = program.layout().text_base();
    let end = program.layout().text_end();
    let slots = analyze_memory(program).must_constant_slots();
    let constant_pcs: BTreeSet<u64> = slots.iter().map(|s| s.0).collect();
    let load_pcs: BTreeSet<u64> = trace.iter().filter(|e| e.is_load()).map(|e| e.pc).collect();
    let remap: BTreeMap<u64, u64> = load_pcs
        .iter()
        .map(|&pc| {
            let to = if rng.chance(1, 4) {
                match rng.below(5) {
                    0 => end + 4 * rng.below(64),
                    1 => base - 4 * rng.range(1, 64),
                    2 => pc + 2,
                    3 => pc + 0x4_0000,
                    _ => pc + 4096 * rng.range(1, 3),
                }
            } else {
                pc
            };
            (pc, to)
        })
        .collect();
    let widths = [1u8, 2, 4, 8];
    let mut out = Trace::new();
    for e in trace.iter() {
        let Some(mem) = e.mem else {
            out.push(e);
            continue;
        };
        if e.is_load() {
            let mut load = e;
            load.pc = match rng.below(16) {
                0 => e.pc + 2,
                1 => e.pc + 0x4_0000,
                _ => remap[&e.pc],
            };
            if constant_pcs.contains(&e.pc) && rng.chance(1, 40) {
                let new = mem.value ^ (1 + rng.below(255));
                let spc = base + 4 * rng.below((end - base) / 4);
                out.push(mem_entry(spc, OpKind::Store, mem.addr, mem.width, new));
                let mut changed = load;
                changed.mem = Some(MemAccess { value: new, ..mem });
                out.push(changed);
                out.push(mem_entry(
                    spc,
                    OpKind::Store,
                    mem.addr,
                    mem.width,
                    mem.value,
                ));
            }
            if scramble {
                let m = load.mem.as_mut().expect("loads access memory");
                if rng.chance(1, 12) {
                    m.value = rng.next_full();
                }
                if rng.chance(1, 12) {
                    m.width = *rng.pick(&widths);
                }
            }
            out.push(load);
        } else {
            out.push(e);
            if !slots.is_empty() && rng.chance(1, 6) {
                let &(_, addr, width) = rng.pick(&slots);
                let w = *rng.pick(&widths);
                let at = match rng.below(3) {
                    0 => addr,
                    1 => addr + rng.below(u64::from(width)),
                    _ => addr - rng.range(1, u64::from(w).max(2)),
                };
                let (at, w) = if rng.chance(1, 4) {
                    (addr, width)
                } else {
                    (at, w)
                };
                out.push(mem_entry(e.pc, OpKind::Store, at, w, rng.next_full()));
            }
        }
    }
    out
}

/// A tampered copy of a static report: classes reassigned at random,
/// and now and then a load listed twice with another class.
fn tamper(report: &lvp_analyze::ValueFlowReport, rng: &mut Lcg) -> lvp_analyze::ValueFlowReport {
    let class = |rng: &mut Lcg| match rng.below(6) {
        0 => LoadPredictability::Unknown,
        1 => LoadPredictability::MustConstant,
        2 => LoadPredictability::AffineStride(8 * rng.below(3) as i64 - 8),
        3 => LoadPredictability::LoopInvariant,
        4 => LoadPredictability::StoreToLoadForwardable,
        _ => LoadPredictability::AffineStride(5),
    };
    let mut out = report.clone();
    out.loads.clear();
    for l in &report.loads {
        let mut l = *l;
        if rng.chance(1, 2) {
            l.class = class(rng);
            l.pinned = rng.chance(1, 2);
        }
        out.loads.push(l);
        if rng.chance(1, 8) {
            out.loads.push(VfLoad {
                class: class(rng),
                pinned: rng.chance(1, 2),
                ..l
            });
        }
    }
    out
}

#[test]
fn one_pass_oracles_match_the_reference_on_perturbed_traces() {
    let configs = [presets::simple(), presets::limit()];
    // What the cases must have covered, so that a generator gone slack
    // fails here instead of passing vacuously.
    let mut stray_loads = 0u64;
    let mut judged = 0usize;
    let mut vf_kinds = BTreeSet::new();
    let mut cc_kinds = BTreeSet::new();
    let (mut lvp014, mut lvp020, mut cvu_verified) = (0usize, 0usize, 0u64);
    for (pi, src) in PROGRAMS.iter().enumerate() {
        for profile in [AsmProfile::Toc, AsmProfile::Gp] {
            let program = Assembler::new(profile).assemble(&padded(src)).unwrap();
            assert!(program.text().len() > 1024);
            let trace = Machine::new(&program).run_traced(1_000_000).unwrap();
            let report = analyze_value_flow(&program);
            let mut rng = Lcg::new(pi as u64);
            for seed in 0..24u64 {
                let scramble = seed % 2 == 1;
                let t = perturb(&program, &trace, 1000 * pi as u64 + seed, scramble);
                let base = program.layout().text_base();
                let end = program.layout().text_end();
                stray_loads += t
                    .iter()
                    .filter(|e| e.is_load() && !(base..end).contains(&e.pc))
                    .count() as u64;
                let tampered = tamper(&report, &mut rng);
                let cell = format!("p{pi}/{profile}/s{seed}");
                let configs: &[LvpConfig] = if scramble { &[] } else { &configs };
                for r in [&report, &tampered] {
                    let (vf, cc) = assert_same(&program, &t, r, configs, &cell);
                    judged += vf.judged;
                    lvp014 += vf.under_approximations.len();
                    lvp020 += vf.hint_contradictions.len();
                    vf_kinds.extend(vf.violations.iter().map(|v| match v.kind {
                        ValueFlowViolationKind::StrideMiss { .. } => 0,
                        ValueFlowViolationKind::BackendMiss { .. } => 1,
                        ValueFlowViolationKind::ConstantValueChanged { .. } => 2,
                    }));
                    for c in cc {
                        cvu_verified += c.cvu_verified;
                        cc_kinds.extend(c.violations.iter().map(|v| v.kind));
                    }
                }
            }
        }
    }
    assert!(stray_loads > 1000, "{stray_loads} out-of-text loads");
    assert!(judged > 0 && lvp014 > 0 && lvp020 > 0 && cvu_verified > 0);
    assert_eq!(vf_kinds.len(), 3, "value-flow violation kinds {vf_kinds:?}");
    assert_eq!(
        cc_kinds,
        BTreeSet::from([
            ViolationKind::StoreOverlap,
            ViolationKind::CvuInvalidated,
            ViolationKind::ValueChanged
        ])
    );
}
