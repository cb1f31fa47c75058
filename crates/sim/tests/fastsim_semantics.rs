//! Targeted differential tests: hand-written programs that exercise
//! every fastsim lowering path — fused superblocks, hostile control
//! flow, faults, fuel exhaustion — against the interpreter oracle.

mod common;

use common::{assert_engines_agree, diverges};
use lvp_isa::{AsmProfile, Assembler, Instr, Program, Reg, DATA_BASE, TEXT_BASE};
use lvp_sim::{FastSim, Machine, SimError, EXIT_ADDR};
use std::collections::BTreeMap;

fn gp(src: &str) -> Program {
    Assembler::new(AsmProfile::Gp)
        .assemble(src)
        .expect("assembly failed")
}

fn toc(src: &str) -> Program {
    Assembler::new(AsmProfile::Toc)
        .assemble(src)
        .expect("assembly failed")
}

#[test]
fn arithmetic_and_branches_agree() {
    let p = gp(
        "main: li a0, 10\n li a1, 0\nloop: add a1, a1, a0\n addi a0, a0, -1\n bnez a0, loop\n out a1\n halt\n",
    );
    assert_engines_agree(&p, 1_000);
}

#[test]
fn all_alu_ops_agree() {
    let p = gp("
main:
    li   t0, -7
    li   t1, 3
    add  t2, t0, t1
    sub  t2, t2, t1
    sll  t3, t1, t0
    srl  t4, t0, t1
    sra  t5, t0, t1
    slt  t6, t0, t1
    sltu s0, t0, t1
    xor  s1, t0, t1
    or   s2, t0, t1
    and  s3, t0, t1
    mul  s4, t0, t1
    mulh s5, t0, t1
    div  s6, t0, t1
    divu s7, t0, t1
    rem  s8, t0, t1
    remu s9, t0, t1
    out  t2\n out t3\n out t4\n out t5\n out t6
    out  s0\n out s1\n out s2\n out s3\n out s4
    out  s5\n out s6\n out s7\n out s8\n out s9
    halt
");
    assert_engines_agree(&p, 1_000);
}

#[test]
fn division_by_zero_agrees() {
    let p = gp("
main:
    li  t0, 7
    li  t1, 0
    div t2, t0, t1\n out t2
    divu t3, t0, t1\n out t3
    rem t4, t0, t1\n out t4
    remu t5, t0, t1\n out t5
    halt
");
    assert_engines_agree(&p, 1_000);
}

#[test]
fn writes_to_zero_register_agree() {
    // ALU ops targeting x0 lower to template-only Fixed ops; make sure
    // the trace and state still match the interpreter.
    let text = vec![
        Instr::Addi {
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            imm: 5,
        },
        Instr::Add {
            rd: Reg::ZERO,
            rs1: Reg::SP,
            rs2: Reg::SP,
        },
        Instr::Lui {
            rd: Reg::ZERO,
            imm: 123,
        },
        // Load into x0: the access (and any fault) must still happen.
        Instr::Ld {
            rd: Reg::ZERO,
            base: Reg::GP,
            offset: 0,
        },
        Instr::Out { rs1: Reg::ZERO },
        Instr::Halt,
    ];
    let p = Program::new(text, vec![0u8; 64], TEXT_BASE, DATA_BASE, BTreeMap::new());
    assert_engines_agree(&p, 100);
}

#[test]
fn memory_widths_and_sign_extension_agree() {
    let p = gp("
main:
    la  t0, bytes
    lb  t1, 0(t0)\n out t1
    lbu t2, 0(t0)\n out t2
    lh  t3, 2(t0)\n out t3
    lhu t4, 2(t0)\n out t4
    lw  t5, 4(t0)\n out t5
    lwu t6, 4(t0)\n out t6
    li  s0, -1
    sb  s0, 8(t0)
    sh  s0, 10(t0)
    sw  s0, 12(t0)
    ld  s1, 8(t0)\n out s1
    halt
    .data
bytes: .byte 0xff, 0\n .half 0x8000\n .word 0xffffffff\n .dword 0
");
    assert_engines_agree(&p, 1_000);
}

#[test]
fn floating_point_agrees() {
    let p = gp("
main:
    fli ft0, 2.0
    fli ft1, 0.25
    fadd.d ft2, ft0, ft1\n outf ft2
    fsub.d ft3, ft0, ft1\n outf ft3
    fmul.d ft4, ft0, ft1\n outf ft4
    fdiv.d ft5, ft0, ft1\n outf ft5
    fmin.d ft6, ft0, ft1\n outf ft6
    fmax.d ft7, ft0, ft1\n outf ft7
    fsqrt.d fs0, ft0\n outf fs0
    fneg.d fs1, ft0\n outf fs1
    fabs.d fs2, fs1\n outf fs2
    feq.d t0, ft0, ft1\n out t0
    flt.d t1, ft1, ft0\n out t1
    fle.d t2, ft0, ft0\n out t2
    li  t3, -9
    fcvt.d.l fs3, t3\n outf fs3
    fcvt.l.d t4, fs3\n out t4
    fmv.x.d t5, ft1\n out t5
    fmv.d.x fs4, t5\n outf fs4
    halt
");
    assert_engines_agree(&p, 1_000);
}

#[test]
fn constant_pool_loads_agree() {
    // Toc profile: `la`/`ld` through gp — exercises PoolLd fusion.
    let p = toc("
main:
    la   t0, table
    ld   t1, 0(t0)\n out t1
    ld   t2, 8(t0)\n out t2
    fld  ft0, 16(t0)\n outf ft0
    halt
    .data
table: .dword 10, 20, 0x4004000000000000
");
    assert_engines_agree(&p, 1_000);
}

#[test]
fn self_modifying_adjacent_pool_agrees() {
    // A store INTO the constant pool region must be visible to later
    // pool-fused loads: PoolLd reads live memory, not a snapshot.
    let p = toc("
main:
    la   t0, slot
    ld   t1, 0(t0)\n out t1
    li   t2, 99
    sd   t2, 0(t0)
    ld   t3, 0(t0)\n out t3
    halt
    .data
slot: .dword 7
");
    assert_engines_agree(&p, 1_000);
}

#[test]
fn gp_redefinition_disables_pool_fusion_soundly() {
    // A program that repoints gp mid-stream: fusion must not bake the
    // original pool base into the loads.
    let text = vec![
        Instr::Ld {
            rd: Reg::T0,
            base: Reg::GP,
            offset: 0,
        },
        Instr::Addi {
            rd: Reg::GP,
            rs1: Reg::GP,
            imm: 8,
        },
        Instr::Ld {
            rd: Reg::T1,
            base: Reg::GP,
            offset: 0,
        },
        Instr::Out { rs1: Reg::T0 },
        Instr::Out { rs1: Reg::T1 },
        Instr::Halt,
    ];
    let mut data = vec![0u8; 16];
    data[..8].copy_from_slice(&11u64.to_le_bytes());
    data[8..].copy_from_slice(&22u64.to_le_bytes());
    let p = Program::new(text, data, TEXT_BASE, DATA_BASE, BTreeMap::new());
    assert_engines_agree(&p, 100);
}

#[test]
fn spill_reload_pairs_agree() {
    // Consecutive sd/sd then ld/ld off sp — SdPair and LdPair fusion.
    let p = gp("
main:
    addi sp, sp, -32
    li   t0, 111
    li   t1, 222
    sd   t0, 0(sp)
    sd   t1, 8(sp)
    ld   t2, 0(sp)
    ld   t3, 8(sp)
    out  t2\n out t3
    addi sp, sp, 32
    halt
");
    assert_engines_agree(&p, 1_000);
}

#[test]
fn load_pair_overwriting_base_is_not_fused_wrongly() {
    // ld t0, 0(t0); ld t1, 8(t0) — the first load clobbers the shared
    // base, so fusion must be rejected and both engines must chase the
    // pointer identically.
    let p = gp("
main:
    la  t0, cell
    ld  t0, 0(t0)
    ld  t1, 8(t0)
    out t1
    halt
    .data
cell: .dword 0x100018\n .dword 0\n .dword 77
");
    assert_engines_agree(&p, 1_000);
}

#[test]
fn branch_into_middle_of_fused_pair_agrees() {
    // Jump straight to the second half of an sd/sd pair: the second
    // slot keeps its standalone op.
    let p = gp("
main:
    addi sp, sp, -16
    li   t0, 5
    li   t1, 6
    j    mid
    sd   t0, 0(sp)
mid: sd   t1, 8(sp)
    ld   t2, 8(sp)
    out  t2
    halt
");
    assert_engines_agree(&p, 1_000);
}

#[test]
fn compare_branch_fusion_agrees() {
    // slt/slti + beqz/bnez in all polarities.
    let p = gp("
main:
    li   t0, 3
    li   t1, 7
    slt  t2, t0, t1
    bnez t2, a
    out  zero
a:  sltu t3, t1, t0
    beqz t3, b
    out  zero
b:  slti t4, t0, 100
    bnez t4, c
    out  zero
c:  sltiu t5, t0, 2
    beqz t5, d
    out  zero
d:  li   a0, 42
    out  a0
    halt
");
    assert_engines_agree(&p, 1_000);
}

#[test]
fn irreducible_loop_agrees() {
    // Two blocks jumping into each other's middles — no reducible
    // header. Bounded by a counter.
    let p = gp("
main:
    li   t0, 10
    j    b1
b0: addi t0, t0, -1
    beqz t0, done
    j    b1m
b1: addi t0, t0, -1
b1m: beqz t0, done
    j    b0
done: out t0
    halt
");
    assert_engines_agree(&p, 1_000);
}

#[test]
fn jalr_only_call_graph_agrees() {
    // Calls and returns exclusively through jalr on computed addresses.
    let p = gp("
main:
    la   t0, fn1
    jalr ra, t0, 0
    out  a0
    la   t0, fn2
    jalr ra, t0, 0
    out  a0
    halt
fn1:
    li   a0, 1
    jalr zero, ra, 0
fn2:
    li   a0, 2
    jalr zero, ra, 0
");
    assert_engines_agree(&p, 1_000);
}

#[test]
fn jalr_to_wild_address_faults_identically() {
    let p = gp("
main:
    li   t0, 0xdead0
    jalr ra, t0, 0
    halt
");
    assert_engines_agree(&p, 1_000);
    let mut m = FastSim::new(&p);
    assert!(matches!(m.run(100), Err(SimError::BadFetch { .. })));
}

#[test]
fn misaligned_branch_target_faults_identically() {
    // A taken branch to a non-4-aligned pc must BadFetch in both.
    let text = vec![
        Instr::Beq {
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            offset: 6,
        },
        Instr::Halt,
    ];
    let p = Program::new(text, Vec::new(), TEXT_BASE, DATA_BASE, BTreeMap::new());
    assert_engines_agree(&p, 100);
}

#[test]
fn fall_off_end_of_text_faults_identically() {
    let text = vec![Instr::Nop, Instr::Nop];
    let p = Program::new(text, Vec::new(), TEXT_BASE, DATA_BASE, BTreeMap::new());
    assert_engines_agree(&p, 100);
    let mut m = FastSim::new(&p);
    let err = m.run(100).unwrap_err();
    assert_eq!(err, SimError::BadFetch { pc: TEXT_BASE + 8 });
}

#[test]
fn ret_to_exit_addr_halts_identically() {
    let p = gp("main: li a0, 9\n out a0\n ret\n");
    assert_engines_agree(&p, 100);
    let mut m = FastSim::new(&p);
    m.run(100).unwrap();
    assert!(m.halted());
    assert_eq!(m.pc(), EXIT_ADDR);
}

#[test]
fn memory_fault_leaves_state_identically() {
    // Fault mid-run: pc must point at the faulting instruction and
    // instret must not count it, in both engines.
    let p = gp("main: li t0, 3\n ld t1, 0(zero)\n halt\n");
    assert_engines_agree(&p, 100);
    let mut m = FastSim::new(&p);
    let err = m.run(100).unwrap_err();
    assert!(matches!(err, SimError::Mem { .. }));
    assert_eq!(m.instret(), 1);
    assert!(!m.halted());
}

#[test]
fn fault_in_second_half_of_fused_pair_agrees() {
    // First ld of a pair succeeds, second faults: the first entry must
    // be emitted and retired, the fault pc must be the second slot.
    let p = gp("
main:
    la  t0, cell
    ld  t1, 0(t0)
    ld  t2, -65536(t0)
    halt
    .data
cell: .dword 5
");
    assert_engines_agree(&p, 1_000);
}

#[test]
fn fuel_exhaustion_agrees_everywhere() {
    let p = gp("main: j main\n");
    for fuel in [0, 1, 2, 99] {
        assert_engines_agree(&p, fuel);
    }
    let mut m = FastSim::new(&p);
    assert_eq!(m.run(100), Err(SimError::OutOfFuel { executed: 100 }));
}

#[test]
fn fuel_exhaustion_mid_fused_pair_agrees() {
    // An odd fuel budget lands the out-of-fuel boundary between the two
    // halves of sd/sd and ld/ld pairs.
    let p = gp("
main:
    addi sp, sp, -16
loop:
    sd   t0, 0(sp)
    sd   t1, 8(sp)
    ld   t0, 0(sp)
    ld   t1, 8(sp)
    j    loop
");
    for fuel in 0..12 {
        assert_engines_agree(&p, fuel);
    }
}

#[test]
fn resumable_runs_agree_with_one_shot_runs() {
    // Drip-feed fuel 1 instruction at a time; final state must match a
    // single large-fuel run.
    let p = gp(
        "main: li a0, 5\n li a1, 0\nloop: add a1, a1, a0\n addi a0, a0, -1\n bnez a0, loop\n out a1\n halt\n",
    );
    let mut dripped = FastSim::new(&p);
    while !dripped.halted() {
        match dripped.run(1) {
            Ok(_) => break,
            Err(SimError::OutOfFuel { .. }) => continue,
            Err(e) => panic!("unexpected fault: {e}"),
        }
    }
    let mut oneshot = FastSim::new(&p);
    oneshot.run(1_000).unwrap();
    assert_eq!(dripped.output(), oneshot.output());
    assert_eq!(dripped.instret(), oneshot.instret());
    assert_eq!(dripped.pc(), oneshot.pc());
}

#[test]
fn trace_entries_match_interpreter_exactly() {
    // Belt-and-braces full-trace equality on a mixed program, including
    // stats computed through the bulk constructor.
    let p = toc("
main:
    la   t0, table
    li   t1, 4
    li   a0, 0
loop:
    ld   t2, 0(t0)
    add  a0, a0, t2
    addi t0, t0, 8
    addi t1, t1, -1
    bnez t1, loop
    out  a0
    halt
    .data
table: .dword 1, 2, 3, 4
");
    let mut fast = FastSim::new(&p);
    let mut interp = Machine::new(&p);
    let tf = fast.run_traced(10_000).unwrap();
    let ti = interp.run_traced(10_000).unwrap();
    assert_eq!(tf, ti);
    assert_eq!(fast.output(), interp.output());
}

#[test]
fn diverges_reports_nothing_on_equal_programs() {
    let p = gp("main: li a0, 1\n out a0\n halt\n");
    assert_eq!(diverges(&p, 100), None);
}
