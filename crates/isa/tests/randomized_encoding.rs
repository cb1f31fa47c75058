//! Seeded randomized test for the disassembler: every instruction's
//! textual form reassembles to the same instruction through the
//! assembler.
//!
//! Inputs come from the workspace's canonical [`Lcg`] with a fixed seed
//! and case count, so every run checks the same cases.

use lvp_isa::{AsmProfile, Assembler, FReg, Instr, Reg};
use lvp_trace::rng::Lcg;

const SEED: u64 = 0x15a_e9c0_de00_1996;
/// Random programs to disassemble and reassemble.
const CASES: u64 = 256;

/// A random instruction from a mix of every operand shape: register,
/// immediate, shift, memory, floating-point, branch and system forms.
/// Branch and jump offsets are multiples of 4 (the textual `.+N` form
/// reassembles them exactly) within ±100000 bytes.
fn random_instr(r: &mut Lcg) -> Instr {
    use Instr::*;
    let reg = |r: &mut Lcg| Reg::new(r.below(32) as u8);
    let freg = |r: &mut Lcg| FReg::new(r.below(32) as u8);
    let (rd, rs1, rs2, base) = (reg(r), reg(r), reg(r), reg(r));
    let (fd, fs1, fs2) = (freg(r), freg(r), freg(r));
    let imm = r.next_full() as i32;
    let offset = r.next_full() as i32;
    let shamt = r.below(64) as u8;
    let target = (r.below(200_000) as i32 - 100_000) & !3;
    match r.below(24) {
        0 => Add { rd, rs1, rs2 },
        1 => Sub { rd, rs1, rs2 },
        2 => Mul { rd, rs1, rs2 },
        3 => Divu { rd, rs1, rs2 },
        4 => Addi { rd, rs1, imm },
        5 => Xori { rd, rs1, imm },
        6 => Slli { rd, rs1, shamt },
        // `lui` takes a 20-bit immediate.
        7 => Lui { rd, imm: imm >> 12 },
        8 => Ld { rd, base, offset },
        9 => Lbu { rd, base, offset },
        10 => Sd { rs2, base, offset },
        11 => Fld { fd, base, offset },
        12 => Fsd { fs2, base, offset },
        13 => FaddD { fd, fs1, fs2 },
        14 => FdivD { fd, fs1, fs2 },
        15 => FsqrtD { fd, fs1 },
        16 => FltD { rd, fs1, fs2 },
        17 => Beq {
            rs1,
            rs2,
            offset: target,
        },
        18 => Bltu {
            rs1,
            rs2,
            offset: target,
        },
        19 => Jal { rd, offset: target },
        20 => Jalr { rd, rs1, offset },
        21 => Out { rs1 },
        22 => Halt,
        _ => Nop,
    }
}

#[test]
fn disassembly_reassembles() {
    let mut rng = Lcg::new(SEED ^ 0xa55e);
    for case in 0..CASES {
        let instrs: Vec<Instr> = (0..1 + rng.below(40))
            .map(|_| random_instr(&mut rng))
            .collect();
        let mut src = String::from("main:\n");
        for i in &instrs {
            src.push_str(&format!("    {i}\n"));
        }
        let program = Assembler::new(AsmProfile::Gp)
            .assemble(&src)
            .unwrap_or_else(|e| panic!("case {case}: {e}\n{src}"));
        assert_eq!(program.text(), instrs.as_slice(), "case {case}\n{src}");
    }
}
