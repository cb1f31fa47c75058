//! Flow-sensitive points-to analysis over base registers, read as one
//! table of per-instruction facts.
//!
//! An abstract interpretation of the integer register file against the
//! lattice
//!
//! ```text
//!          Set(regions)          ("some address within these regions")
//!              |
//!          Exact(value)          ("exactly this 64-bit value")
//!              |
//!            Bottom              ("no value has reached here")
//! ```
//!
//! run to a fixed point over the [`Cfg`]'s blocks, joining at merge
//! points. Calls need no special casing: the CFG's conservative
//! indirect-jump edges (every `jalr` may reach every text symbol and
//! every return site) make the analysis interprocedural for free — a
//! function entered from two call sites simply joins both callers'
//! states, and `sp` degrades from two distinct [`AbsVal::Exact`] frame
//! pointers to *some stack address*, which is exactly what a frame-
//! insensitive summary should say.
//!
//! The transfer function folds the address-materialization idioms the
//! compiler emits — `lui`/`addi` pairs (Gp-profile `la`), `gp`-relative
//! arithmetic, and pool-slot `ld`s resolved through the program image
//! (Toc-profile `la`) — and conservatively sends everything else to
//! [`RegionSet::unknown`]. Pointer arithmetic (`add`/`sub` with one
//! non-exact operand) stays within the operands' region sets: an
//! indexed access to an object is assumed not to walk out of the
//! object's region (in-bounds assumption, companion to the
//! pool-ownership assumption in [`crate::regions`]).
//!
//! The converged state is consumed once: [`AliasAnalysis::compute`]
//! walks each reached block from its entry state and records what every
//! instruction needs downstream — its memory operand resolved to an
//! [`AddrRes`] ([`AliasAnalysis::addr`]) and the abstract value a store
//! writes or a `jalr` jumps through ([`AliasAnalysis::value`]). The
//! provenance pass, the value-flow pass, the call graph and the effect
//! summaries all read that table; none of them re-runs the transfer
//! function.

use crate::cfg::Cfg;
use crate::regions::{RegionMap, RegionSet};
use lvp_isa::{Instr, Program, Reg};

/// Abstract value of one integer register.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum AbsVal {
    /// No definition has reached this register (unreached code).
    Bottom,
    /// The register provably holds exactly this value on every path.
    Exact(u64),
    /// The register holds an unknown value that, if used as an address,
    /// lies within this region set.
    Set(RegionSet),
}

impl AbsVal {
    /// The lattice join of two abstract values.
    pub fn join(self, other: AbsVal, regions: &RegionMap) -> AbsVal {
        match (self, other) {
            (AbsVal::Bottom, x) | (x, AbsVal::Bottom) => x,
            (AbsVal::Exact(a), AbsVal::Exact(b)) if a == b => AbsVal::Exact(a),
            (a, b) => AbsVal::Set(a.regions(regions).union(b.regions(regions))),
        }
    }

    /// The region set this value may point into (empty for `Bottom`).
    pub fn regions(self, regions: &RegionMap) -> RegionSet {
        match self {
            AbsVal::Bottom => RegionSet::empty(),
            AbsVal::Exact(a) => RegionSet::of(regions.classify(a)),
            AbsVal::Set(s) => s,
        }
    }
}

/// Abstract state of the 32 integer registers.
type RegState = [AbsVal; 32];

/// A memory operand resolved through the abstract register state.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum AddrRes {
    /// The effective address is exactly known.
    Exact(u64),
    /// The effective address lies somewhere within this region set.
    Set(RegionSet),
}

impl AddrRes {
    /// The region set the access may touch (`width` widens exact
    /// addresses that straddle a region boundary).
    pub fn regions(self, width: u8, regions: &RegionMap) -> RegionSet {
        match self {
            AddrRes::Exact(a) => regions.classify_range(a, width),
            AddrRes::Set(s) => s,
        }
    }

    /// Whether an access of `width` bytes here may overlap the byte
    /// range `[addr, addr + w)`.
    pub fn may_overlap(self, width: u8, addr: u64, w: u8, regions: &RegionMap) -> bool {
        match self {
            AddrRes::Exact(a) => {
                (a as u128) < addr as u128 + w as u128 && (addr as u128) < a as u128 + width as u128
            }
            AddrRes::Set(s) => !regions
                .classify_range(addr, w)
                .iter()
                .all(|r| !s.contains(r)),
        }
    }
}

/// The fixed-point result, as per-instruction facts: each reached
/// instruction's resolved memory operand and the abstract value it
/// stores or jumps through, computed once from the converged block entry
/// states. Instructions in unreached blocks have no facts.
#[derive(Debug, Clone)]
pub struct AliasAnalysis {
    /// Per block: the converged register state at its entry.
    block_in: Vec<RegState>,
    /// Per instruction: [`AliasAnalysis::addr`].
    addr: Vec<Option<AddrRes>>,
    /// Per instruction: [`AliasAnalysis::value`].
    value: Vec<Option<AbsVal>>,
}

/// Reads a register from the abstract state (`zero` is hardwired).
fn read(state: &RegState, r: Reg) -> AbsVal {
    if r == Reg::ZERO {
        AbsVal::Exact(0)
    } else {
        state[r.number() as usize]
    }
}

/// Writes a register in the abstract state (`zero` writes are dropped).
fn write(state: &mut RegState, r: Reg, v: AbsVal) {
    if r != Reg::ZERO {
        state[r.number() as usize] = v;
    }
}

/// `base + imm` in the abstract domain: exact values fold, region sets
/// are preserved (in-bounds pointer arithmetic).
fn add_imm(v: AbsVal, imm: i64) -> AbsVal {
    match v {
        AbsVal::Exact(a) => AbsVal::Exact(a.wrapping_add_signed(imm)),
        other => other,
    }
}

/// Binary add/sub in the abstract domain.
fn add_vals(a: AbsVal, b: AbsVal, sub: bool, regions: &RegionMap) -> AbsVal {
    match (a, b) {
        (AbsVal::Exact(x), AbsVal::Exact(y)) => AbsVal::Exact(if sub {
            x.wrapping_sub(y)
        } else {
            x.wrapping_add(y)
        }),
        (AbsVal::Bottom, _) | (_, AbsVal::Bottom) => AbsVal::Bottom,
        // Pointer + index (or pointer - index): the result stays within
        // the union of both operands' region sets.
        (x, y) => AbsVal::Set(x.regions(regions).union(y.regions(regions))),
    }
}

/// Reads the 8-byte pool/data slot at `addr` from the program image.
fn image_dword(program: &Program, addr: u64) -> Option<u64> {
    let off = addr.checked_sub(program.layout().data_base())? as usize;
    let bytes = program.data().get(off..off + 8)?;
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

impl AliasAnalysis {
    /// Runs the analysis to a fixed point and records every reached
    /// instruction's facts.
    ///
    /// Entry state: `zero` = 0, `sp` = stack top, `gp` = pool base (all
    /// machine-initialized), everything else unknown.
    pub fn compute(program: &Program, cfg: &Cfg, regions: &RegionMap) -> AliasAnalysis {
        let text = program.text();
        let mut alias = AliasAnalysis {
            block_in: Self::fixpoint(program, cfg, regions),
            addr: vec![None; text.len()],
            value: vec![None; text.len()],
        };
        for (b, block) in cfg.blocks().iter().enumerate() {
            if !alias.block_reached(b) {
                continue;
            }
            let mut state = alias.block_in[b];
            for (i, instr) in text.iter().enumerate().take(block.end).skip(block.start) {
                alias.addr[i] = Self::resolve(&state, instr);
                alias.value[i] = match *instr {
                    Instr::Jalr { rs1, .. } => Some(read(&state, rs1)),
                    _ => Self::stored_value(&state, instr),
                };
                Self::transfer(program, regions, instr, &mut state);
            }
        }
        alias
    }

    /// The converged register state at every block entry. Unreachable
    /// blocks keep all-`Bottom` states.
    fn fixpoint(program: &Program, cfg: &Cfg, regions: &RegionMap) -> Vec<RegState> {
        let nblocks = cfg.blocks().len();
        let mut block_in = vec![[AbsVal::Bottom; 32]; nblocks];
        if nblocks == 0 {
            return block_in;
        }

        let mut entry = [AbsVal::Set(RegionSet::unknown()); 32];
        for (reg, value) in lvp_isa::abi::entry_register_values(program) {
            entry[reg.number() as usize] = AbsVal::Exact(value);
        }
        block_in[cfg.entry_block()] = entry;

        // Chaotic iteration over a worklist. The lattice has finite
        // height per register (Bottom < Exact < growing region sets, 4
        // bits), so this terminates on any CFG, including irreducible
        // ones.
        let mut on_list = vec![false; nblocks];
        let mut worklist: Vec<usize> = vec![cfg.entry_block()];
        on_list[cfg.entry_block()] = true;
        while let Some(b) = worklist.pop() {
            on_list[b] = false;
            let mut state = block_in[b];
            for i in cfg.blocks()[b].start..cfg.blocks()[b].end {
                Self::transfer(program, regions, &program.text()[i], &mut state);
            }
            for &s in &cfg.blocks()[b].succs {
                let mut changed = false;
                for r in 0..32 {
                    let joined = block_in[s][r].join(state[r], regions);
                    if joined != block_in[s][r] {
                        block_in[s][r] = joined;
                        changed = true;
                    }
                }
                if changed && !on_list[s] {
                    on_list[s] = true;
                    worklist.push(s);
                }
            }
        }
        block_in
    }

    /// Whether block `b` was reached by the analysis.
    pub fn block_reached(&self, b: usize) -> bool {
        self.block_in[b].iter().any(|v| *v != AbsVal::Bottom)
    }

    /// Instruction `i`'s memory operand, resolved against the converged
    /// state; `None` for a non-memory instruction or an unreached block.
    pub fn addr(&self, i: usize) -> Option<AddrRes> {
        self.addr[i]
    }

    /// What instruction `i` stores to memory (an FP store writes an
    /// unknown bit pattern), or the value of a `jalr`'s base register;
    /// `None` for every other instruction and in unreached blocks.
    pub fn value(&self, i: usize) -> Option<AbsVal> {
        self.value[i]
    }

    /// Applies one instruction's transfer function to `state`.
    fn transfer(program: &Program, regions: &RegionMap, instr: &Instr, state: &mut RegState) {
        let unknown = AbsVal::Set(RegionSet::unknown());
        match *instr {
            Instr::Addi { rd, rs1, imm } => {
                write(state, rd, add_imm(read(state, rs1), imm as i64));
            }
            Instr::Lui { rd, imm } => {
                write(state, rd, AbsVal::Exact((imm as i64 as u64) << 12));
            }
            Instr::Add { rd, rs1, rs2 } => {
                let v = add_vals(read(state, rs1), read(state, rs2), false, regions);
                write(state, rd, v);
            }
            Instr::Sub { rd, rs1, rs2 } => {
                let v = add_vals(read(state, rs1), read(state, rs2), true, regions);
                write(state, rd, v);
            }
            Instr::Slli { rd, rs1, shamt } => {
                let v = match read(state, rs1) {
                    AbsVal::Exact(x) => AbsVal::Exact(x << (shamt & 63)),
                    AbsVal::Bottom => AbsVal::Bottom,
                    _ => unknown,
                };
                write(state, rd, v);
            }
            // A doubleword load at an exactly-known constant-pool address
            // resolves through the program image: pool slots are never
            // legitimately written (pool-ownership assumption, validated
            // by LVP007 and the dynamic cross-check), so the image value
            // is the run-time value. This is what makes the Toc-profile
            // `la` (a pool-indirect address load) exact.
            Instr::Ld { rd, base, offset } => {
                let resolved = match add_imm(read(state, base), offset as i64) {
                    AbsVal::Exact(a)
                        if regions.classify(a) == crate::regions::Region::ConstPool
                            && regions.in_image(a, 8) =>
                    {
                        image_dword(program, a).map(AbsVal::Exact)
                    }
                    _ => None,
                };
                write(state, rd, resolved.unwrap_or(unknown));
            }
            _ => {
                // Every other instruction that defines an integer
                // register produces an unknown value.
                if let Some(lvp_isa::RegId::Int(rd)) = instr.defs() {
                    write(state, rd, unknown);
                }
            }
        }
    }

    /// Resolves a memory operand against the current abstract state,
    /// returning `None` for non-memory instructions.
    fn resolve(state: &RegState, instr: &Instr) -> Option<AddrRes> {
        let (base, offset) = instr.mem_operand()?;
        Some(match add_imm(read(state, base), offset as i64) {
            AbsVal::Exact(a) => AddrRes::Exact(a),
            AbsVal::Bottom => AddrRes::Set(RegionSet::empty()),
            AbsVal::Set(s) => AddrRes::Set(s),
        })
    }

    /// The abstract value a store instruction writes to memory, `None`
    /// for non-stores (FP stores write an unknown bit pattern).
    fn stored_value(state: &RegState, instr: &Instr) -> Option<AbsVal> {
        match *instr {
            Instr::Sb { rs2, .. }
            | Instr::Sh { rs2, .. }
            | Instr::Sw { rs2, .. }
            | Instr::Sd { rs2, .. } => Some(read(state, rs2)),
            Instr::Fsd { .. } => Some(AbsVal::Set(RegionSet::unknown())),
            _ => None,
        }
    }
}

#[cfg(test)]
#[path = "../tests/hostile_fixtures/mod.rs"]
mod hostile_fixtures;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::Region;
    use lvp_isa::{AsmProfile, Assembler};
    use lvp_lang::{compile_with, OptLevel};

    fn analyze(profile: AsmProfile, src: &str) -> (Program, Cfg, RegionMap, AliasAnalysis) {
        let p = Assembler::new(profile).assemble(src).unwrap();
        let cfg = Cfg::build(&p);
        let regions = RegionMap::new(&p);
        let alias = AliasAnalysis::compute(&p, &cfg, &regions);
        (p, cfg, regions, alias)
    }

    #[test]
    fn entry_registers_are_exact() {
        let (p, _, _, alias) = analyze(
            AsmProfile::Gp,
            "main:\n sd zero, -8(sp)\n sd sp, -16(sp)\n sd gp, -24(sp)\n halt\n",
        );
        assert_eq!(
            alias.addr(0),
            Some(AddrRes::Exact(p.layout().stack_top() - 8)),
            "sp is machine-initialized"
        );
        // Pin agreement with the shared ABI helper: the entry state is
        // exactly the machine-initialized values, nothing more.
        for (i, (reg, value)) in lvp_isa::abi::entry_register_values(&p)
            .into_iter()
            .enumerate()
        {
            assert!(
                matches!(p.text()[i], Instr::Sd { rs2, .. } if rs2 == reg),
                "{reg:?}"
            );
            assert_eq!(alias.value(i), Some(AbsVal::Exact(value)), "{reg:?}");
        }
        assert_eq!((alias.addr(3), alias.value(3)), (None, None), "halt");
    }

    #[test]
    fn toc_la_resolves_through_pool_image() {
        let (p, _, _, alias) = analyze(
            AsmProfile::Toc,
            ".data\nv: .dword 42\n.text\nmain:\n la a0, v\n ld a1, 0(a0)\n out a1\n halt\n",
        );
        // Find the `ld a1, 0(a0)` — the second load.
        let i = p
            .text()
            .iter()
            .enumerate()
            .filter(|(_, ins)| ins.is_load())
            .nth(1)
            .unwrap()
            .0;
        assert_eq!(
            alias.addr(i),
            Some(AddrRes::Exact(p.symbol("v").unwrap())),
            "pool-indirect la must resolve to the symbol address"
        );
    }

    #[test]
    fn join_of_two_frames_degrades_to_stack_set() {
        // `f` is called from two sites; inside `f` the frame pointer is
        // not exact but provably a stack address.
        let src = "main:\n addi sp, sp, -16\n jal ra, f\n jal ra, f\n addi sp, sp, 16\n halt\n\
                   f:\n addi sp, sp, -32\n sd a0, 0(sp)\n ld a0, 0(sp)\n addi sp, sp, 32\n jalr zero, ra, 0\n";
        let (p, _, regions, alias) = analyze(AsmProfile::Gp, src);
        let f_idx = ((p.symbol("f").unwrap() - p.layout().text_base()) / 4) as usize;
        // The store inside f is two instructions after its entry.
        match alias.addr(f_idx + 1).unwrap() {
            AddrRes::Set(s) => assert!(
                s.contains(Region::Stack) && !s.contains(Region::ConstPool),
                "frame operand must stay within non-pool regions: {s}"
            ),
            AddrRes::Exact(a) => assert_eq!(
                regions.classify(a),
                Region::Stack,
                "if exact, must be a stack address"
            ),
        }
    }

    #[test]
    fn unknown_base_excludes_pool() {
        let (p, _, _, alias) = analyze(
            AsmProfile::Gp,
            "main:\n li a0, 1\n add a2, a1, a1\n sd a0, 0(a2)\n out a0\n halt\n",
        );
        let store = p.text().iter().position(|i| i.is_store()).unwrap();
        match alias.addr(store).unwrap() {
            AddrRes::Set(s) => assert!(!s.contains(Region::ConstPool), "{s}"),
            AddrRes::Exact(_) => panic!("computed store must not be exact"),
        }
    }

    /// Checks the fact table against a replay from scratch: walking each
    /// reached block from its converged entry state gives every
    /// instruction's `addr` and `value`, and an unreached instruction has
    /// neither. The `jalr` reference reads the raw `zero` slot, which the
    /// entry state pins to 0 on every reached path.
    fn assert_table_matches_replay(p: &Program, what: &str) {
        let cfg = Cfg::build(p);
        let regions = RegionMap::new(p);
        let alias = AliasAnalysis::compute(p, &cfg, &regions);
        for (b, block) in cfg.blocks().iter().enumerate() {
            let mut state = alias.block_in[b];
            let reached = state.iter().any(|v| *v != AbsVal::Bottom);
            assert_eq!(alias.block_reached(b), reached, "{what}: block {b}");
            for i in block.start..block.end {
                let instr = &p.text()[i];
                let (addr, value) = if reached {
                    let value = match *instr {
                        Instr::Jalr { rs1, .. } => Some(state[rs1.number() as usize]),
                        _ => AliasAnalysis::stored_value(&state, instr),
                    };
                    (AliasAnalysis::resolve(&state, instr), value)
                } else {
                    (None, None)
                };
                assert_eq!(alias.addr(i), addr, "{what}: addr of `{instr}` at {i}");
                assert_eq!(alias.value(i), value, "{what}: value of `{instr}` at {i}");
                AliasAnalysis::transfer(p, &regions, instr, &mut state);
            }
        }
    }

    #[test]
    fn fact_table_matches_a_replay_on_the_suite_and_hostile_cfgs() {
        for w in lvp_workloads::suite() {
            for profile in [AsmProfile::Toc, AsmProfile::Gp] {
                for opt in [OptLevel::O0, OptLevel::O1] {
                    let p = compile_with(w.source, profile, opt).unwrap();
                    assert_table_matches_replay(&p, &format!("{} {profile:?} {opt:?}", w.name));
                }
            }
        }
        let hostile = [
            hostile_fixtures::IRREDUCIBLE.to_string(),
            hostile_fixtures::IRREDUCIBLE_UNINIT_READ.to_string(),
            hostile_fixtures::JALR_ONLY_FUNCTION.to_string(),
            hostile_fixtures::irreducible_mesh(40),
            hostile_fixtures::MUTUAL_RECURSION.to_string(),
        ];
        for (k, src) in hostile.iter().enumerate() {
            let p = Assembler::new(AsmProfile::Gp).assemble(src).unwrap();
            assert_table_matches_replay(&p, &format!("hostile fixture {k}"));
        }
    }

    #[test]
    fn fixed_point_terminates_on_irreducible_loop() {
        // Two blocks jumping into each other's middles, entered from both
        // sides — a classic irreducible region.
        let src = "main:\n li a0, 10\n beq a0, zero, b\na:\n addi a0, a0, -1\n bne a0, zero, b\n j out\nb:\n addi a0, a0, -2\n bne a0, zero, a\nout:\n out a0\n halt\n";
        let (p, cfg, _regions, alias) = analyze(AsmProfile::Gp, src);
        // Every reachable block got a state.
        let reach = cfg.reachable();
        for (b, r) in reach.iter().enumerate() {
            if *r && cfg.blocks()[b].start > 0 {
                assert!(
                    alias.block_reached(b),
                    "reachable block {b} has no alias state"
                );
            }
        }
        let _ = p;
    }
}
