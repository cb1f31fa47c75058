//! The per-instruction trace record.

use std::fmt;

/// Which register file a traced operand lives in.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum RegClass {
    /// Integer (general-purpose) register file.
    Int = 0,
    /// Floating-point register file. The discriminant is the file's
    /// offset in [`RegRef::flat_index`], which then needs no branch.
    Fp = 32,
}

/// A reference to one architectural register.
///
/// The hardwired integer zero register is never recorded as an operand
/// (it has no producer, so it creates no dependency).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct RegRef {
    /// Register file.
    pub class: RegClass,
    /// Register number, 0–31.
    pub num: u8,
}

impl RegRef {
    /// An integer register operand.
    #[inline]
    pub fn int(num: u8) -> RegRef {
        RegRef {
            class: RegClass::Int,
            num,
        }
    }

    /// A floating-point register operand.
    #[inline]
    pub fn fp(num: u8) -> RegRef {
        RegRef {
            class: RegClass::Fp,
            num,
        }
    }

    /// Dense index 0–63 across both register files, handy for scoreboards.
    #[inline]
    pub fn flat_index(self) -> usize {
        self.class as usize + self.num as usize
    }
}

impl fmt::Display for RegRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            RegClass::Int => write!(f, "x{}", self.num),
            RegClass::Fp => write!(f, "f{}", self.num),
        }
    }
}

/// Timing-relevant operation class of a traced instruction.
///
/// This is the only instruction identity the timing models need; it maps
/// onto the paper's Table 5 latency rows and the PowerPC 620 functional
/// units of Figure 8.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Single-cycle integer ALU operation.
    IntSimple,
    /// Multi-cycle integer operation (multiply/divide).
    IntComplex,
    /// Simple FP operation (add/sub/mul/convert/compare).
    FpSimple,
    /// Complex FP operation (divide/sqrt).
    FpComplex,
    /// Memory load (integer or FP).
    Load,
    /// Memory store (integer or FP).
    Store,
    /// Conditional branch.
    CondBranch,
    /// Direct unconditional jump (`jal`).
    Jump,
    /// Indirect jump (`jalr`): function returns, computed branches,
    /// virtual calls.
    IndirectJump,
    /// System operation (`out`, `nop`, `halt`).
    System,
}

impl OpKind {
    /// All kinds, for iteration in reports.
    pub const ALL: [OpKind; 10] = [
        OpKind::IntSimple,
        OpKind::IntComplex,
        OpKind::FpSimple,
        OpKind::FpComplex,
        OpKind::Load,
        OpKind::Store,
        OpKind::CondBranch,
        OpKind::Jump,
        OpKind::IndirectJump,
        OpKind::System,
    ];

    /// Whether the instruction transfers control.
    #[inline]
    pub fn is_control(self) -> bool {
        matches!(
            self,
            OpKind::CondBranch | OpKind::Jump | OpKind::IndirectJump
        )
    }

    /// Whether the instruction accesses memory.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::IntSimple => "int",
            OpKind::IntComplex => "int*",
            OpKind::FpSimple => "fp",
            OpKind::FpComplex => "fp*",
            OpKind::Load => "load",
            OpKind::Store => "store",
            OpKind::CondBranch => "branch",
            OpKind::Jump => "jump",
            OpKind::IndirectJump => "ijump",
            OpKind::System => "sys",
        };
        f.write_str(s)
    }
}

/// One traced memory access.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Effective byte address.
    pub addr: u64,
    /// Access width in bytes (1, 2, 4, or 8).
    pub width: u8,
    /// For loads: the **register result** (after sign/zero extension; raw
    /// bits for FP loads) — this is the value the LVPT predicts. For
    /// stores: the value written to memory (truncated to `width`).
    pub value: u64,
    /// Whether the access targets the FP register file.
    pub fp: bool,
}

/// Outcome of a traced control-transfer instruction.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct BranchEvent {
    /// Whether the branch was taken (always true for jumps).
    pub taken: bool,
    /// The target address (next-pc if not taken).
    pub target: u64,
}

/// One retired instruction in a dynamic trace.
#[derive(Debug, Copy, Clone, PartialEq)]
pub struct TraceEntry {
    /// Address of the instruction.
    pub pc: u64,
    /// Timing class.
    pub kind: OpKind,
    /// Destination register, if the instruction writes one.
    pub dst: Option<RegRef>,
    /// Up to two source register operands (zero register omitted).
    pub srcs: [Option<RegRef>; 2],
    /// Memory access, for loads and stores.
    pub mem: Option<MemAccess>,
    /// Branch outcome, for control transfers.
    pub branch: Option<BranchEvent>,
}

impl TraceEntry {
    /// A minimal entry with no operands; useful in tests and synthetic
    /// traces.
    pub fn simple(pc: u64, kind: OpKind) -> TraceEntry {
        TraceEntry {
            pc,
            kind,
            dst: None,
            srcs: [None, None],
            mem: None,
            branch: None,
        }
    }

    /// Whether this entry is a load.
    #[inline]
    pub fn is_load(&self) -> bool {
        self.kind == OpKind::Load
    }

    /// Whether this entry is a store.
    #[inline]
    pub fn is_store(&self) -> bool {
        self.kind == OpKind::Store
    }

    /// Iterates over the present source operands (a copy of them, so the
    /// iterator does not borrow the entry).
    pub fn sources(&self) -> impl Iterator<Item = RegRef> {
        self.srcs.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_index_is_dense_and_disjoint() {
        assert_eq!(RegRef::int(0).flat_index(), 0);
        assert_eq!(RegRef::int(31).flat_index(), 31);
        assert_eq!(RegRef::fp(0).flat_index(), 32);
        assert_eq!(RegRef::fp(31).flat_index(), 63);
    }

    #[test]
    fn sources_skips_missing() {
        let mut e = TraceEntry::simple(0, OpKind::IntSimple);
        e.srcs = [Some(RegRef::int(5)), None];
        assert_eq!(e.sources().count(), 1);
    }

    #[test]
    fn control_and_mem_predicates() {
        assert!(OpKind::CondBranch.is_control());
        assert!(OpKind::IndirectJump.is_control());
        assert!(!OpKind::Load.is_control());
        assert!(OpKind::Load.is_mem());
        assert!(OpKind::Store.is_mem());
        assert!(!OpKind::IntSimple.is_mem());
    }

    #[test]
    fn display_forms() {
        assert_eq!(RegRef::int(3).to_string(), "x3");
        assert_eq!(RegRef::fp(7).to_string(), "f7");
        assert_eq!(OpKind::Load.to_string(), "load");
    }
}
