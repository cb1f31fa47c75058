//! # lvp-analyze — static analysis and verification for LRISC programs
//!
//! Static companion to the dynamic machinery in `lvp-predictor`: where the
//! Load Classification Table *learns* per-static-load behavior at run
//! time, this crate *derives* it from program structure, and doubles as a
//! correctness gate (verifier) over everything the `lvp-lang` compiler and
//! the hand-written workload kernels emit.
//!
//! The crate provides five layers, each usable on its own:
//!
//! * [`Cfg`] — basic blocks and control-flow edges over a
//!   [`lvp_isa::Program`], with conservative indirect-jump (`jalr`)
//!   handling;
//! * [`ReachingDefs`] / [`Liveness`] — classic iterative dataflow over the
//!   64 combined integer + floating-point register slots;
//! * [`verify`] — the lint engine, producing [`Diagnostic`]s with stable
//!   codes (table below);
//! * [`classify_loads`] / [`LctComparison`] — the paper-facing pass:
//!   statically classify every load (constant-pool, stack reload, global,
//!   computed) and join the classes against the dynamic LCT outcome per
//!   pc;
//! * [`analyze_memory`] — the provenance pass: partition the address
//!   space into abstract [`Region`]s, run a flow-sensitive points-to
//!   lattice ([`AliasAnalysis`]) over base registers, classify every
//!   load as must-constant / stack-local / unknown ([`MemClass`]), and
//!   emit the memory lints `LVP007`–`LVP011`. The must-constant set is
//!   the static mirror of the paper's CVU and is validated dynamically
//!   by the `lvp-harness` cross-check oracle;
//! * [`analyze_value_flow`] — the value-flow pass: pruned SSA over a
//!   call-summarized view of the CFG ([`Ssa`], [`FlowGraph`]), natural
//!   loops and per-register scalar evolution ([`ScalarEvolution`],
//!   [`Evolution`]), and a per-load predictability classifier
//!   ([`LoadPredictability`]) naming which predictor in the zoo should
//!   catch each load. Emits lints `LVP012`–`LVP016`; the affine-stride
//!   and must-constant claims are validated dynamically by the harness
//!   stride-predictor cross-check;
//! * [`CallGraph`] / [`SummaryTable`] — the interprocedural layer:
//!   direct `jal` edges, `jalr` edges bounded by the points-to lattice,
//!   SCC condensation for recursion, and per-function transitive memory
//!   effect summaries computed bottom-up over the SCC DAG. The
//!   value-flow pass uses these to keep loop cells trackable across
//!   calls (instead of bailing out at the first call) and to emit the
//!   interprocedural lints `LVP017`–`LVP021`.
//!
//! # Lint codes
//!
//! | Code | Name | Meaning |
//! |------|------|---------|
//! | `LVP001` | `uninit-read` | A register is read, and **no** write to it reaches the read on *any* path from the entry point. Registers initialized by the machine (`zero`, `ra`, `sp`, `gp`) are exempt, as are `sp`-relative spills of a register (prologue saves of callee-saved registers legitimately store uninitialized values). |
//! | `LVP002` | `unreachable-block` | A basic block is unreachable from the entry point, even under conservative indirect-jump assumptions (every text symbol and every return site is a potential `jalr` target). |
//! | `LVP003` | `dead-store` | A register write that can never be observed: overwritten in the same block before any read, or never read and not live out of its block. Writes to `ra` and callee-saved registers (including `sp`/`gp`) are exempt from the never-read case — epilogue restores are dead in the outermost frame by design. |
//! | `LVP004` | `branch-out-of-text` | A direct branch or jump target lies outside the text segment or is misaligned. |
//! | `LVP005` | `bad-mem-operand` | A memory operand whose address is statically known (`zero`-based absolute, or `gp`-based when `gp` is never written) is misaligned for its access width or falls outside the data segment. |
//! | `LVP006` | `write-to-zero` | An instruction writes the hardwired zero register, discarding the value. `jal`/`jalr` with a `zero` link register (the standard no-link idiom) are exempt. |
//! | `LVP007` | `store-to-pool` | A store's address set includes the compiler-owned constant-pool region. The pool is never legitimately written; a hit breaks the provenance pass's pool-ownership assumption. |
//! | `LVP008` | `load-never-written` | A must-constant load of a *global* (non-pool) address: the program declared the data writable but no store can ever reach it — a pool-promotion candidate. |
//! | `LVP009` | `stack-escape` | A provably-stack address is stored to provably non-stack memory: the frame pointer escapes its frame and may dangle after return. |
//! | `LVP010` | `misclassified-constant` | The provenance pass proves a load constant but the syntactic classifier (`classify_loads`) does not — the dynamic LCT would have to *learn* what is statically known. |
//! | `LVP011` | `store-to-load-forward` | A load's exact `(address, width)` matches an earlier store in the same basic block: a store-to-load forwarding candidate. Stack spill/reload pairs are exempt. |
//! | `LVP012` | `stride-predictable-load` | The value-flow analysis proves the load's value follows an affine recurrence `base + i*stride` around the enclosing loop — a stride predictor catches it after warm-up. The derived stride is in the message. |
//! | `LVP013` | `loop-invariant-load` | The load reads a memory cell no store in its loop can write: the value is loop-invariant, so the load could be hoisted (and a last-value predictor is exact after one miss). |
//! | `LVP014` | `static-under-approximation` | The static classifier says *unknown* but the dynamic LCT learned the load predictable — a report on where the static analysis under-approximates. Only emitted on trace-bearing paths (`--cross-check`), never in the static baseline. |
//! | `LVP015` | `ssa-inconsistency` | The internal SSA verifier found a def-use inconsistency — in practice a register read that is uninitialized on *some* (but not all) paths from entry, the may-uninit complement of `LVP001`. |
//! | `LVP016` | `loop-carried-store-to-load` | A store and a load touch the same memory cell and the value travels around the loop back edge (the load observes the previous iteration's store) — the paper's store-to-load forwardable class. |
//! | `LVP017` | `unreachable-function` | A named function no resolved call edge, tail transfer or fall-through path can reach — dead code the conservative block-level `LVP002` reachability (which wires every return site to every indirect target) cannot see. |
//! | `LVP018` | `callee-clobbers-claimed-constant` | A load that would be loop-invariant (`LVP013`) except that a callee reached from inside the loop may write the cell, per its interprocedural effect summary. |
//! | `LVP019` | `recursive-stride-broken` | A tracked single-store loop cell (the `LVP012`/`LVP016` pattern) broken by a *recursive* callee whose effect summary may write the cell. |
//! | `LVP020` | `hint-contradicts-dynamic-class` | A static predictor hint whose nominated backend the dynamic per-pc evaluation contradicts (coverage or accuracy below the oracle floors). Only emitted on trace-bearing paths, never in the static baseline. |
//! | `LVP021` | `interprocedural-store-to-load` | A load from an exactly-resolved cell that a store in a *different* function provably writes — a store-to-load forwarding pair invisible to the per-block `LVP011`. |
//!
//! Lints `LVP001`–`LVP006` are *must*-style: a diagnostic is a definite
//! defect on every execution path (or, for `LVP002`/`LVP003`, provably
//! dead text), so correct compiler output verifies clean and the lints
//! can gate codegen in CI. The memory lints `LVP007`–`LVP011` (from
//! [`analyze_memory`], surfaced via `lvp check --memory`) are provenance
//! facts rather than outright defects — `LVP007`/`LVP009` indicate real
//! bugs, `LVP008`/`LVP010`/`LVP011` point at optimization headroom — and
//! are gated in CI against a committed baseline instead of a hard zero.
//! The value-flow lints `LVP012`–`LVP021` (from [`analyze_value_flow`],
//! surfaced via `lvp check --value-flow`) follow the same baseline-gated
//! model: `LVP012`/`LVP013`/`LVP016`/`LVP021` are predictability facts,
//! `LVP015` flags real may-uninit defects, `LVP017` flags dead code,
//! `LVP018`/`LVP019` explain where a callee effect blocks an
//! otherwise-provable class, and `LVP014`/`LVP020` are dynamic reports
//! that never appear in the static baseline.
//!
//! # Examples
//!
//! ```
//! use lvp_isa::{AsmProfile, Assembler};
//! use lvp_analyze::{verify, LintCode};
//!
//! // Reads `a0` before any write: flagged on every path.
//! let buggy = Assembler::new(AsmProfile::Gp)
//!     .assemble("main:\n add a1, a0, a0\n out a1\n halt\n")?;
//! let diags = verify(&buggy);
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].code, LintCode::UninitRead);
//!
//! let clean = Assembler::new(AsmProfile::Gp)
//!     .assemble("main:\n li a0, 42\n out a0\n halt\n")?;
//! assert!(verify(&clean).is_empty());
//! # Ok::<(), lvp_isa::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod alias;
mod callgraph;
mod cfg;
mod classify;
mod dataflow;
mod diag;
mod interproc;
mod loads;
mod provenance;
mod regions;
mod scev;
mod ssa;
mod verify;

pub use alias::{AbsVal, AddrRes, AliasAnalysis};
pub use callgraph::{CallGraph, CallSite, CallTarget, Function};
pub use cfg::{BadBranch, BasicBlock, Cfg};
pub use classify::{
    analyze_value_flow, analyze_value_flow_and_memory, lvp014_diagnostics, LoadPredictability,
    ValueFlowReport, VfLoad,
};
pub use dataflow::{BitSet, DefSite, Liveness, ReachingDefs, NUM_REGS};
pub use diag::{sort_and_dedupe, Diagnostic, LintCode};
pub use interproc::{FnSummary, SummaryTable};
pub use loads::{classify_loads, ClassAgreement, LctComparison, StaticLoad, StaticLoadClass};
pub use provenance::{analyze_memory, MemClass, MemLoad, MemoryReport};
pub use regions::{Region, RegionMap, RegionSet};
pub use scev::{Evolution, Loop, LoopForest, ScalarEvolution};
pub use ssa::{Dominators, FlowGraph, Phi, Ssa, SsaSite, ValueDef, ValueId};
pub use verify::verify;
