//! Dataflow on hostile CFGs: irreducible loops and conservative
//! indirect-`jalr` edges. The fixed points (reaching defs, liveness, the
//! points-to lattice) must terminate and stay sound on shapes that break
//! structured-loop assumptions.

mod hostile_fixtures;

use hostile_fixtures::{
    irreducible_mesh, IRREDUCIBLE, IRREDUCIBLE_UNINIT_READ, JALR_ONLY_FUNCTION, MUTUAL_RECURSION,
};
use lvp_analyze::{analyze_memory, verify, AliasAnalysis, Cfg, LintCode, RegionMap};
use lvp_isa::{AsmProfile, Assembler, Program};

fn assemble(src: &str) -> Program {
    Assembler::new(AsmProfile::Gp).assemble(src).unwrap()
}

fn codes(p: &Program) -> Vec<LintCode> {
    verify(p).iter().map(|d| d.code).collect()
}

#[test]
fn irreducible_loop_verifies_clean() {
    let p = assemble(IRREDUCIBLE);
    // Termination is implicit (the test finishes); soundness: `a1` is
    // defined before the region on every path, so no uninit-read, and
    // every block is reachable.
    let c = codes(&p);
    assert!(!c.contains(&LintCode::UninitRead), "{c:?}");
    assert!(!c.contains(&LintCode::UnreachableBlock), "{c:?}");
}

#[test]
fn irreducible_loop_still_catches_uninit_read() {
    // Same shape, but `left` reads `a2`, which is never written anywhere:
    // the cross edges must not launder the missing definition.
    let p = assemble(IRREDUCIBLE_UNINIT_READ);
    assert!(codes(&p).contains(&LintCode::UninitRead));
}

#[test]
fn irreducible_loop_alias_states_cover_all_reachable_blocks() {
    let p = assemble(IRREDUCIBLE);
    let cfg = Cfg::build(&p);
    let regions = RegionMap::new(&p);
    let alias = AliasAnalysis::compute(&p, &cfg, &regions);
    let reach = cfg.reachable();
    for (b, block) in cfg.blocks().iter().enumerate() {
        if reach[b] && block.start != block.end && b != cfg.entry_block() {
            assert!(alias.block_reached(b), "reachable block {b} has no state");
        }
    }
}

#[test]
fn jalr_only_function_is_reachable_and_defs_flow_back() {
    // `helper` is reached only through a computed `jalr`; the CFG's
    // conservative indirect edges must keep it reachable, and `a0`'s
    // definition inside it must reach the `out` after the call.
    let p = assemble(JALR_ONLY_FUNCTION);
    let c = codes(&p);
    assert!(!c.contains(&LintCode::UnreachableBlock), "{c:?}");
    assert!(!c.contains(&LintCode::UninitRead), "{c:?}");
}

#[test]
fn generated_irreducible_mesh_terminates() {
    // 40 blocks, each branching to a pseudo-random other block and
    // falling through: a dense irreducible mesh. All fixed points must
    // converge (bounded lattices + monotone transfers), not just on
    // nice reducible CFGs.
    let p = assemble(&irreducible_mesh(40));
    // Runs the full verifier (reaching defs + liveness) and the
    // provenance pass (points-to) to their fixed points.
    let c = codes(&p);
    assert!(!c.contains(&LintCode::UninitRead), "{c:?}");
    let report = analyze_memory(&p);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn mutual_recursion_through_jalr_return_edges() {
    // Mutually recursive calls whose returns are all conservative jalr
    // edges; sp joins to a stack-region set rather than diverging.
    let p = assemble(MUTUAL_RECURSION);
    let cfg = Cfg::build(&p);
    let regions = RegionMap::new(&p);
    // Termination on the call web is the point; also every frame access
    // must resolve to something (no empty-set operands in reached code).
    let alias = AliasAnalysis::compute(&p, &cfg, &regions);
    for (i, instr) in p.text().iter().enumerate() {
        if let (Some(res), Some(w)) = (alias.addr(i), instr.mem_width()) {
            assert!(
                !res.regions(w.bytes() as u8, &regions).is_empty(),
                "empty region set for mem op at index {i}"
            );
        }
    }
}
