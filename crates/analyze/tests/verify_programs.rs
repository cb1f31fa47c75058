//! The verifier as a codegen gate: every workload, every kernel, both
//! assembler profiles, both optimization levels must verify clean, and
//! seeded bugs must produce the expected lint codes.

use lvp_analyze::{
    analyze_memory, analyze_value_flow, analyze_value_flow_and_memory, classify_loads, verify,
    LctComparison, LintCode, StaticLoadClass,
};
use lvp_isa::{AsmProfile, Assembler};
use lvp_lang::{compile_with, OptLevel};
use lvp_predictor::presets;
use lvp_predictor::LvpUnit;
use lvp_workloads::{kernels, suite};

const PROFILES: [AsmProfile; 2] = [AsmProfile::Toc, AsmProfile::Gp];

#[test]
fn all_workloads_verify_clean_both_profiles_and_opt_levels() {
    for w in suite() {
        for profile in PROFILES {
            for opt in [OptLevel::O0, OptLevel::O1] {
                let program = compile_with(w.source, profile, opt)
                    .unwrap_or_else(|e| panic!("{} failed to compile: {e}", w.name));
                let diags = verify(&program);
                assert!(
                    diags.is_empty(),
                    "workload `{}` ({profile:?}, {opt:?}) has diagnostics:\n{}",
                    w.name,
                    diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
                );
            }
        }
    }
}

/// The provenance report the value-flow pass hands back is the one
/// `analyze_memory` computes on its own, and the value-flow report is
/// unchanged by handing it back.
#[test]
fn value_flow_hands_back_the_provenance_report() {
    for w in suite() {
        for profile in PROFILES {
            for opt in [OptLevel::O0, OptLevel::O1] {
                let program = compile_with(w.source, profile, opt).unwrap();
                let (vf, memory) = analyze_value_flow_and_memory(&program);
                let cell = format!("{}/{profile:?}/{opt:?}", w.name);
                assert_eq!(
                    format!("{memory:?}"),
                    format!("{:?}", analyze_memory(&program)),
                    "{cell}"
                );
                assert_eq!(
                    format!("{vf:?}"),
                    format!("{:?}", analyze_value_flow(&program)),
                    "{cell}"
                );
            }
        }
    }
}

#[test]
fn all_kernels_verify_clean_both_profiles() {
    for k in kernels() {
        for profile in PROFILES {
            let program = k
                .assemble(profile)
                .unwrap_or_else(|e| panic!("kernel `{}` failed to assemble: {e}", k.name));
            let diags = verify(&program);
            assert!(
                diags.is_empty(),
                "kernel `{}` ({profile:?}) has diagnostics:\n{}",
                k.name,
                diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
            );
        }
    }
}

fn codes_of(src: &str) -> Vec<LintCode> {
    let program = Assembler::new(AsmProfile::Gp).assemble(src).unwrap();
    verify(&program).iter().map(|d| d.code).collect()
}

#[test]
fn seeded_bugs_produce_expected_codes() {
    // Uninitialized read: `a0` on every path.
    assert_eq!(
        codes_of("main:\n add a1, a0, a0\n out a1\n halt\n"),
        vec![LintCode::UninitRead]
    );

    // Unreachable code after an unconditional jump.
    assert_eq!(
        codes_of("main:\n li a0, 1\n j end\n li a1, 2\n out a1\nend:\n out a0\n halt\n"),
        vec![LintCode::UnreachableBlock]
    );

    // Dead store: overwritten before any read.
    assert_eq!(
        codes_of("main:\n li a0, 1\n li a0, 2\n out a0\n halt\n"),
        vec![LintCode::DeadStore]
    );

    // Branch out of text: offset way past the end of the program.
    assert_eq!(
        codes_of("main:\n li a0, 1\n beq a0, a0, .+4096\n out a0\n halt\n"),
        vec![LintCode::BranchOutOfText]
    );

    // Absolute store below the data segment.
    assert_eq!(
        codes_of("main:\n li a0, 1\n sd a0, 8(zero)\n out a0\n halt\n"),
        vec![LintCode::BadMemOperand]
    );

    // Write to the zero register.
    assert_eq!(
        codes_of("main:\n li a0, 1\n add zero, a0, a0\n out a0\n halt\n"),
        vec![LintCode::WriteToZero]
    );
}

#[test]
fn seeded_bug_composition_reports_all_codes() {
    // One program with several seeded defects at once.
    let codes = codes_of(
        "main:\n add a1, a0, a0\n j end\n li a2, 9\n out a2\nend:\n li a3, 1\n \
         li a3, 2\n out a3\n out a1\n halt\n",
    );
    for expect in [
        LintCode::UninitRead,
        LintCode::UnreachableBlock,
        LintCode::DeadStore,
    ] {
        assert!(codes.contains(&expect), "missing {expect:?} in {codes:?}");
    }
}

#[test]
fn comparator_agrees_on_toc_pool_loads() {
    // Under the Toc profile, `la`/`fli`/large-`li` become pool loads that
    // are both statically constant and dynamically constant per the LCT.
    let w = lvp_workloads::Workload::by_name("quick").expect("quick workload");
    let run = w.run(AsmProfile::Toc).expect("quick runs");
    let static_loads = classify_loads(&run.program);
    assert!(
        static_loads
            .iter()
            .any(|l| l.class == StaticLoadClass::Constant),
        "Toc-profile codegen should contain pool loads"
    );

    let mut unit = LvpUnit::new(presets::simple());
    let _ = unit.annotate(&run.trace);
    let cmp = LctComparison::build(&static_loads, unit.lct(), &run.trace);

    // Every executed load pc must be statically classified.
    assert_eq!(cmp.unmatched_dynamic, 0, "{cmp}");
    // Statically-constant loads should overwhelmingly train to
    // LCT-constant; require majority agreement to keep the test robust
    // to table aliasing.
    let agreement = cmp.constant_agreement().expect("constant loads executed");
    assert!(
        agreement > 0.5,
        "constant agreement {agreement:.2} too low:\n{cmp}"
    );

    // The table renders with one row per class.
    let table = cmp.to_string();
    for class in ["constant", "stack-reload", "global", "computed"] {
        assert!(table.contains(class), "missing `{class}` row in:\n{table}");
    }
}

#[test]
fn static_classes_cover_kernel_loads() {
    // The pointer_chase kernel exists to defeat address prediction: its
    // hot load must classify as computed, not constant.
    let k = lvp_workloads::Kernel::by_name("pointer_chase").expect("kernel");
    let program = k.assemble(AsmProfile::Gp).expect("assembles");
    let loads = classify_loads(&program);
    assert!(
        loads.iter().any(|l| l.class == StaticLoadClass::Computed),
        "pointer_chase should have a computed load: {loads:?}"
    );
}
