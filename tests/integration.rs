//! Cross-crate integration tests: the full three-phase pipeline from
//! mini-C source through trace generation, LVP annotation, and both
//! timing models.

use lvp::isa::AsmProfile;
use lvp::lang::compile;
use lvp::predictor::presets;
use lvp::predictor::LvpUnit;
use lvp::sim::Machine;
use lvp::trace::PredOutcome;
use lvp::uarch::{simulate_21164, simulate_620, Alpha21164Config, Ppc620Config};
use lvp::workloads::Workload;

/// A compact program with a mix of constant loads, varying loads, calls,
/// and floating point, used where a full workload would be too slow.
const MIXED_SOURCE: &str = r#"
    global int table[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
    global int counter = 0;
    global float scale = 0.5;

    fn bump(int amount) -> int {
        counter = counter + amount;
        return counter;
    }

    fn main() {
        int i; int acc; float f;
        acc = 0;
        f = 0.0;
        for (i = 0; i < 500; i = i + 1) {
            acc = acc + table[i % 16];
            acc = acc + bump(1);
            f = f + scale * float(i % 4);
        }
        out(acc);
        outf(f);
    }
"#;

#[test]
fn full_pipeline_both_profiles_and_all_machines() {
    for profile in [AsmProfile::Toc, AsmProfile::Gp] {
        // Phase 1: trace generation.
        let program = compile(MIXED_SOURCE, profile).expect("compile");
        let mut machine = Machine::new(&program);
        let trace = machine.run_traced(10_000_000).expect("run");
        assert!(machine.halted());
        assert!(!machine.output().is_empty());

        // Phase 2: LVP annotation for every Table 2 configuration.
        for config in presets::table2() {
            let mut unit = LvpUnit::new(config);
            let outcomes = unit.annotate(&trace);
            assert_eq!(outcomes.len() as u64, trace.stats().loads);

            // Phase 3: all three machine models accept the annotation.
            for mcfg in [Ppc620Config::base(), Ppc620Config::plus()] {
                let r = simulate_620(&trace, Some(&outcomes), &mcfg);
                assert_eq!(r.instructions, trace.stats().instructions);
                assert!(r.ipc() > 0.1 && r.ipc() <= mcfg.width as f64);
            }
            let r = simulate_21164(&trace, Some(&outcomes), &Alpha21164Config::base());
            assert_eq!(r.instructions, trace.stats().instructions);
        }
    }
}

/// The timing models consume only the per-load verdict stream
/// ([`PredOutcome`]), never the predictor's tables: an annotation
/// produced under any backend kind is accepted unchanged, and the
/// instruction count — a property of the trace, not the predictor —
/// is identical across kinds.
#[test]
fn timing_models_accept_every_backend_verdict_stream() {
    use lvp::predictor::PredictorKind;

    let program = compile(MIXED_SOURCE, AsmProfile::Toc).expect("compile");
    let mut machine = Machine::new(&program);
    let trace = machine.run_traced(10_000_000).expect("run");
    let mcfg = Ppc620Config::base();
    let acfg = Alpha21164Config::base();

    for kind in PredictorKind::ALL {
        let config = presets::simple().builder().kind(kind).build();
        let mut unit = LvpUnit::new(config);
        let outcomes = unit.annotate(&trace);
        assert_eq!(outcomes.len() as u64, trace.stats().loads, "{kind}");

        let r620 = simulate_620(&trace, Some(&outcomes), &mcfg);
        assert_eq!(r620.instructions, trace.stats().instructions, "{kind}");
        let r164 = simulate_21164(&trace, Some(&outcomes), &acfg);
        assert_eq!(r164.instructions, trace.stats().instructions, "{kind}");
    }
}

#[test]
fn perfect_config_dominates_baseline_and_simple() {
    let program = compile(MIXED_SOURCE, AsmProfile::Toc).expect("compile");
    let mut machine = Machine::new(&program);
    let trace = machine.run_traced(10_000_000).expect("run");
    let mcfg = Ppc620Config::base();
    let base = simulate_620(&trace, None, &mcfg);

    let mut simple_unit = LvpUnit::new(presets::simple());
    let simple = simulate_620(&trace, Some(&simple_unit.annotate(&trace)), &mcfg);
    let mut perfect_unit = LvpUnit::new(presets::perfect());
    let perfect = simulate_620(&trace, Some(&perfect_unit.annotate(&trace)), &mcfg);

    assert!(
        perfect.cycles <= base.cycles,
        "perfect LVP must not be slower than baseline: {} vs {}",
        perfect.cycles,
        base.cycles
    );
    assert!(
        perfect.cycles <= simple.cycles + 4,
        "perfect should be at least as fast as Simple: {} vs {}",
        perfect.cycles,
        simple.cycles
    );
}

#[test]
fn annotations_are_deterministic_across_reruns() {
    let w = Workload::by_name("xlisp").expect("registered");
    let run1 = w.run(AsmProfile::Gp).expect("run 1");
    let run2 = w.run(AsmProfile::Gp).expect("run 2");
    let mut u1 = LvpUnit::new(presets::simple());
    let mut u2 = LvpUnit::new(presets::simple());
    assert_eq!(u1.annotate(&run1.trace), u2.annotate(&run2.trace));
}

#[test]
fn trace_round_trips_through_binary_format() {
    let program = compile(MIXED_SOURCE, AsmProfile::Gp).expect("compile");
    let mut machine = Machine::new(&program);
    let trace = machine.run_traced(10_000_000).expect("run");
    let mut buf = Vec::new();
    lvp::trace::write_trace(&mut buf, &trace).expect("write");
    let back = lvp::trace::read_trace(buf.as_slice()).expect("read");
    assert_eq!(back, trace);

    // The reread trace drives the timing model to the identical result.
    let a = simulate_620(&trace, None, &Ppc620Config::base());
    let b = simulate_620(&back, None, &Ppc620Config::base());
    assert_eq!(a.cycles, b.cycles);
}

#[test]
fn cvu_constants_reduce_cache_traffic_end_to_end() {
    let program = compile(MIXED_SOURCE, AsmProfile::Toc).expect("compile");
    let mut machine = Machine::new(&program);
    let trace = machine.run_traced(10_000_000).expect("run");
    let mut unit = LvpUnit::new(presets::constant());
    let outcomes = unit.annotate(&trace);
    let n_constant = outcomes
        .iter()
        .filter(|&&o| o == PredOutcome::Constant)
        .count() as u64;
    assert!(n_constant > 0, "the TOC loads must become constants");

    let mcfg = Ppc620Config::base();
    let base = simulate_620(&trace, None, &mcfg);
    let lvp = simulate_620(&trace, Some(&outcomes), &mcfg);
    // Every constant-verified load skips the L1; value-mispredicted loads
    // whose dependents got squashed may re-access it on reissue, so the
    // saving is bounded by (not exactly equal to) the constant count.
    let saved = base.l1_accesses - lvp.l1_accesses;
    assert!(
        saved >= n_constant * 9 / 10 && saved <= n_constant,
        "L1 access saving {saved} should be close to the {n_constant} constants"
    );
}

#[test]
fn profile_changes_load_population_not_results() {
    let toc = compile(MIXED_SOURCE, AsmProfile::Toc).expect("compile toc");
    let gp = compile(MIXED_SOURCE, AsmProfile::Gp).expect("compile gp");
    let mut m1 = Machine::new(&toc);
    let mut m2 = Machine::new(&gp);
    let t1 = m1.run_traced(10_000_000).expect("toc run");
    let t2 = m2.run_traced(10_000_000).expect("gp run");
    assert_eq!(m1.output(), m2.output(), "same program semantics");
    assert!(
        t1.stats().loads > t2.stats().loads,
        "Toc must execute more loads: {} vs {}",
        t1.stats().loads,
        t2.stats().loads
    );
}
