//! Qualitative reproduction checks: the paper's headline claims must
//! hold in this implementation (shapes, not absolute numbers). Uses a
//! fast subset of the suite to keep test time reasonable; the bench
//! binaries cover the full suite.

use lvp::isa::AsmProfile;
use lvp::predictor::presets;
use lvp::predictor::AddressRanges;
use lvp::predictor::{LocalityMeter, LvpUnit, ValueClass};
use lvp::uarch::{simulate_21164, simulate_620, Alpha21164Config, Ppc620Config};
use lvp::workloads::Workload;

fn locality_of(name: &str, profile: AsmProfile) -> (f64, f64) {
    let w = Workload::by_name(name).expect("registered");
    let run = w.run(profile).expect("run");
    let mut meter = LocalityMeter::paper_default();
    for e in &run.trace {
        meter.observe(&e);
    }
    (meter.locality(1), meter.locality(16))
}

/// Section 2 / Figure 1: significant value locality exists, and deeper
/// history uncovers more of it.
#[test]
fn value_locality_exists_and_grows_with_depth() {
    for name in ["xlisp", "grep", "gawk"] {
        let (d1, d16) = locality_of(name, AsmProfile::Toc);
        assert!(d1 > 0.3, "{name}: depth-1 locality too low: {d1:.2}");
        assert!(d16 >= d1, "{name}: depth 16 must not lose to depth 1");
        assert!(d16 > 0.6, "{name}: depth-16 locality too low: {d16:.2}");
    }
}

/// Figure 1: the paper's low-locality benchmarks stay at the bottom of
/// the suite here too.
#[test]
fn known_poor_benchmarks_rank_low() {
    let (compress_d1, _) = locality_of("compress", AsmProfile::Gp);
    let (xlisp_d1, _) = locality_of("xlisp", AsmProfile::Gp);
    let (sc_d1, _) = locality_of("sc", AsmProfile::Gp);
    assert!(
        compress_d1 < xlisp_d1 && compress_d1 < sc_d1,
        "compress (streaming LZW) must rank below xlisp/sc: {compress_d1:.2} vs {xlisp_d1:.2}/{sc_d1:.2}"
    );
}

/// Figure 2: address loads are more predictable than data loads.
#[test]
fn address_loads_beat_data_loads() {
    let w = Workload::by_name("xlisp").expect("registered");
    let run = w.run(AsmProfile::Toc).expect("run");
    let l = run.program.layout();
    let ranges = AddressRanges {
        text: l.text_base()..l.text_end(),
        data: l.data_base()..l.data_end(),
        stack: l.stack_top() - (1 << 20)..l.stack_top() + 1,
    };
    let mut meter = LocalityMeter::paper_default().with_ranges(ranges);
    for e in &run.trace {
        meter.observe(&e);
    }
    let data_addr = meter.class_locality(ValueClass::DataAddr, 1);
    let int_data = meter.class_locality(ValueClass::IntData, 1);
    assert!(
        data_addr > int_data,
        "pointer loads must beat plain data: {data_addr:.2} vs {int_data:.2}"
    );
}

/// Section 6.1 / Figure 6: the realistic configurations produce a net
/// speedup on both machine models for a dependence-bound benchmark, and
/// the limit configurations rank above them.
#[test]
fn speedups_rank_simple_below_limit_below_perfect() {
    let w = Workload::by_name("gawk").expect("registered");
    let run = w.run(AsmProfile::Toc).expect("run");
    let mcfg = Ppc620Config::base();
    let base = simulate_620(&run.trace, None, &mcfg);
    let mut speedups = Vec::new();
    for cfg in [presets::simple(), presets::limit(), presets::perfect()] {
        let mut unit = LvpUnit::new(cfg);
        let outcomes = unit.annotate(&run.trace);
        let r = simulate_620(&run.trace, Some(&outcomes), &mcfg);
        speedups.push(r.speedup_over(&base));
    }
    assert!(
        speedups[0] > 1.0,
        "Simple must speed up gawk: {:.3}",
        speedups[0]
    );
    assert!(
        speedups[2] >= speedups[0] - 0.01,
        "Perfect must not lose to Simple: {speedups:?}"
    );
}

/// Section 3.3 / Table 4: the CVU reduces memory bandwidth — LVP is the
/// rare speculative technique that *reduces* rather than increases
/// memory traffic.
#[test]
fn lvp_reduces_memory_bandwidth() {
    let w = Workload::by_name("grep").expect("registered");
    let run = w.run(AsmProfile::Toc).expect("run");
    let mut unit = LvpUnit::new(presets::simple());
    let outcomes = unit.annotate(&run.trace);
    let mcfg = Ppc620Config::base();
    let base = simulate_620(&run.trace, None, &mcfg);
    let lvp = simulate_620(&run.trace, Some(&outcomes), &mcfg);
    assert!(
        lvp.l1_accesses < base.l1_accesses,
        "the CVU must cut L1 accesses: {} vs {}",
        lvp.l1_accesses,
        base.l1_accesses
    );
}

/// Section 6.2 / Table 6: the widened 620+ outruns the 620, and LVP
/// still helps on top of it.
#[test]
fn plus_machine_and_lvp_compose() {
    let w = Workload::by_name("gawk").expect("registered");
    let run = w.run(AsmProfile::Toc).expect("run");
    let base_620 = simulate_620(&run.trace, None, &Ppc620Config::base());
    let base_plus = simulate_620(&run.trace, None, &Ppc620Config::plus());
    assert!(
        base_plus.cycles <= base_620.cycles,
        "620+ must not lose to 620: {} vs {}",
        base_plus.cycles,
        base_620.cycles
    );
    let mut unit = LvpUnit::new(presets::simple());
    let outcomes = unit.annotate(&run.trace);
    let lvp_plus = simulate_620(&run.trace, Some(&outcomes), &Ppc620Config::plus());
    assert!(
        lvp_plus.cycles < base_plus.cycles,
        "LVP must help the 620+ on gawk: {} vs {}",
        lvp_plus.cycles,
        base_plus.cycles
    );
}

/// Section 4.2: on the 21164, CVU-verified constants are the only
/// predictions that survive an L1 miss; everything else degrades
/// gracefully with no penalty.
#[test]
fn alpha_lvp_is_safe_and_helps_grep() {
    let w = Workload::by_name("grep").expect("registered");
    let run = w.run(AsmProfile::Gp).expect("run");
    let mcfg = Alpha21164Config::base();
    let base = simulate_21164(&run.trace, None, &mcfg);
    let mut unit = LvpUnit::new(presets::simple());
    let outcomes = unit.annotate(&run.trace);
    let lvp = simulate_21164(&run.trace, Some(&outcomes), &mcfg);
    assert!(
        lvp.cycles <= base.cycles,
        "Simple LVP must not slow grep on the 21164: {} vs {}",
        lvp.cycles,
        base.cycles
    );
}
