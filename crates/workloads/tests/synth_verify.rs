//! Self-verification and stability contracts for `lvp synth`:
//!
//! * same seed + profile ⇒ byte-identical source (pinned content
//!   hashes; the cross-process half of the guarantee is exercised by
//!   ci.sh's round-trip gate);
//! * every pinned seed compiles clean — `lvp_analyze::verify` (the
//!   `lvp check` core) fires zero diagnostics;
//! * the self-verification contract: for every profile, running the
//!   characterizer on the generated program's own trace lands every
//!   targeted metric inside its declared tolerance band.

use lvp_isa::AsmProfile;
use lvp_predictor::characterize::{Characterizer, Summary};
use lvp_workloads::{generate, SynthProfile, SynthScale, SynthSpec, TargetMetric, DEFAULT_FUEL};

/// Seeds that must keep generating verifiable programs forever.
const PINNED_SEEDS: &[u64] = &[1, 2, 3, 7, 42];

/// FNV-1a over the source text, for pinning exact generator output.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn metric_value(s: &Summary, m: TargetMetric) -> f64 {
    match m {
        TargetMetric::EntropyBits => s.entropy_bits,
        TargetMetric::MeanWorkingSet => s.mean_working_set,
        TargetMetric::RepeatRate => s.repeat_rate,
        TargetMetric::StrideCoverage => s.stride_coverage,
        TargetMetric::FedFraction => s.fed_fraction,
        TargetMetric::MeanFeedDistance => s.mean_feed_distance,
        TargetMetric::ClassStability => s.class_stability,
        TargetMetric::Score => s.score,
    }
}

fn characterize(spec: &SynthSpec) -> Summary {
    let src = generate(spec);
    let program = lvp_lang::compile(&src, AsmProfile::Toc).expect("synth compiles");
    let run = lvp_sim::SimEngine::Fast
        .run_traced(&program, DEFAULT_FUEL)
        .expect("synth runs");
    let mut c = Characterizer::new(run.trace.len() as u64);
    for e in &run.trace {
        c.observe(&e);
    }
    c.finish().summary
}

#[test]
fn same_spec_regenerates_byte_identical_source() {
    for profile in SynthProfile::ALL {
        for &seed in PINNED_SEEDS {
            for scale in [SynthScale::Bench, SynthScale::Tiny] {
                let spec = SynthSpec {
                    profile,
                    seed,
                    scale,
                };
                assert_eq!(
                    generate(&spec),
                    generate(&spec),
                    "{profile} seed {seed} {}",
                    scale.name()
                );
            }
        }
    }
}

/// The exact generator output is pinned: if these hashes change, every
/// committed artifact derived from a synth seed (results files, fuzz
/// repro seeds) silently means something else.
#[test]
fn pinned_seed_sources_are_frozen() {
    let pins: &[(SynthProfile, u64, u64)] = &[
        (SynthProfile::PointerChase, 1, 0x6604055d16dab021),
        (SynthProfile::PhaseConstant, 1, 0x36355f24774fe5a5),
        (SynthProfile::AliasWalk, 1, 0x4ee3a8d6b837a50c),
        (SynthProfile::StrideRamp, 1, 0x38389abfd595be29),
        (SynthProfile::Mix, 1, 0x7d44f3799d790860),
    ];
    for &(profile, seed, want) in pins {
        let got = fnv1a64(generate(&SynthSpec::new(profile, seed)).as_bytes());
        assert_eq!(
            got, want,
            "{profile} seed {seed}: source hash {got:#x} != pinned {want:#x}"
        );
    }
}

#[test]
fn pinned_seeds_pass_lvp_check_clean() {
    for profile in SynthProfile::ALL {
        for &seed in PINNED_SEEDS {
            let src = generate(&SynthSpec::new(profile, seed));
            let program = lvp_lang::compile(&src, AsmProfile::Toc)
                .unwrap_or_else(|e| panic!("{profile} seed {seed}: {e}"));
            let diags = lvp_analyze::verify(&program);
            assert!(
                diags.is_empty(),
                "{profile} seed {seed} fires lints: {diags:?}"
            );
        }
    }
}

/// The self-verification contract (acceptance criterion): every
/// profile's targeted metrics land inside their declared bands when
/// the characterizer runs on the profile's own output.
#[test]
fn self_verification_holds_for_every_profile() {
    for profile in SynthProfile::ALL {
        for &seed in &[1u64, 7] {
            let spec = SynthSpec::new(profile, seed);
            let summary = characterize(&spec);
            eprintln!(
                "{profile} seed {seed}: loads={} pcs={} entropy={:.2} wset={:.1} repeat={:.3} \
                 stride={:.3} simpson={:.3} fed={:.3} dist={:.1} stab={:.3} score={:.3}",
                summary.loads,
                summary.load_pcs,
                summary.entropy_bits,
                summary.mean_working_set,
                summary.repeat_rate,
                summary.stride_coverage,
                summary.simpson,
                summary.fed_fraction,
                summary.mean_feed_distance,
                summary.class_stability,
                summary.score,
            );
            for t in profile.targets() {
                let v = metric_value(&summary, t.metric);
                assert!(
                    t.holds(v),
                    "{profile} seed {seed}: {t} violated (measured {v:.4})"
                );
            }
        }
    }
}
