//! Seeded synthesis of adversarial lvp-lang workloads.
//!
//! The characterizer (`lvp_predictor::characterize`) explains why a
//! benchmark's value locality lands where it does; this module inverts
//! the explanation: given a target *profile* — a named predictability
//! shape plus tolerance bands on the metrics that define it — it emits
//! a valid mini-C program whose load population hits the shape.
//! Generation is a pure function of [`SynthSpec`]: the same profile,
//! seed, and scale produce byte-identical source in every process,
//! which makes synthesized programs diffable and pinnable as regression
//! seeds.
//!
//! The profiles:
//!
//! * [`PointerChase`](SynthProfile::PointerChase) — a Sattolo-shuffled
//!   single-cycle permutation walked for many steps: the chasing loads
//!   see near-uniform values (entropy ≈ log₂ N), no usable stride, and
//!   a working set the size of the table. Value prediction's worst
//!   case.
//! * [`PhaseConstant`](SynthProfile::PhaseConstant) — a small config
//!   table re-written between phases and read constantly within one:
//!   loads train to *constant*, then every phase boundary storms the
//!   CVU with invalidating stores and mispredicts.
//! * [`AliasWalk`](SynthProfile::AliasWalk) — a read-modify-write hash
//!   walk where nearly every load reads an address stored to moments
//!   earlier: store-to-load feeding with short feed distances, values
//!   that never repeat. Only the store-to-load backend has a chance.
//! * [`StrideRamp`](SynthProfile::StrideRamp) — sequential scans over
//!   piecewise-arithmetic data whose stride changes every period:
//!   two-delta coverage high, repeat rate near zero.
//! * [`Mix`](SynthProfile::Mix) — the above shapes concatenated as
//!   phases, so per-PC behavior differs between trace halves and the
//!   LCT-class-stability metric drops.
//!
//! Each profile declares [`MetricTarget`] tolerance bands; `lvp synth
//! --verify` runs the characterizer on the generated program's own
//! trace and asserts every band (the *self-verification contract*,
//! DESIGN.md §13).

use crate::Workload;
use lvp_isa::AsmProfile;
use lvp_trace::rng::Lcg;
use std::fmt;
use std::sync::OnceLock;

/// A named predictability shape the generator can target.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum SynthProfile {
    /// High-entropy pointer chasing through a shuffled permutation.
    PointerChase,
    /// Phase-changing constants that thrash the CVU.
    PhaseConstant,
    /// Alias-heavy read-modify-write table walk (store-to-load stress).
    AliasWalk,
    /// Stride ramps with period changes.
    StrideRamp,
    /// All of the above as successive phases (class-stability stress).
    Mix,
}

impl SynthProfile {
    /// Every profile, in canonical order.
    pub const ALL: [SynthProfile; 5] = [
        SynthProfile::PointerChase,
        SynthProfile::PhaseConstant,
        SynthProfile::AliasWalk,
        SynthProfile::StrideRamp,
        SynthProfile::Mix,
    ];

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            SynthProfile::PointerChase => "pointer-chase",
            SynthProfile::PhaseConstant => "phase-constant",
            SynthProfile::AliasWalk => "alias-walk",
            SynthProfile::StrideRamp => "stride-ramp",
            SynthProfile::Mix => "mix",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<SynthProfile> {
        SynthProfile::ALL.into_iter().find(|p| p.name() == s)
    }

    /// One-line description of the targeted shape.
    pub fn description(self) -> &'static str {
        match self {
            SynthProfile::PointerChase => "synthesized: high-entropy pointer chase",
            SynthProfile::PhaseConstant => "synthesized: phase-changing constants (CVU thrash)",
            SynthProfile::AliasWalk => "synthesized: alias-heavy RMW walk (store-to-load)",
            SynthProfile::StrideRamp => "synthesized: stride ramps with period changes",
            SynthProfile::Mix => "synthesized: phase mix (class-stability stress)",
        }
    }

    /// The tolerance bands this profile promises to hit. Bands are
    /// intentionally wide enough to hold across seeds and scales but
    /// tight enough that a profile cannot satisfy another profile's
    /// contract.
    pub fn targets(self) -> &'static [MetricTarget] {
        use TargetMetric::*;
        match self {
            SynthProfile::PointerChase => {
                const T: &[MetricTarget] = &[
                    MetricTarget::min(EntropyBits, 6.0),
                    MetricTarget::min(MeanWorkingSet, 100.0),
                    MetricTarget::max(Score, 0.15),
                    MetricTarget::max(RepeatRate, 0.15),
                ];
                T
            }
            SynthProfile::PhaseConstant => {
                const T: &[MetricTarget] = &[
                    MetricTarget::min(RepeatRate, 0.70),
                    MetricTarget::min(Score, 0.75),
                    MetricTarget::max(MeanWorkingSet, 64.0),
                    MetricTarget::max(EntropyBits, 3.5),
                ];
                T
            }
            SynthProfile::AliasWalk => {
                const T: &[MetricTarget] = &[
                    MetricTarget::min(FedFraction, 0.90),
                    MetricTarget::max(MeanFeedDistance, 60_000.0),
                    MetricTarget::max(RepeatRate, 0.10),
                ];
                T
            }
            SynthProfile::StrideRamp => {
                const T: &[MetricTarget] = &[
                    MetricTarget::min(StrideCoverage, 0.90),
                    MetricTarget::max(RepeatRate, 0.10),
                    MetricTarget::min(MeanWorkingSet, 100.0),
                ];
                T
            }
            SynthProfile::Mix => {
                const T: &[MetricTarget] = &[
                    MetricTarget::max(ClassStability, 0.80),
                    MetricTarget::min(EntropyBits, 1.0),
                ];
                T
            }
        }
    }
}

impl fmt::Display for SynthProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The aggregate metric a [`MetricTarget`] constrains (mirrors the
/// fields of `lvp_predictor::characterize::Summary`; kept here as pure
/// data so the generator crate does not depend on the predictor).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum TargetMetric {
    /// Load-weighted mean value entropy, bits.
    EntropyBits,
    /// Load-weighted mean distinct-value working-set size.
    MeanWorkingSet,
    /// Overall repeat rate (locality at depth 1).
    RepeatRate,
    /// Overall two-delta stride coverage.
    StrideCoverage,
    /// Fraction of loads fed by an earlier same-address store.
    FedFraction,
    /// Mean dynamic-instruction distance to the feeding store.
    MeanFeedDistance,
    /// Fraction of loads at PCs with a half-stable LCT class.
    ClassStability,
    /// Load-weighted predictability score.
    Score,
}

impl TargetMetric {
    /// The report/CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            TargetMetric::EntropyBits => "entropy-bits",
            TargetMetric::MeanWorkingSet => "working-set",
            TargetMetric::RepeatRate => "repeat-rate",
            TargetMetric::StrideCoverage => "stride-coverage",
            TargetMetric::FedFraction => "fed-fraction",
            TargetMetric::MeanFeedDistance => "feed-distance",
            TargetMetric::ClassStability => "class-stability",
            TargetMetric::Score => "score",
        }
    }
}

impl fmt::Display for TargetMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An inclusive tolerance band on one aggregate metric.
#[derive(Debug, Copy, Clone, PartialEq)]
pub struct MetricTarget {
    /// The constrained metric.
    pub metric: TargetMetric,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl MetricTarget {
    /// A lower-bound-only band.
    pub const fn min(metric: TargetMetric, lo: f64) -> MetricTarget {
        MetricTarget {
            metric,
            lo,
            hi: f64::INFINITY,
        }
    }

    /// An upper-bound-only band.
    pub const fn max(metric: TargetMetric, hi: f64) -> MetricTarget {
        MetricTarget {
            metric,
            lo: 0.0,
            hi,
        }
    }

    /// Whether `value` lands inside the band.
    pub fn holds(&self, value: f64) -> bool {
        value >= self.lo && value <= self.hi
    }
}

impl fmt::Display for MetricTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hi.is_infinite() {
            write!(f, "{} >= {}", self.metric, self.lo)
        } else if self.lo == 0.0 {
            write!(f, "{} <= {}", self.metric, self.hi)
        } else {
            write!(f, "{} in [{}, {}]", self.metric, self.lo, self.hi)
        }
    }
}

/// Program size class.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Default)]
pub enum SynthScale {
    /// Benchmark-suite size (~1M dynamic instructions).
    #[default]
    Bench,
    /// Fuzzing size (~50k dynamic instructions).
    Tiny,
}

impl SynthScale {
    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            SynthScale::Bench => "bench",
            SynthScale::Tiny => "tiny",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<SynthScale> {
        match s {
            "bench" => Some(SynthScale::Bench),
            "tiny" => Some(SynthScale::Tiny),
            _ => None,
        }
    }
}

/// A complete generation request; [`generate`] is a pure function of
/// this value.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct SynthSpec {
    /// The targeted shape.
    pub profile: SynthProfile,
    /// Generator seed (varies table sizes, multipliers, offsets within
    /// profile-safe bounds).
    pub seed: u64,
    /// Program size class.
    pub scale: SynthScale,
}

impl SynthSpec {
    /// A benchmark-scale spec.
    pub fn new(profile: SynthProfile, seed: u64) -> SynthSpec {
        SynthSpec {
            profile,
            seed,
            scale: SynthScale::Bench,
        }
    }
}

/// In-program LCG parameters, derived from the spec seed. The
/// multiplier/increment pair is emitted into the generated source so
/// different seeds produce different data streams, not just different
/// sizes.
struct ProgRng {
    seed0: u64,
    mul: u64,
    inc: u64,
}

impl ProgRng {
    fn derive(r: &mut Lcg) -> ProgRng {
        // Keep constants in i64-literal-safe range and odd.
        ProgRng {
            seed0: r.range(1, 1 << 30),
            mul: r.range(1 << 20, 1 << 32) | 1,
            inc: r.range(1, 1 << 30) | 1,
        }
    }

    fn emit_fn(&self) -> String {
        format!(
            "global int seed = {};\n\n\
             fn rnd() -> int {{\n    \
             seed = (seed * {} + {}) & 0x3fffffffffff;\n    \
             return seed >> 7;\n}}\n",
            self.seed0, self.mul, self.inc
        )
    }
}

/// Generates the mini-C source for a spec. Deterministic: byte-identical
/// output for identical specs, in every process and on every platform.
pub fn generate(spec: &SynthSpec) -> String {
    let mut r = Lcg::new(spec.seed ^ ((spec.profile as u64 + 1) << 56));
    let header = format!(
        "// lvp synth v1: profile={} seed={} scale={}\n// {}\n\n",
        spec.profile.name(),
        spec.seed,
        spec.scale.name(),
        spec.profile.description(),
    );
    let body = match spec.profile {
        SynthProfile::PointerChase => gen_pointer_chase(&mut r, spec.scale),
        SynthProfile::PhaseConstant => gen_phase_constant(&mut r, spec.scale),
        SynthProfile::AliasWalk => gen_alias_walk(&mut r, spec.scale),
        SynthProfile::StrideRamp => gen_stride_ramp(&mut r, spec.scale),
        SynthProfile::Mix => gen_mix(&mut r, spec.scale),
    };
    header + &body
}

fn gen_pointer_chase(r: &mut Lcg, scale: SynthScale) -> String {
    // Every design choice here removes a predictable load from the hot
    // loop, so that what remains is almost exclusively the adversarial
    // pair va[h]/vb[h]:
    //
    // * the tables are *frame locals*, not globals — global accesses
    //   under the Toc profile re-load a constant base pointer on every
    //   access, and those loads are 100% predictable;
    // * the perturbing LCG uses 31-bit constants only — `li` with a
    //   >32-bit immediate becomes a constant-pool *load*, again 100%
    //   predictable;
    // * the walk is value-dependent *and* LCG-perturbed, so it is
    //   aperiodic: the context (FCM) backend never sees a repeating
    //   sequence, and the stride backend never sees a stable delta;
    // * the tables outsize the 1024-slot store-to-load backend, whose
    //   untagged word-indexed slots alias away.
    let (n, steps) = match scale {
        SynthScale::Bench => (2048 + 1024 * r.below(3), 24_000 + 1000 * r.below(8)),
        SynthScale::Tiny => (128 + 64 * r.below(3), 1_200 + 100 * r.below(8)),
    };
    let mul = (r.below(1 << 29) << 2) | 1; // odd, < 2^31
    let inc = (r.below(1 << 30)) | 1;
    let seed0 = r.below(1 << 31) | 1;
    format!(
        "const int N = {n};\n\
         const int STEPS = {steps};\n\n\
         fn main() {{\n    \
         int i; int h; int acc; int s;\n    \
         int va[N]; int vb[N];\n    \
         s = {seed0};\n    \
         for (i = 0; i < N; i = i + 1) {{\n        \
         s = (s * {mul} + {inc}) & 0x7fffffff;\n        \
         va[i] = s;\n        \
         s = (s * {mul} + {inc}) & 0x7fffffff;\n        \
         vb[i] = s;\n    \
         }}\n    \
         acc = 0;\n    \
         h = 0;\n    \
         // Value-dependent walk, perturbed each step so it never repeats.\n    \
         for (i = 0; i < STEPS; i = i + 1) {{\n        \
         s = (s * {mul} + {inc}) & 0x7fffffff;\n        \
         h = (va[h] + (s >> 7)) % N;\n        \
         acc = (acc + vb[h]) & 0xfffffff;\n    \
         }}\n    \
         out(h);\n    \
         out(acc);\n\
         }}\n",
    )
}

fn gen_phase_constant(r: &mut Lcg, scale: SynthScale) -> String {
    let (phases, reps) = match scale {
        SynthScale::Bench => (16 + r.below(17), 900 + 50 * r.below(8)),
        SynthScale::Tiny => (8 + r.below(9), 60 + 10 * r.below(5)),
    };
    let a = r.range(100, 10_000);
    let b = r.range(3, 97) | 1;
    let c = r.range(1, 1 << 20);
    format!(
        "const int PHASES = {phases};\n\
         const int REPS = {reps};\n\
         global int cfg[8];\n\n\
         fn main() {{\n    \
         int p; int k; int q; int s;\n    \
         s = 0;\n    \
         for (p = 0; p < PHASES; p = p + 1) {{\n        \
         // Rewriting the table invalidates every CVU-certified entry.\n        \
         for (k = 0; k < 8; k = k + 1) {{ cfg[k] = p * {a} + k * {b} + {c}; }}\n        \
         for (q = 0; q < REPS; q = q + 1) {{\n            \
         s = (s + cfg[0] + cfg[1] + cfg[2] + cfg[3]) & 0xffffffffffff;\n        \
         }}\n    \
         }}\n    \
         out(s & 0xffffffff);\n    \
         out(PHASES);\n\
         }}\n",
    )
}

fn gen_alias_walk(r: &mut Lcg, scale: SynthScale) -> String {
    let (n, steps) = match scale {
        SynthScale::Bench => (256 + 128 * r.below(5), 14_000 + 500 * r.below(9)),
        SynthScale::Tiny => (64 + 32 * r.below(3), 900 + 50 * r.below(7)),
    };
    // Frame-local table and an inline 31-bit LCG, for the same reason
    // as the pointer chase: global accesses and >32-bit immediates both
    // compile to constant-valued loads, which would dilute the fed
    // fraction this profile exists to maximize.
    let mul = (r.below(1 << 29) << 2) | 1;
    let inc = (r.below(1 << 30)) | 1;
    let seed0 = r.below(1 << 31) | 1;
    format!(
        "const int N = {n};\n\
         const int STEPS = {steps};\n\n\
         fn main() {{\n    \
         int i; int h; int s; int v; int acc;\n    \
         int tab[N];\n    \
         s = {seed0};\n    \
         acc = 0;\n    \
         for (i = 0; i < STEPS; i = i + 1) {{\n        \
         s = (s * {mul} + {inc}) & 0x7fffffff;\n        \
         h = (s >> 7) % N;\n        \
         v = tab[h] + i;\n        \
         tab[h] = v;\n        \
         // Read straight back: fed by the store two instructions ago.\n        \
         acc = (acc + tab[h]) & 0xfffffff;\n    \
         }}\n    \
         out(acc);\n    \
         out(STEPS);\n\
         }}\n",
    )
}

fn gen_stride_ramp(r: &mut Lcg, scale: SynthScale) -> String {
    let (n, scans) = match scale {
        SynthScale::Bench => (1024 + 512 * r.below(3), 18 + r.below(12)),
        SynthScale::Tiny => (256 + 64 * r.below(3), 4 + r.below(4)),
    };
    let period = 32 + 8 * r.below(9);
    let v0 = r.range(1, 1 << 20);
    let s0 = r.range(1, 50);
    let m = r.range(3, 31) | 1;
    let a = r.range(1, 97);
    format!(
        "const int N = {n};\n\
         const int SCANS = {scans};\n\
         const int PERIOD = {period};\n\n\
         fn main() {{\n    \
         int i; int t; int s; int stride; int v;\n    \
         int arr[N];\n    \
         // Piecewise-arithmetic fill: the stride changes every PERIOD slots.\n    \
         v = {v0};\n    \
         stride = {s0};\n    \
         for (i = 0; i < N; i = i + 1) {{\n        \
         arr[i] = v;\n        \
         v = v + stride;\n        \
         if (i % PERIOD == PERIOD - 1) {{ stride = (stride * {m} + {a}) % 97 + 1; }}\n    \
         }}\n    \
         s = 0;\n    \
         for (t = 0; t < SCANS; t = t + 1) {{\n        \
         for (i = 0; i < N; i = i + 1) {{\n            \
         s = (s + arr[i]) & 0xfffffff;\n        \
         }}\n    \
         }}\n    \
         out(s);\n    \
         out(SCANS);\n\
         }}\n",
    )
}

fn gen_mix(r: &mut Lcg, scale: SynthScale) -> String {
    let (n, chase_steps, reps, scans) = match scale {
        SynthScale::Bench => (
            512 + 256 * r.below(3),
            8_000 + 500 * r.below(8),
            2_000 + 100 * r.below(10),
            8 + r.below(8),
        ),
        SynthScale::Tiny => (
            128 + 64 * r.below(2),
            600 + 50 * r.below(6),
            150 + 10 * r.below(6),
            2 + r.below(3),
        ),
    };
    let a = r.range(100, 10_000);
    let rng = ProgRng::derive(r);
    format!(
        "const int N = {n};\n\
         const int CHASE = {chase_steps};\n\
         const int REPS = {reps};\n\
         const int SCANS = {scans};\n\
         global int nxt[N];\n\
         global int tab[N];\n\
         global int cfg[8];\n\
         {rnd}\n\
         fn main() {{\n    \
         int i; int j; int t; int s;\n    \
         s = 0;\n    \
         // Phase 1: constants (first half trains the LCT up).\n    \
         for (i = 0; i < 8; i = i + 1) {{ cfg[i] = i * {a} + 7; }}\n    \
         for (i = 0; i < REPS; i = i + 1) {{\n        \
         s = (s + cfg[0] + cfg[1] + cfg[2] + cfg[3]) & 0xffffffffffff;\n    \
         }}\n    \
         // Phase 2: stride scans over a ramp.\n    \
         for (i = 0; i < N; i = i + 1) {{ nxt[i] = i; tab[i] = i * 24 + 3; }}\n    \
         for (j = 0; j < SCANS; j = j + 1) {{\n        \
         for (i = 0; i < N; i = i + 1) {{\n            \
         s = (s + tab[i]) & 0xffffffffffff;\n        \
         }}\n    \
         }}\n    \
         // Phase 3: pointer chase (second half tears the classes down).\n    \
         for (i = N - 1; i > 0; i = i - 1) {{\n        \
         j = rnd() % i;\n        \
         t = nxt[i]; nxt[i] = nxt[j]; nxt[j] = t;\n    \
         }}\n    \
         j = 0;\n    \
         for (i = 0; i < CHASE; i = i + 1) {{\n        \
         j = nxt[j];\n        \
         tab[j] = tab[j] + i;\n        \
         s = (s + tab[j]) & 0xffffffffffff;\n    \
         }}\n    \
         out(j);\n    \
         out(s & 0xffffffff);\n\
         }}\n",
        rnd = rng.emit_fn(),
    )
}

/// The pinned synthesized benchmark-suite members: one per adversarial
/// profile, benchmark scale, seed 1. First call compiles and runs each
/// program once (the interpreter, [`lvp_sim::Machine`], Toc) to record
/// its golden output, against which [`Workload::run_at`] checks every
/// fastsim run; results are memoized for the process lifetime.
pub fn synth_suite() -> &'static [Workload] {
    static SUITE: OnceLock<Vec<Workload>> = OnceLock::new();
    SUITE.get_or_init(|| {
        SYNTH_SUITE_SPECS
            .iter()
            .map(|&(name, profile)| {
                let spec = SynthSpec::new(profile, SYNTH_SUITE_SEED);
                let source: &'static str = Box::leak(generate(&spec).into_boxed_str());
                let program = lvp_lang::compile(source, AsmProfile::Toc)
                    .unwrap_or_else(|e| panic!("synth workload `{name}` failed to compile: {e}"));
                let mut m = lvp_sim::Machine::new(&program);
                m.run(crate::DEFAULT_FUEL)
                    .unwrap_or_else(|e| panic!("synth workload `{name}` failed to run: {e}"));
                assert!(
                    !m.output().is_empty(),
                    "synth workload `{name}` produced no output"
                );
                let golden: &'static [u64] = Box::leak(m.output().to_vec().into_boxed_slice());
                Workload {
                    name,
                    description: profile.description(),
                    input: "seeded self-generation (seed 1)",
                    source,
                    floating_point: false,
                    golden: Some(golden),
                }
            })
            .collect()
    })
}

/// Seed used for the pinned suite members.
pub const SYNTH_SUITE_SEED: u64 = 1;

/// Names and profiles of the pinned suite members.
pub const SYNTH_SUITE_SPECS: [(&str, SynthProfile); 5] = [
    ("synth-chase", SynthProfile::PointerChase),
    ("synth-phase", SynthProfile::PhaseConstant),
    ("synth-alias", SynthProfile::AliasWalk),
    ("synth-ramp", SynthProfile::StrideRamp),
    ("synth-mix", SynthProfile::Mix),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for profile in SynthProfile::ALL {
            for seed in [1u64, 7, 42] {
                let spec = SynthSpec::new(profile, seed);
                assert_eq!(generate(&spec), generate(&spec), "{profile} seed {seed}");
            }
        }
    }

    #[test]
    fn seeds_change_the_program() {
        for profile in SynthProfile::ALL {
            let a = generate(&SynthSpec::new(profile, 1));
            let b = generate(&SynthSpec::new(profile, 2));
            assert_ne!(a, b, "{profile}: seed must vary the program");
        }
    }

    #[test]
    fn every_profile_and_scale_compiles_and_runs() {
        for profile in SynthProfile::ALL {
            for scale in [SynthScale::Bench, SynthScale::Tiny] {
                let spec = SynthSpec {
                    profile,
                    seed: 3,
                    scale,
                };
                let src = generate(&spec);
                for asm in [AsmProfile::Toc, AsmProfile::Gp] {
                    let program = lvp_lang::compile(&src, asm)
                        .unwrap_or_else(|e| panic!("{profile}/{}: {e}", scale.name()));
                    let mut m = lvp_sim::Machine::new(&program);
                    m.run(crate::DEFAULT_FUEL)
                        .unwrap_or_else(|e| panic!("{profile}/{}: {e}", scale.name()));
                    assert!(!m.output().is_empty());
                }
            }
        }
    }

    #[test]
    fn tiny_scale_is_small_enough_to_fuzz() {
        for profile in SynthProfile::ALL {
            let spec = SynthSpec {
                profile,
                seed: 5,
                scale: SynthScale::Tiny,
            };
            let program = lvp_lang::compile(&generate(&spec), AsmProfile::Toc).unwrap();
            let mut m = lvp_sim::Machine::new(&program);
            let executed = m.run(crate::DEFAULT_FUEL).unwrap();
            assert!(
                executed < 600_000,
                "{profile} tiny ran {executed} instructions"
            );
        }
    }

    #[test]
    fn profile_parse_round_trips() {
        for p in SynthProfile::ALL {
            assert_eq!(SynthProfile::parse(p.name()), Some(p));
        }
        assert_eq!(SynthProfile::parse("nonesuch"), None);
        assert_eq!(SynthScale::parse("tiny"), Some(SynthScale::Tiny));
        assert_eq!(SynthScale::parse("huge"), None);
    }

    #[test]
    fn suite_members_have_goldens_and_resolve_by_name() {
        let suite = synth_suite();
        assert_eq!(suite.len(), 5);
        for w in suite {
            assert!(w.golden.is_some(), "{} must carry a golden", w.name);
            assert!(!w.expected_output().is_empty());
            let found = Workload::by_name(w.name).expect("by_name resolves synth");
            assert_eq!(found.source, w.source);
        }
        // The static suite is untouched.
        assert_eq!(crate::suite().len(), 17);
    }

    #[test]
    fn suite_members_pass_self_check_on_both_profiles() {
        for w in synth_suite() {
            let toc = w.run(AsmProfile::Toc).expect("Toc run");
            let gp = w.run(AsmProfile::Gp).expect("Gp run");
            assert_eq!(toc.output, gp.output, "{} profiles agree", w.name);
            assert!(toc.trace.stats().loads > 500, "{} too few loads", w.name);
        }
    }

    #[test]
    fn targets_are_well_formed() {
        for p in SynthProfile::ALL {
            assert!(!p.targets().is_empty(), "{p} declares no targets");
            for t in p.targets() {
                assert!(t.lo <= t.hi, "{p}: inverted band {t}");
            }
        }
    }
}
