//! lvp-perf: the in-tree, dependency-free microbenchmark subsystem.
//!
//! A tiny benchmark runner over the repository's real hot paths — the
//! per-entry [`LvpUnit`] dispatch of every predictor kind, the oracles,
//! the 620/21164 cycle models, the LVPT-v2 block codec, trace
//! generation and the static analyses — each on real suite code (the
//! xlisp trace, the `synth-chase` trace, the fast workloads' programs),
//! with:
//!
//! * a fixed iteration policy ([`PerfConfig`]: 5 timed iterations after
//!   1 warmup),
//! * warmup + N timed iterations per bench, reported as
//!   median/p10/p90 nanoseconds plus the raw samples,
//! * a stable `lvp-perf/1` JSON report ([`PerfReport::to_json`]), which
//!   `scripts/perf_gate.sh` reads and `results/perf_baseline.json`
//!   records for one host.
//!
//! Timing is wall-clock and therefore machine-dependent: a report is
//! only comparable with one from the same machine, which is why the
//! gate builds the base commit and alternates the two builds on one
//! host. *Everything else* — bench registry, inputs, sample count, JSON
//! shape — is deterministic.

use lvp_predictor::presets;
use lvp_predictor::{LvpConfig, LvpUnit, PredictorKind};
use lvp_trace::{read_trace, write_trace, Trace};
use lvp_uarch::{simulate_21164, simulate_620, Alpha21164Config, Ppc620Config};
use std::fmt;
use std::hint::black_box;
use std::time::Instant;

/// The format tag every `lvp-perf` report and baseline carries.
pub const FORMAT: &str = "lvp-perf/1";

/// Iteration policy for one runner invocation: `lvp perf` runs the
/// default, and tests pass smaller counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfConfig {
    /// Timed iterations per bench (median is taken over these).
    pub iters: u32,
    /// Untimed warmup iterations per bench.
    pub warmup: u32,
}

impl Default for PerfConfig {
    fn default() -> PerfConfig {
        PerfConfig {
            iters: 5,
            warmup: 1,
        }
    }
}

/// Everything that can go wrong configuring a perf run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerfError {
    /// `--bench` named a bench that is not registered.
    UnknownBench(String),
}

impl fmt::Display for PerfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfError::UnknownBench(name) => {
                write!(f, "unknown bench {name:?} (see `lvp perf --list`)")
            }
        }
    }
}

impl std::error::Error for PerfError {}

/// One registered microbenchmark.
pub struct BenchDef {
    /// Stable bench name (the JSON key and `--bench` argument).
    pub name: &'static str,
    /// One-line description shown by `lvp perf --list`.
    pub what: &'static str,
    run: fn(&PerfConfig) -> Vec<u64>,
}

/// Measured result of one bench.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchResult {
    /// The bench's registered name.
    pub name: String,
    /// Median of the timed samples, nanoseconds.
    pub median_ns: u64,
    /// 10th-percentile sample, nanoseconds.
    pub p10_ns: u64,
    /// 90th-percentile sample, nanoseconds.
    pub p90_ns: u64,
    /// Raw timed samples in measurement order, nanoseconds.
    pub samples_ns: Vec<u64>,
}

/// A full runner invocation: config plus per-bench results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfReport {
    /// Iteration policy the samples were collected under.
    pub config: PerfConfig,
    /// One result per executed bench, in registry order.
    pub results: Vec<BenchResult>,
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// Warmup + timed iterations around `f`, excluding setup (done by the
/// caller before this) from every sample.
fn sample<T>(cfg: &PerfConfig, mut f: impl FnMut() -> T) -> Vec<u64> {
    for _ in 0..cfg.warmup {
        black_box(f());
    }
    (0..cfg.iters)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as u64
        })
        .collect()
}

fn bench_alias_fixpoint(cfg: &PerfConfig) -> Vec<u64> {
    // One analysis pass is ~0.1 ms — far too small for a stable sample
    // on a busy machine — so each iteration sweeps the whole fast
    // workload subset several times.
    let programs: Vec<_> = ["sc", "xlisp", "grep", "doduc"]
        .iter()
        .map(|name| {
            let w = lvp_workloads::Workload::by_name(name).expect("suite workload");
            lvp_lang::compile_with(w.source, lvp_isa::AsmProfile::Toc, lvp_lang::OptLevel::O1)
                .expect("suite workload compiles")
        })
        .collect();
    sample(cfg, || {
        let mut last = None;
        for _ in 0..16 {
            for p in &programs {
                last = Some(lvp_analyze::analyze_memory(p));
            }
        }
        last
    })
}

/// The workload the trace-generation and real-trace benches run: xlisp
/// (1.24M dynamic instructions) — large enough that per-entry cost
/// dominates, small enough for the fast subset.
fn trace_bench_program(profile: lvp_isa::AsmProfile) -> lvp_isa::Program {
    let w = lvp_workloads::Workload::by_name("xlisp").expect("suite workload");
    w.compile(profile).expect("suite workload compiles")
}

/// The real xlisp trace under `profile`.
fn real_trace(profile: lvp_isa::AsmProfile) -> Trace {
    lvp_sim::FastSim::new(&trace_bench_program(profile))
        .run_traced(lvp_workloads::DEFAULT_FUEL)
        .expect("suite workload completes")
}

/// `LvpUnit::annotate` under `config` over the real xlisp trace.
fn bench_annotate_real(cfg: &PerfConfig, config: LvpConfig) -> Vec<u64> {
    let trace = real_trace(lvp_isa::AsmProfile::Toc);
    sample(cfg, || LvpUnit::new(config.clone()).annotate(&trace))
}

/// The Simple geometry with the `kind` backend.
fn simple_with(kind: PredictorKind) -> LvpConfig {
    presets::simple().builder().kind(kind).build()
}

/// LVPT-v2 block encode + CRC32 + decode of the first 262,144 entries
/// of the real xlisp (Toc) trace.
fn bench_trace_codec_real(cfg: &PerfConfig) -> Vec<u64> {
    let trace: Trace = real_trace(lvp_isa::AsmProfile::Toc)
        .iter()
        .take(262_144)
        .collect();
    let mut encoded = Vec::new();
    write_trace(&mut encoded, &trace).expect("in-memory encode cannot fail");
    sample(cfg, || {
        let mut buf = Vec::with_capacity(encoded.len());
        write_trace(&mut buf, &trace).expect("in-memory encode cannot fail");
        read_trace(buf.as_slice()).expect("roundtrip decode cannot fail")
    })
}

/// The value-flow check's dynamic side ([`value_flow_check_with`], the
/// static report computed once outside the samples) over the real
/// xlisp trace.
///
/// [`value_flow_check_with`]: crate::value_flow_check_with
fn bench_valueflow_real(cfg: &PerfConfig) -> Vec<u64> {
    let program = trace_bench_program(lvp_isa::AsmProfile::Toc);
    let trace = real_trace(lvp_isa::AsmProfile::Toc);
    let report = lvp_analyze::analyze_value_flow(&program);
    sample(cfg, || {
        crate::value_flow_check_with(&report, &program, &trace, "xlisp/toc/O0".into())
    })
}

/// The CVU cross-check ([`cross_check`](crate::cross_check), Simple
/// preset) over the real xlisp trace.
fn bench_crosscheck_real(cfg: &PerfConfig) -> Vec<u64> {
    let program = trace_bench_program(lvp_isa::AsmProfile::Toc);
    let trace = real_trace(lvp_isa::AsmProfile::Toc);
    sample(cfg, || {
        crate::cross_check(&program, &trace, &presets::simple(), "xlisp/toc/O0".into())
    })
}

/// `simulate_620` over the real xlisp trace with Simple-preset outcomes.
fn bench_sim_620_real(cfg: &PerfConfig, config: Ppc620Config) -> Vec<u64> {
    let trace = real_trace(lvp_isa::AsmProfile::Toc);
    let outcomes = LvpUnit::new(presets::simple()).annotate(&trace);
    sample(cfg, || simulate_620(&trace, Some(&outcomes), &config))
}

/// `simulate_620` (base config) over the registered `synth-chase` trace
/// (Toc, O0) with Simple-preset outcomes: the MSHR-bound pointer chase
/// that the `timing-adversarial` benchmark times.
fn bench_sim_620_synth_chase(cfg: &PerfConfig) -> Vec<u64> {
    let w = lvp_workloads::Workload::by_name("synth-chase").expect("registered synth workload");
    let trace = w
        .run(lvp_isa::AsmProfile::Toc)
        .expect("synth workload completes")
        .trace;
    let outcomes = LvpUnit::new(presets::simple()).annotate(&trace);
    let config = Ppc620Config::base();
    sample(cfg, || simulate_620(&trace, Some(&outcomes), &config))
}

/// `simulate_21164` over the real xlisp trace with Simple-preset
/// outcomes, on the Gp profile the experiments time the 21164 with.
fn bench_sim_21164_real(cfg: &PerfConfig) -> Vec<u64> {
    let trace = real_trace(lvp_isa::AsmProfile::Gp);
    let outcomes = LvpUnit::new(presets::simple()).annotate(&trace);
    let config = Alpha21164Config::base();
    sample(cfg, || simulate_21164(&trace, Some(&outcomes), &config))
}

fn bench_fastsim_trace(cfg: &PerfConfig) -> Vec<u64> {
    let program = trace_bench_program(lvp_isa::AsmProfile::Toc);
    sample(cfg, || {
        let mut sim = lvp_sim::FastSim::new(&program);
        sim.run_traced(lvp_workloads::DEFAULT_FUEL)
            .expect("suite workload completes")
    })
}

fn bench_interp_trace(cfg: &PerfConfig) -> Vec<u64> {
    let program = trace_bench_program(lvp_isa::AsmProfile::Toc);
    sample(cfg, || {
        let mut sim = lvp_sim::Machine::new(&program);
        sim.run_traced(lvp_workloads::DEFAULT_FUEL)
            .expect("suite workload completes")
    })
}

fn bench_fastsim_stream(cfg: &PerfConfig) -> Vec<u64> {
    let program = trace_bench_program(lvp_isa::AsmProfile::Toc);
    // Streaming (no trace materialization): isolates pure engine
    // dispatch cost from the memory-bandwidth-bound entry writes.
    sample(cfg, || {
        let mut sim = lvp_sim::FastSim::new(&program);
        let mut loads = 0u64;
        sim.run_with(lvp_workloads::DEFAULT_FUEL, |e| {
            loads += u64::from(e.mem.is_some());
        })
        .expect("suite workload completes");
        loads
    })
}

fn bench_interp_stream(cfg: &PerfConfig) -> Vec<u64> {
    let program = trace_bench_program(lvp_isa::AsmProfile::Toc);
    sample(cfg, || {
        let mut sim = lvp_sim::Machine::new(&program);
        let mut loads = 0u64;
        sim.run_with(lvp_workloads::DEFAULT_FUEL, |e| {
            loads += u64::from(e.mem.is_some());
        })
        .expect("suite workload completes");
        loads
    })
}

fn bench_ssa_scev(cfg: &PerfConfig) -> Vec<u64> {
    // Same shaping as alias_fixpoint: one value-flow pass (SSA build +
    // scalar evolution + classification) is sub-millisecond, so each
    // iteration sweeps the fast workload subset several times.
    let programs: Vec<_> = ["sc", "xlisp", "grep", "doduc"]
        .iter()
        .map(|name| {
            let w = lvp_workloads::Workload::by_name(name).expect("suite workload");
            lvp_lang::compile_with(w.source, lvp_isa::AsmProfile::Toc, lvp_lang::OptLevel::O1)
                .expect("suite workload compiles")
        })
        .collect();
    sample(cfg, || {
        let mut last = None;
        for _ in 0..16 {
            for p in &programs {
                last = Some(lvp_analyze::analyze_value_flow(p));
            }
        }
        last
    })
}

/// The bench registry, in reporting order.
pub fn benches() -> &'static [BenchDef] {
    &[
        BenchDef {
            name: "annotate_real_xlisp",
            what: "LvpUnit::annotate (Simple preset) over the real xlisp trace",
            run: |cfg| bench_annotate_real(cfg, presets::simple()),
        },
        BenchDef {
            name: "annotate_real_xlisp_stride",
            what: "LvpUnit::annotate (Simple geometry, two-delta stride) over the real xlisp trace",
            run: |cfg| bench_annotate_real(cfg, simple_with(PredictorKind::Stride)),
        },
        BenchDef {
            name: "annotate_real_xlisp_context",
            what: "LvpUnit::annotate (Simple geometry, order-4 FCM) over the real xlisp trace",
            run: |cfg| bench_annotate_real(cfg, simple_with(PredictorKind::Context)),
        },
        BenchDef {
            name: "annotate_real_xlisp_s2l",
            what: "LvpUnit::annotate (Simple geometry, store-to-load) over the real xlisp trace",
            run: |cfg| bench_annotate_real(cfg, simple_with(PredictorKind::StoreToLoad)),
        },
        BenchDef {
            name: "annotate_real_xlisp_hybrid",
            what: "LvpUnit::annotate (Simple geometry, hybrid) over the real xlisp trace",
            run: |cfg| bench_annotate_real(cfg, simple_with(PredictorKind::Hybrid)),
        },
        BenchDef {
            name: "annotate_real_xlisp_limit",
            what: "LvpUnit::annotate (Limit preset, 128-entry CVU) over the real xlisp trace",
            run: |cfg| bench_annotate_real(cfg, presets::limit()),
        },
        BenchDef {
            name: "valueflow_real_xlisp",
            what: "value-flow check (stride, constant, backend and LCT oracles) over the real xlisp trace",
            run: |cfg| bench_valueflow_real(cfg),
        },
        BenchDef {
            name: "crosscheck_real_xlisp",
            what: "CVU cross-check (Simple preset) over the real xlisp trace",
            run: |cfg| bench_crosscheck_real(cfg),
        },
        BenchDef {
            name: "sim_620_real_xlisp",
            what: "simulate_620 (base config) over the real xlisp trace, Simple outcomes",
            run: |cfg| bench_sim_620_real(cfg, Ppc620Config::base()),
        },
        BenchDef {
            name: "sim_620plus_real_xlisp",
            what: "simulate_620 (620+ config) over the real xlisp trace, Simple outcomes",
            run: |cfg| bench_sim_620_real(cfg, Ppc620Config::plus()),
        },
        BenchDef {
            name: "sim_620_synth_chase",
            what: "simulate_620 (base config) over the synth-chase trace, Simple outcomes",
            run: |cfg| bench_sim_620_synth_chase(cfg),
        },
        BenchDef {
            name: "sim_21164_real_xlisp",
            what: "simulate_21164 over the real xlisp trace (Gp), Simple outcomes",
            run: |cfg| bench_sim_21164_real(cfg),
        },
        BenchDef {
            name: "trace_codec_real_xlisp",
            what: "LVPT-v2 block encode + CRC32 + decode, first 256K entries of the real xlisp trace",
            run: |cfg| bench_trace_codec_real(cfg),
        },
        BenchDef {
            name: "fastsim_trace_xlisp",
            what: "fastsim engine: full xlisp trace generation (1.24M instrs)",
            run: |cfg| bench_fastsim_trace(cfg),
        },
        BenchDef {
            name: "fastsim_interp_xlisp",
            what: "interpreter engine: full xlisp trace generation (1.24M instrs)",
            run: |cfg| bench_interp_trace(cfg),
        },
        BenchDef {
            name: "fastsim_stream_xlisp",
            what: "fastsim engine: streaming xlisp run (no trace materialization)",
            run: |cfg| bench_fastsim_stream(cfg),
        },
        BenchDef {
            name: "fastsim_interp_stream_xlisp",
            what: "interpreter engine: streaming xlisp run (no trace materialization)",
            run: |cfg| bench_interp_stream(cfg),
        },
        BenchDef {
            name: "alias_fixpoint",
            what: "alias-analysis fixpoint, 16 sweeps of the 4 fast workloads",
            run: |cfg| bench_alias_fixpoint(cfg),
        },
        BenchDef {
            name: "ssa_scev",
            what: "value-flow pass (SSA + SCEV + classify), 16 sweeps of the 4 fast workloads",
            run: |cfg| bench_ssa_scev(cfg),
        },
    ]
}

/// Resolves a bench selection: explicit names (validated), else the
/// whole registry.
///
/// # Errors
///
/// [`PerfError::UnknownBench`] for a name not in the registry.
pub fn select<'a>(names: &[String]) -> Result<Vec<&'a BenchDef>, PerfError> {
    let all = benches();
    if names.is_empty() {
        return Ok(all.iter().collect());
    }
    names
        .iter()
        .map(|n| {
            all.iter()
                .find(|b| b.name == n.as_str())
                .ok_or_else(|| PerfError::UnknownBench(n.clone()))
        })
        .collect()
}

/// Nearest-rank percentile of a sorted sample set.
fn percentile(sorted: &[u64], pct: u64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let idx = (pct * (sorted.len() as u64 - 1) + 50) / 100;
    sorted[idx as usize]
}

/// Runs the given benches under `cfg`, calling `progress` with each
/// bench name as it starts.
pub fn run(cfg: PerfConfig, selection: &[&BenchDef], mut progress: impl FnMut(&str)) -> PerfReport {
    let mut results = Vec::with_capacity(selection.len());
    for bench in selection {
        progress(bench.name);
        let samples = (bench.run)(&cfg);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        results.push(BenchResult {
            name: bench.name.to_string(),
            median_ns: percentile(&sorted, 50),
            p10_ns: percentile(&sorted, 10),
            p90_ns: percentile(&sorted, 90),
            samples_ns: samples,
        });
    }
    PerfReport {
        config: cfg,
        results,
    }
}

// ---------------------------------------------------------------------
// lvp-perf/1 JSON
// ---------------------------------------------------------------------

impl PerfReport {
    /// Renders the stable `lvp-perf/1` document (4-space indent, one
    /// item per line, fixed key order): the `--json` output that
    /// `scripts/perf_gate.sh` reads, and the format of
    /// `results/perf_baseline.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("    \"format\": \"{FORMAT}\",\n"));
        out.push_str(&format!("    \"iters\": {},\n", self.config.iters));
        out.push_str(&format!("    \"warmup\": {},\n", self.config.warmup));
        out.push_str("    \"benches\": [");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("        {\n");
            out.push_str(&format!("            \"name\": \"{}\",\n", r.name));
            out.push_str(&format!("            \"median_ns\": {},\n", r.median_ns));
            out.push_str(&format!("            \"p10_ns\": {},\n", r.p10_ns));
            out.push_str(&format!("            \"p90_ns\": {},\n", r.p90_ns));
            let samples: Vec<String> = r.samples_ns.iter().map(|s| s.to_string()).collect();
            out.push_str(&format!(
                "            \"samples_ns\": [{}]\n",
                samples.join(", ")
            ));
            out.push_str("        }");
        }
        out.push_str(if self.results.is_empty() {
            "]\n"
        } else {
            "\n    ]\n"
        });
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_fast_subset_nonempty() {
        // Every layer keeps a bench on real code: each predictor kind's
        // dispatch, and the trace codec.
        let all = benches();
        let mut names: Vec<&str> = all.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate bench names");
        for kind in PredictorKind::ALL {
            let name = match kind {
                PredictorKind::LastValue => "annotate_real_xlisp",
                PredictorKind::Stride => "annotate_real_xlisp_stride",
                PredictorKind::Context => "annotate_real_xlisp_context",
                PredictorKind::StoreToLoad => "annotate_real_xlisp_s2l",
                PredictorKind::Hybrid => "annotate_real_xlisp_hybrid",
            };
            assert!(names.contains(&name), "no {name} bench for {kind}");
        }
        assert!(names.iter().any(|n| n.starts_with("trace_codec_")));
    }

    #[test]
    fn select_validates_names() {
        assert_eq!(select(&[]).unwrap().len(), benches().len());
        let picked = select(&["sim_620_real_xlisp".to_string()]).unwrap();
        assert_eq!(picked.len(), 1);
        assert!(matches!(
            select(&["nope".to_string()]),
            Err(PerfError::UnknownBench(n)) if n == "nope"
        ));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&sorted, 50), 30);
        assert_eq!(percentile(&sorted, 10), 10);
        assert_eq!(percentile(&sorted, 90), 50);
        assert_eq!(percentile(&[7], 50), 7);
    }

    #[test]
    fn json_writer_output_is_pinned() {
        // `scripts/perf_gate.sh` reads `benches[].name` and
        // `benches[].samples_ns` from this exact layout.
        let two = PerfReport {
            config: PerfConfig {
                iters: 3,
                warmup: 1,
            },
            results: vec![
                BenchResult {
                    name: "annotate_real_xlisp".to_string(),
                    median_ns: 100,
                    p10_ns: 90,
                    p90_ns: 120,
                    samples_ns: vec![120, 90, 100],
                },
                BenchResult {
                    name: "trace_codec_real_xlisp".to_string(),
                    median_ns: 0,
                    p10_ns: 0,
                    p90_ns: 0,
                    samples_ns: vec![0],
                },
            ],
        };
        assert_eq!(
            two.to_json(),
            r#"{
    "format": "lvp-perf/1",
    "iters": 3,
    "warmup": 1,
    "benches": [
        {
            "name": "annotate_real_xlisp",
            "median_ns": 100,
            "p10_ns": 90,
            "p90_ns": 120,
            "samples_ns": [120, 90, 100]
        },
        {
            "name": "trace_codec_real_xlisp",
            "median_ns": 0,
            "p10_ns": 0,
            "p90_ns": 0,
            "samples_ns": [0]
        }
    ]
}
"#
        );
        let empty = PerfReport {
            config: PerfConfig::default(),
            results: Vec::new(),
        };
        assert_eq!(
            empty.to_json(),
            r#"{
    "format": "lvp-perf/1",
    "iters": 5,
    "warmup": 1,
    "benches": []
}
"#
        );
    }

    #[test]
    fn runner_respects_iteration_counts() {
        // A synthetic bench through the public runner machinery.
        let cfg = PerfConfig {
            iters: 4,
            warmup: 0,
        };
        let samples = sample(&cfg, || 2 + 2);
        assert_eq!(samples.len(), 4);
        let defs = select(&["alias_fixpoint".to_string()]).unwrap();
        let report = run(
            PerfConfig {
                iters: 2,
                warmup: 0,
            },
            &defs,
            |_| {},
        );
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.results[0].samples_ns.len(), 2);
        assert!(report.results[0].median_ns > 0);
    }
}
