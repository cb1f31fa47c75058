//! The benchmark's workloads: what each one runs, which trace cells it
//! touches, and why it is in the benchmark.
//!
//! The full 17-program suite is left out on purpose: a full `bench --all`
//! takes about a minute, and the full oracle matrix peaks near 14 GB of
//! resident memory, neither of which fits a benchmark that is run dozens
//! of times on a 2-CPU, 16 GB machine. Every workload here runs on the
//! `FAST_WORKLOADS` subset or on the registered `synth-*` adversaries.

use lvp_harness::{experiment, experiments, Engine, ExperimentDef, HarnessError};
use lvp_harness::{ExperimentPlan, FAST_WORKLOADS};
use lvp_isa::AsmProfile;
use lvp_lang::OptLevel;
use lvp_predictor::presets;
use lvp_workloads::synth::SYNTH_SUITE_SPECS;

/// One trace cell: the key under which the engine caches a trace.
pub type Cell = (&'static str, AsmProfile, OptLevel);

/// One benchmark workload.
pub struct WorkloadDef {
    pub name: &'static str,
    /// The engine's workload subset.
    pub engine_names: fn() -> Vec<&'static str>,
    /// Registry experiments to run; `None` runs the whole registry.
    pub experiments: Option<&'static [&'static str]>,
    /// Whether the `check --all` oracle matrix (static passes, CVU
    /// cross-check, value-flow check) runs too.
    pub oracle_matrix: bool,
    /// Every distinct trace cell the run generates. The traced run
    /// replays exactly these and fails if one was not generated.
    pub cells: fn() -> Vec<Cell>,
}

fn fast_names() -> Vec<&'static str> {
    FAST_WORKLOADS.to_vec()
}

fn synth_names() -> Vec<&'static str> {
    SYNTH_SUITE_SPECS.iter().map(|(n, _)| *n).collect()
}

fn cross(names: &[&'static str], profiles: &[AsmProfile], opts: &[OptLevel]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &n in names {
        for &p in profiles {
            for &o in opts {
                cells.push((n, p, o));
            }
        }
    }
    cells
}

/// The workloads. Each comment says why the benchmark runs it; the
/// `why` lines of `BENCHMARK.json` say the same.
pub const WORKLOADS: [WorkloadDef; 3] = [
    // The whole experiment registry on the fast subset: the headline run
    // (`lvp bench --all --fast --threads 2`) without the disk cache. 620
    // timing is about three quarters of stage work, and each trace feeds
    // about 40 consumers.
    WorkloadDef {
        name: "paper-fast",
        engine_names: fast_names,
        experiments: None,
        oracle_matrix: false,
        // fig1/table1/table3/table4 use both profiles, ablation_opt adds
        // O1 on Toc, and ablation_synth pulls in the five synth-* rows.
        cells: || {
            let mut c = cross(
                &FAST_WORKLOADS,
                &[AsmProfile::Toc, AsmProfile::Gp],
                &[OptLevel::O0],
            );
            c.extend(cross(&FAST_WORKLOADS, &[AsmProfile::Toc], &[OptLevel::O1]));
            c.extend(cross(&synth_names(), &[AsmProfile::Toc], &[OptLevel::O0]));
            c
        },
    },
    // The timing-free experiments plus the `check --all --fast` oracle
    // matrix. Prediction, trace generation and the oracles do the work and
    // the timing model none, so a `uarch` change must leave it unchanged,
    // while a one-walk multi-config annotation or a predictor-API port
    // shows up here.
    WorkloadDef {
        name: "predict-oracle",
        engine_names: fast_names,
        experiments: Some(&[
            "table1",
            "fig1",
            "fig2",
            "table3",
            "table4",
            "ablation_lvpt",
            "ablation_lct",
            "ablation_stride",
            "ablation_opt",
            "ablation_predictor",
            "ablation_hints",
            "characterize",
        ]),
        oracle_matrix: true,
        cells: || {
            cross(
                &FAST_WORKLOADS,
                &[AsmProfile::Toc, AsmProfile::Gp],
                &[OptLevel::O0, OptLevel::O1],
            )
        },
    },
    // The timing experiments over the five synth-* adversaries: near-zero
    // prediction coverage, pointer-chase misses bounded by the 4-entry
    // MSHR file, and store-to-load aliasing. A 620 change that helps dense
    // suite code but hurts miss-bound code shows up here.
    WorkloadDef {
        name: "timing-adversarial",
        engine_names: synth_names,
        experiments: Some(&["fig6", "table6", "fig7", "fig8", "fig9", "ablation_machine"]),
        oracle_matrix: false,
        cells: || {
            cross(
                &synth_names(),
                &[AsmProfile::Toc, AsmProfile::Gp],
                &[OptLevel::O0],
            )
        },
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One unit of a workload's run: a registry experiment or one plan of
/// the oracle matrix. Units are what the traced run puts spans around.
#[derive(Clone, Copy)]
pub enum Unit {
    Experiment(&'static ExperimentDef),
    StaticMatrix,
    CrossCheckMatrix,
    ValueFlowMatrix,
}

/// Names of the oracle-matrix units, as they appear in span and metric
/// names.
pub const ORACLE_UNITS: [&str; 3] = ["check_static", "check_cross", "check_value_flow"];

/// The matrix axes `check --all` uses.
const MATRIX_PROFILES: [AsmProfile; 2] = [AsmProfile::Gp, AsmProfile::Toc];
const MATRIX_OPTS: [OptLevel; 2] = [OptLevel::O0, OptLevel::O1];

/// A labelled output of a unit: a rendered report, or one oracle cell's
/// verdict. The benchmark fingerprints the text.
pub type Output = (String, Result<String, HarnessError>);

impl Unit {
    pub fn name(&self) -> &'static str {
        match self {
            Unit::Experiment(d) => d.name,
            Unit::StaticMatrix => ORACLE_UNITS[0],
            Unit::CrossCheckMatrix => ORACLE_UNITS[1],
            Unit::ValueFlowMatrix => ORACLE_UNITS[2],
        }
    }

    pub fn run(&self, engine: &Engine) -> Vec<Output> {
        match self {
            Unit::Experiment(d) => {
                vec![(d.name.to_string(), (d.run)(engine).map(|r| r.render_text()))]
            }
            Unit::StaticMatrix => static_matrix(engine),
            Unit::CrossCheckMatrix => {
                let plan =
                    matrix_plan(engine).map(|job, ctx| Ok(ctx.job_cross_check(job)?.to_string()));
                matrix_outputs(engine, "cross", engine.run(plan))
            }
            Unit::ValueFlowMatrix => {
                let plan =
                    matrix_plan(engine).map(|job, ctx| Ok(ctx.job_value_flow(job)?.to_string()));
                matrix_outputs(engine, "value-flow", engine.run(plan))
            }
        }
    }
}

impl WorkloadDef {
    /// The units of one run, in registry order (the seed reorders them).
    pub fn units(&self) -> Vec<Unit> {
        let mut units: Vec<Unit> = match self.experiments {
            None => experiments().iter().map(Unit::Experiment).collect(),
            Some(names) => names
                .iter()
                .map(|n| Unit::Experiment(experiment(n).expect("registered experiment")))
                .collect(),
        };
        if self.oracle_matrix {
            units.extend([
                Unit::StaticMatrix,
                Unit::CrossCheckMatrix,
                Unit::ValueFlowMatrix,
            ]);
        }
        units
    }
}

fn matrix_cells(engine: &Engine) -> Vec<String> {
    let mut labels = Vec::new();
    for w in engine.suite() {
        for p in MATRIX_PROFILES {
            for o in MATRIX_OPTS {
                labels.push(format!("{}/{p}/{o:?}", w.name));
            }
        }
    }
    labels
}

fn matrix_plan(engine: &Engine) -> ExperimentPlan {
    ExperimentPlan::new()
        .workloads(engine.suite().to_vec())
        .profiles(MATRIX_PROFILES)
        .opt_levels(MATRIX_OPTS)
        .configs([presets::simple()])
}

/// Labels a matrix plan's per-cell verdicts; a failed plan fails every
/// cell, so the set of labels is the same either way.
fn matrix_outputs(
    engine: &Engine,
    kind: &str,
    verdicts: Result<Vec<String>, HarnessError>,
) -> Vec<Output> {
    let labels = matrix_cells(engine);
    match verdicts {
        Ok(v) => labels
            .into_iter()
            .zip(v)
            .map(|(l, text)| (format!("{kind}:{l}"), Ok(text)))
            .collect(),
        Err(e) => labels
            .into_iter()
            .map(|l| (format!("{kind}:{l}"), Err(e.clone())))
            .collect(),
    }
}

/// The static half of `check --all`: verifier, memory-provenance and
/// value-flow diagnostics for every program of the matrix, computed on
/// the calling thread as the CLI does.
fn static_matrix(engine: &Engine) -> Vec<Output> {
    let mut out = Vec::new();
    for w in engine.suite() {
        for p in MATRIX_PROFILES {
            for o in MATRIX_OPTS {
                let label = format!("static:{}/{p}/{o:?}", w.name);
                let text = lvp_lang::compile_with(w.source, p, o)
                    .map(|program| {
                        let mut diags = lvp_analyze::verify(&program);
                        diags.extend(lvp_analyze::analyze_memory(&program).diagnostics);
                        diags.extend(lvp_analyze::analyze_value_flow(&program).diagnostics);
                        lvp_analyze::sort_and_dedupe(&mut diags);
                        diags.iter().map(|d| format!("{d}\n")).collect::<String>()
                    })
                    .map_err(|e| {
                        HarnessError::new(lvp_harness::Phase::Analyze, w.name, e.to_string())
                    });
                out.push((label, text));
            }
        }
    }
    out
}
