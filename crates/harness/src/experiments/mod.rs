//! The experiment registry: every table, figure and ablation of the
//! evaluation as a named, declarative plan over the engine.
//!
//! Each experiment is a function from an [`Engine`] to a [`Report`]; the
//! registry maps names (`table1`, `fig6`, `ablation_lvpt`, ...) to those
//! functions so that one process — `lvp bench <name>...` or `lvp bench
//! --all` — can run any subset while sharing every trace, annotation and
//! timing simulation through the engine's caches.

mod ablations;
mod characterize;
mod figs;
mod methodology;
mod tables;

pub use characterize::spearman;

use crate::engine::Engine;
use crate::error::HarnessError;
use crate::report::Report;
use lvp_isa::Program;
use lvp_predictor::AddressRanges;

/// One registered experiment.
pub struct ExperimentDef {
    /// Registry name, as given to `lvp bench`.
    pub name: &'static str,
    /// One-line description shown by `lvp bench` listings.
    pub title: &'static str,
    /// Builds the report (runs the plan on the given engine).
    pub run: fn(&Engine) -> Result<Report, HarnessError>,
}

/// All experiments, in the paper's presentation order.
const REGISTRY: [ExperimentDef; 23] = [
    ExperimentDef {
        name: "table1",
        title: "benchmark descriptions & dynamic counts",
        run: tables::table1,
    },
    ExperimentDef {
        name: "fig1",
        title: "load value locality @ depth 1 and 16, both profiles",
        run: figs::fig1,
    },
    ExperimentDef {
        name: "fig2",
        title: "PowerPC value locality by data type",
        run: figs::fig2,
    },
    ExperimentDef {
        name: "table2",
        title: "LVP unit configurations",
        run: tables::table2,
    },
    ExperimentDef {
        name: "table3",
        title: "LCT hit rates",
        run: tables::table3,
    },
    ExperimentDef {
        name: "table4",
        title: "constant identification rates",
        run: tables::table4,
    },
    ExperimentDef {
        name: "table5",
        title: "machine latencies",
        run: tables::table5,
    },
    ExperimentDef {
        name: "fig6",
        title: "base machine speedups (620 + 21164)",
        run: figs::fig6,
    },
    ExperimentDef {
        name: "table6",
        title: "620+ speedups",
        run: tables::table6,
    },
    ExperimentDef {
        name: "fig7",
        title: "load verification latency distribution",
        run: figs::fig7,
    },
    ExperimentDef {
        name: "fig8",
        title: "operand-wait (dependency resolution) latencies",
        run: figs::fig8,
    },
    ExperimentDef {
        name: "fig9",
        title: "cycles with bank conflicts",
        run: figs::fig9,
    },
    ExperimentDef {
        name: "ablation_lvpt",
        title: "LVPT size sweep",
        run: ablations::ablation_lvpt,
    },
    ExperimentDef {
        name: "ablation_lct",
        title: "LCT counter width sweep",
        run: ablations::ablation_lct,
    },
    ExperimentDef {
        name: "ablation_stride",
        title: "value predictor families (stride/FCM/BHR)",
        run: ablations::ablation_stride,
    },
    ExperimentDef {
        name: "ablation_opt",
        title: "compiler optimization vs value locality",
        run: ablations::ablation_opt,
    },
    ExperimentDef {
        name: "ablation_machine",
        title: "machine parallelism vs LVP benefit",
        run: ablations::ablation_machine,
    },
    ExperimentDef {
        name: "ablation_dataflow",
        title: "dataflow limits and value prediction",
        run: ablations::ablation_dataflow,
    },
    ExperimentDef {
        name: "ablation_predictor",
        title: "predictor backend zoo x table geometry",
        run: ablations::ablation_predictor,
    },
    ExperimentDef {
        name: "ablation_hints",
        title: "static predictor hints: cold vs hinted annotation",
        run: ablations::ablation_hints,
    },
    ExperimentDef {
        name: "methodology_sampling",
        title: "full-trace vs sampled simulation error",
        run: methodology::methodology_sampling,
    },
    ExperimentDef {
        name: "characterize",
        title: "per-benchmark value-locality metrics + rank-correlation gate",
        run: characterize::characterize,
    },
    ExperimentDef {
        name: "ablation_synth",
        title: "predictor coverage on suite vs synthetic adversaries",
        run: characterize::ablation_synth,
    },
];

/// All registered experiments, in presentation order.
pub fn experiments() -> &'static [ExperimentDef] {
    &REGISTRY
}

/// Looks up one experiment by its registry name.
pub fn experiment(name: &str) -> Option<&'static ExperimentDef> {
    REGISTRY.iter().find(|d| d.name == name)
}

/// Builds the Figure 2 value classifier from a program's layout.
pub fn address_ranges(program: &Program) -> AddressRanges {
    let l = program.layout();
    AddressRanges {
        text: l.text_base()..l.text_end(),
        data: l.data_base()..l.data_end(),
        stack: l.stack_top().saturating_sub(1 << 20)..l.stack_top() + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut seen = std::collections::HashSet::new();
        for d in experiments() {
            assert!(seen.insert(d.name), "duplicate experiment {}", d.name);
            assert_eq!(experiment(d.name).unwrap().name, d.name);
        }
        assert_eq!(experiments().len(), 23);
        assert!(experiment("nope").is_none());
    }
}
