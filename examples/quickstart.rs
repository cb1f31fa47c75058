//! Quickstart: compile a tiny program, run it, measure its value
//! locality, and drive the LVP unit over its loads.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use lvp::isa::AsmProfile;
use lvp::lang::compile;
use lvp::predictor::presets;
use lvp::predictor::{LocalityMeter, LvpUnit};
use lvp::sim::Machine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A little program with classic value-locality idioms: a lookup
    // table (run-time constants) and a loop-carried counter (varies).
    let source = r#"
        global int table[8] = {10, 20, 30, 40, 50, 60, 70, 80};
        global int sum = 0;

        fn main() {
            int i;
            for (i = 0; i < 1000; i = i + 1) {
                sum = sum + table[i % 8];
            }
            out(sum);
        }
    "#;

    // Compile under the PowerPC-style profile (TOC address loads).
    let program = compile(source, AsmProfile::Toc)?;
    let mut machine = Machine::new(&program);
    let trace = machine.run_traced(10_000_000)?;
    println!("program output: {:?}", machine.output());
    println!(
        "executed {} instructions, {} loads",
        trace.stats().instructions,
        trace.stats().loads
    );

    // Phase 2a: measure value locality as in the paper's Figure 1.
    let mut meter = LocalityMeter::paper_default();
    for entry in &trace {
        meter.observe(&entry);
    }
    println!(
        "value locality: {:.1}% at depth 1, {:.1}% at depth 16",
        100.0 * meter.locality(1),
        100.0 * meter.locality(16)
    );

    // Phase 2b: run the LVP unit (Simple configuration) over the trace.
    let mut unit = LvpUnit::new(presets::simple());
    let outcomes = unit.annotate(&trace);
    let stats = unit.stats();
    println!(
        "LVP Simple: {} predictions, {:.1}% accurate, {:.1}% of loads CVU-verified constants",
        stats.predictions,
        100.0 * stats.accuracy(),
        100.0 * stats.constant_rate()
    );
    println!(
        "first ten load outcomes: {:?}",
        &outcomes[..10.min(outcomes.len())]
    );
    Ok(())
}
