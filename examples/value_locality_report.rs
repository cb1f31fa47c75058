//! Value-locality report for one suite benchmark: overall locality and
//! the Figure 2 breakdown by value class (FP data, integer data,
//! instruction addresses, data addresses).
//!
//! ```sh
//! cargo run --release --example value_locality_report -- compress
//! ```

use lvp::isa::AsmProfile;
use lvp::predictor::{AddressRanges, LocalityMeter, ValueClass};
use lvp::workloads::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "compress".to_string());
    let workload = Workload::by_name(&name)
        .ok_or_else(|| format!("unknown workload `{name}`; see lvp::workloads::suite()"))?;
    println!("{workload}");

    for profile in [AsmProfile::Toc, AsmProfile::Gp] {
        let run = workload.run(profile)?;
        let layout = run.program.layout();
        let ranges = AddressRanges {
            text: layout.text_base()..layout.text_end(),
            data: layout.data_base()..layout.data_end(),
            stack: layout.stack_top() - (1 << 20)..layout.stack_top() + 1,
        };
        let mut meter = LocalityMeter::paper_default().with_ranges(ranges);
        for entry in &run.trace {
            meter.observe(&entry);
        }
        println!(
            "\n== profile {profile} ({} dynamic loads) ==",
            meter.loads()
        );
        println!(
            "  overall:   {:5.1}% @1   {:5.1}% @16",
            100.0 * meter.locality(1),
            100.0 * meter.locality(16)
        );
        for class in ValueClass::ALL {
            let loads = meter.class_loads(class);
            if loads == 0 {
                continue;
            }
            println!(
                "  {:22} {:5.1}% @1   {:5.1}% @16   ({} loads)",
                class.label(),
                100.0 * meter.class_locality(class, 1),
                100.0 * meter.class_locality(class, 16),
                loads
            );
        }
    }
    Ok(())
}
