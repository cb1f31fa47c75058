//! Golden-trace fixtures: small committed LVPT-v2 files that pin the
//! exact bytes both simulation engines must produce for the first 1,024
//! retired instructions of three benchmarks. The prefixes pass through
//! the in-memory `Trace` layout on their way to the writer, and each
//! fixture must also survive a read and a rewrite byte for byte. A
//! change to instruction semantics, the in-memory trace layout, or the
//! LVPT-v2 codec shows up here as a byte diff against a file under
//! version control — catching silent format drift that in-process
//! differential tests (which compare the two engines against *each
//! other*) cannot see.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! LVP_UPDATE_FIXTURES=1 cargo test --test golden_traces
//! ```

use std::path::PathBuf;

use lvp::isa::AsmProfile;
use lvp::sim::{FastSim, Machine, SimError};
use lvp::trace::Trace;
use lvp::workloads::Workload;

/// How many leading entries each fixture pins.
const PREFIX: u64 = 1_024;

/// The pinned benchmarks: one tiny, one string-heavy, one pointer-heavy.
const FIXTURES: &[&str] = &["sc", "grep", "xlisp"];

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}_1k.lvpt"))
}

/// Serializes the first `PREFIX` entries an engine pushed into `trace`
/// as an LVPT-v2 byte stream. Running out of fuel mid-program is the
/// expected way to stop after a prefix; any other fault is a bug.
fn prefix_bytes(trace: &Trace, verdict: Result<u64, SimError>) -> Vec<u8> {
    match verdict {
        Ok(_) | Err(SimError::OutOfFuel { .. }) => {}
        Err(e) => panic!("prefix run faulted: {e}"),
    }
    let mut bytes = Vec::new();
    lvp::trace::write_trace(&mut bytes, trace).expect("serializing to a Vec cannot fail");
    bytes
}

fn fastsim_prefix(name: &str) -> Vec<u8> {
    let w = Workload::by_name(name).expect("fixture benchmark exists");
    let program = w.compile(AsmProfile::Toc).expect("fixture compiles");
    let mut sim = FastSim::new(&program);
    let mut trace = Trace::new();
    let verdict = sim.run_with(PREFIX, |e| trace.push(*e));
    prefix_bytes(&trace, verdict)
}

fn interp_prefix(name: &str) -> Vec<u8> {
    let w = Workload::by_name(name).expect("fixture benchmark exists");
    let program = w.compile(AsmProfile::Toc).expect("fixture compiles");
    let mut machine = Machine::new(&program);
    let mut trace = Trace::new();
    let verdict = machine.run_with(PREFIX, |e| trace.push(*e));
    prefix_bytes(&trace, verdict)
}

#[test]
fn both_engines_reproduce_committed_fixtures() {
    let update = std::env::var_os("LVP_UPDATE_FIXTURES").is_some();
    for name in FIXTURES {
        let path = fixture_path(name);
        let fast = fastsim_prefix(name);
        let interp = interp_prefix(name);
        assert_eq!(
            fast, interp,
            "{name}: engines disagree on the first {PREFIX} entries"
        );
        if update {
            std::fs::write(&path, &fast).expect("write fixture");
            continue;
        }
        let golden = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing fixture {} ({e}); run with LVP_UPDATE_FIXTURES=1 to create it",
                path.display()
            )
        });
        assert_eq!(
            fast,
            golden,
            "{name}: trace bytes drifted from committed fixture {} \
             (if intentional, regenerate with LVP_UPDATE_FIXTURES=1)",
            path.display()
        );
    }
}

#[test]
fn fixtures_round_trip_through_the_reader() {
    for name in FIXTURES {
        let path = fixture_path(name);
        let Ok(bytes) = std::fs::read(&path) else {
            // `both_engines_reproduce_committed_fixtures` reports missing
            // fixtures with regeneration instructions; don't double-fail.
            continue;
        };
        let trace = lvp::trace::read_trace(&bytes[..]).expect("fixture deserializes");
        assert_eq!(trace.len() as u64, PREFIX, "{name}: fixture entry count");
        assert!(
            trace.stats().loads > 0,
            "{name}: a 1k-instruction prefix should contain loads"
        );
        let mut rewritten = Vec::new();
        lvp::trace::write_trace(&mut rewritten, &trace).expect("serializing to a Vec cannot fail");
        assert!(
            rewritten == bytes,
            "{name}: read_trace then write_trace changed the fixture's bytes"
        );
    }
}

/// The in-memory layout's cost on real traces, exactly: 2 bytes per
/// entry, plus 16 per memory access and 80 per distinct static record
/// (an entry without its access's `addr` and `value`). A real trace
/// holds far fewer than the table's 65,535 records, so no entry is
/// escaped.
#[test]
fn fixture_traces_fit_the_column_budget() {
    for name in FIXTURES {
        let Ok(bytes) = std::fs::read(fixture_path(name)) else {
            continue;
        };
        let trace = lvp::trace::read_trace(&bytes[..]).expect("fixture deserializes");
        let mut mem = 0;
        let mut records = std::collections::HashSet::new();
        for e in &trace {
            mem += usize::from(e.mem.is_some());
            records.insert((
                e.pc,
                e.kind,
                e.dst,
                e.srcs,
                e.mem.map(|m| (m.width, m.fp)),
                e.branch,
            ));
        }
        assert!(
            records.len() < trace.len() / 2,
            "{name}: {} records",
            records.len()
        );
        assert_eq!(
            trace.heap_bytes(),
            2 * trace.len() + 16 * mem + 80 * records.len(),
            "{name}: column bytes"
        );
    }
}
