//! Engine selection: the pre-decoded fastsim backend vs. the
//! instruction-by-instruction interpreter it is differentially tested
//! against.

use crate::fastsim::FastSim;
use crate::machine::{Machine, SimError};
use lvp_isa::Program;
use lvp_trace::Trace;
use std::fmt;

/// Which functional-simulation backend generates traces.
///
/// Both engines produce bit-identical `TraceEntry` streams, outputs,
/// faults, and fuel accounting; [`SimEngine::Fast`] pre-decodes the
/// program into micro-ops and is several times faster, and is the
/// default everywhere. [`SimEngine::Interp`] is the original
/// interpreter, retained as the differential-testing oracle.
#[derive(Debug, Copy, Clone, Default, PartialEq, Eq, Hash)]
pub enum SimEngine {
    /// Pre-decoded micro-op engine ([`FastSim`]).
    #[default]
    Fast,
    /// Instruction-by-instruction interpreter ([`Machine`]).
    Interp,
}

impl SimEngine {
    /// All engines, oracle last (useful for differential sweeps).
    pub fn all() -> [SimEngine; 2] {
        [SimEngine::Fast, SimEngine::Interp]
    }

    /// Parses a CLI name (`fast` | `interp`).
    pub fn parse(s: &str) -> Option<SimEngine> {
        match s {
            "fast" => Some(SimEngine::Fast),
            "interp" => Some(SimEngine::Interp),
            _ => None,
        }
    }

    /// The CLI name of this engine.
    pub fn name(self) -> &'static str {
        match self {
            SimEngine::Fast => "fast",
            SimEngine::Interp => "interp",
        }
    }

    /// Runs `program` to completion on this engine, collecting the full
    /// trace and the architectural outputs the harness consumes.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`SimError`] (fault or out-of-fuel).
    pub fn run_traced(self, program: &Program, fuel: u64) -> Result<EngineRun, SimError> {
        match self {
            SimEngine::Fast => {
                let mut m = FastSim::new(program);
                let trace = m.run_traced(fuel)?;
                Ok(EngineRun {
                    trace,
                    output: m.output().to_vec(),
                    checksum: m.output_checksum(),
                })
            }
            SimEngine::Interp => {
                let mut m = Machine::new(program);
                let trace = m.run_traced(fuel)?;
                Ok(EngineRun {
                    trace,
                    output: m.output().to_vec(),
                    checksum: m.output_checksum(),
                })
            }
        }
    }
}

impl fmt::Display for SimEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The products of one traced engine run.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// The full instruction trace.
    pub trace: Trace,
    /// Values emitted on the output channel.
    pub output: Vec<u64>,
    /// Order-sensitive digest of the output channel.
    pub checksum: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_name_round_trip() {
        for e in SimEngine::all() {
            assert_eq!(SimEngine::parse(e.name()), Some(e));
        }
        assert_eq!(SimEngine::parse("warp"), None);
        assert_eq!(SimEngine::default(), SimEngine::Fast);
    }

    #[test]
    fn engines_agree_on_a_smoke_program() {
        let p = lvp_isa::Assembler::new(lvp_isa::AsmProfile::Gp)
            .assemble("main: li a0, 10\n li a1, 0\nloop: add a1, a1, a0\n addi a0, a0, -1\n bnez a0, loop\n out a1\n halt\n")
            .unwrap();
        let fast = SimEngine::Fast.run_traced(&p, 10_000).unwrap();
        let interp = SimEngine::Interp.run_traced(&p, 10_000).unwrap();
        assert_eq!(fast.trace, interp.trace);
        assert_eq!(fast.output, interp.output);
        assert_eq!(fast.checksum, interp.checksum);
        assert_eq!(fast.output, vec![55]);
    }
}
