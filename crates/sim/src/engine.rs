//! One entry point over both simulation engines: the pre-decoded
//! fastsim backend that generates every trace, and the
//! instruction-by-instruction interpreter it is differentially tested
//! against.

use crate::fastsim::FastSim;
use crate::machine::{Machine, SimError};
use lvp_isa::Program;
use lvp_trace::Trace;

/// A functional-simulation backend.
///
/// Both engines produce bit-identical `TraceEntry` streams, outputs,
/// faults, and fuel accounting; [`SimEngine::Fast`] pre-decodes the
/// program into micro-ops, is several times faster, and generates every
/// trace the experiments use. [`SimEngine::Interp`] is the original
/// interpreter, retained as the differential-testing oracle.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum SimEngine {
    /// Pre-decoded micro-op engine ([`FastSim`]).
    Fast,
    /// Instruction-by-instruction interpreter ([`Machine`]).
    Interp,
}

impl SimEngine {
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
