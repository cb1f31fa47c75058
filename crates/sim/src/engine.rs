//! The production entry point of functional simulation: the
//! pre-decoded fastsim engine, which generates every trace. The
//! instruction-by-instruction interpreter ([`Machine`](crate::Machine))
//! is not reachable from here; it stays as the differential-testing
//! oracle that the tests run beside it.

use crate::fastsim::FastSim;
use crate::machine::SimError;
use lvp_isa::Program;
use lvp_trace::Trace;

/// The functional-simulation backend that generates traces.
///
/// [`SimEngine::Fast`] pre-decodes the program into micro-ops and
/// produces a `TraceEntry` stream, outputs, faults and fuel accounting
/// bit-identical to [`Machine`](crate::Machine)'s, which the
/// differential tests check.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum SimEngine {
    /// Pre-decoded micro-op engine ([`FastSim`]).
    Fast,
}

impl SimEngine {
    /// Runs `program` to completion on this engine, collecting the full
    /// trace and the architectural outputs the harness consumes.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`SimError`] (fault or out-of-fuel).
    pub fn run_traced(self, program: &Program, fuel: u64) -> Result<EngineRun, SimError> {
        let mut m = FastSim::new(program);
        let trace = m.run_traced(fuel)?;
        Ok(EngineRun {
            trace,
            output: m.output().to_vec(),
            checksum: m.output_checksum(),
        })
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
        let mut interp = crate::Machine::new(&p);
        let trace = interp.run_traced(10_000).unwrap();
        assert_eq!(fast.trace, trace);
        assert_eq!(fast.output, interp.output());
        assert_eq!(fast.checksum, interp.output_checksum());
        assert_eq!(fast.output, vec![55]);
    }
}
