//! Convenience entry points: run a program set under a system, build the
//! single-threaded baseline, and compute the paper's speedup metric.

use crate::backend::SystemKind;
use crate::machine::{Machine, MachineConfig};
use crate::ops::Op;
use crate::program::ThreadProgram;
use ptm_types::{ProcessId, ThreadId};
use std::sync::Arc;

/// Runs `programs` to completion under `kind` and returns the machine for
/// inspection.
pub fn run(cfg: MachineConfig, kind: SystemKind, programs: Vec<ThreadProgram>) -> Machine {
    let mut m = Machine::new(cfg, kind, programs);
    m.run();
    m
}

/// Builds the single-threaded baseline program: all threads' operations
/// concatenated into one stream, executed in [`SystemKind::Serial`] mode
/// where `Begin`/`End` cost one cycle each (no checkpointing, locking or
/// versioning overhead) — the denominator of Figure 4's "% Speedup".
pub fn serialize_programs(programs: &[ThreadProgram]) -> Vec<ThreadProgram> {
    let pid = programs.first().map(|p| p.pid()).unwrap_or(ProcessId(0));
    let len = programs.iter().map(ThreadProgram::len).sum();
    let mut stream = programs.iter().flat_map(|p| p.ops().iter().copied());
    // A mapped range has an exact length, so the shared stream is
    // allocated once at `len` and filled in place.
    let ops: Arc<[Op]> = (0..len).map(|_| stream.next().expect("counted")).collect();
    vec![ThreadProgram::new(pid, ThreadId(0), ops)]
}

/// The paper's speedup metric: percent improvement over the single-threaded
/// run (300% = 4×).
pub fn speedup_percent(serial_cycles: u64, parallel_cycles: u64) -> f64 {
    assert!(parallel_cycles > 0, "parallel run must have executed");
    (serial_cycles as f64 / parallel_cycles as f64 - 1.0) * 100.0
}

/// Runs the single-threaded baseline and the given system, returning
/// `(serial_cycles, parallel_cycles, speedup_percent)`.
pub fn speedup_vs_serial(
    cfg: MachineConfig,
    kind: SystemKind,
    programs: Vec<ThreadProgram>,
) -> (u64, u64, f64) {
    let serial = run(cfg, SystemKind::Serial, serialize_programs(&programs));
    let parallel = run(cfg, kind, programs);
    let s = serial.stats().cycles;
    let p = parallel.stats().cycles;
    (s, p, speedup_percent(s, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_types::VirtAddr;

    #[test]
    fn speedup_formula_matches_paper_convention() {
        assert_eq!(speedup_percent(400, 100), 300.0, "4x is 300%");
        assert_eq!(speedup_percent(100, 100), 0.0);
        assert!(speedup_percent(50, 100) < 0.0, "slowdown is negative");
    }

    #[test]
    fn serialization_concatenates_all_threads() {
        let a = ThreadProgram::new(ProcessId(0), ThreadId(0), vec![Op::Compute(1)]);
        let b = ThreadProgram::new(
            ProcessId(0),
            ThreadId(1),
            vec![Op::Read(VirtAddr::new(0)), Op::Compute(2)],
        );
        let s = serialize_programs(&[a, b]);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].len(), 3);
    }

    #[test]
    #[should_panic(expected = "must have executed")]
    fn zero_parallel_cycles_rejected() {
        let _ = speedup_percent(1, 0);
    }
}
