//! Fault-injected benchmark cells (the `faults` binary's engine).
//!
//! Runs the [`CellSpec`] grid of [`crate::cells::default_cells`] through
//! [`Machine::run_with_faults`] and keeps everything the fault
//! acceptance criteria need: the full stats display (the bit-identity
//! comparator for empty plans), the serializability-oracle verdict, the
//! stats-identity check, and the exhaustion/swap counters that prove a
//! seeded plan actually hurt.

use crate::cells::CellSpec;
use ptm_sim::{
    check_invariants, diff_against_machine, serialize_programs, FaultAction, FaultEvent, FaultPlan,
    Machine, SystemKind,
};
use std::time::Instant;

/// Everything one cell run produces under a fault plan (or plain `run`).
#[derive(Debug, Clone)]
pub struct FaultCellReport {
    /// The spec that produced this report.
    pub spec: CellSpec,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Per-core read checksums.
    pub checksums: Vec<u64>,
    /// The full stats display — every counter the machine tracks.
    pub stats: String,
    /// Serializability-oracle mismatches (must be 0).
    pub mismatches: usize,
    /// First violated stats identity, if any (must be `None`).
    pub invariant_violation: Option<String>,
    /// Frame-pool exhaustions survived (PTM cells).
    pub frame_exhaustions: u64,
    /// TAV-arena exhaustions survived (PTM cells).
    pub tav_exhaustions: u64,
    /// Transactions aborted to free resources.
    pub exhaustion_aborts: u64,
    /// Accesses retried after an exhaustion recovery.
    pub exhaustion_retries: u64,
    /// Transactional pages swapped out (SPT→SIT migrations).
    pub tx_swap_outs: u64,
    /// Transactional pages swapped back in (SIT→SPT migrations).
    pub tx_swap_ins: u64,
    /// Host wall-clock for this cell, nanoseconds.
    pub wall_ns: u64,
}

fn report(
    spec: &CellSpec,
    m: &Machine,
    programs: &[ptm_sim::ThreadProgram],
    wall_ns: u64,
) -> FaultCellReport {
    let mismatches = diff_against_machine(m, programs).len();
    let invariant_violation = check_invariants(m).err();
    let (fx, tx, ea, er, so, si) = m
        .backend()
        .as_ptm()
        .map(|p| {
            let s = p.stats();
            (
                s.frame_exhaustions,
                s.tav_exhaustions,
                s.exhaustion_aborts,
                s.exhaustion_retries,
                s.tx_swap_outs,
                s.tx_swap_ins,
            )
        })
        .unwrap_or((0, 0, 0, 0, 0, 0));
    FaultCellReport {
        spec: *spec,
        cycles: m.stats().cycles,
        commits: m.stats().commits,
        aborts: m.stats().aborts,
        checksums: m.checksums(),
        stats: format!("{}", m.stats()),
        mismatches,
        invariant_violation,
        frame_exhaustions: fx,
        tav_exhaustions: tx,
        exhaustion_aborts: ea,
        exhaustion_retries: er,
        tx_swap_outs: so,
        tx_swap_ins: si,
        wall_ns,
    }
}

pub(crate) fn cell_machine(spec: &CellSpec) -> (Machine, Vec<ptm_sim::ThreadProgram>) {
    let w = spec.workload.build(spec.scale);
    let programs = if spec.kind == SystemKind::Serial {
        serialize_programs(&w.programs_for(SystemKind::Serial))
    } else {
        w.programs_for(spec.kind)
    };
    (
        Machine::new(w.machine_config(), spec.kind, programs.clone()),
        programs,
    )
}

/// Runs one cell through the plain [`Machine::run`] loop — the baseline the
/// empty-plan pass must reproduce bit-for-bit.
pub fn run_cell_plain(spec: &CellSpec) -> FaultCellReport {
    let (mut m, programs) = cell_machine(spec);
    let start = Instant::now();
    m.run();
    let wall_ns = start.elapsed().as_nanos() as u64;
    report(spec, &m, &programs, wall_ns)
}

/// Runs one cell through [`Machine::run_with_faults`] under `plan`.
pub fn run_cell_under_plan(spec: &CellSpec, plan: &FaultPlan) -> FaultCellReport {
    let (mut m, programs) = cell_machine(spec);
    let start = Instant::now();
    m.run_with_faults(plan);
    let wall_ns = start.elapsed().as_nanos() as u64;
    report(spec, &m, &programs, wall_ns)
}

/// The adversarial plan the `faults` binary runs: seed-driven background
/// noise over a long horizon, plus guaranteed early resource pressure so
/// even the shortest cell sees a drained frame pool, a capped TAV arena,
/// hot-page swap-outs on a slow swap device, and an abort storm.
pub fn seeded_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::from_seed(seed, 40_000, 12);
    let mut push = |step: u64, action: FaultAction| {
        plan.events.push(FaultEvent { step, action });
    };
    push(1, FaultAction::DelaySwapIns { delay: 800 });
    // Squeeze the frame pool dry early, while every cell is still running.
    push(150, FaultAction::SqueezeMemory { leave: 0 });
    push(700, FaultAction::ReleaseMemory);
    push(900, FaultAction::CapTavArena { slack: 0 });
    push(1_300, FaultAction::UncapTavArena);
    for i in 0..6u64 {
        push(300 + i * 400, FaultAction::SwapOutHotPage { nth: i as u8 });
    }
    push(1_500, FaultAction::AbortStorm { count: 2 });
    plan.normalize();
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellWorkload;
    use ptm_workloads::Scale;

    fn spec(kind: SystemKind) -> CellSpec {
        CellSpec {
            family: "test",
            workload: CellWorkload::SyntheticOverflowing(3),
            kind,
            scale: Scale::Tiny,
        }
    }

    #[test]
    fn empty_plan_reproduces_plain_run_bit_for_bit() {
        for kind in [
            SystemKind::CopyPtm,
            SystemKind::SelectPtm(Default::default()),
            SystemKind::Serial,
        ] {
            let s = spec(kind);
            let plain = run_cell_plain(&s);
            let empty = run_cell_under_plan(&s, &FaultPlan::empty());
            assert_eq!(plain.checksums, empty.checksums, "{kind:?} checksums");
            assert_eq!(plain.stats, empty.stats, "{kind:?} stats");
        }
    }

    #[test]
    fn seeded_plan_survives_and_exhausts() {
        let plan = seeded_plan(0xF4117);
        assert!(!plan.is_empty());
        let r = run_cell_under_plan(&spec(SystemKind::CopyPtm), &plan);
        assert_eq!(r.mismatches, 0, "oracle failed");
        assert_eq!(r.invariant_violation, None);
        assert!(
            r.frame_exhaustions + r.tav_exhaustions > 0,
            "the squeeze never bit: {}",
            r.stats
        );
    }
}
