//! Crash-sweep benchmark cells (the `crash` binary's engine).
//!
//! For each cell, crashes a fresh machine at every K-th scheduler step of
//! the workload (clean and, on PTM kinds, torn), recovers the captured
//! image, and checks the recovered committed memory word-for-word against
//! the committed-prefix oracle ([`ptm_sim::reference::crash_reference`]) —
//! plus idempotence of the recovery pass itself. A seed adds extra
//! randomly-placed crash points, each landing in a fault storm derived from
//! the same seed (grid points stay fault-free), and the whole sweep is
//! digested so the report alone reproduces it.

use crate::cells::{CellSpec, CellWorkload};
use crate::faults::cell_machine;
use ptm_sim::crash::CrashPlan;
use ptm_sim::{FaultPlan, SystemKind};
use ptm_types::rng::{Fnv1a64, SplitMix64};
use ptm_types::Granularity;
use ptm_workloads::Scale;
use std::time::Instant;

/// Everything one cell's crash sweep produces.
#[derive(Debug, Clone)]
pub struct CrashCellReport {
    /// The spec that was swept.
    pub spec: CellSpec,
    /// Total scheduler steps of the uninterrupted run.
    pub total_steps: u64,
    /// The stride between grid crash points.
    pub stride: u64,
    /// Crash points executed (grid + torn variants + seeded extras).
    pub points: u64,
    /// Points where the torn mode actually tore a live TAV publish.
    pub torn_points: u64,
    /// Oracle mismatches across all points (must be 0).
    pub mismatches: u64,
    /// Points where a second recovery was not a no-op (must be 0).
    pub non_idempotent: u64,
    /// Live transactions discarded, summed over all points.
    pub transactions_discarded: u64,
    /// Blocks restored, summed over all points.
    pub blocks_restored: u64,
    /// Worst single-point blocks restored.
    pub worst_blocks_restored: u64,
    /// Torn TAV nodes repaired, summed over all points.
    pub torn_repaired: u64,
    /// Recovery wall-clock, summed over all points, nanoseconds.
    pub recovery_wall_ns: u64,
    /// Worst single-point recovery wall-clock, nanoseconds.
    pub worst_recovery_wall_ns: u64,
    /// FNV-1a digest over every executed plan, in sweep order.
    pub plan_digest: u64,
    /// Host wall-clock for the whole sweep, nanoseconds.
    pub wall_ns: u64,
}

/// Whether the torn-metadata mode can apply to this kind.
fn is_ptm(kind: SystemKind) -> bool {
    matches!(kind, SystemKind::CopyPtm | SystemKind::SelectPtm(_))
}

/// The crash-sweep grid: the six transactional system kinds crossed with an
/// overflowing and a contended synthetic workload.
pub fn crash_cells(scale: Scale) -> Vec<CellSpec> {
    let kinds = [
        SystemKind::Vtm,
        SystemKind::VictimVtm,
        SystemKind::CopyPtm,
        SystemKind::SelectPtm(Granularity::Block),
        SystemKind::SelectPtm(Granularity::WordCache),
        SystemKind::SelectPtm(Granularity::WordCacheMem),
    ];
    let workloads = [
        CellWorkload::SyntheticOverflowing(3),
        CellWorkload::SyntheticContended(5),
    ];
    let mut cells = Vec::new();
    for workload in workloads {
        for kind in kinds {
            cells.push(CellSpec {
                family: "crash",
                workload,
                kind,
                scale,
            });
        }
    }
    cells
}

/// Sweeps one cell: crashes at every `stride`-th step (every K-th step; the
/// default stride lands ~16 grid points), runs each PTM grid point a second
/// time with the torn mode on, and adds `extra_random` seed-derived points,
/// which crash in the middle of a `FaultPlan::from_seed` storm whose seed
/// also derives from `seed`.
///
/// # Panics
///
/// Panics if any point's run stops making progress before its crash step (a
/// simulator bug).
pub fn sweep_cell(
    spec: &CellSpec,
    stride_override: Option<u64>,
    seed: u64,
    extra_random: u64,
) -> CrashCellReport {
    let sweep_start = Instant::now();
    let total_steps = {
        let (mut probe, _) = cell_machine(spec);
        probe
            .run_until_crash(&CrashPlan::at_step(u64::MAX), &FaultPlan::empty())
            .step
    };
    let stride = stride_override.unwrap_or((total_steps / 16).max(1)).max(1);

    let mut plans = Vec::new();
    let mut step = 0;
    loop {
        plans.push(CrashPlan::at_step(step));
        if is_ptm(spec.kind) {
            plans.push(CrashPlan::torn_at_step(step));
        }
        if step >= total_steps {
            break;
        }
        step = (step + stride).min(total_steps);
    }
    let grid_points = plans.len();
    let mut rng = SplitMix64::new(seed);
    let storm = FaultPlan::from_seed(rng.next_u64(), total_steps, 12);
    let storm_steps = {
        let (mut probe, _) = cell_machine(spec);
        probe
            .run_until_crash(&CrashPlan::at_step(u64::MAX), &storm)
            .step
    };
    for _ in 0..extra_random {
        plans.push(CrashPlan {
            step: rng.next_u64() % (storm_steps + 1),
            torn: is_ptm(spec.kind) && rng.next_u64() & 1 == 1,
        });
    }

    let mut digest = Fnv1a64::new();
    let mut report = CrashCellReport {
        spec: *spec,
        total_steps,
        stride,
        points: 0,
        torn_points: 0,
        mismatches: 0,
        non_idempotent: 0,
        transactions_discarded: 0,
        blocks_restored: 0,
        worst_blocks_restored: 0,
        torn_repaired: 0,
        recovery_wall_ns: 0,
        worst_recovery_wall_ns: 0,
        plan_digest: 0,
        wall_ns: 0,
    };

    let no_faults = FaultPlan::empty();
    for (i, plan) in plans.iter().enumerate() {
        digest.write_u64(plan.digest());
        let faults = if i < grid_points {
            &no_faults
        } else {
            digest.write_u64(storm.digest());
            &storm
        };
        let (mut m, programs) = cell_machine(spec);
        let mut img = m.run_until_crash(plan, faults);
        let rec_start = Instant::now();
        let stats = img.recover();
        let rec_ns = rec_start.elapsed().as_nanos() as u64;

        report.points += 1;
        report.torn_points += u64::from(img.torn.is_some());
        report.mismatches += img.diff_committed(&programs).len() as u64;
        report.non_idempotent += u64::from(!img.recover().is_noop());
        report.transactions_discarded += stats.transactions_discarded;
        report.blocks_restored += stats.blocks_restored;
        report.worst_blocks_restored = report.worst_blocks_restored.max(stats.blocks_restored);
        report.torn_repaired += stats.torn_nodes_repaired;
        report.recovery_wall_ns += rec_ns;
        report.worst_recovery_wall_ns = report.worst_recovery_wall_ns.max(rec_ns);
    }

    report.plan_digest = digest.finish();
    report.wall_ns = sweep_start.elapsed().as_nanos() as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: SystemKind) -> CellSpec {
        CellSpec {
            family: "crash",
            workload: CellWorkload::SyntheticOverflowing(3),
            kind,
            scale: Scale::Tiny,
        }
    }

    #[test]
    fn sweep_is_clean_and_covers_endpoints() {
        let r = sweep_cell(&spec(SystemKind::CopyPtm), None, 0xC1A54, 2);
        assert_eq!(r.mismatches, 0, "oracle failed somewhere in the sweep");
        assert_eq!(r.non_idempotent, 0, "recovery was not idempotent");
        // Grid points double up with torn variants on PTM kinds, plus the
        // two seeded extras.
        assert!(r.points > 2 * (r.total_steps / r.stride));
        assert!(r.total_steps > 0);

        // The seeded extras crash inside a fault storm: a coarse grid with
        // many extras is mostly storm points, and must recover just as
        // cleanly.
        let storm = sweep_cell(
            &spec(SystemKind::SelectPtm(Granularity::Block)),
            Some(u64::MAX),
            7,
            12,
        );
        assert_eq!(
            storm.points,
            4 + 12,
            "two grid steps, clean and torn, plus extras"
        );
        assert_eq!(storm.mismatches, 0, "oracle failed under a fault storm");
        assert_eq!(
            storm.non_idempotent, 0,
            "recovery under a fault storm was not idempotent"
        );
        assert!(
            storm.transactions_discarded > 0,
            "no storm crash caught a live transaction"
        );
    }

    #[test]
    fn sweep_digest_is_reproducible_and_seed_sensitive() {
        let a = sweep_cell(&spec(SystemKind::Vtm), Some(10_000), 1, 2);
        let b = sweep_cell(&spec(SystemKind::Vtm), Some(10_000), 1, 2);
        let c = sweep_cell(&spec(SystemKind::Vtm), Some(10_000), 2, 2);
        assert_eq!(a.plan_digest, b.plan_digest);
        assert_ne!(a.plan_digest, c.plan_digest, "seeded extras must differ");
        assert_eq!(a.blocks_restored, b.blocks_restored);
    }
}
