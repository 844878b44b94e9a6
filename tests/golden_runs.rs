//! Golden digests of fault-injected and crash-stopped machine runs.
//!
//! `golden_schedule` pins the service's schedule; these two pin the
//! simulator's own fault loop and crash stop. Each digest is one FNV-1a
//! hash over everything a run exposes, so any reordering of scheduler
//! steps, any moved fault event and any shifted crash point changes it:
//!
//! * faulted runs: per-core checksums, the full `MachineStats` display and
//!   the commit log, for four TM systems under two seeded fault plans;
//! * crash runs: the crash image's step, completion flag, commit-log
//!   length, per-thread watermarks and the recovery pass's counters, at
//!   clean and torn crash points.

use unbounded_ptm::cache::CacheConfig;
use unbounded_ptm::sim::crash::CrashPlan;
use unbounded_ptm::sim::{FaultPlan, Machine, SystemKind};
use unbounded_ptm::types::rng::Fnv1a64;
use unbounded_ptm::types::Granularity;
use unbounded_ptm::workloads::{radix, synthetic, Scale};

/// The digest of [`faulted_digest`].
const GOLDEN_FAULTED: u64 = 0xdbf3_de5b_8a0b_6991;
/// The digest of [`crash_digest`].
const GOLDEN_CRASH: u64 = 0xba33_20a0_c8f7_7794;

fn systems() -> [SystemKind; 4] {
    [
        SystemKind::CopyPtm,
        SystemKind::SelectPtm(Granularity::Block),
        SystemKind::SelectPtm(Granularity::WordCacheMem),
        SystemKind::Vtm,
    ]
}

/// A workload with tiny caches, so transactions overflow and crash points
/// land on live SPT/SIT/TAV state.
fn overflowing_machine(kind: SystemKind) -> Machine {
    let w = synthetic::overflowing(3);
    let mut mc = w.machine_config();
    mc.l1 = CacheConfig::tiny(2, 1);
    mc.l2 = CacheConfig::tiny(4, 2);
    Machine::new(mc, kind, w.programs_for(kind))
}

fn hash_run(h: &mut Fnv1a64, m: &Machine) {
    for c in m.checksums() {
        h.write_u64(c);
    }
    h.write_bytes(format!("{}", m.stats()).as_bytes());
    for c in &m.stats().commit_log {
        h.write_u64(c.tx.0);
        h.write_u64(u64::from(c.thread.0));
        h.write_u64(c.core as u64);
        h.write_u64(c.begin_pc as u64);
        h.write_u64(c.end_pc as u64);
        h.write_u64(c.at);
    }
}

fn faulted_digest() -> u64 {
    let w = radix::workload(Scale::Tiny);
    let plans = [
        FaultPlan::from_seed(0x60_1D, 20_000, 10),
        FaultPlan::from_seed(0xFA_17, 6_000, 16),
    ];
    let mut h = Fnv1a64::new();
    for kind in systems() {
        for plan in &plans {
            let mut m = Machine::new(w.machine_config(), kind, w.programs_for(kind));
            m.run_with_faults(plan);
            hash_run(&mut h, &m);
            let mut m = overflowing_machine(kind);
            m.run_with_faults(plan);
            hash_run(&mut h, &m);
        }
    }
    h.finish()
}

fn crash_digest() -> u64 {
    let mut h = Fnv1a64::new();
    for kind in systems() {
        let total = overflowing_machine(kind)
            .run_until_crash(&CrashPlan::at_step(u64::MAX), &FaultPlan::empty())
            .step;
        h.write_u64(total);
        for k in [0, 1, 3, 5, 7, 8] {
            let step = total * k / 8;
            for plan in [CrashPlan::at_step(step), CrashPlan::torn_at_step(step)] {
                let mut img = overflowing_machine(kind).run_until_crash(&plan, &FaultPlan::empty());
                h.write_u64(img.step);
                h.write_u64(u64::from(img.finished));
                h.write_u64(img.commit_log.len() as u64);
                let mut wm: Vec<_> = img.watermarks.iter().map(|(t, pc)| (t.0, *pc)).collect();
                wm.sort_unstable();
                for (t, pc) in wm {
                    h.write_u64(u64::from(t));
                    h.write_u64(pc as u64);
                }
                let r = img.recover();
                for v in [
                    r.transactions_discarded,
                    r.blocks_restored,
                    r.torn_nodes_repaired,
                    r.shadow_pages_freed,
                    r.tav_nodes_freed,
                ] {
                    h.write_u64(v);
                }
            }
        }
    }
    h.finish()
}

#[test]
fn faulted_runs_match_golden_digest() {
    let digest = faulted_digest();
    assert_eq!(digest, GOLDEN_FAULTED, "digest {digest:#018x}");
}

#[test]
fn crash_images_match_golden_digest() {
    let digest = crash_digest();
    assert_eq!(digest, GOLDEN_CRASH, "digest {digest:#018x}");
}
