//! End-to-end machine tests: multi-core transactional execution under every
//! backend, with the serial reference executor as ground truth.

use ptm_cache::CacheConfig;
use ptm_sim::{
    assert_serializable, run, serialize_programs, CommittedTx, FaultPlan, Machine, MachineConfig,
    Op, OrderedSeq, SystemKind, ThreadProgram,
};
use ptm_types::{Granularity, ProcessId, ThreadId, VirtAddr};

fn begin(lock: u64) -> Op {
    Op::Begin {
        ordered: None,
        lock: VirtAddr::new(lock),
    }
}

fn all_tm_systems() -> Vec<SystemKind> {
    vec![
        SystemKind::Vtm,
        SystemKind::VictimVtm,
        SystemKind::CopyPtm,
        SystemKind::SelectPtm(Granularity::Block),
        SystemKind::SelectPtm(Granularity::WordCache),
        SystemKind::SelectPtm(Granularity::WordCacheMem),
    ]
}

/// A config with deliberately tiny caches so transactions overflow.
fn tiny_cache_config() -> MachineConfig {
    MachineConfig {
        l1: CacheConfig::tiny(2, 1),
        l2: CacheConfig::tiny(4, 2),
        ..MachineConfig::default()
    }
}

fn lock0() -> u64 {
    0x20_0000
}

/// `threads` threads each add 1 to a shared counter `increments` times,
/// transactionally.
fn counter_programs(threads: usize, increments: usize) -> Vec<ThreadProgram> {
    let counter = 0x10_0000u64;
    (0..threads)
        .map(|t| {
            let mut ops = Vec::new();
            for _ in 0..increments {
                ops.push(begin(lock0()));
                ops.push(Op::Rmw(VirtAddr::new(counter), 1));
                ops.push(Op::End);
                ops.push(Op::Compute(5));
            }
            ThreadProgram::new(ProcessId(0), ThreadId(t as u32), ops)
        })
        .collect()
}

#[test]
fn shared_counter_is_exact_under_every_tm_system() {
    for kind in all_tm_systems() {
        let programs = counter_programs(4, 10);
        let m = run(MachineConfig::default(), kind, programs.clone());
        let total = m.read_committed(ProcessId(0), VirtAddr::new(0x10_0000));
        assert_eq!(total, 40, "{kind}: lost or duplicated increments");
        assert_eq!(m.stats().commits, 40, "{kind}");
        assert_serializable(&m, &programs);
    }
}

#[test]
fn shared_counter_is_exact_under_locks() {
    let programs = counter_programs(4, 10);
    let m = run(
        MachineConfig::default(),
        SystemKind::Locks,
        programs.clone(),
    );
    assert_eq!(m.read_committed(ProcessId(0), VirtAddr::new(0x10_0000)), 40);
    assert_serializable(&m, &programs);
}

#[test]
fn contention_causes_aborts_but_no_lost_updates() {
    // Long transactions over the same counter force conflicts.
    let counter = 0x10_0000u64;
    let programs: Vec<_> = (0..4)
        .map(|t| {
            let mut ops = Vec::new();
            for _ in 0..5 {
                ops.push(begin(lock0()));
                ops.push(Op::Rmw(VirtAddr::new(counter), 1));
                ops.push(Op::Compute(400));
                ops.push(Op::Rmw(VirtAddr::new(counter + 4), 1));
                ops.push(Op::End);
            }
            ThreadProgram::new(ProcessId(0), ThreadId(t), ops)
        })
        .collect();
    let m = run(
        MachineConfig::default(),
        SystemKind::SelectPtm(Granularity::Block),
        programs.clone(),
    );
    assert!(m.stats().aborts > 0, "long overlapping txns must conflict");
    assert_eq!(m.read_committed(ProcessId(0), VirtAddr::new(counter)), 20);
    assert_eq!(
        m.read_committed(ProcessId(0), VirtAddr::new(counter + 4)),
        20
    );
    assert_serializable(&m, &programs);
}

#[test]
fn overflowing_transactions_stay_correct() {
    // Each transaction writes several pages' worth of blocks through a tiny
    // cache, guaranteeing dirty overflows mid-transaction.
    for kind in all_tm_systems() {
        let programs: Vec<_> = (0..2)
            .map(|t| {
                let mut ops = Vec::new();
                let base = 0x40_0000u64 + t as u64 * 0x10_0000;
                for it in 0..3u64 {
                    ops.push(begin(lock0() + t as u64 * 64));
                    for blk in 0..24u64 {
                        ops.push(Op::Write(
                            VirtAddr::new(base + it * 8192 + blk * 64),
                            (it * 100 + blk) as u32,
                        ));
                    }
                    ops.push(Op::End);
                }
                ThreadProgram::new(ProcessId(0), ThreadId(t), ops)
            })
            .collect();
        let m = run(tiny_cache_config(), kind, programs.clone());
        assert_eq!(m.stats().commits, 6, "{kind}");
        // Overflow machinery must actually have fired.
        let overflowed = match m.backend() {
            ptm_sim::Backend::Ptm(p) => p.stats().overflows() > 0,
            ptm_sim::Backend::Vtm(v) => v.stats().overflows() > 0,
            _ => unreachable!(),
        };
        assert!(overflowed, "{kind}: tiny caches must overflow");
        assert_serializable(&m, &programs);
        // Spot-check a committed value through the committed-view read.
        assert_eq!(
            m.read_committed(ProcessId(0), VirtAddr::new(0x40_0000 + 2 * 8192 + 5 * 64)),
            205
        );
    }
}

#[test]
fn overflowed_conflicts_are_detected_across_cores() {
    // Thread 0 writes a large region (overflowing), thread 1 then reads it
    // transactionally: conflicts must serialize them, not corrupt data.
    let region = 0x50_0000u64;
    let t0 = {
        let mut ops = vec![begin(lock0())];
        for blk in 0..32u64 {
            ops.push(Op::Write(VirtAddr::new(region + blk * 64), 7));
        }
        ops.push(Op::Compute(2000));
        ops.push(Op::End);
        ThreadProgram::new(ProcessId(0), ThreadId(0), ops)
    };
    let t1 = {
        let mut ops = vec![Op::Compute(500), begin(lock0())];
        for blk in 0..32u64 {
            ops.push(Op::Rmw(VirtAddr::new(region + blk * 64), 1));
        }
        ops.push(Op::End);
        ThreadProgram::new(ProcessId(0), ThreadId(1), ops)
    };
    for kind in [
        SystemKind::SelectPtm(Granularity::Block),
        SystemKind::CopyPtm,
        SystemKind::Vtm,
    ] {
        let programs = vec![t0.clone(), t1.clone()];
        let m = run(tiny_cache_config(), kind, programs.clone());
        assert_serializable(&m, &programs);
        assert_eq!(
            m.read_committed(ProcessId(0), VirtAddr::new(region)),
            8,
            "{kind}: write then increment"
        );
    }
}

#[test]
fn ordered_transactions_commit_in_sequence() {
    // Three threads append to a log position derived from a shared cursor;
    // ordered commits make the result deterministic.
    let cursor = 0x60_0000u64;
    let programs: Vec<_> = (0..3)
        .map(|t| {
            let mut ops = Vec::new();
            for i in 0..4u64 {
                let seq = i * 3 + t as u64;
                ops.push(Op::Begin {
                    ordered: OrderedSeq::new(1, seq),
                    lock: VirtAddr::new(lock0()),
                });
                // Each ordered tx adds its seq to the running sum; with
                // ordered commits the intermediate values are fixed.
                ops.push(Op::Rmw(VirtAddr::new(cursor), seq as i32));
                ops.push(Op::End);
                ops.push(Op::Compute(50));
            }
            ThreadProgram::new(ProcessId(0), ThreadId(t), ops)
        })
        .collect();
    let m = run(
        MachineConfig::default(),
        SystemKind::SelectPtm(Granularity::Block),
        programs.clone(),
    );
    assert_eq!(m.stats().commits, 12);
    // Commit log must be in strictly ascending seq order = ascending TxId
    // is NOT guaranteed, but the sum is exact.
    let total: u64 = (0..12u64).sum();
    assert_eq!(
        u64::from(m.read_committed(ProcessId(0), VirtAddr::new(cursor))),
        total
    );
    assert_serializable(&m, &programs);
}

#[test]
fn non_transactional_write_aborts_conflicting_transaction() {
    // Thread 0 runs a long transaction over X; thread 1 writes X *outside*
    // any transaction. The transaction must abort and retry (§2.3.3), and
    // both updates must land.
    let x = 0x70_0000u64;
    let t0 = {
        let mut ops = vec![begin(lock0())];
        ops.push(Op::Rmw(VirtAddr::new(x), 1));
        ops.push(Op::Compute(3000));
        ops.push(Op::Rmw(VirtAddr::new(x + 8), 1));
        ops.push(Op::End);
        ThreadProgram::new(ProcessId(0), ThreadId(0), ops)
    };
    // The non-tx write targets a DIFFERENT word of the same block: at block
    // granularity this conflicts; the final values are unambiguous because
    // the words are disjoint.
    let t1 = ThreadProgram::new(
        ProcessId(0),
        ThreadId(1),
        vec![Op::Compute(800), Op::Write(VirtAddr::new(x + 16), 99)],
    );
    let programs = vec![t0, t1];
    let m = run(
        tiny_cache_config(),
        SystemKind::SelectPtm(Granularity::Block),
        programs.clone(),
    );
    assert_eq!(m.read_committed(ProcessId(0), VirtAddr::new(x)), 1);
    assert_eq!(m.read_committed(ProcessId(0), VirtAddr::new(x + 8)), 1);
    assert_eq!(m.read_committed(ProcessId(0), VirtAddr::new(x + 16)), 99);
}

#[test]
fn word_granularity_eliminates_false_sharing_aborts() {
    // Four threads each hammer their own word of ONE shared block.
    let block = 0x80_0000u64;
    let mk = |t: u32| {
        let mut ops = Vec::new();
        for _ in 0..20 {
            ops.push(begin(lock0() + u64::from(t) * 64));
            ops.push(Op::Rmw(VirtAddr::new(block + u64::from(t) * 4), 1));
            ops.push(Op::End);
        }
        ThreadProgram::new(ProcessId(0), ThreadId(t), ops)
    };
    let programs: Vec<_> = (0..4).map(mk).collect();

    let blk = run(
        MachineConfig::default(),
        SystemKind::SelectPtm(Granularity::Block),
        programs.clone(),
    );
    let wd = run(
        MachineConfig::default(),
        SystemKind::SelectPtm(Granularity::WordCacheMem),
        programs.clone(),
    );
    for m in [&blk, &wd] {
        for t in 0..4u64 {
            assert_eq!(
                m.read_committed(ProcessId(0), VirtAddr::new(block + t * 4)),
                20,
                "{}",
                m.kind()
            );
        }
        assert_serializable(m, &programs);
    }
    assert!(
        wd.stats().aborts < blk.stats().aborts || blk.stats().aborts == 0,
        "word granularity should not abort more than block (blk={} wd={})",
        blk.stats().aborts,
        wd.stats().aborts
    );
}

#[test]
fn disjoint_work_scales_over_serial() {
    // Four threads on fully disjoint pages: parallel execution should beat
    // the serialized baseline clearly.
    let programs: Vec<_> = (0..4)
        .map(|t| {
            let base = 0x100_0000u64 + t as u64 * 0x10_0000;
            let mut ops = Vec::new();
            for i in 0..200u64 {
                ops.push(begin(lock0() + t as u64 * 64));
                ops.push(Op::Rmw(VirtAddr::new(base + (i % 64) * 64), 1));
                ops.push(Op::Compute(20));
                ops.push(Op::End);
            }
            ThreadProgram::new(ProcessId(0), ThreadId(t), ops)
        })
        .collect();
    let (s, p, pct) = ptm_sim::speedup_vs_serial(
        MachineConfig::default(),
        SystemKind::SelectPtm(Granularity::Block),
        programs,
    );
    assert!(
        pct > 100.0,
        "disjoint parallel work should speed up well: serial={s} parallel={p} ({pct:.0}%)"
    );
}

#[test]
fn context_switches_and_exceptions_are_survivable() {
    let cfg = MachineConfig {
        kernel: ptm_sim::KernelConfig {
            cs_interval: Some(2_000),
            exc_interval: Some(900),
            ..Default::default()
        },
        ..tiny_cache_config()
    };
    let programs = counter_programs(4, 25);
    let m = run(
        cfg,
        SystemKind::SelectPtm(Granularity::Block),
        programs.clone(),
    );
    assert!(m.kernel_stats().context_switches > 0);
    assert!(m.kernel_stats().exceptions > 0);
    assert_eq!(
        m.read_committed(ProcessId(0), VirtAddr::new(0x10_0000)),
        100
    );
    assert_serializable(&m, &programs);
}

#[test]
fn serialized_baseline_preserves_functionality() {
    let programs = counter_programs(4, 5);
    let serial = serialize_programs(&programs);
    let m = run(MachineConfig::default(), SystemKind::Serial, serial);
    assert_eq!(m.read_committed(ProcessId(0), VirtAddr::new(0x10_0000)), 20);
}

#[test]
fn inter_process_shared_physical_page_conflicts_under_ptm() {
    // Two processes share one physical page (mapped at different VPNs).
    // PTM detects the conflict because its structures are physically
    // indexed (§3.5.3). We drive the machine manually to set up sharing.
    let va0 = VirtAddr::new(0x1000);
    let va1 = VirtAddr::new(0x9000); // different virtual page, same frame
    let t0 = ThreadProgram::new(
        ProcessId(0),
        ThreadId(0),
        vec![
            begin(lock0()),
            Op::Write(va0, 5),
            Op::Compute(2500),
            Op::Write(va0.offset(8), 6),
            Op::End,
        ],
    );
    let t1 = ThreadProgram::new(
        ProcessId(1),
        ThreadId(1),
        vec![
            Op::Compute(600),
            begin(lock0() + 64),
            Op::Rmw(va1, 10),
            Op::End,
        ],
    );
    let mut m = Machine::new(
        tiny_cache_config(),
        SystemKind::SelectPtm(Granularity::Block),
        vec![t0, t1],
    );
    // Pre-fault process 0's page, then alias it into process 1's address
    // space: genuine physical sharing.
    let frame = m.prefault(ProcessId(0), va0);
    m.kernel_mut().map_shared(ProcessId(1), va1.vpn(), frame);
    m.run();
    // Both updates present in the shared frame, serializably: the write of
    // 5 then +10 on the same word → 15, or +10 on zero then write 5 → 5.
    let v = m.read_committed(ProcessId(0), va0);
    assert!(v == 15 || v == 5, "serializable outcomes only, got {v}");
    assert_eq!(
        v,
        m.read_committed(ProcessId(1), va1),
        "both processes see the same physical word"
    );
}

#[test]
fn thread_migration_preserves_transactions() {
    // Frequent context switches WITH migration: threads hop between cores
    // mid-transaction, leaving tagged lines behind. PTM's physically-indexed
    // structures make this safe (§4.7); totals must still be exact.
    let cfg = MachineConfig {
        kernel: ptm_sim::KernelConfig {
            cs_interval: Some(1_200),
            migrate_on_cs: true,
            ..Default::default()
        },
        ..tiny_cache_config()
    };
    for kind in [
        SystemKind::SelectPtm(Granularity::Block),
        SystemKind::CopyPtm,
        SystemKind::Vtm,
    ] {
        let programs = counter_programs(4, 20);
        let m = run(cfg, kind, programs.clone());
        assert!(m.kernel_stats().context_switches > 0, "{kind}");
        assert_eq!(
            m.read_committed(ProcessId(0), VirtAddr::new(0x10_0000)),
            80,
            "{kind}: all increments survive migration"
        );
        assert_serializable(&m, &programs);
    }
}

#[test]
fn migration_spills_left_behind_lines_through_overflow() {
    // A long transaction writing many blocks, migrated mid-flight: its
    // tagged lines on the old core must spill through the overflow
    // structures when touched from the new core (or at commit), never be
    // lost.
    let base = 0x40_0000u64;
    let mut ops = vec![begin(lock0())];
    for blk in 0..16u64 {
        ops.push(Op::Rmw(VirtAddr::new(base + blk * 64), 1));
        ops.push(Op::Compute(300));
    }
    // Re-touch everything so post-migration accesses hit the old lines.
    for blk in 0..16u64 {
        ops.push(Op::Rmw(VirtAddr::new(base + blk * 64), 1));
    }
    ops.push(Op::End);
    let t0 = ThreadProgram::new(ProcessId(0), ThreadId(0), ops);
    let t1 = ThreadProgram::new(
        ProcessId(0),
        ThreadId(1),
        vec![
            Op::Compute(200),
            begin(lock0() + 64),
            Op::Rmw(VirtAddr::new(0x50_0000), 1),
            Op::End,
        ],
    );
    let cfg = MachineConfig {
        kernel: ptm_sim::KernelConfig {
            cs_interval: Some(900),
            migrate_on_cs: true,
            ..Default::default()
        },
        ..MachineConfig::default()
    };
    let programs = vec![t0, t1];
    let m = run(
        cfg,
        SystemKind::SelectPtm(Granularity::Block),
        programs.clone(),
    );
    for blk in 0..16u64 {
        assert_eq!(
            m.read_committed(ProcessId(0), VirtAddr::new(base + blk * 64)),
            2,
            "block {blk}"
        );
    }
    assert_serializable(&m, &programs);
}

#[test]
fn logtm_backend_is_functionally_correct() {
    // The eager-versioning extension: counters exact, overflows via sticky
    // state, serializable.
    let programs = counter_programs(4, 15);
    let m = run(tiny_cache_config(), SystemKind::LogTm, programs.clone());
    assert_eq!(m.read_committed(ProcessId(0), VirtAddr::new(0x10_0000)), 60);
    assert_eq!(m.stats().commits, 60);
    assert_serializable(&m, &programs);
}

#[test]
fn logtm_prefers_stalling_over_aborting() {
    // The same contended workload that gives PTM dozens of aborts should
    // mostly STALL under LogTM.
    let counter = 0x10_0000u64;
    let mk = |t: u32| {
        let mut ops = Vec::new();
        for _ in 0..8 {
            ops.push(begin(lock0()));
            ops.push(Op::Rmw(VirtAddr::new(counter), 1));
            ops.push(Op::Compute(400));
            ops.push(Op::Rmw(VirtAddr::new(counter + 4), 1));
            ops.push(Op::End);
        }
        ThreadProgram::new(ProcessId(0), ThreadId(t), ops)
    };
    let programs: Vec<_> = (0..4).map(mk).collect();
    let ptm = run(
        tiny_cache_config(),
        SystemKind::SelectPtm(Granularity::Block),
        programs.clone(),
    );
    let log = run(tiny_cache_config(), SystemKind::LogTm, programs.clone());
    assert!(
        log.stats().aborts <= ptm.stats().aborts,
        "LogTM stalls where PTM aborts (logtm {} vs ptm {})",
        log.stats().aborts,
        ptm.stats().aborts
    );
    let l = log.backend().as_logtm().unwrap().stats();
    assert!(l.stalls > 0, "contention must produce NACK stalls");
    assert_eq!(log.read_committed(ProcessId(0), VirtAddr::new(counter)), 32);
    assert_serializable(&log, &programs);
}

#[test]
fn logtm_abort_restores_overflowed_writes() {
    // A big transaction writes beyond the cache (sticky overflow), then a
    // non-transactional access forces it to abort: the undo log must restore
    // every word, including overflowed ones.
    let base = 0x70_0000u64;
    let t0 = {
        let mut ops = vec![begin(lock0())];
        for blk in 0..32u64 {
            ops.push(Op::Write(VirtAddr::new(base + blk * 64), 7));
        }
        ops.push(Op::Compute(4000));
        ops.push(Op::Rmw(VirtAddr::new(base), 1)); // re-touch
        ops.push(Op::End);
        ThreadProgram::new(ProcessId(0), ThreadId(0), ops)
    };
    // Non-transactional write to one of the blocks: LogTM's tx must abort,
    // restore, then retry and win.
    let t1 = ThreadProgram::new(
        ProcessId(0),
        ThreadId(1),
        vec![
            Op::Compute(6000),
            Op::Write(VirtAddr::new(base + 8 * 64 + 4), 99),
        ],
    );
    let programs = vec![t0, t1];
    let m = run(tiny_cache_config(), SystemKind::LogTm, programs.clone());
    assert!(m.stats().aborts >= 1, "non-tx conflict forces an abort");
    let l = m.backend().as_logtm().unwrap().stats();
    assert!(l.log_restores > 0, "the undo log was walked");
    assert_eq!(m.read_committed(ProcessId(0), VirtAddr::new(base)), 8);
    assert_eq!(
        m.read_committed(ProcessId(0), VirtAddr::new(base + 8 * 64 + 4)),
        99
    );
    assert_serializable(&m, &programs);
}

#[test]
fn logtm_ordered_transactions_do_not_deadlock() {
    // An ordered younger transaction holds data an older transaction wants;
    // the younger can't commit until the older does. LogTM's stall-preferring
    // resolution must break this cycle via the possible-cycle heuristic.
    let x = 0x10_0000u64;
    let programs: Vec<_> = (0..2u64)
        .map(|t| {
            let mut ops = Vec::new();
            for i in 0..6u64 {
                let seq = i * 2 + t;
                ops.push(Op::Begin {
                    ordered: OrderedSeq::new(0, seq),
                    lock: VirtAddr::new(lock0()),
                });
                ops.push(Op::Rmw(VirtAddr::new(x), 1));
                ops.push(Op::Compute(150));
                ops.push(Op::End);
            }
            ThreadProgram::new(ProcessId(0), ThreadId(t as u32), ops)
        })
        .collect();
    let m = run(tiny_cache_config(), SystemKind::LogTm, programs.clone());
    assert_eq!(m.stats().commits, 12);
    assert_eq!(m.read_committed(ProcessId(0), VirtAddr::new(x)), 12);
    assert_serializable(&m, &programs);
}

#[test]
fn barriers_are_migration_safe() {
    // Threads migrate between cores while blocked at barriers: arrivals are
    // tracked per thread, so a migrated thread's old core cannot satisfy the
    // barrier on behalf of a thread that has not arrived. Phase ordering
    // must hold: phase-2 writes overwrite phase-1 writes of other threads.
    let x = 0x90_0000u64;
    let mk = |t: u64| {
        let mut ops = Vec::new();
        // Phase 1: thread t writes slot t.
        ops.push(begin(lock0() + t * 64));
        ops.push(Op::Write(VirtAddr::new(x + t * 4), (t + 1) as u32));
        ops.push(Op::Compute(if t == 0 { 9_000 } else { 50 }));
        ops.push(Op::End);
        ops.push(Op::Barrier(0));
        // Phase 2: every thread overwrites slot (t+1)%4 — only safe if the
        // barrier really separated the phases.
        let o = (t + 1) % 4;
        ops.push(begin(lock0() + 1024 + t * 64));
        ops.push(Op::Write(VirtAddr::new(x + o * 4), (o + 100) as u32));
        ops.push(Op::End);
        ThreadProgram::new(ProcessId(0), ThreadId(t as u32), ops)
    };
    let cfg = MachineConfig {
        kernel: ptm_sim::KernelConfig {
            cs_interval: Some(700),
            migrate_on_cs: true,
            ..Default::default()
        },
        ..MachineConfig::default()
    };
    let programs: Vec<_> = (0..4).map(mk).collect();
    let m = run(
        cfg,
        SystemKind::SelectPtm(Granularity::Block),
        programs.clone(),
    );
    assert!(m.kernel_stats().context_switches > 0);
    for t in 0..4u64 {
        assert_eq!(
            m.read_committed(ProcessId(0), VirtAddr::new(x + t * 4)),
            (t + 100) as u32,
            "phase-2 value must win in slot {t}"
        );
    }
    assert_serializable(&m, &programs);
}

/// What a run leaves behind: stats `Display`, per-core checksums and the
/// commit log.
fn run_record(m: &Machine) -> (String, Vec<u64>, Vec<CommittedTx>) {
    (
        m.stats().to_string(),
        m.checksums(),
        m.stats().commit_log.clone(),
    )
}

/// Two threads whose transactions each write 24 blocks across pages.
fn spilling_programs() -> Vec<ThreadProgram> {
    (0..2)
        .map(|t| {
            let base = 0x40_0000u64 + t as u64 * 0x10_0000;
            let mut ops = Vec::new();
            for it in 0..3u64 {
                ops.push(begin(lock0() + t as u64 * 64));
                for blk in 0..24u64 {
                    ops.push(Op::Rmw(VirtAddr::new(base + it * 8192 + blk * 64), 1));
                }
                ops.push(Op::End);
            }
            ThreadProgram::new(ProcessId(0), ThreadId(t), ops)
        })
        .collect()
}

#[test]
fn reset_machine_runs_as_a_new_one() {
    // One machine is reset through runs that differ in memory size, cache
    // geometry (hierarchies replaced), core count and fault plan (a storm
    // leaves swapped pages, live-transaction state and TAV caps behind).
    // After each reset it must run exactly as a new machine.
    let storm = FaultPlan::from_seed(0x5eed, 300, 12);
    let plain = FaultPlan::empty();
    let default = MachineConfig::default();
    let small = MachineConfig {
        mem_frames: 2_048,
        ..default
    };
    let tiny = tiny_cache_config();
    let steps: [(MachineConfig, Vec<ThreadProgram>, &FaultPlan); 5] = [
        (small, spilling_programs(), &plain),
        (tiny, counter_programs(4, 10), &storm),
        (tiny, spilling_programs(), &plain),
        (default, counter_programs(3, 6), &storm),
        (small, counter_programs(4, 10), &plain),
    ];
    for kind in [
        SystemKind::SelectPtm(Granularity::Block),
        SystemKind::CopyPtm,
        SystemKind::Vtm,
    ] {
        let mut m = Machine::new(default, kind, counter_programs(4, 10));
        m.run();
        for (i, (cfg, programs, plan)) in steps.iter().enumerate() {
            m.reset(*cfg, programs.clone());
            let mut fresh = Machine::new(*cfg, kind, programs.clone());
            if plan.events.is_empty() {
                m.run();
                fresh.run();
            } else {
                m.run_with_faults(plan);
                fresh.run_with_faults(plan);
            }
            assert_eq!(run_record(&m), run_record(&fresh), "{kind}, step {i}");
        }
    }
}
