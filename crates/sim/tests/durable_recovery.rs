//! Integration and property tests for the durable-log seam.
//!
//! The durability layer is opt-in and must be *transparent* when it costs
//! nothing: an eager-forced, zero-latency, fault-free log attached to a
//! machine must leave every observable simulated result — cycles, commit
//! log, checksums, kernel and bus counters — bit-identical to the same
//! machine running volatile. Crashing a durable run anywhere and
//! recovering must satisfy the committed-prefix oracle and be idempotent,
//! and the log-integrity invariants (no phantom commits, no undo-replay
//! mismatches, no missing commit records under eager forcing) must hold
//! under injected device faults. A device stalled hard must throttle
//! commits, never deadlock them.

use proptest::prelude::*;
use ptm_core::durability::{DurabilityConfig, ForcePolicy, MAX_LOG_RETRIES};
use ptm_mem::{LogDevConfig, LogFaultPlan};
use ptm_sim::crash::CrashPlan;
use ptm_sim::{FaultPlan, Machine, MachineConfig, Op, SystemKind, ThreadProgram};
use ptm_types::{Granularity, ProcessId, ThreadId, VirtAddr};

// ---------------------------------------------------------------------------
// Random workload generation (shared-vs-private address pool, biased
// toward transactions that write: undo/redo logging only fires on dirty
// overflows and commits).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Segment {
    Compute(u32),
    /// `(address index, is_write)` accesses wrapped in Begin/End.
    Tx(Vec<(u8, bool)>),
}

fn segment() -> impl Strategy<Value = Segment> {
    prop_oneof![
        1 => (1u32..6).prop_map(Segment::Compute),
        4 => prop::collection::vec((0u8..12, any::<bool>()), 1..8).prop_map(Segment::Tx),
    ]
}

fn addr(thread: usize, idx: u8) -> VirtAddr {
    if idx < 4 {
        VirtAddr::new(0x4000 + u64::from(idx) * 4)
    } else {
        VirtAddr::new(0x10_0000 + (thread as u64) * 0x2000 + u64::from(idx - 4) * 4)
    }
}

fn programs_from(segments: &[Vec<Segment>]) -> Vec<ThreadProgram> {
    let pid = ProcessId(3);
    segments
        .iter()
        .enumerate()
        .map(|(t, segs)| {
            let mut ops = Vec::new();
            for seg in segs {
                match seg {
                    Segment::Compute(c) => ops.push(Op::Compute(*c)),
                    Segment::Tx(accesses) => {
                        ops.push(Op::Begin {
                            ordered: None,
                            lock: VirtAddr::new(0x9000),
                        });
                        for (a, is_write) in accesses {
                            if *is_write {
                                ops.push(Op::Rmw(addr(t, *a), 1));
                            } else {
                                ops.push(Op::Read(addr(t, *a)));
                            }
                        }
                        ops.push(Op::End);
                    }
                }
            }
            ThreadProgram::new(pid, ThreadId(t as u32), ops)
        })
        .collect()
}

fn kind_of(choice: u8) -> SystemKind {
    match choice % 4 {
        0 => SystemKind::CopyPtm,
        1 => SystemKind::SelectPtm(Granularity::Block),
        2 => SystemKind::SelectPtm(Granularity::WordCache),
        _ => SystemKind::LogTm,
    }
}

/// Everything observable about a finished machine, in deterministic order.
fn fingerprint(m: &Machine) -> String {
    let s = m.stats();
    format!(
        "cycles={} mem_ops={} begins={} commits={} aborts={} stalls={} \
         tlb={}h/{}m l2={}miss checksums={:?} commit_log={:?} kernel={:?} bus={:?}",
        s.cycles,
        s.mem_ops,
        s.begins,
        s.commits,
        s.aborts,
        s.stall_cycles,
        s.tlb_hits,
        s.tlb_misses,
        s.l2_misses,
        m.checksums(),
        s.commit_log,
        m.kernel_stats(),
        m.bus_stats(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// A zero-cost, fault-free, eager-forced log is observationally free:
    /// the durable run is bit-identical to the volatile run on every
    /// system kind and workload — LogTM's forced WAL appends included.
    #[test]
    fn zero_cost_eager_durability_is_transparent(
        segments in prop::collection::vec(prop::collection::vec(segment(), 1..12), 1..4),
        kind_choice in 0u8..4,
    ) {
        let kind = kind_of(kind_choice);
        let programs = programs_from(&segments);

        let mut volatile = Machine::new(MachineConfig::default(), kind, programs.clone());
        volatile.run();

        let mut durable = Machine::new(MachineConfig::default(), kind, programs);
        durable.enable_durability(DurabilityConfig::zero_cost_eager());
        durable.run();

        prop_assert_eq!(fingerprint(&volatile), fingerprint(&durable));
        let dur = durable.durable_stats().expect("durable machine");
        prop_assert_eq!(dur.commit_latency_cycles, 0, "zero-cost must charge nothing");
        prop_assert_eq!(dur.throttle_events, 0);
    }

    /// Crashing a fault-injected durable run anywhere and recovering
    /// satisfies the committed-prefix oracle, is idempotent, and upholds
    /// the log-integrity invariants under every force policy.
    #[test]
    fn durable_crash_recovery_is_oracle_clean_and_idempotent(
        segments in prop::collection::vec(prop::collection::vec(segment(), 1..12), 1..4),
        kind_choice in 0u8..2, // undo verification targets block granularity
        policy_choice in 0u8..3,
        fault_seed in 0u64..16,
        crash_fraction in 0.0f64..1.0,
    ) {
        let kind = kind_of(kind_choice);
        let policy = match policy_choice {
            0 => ForcePolicy::Eager,
            1 => ForcePolicy::Lazy,
            _ => ForcePolicy::Group(3),
        };
        let cfg = DurabilityConfig {
            policy,
            dev: LogDevConfig::realistic(),
            faults: LogFaultPlan::from_seed(fault_seed),
        };
        let programs = programs_from(&segments);

        // Probe for the run length, then crash at the chosen fraction.
        let total = {
            let mut m = Machine::new(MachineConfig::default(), kind, programs.clone());
            m.enable_durability(cfg);
            m.run_until_crash(&CrashPlan::at_step(u64::MAX), &FaultPlan::empty()).step
        };
        let crash_step = ((total as f64) * crash_fraction) as u64;

        let mut m = Machine::new(MachineConfig::default(), kind, programs.clone());
        m.enable_durability(cfg);
        let mut img = m.run_until_crash(&CrashPlan::at_step(crash_step), &FaultPlan::empty());
        prop_assert!(img.log.is_some(), "durable crash image must carry the log");

        let stats = img.recover();
        prop_assert_eq!(stats.log_phantom_commits, 0, "phantom commit records");
        prop_assert_eq!(stats.log_replay_mismatches, 0, "undo pre-image contradicts memory");
        if policy == ForcePolicy::Eager {
            prop_assert_eq!(
                stats.log_commits_missing, 0,
                "eager forcing must persist every commit record"
            );
        }
        prop_assert_eq!(img.diff_committed(&programs), Vec::new());
        prop_assert!(img.recover().is_noop(), "second recovery must be a no-op");
    }

    /// LogTM's undo records route through the same durable log: crashing a
    /// fault-injected eager-versioning run anywhere and replaying the
    /// *device* log — the software undo logs are volatile and cleared from
    /// the image — satisfies the committed-prefix oracle, is idempotent,
    /// and upholds the integrity invariants under eager, lazy and group
    /// forcing (the WAL appends are forced regardless of policy).
    #[test]
    fn logtm_unified_log_crash_recovery_is_oracle_clean_and_idempotent(
        segments in prop::collection::vec(prop::collection::vec(segment(), 1..12), 1..4),
        policy_choice in 0u8..3,
        fault_seed in 0u64..16,
        crash_fraction in 0.0f64..1.0,
    ) {
        let policy = match policy_choice {
            0 => ForcePolicy::Eager,
            1 => ForcePolicy::Lazy,
            _ => ForcePolicy::Group(4),
        };
        let cfg = DurabilityConfig {
            policy,
            dev: LogDevConfig::realistic(),
            faults: LogFaultPlan::from_seed(fault_seed),
        };
        let programs = programs_from(&segments);

        let total = {
            let mut m = Machine::new(MachineConfig::default(), SystemKind::LogTm, programs.clone());
            m.enable_durability(cfg);
            m.run_until_crash(&CrashPlan::at_step(u64::MAX), &FaultPlan::empty()).step
        };
        let crash_step = ((total as f64) * crash_fraction) as u64;

        let mut m = Machine::new(MachineConfig::default(), SystemKind::LogTm, programs.clone());
        m.enable_durability(cfg);
        let mut img = m.run_until_crash(&CrashPlan::at_step(crash_step), &FaultPlan::empty());
        prop_assert!(img.log.is_some(), "durable crash image must carry the log");

        // The software undo logs must not have leaked into the durable
        // image: the unified log is the only recovery source.
        let logtm = img.backend.as_logtm().expect("LogTM backend");
        for tx in logtm.tstate().live_transactions() {
            prop_assert!(
                logtm.log_addrs(tx).is_empty(),
                "volatile software undo log leaked into the crash image"
            );
        }

        let stats = img.recover();
        prop_assert_eq!(stats.log_phantom_commits, 0, "phantom commit records");
        prop_assert_eq!(stats.log_replay_mismatches, 0, "undo pre-image contradicts memory");
        if policy == ForcePolicy::Eager {
            prop_assert_eq!(
                stats.log_commits_missing, 0,
                "eager forcing must persist every commit record"
            );
        }
        prop_assert_eq!(img.diff_committed(&programs), Vec::new());
        prop_assert!(img.recover().is_noop(), "second recovery must be a no-op");
    }
}

/// A device that stalls constantly still lets the machine finish: commits
/// are throttled (deferred and retried), appends stay within the bounded
/// retry budget, and nothing deadlocks.
#[test]
fn hard_stalls_throttle_commits_without_deadlock() {
    let segments: Vec<Vec<Segment>> = (0..3)
        .map(|t| {
            (0..8)
                .map(|i| Segment::Tx(vec![(4 + ((t + i) % 8) as u8, true), (0, true)]))
                .collect()
        })
        .collect();
    let programs = programs_from(&segments);
    let mut m = Machine::new(
        MachineConfig::default(),
        SystemKind::SelectPtm(Granularity::Block),
        programs,
    );
    m.enable_durability(DurabilityConfig {
        policy: ForcePolicy::Eager,
        dev: LogDevConfig::realistic(),
        faults: LogFaultPlan {
            seed: 999,
            transient_pct: 0,
            stall_pct: 60,
            stall_window: 4_000,
            reorder_pct: 0,
            reorder_jitter: 0,
            torn_pct: 0,
        },
    });
    m.run();
    let dur = m.durable_stats().expect("durable machine");
    let dev = m.log_dev_stats().expect("durable machine");
    assert!(m.stats().commits > 0, "the workload must commit");
    assert!(dev.stall_events > 0, "the stall plan never fired");
    assert!(
        dur.throttle_events > 0,
        "a stalled device must throttle commits, not pass them through"
    );
    assert!(
        dur.max_append_attempts <= MAX_LOG_RETRIES,
        "append attempts {} exceeded the bounded retry budget {}",
        dur.max_append_attempts,
        MAX_LOG_RETRIES
    );
}

/// A crash in the middle of an eager-versioning transaction finds its
/// in-place stores already sitting in memory; recovery must roll them back
/// from the forced word-undo records of the unified durable log — the
/// volatile software undo log is gone. Sweeps every crash step so at least
/// one catches the transaction mid-flight with pre-images logged.
#[test]
fn logtm_word_undo_replay_restores_midflight_stores() {
    let segments = vec![vec![
        Segment::Tx(vec![(0, true), (1, true), (4, true), (5, true)]),
        Segment::Compute(3),
    ]];
    let programs = programs_from(&segments);
    let cfg = DurabilityConfig {
        policy: ForcePolicy::Lazy, // WAL forcing is policy-independent
        dev: LogDevConfig::realistic(),
        faults: LogFaultPlan::none(),
    };
    let total = {
        let mut m = Machine::new(
            MachineConfig::default(),
            SystemKind::LogTm,
            programs.clone(),
        );
        m.enable_durability(cfg);
        m.run_until_crash(&CrashPlan::at_step(u64::MAX), &FaultPlan::empty())
            .step
    };
    let mut exercised = false;
    for step in 0..total {
        let mut m = Machine::new(
            MachineConfig::default(),
            SystemKind::LogTm,
            programs.clone(),
        );
        m.enable_durability(cfg);
        let mut img = m.run_until_crash(&CrashPlan::at_step(step), &FaultPlan::empty());
        let live = img
            .backend
            .as_logtm()
            .expect("LogTM backend")
            .tstate()
            .live_transactions();
        let logged = img.dur.as_ref().expect("durable image").word_undo_records;
        let stats = img.recover();
        if !live.is_empty() && logged > 0 {
            exercised = true;
            assert!(
                stats.log_word_undo_records > 0,
                "the scan must see the forced WAL records at step {step}"
            );
            assert!(
                stats.blocks_restored > 0,
                "a mid-flight crash must roll stores back at step {step}"
            );
        }
        img.assert_matches_reference(&programs);
        assert!(img.recover().is_noop(), "second recovery at step {step}");
    }
    assert!(exercised, "no crash step caught the transaction mid-flight");
}
