//! End-to-end crash-stop recovery: a machine halted at *any* scheduler step
//! — torn TAV publish included, in the middle of a fault storm included —
//! must recover to exactly the committed prefix the serializability oracle
//! predicts, and recovery must be idempotent.

mod common;

use common::{planned, small_config, tiny_machine, to_plan};
use proptest::prelude::*;
use unbounded_ptm::sim::crash::CrashPlan;
use unbounded_ptm::sim::{FaultPlan, SystemKind};
use unbounded_ptm::types::Granularity;
use unbounded_ptm::workloads::synthetic::SyntheticConfig;

/// The six transactional kinds the crash sweep covers.
fn crash_systems() -> Vec<SystemKind> {
    vec![
        SystemKind::Vtm,
        SystemKind::VictimVtm,
        SystemKind::CopyPtm,
        SystemKind::SelectPtm(Granularity::Block),
        SystemKind::SelectPtm(Granularity::WordCache),
        SystemKind::SelectPtm(Granularity::WordCacheMem),
    ]
}

/// Total scheduler steps of a full run of `cfg` under `kind` and `faults`.
fn total_steps(cfg: SyntheticConfig, kind: SystemKind, faults: &FaultPlan) -> u64 {
    let (mut m, _) = tiny_machine(cfg, kind);
    m.run_until_crash(&CrashPlan::at_step(u64::MAX), faults)
        .step
}

/// Crash at `plan` under `faults`, recover, check the oracle and
/// idempotence. Returns the first recovery's stats for callers that assert
/// on them.
fn crash_recover_check(
    cfg: SyntheticConfig,
    kind: SystemKind,
    plan: CrashPlan,
    faults: &FaultPlan,
) -> (
    unbounded_ptm::core::recovery::RecoveryStats,
    unbounded_ptm::sim::crash::CrashImage,
) {
    let (mut m, programs) = tiny_machine(cfg, kind);
    let mut img = m.run_until_crash(&plan, faults);
    let stats = img.recover();
    img.assert_matches_reference(&programs);
    let second = img.recover();
    assert!(
        second.is_noop(),
        "{kind} step {} torn={} under {faults:?}: second recovery was not a no-op: {second:?}",
        plan.step,
        plan.torn
    );
    img.assert_matches_reference(&programs);
    (stats, img)
}

#[test]
fn coarse_sweep_matches_oracle_across_kinds() {
    let cfg = SyntheticConfig {
        threads: 3,
        txs_per_thread: 4,
        ops_per_tx: 10,
        private_pages: 2,
        shared_pages: 1,
        shared_fraction: 0.6,
        write_fraction: 0.6,
        seed: 7,
    };
    for kind in crash_systems() {
        let total = total_steps(cfg, kind, &FaultPlan::empty());
        let stride = (total / 9).max(1);
        let mut step = 0;
        while step <= total {
            crash_recover_check(cfg, kind, CrashPlan::at_step(step), &FaultPlan::empty());
            crash_recover_check(
                cfg,
                kind,
                CrashPlan::torn_at_step(step),
                &FaultPlan::empty(),
            );
            step += stride;
        }
    }
}

#[test]
fn crash_at_step_zero_recovers_initial_state() {
    let cfg = SyntheticConfig::default();
    for kind in crash_systems() {
        let (stats, img) =
            crash_recover_check(cfg, kind, CrashPlan::at_step(0), &FaultPlan::empty());
        assert!(img.commit_log.is_empty(), "{kind}: commits before step 0");
        assert!(
            stats.is_noop(),
            "{kind}: nothing ran, yet recovery found work: {stats:?}"
        );
    }
}

#[test]
fn crash_past_the_end_recovers_final_state() {
    let cfg = SyntheticConfig::default();
    for kind in crash_systems() {
        let (stats, img) =
            crash_recover_check(cfg, kind, CrashPlan::at_step(u64::MAX), &FaultPlan::empty());
        assert!(img.finished, "{kind}: run should have completed");
        // No transactions are live after a completed run. Select-PTM may
        // still fold committed-in-shadow blocks home (lazy migration leaves
        // them parked), but nothing may be discarded or repaired.
        assert_eq!(
            (
                stats.transactions_discarded,
                stats.tav_nodes_freed,
                stats.torn_nodes_repaired
            ),
            (0, 0, 0),
            "{kind}: a completed run has nothing live, yet: {stats:?}"
        );
    }
}

/// The torn mode must actually fire on PTM kinds: scan for a crash point
/// with an in-flight overflowed transaction and check the orphaned node is
/// found and repaired.
#[test]
fn torn_tav_tail_is_detected_and_repaired() {
    let cfg = SyntheticConfig {
        threads: 4,
        txs_per_thread: 6,
        ops_per_tx: 20,
        private_pages: 2,
        shared_pages: 2,
        shared_fraction: 0.7,
        write_fraction: 0.7,
        seed: 11,
    };
    for kind in [
        SystemKind::CopyPtm,
        SystemKind::SelectPtm(Granularity::Block),
        SystemKind::SelectPtm(Granularity::WordCacheMem),
    ] {
        let total = total_steps(cfg, kind, &FaultPlan::empty());
        let stride = (total / 200).max(1);
        let mut torn_seen = false;
        let mut step = 0;
        while step <= total && !torn_seen {
            let (stats, img) = crash_recover_check(
                cfg,
                kind,
                CrashPlan::torn_at_step(step),
                &FaultPlan::empty(),
            );
            if img.torn.is_some() {
                torn_seen = true;
                assert!(
                    stats.torn_nodes_repaired >= 1,
                    "{kind} step {step}: tear applied to {:?} but no torn node repaired: {stats:?}",
                    img.torn
                );
            }
            step += stride;
        }
        assert!(
            torn_seen,
            "{kind}: no crash point with a live overflowed transaction found \
             (workload too small to exercise the torn mode)"
        );
    }
}

/// Non-transactional kinds: a crash needs no recovery, and the committed
/// prefix is simply everything executed (writes are durable immediately).
#[test]
fn serial_and_locks_recover_as_noop() {
    let cfg = SyntheticConfig::default();
    for kind in [SystemKind::Serial, SystemKind::Locks] {
        let total = total_steps(cfg, kind, &FaultPlan::empty());
        let stride = (total / 7).max(1);
        let mut step = 0;
        while step <= total {
            let (stats, _) =
                crash_recover_check(cfg, kind, CrashPlan::at_step(step), &FaultPlan::empty());
            assert!(stats.is_noop(), "{kind}: recovery should be a no-op");
            step += stride;
        }
    }
}

/// LogTM rolls its undo logs backwards; a mid-run crash must restore every
/// eagerly-written speculative word.
#[test]
fn logtm_undo_replay_restores_committed_state() {
    let cfg = SyntheticConfig {
        threads: 3,
        txs_per_thread: 5,
        ops_per_tx: 12,
        private_pages: 2,
        shared_pages: 1,
        shared_fraction: 0.6,
        write_fraction: 0.7,
        seed: 23,
    };
    let kind = SystemKind::LogTm;
    let total = total_steps(cfg, kind, &FaultPlan::empty());
    let stride = (total / 23).max(1);
    let mut rolled_back = false;
    let mut step = 0;
    while step <= total {
        let (stats, _) =
            crash_recover_check(cfg, kind, CrashPlan::at_step(step), &FaultPlan::empty());
        rolled_back |= stats.blocks_restored > 0;
        step += stride;
    }
    assert!(
        rolled_back,
        "no crash point caught LogTM with a non-empty undo log"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, ..ProptestConfig::default()
    })]

    /// Any crash point, any kind, torn or clean, under any fault plan:
    /// recovery lands exactly on the committed-prefix oracle and a second
    /// pass is a no-op.
    #[test]
    fn recovery_is_correct_and_idempotent_everywhere(
        cfg in small_config(),
        kind_sel in 0usize..6,
        frac in 0.0f64..=1.0,
        torn in any::<bool>(),
        planned in proptest::collection::vec(planned(), 0..6),
    ) {
        let kind = crash_systems()[kind_sel];
        let faults = to_plan(&planned);
        let total = total_steps(cfg, kind, &faults);
        let step = (total as f64 * frac) as u64;
        let plan = CrashPlan { step, torn };
        crash_recover_check(cfg, kind, plan, &faults);
    }
}
