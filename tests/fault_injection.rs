//! End-to-end fault injection: adversarial schedules must never break
//! serializability, leak resources, or diverge between identical runs —
//! and an *empty* plan must be bit-identical to the plain run loop.

mod common;

use common::{planned, small_config, tiny_machine, to_plan};
use proptest::prelude::*;
use unbounded_ptm::sim::{assert_invariants, diff_against_machine, FaultPlan, SystemKind};
use unbounded_ptm::types::Granularity;
use unbounded_ptm::workloads::synthetic::SyntheticConfig;

fn fault_systems() -> Vec<SystemKind> {
    vec![
        SystemKind::CopyPtm,
        SystemKind::SelectPtm(Granularity::Block),
        SystemKind::SelectPtm(Granularity::WordCacheMem),
        SystemKind::Vtm,
    ]
}

#[test]
fn empty_plan_is_bit_identical_to_run() {
    let cfg = SyntheticConfig::default();
    for kind in [
        SystemKind::Locks,
        SystemKind::Vtm,
        SystemKind::CopyPtm,
        SystemKind::SelectPtm(Granularity::Block),
        SystemKind::SelectPtm(Granularity::WordCacheMem),
        SystemKind::LogTm,
    ] {
        let (mut plain, _) = tiny_machine(cfg, kind);
        plain.run();
        let (mut faulted, _) = tiny_machine(cfg, kind);
        faulted.run_with_faults(&FaultPlan::empty());
        assert_eq!(
            plain.checksums(),
            faulted.checksums(),
            "{kind}: checksums diverged under an empty plan"
        );
        assert_eq!(
            format!("{}", plain.stats()),
            format!("{}", faulted.stats()),
            "{kind}: stats diverged under an empty plan"
        );
        assert_eq!(
            plain.stats().commit_log,
            faulted.stats().commit_log,
            "{kind}: commit order diverged under an empty plan"
        );
    }
}

#[test]
fn injected_runs_are_deterministic() {
    let cfg = SyntheticConfig {
        write_fraction: 0.7,
        ..SyntheticConfig::default()
    };
    let plan = FaultPlan::from_seed(0xFA117, 8_000, 10);
    assert!(!plan.is_empty());
    let kind = SystemKind::SelectPtm(Granularity::Block);
    let run = |p: &FaultPlan| {
        let (mut m, _) = tiny_machine(cfg, kind);
        m.run_with_faults(p);
        (m.checksums(), format!("{}", m.stats()))
    };
    assert_eq!(run(&plan), run(&plan), "same plan, same seed, same bits");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// The tentpole property: any plan, any small workload, every PTM/VTM
    /// system — the run completes without panicking, the serializability
    /// oracle passes, and the stats identities hold. On failure proptest
    /// shrinks both the workload and the plan to a minimal reproducer.
    #[test]
    fn faulted_runs_stay_serializable(
        cfg in small_config(),
        planned in proptest::collection::vec(planned(), 0..8),
    ) {
        let plan = to_plan(&planned);
        for kind in fault_systems() {
            let (mut m, programs) = tiny_machine(cfg, kind);
            m.run_with_faults(&plan);
            let mismatches = diff_against_machine(&m, &programs);
            prop_assert!(
                mismatches.is_empty(),
                "{kind} diverged on {cfg:?} under {plan:?}: {:?}",
                mismatches.first()
            );
            assert_invariants(&m);
        }
    }
}
