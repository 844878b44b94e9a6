//! Swap round-trips under fire: the six workloads that historically broke
//! serializability (cases `prop_serializability` once shrank failures to)
//! re-run with forced swap-outs of hot transactional pages injected mid-run,
//! under both PTM policies. SPT→SIT→SPT migration of the shadow pointer,
//! selection vector and TAV heads is what these runs exercise end-to-end;
//! the field-level assertions live in `crates/ptm/tests/paging.rs`.

use unbounded_ptm::cache::CacheConfig;
use unbounded_ptm::sim::{
    assert_invariants, diff_against_machine, FaultAction, FaultEvent, FaultPlan, Machine,
    SystemKind,
};
use unbounded_ptm::types::Granularity;
use unbounded_ptm::workloads::synthetic::{workload, SyntheticConfig};

/// The six shrunk regression cases, verbatim.
fn regression_configs() -> [SyntheticConfig; 6] {
    [
        SyntheticConfig {
            threads: 2,
            txs_per_thread: 2,
            ops_per_tx: 19,
            private_pages: 3,
            shared_pages: 1,
            shared_fraction: 0.7735800901487103,
            write_fraction: 0.7823090233995159,
            seed: 34355068198718879,
        },
        SyntheticConfig {
            threads: 4,
            txs_per_thread: 1,
            ops_per_tx: 26,
            private_pages: 4,
            shared_pages: 1,
            shared_fraction: 0.42409011694140625,
            write_fraction: 0.47560666492343084,
            seed: 7260712957295347068,
        },
        SyntheticConfig {
            threads: 4,
            txs_per_thread: 2,
            ops_per_tx: 21,
            private_pages: 2,
            shared_pages: 1,
            shared_fraction: 0.8117143369982661,
            write_fraction: 0.899767387474694,
            seed: 544321177786663042,
        },
        SyntheticConfig {
            threads: 3,
            txs_per_thread: 6,
            ops_per_tx: 26,
            private_pages: 3,
            shared_pages: 1,
            shared_fraction: 0.9363764203407908,
            write_fraction: 0.6484693453999143,
            seed: 3187005790505508750,
        },
        SyntheticConfig {
            threads: 4,
            txs_per_thread: 5,
            ops_per_tx: 10,
            private_pages: 3,
            shared_pages: 1,
            shared_fraction: 0.5924135299531551,
            write_fraction: 0.7820853029170244,
            seed: 13957330436400438267,
        },
        // This one originally failed with migration enabled; keep that.
        SyntheticConfig {
            threads: 4,
            txs_per_thread: 4,
            ops_per_tx: 19,
            private_pages: 2,
            shared_pages: 1,
            shared_fraction: 0.4385316673566836,
            write_fraction: 0.7408102966696212,
            seed: 17519741980151038485,
        },
    ]
}

/// A barrage of hot-page swap-outs spread across the run, on a slow swap
/// device, with a mid-run abort storm for good measure.
fn swap_plan() -> FaultPlan {
    let mut events = vec![FaultEvent {
        step: 0,
        action: FaultAction::DelaySwapIns { delay: 300 },
    }];
    for i in 0..12u64 {
        events.push(FaultEvent {
            step: 40 + i * 90,
            action: FaultAction::SwapOutHotPage { nth: i as u8 },
        });
    }
    events.push(FaultEvent {
        step: 500,
        action: FaultAction::AbortStorm { count: 2 },
    });
    let mut plan = FaultPlan { events };
    plan.normalize();
    plan
}

#[test]
fn regression_workloads_survive_forced_swaps() {
    let plan = swap_plan();
    let mut total_swap_outs = 0;
    let mut total_swap_ins = 0;
    for (i, cfg) in regression_configs().into_iter().enumerate() {
        for (kind, migrate) in [
            (SystemKind::CopyPtm, false),
            (SystemKind::SelectPtm(Granularity::Block), false),
            (SystemKind::CopyPtm, i == 5),
            (SystemKind::SelectPtm(Granularity::Block), i == 5),
        ] {
            let w = workload(cfg);
            let programs = w.programs_for(kind);
            let mut mc = w.machine_config();
            // Tiny caches force overflows, so swapped pages carry live TAV
            // lists and shadows — the §3.5 state the SIT must preserve.
            mc.l1 = CacheConfig::tiny(2, 1);
            mc.l2 = CacheConfig::tiny(4, 2);
            if migrate {
                mc.kernel.cs_interval = Some(1_700);
                mc.kernel.migrate_on_cs = true;
            }
            let mut m = Machine::new(mc, kind, programs.clone());
            m.run_with_faults(&plan);
            let mismatches = diff_against_machine(&m, &programs);
            assert!(
                mismatches.is_empty(),
                "{kind} (case {i}, migrate={migrate}) diverged: {:?}",
                mismatches.first()
            );
            assert_invariants(&m);
            let ps = m.backend().as_ptm().expect("PTM kinds only").stats();
            total_swap_outs += ps.tx_swap_outs;
            total_swap_ins += ps.tx_swap_ins;
        }
    }
    // The plan must actually have exercised the SPT→SIT→SPT machinery.
    assert!(
        total_swap_outs > 0,
        "no transactional page was ever swapped out"
    );
    assert!(
        total_swap_ins > 0,
        "no transactional page was ever swapped back in"
    );
}

#[test]
fn forced_swaps_are_deterministic() {
    let cfg = regression_configs()[2];
    let plan = swap_plan();
    let run = || {
        let w = workload(cfg);
        let kind = SystemKind::SelectPtm(Granularity::Block);
        let programs = w.programs_for(kind);
        let mut mc = w.machine_config();
        mc.l1 = CacheConfig::tiny(2, 1);
        mc.l2 = CacheConfig::tiny(4, 2);
        let mut m = Machine::new(mc, kind, programs);
        m.run_with_faults(&plan);
        (m.checksums(), format!("{}", m.stats()))
    };
    assert_eq!(run(), run());
}
