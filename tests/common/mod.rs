//! Proptest inputs shared by the fault-injection and crash-recovery suites:
//! small synthetic workloads on tiny-cache machines, and shrinkable fault
//! plans.

use proptest::prelude::*;
use unbounded_ptm::cache::CacheConfig;
use unbounded_ptm::sim::{FaultAction, FaultEvent, FaultPlan, Machine, SystemKind, ThreadProgram};
use unbounded_ptm::workloads::synthetic::{workload, SyntheticConfig};

pub fn small_config() -> impl Strategy<Value = SyntheticConfig> {
    (
        2usize..=4,   // threads
        1usize..=6,   // txs per thread
        1usize..=24,  // ops per tx
        1usize..=4,   // private pages
        1usize..=2,   // shared pages
        0.0f64..=1.0, // shared fraction
        0.1f64..=0.9, // write fraction
        any::<u64>(), // seed
    )
        .prop_map(
            |(threads, txs, ops, private, shared, sf, wf, seed)| SyntheticConfig {
                threads,
                txs_per_thread: txs,
                ops_per_tx: ops,
                private_pages: private,
                shared_pages: shared,
                shared_fraction: sf,
                write_fraction: wf,
                seed,
            },
        )
}

/// A shrinkable fault, mapped to one or two [`FaultEvent`]s. Resource
/// squeezes carry their own release offset so that proptest shrinking can
/// never separate a squeeze from its release (an unpaired squeeze starves
/// the run into the progress guard, which would mask the real failure).
#[derive(Debug, Clone, Copy)]
pub enum Planned {
    Cs { step: u64, core: u8 },
    Migrate { step: u64, core: u8 },
    Swap { step: u64, nth: u8 },
    Storm { step: u64, count: u8 },
    Squeeze { step: u64, leave: u8, hold: u64 },
    Cap { step: u64, slack: u8, hold: u64 },
    Delay { step: u64, delay: u16 },
}

pub fn planned() -> impl Strategy<Value = Planned> {
    let step = 0u64..6_000;
    let hold = 1u64..2_000;
    prop_oneof![
        (step.clone(), any::<u8>()).prop_map(|(step, core)| Planned::Cs { step, core }),
        (step.clone(), any::<u8>()).prop_map(|(step, core)| Planned::Migrate { step, core }),
        (step.clone(), any::<u8>()).prop_map(|(step, nth)| Planned::Swap { step, nth }),
        (step.clone(), 1u8..4).prop_map(|(step, count)| Planned::Storm { step, count }),
        (step.clone(), 0u8..3, hold.clone()).prop_map(|(step, leave, hold)| Planned::Squeeze {
            step,
            leave,
            hold
        }),
        (step.clone(), 0u8..4, hold).prop_map(|(step, slack, hold)| Planned::Cap {
            step,
            slack,
            hold
        }),
        (step, 0u16..5_000).prop_map(|(step, delay)| Planned::Delay { step, delay }),
    ]
}

pub fn to_plan(planned: &[Planned]) -> FaultPlan {
    let mut events = Vec::new();
    for p in planned {
        match *p {
            Planned::Cs { step, core } => events.push(FaultEvent {
                step,
                action: FaultAction::ForceContextSwitch { core },
            }),
            Planned::Migrate { step, core } => events.push(FaultEvent {
                step,
                action: FaultAction::ForceMigration { core },
            }),
            Planned::Swap { step, nth } => events.push(FaultEvent {
                step,
                action: FaultAction::SwapOutHotPage { nth },
            }),
            Planned::Storm { step, count } => events.push(FaultEvent {
                step,
                action: FaultAction::AbortStorm { count },
            }),
            Planned::Squeeze { step, leave, hold } => {
                events.push(FaultEvent {
                    step,
                    action: FaultAction::SqueezeMemory { leave },
                });
                events.push(FaultEvent {
                    step: step + hold,
                    action: FaultAction::ReleaseMemory,
                });
            }
            Planned::Cap { step, slack, hold } => {
                events.push(FaultEvent {
                    step,
                    action: FaultAction::CapTavArena { slack },
                });
                events.push(FaultEvent {
                    step: step + hold,
                    action: FaultAction::UncapTavArena,
                });
            }
            Planned::Delay { step, delay } => events.push(FaultEvent {
                step,
                action: FaultAction::DelaySwapIns { delay },
            }),
        }
    }
    let mut plan = FaultPlan { events };
    plan.normalize();
    plan
}

/// Tiny caches force transactional overflow, so faults and crashes land on
/// machines with real SPT/SIT/TAV state.
pub fn tiny_machine(cfg: SyntheticConfig, kind: SystemKind) -> (Machine, Vec<ThreadProgram>) {
    let w = workload(cfg);
    let programs = w.programs_for(kind);
    let mut mc = w.machine_config();
    mc.l1 = CacheConfig::tiny(2, 1);
    mc.l2 = CacheConfig::tiny(4, 2);
    (Machine::new(mc, kind, programs.clone()), programs)
}
