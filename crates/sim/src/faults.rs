//! Deterministic fault injection: adversarial schedule events driven by a
//! seed, replayable bit-for-bit.
//!
//! A [`FaultPlan`] is a sorted list of [`FaultEvent`]s, each firing at a
//! *step index* of the machine's scheduling loop (not a cycle — step
//! indices are stable across timing changes within a run, which is what
//! makes shrinking a failing plan meaningful). [`Machine::run_with_faults`]
//! hands the plan to the step driver that every run goes through; an
//! **empty plan is bit-identical to [`Machine::run`]** — same checksums,
//! same stats — because `run` is the same call with an empty plan.
//!
//! The events model the hostile environments of §3.5/§4.7: forced context
//! switches and thread migrations mid-transaction, swap-outs of hot
//! transactional pages, abort storms, physical-memory squeezes (the frame
//! pool drains to almost nothing), TAV-arena caps, and slow swap devices.
//! Resource-pressure events always come in pairs (`SqueezeMemory` →
//! `ReleaseMemory`, `CapTavArena` → `UncapTavArena`) so a run can stall but
//! never deadlock; the driver releases anything still held when the run
//! finishes early.

use crate::backend::Backend;
use crate::machine::Machine;
use ptm_cache::flush_non_tx_lines;
use ptm_types::rng::{splitmix64, Fnv1a64};
use ptm_types::{FrameId, PhysBlock, ProcessId, Vpn};

/// One adversarial event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Force a context switch on `core` (mod the core count) right now,
    /// regardless of the kernel's timer: pay the switch cost, flush
    /// non-transactional cache lines, and migrate if the config migrates on
    /// switches.
    ForceContextSwitch { core: u8 },
    /// Migrate the thread on `core` to its ring neighbour, even if the
    /// kernel config never migrates.
    ForceMigration { core: u8 },
    /// Swap out the `nth` hottest transactional page (one with live TAV
    /// state or a shadow page, if any exists) — §3.5's worst case: paging
    /// out a page with transactions in flight.
    SwapOutHotPage { nth: u8 },
    /// Abort up to `count` live transactions, youngest first.
    AbortStorm { count: u8 },
    /// Allocate hostage frames until at most `leave` frames remain free,
    /// forcing shadow allocation and swap-in down the exhaustion path.
    SqueezeMemory { leave: u8 },
    /// Free every hostage frame taken by earlier squeezes.
    ReleaseMemory,
    /// Cap the TAV arena at `live + slack` nodes.
    CapTavArena { slack: u8 },
    /// Remove the TAV-arena cap.
    UncapTavArena,
    /// Every subsequent swap-in takes `delay` extra cycles (a slow swap
    /// device widens the §3.5 race windows).
    DelaySwapIns { delay: u16 },
}

/// A [`FaultAction`] bound to the scheduling step it fires before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Scheduling-loop step index; the event fires before that step runs.
    pub step: u64,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic schedule of adversarial events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Events; fired in `step` order (ties fire in list order).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no events: `run_with_faults` degenerates to `run`.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Generates `count` events spread over `[0, horizon)` steps from
    /// `seed`. Squeezes and caps are always paired with their release a
    /// bounded distance later, so generated plans cannot starve a run
    /// forever (stalled cores still consume steps, which is what advances
    /// the plan towards the release).
    pub fn from_seed(seed: u64, horizon: u64, count: usize) -> Self {
        let horizon = horizon.max(16);
        let mut rng = seed;
        let mut events = Vec::with_capacity(count * 2);
        for _ in 0..count {
            let step = splitmix64(&mut rng) % horizon;
            let r = splitmix64(&mut rng);
            let action = match r % 7 {
                0 => FaultAction::ForceContextSwitch {
                    core: (r >> 8) as u8,
                },
                1 => FaultAction::ForceMigration {
                    core: (r >> 8) as u8,
                },
                2 => FaultAction::SwapOutHotPage {
                    nth: (r >> 8) as u8,
                },
                3 => FaultAction::AbortStorm {
                    count: 1 + ((r >> 8) % 3) as u8,
                },
                4 => {
                    let release = step + 1 + splitmix64(&mut rng) % (horizon / 4 + 1);
                    events.push(FaultEvent {
                        step: release,
                        action: FaultAction::ReleaseMemory,
                    });
                    FaultAction::SqueezeMemory {
                        leave: ((r >> 8) % 3) as u8,
                    }
                }
                5 => {
                    let uncap = step + 1 + splitmix64(&mut rng) % (horizon / 4 + 1);
                    events.push(FaultEvent {
                        step: uncap,
                        action: FaultAction::UncapTavArena,
                    });
                    FaultAction::CapTavArena {
                        slack: ((r >> 8) % 4) as u8,
                    }
                }
                _ => FaultAction::DelaySwapIns {
                    delay: ((r >> 8) % 5_000) as u16,
                },
            };
            events.push(FaultEvent { step, action });
        }
        let mut plan = FaultPlan { events };
        plan.normalize();
        plan
    }

    /// The shard-chaos generator: abort storms and resource squeezes only —
    /// the fault classes a service frontend must isolate to a single shard
    /// (contention collapse and memory pressure), without the scheduling
    /// events (`ForceContextSwitch`/`ForceMigration`/`SwapOutHotPage`) that
    /// exercise the paging machinery instead. Squeezes and TAV caps come
    /// paired with their release a bounded distance later, exactly like
    /// [`FaultPlan::from_seed`], so a storm plan can stall a shard but never
    /// starve it forever.
    pub fn shard_storm(seed: u64, horizon: u64, count: usize) -> Self {
        let horizon = horizon.max(16);
        let mut rng = seed;
        let mut events = Vec::with_capacity(count * 2);
        for _ in 0..count {
            let step = splitmix64(&mut rng) % horizon;
            let r = splitmix64(&mut rng);
            let action = match r % 4 {
                0 | 1 => FaultAction::AbortStorm {
                    count: 1 + ((r >> 8) % 4) as u8,
                },
                2 => {
                    let release = step + 1 + splitmix64(&mut rng) % (horizon / 4 + 1);
                    events.push(FaultEvent {
                        step: release,
                        action: FaultAction::ReleaseMemory,
                    });
                    FaultAction::SqueezeMemory {
                        leave: 1 + ((r >> 8) % 3) as u8,
                    }
                }
                _ => {
                    let uncap = step + 1 + splitmix64(&mut rng) % (horizon / 4 + 1);
                    events.push(FaultEvent {
                        step: uncap,
                        action: FaultAction::UncapTavArena,
                    });
                    FaultAction::CapTavArena {
                        slack: 1 + ((r >> 8) % 4) as u8,
                    }
                }
            };
            events.push(FaultEvent { step, action });
        }
        let mut plan = FaultPlan { events };
        plan.normalize();
        plan
    }

    /// Sorts events by step, keeping the relative order of same-step events
    /// (so a `SqueezeMemory` generated before its same-step `ReleaseMemory`
    /// still squeezes first).
    pub fn normalize(&mut self) {
        let mut indexed: Vec<(usize, FaultEvent)> = self.events.drain(..).enumerate().collect();
        indexed.sort_by_key(|(i, e)| (e.step, *i));
        self.events = indexed.into_iter().map(|(_, e)| e).collect();
    }

    /// `true` if no events will ever fire.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// An FNV-1a fingerprint of the full event list (steps and every action
    /// payload). Recorded in benchmark reports so a committed JSON names
    /// the exact plan that produced it, independent of seed defaults.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a64::new();
        h.write_u64(self.events.len() as u64);
        for e in &self.events {
            h.write_u64(e.step);
            let (tag, arg) = match e.action {
                FaultAction::ForceContextSwitch { core } => (0, u64::from(core)),
                FaultAction::ForceMigration { core } => (1, u64::from(core)),
                FaultAction::SwapOutHotPage { nth } => (2, u64::from(nth)),
                FaultAction::AbortStorm { count } => (3, u64::from(count)),
                FaultAction::SqueezeMemory { leave } => (4, u64::from(leave)),
                FaultAction::ReleaseMemory => (5, 0),
                FaultAction::CapTavArena { slack } => (6, u64::from(slack)),
                FaultAction::UncapTavArena => (7, 0),
                FaultAction::DelaySwapIns { delay } => (8, u64::from(delay)),
            };
            h.write_u64(tag);
            h.write_u64(arg);
        }
        h.finish()
    }
}

/// Walks a [`FaultPlan`] alongside the step driver, holding the resources
/// (hostage frames) some events acquire.
pub(crate) struct FaultInjector {
    events: Vec<FaultEvent>,
    cursor: usize,
    hostages: Vec<FrameId>,
}

impl FaultInjector {
    /// An injector over a normalized copy of `plan`.
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        let mut plan = plan.clone();
        plan.normalize();
        FaultInjector {
            events: plan.events,
            cursor: 0,
            hostages: Vec::new(),
        }
    }

    /// The step index of the next unfired event (`u64::MAX` if none).
    pub(crate) fn next_due(&self) -> u64 {
        self.events.get(self.cursor).map_or(u64::MAX, |e| e.step)
    }

    /// Fires every event whose step is due at `step`. Returns whether any
    /// fired, in which case the caller must re-key every core.
    pub(crate) fn apply_due(&mut self, m: &mut Machine, step: u64) -> bool {
        let mut fired = false;
        while self.next_due() <= step {
            let ev = self.events[self.cursor];
            self.cursor += 1;
            self.apply(m, ev.action);
            fired = true;
        }
        fired
    }

    fn apply(&mut self, m: &mut Machine, action: FaultAction) {
        match action {
            FaultAction::ForceContextSwitch { core } => {
                let idx = core as usize % m.cores.len();
                if m.cores[idx].prog.is_finished() {
                    return;
                }
                let now = m.cores[idx].ready_at;
                m.cores[idx].ready_at = now + m.cfg.kernel.cs_cost;
                if let Some(interval) = m.cfg.kernel.cs_interval {
                    // Restart the timer exactly like a scheduled switch
                    // would, so the forced switch replaces the next natural
                    // one rather than stacking on top of it.
                    m.cores[idx].next_cs = m.cores[idx].ready_at + interval;
                }
                m.kernel.note_context_switch();
                flush_non_tx_lines(&mut m.caches[idx]);
                if m.cfg.kernel.migrate_on_cs && m.cores.len() > 1 {
                    m.migrate_thread(idx, now);
                }
            }
            FaultAction::ForceMigration { core } => {
                // LogTM's eager versioning cannot migrate in-flight
                // transactions (§5.2); single-core machines have nowhere to
                // migrate to.
                if m.cores.len() < 2 || m.kind == crate::backend::SystemKind::LogTm {
                    return;
                }
                let idx = core as usize % m.cores.len();
                if m.cores[idx].prog.is_finished() {
                    return;
                }
                let now = m.cores[idx].ready_at;
                m.migrate_thread(idx, now);
            }
            FaultAction::SwapOutHotPage { nth } => self.swap_out_hot_page(m, nth),
            FaultAction::AbortStorm { count } => {
                if !m.kind.is_transactional() {
                    return;
                }
                // Current transactions of all cores, youngest first. Sorted:
                // iteration order must not depend on core state layout.
                let mut live: Vec<_> = m
                    .cores
                    .iter()
                    .filter_map(|c| c.prog.cur_tx())
                    .filter(|t| m.is_live_tx(*t))
                    .collect();
                live.sort();
                for tx in live.into_iter().rev().take(count as usize) {
                    if !m.is_live_tx(tx) {
                        continue; // an earlier abort's fallout killed it
                    }
                    let owner = *m.tx_owner.get(&tx).expect("live tx has an owner");
                    let now = m.cores[owner].ready_at;
                    m.abort_tx(tx, now);
                }
            }
            FaultAction::SqueezeMemory { leave } => {
                while m.mem.free_frames() > leave as usize {
                    let Some(f) = m.mem.alloc() else { break };
                    self.hostages.push(f);
                }
            }
            FaultAction::ReleaseMemory => {
                for f in self.hostages.drain(..) {
                    m.mem.free(f);
                }
            }
            FaultAction::CapTavArena { slack } => {
                if let Backend::Ptm(p) = &mut m.backend {
                    let live = p.tav_arena().live();
                    p.set_tav_capacity(Some(live + slack as usize));
                }
            }
            FaultAction::UncapTavArena => {
                if let Backend::Ptm(p) = &mut m.backend {
                    p.set_tav_capacity(None);
                }
            }
            FaultAction::DelaySwapIns { delay } => {
                m.swap_in_delay = u64::from(delay);
            }
        }
    }

    /// Picks a resident page — preferring one with live PTM overflow state
    /// (a TAV list or a shadow page) — purges its cache lines through the
    /// normal eviction path, and swaps it out. PTM backends only: the whole
    /// point is exercising §3.5 with transactions in flight.
    fn swap_out_hot_page(&mut self, m: &mut Machine, nth: u8) {
        if m.backend.as_ptm().is_none() {
            return;
        }
        // rev_map iterates a hash map: sort before selecting.
        let mut resident: Vec<(FrameId, ProcessId, Vpn)> =
            m.rev_map.iter().map(|(f, (p, v))| (*f, *p, *v)).collect();
        resident.sort();
        if resident.is_empty() {
            return;
        }
        let hot: Vec<_> = resident
            .iter()
            .filter(|(f, _, _)| {
                m.backend
                    .as_ptm()
                    .and_then(|p| p.spt_entry(*f))
                    .is_some_and(|e| e.tav_head.is_some() || e.shadow.is_some())
            })
            .copied()
            .collect();
        let pool = if hot.is_empty() { &resident } else { &hot };
        let (frame, pid, vpn) = pool[nth as usize % pool.len()];
        // The page (and its shadow twin) is about to leave memory: every
        // cached line backed by either frame must take the normal eviction
        // path first, or stale lines would alias whoever reuses the frames.
        let mut doomed = vec![frame];
        if let Some(shadow) = m
            .backend
            .as_ptm()
            .and_then(|p| p.spt_entry(frame))
            .and_then(|e| e.shadow)
        {
            doomed.push(shadow);
        }
        let now = m.cores.iter().map(|c| c.ready_at).min().unwrap_or(0);
        let mut blocks: Vec<PhysBlock> = Vec::new();
        for h in &m.caches {
            for line in h.lines() {
                if doomed.contains(&line.block().frame()) {
                    blocks.push(line.block());
                }
            }
        }
        blocks.sort();
        blocks.dedup();
        for block in blocks {
            for i in 0..m.caches.len() {
                if let Some(line) = m.caches[i].invalidate(block) {
                    // No requester: the last-resort self-abort branch is
                    // unreachable, so the bool return is always false.
                    let _ = m.handle_eviction(line, now, None);
                }
            }
        }
        // Eviction processing may itself have swapped nothing but *aborted*
        // transactions whose cleanup freed the page's overflow state; the
        // page may even have been unmapped meanwhile. Re-check residency.
        if m.kernel.frame_of(pid, vpn) != Some(frame) {
            return;
        }
        m.force_swap_out(pid, vpn);
    }

    /// Releases everything the plan still holds: hostage frames, the TAV
    /// cap, and the swap-device delay. Called when the driver exits, so
    /// plans whose release events land beyond the run's actual step count
    /// cannot leak pressure into a later run on the same machine.
    pub(crate) fn teardown(&mut self, m: &mut Machine) {
        for f in self.hostages.drain(..) {
            m.mem.free(f);
        }
        if let Backend::Ptm(p) = &mut m.backend {
            p.set_tav_capacity(None);
        }
        m.swap_in_delay = 0;
    }
}

impl Machine {
    /// [`Machine::run`] with a [`FaultPlan`] interleaved: events fire before
    /// the step whose index they carry. With an empty plan this is `run`.
    pub fn run_with_faults(&mut self, plan: &FaultPlan) {
        self.drive(plan, u64::MAX);
    }
}

/// Cross-checks a finished machine's counters against the accounting
/// identities every run must satisfy, fault-injected or not. Returns the
/// first violated identity.
pub fn check_invariants(m: &Machine) -> Result<(), String> {
    let s = m.stats();
    if s.commits != s.commit_log.len() as u64 {
        return Err(format!(
            "commits ({}) != commit log length ({})",
            s.commits,
            s.commit_log.len()
        ));
    }
    if m.kind().is_transactional() && s.begins != s.commits + s.aborts {
        return Err(format!(
            "begins ({}) != commits ({}) + aborts ({})",
            s.begins, s.commits, s.aborts
        ));
    }
    if let Backend::Ptm(p) = m.backend() {
        let ps = p.stats();
        if ps.commits != s.commits {
            return Err(format!(
                "backend commits ({}) != machine commits ({})",
                ps.commits, s.commits
            ));
        }
        if ps.aborts != s.aborts {
            return Err(format!(
                "backend aborts ({}) != machine aborts ({})",
                ps.aborts, s.aborts
            ));
        }
        let live = p.tstate().live_transactions();
        if !live.is_empty() {
            return Err(format!("live transactions after the run: {live:?}"));
        }
        if p.tav_arena().live() != 0 {
            return Err(format!(
                "TAV nodes leaked: {} still live",
                p.tav_arena().live()
            ));
        }
        if ps.shadow_frees > ps.shadow_allocs {
            return Err(format!(
                "shadow frees ({}) > allocs ({})",
                ps.shadow_frees, ps.shadow_allocs
            ));
        }
        if ps.exhaustion_retries > ps.exhaustion_aborts {
            return Err(format!(
                "exhaustion retries ({}) > aborts ({})",
                ps.exhaustion_retries, ps.exhaustion_aborts
            ));
        }
    }
    Ok(())
}

/// Panicking wrapper around [`check_invariants`] for tests and benches.
pub fn assert_invariants(m: &Machine) {
    if let Err(e) = check_invariants(m) {
        panic!("stats invariant violated: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic_and_sorted() {
        let a = FaultPlan::from_seed(42, 10_000, 8);
        let b = FaultPlan::from_seed(42, 10_000, 8);
        assert_eq!(a, b);
        assert!(a.events.windows(2).all(|w| w[0].step <= w[1].step));
        assert!(a.events.len() >= 8);
    }

    #[test]
    fn digest_distinguishes_plans() {
        let a = FaultPlan::from_seed(1, 10_000, 8);
        let b = FaultPlan::from_seed(2, 10_000, 8);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.clone().digest());
        assert_ne!(FaultPlan::empty().digest(), a.digest());
    }

    #[test]
    fn squeezes_and_caps_are_paired() {
        for seed in 0..32 {
            let plan = FaultPlan::from_seed(seed, 5_000, 12);
            let squeezes = plan
                .events
                .iter()
                .filter(|e| matches!(e.action, FaultAction::SqueezeMemory { .. }))
                .count();
            let releases = plan
                .events
                .iter()
                .filter(|e| matches!(e.action, FaultAction::ReleaseMemory))
                .count();
            assert_eq!(squeezes, releases, "seed {seed}");
            let caps = plan
                .events
                .iter()
                .filter(|e| matches!(e.action, FaultAction::CapTavArena { .. }))
                .count();
            let uncaps = plan
                .events
                .iter()
                .filter(|e| matches!(e.action, FaultAction::UncapTavArena))
                .count();
            assert_eq!(caps, uncaps, "seed {seed}");
        }
    }

    #[test]
    fn normalize_keeps_same_step_order() {
        let mut plan = FaultPlan {
            events: vec![
                FaultEvent {
                    step: 5,
                    action: FaultAction::SqueezeMemory { leave: 0 },
                },
                FaultEvent {
                    step: 2,
                    action: FaultAction::ReleaseMemory,
                },
                FaultEvent {
                    step: 5,
                    action: FaultAction::ReleaseMemory,
                },
            ],
        };
        plan.normalize();
        assert_eq!(plan.events[0].step, 2);
        assert!(matches!(
            plan.events[1].action,
            FaultAction::SqueezeMemory { .. }
        ));
        assert!(matches!(plan.events[2].action, FaultAction::ReleaseMemory));
    }
}
