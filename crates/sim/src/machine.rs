//! The chip-multiprocessor machine: cores, caches, bus, memory, OS and a
//! pluggable TM backend, executing thread programs to completion.
//!
//! The timing model is quasi-cycle-accurate: cores are processed in global
//! time order (smallest `ready_at` first); each operation resolves its full
//! memory-system path immediately, charging latencies and advancing shared
//! resources (bus occupancy, memory pipeline, VTS cleanup windows) so that
//! contention between cores is modeled. The machine is simultaneously
//! *functional*: pages hold real bytes, speculative versions really live in
//! buffers/shadow pages/XADT entries, and commits/aborts really move or
//! discard data — which the serial reference executor verifies.

use crate::backend::{Backend, Resolution, SystemKind};
use crate::faults::FaultPlan;
use crate::kernel::{Kernel, KernelConfig, Translation};
use crate::locks::LockAttempt;
use crate::ops::{Op, OrderedSeq};
use crate::ordered::OrderedGate;
use crate::program::ThreadProgram;
use crate::stats::{CommittedTx, MachineStats};
use ptm_cache::{
    abort_tx_lines, commit_tx_lines, flush_non_tx_lines, peek_remote_tx_use, supply, BusTimings,
    CacheConfig, CacheLine, DataSource, Hierarchy, SystemBus,
};
use ptm_core::durability::{DurStats, DurabilityConfig, DurableLog, UndoPayload};
use ptm_core::system::{AccessKind, ConflictOutcome};
use ptm_core::{Exhaustion, PtmSystem};
use ptm_mem::{LogDevStats, PhysicalMemory, SpecBuffers, SwapStore};
use ptm_types::ids::TxIdSource;
use ptm_types::{
    Cycle, FastMap, FrameId, PhysAddr, PhysBlock, ProcessId, TxId, VirtAddr, Vpn, WordIdx,
    WordMask, BLOCK_SIZE, WORD_SIZE,
};
use std::sync::OnceLock;

/// Hard cap on exhaustion abort-and-retry rounds. Each round aborts one live
/// transaction, so a recovery that loops past the largest plausible live set
/// is cycling, not converging — fail loudly instead of spinning forever.
const MAX_EXHAUSTION_RETRIES: u32 = 64;

/// Debug tracing: set `PTM_TRACE_WORD=<word-aligned virtual address>` to log
/// every event touching that word's block (accesses, evictions, commits,
/// aborts) to stderr. Zero cost when unset.
fn trace_word() -> Option<u64> {
    static WORD: OnceLock<Option<u64>> = OnceLock::new();
    *WORD.get_or_init(|| {
        std::env::var("PTM_TRACE_WORD")
            .ok()
            .and_then(|s| s.parse().ok())
    })
}

/// Debug tracing: set `PTM_TRACE_STALL` to log every access stall to stderr.
/// Read once — the stall path sits inside the simulator's hottest loop.
pub(crate) fn trace_stall() -> bool {
    static STALL: OnceLock<bool> = OnceLock::new();
    *STALL.get_or_init(|| std::env::var("PTM_TRACE_STALL").is_ok())
}

/// Debug tracing: set `PTM_TRACE_PROGRESS` to dump every core's position to
/// stderr at fixed step intervals. Read once per process — the service
/// drives one run per shard per block.
pub(crate) fn trace_progress() -> bool {
    static PROGRESS: OnceLock<bool> = OnceLock::new();
    *PROGRESS.get_or_init(|| std::env::var("PTM_TRACE_PROGRESS").is_ok())
}

/// Machine configuration (defaults follow §6.1).
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Physical memory size in frames.
    pub mem_frames: usize,
    /// L1 configuration.
    pub l1: CacheConfig,
    /// L2 configuration.
    pub l2: CacheConfig,
    /// Bus and memory timings.
    pub bus: BusTimings,
    /// OS parameters (TLB, faults, event injection).
    pub kernel: KernelConfig,
    /// Per-core hardware TLB entries (direct-mapped, `(pid, vpn)`-tagged).
    /// A hit serves the translation without consulting the kernel at all;
    /// the kernel's own TLB/walk model is only exercised on core-TLB misses.
    /// `0` disables the core TLB (every access goes through the kernel).
    pub core_tlb_entries: usize,
    /// Cycles to take a register checkpoint at transaction begin.
    pub begin_cost: Cycle,
    /// Cycles for the logical (atomic) commit.
    pub commit_cost: Cycle,
    /// Base penalty after an abort before the retry starts (grows linearly
    /// with the attempt count as a deterministic backoff).
    pub abort_penalty: Cycle,
    /// Polling interval while stalled (lock spins, ordered gate, cleanup
    /// windows).
    pub retry_poll: Cycle,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            mem_frames: 1 << 15, // 128 MiB
            l1: CacheConfig::l1_default(),
            l2: CacheConfig::l2_default(),
            bus: BusTimings::default(),
            kernel: KernelConfig::default(),
            core_tlb_entries: 64,
            begin_cost: 8,
            commit_cost: 20,
            abort_penalty: 150,
            retry_poll: 40,
        }
    }
}

#[derive(Debug)]
pub(crate) struct CoreState {
    pub(crate) prog: ThreadProgram,
    pub(crate) ready_at: Cycle,
    pub(crate) next_cs: Cycle,
    pub(crate) next_exc: Cycle,
    pub(crate) cur_ordered: Option<OrderedSeq>,
    lock_stack: Vec<VirtAddr>,
    pub(crate) checksum: u64,
    /// Stats-dedup memos: the last `(pid, vpn)` this core inserted into
    /// `stats.pages` / `stats.tx_write_pages`. Consecutive ops overwhelmingly
    /// touch the same page, so the memo skips the idempotent hash insert.
    /// Purely a fast path — a stale memo only re-inserts an existing key.
    last_stat_page: Option<(ProcessId, Vpn)>,
    last_tx_write_page: Option<(ProcessId, Vpn)>,
    /// Direct-mapped hardware TLB, indexed by `vpn % len`. Entries are
    /// `(pid, vpn)`-tagged, so they need no flush on context switch or
    /// thread migration — only a mapping *change* (swap-out, remap)
    /// invalidates them, via [`Machine::tlb_shootdown`].
    tlb: Vec<Option<TlbEntry>>,
}

/// One core-TLB entry: a cached `(pid, vpn) → frame` translation.
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    pid: ProcessId,
    vpn: Vpn,
    frame: FrameId,
}

/// What an access attempt resolved to.
pub(crate) enum AccessEffect {
    /// Completed; the op's latency in cycles and the physical address the
    /// access translated to.
    Done(Cycle, PhysAddr),
    /// Must retry the same op at the given cycle (cleanup window, swap-in).
    Stall(Cycle),
    /// The requester's own transaction lost arbitration and was aborted;
    /// its program has been rewound.
    SelfAborted,
}

/// The simulated CMP.
///
/// Build one with [`Machine::new`], run it to completion with
/// [`Machine::run`], then read [`Machine::stats`] and the backend counters.
#[derive(Debug)]
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) kind: SystemKind,
    pub(crate) cores: Vec<CoreState>,
    pub(crate) caches: Vec<Hierarchy>,
    bus: SystemBus,
    pub(crate) mem: PhysicalMemory,
    pub(crate) kernel: Kernel,
    pub(crate) backend: Backend,
    spec: SpecBuffers,
    /// Write-behind durable log (commit records, undo/redo payloads).
    /// `None` by default: volatile machines pay zero cycles and zero
    /// bookkeeping, keeping every pre-existing run bit-identical.
    pub(crate) durable: Option<DurableLog>,
    tx_src: TxIdSource,
    gate: OrderedGate,
    pub(crate) tx_owner: FastMap<TxId, usize>,
    pub(crate) rev_map: FastMap<FrameId, (ProcessId, Vpn)>,
    /// Barriers some thread has reached and not every thread has passed.
    barriers: Vec<BarrierState>,
    pub(crate) stats: MachineStats,
    /// Extra cycles every swap-in stalls for — zero except under an active
    /// `DelaySwapIns` fault, so plain runs are timing-identical.
    pub(crate) swap_in_delay: Cycle,
    /// Cores whose `ready_at` (or program) was changed by a step acting on
    /// a *different* core (abort penalties, thread migration). The step
    /// driver drains this to re-key the ready heap.
    pub(crate) ready_dirty: Vec<usize>,
}

/// `n` empty hierarchies for `cfg`: the leading `spare` ones that match its
/// L1/L2 configurations are reset in place, the rest are built new.
fn caches_for(cfg: &MachineConfig, n: usize, spare: Vec<Hierarchy>) -> Vec<Hierarchy> {
    let mut spare = spare.into_iter();
    (0..n)
        .map(|_| match spare.next() {
            Some(mut h) if *h.l1().config() == cfg.l1 && *h.l2().config() == cfg.l2 => {
                h.reset();
                h
            }
            _ => Hierarchy::new(cfg.l1, cfg.l2),
        })
        .collect()
}

/// Arrival/release bookkeeping for one in-flight barrier. Arrivals are
/// keyed by *thread* (stable across core migration), not by core.
#[derive(Debug)]
struct BarrierState {
    id: u32,
    arrived: Vec<u32>,
    release_at: Option<Cycle>,
    /// Threads released past the barrier so far.
    passed: usize,
}

impl Machine {
    /// Creates a machine running `programs` (one per core) under the given
    /// system.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty.
    pub fn new(cfg: MachineConfig, kind: SystemKind, programs: Vec<ThreadProgram>) -> Self {
        Machine::build(cfg, kind, programs, Vec::new())
    }

    /// Turns this machine into `Machine::new(cfg, self.kind(), programs)`
    /// while keeping its cache allocations. Every other field is rebuilt;
    /// each core's hierarchy is reset in place when its L1/L2
    /// configurations equal `cfg`'s and replaced otherwise. A reset
    /// machine runs exactly as a new one would.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty.
    pub fn reset(&mut self, cfg: MachineConfig, programs: Vec<ThreadProgram>) {
        let spare = std::mem::take(&mut self.caches);
        *self = Machine::build(cfg, self.kind, programs, spare);
    }

    /// The constructor behind [`Machine::new`] and [`Machine::reset`]:
    /// core `i` takes `spare[i]` when it fits `cfg`, else a new hierarchy.
    fn build(
        cfg: MachineConfig,
        kind: SystemKind,
        programs: Vec<ThreadProgram>,
        spare: Vec<Hierarchy>,
    ) -> Self {
        assert!(!programs.is_empty(), "machine needs at least one thread");
        assert!(
            !(kind == SystemKind::LogTm && cfg.kernel.migrate_on_cs),
            "LogTM does not support thread migration (§5.2)"
        );
        let n = programs.len();
        let cs0 = cfg.kernel.cs_interval.unwrap_or(u64::MAX);
        let exc0 = cfg.kernel.exc_interval.unwrap_or(u64::MAX);
        Machine {
            cores: programs
                .into_iter()
                .enumerate()
                .map(|(i, prog)| CoreState {
                    prog,
                    ready_at: 0,
                    // Stagger injections slightly so cores do not all stall
                    // on the same cycle.
                    next_cs: cs0.saturating_add(137 * i as u64),
                    next_exc: exc0.saturating_add(61 * i as u64),
                    cur_ordered: None,
                    lock_stack: Vec::new(),
                    checksum: 0,
                    last_stat_page: None,
                    last_tx_write_page: None,
                    tlb: vec![None; cfg.core_tlb_entries],
                })
                .collect(),
            caches: caches_for(&cfg, n, spare),
            bus: SystemBus::new(cfg.bus),
            mem: PhysicalMemory::new(cfg.mem_frames),
            kernel: Kernel::new(cfg.kernel),
            backend: Backend::for_kind(kind),
            spec: SpecBuffers::new(),
            durable: None,
            tx_src: TxIdSource::new(),
            gate: OrderedGate::new(),
            tx_owner: FastMap::default(),
            rev_map: FastMap::default(),
            barriers: Vec::new(),
            stats: MachineStats::default(),
            swap_in_delay: 0,
            ready_dirty: Vec::new(),
            cfg,
            kind,
        }
    }

    /// The system this machine runs.
    pub fn kind(&self) -> SystemKind {
        self.kind
    }

    /// Run statistics (complete after [`Machine::run`]).
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// The backend (PTM/VTM counters live there).
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Attaches a durable write-behind log. Call before running: commits
    /// append records (and force per the policy), dirty overflows append
    /// undo pre-images, and crash images capture the device state.
    pub fn enable_durability(&mut self, cfg: DurabilityConfig) {
        let mut log = DurableLog::new(cfg);
        // LogTM's eager in-place stores make the durable log a write-ahead
        // log: word pre-images (and the abort records that void them) are
        // forced regardless of the commit-record policy, and recovery
        // replays them in place of the volatile software undo log.
        if matches!(self.backend, Backend::LogTm(_)) {
            log.set_wal(true);
        }
        self.durable = Some(log);
    }

    /// Caller-side durability counters, when a durable log is attached.
    pub fn durable_stats(&self) -> Option<&DurStats> {
        self.durable.as_ref().map(|d| d.stats())
    }

    /// Log-device counters, when a durable log is attached.
    pub fn log_dev_stats(&self) -> Option<&LogDevStats> {
        self.durable.as_ref().map(|d| d.dev_stats())
    }

    /// OS statistics (context switches, exceptions, faults).
    pub fn kernel_stats(&self) -> &crate::kernel::KernelStats {
        self.kernel.stats()
    }

    /// Bus and memory traffic statistics.
    pub fn bus_stats(&self) -> &ptm_cache::bus::BusStats {
        self.bus.stats()
    }

    /// Per-core read checksums (prevents dead-code elimination concerns in
    /// benches and gives tests a quick divergence signal).
    pub fn checksums(&self) -> Vec<u64> {
        self.cores.iter().map(|c| c.checksum).collect()
    }

    /// Runs every program to completion and finalizes statistics.
    ///
    /// # Panics
    ///
    /// Panics if the machine stops making progress (a simulator bug, not a
    /// workload property — oldest-wins arbitration guarantees progress).
    pub fn run(&mut self) {
        self.drive(&FaultPlan::empty(), u64::MAX);
    }

    pub(crate) fn finalize_stats(&mut self) {
        self.stats.cycles = self.cores.iter().map(|c| c.ready_at).max().unwrap_or(0);
        let mut misses = 0;
        let mut evictions = 0;
        for h in &self.caches {
            misses += h.l2_stats().misses;
            evictions += h.l2_stats().evictions;
        }
        self.stats.l2_misses = misses;
        self.stats.l2_evictions = evictions;
    }

    // ------------------------------------------------------------------
    // The core step function
    // ------------------------------------------------------------------

    pub(crate) fn step(&mut self, idx: usize) {
        let now = self.cores[idx].ready_at;

        // System-event injection (context switches, exceptions).
        if now >= self.cores[idx].next_cs {
            let interval = self.cfg.kernel.cs_interval.expect("cs scheduled");
            self.cores[idx].ready_at = now + self.cfg.kernel.cs_cost;
            // The next switch is an interval after this one *ends*, so a
            // cost larger than the interval cannot livelock the core.
            self.cores[idx].next_cs = self.cores[idx].ready_at + interval;
            self.kernel.note_context_switch();
            // The other process pollutes the cache; transactional lines are
            // tagged with their transaction ID and survive (§4.7).
            flush_non_tx_lines(&mut self.caches[idx]);
            if self.cfg.kernel.migrate_on_cs && self.cores.len() > 1 {
                self.migrate_thread(idx, now);
            }
            return;
        }
        if now >= self.cores[idx].next_exc {
            let interval = self.cfg.kernel.exc_interval.expect("exc scheduled");
            self.cores[idx].ready_at = now + self.cfg.kernel.exc_cost;
            self.cores[idx].next_exc = self.cores[idx].ready_at + interval;
            self.kernel.note_exception();
            return;
        }

        let Some(op) = self.cores[idx].prog.current() else {
            return;
        };
        match op {
            Op::Compute(c) => {
                self.cores[idx].prog.advance();
                self.cores[idx].ready_at = now + u64::from(c.max(1));
            }
            Op::Begin { ordered, lock } => self.step_begin(idx, now, ordered, lock),
            Op::End => self.step_end(idx, now),
            Op::Read(va) => self.step_access(idx, now, va, AccessKind::Read, None),
            Op::Write(va, v) => {
                self.step_access(idx, now, va, AccessKind::Write, Some(WriteVal::Const(v)))
            }
            Op::Rmw(va, d) => {
                self.step_access(idx, now, va, AccessKind::Write, Some(WriteVal::Delta(d)))
            }
            Op::Barrier(id) => self.step_barrier(idx, now, id),
        }
    }

    fn step_barrier(&mut self, idx: usize, now: Cycle, id: u32) {
        debug_assert!(
            self.cores[idx].prog.cur_tx().is_none() || !self.kind.is_transactional(),
            "barrier inside a transaction"
        );
        let n = self.cores.len();
        let poll = self.cfg.retry_poll;
        let thread = self.cores[idx].prog.thread().0;
        let pos = match self.barriers.iter().position(|b| b.id == id) {
            Some(pos) => pos,
            None => {
                self.barriers.push(BarrierState {
                    id,
                    arrived: Vec::with_capacity(n),
                    release_at: None,
                    passed: 0,
                });
                self.barriers.len() - 1
            }
        };
        let st = &mut self.barriers[pos];
        if let Some(rel) = st.release_at {
            if now >= rel {
                // A thread passes once: it advances past the barrier here.
                st.passed += 1;
                let done = st.passed == n;
                self.cores[idx].prog.advance();
                self.cores[idx].ready_at = now + 1;
                if done {
                    self.barriers.swap_remove(pos);
                }
            } else {
                self.cores[idx].ready_at = rel;
            }
            return;
        }
        // A waiting thread re-steps the barrier each poll; it arrives once.
        if !st.arrived.contains(&thread) {
            st.arrived.push(thread);
        }
        if st.arrived.len() == n {
            // Last arriver: release everyone after a short notification
            // round on the bus.
            st.release_at = Some(now + 20);
            self.cores[idx].ready_at = now + 20;
        } else {
            self.stats.stall_cycles += poll;
            self.cores[idx].ready_at = now + poll;
        }
    }

    /// Migrates the thread on `idx` by swapping it with the next core's
    /// thread (§4.7). Cache lines stay behind: in-flight transactions'
    /// tagged lines on the old core will be spilled into the overflow
    /// structures by coherence when the transaction touches them again, or
    /// simply supply data — PTM needs no reverse address translation for
    /// either, unlike VTM.
    pub(crate) fn migrate_thread(&mut self, idx: usize, now: Cycle) {
        let other = (idx + 1) % self.cores.len();
        // Fairness guard: if the partner core is still busy (typically
        // because it just context-switched itself), stealing its thread
        // again before it ever ran would starve that thread — dense switch
        // storms could bounce it around the ring forever. Skip this
        // migration; the switch itself still happened.
        if self.cores[other].ready_at > now {
            return;
        }
        // The partner core's key in the ready heap changes.
        self.ready_dirty.push(other);
        if trace_word().is_some() {
            eprintln!("[ptm-trace] migrate core {idx} <-> core {other} now={now}");
        }
        // Swap the thread-owned state; core-owned state (ready_at, injection
        // timers) stays with the core.
        {
            let [a, b] = self
                .cores
                .get_disjoint_mut([idx, other])
                .expect("distinct cores");
            std::mem::swap(&mut a.prog, &mut b.prog);
            std::mem::swap(&mut a.cur_ordered, &mut b.cur_ordered);
            std::mem::swap(&mut a.lock_stack, &mut b.lock_stack);
            std::mem::swap(&mut a.checksum, &mut b.checksum);
        }
        // The destination core requeues cheaply (the full switch cost is
        // paid by the initiating core); its timer restarts so it does not
        // immediately re-migrate, and the arriving thread gets a full
        // interval of CPU — otherwise rotating switches can starve a thread
        // by always moving it just before it would run.
        let other_ready = self.cores[other].ready_at.max(now) + 200;
        self.cores[other].ready_at = other_ready;
        if let Some(interval) = self.cfg.kernel.cs_interval {
            self.cores[other].next_cs = other_ready + interval.max(self.cfg.kernel.cs_cost);
        }
        // In-flight transactions now run on the other core.
        for (i, c) in self.cores.iter().enumerate() {
            if let Some(tx) = c.prog.cur_tx() {
                self.tx_owner.insert(tx, i);
            }
        }
    }

    fn step_begin(&mut self, idx: usize, now: Cycle, ordered: Option<OrderedSeq>, lock: VirtAddr) {
        match self.kind {
            SystemKind::Serial => {
                self.cores[idx].prog.advance();
                self.cores[idx].ready_at = now + 1;
            }
            SystemKind::Locks => {
                let thread = self.cores[idx].prog.thread();
                match match &mut self.backend {
                    Backend::Locks(t) => t.acquire(lock, thread, now),
                    _ => unreachable!("lock mode has a lock table"),
                } {
                    LockAttempt::Acquired => {
                        self.cores[idx].lock_stack.push(lock);
                        self.cores[idx].prog.advance();
                        // The acquire is an atomic RMW on the lock word: a
                        // real coherence transaction, so contended locks
                        // ping-pong between caches.
                        let lat = match self.access(idx, now, lock, AccessKind::Write) {
                            AccessEffect::Done(lat, _) => lat,
                            AccessEffect::Stall(until) => until.saturating_sub(now),
                            AccessEffect::SelfAborted => unreachable!("no tx in lock mode"),
                        };
                        self.cores[idx].ready_at = now + lat.max(1);
                    }
                    LockAttempt::Busy => {
                        self.stats.stall_cycles += self.cfg.retry_poll;
                        self.cores[idx].ready_at = now + self.cfg.retry_poll;
                    }
                }
            }
            _ => {
                // Transactional modes.
                if self.cores[idx].prog.nest() > 0 {
                    // Flattened nesting: just bump the depth (§2.3.1).
                    self.cores[idx].prog.enter_nested();
                    self.cores[idx].prog.advance();
                    self.cores[idx].ready_at = now + 1;
                    return;
                }
                let tx = self.cores[idx]
                    .prog
                    .cur_tx()
                    .unwrap_or_else(|| self.tx_src.next_id());
                let retry = self.cores[idx].prog.begin_outer(tx);
                match &mut self.backend {
                    Backend::Ptm(p) => p.begin(tx, ordered.map(OrderedSeq::seq)),
                    Backend::Vtm(v) => v.begin(tx),
                    Backend::LogTm(l) => l.begin(tx),
                    _ => unreachable!("transactional mode"),
                }
                if !retry {
                    self.tx_owner.insert(tx, idx);
                }
                self.cores[idx].cur_ordered = ordered;
                self.cores[idx].prog.advance();
                self.cores[idx].ready_at = now + self.cfg.begin_cost;
                self.stats.begins += 1;
            }
        }
    }

    fn step_end(&mut self, idx: usize, now: Cycle) {
        match self.kind {
            SystemKind::Serial => {
                self.cores[idx].prog.advance();
                self.cores[idx].ready_at = now + 1;
            }
            SystemKind::Locks => {
                let lock = self.cores[idx]
                    .lock_stack
                    .pop()
                    .expect("end without matching begin in lock mode");
                let thread = self.cores[idx].prog.thread();
                match &mut self.backend {
                    Backend::Locks(t) => t.release(lock, thread),
                    _ => unreachable!(),
                }
                self.cores[idx].prog.advance();
                // The release is a store to the lock word.
                let lat = match self.access(idx, now, lock, AccessKind::Write) {
                    AccessEffect::Done(lat, _) => lat,
                    AccessEffect::Stall(until) => until.saturating_sub(now),
                    AccessEffect::SelfAborted => unreachable!("no tx in lock mode"),
                };
                self.cores[idx].ready_at = now + lat.max(1);
            }
            _ => {
                if self.cores[idx].prog.nest() > 1 {
                    self.cores[idx].prog.leave();
                    self.cores[idx].prog.advance();
                    self.cores[idx].ready_at = now + 1;
                    return;
                }
                // Outermost end: ordered transactions wait for their turn.
                if let Some(seq) = self.cores[idx].cur_ordered {
                    if !self.gate.may_commit(seq) {
                        // A gate-blocked LogTM transaction must advertise
                        // itself as stalling, or the possible-cycle
                        // heuristic could deadlock against it.
                        if let (Backend::LogTm(l), Some(tx)) =
                            (&mut self.backend, self.cores[idx].prog.cur_tx())
                        {
                            l.mark_stalling(tx);
                        }
                        self.stats.stall_cycles += self.cfg.retry_poll;
                        self.cores[idx].ready_at = now + self.cfg.retry_poll;
                        return;
                    }
                }
                // Durable mode: a writing commit must not start while the
                // log device is stalled — throttle to the stall deadline
                // instead. Bounded: the device's stall window has a fixed
                // end, so commits degrade gracefully, never deadlock.
                if let (Some(d), Some(tx)) = (self.durable.as_mut(), self.cores[idx].prog.cur_tx())
                {
                    if let Some(until) = d.commit_blocked(tx, now) {
                        let until = until.max(now + 1);
                        self.stats.stall_cycles += until - now;
                        self.cores[idx].ready_at = until;
                        return;
                    }
                }
                self.commit(idx, now);
            }
        }
    }

    fn commit(&mut self, idx: usize, now: Cycle) {
        let tx = self.cores[idx].prog.cur_tx().expect("commit inside tx");
        if trace_word().is_some() {
            eprintln!("[ptm-trace] commit {tx} now={now}");
        }
        let pid = self.cores[idx].prog.pid();

        // Logical commit + lazy cleanup in the backend (selection-vector
        // toggling / XADT copy-back).
        match &mut self.backend {
            Backend::Ptm(p) => {
                p.commit(tx, &mut self.mem, &mut self.kernel.swap, now, &mut self.bus);
            }
            Backend::Vtm(v) => {
                let kernel = &self.kernel;
                v.commit(
                    tx,
                    &mut self.mem,
                    |va| {
                        kernel
                            .frame_of(pid, va.vpn())
                            .map(|f| PhysBlock::new(f, va.block_in_page()))
                    },
                    now,
                    &mut self.bus,
                );
            }
            Backend::LogTm(l) => {
                l.commit(tx, now, &mut self.bus);
            }
            _ => unreachable!("transactional mode"),
        }

        // Surviving in-cache speculative buffers promote to the committed
        // location (for blocks that also overflowed earlier, the buffer is
        // the newest version and correctly lands last).
        let buffers = self.spec.drain_tx(tx);
        for (block, specb) in buffers {
            // Durable mode: the published words ride the write-behind log
            // as a redo payload before the commit record below seals them.
            if let Some(d) = self.durable.as_mut() {
                let words: Vec<(u8, u32)> = specb
                    .written
                    .iter()
                    .map(|w| (w.0, specb.read_word(w)))
                    .collect();
                d.append_redo(tx, block, &words, now);
            }
            let (frame, mirror) = match &self.backend {
                Backend::Ptm(p) => (p.committed_frame(block), p.mirror_location(block, Some(tx))),
                _ => (block.frame(), None),
            };
            let tgt = block.on_frame(frame);
            let mut data = self.mem.read_block(tgt);
            ptm_mem::versions::apply_written_words(&mut data, &specb);
            self.mem.write_block(tgt, &data);
            // Word-granularity: a live co-writer's speculative page must
            // see these committed words too (it never wrote them itself).
            if let Some(mirror) = mirror {
                let mut data = self.mem.read_block(mirror);
                ptm_mem::versions::apply_written_words(&mut data, &specb);
                self.mem.write_block(mirror, &data);
            }
        }

        // Migration can leave committed lines on other cores: sweep every
        // cache for this transaction's tags.
        for cache in &mut self.caches {
            commit_tx_lines(cache, tx);
        }

        if let Some(seq) = self.cores[idx].cur_ordered.take() {
            self.gate.committed(seq);
        }

        let begin_pc = {
            // The End op is at the current pc; Begin was recorded in the
            // program before it rewound/advanced — recover it from the log
            // by scanning backwards is fragile, so ask the program.
            self.cores[idx].prog.tx_begin_pc().expect("tx in flight")
        };
        self.stats.commit_log.push(CommittedTx {
            tx,
            thread: self.cores[idx].prog.thread(),
            core: idx,
            begin_pc,
            end_pc: self.current_pc(idx),
            at: now,
        });

        // Durable mode: the commit record (plus any policy force, retry
        // backoff or stall wait) extends the commit latency. Read-only
        // transactions take the fast path and append nothing.
        let durable_lat = match self.durable.as_mut() {
            Some(d) => d.commit_tx(tx, self.cores[idx].prog.thread().0, now),
            None => 0,
        };
        self.cores[idx].prog.finish_tx();
        self.cores[idx].prog.advance();
        self.cores[idx].ready_at = now + self.cfg.commit_cost + durable_lat;
        self.stats.commits += 1;
    }

    fn current_pc(&self, idx: usize) -> usize {
        self.cores[idx].prog.pc()
    }

    // ------------------------------------------------------------------
    // Memory access path
    // ------------------------------------------------------------------

    fn step_access(
        &mut self,
        idx: usize,
        now: Cycle,
        va: VirtAddr,
        kind: AccessKind,
        write: Option<WriteVal>,
    ) {
        match self.access(idx, now, va, kind) {
            AccessEffect::Done(latency, pa) => {
                // Functional data movement.
                let pid = self.cores[idx].prog.pid();
                let tx = self.tx_context(idx);
                let old = self.read_word_functional(tx, pid, va, pa);
                self.cores[idx].checksum = self.cores[idx]
                    .checksum
                    .rotate_left(1)
                    .wrapping_add(u64::from(old));
                if let Some(w) = write {
                    let value = match w {
                        WriteVal::Const(v) => v,
                        WriteVal::Delta(d) => old.wrapping_add(d as u32),
                    };
                    let wal_latency = self.write_word_functional(tx, pid, va, pa, value, now);
                    if let (Some(d), Some(tx)) = (self.durable.as_mut(), tx) {
                        d.note_tx_write(tx);
                    }
                    self.note_page_touch(idx, pid, va.vpn(), tx.is_some());
                    self.stats.mem_ops += 1;
                    self.cores[idx].prog.advance();
                    // WAL latency: eager-versioning stores wait for their
                    // word pre-image to be forced durable.
                    self.cores[idx].ready_at = now + (latency + wal_latency).max(1);
                    return;
                }
                self.note_page_touch(idx, pid, va.vpn(), false);
                self.stats.mem_ops += 1;
                self.cores[idx].prog.advance();
                self.cores[idx].ready_at = now + latency.max(1);
            }
            AccessEffect::Stall(until) => {
                let until = until.max(now + 1);
                if trace_stall() {
                    eprintln!("[stall] core {idx} va {va} until {until} (now {now})");
                }
                self.stats.stall_cycles += until - now;
                self.cores[idx].ready_at = until;
            }
            AccessEffect::SelfAborted => {
                // ready_at was set by the abort path; nothing else to do.
            }
        }
    }

    /// Whether a cache hit still needs an overflow-structure conflict check
    /// (word-granularity configurations only): the cached copy proves the
    /// block was fetched conflict-free, but an overflowed transaction may
    /// own *this word* if the access is the first touch of it.
    fn hit_needs_overflow_check(
        &self,
        idx: usize,
        block: PhysBlock,
        word: WordIdx,
        kind: AccessKind,
        tx: Option<TxId>,
    ) -> bool {
        let Some(tx) = tx else {
            // Non-transactional copies are invalidated whenever a writer
            // upgrades, so a non-transactional hit is always current.
            return false;
        };
        // Thread migration can leave this transaction's *own* tagged copies
        // on other cores; a write through a fresh local copy must reclaim
        // them via a coherence transaction (which displaces them into the
        // overflow structures), or the transaction forks its own line.
        if self.cfg.kernel.migrate_on_cs
            && peek_remote_tx_use(&self.caches, idx, block).any(|r| r.meta.tx == tx)
        {
            return true;
        }
        if !self.kind.granularity().word_in_cache() {
            return false;
        }
        // Filters for the common case: a hit needs checking only if some
        // *other* transaction still holds a preserved word-disjoint copy of
        // the block in another cache, or has overflowed state for it (the
        // §4.6 per-block overflow bit).
        let remote_tx_copy = peek_remote_tx_use(&self.caches, idx, block).any(|r| r.meta.tx != tx);
        if !remote_tx_copy {
            match &self.backend {
                Backend::Ptm(p) => {
                    if !p.has_overflows() || !p.block_overflowed(block, Some(tx)) {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        match self.caches[idx].line(block).and_then(|l| l.tx_meta()) {
            Some(m) if m.tx == tx => match kind {
                // Words this transaction already touched were checked when
                // first accessed; a conflicting access since then would have
                // snooped this line and resolved against it.
                AccessKind::Read => !(m.read_words.get(word) || m.write_words.get(word)),
                AccessKind::Write => !m.write_words.get(word),
            },
            _ => true,
        }
    }

    /// Records page-touch statistics for one memory op, memoized per core:
    /// consecutive ops on the same page skip the hash-set insert entirely.
    #[inline]
    fn note_page_touch(&mut self, idx: usize, pid: ProcessId, vpn: Vpn, tx_write: bool) {
        let key = (pid, vpn);
        if self.cores[idx].last_stat_page != Some(key) {
            self.stats.pages.insert(key);
            self.cores[idx].last_stat_page = Some(key);
        }
        if tx_write && self.cores[idx].last_tx_write_page != Some(key) {
            self.stats.tx_write_pages.insert(key);
            self.cores[idx].last_tx_write_page = Some(key);
        }
    }

    /// The transaction context of a core, if it is inside one *and* the mode
    /// is transactional.
    fn tx_context(&self, idx: usize) -> Option<TxId> {
        if self.kind.is_transactional() {
            self.cores[idx].prog.cur_tx()
        } else {
            None
        }
    }

    /// Consults core `idx`'s TLB for `(pid, vpn)`.
    fn tlb_lookup(&self, idx: usize, pid: ProcessId, vpn: Vpn) -> Option<FrameId> {
        let tlb = &self.cores[idx].tlb;
        if tlb.is_empty() {
            return None;
        }
        let slot = vpn.0 as usize % tlb.len();
        tlb[slot]
            .filter(|e| e.pid == pid && e.vpn == vpn)
            .map(|e| e.frame)
    }

    /// Installs a translation in core `idx`'s TLB (evicting whatever shared
    /// its direct-mapped slot).
    fn tlb_insert(&mut self, idx: usize, pid: ProcessId, vpn: Vpn, frame: FrameId) {
        let tlb = &mut self.cores[idx].tlb;
        if tlb.is_empty() {
            return;
        }
        let slot = vpn.0 as usize % tlb.len();
        tlb[slot] = Some(TlbEntry { pid, vpn, frame });
    }

    /// Invalidates every core's TLB entry for `(pid, vpn)` — the
    /// inter-processor shootdown the OS broadcasts before it changes a
    /// mapping. Called automatically on swap-out; tests that remap pages
    /// directly through [`Machine::kernel_mut`] must call it themselves.
    pub fn tlb_shootdown(&mut self, pid: ProcessId, vpn: Vpn) {
        for core in &mut self.cores {
            if core.tlb.is_empty() {
                continue;
            }
            let slot = vpn.0 as usize % core.tlb.len();
            if core.tlb[slot].is_some_and(|e| e.pid == pid && e.vpn == vpn) {
                core.tlb[slot] = None;
                self.stats.tlb_shootdowns += 1;
            }
        }
    }

    pub(crate) fn access(
        &mut self,
        idx: usize,
        now: Cycle,
        va: VirtAddr,
        kind: AccessKind,
    ) -> AccessEffect {
        let pid = self.cores[idx].prog.pid();

        // 1. Translate: the core's own TLB first (a hit bypasses the kernel
        //    entirely — same zero cost as a kernel-TLB hit, but no kernel
        //    work on the host either), then the kernel (TLB, page tables,
        //    demand paging) on a miss.
        let (pa, mut latency) = if let Some(frame) = self.tlb_lookup(idx, pid, va.vpn()) {
            self.stats.tlb_hits += 1;
            (PhysAddr::from_frame(frame, va.page_offset()), 0)
        } else {
            self.stats.tlb_misses += 1;
            match self.kernel.translate(pid, va, &mut self.mem) {
                Translation::Resident {
                    pa,
                    cost,
                    allocated,
                } => {
                    if let Some(frame) = allocated {
                        if let Backend::Ptm(p) = &mut self.backend {
                            p.on_page_alloc(frame);
                        }
                        self.rev_map.insert(frame, (pid, va.vpn()));
                    }
                    self.tlb_insert(idx, pid, va.vpn(), pa.frame());
                    (pa, cost)
                }
                Translation::SwappedOut { slot, cost } => {
                    // Swap the page (and, under PTM, its shadow) back in,
                    // then retry the access after the fault latency. The
                    // retry's translation installs the new TLB entry.
                    let frame = match &mut self.backend {
                        Backend::Ptm(_) => {
                            // The home+shadow burst can exhaust the pool:
                            // reclaim, sparing the requester, whose own
                            // abort is the fallback; with nothing left to
                            // abort, stall (frames may return later — a
                            // memory-squeeze fault releases its hostages).
                            let me = self.tx_context(idx);
                            let fallback = me.filter(|t| self.is_live_tx(*t));
                            let swapped = self.reclaim(now, &[me], fallback, |p, mem, swap, _| {
                                p.on_swap_in(slot, mem, swap)
                            });
                            match swapped {
                                Ok(f) => {
                                    self.kernel.complete_swap_in(pid, va.vpn(), f);
                                    f
                                }
                                Err(Some(_)) => return AccessEffect::SelfAborted,
                                Err(None) => return AccessEffect::Stall(now + self.cfg.retry_poll),
                            }
                        }
                        _ => {
                            match self
                                .kernel
                                .plain_swap_in(pid, va.vpn(), slot, &mut self.mem)
                            {
                                Some(f) => f,
                                // Pool empty (memory-squeeze fault): wait for
                                // frames to come back, then re-fault.
                                None => {
                                    return AccessEffect::Stall(
                                        now + cost.max(self.cfg.retry_poll),
                                    );
                                }
                            }
                        }
                    };
                    self.rev_map.insert(frame, (pid, va.vpn()));
                    return AccessEffect::Stall(now + cost + self.swap_in_delay);
                }
                Translation::OutOfMemory { cost } => {
                    // A minor fault found the frame pool empty. Recover by
                    // aborting the youngest live transaction (its shadow
                    // pages and buffers come back to the pool), then let the
                    // retry take the minor fault again.
                    if let Some(victim) = self.youngest_live_tx(&[self.tx_context(idx)]) {
                        self.exhaustion_abort(victim, now);
                    }
                    return AccessEffect::Stall(now + cost.max(self.cfg.retry_poll));
                }
            }
        };
        let block = pa.block();
        let word = pa.word_in_block();
        let tx = self.tx_context(idx);
        let is_write = kind == AccessKind::Write;

        if trace_word() == Some(va.word_aligned().0) {
            eprintln!(
                "[ptm-trace] core {idx} {tx:?} {kind:?} {va} probe={:?} now={now}",
                self.caches[idx].probe(block)
            );
        }
        // 2. Cache probe.
        match self.caches[idx].lookup(block) {
            Some((hit, cached)) => {
                latency += self.caches[idx].hit_latency(hit);
                self.caches[idx].l2_stats_mut().hits += 1;

                // After a thread migration the local cache may hold lines
                // tagged by a *different* transaction (the thread that used
                // to run here). Resolve any conflict, displace the line into
                // the overflow structures, and retry the access.
                let foreign = cached.tx_meta().filter(|m| Some(m.tx) != tx).copied();
                if let Some(fm) = foreign {
                    let word_mode = self.kind.granularity().word_in_cache();
                    if self.is_live_tx(fm.tx) && fm.conflicts_with(is_write, word, word_mode) {
                        let res = self.backend.arbitrate(tx, vec![fm.tx]);
                        if let Err(effect) = self.apply_resolution(res, tx, now) {
                            return effect;
                        }
                    }
                    // Displace whatever survives (the foreign line, or
                    // nothing if the abort already invalidated it).
                    if let Some(line) = self.caches[idx].invalidate(block) {
                        if line.is_transactional() && self.handle_eviction(line, now, tx) {
                            return AccessEffect::SelfAborted;
                        }
                    }
                    return match self.access(idx, now, va, kind) {
                        AccessEffect::Done(extra, pa) => AccessEffect::Done(latency + extra, pa),
                        other => other,
                    };
                }

                if is_write && !cached.state().allows_silent_write() {
                    // Upgrade: a coherence transaction with full conflict
                    // checking.
                    match self.miss_conflicts_and_supply(idx, now, pid, va, block, word, kind, true)
                    {
                        Ok((extra, _outcome)) => latency += extra,
                        Err(effect) => return effect,
                    }
                } else if self.hit_needs_overflow_check(idx, block, word, kind, tx) {
                    // Word-granularity configurations: a silent hit may touch
                    // a word some *overflowed* transaction wrote — the block
                    // was displaced to the overflow structures by a word-
                    // disjoint access, so the cached copy grants no rights to
                    // this word. Consult the VTS like an ownership upgrade.
                    match self.miss_conflicts_and_supply(idx, now, pid, va, block, word, kind, true)
                    {
                        Ok((extra, _outcome)) => latency += extra,
                        Err(effect) => return effect,
                    }
                }
                let mut line = self.caches[idx].touch_mut(block).expect("hit");
                if is_write {
                    line.set_state(ptm_cache::Moesi::Modified);
                }
                if let Some(tx) = tx {
                    line.tag(tx).record_access(word, is_write);
                }
                AccessEffect::Done(latency, pa)
            }
            None => {
                self.caches[idx].l2_stats_mut().misses += 1;
                let (extra, outcome) = match self
                    .miss_conflicts_and_supply(idx, now, pid, va, block, word, kind, false)
                {
                    Ok(v) => v,
                    Err(effect) => return effect,
                };
                latency += extra;

                // Fill the line, tag it, and spill the victim.
                let mut line = CacheLine::new(block, outcome.new_state);
                if let Some(tx) = tx {
                    line.tx_meta_for(tx).record_access(word, is_write);
                }
                if is_write {
                    line.set_state(ptm_cache::Moesi::Modified);
                }
                let victim = self.caches[idx].fill(line);
                if let Some(ev) = victim {
                    if self.handle_eviction(ev.line, now, tx) {
                        return AccessEffect::SelfAborted;
                    }
                }
                AccessEffect::Done(latency, pa)
            }
        }
    }

    /// Conflict detection + arbitration + MOESI supply for a miss/upgrade.
    /// Returns the added latency and the supply outcome, or the control
    /// effect when the access must stall or the requester aborted.
    #[allow(clippy::too_many_arguments)]
    fn miss_conflicts_and_supply(
        &mut self,
        idx: usize,
        now: Cycle,
        pid: ProcessId,
        va: VirtAddr,
        block: PhysBlock,
        word: WordIdx,
        kind: AccessKind,
        upgrade: bool,
    ) -> Result<(Cycle, ptm_cache::SupplyOutcome), AccessEffect> {
        let tx = self.tx_context(idx);
        let is_write = kind == AccessKind::Write;
        let word_mode = self.kind.granularity().word_in_cache();

        // a. Overflow-structure conflict check (only when anything has
        //    overflowed — the paper's global overflow flag).
        let mut deny_exclusive = false;
        let mut conflicts: Vec<TxId> = Vec::new();
        let mut check_done = now;
        if self.backend.has_overflows() {
            let outcome = match &mut self.backend {
                Backend::Ptm(p) => p.check_conflict(tx, block, word, kind, now, &mut self.bus),
                Backend::Vtm(v) => v.check_conflict(tx, (pid, va), word, kind, now, &mut self.bus),
                Backend::LogTm(l) => {
                    // Stall-preferring resolution against sticky state.
                    let res = l.resolve(tx, block, is_write);
                    self.apply_resolution(res, tx, now)?;
                    ConflictOutcome::default()
                }
                _ => ConflictOutcome::default(),
            };
            if let Some(until) = outcome.stall_until {
                return Err(AccessEffect::Stall(until));
            }
            deny_exclusive = outcome.deny_exclusive;
            conflicts = outcome.conflicts;
            check_done = check_done.max(outcome.done_at);
        }

        // b. In-cache conflict check via the snoop — one pass over the
        //    remote caches collects the conflicting owners and, for the
        //    word-granularity write path, whether any *other* writer's line
        //    is cached (the contested-block test reuses the same snoop).
        let mut other_cached_writer = false;
        for r in peek_remote_tx_use(&self.caches, idx, block) {
            if Some(r.meta.tx) == tx {
                continue;
            }
            other_cached_writer |= r.meta.write;
            if r.meta.conflicts_with(is_write, word, word_mode) {
                conflicts.push(r.meta.tx);
            }
        }
        conflicts.sort();
        conflicts.dedup();
        conflicts.retain(|c| self.is_live_tx(*c));

        // Word-granularity bookkeeping: a write that finds another writer's
        // live transactional state on this block (cached or overflowed)
        // makes the block *contested* — even when the words are disjoint and
        // no conflict arises. Contested blocks lose the whole-block /
        // toggle fast path, whose snapshots could otherwise go stale.
        if is_write && word_mode {
            if let Backend::Ptm(p) = &mut self.backend {
                let other_overflow_writer =
                    p.overflow_writers(block).into_iter().any(|w| Some(w) != tx);
                if other_cached_writer || other_overflow_writer {
                    p.mark_contested(block);
                }
            }
        }

        // c. Arbitration. PTM/VTM: the oldest transaction always wins
        //    (§4.4.3); non-transactional accesses always win (§2.3.3).
        //    LogTM instead *stalls* the requester (NACK + retry) unless its
        //    possible-cycle heuristic demands an abort.
        if !conflicts.is_empty() {
            let res = self.backend.arbitrate(tx, conflicts);
            self.apply_resolution(res, tx, now)?;
        }

        // d. Remote readers of this block (in-cache, non-conflicting) also
        //    deny exclusivity implicitly through `sharers_remaining`.
        //
        //    In the word-granularity configurations, remote transactional
        //    lines with word-disjoint writes are *preserved* (sub-block
        //    ownership); the hit path compensates by conflict-checking any
        //    hit on a word the line's own masks do not cover.
        let mut outcome = supply(
            &mut self.caches,
            idx,
            block,
            is_write,
            !deny_exclusive,
            word_mode,
            tx,
        );

        // e. Displaced remote transactional lines overflow. Taking the list
        //    (callers never read it from the outcome) avoids cloning the
        //    lines just to iterate them.
        for line in std::mem::take(&mut outcome.displaced_tx) {
            if self.handle_eviction(line, now, tx) {
                return Err(AccessEffect::SelfAborted);
            }
        }

        // f. Latency: the snoop round, plus the memory fetch when no cache
        //    supplied the data, overlapped with the conflict check.
        let mut done = self.bus.onchip_transfer(now);
        if outcome.source == DataSource::Memory && !upgrade {
            // PTM fetches from home or shadow per the Figure 3 XOR rule —
            // same latency either way, but keep the selection observable.
            if let Backend::Ptm(p) = &self.backend {
                let _ = p.fetch_frame(block);
            }
            done = self.bus.mem_access(done);
        }
        done = done.max(check_done);
        Ok((done.saturating_sub(now), outcome))
    }

    pub(crate) fn is_live_tx(&self, tx: TxId) -> bool {
        match &self.backend {
            Backend::Ptm(p) => p.is_live(tx),
            Backend::Vtm(v) => v.is_live(tx),
            Backend::LogTm(l) => l.is_live(tx),
            _ => false,
        }
    }

    /// Applies a conflict's [`Resolution`] — the one place a detected
    /// conflict aborts anyone. `Err` carries the requester's control effect
    /// when it must stall or has aborted itself.
    fn apply_resolution(
        &mut self,
        res: Resolution,
        requester: Option<TxId>,
        now: Cycle,
    ) -> Result<(), AccessEffect> {
        match res {
            Resolution::Proceed => Ok(()),
            Resolution::Stall => {
                self.stats.stall_cycles += self.cfg.retry_poll;
                Err(AccessEffect::Stall(now + self.cfg.retry_poll))
            }
            Resolution::SelfAbort => {
                self.abort_tx(requester.expect("self-abort is transactional"), now);
                Err(AccessEffect::SelfAborted)
            }
            Resolution::AbortOwners(losers) => {
                for loser in losers {
                    self.abort_tx(loser, now);
                }
                Ok(())
            }
        }
    }

    /// The *youngest* live transaction not in `spare` — the
    /// exhaustion-recovery victim (youngest has done the least work, and
    /// aborting it can never abort an older conflict winner). Sorted before
    /// selection: `live_transactions()` iterates a hash map.
    pub(crate) fn youngest_live_tx(&self, spare: &[Option<TxId>]) -> Option<TxId> {
        let mut live = match &self.backend {
            Backend::Ptm(p) => p.tstate().live_transactions(),
            _ => return None,
        };
        live.sort();
        live.into_iter().rfind(|t| !spare.contains(&Some(*t)))
    }

    /// Aborts `victim` to give its frames and TAV nodes back — the one place
    /// an exhaustion abort happens and is counted.
    fn exhaustion_abort(&mut self, victim: TxId, now: Cycle) {
        self.abort_tx(victim, now);
        if let Backend::Ptm(p) = &mut self.backend {
            p.note_exhaustion_abort();
        }
    }

    /// The one exhaustion-recovery loop: runs the PTM `attempt` and, while
    /// it runs out of frames or TAV nodes, aborts the youngest live
    /// transaction not in `spare` and retries (a failed attempt is
    /// side-effect free). With no such bystander left it aborts `fallback`
    /// and returns `Err(Some(fallback))`, or `Err(None)` when there is no
    /// fallback either.
    fn reclaim<T>(
        &mut self,
        now: Cycle,
        spare: &[Option<TxId>],
        fallback: Option<TxId>,
        mut attempt: impl FnMut(
            &mut PtmSystem,
            &mut PhysicalMemory,
            &mut SwapStore,
            &mut SystemBus,
        ) -> Result<T, Exhaustion>,
    ) -> Result<T, Option<TxId>> {
        let mut retries: u32 = 0;
        loop {
            let Backend::Ptm(p) = &mut self.backend else {
                unreachable!("exhaustion recovery is PTM's");
            };
            let e = match attempt(p, &mut self.mem, &mut self.kernel.swap, &mut self.bus) {
                Ok(v) => {
                    if retries > 0 {
                        p.note_exhaustion_retry();
                    }
                    return Ok(v);
                }
                Err(e) => e,
            };
            retries += 1;
            if retries > MAX_EXHAUSTION_RETRIES {
                panic!(
                    "exhaustion recovery did not converge after {MAX_EXHAUSTION_RETRIES} \
                     abort-and-retry rounds (spare={spare:?} last={e:?} free_frames={}): every \
                     abort must shrink the live set, so this is a simulator bug, not resource \
                     pressure",
                    self.mem.free_frames()
                );
            }
            let victim = self.youngest_live_tx(spare);
            let Some(v) = victim.or(fallback) else {
                return Err(None);
            };
            self.exhaustion_abort(v, now);
            if victim.is_none() {
                return Err(Some(v));
            }
        }
    }

    /// Aborts `tx` wherever it runs: cache invalidation, buffer discard,
    /// backend processing (Copy-PTM restore!), program rewind, backoff.
    pub(crate) fn abort_tx(&mut self, tx: TxId, now: Cycle) {
        if trace_word().is_some() {
            eprintln!("[ptm-trace] abort {tx} now={now}");
        }
        let owner = *self.tx_owner.get(&tx).expect("abort of unknown tx");
        self.ready_dirty.push(owner);
        // Migration can spread a transaction's lines across cores: sweep
        // every cache.
        for cache in &mut self.caches {
            abort_tx_lines(cache, tx);
        }
        let _ = self.spec.drain_tx(tx);
        let done = match &mut self.backend {
            Backend::Ptm(p) => {
                p.abort(tx, &mut self.mem, &mut self.kernel.swap, now, &mut self.bus)
            }
            Backend::Vtm(v) => v.abort(tx, now, &mut self.bus),
            Backend::LogTm(l) => l.abort(tx, &mut self.mem, now, &mut self.bus),
            _ => unreachable!("aborts only in transactional modes"),
        };
        // Durable mode: void the transaction's undo/redo records with an
        // abort record (write-behind — its cost hides under the penalty).
        if let Some(d) = self.durable.as_mut() {
            let _ = d.abort_tx(tx, now);
        }
        let attempts = u64::from(self.cores[owner].prog.attempts());
        self.cores[owner].prog.rewind();
        let penalty = self.cfg.abort_penalty * (attempts + 1);
        self.cores[owner].ready_at = self.cores[owner].ready_at.max(done + penalty);
        self.stats.aborts += 1;
    }

    /// Spills an evicted (or coherence-displaced) line into the overflow
    /// structures / writeback path. `requester` is the transaction whose
    /// access displaced the line; it is only ever aborted as the *last
    /// resort* of exhaustion recovery, signalled by the `true` return (the
    /// caller must then unwind with [`AccessEffect::SelfAborted`]).
    pub(crate) fn handle_eviction(
        &mut self,
        line: CacheLine,
        now: Cycle,
        requester: Option<TxId>,
    ) -> bool {
        if let Some(w) = trace_word() {
            if line.block().addr().page_offset() == (w as usize % 4096) & !63 {
                eprintln!(
                    "[ptm-trace] evict {} meta={:?} now={now}",
                    line.block(),
                    line.tx_meta()
                );
            }
        }
        if let Some(meta) = line.tx_meta().copied() {
            if !self.is_live_tx(meta.tx) {
                // A line of an already-finished transaction (tags are lazily
                // cleared only on its own core); drop it.
                return false;
            }
            // wd:cache (§6.3): coherence tracks words, but the overflowed
            // structures track one writer per block — evicting a dirty
            // block that a different live transaction already
            // write-overflowed forces an abort.
            let g = self.kind.granularity();
            if meta.write && g.word_in_cache() && !g.word_in_memory() {
                if let Backend::Ptm(p) = &self.backend {
                    let other = p
                        .overflow_writers(line.block())
                        .into_iter()
                        .find(|w| *w != meta.tx && self.is_live_tx(*w));
                    if let Some(w) = other {
                        // The requester wins outright; between bystanders,
                        // the older transaction wins.
                        let victim = if Some(w) == requester {
                            meta.tx
                        } else if Some(meta.tx) == requester || meta.tx.is_older_than(w) {
                            w
                        } else {
                            meta.tx
                        };
                        self.abort_tx(victim, now);
                        if victim == meta.tx {
                            // The evicted line died with its transaction.
                            return false;
                        }
                    }
                }
            }
            if let Backend::LogTm(l) = &mut self.backend {
                // Eager versioning keeps no buffered data: the eviction only
                // leaves sticky conflict state behind.
                l.on_tx_eviction(&meta, line.block());
                return false;
            }
            let spec = if meta.write {
                let s = self.spec.take(meta.tx, line.block());
                assert!(
                    s.is_some(),
                    "dirty tx line without a spec buffer: tx={} block={} state={} requester={:?} live={}",
                    meta.tx,
                    line.block(),
                    line.state(),
                    requester,
                    self.is_live_tx(meta.tx),
                );
                s
            } else {
                None
            };
            // Another live transaction may still hold a preserved
            // word-disjoint write copy of this block in its cache.
            let in_cache_cowriter = self
                .caches
                .iter()
                .filter_map(|h| h.line(line.block()))
                .filter_map(|l| l.tx_meta())
                .any(|m| m.write && m.tx != meta.tx);
            // Durable mode (PTM): the first time a transaction's dirty
            // write overflows a block, its committed pre-image rides the
            // log as an undo payload (deduplicated per (tx, block) inside
            // the log). Captured *before* the overflow mutates anything.
            if meta.write && self.durable.is_some() && matches!(self.backend, Backend::Ptm(_)) {
                if let Some(&(pid, vpn)) = self.rev_map.get(&line.block().frame()) {
                    let payload = UndoPayload {
                        pid,
                        vpn,
                        block: line.block().index(),
                        data: self.committed_block_snapshot(line.block()),
                    };
                    if let Some(d) = self.durable.as_mut() {
                        let _ = d.append_undo(meta.tx, line.block(), payload, now);
                    }
                }
            }
            match &mut self.backend {
                Backend::Ptm(_) => {
                    // Overflow processing can exhaust the frame pool (shadow
                    // allocation) or the TAV arena: reclaim, sparing the
                    // line's owner and the requester. The fallback aborts
                    // the owner — the line dies with it, nothing to overflow
                    // — and the requester unwinds if that was itself.
                    let block = line.block();
                    let spared = [Some(meta.tx), requester];
                    let overflowed = self.reclaim(now, &spared, Some(meta.tx), |p, mem, _, bus| {
                        p.on_tx_eviction(
                            &meta,
                            block,
                            spec.as_ref(),
                            in_cache_cowriter,
                            mem,
                            now,
                            bus,
                        )
                    });
                    return overflowed.is_err() && Some(meta.tx) == requester;
                }
                Backend::Vtm(v) => {
                    let (pid, vpn) = *self
                        .rev_map
                        .get(&line.block().frame())
                        .expect("reverse mapping for evicted block");
                    let vaddr = vpn.block_addr(line.block().index());
                    let old = self.mem.read_block(line.block());
                    v.on_tx_eviction(&meta, (pid, vaddr), spec.as_ref(), old, now, &mut self.bus);
                }
                _ => unreachable!("tx lines only exist in transactional modes"),
            }
        } else if line.state().is_dirty() {
            // Non-transactional dirty writeback.
            let _ = self.bus.mem_access(now);
            if let Backend::Ptm(p) = &mut self.backend {
                p.on_nontx_dirty_writeback(line.block(), &mut self.mem);
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Functional data movement
    // ------------------------------------------------------------------

    fn read_word_functional(
        &self,
        tx: Option<TxId>,
        pid: ProcessId,
        va: VirtAddr,
        pa: PhysAddr,
    ) -> u32 {
        let block = pa.block();
        let word = pa.word_in_block();
        if let Some(tx) = tx {
            // Serve only words this transaction *wrote* from its buffer; the
            // snapshot's other words can go stale under word-granularity
            // conflict detection (a disjoint co-writer may commit between
            // the snapshot and this read). The fallthrough view below is
            // always current.
            if let Some(v) = self.spec.read_own_written_word(tx, block, word) {
                return v;
            }
            match &self.backend {
                Backend::Ptm(p) => {
                    let f = p.tx_view_frame(tx, block, word);
                    self.mem
                        .read_word(PhysAddr::from_frame(f, pa.page_offset()))
                }
                Backend::Vtm(v) => v
                    .read_spec_word(tx, (pid, va), word)
                    .unwrap_or_else(|| self.mem.read_word(pa)),
                // Eager versioning: memory already holds the speculative
                // value (isolation comes from conflict detection alone).
                Backend::LogTm(_) => self.mem.read_word(pa),
                _ => unreachable!("tx context implies a TM backend"),
            }
        } else {
            match &self.backend {
                Backend::Ptm(p) => {
                    let f = p.committed_frame(block);
                    self.mem
                        .read_word(PhysAddr::from_frame(f, pa.page_offset()))
                }
                _ => self.mem.read_word(pa),
            }
        }
    }

    /// Returns the extra cycles the store owes the core — non-zero only for
    /// WAL-forced word-undo appends on durable eager-versioning machines.
    fn write_word_functional(
        &mut self,
        tx: Option<TxId>,
        pid: ProcessId,
        va: VirtAddr,
        pa: PhysAddr,
        value: u32,
        now: Cycle,
    ) -> Cycle {
        let block = pa.block();
        let word = pa.word_in_block();
        if let Some(w) = trace_word() {
            if va.block_aligned().0 == w & !63 {
                eprintln!(
                    "[ptm-trace] fwrite {tx:?} {va} = {value} (buffered={})",
                    tx.map(|t| self.spec.has(t, block)).unwrap_or(false)
                );
            }
        }
        if let Some(tx) = tx {
            if matches!(self.backend, Backend::LogTm(_)) {
                // Eager versioning: log the old value, update in place.
                // With a durable log attached, the pre-image is write-ahead
                // logged and forced first — memory must never get ahead of
                // the undo record it takes to roll this store back.
                let old = self.mem.read_word(pa);
                let wal_latency = match self.durable.as_mut() {
                    Some(d) => d.append_word_undo(tx, pa, old, now),
                    None => 0,
                };
                if let Backend::LogTm(l) = &mut self.backend {
                    l.log_write(tx, pa, old);
                }
                self.mem.write_word(pa, value);
                return wal_latency;
            }
            let snapshot = if self.spec.has(tx, block) {
                None
            } else {
                Some(self.tx_block_snapshot(tx, pid, va, block))
            };
            self.spec
                .write_word(tx, block, word, value, || snapshot.expect("fresh buffer"));
        } else {
            match &self.backend {
                Backend::Ptm(p) => {
                    let f = p.committed_frame(block);
                    let mirror = p.mirror_location(block, None);
                    self.mem
                        .write_word(PhysAddr::from_frame(f, pa.page_offset()), value);
                    // Word-granularity: keep live speculative pages current
                    // for words their owners never wrote (a word-disjoint
                    // non-transactional write does not conflict there).
                    if let Some(m) = mirror {
                        self.mem
                            .write_word(PhysAddr::from_frame(m.frame(), pa.page_offset()), value);
                    }
                }
                _ => self.mem.write_word(pa, value),
            }
        }
        0
    }

    /// The transaction's consistent view of a whole block (used to seed a
    /// fresh speculative buffer).
    fn tx_block_snapshot(
        &self,
        tx: TxId,
        pid: ProcessId,
        va: VirtAddr,
        block: PhysBlock,
    ) -> [u8; BLOCK_SIZE] {
        match &self.backend {
            Backend::Ptm(p) => {
                let (committed, speculative, mask) = p.tx_view_block(tx, block);
                if mask == WordMask::FULL {
                    return self.mem.read_block(block.on_frame(speculative));
                }
                let mut out = self.mem.read_block(block.on_frame(committed));
                if mask != WordMask::EMPTY {
                    let spec = self.mem.read_block(block.on_frame(speculative));
                    for w in mask.iter() {
                        let bytes = w.0 as usize * WORD_SIZE..(w.0 as usize + 1) * WORD_SIZE;
                        out[bytes.clone()].copy_from_slice(&spec[bytes]);
                    }
                }
                out
            }
            Backend::Vtm(v) => {
                let mut out = self.mem.read_block(block);
                let va_block = va.block_aligned();
                for w in 0..(BLOCK_SIZE / WORD_SIZE) as u8 {
                    if let Some(val) = v.read_spec_word(tx, (pid, va_block), WordIdx(w)) {
                        if v.tx_wrote_overflowed(tx, (pid, va_block)) {
                            out[w as usize * WORD_SIZE..(w as usize + 1) * WORD_SIZE]
                                .copy_from_slice(&val.to_le_bytes());
                        }
                    }
                }
                out
            }
            _ => self.mem.read_block(block),
        }
    }

    /// The committed (non-transactional) view of a whole block — what a
    /// freshly begun transaction with no buffered history observes.
    fn committed_block_snapshot(&self, block: PhysBlock) -> [u8; BLOCK_SIZE] {
        match &self.backend {
            Backend::Ptm(p) => self
                .mem
                .read_block(block.on_frame(p.committed_frame(block))),
            _ => self.mem.read_block(block),
        }
    }

    // ------------------------------------------------------------------
    // Introspection for tests and the reference executor
    // ------------------------------------------------------------------

    /// Reads the committed value of a word as the coherent, non-speculative
    /// world would see it (used by the serial reference check).
    pub fn read_committed(&self, pid: ProcessId, va: VirtAddr) -> u32 {
        self.backend
            .read_committed(&self.kernel, &self.mem, pid, va)
    }

    /// Direct kernel access for scenario tests (shared mappings, forced
    /// swaps).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// Direct memory access for scenario tests.
    pub fn memory_mut(&mut self) -> &mut PhysicalMemory {
        &mut self.mem
    }

    /// Forces a page out to swap (backend-aware): PTM migrates its SPT
    /// entry to the SIT and co-swaps the shadow page; other backends just
    /// move the data. Scenario tests use this to exercise §3.5 paging.
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident.
    pub fn force_swap_out(&mut self, pid: ProcessId, vpn: Vpn) {
        // The mapping is about to die: no core may keep serving the old
        // frame from its TLB.
        self.tlb_shootdown(pid, vpn);
        match &mut self.backend {
            Backend::Ptm(p) => {
                let frame = self
                    .kernel
                    .frame_of(pid, vpn)
                    .unwrap_or_else(|| panic!("swapping non-resident page {vpn}"));
                let out = p.on_swap_out(frame, &mut self.mem, &mut self.kernel.swap);
                self.kernel.mark_swapped(pid, vpn, out.home_slot);
                self.rev_map.remove(&frame);
            }
            _ => {
                let _ = self.kernel.plain_swap_out(pid, vpn, &mut self.mem);
            }
        }
    }

    /// The frame core `idx`'s TLB currently caches for `(pid, vpn)`, if any
    /// (test introspection for shootdown coverage).
    pub fn tlb_peek(&self, idx: usize, pid: ProcessId, vpn: Vpn) -> Option<FrameId> {
        self.tlb_lookup(idx, pid, vpn)
    }

    /// Faults a page in ahead of execution (scenario setup: inter-process
    /// sharing, forced swap tests) and registers it with the TM backend.
    /// Returns the page's frame.
    ///
    /// # Panics
    ///
    /// Panics if the page is swapped out.
    pub fn prefault(&mut self, pid: ProcessId, va: VirtAddr) -> FrameId {
        match self.kernel.translate(pid, va, &mut self.mem) {
            Translation::Resident { pa, allocated, .. } => {
                if let Some(frame) = allocated {
                    if let Backend::Ptm(p) = &mut self.backend {
                        p.on_page_alloc(frame);
                    }
                    self.rev_map.insert(frame, (pid, va.vpn()));
                }
                pa.frame()
            }
            Translation::SwappedOut { .. } => panic!("prefault hit a swapped page"),
            Translation::OutOfMemory { .. } => {
                panic!("prefault exhausted the physical frame pool")
            }
        }
    }
}

/// The value side of a store operation.
#[derive(Debug, Clone, Copy)]
enum WriteVal {
    Const(u32),
    Delta(i32),
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_types::{Granularity, ThreadId};

    fn machine(kind: SystemKind) -> Machine {
        let prog = ThreadProgram::new(ProcessId(0), ThreadId(0), vec![Op::Compute(1)]);
        Machine::new(MachineConfig::default(), kind, vec![prog])
    }

    #[test]
    fn stale_tlb_entry_never_survives_swap_out() {
        // Both the PTM swap path (SPT→SIT migration) and the plain kernel
        // path must shoot the mapping out of every core TLB, so the
        // post-swap access takes the major fault instead of reading through
        // a dangling frame.
        for kind in [SystemKind::SelectPtm(Granularity::Block), SystemKind::Locks] {
            let mut m = machine(kind);
            let pid = ProcessId(0);
            let va = VirtAddr::new(0x7000);
            let frame = m.prefault(pid, va);
            m.mem
                .write_word(PhysAddr::from_frame(frame, va.page_offset()), 77);

            // Warm core 0's TLB, then hit it once.
            assert!(matches!(
                m.access(0, 0, va, AccessKind::Read),
                AccessEffect::Done(..)
            ));
            assert_eq!(m.tlb_peek(0, pid, va.vpn()), Some(frame));
            assert!(matches!(
                m.access(0, 50, va, AccessKind::Read),
                AccessEffect::Done(..)
            ));
            assert_eq!(m.stats.tlb_hits, 1);
            assert_eq!(m.stats.tlb_misses, 1);

            m.force_swap_out(pid, va.vpn());
            assert_eq!(
                m.tlb_peek(0, pid, va.vpn()),
                None,
                "shootdown must clear the entry"
            );
            assert_eq!(m.stats.tlb_shootdowns, 1);

            // The page is gone: the access must fault and swap it back in.
            assert!(
                matches!(
                    m.access(0, 100, va, AccessKind::Read),
                    AccessEffect::Stall(_)
                ),
                "swapped page must fault, not serve a stale TLB entry"
            );
            // The retry completes against the new mapping with the old data.
            let AccessEffect::Done(_, pa) = m.access(0, 20_000, va, AccessKind::Read) else {
                panic!("the swapped-in page must serve the retry");
            };
            assert_eq!(m.read_committed(pid, va), 77);
            let new_frame = m.kernel.frame_of(pid, va.vpn()).expect("resident again");
            assert_eq!(pa, PhysAddr::from_frame(new_frame, va.page_offset()));
            assert_eq!(m.tlb_peek(0, pid, va.vpn()), Some(new_frame));
        }
    }

    #[test]
    fn direct_mapped_tlb_evicts_on_slot_conflict() {
        let mut m = machine(SystemKind::Serial);
        let pid = ProcessId(0);
        let stride = m.cfg.core_tlb_entries as u64 * 4096;
        let a = VirtAddr::new(0x10_0000);
        let b = VirtAddr::new(0x10_0000 + stride);
        assert!(matches!(
            m.access(0, 0, a, AccessKind::Read),
            AccessEffect::Done(..)
        ));
        assert!(matches!(
            m.access(0, 100, b, AccessKind::Read),
            AccessEffect::Done(..)
        ));
        // `b` displaced `a` from their shared direct-mapped slot.
        assert_eq!(m.tlb_peek(0, pid, a.vpn()), None);
        assert!(m.tlb_peek(0, pid, b.vpn()).is_some());
        assert!(matches!(
            m.access(0, 200, a, AccessKind::Read),
            AccessEffect::Done(..)
        ));
        assert_eq!(m.stats.tlb_hits, 0);
        assert_eq!(m.stats.tlb_misses, 3);
    }

    #[test]
    fn zero_sized_tlb_disables_cleanly() {
        let prog = ThreadProgram::new(ProcessId(0), ThreadId(0), vec![Op::Compute(1)]);
        let cfg = MachineConfig {
            core_tlb_entries: 0,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg, SystemKind::Serial, vec![prog]);
        let va = VirtAddr::new(0x3000);
        assert!(matches!(
            m.access(0, 0, va, AccessKind::Read),
            AccessEffect::Done(..)
        ));
        assert!(matches!(
            m.access(0, 100, va, AccessKind::Read),
            AccessEffect::Done(..)
        ));
        assert_eq!(m.tlb_peek(0, ProcessId(0), va.vpn()), None);
        assert_eq!(m.stats.tlb_hits, 0);
        assert_eq!(m.stats.tlb_misses, 2);
        m.tlb_shootdown(ProcessId(0), va.vpn());
        assert_eq!(m.stats.tlb_shootdowns, 0);
    }
}
