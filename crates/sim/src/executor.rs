//! The transaction-level Block-STM executor: optimistic whole-transaction
//! speculation with bit-identical results.
//!
//! [`Machine::run`] steps cores strictly in canonical order (smallest
//! `(ready_at, core)` first). This module parallelizes the *computation* of
//! those steps without changing their *order*:
//!
//! 1. **Speculate (phase A).** A Block-STM [`Scheduler`](crate::scheduler::Scheduler)
//!    dispenses per-core execution tasks to host worker threads sharing a
//!    frozen `&Machine`. Each task runs its core ahead through a bounded
//!    cycle window (an *epoch*), recording a [`SpecRun`] — and, unlike the
//!    old step-granularity executor, the run carries **whole simulated
//!    transactions**: `Begin`/`End` boundaries become [`SpecStep::Boundary`]
//!    steps, transactional loads and stores inside a not-yet-begun
//!    transaction reference a slot in the run's transaction table (the real
//!    `TxId` is late-bound at the canonical `Begin`), and stores buffer
//!    through the run's overlay exactly as the live lazy-versioning path
//!    would. Anything whose outcome is not locally decidable — cache
//!    misses, upgrades, lock ops, ordered commits, barriers, injection
//!    timers — still stops the run; those steps (and everything
//!    non-transactional that follows them) fall back to the canonical
//!    sequential loop.
//! 2. **Consume (phase B).** The canonical scheduler loop pops cores
//!    oldest-first as always. A pending, still-valid speculative step is
//!    applied directly (cheap); `Boundary` steps execute the live
//!    `Begin`/commit at exactly their canonical points (binding slot
//!    transactions, draining buffers, publishing writes); everything else
//!    executes live. Validation is word-granular through the shared
//!    [`MvMap`]: every canonically-applied write (live or consumed)
//!    publishes a version keyed by `(core, incarnation)`, and a speculated
//!    step is discarded when a *foreign* version exists for a word it read
//!    (or for any word of a block whose snapshot it precomputed). Aborted
//!    eager-versioning (LogTM) transactions publish **ESTIMATE** markers
//!    for the words their rollback rewrote. Cross-core mutations that
//!    word-level tracking cannot scope — overflow processing, migrations,
//!    shootdowns, swap-ins, selection flips, word-granularity
//!    commits/aborts — still poison globally through [`ExecLog`], and a
//!    coherence supply poisons cores whose caches hold the block. A
//!    discarded run bumps its core's **incarnation**; the next epoch
//!    re-executes it against fresh state.
//!
//! Because consumed steps apply their effects at exactly the canonical pop
//! points, and validation discards any step whose inputs a preceding step
//! changed, the final machine state — checksums, cycle counts,
//! commit/abort/conflict/TLB counters, every byte of memory — is
//! **bit-identical** to [`Machine::run`]. Debug builds additionally
//! re-verify every consumed step against the live state
//! (`debug_assertions`), so any gap in the poison rules fails loudly in
//! tests instead of skewing results.

use crate::backend::Backend;
use crate::machine::{trace_word, Machine};
use crate::mvmap::{MvMap, TxnVersion};
use crate::ops::Op;
use crate::scheduler::{Scheduler, Task};
use crate::SystemKind;
use ptm_cache::{Hit, Moesi, ProbeResult};
use ptm_core::system::AccessKind;
use ptm_types::{
    Cycle, FastMap, FastSet, PhysAddr, PhysBlock, ProcessId, TxId, VirtAddr, WordIdx, BLOCK_SIZE,
    WORD_SIZE,
};
use std::sync::Mutex;

/// Host-side knobs for [`Machine::run_parallel`].
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Host worker threads for the speculation phase. `1` keeps everything
    /// on the calling thread (still exercises the full epoch machinery).
    pub threads: usize,
    /// Cycle width of one epoch (the run-ahead window). Smaller epochs
    /// validate more often; `1` forces every speculative step through a
    /// fresh validation round (the rollback stress configuration).
    pub epoch_cycles: Cycle,
}

impl ExecutorConfig {
    /// Default epoch width: large enough to amortize the per-epoch barrier,
    /// small enough that a poison does not waste much run-ahead.
    pub const DEFAULT_EPOCH_CYCLES: Cycle = 16_384;

    /// One speculation worker per available host core.
    pub fn host_default() -> Self {
        ExecutorConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            epoch_cycles: Self::DEFAULT_EPOCH_CYCLES,
        }
    }

    /// A configuration with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        ExecutorConfig {
            threads,
            ..Self::host_default()
        }
    }
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self::host_default()
    }
}

/// Counters describing one [`Machine::run_parallel`] execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Epochs executed (validation rounds).
    pub epochs: u64,
    /// Non-empty speculative runs produced by phase A.
    pub spec_runs: u64,
    /// Steps speculated in phase A.
    pub spec_steps: u64,
    /// Speculated steps whose effects were consumed at their canonical pop
    /// points (the parallel win).
    pub committed_spec_steps: u64,
    /// Steps executed live by phase B (never speculated, or re-executed
    /// after a rollback).
    pub live_steps: u64,
    /// Speculative runs discarded with unconsumed steps (validation
    /// failures and epoch-boundary leftovers).
    pub rollbacks: u64,
    /// Speculated-but-discarded steps that re-executed sequentially.
    pub reexecuted_steps: u64,
    /// Poison notifications raised by live steps (global + per-core).
    pub poison_events: u64,
    /// Whole simulated transactions entered inside speculative runs
    /// (`Begin` boundaries speculated).
    pub spec_txs: u64,
    /// Whole simulated transactions whose commit was consumed at its
    /// canonical point from a speculative run (the transaction-granularity
    /// win: begin, body and commit all rode one run).
    pub spec_tx_commits: u64,
    /// Core re-incarnations: discarded runs whose cores re-executed under
    /// a bumped incarnation number in a later epoch.
    pub incarnations: u64,
    /// Decreasing validation waves triggered in the phase-A scheduler.
    pub validation_waves: u64,
    /// Speculative steps discarded by a word-granular MvMap conflict
    /// (foreign version or ESTIMATE marker on a word they read).
    pub word_conflicts: u64,
    /// ESTIMATE markers published by eager-versioning aborts.
    pub estimate_markers: u64,
    /// Speculated cache-miss/upgrade steps that executed through the live
    /// path at their canonical points (replays). A replay is live-cost
    /// work, but it keeps the run alive so the cheap steps behind the miss
    /// stay consumable.
    pub replayed_steps: u64,
    /// Replays that did not complete their op (a stall, a conflict
    /// self-abort, an injected system event) plus post-replay state
    /// re-verification failures: the run's tail was discarded.
    pub replay_mispredicts: u64,
    /// Replays whose live latency diverged from the frozen-bus prediction
    /// (contention from other cores' consumed traffic). The tail survives —
    /// speculated steps are time-shift invariant — rescheduled by the skew.
    pub replay_skews: u64,
    /// Why runs stopped speculating, indexed by [`Refusal`]. Diagnostic:
    /// shows which live-path behaviour bounds run length.
    pub refusals: [u64; Refusal::COUNT],
}

/// Reasons phase A stops a speculative run (indices into
/// [`ExecStats::refusals`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Refusal {
    /// Core-TLB miss: the live path enters the kernel.
    Tlb = 0,
    /// Block absent from the private cache *while overflow structures are
    /// live* (the fetch's conflict walk is unpredictable). Overflow-free
    /// misses become [`SpecStep::Replay`]s instead of stopping the run.
    CacheMiss = 1,
    /// Foreign (or dead) transactional metadata on the line.
    Meta = 2,
    /// Write needing an ownership upgrade while overflow structures are
    /// live. Overflow-free upgrades replay.
    Upgrade = 3,
    /// Transactional access under migration or word-granularity tracking.
    TxMode = 4,
    /// Unspeculable boundary (ordered/retry Begin, lock op, barrier).
    Boundary = 5,
}

impl Refusal {
    /// Number of refusal reasons.
    pub const COUNT: usize = 6;
    /// Short labels, index-aligned with [`ExecStats::refusals`].
    pub const LABELS: [&'static str; Self::COUNT] = [
        "tlb",
        "cache_miss",
        "meta",
        "upgrade",
        "tx_mode",
        "boundary",
    ];
}

impl ExecStats {
    /// Fraction of all executed steps that were served from speculation.
    pub fn spec_commit_fraction(&self) -> f64 {
        let total = self.committed_spec_steps + self.live_steps;
        if total == 0 {
            return 0.0;
        }
        self.committed_spec_steps as f64 / total as f64
    }

    /// Accumulates another run's counters into this one (for harness-level
    /// aggregation across benchmark cells).
    pub fn merge(&mut self, other: &ExecStats) {
        self.epochs += other.epochs;
        self.spec_runs += other.spec_runs;
        self.spec_steps += other.spec_steps;
        self.committed_spec_steps += other.committed_spec_steps;
        self.live_steps += other.live_steps;
        self.rollbacks += other.rollbacks;
        self.reexecuted_steps += other.reexecuted_steps;
        self.poison_events += other.poison_events;
        self.spec_txs += other.spec_txs;
        self.spec_tx_commits += other.spec_tx_commits;
        self.incarnations += other.incarnations;
        self.validation_waves += other.validation_waves;
        self.word_conflicts += other.word_conflicts;
        self.estimate_markers += other.estimate_markers;
        self.replayed_steps += other.replayed_steps;
        self.replay_mispredicts += other.replay_mispredicts;
        self.replay_skews += other.replay_skews;
        for (a, b) in self.refusals.iter_mut().zip(other.refusals) {
            *a += b;
        }
    }
}

/// Epoch-validation state embedded in the machine. Inert (`active: false`)
/// during plain sequential runs, so the hooks sprinkled through the live
/// step paths cost one predictable branch each.
#[derive(Debug)]
pub(crate) struct ExecLog {
    /// Whether an epoch executor is driving this machine.
    pub(crate) active: bool,
    /// A cross-core mutation invalidated *every* pending run this epoch.
    poison_all: bool,
    /// Per-core poison (coherence supply touched a block this core's
    /// pending run may depend on).
    poisoned: Vec<bool>,
    /// Which cores still have unconsumed speculative steps this epoch.
    pending: Vec<bool>,
    /// The epoch's multi-version map: every canonically-applied write
    /// (consumed speculative writes and live functional writes alike)
    /// publishes a version keyed by `(core, incarnation)`; ESTIMATE
    /// markers stand in for words an abort rolled back. A consume whose
    /// read word carries a *foreign* version is discarded.
    mv: MvMap,
    /// Per-core incarnation numbers: how many times each core's
    /// speculative run has been discarded and re-executed. Persist across
    /// epochs (an epoch is one execution wave).
    incarnations: Vec<u32>,
    /// Total poison notifications (for [`ExecStats::poison_events`]).
    pub(crate) poison_events: u64,
    /// ESTIMATE markers published (for [`ExecStats::estimate_markers`]).
    pub(crate) estimate_markers: u64,
}

impl ExecLog {
    /// The inert log a freshly built machine carries.
    pub(crate) fn inactive() -> Self {
        ExecLog {
            active: false,
            poison_all: false,
            poisoned: Vec::new(),
            pending: Vec::new(),
            mv: MvMap::new(),
            incarnations: Vec::new(),
            poison_events: 0,
            estimate_markers: 0,
        }
    }

    fn activate(&mut self, cores: usize) {
        self.active = true;
        self.poison_all = false;
        self.poisoned = vec![false; cores];
        self.pending = vec![false; cores];
        self.mv.clear();
        self.incarnations = vec![0; cores];
        self.poison_events = 0;
        self.estimate_markers = 0;
    }

    fn deactivate(&mut self) {
        self.active = false;
    }

    fn begin_epoch(&mut self, pending: &[bool]) {
        self.poison_all = false;
        self.poisoned.iter_mut().for_each(|p| *p = false);
        self.pending.copy_from_slice(pending);
        self.mv.clear();
    }

    /// A live step mutated state that any core's run may depend on.
    pub(crate) fn poison_all(&mut self) {
        if self.active && !self.poison_all {
            self.poison_all = true;
            self.poison_events += 1;
        }
    }

    /// A live step mutated state `core`'s pending run may depend on.
    pub(crate) fn poison_core(&mut self, core: usize) {
        if self.active && !self.poisoned[core] {
            self.poisoned[core] = true;
            self.poison_events += 1;
        }
    }

    /// Whether `core` still has unconsumed speculative steps this epoch.
    pub(crate) fn is_pending(&self, core: usize) -> bool {
        self.active && self.pending[core]
    }

    /// Publishes a canonically-applied functional write for word-granular
    /// same-epoch ordering validation.
    pub(crate) fn note_write(&mut self, block: PhysBlock, word: WordIdx, core: usize, value: u32) {
        if self.active {
            let version = self.version_of(core);
            self.mv.write((block, word), version, value);
        }
    }

    /// Publishes an ESTIMATE marker: an abort rolled this word back and the
    /// owner is likely to rewrite it on retry.
    pub(crate) fn note_estimate(&mut self, block: PhysBlock, word: WordIdx, core: usize) {
        if self.active {
            let version = self.version_of(core);
            self.mv.write_estimate((block, word), version);
            self.estimate_markers += 1;
        }
    }

    /// A core's run was discarded: its next execution is a new incarnation.
    pub(crate) fn note_rollback(&mut self, core: usize) {
        self.incarnations[core] += 1;
    }

    fn version_of(&self, core: usize) -> TxnVersion {
        TxnVersion {
            tx_index: core as u32,
            incarnation: self.incarnations[core],
        }
    }

    fn run_poisoned(&self, core: usize) -> bool {
        self.poison_all || self.poisoned[core]
    }

    /// Whether a foreign version (value or ESTIMATE) exists for one word.
    fn word_written_by_other(&self, block: PhysBlock, word: WordIdx, core: usize) -> bool {
        self.mv.latest_foreign((block, word), core as u32).is_some()
    }

    /// Whether a foreign version exists anywhere in `block` (invalidates
    /// precomputed whole-block snapshots).
    fn block_written_by_other(&self, block: PhysBlock, core: usize) -> bool {
        self.mv.block_has_foreign(block, core as u32)
    }

    fn set_consumed(&mut self, core: usize) {
        self.pending[core] = false;
    }
}

/// Where a speculated write lands when consumed.
#[derive(Debug)]
enum WriteTarget {
    /// PTM/VTM lazy versioning: the transaction's speculative buffer.
    /// `snapshot` is the pre-image for the transaction's first write to the
    /// block (precomputed from the frozen view).
    TxBuffer {
        snapshot: Option<Box<[u8; BLOCK_SIZE]>>,
    },
    /// LogTM eager versioning: log the old word, update memory in place.
    TxLog,
    /// Non-transactional store: `primary` is the committed location (PTM
    /// redirects through the selection vector), `mirror` a live
    /// word-granularity co-writer's speculative page to keep current.
    Mem {
        primary: PhysAddr,
        mirror: Option<PhysAddr>,
    },
}

/// The transaction context a speculated access runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxRef {
    /// Non-transactional.
    None,
    /// A transaction that was already in flight when the run was frozen —
    /// its `TxId` is known.
    Live(TxId),
    /// A transaction this run *itself* begins: the `TxId` is allocated by
    /// the live `Begin` at its canonical point and bound into the run's
    /// slot table ([`SpecRun::txs`]).
    Slot(usize),
}

/// A transaction boundary carried inside a speculative run. The boundary
/// executes **live** at its canonical consume point (allocating IDs,
/// draining buffers, committing against the real backend); the run only
/// pre-schedules it, which is sound because unordered boundaries never
/// stall: `Begin` costs exactly `begin_cost`, an unordered outermost `End`
/// exactly `commit_cost`, nested/serial boundaries exactly 1 cycle.
#[derive(Debug, Clone, Copy)]
enum BoundaryKind {
    /// Serial-mode or flattened-nested begin/end: advance + 1 cycle.
    Trivial,
    /// Outermost `Begin` of a fresh, unordered transaction. The live step
    /// allocates its `TxId`, which the consume binds to `slot`.
    Begin { slot: usize },
    /// Outermost unordered `End`: the live commit of the run's current
    /// transaction.
    Commit,
}

/// One speculated step, carrying everything its consume needs.
#[derive(Debug)]
enum SpecStep {
    Compute {
        at: Cycle,
        cost: Cycle,
    },
    Access {
        at: Cycle,
        va: VirtAddr,
        pa: PhysAddr,
        kind: AccessKind,
        tx: TxRef,
        /// The value the load observes (feeds the checksum and RMW deltas).
        old: u32,
        write: Option<(u32, WriteTarget)>,
        /// Hit latency (L1, or L1+L2 for an L1 miss that hits L2).
        latency: Cycle,
    },
    Boundary {
        at: Cycle,
        kind: BoundaryKind,
        /// Predicted `ready_at` advance of the live step (checked in debug
        /// builds; all speculated boundary flavours are constant-cost).
        cost: Cycle,
    },
    /// A step whose outcome phase A cannot compute from the frozen state —
    /// a cache-miss fill or an ownership upgrade. It executes **live** at
    /// its canonical point (full coherence transaction, conflict
    /// arbitration, fill, eviction), which is trivially bit-identical; the
    /// speculation is the *schedule*: `cost` predicts the live latency from
    /// the frozen bus so the steps behind the miss stay consumable. If the
    /// live step lands anywhere else (bus contention, a conflict abort, a
    /// stall), the rest of the run is discarded — yield lost, never
    /// correctness.
    Replay {
        at: Cycle,
        cost: Cycle,
    },
}

impl SpecStep {
    fn at(&self) -> Cycle {
        match self {
            SpecStep::Compute { at, .. }
            | SpecStep::Access { at, .. }
            | SpecStep::Boundary { at, .. }
            | SpecStep::Replay { at, .. } => *at,
        }
    }
}

/// A core's speculative run-ahead through one epoch. `steps` is stored in
/// reverse execution order so consuming pops from the back.
#[derive(Debug)]
struct SpecRun {
    core: usize,
    steps: Vec<SpecStep>,
    /// Late-bound `TxId`s of the transactions this run begins, indexed by
    /// [`TxRef::Slot`] / [`BoundaryKind::Begin`] slot number. Bound at the
    /// canonical `Begin`; `None` until then.
    txs: Vec<Option<TxId>>,
    /// Why the walk stopped, by [`Refusal`] (diagnostic, aggregated into
    /// [`ExecStats::refusals`]).
    refusals: [u64; Refusal::COUNT],
    /// Set once the consume executes one of this run's [`SpecStep::Replay`]
    /// steps. Before the first replay every prediction is provably exact
    /// (frozen state + own-effect overlay + poison rules); after it, the
    /// real fill's victim choice and supplied MOESI state are only
    /// *predicted*, so later `Access` consumes re-verify the live fast-path
    /// gates against the current cache ([`Machine::verify_spec_access`]),
    /// and the consume refuses once the core's clock crosses an injection
    /// timer (a skewed schedule could otherwise slide a speculated step
    /// past the point where the live path injects a system event).
    replayed: bool,
    /// Accumulated difference between each replay's live completion time
    /// and its frozen-bus prediction. Speculated steps only encode
    /// *durations* (`cost`/`latency`); their absolute schedule shifts by
    /// this skew without affecting validity, so the invariant
    /// `ready_at == step.at + skew` holds at every consume point (checked
    /// in debug builds).
    skew: i64,
}

impl SpecRun {
    fn remaining(&self) -> u64 {
        self.steps.len() as u64
    }
}

/// Run-local state layered over the frozen machine during speculation: the
/// effects this run's earlier steps will have had by the time a later step
/// consumes.
#[derive(Default)]
struct RunOverlay {
    /// Simulated L1 sets (`set index → (block, lru)` ways), lazily seeded
    /// from the frozen array and replayed with [`CacheArray::insert`]
    /// semantics so hit levels (and therefore latencies) stay exact.
    ///
    /// [`CacheArray::insert`]: ptm_cache::CacheArray::insert
    l1_sets: FastMap<usize, Vec<(PhysBlock, u64)>>,
    l1_clock: u64,
    /// MOESI overrides (this run's writes leave lines Modified).
    moesi: FastMap<PhysBlock, Moesi>,
    /// Functional words this run wrote.
    data: FastMap<(PhysBlock, WordIdx), u32>,
    /// Blocks whose first transactional buffer this run creates (later
    /// writes must not precompute another snapshot).
    buffered: FastSet<PhysBlock>,
    /// Blocks this run's replayed misses fill, keyed to the transaction
    /// context that will tag the new line — the frozen array does not
    /// contain them, so later probes resolve presence and metadata here
    /// (state lives in `moesi`).
    filled: FastMap<PhysBlock, TxRef>,
    /// Why this run's walk stopped, by [`Refusal`] (at most one is set).
    refusals: [u64; Refusal::COUNT],
}

/// Frozen-lru values stay below this; overlay insertions count up from it,
/// so simulated recency always orders after anything pre-existing.
const OVERLAY_LRU_BASE: u64 = u64::MAX / 2;

impl RunOverlay {
    /// Records why the walk stops; typed to chain as `return ov.refuse(r)`.
    fn refuse<T>(&mut self, r: Refusal) -> Option<T> {
        self.refusals[r as usize] += 1;
        None
    }

    fn l1_set<'a>(
        &'a mut self,
        m: &Machine,
        idx: usize,
        block: PhysBlock,
    ) -> &'a mut Vec<(PhysBlock, u64)> {
        let l1 = m.caches[idx].l1();
        let sets = l1.config().sets;
        let block_number = block.addr().0 / BLOCK_SIZE as u64;
        let set = (block_number as usize) & (sets - 1);
        self.l1_sets
            .entry(set)
            .or_insert_with(|| l1.set_view(block).collect())
    }

    fn l1_contains(&mut self, m: &Machine, idx: usize, block: PhysBlock) -> bool {
        self.l1_set(m, idx, block).iter().any(|(b, _)| *b == block)
    }

    /// Replays `CacheArray::insert` for the L1 presence refill `touch_mut`
    /// performs at consume time.
    fn l1_insert(&mut self, m: &Machine, idx: usize, block: PhysBlock) {
        let ways = m.caches[idx].l1().config().ways;
        self.l1_clock += 1;
        let clock = OVERLAY_LRU_BASE + self.l1_clock;
        let set = self.l1_set(m, idx, block);
        if let Some(way) = set.iter_mut().find(|(b, _)| *b == block) {
            way.1 = clock;
            return;
        }
        if set.len() < ways {
            set.push((block, clock));
            return;
        }
        let victim = set
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, lru))| *lru)
            .map(|(i, _)| i)
            .expect("full set is non-empty");
        set[victim] = (block, clock);
    }
}

impl Machine {
    /// Runs every program to completion through the speculative epoch
    /// executor, producing **bit-identical** results to [`Machine::run`].
    ///
    /// # Panics
    ///
    /// Panics if the machine stops making progress, like [`Machine::run`].
    pub fn run_parallel(&mut self, exec: &ExecutorConfig) -> ExecStats {
        assert!(
            self.durable.is_none(),
            "the epoch executor does not support a durable log: speculation \
             replays steps, which would double-append log records — use \
             Machine::run for durable machines"
        );
        let mut xs = ExecStats::default();
        let threads = exec.threads.max(1);
        let epoch_cycles = exec.epoch_cycles.max(1);
        // Word tracing prints from the live paths speculation skips; keep
        // traced runs fully sequential so the interleaving stays readable.
        let spec_enabled = trace_word().is_none();
        let mut guard: u64 = 0;
        let limit = self.progress_limit();
        let trace_progress = std::env::var("PTM_TRACE_PROGRESS").is_ok();

        let n = self.cores.len();
        self.exec_log.activate(n);
        let mut heap = self.build_ready_heap();
        let mut pending: Vec<Option<SpecRun>> = (0..n).map(|_| None).collect();
        let mut pend_flags = vec![false; n];

        // Consecutive unproductive epochs (nothing consumed). While cores
        // sit at unspeculable steps (miss bursts, barriers, contended
        // phases), re-speculating every few cycles is wasted overhead —
        // back the live window off exponentially until speculation lands
        // again, then snap back to eager re-freezing.
        let mut dry: u32 = 0;

        while let Some((t0, _)) = heap.peek() {
            let window = if dry == 0 {
                epoch_cycles
            } else {
                (128u64 << dry.min(16)).min(epoch_cycles)
            };
            let window_end = t0.saturating_add(window);
            xs.epochs += 1;

            // Phase A: side-effect-free run-ahead against the frozen state,
            // dispensed by the Block-STM scheduler.
            let runs = if spec_enabled {
                self.speculate(window_end, threads, &mut xs)
            } else {
                Vec::new()
            };
            pend_flags.iter_mut().for_each(|p| *p = false);
            for run in runs {
                if !run.steps.is_empty() {
                    xs.spec_runs += 1;
                    xs.spec_steps += run.remaining();
                    let core = run.core;
                    pend_flags[core] = true;
                    pending[core] = Some(run);
                }
            }
            self.exec_log.begin_epoch(&pend_flags);

            // Phase B: canonical-order consume/execute. The window bounds
            // the epoch, but a productive epoch ends as soon as every
            // speculative run is drained: re-freezing immediately lets the
            // next phase A pick up right after the miss/upgrade that
            // stopped the runs, instead of stepping the rest of the window
            // live. Unproductive epochs (nothing consumed) run their full
            // window so the speculation overhead stays amortized.
            let consumed0 = xs.committed_spec_steps;
            while let Some((t, idx)) = heap.peek() {
                if t >= window_end {
                    break;
                }
                if xs.committed_spec_steps > consumed0 && pending.iter().all(Option::is_none) {
                    break;
                }
                if !self.try_consume(idx, &mut pending, &mut xs) {
                    self.step(idx);
                    xs.live_steps += 1;
                }
                self.sync_heap(&mut heap, idx);
                guard += 1;
                if trace_progress && guard.is_multiple_of(20_000_000) {
                    let pcs: Vec<_> = self
                        .cores
                        .iter()
                        .map(|c| (c.prog.thread().0, c.prog.pc(), c.ready_at))
                        .collect();
                    eprintln!("[progress] steps={guard} {pcs:?}");
                }
                if guard >= limit {
                    self.progress_panic();
                }
            }

            // Epoch boundary: whatever survived unconsumed (poisoned right
            // at the end of the window) rolls back and re-incarnates.
            for slot in pending.iter_mut() {
                if let Some(run) = slot.take() {
                    xs.rollbacks += 1;
                    xs.reexecuted_steps += run.remaining();
                    self.exec_log.note_rollback(run.core);
                }
            }
            dry = if xs.committed_spec_steps > consumed0 {
                0
            } else {
                dry.saturating_add(1)
            };
        }

        xs.poison_events = self.exec_log.poison_events;
        xs.estimate_markers = self.exec_log.estimate_markers;
        xs.incarnations = self
            .exec_log
            .incarnations
            .iter()
            .map(|&i| u64::from(i))
            .sum();
        self.exec_log.deactivate();
        self.finalize_stats();
        xs
    }

    /// Attempts to consume core `idx`'s next speculative step. Returns
    /// `false` when the core has no valid pending step (the caller executes
    /// live). Discards the rest of the run on any validation failure.
    fn try_consume(
        &mut self,
        idx: usize,
        pending: &mut [Option<SpecRun>],
        xs: &mut ExecStats,
    ) -> bool {
        let Some(run) = pending[idx].as_mut() else {
            return false;
        };
        let mut word_conflict = false;
        let mut state_mispredict = false;
        // A replay-skewed schedule may slide a step onto (or past) an
        // injection timer; the live path would inject the system event
        // first, so the step must run live. Exact-schedule runs provably
        // stop short of both timers during speculation.
        let injection_due = run.replayed && {
            let c = &self.cores[idx];
            c.ready_at >= c.next_cs || c.ready_at >= c.next_exc
        };
        let discard = self.exec_log.run_poisoned(idx)
            || injection_due
            || match run.steps.last() {
                Some(SpecStep::Access {
                    pa,
                    kind,
                    tx,
                    write,
                    latency,
                    ..
                }) => {
                    // Word-granular validation: a foreign version (or
                    // ESTIMATE) on the word this step read means a
                    // preceding canonical step changed its input. A
                    // precomputed whole-block snapshot (first buffered
                    // write of a transaction) additionally requires the
                    // whole block clean of foreign versions.
                    let block = pa.block();
                    let snapshot_write = matches!(
                        write,
                        Some((_, WriteTarget::TxBuffer { snapshot: Some(_) }))
                    );
                    word_conflict =
                        self.exec_log
                            .word_written_by_other(block, pa.word_in_block(), idx)
                            || (snapshot_write && self.exec_log.block_written_by_other(block, idx));
                    // After a replay the run's cache-state predictions are
                    // no longer provably exact: re-run the live fast-path
                    // gates against the current hierarchy.
                    if !word_conflict && run.replayed {
                        let resolved = match tx {
                            TxRef::None => None,
                            TxRef::Live(t) => Some(*t),
                            TxRef::Slot(s) => {
                                Some(run.txs[*s].expect("slot bound by its Begin boundary"))
                            }
                        };
                        state_mispredict = !self.verify_spec_access(
                            idx,
                            *pa,
                            *kind,
                            resolved,
                            *latency,
                            write.is_some(),
                        );
                    }
                    word_conflict || state_mispredict
                }
                Some(SpecStep::Compute { .. })
                | Some(SpecStep::Boundary { .. })
                | Some(SpecStep::Replay { .. }) => false,
                None => true,
            };
        if discard {
            if word_conflict {
                xs.word_conflicts += 1;
            }
            if state_mispredict {
                xs.replay_mispredicts += 1;
            }
            let run = pending[idx].take().expect("pending run");
            if run.remaining() > 0 {
                xs.rollbacks += 1;
                xs.reexecuted_steps += run.remaining();
                self.exec_log.note_rollback(idx);
            }
            self.exec_log.set_consumed(idx);
            return false;
        }
        let skew = run.skew;
        let step = run.steps.pop().expect("non-empty run");
        let done = run.steps.is_empty();
        match step {
            SpecStep::Replay { at, cost } => {
                run.replayed = true;
                debug_assert_eq!(
                    self.cores[idx].ready_at,
                    at.wrapping_add_signed(run.skew),
                    "replay off schedule"
                );
                let predicted = self.cores[idx].ready_at + cost;
                let pc_before = self.cores[idx].prog.pc();
                self.step(idx);
                xs.replayed_steps += 1;
                xs.live_steps += 1;
                if self.cores[idx].prog.pc() != pc_before + 1 {
                    // The op did not complete (a stall, a conflict
                    // self-abort, an injected event): the tail no longer
                    // lines up with the program. Discard it — the replay
                    // itself was canonical work, nothing to undo.
                    xs.replay_mispredicts += 1;
                    let run = pending[idx].take().expect("pending run");
                    if run.remaining() > 0 {
                        xs.rollbacks += 1;
                        xs.reexecuted_steps += run.remaining();
                        self.exec_log.note_rollback(idx);
                    }
                    self.exec_log.set_consumed(idx);
                    return true;
                }
                // Completed off the predicted latency (bus contention from
                // other cores' consumed traffic): the tail stays valid —
                // speculated steps encode durations, not absolute times —
                // it just runs on a shifted schedule.
                let actual = self.cores[idx].ready_at;
                if actual != predicted {
                    xs.replay_skews += 1;
                    run.skew += actual as i64 - predicted as i64;
                }
            }
            SpecStep::Boundary { at, kind, cost } => {
                if !self.consume_boundary(idx, at, kind, cost, pending, xs) {
                    // The live boundary diverged from the prediction on a
                    // replay-perturbed run: the tail no longer lines up
                    // with the program. The boundary itself was canonical
                    // work, nothing to undo.
                    let run = pending[idx].take().expect("pending run");
                    if run.remaining() > 0 {
                        xs.rollbacks += 1;
                        xs.reexecuted_steps += run.remaining();
                        self.exec_log.note_rollback(idx);
                    }
                    self.exec_log.set_consumed(idx);
                    return true;
                }
                xs.committed_spec_steps += 1;
            }
            step => {
                // Resolve a slot reference through the run's (immutable
                // for this step) transaction table.
                let tx = match step {
                    SpecStep::Access { tx, .. } => match tx {
                        TxRef::None => None,
                        TxRef::Live(t) => Some(t),
                        TxRef::Slot(s) => Some(
                            pending[idx].as_ref().expect("pending run").txs[s]
                                .expect("slot bound by its Begin boundary"),
                        ),
                    },
                    _ => None,
                };
                self.apply_spec_step(idx, step, tx, skew);
                xs.committed_spec_steps += 1;
            }
        }
        if done {
            pending[idx] = None;
            self.exec_log.set_consumed(idx);
        }
        true
    }

    /// Consumes a transaction boundary: the op executes **live** at its
    /// canonical point (allocating the `TxId`, running the real backend
    /// begin/commit), then the prediction the rest of the run was built on
    /// is checked and `Begin` slots are bound. On an exact-schedule run the
    /// prediction is provably right (debug-asserted); after a replay the
    /// live boundary may land off the predicted latency — the divergence
    /// folds into the run's skew — or fail to advance at all, in which
    /// case the tail is invalid and `false` is returned so the caller
    /// discards it.
    fn consume_boundary(
        &mut self,
        idx: usize,
        at: Cycle,
        kind: BoundaryKind,
        cost: Cycle,
        pending: &mut [Option<SpecRun>],
        xs: &mut ExecStats,
    ) -> bool {
        let (replayed, skew) = {
            let run = pending[idx].as_ref().expect("pending run");
            (run.replayed, run.skew)
        };
        debug_assert_eq!(
            self.cores[idx].ready_at,
            at.wrapping_add_signed(skew),
            "boundary off schedule"
        );
        let predicted = self.cores[idx].ready_at + cost;
        let pc_before = self.cores[idx].prog.pc();
        self.step(idx);
        if self.cores[idx].prog.pc() != pc_before + 1 {
            debug_assert!(replayed, "exact-schedule boundary did not advance");
            xs.replay_mispredicts += 1;
            return false;
        }
        if let BoundaryKind::Commit = kind {
            xs.spec_tx_commits += 1;
        }
        if let BoundaryKind::Begin { slot } = kind {
            let tx = self.tx_context(idx).expect("begin bound a transaction");
            let run = pending[idx].as_mut().expect("pending run");
            run.txs[slot] = Some(tx);
        }
        let actual = self.cores[idx].ready_at;
        if actual != predicted {
            debug_assert!(
                replayed,
                "exact-schedule boundary cost diverged (kind {kind:?})"
            );
            xs.replay_skews += 1;
            let run = pending[idx].as_mut().expect("pending run");
            run.skew += actual as i64 - predicted as i64;
        }
        let _ = replayed;
        true
    }

    /// Applies a validated speculative step: the exact effects the live
    /// silent-hit path would have produced, minus the lookups. `tx` is the
    /// step's transaction context with any [`TxRef::Slot`] already resolved
    /// to the `TxId` its canonical `Begin` allocated.
    fn apply_spec_step(&mut self, idx: usize, step: SpecStep, tx: Option<TxId>, skew: i64) {
        let now = self.cores[idx].ready_at;
        debug_assert_eq!(
            step.at().wrapping_add_signed(skew),
            now,
            "consume off the speculated schedule"
        );
        let _ = skew;
        match step {
            SpecStep::Compute { cost, .. } => {
                debug_assert!(matches!(
                    self.cores[idx].prog.current(),
                    Some(Op::Compute(_))
                ));
                self.cores[idx].prog.advance();
                self.cores[idx].ready_at = now + cost;
            }
            SpecStep::Boundary { .. } => unreachable!("boundaries consume via consume_boundary"),
            SpecStep::Replay { .. } => unreachable!("replays execute live in try_consume"),
            SpecStep::Access {
                va,
                pa,
                kind,
                old,
                write,
                latency,
                ..
            } => {
                #[cfg(debug_assertions)]
                self.debug_validate_access(idx, va, pa, kind, tx, old, write.is_some());
                let block = pa.block();
                let word = pa.word_in_block();
                let pid = self.cores[idx].prog.pid();
                let is_write = write.is_some();

                // Timing-model effects of the silent hit.
                self.stats.tlb_hits += 1;
                self.caches[idx].l2_stats_mut().hits += 1;
                let mut line = self.caches[idx].touch_mut(block).expect("speculated hit");
                if is_write {
                    line.set_state(Moesi::Modified);
                }
                if let Some(tx) = tx {
                    line.tag(tx).record_access(word, kind == AccessKind::Write);
                }

                // Functional effects.
                self.cores[idx].checksum = self.cores[idx]
                    .checksum
                    .rotate_left(1)
                    .wrapping_add(u64::from(old));
                if let Some((value, target)) = write {
                    match target {
                        WriteTarget::TxBuffer { snapshot } => {
                            let tx = tx.expect("buffered write is transactional");
                            debug_assert_eq!(self.spec.has(tx, block), snapshot.is_none());
                            self.spec.write_word(tx, block, word, value, || {
                                *snapshot.expect("speculated snapshot")
                            });
                            // Buffered writes stay invisible until commit —
                            // no multi-version publication; the commit seam
                            // publishes the drained words instead.
                        }
                        WriteTarget::TxLog => {
                            let tx = tx.expect("logged write is transactional");
                            let old_word = self.mem.read_word(pa);
                            let Backend::LogTm(l) = &mut self.backend else {
                                unreachable!("TxLog target outside LogTM")
                            };
                            l.log_write(tx, pa, old_word);
                            self.mem.write_word(pa, value);
                            // Eager versioning writes memory in place:
                            // immediately visible, so publish the version.
                            self.exec_log.note_write(block, word, idx, value);
                        }
                        WriteTarget::Mem { primary, mirror } => {
                            self.mem.write_word(primary, value);
                            if let Some(m) = mirror {
                                self.mem.write_word(m, value);
                            }
                            self.exec_log.note_write(block, word, idx, value);
                        }
                    }
                    self.note_page_touch(idx, pid, va.vpn(), tx.is_some());
                } else {
                    self.note_page_touch(idx, pid, va.vpn(), false);
                }
                self.stats.mem_ops += 1;
                self.cores[idx].prog.advance();
                self.cores[idx].ready_at = now + latency.max(1);
            }
        }
    }

    /// Post-replay re-verification of a speculated silent hit against the
    /// *current* cache state, in all build profiles. Before a run's first
    /// replay every prediction is provably exact (frozen state, own-effect
    /// overlay, poison rules); a replayed fill's real victim cascade and
    /// supplied MOESI state, however, are only predicted, so every later
    /// `Access` of that run re-checks the gates the live fast path would
    /// take. A mismatch discards the run's tail — speculation yield lost,
    /// never correctness.
    fn verify_spec_access(
        &self,
        idx: usize,
        pa: PhysAddr,
        kind: AccessKind,
        tx: Option<TxId>,
        latency: Cycle,
        is_write: bool,
    ) -> bool {
        let block = pa.block();
        let Some(line) = self.caches[idx].line(block) else {
            return false;
        };
        let meta_ok = match tx {
            Some(t) => line.tx_meta().is_none_or(|m| m.tx == t),
            None => line.tx_meta().is_none(),
        };
        if !meta_ok || (is_write && !line.state().allows_silent_write()) {
            return false;
        }
        if self.hit_needs_overflow_check(idx, block, pa.word_in_block(), kind, tx) {
            return false;
        }
        match self.caches[idx].probe(block) {
            ProbeResult::Hit(h) => self.caches[idx].hit_latency(h) == latency,
            ProbeResult::Miss => false,
        }
    }

    /// Debug-build revalidation: re-runs every gate of the live silent-hit
    /// path against the *current* state. A failure here means a poison rule
    /// is missing — the safety net that turns such a gap into a loud test
    /// failure instead of silently skewed results.
    #[cfg(debug_assertions)]
    #[allow(clippy::too_many_arguments)]
    fn debug_validate_access(
        &self,
        idx: usize,
        va: VirtAddr,
        pa: PhysAddr,
        kind: AccessKind,
        tx: Option<TxId>,
        old: u32,
        is_write: bool,
    ) {
        let pid = self.cores[idx].prog.pid();
        let op = self.cores[idx].prog.current();
        assert_eq!(
            op.and_then(|o| o.addr()),
            Some(va),
            "speculated op diverged from the program"
        );
        assert_eq!(op.map(|o| o.is_write()), Some(is_write));
        assert_eq!(self.tx_context(idx), tx, "tx context changed unpoisoned");
        assert_eq!(
            self.tlb_lookup(idx, pid, va.vpn()),
            Some(pa.frame()),
            "translation changed unpoisoned"
        );
        let block = pa.block();
        let line = self.caches[idx].line(block).expect("line left the cache");
        assert!(
            line.tx_meta().is_none_or(|m| Some(m.tx) == tx),
            "foreign transactional metadata appeared"
        );
        if is_write {
            assert!(
                line.state().allows_silent_write(),
                "write lost silent-write rights"
            );
        }
        assert!(
            !self.hit_needs_overflow_check(idx, block, pa.word_in_block(), kind, tx),
            "overflow check became necessary"
        );
        assert_eq!(
            old,
            self.read_word_functional(tx, pid, va, pa),
            "speculated value diverged from the coherent view"
        );
    }

    /// Phase A: produce speculative runs for every eligible core. Each
    /// eligible core is one Block-STM transaction; `threads` host workers
    /// share the frozen machine and pull [`Task`]s from the [`Scheduler`]
    /// until its DONE marker latches.
    ///
    /// Speculation against the frozen snapshot is side-effect-free, so
    /// phase A itself never aborts an incarnation: the scheduler's
    /// validation tasks all pass and its role here is work dispensing and
    /// completion detection. The *real* validation — the one that aborts
    /// and re-incarnates — is phase B's canonical-order consume against the
    /// multi-version map (see DESIGN.md decision 21 for why this mapping
    /// preserves bit-identity).
    fn speculate(&self, window_end: Cycle, threads: usize, xs: &mut ExecStats) -> Vec<SpecRun> {
        let eligible: Vec<usize> = (0..self.cores.len())
            .filter(|&i| !self.cores[i].prog.is_finished() && self.cores[i].ready_at < window_end)
            .collect();
        if eligible.is_empty() {
            return Vec::new();
        }
        let workers = threads.min(eligible.len());
        let sched = Scheduler::new(eligible.len());
        let slots: Vec<Mutex<Option<SpecRun>>> =
            (0..eligible.len()).map(|_| Mutex::new(None)).collect();

        let drive = |sched: &Scheduler| {
            let mut task = sched.next_task();
            loop {
                task = match task {
                    Task::Execution(v) => {
                        let slot = v.tx_index as usize;
                        let run = self.speculate_core(eligible[slot], window_end);
                        *slots[slot].lock().expect("run slot") = Some(run);
                        sched.finish_execution(v, false)
                    }
                    Task::Validation(v) => sched.finish_validation(v, false),
                    Task::Retry => {
                        std::hint::spin_loop();
                        sched.next_task()
                    }
                    Task::Done => break,
                };
            }
        };

        if workers <= 1 {
            drive(&sched);
        } else {
            // &self is shared across the scope: speculation never mutates.
            std::thread::scope(|s| {
                let drive = &drive;
                let sched = &sched;
                for _ in 0..workers {
                    s.spawn(move || drive(sched));
                }
            });
        }

        xs.validation_waves += sched.validation_waves() as u64;
        let runs: Vec<SpecRun> = slots
            .into_iter()
            .filter_map(|m| m.into_inner().expect("run slot"))
            .collect();
        for run in &runs {
            for (a, b) in xs.refusals.iter_mut().zip(run.refusals) {
                *a += b;
            }
        }
        xs.spec_txs += runs
            .iter()
            .flat_map(|r| &r.steps)
            .filter(|s| {
                matches!(
                    s,
                    SpecStep::Boundary {
                        kind: BoundaryKind::Commit,
                        ..
                    }
                )
            })
            .count() as u64;
        runs
    }

    /// Runs core `idx` ahead through `[ready_at, window_end)` against the
    /// frozen machine, stopping at the first step whose outcome is not
    /// locally decidable. The walk speculates *through* transaction
    /// boundaries whose cost is provably constant (see [`BoundaryKind`]),
    /// tracking nesting depth and the transaction context each access runs
    /// under as [`TxRef`]s.
    fn speculate_core(&self, idx: usize, window_end: Cycle) -> SpecRun {
        let core = &self.cores[idx];
        let pid = core.prog.pid();
        // A rewound retry (aborted transaction back at its Begin) reuses
        // its old TxId and replays attempt accounting: live only.
        let frozen_retry = core.prog.cur_tx().is_some() && core.prog.nest() == 0;
        // Word-granularity modes poison every commit/abort (precomputed
        // mirror pointers go stale), and migration rebinds transaction
        // ownership mid-flight: no boundary speculation there.
        let boundaries_ok = self.kind.is_transactional()
            && !self.kind.granularity().word_in_cache()
            && !self.cfg.kernel.migrate_on_cs;
        let mut nest = core.prog.nest();
        let mut tx_ctx = if nest > 0 {
            TxRef::Live(core.prog.cur_tx().expect("nested implies a tx"))
        } else {
            TxRef::None
        };
        let mut now = core.ready_at;
        let mut pc = core.prog.pc();
        let mut steps = Vec::new();
        let mut txs: Vec<Option<TxId>> = Vec::new();
        let mut ov = RunOverlay::default();

        // Injection timers fire live; stop short of either.
        while now < window_end && now < core.next_cs && now < core.next_exc {
            let Some(op) = core.prog.op_at(pc) else { break };
            let step = match op {
                Op::Compute(c) => Some(SpecStep::Compute {
                    at: now,
                    cost: Cycle::from(c.max(1)),
                }),
                Op::Read(va) => self.speculate_access(idx, pid, tx_ctx, now, va, None, &mut ov),
                Op::Write(va, v) => {
                    self.speculate_access(idx, pid, tx_ctx, now, va, Some(Ok(v)), &mut ov)
                }
                Op::Rmw(va, d) => {
                    self.speculate_access(idx, pid, tx_ctx, now, va, Some(Err(d)), &mut ov)
                }
                Op::Begin { ordered, .. } => match self.kind {
                    // Serial begin: advance + 1 cycle, no shared state.
                    SystemKind::Serial => Some(SpecStep::Boundary {
                        at: now,
                        kind: BoundaryKind::Trivial,
                        cost: 1,
                    }),
                    // Lock acquisition is a contended RMW: live only.
                    SystemKind::Locks => ov.refuse(Refusal::Boundary),
                    _ if nest > 0 => {
                        // Flattened nesting: depth bump + 1 cycle.
                        nest += 1;
                        Some(SpecStep::Boundary {
                            at: now,
                            kind: BoundaryKind::Trivial,
                            cost: 1,
                        })
                    }
                    // Ordered transactions gate their End (it can stall);
                    // retries replay abort accounting: both live only.
                    _ if !boundaries_ok || ordered.is_some() || frozen_retry => {
                        ov.refuse(Refusal::Boundary)
                    }
                    _ => {
                        let slot = txs.len();
                        txs.push(None);
                        nest = 1;
                        tx_ctx = TxRef::Slot(slot);
                        // Speculative buffers are per-transaction: the new
                        // transaction starts with none.
                        ov.buffered.clear();
                        Some(SpecStep::Boundary {
                            at: now,
                            kind: BoundaryKind::Begin { slot },
                            cost: self.cfg.begin_cost,
                        })
                    }
                },
                Op::End => match self.kind {
                    SystemKind::Serial => Some(SpecStep::Boundary {
                        at: now,
                        kind: BoundaryKind::Trivial,
                        cost: 1,
                    }),
                    SystemKind::Locks => ov.refuse(Refusal::Boundary),
                    _ if nest > 1 => {
                        nest -= 1;
                        Some(SpecStep::Boundary {
                            at: now,
                            kind: BoundaryKind::Trivial,
                            cost: 1,
                        })
                    }
                    // Outermost end: an unordered commit never stalls and
                    // costs exactly commit_cost. `cur_ordered` is the frozen
                    // live transaction's flag; slot transactions are
                    // unordered by construction (ordered Begins refused).
                    _ if !boundaries_ok
                        || (matches!(tx_ctx, TxRef::Live(_)) && core.cur_ordered.is_some()) =>
                    {
                        ov.refuse(Refusal::Boundary)
                    }
                    _ if nest == 1 => {
                        nest = 0;
                        let was_live = matches!(tx_ctx, TxRef::Live(_));
                        // The live commit clears transactional tags on the
                        // committed transaction's lines (`commit_tx_lines`);
                        // mirror it on the run's own replay-filled blocks.
                        for fctx in ov.filled.values_mut() {
                            if *fctx == tx_ctx {
                                *fctx = TxRef::None;
                            }
                        }
                        tx_ctx = TxRef::None;
                        ov.buffered.clear();
                        let commit = SpecStep::Boundary {
                            at: now,
                            kind: BoundaryKind::Commit,
                            cost: self.cfg.commit_cost,
                        };
                        if was_live {
                            // A frozen-live transaction may hold buffered
                            // writes from *before* this window; the frozen
                            // committed view goes stale the moment they
                            // drain. End the run at the commit.
                            steps.push(commit);
                            break;
                        }
                        Some(commit)
                    }
                    // Unmatched End: let the live path handle it.
                    _ => ov.refuse(Refusal::Boundary),
                },
                // Barriers block on every other thread: live only.
                Op::Barrier(_) => ov.refuse(Refusal::Boundary),
            };
            let Some(step) = step else { break };
            now += match &step {
                SpecStep::Compute { cost, .. }
                | SpecStep::Boundary { cost, .. }
                | SpecStep::Replay { cost, .. } => (*cost).max(1),
                SpecStep::Access { latency, .. } => (*latency).max(1),
            };
            pc += 1;
            steps.push(step);
        }
        steps.reverse(); // consume pops from the back
        SpecRun {
            core: idx,
            steps,
            txs,
            refusals: ov.refusals,
            replayed: false,
            skew: 0,
        }
    }

    /// Speculates one memory access, or returns `None` where the live path
    /// could leave the silent-hit fast path. `write` is `Ok(const)` for
    /// stores, `Err(delta)` for read-modify-writes.
    #[allow(clippy::too_many_arguments)]
    fn speculate_access(
        &self,
        idx: usize,
        pid: ProcessId,
        tx: TxRef,
        now: Cycle,
        va: VirtAddr,
        write: Option<Result<u32, i32>>,
        ov: &mut RunOverlay,
    ) -> Option<SpecStep> {
        let kind = if write.is_some() {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        // Core-TLB hit required: a miss goes through the kernel (faults,
        // allocation, swap) and can mutate global state.
        let Some(frame) = self.tlb_lookup(idx, pid, va.vpn()) else {
            return ov.refuse(Refusal::Tlb);
        };
        let pa = PhysAddr::from_frame(frame, va.page_offset());
        let block = pa.block();
        let word = pa.word_in_block();

        // Transactional accesses under migration or word-granularity
        // tracking leave the fast path in too many places (overflow checks
        // on hits, contested-block marking, mirror maintenance): live only.
        if !matches!(tx, TxRef::None)
            && (self.cfg.kernel.migrate_on_cs || self.kind.granularity().word_in_cache())
        {
            return ov.refuse(Refusal::TxMode);
        }

        // Presence and line identity: the frozen hierarchy, or a block this
        // run's own replayed miss already fills. A genuinely absent block
        // becomes a *replay* — the miss executes live at its canonical
        // point, with a latency predicted from the frozen bus, and the run
        // keeps speculating behind it — unless overflow structures are live
        // (the fetch would take the conflict walk, whose stalls and VTS/XADT
        // traffic defeat any latency prediction).
        let cached = match self.caches[idx].line(block) {
            // Any metadata owned by a different transaction (or any
            // metadata at all for a non-transactional access or a
            // transaction whose TxId is not allocated yet) diverts the live
            // path into conflict resolution and displacement — even dead
            // metadata is displaced there.
            Some(line) => {
                let meta_ok = match tx {
                    TxRef::Live(t) => line.tx_meta().is_none_or(|m| m.tx == t),
                    TxRef::None | TxRef::Slot(_) => line.tx_meta().is_none(),
                };
                Some((line.state(), meta_ok))
            }
            None => ov.filled.get(&block).map(|&fctx| {
                let state = ov
                    .moesi
                    .get(&block)
                    .copied()
                    .expect("filled blocks carry a predicted state");
                (state, matches!(fctx, TxRef::None) || fctx == tx)
            }),
        };
        let Some((frozen_state, meta_ok)) = cached else {
            if self.backend.has_overflows() {
                return ov.refuse(Refusal::CacheMiss);
            }
            return self.speculate_replay(idx, pid, tx, now, va, pa, write, None, ov);
        };
        if !meta_ok {
            return ov.refuse(Refusal::Meta);
        }
        let state = ov.moesi.get(&block).copied().unwrap_or(frozen_state);
        if kind == AccessKind::Write && !state.allows_silent_write() {
            // A real coherence transaction (ownership upgrade): replay it
            // live when its latency is predictable, like a miss.
            if self.backend.has_overflows() {
                return ov.refuse(Refusal::Upgrade);
            }
            let hit = if ov.l1_contains(self, idx, block) {
                Hit::L1
            } else {
                Hit::L2
            };
            let hit_latency = self.caches[idx].hit_latency(hit);
            return self.speculate_replay(idx, pid, tx, now, va, pa, write, Some(hit_latency), ov);
        }

        // Functional read: this run's earlier writes first, then the frozen
        // coherent view (validation guarantees it is still current at
        // consume time). A slot transaction has no history, so its view is
        // the committed one.
        let read_ctx = match tx {
            TxRef::Live(t) => Some(t),
            TxRef::None | TxRef::Slot(_) => None,
        };
        let old = ov
            .data
            .get(&(block, word))
            .copied()
            .unwrap_or_else(|| self.read_word_functional(read_ctx, pid, va, pa));

        let hit = if ov.l1_contains(self, idx, block) {
            Hit::L1
        } else {
            Hit::L2
        };
        let latency = self.caches[idx].hit_latency(hit);

        let write = match write {
            None => None,
            Some(wv) => {
                let value = match wv {
                    Ok(v) => v,
                    Err(d) => old.wrapping_add(d as u32),
                };
                let target = match (tx, &self.backend) {
                    (TxRef::Live(_) | TxRef::Slot(_), Backend::LogTm(_)) => WriteTarget::TxLog,
                    (TxRef::Live(t), _) => {
                        let fresh = !self.spec.has(t, block) && !ov.buffered.contains(&block);
                        let snapshot = fresh.then(|| {
                            let mut snap = Box::new(self.tx_block_snapshot(t, pid, va, block));
                            patch_snapshot(&mut snap, ov, block);
                            snap
                        });
                        if fresh {
                            ov.buffered.insert(block);
                        }
                        WriteTarget::TxBuffer { snapshot }
                    }
                    (TxRef::Slot(_), _) => {
                        let fresh = !ov.buffered.contains(&block);
                        let snapshot = fresh.then(|| {
                            let mut snap = Box::new(self.committed_block_snapshot(block));
                            patch_snapshot(&mut snap, ov, block);
                            snap
                        });
                        if fresh {
                            ov.buffered.insert(block);
                        }
                        WriteTarget::TxBuffer { snapshot }
                    }
                    (TxRef::None, Backend::Ptm(p)) => WriteTarget::Mem {
                        primary: PhysAddr::from_frame(p.committed_frame(block), pa.page_offset()),
                        mirror: p
                            .mirror_location(block, None)
                            .map(|m| PhysAddr::from_frame(m.frame(), pa.page_offset())),
                    },
                    (TxRef::None, _) => WriteTarget::Mem {
                        primary: pa,
                        mirror: None,
                    },
                };
                ov.data.insert((block, word), value);
                ov.moesi.insert(block, Moesi::Modified);
                Some((value, target))
            }
        };

        // The consume's `touch_mut` refills L1; replay it for later probes.
        ov.l1_insert(self, idx, block);

        Some(SpecStep::Access {
            at: now,
            va,
            pa,
            kind,
            tx,
            old,
            write,
            latency,
        })
    }

    /// Emits a [`SpecStep::Replay`] for a cache miss (`upgrade == None`) or
    /// an ownership upgrade (`upgrade == Some(hit_latency)`): the step will
    /// execute through the full live path at its canonical point, so
    /// nothing here affects correctness. What *is* predicted — latency from
    /// the frozen bus, post-fill MOESI state, the functional value — only
    /// schedules the rest of the run; the consume discards the tail on any
    /// divergence.
    #[allow(clippy::too_many_arguments)]
    fn speculate_replay(
        &self,
        idx: usize,
        pid: ProcessId,
        tx: TxRef,
        now: Cycle,
        va: VirtAddr,
        pa: PhysAddr,
        write: Option<Result<u32, i32>>,
        upgrade: Option<Cycle>,
        ov: &mut RunOverlay,
    ) -> Option<SpecStep> {
        let block = pa.block();
        let word = pa.word_in_block();
        let is_write = write.is_some();

        // Timing: mirror `miss_conflicts_and_supply` step (f) against the
        // frozen bus — a snoop round, chained into the memory pipeline when
        // no remote cache can supply the block (upgrades never fetch data).
        let remote_holder =
            (0..self.caches.len()).any(|c| c != idx && self.caches[c].line(block).is_some());
        let cost = match upgrade {
            Some(hit_latency) => {
                hit_latency + (self.bus.peek_miss_fill(now, false).saturating_sub(now))
            }
            None => self
                .bus
                .peek_miss_fill(now, !remote_holder)
                .saturating_sub(now),
        }
        .max(1);

        // Post-state: mirror `supply` — writes take Modified (remote copies
        // invalidated), reads take Exclusive only while no other copy
        // exists.
        let new_state = if is_write {
            Moesi::Modified
        } else if remote_holder {
            Moesi::Shared
        } else {
            Moesi::Exclusive
        };

        // Functional prediction, same as a hit: the run's own effects over
        // the frozen coherent view (a fill does not change word values).
        let read_ctx = match tx {
            TxRef::Live(t) => Some(t),
            TxRef::None | TxRef::Slot(_) => None,
        };
        let old = ov
            .data
            .get(&(block, word))
            .copied()
            .unwrap_or_else(|| self.read_word_functional(read_ctx, pid, va, pa));
        if let Some(wv) = write {
            let value = match wv {
                Ok(v) => v,
                Err(d) => old.wrapping_add(d as u32),
            };
            ov.data.insert((block, word), value);
            // The live replay itself creates the transaction's speculative
            // buffer for this block; later speculated writes must not
            // precompute another snapshot.
            if !matches!(
                (tx, &self.backend),
                (TxRef::None, _) | (_, Backend::LogTm(_))
            ) {
                ov.buffered.insert(block);
            }
        }
        ov.moesi.insert(block, new_state);
        if upgrade.is_none() {
            ov.filled.insert(block, tx);
        }
        ov.l1_insert(self, idx, block);

        Some(SpecStep::Replay { at: now, cost })
    }
}

/// Overwrites `snap` with the words this run already wrote to `block`: a
/// precomputed fresh-buffer snapshot must reflect the run's own earlier
/// effects, not just the frozen view.
fn patch_snapshot(snap: &mut [u8; BLOCK_SIZE], ov: &RunOverlay, block: PhysBlock) {
    for (&(b, w), &v) in &ov.data {
        if b == block {
            let off = w.0 as usize * WORD_SIZE;
            snap[off..off + WORD_SIZE].copy_from_slice(&v.to_le_bytes());
        }
    }
}
