//! Crash-stop injection and the durable crash image.
//!
//! A [`CrashPlan`] halts a [`Machine`] at an arbitrary scheduler-step
//! boundary, the way a hostile power cut would: nothing gets to flush,
//! nothing gets to finish — not even a fault storm in progress.
//! [`Machine::run_until_crash`] captures a [`CrashImage`]: exactly the state
//! the durable substrates would hold at that instant:
//!
//! * physical memory and the swap device (functional data is write-through,
//!   so no cache flush is owed — caches and TLBs are timing-only);
//! * the OS page tables (inside the cloned [`Kernel`]);
//! * the backend's transactional metadata: PTM's SPT/SIT/TAV/T-State
//!   tables, VTM's XADT, LogTM's undo logs.
//!
//! Speculative buffers, VTS caches and other cache-like state are volatile
//! and simply absent from the image. The optional *torn* mode additionally
//! truncates the youngest in-flight transaction's last TAV publish (see
//! [`ptm_core::recovery`]) — the model's only multi-word metadata update
//! that can be caught halfway.
//!
//! [`CrashImage::recover`] runs the per-backend recovery pass and
//! [`CrashImage::assert_matches_reference`] checks the recovered committed
//! memory word-for-word against the committed-prefix oracle
//! ([`crate::reference::crash_reference`]).

use crate::backend::{Backend, SystemKind};
use crate::faults::FaultPlan;
use crate::kernel::Kernel;
use crate::machine::Machine;
use crate::program::ThreadProgram;
use crate::reference::{crash_reference, Mismatch};
use crate::stats::CommittedTx;
use ptm_core::durability::{
    decode_undo_payload, decode_word_undo_payload, undo_payload_checksum, DurStats, LogRecord,
    LogRecordKind,
};
use ptm_core::recovery::{self, RecoveryStats};
use ptm_mem::{LogImage, PhysicalMemory};
use ptm_types::rng::{Fnv1a64, SplitMix64};
use ptm_types::{
    FastMap, FastSet, Granularity, ProcessId, ThreadId, TxId, VirtAddr, BLOCK_SIZE, WORD_SIZE,
};
use std::collections::{HashMap, HashSet};

/// Where (and how) to crash a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// The scheduler step *before* which the machine halts: step `0` crashes
    /// before any work, a step past the end of the run crashes a finished
    /// machine.
    pub step: u64,
    /// Whether to additionally tear the youngest in-flight TAV publish in
    /// the captured image (PTM backends only; a no-op when nothing is
    /// in flight).
    pub torn: bool,
}

impl CrashPlan {
    /// A clean crash-stop at `step`.
    pub fn at_step(step: u64) -> Self {
        CrashPlan { step, torn: false }
    }

    /// A crash-stop at `step` with the torn-metadata mode on.
    pub fn torn_at_step(step: u64) -> Self {
        CrashPlan { step, torn: true }
    }

    /// Derives a plan from a seed: a step in `0..=max_step` and a coin flip
    /// for the torn mode, both from the shared SplitMix64 stream.
    pub fn from_seed(seed: u64, max_step: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        CrashPlan {
            step: rng.next_u64() % (max_step + 1),
            torn: rng.next_u64() & 1 == 1,
        }
    }

    /// FNV-1a digest of the plan, recorded in bench reports so a sweep is
    /// reproducible from its JSON alone.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a64::new();
        h.write_u64(self.step);
        h.write_u64(u64::from(self.torn));
        h.finish()
    }
}

/// The durable state a crash-stop leaves behind. See the module docs for
/// what is captured and why.
#[derive(Debug, Clone)]
pub struct CrashImage {
    /// The system that was running.
    pub kind: SystemKind,
    /// The step actually reached (equals the plan's step unless the run
    /// finished first).
    pub step: u64,
    /// Whether the run completed before the crash point.
    pub finished: bool,
    /// The transaction whose TAV publish was torn, if the plan asked for it
    /// and a live overflowed transaction existed.
    pub torn: Option<TxId>,
    /// Commit order up to the crash (durable: commits are atomic steps).
    pub commit_log: Vec<CommittedTx>,
    /// Per-thread durability watermark: the first pc whose effects were not
    /// durable at the crash.
    pub watermarks: HashMap<ThreadId, usize>,
    /// Physical memory as the crash left it.
    pub mem: PhysicalMemory,
    /// OS state: page tables and the swap device.
    pub kernel: Kernel,
    /// The backend's durable metadata.
    pub backend: Backend,
    /// The write-behind log device's media image, when the machine ran
    /// with a durable log attached. In-flight appends have been resolved
    /// to their crash fates (durable / torn / lost).
    pub log: Option<LogImage>,
    /// Caller-side durability counters at the crash. Harness bookkeeping
    /// like `watermarks`, not recovery input.
    pub dur: Option<DurStats>,
    /// Transactions that committed via the read-only fast path and so
    /// wrote no commit record by design. Harness bookkeeping: lets log
    /// reconciliation tell a fast-path commit from a lost record.
    pub ro_commits: FastSet<TxId>,
    /// Checksums of each transaction's *current* undo payloads (logged by
    /// its latest incarnation — an abort voids the earlier ones). Harness
    /// bookkeeping: lets undo replay skip stale pre-images from aborted
    /// incarnations instead of miscounting them as corruption.
    pub undo_sums: FastMap<TxId, Vec<u64>>,
}

impl Machine {
    /// Runs under `faults` until the plan's crash step (or completion) and
    /// captures the durable [`CrashImage`]. Fault pressure (hostage frames,
    /// the TAV cap) is not durable state and is released first. The machine
    /// is left at the crash point and should be discarded.
    ///
    /// # Panics
    ///
    /// Panics if the machine stops making progress before the crash step (a
    /// simulator bug, not a workload property).
    pub fn run_until_crash(&mut self, plan: &CrashPlan, faults: &FaultPlan) -> CrashImage {
        let step = self.drive(faults, plan.step);
        let finished = self.cores.iter().all(|c| c.prog.is_finished());

        let transactional = self.kind.is_transactional();
        let watermarks = self
            .cores
            .iter()
            .map(|c| {
                let wm = if transactional {
                    c.prog.tx_begin_pc().unwrap_or(c.prog.pc())
                } else {
                    // Locks and serial execution have no rollback: every
                    // executed operation is already durable.
                    c.prog.pc()
                };
                (c.prog.thread(), wm)
            })
            .collect();

        // Only the durable subset may survive into the image: the clones
        // drop caches, TLBs and deferred-cleanup queues, and the asserts
        // keep that contract honest if new volatile state grows later.
        let mut backend = self.backend.durable_clone();
        if let Backend::Ptm(p) = &backend {
            assert!(
                p.volatile_state_is_empty(),
                "durable PTM clone leaked volatile VTS state into the crash image"
            );
        }
        let kernel = self.kernel.durable_clone();
        assert!(
            kernel.volatile_state_is_empty(),
            "durable kernel clone leaked volatile TLB state into the crash image"
        );
        let torn = if plan.torn {
            match &mut backend {
                Backend::Ptm(p) => recovery::tear_youngest_tav_tail(p),
                _ => None,
            }
        } else {
            None
        };
        if self.durable.is_some() {
            if let Backend::LogTm(l) = &mut backend {
                // With a unified durable log attached, LogTM's software
                // undo log is ordinary DRAM and does not survive the
                // crash; recovery replays the device's forced word-undo
                // records instead. (The T-State table stays: transaction
                // status is write-through metadata, as for PTM.)
                l.drop_logs();
            }
        }

        let (log, dur, ro_commits, undo_sums) = match &self.durable {
            Some(d) => (
                Some(d.crash_image(self.stats.cycles)),
                Some(*d.stats()),
                d.ro_committed().clone(),
                d.undo_checksums().clone(),
            ),
            None => (None, None, FastSet::default(), FastMap::default()),
        };

        CrashImage {
            kind: self.kind,
            step,
            finished,
            torn,
            commit_log: self.stats.commit_log.clone(),
            watermarks,
            mem: self.mem.clone(),
            kernel,
            backend,
            log,
            dur,
            ro_commits,
            undo_sums,
        }
    }
}

impl CrashImage {
    /// Recovers the image in place: scans the durable log (when one was
    /// captured), truncating its torn tail; runs the backend's recovery
    /// pass, discarding every transaction that was live at the crash — for
    /// durable LogTM machines that pass *replays the log's word-undo
    /// records*, the single unified log standing in for the volatile
    /// software undo logs; and finally reconciles the log records against
    /// the commit log and the recovered memory. Idempotent: a second call
    /// reports [`RecoveryStats::is_noop`] (the first pass repaired the log
    /// image, and no transaction is live anymore).
    ///
    /// For LogTM, `blocks_restored` counts undo words rolled back; VTM
    /// discards speculative XADT blocks without restoring anything, so it
    /// reports only `transactions_discarded`.
    pub fn recover(&mut self) -> RecoveryStats {
        // Capture the live set before the backend pass discards it: log
        // reconciliation and the unified word-undo replay below apply
        // exactly to transactions that were still live at the crash.
        let live: Vec<TxId> = match &self.backend {
            Backend::Ptm(p) => p.tstate().live_transactions(),
            Backend::LogTm(l) => l.tstate().live_transactions(),
            _ => Vec::new(),
        };
        // Scan and truncate the device log up front: LogTM's unified
        // recovery consumes its word-undo records in place of the volatile
        // software log the crash destroyed.
        let mut stats = RecoveryStats::default();
        let records = match &mut self.log {
            Some(img) => recovery::recover_log(img, &mut stats),
            None => Vec::new(),
        };
        let backend_pass = match &mut self.backend {
            Backend::Ptm(p) => recovery::recover(p, &mut self.mem, &mut self.kernel.swap),
            Backend::Vtm(v) => {
                let (discarded, _released) = v.recover();
                RecoveryStats {
                    transactions_discarded: discarded,
                    ..Default::default()
                }
            }
            Backend::LogTm(l) if self.log.is_some() => {
                // Unified durable log: one reverse replay of the forced
                // word-undo records does exactly what the lost software
                // undo logs would have.
                let restored = replay_word_undo(&records, &live, &mut self.mem);
                RecoveryStats {
                    transactions_discarded: l.discard_live(),
                    blocks_restored: restored,
                    ..Default::default()
                }
            }
            Backend::LogTm(l) => {
                let (discarded, restored) = l.recover(&mut self.mem);
                RecoveryStats {
                    transactions_discarded: discarded,
                    blocks_restored: restored,
                    ..Default::default()
                }
            }
            Backend::Serial | Backend::Locks(_) => RecoveryStats::default(),
        };
        stats.transactions_discarded += backend_pass.transactions_discarded;
        stats.blocks_restored += backend_pass.blocks_restored;
        stats.torn_nodes_repaired += backend_pass.torn_nodes_repaired;
        stats.shadow_pages_freed += backend_pass.shadow_pages_freed;
        stats.tav_nodes_freed += backend_pass.tav_nodes_freed;
        if self.log.is_some() {
            self.reconcile_log(&records, &live, &mut stats);
        }
        stats
    }

    /// Reconciles the log's valid records against the machine's durable
    /// commit log and the recovered committed memory.
    ///
    /// * a durable commit record for a transaction the machine never
    ///   committed is a *phantom* (corruption — must be zero);
    /// * a writing commit whose record did not survive counts as
    ///   *missing* — zero under eager forcing, a legitimate trade under
    ///   lazy/group (read-only fast-path commits are exempt: they wrote no
    ///   record by design);
    /// * each live-at-crash transaction's *current* undo payload must
    ///   match the recovered committed memory word for word — block
    ///   granularity only, since word granularities admit co-writers whose
    ///   commits legitimately change other words of an undo-logged block.
    ///   "Current" is decided by checksum against the image's `undo_sums`:
    ///   an aborted incarnation's pre-image can be stale (the same `TxId`
    ///   retries, and other transactions may commit in between), so those
    ///   records count as `log_undo_stale`, not corruption.
    fn reconcile_log(&self, records: &[LogRecord], live: &[TxId], stats: &mut RecoveryStats) {
        let committed: HashSet<TxId> = self.commit_log.iter().map(|c| c.tx).collect();
        let logged: HashSet<TxId> = records
            .iter()
            .filter(|r| r.kind == LogRecordKind::Commit)
            .map(|r| r.tx)
            .collect();
        stats.log_phantom_commits +=
            logged.iter().filter(|t| !committed.contains(t)).count() as u64;
        stats.log_commits_missing += committed
            .iter()
            .filter(|t| !self.ro_commits.contains(t) && !logged.contains(t))
            .count() as u64;

        if self.kind.granularity() != Granularity::Block {
            return;
        }
        let live: HashSet<TxId> = live.iter().copied().collect();
        for r in records
            .iter()
            .filter(|r| r.kind == LogRecordKind::Undo && live.contains(&r.tx))
        {
            let current = self
                .undo_sums
                .get(&r.tx)
                .is_some_and(|sums| sums.contains(&undo_payload_checksum(&r.payload)));
            if !current {
                stats.log_undo_stale += 1;
                continue;
            }
            let Some(p) = decode_undo_payload(&r.payload) else {
                // A checksummed record with a malformed payload is
                // corruption, not a torn tail.
                stats.log_replay_mismatches += 1;
                continue;
            };
            let base = p.vpn.block_addr(p.block);
            let verified = (0..BLOCK_SIZE / WORD_SIZE).all(|w| {
                let expect = u32::from_le_bytes(
                    p.data[w * WORD_SIZE..(w + 1) * WORD_SIZE]
                        .try_into()
                        .expect("word in block"),
                );
                self.read_committed(p.pid, VirtAddr(base.0 + (w * WORD_SIZE) as u64)) == expect
            });
            if verified {
                stats.log_replay_verified += 1;
            } else {
                stats.log_replay_mismatches += 1;
            }
        }
    }

    /// Reads the committed value of a word from the image, the same way
    /// [`Machine::read_committed`] does on a live machine.
    pub fn read_committed(&self, pid: ProcessId, va: VirtAddr) -> u32 {
        self.backend
            .read_committed(&self.kernel, &self.mem, pid, va)
    }

    /// Compares every word the committed-prefix oracle wrote against the
    /// image's committed memory. Call after [`CrashImage::recover`]; before
    /// recovery, LogTM's eager speculative writes are still in place.
    pub fn diff_committed(&self, programs: &[ThreadProgram]) -> Vec<Mismatch> {
        let reference = crash_reference(programs, &self.commit_log, &self.watermarks);
        let mut mismatches: Vec<Mismatch> = reference
            .into_iter()
            .filter_map(|((pid, va), expected)| {
                let actual = self.read_committed(pid, va);
                (actual != expected).then_some(Mismatch {
                    key: (pid, va),
                    expected,
                    actual,
                })
            })
            .collect();
        mismatches.sort_by_key(|m| m.key);
        mismatches
    }

    /// Panics with a readable report if the recovered image diverged from
    /// the committed-prefix oracle.
    ///
    /// # Panics
    ///
    /// Panics on any mismatch — recovery resurrected or lost data.
    pub fn assert_matches_reference(&self, programs: &[ThreadProgram]) {
        let mismatches = self.diff_committed(programs);
        assert!(
            mismatches.is_empty(),
            "recovered image diverged from committed-prefix oracle under {} at step {} \
             (torn={:?}): {} mismatches, first: {:?}",
            self.kind,
            self.step,
            self.torn,
            mismatches.len(),
            mismatches.first()
        );
    }
}

/// Replays the unified durable log's word-undo records for the
/// transactions live at the crash: the same backward walk LogTM's software
/// abort handler performs, driven by the device log instead of the (lost)
/// DRAM structures. A forward pass first drops records a commit or abort
/// record retired — a retried `TxId`'s earlier incarnation; the abort was
/// *forced* after that incarnation's last word-undo, so it always sits in
/// the log's valid prefix ahead of any later incarnation's records.
/// Surviving records are restored in global reverse order, undoing the
/// interleaved in-place stores youngest-first. Returns words restored.
fn replay_word_undo(records: &[LogRecord], live: &[TxId], mem: &mut PhysicalMemory) -> u64 {
    let live: HashSet<TxId> = live.iter().copied().collect();
    let mut current: FastMap<TxId, Vec<usize>> = FastMap::default();
    for (i, r) in records.iter().enumerate() {
        match r.kind {
            LogRecordKind::WordUndo if live.contains(&r.tx) => {
                current.entry(r.tx).or_default().push(i);
            }
            LogRecordKind::Commit | LogRecordKind::Abort => {
                current.remove(&r.tx);
            }
            _ => {}
        }
    }
    let mut idxs: Vec<usize> = current.into_values().flatten().collect();
    idxs.sort_unstable();
    let mut restored = 0u64;
    for i in idxs.into_iter().rev() {
        if let Some((pa, old)) = decode_word_undo_payload(&records[i].payload) {
            mem.write_word(pa, old);
            restored += 1;
        }
    }
    restored
}
