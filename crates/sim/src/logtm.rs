//! A LogTM-style backend (Moore et al., HPCA 2006), implemented as an
//! *extension* beyond the paper's evaluated systems — §5.2 describes it as
//! related work. The contrasts with PTM it exists to demonstrate:
//!
//! * **Eager, in-place versioning**: transactional stores update memory
//!   directly, saving the old value in a per-transaction software **undo
//!   log**. Commit is trivially cheap (discard the log); **abort is the
//!   expensive path** (walk the log backwards in software, restoring every
//!   word).
//! * **Sticky overflow state**: when a transactional line is evicted, the
//!   directory remembers the transaction's interest in the block and keeps
//!   forwarding conflicting requests to it — modeled here as a
//!   [`StickyTable`] keyed by physical block.
//! * **Stall-preferring conflict resolution**: a conflicting requester
//!   NACKs and retries rather than aborting; a *possible-cycle* heuristic
//!   (requester older than an owner that is itself stalling) triggers the
//!   rare self-abort, guaranteeing progress.
//!
//! As the paper notes, LogTM does not virtualize: it requires transactional
//! state never to be paged out, and does not handle context-switch
//! migration. The simulator enforces the same restriction.

use crate::backend::Resolution;
use ptm_cache::{SystemBus, TxLineMeta};
use ptm_core::tstate::{TStateTable, TxStatus};
use ptm_mem::PhysicalMemory;
use ptm_types::{Cycle, FastMap, PhysAddr, PhysBlock, TxId};

/// One undo-log record: the word's address and its pre-transaction value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UndoEntry {
    /// The word written.
    pub addr: PhysAddr,
    /// The value it held before the transactional store.
    pub old: u32,
}

/// The directory's memory of evicted transactional state ("sticky" states).
#[derive(Debug, Default, Clone)]
pub struct StickyTable {
    entries: FastMap<PhysBlock, StickyUse>,
}

/// Which transactions an overflowed block is sticky to.
#[derive(Debug, Default, Clone)]
pub struct StickyUse {
    /// Transactions with an overflowed read of the block.
    pub readers: Vec<TxId>,
    /// The transaction with an overflowed write, if any.
    pub writer: Option<TxId>,
}

impl StickyTable {
    /// Records an evicted line's transactional use.
    pub fn record(&mut self, meta: &TxLineMeta, block: PhysBlock) {
        let e = self.entries.entry(block).or_default();
        if meta.read && !e.readers.contains(&meta.tx) {
            e.readers.push(meta.tx);
        }
        if meta.write {
            debug_assert!(
                e.writer.is_none() || e.writer == Some(meta.tx),
                "conflict detection admits one writer"
            );
            e.writer = Some(meta.tx);
        }
    }

    /// The recorded use of `block`, if any.
    pub fn get(&self, block: PhysBlock) -> Option<&StickyUse> {
        self.entries.get(&block)
    }

    /// Clears one transaction out of every entry (commit/abort), dropping
    /// entries that become empty. Returns how many entries were touched.
    pub fn release(&mut self, tx: TxId) -> u64 {
        let mut touched = 0;
        self.entries.retain(|_, e| {
            let before = e.readers.len() + usize::from(e.writer.is_some());
            e.readers.retain(|r| *r != tx);
            if e.writer == Some(tx) {
                e.writer = None;
            }
            let after = e.readers.len() + usize::from(e.writer.is_some());
            if after != before {
                touched += 1;
            }
            after > 0
        });
        touched
    }

    /// Number of sticky blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing is sticky.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// LogTM event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogTmStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions (the expensive software path).
    pub aborts: u64,
    /// Undo-log entries written.
    pub log_entries: u64,
    /// Undo-log entries restored by aborts.
    pub log_restores: u64,
    /// Conflicting requests that stalled (NACK + retry).
    pub stalls: u64,
    /// Evicted lines recorded sticky.
    pub sticky_records: u64,
}

/// The LogTM system state.
#[derive(Debug, Default, Clone)]
pub struct LogTmSystem {
    logs: FastMap<TxId, Vec<UndoEntry>>,
    sticky: StickyTable,
    tstate: TStateTable,
    /// Transactions currently stalling on a conflict (the possible-cycle
    /// flag of the real protocol).
    stalling: FastMap<TxId, bool>,
    stats: LogTmStats,
}

impl LogTmSystem {
    /// Creates an empty system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters.
    pub fn stats(&self) -> &LogTmStats {
        &self.stats
    }

    /// The status table.
    pub fn tstate(&self) -> &TStateTable {
        &self.tstate
    }

    /// Starts (or restarts) a transaction.
    pub fn begin(&mut self, tx: TxId) {
        self.tstate.begin(tx, None);
        self.stalling.insert(tx, false);
    }

    /// Whether `tx` is live.
    pub fn is_live(&self, tx: TxId) -> bool {
        self.tstate.is_live(tx)
    }

    /// Whether any sticky overflow state exists.
    pub fn has_overflows(&self) -> bool {
        !self.sticky.is_empty()
    }

    /// Logs a transactional store's old value (eager versioning: the caller
    /// then writes memory in place). Log writes are cacheable and charged
    /// nothing here; the price is paid on abort.
    pub fn log_write(&mut self, tx: TxId, addr: PhysAddr, old: u32) {
        self.logs
            .entry(tx)
            .or_default()
            .push(UndoEntry { addr, old });
        self.stats.log_entries += 1;
    }

    /// The physical word addresses `tx`'s undo log would restore on abort,
    /// oldest first.
    pub fn log_addrs(&self, tx: TxId) -> Vec<PhysAddr> {
        self.logs
            .get(&tx)
            .map(|log| log.iter().map(|e| e.addr).collect())
            .unwrap_or_default()
    }

    /// Records an evicted transactional line as sticky.
    pub fn on_tx_eviction(&mut self, meta: &TxLineMeta, block: PhysBlock) {
        self.sticky.record(meta, block);
        self.stats.sticky_records += 1;
    }

    /// Conflict check against sticky state for a miss, with LogTM's
    /// stall-preferring resolution. `requester` is `None` for
    /// non-transactional accesses, which always win: the owners abort, as
    /// in §2.3.3.
    pub fn resolve(
        &mut self,
        requester: Option<TxId>,
        block: PhysBlock,
        is_write: bool,
    ) -> Resolution {
        let mut owners: Vec<TxId> = Vec::new();
        if let Some(u) = self.sticky.get(block) {
            if let Some(w) = u.writer {
                if Some(w) != requester && self.is_live(w) {
                    owners.push(w);
                }
            }
            if is_write {
                for r in &u.readers {
                    if Some(*r) != requester && self.is_live(*r) {
                        owners.push(*r);
                    }
                }
            }
        }
        if owners.is_empty() {
            if let Some(tx) = requester {
                self.stalling.insert(tx, false);
            }
            return Resolution::Proceed;
        }
        owners.sort();
        owners.dedup();
        self.arbitrate(requester, owners)
    }

    fn cycle_break(&mut self, me: TxId, owners: &[TxId]) -> Resolution {
        // Possible-cycle heuristic: a stall edge from an older transaction
        // to a younger *stalled* owner can close a cycle; break it by
        // aborting the youngest participants. (The original protocol always
        // aborts the requester; with ordered commits in the mix, a
        // gate-blocked younger owner can only be released by the older
        // requester committing, so the youngest participant must go.)
        let stuck_younger: Vec<TxId> = owners
            .iter()
            .filter(|o| me.is_older_than(**o) && *self.stalling.get(o).unwrap_or(&false))
            .copied()
            .collect();
        if !stuck_younger.is_empty() {
            return Resolution::AbortOwners(stuck_younger);
        }
        let blocked_by_older_staller = owners
            .iter()
            .any(|o| o.is_older_than(me) && *self.stalling.get(o).unwrap_or(&false));
        if blocked_by_older_staller && owners.iter().all(|o| o.is_older_than(me)) {
            // I am the youngest in a possible cycle: step aside.
            return Resolution::SelfAbort;
        }
        self.stalling.insert(me, true);
        self.stats.stalls += 1;
        Resolution::Stall
    }

    /// Marks a transaction as stalled for reasons outside conflict
    /// resolution (e.g. an ordered-commit gate), so the possible-cycle
    /// heuristic can break deadlocks through it.
    pub fn mark_stalling(&mut self, tx: TxId) {
        self.stalling.insert(tx, true);
    }

    /// LogTM's resolution for a conflict with the given live owners: stall
    /// unless the possible-cycle heuristic demands an abort. Non-transactional
    /// requesters always break through (the owners abort).
    pub fn arbitrate(&mut self, requester: Option<TxId>, owners: Vec<TxId>) -> Resolution {
        match requester {
            Some(me) => self.cycle_break(me, &owners),
            None => Resolution::AbortOwners(owners),
        }
    }

    /// Commits: discard the log, release sticky state. LogTM's cheap path.
    pub fn commit(&mut self, tx: TxId, now: Cycle, bus: &mut SystemBus) -> Cycle {
        self.tstate.set_status(tx, TxStatus::Committing);
        self.logs.remove(&tx);
        let touched = self.sticky.release(tx);
        self.stalling.remove(&tx);
        // Lazy sticky cleanup: one controller access per touched entry.
        let mut t = now;
        for _ in 0..touched.min(8) {
            t = bus.controller_mem_access(t);
        }
        self.tstate.set_status(tx, TxStatus::Committed);
        self.stats.commits += 1;
        t
    }

    /// Aborts: walk the undo log *backwards*, restoring every word — the
    /// expensive, software-handled path the paper calls out.
    pub fn abort(
        &mut self,
        tx: TxId,
        mem: &mut PhysicalMemory,
        now: Cycle,
        bus: &mut SystemBus,
    ) -> Cycle {
        self.tstate.set_status(tx, TxStatus::Aborting);
        let log = self.logs.remove(&tx).unwrap_or_default();
        // Software handler entry cost.
        let mut t = now + 500;
        for entry in log.iter().rev() {
            mem.write_word(entry.addr, entry.old);
            t = bus.controller_mem_access(t);
            self.stats.log_restores += 1;
        }
        self.sticky.release(tx);
        self.stalling.remove(&tx);
        self.tstate.set_status(tx, TxStatus::Aborted);
        self.stats.aborts += 1;
        t
    }

    /// Crash recovery for machines *without* a unified durable log: discard
    /// every live transaction without any timing model — walk each undo log
    /// backwards restoring old values (the logs are assumed durable
    /// software structures in that mode), drop sticky and stalling state.
    /// Returns `(transactions discarded, words restored)`. Idempotent: a
    /// second call finds no live transactions and does nothing. Durable
    /// machines replay the device log's word-undo records and call
    /// [`LogTmSystem::discard_live`] instead.
    pub fn recover(&mut self, mem: &mut PhysicalMemory) -> (u64, u64) {
        let mut live = self.tstate.live_transactions();
        live.sort();
        let mut restored = 0u64;
        for tx in &live {
            let log = self.logs.remove(tx).unwrap_or_default();
            for entry in log.iter().rev() {
                mem.write_word(entry.addr, entry.old);
                restored += 1;
                self.stats.log_restores += 1;
            }
            self.sticky.release(*tx);
            self.stalling.remove(tx);
            self.tstate.set_status(*tx, TxStatus::Aborted);
            self.stats.aborts += 1;
        }
        (live.len() as u64, restored)
    }

    /// Drops the in-DRAM undo logs. A machine running with a unified
    /// durable log calls this when capturing a crash image: the software
    /// log is ordinary volatile memory there, and recovery replays the
    /// device log's word-undo records instead ([`crate::crash`]).
    pub fn drop_logs(&mut self) {
        self.logs.clear();
    }

    /// Discards every live transaction *without* touching memory — the
    /// unified durable log's word-undo replay already rolled their stores
    /// back. Drops log, sticky and stalling state and marks each
    /// transaction aborted. Returns the count discarded. Idempotent: a
    /// second call finds no live transactions.
    pub fn discard_live(&mut self) -> u64 {
        let mut live = self.tstate.live_transactions();
        live.sort();
        for tx in &live {
            self.logs.remove(tx);
            self.sticky.release(*tx);
            self.stalling.remove(tx);
            self.tstate.set_status(*tx, TxStatus::Aborted);
            self.stats.aborts += 1;
        }
        live.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_cache::BusTimings;
    use ptm_types::{BlockIdx, FrameId, WordIdx};

    fn block(n: u32) -> PhysBlock {
        PhysBlock::new(FrameId(n), BlockIdx(0))
    }

    fn bus() -> SystemBus {
        SystemBus::new(BusTimings::default())
    }

    #[test]
    fn in_place_write_with_undo_restore() {
        let mut sys = LogTmSystem::new();
        let mut mem = PhysicalMemory::new(4);
        let f = mem.alloc().unwrap();
        let addr = PhysAddr::from_frame(f, 8);
        mem.write_word(addr, 10);

        sys.begin(TxId(0));
        // Eager versioning: log old, write new in place.
        sys.log_write(TxId(0), addr, mem.read_word(addr));
        mem.write_word(addr, 99);
        assert_eq!(mem.read_word(addr), 99, "in-place speculative value");

        let mut b = bus();
        sys.abort(TxId(0), &mut mem, 0, &mut b);
        assert_eq!(mem.read_word(addr), 10, "undo log restored the word");
        assert_eq!(sys.stats().log_restores, 1);
    }

    #[test]
    fn abort_restores_in_reverse_order() {
        let mut sys = LogTmSystem::new();
        let mut mem = PhysicalMemory::new(4);
        let f = mem.alloc().unwrap();
        let addr = PhysAddr::from_frame(f, 0);
        mem.write_word(addr, 1);

        sys.begin(TxId(0));
        sys.log_write(TxId(0), addr, 1);
        mem.write_word(addr, 2);
        sys.log_write(TxId(0), addr, 2);
        mem.write_word(addr, 3);

        let mut b = bus();
        sys.abort(TxId(0), &mut mem, 0, &mut b);
        assert_eq!(
            mem.read_word(addr),
            1,
            "reverse walk ends at the oldest value"
        );
    }

    #[test]
    fn commit_is_cheap_abort_is_not() {
        let mut sys = LogTmSystem::new();
        let mut mem = PhysicalMemory::new(4);
        let f = mem.alloc().unwrap();
        sys.begin(TxId(0));
        for w in 0..16u32 {
            let addr = PhysAddr::from_frame(f, (w as usize) * 4);
            sys.log_write(TxId(0), addr, 0);
            mem.write_word(addr, w);
        }
        let mut b1 = bus();
        let commit_done = sys.commit(TxId(0), 0, &mut b1);

        let mut sys2 = LogTmSystem::new();
        sys2.begin(TxId(0));
        for w in 0..16u32 {
            let addr = PhysAddr::from_frame(f, (w as usize) * 4);
            sys2.log_write(TxId(0), addr, 0);
        }
        let mut b2 = bus();
        let abort_done = sys2.abort(TxId(0), &mut mem, 0, &mut b2);
        assert!(
            abort_done > commit_done,
            "abort ({abort_done}) must cost more than commit ({commit_done})"
        );
    }

    #[test]
    fn sticky_state_drives_conflicts() {
        let mut sys = LogTmSystem::new();
        sys.begin(TxId(0));
        sys.begin(TxId(1));
        let mut meta = TxLineMeta::new(TxId(0));
        meta.record_write(WordIdx(0));
        sys.on_tx_eviction(&meta, block(0));
        assert!(sys.has_overflows());

        // Younger writer conflicts with the sticky writer: stall.
        let r = sys.resolve(Some(TxId(1)), block(0), true);
        assert_eq!(r, Resolution::Stall);

        // Reads of a sticky WRITE also conflict.
        let r = sys.resolve(Some(TxId(1)), block(0), false);
        assert_eq!(r, Resolution::Stall);

        // The owner itself proceeds.
        let r = sys.resolve(Some(TxId(0)), block(0), true);
        assert_eq!(r, Resolution::Proceed);
    }

    #[test]
    fn non_transactional_requester_aborts_the_owners() {
        let mut sys = LogTmSystem::new();
        sys.begin(TxId(0));
        sys.begin(TxId(1));
        let mut w = TxLineMeta::new(TxId(0));
        w.record_write(WordIdx(0));
        sys.on_tx_eviction(&w, block(0));
        let mut r = TxLineMeta::new(TxId(1));
        r.record_read(WordIdx(1));
        sys.on_tx_eviction(&r, block(0));

        // A plain read breaks through the sticky writer only (§2.3.3)...
        let res = sys.resolve(None, block(0), false);
        assert_eq!(res, Resolution::AbortOwners(vec![TxId(0)]));
        // ...a plain write through every live owner, oldest first.
        let res = sys.resolve(None, block(0), true);
        assert_eq!(res, Resolution::AbortOwners(vec![TxId(0), TxId(1)]));
        assert_eq!(
            sys.stats().stalls,
            0,
            "non-transactional requests never stall"
        );

        // A block no live transaction holds lets it proceed.
        assert_eq!(sys.resolve(None, block(1), true), Resolution::Proceed);
    }

    #[test]
    fn possible_cycle_aborts_the_youngest_participant() {
        let mut sys = LogTmSystem::new();
        sys.begin(TxId(0));
        sys.begin(TxId(1));
        // tx1 overflows a write; tx0 (older) will request it.
        let mut meta = TxLineMeta::new(TxId(1));
        meta.record_write(WordIdx(0));
        sys.on_tx_eviction(&meta, block(0));
        // tx1 is itself stalling on something (tx0's block).
        let mut meta0 = TxLineMeta::new(TxId(0));
        meta0.record_write(WordIdx(0));
        sys.on_tx_eviction(&meta0, block(1));
        let r = sys.resolve(Some(TxId(1)), block(1), true);
        assert_eq!(r, Resolution::Stall, "tx1 stalls on tx0");

        // Now tx0 requests tx1's block: cycle detected; the *youngest*
        // participant (tx1) aborts so that gate-style dependencies on the
        // older's commit can always drain.
        let r = sys.resolve(Some(TxId(0)), block(0), true);
        assert_eq!(r, Resolution::AbortOwners(vec![TxId(1)]));

        // Symmetric case: the younger requester facing an older stalled
        // owner steps aside itself.
        let mut sys2 = LogTmSystem::new();
        sys2.begin(TxId(0));
        sys2.begin(TxId(1));
        let mut m0 = TxLineMeta::new(TxId(0));
        m0.record_write(WordIdx(0));
        sys2.on_tx_eviction(&m0, block(0));
        sys2.mark_stalling(TxId(0));
        let r = sys2.resolve(Some(TxId(1)), block(0), true);
        assert_eq!(r, Resolution::SelfAbort);
    }

    #[test]
    fn release_clears_sticky_entries() {
        let mut sys = LogTmSystem::new();
        sys.begin(TxId(0));
        let mut meta = TxLineMeta::new(TxId(0));
        meta.record_read(WordIdx(0));
        sys.on_tx_eviction(&meta, block(0));
        let mut b = bus();
        sys.commit(TxId(0), 0, &mut b);
        assert!(!sys.has_overflows(), "commit released the sticky state");
    }

    #[test]
    fn readers_do_not_conflict_with_readers() {
        let mut sys = LogTmSystem::new();
        sys.begin(TxId(0));
        sys.begin(TxId(1));
        let mut meta = TxLineMeta::new(TxId(0));
        meta.record_read(WordIdx(0));
        sys.on_tx_eviction(&meta, block(0));
        let r = sys.resolve(Some(TxId(1)), block(0), false);
        assert_eq!(r, Resolution::Proceed, "read/read never conflicts");
        let r = sys.resolve(Some(TxId(1)), block(0), true);
        assert_eq!(r, Resolution::Stall, "write/read does");
    }
}
