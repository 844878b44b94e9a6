//! The VTM system: overflow handling, XF-filtered conflict detection, and
//! the copy-back commit that distinguishes VTM from PTM.

use crate::stats::VtmStats;
use crate::xadt::{Xadt, XadtKey};
use crate::xf::CountingBloom;
use ptm_cache::{SystemBus, TxLineMeta};
use ptm_core::system::{AccessKind, ConflictOutcome};
use ptm_core::tstate::{TStateTable, TxStatus};
use ptm_core::vts::{LruTracker, Touch, VtsCost};
use ptm_mem::{PhysicalMemory, SpecBlock};
use ptm_types::{Cycle, FastMap, Granularity, PhysBlock, TxId, VirtAddr, WordIdx, BLOCK_SIZE};

/// VTM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VtmConfig {
    /// Enable the Victim-VTM (`VC-VTM`) variant: the XADC also buffers block
    /// data, so committed blocks are marked committed instantly and written
    /// back lazily from the victim cache.
    pub victim_cache: bool,
    /// Counting Bloom filter size (the paper models 1.6 M entries).
    pub xf_counters: usize,
    /// XADC capacity. For fairness the paper sizes it to the combined SPT +
    /// TAV cache capacities (512 + 2048).
    pub xadc_entries: usize,
    /// Conflict granularity (shared with the Figure 5 study).
    pub granularity: Granularity,
    /// Latency of an XADC/XF lookup, in cycles.
    pub lookup_latency: u64,
}

impl VtmConfig {
    /// The paper's baseline VTM model.
    pub fn baseline() -> Self {
        VtmConfig {
            victim_cache: false,
            xf_counters: 1_600_000,
            xadc_entries: 512 + 2048,
            granularity: Granularity::Block,
            lookup_latency: 6,
        }
    }

    /// The Victim-VTM variant.
    pub fn victim() -> Self {
        VtmConfig {
            victim_cache: true,
            ..Self::baseline()
        }
    }
}

impl Default for VtmConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// The VTM transactional-memory system (baseline for Figure 4).
///
/// The API deliberately mirrors [`ptm_core::PtmSystem`] so the simulator can
/// swap backends; the semantic differences are:
///
/// * overflow state is keyed by *(process, virtual address)*, not physical
///   page — inter-process physical sharing is invisible to VTM;
/// * speculative data is buffered **in the XADT**, never in memory, so
///   commit must copy every dirty overflowed block back (bus traffic +
///   stalls) while abort is cheap;
/// * a counting Bloom filter (XF) screens misses before any XADC/XADT work.
#[derive(Debug, Clone)]
pub struct VtmSystem {
    cfg: VtmConfig,
    xadt: Xadt,
    xf: CountingBloom,
    xadc: LruTracker<XadtKey>,
    tstate: TStateTable,
    committing_blocks: FastMap<XadtKey, Cycle>,
    stats: VtmStats,
}

impl VtmSystem {
    /// Creates a VTM system.
    pub fn new(cfg: VtmConfig) -> Self {
        VtmSystem {
            xadt: Xadt::new(),
            xf: CountingBloom::new(cfg.xf_counters, 4),
            xadc: LruTracker::new(cfg.xadc_entries),
            tstate: TStateTable::new(),
            committing_blocks: FastMap::default(),
            stats: VtmStats::default(),
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &VtmConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &VtmStats {
        &self.stats
    }

    /// The transaction-status table (VTM's XSWs, one status word per
    /// transaction, modeled with the same table type as PTM's T-State).
    pub fn tstate(&self) -> &TStateTable {
        &self.tstate
    }

    /// Mutable status-table access.
    pub fn tstate_mut(&mut self) -> &mut TStateTable {
        &mut self.tstate
    }

    /// Starts a transaction.
    pub fn begin(&mut self, tx: TxId) {
        self.tstate.begin(tx, None);
    }

    /// Whether any block is currently overflowed (VTM's overflow counter).
    pub fn has_overflows(&self) -> bool {
        !self.xadt.is_empty()
    }

    /// Whether `tx` is running.
    pub fn is_live(&self, tx: TxId) -> bool {
        self.tstate.is_live(tx)
    }

    /// Checks a cache miss against the overflow state: XF filter first, then
    /// XADC, then (on a miss) an XADT walk.
    pub fn check_conflict(
        &mut self,
        requester: Option<TxId>,
        key: XadtKey,
        word: WordIdx,
        kind: AccessKind,
        now: Cycle,
        bus: &mut SystemBus,
    ) -> ConflictOutcome {
        let key = (key.0, key.1.block_aligned());
        let mut outcome = ConflictOutcome {
            done_at: now,
            ..Default::default()
        };

        self.committing_blocks.retain(|_, t| *t > now);
        if let Some(&until) = self.committing_blocks.get(&key) {
            if until > now {
                outcome.stall_until = Some(until);
            }
        }

        if !self.xf.may_contain(key.1) {
            self.stats.xf_filtered += 1;
            return outcome;
        }
        self.stats.xf_maybe += 1;

        let mut cost = VtsCost {
            lookups: 1,
            ..Default::default()
        };
        match self.xadc.touch(key) {
            Touch::Hit => self.stats.xadc_hits += 1,
            Touch::Miss { evicted_dirty } => {
                self.stats.xadc_misses += 1;
                // Reconstructing the metadata requires walking the XADT in
                // memory: one access per entry lookup (§5.3.1).
                cost.memory_accesses += 1 + u32::from(evicted_dirty);
            }
        }

        let entry = self.xadt.entry(key);
        if entry.is_none() {
            self.stats.xf_false_positives += 1;
        } else {
            let is_write = kind == AccessKind::Write;
            outcome.conflicts = self.xadt.conflicting(
                key,
                requester,
                is_write,
                word,
                self.cfg.granularity.word_in_memory(),
            );
            self.stats.overflow_conflicts += outcome.conflicts.len() as u64;
            if kind == AccessKind::Read {
                outcome.deny_exclusive = self
                    .xadt
                    .entry(key)
                    .map(|e| e.readers.iter().any(|r| Some(*r) != requester))
                    .unwrap_or(false);
            }
        }

        outcome.done_at = cost.charge(now, self.cfg.lookup_latency, bus);
        outcome
    }

    /// Handles the eviction of a transactional line: the block's metadata
    /// (and, when dirty, its speculative data) moves into the XADT. `old`
    /// is the committed block image, logged for non-transactional conflict
    /// detection. Memory itself is *not* modified — that is the point.
    pub fn on_tx_eviction(
        &mut self,
        meta: &TxLineMeta,
        key: XadtKey,
        spec: Option<&SpecBlock>,
        old: [u8; BLOCK_SIZE],
        now: Cycle,
        bus: &mut SystemBus,
    ) -> Cycle {
        let key = (key.0, key.1.block_aligned());
        let tx = meta.tx;
        self.xf.insert(key.1);

        let mut cost = VtsCost {
            lookups: 1,
            ..Default::default()
        };
        match self.xadc.touch(key) {
            Touch::Hit => self.stats.xadc_hits += 1,
            Touch::Miss { evicted_dirty } => {
                self.stats.xadc_misses += 1;
                cost.memory_accesses += 1 + u32::from(evicted_dirty);
            }
        }
        self.xadc.mark_dirty(&key);

        if meta.read {
            self.xadt.record_read(key, tx, || old);
        }
        if meta.write {
            let spec = spec.expect("dirty eviction carries speculative data");
            self.xadt.record_write(key, tx, spec.clone(), || old);
            self.stats.dirty_overflows += 1;
            // Writing the XADT log entry (meta + old + new data).
            cost.memory_accesses += 2;
        } else {
            self.stats.clean_overflows += 1;
            cost.memory_accesses += 1;
        }
        self.stats.peak_xadt_entries = self.stats.peak_xadt_entries.max(self.xadt.peak() as u64);

        let done = bus.onchip_transfer(now);
        cost.charge(done, self.cfg.lookup_latency, bus)
    }

    /// Reads a word of `tx`'s overflowed speculative data, if it exists.
    pub fn read_spec_word(&self, tx: TxId, key: XadtKey, word: WordIdx) -> Option<u32> {
        self.xadt
            .read_spec_word((key.0, key.1.block_aligned()), tx, word)
    }

    /// Whether `tx` has write-overflowed the block.
    pub fn tx_wrote_overflowed(&self, tx: TxId, key: XadtKey) -> bool {
        self.xadt
            .entry((key.0, key.1.block_aligned()))
            .map(|e| e.writer == Some(tx))
            .unwrap_or(false)
    }

    /// Commits `tx`. The logical commit (XSW flip) is immediate; every
    /// dirty overflowed block must then be **copied from the XADT back to
    /// memory** — `translate` resolves each virtual block to its current
    /// physical location. Blocks held in the victim cache (VC-VTM) commit
    /// instantly and write back in the background; all others install stall
    /// windows until their copy lands. Returns the copy-back completion.
    pub fn commit<F>(
        &mut self,
        tx: TxId,
        mem: &mut PhysicalMemory,
        translate: F,
        now: Cycle,
        bus: &mut SystemBus,
    ) -> Cycle
    where
        F: Fn(VirtAddr) -> Option<PhysBlock>,
    {
        self.tstate.set_status(tx, TxStatus::Committing);
        let mut t = now;
        for key in self.xadt.blocks_of(tx) {
            let (spec, removed) = self.xadt.release(key, tx);
            if let Some(spec) = spec {
                let block = translate(key.1)
                    .unwrap_or_else(|| panic!("committing block {} is unmapped", key.1));
                let mut target = mem.read_block(block);
                ptm_mem::versions::apply_written_words(&mut target, &spec);
                mem.write_block(block, &target);
                self.stats.commit_copy_blocks += 1;

                let absorbed = self.cfg.victim_cache && self.xadc.touch(key).is_hit();
                if absorbed {
                    // Victim cache supplies the data meanwhile; write-back
                    // happens in the background (still consumes bandwidth).
                    self.stats.victim_absorbed_commits += 1;
                    let _ = bus.mem_access(now);
                } else {
                    // Copy is on the critical path of anyone touching the
                    // block: read the XADT entry, write memory, stall others.
                    t = bus.controller_mem_access(t);
                    t = bus.mem_access(t);
                    self.committing_blocks.insert(key, t);
                }
            }
            if removed {
                self.xf.remove(key.1);
                self.xadc.remove(&key);
            }
        }
        self.tstate.set_status(tx, TxStatus::Committed);
        self.stats.commits += 1;
        t
    }

    /// Aborts `tx`: buffered speculative data is simply discarded — VTM's
    /// cheap path. Returns the cleanup completion cycle.
    pub fn abort(&mut self, tx: TxId, now: Cycle, bus: &mut SystemBus) -> Cycle {
        self.tstate.set_status(tx, TxStatus::Aborting);
        let mut t = now;
        for key in self.xadt.blocks_of(tx) {
            let (_spec, removed) = self.xadt.release(key, tx);
            t = bus.controller_mem_access(t);
            if removed {
                self.xf.remove(key.1);
                self.xadc.remove(&key);
            }
        }
        self.tstate.set_status(tx, TxStatus::Aborted);
        self.stats.aborts += 1;
        t
    }

    /// Crash recovery: discard every live transaction without any timing
    /// model. Speculative data lives only in the XADT, so home memory is
    /// already committed-clean — releasing each live transaction's entries
    /// (and the XF counts and XADC tags that shadow them) is the whole job.
    /// Pending commit copy-backs finished atomically inside their commit
    /// step, so `committing_blocks` holds only stall windows, which die with
    /// the machine. Returns `(transactions discarded, blocks released)`.
    /// Idempotent: a second call finds nothing live.
    pub fn recover(&mut self) -> (u64, u64) {
        let mut live = self.tstate.live_transactions();
        live.sort();
        let mut released = 0u64;
        for tx in &live {
            for key in self.xadt.blocks_of(*tx) {
                let (_spec, removed) = self.xadt.release(key, *tx);
                released += 1;
                if removed {
                    self.xf.remove(key.1);
                    self.xadc.remove(&key);
                }
            }
            self.tstate.set_status(*tx, TxStatus::Aborted);
            self.stats.aborts += 1;
        }
        self.committing_blocks.clear();
        (live.len() as u64, released)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_cache::BusTimings;
    use ptm_types::{BlockIdx, ProcessId, WordMask};

    const PID: ProcessId = ProcessId(0);

    fn bus() -> SystemBus {
        SystemBus::new(BusTimings::default())
    }

    fn key(addr: u64) -> XadtKey {
        (PID, VirtAddr::new(addr))
    }

    fn spec(word: u8, value: u32) -> SpecBlock {
        let mut data = [0u8; BLOCK_SIZE];
        data[word as usize * 4..word as usize * 4 + 4].copy_from_slice(&value.to_le_bytes());
        let mut written = WordMask::EMPTY;
        written.set(WordIdx(word));
        SpecBlock { data, written }
    }

    fn dirty_meta(tx: TxId) -> TxLineMeta {
        let mut m = TxLineMeta::new(tx);
        m.record_write(WordIdx(0));
        m
    }

    fn read_meta(tx: TxId) -> TxLineMeta {
        let mut m = TxLineMeta::new(tx);
        m.record_read(WordIdx(0));
        m
    }

    #[test]
    fn memory_untouched_until_commit() {
        let mut vtm = VtmSystem::new(VtmConfig::baseline());
        let mut mem = PhysicalMemory::new(4);
        let frame = mem.alloc().unwrap();
        let block = PhysBlock::new(frame, BlockIdx(0));
        mem.write_word(block.addr(), 111);

        let mut b = bus();
        vtm.begin(TxId(0));
        vtm.on_tx_eviction(
            &dirty_meta(TxId(0)),
            key(0x1000),
            Some(&spec(0, 222)),
            mem.read_block(block),
            0,
            &mut b,
        );
        assert_eq!(
            mem.read_word(block.addr()),
            111,
            "speculative data buffered, not in memory"
        );
        assert_eq!(
            vtm.read_spec_word(TxId(0), key(0x1000), WordIdx(0)),
            Some(222)
        );

        vtm.commit(TxId(0), &mut mem, |_| Some(block), 100, &mut b);
        assert_eq!(mem.read_word(block.addr()), 222, "commit copies back");
        assert_eq!(vtm.stats().commit_copy_blocks, 1);
        assert!(!vtm.has_overflows());
    }

    #[test]
    fn abort_discards_buffered_data_cheaply() {
        let mut vtm = VtmSystem::new(VtmConfig::baseline());
        let mut mem = PhysicalMemory::new(4);
        let frame = mem.alloc().unwrap();
        let block = PhysBlock::new(frame, BlockIdx(0));
        mem.write_word(block.addr(), 111);

        let mut b = bus();
        vtm.begin(TxId(0));
        vtm.on_tx_eviction(
            &dirty_meta(TxId(0)),
            key(0x1000),
            Some(&spec(0, 222)),
            mem.read_block(block),
            0,
            &mut b,
        );
        vtm.abort(TxId(0), 10, &mut b);
        assert_eq!(mem.read_word(block.addr()), 111, "no restore needed");
        assert_eq!(vtm.stats().commit_copy_blocks, 0);
        assert!(!vtm.has_overflows());
    }

    #[test]
    fn xf_filters_unrelated_addresses() {
        let mut vtm = VtmSystem::new(VtmConfig::baseline());
        let mut b = bus();
        vtm.begin(TxId(0));
        let out = vtm.check_conflict(
            Some(TxId(1)),
            key(0x9000),
            WordIdx(0),
            AccessKind::Read,
            0,
            &mut b,
        );
        assert!(out.conflicts.is_empty());
        assert_eq!(out.done_at, 0, "filtered check is free");
        assert_eq!(vtm.stats().xf_filtered, 1);
    }

    #[test]
    fn conflict_detection_through_filter() {
        let mut vtm = VtmSystem::new(VtmConfig::baseline());
        let mut b = bus();
        vtm.begin(TxId(0));
        vtm.on_tx_eviction(
            &dirty_meta(TxId(0)),
            key(0x1000),
            Some(&spec(0, 1)),
            [0; BLOCK_SIZE],
            0,
            &mut b,
        );

        let out = vtm.check_conflict(
            Some(TxId(1)),
            key(0x1000),
            WordIdx(0),
            AccessKind::Read,
            5,
            &mut b,
        );
        assert_eq!(out.conflicts, vec![TxId(0)], "RAW through XADT");
        let own = vtm.check_conflict(
            Some(TxId(0)),
            key(0x1000),
            WordIdx(0),
            AccessKind::Read,
            5,
            &mut b,
        );
        assert!(own.conflicts.is_empty());
    }

    #[test]
    fn reader_overflow_denies_exclusivity_and_wars_writers() {
        let mut vtm = VtmSystem::new(VtmConfig::baseline());
        let mut b = bus();
        vtm.begin(TxId(0));
        vtm.on_tx_eviction(
            &read_meta(TxId(0)),
            key(0x2000),
            None,
            [0; BLOCK_SIZE],
            0,
            &mut b,
        );
        let rd = vtm.check_conflict(
            Some(TxId(1)),
            key(0x2000),
            WordIdx(0),
            AccessKind::Read,
            5,
            &mut b,
        );
        assert!(rd.conflicts.is_empty());
        assert!(rd.deny_exclusive);
        let wr = vtm.check_conflict(
            Some(TxId(1)),
            key(0x2000),
            WordIdx(0),
            AccessKind::Write,
            5,
            &mut b,
        );
        assert_eq!(wr.conflicts, vec![TxId(0)]);
    }

    #[test]
    fn commit_installs_stall_windows_for_baseline() {
        let mut vtm = VtmSystem::new(VtmConfig::baseline());
        let mut mem = PhysicalMemory::new(4);
        let frame = mem.alloc().unwrap();
        let block = PhysBlock::new(frame, BlockIdx(0));
        let mut b = bus();
        vtm.begin(TxId(0));
        vtm.on_tx_eviction(
            &dirty_meta(TxId(0)),
            key(0x1000),
            Some(&spec(0, 1)),
            [0; BLOCK_SIZE],
            0,
            &mut b,
        );
        let done = vtm.commit(TxId(0), &mut mem, |_| Some(block), 1000, &mut b);
        assert!(done > 1000);
        vtm.begin(TxId(1));
        let out = vtm.check_conflict(
            Some(TxId(1)),
            key(0x1000),
            WordIdx(0),
            AccessKind::Read,
            1001,
            &mut b,
        );
        assert_eq!(
            out.stall_until,
            Some(done),
            "copy-back blocks other transactions"
        );
    }

    #[test]
    fn victim_cache_absorbs_commit_stalls() {
        let mut vtm = VtmSystem::new(VtmConfig::victim());
        let mut mem = PhysicalMemory::new(4);
        let frame = mem.alloc().unwrap();
        let block = PhysBlock::new(frame, BlockIdx(0));
        let mut b = bus();
        vtm.begin(TxId(0));
        vtm.on_tx_eviction(
            &dirty_meta(TxId(0)),
            key(0x1000),
            Some(&spec(0, 9)),
            [0; BLOCK_SIZE],
            0,
            &mut b,
        );
        let done = vtm.commit(TxId(0), &mut mem, |_| Some(block), 1000, &mut b);
        assert_eq!(done, 1000, "victim hit: commit completes instantly");
        assert_eq!(vtm.stats().victim_absorbed_commits, 1);
        vtm.begin(TxId(1));
        let out = vtm.check_conflict(
            Some(TxId(1)),
            key(0x1000),
            WordIdx(0),
            AccessKind::Read,
            1001,
            &mut b,
        );
        assert_eq!(out.stall_until, None, "no stall window");
        assert_eq!(mem.read_word(block.addr()), 9, "data still copied back");
    }

    #[test]
    fn different_processes_never_share_entries() {
        let mut vtm = VtmSystem::new(VtmConfig::baseline());
        let mut b = bus();
        vtm.begin(TxId(0));
        vtm.on_tx_eviction(
            &dirty_meta(TxId(0)),
            key(0x1000),
            Some(&spec(0, 1)),
            [0; BLOCK_SIZE],
            0,
            &mut b,
        );
        // Same virtual address in another process: VTM sees no conflict —
        // the PTM paper's inter-process argument (§5.3).
        let other = (ProcessId(1), VirtAddr::new(0x1000));
        let out = vtm.check_conflict(
            Some(TxId(1)),
            other,
            WordIdx(0),
            AccessKind::Write,
            5,
            &mut b,
        );
        assert!(out.conflicts.is_empty());
    }
}
