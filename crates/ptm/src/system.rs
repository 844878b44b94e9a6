//! The PTM system: overflow handling, conflict detection, commit/abort,
//! paging, and shadow-page management, tying together the SPT, SIT, TAV,
//! T-State and VTS structures.
//!
//! This is the paper's contribution in one type, [`PtmSystem`]. The
//! machine-level simulator calls it:
//!
//! * on every page allocation ([`PtmSystem::on_page_alloc`]);
//! * on every cache miss while any transaction has overflowed
//!   ([`PtmSystem::check_conflict`]);
//! * on every transactional cache-line eviction
//!   ([`PtmSystem::on_tx_eviction`]);
//! * at transaction boundaries ([`PtmSystem::begin`], [`PtmSystem::commit`],
//!   [`PtmSystem::abort`]);
//! * from the OS paging path ([`PtmSystem::on_swap_out`],
//!   [`PtmSystem::on_swap_in`]) and the write-back path
//!   ([`PtmSystem::on_nontx_dirty_writeback`]).

use crate::config::{PtmConfig, PtmPolicy, ShadowFreePolicy};
use crate::sit::{SitEntry, SwapIndexTable};
use crate::spt::{ShadowPageTable, SptEntry, SptMeta};
use crate::stats::PtmStats;
use crate::tav::{TavArena, TavRef};
use crate::tstate::{TStateTable, TxStatus};
use crate::vts::{LruTracker, VtsCost};
use ptm_cache::{SystemBus, TxLineMeta};
use ptm_mem::{PhysicalMemory, SpecBlock, SwapStore};
use ptm_types::{
    BlockIdx, BlockVec, Cycle, FastMap, FrameId, PhysBlock, SwapSlot, TxId, WordIdx, WordMask,
    BLOCK_SIZE, WORD_SIZE,
};

/// Whether an access is a read or a write, for conflict classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load (RAW conflicts against overflowed writers).
    Read,
    /// A store (WAR/WAW conflicts against overflowed readers and writers).
    Write,
}

/// The result of an overflow-structure conflict check (§4.3).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConflictOutcome {
    /// Live transactions whose overflowed accesses conflict with this one.
    /// The caller arbitrates (oldest wins) and aborts the losers.
    pub conflicts: Vec<TxId>,
    /// Lazy commit/abort cleanup is still processing this page; the access
    /// must stall until this cycle (§4.5).
    pub stall_until: Option<Cycle>,
    /// A different transaction has an overflowed *read* of this block, so a
    /// read miss must not be granted exclusive permission (§4.3).
    pub deny_exclusive: bool,
    /// When the conflict check itself completed (VTS lookup/walk timing).
    pub done_at: Cycle,
}

/// The outcome of swapping a transactional page out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapOut {
    /// Where the home page's data went (store this in the page table).
    pub home_slot: SwapSlot,
}

/// A PTM resource pool ran dry mid-operation.
///
/// Returned instead of panicking by the allocation-bearing entry points
/// ([`PtmSystem::on_tx_eviction`], [`PtmSystem::on_swap_in`]) so the caller
/// can recover — the simulator aborts the youngest live transaction to free
/// resources and retries the operation. Every occurrence is counted in
/// [`PtmStats::frame_exhaustions`] / [`PtmStats::tav_exhaustions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exhaustion {
    /// The physical frame pool is empty (shadow allocation or swap-in).
    Frames,
    /// The TAV arena hit its configured capacity.
    TavNodes,
}

impl std::fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exhaustion::Frames => write!(f, "physical frame pool exhausted"),
            Exhaustion::TavNodes => write!(f, "TAV arena at capacity"),
        }
    }
}

/// The Page-based Transactional Memory system.
///
/// See the crate-level documentation for the model; see [`PtmConfig`] for
/// the Copy/Select policy switch and the Figure 5 granularities.
#[derive(Debug, Clone)]
pub struct PtmSystem {
    pub(crate) cfg: PtmConfig,
    pub(crate) spt: ShadowPageTable,
    pub(crate) sit: SwapIndexTable,
    pub(crate) tavs: TavArena,
    pub(crate) tstate: TStateTable,
    pub(crate) spt_cache: LruTracker<FrameId>,
    pub(crate) tav_cache: LruTracker<(FrameId, TxId)>,
    /// Pages whose lazy commit/abort cleanup completes at the given cycle.
    pub(crate) cleanup_pages: FastMap<FrameId, Cycle>,
    pub(crate) live_shadows: u64,
    pub(crate) stats: PtmStats,
}

impl PtmSystem {
    /// Creates a PTM system.
    pub fn new(cfg: PtmConfig) -> Self {
        PtmSystem {
            spt: ShadowPageTable::new(),
            sit: SwapIndexTable::new(),
            tavs: TavArena::new(),
            tstate: TStateTable::new(),
            spt_cache: LruTracker::new(cfg.spt_cache_entries),
            tav_cache: LruTracker::new(cfg.tav_cache_entries),
            cleanup_pages: FastMap::default(),
            live_shadows: 0,
            stats: PtmStats::default(),
            cfg,
        }
    }

    /// A clone capturing only the *durable* subset of the system: the
    /// SPT/SIT/TAV/T-State tables, shadow accounting and counters. The
    /// volatile VTS caches and lazy-cleanup timers come back empty — a
    /// crash loses them, recovery rebuilds nothing from them, and cloning
    /// them per sweep point was pure waste (see
    /// [`crate::recovery::recover`], which drops them unconditionally).
    pub fn durable_clone(&self) -> PtmSystem {
        PtmSystem {
            cfg: self.cfg,
            spt: self.spt.clone(),
            sit: self.sit.clone(),
            tavs: self.tavs.clone(),
            tstate: self.tstate.clone(),
            spt_cache: LruTracker::new(self.cfg.spt_cache_entries),
            tav_cache: LruTracker::new(self.cfg.tav_cache_entries),
            cleanup_pages: FastMap::default(),
            live_shadows: self.live_shadows,
            stats: self.stats,
        }
    }

    /// Whether every volatile (cache-like) part of the system is empty.
    /// Crash images assert this: only durable state may be captured.
    pub fn volatile_state_is_empty(&self) -> bool {
        self.spt_cache.is_empty() && self.tav_cache.is_empty() && self.cleanup_pages.is_empty()
    }

    /// The active configuration.
    pub fn config(&self) -> &PtmConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &PtmStats {
        &self.stats
    }

    /// The T-State table (transaction statuses).
    pub fn tstate(&self) -> &TStateTable {
        &self.tstate
    }

    /// Mutable T-State access (nesting bookkeeping lives there).
    pub fn tstate_mut(&mut self) -> &mut TStateTable {
        &mut self.tstate
    }

    /// Registers a freshly allocated physical page.
    pub fn on_page_alloc(&mut self, frame: FrameId) {
        self.spt.on_page_alloc(frame);
    }

    /// Read-only view of a page's SPT entry (the cold column; summary
    /// vectors are exposed separately via [`Self::spt_summaries`]).
    pub fn spt_entry(&self, frame: FrameId) -> Option<&SptMeta> {
        self.spt.entry(frame)
    }

    /// The page's (read, write) conflict summary vectors, straight off the
    /// SPT's dense hot columns (`EMPTY` pair for unregistered frames).
    pub fn spt_summaries(&self, frame: FrameId) -> (BlockVec, BlockVec) {
        self.spt.summaries(frame)
    }

    /// Read-only view of the TAV arena (introspection: tests assert the
    /// per-page summary vectors stay equal to the union over the TAV list).
    pub fn tav_arena(&self) -> &TavArena {
        &self.tavs
    }

    /// Read-only view of a swapped-out page's SIT entry.
    pub fn sit_entry(&self, home_slot: SwapSlot) -> Option<&SitEntry> {
        self.sit.entry(home_slot)
    }

    /// Starts a transaction (outermost begin).
    pub fn begin(&mut self, tx: TxId, ordered_seq: Option<u64>) {
        self.tstate.begin(tx, ordered_seq);
    }

    /// Whether any transactional block currently lives in the overflow
    /// structures — the paper's global overflow flag (§3.1). When false,
    /// misses skip PTM entirely and in-cache coherence handles everything.
    pub fn has_overflows(&self) -> bool {
        self.tavs.live() > 0
    }

    /// Whether `tx` is currently running.
    pub fn is_live(&self, tx: TxId) -> bool {
        self.tstate.is_live(tx)
    }

    /// Installs (or clears) a hard cap on live TAV nodes — fault injection
    /// uses this to manufacture arena-capacity pressure.
    pub fn set_tav_capacity(&mut self, capacity: Option<usize>) {
        self.tavs.set_capacity(capacity);
    }

    /// Records a transaction aborted purely to relieve resource exhaustion.
    pub fn note_exhaustion_abort(&mut self) {
        self.stats.exhaustion_aborts += 1;
    }

    /// Records an operation retried after exhaustion recovery freed room.
    pub fn note_exhaustion_retry(&mut self) {
        self.stats.exhaustion_retries += 1;
    }

    // ------------------------------------------------------------------
    // Conflict detection (§3.3, §4.3)
    // ------------------------------------------------------------------

    /// Checks an access that missed the cache against the overflowed
    /// transactional state.
    ///
    /// `requester` is `None` for non-transactional code; such accesses still
    /// conflict-check, and the caller must abort every conflicting
    /// transaction (§2.3.3).
    pub fn check_conflict(
        &mut self,
        requester: Option<TxId>,
        block: PhysBlock,
        word: WordIdx,
        kind: AccessKind,
        now: Cycle,
        bus: &mut SystemBus,
    ) -> ConflictOutcome {
        let frame = block.frame();
        let idx = block.index();
        let mut outcome = ConflictOutcome {
            done_at: now,
            ..Default::default()
        };

        self.prune_cleanup(now);
        if let Some(&until) = self.cleanup_pages.get(&frame) {
            if until > now {
                outcome.stall_until = Some(until);
            }
        }

        let Some(entry) = self.spt.entry(frame) else {
            return outcome;
        };
        let head = entry.tav_head;
        // The incrementally maintained per-page summary vectors — what the
        // VTS reads out of its cached SPT entry; one load pair off the dense
        // hot columns.
        let (rsum, wsum) = self.spt.summaries(frame);

        let mut cost = VtsCost {
            lookups: 1,
            ..Default::default()
        };
        match self.spt_cache.touch(frame) {
            crate::vts::Touch::Hit => self.stats.spt_cache_hits += 1,
            crate::vts::Touch::Miss { evicted_dirty } => {
                self.stats.spt_cache_misses += 1;
                // Walk: read the SPT entry, then every TAV node to rebuild
                // the summary vectors; each walked node lands in the TAV
                // cache (§4.2.2).
                let mut len = 0u32;
                let mut cur = head;
                while let Some(r) = cur {
                    let tx = self.tavs.tx_of(r);
                    cur = self.tavs.next_in_page(r);
                    let _ = self.tav_cache.touch((frame, tx));
                    len += 1;
                }
                cost.memory_accesses += 1 + len + u32::from(evicted_dirty);
                self.stats.tav_walk_nodes += u64::from(len);
            }
        }

        let potential = match kind {
            AccessKind::Read => wsum.get(idx),
            AccessKind::Write => wsum.get(idx) || rsum.get(idx),
        };

        if kind == AccessKind::Read && rsum.get(idx) {
            // Exclusive permission is denied while another transaction has
            // an overflowed read of the block. The summary bit proves *some*
            // transaction read it; only a transactional requester needs the
            // walk to rule out its own node.
            outcome.deny_exclusive = match requester {
                None => true,
                Some(me) => self
                    .tavs
                    .page_iter(head)
                    .any(|r| self.tavs.read_vec(r).get(idx) && self.tavs.tx_of(r) != me),
            };
        }

        if !potential {
            // O(1) early exit: the summary vectors prove no overflowed
            // access can conflict with this one.
            self.stats.conflict_checks_fast += 1;
        } else {
            self.stats.conflict_checks_slow += 1;
            // Summary says "maybe": consult the per-transaction vectors.
            let word_in_page = idx.0 as usize * (BLOCK_SIZE / WORD_SIZE) + word.0 as usize;
            let mut cur = head;
            while let Some(r) = cur {
                let tx = self.tavs.tx_of(r);
                cur = self.tavs.next_in_page(r);
                if Some(tx) == requester {
                    continue;
                }
                let hit = match (kind, self.cfg.granularity.word_in_memory()) {
                    (AccessKind::Read, false) => self.tavs.write_vec(r).get(idx),
                    (AccessKind::Read, true) => self.tavs.write_words(r).get(word_in_page),
                    (AccessKind::Write, false) => {
                        let v = self.tavs.write_vec(r) | self.tavs.read_vec(r);
                        v.get(idx)
                    }
                    (AccessKind::Write, true) => {
                        self.tavs.write_words(r).get(word_in_page)
                            || self.tavs.read_words(r).get(word_in_page)
                    }
                };
                if hit {
                    outcome.conflicts.push(tx);
                }
                cost.lookups += 1;
                match self.tav_cache.touch((frame, tx)) {
                    crate::vts::Touch::Hit => self.stats.tav_cache_hits += 1,
                    crate::vts::Touch::Miss { evicted_dirty } => {
                        self.stats.tav_cache_misses += 1;
                        self.stats.tav_walk_nodes += 1;
                        cost.memory_accesses += 1 + u32::from(evicted_dirty);
                    }
                }
            }
            outcome.conflicts.sort();
            outcome.conflicts.dedup();
            self.stats.overflow_conflicts += outcome.conflicts.len() as u64;
        }

        outcome.done_at = cost.charge(now, self.cfg.vts_lookup_latency, bus);
        outcome
    }

    // ------------------------------------------------------------------
    // Overflow (§3.2, §4.4.3)
    // ------------------------------------------------------------------

    /// Handles the eviction of a transactional cache line.
    ///
    /// `spec` carries the speculative data when the line was dirty. Returns
    /// the cycle the (background) overflow processing finishes, or
    /// [`Exhaustion`] — *before any state is mutated* — when the operation
    /// would need a shadow page with the frame pool empty, or a TAV node
    /// with the arena at capacity. A failed call is side-effect free and may
    /// be retried once the caller frees resources (by aborting a
    /// transaction).
    ///
    /// `in_cache_cowriter` reports whether another live transaction still
    /// holds a word-disjoint write copy of this block in some cache (only
    /// possible in the word-granularity configurations) — it forces the
    /// merge path so the shared speculative page never loses that
    /// transaction's view.
    #[allow(clippy::too_many_arguments)]
    pub fn on_tx_eviction(
        &mut self,
        meta: &TxLineMeta,
        block: PhysBlock,
        spec: Option<&SpecBlock>,
        in_cache_cowriter: bool,
        mem: &mut PhysicalMemory,
        now: Cycle,
        bus: &mut SystemBus,
    ) -> Result<Cycle, Exhaustion> {
        let frame = block.frame();
        let idx = block.index();
        let tx = meta.tx;
        debug_assert!(
            self.spt.entry(frame).is_some(),
            "eviction from unregistered page {frame}"
        );

        // Exhaustion pre-checks, before any caches, stats or structures are
        // touched, so an `Err` leaves the system exactly as it was.
        {
            let entry = self.spt.entry(frame).expect("registered page");
            if self.tavs.find_in_page_list(entry.tav_head, tx).is_none() && self.tavs.at_capacity()
            {
                self.stats.tav_exhaustions += 1;
                return Err(Exhaustion::TavNodes);
            }
            if meta.write && entry.shadow.is_none() && mem.free_frames() == 0 {
                self.stats.frame_exhaustions += 1;
                return Err(Exhaustion::Frames);
            }
        }

        // The eviction's coherence message reaches the VTS.
        let mut done = bus.onchip_transfer(now);
        let mut cost = VtsCost {
            lookups: 2,
            ..Default::default()
        };
        match self.spt_cache.touch(frame) {
            crate::vts::Touch::Hit => self.stats.spt_cache_hits += 1,
            crate::vts::Touch::Miss { evicted_dirty } => {
                self.stats.spt_cache_misses += 1;
                cost.memory_accesses += 1 + u32::from(evicted_dirty);
            }
        }
        match self.tav_cache.touch((frame, tx)) {
            crate::vts::Touch::Hit => self.stats.tav_cache_hits += 1,
            crate::vts::Touch::Miss { evicted_dirty } => {
                self.stats.tav_cache_misses += 1;
                cost.memory_accesses += 1 + u32::from(evicted_dirty);
            }
        }
        self.tav_cache.mark_dirty(&(frame, tx));

        // Pre-update write summary (Copy-PTM needs to know whether this is
        // the block's first dirty overflow), and the pre-update *word*
        // summary (word-mode Copy-PTM backs words up individually).
        let head = self.spt.entry(frame).expect("registered page").tav_head;
        let wsum_before = self.spt.sum_write(frame);
        let word_sum_before = self.tavs.word_write_summary(head);

        // Find or create the (tx, page) TAV node.
        let node_ref = match self.tavs.find_in_page_list(head, tx) {
            Some(r) => r,
            None => {
                let r = self.tavs.alloc(tx, frame);
                // Link at the head of the horizontal (page) list...
                self.tavs.set_next_in_page(r, head);
                self.spt.entry_mut(frame).expect("registered page").tav_head = Some(r);
                // ...and of the vertical (transaction) list.
                let tx_head = self.tstate.entry_mut(tx).tav_head;
                self.tavs.set_next_in_tx(r, tx_head);
                self.tstate.entry_mut(tx).tav_head = Some(r);
                r
            }
        };

        if meta.read {
            // Word vectors are recorded regardless of the conflict
            // granularity: conflict *checks* ignore them in `wd:cache`, but
            // word-selective data movement (merge commits, view selection)
            // always needs them.
            self.tavs.record_read(node_ref, idx, Some(meta.read_words));
            self.spt.mark_sum_read(frame, idx);
        }

        if meta.write {
            let spec = spec.expect("dirty eviction must carry speculative data");
            let first_dirty_overflow = !wsum_before.get(idx);
            self.tavs
                .record_write(node_ref, idx, Some(meta.write_words));
            self.spt.mark_sum_write(frame, idx);
            self.ensure_shadow(frame, mem);
            let entry = self.spt.entry(frame).expect("registered page");
            let home_block = block;
            let shadow_block = block.on_frame(entry.shadow.expect("just ensured"));

            match self.cfg.policy {
                PtmPolicy::Copy => {
                    let contested = self.cfg.granularity.word_in_cache()
                        && (in_cache_cowriter
                            || self.other_writers(frame, idx, tx)
                            || self.is_contested(block));
                    if contested {
                        self.mark_contested(block);
                        // Word-granular Copy-PTM: the per-block backup goes
                        // stale once a co-writer commits into the home page,
                        // so each word is backed up individually the first
                        // time any live transaction's overflow claims it.
                        let base = idx.0 as usize * (BLOCK_SIZE / WORD_SIZE);
                        let mut fresh = WordMask::EMPTY;
                        for w in spec.written.iter() {
                            if !word_sum_before.get(base + w.0 as usize) {
                                fresh.set(w);
                            }
                        }
                        if !fresh.is_empty() {
                            restore_words(mem, home_block, shadow_block, fresh);
                            self.stats.backup_copies += 1;
                            cost.memory_accesses += 2;
                        }
                        let mut target = mem.read_block(home_block);
                        ptm_mem::versions::apply_written_words(&mut target, spec);
                        mem.write_block(home_block, &target);
                    } else {
                        // Back up the committed block once, then write the
                        // speculative data to the home page (§3.2.1).
                        if first_dirty_overflow {
                            mem.copy_block(home_block, shadow_block);
                            self.stats.backup_copies += 1;
                            cost.memory_accesses += 2;
                        }
                        mem.write_block(home_block, &spec.data);
                    }
                    cost.memory_accesses += 1;
                }
                PtmPolicy::Select => {
                    let contested = self.cfg.granularity.word_in_cache()
                        && (in_cache_cowriter
                            || self.other_writers(frame, idx, tx)
                            || self.is_contested(block));
                    if contested {
                        self.mark_contested(block);
                    }
                    let entry = self.spt.entry(frame).expect("registered page");
                    let spec_block = block.on_frame(entry.speculative_frame(idx));
                    if contested {
                        // A second writer exists (or ever existed): write
                        // only the words this transaction owns — a byte-
                        // enabled partial write in hardware. The commit for
                        // contested blocks *merges* instead of toggling.
                        let mut target = mem.read_block(spec_block);
                        ptm_mem::versions::apply_written_words(&mut target, spec);
                        mem.write_block(spec_block, &target);
                    } else {
                        // Sole writer ever: the buffer is a consistent
                        // whole-block snapshot and doubles as the page's
                        // valid image, keeping the zero-copy toggle commit.
                        mem.write_block(spec_block, &spec.data);
                    }
                    cost.memory_accesses += 1;
                }
            }
            self.stats.dirty_overflows += 1;
        } else {
            self.stats.clean_overflows += 1;
        }

        self.stats.peak_tav_nodes = self.stats.peak_tav_nodes.max(self.tavs.peak() as u64);
        done = cost.charge(done, self.cfg.vts_lookup_latency, bus);
        Ok(done)
    }

    fn ensure_shadow(&mut self, frame: FrameId, mem: &mut PhysicalMemory) {
        let entry = self.spt.entry_mut(frame).expect("registered page");
        if entry.shadow.is_none() {
            // `on_tx_eviction` pre-checked the pool, so this cannot fail.
            let shadow = mem
                .alloc()
                .expect("shadow allocation despite free-frame pre-check");
            entry.shadow = Some(shadow);
            self.stats.shadow_allocs += 1;
            self.live_shadows += 1;
            self.stats.peak_shadow_pages = self.stats.peak_shadow_pages.max(self.live_shadows);
        }
    }

    // ------------------------------------------------------------------
    // Fetch path (§4.4.1, Figure 3)
    // ------------------------------------------------------------------

    /// The frame a cache miss should fetch `block` from: XOR of the write
    /// summary bit and the selection bit picks home vs shadow (Figure 3).
    /// Copy-PTM always fetches from the home page.
    pub fn fetch_frame(&self, block: PhysBlock) -> FrameId {
        let frame = block.frame();
        let idx = block.index();
        let Some(entry) = self.spt.entry(frame) else {
            return frame;
        };
        match (self.cfg.policy, entry.shadow) {
            (PtmPolicy::Copy, _) | (_, None) => frame,
            (PtmPolicy::Select, Some(shadow)) => {
                if self.spt.sum_write(frame).get(idx) ^ entry.sel.get(idx) {
                    shadow
                } else {
                    frame
                }
            }
        }
    }

    /// The frame holding the *committed* version of `block`.
    pub fn committed_frame(&self, block: PhysBlock) -> FrameId {
        let frame = block.frame();
        let idx = block.index();
        let Some(entry) = self.spt.entry(frame) else {
            return frame;
        };
        match self.cfg.policy {
            PtmPolicy::Select => entry.committed_frame(idx),
            PtmPolicy::Copy => {
                // If a live transaction's speculative data occupies the home
                // block, the committed version is the shadow backup.
                match entry.shadow {
                    Some(shadow) if self.spt.sum_write(frame).get(idx) => shadow,
                    _ => frame,
                }
            }
        }
    }

    /// [`Self::committed_frame`] for a swapped-out page: the swap slot whose
    /// image holds the *committed* version of block `idx`, given the home
    /// image's slot. A Select page's set selection bit redirects the block
    /// to the shadow image; a Copy page whose home block carries a live
    /// writer's speculative data keeps the committed version in the backup.
    pub fn committed_swap_slot(&self, slot: SwapSlot, idx: BlockIdx) -> SwapSlot {
        let Some(entry) = self.sit.entry(slot) else {
            return slot;
        };
        let Some(shadow_slot) = entry.shadow_slot else {
            return slot;
        };
        let in_shadow = match self.cfg.policy {
            PtmPolicy::Select => entry.sel.get(idx),
            PtmPolicy::Copy => entry.sum_write.get(idx),
        };
        if in_shadow {
            shadow_slot
        } else {
            slot
        }
    }

    /// The frame transaction `tx` should read `word` of `block` from: its
    /// own overflowed speculative version when it has one, otherwise the
    /// committed version. One bit of [`Self::tx_view_block`].
    pub fn tx_view_frame(&self, tx: TxId, block: PhysBlock, word: WordIdx) -> FrameId {
        let (committed, speculative, mask) = self.tx_view_block(tx, block);
        if mask.get(word) {
            speculative
        } else {
            committed
        }
    }

    /// Transaction `tx`'s view of a whole block: `(committed, speculative,
    /// mask)`, where the words in `mask` read from the `speculative` frame
    /// (its own overflowed version) and the rest from the `committed` one.
    /// Block modes give an empty or full mask; word modes the words `tx`
    /// wrote. With an empty mask, `speculative` is `committed`.
    pub fn tx_view_block(&self, tx: TxId, block: PhysBlock) -> (FrameId, FrameId, WordMask) {
        let frame = block.frame();
        let idx = block.index();
        let Some(entry) = self.spt.entry(frame) else {
            return (frame, frame, WordMask::EMPTY);
        };
        let committed = self.committed_frame(block);
        let Some(node_ref) = self.tavs.find_in_page_list(entry.tav_head, tx) else {
            return (committed, committed, WordMask::EMPTY);
        };
        let mask = if self.cfg.granularity.word_in_cache() {
            // Word modes: the speculative page only holds the words this
            // transaction wrote; everything else reads the committed page.
            self.tavs.write_words(node_ref).block_words(idx)
        } else if self.tavs.write_vec(node_ref).get(idx) {
            WordMask::FULL
        } else {
            WordMask::EMPTY
        };
        if mask == WordMask::EMPTY {
            return (committed, committed, mask);
        }
        let speculative = match self.cfg.policy {
            PtmPolicy::Copy => frame, // speculative data lives in the home page
            PtmPolicy::Select => entry.speculative_frame(idx),
        };
        (committed, speculative, mask)
    }

    /// Whether `tx` has an overflowed dirty version of `block`.
    pub fn tx_wrote_overflowed(&self, tx: TxId, block: PhysBlock) -> bool {
        let Some(entry) = self.spt.entry(block.frame()) else {
            return false;
        };
        self.tavs
            .find_in_page_list(entry.tav_head, tx)
            .map(|r| self.tavs.write_vec(r).get(block.index()))
            .unwrap_or(false)
    }

    /// Marks a block *contested*: a second writer (transactional or not)
    /// touched it while another writer's transactional state was live. The
    /// word-granularity configurations downgrade contested blocks from the
    /// whole-block / selection-toggle fast path to word-masked merging.
    pub fn mark_contested(&mut self, block: PhysBlock) {
        if let Some(entry) = self.spt.entry_mut(block.frame()) {
            entry.contested.set(block.index());
        }
    }

    /// Whether `block` has ever been contested.
    pub fn is_contested(&self, block: PhysBlock) -> bool {
        self.spt
            .entry(block.frame())
            .map(|e| e.contested.get(block.index()))
            .unwrap_or(false)
    }

    /// Whether any transaction has overflowed state (read or write) for
    /// this specific block — the per-block *overflow bit* the directory
    /// variant keeps (§4.6). The simulator uses it to filter which cache
    /// hits need a VTS consultation in the word-granularity configurations;
    /// it is a pure state query with no timing cost, like the hardware bit.
    pub fn block_overflowed(&self, block: PhysBlock, exclude: Option<TxId>) -> bool {
        let Some(entry) = self.spt.entry(block.frame()) else {
            return false;
        };
        let idx = block.index();
        if !self.spt.summary_hit(block.frame(), idx) {
            return false;
        }
        self.tavs.page_iter(entry.tav_head).any(|r| {
            Some(self.tavs.tx_of(r)) != exclude
                && (self.tavs.write_vec(r) | self.tavs.read_vec(r)).get(idx)
        })
    }

    /// Every transaction with an overflowed dirty version of `block`.
    ///
    /// Used by the `wd:cache` configuration's eviction rule: the overflow
    /// structures track only one writer per block, so evicting a block that
    /// a *different* transaction already write-overflowed forces an abort
    /// (§6.3).
    pub fn overflow_writers(&self, block: PhysBlock) -> impl Iterator<Item = TxId> + '_ {
        let idx = block.index();
        // The write-summary pre-filter: when the page has no dirty overflow
        // of this block at all, the walk never starts.
        let head = if self.spt.sum_write(block.frame()).get(idx) {
            self.spt.entry(block.frame()).and_then(|e| e.tav_head)
        } else {
            None
        };
        self.tavs
            .page_iter(head)
            .filter(move |r| self.tavs.write_vec(*r).get(idx))
            .map(|r| self.tavs.tx_of(r))
    }

    /// Where committed-side word writes must be *mirrored* in the
    /// word-granularity configurations.
    ///
    /// When another live transaction holds an overflowed speculative version
    /// of `block` (word-disjoint by conflict detection), its speculative
    /// page must observe words committed by others — otherwise its eventual
    /// commit (Select's selection toggle, or Copy's home page becoming
    /// committed) would resurrect stale values. Returns the speculative
    /// location to mirror into, or `None` when no mirroring is needed
    /// (block granularity forbids co-writers outright).
    pub fn mirror_location(&self, block: PhysBlock, exclude: Option<TxId>) -> Option<PhysBlock> {
        if !self.cfg.granularity.word_in_cache() {
            return None;
        }
        let entry = self.spt.entry(block.frame())?;
        entry.shadow?;
        let has_other_writer = self
            .overflow_writers(block)
            .into_iter()
            .any(|w| Some(w) != exclude && self.is_live(w));
        if !has_other_writer {
            return None;
        }
        let target = match self.cfg.policy {
            PtmPolicy::Select => entry.speculative_frame(block.index()),
            PtmPolicy::Copy => block.frame(),
        };
        Some(block.on_frame(target))
    }

    // ------------------------------------------------------------------
    // Commit / abort (§3.4, §4.5)
    // ------------------------------------------------------------------

    /// Commits `tx`: logical commit is immediate; TAV cleanup (selection
    /// vector toggling for Select-PTM, node freeing) is charged lazily and
    /// installs per-page stall windows. Returns the cleanup-complete cycle.
    pub fn commit(
        &mut self,
        tx: TxId,
        mem: &mut PhysicalMemory,
        swap: &mut SwapStore,
        now: Cycle,
        bus: &mut SystemBus,
    ) -> Cycle {
        self.tstate.set_status(tx, TxStatus::Committing);
        let head = self.tstate.entry(tx).tav_head;
        let mut t = now;

        self.stats.tx_dirty_page_sum += self
            .tavs
            .tx_iter(head)
            .filter(|r| !self.tavs.write_vec(*r).is_empty())
            .count() as u64;

        // Cursor walk: read each node's vertical link before its page-side
        // unlink frees it.
        let mut cur = head;
        while let Some(r) = cur {
            let frame = self.tavs.page_of(r);
            let write_vec = self.tavs.write_vec(r);
            cur = self.tavs.next_in_tx(r);
            let mut cost = VtsCost {
                lookups: 2,
                ..Default::default()
            };
            match self.tav_cache.touch((frame, tx)) {
                crate::vts::Touch::Hit => self.stats.tav_cache_hits += 1,
                crate::vts::Touch::Miss { evicted_dirty } => {
                    self.stats.tav_cache_misses += 1;
                    cost.memory_accesses += 1 + u32::from(evicted_dirty);
                }
            }

            if let Some(slot) = sentinel_slot(frame) {
                // The page was swapped out while this transaction still had
                // overflowed state on it. Complete the commit against the
                // SIT entry and the swap images in place (§3.5.1) — no
                // swap-in, and therefore no frame allocation, is needed.
                if self.cfg.policy == PtmPolicy::Select {
                    for idx in write_vec.iter() {
                        let entry = self.sit.entry(slot).expect("SIT entry for swapped page");
                        if self.cfg.granularity.word_in_cache() && entry.contested.get(idx) {
                            self.merge_written_words_swapped(r, slot, idx, swap);
                            self.stats.word_merge_copies += 1;
                            cost.memory_accesses += 2;
                        } else {
                            let entry = self
                                .sit
                                .entry_mut(slot)
                                .expect("SIT entry for swapped page");
                            entry.sel.toggle(idx);
                            self.stats.selection_toggles += 1;
                        }
                    }
                }
                self.unlink_and_free_swapped(r, slot, tx);
                t = cost.charge(t, self.cfg.vts_lookup_latency, bus);
                self.maybe_free_shadow_swapped(slot, swap);
                continue;
            }

            if self.cfg.policy == PtmPolicy::Select {
                for idx in write_vec.iter() {
                    if self.cfg.granularity.word_in_cache()
                        && self.is_contested(PhysBlock::new(frame, idx))
                    {
                        // Contested block: the per-block selection bit
                        // cannot represent word-disjoint ownership, so the
                        // commit merges this transaction's words into the
                        // committed page (the cost word granularity pays on
                        // co-written overflowed blocks).
                        self.merge_written_words(r, frame, idx, mem);
                        self.stats.word_merge_copies += 1;
                        cost.memory_accesses += 2;
                    } else {
                        let entry = self.spt.entry_mut(frame).expect("page present");
                        entry.sel.toggle(idx);
                        self.stats.selection_toggles += 1;
                    }
                }
                self.spt_cache.mark_dirty(&frame);
            }

            self.unlink_and_free(r, frame, tx);
            t = cost.charge(t, self.cfg.vts_lookup_latency, bus);
            self.cleanup_pages.insert(frame, t);
            self.maybe_free_shadow(frame, mem);
        }

        self.tstate.entry_mut(tx).tav_head = None;
        self.tstate.set_status(tx, TxStatus::Committed);
        self.stats.commits += 1;
        t
    }

    /// Aborts `tx`: Select-PTM only frees TAV nodes (selection bits already
    /// point at the committed data); Copy-PTM must restore every overwritten
    /// home block from its shadow backup. Returns the cleanup-complete cycle.
    pub fn abort(
        &mut self,
        tx: TxId,
        mem: &mut PhysicalMemory,
        swap: &mut SwapStore,
        now: Cycle,
        bus: &mut SystemBus,
    ) -> Cycle {
        self.tstate.set_status(tx, TxStatus::Aborting);
        let mut cur = self.tstate.entry(tx).tav_head;
        let mut t = now;

        while let Some(r) = cur {
            let frame = self.tavs.page_of(r);
            let write_vec = self.tavs.write_vec(r);
            cur = self.tavs.next_in_tx(r);
            let mut cost = VtsCost {
                lookups: 2,
                ..Default::default()
            };
            match self.tav_cache.touch((frame, tx)) {
                crate::vts::Touch::Hit => self.stats.tav_cache_hits += 1,
                crate::vts::Touch::Miss { evicted_dirty } => {
                    self.stats.tav_cache_misses += 1;
                    cost.memory_accesses += 1 + u32::from(evicted_dirty);
                }
            }

            if let Some(slot) = sentinel_slot(frame) {
                // Aborting a transaction whose page is swapped out: Copy-PTM
                // restores the overwritten blocks of the swapped home image
                // from the swapped shadow backup; Select-PTM needs no data
                // movement (selection bits were never toggled). Either way
                // the node is unlinked from the SIT entry in place.
                if self.cfg.policy == PtmPolicy::Copy && !write_vec.is_empty() {
                    let shadow_slot = self
                        .sit
                        .entry(slot)
                        .expect("SIT entry for swapped page")
                        .shadow_slot
                        .expect("dirty overflow implies a shadow page");
                    let mut home_img = swap.peek(slot);
                    let shadow_img = swap.peek(shadow_slot);
                    for idx in write_vec.iter() {
                        if self.cfg.granularity.word_in_cache() {
                            let mask = self.tavs.write_words(r).block_words(idx);
                            copy_image_words(&shadow_img, &mut home_img, idx, mask);
                        } else {
                            copy_image_block(&shadow_img, &mut home_img, idx);
                        }
                        self.stats.restore_copies += 1;
                        cost.memory_accesses += 2;
                    }
                    swap.update(slot, home_img);
                }
                self.unlink_and_free_swapped(r, slot, tx);
                t = cost.charge(t, self.cfg.vts_lookup_latency, bus);
                self.maybe_free_shadow_swapped(slot, swap);
                continue;
            }

            if self.cfg.policy == PtmPolicy::Copy {
                let entry = self.spt.entry(frame).expect("page present");
                let shadow = entry.shadow;
                for idx in write_vec.iter() {
                    let shadow = shadow.expect("dirty overflow implies a shadow page");
                    let home_block = PhysBlock::new(frame, idx);
                    let shadow_block = home_block.on_frame(shadow);
                    if self.cfg.granularity.word_in_cache() {
                        // Home holds word-masked speculative writes: restore
                        // exactly those words from the backup.
                        let mask = self.tavs.write_words(r).block_words(idx);
                        restore_words(mem, shadow_block, home_block, mask);
                    } else {
                        mem.copy_block(shadow_block, home_block);
                    }
                    self.stats.restore_copies += 1;
                    cost.memory_accesses += 2;
                }
            }
            // Select-PTM aborts need no data movement at any granularity:
            // block mode never toggled, and word mode commits merge only a
            // live transaction's own words, so dead speculative words in
            // the page are simply never read again.

            self.unlink_and_free(r, frame, tx);
            t = cost.charge(t, self.cfg.vts_lookup_latency, bus);
            self.cleanup_pages.insert(frame, t);
            self.maybe_free_shadow(frame, mem);
        }

        self.tstate.entry_mut(tx).tav_head = None;
        self.tstate.set_status(tx, TxStatus::Aborted);
        self.stats.aborts += 1;
        t
    }

    fn other_writers(&self, frame: FrameId, idx: BlockIdx, tx: TxId) -> bool {
        if !self.spt.sum_write(frame).get(idx) {
            return false;
        }
        let entry = self.spt.entry(frame).expect("page present");
        self.tavs
            .page_iter(entry.tav_head)
            .any(|r| self.tavs.tx_of(r) != tx && self.tavs.write_vec(r).get(idx))
    }

    fn merge_written_words(
        &mut self,
        node: TavRef,
        frame: FrameId,
        idx: BlockIdx,
        mem: &mut PhysicalMemory,
    ) {
        let mask = self.tavs.write_words(node).block_words(idx);
        let entry = self.spt.entry(frame).expect("page present");
        let spec = PhysBlock::new(frame, idx).on_frame(entry.speculative_frame(idx));
        let committed = PhysBlock::new(frame, idx).on_frame(entry.committed_frame(idx));
        restore_words(mem, spec, committed, mask);
    }

    fn unlink_and_free(&mut self, r: TavRef, frame: FrameId, tx: TxId) {
        let head = self.spt.entry(frame).expect("page present").tav_head;
        let new_head = self.tavs.unlink_from_page_list(head, r);
        self.tavs.free(r);
        // Summaries shrink on unlink, so rebuild them from the survivors —
        // the only remaining full walk on the commit/abort path.
        let (sum_read, sum_write) = self.tavs.block_summaries(new_head);
        self.spt.entry_mut(frame).expect("page present").tav_head = new_head;
        self.spt.set_summaries(frame, sum_read, sum_write);
        self.tav_cache.remove(&(frame, tx));
    }

    /// `unlink_and_free` for a node whose page is swapped out: the list
    /// anchor and summary vectors live in the SIT entry instead of the SPT.
    fn unlink_and_free_swapped(&mut self, r: TavRef, slot: SwapSlot, tx: TxId) {
        let head = self
            .sit
            .entry(slot)
            .expect("SIT entry for swapped page")
            .tav_head;
        let new_head = self.tavs.unlink_from_page_list(head, r);
        self.tavs.free(r);
        let (sum_read, sum_write) = self.tavs.block_summaries(new_head);
        let entry = self
            .sit
            .entry_mut(slot)
            .expect("SIT entry for swapped page");
        entry.tav_head = new_head;
        entry.sum_read = sum_read;
        entry.sum_write = sum_write;
        self.tav_cache.remove(&(swap_sentinel(slot), tx));
    }

    /// `merge_written_words` against swap images: the committed copy of a
    /// contested block lives in whichever swapped image the selection bit
    /// points at; merge this transaction's written words into it in place.
    fn merge_written_words_swapped(
        &mut self,
        node: TavRef,
        slot: SwapSlot,
        idx: BlockIdx,
        swap: &mut SwapStore,
    ) {
        let mask = self.tavs.write_words(node).block_words(idx);
        let entry = self.sit.entry(slot).expect("SIT entry for swapped page");
        let shadow_slot = entry
            .shadow_slot
            .expect("contested overflow implies a shadow page");
        // Committed block in the shadow iff the selection bit is set; the
        // speculative copy is on the opposite page.
        let (spec_slot, committed_slot) = if entry.sel.get(idx) {
            (slot, shadow_slot)
        } else {
            (shadow_slot, slot)
        };
        let spec_img = swap.peek(spec_slot);
        let mut committed_img = swap.peek(committed_slot);
        copy_image_words(&spec_img, &mut committed_img, idx, mask);
        swap.update(committed_slot, committed_img);
    }

    /// [`Self::maybe_free_shadow`] for a swapped-out page: once no TAV node
    /// references the page, fold any committed shadow blocks into the home
    /// image (Select-PTM) and discard the shadow's swap slot.
    fn maybe_free_shadow_swapped(&mut self, slot: SwapSlot, swap: &mut SwapStore) {
        let entry = self.sit.entry(slot).expect("SIT entry for swapped page");
        if entry.tav_head.is_some() {
            return;
        }
        let Some(shadow_slot) = entry.shadow_slot else {
            return;
        };
        if self.cfg.policy == PtmPolicy::Select && !entry.sel.is_empty() {
            // Merge-on-free, the swapped analogue of merge-on-swap: bring
            // the committed blocks home so the shadow image can go.
            let shadow_img = swap.peek(shadow_slot);
            let mut home_img = swap.peek(slot);
            let sel: Vec<BlockIdx> = entry.sel.iter().collect();
            for idx in sel {
                copy_image_block(&shadow_img, &mut home_img, idx);
            }
            swap.update(slot, home_img);
        }
        swap.discard(shadow_slot);
        let entry = self
            .sit
            .entry_mut(slot)
            .expect("SIT entry for swapped page");
        entry.shadow_slot = None;
        entry.sel = ptm_types::BlockVec::EMPTY;
        self.stats.shadow_frees += 1;
    }

    /// Frees a page's shadow when it no longer holds any needed data: for
    /// Copy-PTM, as soon as no transaction uses the page; for Select-PTM,
    /// additionally the selection vector must be clear (no committed block
    /// lives in the shadow).
    fn maybe_free_shadow(&mut self, frame: FrameId, mem: &mut PhysicalMemory) {
        let entry = self.spt.entry(frame).expect("page present");
        if entry.tav_head.is_some() || entry.shadow.is_none() {
            return;
        }
        let can_free = match self.cfg.policy {
            PtmPolicy::Copy => true,
            PtmPolicy::Select => entry.sel.is_empty(),
        };
        if can_free {
            let entry = self.spt.entry_mut(frame).expect("page present");
            let shadow = entry.shadow.take().expect("checked above");
            mem.free(shadow);
            self.stats.shadow_frees += 1;
            self.live_shadows -= 1;
        }
    }

    fn prune_cleanup(&mut self, now: Cycle) {
        // Hot-path guard: the map is empty for the vast majority of checks,
        // and `retain` on a HashMap still walks every bucket.
        if !self.cleanup_pages.is_empty() {
            self.cleanup_pages.retain(|_, t| *t > now);
        }
    }

    // ------------------------------------------------------------------
    // Paging (§3.5.1) and shadow freeing (§3.5.2)
    // ------------------------------------------------------------------

    /// Swaps a home page out: merges (Select-PTM, merge-on-swap, unused
    /// shadow) or co-swaps the shadow, stores both pages' data, and migrates
    /// the SPT entry into the SIT. The caller updates the page table with
    /// the returned slot and must not pick shadow pages as swap victims.
    pub fn on_swap_out(
        &mut self,
        frame: FrameId,
        mem: &mut PhysicalMemory,
        swap: &mut SwapStore,
    ) -> SwapOut {
        let mut entry = self
            .spt
            .remove(frame)
            .unwrap_or_else(|| panic!("swapping unregistered page {frame}"));
        let transactional = entry.tav_head.is_some() || entry.shadow.is_some();

        // Merge-on-swap: fold committed shadow blocks into the home image
        // and free the shadow before it ever reaches the swap file.
        if self.cfg.policy == PtmPolicy::Select && entry.tav_head.is_none() {
            if let Some(shadow) = entry.shadow.take() {
                for idx in entry.sel.iter().collect::<Vec<_>>() {
                    let home_block = PhysBlock::new(frame, idx);
                    mem.copy_block(home_block.on_frame(shadow), home_block);
                }
                entry.sel = ptm_types::BlockVec::EMPTY;
                mem.free(shadow);
                self.stats.shadow_frees += 1;
                self.live_shadows -= 1;
            }
        }
        if self.cfg.policy == PtmPolicy::Copy && entry.tav_head.is_none() {
            if let Some(shadow) = entry.shadow.take() {
                mem.free(shadow);
                self.stats.shadow_frees += 1;
                self.live_shadows -= 1;
            }
        }

        let home_slot = swap.store(mem.read_frame(frame));
        mem.free(frame);
        let shadow_slot = entry.shadow.map(|shadow| {
            let slot = swap.store(mem.read_frame(shadow));
            mem.free(shadow);
            self.live_shadows -= 1;
            slot
        });

        // Repoint the page's TAV nodes at the swap sentinel: a node must
        // never keep referencing the freed frame (which the allocator may
        // hand to an unrelated page), and the sentinel encodes the swap slot
        // so commit/abort can clean up against the SIT while the page is
        // out (§3.5.1).
        self.tavs
            .repoint_page_list(entry.tav_head, swap_sentinel(home_slot));
        self.sit
            .insert(SitEntry::from_spt(&entry, home_slot, shadow_slot));
        self.spt_cache.remove(&frame);
        self.tav_cache.remove_matching(|(f, _)| *f == frame);
        if transactional {
            self.stats.tx_swap_outs += 1;
        }
        SwapOut { home_slot }
    }

    /// Swaps a page back in: allocates fresh frames for home (and shadow),
    /// reloads their data, migrates the SIT entry back to the SPT under the
    /// new frame number, and repoints the page's TAV nodes. Returns the new
    /// home frame, or [`Exhaustion::Frames`] — with the SIT entry left in
    /// place, so the fault may simply be retried — when the pool cannot
    /// cover the home frame plus its co-swapped shadow.
    pub fn on_swap_in(
        &mut self,
        home_slot: SwapSlot,
        mem: &mut PhysicalMemory,
        swap: &mut SwapStore,
    ) -> Result<FrameId, Exhaustion> {
        // Pre-check the whole burst before removing the SIT entry: a failed
        // swap-in must be idempotent.
        let needed = {
            let entry = self
                .sit
                .entry(home_slot)
                .unwrap_or_else(|| panic!("no SIT entry for {home_slot}"));
            1 + usize::from(entry.shadow_slot.is_some())
        };
        if mem.free_frames() < needed {
            self.stats.frame_exhaustions += 1;
            return Err(Exhaustion::Frames);
        }

        let sit_entry = self.sit.remove(home_slot).expect("entry checked above");
        let home = mem.alloc().expect("pre-checked free frames");
        mem.write_frame(home, &swap.load(home_slot));

        let shadow = sit_entry.shadow_slot.map(|slot| {
            let f = mem.alloc().expect("pre-checked free frames");
            mem.write_frame(f, &swap.load(slot));
            self.live_shadows += 1;
            f
        });

        // Repoint the page's TAV nodes at the new frame.
        self.tavs.repoint_page_list(sit_entry.tav_head, home);
        // Drop any sentinel-keyed TAV cache entries: the slot may be reused
        // by an unrelated page once its data is loaded.
        self.tav_cache
            .remove_matching(|(f, _)| *f == swap_sentinel(home_slot));

        self.spt.insert(SptEntry {
            home,
            shadow,
            sel: sit_entry.sel,
            contested: sit_entry.contested,
            tav_head: sit_entry.tav_head,
            sum_read: sit_entry.sum_read,
            sum_write: sit_entry.sum_write,
        });
        if sit_entry.tav_head.is_some() || shadow.is_some() {
            self.stats.tx_swap_ins += 1;
        }
        Ok(home)
    }

    /// Lazy shadow-page reclamation hook (§3.5.2): when a non-speculative
    /// dirty block is written back and its committed copy lives in the
    /// shadow, migrate it to the home page and toggle the selection bit —
    /// unless a live transaction's speculative data occupies the home slot.
    pub fn on_nontx_dirty_writeback(&mut self, block: PhysBlock, mem: &mut PhysicalMemory) {
        if self.cfg.policy != PtmPolicy::Select
            || self.cfg.shadow_free != ShadowFreePolicy::LazyMigrate
        {
            return;
        }
        let frame = block.frame();
        let idx = block.index();
        let Some(entry) = self.spt.entry(frame) else {
            return;
        };
        let Some(shadow) = entry.shadow else {
            return;
        };
        if !entry.sel.get(idx) {
            return;
        }
        // The home slot currently holds (or may soon hold) speculative data
        // if any live transaction overflowed a write to this block.
        if self.spt.sum_write(frame).get(idx) {
            return;
        }
        mem.copy_block(block.on_frame(shadow), block);
        let entry = self.spt.entry_mut(frame).expect("just looked up");
        entry.sel.clear(idx);
        self.stats.lazy_migrations += 1;
        self.spt_cache.mark_dirty(&frame);
        self.maybe_free_shadow(frame, mem);
    }
}

/// Copies the masked words of `src` onto `dst`.
/// Frame-number sentinel for swapped-out pages. TAV nodes of a swapped page
/// are repointed here so that (a) they can never alias a reallocated real
/// frame and (b) commit/abort can recover the page's swap slot from the
/// node alone, completing lazy cleanup without swapping the page back in.
/// Physical frame numbers are bounded by memory size (thousands); the
/// sentinel range grows downward from `u32::MAX`, so the two can never meet.
const SWAP_SENTINEL_BASE: u32 = u32::MAX;

pub(crate) fn swap_sentinel(slot: SwapSlot) -> FrameId {
    FrameId(SWAP_SENTINEL_BASE - slot.0)
}

pub(crate) fn sentinel_slot(frame: FrameId) -> Option<SwapSlot> {
    (frame.0 > SWAP_SENTINEL_BASE / 2).then(|| SwapSlot(SWAP_SENTINEL_BASE - frame.0))
}

/// Copies block `idx` from one swapped page image to another.
pub(crate) fn copy_image_block(
    src: &[u8; ptm_types::PAGE_SIZE],
    dst: &mut [u8; ptm_types::PAGE_SIZE],
    idx: BlockIdx,
) {
    let off = idx.0 as usize * BLOCK_SIZE;
    dst[off..off + BLOCK_SIZE].copy_from_slice(&src[off..off + BLOCK_SIZE]);
}

/// Copies the masked words of block `idx` between swapped page images.
pub(crate) fn copy_image_words(
    src: &[u8; ptm_types::PAGE_SIZE],
    dst: &mut [u8; ptm_types::PAGE_SIZE],
    idx: BlockIdx,
    mask: WordMask,
) {
    let base = idx.0 as usize * BLOCK_SIZE;
    for w in mask.iter() {
        let off = base + w.0 as usize * WORD_SIZE;
        dst[off..off + WORD_SIZE].copy_from_slice(&src[off..off + WORD_SIZE]);
    }
}

pub(crate) fn restore_words(
    mem: &mut PhysicalMemory,
    src: PhysBlock,
    dst: PhysBlock,
    mask: WordMask,
) {
    let from = mem.read_block(src);
    let mut to = mem.read_block(dst);
    for w in mask.iter() {
        let off = w.0 as usize * WORD_SIZE;
        to[off..off + WORD_SIZE].copy_from_slice(&from[off..off + WORD_SIZE]);
    }
    mem.write_block(dst, &to);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_cache::BusTimings;
    use ptm_types::{Granularity, BLOCKS_PER_PAGE, WORDS_PER_BLOCK};

    /// The per-word rule `tx_view_frame` applied before it became one bit
    /// of `tx_view_block`, kept here as the reference: whether `tx`'s TAV
    /// node has `word` of `block` in its write set (block modes: the
    /// block's write bit), and the frame `tx` reads the word from.
    fn per_word_view(p: &PtmSystem, tx: TxId, block: PhysBlock, word: WordIdx) -> (bool, FrameId) {
        let frame = block.frame();
        let idx = block.index();
        let Some(entry) = p.spt.entry(frame) else {
            return (false, frame);
        };
        let Some(node_ref) = p.tavs.find_in_page_list(entry.tav_head, tx) else {
            return (false, p.committed_frame(block));
        };
        let wrote = if p.cfg.granularity.word_in_cache() {
            let word_in_page = idx.0 as usize * WORDS_PER_BLOCK + word.0 as usize;
            p.tavs.write_words(node_ref).get(word_in_page)
        } else {
            p.tavs.write_vec(node_ref).get(idx)
        };
        if !wrote {
            return (false, p.committed_frame(block));
        }
        let speculative = match p.cfg.policy {
            PtmPolicy::Copy => frame,
            PtmPolicy::Select => entry.speculative_frame(idx),
        };
        (true, speculative)
    }

    /// Overflows `tx`'s line for block `idx` of `frame`, having written
    /// `words` (none: a clean, read-only overflow).
    fn overflow(
        p: &mut PtmSystem,
        mem: &mut PhysicalMemory,
        bus: &mut SystemBus,
        tx: TxId,
        (frame, idx): (u32, u8),
        words: &[u8],
    ) {
        let mut meta = TxLineMeta::new(tx);
        let mut spec = SpecBlock {
            data: [0xA5; BLOCK_SIZE],
            written: WordMask::EMPTY,
        };
        meta.record_read(WordIdx(0));
        for &w in words {
            meta.record_write(WordIdx(w));
            spec.written.set(WordIdx(w));
        }
        let block = PhysBlock::new(FrameId(frame), BlockIdx(idx));
        let spec = (!words.is_empty()).then_some(&spec);
        p.on_tx_eviction(&meta, block, spec, false, mem, 0, bus)
            .expect("frames to spare");
    }

    #[test]
    fn block_view_matches_the_tav_write_bits_and_the_per_word_rule() {
        let granularities = [Granularity::Block, Granularity::WordCacheMem];
        for policy in [PtmPolicy::Copy, PtmPolicy::Select] {
            for granularity in granularities {
                let mut p = PtmSystem::new(PtmConfig {
                    policy,
                    granularity,
                    ..PtmConfig::select()
                });
                let mut mem = PhysicalMemory::new(32);
                let mut bus = SystemBus::new(BusTimings::default());
                for _ in 0..4 {
                    let f = mem.alloc().expect("free frame");
                    p.on_page_alloc(f);
                }
                // A committed writer moves Select's committed copy of
                // (0, 6) to the shadow page.
                let (t0, t1, t2, done) = (TxId(0), TxId(1), TxId(2), TxId(3));
                p.begin(done, None);
                overflow(&mut p, &mut mem, &mut bus, done, (0, 6), &[1]);
                p.commit(done, &mut mem, &mut SwapStore::new(), 10, &mut bus);
                for tx in [t0, t1, t2] {
                    p.begin(tx, None);
                }
                overflow(&mut p, &mut mem, &mut bus, t0, (0, 2), &[0, 3]);
                overflow(&mut p, &mut mem, &mut bus, t0, (0, 5), &[]);
                let all: Vec<u8> = (0..WORDS_PER_BLOCK as u8).collect();
                overflow(&mut p, &mut mem, &mut bus, t0, (0, 9), &all);
                overflow(&mut p, &mut mem, &mut bus, t1, (1, 4), &[7]);
                overflow(&mut p, &mut mem, &mut bus, t1, (0, 6), &[2, 15]);

                let label = format!("{policy:?}/{granularity:?}");
                let mut written = 0;
                for tx in [t0, t1, t2, done] {
                    for frame in 0..4 {
                        for idx in 0..BLOCKS_PER_PAGE as u8 {
                            let block = PhysBlock::new(FrameId(frame), BlockIdx(idx));
                            let (committed, speculative, mask) = p.tx_view_block(tx, block);
                            if mask == WordMask::EMPTY {
                                assert_eq!(committed, speculative, "{label} {tx} {block}");
                            }
                            for w in (0..WORDS_PER_BLOCK as u8).map(WordIdx) {
                                let (bit, want) = per_word_view(&p, tx, block, w);
                                written += u32::from(bit);
                                assert_eq!(mask.get(w), bit, "{label} {tx} {block} {w:?}");
                                let viewed = if bit { speculative } else { committed };
                                assert_eq!(viewed, want, "{label} {tx} {block} {w:?}");
                                assert_eq!(p.tx_view_frame(tx, block, w), want);
                            }
                        }
                    }
                }
                // Word modes see the 21 written words; block modes widen
                // each of the 4 written blocks to all 16 words.
                let want = if granularity.word_in_cache() {
                    21
                } else {
                    4 * WORDS_PER_BLOCK as u32
                };
                assert_eq!(written, want, "{label}");
            }
        }
    }
}
