//! Crash recovery for PTM metadata.
//!
//! The crash model (DESIGN.md decision 19) says that physical memory, the
//! swap device and the PTM metadata tables (SPT, SIT, TAV arena, T-State)
//! survive a crash-stop, while everything cache-like — speculative buffers,
//! the VTS SPT/TAV caches, lazy-cleanup timers — is lost. Recovery therefore
//! has one job: discard every transaction that was live at the crash point
//! and put the surviving durable state back into the canonical "no
//! transactions anywhere" shape, so that a plain read of each home page (or
//! swapped home image) yields exactly the committed data.
//!
//! Per policy that means:
//!
//! * **Copy-PTM** — live transactions' overflowed writes landed in the home
//!   page with the committed backup in the shadow, so each written block is
//!   restored shadow → home (word-masked at word granularity, mirroring
//!   [`PtmSystem::abort`]).
//! * **Select-PTM** — speculative overflow data went to the non-committed
//!   side of each selection bit, so discarding a live transaction moves no
//!   data; recovery folds the committed side of every set selection bit back
//!   into the home page so the shadow can be freed.
//!
//! The only torn-write case in the model is the youngest in-flight TAV
//! publish: a node already linked into its page's horizontal list whose
//! T-State vertical-list head update never landed. Such orphans are found by
//! reachability (page-list nodes not on any transaction's chain) and
//! discarded like any other live node — their access vectors are intact, so
//! Copy-PTM restore still works. [`tear_youngest_tav_tail`] injects exactly
//! this state for testing.
//!
//! Recovery is idempotent: a second pass over a recovered system finds no
//! live transactions, no TAV nodes and no shadows, and reports all-zero
//! [`RecoveryStats`].

use crate::config::PtmPolicy;
use crate::system::{copy_image_block, copy_image_words, restore_words, PtmSystem};
use crate::tav::TavRef;
use crate::tstate::TxStatus;
use ptm_mem::{PhysicalMemory, SwapStore};
use ptm_types::{BlockVec, FastSet, FrameId, PhysBlock, SwapSlot, TxId};

/// What a recovery pass did, for reporting and idempotence checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Live transactions discarded (set to `Aborted`).
    pub transactions_discarded: u64,
    /// Blocks copied to put committed data back in home pages: Copy-PTM
    /// shadow → home restores plus Select-PTM selection folds, resident and
    /// swapped alike.
    pub blocks_restored: u64,
    /// TAV nodes that were on a page list but on no transaction's chain —
    /// torn publishes — and were repaired (discarded with their data
    /// restored).
    pub torn_nodes_repaired: u64,
    /// Shadow pages released (resident frames freed plus swapped shadow
    /// slots discarded).
    pub shadow_pages_freed: u64,
    /// TAV nodes freed in total (torn ones included).
    pub tav_nodes_freed: u64,
    /// Log-device records discarded by the bounded tail scan (the frame at
    /// the cut; everything behind it is in `log_bytes_truncated`).
    pub log_records_discarded: u64,
    /// Discarded frames whose header parsed but whose checksum failed
    /// (torn appends caught red-handed, vs. structural holes).
    pub log_checksum_mismatches: u64,
    /// Bytes cut off the device image past its last valid record. The cut
    /// *repairs* the image — a second scan finds a clean log.
    pub log_bytes_truncated: u64,
    /// Live-transaction undo payloads whose committed pre-image did not
    /// match recovered memory (must be zero — replay reconciliation).
    pub log_replay_mismatches: u64,
    /// Durable commit records naming transactions the machine never
    /// committed (must be zero — a phantom commit is corruption).
    pub log_phantom_commits: u64,
    /// Valid commit records found in the log (observation only).
    pub log_commit_records: u64,
    /// Valid abort records found in the log (observation only).
    pub log_abort_records: u64,
    /// Valid undo records found in the log (observation only).
    pub log_undo_records: u64,
    /// Valid redo records found in the log (observation only).
    pub log_redo_records: u64,
    /// Valid word-undo records found in the log — eager-versioning WAL
    /// pre-images (observation only).
    pub log_word_undo_records: u64,
    /// Writing commits the machine performed whose commit record did not
    /// survive in the durable log — zero under eager forcing; lazy/group
    /// trade exactly this for commit latency (observation only).
    pub log_commits_missing: u64,
    /// Live-transaction undo payloads verified word-identical against
    /// recovered memory (observation only).
    pub log_replay_verified: u64,
    /// Undo records skipped because an abort voided them: the pre-image
    /// belongs to an earlier incarnation of a retried transaction, so it
    /// may legitimately be stale (observation only).
    pub log_undo_stale: u64,
    /// Valid records of a kind this recovery pass does not own (service-
    /// journal frames in a machine-level log) — counted, never acted on
    /// (observation only).
    pub log_foreign_records: u64,
}

impl RecoveryStats {
    /// Whether the pass found nothing to *do*. Compares the mutation and
    /// integrity-violation fields only: pure observations (records merely
    /// counted in an already-valid log, commits a lazy policy legitimately
    /// never forced) repeat on every pass over the same image and must not
    /// make an idempotent recovery look like it did work.
    pub fn is_noop(&self) -> bool {
        let RecoveryStats {
            transactions_discarded,
            blocks_restored,
            torn_nodes_repaired,
            shadow_pages_freed,
            tav_nodes_freed,
            log_records_discarded,
            log_checksum_mismatches,
            log_bytes_truncated,
            log_replay_mismatches,
            log_phantom_commits,
            // Observation-only fields, deliberately ignored:
            log_commit_records: _,
            log_abort_records: _,
            log_undo_records: _,
            log_redo_records: _,
            log_word_undo_records: _,
            log_commits_missing: _,
            log_replay_verified: _,
            log_undo_stale: _,
            log_foreign_records: _,
        } = *self;
        transactions_discarded == 0
            && blocks_restored == 0
            && torn_nodes_repaired == 0
            && shadow_pages_freed == 0
            && tav_nodes_freed == 0
            && log_records_discarded == 0
            && log_checksum_mismatches == 0
            && log_bytes_truncated == 0
            && log_replay_mismatches == 0
            && log_phantom_commits == 0
    }
}

/// Field-wise sums, for sweeps that total many recovery passes.
impl std::ops::AddAssign for RecoveryStats {
    fn add_assign(&mut self, rhs: Self) {
        self.transactions_discarded += rhs.transactions_discarded;
        self.blocks_restored += rhs.blocks_restored;
        self.torn_nodes_repaired += rhs.torn_nodes_repaired;
        self.shadow_pages_freed += rhs.shadow_pages_freed;
        self.tav_nodes_freed += rhs.tav_nodes_freed;
        self.log_records_discarded += rhs.log_records_discarded;
        self.log_checksum_mismatches += rhs.log_checksum_mismatches;
        self.log_bytes_truncated += rhs.log_bytes_truncated;
        self.log_replay_mismatches += rhs.log_replay_mismatches;
        self.log_phantom_commits += rhs.log_phantom_commits;
        self.log_commit_records += rhs.log_commit_records;
        self.log_abort_records += rhs.log_abort_records;
        self.log_undo_records += rhs.log_undo_records;
        self.log_redo_records += rhs.log_redo_records;
        self.log_word_undo_records += rhs.log_word_undo_records;
        self.log_commits_missing += rhs.log_commits_missing;
        self.log_replay_verified += rhs.log_replay_verified;
        self.log_undo_stale += rhs.log_undo_stale;
        self.log_foreign_records += rhs.log_foreign_records;
    }
}

/// Scans a crashed log-device image for valid records, discards the torn
/// tail (bounded single pass — see [`crate::durability::scan_records`]) and
/// truncates the image to its valid prefix so a second recovery finds a
/// clean log. Counts everything into `stats`; returns the valid records
/// for the caller's reconciliation pass.
pub fn recover_log(
    image: &mut ptm_mem::LogImage,
    stats: &mut RecoveryStats,
) -> Vec<crate::durability::LogRecord> {
    use crate::durability::LogRecordKind;
    let scan = crate::durability::scan_records(&image.bytes);
    stats.log_records_discarded += scan.records_discarded;
    stats.log_checksum_mismatches += scan.checksum_mismatches;
    stats.log_bytes_truncated += scan.bytes_discarded;
    for r in &scan.records {
        match r.kind {
            LogRecordKind::Commit => stats.log_commit_records += 1,
            LogRecordKind::Abort => stats.log_abort_records += 1,
            LogRecordKind::Undo => stats.log_undo_records += 1,
            LogRecordKind::Redo => stats.log_redo_records += 1,
            LogRecordKind::WordUndo => stats.log_word_undo_records += 1,
            // Service-journal records never appear in a machine-level log;
            // count them as foreign rather than silently dropping them.
            LogRecordKind::SvcAccept | LogRecordKind::SvcSeal | LogRecordKind::SvcCommit => {
                stats.log_foreign_records += 1
            }
        }
    }
    image.truncate(scan.valid_len);
    scan.records
}

/// Simulates the model's one torn-write case: the youngest live
/// transaction's most recent TAV publish got its node linked into the page
/// list, but the crash hit before the T-State chain head was updated.
///
/// Unlinks the head node of the youngest live transaction's chain from that
/// chain only — the node stays on its page list with its access vectors
/// intact. Returns the affected transaction, or `None` if no live
/// transaction has an overflowed node to tear.
pub fn tear_youngest_tav_tail(sys: &mut PtmSystem) -> Option<TxId> {
    let mut live = sys.tstate.live_transactions();
    live.sort();
    for tx in live.into_iter().rev() {
        if let Some(head) = sys.tstate.entry(tx).tav_head {
            let next = sys.tavs.next_in_tx(head);
            sys.tstate.entry_mut(tx).tav_head = next;
            return Some(tx);
        }
    }
    None
}

/// Walks the durable image and discards every live transaction, restoring
/// committed data into the home pages and releasing all shadows and TAV
/// nodes. See the module docs for the per-policy rules.
pub fn recover(
    sys: &mut PtmSystem,
    mem: &mut PhysicalMemory,
    swap: &mut SwapStore,
) -> RecoveryStats {
    let mut out = RecoveryStats::default();

    // Nodes reachable from some transaction's vertical chain. Page-list
    // nodes outside this set are torn publishes.
    let mut reachable: FastSet<TavRef> = FastSet::default();
    for tx in sys.tstate.live_transactions() {
        let mut cur = sys.tstate.entry(tx).tav_head;
        while let Some(r) = cur {
            reachable.insert(r);
            cur = sys.tavs.next_in_tx(r);
        }
    }

    let frames: Vec<FrameId> = sys.spt.iter().map(|e| e.home).collect();
    for frame in frames {
        recover_resident_page(sys, mem, frame, &reachable, &mut out);
    }

    let slots: Vec<SwapSlot> = sys.sit.iter().map(|e| e.home_slot).collect();
    for slot in slots {
        recover_swapped_page(sys, swap, slot, &reachable, &mut out);
    }

    let mut live = sys.tstate.live_transactions();
    live.sort();
    for tx in live {
        sys.tstate.entry_mut(tx).tav_head = None;
        sys.tstate.set_status(tx, TxStatus::Aborted);
        sys.stats.aborts += 1;
        out.transactions_discarded += 1;
    }

    // Volatile VTS state dies with the machine.
    sys.spt_cache.remove_matching(|_| true);
    sys.tav_cache.remove_matching(|_| true);
    sys.cleanup_pages.clear();

    debug_assert_eq!(sys.tavs.live(), 0, "recovery must drain the TAV arena");
    debug_assert_eq!(sys.live_shadows, 0, "recovery must free every shadow");
    debug_assert!(sys.tstate.live_transactions().is_empty());
    out
}

fn recover_resident_page(
    sys: &mut PtmSystem,
    mem: &mut PhysicalMemory,
    frame: FrameId,
    reachable: &FastSet<TavRef>,
    out: &mut RecoveryStats,
) {
    let (head, shadow) = {
        let e = sys.spt.entry(frame).expect("frame listed by the SPT");
        (e.tav_head, e.shadow)
    };

    let nodes: Vec<TavRef> = sys.tavs.page_iter(head).collect();
    for r in nodes {
        let write = sys.tavs.write_vec(r);
        if sys.cfg.policy == PtmPolicy::Copy && !write.is_empty() {
            let shadow = shadow.expect("dirty overflow implies a shadow page");
            for idx in write.iter() {
                let home_block = PhysBlock::new(frame, idx);
                let shadow_block = home_block.on_frame(shadow);
                if sys.cfg.granularity.word_in_cache() {
                    let mask = sys.tavs.write_words(r).block_words(idx);
                    restore_words(mem, shadow_block, home_block, mask);
                } else {
                    mem.copy_block(shadow_block, home_block);
                }
                sys.stats.restore_copies += 1;
                out.blocks_restored += 1;
            }
        }
        if !reachable.contains(&r) {
            out.torn_nodes_repaired += 1;
        }
        sys.tavs.free(r);
        out.tav_nodes_freed += 1;
    }

    sys.spt
        .set_summaries(frame, BlockVec::EMPTY, BlockVec::EMPTY);
    let entry = sys.spt.entry_mut(frame).expect("frame listed by the SPT");
    entry.tav_head = None;
    entry.contested = BlockVec::EMPTY;
    let sel = std::mem::replace(&mut entry.sel, BlockVec::EMPTY);
    let shadow = entry.shadow.take();

    if let Some(shadow) = shadow {
        if sys.cfg.policy == PtmPolicy::Select {
            // Fold the committed side of every set selection bit back into
            // the home page before dropping the shadow.
            for idx in sel.iter() {
                let home_block = PhysBlock::new(frame, idx);
                mem.copy_block(home_block.on_frame(shadow), home_block);
                out.blocks_restored += 1;
            }
        }
        mem.free(shadow);
        sys.stats.shadow_frees += 1;
        sys.live_shadows -= 1;
        out.shadow_pages_freed += 1;
    }
}

fn recover_swapped_page(
    sys: &mut PtmSystem,
    swap: &mut SwapStore,
    slot: SwapSlot,
    reachable: &FastSet<TavRef>,
    out: &mut RecoveryStats,
) {
    let (head, shadow_slot) = {
        let e = sys.sit.entry(slot).expect("slot listed by the SIT");
        (e.tav_head, e.shadow_slot)
    };
    let mut home_img = swap.peek(slot);
    let shadow_img = shadow_slot.map(|s| swap.peek(s));

    let nodes: Vec<TavRef> = sys.tavs.page_iter(head).collect();
    for r in nodes {
        let write = sys.tavs.write_vec(r);
        if sys.cfg.policy == PtmPolicy::Copy && !write.is_empty() {
            let shadow_img = shadow_img
                .as_ref()
                .expect("dirty overflow implies a shadow page");
            for idx in write.iter() {
                if sys.cfg.granularity.word_in_cache() {
                    let mask = sys.tavs.write_words(r).block_words(idx);
                    copy_image_words(shadow_img, &mut home_img, idx, mask);
                } else {
                    copy_image_block(shadow_img, &mut home_img, idx);
                }
                sys.stats.restore_copies += 1;
                out.blocks_restored += 1;
            }
        }
        if !reachable.contains(&r) {
            out.torn_nodes_repaired += 1;
        }
        sys.tavs.free(r);
        out.tav_nodes_freed += 1;
    }

    let entry = sys.sit.entry_mut(slot).expect("slot listed by the SIT");
    entry.tav_head = None;
    entry.sum_read = BlockVec::EMPTY;
    entry.sum_write = BlockVec::EMPTY;
    entry.contested = BlockVec::EMPTY;
    let sel = std::mem::replace(&mut entry.sel, BlockVec::EMPTY);
    let shadow_slot = entry.shadow_slot.take();

    if let Some(shadow_slot) = shadow_slot {
        if sys.cfg.policy == PtmPolicy::Select {
            let shadow_img = shadow_img.as_ref().expect("shadow slot has an image");
            for idx in sel.iter() {
                copy_image_block(shadow_img, &mut home_img, idx);
                out.blocks_restored += 1;
            }
        }
        swap.discard(shadow_slot);
        // Swapped shadows already left `live_shadows` at swap-out time.
        sys.stats.shadow_frees += 1;
        out.shadow_pages_freed += 1;
    }

    swap.update(slot, home_img);
}
