//! Snoopy MOESI coherence operations across a set of core caches.
//!
//! The machine-level simulator resolves transactional conflicts *before*
//! calling [`supply`]; these functions only perform the protocol-state
//! transitions and report what happened (data source, invalidated
//! transactional lines) so the caller can account timing and overflow
//! bookkeeping.

use crate::line::{CacheLine, Moesi, TxLineMeta};
use crate::Hierarchy;
use ptm_types::{PhysBlock, TxId};

/// A remote cache's transactional use of a block, discovered by a snoop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteTxUse {
    /// Index of the core whose cache holds the line.
    pub core: usize,
    /// The transactional metadata on that line.
    pub meta: TxLineMeta,
}

/// Where a miss was sourced from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataSource {
    /// Supplied by another core's cache (on-chip transfer).
    OtherCache,
    /// Supplied by main memory (through the memory controller, where PTM
    /// chooses between home and shadow page).
    Memory,
}

/// Result of performing the coherence transitions for a miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupplyOutcome {
    /// Where the data came from.
    pub source: DataSource,
    /// The MOESI state the requester's new line should take.
    pub new_state: Moesi,
    /// Transactional lines that were invalidated at remote caches by this
    /// transaction (e.g. the same transaction's own lines left behind on
    /// another core after a context-switch migration). The caller must spill
    /// their metadata into the overflow structures.
    pub displaced_tx: Vec<CacheLine>,
    /// Number of remote copies invalidated (write misses).
    pub invalidations: u64,
}

/// Snoops all caches except `requester` for transactional metadata on
/// `block`. This is the in-cache half of eager conflict detection: the
/// caller combines it with the overflow-structure checks (PTM's TAV / VTM's
/// XADT) to decide whether the access conflicts.
pub fn peek_remote_tx_use(
    caches: &[Hierarchy],
    requester: usize,
    block: PhysBlock,
) -> impl Iterator<Item = RemoteTxUse> + '_ {
    caches.iter().enumerate().filter_map(move |(i, h)| {
        if i == requester {
            return None;
        }
        let meta = h.line(block)?.tx_meta()?;
        Some(RemoteTxUse {
            core: i,
            meta: *meta,
        })
    })
}

/// Performs the MOESI transitions for a miss by `requester` on `block`.
///
/// * Read miss (`for_write == false`): any remote M/E/O/S copy supplies the
///   data on-chip; M degrades to O, E degrades to S. The requester receives
///   S if any other copy remains, otherwise E — unless `allow_exclusive` is
///   false (PTM §4.2.2 denies exclusivity to blocks with remote overflowed
///   readers), in which case it receives S regardless.
/// * Write miss (`for_write == true`): every remote copy is invalidated; a
///   dirty remote copy supplies the data. The requester receives M. With
///   `preserve_tx_lines` (word-granularity coherence, Figure 5's `wd:cache`),
///   remote *transactional* lines are left in place instead of invalidated —
///   conflict detection has already established that their word sets are
///   disjoint from this access, so multiple word-writers of one block may
///   coexist (sub-block ownership in the style of adjustable-block-size
///   coherence).
///
/// Conflicting transactional use must already have been resolved; remote
/// lines owned by a *different* live transaction may still be present if the
/// caller decided the access is compatible (e.g. read/read sharing), and are
/// left intact on read misses.
pub fn supply(
    caches: &mut [Hierarchy],
    requester: usize,
    block: PhysBlock,
    for_write: bool,
    allow_exclusive: bool,
    preserve_tx_lines: bool,
    requester_tx: Option<TxId>,
) -> SupplyOutcome {
    let mut source = DataSource::Memory;
    let mut sharers_remaining = false;
    let mut displaced_tx = Vec::new();
    let mut invalidations = 0;

    for (i, h) in caches.iter_mut().enumerate() {
        if i == requester {
            continue;
        }
        let Some(mut line) = h.touch_mut(block) else {
            continue;
        };
        if for_write {
            // Invalidate every remote copy; any valid one supplies data
            // (dirty copies must, clean copies beat the memory round trip).
            if line.state().is_dirty()
                || (source == DataSource::Memory && line.state() != Moesi::Invalid)
            {
                source = DataSource::OtherCache;
            }
            let owned_by_requester = requester_tx.map(|t| line.is_owned_by(t)).unwrap_or(false);
            if preserve_tx_lines && line.is_transactional() && !owned_by_requester {
                // Word-granular coherence keeps the disjoint-word owner's
                // line alive; both copies count as sharers. The requester's
                // *own* stale copies (left behind by thread migration) are
                // always displaced, so each (transaction, block) has at most
                // one writable copy and one speculative buffer.
                sharers_remaining = true;
                continue;
            }
            let removed = h.invalidate(block).expect("line was present");
            h.l2_stats_mut().coherence_invalidations += 1;
            invalidations += 1;
            if removed.is_transactional() {
                displaced_tx.push(removed);
            }
        } else {
            // Read miss: degrade remote states, keep copies.
            source = DataSource::OtherCache;
            sharers_remaining = true;
            match line.state() {
                Moesi::Modified => line.set_state(Moesi::Owned),
                Moesi::Exclusive => line.set_state(Moesi::Shared),
                Moesi::Owned | Moesi::Shared => {}
                Moesi::Invalid => unreachable!("invalid lines are not returned"),
            }
        }
    }

    let new_state = if for_write {
        Moesi::Modified
    } else if sharers_remaining || !allow_exclusive {
        Moesi::Shared
    } else {
        Moesi::Exclusive
    };

    SupplyOutcome {
        source,
        new_state,
        displaced_tx,
        invalidations,
    }
}

/// Clears transactional metadata on every line owned by `tx` after a commit
/// (§4.5): "all of the cache blocks with the transaction ID are specified as
/// no longer being speculative, and the transaction ID is cleared." Walks
/// the hierarchy's tagged-line registry, not every set. Returns the number
/// of lines processed.
pub fn commit_tx_lines(h: &mut Hierarchy, tx: TxId) -> u64 {
    h.retire_tx(tx, false).1
}

/// Processes an abort in the cache (§4.5): dirty lines owned by `tx` are
/// invalidated (their speculative data is discarded); clean lines just drop
/// the transaction tag. Walks the tagged-line registry and allocates
/// nothing. Returns `(dirty_invalidated, clean_cleared)`.
pub fn abort_tx_lines(h: &mut Hierarchy, tx: TxId) -> (u64, u64) {
    h.retire_tx(tx, true)
}

/// Invalidates every non-transactional line (context-switch cache pollution
/// model): transactional lines survive because they are tagged with their
/// transaction ID (§4.7), the PTM advantage over flush-on-switch schemes.
/// The L1 presence filter empties; transactional L2 lines re-promote on
/// their next touch. Returns the number of lines dropped.
pub fn flush_non_tx_lines(h: &mut Hierarchy) -> u64 {
    h.drop_non_tx_lines()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_types::{BlockIdx, FrameId, WordIdx};

    fn blk(n: u64) -> PhysBlock {
        PhysBlock::new(FrameId((n / 64) as u32), BlockIdx((n % 64) as u8))
    }

    fn machine(n: usize) -> Vec<Hierarchy> {
        (0..n).map(|_| Hierarchy::with_default_config()).collect()
    }

    #[test]
    fn read_miss_from_memory_gets_exclusive() {
        let mut caches = machine(2);
        let out = supply(&mut caches, 0, blk(0), false, true, false, None);
        assert_eq!(out.source, DataSource::Memory);
        assert_eq!(out.new_state, Moesi::Exclusive);
        assert!(out.displaced_tx.is_empty());
    }

    #[test]
    fn read_miss_denied_exclusive_gets_shared() {
        let mut caches = machine(2);
        let out = supply(&mut caches, 0, blk(0), false, false, false, None);
        assert_eq!(out.new_state, Moesi::Shared);
    }

    #[test]
    fn read_miss_sourced_from_modified_remote_degrades_to_owned() {
        let mut caches = machine(2);
        caches[1].fill(CacheLine::new(blk(0), Moesi::Modified));
        let out = supply(&mut caches, 0, blk(0), false, true, false, None);
        assert_eq!(out.source, DataSource::OtherCache);
        assert_eq!(out.new_state, Moesi::Shared);
        assert_eq!(caches[1].line(blk(0)).unwrap().state(), Moesi::Owned);
    }

    #[test]
    fn read_miss_degrades_remote_exclusive_to_shared() {
        let mut caches = machine(2);
        caches[1].fill(CacheLine::new(blk(0), Moesi::Exclusive));
        let out = supply(&mut caches, 0, blk(0), false, true, false, None);
        assert_eq!(out.new_state, Moesi::Shared);
        assert_eq!(caches[1].line(blk(0)).unwrap().state(), Moesi::Shared);
    }

    #[test]
    fn write_miss_invalidates_all_remote_copies() {
        let mut caches = machine(3);
        caches[1].fill(CacheLine::new(blk(0), Moesi::Shared));
        caches[2].fill(CacheLine::new(blk(0), Moesi::Shared));
        let out = supply(&mut caches, 0, blk(0), true, true, false, None);
        assert_eq!(out.new_state, Moesi::Modified);
        assert_eq!(out.invalidations, 2);
        assert!(caches[1].line(blk(0)).is_none());
        assert!(caches[2].line(blk(0)).is_none());
        assert_eq!(caches[1].l2_stats().coherence_invalidations, 1);
    }

    #[test]
    fn write_miss_returns_displaced_tx_lines() {
        let mut caches = machine(2);
        let mut line = CacheLine::new(blk(0), Moesi::Modified);
        line.tx_meta_for(TxId(5)).record_write(WordIdx(0));
        caches[1].fill(line);
        let out = supply(&mut caches, 0, blk(0), true, true, false, None);
        assert_eq!(out.displaced_tx.len(), 1);
        assert!(out.displaced_tx[0].is_owned_by(TxId(5)));
        assert_eq!(out.source, DataSource::OtherCache, "dirty remote supplies");
    }

    #[test]
    fn peek_remote_reports_tx_metadata_only() {
        let mut caches = machine(3);
        caches[1].fill(CacheLine::new(blk(0), Moesi::Shared));
        let mut tx_line = CacheLine::new(blk(0), Moesi::Shared);
        tx_line.tx_meta_for(TxId(2)).record_read(WordIdx(1));
        caches[2].fill(tx_line);
        let uses: Vec<_> = peek_remote_tx_use(&caches, 0, blk(0)).collect();
        assert_eq!(uses.len(), 1);
        assert_eq!(uses[0].core, 2);
        assert_eq!(uses[0].meta.tx, TxId(2));
        assert!(uses[0].meta.read);
    }

    #[test]
    fn peek_remote_skips_requester() {
        let mut caches = machine(2);
        let mut line = CacheLine::new(blk(0), Moesi::Modified);
        line.tx_meta_for(TxId(1));
        caches[0].fill(line);
        assert!(peek_remote_tx_use(&caches, 0, blk(0)).next().is_none());
    }

    #[test]
    fn commit_clears_tx_tags_but_keeps_lines() {
        let mut h = Hierarchy::with_default_config();
        let mut line = CacheLine::new(blk(0), Moesi::Modified);
        line.tx_meta_for(TxId(1)).record_write(WordIdx(0));
        h.fill(line);
        h.fill(CacheLine::new(blk(1), Moesi::Shared));
        let n = commit_tx_lines(&mut h, TxId(1));
        assert_eq!(n, 1);
        let l = h.line(blk(0)).unwrap();
        assert!(!l.is_transactional());
        assert_eq!(l.state(), Moesi::Modified, "committed dirty data stays");
    }

    #[test]
    fn abort_invalidates_dirty_and_clears_clean() {
        let mut h = Hierarchy::with_default_config();
        let mut dirty = CacheLine::new(blk(0), Moesi::Modified);
        dirty.tx_meta_for(TxId(1)).record_write(WordIdx(0));
        h.fill(dirty);
        let mut clean = CacheLine::new(blk(1), Moesi::Shared);
        clean.tx_meta_for(TxId(1)).record_read(WordIdx(0));
        h.fill(clean);
        let (d, c) = abort_tx_lines(&mut h, TxId(1));
        assert_eq!((d, c), (1, 1));
        assert!(h.line(blk(0)).is_none(), "speculative data discarded");
        let l = h.line(blk(1)).unwrap();
        assert!(!l.is_transactional(), "clean line survives untagged");
    }

    #[test]
    fn abort_leaves_other_transactions_alone() {
        let mut h = Hierarchy::with_default_config();
        let mut other = CacheLine::new(blk(2), Moesi::Modified);
        other.tx_meta_for(TxId(9)).record_write(WordIdx(0));
        h.fill(other);
        abort_tx_lines(&mut h, TxId(1));
        assert!(h.line(blk(2)).unwrap().is_owned_by(TxId(9)));
    }

    #[test]
    fn flush_keeps_transactional_lines() {
        let mut h = Hierarchy::with_default_config();
        let mut tx_line = CacheLine::new(blk(0), Moesi::Modified);
        tx_line.tx_meta_for(TxId(1)).record_write(WordIdx(0));
        h.fill(tx_line);
        h.fill(CacheLine::new(blk(1), Moesi::Shared));
        h.fill(CacheLine::new(blk(2), Moesi::Exclusive));
        let dropped = flush_non_tx_lines(&mut h);
        assert_eq!(dropped, 2);
        assert!(h.line(blk(0)).is_some(), "tagged tx line survives switch");
        assert!(h.line(blk(1)).is_none());
    }
}
