//! Set-associative caches, MOESI snoopy coherence and bus/memory timing.
//!
//! This crate models the on-chip memory system of the paper's evaluation
//! platform (§6.1): per-core private L1 (16 KiB direct-mapped, 1 cycle) and
//! L2 (256 KiB 4-way, 6 cycles) caches with 64-byte blocks, a snoopy MOESI
//! protocol maintained at the L2, a high-speed on-chip bus (20-cycle minimum
//! round trip) and a main-memory interface (200-cycle minimum latency, up to
//! three requests pipelined).
//!
//! Cache lines carry the transactional augmentation the paper describes
//! (§4.1): a transaction ID plus read/write bits — and, for the
//! word-granularity study of Figure 5, per-word access masks.
//!
//! Lines are *metadata only*: the functional data lives in `ptm-mem`'s
//! physical memory and in per-transaction speculative buffers owned by the
//! simulator. This keeps the coherence model small while the system as a
//! whole stays functional.
//!
//! # Examples
//!
//! ```
//! use ptm_cache::Hierarchy;
//! use ptm_types::{BlockIdx, FrameId, PhysBlock};
//!
//! let h = Hierarchy::with_default_config();
//! let b = PhysBlock::new(FrameId(1), BlockIdx(0));
//! assert!(h.probe(b).is_miss());
//! ```

pub mod array;
pub mod bus;
pub mod coherence;
pub mod config;
pub mod line;
pub mod stats;

pub use array::{CacheArray, Eviction};
pub use bus::{BusTimings, SystemBus};
pub use coherence::{
    abort_tx_lines, commit_tx_lines, flush_non_tx_lines, peek_remote_tx_use, supply, DataSource,
    RemoteTxUse, SupplyOutcome,
};
pub use config::CacheConfig;
pub use line::{CacheLine, Hit, Moesi, ProbeResult, TxLineMeta};
pub use stats::CacheStats;

use ptm_types::{PhysBlock, TxId};

/// A core's private L1+L2 pair, kept inclusive (everything in L1 is in L2).
///
/// The L1 is a presence filter for timing; all coherence and transactional
/// state lives in the L2, matching the paper's platform where "coherency is
/// maintained at the L2 cache".
///
/// Lines gain transactional tags only through the hierarchy — [`fill`] of a
/// tagged line, or [`LineMut::tag`] on a hit — so it can keep a registry of
/// the L2 blocks that may be tagged. Commit and abort walk that registry
/// instead of every set, so their cost follows the transactions' footprint,
/// like the paper's flash clear (§4.5), not the cache's capacity.
///
/// [`fill`]: Hierarchy::fill
#[derive(Debug)]
pub struct Hierarchy {
    l1: CacheArray,
    l2: CacheArray,
    /// L2 blocks that may carry transactional metadata. Invariant: every
    /// tagged L2 line's block is listed. Entries may be stale (the line was
    /// since evicted, invalidated or untagged) or repeated; commit and abort
    /// drop those as they walk, and `fill` compacts a registry grown past
    /// twice the L2's line count.
    tagged: Vec<PhysBlock>,
    /// L1 access latency in cycles.
    pub l1_latency: u64,
    /// L2 access latency in cycles.
    pub l2_latency: u64,
}

/// A present L2 line, borrowed through its [`Hierarchy`] by
/// [`Hierarchy::touch_mut`]. Reads go through `Deref`; the coherence state
/// may change freely, but a transactional tag is added only by
/// [`LineMut::tag`], which lists the line in the hierarchy's registry.
#[derive(Debug)]
pub struct LineMut<'a> {
    line: &'a mut CacheLine,
    tagged: &'a mut Vec<PhysBlock>,
}

impl LineMut<'_> {
    /// Sets the MOESI state.
    pub fn set_state(&mut self, state: Moesi) {
        self.line.set_state(state);
    }

    /// Returns the metadata for `tx`, tagging the line if it is currently
    /// non-transactional.
    ///
    /// # Panics
    ///
    /// Panics if the line is owned by a *different* transaction (see
    /// [`CacheLine::tx_meta_for`]).
    pub fn tag(&mut self, tx: TxId) -> &mut TxLineMeta {
        if !self.line.is_transactional() {
            self.tagged.push(self.line.block());
        }
        self.line.tx_meta_for(tx)
    }
}

impl std::ops::Deref for LineMut<'_> {
    type Target = CacheLine;

    fn deref(&self) -> &CacheLine {
        self.line
    }
}

impl Hierarchy {
    /// Builds a hierarchy with the paper's cache parameters.
    pub fn with_default_config() -> Self {
        Hierarchy::new(CacheConfig::l1_default(), CacheConfig::l2_default())
    }

    /// Builds a hierarchy from explicit configurations.
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        Hierarchy {
            l1_latency: l1.latency,
            l2_latency: l2.latency,
            l1: CacheArray::new(l1),
            l2: CacheArray::new(l2),
            tagged: Vec::new(),
        }
    }

    /// Empties both levels in place, keeping their allocations: every set,
    /// the LRU clocks, the stats and the tag registry, with the hit
    /// latencies restored from the configurations. A reset hierarchy is
    /// indistinguishable from `Hierarchy::new` on the same configurations.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.tagged.clear();
        self.l1_latency = self.l1.config().latency;
        self.l2_latency = self.l2.config().latency;
    }

    /// Probes both levels without changing state, classifying the access.
    pub fn probe(&self, block: PhysBlock) -> ProbeResult {
        self.lookup(block)
            .map_or(ProbeResult::Miss, |(hit, _)| ProbeResult::Hit(hit))
    }

    /// The level `block` hits at and a copy of its L2 line, or `None` on a
    /// miss: one scan of the L2 set, and no state changes.
    pub fn lookup(&self, block: PhysBlock) -> Option<(Hit, CacheLine)> {
        let Some(&line) = self.l2.get(block) else {
            debug_assert!(!self.l1.contains(block), "L1 must be inclusive in L2");
            return None;
        };
        let hit = if self.l1.contains(block) {
            Hit::L1
        } else {
            Hit::L2
        };
        Some((hit, line))
    }

    /// Latency of a hit at the given level.
    pub fn hit_latency(&self, hit: Hit) -> u64 {
        match hit {
            Hit::L1 => self.l1_latency,
            Hit::L2 => self.l1_latency + self.l2_latency,
        }
    }

    /// Read-only view of the L2 line for `block`.
    pub fn line(&self, block: PhysBlock) -> Option<&CacheLine> {
        self.l2.get(block)
    }

    /// Mutable view of the L2 line for `block`; promotes into L1 so that a
    /// subsequent probe is an L1 hit (models the refill on an L1 miss /
    /// L2 hit).
    pub fn touch_mut(&mut self, block: PhysBlock) -> Option<LineMut<'_>> {
        let line = self.l2.get_mut(block)?;
        // An L1 hit refreshes the presence line's LRU stamp, as re-inserting
        // it would; an L1 miss refills L1, whose victim needs no action
        // (inclusive, data in L2).
        if self.l1.get_mut(block).is_none() {
            let _ = self.l1.insert(CacheLine::presence(block));
        }
        Some(LineMut {
            line,
            tagged: &mut self.tagged,
        })
    }

    /// Inserts a freshly fetched line into L2 (and L1), returning the L2
    /// victim, if any. The caller turns transactional victims into PTM/VTM
    /// overflows. A tagged line joins the registry.
    pub fn fill(&mut self, line: CacheLine) -> Option<Eviction> {
        let block = line.block();
        if line.is_transactional() {
            let cfg = self.l2.config();
            if self.tagged.len() >= 2 * cfg.sets * cfg.ways {
                self.compact_registry();
            }
            self.tagged.push(block);
        }
        let victim = self.l2.insert(line);
        if let Some(ev) = &victim {
            // Inclusion: anything leaving L2 leaves L1 too.
            self.l1.invalidate(ev.line.block());
        }
        let _ = self.l1.insert(CacheLine::presence(block));
        victim
    }

    /// Drops stale and repeated registry entries, leaving one per tagged
    /// line. Only a long transaction that keeps losing and refilling the
    /// same lines between commits grows the registry this far.
    fn compact_registry(&mut self) {
        let l2 = &self.l2;
        self.tagged
            .retain(|&b| l2.get(b).is_some_and(CacheLine::is_transactional));
        self.tagged.sort_unstable();
        self.tagged.dedup();
    }

    /// Clears `tx`'s tags from the registered lines (§4.5's flash clear).
    /// With `discard_dirty` (abort), `tx`'s dirty lines are invalidated
    /// instead. The walk compacts the registry in place, keeping only
    /// other transactions' entries, and touches no LRU state. Returns
    /// `(dirty_invalidated, cleared)`.
    pub(crate) fn retire_tx(&mut self, tx: TxId, discard_dirty: bool) -> (u64, u64) {
        let (mut dirty, mut cleared) = (0, 0);
        let mut kept = 0;
        for i in 0..self.tagged.len() {
            let block = self.tagged[i];
            let Some(line) = self.l2.peek_mut(block) else {
                continue;
            };
            if !line.is_owned_by(tx) {
                if line.is_transactional() {
                    self.tagged[kept] = block;
                    kept += 1;
                }
                continue;
            }
            if discard_dirty && line.state().is_dirty() {
                self.invalidate(block);
                dirty += 1;
            } else {
                line.clear_tx();
                cleared += 1;
            }
        }
        self.tagged.truncate(kept);
        (dirty, cleared)
    }

    /// Removes a block from both levels, returning the L2 line.
    pub fn invalidate(&mut self, block: PhysBlock) -> Option<CacheLine> {
        self.l1.invalidate(block);
        self.l2.invalidate(block).map(|e| e.line)
    }

    /// The L2 cache statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Mutable access to the L2 statistics (the simulator records hit/miss
    /// classifications it derives from `probe`).
    pub fn l2_stats_mut(&mut self) -> &mut CacheStats {
        self.l2.stats_mut()
    }

    /// Iterates over all valid L2 lines.
    pub fn lines(&self) -> impl Iterator<Item = &CacheLine> {
        self.l2.lines()
    }

    /// Read-only view of the L1 array.
    pub fn l1(&self) -> &CacheArray {
        &self.l1
    }

    /// Read-only view of the L2 array.
    pub fn l2(&self) -> &CacheArray {
        &self.l2
    }

    /// Invalidates every non-transactional L2 line and empties the L1,
    /// returning the number of L2 lines dropped. Tagged lines stay, so the
    /// registry needs no update.
    pub(crate) fn drop_non_tx_lines(&mut self) -> u64 {
        let dropped = self.l2.remove_matching(|l| !l.is_transactional());
        self.l1.remove_matching(|_| true);
        dropped as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_types::{BlockIdx, FrameId, WordIdx};

    fn blk(frame: u32, idx: u8) -> PhysBlock {
        PhysBlock::new(FrameId(frame), BlockIdx(idx))
    }

    #[test]
    fn probe_miss_then_hit_after_fill() {
        let mut h = Hierarchy::with_default_config();
        let b = blk(3, 7);
        assert!(h.probe(b).is_miss());
        h.fill(CacheLine::new(b, Moesi::Exclusive));
        assert_eq!(h.probe(b), ProbeResult::Hit(Hit::L1));
    }

    #[test]
    fn l2_hit_after_l1_eviction_pressure() {
        // L1 is 16KB direct mapped = 256 sets; two blocks 256 blocks apart
        // in block-address space collide in L1 but not in 4-way L2.
        let mut h = Hierarchy::with_default_config();
        let a = blk(0, 0);
        let c = blk(4, 0); // 4 frames * 64 blocks = 256 blocks apart
        h.fill(CacheLine::new(a, Moesi::Exclusive));
        h.fill(CacheLine::new(c, Moesi::Exclusive));
        assert_eq!(h.probe(c), ProbeResult::Hit(Hit::L1));
        assert_eq!(
            h.probe(a),
            ProbeResult::Hit(Hit::L2),
            "a displaced from L1 only"
        );
    }

    #[test]
    fn touch_mut_promotes_to_l1() {
        let mut h = Hierarchy::with_default_config();
        let a = blk(0, 0);
        let c = blk(4, 0);
        h.fill(CacheLine::new(a, Moesi::Exclusive));
        h.fill(CacheLine::new(c, Moesi::Exclusive));
        assert_eq!(h.probe(a), ProbeResult::Hit(Hit::L2));
        h.touch_mut(a).unwrap();
        assert_eq!(h.probe(a), ProbeResult::Hit(Hit::L1));
    }

    #[test]
    fn tagging_a_hit_registers_the_line_once() {
        let mut h = Hierarchy::with_default_config();
        let a = blk(0, 0);
        h.fill(CacheLine::new(a, Moesi::Exclusive));
        assert!(h.tagged.is_empty(), "untagged fills stay unregistered");
        h.touch_mut(a).unwrap().tag(TxId(1)).record_read(WordIdx(0));
        h.touch_mut(a)
            .unwrap()
            .tag(TxId(1))
            .record_write(WordIdx(1));
        assert_eq!(h.tagged, vec![a]);
        assert_eq!(h.retire_tx(TxId(1), false), (0, 1));
        assert!(h.tagged.is_empty(), "retired entries drop out");
    }

    #[test]
    fn registry_stays_bounded_under_refills() {
        // One 2-way L2 set: every fill of a third block evicts.
        let mut h = Hierarchy::new(CacheConfig::tiny(1, 1), CacheConfig::tiny(1, 2));
        for i in 0..100u8 {
            let mut line = CacheLine::new(blk(0, i % 3), Moesi::Modified);
            line.tx_meta_for(TxId(1));
            h.fill(line);
            assert!(h.tagged.len() <= 2 * 2, "len {}", h.tagged.len());
        }
        assert_eq!(h.retire_tx(TxId(1), true), (2, 0));
        assert!(h.lines().next().is_none());
    }

    #[test]
    fn inclusion_holds_after_l2_eviction() {
        let mut h = Hierarchy::with_default_config();
        // L2 has 1024 sets, so blocks 1024 apart collide: frames 16 apart.
        let blocks: Vec<_> = (0..5).map(|i| blk(16 * i, 0)).collect();
        for &b in &blocks {
            h.fill(CacheLine::new(b, Moesi::Exclusive));
        }
        let evicted: Vec<_> = blocks.iter().filter(|b| h.probe(**b).is_miss()).collect();
        assert_eq!(evicted.len(), 1, "exactly one block evicted from L2");
    }

    #[test]
    fn invalidate_clears_both_levels() {
        let mut h = Hierarchy::with_default_config();
        let b = blk(1, 1);
        h.fill(CacheLine::new(b, Moesi::Modified));
        let line = h.invalidate(b).unwrap();
        assert_eq!(line.state(), Moesi::Modified);
        assert!(h.probe(b).is_miss());
    }

    #[test]
    fn hit_latencies_follow_config() {
        let h = Hierarchy::with_default_config();
        assert_eq!(h.hit_latency(Hit::L1), 1);
        assert_eq!(h.hit_latency(Hit::L2), 7, "L1 lookup + L2 access");
    }
}
