//! A generic set-associative cache array with LRU replacement.

use crate::config::CacheConfig;
use crate::line::{CacheLine, Moesi};
use crate::stats::CacheStats;
use ptm_types::{PhysBlock, BLOCK_SIZE};

/// A line displaced from the array by an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The displaced line (its transactional metadata drives overflow
    /// handling in PTM/VTM).
    pub line: CacheLine,
}

/// A set-associative array of [`CacheLine`]s with true-LRU replacement.
///
/// # Examples
///
/// ```
/// use ptm_cache::{CacheArray, CacheConfig, CacheLine, Moesi};
/// use ptm_types::{BlockIdx, FrameId, PhysBlock};
///
/// let mut c = CacheArray::new(CacheConfig::tiny(2, 1));
/// let b = PhysBlock::new(FrameId(0), BlockIdx(0));
/// assert!(c.insert(CacheLine::new(b, Moesi::Exclusive)).is_none());
/// assert!(c.contains(b));
/// ```
#[derive(Debug)]
pub struct CacheArray {
    cfg: CacheConfig,
    sets: Vec<Vec<CacheLine>>,
    clock: u64,
    stats: CacheStats,
}

impl CacheArray {
    /// Creates an empty array.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`CacheConfig::validate`]).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        CacheArray {
            cfg,
            sets: (0..cfg.sets)
                .map(|_| Vec::with_capacity(cfg.ways))
                .collect(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Empties every set but keeps its capacity, and zeroes the LRU clock
    /// and the stats: the array is then indistinguishable from
    /// `CacheArray::new(*self.config())`.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.clock = 0;
        self.stats = CacheStats::default();
    }

    /// The array's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn set_index(&self, block: PhysBlock) -> usize {
        let block_number = block.addr().0 / BLOCK_SIZE as u64;
        (block_number as usize) & (self.cfg.sets - 1)
    }

    /// Returns `true` if the block is present (any valid state).
    pub fn contains(&self, block: PhysBlock) -> bool {
        self.sets[self.set_index(block)]
            .iter()
            .any(|l| l.block() == block && l.state() != Moesi::Invalid)
    }

    /// Read-only lookup (does not update LRU).
    pub fn get(&self, block: PhysBlock) -> Option<&CacheLine> {
        self.sets[self.set_index(block)]
            .iter()
            .find(|l| l.block() == block && l.state() != Moesi::Invalid)
    }

    /// Mutable lookup; a hit refreshes the line's LRU position.
    pub fn get_mut(&mut self, block: PhysBlock) -> Option<&mut CacheLine> {
        let idx = self.set_index(block);
        let line = self.sets[idx]
            .iter_mut()
            .find(|l| l.block() == block && l.state() != Moesi::Invalid)?;
        self.clock += 1;
        line.lru = self.clock;
        Some(line)
    }

    /// Mutable lookup that leaves LRU state alone (bookkeeping such as
    /// commit and abort is not an access).
    pub(crate) fn peek_mut(&mut self, block: PhysBlock) -> Option<&mut CacheLine> {
        let idx = self.set_index(block);
        self.sets[idx]
            .iter_mut()
            .find(|l| l.block() == block && l.state() != Moesi::Invalid)
    }

    /// Inserts a line, returning the LRU victim if the set was full.
    ///
    /// Re-inserting a block that is already present replaces its line in
    /// place (no eviction).
    pub fn insert(&mut self, mut line: CacheLine) -> Option<Eviction> {
        self.clock += 1;
        line.lru = self.clock;
        let idx = self.set_index(line.block());
        let set = &mut self.sets[idx];

        if let Some(existing) = set
            .iter_mut()
            .find(|l| l.block() == line.block() && l.state() != Moesi::Invalid)
        {
            *existing = line;
            return None;
        }

        if set.len() < self.cfg.ways {
            set.push(line);
            return None;
        }

        // Evict the least recently used way.
        let (victim_idx, _) = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.lru)
            .expect("full set is non-empty");
        let victim = set[victim_idx];
        set[victim_idx] = line;
        self.stats.evictions += 1;
        if victim.is_transactional() {
            self.stats.tx_evictions += 1;
        }
        Some(Eviction { line: victim })
    }

    /// Removes a block, returning its line.
    pub fn invalidate(&mut self, block: PhysBlock) -> Option<Eviction> {
        let idx = self.set_index(block);
        let set = &mut self.sets[idx];
        let pos = set
            .iter()
            .position(|l| l.block() == block && l.state() != Moesi::Invalid)?;
        Some(Eviction {
            line: set.swap_remove(pos),
        })
    }

    /// Iterates over all valid lines.
    pub fn lines(&self) -> impl Iterator<Item = &CacheLine> {
        self.sets
            .iter()
            .flatten()
            .filter(|l| l.state() != Moesi::Invalid)
    }

    /// Mutable iteration over all valid lines.
    pub fn lines_mut(&mut self) -> impl Iterator<Item = &mut CacheLine> {
        self.sets
            .iter_mut()
            .flatten()
            .filter(|l| l.state() != Moesi::Invalid)
    }

    /// Removes all lines matching `pred`, returning how many went.
    pub fn remove_matching<F>(&mut self, mut pred: F) -> usize
    where
        F: FnMut(&CacheLine) -> bool,
    {
        let mut removed = 0;
        for set in &mut self.sets {
            let mut i = 0;
            while i < set.len() {
                if set[i].state() != Moesi::Invalid && pred(&set[i]) {
                    set.swap_remove(i);
                    removed += 1;
                } else {
                    i += 1;
                }
            }
        }
        removed
    }

    /// Number of valid lines.
    pub fn len(&self) -> usize {
        self.lines().count()
    }

    /// Returns `true` if the array holds no valid lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Access statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable access statistics.
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_types::{BlockIdx, FrameId, TxId};

    fn blk(n: u64) -> PhysBlock {
        PhysBlock::new(FrameId((n / 64) as u32), BlockIdx((n % 64) as u8))
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = CacheArray::new(CacheConfig::tiny(4, 2));
        assert!(c.insert(CacheLine::new(blk(0), Moesi::Shared)).is_none());
        assert!(c.contains(blk(0)));
        assert!(!c.contains(blk(1)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        let mut c = CacheArray::new(CacheConfig::tiny(1, 2));
        c.insert(CacheLine::new(blk(0), Moesi::Shared));
        c.insert(CacheLine::new(blk(1), Moesi::Shared));
        // Touch block 0 so block 1 becomes LRU.
        c.get_mut(blk(0)).unwrap();
        let ev = c.insert(CacheLine::new(blk(2), Moesi::Shared)).unwrap();
        assert_eq!(ev.line.block(), blk(1));
        assert!(c.contains(blk(0)));
        assert!(c.contains(blk(2)));
    }

    #[test]
    fn reinsert_existing_block_replaces_in_place() {
        let mut c = CacheArray::new(CacheConfig::tiny(1, 1));
        c.insert(CacheLine::new(blk(0), Moesi::Shared));
        let ev = c.insert(CacheLine::new(blk(0), Moesi::Modified));
        assert!(ev.is_none());
        assert_eq!(c.get(blk(0)).unwrap().state(), Moesi::Modified);
    }

    #[test]
    fn set_conflicts_respect_indexing() {
        // 2 sets: even block numbers to set 0, odd to set 1.
        let mut c = CacheArray::new(CacheConfig::tiny(2, 1));
        c.insert(CacheLine::new(blk(0), Moesi::Shared));
        c.insert(CacheLine::new(blk(1), Moesi::Shared));
        assert_eq!(c.len(), 2, "different sets, no eviction");
        let ev = c.insert(CacheLine::new(blk(2), Moesi::Shared)).unwrap();
        assert_eq!(ev.line.block(), blk(0), "same set as block 0");
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = CacheArray::new(CacheConfig::tiny(2, 1));
        c.insert(CacheLine::new(blk(0), Moesi::Modified));
        let ev = c.invalidate(blk(0)).unwrap();
        assert_eq!(ev.line.state(), Moesi::Modified);
        assert!(!c.contains(blk(0)));
        assert!(c.invalidate(blk(0)).is_none());
    }

    #[test]
    fn eviction_stats_count_tx_lines() {
        let mut c = CacheArray::new(CacheConfig::tiny(1, 1));
        let mut tx_line = CacheLine::new(blk(0), Moesi::Modified);
        tx_line.tx_meta_for(TxId(1));
        c.insert(tx_line);
        c.insert(CacheLine::new(blk(2), Moesi::Shared)); // evicts tx line
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().tx_evictions, 1);
    }

    #[test]
    fn remove_matching_drops_tx_lines() {
        let mut c = CacheArray::new(CacheConfig::tiny(4, 2));
        let mut tx_line = CacheLine::new(blk(0), Moesi::Modified);
        tx_line.tx_meta_for(TxId(7));
        c.insert(tx_line);
        c.insert(CacheLine::new(blk(1), Moesi::Shared));
        assert_eq!(c.remove_matching(|l| l.is_owned_by(TxId(7))), 1);
        assert_eq!(c.len(), 1);
        assert!(c.contains(blk(1)));
    }
}
