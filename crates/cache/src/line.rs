//! Cache lines: MOESI state plus the paper's transactional augmentation.

use ptm_types::{PhysBlock, TxId, WordIdx, WordMask};
use std::fmt;

/// MOESI coherence states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Moesi {
    /// Not present / stale.
    Invalid,
    /// Clean, possibly shared with other caches.
    Shared,
    /// Clean, exclusive to this cache.
    Exclusive,
    /// Dirty, shared with other caches (this cache supplies data).
    Owned,
    /// Dirty, exclusive to this cache.
    Modified,
}

impl Moesi {
    /// Whether this state implies the line differs from memory.
    pub fn is_dirty(self) -> bool {
        matches!(self, Moesi::Owned | Moesi::Modified)
    }

    /// Whether the cache may write without a coherence transaction.
    pub fn allows_silent_write(self) -> bool {
        matches!(self, Moesi::Exclusive | Moesi::Modified)
    }
}

impl fmt::Display for Moesi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Moesi::Invalid => 'I',
            Moesi::Shared => 'S',
            Moesi::Exclusive => 'E',
            Moesi::Owned => 'O',
            Moesi::Modified => 'M',
        };
        write!(f, "{c}")
    }
}

/// The transactional metadata a line carries (§4.1): "a Transaction ID, and
/// bits indicating if the transaction read or wrote the block" — extended
/// with per-word masks for the Figure 5 word-granularity configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxLineMeta {
    /// The owning transaction.
    pub tx: TxId,
    /// The transaction read this block.
    pub read: bool,
    /// The transaction wrote this block.
    pub write: bool,
    /// Words the transaction read (word-granularity tracking).
    pub read_words: WordMask,
    /// Words the transaction wrote (word-granularity tracking).
    pub write_words: WordMask,
}

impl TxLineMeta {
    /// Fresh metadata for a transaction that has not yet touched the block.
    pub fn new(tx: TxId) -> Self {
        TxLineMeta {
            tx,
            read: false,
            write: false,
            read_words: WordMask::EMPTY,
            write_words: WordMask::EMPTY,
        }
    }

    /// Records a read of `word`.
    pub fn record_read(&mut self, word: WordIdx) {
        self.read = true;
        self.read_words.set(word);
    }

    /// Records a write of `word`.
    pub fn record_write(&mut self, word: WordIdx) {
        self.write = true;
        self.write_words.set(word);
    }

    /// Records an access to `word`: a read, plus a write when `write`
    /// (a transactional write also counts as a read of its word).
    pub fn record_access(&mut self, word: WordIdx, write: bool) {
        self.record_read(word);
        if write {
            self.record_write(word);
        }
    }

    /// Whether another party's access to `word` (a write when `is_write`)
    /// conflicts with this transaction's recorded use of the block: a read
    /// against a write, a write against either. In `word_mode` only this
    /// transaction's uses of `word` itself count; otherwise any use of the
    /// block does.
    #[inline]
    pub fn conflicts_with(&self, is_write: bool, word: WordIdx, word_mode: bool) -> bool {
        match (is_write, word_mode) {
            (false, false) => self.write,
            (false, true) => self.write_words.get(word),
            (true, false) => self.read || self.write,
            (true, true) => self.read_words.get(word) || self.write_words.get(word),
        }
    }
}

/// A cache line: which block it caches, its MOESI state, and optional
/// transactional metadata.
///
/// Lines carry no data — see the crate docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine {
    block: PhysBlock,
    state: Moesi,
    tx: Option<TxLineMeta>,
    /// LRU timestamp maintained by the containing array.
    pub(crate) lru: u64,
}

impl CacheLine {
    /// A line in the given coherence state with no transactional state.
    pub fn new(block: PhysBlock, state: Moesi) -> Self {
        CacheLine {
            block,
            state,
            tx: None,
            lru: 0,
        }
    }

    /// A presence-only line for the L1 filter.
    pub(crate) fn presence(block: PhysBlock) -> Self {
        CacheLine::new(block, Moesi::Shared)
    }

    /// The block this line caches.
    pub fn block(&self) -> PhysBlock {
        self.block
    }

    /// Current MOESI state.
    pub fn state(&self) -> Moesi {
        self.state
    }

    /// Sets the MOESI state.
    pub fn set_state(&mut self, state: Moesi) {
        self.state = state;
    }

    /// The transactional metadata, if any transaction touched the line.
    pub fn tx_meta(&self) -> Option<&TxLineMeta> {
        self.tx.as_ref()
    }

    /// Returns the metadata for `tx`, creating it if the line is currently
    /// non-transactional.
    ///
    /// # Panics
    ///
    /// Panics if the line is already owned by a *different* transaction —
    /// conflict detection must have resolved that before the access.
    pub fn tx_meta_for(&mut self, tx: TxId) -> &mut TxLineMeta {
        match &mut self.tx {
            Some(meta) => {
                assert_eq!(meta.tx, tx, "line already owned by {}", meta.tx);
                self.tx.as_mut().expect("just matched")
            }
            None => {
                self.tx = Some(TxLineMeta::new(tx));
                self.tx.as_mut().expect("just set")
            }
        }
    }

    /// Clears the transactional metadata (commit keeps the line; abort
    /// invalidates dirty lines separately).
    pub fn clear_tx(&mut self) {
        self.tx = None;
    }

    /// Whether this line belongs to transaction `tx`.
    pub fn is_owned_by(&self, tx: TxId) -> bool {
        self.tx.map(|m| m.tx == tx).unwrap_or(false)
    }

    /// Whether the line carries any transactional state.
    pub fn is_transactional(&self) -> bool {
        self.tx.is_some()
    }
}

impl fmt::Display for CacheLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.block, self.state)?;
        if let Some(m) = &self.tx {
            write!(
                f,
                " {}{}{}",
                m.tx,
                if m.read { "r" } else { "" },
                if m.write { "w" } else { "" }
            )?;
        }
        Ok(())
    }
}

/// Which level an access hit in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hit {
    /// First-level hit (1 cycle).
    L1,
    /// Second-level hit.
    L2,
}

/// Result of probing a [`crate::Hierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeResult {
    /// The block is cached.
    Hit(Hit),
    /// The block is not cached; a bus transaction is needed.
    Miss,
}

impl ProbeResult {
    /// Returns `true` for a miss.
    pub fn is_miss(self) -> bool {
        matches!(self, ProbeResult::Miss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_types::{BlockIdx, FrameId};

    fn blk() -> PhysBlock {
        PhysBlock::new(FrameId(0), BlockIdx(0))
    }

    #[test]
    fn moesi_dirty_states() {
        assert!(Moesi::Modified.is_dirty());
        assert!(Moesi::Owned.is_dirty());
        assert!(!Moesi::Shared.is_dirty());
        assert!(!Moesi::Exclusive.is_dirty());
        assert!(!Moesi::Invalid.is_dirty());
    }

    #[test]
    fn silent_write_only_in_exclusive_states() {
        assert!(Moesi::Exclusive.allows_silent_write());
        assert!(Moesi::Modified.allows_silent_write());
        assert!(!Moesi::Shared.allows_silent_write());
        assert!(!Moesi::Owned.allows_silent_write());
    }

    #[test]
    fn tx_meta_records_word_accesses() {
        let mut m = TxLineMeta::new(TxId(1));
        m.record_read(WordIdx(2));
        m.record_write(WordIdx(5));
        assert!(m.read && m.write);
        assert!(m.read_words.get(WordIdx(2)));
        assert!(m.write_words.get(WordIdx(5)));
        assert!(!m.write_words.get(WordIdx(2)));
    }

    #[test]
    fn conflict_truth_table() {
        let mut reader = TxLineMeta::new(TxId(1));
        reader.record_access(WordIdx(2), false);
        let mut writer = TxLineMeta::new(TxId(1));
        writer.record_access(WordIdx(2), true);
        let (own, disjoint) = (WordIdx(2), WordIdx(7));
        // (line, requester writes, word mode, word, conflicts)
        let table = [
            (reader, false, false, own, false),
            (reader, false, false, disjoint, false),
            (reader, true, false, own, true),
            (reader, true, false, disjoint, true),
            (reader, false, true, own, false),
            (reader, false, true, disjoint, false),
            (reader, true, true, own, true),
            (reader, true, true, disjoint, false),
            (writer, false, false, own, true),
            (writer, false, false, disjoint, true),
            (writer, true, false, own, true),
            (writer, true, false, disjoint, true),
            (writer, false, true, own, true),
            (writer, false, true, disjoint, false),
            (writer, true, true, own, true),
            (writer, true, true, disjoint, false),
        ];
        for (line, is_write, word_mode, word, want) in table {
            assert_eq!(
                line.conflicts_with(is_write, word, word_mode),
                want,
                "line write={} requester write={is_write} word_mode={word_mode} {word:?}",
                line.write
            );
        }
    }

    #[test]
    fn tx_meta_for_creates_then_reuses() {
        let mut line = CacheLine::new(blk(), Moesi::Exclusive);
        assert!(!line.is_transactional());
        line.tx_meta_for(TxId(3)).record_read(WordIdx(0));
        assert!(line.is_owned_by(TxId(3)));
        line.tx_meta_for(TxId(3)).record_write(WordIdx(1));
        let m = line.tx_meta().unwrap();
        assert!(m.read && m.write);
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn tx_meta_for_rejects_second_transaction() {
        let mut line = CacheLine::new(blk(), Moesi::Exclusive);
        line.tx_meta_for(TxId(1));
        line.tx_meta_for(TxId(2));
    }

    #[test]
    fn clear_tx_removes_metadata() {
        let mut line = CacheLine::new(blk(), Moesi::Modified);
        line.tx_meta_for(TxId(1)).record_write(WordIdx(0));
        line.clear_tx();
        assert!(!line.is_transactional());
        assert_eq!(line.state(), Moesi::Modified, "coherence state unchanged");
    }

    #[test]
    fn display_includes_tx_bits() {
        let mut line = CacheLine::new(blk(), Moesi::Modified);
        line.tx_meta_for(TxId(9)).record_write(WordIdx(0));
        let s = format!("{line}");
        assert!(s.contains("tx:9"), "{s}");
        assert!(s.contains('w'), "{s}");
    }
}
