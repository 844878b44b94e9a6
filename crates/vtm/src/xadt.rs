//! The XADT: VTM's overflow log table.
//!
//! One entry per overflowed block (per process), holding the old committed
//! value, the speculative value (if a transaction wrote the block), the
//! reader set and the writer. VTM keys its structures by **virtual**
//! address — they live in each application's address space — which is why
//! VTM cannot cover inter-process physical sharing the way PTM does (§5.3).

use ptm_mem::SpecBlock;
use ptm_types::{FastMap, ProcessId, TxId, VirtAddr, BLOCK_SIZE};

/// Key of an XADT entry: which process's address space, which block.
pub type XadtKey = (ProcessId, VirtAddr);

/// One overflowed block's log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XadtEntry {
    /// The committed data at the time of the first overflow (used for
    /// non-transactional conflict detection in VTM; in this model it also
    /// documents that memory keeps the old value until commit).
    pub old_data: [u8; BLOCK_SIZE],
    /// The speculative data and written-word mask, once a writer overflowed.
    pub new_data: Option<SpecBlock>,
    /// Transactions that read-overflowed the block.
    pub readers: Vec<TxId>,
    /// The (single) transaction that write-overflowed the block.
    pub writer: Option<TxId>,
}

impl XadtEntry {
    fn new(old_data: [u8; BLOCK_SIZE]) -> Self {
        XadtEntry {
            old_data,
            new_data: None,
            readers: Vec::new(),
            writer: None,
        }
    }

    /// Transactions with any use of this block.
    pub fn users(&self) -> impl Iterator<Item = TxId> + '_ {
        self.readers.iter().copied().chain(self.writer)
    }
}

/// The overflow table.
///
/// # Examples
///
/// ```
/// use ptm_vtm::Xadt;
/// use ptm_types::{ProcessId, TxId, VirtAddr};
///
/// let mut xadt = Xadt::new();
/// let key = (ProcessId(0), VirtAddr::new(0x1000));
/// xadt.record_read(key, TxId(1), || [0u8; 64]);
/// assert_eq!(xadt.entry(key).unwrap().readers, vec![TxId(1)]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Xadt {
    entries: FastMap<XadtKey, XadtEntry>,
    peak: usize,
}

impl Xadt {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no blocks are overflowed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Peak entry count.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Looks up the entry for a block.
    pub fn entry(&self, key: XadtKey) -> Option<&XadtEntry> {
        self.entries.get(&normalize(key))
    }

    /// Records a read overflow. `old` supplies the committed data if the
    /// entry must be created.
    pub fn record_read<F>(&mut self, key: XadtKey, tx: TxId, old: F)
    where
        F: FnOnce() -> [u8; BLOCK_SIZE],
    {
        let e = self
            .entries
            .entry(normalize(key))
            .or_insert_with(|| XadtEntry::new(old()));
        if !e.readers.contains(&tx) {
            e.readers.push(tx);
        }
        self.peak = self.peak.max(self.entries.len());
    }

    /// Records a write overflow, buffering the speculative data in the log.
    ///
    /// # Panics
    ///
    /// Panics if a *different* transaction already write-overflowed the
    /// block — conflict detection must have prevented that.
    pub fn record_write<F>(&mut self, key: XadtKey, tx: TxId, spec: SpecBlock, old: F)
    where
        F: FnOnce() -> [u8; BLOCK_SIZE],
    {
        let e = self
            .entries
            .entry(normalize(key))
            .or_insert_with(|| XadtEntry::new(old()));
        if let Some(prev) = e.writer {
            assert_eq!(prev, tx, "two overflowed writers for one block");
        }
        e.writer = Some(tx);
        match &mut e.new_data {
            Some(existing) => {
                // Merge the newer eviction's written words over the log copy.
                ptm_mem::versions::apply_written_words(&mut existing.data, &spec);
                existing.written = existing.written | spec.written;
            }
            None => e.new_data = Some(spec),
        }
        self.peak = self.peak.max(self.entries.len());
    }

    /// Reads a word of `tx`'s buffered speculative data, if any.
    pub fn read_spec_word(&self, key: XadtKey, tx: TxId, word: ptm_types::WordIdx) -> Option<u32> {
        let e = self.entries.get(&normalize(key))?;
        if e.writer != Some(tx) {
            return None;
        }
        e.new_data.as_ref().map(|d| d.read_word(word))
    }

    /// Removes `tx` from an entry; drops the entry when unused. Returns the
    /// speculative data if `tx` was the writer (commit copies it back to
    /// memory; abort discards it), plus whether the entry was fully removed
    /// (so the XF counter can be decremented).
    pub fn release(&mut self, key: XadtKey, tx: TxId) -> (Option<SpecBlock>, bool) {
        let k = normalize(key);
        let Some(e) = self.entries.get_mut(&k) else {
            return (None, false);
        };
        e.readers.retain(|t| *t != tx);
        let spec = if e.writer == Some(tx) {
            e.writer = None;
            e.new_data.take()
        } else {
            None
        };
        let empty = e.readers.is_empty() && e.writer.is_none();
        if empty {
            self.entries.remove(&k);
        }
        (spec, empty)
    }

    /// All blocks `tx` currently appears in.
    pub fn blocks_of(&self, tx: TxId) -> Vec<XadtKey> {
        let mut keys: Vec<XadtKey> = self
            .entries
            .iter()
            .filter(|(_, e)| e.users().any(|t| t == tx))
            .map(|(k, _)| *k)
            .collect();
        // The entry map iterates in hash order, which varies between
        // processes; commit/abort charge sequential bus latencies per block,
        // so an unsorted walk gives each block a run-dependent cleanup
        // deadline (observable as nondeterministic stall cycles).
        keys.sort();
        keys
    }

    /// Conflict check: transactions (≠ `requester`) whose overflowed use of
    /// the block conflicts with an access of the given kind. Mirrors PTM's
    /// RAW / WAR / WAW rules.
    pub fn conflicting(
        &self,
        key: XadtKey,
        requester: Option<TxId>,
        is_write: bool,
        word: ptm_types::WordIdx,
        word_level: bool,
    ) -> Vec<TxId> {
        let Some(e) = self.entries.get(&normalize(key)) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        if let Some(w) = e.writer {
            if Some(w) != requester {
                let overlaps = if word_level {
                    e.new_data
                        .as_ref()
                        .map(|d| d.written.get(word))
                        .unwrap_or(true)
                } else {
                    true
                };
                if overlaps {
                    out.push(w);
                }
            }
        }
        if is_write {
            for r in &e.readers {
                if Some(*r) != requester {
                    out.push(*r);
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

/// XADT keys are block-aligned.
fn normalize(key: XadtKey) -> XadtKey {
    (key.0, key.1.block_aligned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_types::{WordIdx, WordMask};

    fn key(addr: u64) -> XadtKey {
        (ProcessId(0), VirtAddr::new(addr))
    }

    fn spec(word: u8, value: u32) -> SpecBlock {
        let mut data = [0u8; BLOCK_SIZE];
        data[word as usize * 4..word as usize * 4 + 4].copy_from_slice(&value.to_le_bytes());
        let mut written = WordMask::EMPTY;
        written.set(WordIdx(word));
        SpecBlock { data, written }
    }

    #[test]
    fn read_then_write_same_tx() {
        let mut x = Xadt::new();
        x.record_read(key(0x1000), TxId(1), || [7u8; BLOCK_SIZE]);
        x.record_write(key(0x1000), TxId(1), spec(0, 42), || [7u8; BLOCK_SIZE]);
        let e = x.entry(key(0x1000)).unwrap();
        assert_eq!(e.readers, vec![TxId(1)]);
        assert_eq!(e.writer, Some(TxId(1)));
        assert_eq!(e.old_data[0], 7, "old value snapshotted once");
        assert_eq!(x.read_spec_word(key(0x1000), TxId(1), WordIdx(0)), Some(42));
        assert_eq!(x.read_spec_word(key(0x1000), TxId(2), WordIdx(0)), None);
    }

    #[test]
    fn keys_are_block_aligned() {
        let mut x = Xadt::new();
        x.record_read(key(0x1004), TxId(1), || [0u8; BLOCK_SIZE]);
        assert!(x.entry(key(0x1000)).is_some());
        assert!(x.entry(key(0x103c)).is_some());
        assert!(x.entry(key(0x1040)).is_none());
    }

    #[test]
    fn repeated_write_overflow_merges_words() {
        let mut x = Xadt::new();
        x.record_write(key(0), TxId(1), spec(0, 1), || [0u8; BLOCK_SIZE]);
        x.record_write(key(0), TxId(1), spec(1, 2), || [0u8; BLOCK_SIZE]);
        let d = x.entry(key(0)).unwrap().new_data.as_ref().unwrap();
        assert_eq!(d.read_word(WordIdx(0)), 1);
        assert_eq!(d.read_word(WordIdx(1)), 2);
        assert_eq!(d.written.count(), 2);
    }

    #[test]
    #[should_panic(expected = "two overflowed writers")]
    fn second_writer_panics() {
        let mut x = Xadt::new();
        x.record_write(key(0), TxId(1), spec(0, 1), || [0u8; BLOCK_SIZE]);
        x.record_write(key(0), TxId(2), spec(1, 2), || [0u8; BLOCK_SIZE]);
    }

    #[test]
    fn conflicts_follow_raw_war_waw() {
        let mut x = Xadt::new();
        x.record_read(key(0), TxId(1), || [0u8; BLOCK_SIZE]);
        x.record_write(key(64), TxId(2), spec(0, 1), || [0u8; BLOCK_SIZE]);

        // Reader of a read-overflowed block: no conflict.
        assert!(x
            .conflicting(key(0), Some(TxId(3)), false, WordIdx(0), false)
            .is_empty());
        // Writer against a reader: WAR.
        assert_eq!(
            x.conflicting(key(0), Some(TxId(3)), true, WordIdx(0), false),
            vec![TxId(1)]
        );
        // Reader against a writer: RAW.
        assert_eq!(
            x.conflicting(key(64), Some(TxId(3)), false, WordIdx(0), false),
            vec![TxId(2)]
        );
        // The owner never conflicts with itself.
        assert!(x
            .conflicting(key(64), Some(TxId(2)), true, WordIdx(0), false)
            .is_empty());
    }

    #[test]
    fn word_level_check_ignores_disjoint_words() {
        let mut x = Xadt::new();
        x.record_write(key(0), TxId(1), spec(0, 1), || [0u8; BLOCK_SIZE]);
        assert!(x
            .conflicting(key(0), Some(TxId(2)), false, WordIdx(5), true)
            .is_empty());
        assert_eq!(
            x.conflicting(key(0), Some(TxId(2)), false, WordIdx(0), true),
            vec![TxId(1)]
        );
    }

    #[test]
    fn release_returns_spec_and_frees_entry() {
        let mut x = Xadt::new();
        x.record_read(key(0), TxId(1), || [0u8; BLOCK_SIZE]);
        x.record_write(key(0), TxId(2), spec(0, 9), || [0u8; BLOCK_SIZE]);

        let (spec1, removed1) = x.release(key(0), TxId(1));
        assert!(spec1.is_none());
        assert!(!removed1, "writer still present");

        let (spec2, removed2) = x.release(key(0), TxId(2));
        assert_eq!(spec2.unwrap().read_word(WordIdx(0)), 9);
        assert!(removed2);
        assert!(x.is_empty());
        assert_eq!(x.peak(), 1);
    }

    #[test]
    fn blocks_of_finds_all_uses() {
        let mut x = Xadt::new();
        x.record_read(key(0), TxId(1), || [0u8; BLOCK_SIZE]);
        x.record_write(key(64), TxId(1), spec(0, 1), || [0u8; BLOCK_SIZE]);
        x.record_read(key(128), TxId(2), || [0u8; BLOCK_SIZE]);
        let mut blocks = x.blocks_of(TxId(1));
        blocks.sort();
        assert_eq!(blocks.len(), 2);
        assert_eq!(x.blocks_of(TxId(3)).len(), 0);
    }
}
