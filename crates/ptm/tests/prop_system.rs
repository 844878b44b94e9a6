//! Model-based property testing of `PtmSystem` in isolation: random
//! sequences of overflow/commit/abort events against a plain map of
//! committed values. Covers both policies and all three granularities at
//! the unit level (disjoint writers only — concurrent same-word writers are
//! excluded by conflict detection, which the machine-level suite covers).

use proptest::prelude::*;
use ptm_cache::{BusTimings, SystemBus, TxLineMeta};
use ptm_core::{PtmConfig, PtmSystem};
use ptm_mem::{PhysicalMemory, SpecBlock, SwapStore};
use ptm_types::{BlockIdx, Granularity, PhysAddr, PhysBlock, TxId, WordIdx, WordMask, BLOCK_SIZE};
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Event {
    /// Transaction `t` writes word `w` of block `b` (value derived) and the
    /// line immediately overflows.
    WriteOverflow { t: u8, b: u8, w: u8 },
    /// Transaction `t` commits.
    Commit { t: u8 },
    /// Transaction `t` aborts (and will not return).
    Abort { t: u8 },
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        4 => (0u8..4, 0u8..6, 0u8..4).prop_map(|(t, b, w)| Event::WriteOverflow { t, b, w }),
        2 => (0u8..4).prop_map(|t| Event::Commit { t }),
        1 => (0u8..4).prop_map(|t| Event::Abort { t }),
    ]
}

fn configs() -> Vec<PtmConfig> {
    vec![
        PtmConfig::copy(),
        PtmConfig::select(),
        PtmConfig::select_with_granularity(Granularity::WordCache),
        PtmConfig::select_with_granularity(Granularity::WordCacheMem),
        PtmConfig {
            granularity: Granularity::WordCacheMem,
            ..PtmConfig::copy()
        },
    ]
}

/// Each (transaction, word) pair gets a distinct slot so that writers are
/// always word-disjoint: word index = t * 4 + w (16 words per block, 4 txs).
fn word_of(t: u8, w: u8) -> WordIdx {
    WordIdx(t * 4 + w)
}

fn value_of(t: u8, b: u8, w: u8, gen: u32) -> u32 {
    1 + u32::from(t) * 1000 + u32::from(b) * 100 + u32::from(w) * 10 + gen
}

/// Replays `events` against a `PtmSystem` under `cfg` and against the
/// committed-value model; returns the first word whose committed value
/// diverged.
fn first_divergence(cfg: PtmConfig, events: &[Event]) -> Option<String> {
    let word_mode = cfg.granularity.word_in_cache();
    let mut ptm = PtmSystem::new(cfg);
    let mut mem = PhysicalMemory::new(64);
    let frame = mem.alloc().unwrap();
    ptm.on_page_alloc(frame);
    let mut bus = SystemBus::new(BusTimings::default());

    // Model: committed value per (block, word); plus per-tx pending
    // writes and generation counters for distinct values.
    let mut committed: HashMap<(u8, u8), u32> = HashMap::new();
    let mut pending: Vec<HashMap<(u8, u8), u32>> = vec![HashMap::new(); 4];
    let mut live = [false; 4];
    let mut dead = [false; 4];
    let mut next_id = 0u64;
    let mut ids = [TxId(0); 4];
    let mut gen = 0u32;
    let mut now = 0u64;

    for e in events {
        now += 100;
        match *e {
            Event::WriteOverflow { t, b, w } => {
                let (ti, bi) = (t as usize, b);
                if dead[ti] {
                    continue;
                }
                if !live[ti] {
                    ids[ti] = TxId(next_id);
                    next_id += 1;
                    ptm.begin(ids[ti], None);
                    live[ti] = true;
                }
                // In block mode, only one live writer per block is
                // legal: skip events that would violate what
                // conflict detection forbids.
                if !word_mode {
                    let clash = (0..4)
                        .any(|o| o != ti && live[o] && pending[o].keys().any(|(ob, _)| *ob == bi));
                    if clash {
                        continue;
                    }
                }
                gen += 1;
                let word = word_of(t, w);
                let value = value_of(t, b, w, gen);
                // Build the spec snapshot the machine would hold: the
                // transaction's full view of the block.
                let mut data = [0u8; BLOCK_SIZE];
                for ww in 0..16u8 {
                    let base = committed.get(&(bi, ww)).copied().unwrap_or(0);
                    let v = pending[ti].get(&(bi, ww)).copied().unwrap_or(base);
                    data[ww as usize * 4..ww as usize * 4 + 4].copy_from_slice(&v.to_le_bytes());
                }
                data[word.0 as usize * 4..word.0 as usize * 4 + 4]
                    .copy_from_slice(&value.to_le_bytes());
                let mut written = WordMask::EMPTY;
                // The buffer carries ALL of this tx's writes to the
                // block so far plus the new one (as a refetched
                // line's buffer would).
                for ((ob, ow), _) in pending[ti].iter() {
                    if *ob == bi {
                        written.set(WordIdx(*ow));
                    }
                }
                written.set(word);
                pending[ti].insert((bi, word.0), value);

                let mut meta = TxLineMeta::new(ids[ti]);
                meta.record_write(word);
                for ((ob, ow), _) in pending[ti].iter() {
                    if *ob == bi {
                        meta.record_write(WordIdx(*ow));
                    }
                }
                ptm.on_tx_eviction(
                    &meta,
                    PhysBlock::new(frame, BlockIdx(bi)),
                    Some(&SpecBlock { data, written }),
                    false,
                    &mut mem,
                    now,
                    &mut bus,
                )
                .unwrap();
            }
            Event::Commit { t } => {
                let ti = t as usize;
                if live[ti] {
                    ptm.commit(ids[ti], &mut mem, &mut SwapStore::new(), now, &mut bus);
                    for ((b, w), v) in pending[ti].drain() {
                        committed.insert((b, w), v);
                    }
                    live[ti] = false;
                }
            }
            Event::Abort { t } => {
                let ti = t as usize;
                if live[ti] {
                    ptm.abort(ids[ti], &mut mem, &mut SwapStore::new(), now, &mut bus);
                    pending[ti].clear();
                    live[ti] = false;
                    dead[ti] = true;
                }
            }
        }
    }
    // Finish everything still live so the committed view is final.
    for ti in 0..4 {
        if live[ti] {
            ptm.commit(
                ids[ti],
                &mut mem,
                &mut SwapStore::new(),
                now + 1_000,
                &mut bus,
            );
            for ((b, w), v) in pending[ti].drain() {
                committed.insert((b, w), v);
            }
        }
    }

    // Verify every written word's committed value.
    let mut words: Vec<_> = committed.into_iter().collect();
    words.sort_unstable();
    words.into_iter().find_map(|((b, w), v)| {
        let block = PhysBlock::new(frame, BlockIdx(b));
        let cf = ptm.committed_frame(block);
        let pa = PhysAddr::from_frame(cf, block.addr().page_offset() + w as usize * 4);
        let got = mem.read_word(pa);
        (got != v).then(|| format!("block {b} word {w}: committed {v}, read {got}"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn ptm_system_matches_committed_value_model(events in prop::collection::vec(event(), 1..60)) {
        for cfg in configs() {
            prop_assert_eq!(first_divergence(cfg, &events), None, "cfg {:?}", cfg);
        }
    }
}

/// The one case proptest ever shrank a failure to: a transaction
/// overflows a block, a second one overflows another word of it, the
/// first commits, then rewrites the word in a new transaction and aborts.
#[test]
fn commit_then_aborted_rewrite_of_a_shared_block() {
    use Event::{Abort, Commit, WriteOverflow};
    let events = [
        WriteOverflow { t: 1, b: 4, w: 0 },
        WriteOverflow { t: 0, b: 4, w: 0 },
        Commit { t: 1 },
        WriteOverflow { t: 1, b: 4, w: 0 },
        Abort { t: 1 },
    ];
    for cfg in configs() {
        assert_eq!(first_divergence(cfg, &events), None, "cfg {cfg:?}");
    }
}
