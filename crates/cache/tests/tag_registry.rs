//! The tagged-line registry against a full-sweep reference model.
//!
//! `Hierarchy` commits and aborts by walking a registry of the L2 lines
//! that may carry transactional tags. [`Model`] is the same two-level cache
//! built from bare `CacheArray`s whose commit and abort sweep every set:
//! slower, but obviously complete. Seeded operation streams
//! drive four tiny-geometry hierarchies (so sets overflow and lines are
//! evicted constantly) and their models in lockstep; after every operation
//! both levels of every cache must hold identical lines — block, MOESI
//! state, LRU stamp and transactional metadata — and identical L2 stats.
//! A hierarchy that was `reset` partway through a stream must then run the
//! rest of it exactly as a new one does.

use ptm_cache::{
    abort_tx_lines, commit_tx_lines, flush_non_tx_lines, supply, CacheArray, CacheConfig,
    CacheLine, DataSource, Eviction, Hierarchy, Moesi, SupplyOutcome,
};
use ptm_types::rng::SplitMix64;
use ptm_types::{BlockIdx, FrameId, PhysBlock, TxId, WordIdx};

const CORES: usize = 4;
/// Blocks drawn by the streams: 24 blocks over 4 L2 sets of 2 ways.
const BLOCKS: u64 = 24;
/// Transactions drawn by the streams.
const TXS: u64 = 3;

fn l1_cfg() -> CacheConfig {
    CacheConfig::tiny(2, 1)
}

fn l2_cfg() -> CacheConfig {
    CacheConfig::tiny(4, 2)
}

fn blk(n: u64) -> PhysBlock {
    PhysBlock::new(FrameId((n / 64) as u32), BlockIdx((n % 64) as u8))
}

/// One core's L1+L2 with commit and abort as full sweeps over every set.
struct Model {
    l1: CacheArray,
    l2: CacheArray,
}

impl Model {
    fn new() -> Self {
        Model {
            l1: CacheArray::new(l1_cfg()),
            l2: CacheArray::new(l2_cfg()),
        }
    }

    fn touch_mut(&mut self, block: PhysBlock) -> Option<&mut CacheLine> {
        if !self.l2.contains(block) {
            return None;
        }
        let _ = self.l1.insert(CacheLine::new(block, Moesi::Shared));
        self.l2.get_mut(block)
    }

    fn fill(&mut self, line: CacheLine) -> Option<Eviction> {
        let block = line.block();
        let victim = self.l2.insert(line);
        if let Some(ev) = &victim {
            self.l1.invalidate(ev.line.block());
        }
        let _ = self.l1.insert(CacheLine::new(block, Moesi::Shared));
        victim
    }

    fn invalidate(&mut self, block: PhysBlock) -> Option<CacheLine> {
        self.l1.invalidate(block);
        self.l2.invalidate(block).map(|e| e.line)
    }

    fn commit(&mut self, tx: TxId) -> u64 {
        let mut n = 0;
        for line in self.l2.lines_mut() {
            if line.is_owned_by(tx) {
                line.clear_tx();
                n += 1;
            }
        }
        n
    }

    fn abort(&mut self, tx: TxId) -> (u64, u64) {
        let dirty: Vec<PhysBlock> = self
            .l2
            .lines()
            .filter(|l| l.is_owned_by(tx) && l.state().is_dirty())
            .map(|l| l.block())
            .collect();
        for b in &dirty {
            self.invalidate(*b);
        }
        (dirty.len() as u64, self.commit(tx))
    }

    fn flush(&mut self) -> u64 {
        let dropped = self.l2.remove_matching(|l| !l.is_transactional());
        self.l1.remove_matching(|_| true);
        dropped as u64
    }
}

/// `supply`'s MOESI transitions, replayed on the models.
fn model_supply(
    models: &mut [Model],
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
    for (i, m) in models.iter_mut().enumerate() {
        if i == requester {
            continue;
        }
        let Some(line) = m.touch_mut(block) else {
            continue;
        };
        if for_write {
            if line.state().is_dirty()
                || (source == DataSource::Memory && line.state() != Moesi::Invalid)
            {
                source = DataSource::OtherCache;
            }
            let own = requester_tx.is_some_and(|t| line.is_owned_by(t));
            if preserve_tx_lines && line.is_transactional() && !own {
                sharers_remaining = true;
                continue;
            }
            let removed = m.invalidate(block).expect("line was present");
            m.l2.stats_mut().coherence_invalidations += 1;
            invalidations += 1;
            if removed.is_transactional() {
                displaced_tx.push(removed);
            }
        } else {
            source = DataSource::OtherCache;
            sharers_remaining = true;
            match line.state() {
                Moesi::Modified => line.set_state(Moesi::Owned),
                Moesi::Exclusive => line.set_state(Moesi::Shared),
                _ => {}
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

fn sorted(lines: impl Iterator<Item = CacheLine>) -> Vec<CacheLine> {
    let mut v: Vec<CacheLine> = lines.collect();
    v.sort_by_key(|l| l.block());
    v
}

fn assert_same(caches: &[Hierarchy], models: &[Model], seed: u64, step: usize, op: &str) {
    for (c, (h, m)) in caches.iter().zip(models).enumerate() {
        let ctx = || format!("seed {seed} step {step} ({op}) core {c}");
        assert_eq!(
            sorted(h.lines().copied()),
            sorted(m.l2.lines().copied()),
            "L2 {}",
            ctx()
        );
        assert_eq!(
            sorted(h.l1().lines().copied()),
            sorted(m.l1.lines().copied()),
            "L1 {}",
            ctx()
        );
        assert_eq!(h.l2_stats(), m.l2.stats(), "L2 stats {}", ctx());
    }
}

fn pick(rng: &mut SplitMix64, n: u64) -> u64 {
    rng.next_u64() % n
}

fn any_state(rng: &mut SplitMix64) -> Moesi {
    [
        Moesi::Shared,
        Moesi::Exclusive,
        Moesi::Owned,
        Moesi::Modified,
    ][pick(rng, 4) as usize]
}

/// A line `tx` may tag: absent, untagged, or already `tx`'s.
fn taggable(line: Option<&CacheLine>, tx: TxId) -> bool {
    line.is_none_or(|l| !l.is_transactional() || l.is_owned_by(tx))
}

fn new_caches() -> Vec<Hierarchy> {
    (0..CORES)
        .map(|_| Hierarchy::new(l1_cfg(), l2_cfg()))
        .collect()
}

fn new_models() -> Vec<Model> {
    (0..CORES).map(|_| Model::new()).collect()
}

/// Runs `steps` random operations drawn from `rng` on `caches` and
/// `models` in lockstep. `span` > 100 stretches the time between commits
/// and aborts (the extra rolls become fills and hits), so the registries
/// grow until `fill` compacts them. `seed` only labels failures.
fn drive(
    caches: &mut [Hierarchy],
    models: &mut [Model],
    rng: &mut SplitMix64,
    seed: u64,
    steps: usize,
    span: u64,
) {
    for step in 0..steps {
        let c = pick(rng, CORES as u64) as usize;
        let b = blk(pick(rng, BLOCKS));
        let tx = TxId(1 + pick(rng, TXS));
        let word = WordIdx(pick(rng, 16) as u8);
        let write = pick(rng, 2) == 0;
        let roll = match pick(rng, span) {
            r if r < 100 => r,
            r => 20 + r % 45,
        };
        let op = match roll {
            0..=19 => {
                let line = CacheLine::new(b, any_state(rng));
                assert_eq!(caches[c].fill(line), models[c].fill(line));
                "untagged fill"
            }
            20..=44 => {
                let mut line = CacheLine::new(b, any_state(rng));
                line.tx_meta_for(tx).record_access(word, write);
                assert_eq!(caches[c].fill(line), models[c].fill(line));
                "tagged fill"
            }
            45..=64 => {
                if !taggable(caches[c].line(b), tx) {
                    continue;
                }
                let tag = pick(rng, 4) != 0;
                let real = caches[c].touch_mut(b).map(|mut line| {
                    if write {
                        line.set_state(Moesi::Modified);
                    }
                    if tag {
                        line.tag(tx).record_access(word, write);
                    }
                });
                let model = models[c].touch_mut(b).map(|line| {
                    if write {
                        line.set_state(Moesi::Modified);
                    }
                    if tag {
                        line.tx_meta_for(tx).record_access(word, write);
                    }
                });
                assert_eq!(real, model);
                "hit"
            }
            65..=76 => {
                let allow = pick(rng, 4) != 0;
                let preserve = pick(rng, 2) == 0;
                let req = (pick(rng, 2) == 0).then_some(tx);
                let real = supply(caches, c, b, write, allow, preserve, req);
                let model = model_supply(models, c, b, write, allow, preserve, req);
                assert_eq!(real, model);
                "supply"
            }
            77..=84 => {
                assert_eq!(caches[c].invalidate(b), models[c].invalidate(b));
                "invalidate"
            }
            85..=86 => {
                assert_eq!(flush_non_tx_lines(&mut caches[c]), models[c].flush());
                "flush"
            }
            87..=94 => {
                for (h, m) in caches.iter_mut().zip(models.iter_mut()) {
                    assert_eq!(commit_tx_lines(h, tx), m.commit(tx));
                }
                "commit"
            }
            _ => {
                for (h, m) in caches.iter_mut().zip(models.iter_mut()) {
                    assert_eq!(abort_tx_lines(h, tx), m.abort(tx));
                }
                "abort"
            }
        };
        assert_same(caches, models, seed, step, op);
    }
}

/// Runs a whole stream on new hierarchies against new models.
fn drive_new(seed: u64, steps: usize, span: u64) {
    let mut rng = SplitMix64::new(seed);
    drive(
        &mut new_caches(),
        &mut new_models(),
        &mut rng,
        seed,
        steps,
        span,
    );
}

#[test]
fn registry_commit_and_abort_match_full_sweep() {
    for seed in 1..=4 {
        drive_new(seed, 5_000, 100);
    }
    for seed in 5..=8 {
        drive_new(seed, 5_000, 2_000);
    }
}

#[test]
fn reset_hierarchy_runs_the_rest_of_a_stream_as_a_new_one() {
    for (seed, span) in [(11, 100), (12, 100), (13, 2_000), (14, 2_000)] {
        let mut rng = SplitMix64::new(seed);
        let mut reused = new_caches();
        // Partway through the stream: lines, LRU stamps, stats and (with
        // the long span) a grown tag registry, plus skewed latencies.
        drive(&mut reused, &mut new_models(), &mut rng, seed, 1_500, span);
        for h in &mut reused {
            h.l1_latency += 3;
            h.l2_latency += 5;
            h.reset();
        }
        let mut fresh = new_caches();
        // `Debug` shows every field: sets, LRU clocks, stats, registry and
        // latencies.
        assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "seed {seed}");
        // The rest of the stream, on both, each in lockstep with a model
        // that starts empty: same lines, LRU victims, stats and
        // commit/abort counts at every step.
        let mut rest = rng;
        drive(&mut reused, &mut new_models(), &mut rng, seed, 3_000, span);
        drive(&mut fresh, &mut new_models(), &mut rest, seed, 3_000, span);
        assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "seed {seed}");
    }
}
