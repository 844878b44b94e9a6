//! Microbenchmarks of the PTM/VTM hardware structures themselves: TAV
//! arena operations, selection-vector manipulation, the VTS LRU trackers,
//! the XF counting Bloom filter, and the two systems' conflict-check fast
//! paths. These quantify the per-event costs behind the end-to-end figures.

use criterion::{criterion_group, criterion_main, Criterion};
use ptm_cache::{BusTimings, SystemBus, TxLineMeta};
use ptm_core::system::AccessKind;
use ptm_core::vts::LruTracker;
use ptm_core::{PtmConfig, PtmSystem};
use ptm_mem::{PhysicalMemory, SpecBlock, SwapStore};
use ptm_types::{BlockIdx, BlockVec, FrameId, PhysBlock, TxId, VirtAddr, WordIdx, WordMask};
use ptm_vtm::CountingBloom;

fn bench_block_vec(c: &mut Criterion) {
    c.bench_function("blockvec/toggle+summary", |b| {
        let mut v = BlockVec(0x0123_4567_89ab_cdef);
        b.iter(|| {
            v.toggle(BlockIdx(17));
            std::hint::black_box(v.count())
        })
    });
}

fn bench_word_vec_kernels(c: &mut Criterion) {
    use ptm_types::WordVec;
    // The word-parallel kernels vs. their bit-at-a-time shape: one shifted
    // OR per block mask and four group tests per limb for the collapse.
    c.bench_function("wordvec/set-block-words+collapse", |b| {
        let mut v = WordVec::EMPTY;
        let mut i = 0u8;
        b.iter(|| {
            i = i.wrapping_add(1);
            v.set_block_words(BlockIdx(i % 64), WordMask(0x0f0f));
            std::hint::black_box(v.to_block_vec())
        })
    });
    // Reference loop for the same work, kept for before/after comparison:
    // per-word probes through the public single-bit API.
    c.bench_function("wordvec/set-block-words-bit-at-a-time", |b| {
        let mut v = WordVec::EMPTY;
        let mut i = 0u8;
        b.iter(|| {
            i = i.wrapping_add(1);
            let base = (i % 64) as usize * 16;
            let mask = WordMask(0x0f0f);
            for w in 0..16u8 {
                if mask.get(WordIdx(w)) {
                    v.set(base + w as usize);
                }
            }
            let mut bv = BlockVec::EMPTY;
            for blk in BlockIdx::all() {
                if !v.block_words(blk).is_empty() {
                    bv.set(blk);
                }
            }
            std::hint::black_box(bv)
        })
    });
}

fn bench_tav_cursor_step(c: &mut Criterion) {
    // The inlined TAV cursor step (`next_in_page` on the SoA link column)
    // chased down a 64-node list: dense u32 links, no Option<Box> hops.
    use ptm_core::tav::TavArena;
    let mut arena = TavArena::new();
    let mut head = None;
    for t in 0..64u64 {
        let r = arena.alloc(TxId(t), FrameId(0));
        arena.set_next_in_page(r, head);
        head = Some(r);
    }
    c.bench_function("tav/cursor-step-64-nodes", |b| {
        b.iter(|| {
            let mut n = 0u32;
            let mut cur = head;
            while let Some(r) = cur {
                n += 1;
                cur = arena.next_in_page(r);
            }
            std::hint::black_box(n)
        })
    });
}

fn bench_tav_arena(c: &mut Criterion) {
    c.bench_function("tav/alloc-record-free", |b| {
        let mut arena = ptm_core::tav::TavArena::new();
        b.iter(|| {
            let r = arena.alloc(TxId(1), FrameId(0));
            arena.record_write(r, BlockIdx(3), Some(WordMask(0xf)));
            let w = arena.write_summary(Some(r));
            arena.free(r);
            std::hint::black_box(w)
        })
    });
}

fn bench_lru_tracker(c: &mut Criterion) {
    c.bench_function("vts/lru-touch-512", |b| {
        let mut t: LruTracker<u32> = LruTracker::new(512);
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            std::hint::black_box(t.touch(i % 700))
        })
    });
}

fn bench_bloom(c: &mut Criterion) {
    c.bench_function("xf/insert-query-remove", |b| {
        let mut xf = CountingBloom::new(100_000, 4);
        let mut i = 0u64;
        b.iter(|| {
            i += 64;
            let a = VirtAddr::new(i % (1 << 20));
            xf.insert(a);
            let hit = xf.may_contain(a);
            xf.remove(a);
            std::hint::black_box(hit)
        })
    });
}

fn bench_ptm_conflict_check(c: &mut Criterion) {
    // A page with four transactions' overflowed state: the common conflict-
    // check path (SPT cache hit, summary says maybe, TAV examination).
    let mut ptm = PtmSystem::new(PtmConfig::select());
    let mut mem = PhysicalMemory::new(64);
    let mut bus = SystemBus::new(BusTimings::default());
    for _ in 0..8 {
        let f = mem.alloc().unwrap();
        ptm.on_page_alloc(f);
    }
    for t in 0..4u64 {
        let tx = TxId(t);
        ptm.begin(tx, None);
        let mut meta = TxLineMeta::new(tx);
        meta.record_write(WordIdx(0));
        let spec = SpecBlock {
            data: [0; 64],
            written: WordMask(1),
        };
        ptm.on_tx_eviction(
            &meta,
            PhysBlock::new(FrameId(0), BlockIdx(t as u8)),
            Some(&spec),
            false,
            &mut mem,
            0,
            &mut bus,
        )
        .unwrap();
    }
    c.bench_function("ptm/conflict-check-hot", |b| {
        let mut now = 1000u64;
        b.iter(|| {
            now += 10;
            let out = ptm.check_conflict(
                Some(TxId(99)),
                PhysBlock::new(FrameId(0), BlockIdx(2)),
                WordIdx(0),
                AccessKind::Read,
                now,
                &mut bus,
            );
            std::hint::black_box(out.conflicts.len())
        })
    });
}

fn bench_ptm_conflict_check_filtered(c: &mut Criterion) {
    // Same page state as the hot check, but probing a block no live
    // transaction overflowed: the per-page summary vectors reject the
    // access in O(1) without touching the TAV list.
    let mut ptm = PtmSystem::new(PtmConfig::select());
    let mut mem = PhysicalMemory::new(64);
    let mut bus = SystemBus::new(BusTimings::default());
    for _ in 0..8 {
        let f = mem.alloc().unwrap();
        ptm.on_page_alloc(f);
    }
    for t in 0..4u64 {
        let tx = TxId(t);
        ptm.begin(tx, None);
        let mut meta = TxLineMeta::new(tx);
        meta.record_write(WordIdx(0));
        let spec = SpecBlock {
            data: [0; 64],
            written: WordMask(1),
        };
        ptm.on_tx_eviction(
            &meta,
            PhysBlock::new(FrameId(0), BlockIdx(t as u8)),
            Some(&spec),
            false,
            &mut mem,
            0,
            &mut bus,
        )
        .unwrap();
    }
    c.bench_function("ptm/conflict-check-summary-filtered", |b| {
        let mut now = 1000u64;
        b.iter(|| {
            now += 10;
            // Block 40 has no overflowed state: summary miss, fast path.
            let out = ptm.check_conflict(
                Some(TxId(99)),
                PhysBlock::new(FrameId(0), BlockIdx(40)),
                WordIdx(0),
                AccessKind::Read,
                now,
                &mut bus,
            );
            std::hint::black_box(out.conflicts.len())
        })
    });
}

fn bench_spt_direct_index(c: &mut Criterion) {
    // The SPT is a direct-indexed vector: entry lookup on the conflict path
    // is an array load, not a hash probe.
    use ptm_core::spt::ShadowPageTable;
    let mut spt = ShadowPageTable::new();
    for f in 0..512u32 {
        spt.on_page_alloc(FrameId(f));
    }
    c.bench_function("spt/direct-index-entry-512", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(97);
            std::hint::black_box(spt.entry(FrameId(i % 512)).is_some())
        })
    });
}

fn bench_tav_page_iter(c: &mut Criterion) {
    // Allocation-free horizontal walk of a 16-node page list.
    use ptm_core::tav::TavArena;
    let mut arena = TavArena::new();
    let mut head = None;
    for t in 0..16u64 {
        let r = arena.alloc(TxId(t), FrameId(0));
        arena.record_write(r, BlockIdx((t % 64) as u8), None);
        arena.set_next_in_page(r, head);
        head = Some(r);
    }
    c.bench_function("tav/page-iter-16-nodes", |b| {
        b.iter(|| {
            let mut touched = 0u32;
            for node in arena.page_iter(head) {
                if arena.write_vec(node).get(BlockIdx(3)) {
                    touched += 1;
                }
            }
            std::hint::black_box(touched)
        })
    });
}

fn bench_ptm_commit(c: &mut Criterion) {
    c.bench_function("ptm/overflow-commit-cycle", |b| {
        let mut ptm = PtmSystem::new(PtmConfig::select());
        let mut mem = PhysicalMemory::new(256);
        let mut bus = SystemBus::new(BusTimings::default());
        for _ in 0..16 {
            let f = mem.alloc().unwrap();
            ptm.on_page_alloc(f);
        }
        let mut t = 0u64;
        b.iter(|| {
            let tx = TxId(t);
            t += 1;
            ptm.begin(tx, None);
            let mut meta = TxLineMeta::new(tx);
            meta.record_write(WordIdx(0));
            let spec = SpecBlock {
                data: [t as u8; 64],
                written: WordMask(1),
            };
            for page in 0..4u32 {
                ptm.on_tx_eviction(
                    &meta,
                    PhysBlock::new(FrameId(page), BlockIdx((t % 64) as u8)),
                    Some(&spec),
                    false,
                    &mut mem,
                    t * 100,
                    &mut bus,
                )
                .unwrap();
            }
            std::hint::black_box(ptm.commit(
                tx,
                &mut mem,
                &mut SwapStore::new(),
                t * 100 + 50,
                &mut bus,
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_block_vec,
    bench_word_vec_kernels,
    bench_tav_cursor_step,
    bench_tav_arena,
    bench_lru_tracker,
    bench_bloom,
    bench_ptm_conflict_check,
    bench_ptm_conflict_check_filtered,
    bench_spt_direct_index,
    bench_tav_page_iter,
    bench_ptm_commit
);

// ---------------------------------------------------------------------
// Appended: VTM and LogTM micro paths (overflow, conflict checks, commit).
// ---------------------------------------------------------------------

mod extra {
    use super::*;
    use ptm_sim::logtm::LogTmSystem;
    use ptm_types::ProcessId;
    use ptm_vtm::{VtmConfig, VtmSystem};

    pub fn bench_vtm_overflow_commit(c: &mut Criterion) {
        c.bench_function("vtm/overflow-commit-cycle", |b| {
            let mut vtm = VtmSystem::new(VtmConfig::baseline());
            let mut mem = PhysicalMemory::new(64);
            let frame = mem.alloc().unwrap();
            let mut bus = SystemBus::new(BusTimings::default());
            let mut t = 0u64;
            b.iter(|| {
                let tx = TxId(t);
                t += 1;
                vtm.begin(tx);
                let mut meta = TxLineMeta::new(tx);
                meta.record_write(WordIdx(0));
                let spec = SpecBlock {
                    data: [t as u8; 64],
                    written: WordMask(1),
                };
                for i in 0..4u64 {
                    vtm.on_tx_eviction(
                        &meta,
                        (ProcessId(0), VirtAddr::new(0x1000 + i * 64)),
                        Some(&spec),
                        [0; 64],
                        t * 100,
                        &mut bus,
                    );
                }
                std::hint::black_box(vtm.commit(
                    tx,
                    &mut mem,
                    |va| Some(PhysBlock::new(frame, va.block_in_page())),
                    t * 100 + 50,
                    &mut bus,
                ))
            })
        });
    }

    pub fn bench_vtm_filtered_check(c: &mut Criterion) {
        // The VTM fast path: XF says "definitely not overflowed".
        let mut vtm = VtmSystem::new(VtmConfig::baseline());
        vtm.begin(TxId(0));
        let mut bus = SystemBus::new(BusTimings::default());
        c.bench_function("vtm/xf-filtered-check", |b| {
            let mut i = 0u64;
            b.iter(|| {
                i += 64;
                std::hint::black_box(vtm.check_conflict(
                    Some(TxId(0)),
                    (ProcessId(0), VirtAddr::new(0x10_0000 + (i % 65536))),
                    WordIdx(0),
                    AccessKind::Read,
                    i,
                    &mut bus,
                ))
            })
        });
    }

    pub fn bench_logtm_log_and_abort(c: &mut Criterion) {
        c.bench_function("logtm/log16-abort", |b| {
            let mut mem = PhysicalMemory::new(8);
            let f = mem.alloc().unwrap();
            let mut bus = SystemBus::new(BusTimings::default());
            let mut t = 0u64;
            b.iter(|| {
                let mut sys = LogTmSystem::new();
                let tx = TxId(t);
                t += 1;
                sys.begin(tx);
                for w in 0..16u32 {
                    let addr = ptm_types::PhysAddr::from_frame(f, (w as usize) * 4);
                    sys.log_write(tx, addr, w);
                }
                std::hint::black_box(sys.abort(tx, &mut mem, t * 10, &mut bus))
            })
        });
    }
}

criterion_group!(
    extra_benches,
    extra::bench_vtm_overflow_commit,
    extra::bench_vtm_filtered_check,
    extra::bench_logtm_log_and_abort
);

// ---------------------------------------------------------------------
// Appended: the machine scheduler's index-min heap (the canonical-order
// oracle of the run loop).
// ---------------------------------------------------------------------

mod sched {
    use super::*;
    use ptm_sim::ReadyHeap;

    pub fn bench_ready_heap_upsert(c: &mut Criterion) {
        // The per-step pattern of `Machine::run`: re-key the core that just
        // stepped, then peek the new minimum.
        c.bench_function("sched/ready-heap-upsert-peek-4", |b| {
            let mut h = ReadyHeap::new(4);
            for core in 0..4 {
                h.upsert(core, core as u64);
            }
            let mut now = 4u64;
            let mut core = 0usize;
            b.iter(|| {
                now += 7;
                core = (core + 1) % 4;
                h.upsert(core, now);
                std::hint::black_box(h.peek())
            })
        });
    }

    pub fn bench_ready_heap_upsert_wide(c: &mut Criterion) {
        // A wider machine (64 cores): the O(log n) re-key must stay far
        // below the O(n) min-scan it replaced.
        c.bench_function("sched/ready-heap-upsert-peek-64", |b| {
            let mut h = ReadyHeap::new(64);
            for core in 0..64 {
                h.upsert(core, core as u64);
            }
            let mut now = 64u64;
            let mut core = 0usize;
            b.iter(|| {
                now += 13;
                core = (core + 17) % 64;
                h.upsert(core, now);
                std::hint::black_box(h.peek())
            })
        });
    }

    pub fn bench_min_scan_baseline(c: &mut Criterion) {
        // The replaced pattern: linear min_by_key over every core's
        // ready_at, once per simulated step.
        c.bench_function("sched/min-scan-baseline-64", |b| {
            let mut ready: Vec<u64> = (0..64).collect();
            let mut now = 64u64;
            let mut core = 0usize;
            b.iter(|| {
                now += 13;
                core = (core + 17) % 64;
                ready[core] = now;
                std::hint::black_box(
                    ready
                        .iter()
                        .enumerate()
                        .min_by_key(|(i, r)| (**r, *i))
                        .map(|(i, r)| (*r, i)),
                )
            })
        });
    }
}

criterion_group!(
    sched_benches,
    sched::bench_ready_heap_upsert,
    sched::bench_ready_heap_upsert_wide,
    sched::bench_min_scan_baseline
);
criterion_main!(benches, extra_benches, sched_benches);
