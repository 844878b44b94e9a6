//! The service's memory is bounded by the block, not the stream.
//!
//! The pipeline [`Engine`] keeps the open batch, the balance table, the
//! shard machines and a few counters — nothing that grows with the number
//! of transactions it has served. This test installs a counting global
//! allocator (it applies to this test binary only), drives the engine the
//! way the threaded ingest worker does — no crash plan, no journal — and
//! reads the live heap after block 100 and after block 1,000. With a small
//! account space the balance table is full long before block 100, so any
//! growth over the next 900 blocks is per-transaction bookkeeping.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ptm_service::{Engine, ServiceConfig};
use ptm_workloads::{service::generate, ServiceWorkloadConfig};

/// Forwards to the system allocator, tracking live heap bytes.
struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter never touches the memory handed out.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

const ACCOUNTS: u64 = 1_000;
const BLOCKS: usize = 1_000;
const WARM_BLOCKS: usize = 100;

#[test]
fn engine_heap_stays_flat_across_blocks() {
    let cfg = ServiceConfig::new(ACCOUNTS, 2);
    let stream = generate(&ServiceWorkloadConfig {
        accounts: ACCOUNTS,
        skew: 0.9,
        seed: 7,
        txs: cfg.max_batch * BLOCKS,
        read_only_pct: 20,
    });
    let mut engine = Engine::new(cfg, None);
    let mut blocks = 0;
    let mut warm = 0;
    for tx in &stream {
        // The outcome is dropped here, as the worker drops it once sent.
        if engine.accept(*tx).expect("no crash plan").is_some() {
            blocks += 1;
            if blocks == WARM_BLOCKS {
                warm = LIVE.load(Ordering::Relaxed);
            }
        }
    }
    let end = LIVE.load(Ordering::Relaxed);
    assert_eq!(blocks, BLOCKS, "every batch sealed on size");
    let growth = end.saturating_sub(warm);
    assert!(
        growth < 1 << 20,
        "live heap grew {growth} bytes from block {WARM_BLOCKS} to block {BLOCKS} \
         ({warm} -> {end}); the engine must not keep per-transaction state"
    );
}
