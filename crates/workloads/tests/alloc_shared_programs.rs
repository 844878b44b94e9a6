//! Setting up a cell does not copy its programs.
//!
//! Every (workload, system) cell builds a fresh machine from the same
//! programs. The programs share their op streams, so handing a machine its
//! programs costs one cursor per thread whatever the stream's length. This
//! test counts the bytes that `programs_for` plus `Machine::new` allocate
//! for a program and for the same program ten times longer: a copy of the
//! stream anywhere on that path makes the longer one cost ~10× more bytes.
//!
//! It sits with the workload tests because `programs_for` is a workload
//! method; `ptm-sim`'s own `alloc_steady_state.rs` covers the cycle loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ptm_sim::{Machine, SystemKind};
use ptm_types::{Granularity, VirtAddr};
use ptm_workloads::{ProgramBuilder, Workload, THREADS};

/// Forwards to the system allocator, counting the bytes every alloc and
/// realloc call asks for.
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// `THREADS` threads, each running `reps` transactions over the same
/// 8-page working set, with a separate lock-based version.
fn workload(reps: usize) -> Workload {
    let build = |transactional: bool| {
        (0..THREADS)
            .map(|t| {
                let mut b = ProgramBuilder::new(t);
                for r in 0..reps {
                    let addr = VirtAddr::new(0x40_0000 + (r % 8) as u64 * 4096 + t as u64 * 64);
                    if transactional {
                        b.begin(VirtAddr::new(0x1000));
                    }
                    b.rmw(addr, 1).read(addr).compute(3);
                    if transactional {
                        b.end();
                    }
                }
                b.build()
            })
            .collect()
    };
    Workload {
        name: "shared-programs",
        programs: build(true),
        lock_programs: Some(build(false)),
        cs_interval: None,
        exc_interval: None,
        mem_frames: 256,
    }
}

/// Bytes allocated by handing `kind` its programs and building its
/// machine.
fn setup_bytes(w: &Workload, kind: SystemKind) -> u64 {
    let before = BYTES.load(Ordering::Relaxed);
    let m = Machine::new(w.machine_config(), kind, w.programs_for(kind));
    let after = BYTES.load(Ordering::Relaxed);
    drop(m);
    after - before
}

#[test]
fn cell_setup_allocates_independently_of_program_length() {
    let short = workload(1_000);
    let long = workload(10_000);
    let ops = |w: &Workload| w.programs.iter().map(|p| p.len()).sum::<usize>();
    assert_eq!(ops(&long), 10 * ops(&short));
    for kind in [
        SystemKind::Serial,
        SystemKind::Locks,
        SystemKind::Vtm,
        SystemKind::CopyPtm,
        SystemKind::SelectPtm(Granularity::WordCacheMem),
    ] {
        // Warm-up, so lazily initialized state bills neither measurement.
        let _ = setup_bytes(&short, kind);
        let a = setup_bytes(&short, kind);
        let b = setup_bytes(&long, kind);
        assert_eq!(
            a,
            b,
            "{}: a 10x longer program changed the set-up's allocation \
             ({a} vs {b} bytes), so the op stream is copied per cell",
            kind.label()
        );
    }
}
