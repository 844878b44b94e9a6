//! OS-model and synchronization edge cases: TLB behaviour, multi-process
//! paging, multi-lock critical sections, interleaved ordered groups, and
//! barrier lifecycles.

use ptm_cache::CacheConfig;
use ptm_sim::{
    assert_serializable, run, Machine, MachineConfig, Op, OrderedSeq, SystemKind, ThreadProgram,
};
use ptm_types::{Granularity, ProcessId, ThreadId, VirtAddr};

fn begin(lock: u64) -> Op {
    Op::Begin {
        ordered: None,
        lock: VirtAddr::new(lock),
    }
}

#[test]
fn tlb_capacity_shows_up_as_walk_latency() {
    // A single thread striding over more pages than a tiny TLB holds: the
    // second sweep must still pay walks; with a large TLB it must not.
    let pages = 32u64;
    let mk = || {
        let mut ops = Vec::new();
        for sweep in 0..2 {
            for p in 0..pages {
                ops.push(Op::Read(VirtAddr::new(0x100_0000 + p * 4096 + sweep)));
            }
        }
        vec![ThreadProgram::new(ProcessId(0), ThreadId(0), ops)]
    };
    // Disable the per-core TLB so the kernel's TLB capacity is what the
    // access stream actually exercises.
    let mut small = MachineConfig {
        core_tlb_entries: 0,
        ..MachineConfig::default()
    };
    small.kernel.tlb_entries = 4;
    let m_small = run(small, SystemKind::Serial, mk());

    let big = MachineConfig {
        core_tlb_entries: 0,
        ..MachineConfig::default()
    };
    let m_big = run(big, SystemKind::Serial, mk());
    assert!(
        m_small.kernel_stats().tlb_misses >= m_big.kernel_stats().tlb_misses + pages,
        "tiny TLB must keep missing: {} vs {}",
        m_small.kernel_stats().tlb_misses,
        m_big.kernel_stats().tlb_misses
    );
    assert!(m_small.stats().cycles > m_big.stats().cycles);
}

#[test]
fn two_processes_page_independently() {
    // Same virtual addresses in two processes: both run transactions over
    // "their" page; totals are independent.
    let va = VirtAddr::new(0x5000);
    let mk = |pid: u16, t: u32, delta: i32| {
        let mut ops = Vec::new();
        for _ in 0..10 {
            ops.push(begin(0x100 + u64::from(t) * 64));
            ops.push(Op::Rmw(va, delta));
            ops.push(Op::End);
        }
        ThreadProgram::new(ProcessId(pid), ThreadId(t), ops)
    };
    let m = run(
        MachineConfig::default(),
        SystemKind::SelectPtm(Granularity::Block),
        vec![mk(0, 0, 1), mk(1, 1, 5)],
    );
    assert_eq!(m.read_committed(ProcessId(0), va), 10);
    assert_eq!(m.read_committed(ProcessId(1), va), 50);
}

#[test]
fn multi_lock_critical_sections_nest_correctly() {
    // Lock mode: nested Begins acquire multiple locks; both threads take
    // (own, shared) in a consistent order — mutual exclusion on the shared
    // data, parallelism elsewhere.
    let shared = 0x10_0000u64;
    let mk = |t: u64| {
        let mut ops = Vec::new();
        for _ in 0..12 {
            ops.push(begin(0x200 + t * 64)); // own lock
            ops.push(Op::Rmw(VirtAddr::new(0x20_0000 + t * 4096), 1)); // private
            ops.push(begin(0x300)); // shared lock (inner)
            ops.push(Op::Rmw(VirtAddr::new(shared), 1));
            ops.push(Op::End);
            ops.push(Op::End);
        }
        ThreadProgram::new(ProcessId(0), ThreadId(t as u32), ops)
    };
    let programs: Vec<_> = (0..4).map(mk).collect();
    let m = run(
        MachineConfig::default(),
        SystemKind::Locks,
        programs.clone(),
    );
    assert_eq!(m.read_committed(ProcessId(0), VirtAddr::new(shared)), 48);
    for t in 0..4u64 {
        assert_eq!(
            m.read_committed(ProcessId(0), VirtAddr::new(0x20_0000 + t * 4096)),
            12
        );
    }
    assert_serializable(&m, &programs);
}

#[test]
fn independent_ordered_groups_interleave_freely() {
    // Two ordered groups on two thread pairs: group constraints hold within
    // each group, not across.
    let mk = |t: u64, group: u32| {
        let mut ops = Vec::new();
        for i in 0..5u64 {
            let seq = i * 2 + (t % 2);
            ops.push(Op::Begin {
                ordered: OrderedSeq::new(group, seq),
                lock: VirtAddr::new(0x100 + t * 64),
            });
            ops.push(Op::Rmw(
                VirtAddr::new(0x30_0000 + u64::from(group) * 4096),
                1,
            ));
            ops.push(Op::End);
            ops.push(Op::Compute(30));
        }
        ThreadProgram::new(ProcessId(0), ThreadId(t as u32), ops)
    };
    let programs = vec![mk(0, 1), mk(1, 1), mk(2, 2), mk(3, 2)];
    let m = run(
        MachineConfig::default(),
        SystemKind::SelectPtm(Granularity::Block),
        programs.clone(),
    );
    assert_eq!(m.stats().commits, 20);
    assert_eq!(
        m.read_committed(ProcessId(0), VirtAddr::new(0x30_0000 + 4096)),
        10
    );
    assert_eq!(
        m.read_committed(ProcessId(0), VirtAddr::new(0x30_0000 + 8192)),
        10
    );
    assert_serializable(&m, &programs);
}

#[test]
fn barriers_line_up_unbalanced_work() {
    // Thread 0 does 10x the work of the others before each barrier; the
    // final phase's writes must still see every thread's pre-barrier work.
    let mk = |t: u64| {
        let mut ops = Vec::new();
        let reps = if t == 0 { 40 } else { 4 };
        for _ in 0..reps {
            ops.push(begin(0x100 + t * 64));
            ops.push(Op::Rmw(VirtAddr::new(0x40_0000 + t * 4), 1));
            ops.push(Op::End);
        }
        ops.push(Op::Barrier(0));
        // Post-barrier: one transaction sums the phase-one counters into a
        // result cell (reads cross-thread data race-free thanks to the
        // barrier).
        ops.push(begin(0x200 + t * 64));
        for o in 0..4u64 {
            ops.push(Op::Read(VirtAddr::new(0x40_0000 + o * 4)));
        }
        ops.push(Op::Rmw(VirtAddr::new(0x41_0000), 1));
        ops.push(Op::End);
        ThreadProgram::new(ProcessId(0), ThreadId(t as u32), ops)
    };
    let programs: Vec<_> = (0..4).map(mk).collect();
    let m = run(
        MachineConfig::default(),
        SystemKind::SelectPtm(Granularity::Block),
        programs.clone(),
    );
    assert_eq!(m.read_committed(ProcessId(0), VirtAddr::new(0x40_0000)), 40);
    assert_eq!(m.read_committed(ProcessId(0), VirtAddr::new(0x40_0004)), 4);
    assert_eq!(m.read_committed(ProcessId(0), VirtAddr::new(0x41_0000)), 4);
    assert_serializable(&m, &programs);
}

#[test]
fn barrier_with_finished_threads_does_not_hang() {
    // A thread finishing all its barriers while others still compute: the
    // machine must drain without deadlock (all threads emit all barriers).
    let mk = |t: u64| {
        let mut ops = Vec::new();
        ops.push(Op::Compute(if t == 0 { 10_000 } else { 10 }));
        ops.push(Op::Barrier(0));
        ops.push(Op::Compute(5));
        ops.push(Op::Barrier(1));
        ThreadProgram::new(ProcessId(0), ThreadId(t as u32), ops)
    };
    let m = run(MachineConfig::default(), SystemKind::Serial, vec![mk(0)]);
    assert!(m.stats().cycles >= 10_000);
    let m = run(
        MachineConfig::default(),
        SystemKind::SelectPtm(Granularity::Block),
        (0..4).map(mk).collect(),
    );
    assert!(
        m.stats().cycles >= 10_000,
        "everyone waited for the slow thread"
    );
}

#[test]
fn swap_pressure_during_lock_mode_is_transparent() {
    // Lock-mode threads over a page that was swapped out beforehand.
    let data = VirtAddr::new(0x6000);
    let mk = |t: u32| {
        ThreadProgram::new(
            ProcessId(0),
            ThreadId(t),
            vec![begin(0x100), Op::Rmw(data, 1), Op::End],
        )
    };
    let mut m = Machine::new(
        MachineConfig {
            l1: CacheConfig::tiny(2, 1),
            l2: CacheConfig::tiny(4, 2),
            ..MachineConfig::default()
        },
        SystemKind::Locks,
        (0..4).map(mk).collect(),
    );
    let frame = m.prefault(ProcessId(0), data);
    let pa = ptm_types::PhysAddr::from_frame(frame, data.page_offset());
    m.memory_mut().write_word(pa, 100);
    m.force_swap_out(ProcessId(0), data.vpn());
    m.run();
    assert_eq!(m.read_committed(ProcessId(0), data), 104);
    assert_eq!(m.kernel_stats().swap_ins, 1);
}
