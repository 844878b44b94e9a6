//! Shared workload infrastructure: scaling, the workload descriptor, and
//! program-building helpers.

use ptm_cache::CacheConfig;
use ptm_sim::{KernelConfig, MachineConfig, Op, OrderedSeq, ThreadProgram};
use ptm_types::{ProcessId, ThreadId, VirtAddr};

/// Problem-size scaling. The paper ran full SPLASH-2 inputs under Simics;
/// we scale the kernels down so a full figure regenerates in minutes while
/// preserving each benchmark's qualitative signature (footprint ordering,
/// eviction rate ordering, sharing pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Minimal sizes for unit/integration tests (seconds).
    Tiny,
    /// Default benchmarking size (the EXPERIMENTS.md numbers).
    #[default]
    Small,
    /// Larger runs for calibration experiments.
    Full,
}

impl Scale {
    /// A generic multiplier the kernels derive their dimensions from.
    pub fn factor(self) -> usize {
        match self {
            Scale::Tiny => 1,
            Scale::Small => 4,
            Scale::Full => 8,
        }
    }
}

/// A runnable workload: the thread programs plus the machine/kernel
/// parameters it should run under (memory sizing, system-event rates).
#[derive(Debug)]
pub struct Workload {
    /// Benchmark name (the Table 1 row label).
    pub name: &'static str,
    /// One program per thread (the paper's platform has 4) — the
    /// *transactionalized* version of the benchmark.
    pub programs: Vec<ThreadProgram>,
    /// The original lock-based version, when it differs structurally from
    /// the transactional rewrite (the paper compares against "the default
    /// p-thread locks", i.e. the original program). `None` means both
    /// versions share one program.
    pub lock_programs: Option<Vec<ThreadProgram>>,
    /// Context-switch injection interval in cycles, calibrated per workload
    /// to land in the neighbourhood of Table 1's counts.
    pub cs_interval: Option<u64>,
    /// Exception injection interval in cycles.
    pub exc_interval: Option<u64>,
    /// Physical memory frames to simulate.
    pub mem_frames: usize,
}

impl Workload {
    /// The machine configuration this workload should run under.
    ///
    /// The caches are scaled down 16× from the paper's platform (L1 1 KiB
    /// direct-mapped, L2 16 KiB 4-way) because the kernels' problem sizes
    /// are scaled down by a comparable factor — preserving the
    /// footprint-to-cache ratios that drive Table 1's eviction rates and
    /// Figure 4's overflow behaviour. Latencies are unchanged.
    pub fn machine_config(&self) -> MachineConfig {
        MachineConfig {
            mem_frames: self.mem_frames,
            l1: CacheConfig {
                sets: 16,
                ways: 1,
                latency: 1,
            },
            l2: CacheConfig {
                sets: 64,
                ways: 4,
                latency: 6,
            },
            kernel: KernelConfig {
                cs_interval: self.cs_interval,
                exc_interval: self.exc_interval,
                ..KernelConfig::default()
            },
            ..MachineConfig::default()
        }
    }

    /// The thread programs, for a machine to consume. They share this
    /// workload's op streams, so the copy costs one cursor per thread.
    pub fn programs(&self) -> Vec<ThreadProgram> {
        self.programs.clone()
    }

    /// The programs a given execution mode should run: the lock-based
    /// original for lock mode and the single-thread baseline, the
    /// transactional rewrite for everything else. Like
    /// [`Workload::programs`], they share this workload's op streams.
    pub fn programs_for(&self, kind: ptm_sim::SystemKind) -> Vec<ThreadProgram> {
        match kind {
            ptm_sim::SystemKind::Locks | ptm_sim::SystemKind::Serial => self
                .lock_programs
                .clone()
                .unwrap_or_else(|| self.programs.clone()),
            _ => self.programs.clone(),
        }
    }
}

/// Number of worker threads, matching the paper's 4-core platform.
pub const THREADS: usize = 4;

/// Builds one thread's program incrementally.
#[derive(Debug)]
pub struct ProgramBuilder {
    pid: ProcessId,
    thread: ThreadId,
    ops: Vec<Op>,
}

impl ProgramBuilder {
    /// Starts a builder for `thread` in process 0.
    pub fn new(thread: usize) -> Self {
        ProgramBuilder {
            pid: ProcessId(0),
            thread: ThreadId(thread as u32),
            ops: Vec::new(),
        }
    }

    /// Opens a transaction protected (in lock mode) by `lock`.
    pub fn begin(&mut self, lock: VirtAddr) -> &mut Self {
        self.ops.push(Op::Begin {
            ordered: None,
            lock,
        });
        self
    }

    /// Opens an ordered transaction at position `seq` of `group` (§2.2),
    /// or queues nothing and returns `None` when the pair lies outside
    /// [`OrderedSeq::new`]'s range.
    pub fn begin_ordered(&mut self, lock: VirtAddr, group: u32, seq: u64) -> Option<&mut Self> {
        let ordered = Some(OrderedSeq::new(group, seq)?);
        self.ops.push(Op::Begin { ordered, lock });
        Some(self)
    }

    /// Closes the innermost transaction.
    pub fn end(&mut self) -> &mut Self {
        self.ops.push(Op::End);
        self
    }

    /// Emits a load.
    pub fn read(&mut self, addr: VirtAddr) -> &mut Self {
        self.ops.push(Op::Read(addr));
        self
    }

    /// Emits a store.
    pub fn write(&mut self, addr: VirtAddr, value: u32) -> &mut Self {
        self.ops.push(Op::Write(addr, value));
        self
    }

    /// Emits a read-modify-write.
    pub fn rmw(&mut self, addr: VirtAddr, delta: i32) -> &mut Self {
        self.ops.push(Op::Rmw(addr, delta));
        self
    }

    /// Emits busy computation.
    pub fn compute(&mut self, cycles: u32) -> &mut Self {
        self.ops.push(Op::Compute(cycles));
        self
    }

    /// Emits a barrier. All threads must emit the same barrier ids in the
    /// same order; each static barrier instance needs a fresh id.
    pub fn barrier(&mut self, id: u32) -> &mut Self {
        self.ops.push(Op::Barrier(id));
        self
    }

    /// Finalizes the program: the ops are copied once into the stream
    /// that every clone of it shares.
    pub fn build(self) -> ThreadProgram {
        ThreadProgram::new(self.pid, self.thread, self.ops)
    }

    /// Number of operations queued so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing has been queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Splits `0..n` into `THREADS` contiguous chunks; returns thread `t`'s
/// range.
pub fn chunk(n: usize, t: usize) -> std::ops::Range<usize> {
    let per = n.div_ceil(THREADS);
    let start = (t * per).min(n);
    let end = ((t + 1) * per).min(n);
    start..end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factors_are_monotonic() {
        assert!(Scale::Tiny.factor() < Scale::Small.factor());
        assert!(Scale::Small.factor() < Scale::Full.factor());
    }

    #[test]
    fn chunks_cover_range_without_overlap() {
        let n = 103;
        let mut covered = vec![false; n];
        for t in 0..THREADS {
            for i in chunk(n, t) {
                assert!(!covered[i], "overlap at {i}");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn builder_produces_expected_sequence() {
        let mut b = ProgramBuilder::new(1);
        b.begin(VirtAddr::new(0x40))
            .rmw(VirtAddr::new(0x1000), 2)
            .end()
            .compute(3);
        let p = b.build();
        assert_eq!(p.len(), 4);
        assert_eq!(p.thread(), ThreadId(1));
    }

    #[test]
    fn ordered_builder_tags_begins() {
        let mut b = ProgramBuilder::new(0);
        b.begin_ordered(VirtAddr::new(0), 7, 3).unwrap().end();
        assert!(b.begin_ordered(VirtAddr::new(0), 256, 0).is_none());
        assert!(b.begin_ordered(VirtAddr::new(0), 0, 1 << 24).is_none());
        let p = b.build();
        assert_eq!(p.len(), 2, "a refused begin queues nothing");
        match p.op_at(0) {
            Some(Op::Begin {
                ordered: Some(o), ..
            }) => assert_eq!((o.group(), o.seq()), (7, 3)),
            other => panic!("expected ordered begin, got {other:?}"),
        }
    }
}
