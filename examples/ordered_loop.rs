//! Ordered transactions for thread-level speculation (§2.2): a loop with a
//! possible carried dependency is parallelized by giving each iteration an
//! ordered transaction — iterations run concurrently but *commit* in
//! program order, so the sequential semantics are preserved.
//!
//! Here each iteration reads a running value, transforms it, and stores it
//! back — a genuine loop-carried dependency through `acc`.
//!
//! ```text
//! cargo run --example ordered_loop
//! ```

use unbounded_ptm::sim::{run, Op, OrderedSeq, SystemKind, ThreadProgram};
use unbounded_ptm::types::{ProcessId, ThreadId, VirtAddr};

const ITERATIONS: u64 = 32;
const ACC: u64 = 0x10_0000;
const LOG_BASE: u64 = 0x20_0000;

fn main() {
    // Iteration i runs on thread i % 4; all commit in iteration order.
    let programs: Vec<ThreadProgram> = (0..4u64)
        .map(|t| {
            let mut ops = Vec::new();
            for i in (t..ITERATIONS).step_by(4) {
                ops.push(Op::Begin {
                    ordered: OrderedSeq::new(0, i),
                    lock: VirtAddr::new(0x30_0000),
                });
                // acc += i  (the carried dependency)
                ops.push(Op::Rmw(VirtAddr::new(ACC), i as i32));
                // log[i] = i (independent work the speculation overlaps)
                ops.push(Op::Write(VirtAddr::new(LOG_BASE + i * 4), i as u32));
                ops.push(Op::Compute(120));
                ops.push(Op::End);
            }
            ThreadProgram::new(ProcessId(0), ThreadId(t as u32), ops)
        })
        .collect();

    let machine = run(
        Default::default(),
        SystemKind::SelectPtm(Default::default()),
        programs,
    );

    let acc = machine.read_committed(ProcessId(0), VirtAddr::new(ACC));
    let expected: u64 = (0..ITERATIONS).sum();
    println!("accumulated value : {acc} (sequential semantics demand {expected})");
    println!(
        "commits={} aborts={} cycles={}",
        machine.stats().commits,
        machine.stats().aborts,
        machine.stats().cycles
    );
    assert_eq!(u64::from(acc), expected);

    // The commit log must be in iteration order even though four threads
    // raced through the loop.
    let seqs: Vec<u64> = machine.stats().commit_log.iter().map(|c| c.at).collect();
    assert!(
        seqs.windows(2).all(|w| w[0] <= w[1]),
        "commit log is time-ordered"
    );
    println!("ordered commit verified over {} transactions", ITERATIONS);
}
