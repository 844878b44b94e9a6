//! `fft` — the SPLASH-2 radix-√n six-step FFT's memory behaviour.
//!
//! The signature the paper reports for fft (Table 1): *few, large*
//! transactions (34 commits), a mid-size footprint (~1000 pages at full
//! scale, over half of it transactionally written), moderate eviction
//! pressure, and a handful of aborts. The expensive shared phase of the
//! six-step algorithm is the **matrix transpose**: every thread reads its
//! own row band and writes columns across the whole matrix — long strides
//! that overflow the caches, with block-level false sharing where two
//! threads' destination columns land in the same cache block.
//!
//! We reproduce that structure: per iteration, each thread runs one big
//! transaction over its local butterfly band (private, in-place) and one
//! big transposing transaction (shared, strided writes).

use crate::common::{chunk, ProgramBuilder, Scale, Workload, THREADS};
use ptm_mem::LayoutBuilder;
use ptm_types::VirtAddr;

/// Matrix dimension (n × n complex words) per scale.
fn dim(scale: Scale) -> usize {
    32 * scale.factor() // Tiny: 32, Small: 128, Full: 256
}

/// Builds the fft workload.
pub fn workload(scale: Scale) -> Workload {
    let n = dim(scale);
    let iters = 3;

    let mut layout = LayoutBuilder::new();
    layout.region("matrix", n * n * 4);
    layout.region("scratch", n * n * 4);
    // Read-only twiddle-factor table (never written transactionally — this
    // is roughly half of fft's footprint, hence Table 1's ~53% conservative
    // shadow overhead).
    layout.region("twiddles", 2 * n * n * 4);
    layout.region("locks", 4096);
    let layout = layout.build();
    let matrix = layout
        .region("matrix")
        .expect("fft workload layout has no region \"matrix\"")
        .base();
    let scratch = layout
        .region("scratch")
        .expect("fft workload layout has no region \"scratch\"")
        .base();
    let twiddles = layout
        .region("twiddles")
        .expect("fft workload layout has no region \"twiddles\"")
        .base();
    let locks = layout
        .region("locks")
        .expect("fft workload layout has no region \"locks\"")
        .base();

    let at = |base: VirtAddr, r: usize, c: usize| base.offset((r * n + c) as u64 * 4);

    let programs = (0..THREADS)
        .map(|t| {
            let mut b = ProgramBuilder::new(t);
            let rows = chunk(n, t);
            for it in 0..iters {
                // Local butterfly pass over the thread's own row band: a
                // large read-modify transaction on private rows.
                b.begin(locks.offset((t * 64) as u64));
                for r in rows.clone() {
                    // One butterfly sweep across the row, with a twiddle
                    // lookup per pair (the read-only table).
                    for i in (0..n / 2).step_by(2) {
                        b.read(at(matrix, r, i));
                        b.read(at(matrix, r, i + n / 2));
                        b.read(at(twiddles, (it * 2 + r) % (2 * n), i));
                        b.write(at(matrix, r, i), (it * 31 + r + i) as u32);
                        b.write(at(matrix, r, i + n / 2), (it * 37 + r) as u32);
                    }
                }
                b.end();
                b.compute(200);
                b.barrier((it * 2) as u32);

                // Blocked transpose (as in the original): read a 16x16 tile
                // of own rows, write it transposed into scratch — each
                // destination cache block is filled before moving on, but
                // the overall footprint still overflows the caches.
                b.begin(locks.offset((1024 + t * 64) as u64));
                const TILE: usize = 16;
                for r0 in rows.clone().step_by(TILE) {
                    for c0 in (0..n).step_by(TILE) {
                        for c in c0..(c0 + TILE).min(n) {
                            for r in r0..(r0 + TILE).min(rows.end) {
                                if (r + c) % 2 == 0 {
                                    b.read(at(matrix, r, c));
                                }
                                b.write(at(scratch, c, r), (r * n + c) as u32);
                            }
                        }
                    }
                }
                b.end();
                b.compute(400);
                b.barrier((it * 2 + 1) as u32);
            }
            b.build()
        })
        .collect();

    Workload {
        name: "fft",
        programs,
        lock_programs: None,
        cs_interval: Some(600_000),
        exc_interval: Some(60_000),
        mem_frames: frames_for(n),
    }
}

fn frames_for(n: usize) -> usize {
    // Matrix + scratch + twiddles + shadows + slack.
    (n * n * 4 * 4 / 4096) * 3 + 1024
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_has_few_large_transactions() {
        let w = workload(Scale::Tiny);
        assert_eq!(w.programs.len(), THREADS);
        // 3 iterations x 2 transactions per thread.
        let begins = (0..w.programs[0].len())
            .filter(|&pc| matches!(w.programs[0].op_at(pc), Some(ptm_sim::Op::Begin { .. })))
            .count();
        assert_eq!(begins, 6);
        // "Large": hundreds of ops per transaction even at tiny scale.
        assert!(w.programs[0].len() / begins > 50);
    }

    #[test]
    fn transpose_targets_are_write_shared_across_threads() {
        // Thread 0 and thread 1 transpose into overlapping column blocks:
        // their scratch writes must land in the same pages (the false-
        // sharing signature), but never the same word.
        let w = workload(Scale::Tiny);
        let words = |p: &ptm_sim::ThreadProgram| {
            (0..p.len())
                .filter_map(|pc| match p.op_at(pc) {
                    Some(ptm_sim::Op::Write(a, _)) => Some(a.word_aligned()),
                    _ => None,
                })
                .collect::<std::collections::HashSet<_>>()
        };
        let w0 = words(&w.programs[0]);
        let w1 = words(&w.programs[1]);
        assert!(w0.is_disjoint(&w1), "threads never write the same word");
        let pages0: std::collections::HashSet<_> = w0.iter().map(|a| a.vpn()).collect();
        let pages1: std::collections::HashSet<_> = w1.iter().map(|a| a.vpn()).collect();
        assert!(
            pages0.intersection(&pages1).count() > 0,
            "transpose shares pages across threads"
        );
    }
}
