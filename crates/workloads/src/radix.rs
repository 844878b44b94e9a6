//! `radix` — the radix sort's histogram and permutation phases.
//!
//! Table 1/Figure 5 signature: modest footprint, and the **highest
//! sensitivity to conflict granularity** of the five benchmarks. As in the
//! SPLASH-2 original, every processor counts into its own contiguous
//! density/rank section (conflict-free), but the **permutation phase
//! scatters keys into the shared output array**: within each bucket the
//! processors' destination runs are contiguous and adjacent, so runs share
//! cache blocks at their boundaries — no two threads ever write the same
//! *word*, yet at *block* granularity the scatter collides constantly.
//! That pure false sharing is why `wd:cache+mem` lifts radix from 116% to
//! 170% in Figure 5 while `blk-only` suffers unnecessary aborts.

use crate::common::{chunk, ProgramBuilder, Scale, Workload, THREADS};
use ptm_mem::LayoutBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of keys per scale.
fn keys(scale: Scale) -> usize {
    1536 * scale.factor()
}

const RADIX_BITS: u32 = 5;
const BUCKETS: usize = 1 << RADIX_BITS; // 32 buckets
const DIGITS: usize = 2;

/// Builds the radix workload.
pub fn workload(scale: Scale) -> Workload {
    let n = keys(scale);
    let mut rng = StdRng::seed_from_u64(0x5eed_5a1e);
    let key_vals: Vec<u32> = (0..n).map(|_| rng.gen()).collect();

    let mut layout = LayoutBuilder::new();
    layout.region("keys", n * 4);
    layout.region("output", n * 4);
    // density[proc][bucket] / rank[proc][bucket]: contiguous per-processor
    // sections, as in the original.
    layout.region("hist", BUCKETS * THREADS * 4);
    layout.region("cursors", BUCKETS * THREADS * 4);
    layout.region("locks", 4096);
    let layout = layout.build();
    let keys_base = layout
        .region("keys")
        .expect("radix workload layout has no region \"keys\"")
        .base();
    let out_base = layout
        .region("output")
        .expect("radix workload layout has no region \"output\"")
        .base();
    let hist = layout
        .region("hist")
        .expect("radix workload layout has no region \"hist\"")
        .base();
    let cursors = layout
        .region("cursors")
        .expect("radix workload layout has no region \"cursors\"")
        .base();
    let locks = layout
        .region("locks")
        .expect("radix workload layout has no region \"locks\"")
        .base();

    let digit = |v: u32, d: usize| ((v >> (d as u32 * RADIX_BITS)) as usize) & (BUCKETS - 1);
    let hist_slot = |b: usize, t: usize| hist.offset(((t * BUCKETS + b) * 4) as u64);
    let cursor_slot = |b: usize, t: usize| cursors.offset(((t * BUCKETS + b) * 4) as u64);

    let mut programs = Vec::new();
    for t in 0..THREADS {
        let my_keys = chunk(n, t);
        let mut b = ProgramBuilder::new(t);
        for d in 0..DIGITS {
            // Histogram phase: count into this thread's interleaved stripe.
            let tx_chunk = (my_keys.len() / 4).max(1);
            let mut i = my_keys.start;
            while i < my_keys.end {
                let hi = (i + tx_chunk).min(my_keys.end);
                b.begin(locks.offset((d * 1024 + t * 64) as u64));
                for (k, &key) in key_vals.iter().enumerate().take(hi).skip(i) {
                    b.read(keys_base.offset(k as u64 * 4));
                    b.rmw(hist_slot(digit(key, d), t), 1);
                }
                b.end();
                b.compute(40);
                i = hi;
            }
            b.barrier((d * 2) as u32);

            // Permute phase: bump this thread's bucket cursor and scatter
            // the key to its unique slot. The transaction wraps a quarter
            // of the thread's keys — large scatters that overflow.
            let order = stable_order(&key_vals, d, digit);
            let permute_chunk = (my_keys.len() / 8).max(1);
            // Odd threads walk their keys in reverse: their destination
            // runs are filled end-first, so adjacent threads write the
            // blocks around their shared run boundaries *at the same time*
            // — the false-sharing collision the original exhibits.
            let key_order: Vec<usize> = if t % 2 == 0 {
                my_keys.clone().collect()
            } else {
                my_keys.clone().rev().collect()
            };
            let mut i = 0;
            while i < key_order.len() {
                let hi = (i + permute_chunk).min(key_order.len());
                b.begin(locks.offset((2048 + d * 1024 + t * 64) as u64));
                for &k in &key_order[i..hi] {
                    b.read(keys_base.offset(k as u64 * 4));
                    b.rmw(cursor_slot(digit(key_vals[k], d), t), 1);
                    b.write(out_base.offset(order[k] as u64 * 4), key_vals[k]);
                }
                b.end();
                b.compute(40);
                i = hi;
            }
            b.barrier((d * 2 + 1) as u32);
        }
        programs.push(b.build());
    }

    Workload {
        name: "radix",
        programs,
        lock_programs: None,
        cs_interval: Some(40_000),
        exc_interval: Some(25_000),
        mem_frames: (keys(scale) * 8 / 4096) * 4 + 1024,
    }
}

/// The rank of each key in the stable counting sort for digit `d` — its
/// unique destination slot.
fn stable_order(vals: &[u32], d: usize, digit: impl Fn(u32, usize) -> usize) -> Vec<usize> {
    let mut counts = vec![0usize; BUCKETS + 1];
    for &v in vals {
        counts[digit(v, d) + 1] += 1;
    }
    for b in 0..BUCKETS {
        counts[b + 1] += counts[b];
    }
    let mut next = counts;
    vals.iter()
        .map(|&v| {
            let b = digit(v, d);
            let slot = next[b];
            next[b] += 1;
            slot
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_sim::Op;
    use ptm_types::BLOCK_SIZE;

    #[test]
    fn histogram_sections_are_block_private() {
        // density[proc][bucket]: each processor's 32-bucket section spans
        // exactly two blocks, so the histogram phase is conflict-free.
        assert_eq!(BUCKETS * 4 % BLOCK_SIZE, 0, "sections are block-aligned");
    }

    #[test]
    fn scatter_destinations_are_unique() {
        let vals = vec![9u32, 1, 9, 3, 1];
        let order = stable_order(&vals, 0, |v, _| (v as usize) & (BUCKETS - 1));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4], "a permutation");
        assert!(order[1] < order[4], "stable");
    }

    #[test]
    fn histogram_stripes_are_word_private() {
        // The whole point: the concurrent phases are pure *false* sharing —
        // no two threads ever increment the same histogram/cursor word.
        // (Output slots are reused across barrier-separated digit phases,
        // which is sequential, not concurrent, sharing.)
        let w = workload(Scale::Tiny);
        let mut writers: std::collections::HashMap<ptm_types::VirtAddr, usize> = Default::default();
        for (t, p) in w.programs.iter().enumerate() {
            for pc in 0..p.len() {
                if let Some(Op::Rmw(a, _)) = p.op_at(pc) {
                    if let Some(prev) = writers.insert(a.word_aligned(), t) {
                        assert_eq!(prev, t, "true sharing at {a}");
                    }
                }
            }
        }
        assert!(!writers.is_empty());
    }

    #[test]
    fn scatter_runs_share_output_blocks_across_threads() {
        // The permutation phase's defining false sharing: different threads
        // write different words of the same output blocks.
        let w = workload(Scale::Tiny);
        let blocks = |p: &ptm_sim::ThreadProgram| {
            (0..p.len())
                .filter_map(|pc| match p.op_at(pc) {
                    Some(Op::Write(a, _)) => Some(a.block_aligned()),
                    _ => None,
                })
                .collect::<std::collections::HashSet<_>>()
        };
        let a = blocks(&w.programs[0]);
        let b = blocks(&w.programs[1]);
        assert!(
            a.intersection(&b).count() > 0,
            "false sharing on output blocks"
        );
    }
}
