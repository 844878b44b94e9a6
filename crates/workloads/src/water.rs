//! `water` — the N-body molecular-dynamics kernel.
//!
//! Table 1 signature: the **smallest footprint** (241 pages full-scale,
//! under half transactionally written) and almost **no eviction pressure**
//! (one eviction per ~4,900 memory operations — the working set lives in
//! the caches), with few aborts.
//!
//! Like the original, forces are first accumulated into *per-thread private*
//! arrays during the pair loop; after a barrier, each thread merges its
//! partials into the shared per-molecule force fields for its slice of
//! molecules (disjoint writes), plus one genuinely shared global
//! potential-energy accumulator — the occasional-conflict source.

use crate::common::{chunk, ProgramBuilder, Scale, Workload, THREADS};
use ptm_mem::LayoutBuilder;

/// Number of molecules per scale.
fn molecules(scale: Scale) -> usize {
    16 * scale.factor() // Tiny: 16, Small: 64, Full: 128
}

/// Words per molecule record (positions, velocities, force accumulators).
const MOL_WORDS: usize = 16; // one cache block per molecule

/// Builds the water workload.
pub fn workload(scale: Scale) -> Workload {
    let m = molecules(scale);

    let mut layout = LayoutBuilder::new();
    layout.region("molecules", m * MOL_WORDS * 4);
    for t in 0..THREADS {
        layout.region(&format!("partial{t}"), m * 4 * 4);
    }
    // Read-only interaction-potential lookup tables (water's non-shadowed
    // footprint: under half of its pages are transactionally written).
    layout.region("tables", 8 * 4096);
    layout.region("globals", 4096);
    layout.region("locks", 4096);
    let layout = layout.build();
    let mols = layout
        .region("molecules")
        .expect("water workload layout has no region \"molecules\"")
        .base();
    let tables = layout
        .region("tables")
        .expect("water workload layout has no region \"tables\"")
        .base();
    let globals = layout
        .region("globals")
        .expect("water workload layout has no region \"globals\"")
        .base();
    let locks = layout
        .region("locks")
        .expect("water workload layout has no region \"locks\"")
        .base();

    let pos = |i: usize, w: usize| mols.offset((i * MOL_WORDS + w) as u64 * 4);
    let force = |i: usize, w: usize| mols.offset((i * MOL_WORDS + 8 + w) as u64 * 4);

    // Interacting pairs (half matrix, cutoff-sampled).
    let pairs: Vec<(usize, usize)> = (0..m)
        .flat_map(|i| ((i + 1)..m).step_by(3).map(move |j| (i, j)))
        .collect();
    let pairs_per_tx = (pairs.len() / (THREADS * 6)).max(4);
    let iters = 2;

    let programs = (0..THREADS)
        .map(|t| {
            let partial = layout
                .region(&format!("partial{t}"))
                .unwrap_or_else(|| panic!("water workload layout has no region \"partial{t}\""))
                .base();
            let pforce = |i: usize, w: usize| partial.offset((i * 4 + w) as u64 * 4);
            let mut b = ProgramBuilder::new(t);
            for it in 0..iters as u32 {
                // Phase 1: pair loop into private partial forces.
                let mine = chunk(pairs.len(), t);
                let mut i = mine.start;
                while i < mine.end {
                    let hi = (i + pairs_per_tx).min(mine.end);
                    b.begin(locks.offset((t * 64) as u64));
                    for &(a, c) in &pairs[i..hi] {
                        for w in 0..3 {
                            b.read(pos(a, w));
                            b.read(pos(c, w));
                        }
                        b.read(tables.offset(((a * 31 + c * 7) % 8192) as u64 * 4));
                        for w in 0..3 {
                            b.rmw(pforce(a, w), 1);
                            b.rmw(pforce(c, w), -1);
                        }
                    }
                    b.end();
                    b.compute(200);
                    i = hi;
                }
                b.barrier(it * 2);

                // Phase 2: merge partials into the shared force fields for
                // this thread's slice of molecules; the global accumulator
                // is the true-sharing hotspot.
                let my_mols = chunk(m, t);
                let mols_per_tx = (my_mols.len() / 4).max(2);
                let mut i = my_mols.start;
                while i < my_mols.end {
                    let hi = (i + mols_per_tx).min(my_mols.end);
                    b.begin(locks.offset((1024 + t * 64) as u64));
                    for mol in i..hi {
                        for w in 0..3 {
                            b.read(pforce(mol, w));
                            b.rmw(force(mol, w), 1);
                        }
                    }
                    // The shared potential-energy update: one global lock
                    // under lock-based execution, speculation under TM.
                    b.begin(locks.offset(3072));
                    b.rmw(globals, 1);
                    b.end();
                    b.end();
                    b.compute(80);
                    i = hi;
                }
                b.barrier(it * 2 + 1);
            }
            b.build()
        })
        .collect();

    // The ORIGINAL lock-based water: no private partials — the pair loop
    // accumulates straight into the shared per-molecule force fields, taking
    // the molecule's lock for each update (plus the global lock for the
    // potential energy). This is what the paper's "default p-thread locks"
    // bar runs: correct, but it pays two lock round-trips per pair and the
    // hot molecules' locks ping-pong between caches.
    let lock_programs = (0..THREADS)
        .map(|t| {
            let mut b = ProgramBuilder::new(t);
            // One lock word per molecule (the lock region holds 64 slots).
            let mol_lock = |i: usize| locks.offset((i % 64) as u64 * 64);
            for it in 0..iters as u32 {
                let mine = chunk(pairs.len(), t);
                for (pi, &(a, c)) in pairs[mine.clone()].iter().enumerate() {
                    for w in 0..3 {
                        b.read(pos(a, w));
                        b.read(pos(c, w));
                    }
                    // The pair's updates run under the lower molecule's lock.
                    b.begin(mol_lock(a.min(c)));
                    for w in 0..3 {
                        b.rmw(force(a, w), 1);
                        b.rmw(force(c, w), -1);
                    }
                    b.end();
                    if pi % 8 == 0 {
                        b.begin(locks.offset(4032));
                        b.rmw(globals, 1);
                        b.end();
                    }
                    b.compute(30);
                }
                b.barrier(it);
            }
            b.build()
        })
        .collect();

    Workload {
        name: "water",
        programs,
        lock_programs: Some(lock_programs),
        cs_interval: Some(20_000),
        exc_interval: Some(400_000),
        mem_frames: 2048,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_sim::Op;

    #[test]
    fn footprint_fits_in_the_scaled_caches_at_tiny() {
        let m = molecules(Scale::Tiny);
        assert!(m * MOL_WORDS * 4 <= 16 * 1024, "water must mostly fit");
    }

    #[test]
    fn pair_phase_writes_only_private_partials() {
        // During phase 1 no two threads write the same word; sharing is
        // confined to the merge phase's global accumulator.
        let w = workload(Scale::Tiny);
        let mut writers: std::collections::HashMap<ptm_types::VirtAddr, usize> = Default::default();
        let mut shared_words = 0;
        for (t, p) in w.programs.iter().enumerate() {
            for pc in 0..p.len() {
                if let Some(Op::Rmw(a, _)) = p.op_at(pc) {
                    match writers.get(&a.word_aligned()) {
                        Some(&prev) if prev != t => shared_words += 1,
                        _ => {
                            writers.insert(a.word_aligned(), t);
                        }
                    }
                }
            }
        }
        // Only the single global accumulator is multi-writer.
        assert!(shared_words > 0, "the global accumulator is shared");
    }

    #[test]
    fn phases_are_barrier_separated() {
        let w = workload(Scale::Tiny);
        for p in &w.programs {
            let barriers = (0..p.len())
                .filter(|&pc| matches!(p.op_at(pc), Some(Op::Barrier(_))))
                .count();
            assert_eq!(barriers, 4, "two barriers per iteration, two iterations");
        }
    }
}
