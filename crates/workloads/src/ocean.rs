//! `ocean` — grid-based ocean-current simulation.
//!
//! Table 1 signature: by far the **largest footprint** (14,966 pages at
//! full scale) and the **heaviest eviction pressure** (a cache block evicted
//! every ~16 memory operations), plus the most commits *and* the most
//! aborts. Ocean relaxes several large grids with 5-point stencils; band
//! boundaries make neighbouring threads' transactions genuinely conflict,
//! and the multigrid's column-order traversals stride straight through the
//! caches.
//!
//! We reproduce that with multiple grids larger than the L2, row-band
//! transactions whose stencil reads cross into the neighbour band, and a
//! column-major sweep per iteration.

use crate::common::{ProgramBuilder, Scale, Workload, THREADS};
use ptm_mem::LayoutBuilder;
use ptm_types::VirtAddr;

/// Grid edge length in words per scale.
fn dim(scale: Scale) -> usize {
    64 * scale.factor() // Tiny: 64, Small: 256, Full: 512
}

const GRIDS: usize = 3;
/// Additional read-only grids (bathymetry/coefficients): read by the
/// stencil, never written — they keep ocean's conservative shadow overhead
/// near the paper's ~45%.
const RO_GRIDS: usize = 3;

/// Builds the ocean workload.
pub fn workload(scale: Scale) -> Workload {
    let n = dim(scale);
    let iters = 3;

    let mut layout = LayoutBuilder::new();
    for g in 0..GRIDS {
        layout.region(&format!("grid{g}"), n * n * 4);
    }
    for g in 0..RO_GRIDS {
        layout.region(&format!("ro{g}"), n * n * 4);
    }
    layout.region("locks", 4096 * 2);
    let layout = layout.build();
    let grids: Vec<VirtAddr> = (0..GRIDS)
        .map(|g| {
            layout
                .region(&format!("grid{g}"))
                .unwrap_or_else(|| panic!("ocean workload layout has no region \"grid{g}\""))
                .base()
        })
        .collect();
    let ro: Vec<VirtAddr> = (0..RO_GRIDS)
        .map(|g| {
            layout
                .region(&format!("ro{g}"))
                .unwrap_or_else(|| panic!("ocean workload layout has no region \"ro{g}\""))
                .base()
        })
        .collect();
    let locks = layout
        .region("locks")
        .expect("ocean workload layout has no region \"locks\"")
        .base();

    let at = |g: usize, r: usize, c: usize| grids[g].offset((r * n + c) as u64 * 4);
    let ro_at = |g: usize, r: usize, c: usize| ro[g].offset((r * n + c) as u64 * 4);

    let band = n / THREADS;
    let rows_per_tx = (band / 6).max(2);

    let programs = (0..THREADS)
        .map(|t| {
            let mut b = ProgramBuilder::new(t);
            let r0 = t * band;
            let r1 = ((t + 1) * band).min(n);
            for it in 0..iters {
                for g in 0..GRIDS {
                    // Row-band stencil relaxation: one transaction per strip
                    // of rows; boundary strips read the neighbour band.
                    // Adjacent threads sweep their bands in opposite
                    // directions (as the original's red/black + multigrid
                    // phases do), so they genuinely meet at the band
                    // boundaries — the source of ocean's many aborts.
                    let strips: Vec<usize> = (r0..r1).step_by(rows_per_tx).collect();
                    let strips: Vec<usize> = if t % 2 == 0 {
                        strips
                    } else {
                        strips.into_iter().rev().collect()
                    };
                    for &r in &strips {
                        let rh = (r + rows_per_tx).min(r1);
                        b.begin(locks.offset((t * 64) as u64));
                        // Boundary strips additionally take the shared
                        // boundary lock under lock-based execution — the
                        // conservative serialization transactions avoid.
                        let lower_boundary = t > 0 && r == r0;
                        let upper_boundary = t + 1 < THREADS && rh == r1;
                        if lower_boundary {
                            b.begin(locks.offset((2048 + t * 64) as u64));
                        }
                        if upper_boundary {
                            b.begin(locks.offset((2048 + (t + 1) * 64) as u64));
                        }
                        for row in r..rh {
                            for col in (1..n - 1).step_by(2) {
                                if row > 0 {
                                    b.read(at(g, row - 1, col));
                                }
                                if row + 1 < n {
                                    b.read(at(g, row + 1, col));
                                }
                                b.read(ro_at(g % RO_GRIDS, row, col));
                                b.rmw(at(g, row, col), (it + g + 1) as i32);
                            }
                        }
                        if upper_boundary {
                            b.end();
                        }
                        if lower_boundary {
                            b.end();
                        }
                        b.end();
                    }
                    b.compute(150);
                    b.barrier((it * (GRIDS + 1) + g) as u32);
                }
                // Column-major sweep of grid 0 (reads only): the cache-
                // hostile multigrid traversal. Columns are split by thread.
                b.begin(locks.offset((1024 + t * 64) as u64));
                let c0 = t * (n / THREADS);
                let c1 = (t + 1) * (n / THREADS);
                for col in (c0..c1).step_by(4) {
                    for row in (0..n).step_by(2) {
                        b.read(at(0, row, col));
                        b.read(ro_at(1, row, col));
                    }
                }
                b.end();
                b.compute(150);
                b.barrier((it * (GRIDS + 1) + GRIDS) as u32);
            }
            b.build()
        })
        .collect();

    Workload {
        name: "ocean",
        programs,
        lock_programs: None,
        cs_interval: Some(100_000),
        exc_interval: Some(20_000),
        mem_frames: (dim(scale).pow(2) * 4 * (GRIDS + RO_GRIDS) / 4096) * 3 + 2048,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_sim::Op;

    #[test]
    fn footprint_exceeds_the_l2_at_small_scale() {
        let n = dim(Scale::Small);
        assert!(
            n * n * 4 * GRIDS > 256 * 1024,
            "ocean must not fit in the 256 KiB L2"
        );
    }

    #[test]
    fn boundary_strips_read_the_neighbour_band() {
        let w = workload(Scale::Tiny);
        let n = dim(Scale::Tiny);
        let band = n / THREADS;
        // Thread 1's band starts at row `band`; its stencil must read at
        // least one address from row `band - 1` (thread 0's band).
        let grid0_base = 4096u64; // first region of the layout
        let band_start = grid0_base + (band * n * 4) as u64;
        let p = &w.programs[1];
        let reads_neighbour = (0..p.len()).any(|pc| match p.op_at(pc) {
            Some(Op::Read(a)) => a.0 >= grid0_base && a.0 < band_start,
            _ => false,
        });
        assert!(reads_neighbour, "stencil crosses the band boundary");
    }

    #[test]
    fn ocean_generates_the_most_operations() {
        let ocean: usize = workload(Scale::Tiny).programs.iter().map(|p| p.len()).sum();
        let water: usize = crate::water::workload(Scale::Tiny)
            .programs
            .iter()
            .map(|p| p.len())
            .sum();
        assert!(ocean > water, "ocean dwarfs water ({ocean} vs {water})");
    }
}
