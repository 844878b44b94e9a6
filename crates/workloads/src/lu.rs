//! `lu` — blocked LU decomposition's memory behaviour.
//!
//! Table 1 signature: *many* transactions (656 commits — the most after
//! ocean), essentially no aborts, the second-largest footprint with almost
//! all touched pages transactionally written (2130/2311), and moderate
//! eviction pressure. Blocked LU gets exactly that: for every step `k`,
//! owners factor the diagonal block, then the panel blocks, then every
//! interior block (i, j) is updated from its row and column panels — one
//! transaction per block update, writes always to the *owned* block, reads
//! from panels owned by others.

use crate::common::{ProgramBuilder, Scale, Workload, THREADS};
use ptm_mem::LayoutBuilder;

/// Matrix dimension in words per scale.
fn dim(scale: Scale) -> usize {
    48 * scale.factor() // Tiny: 48, Small: 192, Full: 384
}

/// Block edge in words. 16 words = 64 bytes: a matrix block row segment is
/// exactly one cache block, so differently-owned blocks never false-share
/// (lu's signature is ~zero aborts).
const BLOCK: usize = 16;

/// Builds the lu workload.
pub fn workload(scale: Scale) -> Workload {
    let n = dim(scale);
    let nb = n / BLOCK;

    let mut layout = LayoutBuilder::new();
    layout.region("matrix", n * n * 4);
    // Read-only pivot/permutation workspace (lu's small non-shadowed tail:
    // Table 1 reports ~92% of its pages transactionally written).
    layout.region("pivots", 3 * 4096);
    layout.region("locks", 4096 * 2);
    let layout = layout.build();
    let matrix = layout
        .region("matrix")
        .expect("lu workload layout has no region \"matrix\"")
        .base();
    let pivots = layout
        .region("pivots")
        .expect("lu workload layout has no region \"pivots\"")
        .base();
    let locks = layout
        .region("locks")
        .expect("lu workload layout has no region \"locks\"")
        .base();

    let at = |r: usize, c: usize| matrix.offset((r * n + c) as u64 * 4);
    // 2D block scatter: block (bi, bj) belongs to thread (bi + bj) % THREADS.
    let owner = |bi: usize, bj: usize| (bi + bj) % THREADS;
    // Fine-grained lock per block.
    let block_lock = |bi: usize, bj: usize| locks.offset(((bi * nb + bj) * 64) as u64);

    let mut builders: Vec<ProgramBuilder> = (0..THREADS).map(ProgramBuilder::new).collect();

    for k in 0..nb {
        // Diagonal factorization: read-modify the whole diagonal block.
        {
            let t = owner(k, k);
            let b = &mut builders[t];
            b.begin(block_lock(k, k));
            for r in 0..BLOCK {
                b.read(pivots.offset(((k * BLOCK + r) % 3072) as u64 * 4));
                for c in 0..BLOCK {
                    b.rmw(at(k * BLOCK + r, k * BLOCK + c), (k + r + c) as i32);
                }
            }
            b.end();
            b.compute(120);
        }
        for b in builders.iter_mut() {
            b.barrier((k * 3) as u32);
        }
        // Panel updates: row panel (k, j) and column panel (i, k) read the
        // diagonal and update themselves.
        for other in k + 1..nb {
            for (bi, bj) in [(k, other), (other, k)] {
                let t = owner(bi, bj);
                let b = &mut builders[t];
                b.begin(block_lock(bi, bj));
                for r in 0..BLOCK {
                    b.read(at(k * BLOCK + r, k * BLOCK + r)); // diagonal
                    for c in 0..BLOCK {
                        b.rmw(at(bi * BLOCK + r, bj * BLOCK + c), 1);
                    }
                }
                b.end();
            }
        }
        for b in builders.iter_mut() {
            b.barrier((k * 3 + 1) as u32);
        }
        // Interior updates: block (i, j) -= panel(i, k) * panel(k, j).
        // As in the transactionalized original, the transaction wraps each
        // thread's whole interior loop body for this step — a large
        // transaction whose footprint overflows the caches at later steps.
        let mut opened = [false; THREADS];
        for bi in k + 1..nb {
            for bj in k + 1..nb {
                let t = owner(bi, bj);
                let b = &mut builders[t];
                if !opened[t] {
                    b.begin(block_lock(k, k).offset(4096 + t as u64 * 64));
                    opened[t] = true;
                }
                for r in 0..BLOCK {
                    b.read(at(bi * BLOCK + r, k * BLOCK + r % BLOCK));
                    b.read(at(k * BLOCK + r % BLOCK, bj * BLOCK + r));
                    for c in 0..BLOCK {
                        b.rmw(at(bi * BLOCK + r, bj * BLOCK + c), 1);
                    }
                }
            }
        }
        for (t, b) in builders.iter_mut().enumerate() {
            if opened[t] {
                b.end();
            }
        }
        for b in builders.iter_mut() {
            b.barrier((k * 3 + 2) as u32);
        }
    }

    Workload {
        name: "lu",
        programs: builders.into_iter().map(|b| b.build()).collect(),
        lock_programs: None,
        cs_interval: Some(30_000),
        exc_interval: Some(2_500),
        mem_frames: (dim(scale).pow(2) * 4 / 4096) * 4 + 1024,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_sim::Op;

    #[test]
    fn lu_has_many_small_transactions() {
        let w = workload(Scale::Tiny);
        let total_begins: usize = w
            .programs
            .iter()
            .map(|p| {
                (0..p.len())
                    .filter(|&pc| matches!(p.op_at(pc), Some(Op::Begin { .. })))
                    .count()
            })
            .sum();
        // nb = 3 at tiny: per k, 1 diagonal + 2(nb-k-1) panels + one
        // interior transaction per thread that owns interior blocks.
        // k=0: 1+4+(owners of 4 interior blocks: (1,1)=2,(1,2)=3,(2,1)=3,
        // (2,2)=0 → 3 threads) = 8; k=1: 1+2+1 = 4; k=2: 1. Total 13.
        assert_eq!(total_begins, 13);
    }

    #[test]
    fn writes_are_confined_to_owned_blocks() {
        // No two threads ever write the same word: LU writes go to the
        // owning thread's blocks only.
        let w = workload(Scale::Tiny);
        let mut seen: std::collections::HashMap<ptm_types::VirtAddr, usize> = Default::default();
        for (t, p) in w.programs.iter().enumerate() {
            for pc in 0..p.len() {
                if let Some(Op::Rmw(a, _)) | Some(Op::Write(a, _)) = p.op_at(pc) {
                    if let Some(&prev) = seen.get(&a.word_aligned()) {
                        assert_eq!(prev, t, "word written by two threads");
                    }
                    seen.insert(a.word_aligned(), t);
                }
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn scale_grows_the_matrix() {
        assert!(dim(Scale::Full) > dim(Scale::Small));
    }
}
