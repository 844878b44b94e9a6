//! Parameterized synthetic workloads for tests, examples and ablations.

use crate::common::{ProgramBuilder, Workload, THREADS};
use ptm_mem::LayoutBuilder;
use ptm_types::PAGE_SIZE;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs for the synthetic generator.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticConfig {
    /// Worker threads.
    pub threads: usize,
    /// Transactions per thread.
    pub txs_per_thread: usize,
    /// Memory operations per transaction.
    pub ops_per_tx: usize,
    /// Pages of thread-private data per thread.
    pub private_pages: usize,
    /// Pages of shared data (the conflict surface).
    pub shared_pages: usize,
    /// Probability (0..=1) that an operation targets shared data.
    pub shared_fraction: f64,
    /// Probability (0..=1) that an operation writes.
    pub write_fraction: f64,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            threads: THREADS,
            txs_per_thread: 20,
            ops_per_tx: 24,
            private_pages: 8,
            shared_pages: 2,
            shared_fraction: 0.2,
            write_fraction: 0.4,
            seed: 42,
        }
    }
}

/// Builds a synthetic workload.
///
/// Shared data is only ever touched inside transactions, keeping the serial
/// reference check applicable. Writes use commutative `Rmw` updates so
/// outcome checking stays order-independent.
///
/// # Examples
///
/// ```
/// use ptm_workloads::synthetic::{workload, SyntheticConfig};
///
/// let w = workload(SyntheticConfig::default());
/// assert_eq!(w.programs.len(), 4);
/// assert!(w.programs[0].len() > 0);
/// ```
pub fn workload(cfg: SyntheticConfig) -> Workload {
    let mut layout = LayoutBuilder::new();
    layout.region("shared", cfg.shared_pages * PAGE_SIZE);
    for t in 0..cfg.threads {
        layout.region(&format!("private{t}"), cfg.private_pages * PAGE_SIZE);
    }
    layout.region("locks", PAGE_SIZE);
    let layout = layout.build();
    let shared = layout
        .region("shared")
        .expect("synthetic workload layout has no region \"shared\"")
        .base();
    let locks = layout
        .region("locks")
        .expect("synthetic workload layout has no region \"locks\"")
        .base();

    let shared_words = cfg.shared_pages * PAGE_SIZE / 4;
    let private_words = cfg.private_pages * PAGE_SIZE / 4;

    let programs = (0..cfg.threads)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ (t as u64).wrapping_mul(0x9e37));
            let private = layout
                .region(&format!("private{t}"))
                .unwrap_or_else(|| panic!("synthetic workload layout has no region \"private{t}\""))
                .base();
            let mut b = ProgramBuilder::new(t);
            for _ in 0..cfg.txs_per_thread {
                b.begin(locks.offset((t * 64) as u64));
                for _ in 0..cfg.ops_per_tx {
                    let go_shared = rng.gen_bool(cfg.shared_fraction);
                    let addr = if go_shared {
                        shared.offset(rng.gen_range(0..shared_words) as u64 * 4)
                    } else {
                        private.offset(rng.gen_range(0..private_words) as u64 * 4)
                    };
                    if rng.gen_bool(cfg.write_fraction) {
                        b.rmw(addr, rng.gen_range(1..5));
                    } else {
                        b.read(addr);
                    }
                }
                b.end();
                b.compute(rng.gen_range(10..60));
            }
            b.build()
        })
        .collect();

    Workload {
        name: "synthetic",
        programs,
        lock_programs: None,
        cs_interval: None,
        exc_interval: None,
        mem_frames: (cfg.threads * cfg.private_pages + cfg.shared_pages) * 8 + 1024,
    }
}

/// A quickstart-sized synthetic workload: low contention, small footprint.
pub fn quickstart() -> Workload {
    workload(SyntheticConfig::default())
}

/// A high-contention variant (every op hits the shared region).
pub fn contended(seed: u64) -> Workload {
    workload(SyntheticConfig {
        shared_fraction: 0.9,
        shared_pages: 1,
        write_fraction: 0.6,
        seed,
        ..SyntheticConfig::default()
    })
}

/// An overflow-heavy variant: transactions larger than the caches.
pub fn overflowing(seed: u64) -> Workload {
    workload(SyntheticConfig {
        ops_per_tx: 600,
        txs_per_thread: 6,
        private_pages: 64,
        shared_pages: 8,
        shared_fraction: 0.1,
        seed,
        ..SyntheticConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_sim::Op;

    #[test]
    fn generator_is_deterministic() {
        let a = workload(SyntheticConfig::default());
        let b = workload(SyntheticConfig::default());
        for (pa, pb) in a.programs.iter().zip(b.programs.iter()) {
            assert_eq!(pa.len(), pb.len());
            for pc in 0..pa.len() {
                assert_eq!(pa.op_at(pc), pb.op_at(pc));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = workload(SyntheticConfig {
            seed: 1,
            ..Default::default()
        });
        let b = workload(SyntheticConfig {
            seed: 2,
            ..Default::default()
        });
        let same = a.programs[0].len() == b.programs[0].len()
            && (0..a.programs[0].len())
                .all(|pc| a.programs[0].op_at(pc) == b.programs[0].op_at(pc));
        assert!(!same);
    }

    #[test]
    fn shared_accesses_stay_inside_transactions() {
        let w = workload(SyntheticConfig::default());
        for p in &w.programs {
            let mut depth = 0;
            for pc in 0..p.len() {
                match p.op_at(pc) {
                    Some(Op::Begin { .. }) => depth += 1,
                    Some(Op::End) => depth -= 1,
                    Some(op) if op.addr().is_some() => {
                        assert!(depth > 0, "memory op outside a transaction at {pc}");
                    }
                    _ => {}
                }
            }
            assert_eq!(depth, 0, "balanced transactions");
        }
    }

    #[test]
    fn contended_variant_shares_more() {
        let count_shared = |w: &Workload| {
            // The shared region is the first region: page 1 onward for
            // `shared_pages` pages.
            w.programs
                .iter()
                .flat_map(|p| (0..p.len()).filter_map(move |pc| p.op_at(pc)))
                .filter(|op| op.addr().map(|a| a.vpn().0 <= 2).unwrap_or(false))
                .count()
        };
        let low = workload(SyntheticConfig::default());
        let high = contended(42);
        assert!(count_shared(&high) > count_shared(&low));
    }
}
