//! The service sweep: sustained throughput of the PTM-as-a-service
//! frontend across Zipfian skew × shard count × execution strategy.
//!
//! Each `(skew, shards)` cell generates one client stream, chops it into
//! admission-sized blocks, and runs the block sequence under every
//! strategy, folding deltas forward between blocks exactly as the ingest
//! loop does. Every block of every pass is checked against a
//! [`ReferenceLedger`] — a plain `HashMap` fold of the committed
//! transfers — which is the sweep's correctness spine.

use ptm_service::{
    fold_deltas, BlockOutcome, ReceiptStatus, ServiceConfig, ShardMachines, Strategy,
};
use ptm_types::FastMap;
use ptm_workloads::{service::generate, ClientTx, Scale, ServiceWorkloadConfig};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The sweep axes: a 3 × 3 skew × shard grid plus the two strategies.
pub const SKEWS: [f64; 3] = [0.6, 0.9, 1.2];
/// Shard counts swept per skew.
pub const SHARDS: [usize; 3] = [1, 2, 4];
/// Strategies swept per `(skew, shards)` cell.
pub const STRATEGIES: [Strategy; 2] = [Strategy::Sequential, Strategy::ValidateOnly];

/// An independent model of the ledger: balances in a plain `HashMap`,
/// advanced only by folding the transfers a block's receipts report as
/// committed. It shares no code with the service's own delta fold.
#[derive(Debug, Clone, Default)]
pub struct ReferenceLedger {
    balances: HashMap<u64, u32>,
}

impl ReferenceLedger {
    /// Checks one block's outcome against the reference, then folds the
    /// block's committed transfers into it: one receipt per client
    /// transaction, a read-only receipt exactly for the probes, each probe
    /// answering the reference balance as of the previous block, and the
    /// block's deltas equal to the fold of its committed transfers.
    ///
    /// # Panics
    ///
    /// Panics, naming `what`, on the first mismatch.
    pub fn check_and_fold(&mut self, what: &str, block: &[ClientTx], out: &BlockOutcome) {
        assert_eq!(
            out.receipts.len(),
            block.len(),
            "{what}: one receipt per tx"
        );
        let txs: HashMap<u64, &ClientTx> = block.iter().map(|t| (t.id, t)).collect();
        let mut delta: HashMap<u64, u32> = HashMap::new();
        for r in &out.receipts {
            let tx = txs[&r.tx_id];
            assert_eq!(
                matches!(r.status, ReceiptStatus::ReadOnly { .. }),
                tx.read_only,
                "{what}: receipt kind of tx {}",
                tx.id
            );
            match r.status {
                ReceiptStatus::Committed { .. } => {
                    let from = delta.entry(tx.from).or_insert(0);
                    *from = from.wrapping_sub(tx.amount);
                    let to = delta.entry(tx.to).or_insert(0);
                    *to = to.wrapping_add(tx.amount);
                }
                ReceiptStatus::ReadOnly { balance } => assert_eq!(
                    balance,
                    self.balances.get(&tx.from).copied().unwrap_or(0),
                    "{what}: balance probe of account {} (tx {})",
                    tx.from,
                    tx.id
                ),
                ReceiptStatus::Validated { .. } => {}
            }
        }
        let mut expected: Vec<(u64, u32)> = delta.into_iter().filter(|&(_, d)| d != 0).collect();
        expected.sort_unstable();
        assert_eq!(out.deltas, expected, "{what}: block deltas");
        for (acct, d) in expected {
            let b = self.balances.entry(acct).or_insert(0);
            *b = b.wrapping_add(d);
        }
    }
}

/// One strategy's measurement within a cell.
#[derive(Debug, Clone)]
pub struct StrategyResult {
    /// Strategy label.
    pub strategy: &'static str,
    /// Host wall time for the whole block sequence.
    pub wall_ns: u64,
    /// Sustained client transactions per second of host wall time.
    pub tx_per_sec: f64,
    /// Committed simulator transactions.
    pub commits: u64,
    /// Aborted-and-retried simulator transactions.
    pub aborts: u64,
    /// Aborts per attempt.
    pub abort_rate: f64,
    /// Simulated cycles of the slowest shard, summed over blocks.
    pub shard_cycles: u64,
    /// Client transactions that received a receipt.
    pub receipts: usize,
}

/// One `(skew, shards)` cell of the sweep.
#[derive(Debug, Clone)]
pub struct ServiceCell {
    /// Zipfian exponent of the client stream.
    pub skew: f64,
    /// Shard machines.
    pub shards: usize,
    /// Client transactions served.
    pub txs: usize,
    /// Blocks the stream sealed into.
    pub blocks: usize,
    /// Cross-shard transfers in the stream.
    pub cross_shard: u64,
    /// Read-only probes served on the fast path.
    pub read_only_hits: u64,
    /// Worst block-level load imbalance observed (max shard load / mean).
    pub shard_skew: f64,
    /// Per-strategy measurements, in [`STRATEGIES`] order.
    pub strategies: Vec<StrategyResult>,
}

/// Workload size for a sweep scale.
pub fn stream_config(scale: Scale, skew: f64) -> ServiceWorkloadConfig {
    ServiceWorkloadConfig::scaled(scale, skew)
}

/// Runs one strategy over the block sequence of a stream, checking every
/// block against a [`ReferenceLedger`].
fn run_strategy(
    cfg: &ServiceConfig,
    stream: &[ClientTx],
    max_batch: usize,
) -> (StrategyResult, f64, u64, u64, usize) {
    let t0 = Instant::now();
    let mut balances: FastMap<u64, u32> = FastMap::default();
    let mut machines = ShardMachines::new();
    let mut reference = ReferenceLedger::default();
    // The reference check is verification, not service work: its time is
    // kept out of the pass's wall clock.
    let mut checking = Duration::ZERO;
    let mut receipts = 0usize;
    let (mut commits, mut aborts, mut shard_cycles) = (0u64, 0u64, 0u64);
    let (mut cross, mut ro_hits) = (0u64, 0u64);
    let mut worst_skew = 0.0f64;
    let mut blocks = 0usize;
    for block in stream.chunks(max_batch) {
        let out = machines.run_block(cfg, block, &balances);
        let check = Instant::now();
        let what = format!(
            "{} pass, {} shard(s), block {blocks}",
            cfg.strategy.label(),
            cfg.shards
        );
        reference.check_and_fold(&what, block, &out);
        checking += check.elapsed();
        fold_deltas(&mut balances, &out.deltas);
        commits += out.stats.commits;
        aborts += out.stats.aborts;
        shard_cycles += out.stats.max_shard_cycles;
        cross += out.stats.cross_shard;
        ro_hits += out.stats.read_only_hits;
        worst_skew = worst_skew.max(out.stats.shard_skew);
        blocks += 1;
        receipts += out.receipts.len();
    }
    let wall_ns = t0.elapsed().saturating_sub(checking).as_nanos() as u64;
    let attempts = commits + aborts;
    let result = StrategyResult {
        strategy: cfg.strategy.label(),
        wall_ns,
        tx_per_sec: stream.len() as f64 / (wall_ns as f64 / 1e9).max(1e-9),
        commits,
        aborts,
        abort_rate: if attempts == 0 {
            0.0
        } else {
            aborts as f64 / attempts as f64
        },
        shard_cycles,
        receipts,
    };
    (result, worst_skew, cross, ro_hits, blocks)
}

/// Runs one `(skew, shards)` cell under every strategy; every block of
/// every pass must match the [`ReferenceLedger`].
pub fn run_cell(scale: Scale, skew: f64, shards: usize, max_batch: usize) -> ServiceCell {
    let wcfg = stream_config(scale, skew);
    let stream = generate(&wcfg);
    let mut cell = ServiceCell {
        skew,
        shards,
        txs: stream.len(),
        blocks: 0,
        cross_shard: 0,
        read_only_hits: 0,
        shard_skew: 0.0,
        strategies: Vec::new(),
    };
    for strategy in STRATEGIES {
        let mut cfg = ServiceConfig::new(wcfg.accounts, shards).with_strategy(strategy);
        cfg.max_batch = max_batch;
        let (result, worst_skew, cross, ro_hits, blocks) = run_strategy(&cfg, &stream, max_batch);
        if strategy != Strategy::ValidateOnly {
            cell.blocks = blocks;
            cell.cross_shard = cross;
            cell.read_only_hits = ro_hits;
            cell.shard_skew = cell.shard_skew.max(worst_skew);
        }
        cell.strategies.push(result);
    }
    cell
}

/// The full sweep: every skew × shard-count cell.
pub fn run_sweep(scale: Scale, max_batch: usize) -> Vec<ServiceCell> {
    let mut cells = Vec::new();
    for &skew in &SKEWS {
        for &shards in &SHARDS {
            eprintln!("service: skew {skew}, {shards} shard(s)...");
            cells.push(run_cell(scale, skew, shards, max_batch));
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_cell_matches_the_reference_and_counts_everything() {
        let cell = run_cell(Scale::Tiny, 0.9, 2, 128);
        assert_eq!(cell.strategies.len(), 2);
        assert_eq!(cell.txs, stream_config(Scale::Tiny, 0.9).txs);
        assert!(cell.blocks >= cell.txs / 128);
        let seq = &cell.strategies[0];
        assert!(seq.commits > 0);
        assert_eq!(seq.receipts, cell.txs, "every client tx gets a receipt");
        assert!(cell.shard_skew >= 1.0, "skew {}", cell.shard_skew);
    }
}
