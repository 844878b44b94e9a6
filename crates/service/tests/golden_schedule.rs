//! A golden digest of the service's simulated execution schedule.
//!
//! A reference-ledger check cannot catch a change to simulated timing:
//! the ledger is the same whatever the commit cycles. This test pins one
//! fixed stream instead — 2,000 transactions on hot keys (Zipf s=1.2) at 4
//! shards, executed block by block with balances folded between blocks —
//! and checks a single FNV-1a digest over every receipt (commit order and
//! commit cycle included), every block's deltas, commit and abort counts
//! and slowest-shard cycles. A changed digest means the simulated
//! behaviour changed. The blocks run through one [`ShardMachines`], so
//! every block after the first runs on machines reset from the previous
//! one: the digest also pins that a reset machine runs as a new one.

use ptm_service::{fold_deltas, ReceiptStatus, ServiceConfig, ShardMachines};
use ptm_types::rng::Fnv1a64;
use ptm_types::FastMap;
use ptm_workloads::{service::generate, ServiceWorkloadConfig};

/// The digest of the schedule below.
const GOLDEN: u64 = 0x6b06_8bbd_df20_fa99;

/// The schedule's digest and its total simulator aborts.
fn schedule_digest() -> (u64, u64) {
    let accounts = 100_000;
    let cfg = ServiceConfig::new(accounts, 4);
    let stream = generate(&ServiceWorkloadConfig {
        accounts,
        skew: 1.2,
        seed: 7,
        txs: 2_000,
        read_only_pct: 5,
    });
    let mut balances = FastMap::default();
    let mut machines = ShardMachines::new();
    let mut h = Fnv1a64::new();
    let mut aborts = 0;
    for block in stream.chunks(cfg.max_batch) {
        let out = machines.run_block(&cfg, block, &balances);
        for r in &out.receipts {
            h.write_u64(r.tx_id);
            h.write_u64(r.shard as u64);
            match r.status {
                ReceiptStatus::Committed { seq, at } => {
                    h.write_u64(0);
                    h.write_u64(seq);
                    h.write_u64(at);
                }
                ReceiptStatus::ReadOnly { balance } => {
                    h.write_u64(1);
                    h.write_u64(u64::from(balance));
                }
                ReceiptStatus::Validated { ok } => {
                    h.write_u64(2);
                    h.write_u64(u64::from(ok));
                }
            }
        }
        for &(acct, d) in &out.deltas {
            h.write_u64(acct);
            h.write_u64(u64::from(d));
        }
        h.write_u64(out.stats.commits);
        h.write_u64(out.stats.aborts);
        aborts += out.stats.aborts;
        h.write_u64(out.stats.max_shard_cycles);
        fold_deltas(&mut balances, &out.deltas);
    }
    (h.finish(), aborts)
}

#[test]
fn hot_key_schedule_matches_golden_digest() {
    let (digest, aborts) = schedule_digest();
    assert!(aborts > 0, "hot keys must contend");
    assert_eq!(digest, GOLDEN, "digest {digest:#018x}");
}
