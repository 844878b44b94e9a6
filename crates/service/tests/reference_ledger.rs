//! The service ledger checked against an independent reference.
//!
//! Multi-block Zipfian streams run through `run_block` at 1, 2 and 4
//! shards and skews 0.6, 0.9 and 1.2, folding each block's deltas forward
//! as the ingest loop does. Alongside, a plain `HashMap<u64, u32>` folds
//! every transfer the receipts report as committed. Each block's deltas
//! must equal that fold, and every read-only probe must answer the
//! reference balance as of the previous block boundary.

use ptm_service::{fold_deltas, run_block, ReceiptStatus, ServiceConfig};
use ptm_types::FastMap;
use ptm_workloads::{service::generate, ClientTx, ServiceWorkloadConfig};
use std::collections::HashMap;

const ACCOUNTS: u64 = 2_000;
const TXS: usize = 600;
const BLOCK: usize = 100;

fn stream(skew: f64, seed: u64) -> Vec<ClientTx> {
    generate(&ServiceWorkloadConfig {
        accounts: ACCOUNTS,
        skew,
        seed,
        txs: TXS,
        read_only_pct: 25,
    })
}

/// Runs `stream` block by block on `shards` shards, checking every block
/// against the reference fold. Returns the reference's final balances and
/// the number of probes that saw a non-zero balance.
fn check_stream(stream: &[ClientTx], shards: usize) -> (HashMap<u64, u32>, usize) {
    let cfg = ServiceConfig::new(ACCOUNTS, shards);
    let mut service_balances: FastMap<u64, u32> = FastMap::default();
    let mut reference: HashMap<u64, u32> = HashMap::new();
    let mut nonzero_probes = 0;
    for (b, block) in stream.chunks(BLOCK).enumerate() {
        let out = run_block(&cfg, block, &service_balances);
        assert_eq!(out.receipts.len(), block.len(), "block {b}");
        let mut delta: HashMap<u64, u32> = HashMap::new();
        for (tx, r) in block.iter().zip(&out.receipts) {
            assert_eq!(r.tx_id, tx.id, "block {b}: receipts in client order");
            match r.status {
                ReceiptStatus::Committed { .. } => {
                    assert!(!tx.read_only, "block {b}: probe {} committed", tx.id);
                    let from = delta.entry(tx.from).or_insert(0);
                    *from = from.wrapping_sub(tx.amount);
                    let to = delta.entry(tx.to).or_insert(0);
                    *to = to.wrapping_add(tx.amount);
                }
                ReceiptStatus::ReadOnly { balance } => {
                    assert!(tx.read_only, "block {b}: transfer {} not run", tx.id);
                    let expected = reference.get(&tx.from).copied().unwrap_or(0);
                    assert_eq!(
                        balance, expected,
                        "block {b}: probe {} of account {}",
                        tx.id, tx.from
                    );
                    nonzero_probes += usize::from(balance != 0);
                }
                ReceiptStatus::Validated { .. } => panic!("block {b}: not a validate-only run"),
            }
        }
        let mut expected: Vec<(u64, u32)> = delta.into_iter().filter(|&(_, d)| d != 0).collect();
        expected.sort_unstable();
        assert_eq!(out.deltas, expected, "block {b}: deltas");
        for (acct, d) in expected {
            let e = reference.entry(acct).or_insert(0);
            *e = e.wrapping_add(d);
        }
        fold_deltas(&mut service_balances, &out.deltas);
    }
    (reference, nonzero_probes)
}

#[test]
fn every_block_matches_the_reference_fold() {
    for (i, skew) in [0.6, 0.9, 1.2].into_iter().enumerate() {
        let stream = stream(skew, 41 + i as u64);
        let mut finals = Vec::new();
        for shards in [1, 2, 4] {
            let (balances, nonzero_probes) = check_stream(&stream, shards);
            assert!(
                nonzero_probes > 0,
                "skew {skew}, {shards} shard(s): no probe saw an earlier block's transfer"
            );
            let mut balances: Vec<_> = balances.into_iter().filter(|&(_, b)| b != 0).collect();
            balances.sort_unstable();
            finals.push(balances);
        }
        assert!(
            finals.windows(2).all(|w| w[0] == w[1]),
            "skew {skew}: the shard count changed the final ledger"
        );
    }
}
