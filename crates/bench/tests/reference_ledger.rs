//! The service ledger checked against the independent reference.
//!
//! Multi-block Zipfian streams run through `run_block` at 1, 2 and 4
//! shards and skews 0.6, 0.9 and 1.2, folding each block's deltas forward
//! as the ingest loop does. Every block goes through
//! [`ReferenceLedger::check_and_fold`]: receipts in client order, deltas
//! equal to the fold of the committed transfers, and every read-only probe
//! answering the reference balance as of the previous block boundary.

use ptm_bench::service::ReferenceLedger;
use ptm_service::{fold_deltas, run_block, ReceiptStatus, ServiceConfig};
use ptm_types::FastMap;
use ptm_workloads::{service::generate, ClientTx, ServiceWorkloadConfig};

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
/// against the reference. Returns the reference's final balances and the
/// number of probes that saw a non-zero balance.
fn check_stream(stream: &[ClientTx], shards: usize) -> (Vec<(u64, u32)>, usize) {
    let cfg = ServiceConfig::new(ACCOUNTS, shards);
    let mut service_balances: FastMap<u64, u32> = FastMap::default();
    let mut reference = ReferenceLedger::default();
    let mut nonzero_probes = 0;
    for (b, block) in stream.chunks(BLOCK).enumerate() {
        let out = run_block(&cfg, block, &service_balances);
        reference.check_and_fold(&format!("{shards} shard(s), block {b}"), block, &out);
        nonzero_probes += out
            .receipts
            .iter()
            .filter(|r| matches!(r.status, ReceiptStatus::ReadOnly { balance } if balance != 0))
            .count();
        fold_deltas(&mut service_balances, &out.deltas);
    }
    (reference.balances(), nonzero_probes)
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
            finals.push(balances);
        }
        assert!(
            finals.windows(2).all(|w| w[0] == w[1]),
            "skew {skew}: the shard count changed the final ledger"
        );
    }
}
