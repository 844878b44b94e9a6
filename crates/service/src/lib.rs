//! PTM-as-a-service: a sharded, batched transaction frontend over the
//! simulator.
//!
//! The simulator executes fixed per-thread programs; this crate turns it
//! into a *service*: a stream of bank/erc20-style client transactions
//! (from the Zipfian generator in `ptm_workloads::service`) is batched
//! into blocks under admission knobs (batch size, deadline), each block is
//! compiled into per-shard thread programs, executed on N independent
//! shard [`ptm_sim::Machine`]s, and answered with ordered receipts plus
//! per-block stats (commits, aborts, shard skew, read-only fast-path
//! hits).
//!
//! # Sharding and the cross-shard limitation
//!
//! Accounts partition into contiguous key ranges ([`ShardMap`]); routing
//! is a pure, monotone function of the account id. A transfer whose
//! `from` and `to` fall in different ranges is routed **whole** to the
//! owner shard of the debited account — both ledger words are
//! materialized in that shard's machine. Because transfers are expressed
//! as commutative wrapping `Rmw` deltas and every account word folds back
//! into one global balance table at block boundaries, **global balances
//! are exact** without any cross-shard commit protocol. What is *not*
//! provided is cross-shard isolation: two shards may update their images
//! of the same credited account concurrently within a block, and a reader
//! cannot observe both sides of a cross-shard transfer atomically
//! mid-block. There is deliberately no two-phase commit; the block
//! boundary is the global consistency point. See DESIGN.md (decision 23).
//!
//! # Determinism
//!
//! [`run_block`] is a pure function of `(config, block, balances)` up to
//! wall-clock stats. Its ledger deltas and read-only balances are checked
//! against a plain reference fold of the committed transfers on every
//! block of every cell of the service bench.
//!
//! # Fault tolerance
//!
//! The frontend is crash-recoverable and fault-isolated:
//!
//! * **Durable ingest journal** ([`crate::journal`]): accepts, seals and
//!   block commits are appended to a [`ptm_mem::logdev::LogDevice`]-backed
//!   journal under a [`ForcePolicy`]; acks become durable at force
//!   points, and [`recover`] replays the journal into the exact committed
//!   prefix — no phantom receipts, no lost acked transaction, idempotent
//!   receipt redelivery keyed by `(block_seq, client id)`.
//! * **Crash injection** ([`crate::pipeline`]): a step-indexed
//!   [`ServiceCrashPlan`] kills the pipeline at any accept/seal/execute/
//!   commit/fold boundary; the bench sweeps it against a committed-prefix
//!   oracle.
//! * **Shard fault isolation** ([`ShardChaosConfig`]): abort storms and
//!   resource squeezes hit single shards; a stalled or exhausted shard is
//!   retried under backoff with a doubling cycle budget and escalates to
//!   serial-irrevocable execution — degraded and counted, never a
//!   deadlocked pipeline.
//! * **Backpressure** ([`Service::submit`], [`Submitter`]): the submit
//!   queue is bounded; overload sheds with [`SubmitError::Busy`] and a
//!   backlog-sized `retry_after` hint.
//!
//! See DESIGN.md (decision 24).
//!
//! # Examples
//!
//! ```
//! use ptm_service::{Service, ServiceConfig, Strategy};
//! use ptm_workloads::{service::generate, ServiceWorkloadConfig};
//!
//! let cfg = ServiceConfig::new(100_000, 2).with_strategy(Strategy::Sequential);
//! let stream = generate(&ServiceWorkloadConfig {
//!     accounts: cfg.accounts,
//!     skew: 0.9,
//!     seed: 1,
//!     txs: 200,
//!     read_only_pct: 20,
//! });
//! let mut svc = Service::start(cfg);
//! for tx in &stream {
//!     svc.submit(*tx).expect("queue_depth covers the stream");
//! }
//! let report = svc.shutdown().expect("worker ran to completion");
//! assert_eq!(report.txs, 200);
//! ```

pub mod block;
pub mod config;
pub mod ingest;
pub mod journal;
pub mod pipeline;
pub mod shard;

pub use block::{
    fold_deltas, run_block, BlockOutcome, BlockStats, Receipt, ReceiptStatus, ShardMachines,
};
pub use config::{JournalConfig, ServiceConfig, ShardChaosConfig, Strategy};
pub use ingest::{Service, ServiceError, ServiceReport, SubmitError, Submitter};
pub use journal::{replay, Journal, JournalReplay, JournalStats, RecoveredBlock};
pub use pipeline::{
    recover, run_stream_with_crash, CrashRun, Crashed, Engine, RecoveryReport, ServiceCrashImage,
    ServiceCrashPlan, ServiceRecovery,
};
pub use ptm_core::durability::ForcePolicy;
pub use shard::ShardMap;

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_types::FastMap;
    use ptm_workloads::{service::generate, ClientTx, ServiceWorkloadConfig};

    fn stream(accounts: u64, txs: usize, seed: u64) -> Vec<ClientTx> {
        generate(&ServiceWorkloadConfig {
            accounts,
            skew: 0.9,
            seed,
            txs,
            read_only_pct: 20,
        })
    }

    #[test]
    fn every_client_tx_gets_exactly_one_receipt() {
        let block = stream(10_000, 250, 3);
        let cfg = ServiceConfig::new(10_000, 4);
        let out = run_block(&cfg, &block, &FastMap::default());
        assert_eq!(out.receipts.len(), block.len());
        for (i, r) in out.receipts.iter().enumerate() {
            assert_eq!(r.tx_id, i as u64, "receipts sorted by client id");
        }
        let map = ShardMap::new(4, 10_000);
        for (tx, r) in block.iter().zip(&out.receipts) {
            assert_eq!(r.shard, map.owner(tx));
            match r.status {
                ReceiptStatus::ReadOnly { .. } => assert!(tx.read_only),
                ReceiptStatus::Committed { .. } => assert!(!tx.read_only),
                ReceiptStatus::Validated { .. } => panic!("not a validate-only run"),
            }
        }
    }

    #[test]
    fn block_deltas_conserve_the_ledger() {
        // Every transfer debits and credits the same amount, so the net
        // wrapping sum of all deltas is zero.
        let block = stream(5_000, 400, 11);
        let cfg = ServiceConfig::new(5_000, 2);
        let out = run_block(&cfg, &block, &FastMap::default());
        let sum = out
            .deltas
            .iter()
            .fold(0u32, |acc, &(_, d)| acc.wrapping_add(d));
        assert_eq!(sum, 0);
        assert!(!out.deltas.is_empty());
    }

    #[test]
    fn sharded_execution_matches_single_shard_balances() {
        // Sharding changes the schedule, not the ledger: fold the deltas
        // from a 1-shard and a 4-shard run and compare.
        let block = stream(8_000, 300, 13);
        let mut one = FastMap::default();
        let mut four = FastMap::default();
        let o1 = run_block(&ServiceConfig::new(8_000, 1), &block, &one);
        let o4 = run_block(&ServiceConfig::new(8_000, 4), &block, &four);
        fold_deltas(&mut one, &o1.deltas);
        fold_deltas(&mut four, &o4.deltas);
        let mut a: Vec<_> = one.into_iter().collect();
        let mut b: Vec<_> = four.into_iter().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn validate_only_touches_nothing() {
        let block = stream(5_000, 100, 5);
        let cfg = ServiceConfig::new(5_000, 2).with_strategy(Strategy::ValidateOnly);
        let out = run_block(&cfg, &block, &FastMap::default());
        assert!(out.deltas.is_empty());
        assert_eq!(out.stats.commits, 0);
        assert_eq!(out.receipts.len(), block.len());
        for r in &out.receipts {
            assert!(matches!(
                r.status,
                ReceiptStatus::Validated { ok: true } | ReceiptStatus::ReadOnly { .. }
            ));
        }
    }

    #[test]
    fn read_only_probes_see_prior_block_balances() {
        let accounts = 1_000u64;
        let cfg = ServiceConfig::new(accounts, 2);
        // Block 1: one transfer 3 -> 7 of 50.
        let b1 = [ClientTx {
            id: 0,
            from: 3,
            to: 7,
            amount: 50,
            read_only: false,
        }];
        let mut balances = FastMap::default();
        let o1 = run_block(&cfg, &b1, &balances);
        fold_deltas(&mut balances, &o1.deltas);
        assert_eq!(balances.get(&7), Some(&50));
        assert_eq!(balances.get(&3), Some(&50u32.wrapping_neg()));
        // Block 2: probe both sides.
        let b2 = [
            ClientTx {
                id: 1,
                from: 7,
                to: 7,
                amount: 0,
                read_only: true,
            },
            ClientTx {
                id: 2,
                from: 3,
                to: 3,
                amount: 0,
                read_only: true,
            },
        ];
        let o2 = run_block(&cfg, &b2, &balances);
        assert_eq!(
            o2.receipts[0].status,
            ReceiptStatus::ReadOnly { balance: 50 }
        );
        assert_eq!(
            o2.receipts[1].status,
            ReceiptStatus::ReadOnly {
                balance: 50u32.wrapping_neg()
            }
        );
        assert_eq!(o2.stats.read_only_hits, 2);
    }

    #[test]
    fn ingest_loop_batches_by_size_and_flushes_on_shutdown() {
        let mut cfg = ServiceConfig::new(10_000, 2);
        cfg.max_batch = 64;
        cfg.batch_deadline = std::time::Duration::from_millis(50);
        let txs = stream(10_000, 200, 17);
        let mut svc = Service::start(cfg);
        for tx in &txs {
            assert_eq!(svc.submit(*tx), Ok(()));
        }
        let report = svc.shutdown().expect("worker healthy");
        assert_eq!(report.txs, 200);
        assert!(report.blocks >= 200 / 64, "blocks: {}", report.blocks);
        assert!(report.commits > 0);
        // Ledger conserved service-wide: wrapping sum of final balances
        // is zero.
        let sum = report
            .balances
            .iter()
            .fold(0u32, |acc, &(_, b)| acc.wrapping_add(b));
        assert_eq!(sum, 0);
    }

    #[test]
    fn concurrent_submitters_respect_the_queue_bound() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Tiny blocks and a short deadline keep the worker folding blocks
        // (and releasing slots) while four threads race to fill the queue
        // and a fifth samples the backlog.
        let mut cfg = ServiceConfig::new(10_000, 2);
        cfg.max_batch = 8;
        cfg.batch_deadline = std::time::Duration::from_millis(1);
        cfg.queue_depth = 24;
        for seed in 0..8 {
            let txs = stream(10_000, 8_000, seed);
            let mut svc = Service::start(cfg);
            let done = AtomicBool::new(false);
            let start = std::sync::Barrier::new(4);
            let (served, shed, max_backlog) = std::thread::scope(|s| {
                let monitor = {
                    let sub = svc.submitter();
                    let done = &done;
                    s.spawn(move || {
                        let mut max = 0;
                        while !done.load(Ordering::Relaxed) {
                            max = max.max(sub.backlog());
                        }
                        max
                    })
                };
                let threads: Vec<_> = txs
                    .chunks(2_000)
                    .map(|chunk| {
                        let sub = svc.submitter();
                        let start = &start;
                        s.spawn(move || {
                            let (mut served, mut shed) = (0u64, 0u64);
                            start.wait();
                            for tx in chunk {
                                match sub.submit(*tx) {
                                    Ok(()) => served += 1,
                                    Err(SubmitError::Busy { .. }) => shed += 1,
                                    Err(e) => panic!("{e:?} while running"),
                                }
                            }
                            (served, shed)
                        })
                    })
                    .collect();
                let (served, shed) = threads
                    .into_iter()
                    .map(|t| t.join().expect("submitter thread"))
                    .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
                done.store(true, Ordering::Relaxed);
                (served, shed, monitor.join().expect("monitor thread"))
            });
            assert!(
                max_backlog <= cfg.queue_depth,
                "seed {seed}: backlog {max_backlog}"
            );
            let report = svc.shutdown().expect("worker healthy");
            assert_eq!(served + shed, txs.len() as u64, "every offer answered");
            assert_eq!(report.txs, served, "seed {seed}");
            assert_eq!(report.shed, shed, "seed {seed}");
            assert_eq!(svc.submit(txs[0]), Err(SubmitError::Closed));
        }
    }

    #[test]
    fn ingest_outcomes_stream_in_block_order() {
        let mut cfg = ServiceConfig::new(4_000, 1);
        cfg.max_batch = 50;
        cfg.batch_deadline = std::time::Duration::from_millis(50);
        let txs = stream(4_000, 100, 23);
        let mut svc = Service::start(cfg);
        for tx in &txs {
            assert_eq!(svc.submit(*tx), Ok(()));
        }
        let first = svc
            .outcomes()
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("first block outcome");
        assert_eq!(first.stats.txs, 50);
        assert_eq!(first.block_seq, 0);
        assert_eq!(first.receipts.first().map(|r| r.tx_id), Some(0));
        let report = svc.shutdown().expect("worker healthy");
        assert_eq!(report.blocks, 2);
    }
}
