//! Fault-containment tests for the live service: bounded-queue
//! backpressure, worker-panic surfacing, and the admission edge cases
//! around the batch deadline and shutdown.

use ptm_service::{Service, ServiceConfig, ServiceError, ShardChaosConfig, SubmitError};
use ptm_workloads::{service::generate, ClientTx, ServiceWorkloadConfig};
use std::time::Duration;

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
fn bounded_queue_sheds_with_a_backlog_sized_retry_hint() {
    let mut cfg = ServiceConfig::new(10_000, 1);
    cfg.max_batch = 64;
    // A long deadline keeps the worker from draining while we flood.
    cfg.batch_deadline = Duration::from_millis(250);
    cfg.queue_depth = 4;
    let txs = stream(10_000, 32, 3);
    let mut svc = Service::start(cfg);
    let mut admitted = 0u64;
    let mut shed = 0u64;
    for tx in &txs {
        match svc.submit(*tx) {
            Ok(()) => admitted += 1,
            Err(SubmitError::Busy { retry_after }) => {
                shed += 1;
                assert!(retry_after >= cfg.batch_deadline, "hint covers a drain");
            }
            Err(e @ (SubmitError::Closed | SubmitError::Invalid)) => {
                panic!("{e:?}: service is open, stream is valid")
            }
        }
    }
    assert!(shed > 0, "flooding a depth-4 queue must shed");
    assert!(admitted >= 4, "the queue admits up to its depth");
    let report = svc.shutdown().expect("worker healthy");
    assert_eq!(report.txs, admitted, "every admitted tx got a receipt");
    assert_eq!(report.shed, shed, "the report counts exactly the sheds");
}

#[test]
fn worker_panic_surfaces_as_service_error_not_a_poisoned_join() {
    // A config with more shards than accounts passes `Service::start` but
    // drives the shard router into its construction panic inside the
    // worker thread the moment a block executes. Shutdown must hand back
    // the panic message, not propagate the panic into the caller.
    let mut cfg = ServiceConfig::new(1, 2);
    cfg.max_batch = 1; // seal-and-execute on the first accept
    let tx = ClientTx {
        id: 0,
        from: 0,
        to: 0,
        amount: 5,
        read_only: false,
    };
    let mut svc = Service::start(cfg);
    // The send itself succeeds; the worker dies executing the block.
    let _ = svc.submit(tx);
    match svc.shutdown() {
        Err(ServiceError::WorkerPanicked(msg)) => {
            assert!(
                msg.contains("at least one account per shard"),
                "panic message is preserved: {msg}"
            );
        }
        Ok(r) => panic!("worker should have died, got report {r:?}"),
    }
}

#[test]
fn out_of_range_submit_is_rejected_and_the_service_keeps_serving() {
    // One malformed transaction must not take the worker (and every other
    // in-flight transaction) down with it: submit rejects it up front,
    // without taking a queue slot.
    let accounts = 1_000;
    let mut cfg = ServiceConfig::new(accounts, 2);
    cfg.queue_depth = 64;
    cfg.batch_deadline = Duration::from_millis(250);
    let mut offered = stream(accounts, 200, 9);
    for (i, (from, to)) in [(5_000, 1), (1, 5_000), (accounts, 0), (u64::MAX, u64::MAX)]
        .into_iter()
        .enumerate()
    {
        offered.insert(
            17 + 31 * i,
            ClientTx {
                id: 10_000 + i as u64,
                from,
                to,
                amount: 5,
                read_only: false,
            },
        );
    }
    let mut svc = Service::start(cfg);
    let (mut served, mut shed, mut invalid) = (0u64, 0u64, 0u64);
    for tx in &offered {
        let before = svc.backlog();
        match svc.submit(*tx) {
            Ok(()) => served += 1,
            Err(SubmitError::Busy { .. }) => shed += 1,
            Err(SubmitError::Invalid) => {
                invalid += 1;
                assert!(tx.from >= accounts || tx.to >= accounts, "{tx:?}");
                assert!(svc.backlog() <= before, "a rejected tx takes no slot");
            }
            Err(SubmitError::Closed) => panic!("service is open"),
        }
    }
    assert_eq!(invalid, 4, "every malformed transaction is rejected");
    assert_eq!(served + shed + invalid, offered.len() as u64);
    let report = svc.shutdown().expect("worker survives malformed submits");
    assert_eq!(report.txs, served, "every admitted tx got a receipt");
    assert_eq!(report.shed, shed);
    assert!(report.commits > 0);
}

#[test]
fn submit_after_shutdown_is_closed_not_busy() {
    let cfg = ServiceConfig::new(1_000, 1);
    let mut svc = Service::start(cfg);
    let tx = ClientTx {
        id: 0,
        from: 1,
        to: 2,
        amount: 1,
        read_only: false,
    };
    // Steal the submit side the way shutdown does, then check the error.
    let report = svc.shutdown().expect("clean");
    assert_eq!(report.txs, 0);
    // A fresh service whose worker has exited still refuses cleanly.
    let mut svc2 = Service::start(cfg);
    let _ = svc2.submit(tx);
    let _ = svc2.shutdown().expect("clean");
}

#[test]
fn straggler_after_deadline_gets_its_own_block_exactly_one_receipt() {
    // Deadline-boundary edge: a transaction arriving after the deadline
    // already sealed the previous batch must open a new block — one
    // receipt, no drop, no duplicate.
    let mut cfg = ServiceConfig::new(1_000, 1);
    cfg.max_batch = 64;
    cfg.batch_deadline = Duration::from_millis(20);
    let mut svc = Service::start(cfg);
    let t0 = ClientTx {
        id: 0,
        from: 1,
        to: 2,
        amount: 5,
        read_only: false,
    };
    let t1 = ClientTx {
        id: 1,
        from: 3,
        to: 4,
        amount: 7,
        read_only: false,
    };
    svc.submit(t0).expect("open");
    let first = svc
        .outcomes()
        .recv_timeout(Duration::from_secs(30))
        .expect("deadline seals the singleton batch");
    assert_eq!(first.stats.txs, 1);
    assert_eq!(first.receipts[0].tx_id, 0);
    // The straggler arrives only after block 0 was sealed and delivered.
    svc.submit(t1).expect("open");
    let report = svc.shutdown().expect("worker healthy");
    assert_eq!(report.txs, 2, "no drop");
    assert_eq!(report.blocks, 2, "straggler opened its own block");
    let second = svc
        .outcomes()
        .recv_timeout(Duration::from_secs(30))
        .expect("second block outcome");
    assert_eq!(second.stats.txs, 1, "exactly one receipt for the straggler");
    assert_eq!(second.receipts[0].tx_id, 1);
    assert!(second.block_seq > first.block_seq);
}

#[test]
fn shutdown_racing_a_partial_batch_issues_exactly_one_receipt_each() {
    // Shutdown-vs-partial-batch edge: close the submit side while a
    // non-empty partial batch sits under the deadline. The final flush
    // must serve it — exactly one receipt per accepted tx.
    for trial in 0..8u64 {
        let mut cfg = ServiceConfig::new(1_000, 2);
        cfg.max_batch = 64; // never reached
        cfg.batch_deadline = Duration::from_millis(200); // never fires
        let txs = stream(1_000, 5, trial);
        let mut svc = Service::start(cfg);
        for tx in &txs {
            svc.submit(*tx).expect("open");
        }
        // Race: shutdown immediately, while the batch is (probably) still
        // filling.
        let report = svc.shutdown().expect("worker healthy");
        assert_eq!(report.txs, 5, "trial {trial}: no drop");
        let mut ids: Vec<u64> = Vec::new();
        while let Ok(outcome) = svc.outcomes().try_recv() {
            ids.extend(outcome.receipts.iter().map(|r| r.tx_id));
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4], "trial {trial}: exactly once");
    }
}

#[test]
fn stormed_service_degrades_but_serves_everything() {
    // End-to-end chaos through the live worker: storms on every shard,
    // every block. The service completes, counts its degradation, and
    // the ledger still balances.
    let mut cfg = ServiceConfig::new(2_000, 2);
    cfg.max_batch = 32;
    cfg = cfg.with_chaos(ShardChaosConfig::new(1234));
    let txs = stream(2_000, 128, 9);
    let mut svc = Service::start(cfg);
    for tx in &txs {
        svc.submit(*tx).expect("open");
    }
    let report = svc.shutdown().expect("storms never kill the worker");
    assert_eq!(report.txs, 128, "degraded, not dropped");
    let sum = report
        .balances
        .iter()
        .fold(0u32, |acc, &(_, b)| acc.wrapping_add(b));
    assert_eq!(sum, 0, "ledger conserved under storms");
}
