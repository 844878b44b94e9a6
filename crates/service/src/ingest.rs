//! The ingest loop: a worker thread that accepts a stream of client
//! transactions, journals and seals them into blocks under the admission
//! knobs, and executes each block through the configured strategy.
//!
//! Admission seals a block when either trigger fires:
//! - **size**: the batch reaches [`ServiceConfig::max_batch`], or
//! - **deadline**: the batch is non-empty and no new transaction arrived
//!   within [`ServiceConfig::batch_deadline`].
//!
//! Shutdown (dropping the submit side) flushes the final partial block,
//! so every accepted transaction gets a receipt.
//!
//! # Backpressure
//!
//! The submit queue is bounded by [`ServiceConfig::queue_depth`]:
//! transactions admitted but not yet folded into a block count as
//! in-flight, and [`Service::submit`] rejects with [`SubmitError::Busy`]
//! — carrying a `retry_after` hint sized to the backlog — instead of
//! queueing unboundedly. A submission reserves its slot before it is sent,
//! so the backlog never exceeds `queue_depth`, even with concurrent
//! [`Submitter`]s. An overloaded service degrades to shedding with
//! honest retry hints; it never falls over and never lies about an
//! accepted transaction.
//!
//! A transaction naming an account outside the service's account space is
//! rejected at submit with [`SubmitError::Invalid`], before it takes a
//! queue slot: the block it would join could not be executed.
//!
//! # Fault containment
//!
//! The worker thread is a fault boundary: if it dies (a bug, or a
//! configuration that block execution rejects), [`Service::shutdown`]
//! returns [`ServiceError::WorkerPanicked`] with the panic message
//! instead of propagating the panic into the caller's thread.

use crate::block::BlockOutcome;
use crate::config::ServiceConfig;
use crate::journal::JournalStats;
use crate::pipeline::Engine;
use ptm_workloads::ClientTx;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Totals accumulated over a service's lifetime, returned by
/// [`Service::shutdown`].
#[derive(Debug, Clone, Default)]
pub struct ServiceReport {
    /// Blocks executed.
    pub blocks: u64,
    /// Client transactions served (receipts issued).
    pub txs: u64,
    /// Committed simulator transactions across all blocks and shards.
    pub commits: u64,
    /// Aborted-and-retried simulator transactions.
    pub aborts: u64,
    /// Read-only probes answered on the fast path.
    pub read_only_hits: u64,
    /// Simulated cycles of the slowest shard, summed over blocks — the
    /// service's simulated work metric.
    pub shard_cycles: u64,
    /// Final non-zero balances, sorted by account.
    pub balances: Vec<(u64, u32)>,
    /// Submissions shed with `Busy` by the bounded queue.
    pub shed: u64,
    /// Client transactions durably acked by the journal (0 without one).
    pub acked_txs: u64,
    /// Shard attempts retried after a fault.
    pub shard_retries: u64,
    /// Shard attempts that blew their cycle budget.
    pub shard_stalls: u64,
    /// Shards that escalated to serial-irrevocable execution.
    pub shard_escalations: u64,
    /// Blocks that completed degraded (any retry or escalation).
    pub degraded_blocks: u64,
    /// Journal counters, when the service ran with one.
    pub journal: Option<JournalStats>,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full. Retry no sooner than `retry_after`
    /// (sized to the backlog: roughly the time the worker needs to drain
    /// enough blocks to make room).
    Busy {
        /// Backlog-proportional retry hint.
        retry_after: Duration,
    },
    /// The service has shut down; nothing will ever be admitted again.
    Closed,
    /// The transaction names an account outside `0..accounts`. It was not
    /// queued and took no slot; resubmitting it can never succeed.
    Invalid,
}

/// Why a shutdown did not return a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The ingest worker died; the payload is the panic message. Accepted
    /// transactions up to the death are recoverable from the journal (if
    /// one was configured) exactly as after a crash.
    WorkerPanicked(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::WorkerPanicked(msg) => write!(f, "ingest worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A running PTM-as-a-service frontend.
///
/// Submissions are accepted through [`Service::submit`] or from any
/// thread holding a [`Submitter`]; sealed block outcomes stream back in
/// order on [`Service::outcomes`].
pub struct Service {
    submitter: Submitter,
    outcomes: Receiver<BlockOutcome>,
    worker: Option<JoinHandle<ServiceReport>>,
}

/// A cloneable submit handle: any number of threads may submit through
/// clones concurrently. [`Service::shutdown`] closes every clone.
#[derive(Debug, Clone)]
pub struct Submitter {
    /// `None` once the service has shut down.
    sender: Arc<RwLock<Option<Sender<ClientTx>>>>,
    /// Transactions admitted but not yet folded into a delivered block.
    inflight: Arc<AtomicUsize>,
    shed: Arc<AtomicU64>,
    accounts: u64,
    queue_depth: usize,
    max_batch: usize,
    batch_deadline: Duration,
}

impl Submitter {
    /// Submits one client transaction through the bounded queue.
    pub fn submit(&self, tx: ClientTx) -> Result<(), SubmitError> {
        if tx.from >= self.accounts || tx.to >= self.accounts {
            return Err(SubmitError::Invalid);
        }
        let sender = self.sender.read().unwrap_or_else(PoisonError::into_inner);
        let Some(s) = sender.as_ref() else {
            return Err(SubmitError::Closed);
        };
        // Reserve the slot before sending: once sent, the worker may fold
        // the transaction's block and release its slot before `send` even
        // returns. Reserving by compare-and-swap also keeps concurrent
        // submitters from overshooting `queue_depth` together.
        let reserved = self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.queue_depth).then_some(n + 1)
            });
        if let Err(backlog) = reserved {
            self.shed.fetch_add(1, Ordering::Relaxed);
            // The worker drains roughly one max_batch-sized block per
            // deadline; size the hint to the number of blocks queued
            // ahead, so honest clients back off proportionally.
            let blocks_ahead = (backlog / self.max_batch.max(1) + 1) as u32;
            return Err(SubmitError::Busy {
                retry_after: self.batch_deadline.saturating_mul(blocks_ahead),
            });
        }
        if s.send(tx).is_err() {
            self.inflight.fetch_sub(1, Ordering::Relaxed);
            return Err(SubmitError::Closed);
        }
        Ok(())
    }

    /// Transactions admitted but not yet folded into a delivered block.
    pub fn backlog(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Submissions shed with `Busy` so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

impl Service {
    /// Starts the ingest worker.
    pub fn start(cfg: ServiceConfig) -> Self {
        let (submit, rx) = mpsc::channel::<ClientTx>();
        let (out_tx, outcomes) = mpsc::channel::<BlockOutcome>();
        let inflight = Arc::new(AtomicUsize::new(0));
        let worker_inflight = Arc::clone(&inflight);
        let worker = thread::spawn(move || ingest_loop(cfg, rx, out_tx, worker_inflight));
        Service {
            submitter: Submitter {
                sender: Arc::new(RwLock::new(Some(submit))),
                inflight,
                shed: Arc::new(AtomicU64::new(0)),
                accounts: cfg.accounts,
                queue_depth: cfg.queue_depth,
                max_batch: cfg.max_batch,
                batch_deadline: cfg.batch_deadline,
            },
            outcomes,
            worker: Some(worker),
        }
    }

    /// Submits one client transaction through the bounded queue.
    pub fn submit(&self, tx: ClientTx) -> Result<(), SubmitError> {
        self.submitter.submit(tx)
    }

    /// A submit handle for other threads.
    pub fn submitter(&self) -> Submitter {
        self.submitter.clone()
    }

    /// Transactions admitted but not yet folded into a delivered block.
    pub fn backlog(&self) -> usize {
        self.submitter.backlog()
    }

    /// Submissions shed with `Busy` so far.
    pub fn shed(&self) -> u64 {
        self.submitter.shed()
    }

    /// Block outcomes, in execution order.
    pub fn outcomes(&self) -> &Receiver<BlockOutcome> {
        &self.outcomes
    }

    /// Closes the submit side (every [`Submitter`] included), flushes the
    /// final partial block, joins the worker and returns lifetime totals.
    /// Unread outcomes remain readable on [`Service::outcomes`] until
    /// `self` drops.
    ///
    /// A worker that died mid-service surfaces as
    /// [`ServiceError::WorkerPanicked`] instead of poisoning the calling
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics on a second call.
    pub fn shutdown(&mut self) -> Result<ServiceReport, ServiceError> {
        self.submitter
            .sender
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        match self.worker.take().expect("shutdown runs once").join() {
            Ok(mut report) => {
                report.shed = self.submitter.shed();
                Ok(report)
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(ServiceError::WorkerPanicked(msg))
            }
        }
    }
}

fn ingest_loop(
    cfg: ServiceConfig,
    rx: Receiver<ClientTx>,
    out: Sender<BlockOutcome>,
    inflight: Arc<AtomicUsize>,
) -> ServiceReport {
    let mut engine = Engine::new(cfg, None);
    let mut open = true;

    // The engine is crash-plan-free here, so its pipeline methods cannot
    // fail; the worker thread *itself* is the fault boundary (see
    // `ServiceError::WorkerPanicked`).
    let deliver = |outcome: Option<BlockOutcome>| {
        if let Some(outcome) = outcome {
            inflight.fetch_sub(outcome.stats.txs, Ordering::Relaxed);
            // The receiver side may have been dropped (caller only wants
            // the final report); executing was still required for the
            // balances.
            let _ = out.send(outcome);
        }
    };

    while open {
        // Fill greedily from whatever is already queued, then wait out
        // the deadline for stragglers. The engine seals on size by
        // itself; the deadline and shutdown triggers flush explicitly.
        loop {
            match rx.try_recv() {
                Ok(tx) => {
                    let sealed = engine.accept(tx).expect("no crash plan");
                    let full = sealed.is_some();
                    deliver(sealed);
                    if full {
                        break;
                    }
                }
                Err(TryRecvError::Empty) => match rx.recv_timeout(cfg.batch_deadline) {
                    Ok(tx) => {
                        let sealed = engine.accept(tx).expect("no crash plan");
                        let full = sealed.is_some();
                        deliver(sealed);
                        if full {
                            break;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => {
                        open = false;
                        break;
                    }
                },
                Err(TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        deliver(engine.flush().expect("no crash plan"));
    }

    engine.finish().expect("no crash plan")
}
