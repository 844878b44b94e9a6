//! The deterministic service pipeline: accept → seal → execute → commit →
//! fold, with a step counter a crash plan can kill at any point.
//!
//! [`Engine`] is the synchronous core the threaded ingest worker and the
//! crash-sweep driver share. Every pipeline action advances a monotone
//! **step counter**; a [`ServiceCrashPlan`] names the step at which the
//! process dies, and [`run_stream_with_crash`] freezes everything the
//! crash oracle needs: the journal's crash-boundary device image, the
//! accepted prefix, the durably-acked ids, and the receipts delivered
//! before the cut. The engine itself holds O(block) state; the crash
//! driver, which has the stream, rebuilds the prefixes from counts.
//!
//! [`recover`] is the other half: scan the journal image ([`replay`]),
//! re-execute every sealed block in seal order (block execution is a pure
//! function, so re-execution regenerates bit-identical receipts), fold
//! each block's deltas **exactly once** — journaled deltas for committed
//! blocks (the durable truth, cross-checked against the re-execution),
//! freshly computed ones for blocks whose commit record didn't survive —
//! re-seal the accepted-but-unsealed tail as a final block, and force.
//! Recovery appends through the same reopened device, so recovering the
//! *recovered* image is a no-op modulo counters: recovery is idempotent,
//! and the crash sweep asserts it point by point.

use crate::block::{fold_deltas, BlockOutcome, ShardMachines};
use crate::config::ServiceConfig;
use crate::ingest::ServiceReport;
use crate::journal::{replay, Journal};
use ptm_core::durability::ForcePolicy;
use ptm_mem::logdev::LogImage;
use ptm_types::FastMap;
use ptm_workloads::ClientTx;

/// Where the pipeline dies: the step counter value at which every further
/// pipeline action fails. Step indices count *pipeline actions* (accept,
/// seal, execute, commit, fold), not wall time, so a sweep over `at_step`
/// cuts the pipeline at every interesting boundary — mid-batch, between
/// seal and execute, between execute and commit, before the fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceCrashPlan {
    /// The pipeline dies before performing step `at_step`.
    pub at_step: u64,
}

/// The pipeline crashed (a [`ServiceCrashPlan`] fired). Carries nothing:
/// [`run_stream_with_crash`] reads the state of the dead process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crashed;

/// Everything the crash oracle sees at the crash boundary.
#[derive(Debug, Clone)]
pub struct ServiceCrashImage {
    /// The journal's device image: durable prefix plus whatever the fault
    /// plan decided about in-flight appends.
    pub journal: LogImage,
    /// The force policy the dead service ran.
    pub policy: ForcePolicy,
    /// The step counter at death.
    pub at_step: u64,
    /// Client transactions accepted (journaled and admitted) pre-crash,
    /// in submission order.
    pub accepted: Vec<ClientTx>,
    /// Client ids durably acked pre-crash (accept record behind a force).
    /// The oracle's hard set: these must all survive recovery.
    pub acked: Vec<u64>,
    /// Block outcomes delivered pre-crash, with their `block_seq` stamps.
    pub delivered: Vec<BlockOutcome>,
    /// Blocks whose commit records were force-covered pre-crash: recovery
    /// must find every one of them committed (no phantom receipts — a
    /// durable receipt is a receipt recovery regenerates identically).
    pub durable_blocks: Vec<u64>,
    /// Volatile pre-crash balances (sorted, non-zero) — what the ledger
    /// *would* have been; recovery is allowed to lose the un-journaled
    /// suffix of this, never to invent state beyond it.
    pub balances: Vec<(u64, u32)>,
}

/// The synchronous pipeline engine.
pub struct Engine {
    cfg: ServiceConfig,
    journal: Option<Journal>,
    balances: FastMap<u64, u32>,
    /// The shard machines every block runs on, reset between blocks.
    machines: ShardMachines,
    batch: Vec<ClientTx>,
    next_block_seq: u64,
    report: ServiceReport,
    step: u64,
    crash_at: Option<u64>,
    /// Client transactions accepted so far.
    accepted: u64,
    /// Blocks whose commit a policy force has covered. Always the
    /// seal-order prefix `0..durable_blocks`: blocks commit in `seq` order
    /// and a force covers every earlier record.
    durable_blocks: u64,
}

impl Engine {
    /// A fresh engine; `crash` arms the step-indexed kill switch.
    pub fn new(cfg: ServiceConfig, crash: Option<ServiceCrashPlan>) -> Self {
        Engine {
            journal: cfg.journal.map(Journal::new),
            cfg,
            balances: FastMap::default(),
            machines: ShardMachines::new(),
            batch: Vec::new(),
            next_block_seq: 0,
            report: ServiceReport::default(),
            step: 0,
            crash_at: crash.map(|c| c.at_step),
            accepted: 0,
            durable_blocks: 0,
        }
    }

    /// The step counter (pipeline actions performed so far).
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Advances the step counter, or dies if the crash plan says so.
    fn tick(&mut self) -> Result<(), Crashed> {
        if let Some(at) = self.crash_at {
            if self.step >= at {
                return Err(Crashed);
            }
        }
        self.step += 1;
        Ok(())
    }

    /// Accepts one client transaction: journals it, admits it to the open
    /// batch, and seals-and-executes the batch if it reached
    /// [`ServiceConfig::max_batch`]. Returns the block outcome when this
    /// accept sealed one.
    pub fn accept(&mut self, tx: ClientTx) -> Result<Option<BlockOutcome>, Crashed> {
        self.tick()?;
        if let Some(j) = &mut self.journal {
            j.accept(&tx);
        }
        self.accepted += 1;
        self.batch.push(tx);
        if self.batch.len() >= self.cfg.max_batch {
            self.flush()
        } else {
            Ok(None)
        }
    }

    /// Seals and executes the open batch (the deadline path of the ingest
    /// worker; the size path calls it from [`Engine::accept`]). No-op on
    /// an empty batch.
    pub fn flush(&mut self) -> Result<Option<BlockOutcome>, Crashed> {
        if self.batch.is_empty() {
            return Ok(None);
        }
        // Seal: the batch becomes block `seq`; its membership is journaled
        // before anything executes.
        self.tick()?;
        let seq = self.next_block_seq;
        self.next_block_seq += 1;
        if let Some(j) = &mut self.journal {
            j.seal(seq, self.batch.len() as u32);
        }
        // Execute: pure function of (cfg, block, balances); the chaos salt
        // is the block sequence so re-execution during recovery draws the
        // exact same storms.
        self.tick()?;
        let mut bcfg = self.cfg;
        if let Some(chaos) = &mut bcfg.chaos {
            chaos.salt = seq;
        }
        let mut outcome = self.machines.run_block(&bcfg, &self.batch, &self.balances);
        outcome.block_seq = seq;
        // Commit: the block's redo deltas are journaled; a force here (per
        // policy) is the block's durability point.
        self.tick()?;
        if let Some(j) = &mut self.journal {
            j.commit(seq, &outcome.deltas);
            // Every commit appends a record, so this holds exactly when
            // the policy forced at this commit.
            if j.forced_records() == j.records() {
                self.durable_blocks = seq + 1;
            }
        }
        // Fold: the deltas land in the balance table and the receipts are
        // released to the client.
        self.tick()?;
        fold_deltas(&mut self.balances, &outcome.deltas);
        self.batch.clear();
        self.report.blocks += 1;
        self.report.txs += outcome.stats.txs as u64;
        self.report.commits += outcome.stats.commits;
        self.report.aborts += outcome.stats.aborts;
        self.report.read_only_hits += outcome.stats.read_only_hits;
        self.report.shard_cycles += outcome.stats.max_shard_cycles;
        self.report.shard_retries += outcome.stats.shard_retries;
        self.report.shard_stalls += outcome.stats.shard_stalls;
        self.report.shard_escalations += outcome.stats.shard_escalations;
        if outcome.stats.shard_retries > 0 || outcome.stats.shard_escalations > 0 {
            self.report.degraded_blocks += 1;
        }
        Ok(Some(outcome))
    }

    /// Flushes the final partial batch, forces the journal (every accept
    /// becomes durably acked — clean shutdown loses nothing) and returns
    /// the lifetime report.
    pub fn finish(&mut self) -> Result<ServiceReport, Crashed> {
        self.flush()?;
        if let Some(j) = &mut self.journal {
            j.force();
            self.report.acked_txs = j.stats().acked_txs;
            self.report.journal = Some(*j.stats());
        }
        self.report.balances = self.sorted_balances();
        Ok(self.report.clone())
    }

    /// The balance table, sorted, zero balances dropped.
    fn sorted_balances(&self) -> Vec<(u64, u32)> {
        let mut balances: Vec<(u64, u32)> = self
            .balances
            .iter()
            .map(|(&a, &b)| (a, b))
            .filter(|&(_, b)| b != 0)
            .collect();
        balances.sort_unstable();
        balances
    }

    /// Freezes the dead process for the crash oracle, after a method
    /// returned [`Crashed`]. The engine keeps only counts: the accepted
    /// and acked transactions are prefixes of `stream`, the submission
    /// order, and `delivered` holds the outcomes it handed back before it
    /// died. Requires a journal (a crash plan without a journal has
    /// nothing to recover from).
    fn capture(&self, stream: &[ClientTx], delivered: Vec<BlockOutcome>) -> ServiceCrashImage {
        let journal = self
            .journal
            .as_ref()
            .expect("crash capture requires a journaled service");
        let accepted = stream[..self.accepted as usize].to_vec();
        ServiceCrashImage {
            policy: journal.policy(),
            at_step: self.step,
            acked: accepted[..journal.stats().acked_txs as usize]
                .iter()
                .map(|t| t.id)
                .collect(),
            accepted,
            delivered,
            durable_blocks: (0..self.durable_blocks).collect(),
            balances: self.sorted_balances(),
            journal: journal.crash_image(),
        }
    }
}

/// How a crash-planned run ended.
#[derive(Debug)]
pub enum CrashRun {
    /// The plan never fired; the service shut down cleanly.
    Completed(ServiceReport),
    /// The plan fired; here is the dead process.
    Crashed(ServiceCrashImage),
}

/// Drives `stream` through an engine under `crash`, sealing on batch size
/// (the deterministic driver has no wall clock, so the deadline trigger
/// never fires — partial batches seal at shutdown).
pub fn run_stream_with_crash(
    cfg: ServiceConfig,
    stream: &[ClientTx],
    crash: Option<ServiceCrashPlan>,
) -> CrashRun {
    let mut engine = Engine::new(cfg, crash);
    let mut delivered = Vec::new();
    for tx in stream {
        match engine.accept(*tx) {
            Ok(outcome) => delivered.extend(outcome),
            Err(Crashed) => return CrashRun::Crashed(engine.capture(stream, delivered)),
        }
    }
    match engine.finish() {
        Ok(report) => CrashRun::Completed(report),
        Err(Crashed) => CrashRun::Crashed(engine.capture(stream, delivered)),
    }
}

/// Recovery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal records in the scan-valid, replay-coherent prefix.
    pub records_scanned: u64,
    /// Frames discarded at the scan cut (torn appends, holes).
    pub records_discarded: u64,
    /// Discarded frames that failed their checksum.
    pub checksum_mismatches: u64,
    /// Bytes past the valid prefix.
    pub bytes_discarded: u64,
    /// Structurally valid frames with journal-level nonsense (replay
    /// truncates there).
    pub malformed_records: u64,
    /// Committed blocks whose journaled deltas were folded (re-executed
    /// only to regenerate receipts).
    pub blocks_replayed: u64,
    /// Sealed-but-uncommitted blocks recovery executed and committed.
    pub blocks_reexecuted: u64,
    /// Accepted-but-unsealed tail transactions re-sealed into a final
    /// block (zero when the tail was empty).
    pub tail_txs: u64,
    /// Client transactions recovered end to end (every one has a receipt).
    pub txs_recovered: u64,
    /// Committed blocks whose re-executed deltas differed from the
    /// journaled ones. Always zero — `run_block` is pure — and asserted
    /// zero by the sweep; counted rather than panicked so the bench can
    /// report it.
    pub delta_mismatches: u64,
}

/// A recovered service: balances, regenerated receipts, and the reopened
/// journal (so a second crash-recover cycle can be tested against this
/// one — idempotence).
#[derive(Debug)]
pub struct ServiceRecovery {
    /// Final balances (sorted, non-zero) after folding every recovered
    /// block exactly once.
    pub balances: Vec<(u64, u32)>,
    /// One outcome per recovered block, in seal order, `block_seq`
    /// stamped; committed blocks' receipts are bit-identical to the ones
    /// the dead service delivered.
    pub outcomes: Vec<BlockOutcome>,
    /// Counters.
    pub report: RecoveryReport,
    journal: Journal,
}

impl ServiceRecovery {
    /// The post-recovery journal image: recovering *this* must reproduce
    /// the same balances and outcomes (idempotence).
    pub fn crash_image(&self) -> LogImage {
        self.journal.crash_image()
    }
}

/// Recovers a journaled service from a crash-boundary device image. See
/// the module docs for the protocol; the invariants it restores:
///
/// 1. **Committed prefix**: the recovered transactions are exactly the
///    scan-valid prefix of the submission order — nothing reordered,
///    nothing invented.
/// 2. **Exactly-once fold**: each block's deltas land in the balance
///    table once — journaled deltas if the commit record survived,
///    re-computed ones otherwise (then re-committed, so the *next*
///    recovery replays instead of re-executing).
/// 3. **Idempotent receipts**: receipts carry `(block_seq, client id)`;
///    re-delivery after recovery regenerates committed blocks' receipts
///    bit-identically, so a client that already saw them learns nothing
///    new.
pub fn recover(cfg: &ServiceConfig, image: &LogImage) -> ServiceRecovery {
    let rep = replay(&image.bytes);
    let jcfg = cfg
        .journal
        .expect("recovery requires the journal configuration the service ran with");
    let mut journal = Journal::reopen(jcfg, image.bytes[..rep.valid_len].to_vec(), rep.records);
    let mut report = RecoveryReport {
        records_scanned: rep.records,
        records_discarded: rep.records_discarded,
        checksum_mismatches: rep.checksum_mismatches,
        bytes_discarded: rep.bytes_discarded,
        malformed_records: rep.malformed_records,
        ..RecoveryReport::default()
    };
    let mut balances: FastMap<u64, u32> = FastMap::default();
    let mut outcomes = Vec::with_capacity(rep.blocks.len() + 1);

    let mut machines = ShardMachines::new();
    let mut execute = |seq: u64, txs: &[ClientTx], balances: &FastMap<u64, u32>| {
        let mut bcfg = *cfg;
        if let Some(chaos) = &mut bcfg.chaos {
            chaos.salt = seq;
        }
        let mut outcome = machines.run_block(&bcfg, txs, balances);
        outcome.block_seq = seq;
        outcome
    };

    for block in &rep.blocks {
        let outcome = execute(block.seq, &block.txs, &balances);
        match &block.deltas {
            Some(journaled) => {
                // The journal is the durable truth; the re-execution is a
                // cross-check (and the receipt source).
                if &outcome.deltas != journaled {
                    report.delta_mismatches += 1;
                }
                fold_deltas(&mut balances, journaled);
                report.blocks_replayed += 1;
            }
            None => {
                journal.commit(block.seq, &outcome.deltas);
                fold_deltas(&mut balances, &outcome.deltas);
                report.blocks_reexecuted += 1;
            }
        }
        report.txs_recovered += block.txs.len() as u64;
        outcomes.push(outcome);
    }

    if !rep.tail.is_empty() {
        let seq = rep.next_block_seq;
        journal.seal(seq, rep.tail.len() as u32);
        let outcome = execute(seq, &rep.tail, &balances);
        journal.commit(seq, &outcome.deltas);
        fold_deltas(&mut balances, &outcome.deltas);
        report.tail_txs = rep.tail.len() as u64;
        report.txs_recovered += rep.tail.len() as u64;
        outcomes.push(outcome);
    }

    journal.force();
    let mut final_balances: Vec<(u64, u32)> =
        balances.into_iter().filter(|&(_, b)| b != 0).collect();
    final_balances.sort_unstable();
    ServiceRecovery {
        balances: final_balances,
        outcomes,
        report,
        journal,
    }
}
