//! The service-chaos sweep: crash-recovery, shard-fault degradation and
//! backpressure drills for the fault-tolerant PTM service frontend.
//!
//! Three drills, emitted together as `BENCH_service_chaos.json`:
//!
//! 1. **Crash sweep** — for every force policy × log-fault seed class,
//!    the journaled pipeline is killed at every K-th step and recovered;
//!    each crash point is held to the committed-prefix oracle (recovered
//!    transactions are a submission prefix, no durably-acked transaction
//!    is lost, force-covered blocks redeliver bit-identical receipts,
//!    every recovered block matches the [`ReferenceLedger`], and recovery
//!    is idempotent).
//! 2. **Degradation cells** — shard storms (abort storms, memory
//!    squeezes, TAV caps) on every block; the service must complete every
//!    transaction, degraded and counted, never deadlocked, and every
//!    block must match the [`ReferenceLedger`].
//! 3. **Backpressure** — a bursty client floods the live service's
//!    bounded queue; overload must shed with `Busy { retry_after }`
//!    instead of growing the queue without bound.

use crate::adversity::{FORCE_POLICIES, LOG_FAULT_SEEDS};
use crate::service::ReferenceLedger;
use ptm_core::durability::ForcePolicy;
use ptm_mem::logdev::{LogDevConfig, LogFaultPlan};
use ptm_service::{
    recover, run_stream_with_crash, BlockOutcome, CrashRun, Engine, JournalConfig, Service,
    ServiceConfig, ServiceCrashImage, ServiceCrashPlan, ShardChaosConfig, SubmitError,
};
use ptm_workloads::{
    service::{generate, generate_bursts},
    BurstConfig, ClientTx, Scale, ServiceWorkloadConfig,
};
use std::time::Instant;

/// Pipeline steps between the crash sweep's crash points.
pub const CRASH_STRIDE: u64 = 12;

/// Shards of every chaos cell.
pub const SHARDS: usize = 2;

/// Admission batch size of every chaos cell.
pub const MAX_BATCH: usize = 8;

/// Client stream for the chaos drills at a scale. Deliberately smaller
/// than the throughput sweep's stream: a crash sweep replays the
/// pipeline prefix at every point, so the cost is quadratic in stream
/// length.
pub fn chaos_stream_config(scale: Scale) -> ServiceWorkloadConfig {
    let factor = scale.factor() as u64;
    ServiceWorkloadConfig {
        accounts: 1_000 * factor,
        skew: 0.9,
        seed: 0xC4A5_CA05 + factor,
        txs: 40 * factor as usize,
        read_only_pct: 20,
    }
}

/// The journaled service config of one crash-sweep cell.
pub fn cell_config(scale: Scale, policy: ForcePolicy, fault_seed: u64) -> ServiceConfig {
    let wcfg = chaos_stream_config(scale);
    let mut cfg = ServiceConfig::new(wcfg.accounts, SHARDS);
    cfg.max_batch = MAX_BATCH;
    // The realistic device keeps appends in flight long enough for the
    // torn/lost fault classes to actually bite.
    cfg.with_journal(JournalConfig {
        policy,
        dev: LogDevConfig::realistic(),
        faults: LogFaultPlan::from_seed(fault_seed),
    })
}

/// What one oracle-checked crash point contributed to a cell.
#[derive(Debug, Clone, Copy)]
pub struct OraclePoint {
    /// Client transactions that survived recovery.
    pub recovered: usize,
    /// Sealed-but-uncommitted blocks recovery had to re-execute.
    pub reexecuted: u64,
    /// Accepted-but-unsealed transactions recovery re-sealed.
    pub tail_txs: u64,
}

/// Recovers `image` and holds it to the committed-prefix oracle.
///
/// # Panics
///
/// Panics (failing the bench) on any violation: a phantom or duplicate
/// receipt, a lost durably-acked transaction, a durable block whose
/// redelivered receipts differ from the pre-crash delivery, a recovered
/// block or balance diverging from the [`ReferenceLedger`], or a
/// non-idempotent recovery.
pub fn oracle_check(
    cfg: &ServiceConfig,
    stream: &[ClientTx],
    image: &ServiceCrashImage,
) -> OraclePoint {
    // The image's shape: acked ids are the oldest accepts, and the durable
    // and delivered blocks are seal-order prefixes.
    let oldest: Vec<u64> = image.accepted[..image.acked.len()]
        .iter()
        .map(|t| t.id)
        .collect();
    assert_eq!(image.acked, oldest, "acked ids are the oldest accepts");
    assert!(
        image
            .durable_blocks
            .iter()
            .copied()
            .eq(0..image.durable_blocks.len() as u64),
        "durable blocks are a seal-order prefix: {:?}",
        image.durable_blocks
    );
    assert!(
        image
            .delivered
            .iter()
            .map(|o| o.block_seq)
            .eq(0..image.delivered.len() as u64),
        "delivered blocks are a seal-order prefix"
    );

    let rec = recover(cfg, &image.journal);
    assert_eq!(rec.report.delta_mismatches, 0, "re-execution is pure");

    // (1) Committed prefix of the submission order, each tx exactly once.
    let mut recovered: Vec<u64> = rec
        .outcomes
        .iter()
        .flat_map(|o| o.receipts.iter().map(|r| r.tx_id))
        .collect();
    recovered.sort_unstable();
    recovered.windows(2).for_each(|w| {
        assert_ne!(w[0], w[1], "duplicate receipt for client tx {}", w[0]);
    });
    let n = recovered.len();
    assert!(n <= image.accepted.len(), "recovery cannot invent accepts");
    let mut expected: Vec<u64> = stream[..n].iter().map(|t| t.id).collect();
    expected.sort_unstable();
    assert_eq!(recovered, expected, "recovered set is a submission prefix");

    // (2) Durably acked ⊆ recovered: no lost accepted-and-acked tx.
    for id in &image.acked {
        assert!(
            recovered.binary_search(id).is_ok(),
            "acked tx {id} lost by recovery (step {})",
            image.at_step
        );
    }

    // (3) No phantom receipts: force-covered blocks recover committed,
    // bit-identical to what was delivered before the crash.
    for seq in &image.durable_blocks {
        let rec_block = rec
            .outcomes
            .iter()
            .find(|o| o.block_seq == *seq)
            .unwrap_or_else(|| panic!("durable block {seq} vanished"));
        if let Some(orig) = image.delivered.iter().find(|o| o.block_seq == *seq) {
            assert_eq!(
                orig.receipts, rec_block.receipts,
                "receipt redelivery for block {seq} must be bit-identical"
            );
            assert_eq!(orig.deltas, rec_block.deltas);
        }
    }

    // (4) Every recovered block, in seal order, matches the reference
    // ledger: receipts, read-only probe answers and deltas. Blocks are
    // consecutive slices of the submission order, and the recovered
    // balances are the reference's.
    let mut reference = ReferenceLedger::default();
    let mut next = 0;
    for out in &rec.outcomes {
        let block = &stream[next..next + out.receipts.len()];
        let what = format!("step {} recovered block {}", image.at_step, out.block_seq);
        reference.check_and_fold(&what, block, out);
        next += block.len();
    }
    assert_eq!(rec.balances, reference.balances(), "ledger fold mismatch");

    // (5) Idempotence: recovering the recovered journal is a no-op.
    let again = recover(cfg, &rec.crash_image());
    assert_eq!(again.balances, rec.balances);
    assert_eq!(again.report.blocks_reexecuted, 0, "everything is committed");
    assert_eq!(again.report.tail_txs, 0, "no tail remains");
    assert_eq!(again.outcomes.len(), rec.outcomes.len());

    OraclePoint {
        recovered: n,
        reexecuted: rec.report.blocks_reexecuted,
        tail_txs: rec.report.tail_txs,
    }
}

/// One (force policy × fault seed) cell of the crash sweep.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Force policy of the journal.
    pub policy: ForcePolicy,
    /// Log-device fault seed class.
    pub fault_seed: u64,
    /// Crash points exercised (each oracle-checked).
    pub points: u64,
    /// Client transactions per stream.
    pub txs: usize,
    /// Blocks of the clean run.
    pub blocks: u64,
    /// Fewest transactions surviving any crash point.
    pub min_recovered: usize,
    /// Sealed-but-uncommitted blocks re-executed, summed over points.
    pub reexecuted: u64,
    /// Accepted-but-unsealed transactions re-sealed, summed over points.
    pub tail_txs: u64,
    /// Journal append retries of the clean run (fault absorption).
    pub append_retries: u64,
    /// Journal forces of the clean run.
    pub forces: u64,
    /// Slowest-shard simulated cycles of the clean run.
    pub clean_cycles: u64,
    /// Host wall time of the whole cell, nanoseconds.
    pub wall_ns: u64,
}

/// Sweeps the crash plan over one cell at stride `every_k`, oracle-
/// checking every point, and finishes with the clean (crash-free) run.
pub fn run_crash_cell(
    scale: Scale,
    policy: ForcePolicy,
    fault_seed: u64,
    every_k: u64,
) -> ChaosCell {
    assert!(every_k > 0, "a zero stride never reaches the clean run");
    let t0 = Instant::now();
    let cfg = cell_config(scale, policy, fault_seed);
    let stream = generate(&chaos_stream_config(scale));
    let mut cell = ChaosCell {
        policy,
        fault_seed,
        points: 0,
        txs: stream.len(),
        blocks: 0,
        min_recovered: usize::MAX,
        reexecuted: 0,
        tail_txs: 0,
        append_retries: 0,
        forces: 0,
        clean_cycles: 0,
        wall_ns: 0,
    };
    let mut at_step = 0;
    loop {
        match run_stream_with_crash(cfg, &stream, Some(ServiceCrashPlan { at_step })) {
            CrashRun::Crashed(image) => {
                let point = oracle_check(&cfg, &stream, &image);
                cell.points += 1;
                cell.min_recovered = cell.min_recovered.min(point.recovered);
                cell.reexecuted += point.reexecuted;
                cell.tail_txs += point.tail_txs;
                at_step += every_k;
            }
            CrashRun::Completed(report) => {
                assert_eq!(report.txs, stream.len() as u64, "clean run serves all");
                assert_eq!(
                    report.acked_txs,
                    stream.len() as u64,
                    "clean shutdown force-acks everything"
                );
                let j = report.journal.expect("journaled cell");
                cell.blocks = report.blocks;
                cell.append_retries = j.retries;
                cell.forces = j.forces;
                cell.clean_cycles = report.shard_cycles;
                break;
            }
        }
    }
    assert!(cell.points > 0, "the sweep must actually crash somewhere");
    cell.min_recovered = cell.min_recovered.min(cell.txs);
    cell.wall_ns = t0.elapsed().as_nanos() as u64;
    cell
}

/// The full crash sweep at [`CRASH_STRIDE`]: every force policy ×
/// log-fault seed class.
pub fn run_crash_sweep(scale: Scale) -> Vec<ChaosCell> {
    let mut cells = Vec::new();
    for policy in FORCE_POLICIES {
        for seed in LOG_FAULT_SEEDS {
            eprintln!("service_chaos: crash sweep {policy} x fault seed {seed}...");
            cells.push(run_crash_cell(scale, policy, seed, CRASH_STRIDE));
        }
    }
    cells
}

/// One shard-storm degradation cell.
#[derive(Debug, Clone)]
pub struct DegradationCell {
    /// Storm seed.
    pub chaos_seed: u64,
    /// Blocks executed.
    pub blocks: u64,
    /// Client transactions served (must be the whole stream).
    pub txs: u64,
    /// Shard attempts retried after a fault.
    pub retries: u64,
    /// Shard attempts that blew their cycle budget.
    pub stalls: u64,
    /// Shards escalated to serial-irrevocable execution.
    pub escalations: u64,
    /// Blocks that completed degraded.
    pub degraded_blocks: u64,
    /// Host wall time, nanoseconds.
    pub wall_ns: u64,
}

/// Degradation-drill cells: `(storm seed, cycle_budget, max_retries)`.
/// A typical shard run at this block size costs ~1.6k simulated cycles,
/// so the three cells pin the three containment outcomes: a tight budget
/// with headroom to retry (stall → backoff → doubled budget → recover),
/// a starved budget with one retry (stall → escalate to
/// serial-irrevocable), and the 2M-cycle production default (storms
/// absorbed as plain aborts, no degradation).
pub const CHAOS_SEEDS: [(u64, u64, u32); 3] =
    [(77, 800, 3), (1234, 400, 1), (987_654_321, 2_000_000, 3)];

/// Runs the journaled pipeline under shard storms on every block: the
/// service must serve every transaction (degraded, never wedged), and
/// every block's outcome must match the [`ReferenceLedger`].
pub fn run_degradation(scale: Scale) -> Vec<DegradationCell> {
    let stream = generate(&chaos_stream_config(scale));
    let mut cells = Vec::new();
    for &(seed, cycle_budget, max_retries) in &CHAOS_SEEDS {
        let t0 = Instant::now();
        let mut chaos = ShardChaosConfig::new(seed);
        chaos.cycle_budget = cycle_budget;
        chaos.max_retries = max_retries;
        let cfg = cell_config(scale, ForcePolicy::Group(4), 6).with_chaos(chaos);
        let mut engine = Engine::new(cfg, None);
        let mut reference = ReferenceLedger::default();
        let mut batch: Vec<ClientTx> = Vec::new();
        let mut check = |batch: &mut Vec<ClientTx>, out: Option<BlockOutcome>| {
            if let Some(out) = out {
                let what = format!("chaos seed {seed}, block {}", out.block_seq);
                reference.check_and_fold(&what, batch, &out);
                batch.clear();
            }
        };
        for tx in &stream {
            batch.push(*tx);
            let out = engine.accept(*tx).expect("no crash plan");
            check(&mut batch, out);
        }
        let out = engine.flush().expect("no crash plan");
        check(&mut batch, out);
        let report = engine.finish().expect("no crash plan");
        assert_eq!(report.txs, stream.len() as u64, "degraded, not dropped");
        let sum = report
            .balances
            .iter()
            .fold(0u32, |acc, &(_, b)| acc.wrapping_add(b));
        assert_eq!(sum, 0, "ledger conserved under storms (seed {seed})");
        cells.push(DegradationCell {
            chaos_seed: seed,
            blocks: report.blocks,
            txs: report.txs,
            retries: report.shard_retries,
            stalls: report.shard_stalls,
            escalations: report.shard_escalations,
            degraded_blocks: report.degraded_blocks,
            wall_ns: t0.elapsed().as_nanos() as u64,
        });
    }
    cells
}

/// The backpressure drill's outcome.
#[derive(Debug, Clone)]
pub struct BackpressureReport {
    /// Bounded queue depth of the drill.
    pub queue_depth: usize,
    /// Arrival bursts offered.
    pub bursts: usize,
    /// Transactions offered across all bursts.
    pub offered: u64,
    /// Transactions admitted (served with a receipt).
    pub admitted: u64,
    /// Submissions shed with `Busy`.
    pub shed: u64,
    /// Largest `retry_after` hint observed, milliseconds.
    pub max_retry_after_ms: u64,
    /// Host wall time, nanoseconds.
    pub wall_ns: u64,
}

/// Floods a live service's bounded queue with bursty arrivals. Overload
/// must shed with a non-zero `retry_after` hint, the backlog must stay
/// within the configured depth, and every *admitted* transaction must be
/// served.
pub fn run_backpressure(scale: Scale) -> BackpressureReport {
    let t0 = Instant::now();
    let mut wcfg = chaos_stream_config(scale);
    wcfg.txs *= 4; // the flood wants volume, not journal coverage
    let mut cfg = ServiceConfig::new(wcfg.accounts, SHARDS);
    cfg.max_batch = MAX_BATCH;
    // A deliberately tiny queue against spiky arrivals: the drill is
    // about the shedding path, not sustained throughput.
    cfg.queue_depth = MAX_BATCH * 2;
    cfg.batch_deadline = std::time::Duration::from_millis(5);
    let bursts = generate_bursts(&wcfg, &BurstConfig::new(MAX_BATCH * 2));
    let mut svc = Service::start(cfg);
    let (mut offered, mut admitted, mut shed) = (0u64, 0u64, 0u64);
    let mut max_retry_after_ms = 0u64;
    for burst in &bursts {
        for tx in burst {
            offered += 1;
            match svc.submit(*tx) {
                Ok(()) => admitted += 1,
                Err(SubmitError::Busy { retry_after }) => {
                    shed += 1;
                    assert!(retry_after > std::time::Duration::ZERO, "honest hint");
                    max_retry_after_ms = max_retry_after_ms.max(retry_after.as_millis() as u64);
                }
                Err(e @ (SubmitError::Closed | SubmitError::Invalid)) => {
                    panic!("{e:?}: service is open, stream is valid")
                }
            }
            assert!(svc.backlog() <= cfg.queue_depth, "bounded means bounded");
        }
        // An overloaded client drains receipts between bursts but does
        // not wait out the hint — keeps the drill adversarial.
        while svc.outcomes().try_recv().is_ok() {}
    }
    let report = svc.shutdown().expect("flooding never kills the worker");
    assert_eq!(report.txs, admitted, "every admitted tx got a receipt");
    assert_eq!(report.shed, shed, "the report counts exactly the sheds");
    assert!(shed > 0, "the flood must overrun a depth-16 queue");
    BackpressureReport {
        queue_depth: cfg.queue_depth,
        bursts: bursts.len(),
        offered,
        admitted,
        shed,
        max_retry_after_ms,
        wall_ns: t0.elapsed().as_nanos() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_crash_cell_is_oracle_clean_at_a_coarse_stride() {
        let cell = run_crash_cell(Scale::Tiny, ForcePolicy::Group(4), 6, 23);
        assert!(cell.points > 0);
        assert_eq!(cell.txs, chaos_stream_config(Scale::Tiny).txs);
        assert!(cell.blocks > 0);
        assert!(cell.min_recovered <= cell.txs);
        assert!(cell.forces > 0);
    }

    #[test]
    fn tiny_degradation_counts_the_storms_it_survives() {
        let cells = run_degradation(Scale::Tiny);
        assert_eq!(cells.len(), CHAOS_SEEDS.len());
        for c in &cells {
            assert_eq!(c.txs, chaos_stream_config(Scale::Tiny).txs as u64);
        }
        // The three cells pin the three containment outcomes; a drill
        // where none of them fires is a no-op.
        assert!(
            cells.iter().any(|c| c.retries > 0),
            "the tight-budget cell must retry: {cells:?}"
        );
        assert!(
            cells.iter().any(|c| c.escalations > 0),
            "the starved-budget cell must escalate: {cells:?}"
        );
    }

    #[test]
    fn tiny_backpressure_sheds_and_serves_the_rest() {
        let r = run_backpressure(Scale::Tiny);
        assert!(r.shed > 0);
        assert!(r.admitted > 0);
        assert_eq!(r.offered, r.admitted + r.shed);
        assert!(r.max_retry_after_ms > 0);
    }
}
