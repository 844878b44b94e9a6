//! The service sweep (the `service` binary's engine): one grid over the
//! PTM-as-a-service frontend, every cell driven through the production
//! synchronous core and checked block by block against an independent
//! ledger.
//!
//! A [`Cell`] is one client stream served by one service configuration:
//! Zipfian skew and stream size, shard count, admission batch, and three
//! optional adversities — a durable journal on a faulty log device
//! `(ForcePolicy, log-fault seed)`, shard storms (seed, cycle budget,
//! bounded retries) and crash points every K pipeline steps. [`run_cell`]
//! drives the stream through `Engine::new(cfg, None)` (accept every
//! transaction, flush, finish) and holds every delivered block to the
//! [`ReferenceLedger`]; a crashing cell then kills the pipeline at every
//! stride point and holds each recovery to [`oracle_check`]. [`check`]
//! asserts the whole-run identities of every cell and the coverage claims
//! of every slice.
//!
//! The grid has three named slices. `zipf` (skew × shards), `crash`
//! (force policy × log-fault seed) and `storm` (three containment
//! configurations) reproduce the points of the two sweeps this module
//! replaced. The threaded backpressure drill ([`run_backpressure`]) rides
//! along as one extra report section.

use crate::adversity::{FORCE_POLICIES, LOG_FAULT_SEEDS};
use crate::json::{self, Fixed, Obj};
use ptm_core::durability::ForcePolicy;
use ptm_mem::logdev::{LogDevConfig, LogFaultPlan};
use ptm_service::{
    recover, run_stream_with_crash, BlockOutcome, CrashRun, Engine, JournalConfig, ReceiptStatus,
    RecoveryReport, Service, ServiceConfig, ServiceCrashImage, ServiceCrashPlan, ServiceReport,
    ShardChaosConfig, SubmitError,
};
use ptm_workloads::{
    service::{generate, generate_bursts},
    BurstConfig, ClientTx, Scale, ServiceWorkloadConfig,
};
use std::collections::HashMap;
use std::time::Instant;

/// The slices of the default grid, in run order.
pub const SLICES: [&str; 3] = ["zipf", "crash", "storm"];

/// Zipfian exponents of the `zipf` slice.
pub const SKEWS: [f64; 3] = [0.6, 0.9, 1.2];

/// Shard counts of the `zipf` slice, per skew.
pub const SHARDS: [usize; 3] = [1, 2, 4];

/// Admission batch of the `zipf` slice.
const ZIPF_BATCH: usize = 256;

/// Shards of every `crash` and `storm` cell and of the backpressure drill.
const CHAOS_SHARDS: usize = 2;

/// Admission batch of every `crash` and `storm` cell and of the
/// backpressure drill.
const CHAOS_BATCH: usize = 8;

/// Pipeline steps between the `crash` slice's crash points.
pub const CRASH_STRIDE: u64 = 12;

/// The `storm` slice: `(storm seed, cycle_budget, max_retries)`. A
/// typical shard run at this block size costs ~1.6k simulated cycles, so
/// the three cells pin the three containment outcomes: a tight budget
/// with headroom to retry (stall → backoff → doubled budget → recover),
/// a starved budget with one retry (stall → escalate to
/// serial-irrevocable), and the 2M-cycle production default (storms
/// absorbed as plain aborts, no degradation).
pub const CHAOS_SEEDS: [(u64, u64, u32); 3] =
    [(77, 800, 3), (1234, 400, 1), (987_654_321, 2_000_000, 3)];

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
    /// transaction in client order, a read-only receipt exactly for the
    /// probes, each probe answering the reference balance as of the
    /// previous block, and the block's deltas equal to the fold of its
    /// committed transfers.
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
        let mut delta: HashMap<u64, u32> = HashMap::new();
        for (tx, r) in block.iter().zip(&out.receipts) {
            assert_eq!(r.tx_id, tx.id, "{what}: receipts in client order");
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

    /// The reference balances: every non-zero account, sorted by account.
    pub fn balances(&self) -> Vec<(u64, u32)> {
        let mut balances: Vec<(u64, u32)> = self
            .balances
            .iter()
            .filter(|&(_, &b)| b != 0)
            .map(|(&a, &b)| (a, b))
            .collect();
        balances.sort_unstable();
        balances
    }
}

/// The client stream of the `crash` and `storm` slices and of the
/// backpressure drill. Smaller than the `zipf` slice's stream: a crash
/// sweep replays the pipeline prefix at every point, so its cost is
/// quadratic in stream length.
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

/// One cell of the service grid: a client stream, the service that
/// serves it, and the adversities it runs under.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// The slice the cell belongs to (one of [`SLICES`]).
    pub slice: &'static str,
    /// The client stream: skew, size, account space and seed.
    pub stream: ServiceWorkloadConfig,
    /// Shard machines.
    pub shards: usize,
    /// Admission batch size.
    pub max_batch: usize,
    /// The durable journal, if one is attached: its force policy and its
    /// [`LogFaultPlan`] seed (0 = fault-free) on the realistic device.
    pub journal: Option<(ForcePolicy, u64)>,
    /// Shard storms, if any: seed, cycle budget and retry bound.
    pub chaos: Option<ShardChaosConfig>,
    /// Pipeline steps between crash points, if the cell crashes.
    pub crash_stride: Option<u64>,
}

impl Cell {
    /// A cell of `slice` serving `stream` with no adversity.
    fn new(
        slice: &'static str,
        stream: ServiceWorkloadConfig,
        shards: usize,
        max_batch: usize,
    ) -> Self {
        Cell {
            slice,
            stream,
            shards,
            max_batch,
            journal: None,
            chaos: None,
            crash_stride: None,
        }
    }

    /// The service configuration the cell runs.
    fn config(&self) -> ServiceConfig {
        let mut cfg = ServiceConfig::new(self.stream.accounts, self.shards);
        cfg.max_batch = self.max_batch;
        // The realistic device keeps appends in flight long enough for
        // the torn/lost fault classes to actually bite.
        cfg.journal = self.journal.map(|(policy, seed)| JournalConfig {
            policy,
            dev: LogDevConfig::realistic(),
            faults: LogFaultPlan::from_seed(seed),
        });
        cfg.chaos = self.chaos;
        cfg
    }

    /// A display name for messages: slice, stream, service and adversity.
    pub fn label(&self) -> String {
        let mut s = format!(
            "{} skew {:.1} x {} shard(s)",
            self.slice, self.stream.skew, self.shards
        );
        if let Some((policy, seed)) = self.journal {
            s += &format!(" {policy} log seed {seed}");
        }
        if let Some(chaos) = self.chaos {
            s += &format!(" storm seed {}", chaos.seed);
        }
        s
    }
}

/// `zipf`: [`SKEWS`] × [`SHARDS`] on the scaled throughput stream.
fn zipf_slice(scale: Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for skew in SKEWS {
        for shards in SHARDS {
            let stream = ServiceWorkloadConfig::scaled(scale, skew);
            cells.push(Cell::new("zipf", stream, shards, ZIPF_BATCH));
        }
    }
    cells
}

/// A cell of `slice` on the chaos stream, with `journal`.
fn chaos_cell(slice: &'static str, scale: Scale, journal: (ForcePolicy, u64)) -> Cell {
    let c = Cell::new(slice, chaos_stream_config(scale), CHAOS_SHARDS, CHAOS_BATCH);
    let journal = Some(journal);
    Cell { journal, ..c }
}

/// `crash`: [`FORCE_POLICIES`] × [`LOG_FAULT_SEEDS`], crashed every
/// [`CRASH_STRIDE`] steps.
fn crash_slice(scale: Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for policy in FORCE_POLICIES {
        for seed in LOG_FAULT_SEEDS {
            let c = chaos_cell("crash", scale, (policy, seed));
            let crash_stride = Some(CRASH_STRIDE);
            cells.push(Cell { crash_stride, ..c });
        }
    }
    cells
}

/// `storm`: [`CHAOS_SEEDS`] on a group-commit journal over a transient-
/// fault log device.
fn storm_slice(scale: Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (seed, cycle_budget, max_retries) in CHAOS_SEEDS {
        let c = chaos_cell("storm", scale, (ForcePolicy::Group(4), 6));
        let chaos = Some(ShardChaosConfig {
            cycle_budget,
            max_retries,
            ..ShardChaosConfig::new(seed)
        });
        cells.push(Cell { chaos, ..c });
    }
    cells
}

/// The whole grid: every slice, in [`SLICES`] order.
pub fn default_grid(scale: Scale) -> Vec<Cell> {
    [zipf_slice(scale), crash_slice(scale), storm_slice(scale)].concat()
}

/// Recovers `image` and holds it to the committed-prefix oracle. Returns
/// the count of client transactions that survived and the recovery's
/// counters.
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
) -> (usize, RecoveryReport) {
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

    (n, rec.report)
}

/// What a cell's crash points added up to.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashSums {
    /// Crash points exercised (each oracle-checked).
    pub points: u64,
    /// Fewest transactions surviving any crash point.
    pub min_recovered: u64,
    /// Sealed-but-uncommitted blocks re-executed, summed over points.
    pub reexecuted: u64,
    /// Accepted-but-unsealed transactions re-sealed, summed over points.
    pub tail_txs: u64,
}

/// Everything one cell produced.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The cell that ran.
    pub cell: Cell,
    /// The clean run's lifetime report (final balances included).
    pub report: ServiceReport,
    /// Cross-shard transfers, summed over blocks.
    pub cross_shard: u64,
    /// Worst block-level load imbalance (max shard load / mean).
    pub shard_skew: f64,
    /// Read-only probes that answered a non-zero balance.
    pub nonzero_probes: u64,
    /// The crash points' sums (all zero when the cell does not crash).
    pub crash: CrashSums,
    /// Host wall time of the whole cell, nanoseconds.
    pub wall_ns: u64,
}

/// Runs one cell: the clean run through the synchronous engine, every
/// delivered block held to the [`ReferenceLedger`], then every crash
/// point held to [`oracle_check`].
///
/// # Panics
///
/// Panics on the first ledger or oracle violation, naming the cell.
/// Whole-run identities are returned, not asserted: see [`check`].
pub fn run_cell(cell: &Cell) -> CellReport {
    let start = Instant::now();
    let (cfg, label) = (cell.config(), cell.label());
    let stream = generate(&cell.stream);
    let mut engine = Engine::new(cfg, None);
    let mut reference = ReferenceLedger::default();
    let mut r = CellReport {
        cell: *cell,
        report: ServiceReport::default(),
        cross_shard: 0,
        shard_skew: 0.0,
        nonzero_probes: 0,
        crash: CrashSums::default(),
        wall_ns: 0,
    };
    let mut next = 0;
    let mut deliver = |out: Option<BlockOutcome>| {
        let Some(out) = out else { return };
        let block = &stream[next..next + out.receipts.len()];
        let what = format!("{label}, block {}", out.block_seq);
        reference.check_and_fold(&what, block, &out);
        next += block.len();
        r.cross_shard += out.stats.cross_shard;
        r.shard_skew = r.shard_skew.max(out.stats.shard_skew);
        r.nonzero_probes += out
            .receipts
            .iter()
            .filter(|r| matches!(r.status, ReceiptStatus::ReadOnly { balance } if balance != 0))
            .count() as u64;
    };
    for tx in &stream {
        deliver(engine.accept(*tx).expect("no crash plan"));
    }
    deliver(engine.flush().expect("no crash plan"));
    r.report = engine.finish().expect("no crash plan");
    let steps = engine.steps();
    assert_eq!(
        r.report.balances,
        reference.balances(),
        "{label}: final balances diverged from the reference ledger"
    );

    if let Some(stride) = cell.crash_stride {
        r.crash.min_recovered = stream.len() as u64;
        // The plan fires at `at_step` exactly when the clean run took more
        // steps than that.
        for at_step in (0..steps).step_by(stride as usize) {
            let plan = Some(ServiceCrashPlan { at_step });
            let CrashRun::Crashed(image) = run_stream_with_crash(cfg, &stream, plan) else {
                panic!("{label}: no crash at step {at_step} of {steps}");
            };
            let (recovered, rec) = oracle_check(&cfg, &stream, &image);
            r.crash.points += 1;
            r.crash.min_recovered = r.crash.min_recovered.min(recovered as u64);
            r.crash.reexecuted += rec.blocks_reexecuted;
            r.crash.tail_txs += rec.tail_txs;
        }
    }
    r.wall_ns = start.elapsed().as_nanos() as u64;
    r
}

impl CellReport {
    /// The counters as `(key, value)` in report order: the clean run's,
    /// then the journal's when the cell has one, the storms' when it has
    /// them and the crash points' when it crashes.
    fn counters(&self) -> Vec<crate::Counter> {
        let (rep, s) = (&self.report, &self.crash);
        let mut c = vec![
            ("txs", rep.txs),
            ("blocks", rep.blocks),
            ("commits", rep.commits),
            ("aborts", rep.aborts),
            ("shard_cycles", rep.shard_cycles),
            ("cross_shard", self.cross_shard),
            ("read_only_fastpath_hits", rep.read_only_hits),
            ("nonzero_probes", self.nonzero_probes),
        ];
        if let Some(j) = &rep.journal {
            c.extend([
                ("acked_txs", rep.acked_txs),
                ("forces", j.forces),
                ("append_retries", j.retries),
            ]);
        }
        if self.cell.chaos.is_some() {
            c.extend([
                ("shard_retries", rep.shard_retries),
                ("shard_stalls", rep.shard_stalls),
                ("shard_escalations", rep.shard_escalations),
                ("degraded_blocks", rep.degraded_blocks),
            ]);
        }
        if self.cell.crash_stride.is_some() {
            c.extend([
                ("points", s.points),
                ("min_recovered", s.min_recovered),
                ("reexecuted", s.reexecuted),
                ("tail_txs", s.tail_txs),
            ]);
        }
        c
    }

    fn write(&self, o: &mut Obj) {
        let (c, rep) = (&self.cell, &self.report);
        let abort_rate = rep.aborts as f64 / (rep.commits + rep.aborts).max(1) as f64;
        o.field("slice", c.slice)
            .field("skew", Fixed(c.stream.skew, 1))
            .field("accounts", c.stream.accounts)
            .field("shards", c.shards)
            .field("max_batch", c.max_batch)
            .field("policy", c.journal.map(|(policy, _)| policy.label()))
            .field("log_fault_seed", c.journal.map(|(_, seed)| seed))
            .field("chaos_seed", c.chaos.map(|ch| ch.seed))
            .field("cycle_budget", c.chaos.map(|ch| ch.cycle_budget))
            .field("max_retries", c.chaos.map(|ch| ch.max_retries))
            .field("crash_stride", c.crash_stride);
        for (key, value) in self.counters() {
            o.field(key, value);
        }
        o.field("abort_rate", Fixed(abort_rate, 4))
            .field("shard_skew", Fixed(self.shard_skew, 4))
            .field("wall_ns", self.wall_ns);
    }
}

/// The coverage claims: `(slice, counter, what it means when the slice's
/// total of that counter is zero)`.
const CLAIMS: [(&str, &str, &str); 5] = [
    (
        "zipf",
        "nonzero_probes",
        "no probe saw an earlier block's transfer",
    ),
    (
        "crash",
        "reexecuted",
        "no crash stranded a sealed, uncommitted block",
    ),
    (
        "crash",
        "tail_txs",
        "no crash left an accepted tail to re-seal",
    ),
    (
        "storm",
        "shard_retries",
        "the tight-budget cell never retried",
    ),
    (
        "storm",
        "shard_escalations",
        "the starved-budget cell never escalated",
    ),
];

/// Holds every report of `slice` to the whole-run identities that apply
/// to it, and the slice to its coverage claims: a slice that never
/// exercised what it is there to exercise proves nothing.
///
/// # Panics
///
/// Panics on the first violation, naming the cell or slice.
pub fn check_slice(reports: &[CellReport], slice: &str) {
    let cells: Vec<&CellReport> = reports.iter().filter(|r| r.cell.slice == slice).collect();
    assert!(!cells.is_empty(), "{slice} slice: no cell ran");
    for r in &cells {
        let (ctx, rep) = (r.cell.label(), &r.report);
        let txs = r.cell.stream.txs as u64;
        assert_eq!(rep.txs, txs, "{ctx}: every tx served, degraded or not");
        let sum = rep.balances.iter().fold(0u32, |s, b| s.wrapping_add(b.1));
        assert_eq!(sum, 0, "{ctx}: transfers must conserve the ledger");
        if r.cell.journal.is_some() {
            assert_eq!(rep.acked_txs, txs, "{ctx}: clean shutdown acks every tx");
        }
        if r.cell.crash_stride.is_some() {
            assert!(r.crash.points > 0, "{ctx}: the sweep never crashed");
        }
        // Transfers commute and every one commits in the end, so the final
        // ledger is a function of the stream alone: no shard count,
        // journal or storm may change it.
        for o in cells
            .iter()
            .filter(|o| o.cell.stream.seed == r.cell.stream.seed)
        {
            let other = o.cell.label();
            assert_eq!(
                rep.balances, o.report.balances,
                "{ctx} vs {other}: final ledgers"
            );
        }
    }
    let totals = slice_totals(reports, slice);
    for (_, key, what) in CLAIMS.iter().filter(|c| c.0 == slice) {
        assert!(crate::total(&totals, key) > 0, "{slice} slice: {what}");
    }
}

/// Holds every report and every slice of the default grid to its checks.
///
/// # Panics
///
/// Panics on the first violation, naming the cell or slice.
pub fn check(reports: &[CellReport]) {
    SLICES.iter().for_each(|slice| check_slice(reports, slice));
}

/// One slice's counters, folded into totals by `fold_totals`.
pub fn slice_totals(reports: &[CellReport], slice: &str) -> Vec<crate::Counter> {
    let cells = reports.iter().filter(|r| r.cell.slice == slice);
    crate::fold_totals(cells.map(CellReport::counters))
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
    let mut cfg = ServiceConfig::new(wcfg.accounts, CHAOS_SHARDS);
    cfg.max_batch = CHAOS_BATCH;
    // A deliberately tiny queue against spiky arrivals: the drill is
    // about the shedding path, not sustained throughput.
    cfg.queue_depth = CHAOS_BATCH * 2;
    cfg.batch_deadline = std::time::Duration::from_millis(5);
    let bursts = generate_bursts(&wcfg, &BurstConfig::new(CHAOS_BATCH * 2));
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

/// Renders the `BENCH_service.json` report.
pub fn render(scale: Scale, reports: &[CellReport], bp: &BackpressureReport) -> String {
    json::object(|o| {
        crate::meta::provenance(o);
        o.field("scale", format!("{scale:?}"));
        o.arr("cells", |a| {
            for r in reports {
                a.obj(|c| r.write(c));
            }
        });
        o.obj("backpressure", |o| {
            o.field("queue_depth", bp.queue_depth)
                .field("bursts", bp.bursts)
                .field("offered", bp.offered)
                .field("admitted", bp.admitted)
                .field("shed", bp.shed)
                .field("max_retry_after_ms", bp.max_retry_after_ms)
                .field("wall_ns", bp.wall_ns);
        });
        crate::write_totals(o, &SLICES, |slice| slice_totals(reports, slice));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_slice(cells: Vec<Cell>) -> Vec<CellReport> {
        cells.iter().map(run_cell).collect()
    }

    #[test]
    fn tiny_zipf_slice_matches_the_reference_at_every_shard_count() {
        let reports = run_slice(zipf_slice(Scale::Tiny));
        // Asserts the slice's two ledger claims: every shard count of a
        // skew ends on the same final ledger, and some probe read a
        // balance an earlier block wrote.
        check_slice(&reports, "zipf");
        for r in &reports {
            assert_eq!(r.report.blocks, 2, "500 txs in blocks of 256");
            assert!(!r.report.balances.is_empty());
            assert!(r.shard_skew >= 1.0, "skew {}", r.shard_skew);
        }

        // Either claim failing fails the slice.
        let refuses = |tamper: fn(&mut [CellReport])| {
            let mut bad = reports.clone();
            tamper(&mut bad);
            std::panic::catch_unwind(|| check_slice(&bad, "zipf")).is_err()
        };
        assert!(refuses(|bad| {
            // A conserving change to one shard count's final ledger.
            let b = &mut bad[1].report.balances;
            b[0].1 = b[0].1.wrapping_add(1);
            b[1].1 = b[1].1.wrapping_sub(1);
        }));
        assert!(refuses(|bad| {
            for r in bad {
                r.nonzero_probes = 0;
            }
        }));
    }

    #[test]
    fn tiny_crash_slice_is_oracle_clean_and_recovers_stranded_work() {
        let reports = run_slice(crash_slice(Scale::Tiny));
        check_slice(&reports, "crash");
        for r in &reports {
            assert!(r.crash.min_recovered <= r.report.txs);
            assert!(r.report.journal.is_some_and(|j| j.forces > 0));
        }
    }

    #[test]
    fn tiny_storm_slice_counts_the_storms_it_survives() {
        let reports = run_slice(storm_slice(Scale::Tiny));
        check_slice(&reports, "storm");
        let totals = slice_totals(&reports, "storm");
        assert_eq!(totals[0], ("cells", 3));
        // The production budget absorbs the storms without degrading.
        assert_eq!(reports[2].report.degraded_blocks, 0);
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
