//! Block compilation and execution: a batch of client transactions
//! becomes per-shard thread programs, runs on each shard's simulator
//! machine (kept by [`ShardMachines`] and reset between blocks), and folds
//! back into the service's balance table.

use crate::config::{ServiceConfig, ShardChaosConfig, Strategy};
use crate::shard::ShardMap;
use ptm_sim::{FaultPlan, Machine, MachineConfig, Op, SystemKind, ThreadProgram};
use ptm_types::{Cycle, FastMap, ProcessId, ThreadId, VirtAddr, BLOCK_SIZE, PAGE_SIZE, WORD_SIZE};
use ptm_workloads::ClientTx;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Base virtual address of the ledger words inside a shard machine.
const DATA_BASE: u64 = 0x10_000;

/// The service's answer for one client transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Receipt {
    /// Echo of [`ClientTx::id`].
    pub tx_id: u64,
    /// The shard that served the request.
    pub shard: usize,
    /// What happened.
    pub status: ReceiptStatus,
}

/// Outcome of one client transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiptStatus {
    /// The transfer committed on its shard machine. `seq` is its position
    /// in the shard's commit order, `at` the simulated commit cycle —
    /// together they pin the execution schedule.
    Committed {
        /// Position in the shard's commit order.
        seq: u64,
        /// Simulated commit cycle.
        at: Cycle,
    },
    /// A read-only balance probe answered from the service's balance
    /// table without entering any shard machine (the frontend's
    /// read-only fast path).
    ReadOnly {
        /// The balance observed as of the previous block boundary.
        balance: u32,
    },
    /// Admission-checked only (the `ValidateOnly` strategy): `ok` is the
    /// well-formedness verdict, nothing executed.
    Validated {
        /// Whether the transaction passed admission checks.
        ok: bool,
    },
}

/// Per-block statistics, one entry of the bench's time series.
#[derive(Debug, Clone, Default)]
pub struct BlockStats {
    /// Client transactions in the block.
    pub txs: usize,
    /// Transfers that entered shard machines.
    pub transfers: usize,
    /// Read-only probes answered from the balance table.
    pub read_only_hits: u64,
    /// Transfers whose `from`/`to` fall in different key ranges (executed
    /// whole on the `from` owner; see crate docs).
    pub cross_shard: u64,
    /// Committed simulator transactions, summed over shards.
    pub commits: u64,
    /// Aborted-and-retried simulator transactions, summed over shards.
    pub aborts: u64,
    /// Transfers routed to each shard.
    pub shard_txs: Vec<usize>,
    /// Load imbalance: max shard load over mean shard load (1.0 = even).
    pub shard_skew: f64,
    /// Simulated cycles of the slowest shard machine.
    pub max_shard_cycles: Cycle,
    /// Host wall time spent executing the block.
    pub wall_ns: u64,
    /// Shard attempts retried after a fault (stall or exhaustion).
    pub shard_retries: u64,
    /// Shard attempts that blew their cycle budget (treated as a stalled
    /// shard: backoff, doubled budget, retry).
    pub shard_stalls: u64,
    /// Shards that exhausted their retries and fell back to
    /// serial-irrevocable execution.
    pub shard_escalations: u64,
    /// Simulated cycles spent in inter-attempt backoff.
    pub shard_backoff_cycles: Cycle,
}

impl BlockStats {
    /// Aborts per attempted simulator transaction.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.aborts;
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }
}

/// Everything a block execution produces: receipts in client-id order,
/// stats, and the net ledger deltas to fold into the balance table.
#[derive(Debug, Clone)]
pub struct BlockOutcome {
    /// Position of the block in the service's seal order. [`run_block`]
    /// itself leaves it `0`; the pipeline stamps it, and together with
    /// [`Receipt::tx_id`] it forms the receipt identity `(block_seq,
    /// client id)` that makes recovery's receipt redelivery idempotent.
    pub block_seq: u64,
    /// One receipt per client transaction, sorted by `tx_id`.
    pub receipts: Vec<Receipt>,
    /// Execution counters.
    pub stats: BlockStats,
    /// Net wrapping delta per touched account, sorted by account.
    pub deltas: Vec<(u64, u32)>,
}

/// One transfer routed to a shard, in dense account indices — the unit
/// the plan can recompile at any thread count (round-robin parallel, or
/// single-threaded for the serial-irrevocable escalation path).
#[derive(Debug, Clone, Copy)]
struct Transfer {
    /// Client tx id, for receipt decoding.
    id: u64,
    /// Dense index of the debited account.
    from: usize,
    /// Dense index of the credited account.
    to: usize,
    /// Transfer amount.
    amount: u32,
}

/// One shard's routed transfers plus the dense account map.
struct ShardPlan {
    /// Dense index → account id, in first-touch order.
    accounts: Vec<u64>,
    /// Account id → dense index.
    index: FastMap<u64, usize>,
    /// Transfers routed here, in stream order.
    transfers: Vec<Transfer>,
}

impl ShardPlan {
    fn new() -> Self {
        ShardPlan {
            accounts: Vec::new(),
            index: FastMap::default(),
            transfers: Vec::new(),
        }
    }

    /// Dense index of `account`, allocating on first touch.
    fn index_of(&mut self, account: u64) -> usize {
        if let Some(&i) = self.index.get(&account) {
            return i;
        }
        let i = self.accounts.len();
        self.accounts.push(account);
        self.index.insert(account, i);
        i
    }

    /// Compiles the transfers into `threads` round-robin thread programs,
    /// plus the `(thread, begin_pc)` → client tx id map that decodes the
    /// machine's commit log back into receipts.
    fn programs(&self, threads: usize) -> (Vec<ThreadProgram>, FastMap<(u32, usize), u64>) {
        let tx_of = self
            .transfers
            .iter()
            .enumerate()
            .map(|(i, t)| (((i % threads) as u32, TRANSFER_OPS * (i / threads)), t.id))
            .collect();
        let programs = (0..threads)
            .map(|thread| {
                // Thread `thread` runs transfers `thread`, `thread + threads`,
                // ...; an exact-length iterator builds its shared stream in
                // one allocation.
                let n = self
                    .transfers
                    .len()
                    .saturating_sub(thread)
                    .div_ceil(threads);
                let ops: Arc<[Op]> = (0..n)
                    .flat_map(|j| self.transfers[thread + j * threads].ops())
                    .collect();
                ThreadProgram::new(ProcessId(0), ThreadId(thread as u32), ops)
            })
            .collect();
        (programs, tx_of)
    }
}

/// Ops in one compiled transfer: `Begin`, two `Rmw`s, `End`.
const TRANSFER_OPS: usize = 4;

impl Transfer {
    /// The transfer as one transaction.
    fn ops(&self) -> [Op; TRANSFER_OPS] {
        [
            Op::Begin {
                ordered: None,
                // Lock word for the lock-based execution mode: stripe by the
                // debited account so independent transfers don't serialize.
                lock: VirtAddr::new(((self.from % 1024) * WORD_SIZE) as u64),
            },
            Op::Rmw(addr_of(self.from), -(self.amount as i32)),
            Op::Rmw(addr_of(self.to), self.amount as i32),
            Op::End,
        ]
    }
}

/// Ledger word address of a dense account index. One account per 64-byte
/// block, so two accounts never share a conflict-detection unit: all
/// contention the bench measures is *true* Zipfian contention, not false
/// sharing from packing.
fn addr_of(idx: usize) -> VirtAddr {
    VirtAddr::new(DATA_BASE + (idx * BLOCK_SIZE) as u64)
}

/// Compiles the transfers of `block` into per-shard plans.
fn compile(cfg: &ServiceConfig, map: &ShardMap, block: &[ClientTx]) -> Vec<ShardPlan> {
    let mut plans: Vec<ShardPlan> = (0..cfg.shards).map(|_| ShardPlan::new()).collect();
    for tx in block.iter().filter(|t| !t.read_only) {
        let shard = map.owner(tx);
        let plan = &mut plans[shard];
        let from = plan.index_of(tx.from);
        let to = plan.index_of(tx.to);
        plan.transfers.push(Transfer {
            id: tx.id,
            from,
            to,
            amount: tx.amount,
        });
    }
    plans
}

/// Everything one shard's execution produced, including how degraded the
/// path to completion was.
struct ShardRun {
    receipts: Vec<Receipt>,
    commits: u64,
    aborts: u64,
    cycles: Cycle,
    deltas: Vec<(u64, u32)>,
    retries: u64,
    stalls: u64,
    escalated: bool,
    backoff_cycles: Cycle,
}

/// Backoff charged (in simulated cycles) before retry `attempt`.
fn retry_backoff(attempt: u32) -> Cycle {
    1024u64 << attempt.min(8)
}

/// Runs a closure with panic messages suppressed on this thread. Chaos
/// attempts die by design (resource-exhaustion panics are the containment
/// boundary under test); their backtraces are noise, not signal. The
/// wrapping hook is installed once, process-wide, and defers to the
/// previous hook for every thread that didn't opt in.
fn silence_panics<R>(f: impl FnOnce() -> R) -> R {
    use std::cell::Cell;
    use std::sync::Once;
    thread_local! {
        static SILENCED: Cell<bool> = const { Cell::new(false) };
    }
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SILENCED.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
    SILENCED.with(|s| s.set(true));
    let r = f();
    SILENCED.with(|s| s.set(false));
    r
}

/// Mixes the chaos seed with the block salt, shard and attempt so every
/// attempt draws a distinct but reproducible storm (splitmix64 finalizer).
fn storm_seed(chaos: &ShardChaosConfig, shard: usize, attempt: u32) -> u64 {
    let mut z = chaos
        .seed
        .wrapping_add(chaos.salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((shard as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((attempt as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Decodes a finished machine into receipts, counters and deltas.
fn decode_machine(
    machine: &Machine,
    plan: &ShardPlan,
    tx_of: &FastMap<(u32, usize), u64>,
    shard: usize,
) -> (Vec<Receipt>, u64, u64, Cycle, Vec<(u64, u32)>) {
    let stats = machine.stats();
    let mut receipts = Vec::with_capacity(plan.transfers.len());
    for (seq, c) in stats.commit_log.iter().enumerate() {
        let id = *tx_of
            .get(&(c.thread.0, c.begin_pc))
            .expect("every committed tx was compiled from a client tx");
        receipts.push(Receipt {
            tx_id: id,
            shard,
            status: ReceiptStatus::Committed {
                seq: seq as u64,
                at: c.at,
            },
        });
    }
    let deltas: Vec<(u64, u32)> = plan
        .accounts
        .iter()
        .enumerate()
        .map(|(i, &acct)| (acct, machine.read_committed(ProcessId(0), addr_of(i))))
        .filter(|&(_, d)| d != 0)
        .collect();
    (receipts, stats.commits, stats.aborts, stats.cycles, deltas)
}

/// Machine config sized to the shard's ledger footprint.
fn shard_machine_cfg(cfg: &ServiceConfig, plan: &ShardPlan) -> MachineConfig {
    let mut mcfg = cfg.machine;
    // Ledger pages actually touched, plus generous room for backend
    // metadata (shadow blocks, TAV nodes). Sizing frames to the block's
    // footprint instead of the account space is what lets the service
    // front a multi-million-account ledger with tiny shard machines.
    let data_pages = (plan.accounts.len() * BLOCK_SIZE).div_ceil(PAGE_SIZE);
    mcfg.mem_frames = (data_pages * 4 + 64).max(128);
    mcfg
}

/// Runs one compiled shard and decodes its commit log into receipts.
///
/// Fault-free shards run `Machine::run` directly. Under
/// [`ShardChaosConfig`] the shard runs inside an isolation boundary:
/// abort storms and resource squeezes are injected per attempt, an
/// attempt that panics (exhaustion) or blows its cycle budget (stall) is
/// retried after exponential backoff with the budget doubled, and a shard
/// that exhausts its retries escalates to serial-irrevocable execution —
/// one thread, no faults, guaranteed to terminate. A stormed shard
/// degrades (slower, counted in [`BlockStats`]); it never takes the block
/// down with it and never deadlocks the pipeline.
fn run_shard(
    machines: &mut ShardMachines,
    cfg: &ServiceConfig,
    shard: usize,
    plan: &ShardPlan,
) -> ShardRun {
    let mcfg = shard_machine_cfg(cfg, plan);
    let (programs, tx_of) = plan.programs(cfg.threads_per_shard);

    let Some(chaos) = cfg.chaos else {
        let mut machine = machines.take(shard, mcfg, cfg.kind, programs);
        machine.run();
        let (receipts, commits, aborts, cycles, deltas) =
            decode_machine(&machine, plan, &tx_of, shard);
        machines.put(shard, machine);
        return ShardRun {
            receipts,
            commits,
            aborts,
            cycles,
            deltas,
            retries: 0,
            stalls: 0,
            escalated: false,
            backoff_cycles: 0,
        };
    };

    // Deterministic: same cfg, same block, same storms.
    let ops: u64 = plan.transfers.len() as u64 * 4;
    let horizon = ops * 8 + 256;
    let mut retries = 0u64;
    let mut stalls = 0u64;
    let mut backoff_cycles: Cycle = 0;
    for attempt in 0..=chaos.max_retries {
        let budget = chaos.cycle_budget.saturating_mul(1 << attempt.min(16));
        let fplan =
            FaultPlan::shard_storm(storm_seed(&chaos, shard, attempt), horizon, chaos.events);
        match machines.attempt(shard, mcfg, cfg.kind, programs.clone(), &fplan) {
            Some(machine) if machine.stats().cycles <= budget => {
                let (receipts, commits, aborts, cycles, deltas) =
                    decode_machine(&machine, plan, &tx_of, shard);
                machines.put(shard, machine);
                return ShardRun {
                    receipts,
                    commits,
                    aborts,
                    cycles: cycles + backoff_cycles,
                    deltas,
                    retries,
                    stalls,
                    escalated: false,
                    backoff_cycles,
                };
            }
            Some(machine) => {
                // Finished but over budget: a stalled shard. Back off and
                // retry with the budget doubled.
                machines.put(shard, machine);
                stalls += 1;
            }
            None => {
                // The storm exhausted the shard (bounded-retry panic in the
                // machine). The machine is gone; the transfers are not —
                // they re-run on the next attempt.
            }
        }
        retries += 1;
        backoff_cycles += retry_backoff(attempt);
    }

    // Escalation: serial-irrevocable. One thread, no faults — no aborts
    // possible from contention, no squeeze to exhaust, always terminates.
    let (serial_programs, serial_tx_of) = plan.programs(1);
    let mut machine = machines.take(shard, mcfg, cfg.kind, serial_programs);
    machine.run();
    let (receipts, commits, aborts, cycles, deltas) =
        decode_machine(&machine, plan, &serial_tx_of, shard);
    machines.put(shard, machine);
    ShardRun {
        receipts,
        commits,
        aborts,
        cycles: cycles + backoff_cycles,
        deltas,
        retries,
        stalls,
        escalated: true,
        backoff_cycles,
    }
}

/// Executes one block on fresh shard machines: a one-block
/// [`ShardMachines::run_block`].
///
/// # Panics
///
/// As [`ShardMachines::run_block`].
pub fn run_block(
    cfg: &ServiceConfig,
    block: &[ClientTx],
    balances: &FastMap<u64, u32>,
) -> BlockOutcome {
    ShardMachines::default().run_block(cfg, block, balances)
}

/// One simulator machine slot per shard, kept across blocks.
///
/// Building a shard machine allocates one vector per cache set
/// (4 cores × (256 + 1,024) with the paper's caches), so the owner of a
/// block sequence — [`crate::Engine`], [`crate::recover`] — keeps its
/// machines here and [`Machine::reset`]s them for each block. A reset
/// machine runs exactly as a new one, so outcomes do not depend on what
/// a slot ran before. A machine whose run panicked is dropped, never
/// reused.
#[derive(Debug, Default)]
pub struct ShardMachines(Vec<Option<Machine>>);

impl ShardMachines {
    /// Empty slots; machines are built on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shard `shard`'s machine, reset to run `programs` under `mcfg`, or
    /// a new one when the slot is empty or holds another system. The slot
    /// stays empty until [`ShardMachines::put`] returns the machine.
    fn take(
        &mut self,
        shard: usize,
        mcfg: MachineConfig,
        kind: SystemKind,
        programs: Vec<ThreadProgram>,
    ) -> Machine {
        match self.0.get_mut(shard).and_then(Option::take) {
            Some(mut m) if m.kind() == kind => {
                m.reset(mcfg, programs);
                m
            }
            _ => Machine::new(mcfg, kind, programs),
        }
    }

    /// Runs `programs` under `plan` on shard `shard`'s machine inside the
    /// chaos isolation boundary. Returns the finished machine, or `None`
    /// if the attempt panicked: the machine was dropped in the unwind and
    /// the slot stays empty, so it is never reused.
    fn attempt(
        &mut self,
        shard: usize,
        mcfg: MachineConfig,
        kind: SystemKind,
        programs: Vec<ThreadProgram>,
        plan: &FaultPlan,
    ) -> Option<Machine> {
        silence_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                let mut machine = self.take(shard, mcfg, kind, programs);
                machine.run_with_faults(plan);
                machine
            }))
        })
        .ok()
    }

    /// Returns a machine that ran to completion to shard `shard`'s slot.
    fn put(&mut self, shard: usize, machine: Machine) {
        if self.0.len() <= shard {
            self.0.resize_with(shard + 1, || None);
        }
        self.0[shard] = Some(machine);
    }

    /// Executes one block of client transactions against `balances` (the
    /// state as of the previous block boundary) and returns receipts,
    /// stats and the ledger deltas to fold forward.
    ///
    /// This is the synchronous core the ingest loop, recovery, the tests
    /// and the bench all share; it is a pure function of `(cfg, block,
    /// balances)` except for the `wall_ns` stat — the slots' history never
    /// shows.
    ///
    /// # Panics
    ///
    /// Panics if any transaction's `from` or `to` lies outside
    /// `0..cfg.accounts` — under every strategy, `ValidateOnly` included,
    /// because routing runs first. [`crate::Service::submit`] rejects
    /// such transactions with [`crate::SubmitError::Invalid`]; direct
    /// callers must check them themselves.
    pub fn run_block(
        &mut self,
        cfg: &ServiceConfig,
        block: &[ClientTx],
        balances: &FastMap<u64, u32>,
    ) -> BlockOutcome {
        let start = Instant::now();
        let map = ShardMap::new(cfg.shards, cfg.accounts);
        let mut stats = BlockStats {
            txs: block.len(),
            shard_txs: vec![0; cfg.shards],
            ..BlockStats::default()
        };
        let mut receipts = Vec::with_capacity(block.len());

        // Read-only fast path: answered from the balance table, never
        // compiled into a shard machine.
        for tx in block {
            if tx.read_only {
                stats.read_only_hits += 1;
                receipts.push(Receipt {
                    tx_id: tx.id,
                    shard: map.owner(tx),
                    status: ReceiptStatus::ReadOnly {
                        balance: balances.get(&tx.from).copied().unwrap_or(0),
                    },
                });
            } else {
                stats.transfers += 1;
                stats.shard_txs[map.owner(tx)] += 1;
                if map.is_cross_shard(tx) {
                    stats.cross_shard += 1;
                }
            }
        }

        let mut deltas: Vec<(u64, u32)> = Vec::new();
        match cfg.strategy {
            Strategy::ValidateOnly => {
                for tx in block.iter().filter(|t| !t.read_only) {
                    let ok = tx.from < cfg.accounts
                        && tx.to < cfg.accounts
                        && tx.from != tx.to
                        && tx.amount > 0;
                    receipts.push(Receipt {
                        tx_id: tx.id,
                        shard: map.owner(tx),
                        status: ReceiptStatus::Validated { ok },
                    });
                }
            }
            Strategy::Sequential => {
                let plans = compile(cfg, &map, block);
                let mut fold: FastMap<u64, u32> = FastMap::default();
                for (shard, plan) in plans.iter().enumerate() {
                    if plan.transfers.is_empty() {
                        continue;
                    }
                    let run = run_shard(self, cfg, shard, plan);
                    receipts.extend(run.receipts);
                    stats.commits += run.commits;
                    stats.aborts += run.aborts;
                    stats.max_shard_cycles = stats.max_shard_cycles.max(run.cycles);
                    stats.shard_retries += run.retries;
                    stats.shard_stalls += run.stalls;
                    stats.shard_escalations += run.escalated as u64;
                    stats.shard_backoff_cycles += run.backoff_cycles;
                    for (acct, d) in run.deltas {
                        let e = fold.entry(acct).or_insert(0);
                        *e = e.wrapping_add(d);
                    }
                }
                deltas = fold.into_iter().collect();
                deltas.sort_unstable();
            }
        }

        stats.shard_skew = shard_skew(&stats.shard_txs, stats.transfers, cfg.shards);

        receipts.sort_unstable_by_key(|r| r.tx_id);
        stats.wall_ns = start.elapsed().as_nanos() as u64;
        BlockOutcome {
            block_seq: 0,
            receipts,
            stats,
            deltas,
        }
    }
}

/// Load imbalance: max shard load over mean shard load (1.0 = even, 0.0
/// for a block with no transfers — an all-read-only block has no load to
/// skew). Total, never panics: the no-load case is the answer `0.0`, not
/// a precondition.
fn shard_skew(shard_txs: &[usize], transfers: usize, shards: usize) -> f64 {
    match shard_txs.iter().copied().filter(|&t| t > 0).max() {
        None => 0.0,
        Some(max) => {
            let mean = transfers as f64 / shards.max(1) as f64;
            max as f64 / mean
        }
    }
}

/// Folds a block's deltas into the balance table (wrapping ledger
/// arithmetic, matching the simulator's 32-bit words).
pub fn fold_deltas(balances: &mut FastMap<u64, u32>, deltas: &[(u64, u32)]) {
    for &(acct, d) in deltas {
        let e = balances.entry(acct).or_insert(0);
        *e = e.wrapping_add(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShardChaosConfig;

    fn transfer(id: u64, from: u64, to: u64) -> ClientTx {
        ClientTx {
            id,
            from,
            to,
            amount: 5,
            read_only: false,
        }
    }

    fn probe(id: u64, from: u64) -> ClientTx {
        ClientTx {
            id,
            from,
            to: from,
            amount: 0,
            read_only: true,
        }
    }

    #[test]
    fn shard_skew_is_total_over_empty_loads() {
        // Satellite: the skew computation must not assume a non-empty load
        // vector — an all-read-only block has no transfers anywhere.
        assert_eq!(shard_skew(&[], 0, 4), 0.0);
        assert_eq!(shard_skew(&[0, 0, 0], 0, 3), 0.0);
        assert_eq!(shard_skew(&[4, 4], 8, 2), 1.0);
        assert_eq!(shard_skew(&[8, 0], 8, 2), 2.0);
    }

    #[test]
    fn all_read_only_block_reports_zero_skew_and_no_deltas() {
        let block: Vec<ClientTx> = (0..10).map(|i| probe(i, i * 7)).collect();
        let cfg = ServiceConfig::new(1_000, 4);
        let out = run_block(&cfg, &block, &FastMap::default());
        assert_eq!(out.stats.shard_skew, 0.0);
        assert_eq!(out.stats.transfers, 0);
        assert_eq!(out.stats.read_only_hits, 10);
        assert!(out.deltas.is_empty());
        assert_eq!(out.receipts.len(), 10);
    }

    #[test]
    fn chaos_block_is_deterministic_and_ledger_exact() {
        // Abort storms change the schedule, never the ledger: the deltas
        // of a stormed block match the fault-free run, and re-running the
        // same chaos config reproduces the block bit-for-bit (what
        // recovery's re-execution leans on).
        let block: Vec<ClientTx> = (0..120)
            .map(|i| transfer(i, (i * 13) % 500, (i * 29 + 3) % 500))
            .collect();
        let quiet = ServiceConfig::new(500, 2);
        let chaos = quiet.with_chaos(ShardChaosConfig {
            salt: 3,
            ..ShardChaosConfig::new(99)
        });
        let balances = FastMap::default();
        let base = run_block(&quiet, &block, &balances);
        let a = run_block(&chaos, &block, &balances);
        let b = run_block(&chaos, &block, &balances);
        assert_eq!(a.deltas, base.deltas, "storms never corrupt the ledger");
        assert_eq!(a.receipts.len(), base.receipts.len());
        assert_eq!(a.receipts, b.receipts, "chaos is deterministic");
        assert_eq!(a.stats.shard_retries, b.stats.shard_retries);
    }

    #[test]
    fn stalled_shard_escalates_to_serial_irrevocable() {
        // An absurd cycle budget makes every attempt a stall; the shard
        // must escalate (serial, fault-free) and still serve every tx.
        let block: Vec<ClientTx> = (0..60)
            .map(|i| transfer(i, (i * 7) % 200, (i * 11 + 1) % 200))
            .collect();
        let cfg = ServiceConfig::new(200, 1).with_chaos(ShardChaosConfig {
            cycle_budget: 1,
            max_retries: 1,
            ..ShardChaosConfig::new(5)
        });
        let out = run_block(&cfg, &block, &FastMap::default());
        assert_eq!(out.stats.shard_escalations, 1);
        assert_eq!(out.stats.shard_stalls, 2, "both attempts blew the budget");
        assert_eq!(out.stats.shard_retries, 2);
        assert!(out.stats.shard_backoff_cycles > 0);
        assert_eq!(out.receipts.len(), block.len(), "degraded, not dropped");
        let base = run_block(&ServiceConfig::new(200, 1), &block, &FastMap::default());
        assert_eq!(out.deltas, base.deltas, "escalation preserves the ledger");
    }

    /// Everything a shard machine's history could leak into: receipts,
    /// deltas, counters, slowest-shard cycles and the retry counters.
    fn observable(out: &BlockOutcome) -> (Vec<Receipt>, Vec<(u64, u32)>, [u64; 7]) {
        let s = &out.stats;
        (
            out.receipts.clone(),
            out.deltas.clone(),
            [
                s.commits,
                s.aborts,
                s.max_shard_cycles,
                s.shard_retries,
                s.shard_stalls,
                s.shard_escalations,
                s.shard_backoff_cycles,
            ],
        )
    }

    #[test]
    fn reused_shard_machines_run_every_block_as_fresh_ones() {
        let accounts = 1_000_000;
        let quiet = ServiceConfig::new(accounts, 4);
        let hot = |salt: u64| -> Vec<ClientTx> {
            (0..200)
                .map(|i| {
                    let from = (i * 13 + salt) % 97 * 10_007;
                    transfer(i, from, (i * 29 + 3) % 89 * 11_003)
                })
                .collect()
        };
        // ~600 distinct accounts per shard: more frames than `hot`'s.
        let wide: Vec<ClientTx> = (0..2_400)
            .map(|i| transfer(i, (i * 7_919) % accounts, (i * 104_729 + 1) % accounts))
            .collect();
        let storm = quiet.with_chaos(ShardChaosConfig {
            events: 40,
            salt: 1,
            ..ShardChaosConfig::new(99)
        });
        let escalate = quiet.with_chaos(ShardChaosConfig {
            cycle_budget: 1,
            max_retries: 1,
            ..ShardChaosConfig::new(5)
        });
        let frames = |cfg: &ServiceConfig, block: &[ClientTx]| {
            let plans = compile(cfg, &ShardMap::new(cfg.shards, cfg.accounts), block);
            shard_machine_cfg(cfg, &plans[0]).mem_frames
        };
        assert_ne!(frames(&quiet, &hot(0)), frames(&quiet, &wide));

        let mut machines = ShardMachines::new();
        let mut balances = FastMap::default();
        let mut check = |machines: &mut ShardMachines, cfg: &ServiceConfig, block: &[ClientTx]| {
            let reused = machines.run_block(cfg, block, &balances);
            let fresh = run_block(cfg, block, &balances);
            assert_eq!(observable(&reused), observable(&fresh));
            fold_deltas(&mut balances, &reused.deltas);
            reused
        };
        check(&mut machines, &quiet, &hot(0));
        check(&mut machines, &storm, &hot(1));
        // Each shard runs two 4-core attempts, then a 1-core escalation;
        // the next block's 4-core machines are rebuilt from it.
        let out = check(&mut machines, &escalate, &hot(2));
        assert_eq!(out.stats.shard_escalations, 4);
        check(&mut machines, &quiet, &hot(3));
        check(&mut machines, &quiet, &wide);

        // A chaos attempt that dies mid-run: a stray `End` after thread
        // 0's first transfer. Its machine must not come back to the slot.
        let block = hot(4);
        let plans = compile(&quiet, &ShardMap::new(4, accounts), &block);
        let (mut programs, _) = plans[0].programs(quiet.threads_per_shard);
        let mut ops: Vec<Op> = (0..4).filter_map(|pc| programs[0].op_at(pc)).collect();
        ops.push(Op::End);
        programs[0] = ThreadProgram::new(ProcessId(0), ThreadId(0), ops);
        let mcfg = shard_machine_cfg(&quiet, &plans[0]);
        assert!(machines.0[0].is_some());
        let died = machines.attempt(0, mcfg, quiet.kind, programs, &FaultPlan::empty());
        assert!(died.is_none(), "the stray End must panic the attempt");
        assert!(
            machines.0[0].is_none(),
            "a panicked machine is never reused"
        );

        check(&mut machines, &quiet, &block);
        check(&mut machines, &storm, &hot(5));
    }
}
