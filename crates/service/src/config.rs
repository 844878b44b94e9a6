//! Service tuning knobs.

use ptm_core::durability::ForcePolicy;
use ptm_mem::logdev::{LogDevConfig, LogFaultPlan};
use ptm_sim::{MachineConfig, SystemKind};
use std::time::Duration;

/// How a block's shard machines are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// `Machine::run`: the deterministic sequential core loop.
    Sequential,
    /// Admission checks only; nothing executes and no state changes.
    /// Useful to measure frontend overhead and as a dry-run mode.
    ValidateOnly,
}

/// Ingest-journal configuration: the force policy plus the log device the
/// journal writes through. `None` on [`ServiceConfig::journal`] keeps the
/// pre-journal volatile frontend (acks mean nothing across a crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// When block commit records are forced durable. Accepts become
    /// durably acked at the same force points (group commit).
    pub policy: ForcePolicy,
    /// Device geometry and latencies.
    pub dev: LogDevConfig,
    /// Device fault injection (seed 0 = fault-free).
    pub faults: LogFaultPlan,
}

impl JournalConfig {
    /// Eager forcing over a zero-cost, fault-free device — the journal
    /// configuration whose receipts must be bit-identical to a volatile
    /// run.
    pub fn zero_cost_eager() -> Self {
        JournalConfig {
            policy: ForcePolicy::Eager,
            dev: LogDevConfig::zero_cost(),
            faults: LogFaultPlan::none(),
        }
    }

    /// Same journal with a different force policy.
    pub fn with_policy(mut self, policy: ForcePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Same journal with a different device fault plan.
    pub fn with_faults(mut self, faults: LogFaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// Shard-chaos configuration: seed-driven abort storms and resource
/// squeezes injected into shard machines, plus the containment knobs
/// (cycle budget, bounded retries) that keep a stormed shard from taking
/// the block down with it. `None` on [`ServiceConfig::chaos`] runs shards
/// fault-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardChaosConfig {
    /// Base seed for the per-shard fault plans.
    pub seed: u64,
    /// Fault events injected per shard attempt.
    pub events: usize,
    /// Simulated-cycle budget for the first attempt at a shard; doubles
    /// per retry so a stormed shard degrades (slower, counted) instead of
    /// wedging the pipeline.
    pub cycle_budget: u64,
    /// Faulted attempts before escalating to serial-irrevocable execution
    /// (one thread, no faults — always terminates).
    pub max_retries: u32,
    /// Mixed into the per-shard seed; the pipeline sets it to the block
    /// sequence number so every (block, shard, attempt) draws a distinct
    /// but reproducible storm.
    pub salt: u64,
}

impl ShardChaosConfig {
    /// A storm plan from `seed` with containment defaults.
    pub fn new(seed: u64) -> Self {
        ShardChaosConfig {
            seed,
            events: 12,
            cycle_budget: 2_000_000,
            max_retries: 3,
            salt: 0,
        }
    }
}

/// Frontend configuration: account space, sharding, execution strategy
/// and admission knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Size of the account space (ids `0..accounts`).
    pub accounts: u64,
    /// Independent shard machines; accounts partition by key range.
    pub shards: usize,
    /// Simulated cores per shard machine.
    pub threads_per_shard: usize,
    /// Backend each shard machine runs (default: the paper's PTM-Select).
    pub kind: SystemKind,
    /// Execution strategy for shard machines.
    pub strategy: Strategy,
    /// Shard machine template; `mem_frames` is resized per block.
    pub machine: MachineConfig,
    /// Admission: a block is sealed as soon as it holds this many
    /// transactions.
    pub max_batch: usize,
    /// Admission: a non-empty partial block is sealed after waiting this
    /// long for more arrivals.
    pub batch_deadline: Duration,
    /// Overload shedding: client transactions admitted but not yet folded.
    /// [`crate::Service::submit`] rejects with `Busy { retry_after }` at
    /// this depth instead of queueing unboundedly.
    pub queue_depth: usize,
    /// Durable ingest journal; `None` = volatile frontend.
    pub journal: Option<JournalConfig>,
    /// Shard fault injection; `None` = fault-free shards.
    pub chaos: Option<ShardChaosConfig>,
}

impl ServiceConfig {
    /// Defaults for an `accounts`-sized ledger over `shards` shards.
    pub fn new(accounts: u64, shards: usize) -> Self {
        ServiceConfig {
            accounts,
            shards,
            threads_per_shard: 4,
            kind: SystemKind::SelectPtm(Default::default()),
            strategy: Strategy::Sequential,
            machine: MachineConfig::default(),
            max_batch: 256,
            batch_deadline: Duration::from_millis(5),
            queue_depth: 4096,
            journal: None,
            chaos: None,
        }
    }

    /// Same config with a different strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Same config with a durable ingest journal.
    pub fn with_journal(mut self, journal: JournalConfig) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Same config with shard fault injection.
    pub fn with_chaos(mut self, chaos: ShardChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }
}
