//! The adversity sweep (the `adversity` binary's engine): one grid over
//! everything a transaction must survive — a seeded fault plan (frame
//! squeezes, TAV caps, hot-page swap-outs on a slow swap device, abort
//! storms), crash-stop (clean and torn) and a faulty write-behind log
//! device under a force policy.
//!
//! A [`Cell`] is one `(workload, system)` machine run with its
//! adversities. [`run_cell`] runs it to completion under its plan (the
//! probe: serializability oracle, stats identities, the durable `run_*`
//! counters), then crashes a fresh machine at each crash point — every
//! K-th step (clean and, on PTM kinds, torn) and seeded extra steps inside
//! a `FaultPlan::from_seed` storm — and recovers it: committed-prefix
//! oracle, idempotence and, with a log device, log reconciliation.
//! [`check`] holds the sums to every check that applies.
//!
//! The grid has four named slices. `faults`, `crash` and `durable` are the
//! three sweeps this module replaced, point for point; `composed` crashes
//! inside fault storms on a faulty group-commit log.

use crate::json::{self, Fixed, Obj};
use crate::paper::{self, CellWorkload};
use ptm_core::durability::{DurStats, DurabilityConfig, ForcePolicy, MAX_LOG_RETRIES};
use ptm_core::{PtmStats, RecoveryStats};
use ptm_mem::{LogDevConfig, LogDevStats, LogFaultPlan};
use ptm_sim::crash::CrashPlan;
use ptm_sim::{
    check_invariants, diff_against_machine, FaultAction, FaultEvent, FaultPlan, Machine,
    MachineConfig, SystemKind, ThreadProgram,
};
use ptm_types::rng::{Fnv1a64, SplitMix64};
use ptm_types::Granularity;
use ptm_workloads::Scale;
use std::time::Instant;

/// The slices of the default grid, in run order.
pub const SLICES: [&str; 4] = ["faults", "crash", "durable", "composed"];

/// Seed of the `faults` slice's plan unless `PTM_FAULT_SEED` sets one.
pub const DEFAULT_FAULT_SEED: u64 = 0xF4117;

/// Base seed of the seeded crash points; cell `i` of a slice uses
/// `CRASH_SEED + i·0x9E3779B97F4A7C15`.
const CRASH_SEED: u64 = 0xC1A54;

/// The force policies every log-device sweep crosses (this grid's
/// `durable` slice and the service's crash sweep).
pub const FORCE_POLICIES: [ForcePolicy; 3] =
    [ForcePolicy::Eager, ForcePolicy::Group(4), ForcePolicy::Lazy];

/// The log-device seeds every log-device sweep crosses: 0, the fault-free
/// device, then one seed per emphasis class of [`LogFaultPlan::from_seed`]
/// (the generator rotates which fault kind dominates with the seed), in
/// class order: transient, stall, reorder, torn. Each is the smallest seed
/// of its class, so the list provably covers every injected fault kind.
pub const LOG_FAULT_SEEDS: [u64; 5] = [0, 6, 1, 2, 7];

/// A cell's crash points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// Grid points every `total_steps / divisions` steps, both endpoints
    /// included, clean and (on PTM kinds) torn; 0 = no grid.
    pub divisions: u64,
    /// Seeded extra points, each inside one seeded fault storm.
    pub extras: u64,
    /// Seed of the storm and of the extras' steps.
    pub seed: u64,
}

/// One cell of the adversity grid: a `(workload, system)` machine run,
/// the adversities it runs under, and nothing else it depends on.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// The slice the cell belongs to (one of [`SLICES`]).
    pub slice: &'static str,
    /// The paper family a `faults` cell regenerates (`table1`, `serial`,
    /// `fig4`, `fig5`, `ablation`); the slice name elsewhere.
    pub family: &'static str,
    /// The workload.
    pub workload: CellWorkload,
    /// The system.
    pub kind: SystemKind,
    /// The problem scale.
    pub scale: Scale,
    /// Seed of the `seeded_plan` the cell runs under; `None` = no faults.
    pub fault_seed: Option<u64>,
    /// The write-behind log device, if one is attached: its force policy
    /// and its [`LogFaultPlan`] seed (0 = fault-free).
    pub log: Option<(ForcePolicy, u64)>,
    /// The crash points, if the cell crashes.
    pub crash: Option<CrashSpec>,
}

impl Cell {
    /// A cell of `slice` running `kind` on `workload`, with no adversity.
    fn new(slice: &'static str, workload: CellWorkload, kind: SystemKind, scale: Scale) -> Self {
        Cell {
            slice,
            family: slice,
            workload,
            kind,
            scale,
            fault_seed: None,
            log: None,
            crash: None,
        }
    }

    /// This cell under `seeded_plan(seed)`.
    fn faulted(self, seed: u64) -> Self {
        let fault_seed = Some(seed);
        Cell { fault_seed, ..self }
    }

    /// This cell on a log device with `policy` and fault seed `seed`.
    fn logged(self, policy: ForcePolicy, seed: u64) -> Self {
        let log = Some((policy, seed));
        Cell { log, ..self }
    }

    /// This cell, crashed at the given points.
    fn crashing(self, divisions: u64, extras: u64, seed: u64) -> Self {
        let crash = Some(CrashSpec {
            divisions,
            extras,
            seed,
        });
        Cell { crash, ..self }
    }

    /// A display name for messages: slice, workload, system and adversity.
    pub fn label(&self) -> String {
        let (w, k) = (self.workload.name(), self.kind.label());
        let mut s = format!("{} {w}/{k}", self.slice);
        if let Some(seed) = self.fault_seed {
            s += &format!(" plan {seed:#x}");
        }
        if let Some((policy, seed)) = self.log {
            s += &format!(" {policy} log seed {seed}");
        }
        s
    }
}

fn crash_seed(i: usize) -> u64 {
    CRASH_SEED.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `faults`: the paper grid's `figures` cells but LogTM's, then the
/// ablation's synthetic grid (LogTM included), each plain and then under
/// `seeded_plan(seed)`.
fn faults_slice(scale: Scale, seed: u64) -> Vec<Cell> {
    let kernels = paper::figures_slice()
        .into_iter()
        .filter(|c| c.kind != SystemKind::LogTm)
        .map(|c| (c.family, c.workload, c.kind));
    let synthetic = [
        CellWorkload::SyntheticLow,
        CellWorkload::SyntheticOverflowing(7),
        CellWorkload::SyntheticContended(7),
    ]
    .into_iter()
    .flat_map(|w| {
        let kinds = [
            SystemKind::CopyPtm,
            SystemKind::SelectPtm(Default::default()),
            SystemKind::LogTm,
        ];
        kinds.map(|kind| ("ablation", w, kind))
    });
    let cell = |(family, workload, kind)| {
        let plain = Cell {
            family,
            ..Cell::new("faults", workload, kind, scale)
        };
        [plain, plain.faulted(seed)]
    };
    kernels.chain(synthetic).flat_map(cell).collect()
}

/// The log-device slices run both PTM policies at block granularity on
/// the overflowing workload (the one that undo-logs).
const LOG_KINDS: [SystemKind; 2] = [
    SystemKind::CopyPtm,
    SystemKind::SelectPtm(Granularity::Block),
];
const OVERFLOWING: CellWorkload = CellWorkload::SyntheticOverflowing(3);

/// `crash`: the six transactional kinds on an overflowing and a contended
/// workload, crashed at every `total/16`-th step and at 4 storm points.
fn crash_slice(scale: Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for workload in [OVERFLOWING, CellWorkload::SyntheticContended(5)] {
        for kind in [
            SystemKind::Vtm,
            SystemKind::VictimVtm,
            SystemKind::CopyPtm,
            SystemKind::SelectPtm(Granularity::Block),
            SystemKind::SelectPtm(Granularity::WordCache),
            SystemKind::SelectPtm(Granularity::WordCacheMem),
        ] {
            let seed = crash_seed(cells.len());
            cells.push(Cell::new("crash", workload, kind, scale).crashing(16, 4, seed));
        }
    }
    cells
}

/// `durable`: [`LOG_KINDS`] × [`FORCE_POLICIES`] × [`LOG_FAULT_SEEDS`],
/// crashed at every `total/8`-th step.
fn durable_slice(scale: Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for kind in LOG_KINDS {
        for policy in FORCE_POLICIES {
            for seed in LOG_FAULT_SEEDS {
                let c = Cell::new("durable", OVERFLOWING, kind, scale);
                cells.push(c.logged(policy, seed).crashing(8, 0, 0));
            }
        }
    }
    cells
}

/// `composed`: [`LOG_KINDS`] on a faulty group-commit log (each faulty
/// seed of [`LOG_FAULT_SEEDS`]), crashed at 8 points inside a fault storm.
fn composed_slice(scale: Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for kind in LOG_KINDS {
        for &seed in &LOG_FAULT_SEEDS[1..] {
            let c = Cell::new("composed", OVERFLOWING, kind, scale);
            let c = c.logged(ForcePolicy::Group(4), seed);
            cells.push(c.crashing(0, 8, crash_seed(cells.len())));
        }
    }
    cells
}

/// The whole grid: every slice, in [`SLICES`] order.
pub fn default_grid(scale: Scale, fault_seed: u64) -> Vec<Cell> {
    [
        faults_slice(scale, fault_seed),
        crash_slice(scale),
        durable_slice(scale),
        composed_slice(scale),
    ]
    .concat()
}

/// The `faults` slice's plan: seed-driven background noise over a long
/// horizon, plus guaranteed early resource pressure so even the shortest
/// cell sees a drained frame pool, a capped TAV arena, hot-page swap-outs
/// on a slow swap device, and an abort storm.
fn seeded_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::from_seed(seed, 40_000, 12);
    let mut push = |step: u64, action: FaultAction| {
        plan.events.push(FaultEvent { step, action });
    };
    push(1, FaultAction::DelaySwapIns { delay: 800 });
    // Squeeze the frame pool dry early, while every cell is still running.
    push(150, FaultAction::SqueezeMemory { leave: 0 });
    push(700, FaultAction::ReleaseMemory);
    push(900, FaultAction::CapTavArena { slack: 0 });
    push(1_300, FaultAction::UncapTavArena);
    for i in 0..6u64 {
        push(300 + i * 400, FaultAction::SwapOutHotPage { nth: i as u8 });
    }
    push(1_500, FaultAction::AbortStorm { count: 2 });
    plan.normalize();
    plan
}

/// A cell's workload, built once: the configuration and the programs
/// every machine of the cell runs. The programs share their op streams,
/// so each machine's copy costs one cursor per thread.
fn inputs(cell: &Cell) -> (MachineConfig, Vec<ThreadProgram>) {
    let w = cell.workload.build(cell.scale);
    (w.machine_config(), paper::programs(&w, cell.kind))
}

/// A fresh machine for `cell` running `programs`, with its log device
/// attached.
fn machine(cell: &Cell, cfg: MachineConfig, programs: &[ThreadProgram]) -> Machine {
    let mut m = Machine::new(cfg, cell.kind, programs.to_vec());
    if let Some((policy, seed)) = cell.log {
        // The realistic device keeps appends in flight long enough for
        // force policies to differ and the torn/lost classes to bite.
        m.enable_durability(DurabilityConfig {
            policy,
            dev: LogDevConfig::realistic(),
            faults: LogFaultPlan::from_seed(seed),
        });
    }
    m
}

/// What a cell's crash points added up to.
#[derive(Debug, Clone, Default)]
pub struct CrashSums {
    /// Steps between grid crash points.
    pub stride: u64,
    /// Crash points executed.
    pub points: u64,
    /// Points where the torn mode actually tore a live TAV publish.
    pub torn_points: u64,
    /// Committed-prefix oracle mismatches (must be 0).
    pub prefix_mismatches: u64,
    /// Points where a second recovery was not a no-op (must be 0).
    pub non_idempotent: u64,
    /// Recovery counters, summed.
    pub recovery: RecoveryStats,
    /// Worst single-point blocks restored.
    pub worst_blocks_restored: u64,
    /// In-flight appends the crashes resolved torn, summed.
    pub torn_appends: u64,
    /// In-flight appends the crashes resolved lost, summed.
    pub lost_appends: u64,
    /// In-flight appends the crashes resolved durable early, summed.
    pub early_appends: u64,
    /// Worst append attempts over the probe and every point — the
    /// bounded-retry proof.
    pub max_append_attempts: u32,
    /// Recovery time against log size, one `[crash step, log bytes,
    /// records recovered, recovery ns]` per clean grid crash of a log
    /// cell.
    pub curve: Vec<[u64; 4]>,
    /// Worst single-point recovery wall-clock, nanoseconds.
    pub worst_recovery_wall_ns: u64,
    /// FNV-1a digest over the log fault plan and every executed crash
    /// plan (and storm), in sweep order.
    pub plan_digest: u64,
}

/// Everything one cell produced.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The cell that ran.
    pub cell: Cell,
    /// Scheduler steps of the probe.
    pub total_steps: u64,
    /// Simulated cycles of the probe.
    pub cycles: u64,
    /// Committed transactions of the probe.
    pub commits: u64,
    /// Aborted attempts of the probe.
    pub aborts: u64,
    /// Serializability-oracle mismatches of the probe (must be 0).
    pub oracle_mismatches: u64,
    /// First violated stats identity of the probe (must be `None`).
    pub invariant_violation: Option<String>,
    /// The probe's PTM counters (all zero on other kinds).
    pub ptm: PtmStats,
    /// The probe's durability and device counters (log cells only).
    pub run: Option<(DurStats, LogDevStats)>,
    /// The crash points' sums (all zero when the cell does not crash).
    pub crash: CrashSums,
    /// Host wall-clock for the whole cell, nanoseconds.
    pub wall_ns: u64,
}

/// Runs one cell: the probe under its plan, then every crash point.
///
/// # Panics
///
/// Panics if a run stops making progress or the probe does not finish
/// (simulator bugs). Oracle verdicts are returned, not asserted: see
/// [`check`].
pub fn run_cell(cell: &Cell) -> CellReport {
    let start = Instant::now();
    let plan = cell.fault_seed.map_or_else(FaultPlan::empty, seeded_plan);
    let (cfg, programs) = inputs(cell);
    let mut m = machine(cell, cfg, &programs);
    let probe = m.run_until_crash(&CrashPlan::at_step(u64::MAX), &plan);
    assert!(probe.finished, "{}: probe run must complete", cell.label());
    let mut crash = cell.crash.map_or_else(CrashSums::default, |crash| {
        crash_points(cell, cfg, &programs, crash, &plan, probe.step)
    });
    let probe_attempts = m.durable_stats().map_or(0, |d| d.max_append_attempts);
    crash.max_append_attempts = crash.max_append_attempts.max(probe_attempts);
    CellReport {
        cell: *cell,
        total_steps: probe.step,
        cycles: m.stats().cycles,
        commits: m.stats().commits,
        aborts: m.stats().aborts,
        oracle_mismatches: diff_against_machine(&m, &programs).len() as u64,
        invariant_violation: check_invariants(&m).err(),
        ptm: m.backend().as_ptm().map(|p| *p.stats()).unwrap_or_default(),
        run: m.durable_stats().copied().zip(m.log_dev_stats().copied()),
        crash,
        wall_ns: start.elapsed().as_nanos() as u64,
    }
}

/// Runs `crash`'s points for `cell`, whose probe took `total` steps, each
/// on a fresh machine built from the cell's `inputs`.
fn crash_points(
    cell: &Cell,
    cfg: MachineConfig,
    programs: &[ThreadProgram],
    crash: CrashSpec,
    plan: &FaultPlan,
    total: u64,
) -> CrashSums {
    let tearable = matches!(cell.kind, SystemKind::CopyPtm | SystemKind::SelectPtm(_));
    let mut s = CrashSums::default();
    let mut points = Vec::new();
    if let Some(stride) = total.checked_div(crash.divisions) {
        s.stride = stride.max(1);
        for step in (0..total).step_by(s.stride as usize).chain([total]) {
            points.push(CrashPlan::at_step(step));
            if tearable {
                points.push(CrashPlan::torn_at_step(step));
            }
        }
    }
    let grid_points = points.len();
    let mut rng = SplitMix64::new(crash.seed);
    let storm = FaultPlan::from_seed(rng.next_u64(), total, 12);
    if crash.extras > 0 {
        let storm_steps = machine(cell, cfg, programs)
            .run_until_crash(&CrashPlan::at_step(u64::MAX), &storm)
            .step;
        for _ in 0..crash.extras {
            points.push(CrashPlan {
                step: rng.next_u64() % (storm_steps + 1),
                torn: tearable && rng.next_u64() & 1 == 1,
            });
        }
    }

    let mut digest = Fnv1a64::new();
    if let Some((_, seed)) = cell.log {
        let f = LogFaultPlan::from_seed(seed);
        digest.write_u64(seed);
        for pct in [f.transient_pct, f.stall_pct, f.reorder_pct, f.torn_pct] {
            digest.write_u64(u64::from(pct));
        }
    }
    for (i, point) in points.iter().enumerate() {
        digest.write_u64(point.digest());
        let faults = if i < grid_points {
            plan
        } else {
            digest.write_u64(storm.digest());
            &storm
        };
        let mut img = machine(cell, cfg, programs).run_until_crash(point, faults);
        let log_bytes = img.log.as_ref().map_or(0, |l| l.bytes.len() as u64);
        if let Some(log) = &img.log {
            s.torn_appends += log.torn_appends;
            s.lost_appends += log.lost_appends;
            s.early_appends += log.early_appends;
        }
        if let Some(d) = img.dur {
            s.max_append_attempts = s.max_append_attempts.max(d.max_append_attempts);
        }

        let rec_start = Instant::now();
        let stats = img.recover();
        let rec_ns = rec_start.elapsed().as_nanos() as u64;

        s.points += 1;
        s.torn_points += u64::from(img.torn.is_some());
        s.prefix_mismatches += img.diff_committed(programs).len() as u64;
        s.non_idempotent += u64::from(!img.recover().is_noop());
        s.recovery += stats;
        s.worst_blocks_restored = s.worst_blocks_restored.max(stats.blocks_restored);
        s.worst_recovery_wall_ns = s.worst_recovery_wall_ns.max(rec_ns);
        if img.log.is_some() && i < grid_points && !point.torn {
            let records = stats.log_commit_records
                + stats.log_abort_records
                + stats.log_undo_records
                + stats.log_redo_records;
            let point = [point.step.min(total), log_bytes, records, rec_ns];
            s.curve.push(point);
        }
    }
    s.plan_digest = digest.finish();
    s
}

impl CellReport {
    /// The counters as `(key, value)` in report order: the probe's, then
    /// the crash points' when the cell crashes, then the log device's when
    /// it has one.
    fn counters(&self) -> Vec<crate::Counter> {
        let (p, s, rec) = (&self.ptm, &self.crash, &self.crash.recovery);
        let mut c = vec![
            ("total_steps", self.total_steps),
            ("cycles", self.cycles),
            ("commits", self.commits),
            ("aborts", self.aborts),
            ("oracle_mismatches", self.oracle_mismatches),
            ("frame_exhaustions", p.frame_exhaustions),
            ("tav_exhaustions", p.tav_exhaustions),
            ("exhaustion_aborts", p.exhaustion_aborts),
            ("exhaustion_retries", p.exhaustion_retries),
            ("tx_swap_outs", p.tx_swap_outs),
            ("tx_swap_ins", p.tx_swap_ins),
        ];
        if self.cell.crash.is_some() {
            c.extend([
                ("points", s.points),
                ("torn_points", s.torn_points),
                ("prefix_mismatches", s.prefix_mismatches),
                ("non_idempotent", s.non_idempotent),
                ("transactions_discarded", rec.transactions_discarded),
                ("blocks_restored", rec.blocks_restored),
                ("worst_blocks_restored", s.worst_blocks_restored),
                ("torn_repaired", rec.torn_nodes_repaired),
                ("worst_recovery_wall_ns", s.worst_recovery_wall_ns),
            ]);
        }
        if let Some((d, dev)) = &self.run {
            c.extend([
                ("phantom_commits", rec.log_phantom_commits),
                ("replay_mismatches", rec.log_replay_mismatches),
                ("replay_verified", rec.log_replay_verified),
                ("commits_missing", rec.log_commits_missing),
                ("records_discarded", rec.log_records_discarded),
                ("checksum_mismatches", rec.log_checksum_mismatches),
                ("bytes_truncated", rec.log_bytes_truncated),
                ("commit_records", rec.log_commit_records),
                ("abort_records", rec.log_abort_records),
                ("undo_records", rec.log_undo_records),
                ("redo_records", rec.log_redo_records),
                ("torn_appends", s.torn_appends),
                ("lost_appends", s.lost_appends),
                ("early_appends", s.early_appends),
                ("run_commit_records", d.commit_records),
                ("run_ro_fastpath", d.ro_fastpath_commits),
                ("run_forces", d.policy_forces),
                ("run_commit_latency_cycles", d.commit_latency_cycles),
                ("run_log_retries", d.log_retries),
                ("run_backoff_cycles", d.backoff_cycles),
                ("run_throttle_events", d.throttle_events),
                ("run_throttle_cycles", d.throttle_cycles),
                ("max_append_attempts", u64::from(s.max_append_attempts)),
                ("run_transient_errors", dev.transient_errors),
                ("run_stall_events", dev.stall_events),
                ("run_reordered_completions", dev.reordered_completions),
                ("run_bytes_appended", dev.bytes_appended),
            ]);
        }
        c
    }

    fn write(&self, o: &mut Obj) {
        let c = &self.cell;
        o.field("slice", c.slice)
            .field("family", c.family)
            .field("workload", c.workload.name())
            .field("system", c.kind.label())
            .field("fault_plan", c.fault_seed)
            .field("policy", c.log.map(|(policy, _)| policy.label()))
            .field("log_fault_seed", c.log.map(|(_, seed)| seed));
        if c.crash.is_some() {
            o.field("stride", self.crash.stride)
                .field("plan_digest", self.crash.plan_digest);
        }
        for (key, value) in self.counters() {
            o.field(key, value);
        }
        if let Some((d, _)) = &self.run {
            let avg = d.commit_latency_cycles as f64 / d.commit_records.max(1) as f64;
            o.field("avg_commit_latency", Fixed(avg, 2));
            o.arr("curve_step_logbytes_records_recns", |a| {
                for point in &self.crash.curve {
                    a.arr(|t| {
                        for &x in point {
                            t.item(x);
                        }
                    });
                }
            });
        }
        o.field("wall_ns", self.wall_ns);
    }
}

/// Holds one report to every check that applies to it.
///
/// # Panics
///
/// Panics on the first violation, naming the cell.
fn check_cell(r: &CellReport) {
    let (ctx, s) = (r.cell.label(), &r.crash);
    let zero = |count: u64, what: &str| assert_eq!(count, 0, "{ctx}: {what}");
    zero(r.oracle_mismatches, "serializability oracle failed");
    assert_eq!(
        r.invariant_violation, None,
        "{ctx}: stats identity violated"
    );
    zero(
        s.prefix_mismatches,
        "recovered memory diverged from the committed-prefix oracle",
    );
    zero(s.non_idempotent, "recovery was not idempotent");
    zero(
        s.recovery.log_phantom_commits,
        "the log holds commit records for transactions that never committed",
    );
    zero(
        s.recovery.log_replay_mismatches,
        "a live transaction's undo pre-image contradicts recovered memory",
    );
    if matches!(r.cell.log, Some((ForcePolicy::Eager, _))) {
        let missing = s.recovery.log_commits_missing;
        zero(missing, "eager forcing must persist every commit record");
    }
    assert!(
        s.max_append_attempts <= MAX_LOG_RETRIES,
        "{ctx}: bounded-retry proof violated: an append took {} attempts (bound {MAX_LOG_RETRIES})",
        s.max_append_attempts
    );
}

/// Holds every report to every check that applies, and each slice to its
/// coverage claims: a slice that never exercised what it is there to
/// exercise proves nothing.
///
/// # Panics
///
/// Panics on the first violation, naming the cell or slice.
pub fn check(reports: &[CellReport]) {
    reports.iter().for_each(check_cell);
    assert!(
        reports
            .iter()
            .any(|r| r.cell.fault_seed.is_some()
                && r.ptm.frame_exhaustions + r.ptm.tav_exhaustions > 0),
        "faults slice: the seeded plan never drove any cell into resource exhaustion"
    );
    // The rest are claims about the slice totals the report carries.
    let total = |slice: &str, keys: &[&str]| -> u64 {
        let totals = slice_totals(reports, slice);
        keys.iter().map(|key| crate::total(&totals, key)).sum()
    };
    assert!(
        total("crash", &["transactions_discarded"]) > 0,
        "crash slice: no crash point ever caught a live transaction — the sweep is too coarse to mean anything"
    );
    assert!(
        total("crash", &["torn_points"]) > 0,
        "crash slice: no torn point ever applied — the sweep never crashed mid-overflow on a PTM kind"
    );
    assert!(
        total("durable", &["run_transient_errors"]) > 0,
        "durable slice: no transient append error ever fired across the sweep"
    );
    assert!(
        total("durable", &["run_stall_events"]) > 0,
        "durable slice: no full-device stall ever fired across the sweep"
    );
    assert!(
        total("durable", &["run_throttle_events"]) > 0,
        "durable slice: stalls never throttled a commit — the degradation path is untested"
    );
    assert!(
        total("durable", &["run_reordered_completions"]) > 0,
        "durable slice: no flush completion was ever reordered across the sweep"
    );
    assert!(
        total("durable", &["torn_appends", "lost_appends"]) > 0,
        "durable slice: no in-flight append was ever torn or lost at a crash"
    );
    assert!(
        total("durable", &["records_discarded"]) > 0,
        "durable slice: the bounded tail scan never discarded a record — torn tails untested"
    );
    assert!(
        total("durable", &["replay_verified"]) > 0,
        "durable slice: no live transaction's undo pre-image was ever verified"
    );
    assert!(
        total("composed", &["transactions_discarded"]) > 0,
        "composed slice: no crash inside a storm on the faulty log ever caught a live transaction"
    );
}

/// One slice's counters, folded into totals by `fold_totals`.
pub fn slice_totals(reports: &[CellReport], slice: &str) -> Vec<crate::Counter> {
    let cells = reports.iter().filter(|r| r.cell.slice == slice);
    crate::fold_totals(cells.map(CellReport::counters))
}

/// Renders the `BENCH_adversity.json` report.
pub fn render(scale: Scale, fault_seed: u64, reports: &[CellReport]) -> String {
    let plan = seeded_plan(fault_seed);
    json::object(|o| {
        crate::meta::provenance(o);
        o.field("scale", format!("{scale:?}"));
        o.obj("fault_plan", |p| {
            p.field("seed", fault_seed)
                .field("digest", plan.digest())
                .field("events", plan.events.len());
        });
        o.field("crash_seed", CRASH_SEED);
        o.arr("log_fault_seeds", |a| {
            for seed in LOG_FAULT_SEEDS {
                a.item(seed);
            }
        });
        o.arr("cells", |a| {
            for r in reports {
                a.obj(|c| r.write(c));
            }
        });
        crate::write_totals(o, &SLICES, |slice| slice_totals(reports, slice));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: SystemKind) -> Cell {
        Cell::new("test", OVERFLOWING, kind, Scale::Tiny)
    }

    fn logged(policy: ForcePolicy, seed: u64) -> Cell {
        let sel = tiny(SystemKind::SelectPtm(Granularity::Block));
        sel.logged(policy, seed).crashing(8, 0, 0)
    }

    #[test]
    fn faults_slice_is_deduplicated_and_covers_every_family() {
        let cells = faults_slice(Scale::Tiny, 1);
        for pair in cells.chunks(2) {
            assert_eq!(pair[0].fault_seed, None);
            assert_eq!(pair[1].fault_seed, Some(1));
            let same = |c: &&Cell| c.workload == pair[0].workload && c.kind == pair[0].kind;
            assert_eq!(cells.iter().filter(same).count(), 2, "{}", pair[0].label());
        }
        for fam in ["table1", "serial", "fig4", "fig5", "ablation"] {
            assert!(cells.iter().any(|c| c.family == fam), "{fam} missing");
        }
    }

    #[test]
    fn seeded_plan_survives_and_exhausts() {
        let r = run_cell(&tiny(SystemKind::CopyPtm).faulted(DEFAULT_FAULT_SEED));
        check_cell(&r);
        assert!(
            r.ptm.frame_exhaustions + r.ptm.tav_exhaustions > 0,
            "the squeeze never bit: {:?}",
            r.ptm
        );
    }

    #[test]
    fn crash_sweep_is_clean_reproducible_and_covers_endpoints() {
        let r = run_cell(&tiny(SystemKind::CopyPtm).crashing(16, 2, CRASH_SEED));
        check_cell(&r);
        // Grid points double up with torn variants on PTM kinds, plus the
        // two seeded extras.
        assert!(r.crash.points > 2 * (r.total_steps / r.crash.stride));

        // The seeded extras crash inside a fault storm: a one-division grid
        // with many extras is mostly storm points, and must recover just
        // as cleanly.
        let sel = tiny(SystemKind::SelectPtm(Granularity::Block));
        let storm = run_cell(&sel.crashing(1, 12, 7));
        check_cell(&storm);
        assert_eq!(
            storm.crash.points,
            4 + 12,
            "two grid steps, clean and torn, plus extras"
        );
        assert!(
            storm.crash.recovery.transactions_discarded > 0,
            "no storm crash caught a live transaction"
        );

        // The digest reproduces the sweep: same seed, same digest; the
        // seeded extras move with the seed.
        let [again, other] = [7, 8].map(|seed| run_cell(&sel.crashing(1, 12, seed)));
        assert_eq!(again.crash.plan_digest, storm.crash.plan_digest);
        assert_eq!(again.crash.recovery, storm.crash.recovery);
        assert_ne!(other.crash.plan_digest, storm.crash.plan_digest);
    }

    #[test]
    fn fault_seed_defaults_cover_every_emphasis_class() {
        let class = |seed: u64| SplitMix64::new(seed).next_u64() % 4;
        assert_eq!(LOG_FAULT_SEEDS[0], 0, "0 is the fault-free device");
        for (c, &seed) in LOG_FAULT_SEEDS[1..].iter().enumerate() {
            assert_eq!(class(seed), c as u64, "seed {seed} is not of class {c}");
            assert!(
                (1..seed).all(|s| class(s) != c as u64),
                "{seed} is not the first"
            );
        }
    }

    #[test]
    fn log_cells_are_clean_and_eager_forces_every_commit() {
        let eager = run_cell(&logged(ForcePolicy::Eager, 0));
        check_cell(&eager);
        let (dur, _) = eager.run.expect("log cell");
        assert!(dur.commit_records > 0, "the workload never wrote?");
        assert_eq!(dur.policy_forces, dur.commit_records, "eager forces each");
        let curve = &eager.crash.curve;
        assert!(!curve.is_empty());
        for w in curve.windows(2) {
            assert!(w[1][1] >= w[0][1], "the log shrank at a later crash: {w:?}");
        }

        // A faulty seed from the coverage set: whatever it emphasizes, the
        // sweep stays correct and the retry bound holds.
        let lazy = run_cell(&logged(ForcePolicy::Lazy, LOG_FAULT_SEEDS[1]));
        check_cell(&lazy);
        let (dur, _) = lazy.run.expect("log cell");
        assert_eq!(dur.policy_forces, 0, "lazy never forces");
    }

    #[test]
    fn composed_cells_crash_in_storms_on_a_faulty_log() {
        let cells = composed_slice(Scale::Tiny);
        assert_eq!(cells.len(), 8);
        let reports: Vec<CellReport> = cells[..2].iter().map(run_cell).collect();
        reports.iter().for_each(check_cell);
        let totals = slice_totals(&reports, "composed");
        assert_eq!(totals[0], ("cells", 2));
        assert!(totals.contains(&("points", 16)), "8 storm points each");
    }
}
