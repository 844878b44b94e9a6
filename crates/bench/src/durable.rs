//! Durable-log crash sweep (the `durable` binary's engine).
//!
//! Crosses the crash grid with the durability seam: each cell runs a PTM
//! workload with a write-behind [`ptm_mem::LogDevice`] attached, under one
//! [`ForcePolicy`] and one [`LogFaultPlan`] seed, and crashes a fresh
//! machine at every K-th scheduler step (clean and torn). Every point must
//! satisfy the same committed-prefix oracle and idempotence checks as the
//! volatile crash sweep — durability adds latency, redundancy and log
//! reconciliation, never a different answer — plus the log-specific
//! integrity checks: zero phantom commits, zero undo-replay mismatches,
//! and (under eager forcing) zero missing commit records.
//!
//! The fault seeds exercise every injected fault kind: transient append
//! errors (absorbed by bounded retry + exponential backoff), full-device
//! stall windows (commits throttle, never deadlock — proven by the sweep
//! completing with `max_append_attempts` ≤ the retry bound), reordered
//! completions and torn/lost in-flight appends at the crash boundary.

use crate::faults::cell_machine;
use crate::parallel::{CellSpec, CellWorkload};
use ptm_core::durability::{DurabilityConfig, ForcePolicy, MAX_LOG_RETRIES};
use ptm_mem::{LogDevConfig, LogFaultPlan};
use ptm_sim::crash::CrashPlan;
use ptm_sim::{FaultPlan, SystemKind};
use ptm_types::rng::{Fnv1a64, SplitMix64};
use ptm_types::Granularity;
use ptm_workloads::Scale;
use std::time::Instant;

/// One point of the recovery-time-vs-log-size curve.
#[derive(Debug, Clone, Copy)]
pub struct CurvePoint {
    /// The crash step.
    pub step: u64,
    /// Bytes on the log media at the crash (before tail truncation).
    pub log_bytes: u64,
    /// Valid records the recovery scan accepted.
    pub records: u64,
    /// Host wall-clock of the recovery pass, nanoseconds.
    pub recovery_ns: u64,
}

/// Everything one durable cell's crash sweep produces.
#[derive(Debug, Clone)]
pub struct DurableCellReport {
    /// The spec that was swept.
    pub spec: CellSpec,
    /// The force policy under test.
    pub policy: ForcePolicy,
    /// The device fault-plan seed (0 = fault-free).
    pub fault_seed: u64,
    /// Total scheduler steps of the uninterrupted durable run.
    pub total_steps: u64,
    /// Simulated cycles of the uninterrupted durable run (the history
    /// trajectory's work metric).
    pub probe_cycles: u64,
    /// The stride between grid crash points.
    pub stride: u64,
    /// Crash points executed (grid + torn variants).
    pub points: u64,
    /// Points where the torn mode actually tore a live TAV publish.
    pub torn_points: u64,
    /// Oracle mismatches across all points (must be 0).
    pub mismatches: u64,
    /// Points where a second recovery was not a no-op (must be 0).
    pub non_idempotent: u64,
    /// Durable commit records naming uncommitted transactions (must be 0).
    pub phantom_commits: u64,
    /// Live-transaction undo payloads contradicting recovered memory
    /// (must be 0).
    pub replay_mismatches: u64,
    /// Live-transaction undo payloads verified word-identical.
    pub replay_verified: u64,
    /// Writing commits whose record did not survive, summed over points
    /// (must be 0 under eager; the lazy/group trade-off otherwise).
    pub commits_missing: u64,
    /// Torn-tail records discarded by the bounded scan, summed.
    pub records_discarded: u64,
    /// Discarded frames that failed their checksum, summed.
    pub checksum_mismatches: u64,
    /// Bytes truncated off log tails, summed.
    pub bytes_truncated: u64,
    /// Valid commit/abort/undo/redo records recovered, summed.
    pub commit_records: u64,
    /// Valid abort records recovered, summed.
    pub abort_records: u64,
    /// Valid undo records recovered, summed.
    pub undo_records: u64,
    /// Valid redo records recovered, summed.
    pub redo_records: u64,
    /// In-flight appends resolved torn at a crash, summed.
    pub torn_appends: u64,
    /// In-flight appends resolved lost at a crash, summed.
    pub lost_appends: u64,
    /// In-flight appends resolved durable (early) at a crash, summed.
    pub early_appends: u64,
    /// Full-run (uncrashed probe) committed transactions.
    pub run_commits: u64,
    /// Full-run commit records appended.
    pub run_commit_records: u64,
    /// Full-run read-only fast-path commits (no record, no force).
    pub run_ro_fastpath: u64,
    /// Full-run policy forces.
    pub run_forces: u64,
    /// Full-run extra commit latency charged by durability, cycles.
    pub run_commit_latency_cycles: u64,
    /// Full-run transient-error retries.
    pub run_log_retries: u64,
    /// Full-run backoff cycles after transient errors.
    pub run_backoff_cycles: u64,
    /// Full-run stall throttle events (deferred commits + waited appends).
    pub run_throttle_events: u64,
    /// Full-run cycles spent throttled on stalls.
    pub run_throttle_cycles: u64,
    /// Worst append attempts across the *entire sweep* — the bounded-retry
    /// proof (≤ [`MAX_LOG_RETRIES`], asserted).
    pub max_append_attempts: u32,
    /// Full-run device-side transient rejections.
    pub run_transient_errors: u64,
    /// Full-run device stall windows opened.
    pub run_stall_events: u64,
    /// Full-run out-of-order completions.
    pub run_reordered_completions: u64,
    /// Full-run bytes appended to the device.
    pub run_bytes_appended: u64,
    /// Recovery-time-vs-log-size curve, one point per grid crash.
    pub curve: Vec<CurvePoint>,
    /// FNV-1a digest over every executed plan plus the fault plan.
    pub plan_digest: u64,
    /// Host wall-clock for the whole sweep, nanoseconds.
    pub wall_ns: u64,
}

impl DurableCellReport {
    /// Mean extra commit latency a writing commit paid, cycles.
    pub fn avg_commit_latency(&self) -> f64 {
        self.run_commit_latency_cycles as f64 / self.run_commit_records.max(1) as f64
    }
}

/// The durable-sweep grid: both PTM policies at block granularity, on the
/// overflowing synthetic workload (the one that exercises undo logging).
pub fn durable_cells(scale: Scale) -> Vec<CellSpec> {
    [
        SystemKind::CopyPtm,
        SystemKind::SelectPtm(Granularity::Block),
    ]
    .into_iter()
    .map(|kind| CellSpec {
        family: "durable",
        workload: CellWorkload::SyntheticOverflowing(3),
        kind,
        scale,
    })
    .collect()
}

/// The three force policies every sweep crosses.
pub fn sweep_policies() -> [ForcePolicy; 3] {
    [ForcePolicy::Eager, ForcePolicy::Lazy, ForcePolicy::Group(4)]
}

/// One fault seed per emphasis class of [`LogFaultPlan::from_seed`] (the
/// generator rotates which fault kind dominates with the seed), so the
/// seed set provably covers transient, stall, reorder and torn injection.
pub fn default_fault_seeds() -> [u64; 4] {
    let mut out = [0u64; 4];
    let mut found = [false; 4];
    let mut seed = 1u64;
    while found.iter().any(|f| !f) {
        let class = (SplitMix64::new(seed).next_u64() % 4) as usize;
        if !found[class] {
            found[class] = true;
            out[class] = seed;
        }
        seed += 1;
    }
    out
}

/// Parses a fault seed, decimal or `0x`-hex, case-insensitively. Unknown
/// values are a hard error naming the offender — a typo must not silently
/// run a different fault plan than the one under test.
pub fn parse_fault_seed(value: &str) -> Result<u64, String> {
    let lower = value.to_ascii_lowercase();
    let parsed = match lower.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => lower.parse(),
    };
    parsed.map_err(|_| {
        format!("invalid PTM_LOG_FAULT_SEED value {value:?}: expected a decimal or 0x-hex u64")
    })
}

/// The fault seeds to sweep: the provable-coverage defaults, or a single
/// seed from `PTM_LOG_FAULT_SEED`.
///
/// # Panics
///
/// Panics on an unparsable `PTM_LOG_FAULT_SEED`.
pub fn fault_seeds_from_env() -> Vec<u64> {
    match std::env::var("PTM_LOG_FAULT_SEED") {
        Ok(v) => vec![parse_fault_seed(&v).unwrap_or_else(|e| panic!("{e}"))],
        Err(_) => default_fault_seeds().to_vec(),
    }
}

/// The force policies to sweep: all three, or a single one from
/// `PTM_FORCE_POLICY` (case-insensitive; `eager`, `lazy`, `group`,
/// `group:N`).
///
/// # Panics
///
/// Panics on an unrecognized `PTM_FORCE_POLICY` value.
pub fn force_policies_from_env() -> Vec<ForcePolicy> {
    match std::env::var("PTM_FORCE_POLICY") {
        Ok(v) => vec![ptm_core::parse_force_policy(&v).unwrap_or_else(|e| panic!("{e}"))],
        Err(_) => sweep_policies().to_vec(),
    }
}

/// The device configuration the sweep runs: realistic latencies, so force
/// policies actually differ in commit cost.
fn sweep_device() -> DurabilityConfig {
    DurabilityConfig {
        policy: ForcePolicy::Eager, // overwritten per sweep
        dev: LogDevConfig::realistic(),
        faults: LogFaultPlan::none(),
    }
}

fn durable_machine(
    spec: &CellSpec,
    policy: ForcePolicy,
    fault_seed: u64,
) -> (ptm_sim::Machine, Vec<ptm_sim::ThreadProgram>) {
    let (mut m, programs) = cell_machine(spec);
    m.enable_durability(DurabilityConfig {
        policy,
        faults: LogFaultPlan::from_seed(fault_seed),
        ..sweep_device()
    });
    (m, programs)
}

/// Sweeps one durable cell: a full probe run for the per-policy commit
/// latency numbers and the step count, then a crash at every `stride`-th
/// step (PTM grid points double up with torn-metadata variants), recovery,
/// oracle check, idempotence check and log reconciliation.
///
/// # Panics
///
/// Panics if an append ever needs more than [`MAX_LOG_RETRIES`] attempts
/// (the bounded-retry contract) or a point's run stops making progress.
pub fn sweep_durable_cell(
    spec: &CellSpec,
    policy: ForcePolicy,
    fault_seed: u64,
    stride_override: Option<u64>,
) -> DurableCellReport {
    let sweep_start = Instant::now();

    // Probe: the uninterrupted durable run. Its counters are the
    // commit-latency-vs-policy data, and its step count sizes the grid.
    let (total_steps, probe) = {
        let (mut m, _) = durable_machine(spec, policy, fault_seed);
        let img = m.run_until_crash(&CrashPlan::at_step(u64::MAX), &FaultPlan::empty());
        assert!(img.finished, "probe run must complete");
        let dur = *m.durable_stats().expect("durable machine");
        let dev = *m.log_dev_stats().expect("durable machine");
        let cycles = m.stats().cycles;
        (img.step, (img.commit_log.len() as u64, dur, dev, cycles))
    };
    let (run_commits, dur, dev, probe_cycles) = probe;
    let stride = stride_override.unwrap_or((total_steps / 8).max(1)).max(1);

    let mut plans = Vec::new();
    let mut step = 0;
    loop {
        plans.push(CrashPlan::at_step(step));
        plans.push(CrashPlan::torn_at_step(step));
        if step >= total_steps {
            break;
        }
        step = (step + stride).min(total_steps);
    }

    let faults = LogFaultPlan::from_seed(fault_seed);
    let mut digest = Fnv1a64::new();
    digest.write_u64(fault_seed);
    digest.write_u64(u64::from(faults.transient_pct));
    digest.write_u64(u64::from(faults.stall_pct));
    digest.write_u64(u64::from(faults.reorder_pct));
    digest.write_u64(u64::from(faults.torn_pct));

    let mut r = DurableCellReport {
        spec: *spec,
        policy,
        fault_seed,
        total_steps,
        probe_cycles,
        stride,
        points: 0,
        torn_points: 0,
        mismatches: 0,
        non_idempotent: 0,
        phantom_commits: 0,
        replay_mismatches: 0,
        replay_verified: 0,
        commits_missing: 0,
        records_discarded: 0,
        checksum_mismatches: 0,
        bytes_truncated: 0,
        commit_records: 0,
        abort_records: 0,
        undo_records: 0,
        redo_records: 0,
        torn_appends: 0,
        lost_appends: 0,
        early_appends: 0,
        run_commits,
        run_commit_records: dur.commit_records,
        run_ro_fastpath: dur.ro_fastpath_commits,
        run_forces: dur.policy_forces,
        run_commit_latency_cycles: dur.commit_latency_cycles,
        run_log_retries: dur.log_retries,
        run_backoff_cycles: dur.backoff_cycles,
        run_throttle_events: dur.throttle_events,
        run_throttle_cycles: dur.throttle_cycles,
        max_append_attempts: dur.max_append_attempts,
        run_transient_errors: dev.transient_errors,
        run_stall_events: dev.stall_events,
        run_reordered_completions: dev.reordered_completions,
        run_bytes_appended: dev.bytes_appended,
        curve: Vec::new(),
        plan_digest: 0,
        wall_ns: 0,
    };

    for plan in &plans {
        digest.write_u64(plan.digest());
        let (mut m, programs) = durable_machine(spec, policy, fault_seed);
        let mut img = m.run_until_crash(plan, &FaultPlan::empty());
        let log = img.log.as_ref().expect("durable crash image carries a log");
        let log_bytes = log.bytes.len() as u64;
        r.torn_appends += log.torn_appends;
        r.lost_appends += log.lost_appends;
        r.early_appends += log.early_appends;
        let point_dur = img.dur.expect("durable crash image carries counters");
        r.max_append_attempts = r.max_append_attempts.max(point_dur.max_append_attempts);

        let rec_start = Instant::now();
        let stats = img.recover();
        let rec_ns = rec_start.elapsed().as_nanos() as u64;

        r.points += 1;
        r.torn_points += u64::from(img.torn.is_some());
        r.mismatches += img.diff_committed(&programs).len() as u64;
        r.non_idempotent += u64::from(!img.recover().is_noop());
        r.phantom_commits += stats.log_phantom_commits;
        r.replay_mismatches += stats.log_replay_mismatches;
        r.replay_verified += stats.log_replay_verified;
        r.commits_missing += stats.log_commits_missing;
        r.records_discarded += stats.log_records_discarded;
        r.checksum_mismatches += stats.log_checksum_mismatches;
        r.bytes_truncated += stats.log_bytes_truncated;
        r.commit_records += stats.log_commit_records;
        r.abort_records += stats.log_abort_records;
        r.undo_records += stats.log_undo_records;
        r.redo_records += stats.log_redo_records;
        if !plan.torn {
            r.curve.push(CurvePoint {
                step: plan.step.min(total_steps),
                log_bytes,
                records: stats.log_commit_records
                    + stats.log_abort_records
                    + stats.log_undo_records
                    + stats.log_redo_records,
                recovery_ns: rec_ns,
            });
        }
    }

    assert!(
        r.max_append_attempts <= MAX_LOG_RETRIES,
        "bounded-retry proof violated: an append took {} attempts (bound {MAX_LOG_RETRIES})",
        r.max_append_attempts
    );
    r.plan_digest = digest.finish();
    r.wall_ns = sweep_start.elapsed().as_nanos() as u64;
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CellSpec {
        CellSpec {
            family: "durable",
            workload: CellWorkload::SyntheticOverflowing(3),
            kind: SystemKind::SelectPtm(Granularity::Block),
            scale: Scale::Tiny,
        }
    }

    #[test]
    fn fault_seed_defaults_cover_every_emphasis_class() {
        let seeds = default_fault_seeds();
        let mut classes: Vec<u64> = seeds
            .iter()
            .map(|s| SplitMix64::new(*s).next_u64() % 4)
            .collect();
        classes.sort_unstable();
        assert_eq!(classes, vec![0, 1, 2, 3]);
        assert!(seeds.iter().all(|s| *s != 0), "0 is the fault-free plan");
    }

    #[test]
    fn parse_fault_seed_accepts_decimal_and_hex_and_hard_errors() {
        assert_eq!(parse_fault_seed("42"), Ok(42));
        assert_eq!(parse_fault_seed("0xFF"), Ok(255));
        assert_eq!(parse_fault_seed("0Xff"), Ok(255));
        let err = parse_fault_seed("bogus").unwrap_err();
        assert!(err.contains("bogus"), "error names the offender: {err}");
    }

    #[test]
    fn eager_zero_fault_sweep_is_fully_clean() {
        let r = sweep_durable_cell(&spec(), ForcePolicy::Eager, 0, None);
        assert_eq!(r.mismatches, 0, "oracle failed");
        assert_eq!(r.non_idempotent, 0, "recovery not idempotent");
        assert_eq!(r.phantom_commits, 0);
        assert_eq!(r.replay_mismatches, 0);
        assert_eq!(r.commits_missing, 0, "eager forcing lost a commit record");
        assert!(r.run_commit_records > 0, "the workload never wrote?");
        assert_eq!(r.run_forces, r.run_commit_records, "eager forces each");
        assert!(r.points > 0 && !r.curve.is_empty());
    }

    #[test]
    fn faulty_lazy_sweep_survives_with_bounded_retries() {
        // A seed from the coverage set: whatever it emphasizes, the sweep
        // must stay correct and the retry bound must hold.
        let seed = default_fault_seeds()[0];
        let r = sweep_durable_cell(&spec(), ForcePolicy::Lazy, seed, None);
        assert_eq!(r.mismatches, 0, "oracle failed under faults");
        assert_eq!(r.non_idempotent, 0);
        assert_eq!(r.phantom_commits, 0);
        assert_eq!(r.replay_mismatches, 0);
        assert!(r.max_append_attempts <= MAX_LOG_RETRIES);
        assert_eq!(r.run_forces, 0, "lazy never forces");
    }

    #[test]
    fn curve_log_sizes_are_monotone_in_the_crash_step() {
        let r = sweep_durable_cell(&spec(), ForcePolicy::Eager, 0, None);
        for w in r.curve.windows(2) {
            assert!(
                w[1].log_bytes >= w[0].log_bytes,
                "log can only grow with later crashes: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }
}
