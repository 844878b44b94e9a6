//! The durable-PTM crash sweep: attaches the write-behind log device to
//! every PTM cell, crosses crash-at-every-Kth-step (clean and torn) with
//! each log-force policy and each fault-plan seed, recovers, and asserts
//! the committed-prefix oracle, recovery idempotence and the log integrity
//! invariants (no phantom commits, no undo-replay mismatches, no missing
//! commit records under eager forcing, appends bounded by the retry
//! budget). Emits `BENCH_durable.json` with per-policy commit-latency
//! numbers, recovery-time-vs-log-size curves and the fault counters.
//!
//! ```text
//! cargo run -p ptm-bench --release --bin durable
//! PTM_SCALE=tiny cargo run -p ptm-bench --release --bin durable
//! PTM_FORCE_POLICY=group:8 PTM_LOG_FAULT_SEED=0x2a PTM_DURABLE_K=50 \
//!     cargo run -p ptm-bench --release --bin durable
//! ```

use ptm_bench::durable::{
    durable_cells, fault_seeds_from_env, force_policies_from_env, sweep_durable_cell,
    DurableCellReport,
};
use ptm_bench::scale_from_env;
use ptm_core::durability::ForcePolicy;
use ptm_types::rng::SplitMix64;
use std::fmt::Write as _;

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|s| s.parse().ok())
}

fn main() {
    let scale = scale_from_env();
    let stride = env_u64("PTM_DURABLE_K");
    let policies = force_policies_from_env();
    // Seed 0 (the fault-free device) always runs; the fault seeds cover
    // every injection kind by construction.
    let mut seeds = vec![0u64];
    seeds.extend(fault_seeds_from_env());
    let filtered =
        std::env::var("PTM_FORCE_POLICY").is_ok() || std::env::var("PTM_LOG_FAULT_SEED").is_ok();
    let cells = durable_cells(scale);
    eprintln!(
        "durable: {} cells x {} policies x {} seeds at {scale:?}, K={}",
        cells.len(),
        policies.len(),
        seeds.len(),
        stride.map_or("auto".to_string(), |k| k.to_string()),
    );

    let mut reports: Vec<DurableCellReport> = Vec::new();
    for spec in &cells {
        for &policy in &policies {
            for &seed in &seeds {
                let r = sweep_durable_cell(spec, policy, seed, stride);
                eprintln!(
                    "durable: {}/{} {} seed {:#x} — {} points ({} torn), \
                     {} commit records, avg commit latency {:.1} cyc, \
                     worst append attempts {}",
                    r.spec.workload.name(),
                    r.spec.kind.label(),
                    r.policy,
                    r.fault_seed,
                    r.points,
                    r.torn_points,
                    r.run_commit_records,
                    r.avg_commit_latency(),
                    r.max_append_attempts,
                );
                reports.push(r);
            }
        }
    }

    for r in &reports {
        let ctx = format!(
            "{}/{} {} seed {:#x}",
            r.spec.workload.name(),
            r.spec.kind.label(),
            r.policy,
            r.fault_seed
        );
        assert_eq!(
            r.mismatches, 0,
            "{ctx}: recovered memory diverged from the committed-prefix oracle"
        );
        assert_eq!(r.non_idempotent, 0, "{ctx}: recovery was not idempotent");
        assert_eq!(
            r.phantom_commits, 0,
            "{ctx}: the log holds commit records for transactions that never committed"
        );
        assert_eq!(
            r.replay_mismatches, 0,
            "{ctx}: a live transaction's undo pre-image contradicts recovered memory"
        );
        if r.policy == ForcePolicy::Eager {
            assert_eq!(
                r.commits_missing, 0,
                "{ctx}: eager forcing must persist every commit record"
            );
        }
    }

    // Coverage: with the default seed set, every fault kind must actually
    // fire somewhere and every torn-tail path must actually run. A
    // filtered run (single policy / single seed) exercises whatever the
    // knobs picked and skips the whole-matrix claims.
    if !filtered {
        let sum = |f: fn(&DurableCellReport) -> u64| reports.iter().map(f).sum::<u64>();
        assert!(
            sum(|r| r.run_transient_errors) > 0,
            "no transient append error ever fired across the sweep"
        );
        assert!(
            sum(|r| r.run_stall_events) > 0,
            "no full-device stall ever fired across the sweep"
        );
        assert!(
            sum(|r| r.run_throttle_events) > 0,
            "stalls never throttled a commit — the degradation path is untested"
        );
        assert!(
            sum(|r| r.run_reordered_completions) > 0,
            "no flush completion was ever reordered across the sweep"
        );
        assert!(
            sum(|r| r.torn_appends + r.lost_appends) > 0,
            "no in-flight append was ever torn or lost at a crash"
        );
        assert!(
            sum(|r| r.records_discarded) > 0,
            "the bounded tail scan never discarded a record — torn tails untested"
        );
        assert!(
            sum(|r| r.replay_verified) > 0,
            "no live transaction's undo pre-image was ever verified"
        );
    }
    let worst_attempts = reports
        .iter()
        .map(|r| r.max_append_attempts)
        .max()
        .unwrap_or(0);
    let points: u64 = reports.iter().map(|r| r.points).sum();
    eprintln!(
        "durable: all {} sweeps clean — {points} crash points, worst append attempts {worst_attempts}",
        reports.len()
    );

    let policy_label = match &policies[..] {
        [one] => one.label(),
        _ => "mixed".to_string(),
    };
    let out = std::env::var("PTM_BENCH_OUT").unwrap_or_else(|_| "BENCH_durable.json".to_string());
    let json = render_json(scale, stride, &policy_label, &seeds, &reports);
    std::fs::write(&out, json).expect("write benchmark report");
    eprintln!("durable: wrote {out}");
}

fn render_json(
    scale: ptm_workloads::Scale,
    stride: Option<u64>,
    policy_label: &str,
    seeds: &[u64],
    reports: &[DurableCellReport],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&ptm_bench::meta::json_fields());
    let _ = writeln!(s, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(s, "  \"force_policy\": \"{policy_label}\",");
    let _ = writeln!(
        s,
        "  \"stride\": {},",
        stride.map_or("\"auto\"".to_string(), |k| k.to_string())
    );
    let seed_list: Vec<String> = seeds.iter().map(|x| x.to_string()).collect();
    let _ = writeln!(s, "  \"fault_seeds\": [{}],", seed_list.join(", "));
    let _ = writeln!(
        s,
        "  \"fault_seed_classes\": [{}],",
        seeds
            .iter()
            .map(|x| if *x == 0 {
                "\"none\"".to_string()
            } else {
                let c = SplitMix64::new(*x).next_u64() % 4;
                format!(
                    "\"{}\"",
                    ["transient", "stall", "reorder", "torn"][c as usize]
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(s, "  \"cells\": [");
    for (i, r) in reports.iter().enumerate() {
        let comma = if i + 1 == reports.len() { "" } else { "," };
        let curve: Vec<String> = r
            .curve
            .iter()
            .map(|p| {
                format!(
                    "[{}, {}, {}, {}]",
                    p.step, p.log_bytes, p.records, p.recovery_ns
                )
            })
            .collect();
        let _ = writeln!(
            s,
            "    {{\"family\": \"{}\", \"workload\": \"{}\", \"system\": \"{}\", \
             \"policy\": \"{}\", \"fault_seed\": {}, \
             \"total_steps\": {}, \"cycles\": {}, \"stride\": {}, \"points\": {}, \
             \"torn_points\": {}, \"oracle_mismatches\": {}, \"non_idempotent\": {}, \
             \"phantom_commits\": {}, \"replay_mismatches\": {}, \"replay_verified\": {}, \
             \"commits_missing\": {}, \"records_discarded\": {}, \
             \"checksum_mismatches\": {}, \"bytes_truncated\": {}, \
             \"commit_records\": {}, \"abort_records\": {}, \"undo_records\": {}, \
             \"redo_records\": {}, \"torn_appends\": {}, \"lost_appends\": {}, \
             \"early_appends\": {}, \"run_commits\": {}, \"run_commit_records\": {}, \
             \"run_ro_fastpath\": {}, \"run_forces\": {}, \
             \"run_commit_latency_cycles\": {}, \"avg_commit_latency\": {:.2}, \
             \"run_log_retries\": {}, \"run_backoff_cycles\": {}, \
             \"run_throttle_events\": {}, \"run_throttle_cycles\": {}, \
             \"max_append_attempts\": {}, \"run_transient_errors\": {}, \
             \"run_stall_events\": {}, \"run_reordered_completions\": {}, \
             \"run_bytes_appended\": {}, \
             \"curve_step_logbytes_records_recns\": [{}], \
             \"plan_digest\": {}, \"wall_ns\": {}}}{comma}",
            r.spec.family,
            r.spec.workload.name(),
            r.spec.kind.label(),
            r.policy,
            r.fault_seed,
            r.total_steps,
            r.probe_cycles,
            r.stride,
            r.points,
            r.torn_points,
            r.mismatches,
            r.non_idempotent,
            r.phantom_commits,
            r.replay_mismatches,
            r.replay_verified,
            r.commits_missing,
            r.records_discarded,
            r.checksum_mismatches,
            r.bytes_truncated,
            r.commit_records,
            r.abort_records,
            r.undo_records,
            r.redo_records,
            r.torn_appends,
            r.lost_appends,
            r.early_appends,
            r.run_commits,
            r.run_commit_records,
            r.run_ro_fastpath,
            r.run_forces,
            r.run_commit_latency_cycles,
            r.avg_commit_latency(),
            r.run_log_retries,
            r.run_backoff_cycles,
            r.run_throttle_events,
            r.run_throttle_cycles,
            r.max_append_attempts,
            r.run_transient_errors,
            r.run_stall_events,
            r.run_reordered_completions,
            r.run_bytes_appended,
            curve.join(", "),
            r.plan_digest,
            r.wall_ns,
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"totals\": {{");
    let _ = writeln!(s, "    \"sweeps\": {},", reports.len());
    let sum = |f: fn(&DurableCellReport) -> u64| reports.iter().map(f).sum::<u64>();
    let _ = writeln!(s, "    \"points\": {},", sum(|r| r.points));
    let _ = writeln!(s, "    \"torn_points\": {},", sum(|r| r.torn_points));
    let _ = writeln!(s, "    \"commit_records\": {},", sum(|r| r.commit_records));
    let _ = writeln!(
        s,
        "    \"records_discarded\": {},",
        sum(|r| r.records_discarded)
    );
    let _ = writeln!(
        s,
        "    \"checksum_mismatches\": {},",
        sum(|r| r.checksum_mismatches)
    );
    let _ = writeln!(
        s,
        "    \"commits_missing\": {},",
        sum(|r| r.commits_missing)
    );
    let _ = writeln!(
        s,
        "    \"replay_verified\": {},",
        sum(|r| r.replay_verified)
    );
    let _ = writeln!(
        s,
        "    \"transient_errors\": {},",
        sum(|r| r.run_transient_errors)
    );
    let _ = writeln!(s, "    \"stall_events\": {},", sum(|r| r.run_stall_events));
    let _ = writeln!(
        s,
        "    \"throttle_events\": {},",
        sum(|r| r.run_throttle_events)
    );
    let _ = writeln!(
        s,
        "    \"reordered_completions\": {},",
        sum(|r| r.run_reordered_completions)
    );
    let _ = writeln!(
        s,
        "    \"torn_or_lost_appends\": {},",
        sum(|r| r.torn_appends + r.lost_appends)
    );
    let worst = reports
        .iter()
        .map(|r| r.max_append_attempts)
        .max()
        .unwrap_or(0);
    let _ = writeln!(s, "    \"max_append_attempts\": {worst},");
    let _ = writeln!(s, "    \"oracle_mismatches\": 0,");
    let _ = writeln!(s, "    \"non_idempotent\": 0,");
    let _ = writeln!(s, "    \"phantom_commits\": 0,");
    let _ = writeln!(s, "    \"replay_mismatches\": 0");
    let _ = writeln!(s, "  }}");
    s.push_str("}\n");
    s
}
