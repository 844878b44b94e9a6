//! The crash-recovery harness: for every transactional system kind, crashes
//! each workload at every K-th scheduler step (clean and torn) and at
//! seeded extra steps inside a fault storm, recovers the durable image,
//! and asserts word-identical committed memory against the committed-prefix
//! serializability oracle — plus idempotence of the recovery pass. Emits
//! `BENCH_crash.json`.
//!
//! ```text
//! cargo run -p ptm-bench --release --bin crash
//! PTM_SCALE=tiny cargo run -p ptm-bench --release --bin crash
//! PTM_CRASH_K=500 PTM_CRASH_SEED=7 PTM_BENCH_OUT=/tmp/c.json \
//!     cargo run -p ptm-bench --release --bin crash
//! ```

use ptm_bench::crash::{crash_cells, sweep_cell, CrashCellReport};
use ptm_bench::scale_from_env;
use std::fmt::Write as _;

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|s| s.parse().ok())
}

fn main() {
    let scale = scale_from_env();
    let seed = env_u64("PTM_CRASH_SEED").unwrap_or(0xC1A54);
    // Explicit K overrides the per-cell default of total/16.
    let stride = env_u64("PTM_CRASH_K");
    let extra = env_u64("PTM_CRASH_EXTRA").unwrap_or(4);
    let cells = crash_cells(scale);
    eprintln!(
        "crash: {} cells at {scale:?}, seed {seed:#x}, K={}",
        cells.len(),
        stride.map_or("auto".to_string(), |k| k.to_string()),
    );

    let reports: Vec<CrashCellReport> = cells
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            // Decorrelate the per-cell random extras while keeping the whole
            // sweep a pure function of the one reported seed.
            let cell_seed = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let r = sweep_cell(spec, stride, cell_seed, extra);
            eprintln!(
                "crash: {}/{} — {} points ({} torn), {} discarded, worst restore {} blocks",
                r.spec.workload.name(),
                r.spec.kind.label(),
                r.points,
                r.torn_points,
                r.transactions_discarded,
                r.worst_blocks_restored,
            );
            r
        })
        .collect();

    for r in &reports {
        let ctx = format!("{}/{}", r.spec.workload.name(), r.spec.kind.label());
        assert_eq!(
            r.mismatches, 0,
            "{ctx}: recovered memory diverged from the committed-prefix oracle"
        );
        assert_eq!(r.non_idempotent, 0, "{ctx}: recovery was not idempotent");
    }
    let discarded: u64 = reports.iter().map(|r| r.transactions_discarded).sum();
    let torn: u64 = reports.iter().map(|r| r.torn_points).sum();
    assert!(
        discarded > 0,
        "no crash point ever caught a live transaction — the sweep is too coarse to mean anything"
    );
    assert!(
        torn > 0,
        "no torn point ever applied — the sweep never crashed mid-overflow on a PTM kind"
    );
    let points: u64 = reports.iter().map(|r| r.points).sum();
    eprintln!(
        "crash: all {} cells clean — {points} crash points, {torn} torn, {discarded} live \
         transactions discarded and recovered",
        reports.len()
    );

    let json = render_json(scale, seed, stride, extra, &reports);
    let out = std::env::var("PTM_BENCH_OUT").unwrap_or_else(|_| "BENCH_crash.json".to_string());
    std::fs::write(&out, json).expect("write benchmark report");
    eprintln!("crash: wrote {out}");
}

fn render_json(
    scale: ptm_workloads::Scale,
    seed: u64,
    stride: Option<u64>,
    extra: u64,
    reports: &[CrashCellReport],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&ptm_bench::meta::json_fields());
    let _ = writeln!(s, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(s, "  \"plan_seed\": {seed},");
    let _ = writeln!(
        s,
        "  \"stride\": {},",
        stride.map_or("\"auto\"".to_string(), |k| k.to_string())
    );
    let _ = writeln!(s, "  \"extra_random_points\": {extra},");
    let _ = writeln!(s, "  \"cells\": [");
    for (i, r) in reports.iter().enumerate() {
        let comma = if i + 1 == reports.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"family\": \"{}\", \"workload\": \"{}\", \"system\": \"{}\", \
             \"total_steps\": {}, \"stride\": {}, \"points\": {}, \"torn_points\": {}, \
             \"oracle_mismatches\": {}, \"non_idempotent\": {}, \
             \"transactions_discarded\": {}, \"blocks_restored\": {}, \
             \"worst_blocks_restored\": {}, \"torn_repaired\": {}, \
             \"recovery_wall_ns\": {}, \"worst_recovery_wall_ns\": {}, \
             \"plan_digest\": {}}}{comma}",
            r.spec.family,
            r.spec.workload.name(),
            r.spec.kind.label(),
            r.total_steps,
            r.stride,
            r.points,
            r.torn_points,
            r.mismatches,
            r.non_idempotent,
            r.transactions_discarded,
            r.blocks_restored,
            r.worst_blocks_restored,
            r.torn_repaired,
            r.recovery_wall_ns,
            r.worst_recovery_wall_ns,
            r.plan_digest,
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"totals\": {{");
    let _ = writeln!(s, "    \"cells\": {},", reports.len());
    let points: u64 = reports.iter().map(|r| r.points).sum();
    let torn: u64 = reports.iter().map(|r| r.torn_points).sum();
    let discarded: u64 = reports.iter().map(|r| r.transactions_discarded).sum();
    let restored: u64 = reports.iter().map(|r| r.blocks_restored).sum();
    let worst_restored = reports
        .iter()
        .map(|r| r.worst_blocks_restored)
        .max()
        .unwrap_or(0);
    let worst_rec_ns = reports
        .iter()
        .map(|r| r.worst_recovery_wall_ns)
        .max()
        .unwrap_or(0);
    let repaired: u64 = reports.iter().map(|r| r.torn_repaired).sum();
    let _ = writeln!(s, "    \"points\": {points},");
    let _ = writeln!(s, "    \"torn_points\": {torn},");
    let _ = writeln!(s, "    \"transactions_discarded\": {discarded},");
    let _ = writeln!(s, "    \"blocks_restored\": {restored},");
    let _ = writeln!(s, "    \"worst_blocks_restored\": {worst_restored},");
    let _ = writeln!(s, "    \"torn_repaired\": {repaired},");
    let _ = writeln!(s, "    \"worst_recovery_wall_ns\": {worst_rec_ns},");
    let _ = writeln!(s, "    \"oracle_mismatches\": 0,");
    let _ = writeln!(s, "    \"non_idempotent\": 0");
    let _ = writeln!(s, "  }}");
    s.push_str("}\n");
    s
}
