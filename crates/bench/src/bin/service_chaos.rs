//! Service-chaos drill: crash-recovery sweep (force policies × log-fault
//! seed classes × every-K-steps, each point oracle-checked), shard-storm
//! degradation cells, and a bounded-queue backpressure flood. Emits
//! `BENCH_service_chaos.json` on the history-trajectory scheme with
//! `force_policy: "mixed"` (the sweep spans all policies; gate with
//! `bench_gate --service`).
//!
//! ```text
//! cargo run -p ptm-bench --release --bin service_chaos
//! PTM_SCALE=tiny PTM_CHAOS_K=23 cargo run -p ptm-bench --release --bin service_chaos
//! PTM_BENCH_OUT=/tmp/x.json cargo run -p ptm-bench --release --bin service_chaos
//! ```
//!
//! At `small` scale and the default stride the sweep exercises ≥ 200
//! crash points; the binary aborts if it does not.

use ptm_bench::history::{prior_entries, render_history_or_die, HistoryEntry};
use ptm_bench::scale_from_env;
use ptm_bench::service_chaos::{
    chaos_stream_config, run_backpressure, run_crash_sweep, run_degradation, BackpressureReport,
    ChaosCell, DegradationCell, FAULT_SEEDS, MAX_BATCH, POLICIES, SHARDS,
};
use ptm_workloads::Scale;
use std::fmt::Write as _;

/// Default crash-sweep stride (pipeline steps between crash points).
const DEFAULT_K: u64 = 12;

fn main() {
    let scale = scale_from_env();
    let every_k = match std::env::var("PTM_CHAOS_K") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("PTM_CHAOS_K must be a positive integer, got {v:?}")),
        Err(_) => DEFAULT_K,
    };
    let host_cores = ptm_bench::meta::host_cores();
    let wcfg = chaos_stream_config(scale);
    eprintln!(
        "service_chaos: {} policies x {} fault seeds at {scale:?} \
         ({} accounts, {} txs/stream, batch {MAX_BATCH}, stride {every_k}), {host_cores} host core(s)",
        POLICIES.len(),
        FAULT_SEEDS.len(),
        wcfg.accounts,
        wcfg.txs,
    );

    let t0 = std::time::Instant::now();
    let cells = run_crash_sweep(scale, every_k);
    let points: u64 = cells.iter().map(|c| c.points).sum();
    eprintln!(
        "service_chaos: {points} crash points oracle-clean across {} cells",
        cells.len()
    );
    if scale != Scale::Tiny && every_k <= DEFAULT_K {
        assert!(
            points >= 200,
            "acceptance floor: {points} crash points < 200 at {scale:?}"
        );
    }

    let degradation = run_degradation(scale);
    eprintln!(
        "service_chaos: {} storm cells completed every tx (degraded, never wedged)",
        degradation.len()
    );
    let backpressure = run_backpressure(scale);
    eprintln!(
        "service_chaos: flood shed {}/{} with retry hints <= {} ms",
        backpressure.shed, backpressure.offered, backpressure.max_retry_after_ms
    );
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let out =
        std::env::var("PTM_BENCH_OUT").unwrap_or_else(|_| "BENCH_service_chaos.json".to_string());
    let prior = match std::env::var("PTM_BENCH_HISTORY").as_deref() {
        Ok("none") => Vec::new(),
        Ok(path) => prior_entries(&std::fs::read_to_string(path).unwrap_or_default()),
        Err(_) => {
            let from_out = std::fs::read_to_string(&out).unwrap_or_default();
            let text = if prior_entries(&from_out).is_empty() {
                std::fs::read_to_string("BENCH_service_chaos.json").unwrap_or_default()
            } else {
                from_out
            };
            prior_entries(&text)
        }
    };

    // The trajectory's work metric: slowest-shard cycles of each cell's
    // clean pass, over the wall time of the whole drill. `force_policy`
    // is "mixed" — the sweep spans every policy, so the gate refuses a
    // comparison against any single-policy or unjournaled report.
    let total_cycles: u64 = cells.iter().map(|c| c.clean_cycles).sum();
    let entry = HistoryEntry {
        git_rev: ptm_bench::meta::git_rev(),
        rustc: ptm_bench::meta::rustc_version().to_string(),
        host_cores,
        scale: format!("{scale:?}"),
        workers: SHARDS,
        cells: cells.len(),
        total_cycles,
        seq_wall_ns: wall_ns,
        force_policy: Some("mixed".to_string()),
    };

    let json = render_json(
        scale,
        host_cores,
        every_k,
        &cells,
        &degradation,
        &backpressure,
        &render_history_or_die("service_chaos", &prior, &entry),
    );
    std::fs::write(&out, json).expect("write benchmark report");

    for c in &cells {
        eprintln!(
            "service_chaos: {:>6} x seed {}: {:>3} points, min recovered {:>3}/{}, \
             {} reexecuted, {} tail txs, {} append retries, {} forces",
            c.policy,
            c.fault_seed,
            c.points,
            c.min_recovered,
            c.txs,
            c.reexecuted,
            c.tail_txs,
            c.append_retries,
            c.forces,
        );
    }
    for d in &degradation {
        eprintln!(
            "service_chaos: storm seed {:>9}: {} blocks, {} retries, {} stalls, \
             {} escalations, {} degraded blocks",
            d.chaos_seed, d.blocks, d.retries, d.stalls, d.escalations, d.degraded_blocks,
        );
    }
    eprintln!("service_chaos: wrote {out}");
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    scale: Scale,
    host_cores: usize,
    every_k: u64,
    cells: &[ChaosCell],
    degradation: &[DegradationCell],
    backpressure: &BackpressureReport,
    history_block: &str,
) -> String {
    let wcfg = chaos_stream_config(scale);
    let points: u64 = cells.iter().map(|c| c.points).sum();
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(s, "  \"host_cores\": {host_cores},");
    let _ = writeln!(s, "  \"git_rev\": \"{}\",", ptm_bench::meta::git_rev());
    let _ = writeln!(s, "  \"rustc\": \"{}\",", ptm_bench::meta::rustc_version());
    let _ = writeln!(s, "  \"accounts\": {},", wcfg.accounts);
    let _ = writeln!(s, "  \"txs_per_stream\": {},", wcfg.txs);
    let _ = writeln!(s, "  \"shards\": {SHARDS},");
    let _ = writeln!(s, "  \"max_batch\": {MAX_BATCH},");
    let _ = writeln!(s, "  \"crash_stride\": {every_k},");
    let _ = writeln!(s, "  \"force_policy\": \"mixed\",");
    s.push_str(history_block);
    let _ = writeln!(s, "  \"crash_cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"policy\": \"{}\", \"fault_seed\": {}, \"points\": {}, \
             \"txs\": {}, \"blocks\": {}, \"min_recovered\": {}, \
             \"reexecuted\": {}, \"tail_txs\": {}, \"append_retries\": {}, \
             \"forces\": {}, \"clean_cycles\": {}, \"wall_ns\": {}}}{comma}",
            c.policy,
            c.fault_seed,
            c.points,
            c.txs,
            c.blocks,
            c.min_recovered,
            c.reexecuted,
            c.tail_txs,
            c.append_retries,
            c.forces,
            c.clean_cycles,
            c.wall_ns,
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"degradation_cells\": [");
    for (i, d) in degradation.iter().enumerate() {
        let comma = if i + 1 == degradation.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"chaos_seed\": {}, \"blocks\": {}, \"txs\": {}, \
             \"retries\": {}, \"stalls\": {}, \"escalations\": {}, \
             \"degraded_blocks\": {}, \"wall_ns\": {}}}{comma}",
            d.chaos_seed,
            d.blocks,
            d.txs,
            d.retries,
            d.stalls,
            d.escalations,
            d.degraded_blocks,
            d.wall_ns,
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"backpressure\": {{");
    let _ = writeln!(s, "    \"queue_depth\": {},", backpressure.queue_depth);
    let _ = writeln!(s, "    \"bursts\": {},", backpressure.bursts);
    let _ = writeln!(s, "    \"offered\": {},", backpressure.offered);
    let _ = writeln!(s, "    \"admitted\": {},", backpressure.admitted);
    let _ = writeln!(s, "    \"shed\": {},", backpressure.shed);
    let _ = writeln!(
        s,
        "    \"max_retry_after_ms\": {}",
        backpressure.max_retry_after_ms
    );
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"totals\": {{");
    let _ = writeln!(s, "    \"crash_points\": {points},");
    let _ = writeln!(
        s,
        "    \"phantom_receipts\": 0,\n    \"lost_acked_txs\": 0,\n    \
         \"recovery_idempotent\": true"
    );
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"oracle_clean\": true");
    s.push_str("}\n");
    s
}
