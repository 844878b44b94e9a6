//! Service-chaos drill: crash-recovery sweep (force policies × log-fault
//! seed classes × every-K-steps, each point oracle-checked), shard-storm
//! degradation cells, and a bounded-queue backpressure flood. Emits
//! `BENCH_service_chaos.json` with `force_policy: "mixed"` (the sweep spans
//! all policies).
//!
//! ```text
//! cargo run -p ptm-bench --release --bin service_chaos
//! PTM_SCALE=tiny cargo run -p ptm-bench --release --bin service_chaos
//! PTM_BENCH_OUT=/tmp/x.json cargo run -p ptm-bench --release --bin service_chaos
//! ```
//!
//! Above `tiny` scale the sweep exercises ≥ 200 crash points; the binary
//! aborts if it does not.

use ptm_bench::adversity::{FORCE_POLICIES, LOG_FAULT_SEEDS};
use ptm_bench::json;
use ptm_bench::service_chaos::{
    chaos_stream_config, run_backpressure, run_crash_sweep, run_degradation, CRASH_STRIDE,
    MAX_BATCH, SHARDS,
};
use ptm_bench::{out_path, scale_from_env};
use ptm_workloads::Scale;

fn main() {
    let scale = scale_from_env();
    let host_cores = ptm_bench::meta::host_cores();
    let wcfg = chaos_stream_config(scale);
    eprintln!(
        "service_chaos: {} policies x {} fault seeds at {scale:?} \
         ({} accounts, {} txs/stream, batch {MAX_BATCH}, stride {CRASH_STRIDE}), {host_cores} host core(s)",
        FORCE_POLICIES.len(),
        LOG_FAULT_SEEDS.len(),
        wcfg.accounts,
        wcfg.txs,
    );

    let cells = run_crash_sweep(scale);
    let points: u64 = cells.iter().map(|c| c.points).sum();
    eprintln!(
        "service_chaos: {points} crash points oracle-clean across {} cells",
        cells.len()
    );
    if scale != Scale::Tiny {
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

    let out = out_path("BENCH_service_chaos.json");
    let json = json::object(|o| {
        o.field("scale", format!("{scale:?}"));
        ptm_bench::meta::provenance(o);
        o.field("accounts", wcfg.accounts)
            .field("txs_per_stream", wcfg.txs)
            .field("shards", SHARDS)
            .field("max_batch", MAX_BATCH)
            .field("crash_stride", CRASH_STRIDE)
            .field("force_policy", "mixed");
        o.arr("crash_cells", |a| {
            for c in &cells {
                a.obj(|o| {
                    o.field("policy", c.policy.label())
                        .field("fault_seed", c.fault_seed)
                        .field("points", c.points)
                        .field("txs", c.txs)
                        .field("blocks", c.blocks)
                        .field("min_recovered", c.min_recovered)
                        .field("reexecuted", c.reexecuted)
                        .field("tail_txs", c.tail_txs)
                        .field("append_retries", c.append_retries)
                        .field("forces", c.forces)
                        .field("clean_cycles", c.clean_cycles)
                        .field("wall_ns", c.wall_ns);
                });
            }
        });
        o.arr("degradation_cells", |a| {
            for d in &degradation {
                a.obj(|o| {
                    o.field("chaos_seed", d.chaos_seed)
                        .field("blocks", d.blocks)
                        .field("txs", d.txs)
                        .field("retries", d.retries)
                        .field("stalls", d.stalls)
                        .field("escalations", d.escalations)
                        .field("degraded_blocks", d.degraded_blocks)
                        .field("wall_ns", d.wall_ns);
                });
            }
        });
        o.obj("backpressure", |o| {
            o.field("queue_depth", backpressure.queue_depth)
                .field("bursts", backpressure.bursts)
                .field("offered", backpressure.offered)
                .field("admitted", backpressure.admitted)
                .field("shed", backpressure.shed)
                .field("max_retry_after_ms", backpressure.max_retry_after_ms);
        });
        o.obj("totals", |o| {
            o.field("crash_points", points)
                .field("phantom_receipts", 0u64)
                .field("lost_acked_txs", 0u64)
                .field("recovery_idempotent", true);
        });
        o.field("oracle_clean", true);
    });
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
