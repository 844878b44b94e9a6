//! PTM-as-a-service throughput sweep: sustained tx/s across Zipfian skew
//! {0.6, 0.9, 1.2} × shards {1, 2, 4} × strategy {sequential,
//! validate-only}, checking every block of every pass against an
//! independent reference fold of the committed transfers. Emits
//! `BENCH_service.json`.
//!
//! ```text
//! cargo run -p ptm-bench --release --bin service
//! PTM_SCALE=tiny cargo run -p ptm-bench --release --bin service
//! PTM_BENCH_OUT=/tmp/x.json cargo run -p ptm-bench --release --bin service
//! ```

use ptm_bench::json::{self, Fixed};
use ptm_bench::service::{run_sweep, stream_config, SHARDS, SKEWS};
use ptm_bench::{out_path, scale_from_env};

/// Admission batch size of the sweep.
const MAX_BATCH: usize = 256;

fn main() {
    let scale = scale_from_env();
    let host_cores = ptm_bench::meta::host_cores();
    let wcfg = stream_config(scale, SKEWS[0]);
    eprintln!(
        "service: {} skews x {} shard counts at {scale:?} ({} accounts, {} txs/stream, batch {MAX_BATCH}), {host_cores} host core(s)",
        SKEWS.len(),
        SHARDS.len(),
        wcfg.accounts,
        wcfg.txs,
    );

    let cells = run_sweep(scale, MAX_BATCH);
    eprintln!(
        "service: receipts and deltas matched the reference ledger on all {} cells",
        cells.len()
    );

    let out = out_path("BENCH_service.json");
    let seq_wall: u64 = cells.iter().map(|c| c.strategies[0].wall_ns).sum();
    let txs: usize = cells.iter().map(|c| c.txs).sum();
    let json = json::object(|o| {
        o.field("scale", format!("{scale:?}"));
        ptm_bench::meta::provenance(o);
        o.field("accounts", wcfg.accounts)
            .field("txs_per_stream", wcfg.txs)
            .field("read_only_pct", wcfg.read_only_pct)
            .field("max_batch", MAX_BATCH);
        o.arr("cells", |a| {
            for c in &cells {
                a.obj(|o| {
                    o.field("skew", Fixed(c.skew, 1))
                        .field("shards", c.shards)
                        .field("txs", c.txs)
                        .field("blocks", c.blocks)
                        .field("cross_shard", c.cross_shard)
                        .field("read_only_fastpath_hits", c.read_only_hits)
                        .field("shard_skew", Fixed(c.shard_skew, 4))
                        .field("receipts_match", true)
                        .arr("strategies", |a| {
                            for r in &c.strategies {
                                a.obj(|o| {
                                    o.field("strategy", r.strategy)
                                        .field("wall_ns", r.wall_ns)
                                        .field("tx_per_sec", Fixed(r.tx_per_sec, 1))
                                        .field("commits", r.commits)
                                        .field("aborts", r.aborts)
                                        .field("abort_rate", Fixed(r.abort_rate, 4))
                                        .field("shard_cycles", r.shard_cycles);
                                });
                            }
                        });
                });
            }
        });
        o.obj("totals", |t| {
            t.field("seq_wall_ns", seq_wall).field(
                "seq_tx_per_sec",
                Fixed(txs as f64 / (seq_wall as f64 / 1e9).max(1e-9), 1),
            );
        });
        o.field("receipts_match", true);
    });
    std::fs::write(&out, json).expect("write benchmark report");

    for c in &cells {
        let seq = &c.strategies[0];
        eprintln!(
            "service: skew {:.1} x {} shard(s): seq {:>9.0} tx/s, \
             abort rate {:.3}, shard skew {:.2}, {} cross-shard, {} ro-fast-path",
            c.skew,
            c.shards,
            seq.tx_per_sec,
            seq.abort_rate,
            c.shard_skew,
            c.cross_shard,
            c.read_only_hits,
        );
    }
    eprintln!("service: wrote {out}");
}
