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

use ptm_bench::service::{run_sweep, ServiceCell, SHARDS, SKEWS};
use ptm_bench::{scale_from_env, service::stream_config};
use std::fmt::Write as _;

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

    let out = std::env::var("PTM_BENCH_OUT").unwrap_or_else(|_| "BENCH_service.json".to_string());
    let json = render_json(scale, host_cores, &cells);
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

fn render_json(scale: ptm_workloads::Scale, host_cores: usize, cells: &[ServiceCell]) -> String {
    let wcfg = stream_config(scale, SKEWS[0]);
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(s, "  \"host_cores\": {host_cores},");
    let _ = writeln!(s, "  \"git_rev\": \"{}\",", ptm_bench::meta::git_rev());
    let _ = writeln!(s, "  \"rustc\": \"{}\",", ptm_bench::meta::rustc_version());
    let _ = writeln!(s, "  \"accounts\": {},", wcfg.accounts);
    let _ = writeln!(s, "  \"txs_per_stream\": {},", wcfg.txs);
    let _ = writeln!(s, "  \"read_only_pct\": {},", wcfg.read_only_pct);
    let _ = writeln!(s, "  \"max_batch\": {MAX_BATCH},");
    let _ = writeln!(s, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"skew\": {:.1},", c.skew);
        let _ = writeln!(s, "      \"shards\": {},", c.shards);
        let _ = writeln!(s, "      \"txs\": {},", c.txs);
        let _ = writeln!(s, "      \"blocks\": {},", c.blocks);
        let _ = writeln!(s, "      \"cross_shard\": {},", c.cross_shard);
        let _ = writeln!(
            s,
            "      \"read_only_fastpath_hits\": {},",
            c.read_only_hits
        );
        let _ = writeln!(s, "      \"shard_skew\": {:.4},", c.shard_skew);
        let _ = writeln!(s, "      \"receipts_match\": true,");
        let _ = writeln!(s, "      \"strategies\": [");
        for (j, r) in c.strategies.iter().enumerate() {
            let comma = if j + 1 == c.strategies.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "        {{\"strategy\": \"{}\", \"wall_ns\": {}, \"tx_per_sec\": {:.1}, \
                 \"commits\": {}, \"aborts\": {}, \"abort_rate\": {:.4}, \
                 \"shard_cycles\": {}}}{comma}",
                r.strategy,
                r.wall_ns,
                r.tx_per_sec,
                r.commits,
                r.aborts,
                r.abort_rate,
                r.shard_cycles,
            );
        }
        let _ = writeln!(s, "      ]");
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ],");
    let seq_wall: u64 = cells.iter().map(|c| c.strategies[0].wall_ns).sum();
    let txs: usize = cells.iter().map(|c| c.txs).sum();
    let _ = writeln!(s, "  \"totals\": {{");
    let _ = writeln!(s, "    \"seq_wall_ns\": {seq_wall},");
    let _ = writeln!(
        s,
        "    \"seq_tx_per_sec\": {:.1}",
        txs as f64 / (seq_wall as f64 / 1e9).max(1e-9)
    );
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"receipts_match\": true");
    s.push_str("}\n");
    s
}
