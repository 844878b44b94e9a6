//! The service sweep: Zipfian skew × shard count on the volatile
//! frontend; the journaled pipeline under every force policy and
//! log-fault seed class, crashed every 12 pipeline steps and recovered;
//! shard storms under three containment budgets; and a bounded-queue
//! backpressure flood. Every block of every cell is held to an
//! independent reference ledger and every crash point to the
//! committed-prefix oracle (see `ptm_bench::service`). Emits
//! `BENCH_service.json`.
//!
//! ```text
//! cargo run -p ptm-bench --release --bin service
//! PTM_SCALE=tiny cargo run -p ptm-bench --release --bin service
//! PTM_BENCH_OUT=/tmp/x.json cargo run -p ptm-bench --release --bin service
//! ```
//!
//! Above `tiny` scale the `crash` slice exercises ≥ 200 crash points; the
//! binary aborts if it does not.

use ptm_bench::service::{
    check, default_grid, render, run_backpressure, run_cell, slice_totals, SLICES,
};
use ptm_bench::{out_path, scale_from_env, total};
use ptm_workloads::Scale;

fn main() {
    let scale = scale_from_env();
    let grid = default_grid(scale);
    eprintln!("service: {} cells at {scale:?}", grid.len());

    let mut reports = Vec::new();
    for cell in &grid {
        let r = run_cell(cell);
        eprintln!(
            "service: {} — {} blocks, {} crash points",
            cell.label(),
            r.report.blocks,
            r.crash.points
        );
        reports.push(r);
    }
    check(&reports);
    let totals: Vec<_> = SLICES.map(|slice| slice_totals(&reports, slice)).to_vec();
    let get = |i: usize, key| total(&totals[i], key);
    let points = get(1, "points");
    if scale != Scale::Tiny {
        assert!(
            points >= 200,
            "crash slice: {points} crash points < 200 at {scale:?}"
        );
    }
    for (i, slice) in SLICES.iter().enumerate() {
        eprintln!(
            "service: {slice} clean — {} cells, {} blocks matched the reference ledger, \
             {} crash points, {} shard retries, {} escalations",
            get(i, "cells"),
            get(i, "blocks"),
            get(i, "points"),
            get(i, "shard_retries"),
            get(i, "shard_escalations"),
        );
    }

    let bp = run_backpressure(scale);
    eprintln!(
        "service: flood shed {}/{} with retry hints <= {} ms",
        bp.shed, bp.offered, bp.max_retry_after_ms
    );

    let out = out_path("BENCH_service.json");
    std::fs::write(&out, render(scale, &reports, &bp)).expect("write benchmark report");
    eprintln!("service: wrote {out}");
}
