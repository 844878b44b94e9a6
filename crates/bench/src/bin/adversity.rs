//! The adversity sweep: every benchmark cell plain and under a seeded
//! fault plan; the transactional kinds crashed (clean and torn) at a grid
//! of steps and inside fault storms; Copy-PTM and Sel-PTM on a faulty
//! write-behind log under each force policy, crashed at a grid of steps
//! and inside fault storms. Every point is held to every oracle that
//! applies (see `ptm_bench::adversity`). Emits `BENCH_adversity.json`.
//!
//! ```text
//! cargo run -p ptm-bench --release --bin adversity
//! PTM_SCALE=tiny cargo run -p ptm-bench --release --bin adversity
//! PTM_FAULT_SEED=0x2a PTM_BENCH_OUT=/tmp/a.json cargo run -p ptm-bench --release --bin adversity
//! ```

use ptm_bench::adversity::{
    check, default_grid, render, run_cell, slice_totals, DEFAULT_FAULT_SEED, SLICES,
};
use ptm_bench::{option, out_path, parse_u64, scale_from_env};

fn main() {
    let scale = scale_from_env();
    let fault_seed = option("PTM_FAULT_SEED", parse_u64).unwrap_or(DEFAULT_FAULT_SEED);
    let grid = default_grid(scale, fault_seed);
    eprintln!(
        "adversity: {} cells at {scale:?}, fault plan seed {fault_seed:#x}",
        grid.len()
    );

    let mut reports = Vec::new();
    for cell in &grid {
        let r = run_cell(cell);
        let (points, torn) = (r.crash.points, r.crash.torn_points);
        eprintln!(
            "adversity: {} — {points} crash points ({torn} torn)",
            cell.label()
        );
        reports.push(r);
    }
    check(&reports);

    for slice in SLICES {
        let totals = slice_totals(&reports, slice);
        let get = |key| totals.iter().find(|(k, _)| *k == key).map_or(0, |t| t.1);
        eprintln!(
            "adversity: {slice} clean — {} cells, {} exhaustions, {} crash points ({} torn), \
             {} live transactions discarded and recovered",
            get("cells"),
            get("frame_exhaustions") + get("tav_exhaustions"),
            get("points"),
            get("torn_points"),
            get("transactions_discarded"),
        );
    }

    let out = out_path("BENCH_adversity.json");
    std::fs::write(&out, render(scale, fault_seed, &reports)).expect("write benchmark report");
    eprintln!("adversity: wrote {out}");
}
