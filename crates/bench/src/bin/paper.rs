//! The paper grid: Table 1, Figures 4–5 and the design ablations, each
//! cell run once and every table read from the same runs. Prints the
//! listings EXPERIMENTS.md quotes, holds the results to the paper's
//! orderings (see `ptm_bench::paper`) and emits `BENCH_paper.json`.
//!
//! ```text
//! cargo run -p ptm-bench --release --bin paper
//! PTM_SCALE=tiny cargo run -p ptm-bench --release --bin paper   # quick look
//! PTM_BENCH_OUT=/tmp/p.json cargo run -p ptm-bench --release --bin paper
//! ```

use ptm_bench::paper::{check, default_grid, lazy_migrate_replay, render, run_grid, Paper};
use ptm_bench::{out_path, scale_from_env};
use ptm_workloads::Scale;

fn main() {
    let scale = scale_from_env();
    let grid = default_grid();
    eprintln!("paper: {} cells at {scale:?}", grid.len());
    let paper = Paper {
        scale,
        reports: run_grid(&grid, scale),
        lazy_migrate: lazy_migrate_replay(),
    };
    print!("{paper}");
    check(&paper);
    match scale {
        Scale::Tiny => eprintln!("paper: claims not checked at Tiny"),
        _ => eprintln!("paper: all {} claims hold", paper.claims().len()),
    }

    let out = out_path("BENCH_paper.json");
    std::fs::write(&out, render(&paper)).expect("write benchmark report");
    eprintln!("paper: wrote {out}");
}
