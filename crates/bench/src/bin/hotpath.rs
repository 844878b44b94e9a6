//! The hot-path harness: runs every independent `(workload, system)` cell
//! of the table1/fig4/fig5/ablation binaries twice — once sequentially,
//! once fanned across host threads — asserts the two passes produce
//! bit-identical simulated results, and emits `BENCH_hotpath.json` with
//! per-cell wall-clocks plus the TLB and conflict-filter counters the
//! hot-path work introduced.
//!
//! ```text
//! cargo run -p ptm-bench --release --bin hotpath
//! PTM_SCALE=tiny PTM_WORKERS=4 cargo run -p ptm-bench --release --bin hotpath
//! PTM_BENCH_OUT=/tmp/x.json cargo run -p ptm-bench --release --bin hotpath
//! ```

use ptm_bench::history::{prior_entries, render_history_or_die, HistoryEntry};
use ptm_bench::parallel::{
    assert_cells_match, cells_from_env, projected_makespan, run_cells_parallel,
    run_cells_sequential, workers_from_env, CellResult,
};
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let (scale, specs) = cells_from_env();
    let workers = workers_from_env();
    let host_cores = ptm_bench::meta::host_cores();
    eprintln!(
        "hotpath: {} cells at {scale:?}, {workers} worker(s), {host_cores} host core(s)",
        specs.len()
    );

    let t0 = Instant::now();
    let seq = run_cells_sequential(&specs);
    let seq_wall = t0.elapsed().as_nanos() as u64;

    let t1 = Instant::now();
    let par = run_cells_parallel(&specs, workers);
    let par_wall = t1.elapsed().as_nanos() as u64;

    assert_cells_match(&seq, &par);
    eprintln!(
        "hotpath: parallel pass matched sequential pass on all {} cells",
        seq.len()
    );

    let walls: Vec<u64> = seq.iter().map(|c| c.wall_ns).collect();
    let projected_4 = projected_makespan(&walls, 4);
    let out = std::env::var("PTM_BENCH_OUT").unwrap_or_else(|_| "BENCH_hotpath.json".to_string());

    // The history trajectory: append this run to the entries of the prior
    // report. `PTM_BENCH_HISTORY` overrides where the prior entries come
    // from (default: the output file, falling back to the committed report);
    // `PTM_BENCH_HISTORY=none` starts a fresh trajectory.
    let prior = match std::env::var("PTM_BENCH_HISTORY").as_deref() {
        Ok("none") => Vec::new(),
        Ok(path) => prior_entries(&std::fs::read_to_string(path).unwrap_or_default()),
        Err(_) => {
            let from_out = std::fs::read_to_string(&out).unwrap_or_default();
            let text = if prior_entries(&from_out).is_empty() {
                std::fs::read_to_string("BENCH_hotpath.json").unwrap_or_default()
            } else {
                from_out
            };
            prior_entries(&text)
        }
    };
    let entry = HistoryEntry {
        git_rev: ptm_bench::meta::git_rev(),
        rustc: ptm_bench::meta::rustc_version().to_string(),
        host_cores,
        scale: format!("{scale:?}"),
        workers,
        cells: seq.len(),
        total_cycles: seq.iter().map(|c| c.cycles).sum(),
        seq_wall_ns: seq_wall,
        force_policy: None,
    };

    let json = render_json(
        scale,
        workers,
        host_cores,
        &seq,
        &par,
        seq_wall,
        par_wall,
        projected_4,
        &render_history_or_die("hotpath", &prior, &entry),
    );
    std::fs::write(&out, json).expect("write benchmark report");

    let speedup = seq_wall as f64 / par_wall.max(1) as f64;
    let proj = seq_wall as f64 / projected_4.max(1) as f64;
    let fast: u64 = seq.iter().map(|c| c.conflict_checks_fast).sum();
    let slow: u64 = seq.iter().map(|c| c.conflict_checks_slow).sum();
    let hits: u64 = seq.iter().map(|c| c.tlb_hits).sum();
    let misses: u64 = seq.iter().map(|c| c.tlb_misses).sum();
    eprintln!(
        "hotpath: seq {:.2}s, par {:.2}s ({speedup:.2}x measured on {host_cores} core(s); \
         {proj:.2}x projected makespan at 4 workers)",
        seq_wall as f64 / 1e9,
        par_wall as f64 / 1e9,
    );
    eprintln!(
        "hotpath: conflict checks {fast} fast / {slow} slow ({:.1}% summary-filtered), \
         core TLB {hits}/{misses} ({:.1}% hit)",
        100.0 * fast as f64 / (fast + slow).max(1) as f64,
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
    );
    eprintln!("hotpath: wrote {out}");
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    scale: ptm_workloads::Scale,
    workers: usize,
    host_cores: usize,
    seq: &[CellResult],
    par: &[CellResult],
    seq_wall: u64,
    par_wall: u64,
    projected_4: u64,
    history_block: &str,
) -> String {
    let mut s = String::new();
    let fast: u64 = seq.iter().map(|c| c.conflict_checks_fast).sum();
    let slow: u64 = seq.iter().map(|c| c.conflict_checks_slow).sum();
    let hits: u64 = seq.iter().map(|c| c.tlb_hits).sum();
    let misses: u64 = seq.iter().map(|c| c.tlb_misses).sum();
    let shoot: u64 = seq.iter().map(|c| c.tlb_shootdowns).sum();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(s, "  \"workers\": {workers},");
    let _ = writeln!(s, "  \"host_cores\": {host_cores},");
    let _ = writeln!(s, "  \"git_rev\": \"{}\",", ptm_bench::meta::git_rev());
    let _ = writeln!(s, "  \"rustc\": \"{}\",", ptm_bench::meta::rustc_version());
    s.push_str(history_block);
    let _ = writeln!(s, "  \"cells\": [");
    for (i, (a, b)) in seq.iter().zip(par).enumerate() {
        let comma = if i + 1 == seq.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"family\": \"{}\", \"workload\": \"{}\", \"system\": \"{}\", \
             \"cycles\": {}, \"commits\": {}, \"aborts\": {}, \
             \"wall_seq_ns\": {}, \"wall_par_ns\": {}, \
             \"tlb_hits\": {}, \"tlb_misses\": {}, \"tlb_shootdowns\": {}, \
             \"conflict_checks_fast\": {}, \"conflict_checks_slow\": {}, \
             \"checksums_match\": {}}}{comma}",
            a.spec.family,
            a.spec.workload.name(),
            a.spec.kind.label(),
            a.cycles,
            a.commits,
            a.aborts,
            a.wall_ns,
            b.wall_ns,
            a.tlb_hits,
            a.tlb_misses,
            a.tlb_shootdowns,
            a.conflict_checks_fast,
            a.conflict_checks_slow,
            a.checksums == b.checksums,
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"totals\": {{");
    let _ = writeln!(s, "    \"seq_wall_ns\": {seq_wall},");
    let _ = writeln!(s, "    \"par_wall_ns\": {par_wall},");
    let _ = writeln!(
        s,
        "    \"measured_speedup\": {:.3},",
        seq_wall as f64 / par_wall.max(1) as f64
    );
    let _ = writeln!(s, "    \"projected_makespan_4workers_ns\": {projected_4},");
    let _ = writeln!(
        s,
        "    \"projected_speedup_4workers\": {:.3},",
        seq_wall as f64 / projected_4.max(1) as f64
    );
    let _ = writeln!(s, "    \"tlb_hits\": {hits},");
    let _ = writeln!(s, "    \"tlb_misses\": {misses},");
    let _ = writeln!(s, "    \"tlb_shootdowns\": {shoot},");
    let _ = writeln!(s, "    \"conflict_checks_fast\": {fast},");
    let _ = writeln!(s, "    \"conflict_checks_slow\": {slow},");
    let _ = writeln!(
        s,
        "    \"conflict_fast_fraction\": {:.4}",
        fast as f64 / (fast + slow).max(1) as f64
    );
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"checksums_match\": true");
    s.push_str("}\n");
    s
}
