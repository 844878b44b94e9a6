//! The bench-history regression gate.
//!
//! Compares the *last* history entries of two benchmark reports — typically
//! base and head builds run on the same CI machine — and exits non-zero when
//! head regressed by more than the allowed fraction.
//!
//! ```text
//! bench_gate <base.json> <head.json> [--max-regression 0.10] [--durable | --service]
//! ```
//!
//! The default mode gates the sequential cycle-loop throughput of
//! `BENCH_hotpath.json` trajectories. `--durable` gates `BENCH_durable.json` trajectories and refuses
//! comparisons across differing log-force policies — commit latency is the
//! very thing the policies trade, so a cross-policy ratio would gate a
//! configuration change as a regression. `--service` gates
//! `BENCH_service.json` / `BENCH_service_chaos.json` trajectories,
//! refusing differing shard counts and mismatched force-policy tags (a
//! journaled chaos sweep never gates an unjournaled frontend sweep).
//!
//! The two runs must be comparable (same scale, cell count and host width);
//! comparing across hosts is refused rather than silently passed, because a
//! wall-clock ratio between different machines is noise, not a verdict.

use ptm_bench::history::{durable_ratio, entry_from_report, service_ratio, throughput_ratio};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut max_regression = 0.10f64;
    let mut durable = false;
    let mut service = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--max-regression" => {
                i += 1;
                max_regression = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--max-regression needs a fraction, e.g. 0.10"));
            }
            "--durable" => durable = true,
            "--service" => service = true,
            f => files.push(f.to_string()),
        }
        i += 1;
    }
    if files.len() != 2 {
        die(
            "usage: bench_gate <base.json> <head.json> [--max-regression 0.10] \
             [--durable | --service]",
        );
    }
    if durable && service {
        die("--durable and --service are mutually exclusive");
    }

    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")))
    };
    let base = entry_from_report(&read(&files[0]))
        .unwrap_or_else(|| die(&format!("{}: no usable trajectory point", files[0])));
    let head = entry_from_report(&read(&files[1]))
        .unwrap_or_else(|| die(&format!("{}: no usable trajectory point", files[1])));

    // A `-dirty` point was measured on a tree that no longer exists; the
    // comparison still runs (the wall-clocks are real), but its verdict
    // cannot be reproduced, so say so.
    for (file, entry) in [(&files[0], &base), (&files[1], &head)] {
        if entry.git_rev.ends_with("-dirty") {
            eprintln!(
                "bench_gate: warning - {file} trajectory point {} was measured \
                 on a dirty working tree and cannot be rebuilt for comparison",
                entry.git_rev
            );
        }
    }

    let (what, ratio, base_t, head_t) = if service {
        let ratio = service_ratio(&base, &head).unwrap_or_else(|e| die(&e));
        (
            "service-sweep",
            ratio,
            base.throughput_cycles_per_s(),
            head.throughput_cycles_per_s(),
        )
    } else if durable {
        let ratio = durable_ratio(&base, &head).unwrap_or_else(|e| die(&e));
        (
            "durable-sweep",
            ratio,
            base.throughput_cycles_per_s(),
            head.throughput_cycles_per_s(),
        )
    } else {
        let ratio = throughput_ratio(&base, &head).unwrap_or_else(|e| die(&e));
        (
            "cycle-loop",
            ratio,
            base.throughput_cycles_per_s(),
            head.throughput_cycles_per_s(),
        )
    };
    let floor = 1.0 - max_regression;
    println!(
        "bench_gate: {what} base {} @ {base_t} cyc/s, head {} @ {head_t} cyc/s \
         -> ratio {ratio:.3} (floor {floor:.3})",
        base.git_rev, head.git_rev,
    );
    if ratio < floor {
        eprintln!(
            "bench_gate: FAIL - {what} throughput regressed {:.1}% (> {:.1}% allowed)",
            (1.0 - ratio) * 100.0,
            max_regression * 100.0
        );
        std::process::exit(1);
    }
    println!("bench_gate: ok");
}

fn die(msg: &str) -> ! {
    eprintln!("bench_gate: {msg}");
    std::process::exit(2);
}
