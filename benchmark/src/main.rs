//! `ptm-benchmark <workload> --seed S [--seconds N] [--trace [0|1]]`
//!
//! Runs one workload, prints every metric as `name workload value unit`,
//! writes the full result to `results/<workload>-seed<S>[-trace].json`
//! under the benchmark's directory, and ends with a one-line JSON summary.
//! Exits non-zero when any output check failed.

use ptm_benchmark::{run, Size, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: ptm-benchmark <workload> --seed S [--seconds N] [--trace [0|1]]
       ptm-benchmark --workload W --seed S --seconds N --trace 0|1
workloads: paper, faulted, svc-zipf, svc-durable-hot";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::iter::from_fn(move || args.next()).peekable();
    let number = |flag: &str, v: Option<String>| -> Result<u64, String> {
        v.as_deref()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a whole number"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => workload = args.next(),
            "--seed" => seed = number("--seed", args.next())?,
            "--seconds" => seconds = number("--seconds", args.next())?,
            "--trace" => {
                // A bare `--trace` means `--trace 1`.
                trace = args.peek().is_none_or(|v| v != "0");
                if args.peek().is_some_and(|v| v == "0" || v == "1") {
                    args.next();
                }
            }
            name if !name.starts_with('-') && workload.is_none() => workload = Some(a),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let name = workload.ok_or("no workload given")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Git revision of the working directory, `-dirty` when tracked files
/// changed; `unknown` outside a git checkout.
fn git_rev() -> String {
    if !PathBuf::from(".git").exists() {
        return "unknown".into();
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(rev) => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{rev}-dirty")
            } else {
                rev
            }
        }
        None => "unknown".into(),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let size = Size::for_run(args.workload, args.seconds);
    let out = run(args.workload, args.seed, &size, args.trace);

    let workload = args.workload.name();
    let lists = [
        (&out.end_to_end, ptm_benchmark::END_TO_END),
        (&out.per_layer, ptm_benchmark::PER_LAYER),
    ];
    for (have, list) in lists {
        for &(name, unit) in list {
            if let Some(m) = have.get(name) {
                println!("{name} {workload} {} {unit}", m.value);
            }
        }
    }
    for (name, value) in &out.info {
        println!("# {name} {workload} {value}");
    }
    for msg in &out.checks.messages {
        println!("# FAILED: {msg}");
    }

    let provenance = [
        ("git_rev", git_rev()),
        ("rustc", env!("BENCH_RUSTC_VERSION").to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
    ];
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    let file = dir.join(format!(
        "{workload}-seed{}{}.json",
        args.seed,
        if args.trace { "-trace" } else { "" }
    ));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, out.result_json(&provenance)));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", file.display());
    }
    println!("{}", out.summary_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
