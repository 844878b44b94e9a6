//! End-to-end refusal semantics of the `bench_gate` binary.
//!
//! The gate has three verdicts: ok (exit 0), regression (exit 1), and
//! *refusal* (exit 2) when the two trajectory points cannot be compared.
//! These tests pin the contract the CI jobs rely on: a malformed or
//! hand-edited history entry must produce an exit-2 refusal that names the
//! offending report, never a panic; and comparing against a `-dirty` point
//! must warn on stderr without changing the verdict.

use std::process::{Command, Output};

fn entry_json(git_rev: &str) -> String {
    format!(
        "{{\"git_rev\": \"{git_rev}\", \"rustc\": \"rustc 1.95.0\", \
         \"host_cores\": 4, \"scale\": \"Tiny\", \"workers\": 2, \
         \"cells\": 49, \"total_cycles\": 1000000, \"seq_wall_ns\": 2000000000}}"
    )
}

fn report(entry: &str) -> String {
    format!("{{\n  \"history\": [\n    {entry}\n  ],\n  \"ok\": true\n}}\n")
}

fn run_gate(base: &str, head: &str, extra: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!(
        "ptm-gate-refusals-{}-{:p}",
        std::process::id(),
        &base as *const _
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let base_path = dir.join("base.json");
    let head_path = dir.join("head.json");
    std::fs::write(&base_path, base).unwrap();
    std::fs::write(&head_path, head).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .arg(&base_path)
        .arg(&head_path)
        .args(extra)
        .output()
        .expect("spawn bench_gate");
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn malformed_entry_refuses_with_exit_2_naming_the_report() {
    let base = report(&entry_json("aaaa11112222"));
    // A hand-edited head entry with its wall time deleted: no usable point.
    let head = report(&entry_json("feedfacecafe").replace(", \"seq_wall_ns\": 2000000000", ""));
    let out = run_gate(&base, &head, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "expected a refusal, got {:?}: {stderr}",
        out.status
    );
    assert!(
        stderr.contains("head.json") && stderr.contains("no usable trajectory point"),
        "the refusal must name the offending report: {stderr}"
    );
}

#[test]
fn comparable_entries_pass() {
    let base = report(&entry_json("aaaa11112222"));
    let head = report(&entry_json("bbbb33334444"));
    let out = run_gate(&base, &head, &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn dirty_trajectory_point_warns_without_changing_the_verdict() {
    let base = report(&entry_json("aaaa11112222-dirty"));
    let head = report(&entry_json("bbbb33334444"));
    let out = run_gate(&base, &head, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("warning") && stderr.contains("aaaa11112222-dirty"),
        "a dirty comparison must warn and name the point: {stderr}"
    );

    // Clean comparisons stay silent on the dirty channel.
    let clean = run_gate(&head, &head, &[]);
    assert!(!String::from_utf8_lossy(&clean.stderr).contains("dirty"));
}
