//! Every workload, at a reduced size, passes its output checks and reports
//! every metric `BENCHMARK.json` declares.

use ptm_benchmark::{run, Size, Workload, END_TO_END, PER_LAYER};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`. The
/// file keeps one metric per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declared_metrics_match_the_registry() {
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
}

/// Runs `workload` small and traced; checks it passed, reported every
/// metric, and exercised the layers named in `busy`.
fn check(workload: Workload, busy: &[&str]) {
    let out = run(workload, 7, &Size::tiny(workload), true);
    assert!(
        out.correct(),
        "{}: {:?}",
        workload.name(),
        out.checks.messages
    );
    assert!(out.checks.attempted > 0);
    for &(name, _) in END_TO_END {
        let m = out.end_to_end.get(name);
        assert!(
            m.is_some_and(|m| m.value > 0.0),
            "{}: end-to-end {name} missing or 0: {m:?}",
            workload.name()
        );
    }
    for &(name, _) in PER_LAYER {
        assert!(
            out.per_layer.contains_key(name),
            "{}: per-layer {name} missing",
            workload.name()
        );
    }
    for name in busy {
        let m = &out.per_layer[name];
        assert!(m.value > 0.0, "{}: {name} is {}", workload.name(), m.value);
    }
    let summary = out.summary_json();
    assert!(summary.starts_with("{\"correct\": true, "), "{summary}");
    for &(name, _) in PER_LAYER {
        assert!(
            summary.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
    }
    assert!(
        !out.spans.is_empty(),
        "{}: the traced run recorded no spans",
        workload.name()
    );
}

#[test]
fn paper_passes_its_checks() {
    check(
        Workload::Paper,
        &[
            "sim.run_s",
            "sim.run_s.vtm",
            "sim.cycles",
            "cache.l2_misses",
            "sim.sel_ptm_speedup_pct",
        ],
    );
}

#[test]
fn faulted_passes_its_checks() {
    check(
        Workload::Faulted,
        &[
            "sim.run_with_faults_s",
            "sim.cycles",
            "ptm.exhaustion_aborts",
            "kernel.swap_outs",
        ],
    );
}

#[test]
fn svc_zipf_passes_its_checks() {
    check(
        Workload::SvcZipf,
        &[
            "block.run_s",
            "block.shard_cycles",
            "block.ro_fastpath_frac",
            "trace.self_s.service",
        ],
    );
}

#[test]
fn svc_durable_hot_passes_its_checks() {
    check(
        Workload::SvcDurableHot,
        &[
            "journal.records",
            "journal.commit_s",
            "logdev.bytes_appended",
            "recovery.recover_s",
        ],
    );
}
