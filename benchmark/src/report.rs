//! Metric registry, run outcome and the result file.
//!
//! The two metric lists below are the benchmark's contract: every
//! workload reports every end-to-end metric from its untraced run and
//! every per-layer metric from its traced run. `BENCHMARK.json` at the
//! repository root declares the same names; a test keeps them in step.

use crate::stats::quartiles;
use crate::trace::{layer_self_s, Span};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tx_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. A metric whose layer a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("workloads.generate_s", "s"),
    ("sim.new_s", "s"),
    ("sim.run_s", "s"),
    ("sim.run_with_faults_s", "s"),
    ("sim.run_s.serial", "s"),
    ("sim.run_s.locks", "s"),
    ("sim.run_s.vtm", "s"),
    ("sim.run_s.vc-vtm", "s"),
    ("sim.run_s.copy-ptm", "s"),
    ("sim.run_s.sel-ptm", "s"),
    ("sim.run_s.wd-cache", "s"),
    ("sim.run_s.wd-cache-mem", "s"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.ns_per_mem_op", "ns"),
    ("sim.oracle_s", "s"),
    ("sim.cycles", "count"),
    ("sim.mem_ops", "count"),
    ("sim.commits", "count"),
    ("sim.aborts", "count"),
    ("sim.stall_cycles", "count"),
    ("sim.tlb_hit_frac", "fraction"),
    ("sim.sel_ptm_speedup_pct", "%"),
    ("kernel.context_switches", "count"),
    ("kernel.exceptions", "count"),
    ("kernel.swap_ins", "count"),
    ("kernel.swap_outs", "count"),
    ("cache.l2_misses", "count"),
    ("cache.l2_evictions", "count"),
    ("bus.onchip_transactions", "count"),
    ("bus.mem_accesses", "count"),
    ("bus.wait_cycles", "count"),
    ("bus.mem_wait_cycles", "count"),
    ("ptm.conflict_checks", "count"),
    ("ptm.conflict_fast_frac", "fraction"),
    ("ptm.spt_cache_hit_frac", "fraction"),
    ("ptm.tav_cache_hit_frac", "fraction"),
    ("ptm.tav_walk_nodes", "count"),
    ("ptm.overflows", "count"),
    ("ptm.shadow_allocs", "count"),
    ("ptm.backup_copies", "count"),
    ("ptm.restore_copies", "count"),
    ("ptm.exhaustion_aborts", "count"),
    ("ptm.tx_swap_outs", "count"),
    ("ptm.tx_swap_ins", "count"),
    ("vtm.commit_copy_blocks", "count"),
    ("vtm.xadc_hit_frac", "fraction"),
    ("vtm.overflow_conflicts", "count"),
    ("ingest.submit_ns_p50", "ns"),
    ("ingest.queue_wait_ms_p50", "ms"),
    ("ingest.queue_wait_ms_p99", "ms"),
    ("ingest.shed", "count"),
    ("ingest.partial_blocks", "count"),
    ("block.exec_ms_p50", "ms"),
    ("block.exec_ms_p99", "ms"),
    ("block.abort_rate", "fraction"),
    ("block.shard_cycles", "count"),
    ("block.shard_skew_max", "ratio"),
    ("block.cross_shard_frac", "fraction"),
    ("block.ro_fastpath_frac", "fraction"),
    ("block.run_s", "s"),
    ("block.fold_s", "s"),
    ("journal.accept_s", "s"),
    ("journal.seal_s", "s"),
    ("journal.commit_s", "s"),
    ("journal.force_s", "s"),
    ("journal.records", "count"),
    ("journal.forces", "count"),
    ("journal.retries", "count"),
    ("journal.throttle_cycles", "count"),
    ("logdev.bytes_appended", "bytes"),
    ("logdev.backpressure_waits", "count"),
    ("recovery.recover_s", "s"),
    ("recovery.replay_s", "s"),
    ("recovery.reexec_s", "s"),
    ("recovery.records_scanned", "count"),
    ("recovery.blocks_replayed", "count"),
    ("recovery.blocks_reexecuted", "count"),
    ("recovery.journal_bytes", "bytes"),
    ("trace.self_s.bench", "s"),
    ("trace.self_s.sim", "s"),
    ("trace.self_s.service", "s"),
    ("trace.self_s.journal", "s"),
    ("trace.self_s.recovery", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// One measured value, with the within-run samples it summarises.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Value as reported.
    pub value: f64,
    /// Within-run samples (passes, windows or set-ups) behind a timed
    /// value; empty for counts.
    pub samples: Vec<f64>,
}

/// Metrics by name.
pub type Metrics = BTreeMap<&'static str, Metric>;

/// Records a count or a single value.
pub fn put(m: &mut Metrics, name: &'static str, value: f64) {
    put_sampled(m, name, value, Vec::new());
}

/// Records a timed value together with the samples it came from.
pub fn put_sampled(m: &mut Metrics, name: &'static str, value: f64, samples: Vec<f64>) {
    // `+ 0.0` turns the -0.0 of an empty float sum into 0.
    let value = value + 0.0;
    m.insert(name, Metric { value, samples });
}

/// Records what the trace itself measured: each layer's self time, the
/// span count and the tracing overhead (`traced_s` against `untraced_s`
/// for the same work).
pub fn put_trace(m: &mut Metrics, spans: &[Span], traced_s: f64, untraced_s: f64) {
    for (layer, s) in layer_self_s(spans) {
        let name = match layer {
            "bench" => "trace.self_s.bench",
            "sim" => "trace.self_s.sim",
            "service" => "trace.self_s.service",
            "journal" => "trace.self_s.journal",
            "recovery" => "trace.self_s.recovery",
            _ => continue,
        };
        put(m, name, s);
    }
    put(m, "trace.spans", spans.len() as f64);
    put(m, "trace.overhead_frac", ratio(traced_s, untraced_s) - 1.0);
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Failed output checks, counted against the operations attempted.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (cell runs or client transactions).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts `n` failed operations, keeping the message.
    pub fn fail(&mut self, n: u64, msg: String) {
        self.failed += n.max(1);
        if self.messages.len() < 32 {
            self.messages.push(msg);
        }
    }

    /// Fails with `msg` unless `ok`.
    pub fn expect(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, msg());
        }
    }
}

/// Everything one benchmark process produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Whether the per-layer (traced) metrics were asked for.
    pub trace: bool,
    /// End-to-end metrics from the untraced run.
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Metrics,
    /// Output checks of every run in the process.
    pub checks: Checks,
    /// Workload sizes, for provenance.
    pub sizes: Vec<(&'static str, String)>,
    /// Values printed and recorded but not gated (e.g. p999, max).
    pub info: Vec<(&'static str, String)>,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// The metrics the summary line carries: the end-to-end list untraced,
    /// the per-layer list traced, in registry order, with missing
    /// per-layer metrics reading 0.
    pub fn reported(&self) -> Vec<(&'static str, &'static str, f64)> {
        let (list, have) = if self.trace {
            (PER_LAYER, &self.per_layer)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        list.iter()
            .map(|&(name, unit)| (name, unit, have.get(name).map_or(0.0, |m| m.value)))
            .collect()
    }

    /// The last line of standard output.
    pub fn summary_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, unit, value)) in self.reported().into_iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.checks.attempted.max(1),
            self.checks.failed
        )
    }

    /// The result file: summary, every metric with its within-run
    /// quartiles, provenance, failure messages and the spans.
    pub fn result_json(&self, provenance: &[(&str, String)]) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"workload\": {},", json_str(self.workload));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"trace\": {},", self.trace);
        let _ = writeln!(out, "  \"correct\": {},", self.correct());
        let _ = writeln!(out, "  \"attempted\": {},", self.checks.attempted);
        let _ = writeln!(out, "  \"failed\": {},", self.checks.failed);
        let fields = |pairs: &[(&str, String)]| {
            pairs
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(out, "  \"provenance\": {{{}}},", fields(provenance));
        let _ = writeln!(out, "  \"sizes\": {{{}}},", fields(&self.sizes));
        let _ = writeln!(out, "  \"info\": {{{}}},", fields(&self.info));
        for (key, list, have) in [
            ("end_to_end", END_TO_END, &self.end_to_end),
            ("per_layer", PER_LAYER, &self.per_layer),
        ] {
            let _ = writeln!(out, "  {}: {{", json_str(key));
            let rows: Vec<String> = list
                .iter()
                .filter_map(|&(name, unit)| have.get(name).map(|m| (name, unit, m)))
                .map(|(name, unit, m)| {
                    let mut row = format!(
                        "    {}: {{\"value\": {}, \"unit\": {}",
                        json_str(name),
                        json_num(m.value),
                        json_str(unit)
                    );
                    if m.samples.len() >= 2 {
                        let [q1, q2, q3] = quartiles(&m.samples);
                        let samples: Vec<String> = m.samples.iter().map(|&v| json_num(v)).collect();
                        let _ = write!(
                            row,
                            ", \"quartiles\": [{}, {}, {}], \"samples\": [{}]",
                            json_num(q1),
                            json_num(q2),
                            json_num(q3),
                            samples.join(", ")
                        );
                    }
                    row.push('}');
                    row
                })
                .collect();
            let _ = writeln!(out, "{}\n  }},", rows.join(",\n"));
        }
        let messages: Vec<String> = self.checks.messages.iter().map(|m| json_str(m)).collect();
        let _ = writeln!(out, "  \"failures\": [{}],", messages.join(", "));
        out.push_str("  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n    [{}, {}, {}, {}, {}]",
                json_str(s.name),
                json_str(s.tag),
                s.start_ns,
                s.end_ns,
                parent
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust keeps; non-finite values (which
/// JSON cannot hold) become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn summary_line_has_the_contract_keys() {
        let mut o = Outcome::default();
        for &(name, _) in END_TO_END {
            put(&mut o.end_to_end, name, 1.5);
        }
        o.checks.attempted = 3;
        let line = o.summary_json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        o.trace = true;
        assert!(o
            .summary_json()
            .contains("\"trace.overhead_frac\": {\"value\": 0, "));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(0.25), "0.25");
    }
}
