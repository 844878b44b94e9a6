//! The benchmark-history trajectory embedded in `BENCH_hotpath.json`.
//!
//! Each hotpath run appends one [`HistoryEntry`] — commit, toolchain, host,
//! scale and the measured cycle-loop throughput — to the report's
//! `"history"` array, turning the committed JSON into a performance
//! trajectory instead of a single point. The `bench_gate` binary compares
//! the last entries of two reports (measured on the *same* host, e.g. a CI
//! runner building base and head) and fails on a throughput regression.
//!
//! The reports are hand-written JSON, so this module does the minimal
//! parsing the trajectory needs: verbatim extraction of the existing entry
//! objects by bracket scanning, and flat field lookups inside one entry.
//! Entries are flat objects (no nested arrays or objects, no brackets in
//! strings), which keeps both scans exact.

/// One point of the performance trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Short git revision the run was built from (`-dirty` if uncommitted).
    pub git_rev: String,
    /// `rustc --version` of the build.
    pub rustc: String,
    /// Host cores visible to the run.
    pub host_cores: usize,
    /// Benchmark scale (`Tiny`, `Small`, `Full`).
    pub scale: String,
    /// Worker threads of the parallel pass.
    pub workers: usize,
    /// Number of benchmark cells.
    pub cells: usize,
    /// Simulated cycles summed over all cells (the work done).
    pub total_cycles: u64,
    /// Wall time of the sequential pass, nanoseconds (the time it took).
    pub seq_wall_ns: u64,
    /// Log-force policy of a durable-sweep entry (`"eager"`, `"lazy"`,
    /// `"group4"`, or `"mixed"` for a whole-matrix sweep). `None` for
    /// non-durable trajectories. Durable entries are only gate-comparable
    /// against the same policy — commit latency is the very thing the
    /// policies trade, so a cross-policy ratio measures the configuration,
    /// not a regression.
    pub force_policy: Option<String>,
}

impl HistoryEntry {
    /// Cycle-loop throughput: simulated cycles advanced per wall second.
    pub fn throughput_cycles_per_s(&self) -> u64 {
        ((self.total_cycles as u128 * 1_000_000_000) / u128::from(self.seq_wall_ns.max(1))) as u64
    }

    /// Renders the entry as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"git_rev\": \"{}\", \"rustc\": \"{}\", \"host_cores\": {}, \
             \"scale\": \"{}\", \"workers\": {}, \"cells\": {}, \
             \"total_cycles\": {}, \"seq_wall_ns\": {}, \
             \"throughput_cycles_per_s\": {}",
            self.git_rev,
            self.rustc,
            self.host_cores,
            self.scale,
            self.workers,
            self.cells,
            self.total_cycles,
            self.seq_wall_ns,
            self.throughput_cycles_per_s(),
        );
        if let Some(p) = &self.force_policy {
            s.push_str(&format!(", \"force_policy\": \"{p}\""));
        }
        s.push('}');
        s
    }

    /// Parses the fields back out of one entry object. Returns `None` if a
    /// required field is missing or malformed. Keys this version does not
    /// know (such as the `parallel_wall_ns`, `speedup` and
    /// `spec_commit_fraction` of older entries) are ignored.
    pub fn parse(entry: &str) -> Option<HistoryEntry> {
        Some(HistoryEntry {
            git_rev: string_field(entry, "git_rev")?,
            rustc: string_field(entry, "rustc")?,
            host_cores: number_field(entry, "host_cores")? as usize,
            scale: string_field(entry, "scale")?,
            workers: number_field(entry, "workers")? as usize,
            cells: number_field(entry, "cells")? as usize,
            total_cycles: number_field(entry, "total_cycles")?,
            seq_wall_ns: number_field(entry, "seq_wall_ns")?,
            force_policy: string_field(entry, "force_policy"),
        })
    }
}

/// Locates `"key":` in a flat JSON object and returns the raw value text.
fn raw_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = obj.find(&tag)? + tag.len();
    let rest = obj[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn string_field(obj: &str, key: &str) -> Option<String> {
    let raw = raw_field(obj, key)?;
    Some(raw.strip_prefix('"')?.strip_suffix('"')?.to_string())
}

fn number_field(obj: &str, key: &str) -> Option<u64> {
    raw_field(obj, key)?.parse().ok()
}

/// Extracts the verbatim entry objects of a report's `"history"` array.
/// Returns an empty list when the report has no history (or `json` is not a
/// report at all) — the trajectory then starts fresh.
pub fn prior_entries(json: &str) -> Vec<String> {
    let Some(tag) = json.find("\"history\":") else {
        return Vec::new();
    };
    let Some(open) = json[tag..].find('[') else {
        return Vec::new();
    };
    let body = &json[tag + open + 1..];
    let mut entries = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    for (i, c) in body.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = start.take() {
                        entries.push(body[s..=i].to_string());
                    }
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    entries
}

/// The last entry of a report's history, parsed.
pub fn last_entry(json: &str) -> Option<HistoryEntry> {
    prior_entries(json)
        .last()
        .and_then(|e| HistoryEntry::parse(e))
}

/// The report's latest trajectory point — the last `"history"` entry when
/// one exists, otherwise an entry synthesized from the report's own fields
/// (pre-trajectory reports carried scale, host and wall times at the top
/// level and per-cell simulated cycles). Lets the gate compare against a
/// base build that predates the history array.
pub fn entry_from_report(json: &str) -> Option<HistoryEntry> {
    if let Some(e) = last_entry(json) {
        return Some(e);
    }
    let cells_open = json.find("\"cells\": [")?;
    let cells_body = &json[cells_open..];
    let cells_end = cells_body.find("\n  ],").unwrap_or(cells_body.len());
    let cells_body = &cells_body[..cells_end];
    let mut total_cycles = 0u64;
    let mut cells = 0usize;
    let mut rest = cells_body;
    while let Some(pos) = rest.find("\"cycles\":") {
        rest = &rest[pos..];
        total_cycles += number_field(rest, "cycles")?;
        cells += 1;
        rest = &rest[9..];
    }
    Some(HistoryEntry {
        git_rev: string_field(json, "git_rev").unwrap_or_else(|| "unknown".into()),
        rustc: string_field(json, "rustc").unwrap_or_else(|| "unknown".into()),
        host_cores: number_field(json, "host_cores")? as usize,
        scale: string_field(json, "scale")?,
        workers: number_field(json, "workers").unwrap_or(1) as usize,
        cells,
        total_cycles,
        seq_wall_ns: number_field(json, "seq_wall_ns")?,
        // Durable reports carry the swept policy at the top level.
        force_policy: string_field(
            &json[..json.find("\"cells\": [").unwrap_or(json.len())],
            "force_policy",
        ),
    })
}

/// Environment variable that permits appending `-dirty` trajectory points.
pub const ALLOW_DIRTY_ENV: &str = "PTM_BENCH_ALLOW_DIRTY";

/// Whether the user explicitly opted into appending unreproducible points.
pub fn dirty_allowed() -> bool {
    std::env::var(ALLOW_DIRTY_ENV).is_ok_and(|v| v == "1")
}

/// Refuses a trajectory point that can never be rebuilt for comparison: a
/// `-dirty` revision has no checkout to re-measure, so committing it into a
/// BENCH_*.json pollutes the trajectory. `allow_dirty` (normally
/// [`dirty_allowed`]) overrides for local experimentation.
pub fn check_appendable(entry: &HistoryEntry, allow_dirty: bool) -> Result<(), String> {
    if entry.git_rev.ends_with("-dirty") && !allow_dirty {
        return Err(format!(
            "refusing to append history entry for {}: the working tree has \
             uncommitted changes, so this point can never be rebuilt for \
             comparison — commit first, or set {ALLOW_DIRTY_ENV}=1 to \
             record it anyway",
            entry.git_rev
        ));
    }
    Ok(())
}

/// Renders the `"history"` array block (prior entries plus the new one),
/// indented for the top level of a report object, ending in `,\n`.
/// Refuses (per [`check_appendable`]) to extend the trajectory with a
/// `-dirty` point unless `allow_dirty` is set.
pub fn render_history(
    prior: &[String],
    new_entry: &HistoryEntry,
    allow_dirty: bool,
) -> Result<String, String> {
    check_appendable(new_entry, allow_dirty)?;
    let mut s = String::from("  \"history\": [\n");
    for e in prior {
        s.push_str("    ");
        s.push_str(e);
        s.push_str(",\n");
    }
    s.push_str("    ");
    s.push_str(&new_entry.to_json());
    s.push_str("\n  ],\n");
    Ok(s)
}

/// Bin-side wrapper around [`render_history`]: renders the history block,
/// or exits 2 with the refusal message — the bench emitters' uniform
/// refuse-don't-pollute behavior. `bin` prefixes the message.
pub fn render_history_or_die(bin: &str, prior: &[String], entry: &HistoryEntry) -> String {
    render_history(prior, entry, dirty_allowed()).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        std::process::exit(2);
    })
}

/// Compares two trajectory points measured on the same host: `Ok(ratio)`
/// with `ratio = new/old` throughput when comparable, `Err` when the
/// points were measured under different conditions (scale, cell count or
/// host width) and a wall-clock comparison would be meaningless.
pub fn throughput_ratio(old: &HistoryEntry, new: &HistoryEntry) -> Result<f64, String> {
    if old.scale != new.scale || old.cells != new.cells {
        return Err(format!(
            "incomparable runs: {} cells at {} vs {} cells at {}",
            old.cells, old.scale, new.cells, new.scale
        ));
    }
    if old.host_cores != new.host_cores {
        return Err(format!(
            "incomparable hosts: {} cores vs {} cores",
            old.host_cores, new.host_cores
        ));
    }
    Ok(new.throughput_cycles_per_s() as f64 / old.throughput_cycles_per_s().max(1) as f64)
}

/// Compares two *durable-sweep* trajectory points: `Ok(ratio)` with
/// `ratio = new/old` throughput when comparable. On top of
/// [`throughput_ratio`]'s conditions, both entries must carry a force
/// policy and the policies must match — eager/lazy/group trade commit
/// latency for durability by design, so a cross-policy ratio would gate a
/// configuration change as if it were a regression.
pub fn durable_ratio(old: &HistoryEntry, new: &HistoryEntry) -> Result<f64, String> {
    let (Some(old_p), Some(new_p)) = (&old.force_policy, &new.force_policy) else {
        return Err("a run carries no durable trajectory point (no force_policy)".into());
    };
    if old_p != new_p {
        return Err(format!(
            "incomparable force policies: {old_p} vs {new_p} — \
             commit latency is the policy trade-off, not a regression"
        ));
    }
    throughput_ratio(old, new)
}

/// Compares two *service* trajectory points (`BENCH_service.json` or
/// `BENCH_service_chaos.json`): `Ok(ratio)` with `ratio = new/old`
/// throughput when comparable. On top of [`throughput_ratio`]'s
/// conditions, the shard counts (recorded as `workers`) must match, and
/// the `force_policy` tags must agree exactly — a plain service report
/// carries none, a chaos report carries `"mixed"`, and comparing one
/// against the other would gate the journal's force cost as if it were a
/// frontend regression.
pub fn service_ratio(old: &HistoryEntry, new: &HistoryEntry) -> Result<f64, String> {
    if old.workers != new.workers {
        return Err(format!(
            "incomparable shard counts: {} vs {}",
            old.workers, new.workers
        ));
    }
    if old.force_policy != new.force_policy {
        let name = |p: &Option<String>| p.clone().unwrap_or_else(|| "none".into());
        return Err(format!(
            "incomparable service reports: force_policy {} vs {} — a journaled \
             chaos sweep cannot gate against an unjournaled frontend sweep",
            name(&old.force_policy),
            name(&new.force_policy)
        ));
    }
    throughput_ratio(old, new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(cycles: u64, wall: u64) -> HistoryEntry {
        HistoryEntry {
            git_rev: "abc123def456".into(),
            rustc: "rustc 1.95.0".into(),
            host_cores: 4,
            scale: "Tiny".into(),
            workers: 1,
            cells: 49,
            total_cycles: cycles,
            seq_wall_ns: wall,
            force_policy: None,
        }
    }

    #[test]
    fn entry_round_trips_through_json() {
        let e = entry(123_456_789, 1_000_000_000);
        let parsed = HistoryEntry::parse(&e.to_json()).unwrap();
        assert_eq!(parsed, e);
        assert_eq!(parsed.throughput_cycles_per_s(), 123_456_789);
    }

    #[test]
    fn entries_with_retired_parallel_keys_still_parse() {
        // Entries written before the speculative executor was removed carry
        // parallel-pass keys; the parser ignores them.
        let e = entry(1_000_000, 2_000_000_000);
        let json = e.to_json().replace(
            '}',
            ", \"parallel_wall_ns\": 1000000000, \"speedup\": 2.0000, \
             \"spec_commit_fraction\": 0.5000}",
        );
        assert_eq!(HistoryEntry::parse(&json).unwrap(), e);
    }

    #[test]
    fn history_extraction_survives_rewrites() {
        let e1 = entry(100, 10);
        let e2 = entry(200, 10);
        let report = format!(
            "{{\n  \"scale\": \"Tiny\",\n{}  \"totals\": {{\"x\": 1}}\n}}\n",
            render_history(&[e1.to_json()], &e2, false).unwrap()
        );
        let prior = prior_entries(&report);
        assert_eq!(prior.len(), 2);
        assert_eq!(HistoryEntry::parse(&prior[0]).unwrap(), e1);
        assert_eq!(last_entry(&report).unwrap(), e2);
        // Appending a third entry preserves the first two verbatim.
        let e3 = entry(300, 10);
        let report2 = format!(
            "{{\n{}  \"ok\": true\n}}\n",
            render_history(&prior, &e3, false).unwrap()
        );
        assert_eq!(prior_entries(&report2).len(), 3);
        assert_eq!(last_entry(&report2).unwrap(), e3);
    }

    #[test]
    fn missing_history_starts_fresh() {
        assert!(prior_entries("{\"scale\": \"Tiny\"}").is_empty());
        assert!(last_entry("not json at all").is_none());
    }

    #[test]
    fn legacy_reports_yield_a_synthesized_point() {
        // A pre-trajectory report: no "history" array, per-cell cycles only.
        let report = concat!(
            "{\n",
            "  \"scale\": \"Tiny\",\n",
            "  \"workers\": 2,\n",
            "  \"host_cores\": 4,\n",
            "  \"cells\": [\n",
            "    {\"family\": \"t1\", \"cycles\": 100, \"wall_seq_ns\": 5},\n",
            "    {\"family\": \"t1\", \"cycles\": 250, \"wall_seq_ns\": 5}\n",
            "  ],\n",
            "  \"totals\": {\n    \"seq_wall_ns\": 700\n  }\n",
            "}\n",
        );
        let e = entry_from_report(report).unwrap();
        assert_eq!(e.git_rev, "unknown");
        assert_eq!(e.scale, "Tiny");
        assert_eq!(e.workers, 2);
        assert_eq!(e.host_cores, 4);
        assert_eq!(e.cells, 2);
        assert_eq!(e.total_cycles, 350);
        assert_eq!(e.seq_wall_ns, 700);

        // With a history array present, the last entry wins instead.
        let e2 = entry(42, 7);
        let with_history = format!(
            "{{\n{}  \"ok\": true\n}}\n",
            render_history(&[], &e2, false).unwrap()
        );
        assert_eq!(entry_from_report(&with_history).unwrap(), e2);
    }

    #[test]
    fn ratio_detects_regressions_and_refuses_apples_to_oranges() {
        let old = entry(1_000_000, 1_000_000_000);
        let new = entry(850_000, 1_000_000_000);
        let r = throughput_ratio(&old, &new).unwrap();
        assert!((r - 0.85).abs() < 1e-9);

        let mut other_scale = new.clone();
        other_scale.scale = "Full".into();
        assert!(throughput_ratio(&old, &other_scale).is_err());

        let mut other_host = new.clone();
        other_host.host_cores = 64;
        assert!(throughput_ratio(&old, &other_host).is_err());
    }

    #[test]
    fn durable_entry_round_trips_and_ratio_refuses_cross_policy() {
        let mut old = entry(1_000_000, 1_000_000_000);
        old.force_policy = Some("eager".into());
        let parsed = HistoryEntry::parse(&old.to_json()).unwrap();
        assert_eq!(parsed, old);

        let mut new = entry(900_000, 1_000_000_000);
        new.force_policy = Some("eager".into());
        let r = durable_ratio(&old, &new).unwrap();
        assert!((r - 0.9).abs() < 1e-9);

        let mut lazy = new.clone();
        lazy.force_policy = Some("lazy".into());
        let err = durable_ratio(&old, &lazy).unwrap_err();
        assert!(err.contains("eager") && err.contains("lazy"), "{err}");

        // A non-durable point cannot be durable-gated.
        assert!(durable_ratio(&entry(1, 1), &new).is_err());
        // The base throughput refusals still apply.
        let mut other_scale = new.clone();
        other_scale.scale = "Full".into();
        assert!(durable_ratio(&old, &other_scale).is_err());
    }

    #[test]
    fn dirty_entries_are_refused_unless_allowed() {
        let mut dirty = entry(100, 10);
        dirty.git_rev = "abc123def456-dirty".into();

        let err = check_appendable(&dirty, false).unwrap_err();
        assert!(
            err.contains("abc123def456-dirty") && err.contains(ALLOW_DIRTY_ENV),
            "refusal must name the entry and the override: {err}"
        );
        let err = render_history(&[], &dirty, false).unwrap_err();
        assert!(err.contains("-dirty"), "{err}");

        // The explicit override records the point anyway.
        check_appendable(&dirty, true).unwrap();
        let block = render_history(&[], &dirty, true).unwrap();
        assert!(block.contains("abc123def456-dirty"));

        // Clean entries append regardless.
        check_appendable(&entry(100, 10), false).unwrap();
    }

    #[test]
    fn service_ratio_gates_shards_and_policy_tags() {
        let old = entry(1_000_000, 1_000_000_000);
        let new = entry(900_000, 1_000_000_000);
        let r = service_ratio(&old, &new).unwrap();
        assert!((r - 0.9).abs() < 1e-9);

        // Chaos reports (force_policy "mixed") only compare to chaos.
        let mut chaos_old = old.clone();
        chaos_old.force_policy = Some("mixed".into());
        let mut chaos_new = new.clone();
        chaos_new.force_policy = Some("mixed".into());
        assert!((service_ratio(&chaos_old, &chaos_new).unwrap() - 0.9).abs() < 1e-9);
        let err = service_ratio(&chaos_old, &new).unwrap_err();
        assert!(err.contains("mixed") && err.contains("none"), "{err}");

        let mut other_shards = new.clone();
        other_shards.workers = 8;
        assert!(service_ratio(&old, &other_shards).is_err());
        let mut other_scale = new.clone();
        other_scale.scale = "Full".into();
        assert!(service_ratio(&old, &other_scale).is_err());
    }
}
