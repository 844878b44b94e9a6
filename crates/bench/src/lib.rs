//! Shared harness code for the table/figure regeneration binaries and the
//! oracle sweeps. Everything here checks simulated results; host wall-time
//! claims come from the repository benchmark under `benchmark/`.

use ptm_sim::{run, serialize_programs, speedup_percent, SystemKind};
use ptm_workloads::{Scale, Workload};

pub mod adversity;
pub mod json;
pub mod meta;
pub mod service;
pub mod service_chaos;

/// One Table 1 row, as measured by a run under Select-PTM.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transaction attempts.
    pub aborts: u64,
    /// Exceptions delivered.
    pub exceptions: u64,
    /// Context switches delivered.
    pub context_switches: u64,
    /// Unique pages touched.
    pub pages: usize,
    /// Unique pages written transactionally.
    pub pg_x_wr: usize,
    /// Conservative shadow overhead (%).
    pub conservative_pct: f64,
    /// Ideal shadow overhead (%): peak live shadow pages over footprint.
    pub ideal_pct: f64,
    /// Memory operations per L2 eviction.
    pub mop_per_evict: f64,
}

/// Runs one benchmark under Select-PTM and extracts its Table 1 row.
pub fn table1_row(workload: &Workload) -> Table1Row {
    let m = run(
        workload.machine_config(),
        SystemKind::SelectPtm(Default::default()),
        workload.programs(),
    );
    let stats = m.stats();
    let ptm = m.backend().as_ptm().expect("Select-PTM run").stats();
    let pages = stats.pages.len();
    Table1Row {
        name: workload.name,
        commits: stats.commits,
        aborts: stats.aborts,
        exceptions: m.kernel_stats().exceptions,
        context_switches: m.kernel_stats().context_switches,
        pages,
        pg_x_wr: stats.tx_write_pages.len(),
        conservative_pct: stats.conservative_overhead() * 100.0,
        // "Ideal": shadow pages live at any instant if each transaction's
        // shadows were reclaimed the moment it commits — the average dirty
        // pages per transaction times the concurrency, over the footprint.
        ideal_pct: if pages == 0 {
            0.0
        } else {
            (ptm.avg_tx_dirty_pages() * 4.0 / pages as f64 * 100.0).min(100.0)
        },
        mop_per_evict: stats.mops_per_evict(),
    }
}

/// One Figure 4/5 bar: a system's % speedup over single-threaded execution.
#[derive(Debug, Clone, Copy)]
pub struct SpeedupBar {
    /// The system.
    pub kind: SystemKind,
    /// Cycles of the parallel run.
    pub cycles: u64,
    /// % speedup over the serial baseline.
    pub speedup_pct: f64,
    /// Aborted attempts during the run.
    pub aborts: u64,
}

/// Runs the serial baseline once, then each system, for one workload.
///
/// Lock mode (and the serial baseline) runs the workload's original
/// lock-based program where it differs from the transactional rewrite,
/// matching the paper's methodology.
pub fn speedup_bars(workload: &Workload, systems: &[SystemKind]) -> (u64, Vec<SpeedupBar>) {
    let cfg = workload.machine_config();
    let serial_programs = serialize_programs(&workload.programs_for(SystemKind::Serial));
    let serial = run(cfg, SystemKind::Serial, serial_programs);
    let serial_cycles = serial.stats().cycles;
    let bars = systems
        .iter()
        .map(|&kind| {
            let m = run(cfg, kind, workload.programs_for(kind));
            SpeedupBar {
                kind,
                cycles: m.stats().cycles,
                speedup_pct: speedup_percent(serial_cycles, m.stats().cycles),
                aborts: m.stats().aborts,
            }
        })
        .collect();
    (serial_cycles, bars)
}

/// Reads the environment variable `name` through `parse`; `None` when it
/// is unset. Every option of every bench binary enters here.
///
/// # Panics
///
/// Panics, naming the variable and its value, when the value does not
/// parse: a typo must not silently run a different sweep than asked for.
pub fn option<T>(name: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
    match std::env::var(name) {
        Ok(v) => Some(parse(&v).unwrap_or_else(|e| panic!("{name}: {e}"))),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(v)) => panic!("{name}: {v:?} is not UTF-8"),
    }
}

/// Parses a scale name, case-insensitively.
pub fn parse_scale(name: &str) -> Result<Scale, String> {
    match name.to_ascii_lowercase().as_str() {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "full" => Ok(Scale::Full),
        _ => Err(format!(
            "unknown value {name:?}: expected one of tiny, small, full"
        )),
    }
}

/// Parses a `u64`, decimal or `0x`-hex in either case.
pub fn parse_u64(value: &str) -> Result<u64, String> {
    let lower = value.to_ascii_lowercase();
    let parsed = match lower.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => lower.parse(),
    };
    parsed.map_err(|_| format!("invalid value {value:?}: expected a decimal or 0x-hex u64"))
}

/// The benchmark scale used by the regeneration binaries: `PTM_SCALE`
/// (`tiny`, `small`, `full`, any case), `small` when unset.
pub fn scale_from_env() -> Scale {
    option("PTM_SCALE", parse_scale).unwrap_or(Scale::Small)
}

/// Where a sweep binary writes its report: `PTM_BENCH_OUT`, or `default`
/// in the working directory.
pub fn out_path(default: &str) -> String {
    option("PTM_BENCH_OUT", |v| Ok(v.to_string())).unwrap_or_else(|| default.to_string())
}

/// Arithmetic mean, matching the "Average" bar of the paper's figures.
pub fn average(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_of_known_values() {
        assert_eq!(average(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(average(&[]), 0.0);
    }

    #[test]
    fn parse_scale_is_case_insensitive() {
        assert_eq!(parse_scale("tiny").unwrap(), Scale::Tiny);
        assert_eq!(parse_scale("Small").unwrap(), Scale::Small);
        assert_eq!(parse_scale("FULL").unwrap(), Scale::Full);
    }

    #[test]
    fn parse_scale_rejects_unknown_values() {
        let err = parse_scale("ful").unwrap_err();
        assert!(err.contains("ful"), "{err}");
        assert!(err.contains("tiny, small, full"), "{err}");
    }

    #[test]
    fn parse_u64_takes_decimal_and_hex_and_names_bad_values() {
        assert_eq!(parse_u64("42"), Ok(42));
        assert_eq!(parse_u64("0x2a"), Ok(42));
        assert_eq!(parse_u64("0X2A"), Ok(42));
        for bad in ["abc", "-1", "", "0x"] {
            let err = parse_u64(bad).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn table1_row_extracts_counters() {
        let w = ptm_workloads::water::workload(Scale::Tiny);
        let row = table1_row(&w);
        assert_eq!(row.name, "water");
        assert!(row.commits > 0);
        assert!(row.pages > 0);
        assert!(row.pg_x_wr <= row.pages);
    }

    #[test]
    fn speedup_bars_cover_requested_systems() {
        let w = ptm_workloads::synthetic::quickstart();
        let systems = [SystemKind::Locks, SystemKind::SelectPtm(Default::default())];
        let (serial, bars) = speedup_bars(&w, &systems);
        assert!(serial > 0);
        assert_eq!(bars.len(), 2);
        assert_eq!(bars[0].kind, SystemKind::Locks);
    }
}
