//! Shared harness code for the table/figure regeneration binaries and the
//! oracle sweeps. Everything here checks simulated results; host wall-time
//! claims come from the repository benchmark under `benchmark/`.

use ptm_sim::{run, serialize_programs, speedup_percent, SystemKind};
use ptm_workloads::{Scale, Workload};

pub mod cells;
pub mod crash;
pub mod durable;
pub mod faults;
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

/// Parses a scale name, case-insensitively. Unknown names are an error
/// naming the valid options — a typo must not silently downgrade a `full`
/// run to `small`.
pub fn parse_scale(name: &str) -> Result<Scale, String> {
    match name.to_ascii_lowercase().as_str() {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "full" => Ok(Scale::Full),
        other => Err(format!(
            "unknown PTM_SCALE value {other:?}: expected one of tiny, small, full"
        )),
    }
}

/// The benchmark scale used by the regeneration binaries; override with the
/// `PTM_SCALE` environment variable (`tiny`, `small`, `full`, any case).
/// Defaults to `small` when unset.
///
/// # Panics
///
/// Panics on an unrecognized `PTM_SCALE` value.
pub fn scale_from_env() -> Scale {
    match std::env::var("PTM_SCALE") {
        Ok(v) => parse_scale(&v).unwrap_or_else(|e| panic!("{e}")),
        Err(_) => Scale::Small,
    }
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
