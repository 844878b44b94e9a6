//! Benchmark cells: one `(workload, system)` machine run whose result
//! depends on nothing but its own spec.
//!
//! The paper's figures and the ablation decompose into these cells, and
//! the oracle sweeps (`faults`, `crash`, `durable`) run them under fault
//! plans, crash points and log devices.

use crate::scale_from_env;
use ptm_sim::SystemKind;
use ptm_workloads::{by_name, synthetic, Scale, SyntheticConfig, Workload};

/// Which workload a cell runs (rebuilt from the spec for every run, so a
/// spec stays `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellWorkload {
    /// One of the five Table 1 benchmarks, by name.
    Splash2(&'static str),
    /// The ablation binary's low-contention synthetic workload.
    SyntheticLow,
    /// `synthetic::overflowing(seed)`.
    SyntheticOverflowing(u64),
    /// `synthetic::contended(seed)`.
    SyntheticContended(u64),
}

impl CellWorkload {
    /// A stable display name.
    pub fn name(&self) -> String {
        match self {
            CellWorkload::Splash2(n) => (*n).to_string(),
            CellWorkload::SyntheticLow => "syn-low".to_string(),
            CellWorkload::SyntheticOverflowing(s) => format!("syn-overflow-{s}"),
            CellWorkload::SyntheticContended(s) => format!("syn-contended-{s}"),
        }
    }

    pub(crate) fn build(&self, scale: Scale) -> Workload {
        match self {
            CellWorkload::Splash2(n) => by_name(n, scale).expect("known benchmark"),
            CellWorkload::SyntheticLow => synthetic::workload(SyntheticConfig {
                shared_fraction: 0.05,
                ops_per_tx: 120,
                private_pages: 32,
                ..SyntheticConfig::default()
            }),
            CellWorkload::SyntheticOverflowing(s) => synthetic::overflowing(*s),
            CellWorkload::SyntheticContended(s) => synthetic::contended(*s),
        }
    }
}

/// One independent unit of harness work.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    /// Which regeneration family the cell belongs to (`table1`, `fig4`,
    /// `fig5`, `ablation`, `serial`).
    pub family: &'static str,
    /// The workload to build.
    pub workload: CellWorkload,
    /// The system to run it under.
    pub kind: SystemKind,
    /// The problem scale.
    pub scale: Scale,
}

/// The full cell list: Table 1 / Figure 4 / Figure 5 cells for the
/// five benchmarks (deduplicated across families) plus the ablation's
/// synthetic grid.
pub fn default_cells(scale: Scale) -> Vec<CellSpec> {
    let mut cells: Vec<CellSpec> = Vec::new();
    let mut push = |family: &'static str, workload: CellWorkload, kind: SystemKind| {
        if !cells
            .iter()
            .any(|c| c.workload == workload && c.kind == kind)
        {
            cells.push(CellSpec {
                family,
                workload,
                kind,
                scale,
            });
        }
    };
    for app in ["fft", "lu", "radix", "ocean", "water"] {
        let w = CellWorkload::Splash2(app);
        push("table1", w, SystemKind::SelectPtm(Default::default()));
        push("serial", w, SystemKind::Serial);
        for kind in SystemKind::figure4() {
            push("fig4", w, kind);
        }
        for kind in SystemKind::figure5() {
            push("fig5", w, kind);
        }
    }
    for workload in [
        CellWorkload::SyntheticLow,
        CellWorkload::SyntheticOverflowing(7),
        CellWorkload::SyntheticContended(7),
    ] {
        for kind in [
            SystemKind::CopyPtm,
            SystemKind::SelectPtm(Default::default()),
            SystemKind::LogTm,
        ] {
            push("ablation", workload, kind);
        }
    }
    cells
}

/// The scale plus cell list the `faults` binary runs.
pub fn cells_from_env() -> (Scale, Vec<CellSpec>) {
    let scale = scale_from_env();
    (scale, default_cells(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cell_list_is_deduplicated() {
        let cells = default_cells(Scale::Tiny);
        for (i, a) in cells.iter().enumerate() {
            for b in &cells[i + 1..] {
                assert!(
                    !(a.workload == b.workload && a.kind == b.kind),
                    "duplicate cell {:?}/{:?}",
                    a.workload,
                    a.kind
                );
            }
        }
        // Every family is represented.
        for fam in ["table1", "serial", "fig4", "fig5", "ablation"] {
            assert!(cells.iter().any(|c| c.family == fam), "{fam} missing");
        }
    }
}
