//! End-to-end and per-layer benchmark of the PTM simulator and the
//! PTM-as-a-service frontend.
//!
//! Four workloads, each run in its own process:
//!
//! * `paper` — the paper's Table 1 / Figure 4 / Figure 5 cells through
//!   `Machine::run`;
//! * `faulted` — PTM cells through `Machine::run_with_faults` under a
//!   seeded fault plan;
//! * `svc-zipf` — the threaded service without a journal, Zipf s=0.9;
//! * `svc-durable-hot` — the service with a group-commit journal on hot
//!   keys, then a crash and recovery.
//!
//! Every layer is timed from outside, around calls to its public
//! functions. See `README.md` for the metric definitions.

pub mod report;
pub mod sim;
pub mod stats;
pub mod svc;
pub mod trace;

pub use report::{Outcome, END_TO_END, PER_LAYER};

use ptm_workloads::Scale;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 40 cells.
    Paper,
    /// 21 PTM cells under injected faults.
    Faulted,
    /// The volatile service on a Zipf s=0.9 stream.
    SvcZipf,
    /// The journaled service on a hot s=1.2 stream, plus recovery.
    SvcDurableHot,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Paper,
        Workload::Faulted,
        Workload::SvcZipf,
        Workload::SvcDurableHot,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Faulted => "faulted",
            Workload::SvcZipf => "svc-zipf",
            Workload::SvcDurableHot => "svc-durable-hot",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one run does. [`Size::for_run`] scales it to the
/// requested run length; tests use [`Size::tiny`].
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Input size of the simulator kernels.
    pub scale: Scale,
    /// Timed passes over the simulator cells.
    pub passes: usize,
    /// Client transactions in the service stream.
    pub txs: usize,
}

/// Set-ups per run; `setup_s` is their median. The first set-ups of a
/// process fault fresh pages in and run up to 3x slower than later ones,
/// so the median needs enough later ones to settle.
const SETUPS: usize = 9;

impl Size {
    /// The work of a `seconds`-long measurement on a 2-core host. The
    /// work is fixed by `seconds` alone, not by the clock, so simulated
    /// counts repeat exactly from run to run.
    pub fn for_run(workload: Workload, seconds: u64) -> Size {
        let s = seconds.max(1) as usize;
        let (passes, txs) = match workload {
            Workload::Paper => ((s * 2).div_ceil(5).max(2), 0),
            Workload::Faulted => (s.max(2), 0),
            Workload::SvcZipf => (0, 120_000 * s),
            Workload::SvcDurableHot => (0, 60_000 * s),
        };
        Size {
            scale: Scale::Small,
            passes,
            txs,
        }
    }

    /// A few-second size for tests.
    pub fn tiny(workload: Workload) -> Size {
        let svc = matches!(workload, Workload::SvcZipf | Workload::SvcDurableHot);
        Size {
            scale: Scale::Tiny,
            passes: 2,
            txs: if svc { 6_000 } else { 0 },
        }
    }
}

/// Runs one workload. With `trace`, the untraced run is followed by a
/// traced one that yields the per-layer metrics.
pub fn run(workload: Workload, seed: u64, size: &Size, trace: bool) -> Outcome {
    let mut out = Outcome {
        workload: workload.name(),
        seed,
        trace,
        ..Outcome::default()
    };
    match workload {
        Workload::Paper => sim::run(sim::Grid::Paper, seed, size, trace, &mut out),
        Workload::Faulted => sim::run(sim::Grid::Faulted, seed, size, trace, &mut out),
        Workload::SvcZipf => svc::run(svc::Mode::Zipf, seed, size, trace, &mut out),
        Workload::SvcDurableHot => svc::run(svc::Mode::DurableHot, seed, size, trace, &mut out),
    }
    if trace {
        // Layers this workload does not exercise read 0.
        for &(name, _) in PER_LAYER {
            out.per_layer.entry(name).or_insert_with(|| report::Metric {
                value: 0.0,
                samples: Vec::new(),
            });
        }
    }
    for (name, m) in out.end_to_end.iter().chain(&out.per_layer) {
        out.checks.expect(m.value.is_finite(), || {
            format!("metric {name} is not finite")
        });
    }
    out
}

/// Peak resident set of this process so far (`VmHWM`), in MB; 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    let kb: Option<f64> = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        });
    kb.unwrap_or(0.0) / 1024.0
}
