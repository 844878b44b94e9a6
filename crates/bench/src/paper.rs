//! The paper grid (the `paper` binary's engine): Table 1, Figures 4–5
//! and the design ablations, all read from one set of machine runs.
//!
//! A [`Cell`] is one `(workload, system, abort penalty)` machine run. The
//! grid has two named slices. `figures` runs each SPLASH-2 kernel under
//! the serial baseline, 4p-locks, VTM, VC-VTM, Copy-PTM, Sel-PTM,
//! wd:cache, wd:cache+mem and LogTM: Table 1 reads the Sel-PTM cells, and
//! Figures 4 and 5 read every bar against the kernel's serial cell.
//! `ablation` runs the synthetic rows of the design ablations. No
//! `(workload, system, abort penalty)` appears twice, and [`run_grid`]
//! builds each workload once for all of its cells.
//!
//! [`Paper`]'s `Display` prints the tables EXPERIMENTS.md quotes,
//! [`check`] holds the results to the orderings the paper reports
//! (`CLAIMS`), and [`render`] writes `BENCH_paper.json`.

use crate::average;
use crate::json::{self, Fixed, Obj};
use ptm_core::{PtmConfig, PtmPolicy, PtmStats, PtmSystem, ShadowFreePolicy};
use ptm_sim::{
    run, serialize_programs, speedup_percent, KernelStats, MachineStats, SystemKind, ThreadProgram,
};
use ptm_types::Granularity;
use ptm_workloads::{by_name, synthetic, Scale, SyntheticConfig, Workload};
use std::fmt::{self, Formatter};
use std::time::Instant;

/// The slices of the default grid, in run order.
const SLICES: [&str; 2] = ["figures", "ablation"];

/// The five SPLASH-2 kernels, in Table 1 order.
const KERNELS: [&str; 5] = ["fft", "lu", "radix", "ocean", "water"];

const SEL: SystemKind = SystemKind::SelectPtm(Granularity::Block);
const WORD: SystemKind = SystemKind::SelectPtm(Granularity::WordCacheMem);

/// The systems every kernel runs under, each with the report that first
/// reads its cell: Table 1, the serial baseline, Figure 4 or Figure 5.
/// LogTM, an extension beyond the paper's systems, is Figure 4's last bar.
const FIGURE_SYSTEMS: [(&str, SystemKind); 9] = [
    ("table1", SEL),
    ("serial", SystemKind::Serial),
    ("fig4", SystemKind::Locks),
    ("fig4", SystemKind::Vtm),
    ("fig4", SystemKind::VictimVtm),
    ("fig4", SystemKind::CopyPtm),
    ("fig5", SystemKind::SelectPtm(Granularity::WordCache)),
    ("fig5", WORD),
    ("fig4", SystemKind::LogTm),
];

/// The abort penalties of the sensitivity ablation (the default is 150).
const PENALTIES: [u64; 4] = [25, 150, 600, 2400];

/// One paper row: name, commits, aborts, exceptions, context switches,
/// pages, tx-written pages, conservative %, ideal %, mops/evict.
type PaperRow = (&'static str, u64, u64, u64, u64, u64, u64, f64, f64, f64);

/// The paper's Table 1 values, for side-by-side comparison.
const TABLE1: [PaperRow; 5] = [
    ("fft", 34, 5, 595, 52, 1041, 551, 52.9, 9.5, 87.5),
    ("lu", 656, 0, 17754, 1079, 2311, 2130, 92.2, 3.6, 95.3),
    ("radix", 70, 17, 615, 116, 771, 629, 81.6, 2.0, 246.3),
    ("ocean", 877, 282, 7417, 1421, 14966, 6769, 45.2, 0.2, 15.8),
    ("water", 59, 8, 32, 127, 241, 110, 45.6, 2.6, 4926.3),
];

// The listings' fixed text, verbatim.

const TABLE1_HEAD: &str = "\
(measured by this reproduction; paper values in parentheses — absolute
 magnitudes differ with problem scale, orderings should match)

app             commit        abort      exception     ctx-switch          pages        pg-x-wr     conservative          mop/evict
";

const TABLE1_FOOT: &str = "
(a mop/evict of 99999.0 means the working set never evicted)
(ideal shadow overhead: peak live shadow pages / footprint)
";

const FIGURE4_FOOT: &str = "
paper averages: 4p-locks 134%, VTM (collapses on fft/ocean), VC-VTM 72%,
                Copy-PTM 116%, Sel-PTM 220%
expected shape: Sel-PTM > locks ≈ Copy-PTM > VC-VTM > VTM;
                VTM worst on overflow/commit-heavy apps (fft, ocean)
";

const FIGURE5_FOOT: &str = "
paper: radix gains most (116% → 170%); wd:cache alone gives only minor
speedups (an evicted block with multiple word-writers still aborts);
the effect is benchmark-dependent and strongest where false sharing is.
";

const COPY_SEL_HEAD: &str = "\
— Copy-PTM vs Select-PTM as contention grows —
workload                  Copy cycles   Sel cycles   Copy ab    Sel ab
";

const SHADOW_HEAD: &str = "
— Select-PTM shadow freeing: merge-on-swap vs lazy-migrate —
";

const VTS_HEAD: &str = "\
— VTS cache hit ratios at 512/2048 entries (synthetic overflow-heavy workload) —
";

const LOGTM_HEAD: &str = "\
— LogTM (extension) vs PTM under rising contention —
workload                    LogTM cyc      Sel cyc     Copy cyc   LogTM ab     Sel ab
";

const LOGTM_FOOT: &str = "\
(LogTM prefers stalling: its abort count stays low, but every
 abort walks the undo log in software)

— abort-penalty sensitivity (contended synthetic, Sel-PTM) —
   penalty       cycles    aborts
";

const PENALTY_FOOT: &str = "\
(larger backoff trades retries for idle cycles; the default 150
 sits in the flat part of the curve)
";

/// Which workload a cell runs (built from the cell, so a cell stays
/// `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellWorkload {
    /// One of the five Table 1 benchmarks, by name.
    Splash2(&'static str),
    /// Low-contention synthetic, 120-op transactions over 32 private pages.
    SyntheticLow,
    /// Low-contention synthetic, 200-op transactions over 48 private pages.
    SyntheticLowLong,
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
            CellWorkload::SyntheticLowLong => "syn-low-long".to_string(),
            CellWorkload::SyntheticOverflowing(s) => format!("syn-overflow-{s}"),
            CellWorkload::SyntheticContended(s) => format!("syn-contended-{s}"),
        }
    }

    /// Builds the workload (the synthetic ones ignore `scale`).
    pub fn build(&self, scale: Scale) -> Workload {
        let low = |ops_per_tx, private_pages| {
            synthetic::workload(SyntheticConfig {
                shared_fraction: 0.05,
                ops_per_tx,
                private_pages,
                ..SyntheticConfig::default()
            })
        };
        match self {
            CellWorkload::Splash2(n) => by_name(n, scale).expect("known benchmark"),
            CellWorkload::SyntheticLow => low(120, 32),
            CellWorkload::SyntheticLowLong => low(200, 48),
            CellWorkload::SyntheticOverflowing(s) => synthetic::overflowing(*s),
            CellWorkload::SyntheticContended(s) => synthetic::contended(*s),
        }
    }
}

/// One cell of the paper grid: a `(workload, system)` machine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The slice the cell belongs to: `figures` or `ablation`.
    pub slice: &'static str,
    /// The report that first reads a `figures` cell (`table1`, `serial`,
    /// `fig4`, `fig5`); the slice name elsewhere.
    pub family: &'static str,
    /// The workload.
    pub workload: CellWorkload,
    /// The system.
    pub kind: SystemKind,
    /// The machine's abort penalty; `None` = the workload's default.
    pub abort_penalty: Option<u64>,
}

/// `figures`: every kernel under every system of [`FIGURE_SYSTEMS`].
pub(crate) fn figures_slice() -> Vec<Cell> {
    let cell = |kernel, (family, kind)| Cell {
        slice: "figures",
        family,
        workload: CellWorkload::Splash2(kernel),
        kind,
        abort_penalty: None,
    };
    let cells = KERNELS.map(|k| FIGURE_SYSTEMS.map(|system| cell(k, system)));
    cells.concat()
}

/// `ablation`: the synthetic rows of the ablations, each cell once though
/// two ablations may read it.
fn ablation_slice() -> Vec<Cell> {
    use CellWorkload::*;
    use SystemKind::{CopyPtm, LogTm, Serial};
    let rows: [(CellWorkload, &[SystemKind]); 6] = [
        (SyntheticLowLong, &[CopyPtm, SEL]),
        (SyntheticOverflowing(7), &[CopyPtm, SEL, LogTm]),
        (SyntheticContended(7), &[CopyPtm, SEL, LogTm]),
        (SyntheticOverflowing(21), &[SEL]),
        (SyntheticOverflowing(3), &[SEL, Serial]),
        (SyntheticLow, &[LogTm, SEL, CopyPtm]),
    ];
    let penalties = PENALTIES.map(|p| (SyntheticContended(13), SEL, Some(p)));
    let plain = rows
        .iter()
        .flat_map(|&(w, kinds)| kinds.iter().map(move |&k| (w, k, None)));
    let cell = |(workload, kind, abort_penalty)| Cell {
        slice: "ablation",
        family: "ablation",
        workload,
        kind,
        abort_penalty,
    };
    plain.chain(penalties).map(cell).collect()
}

/// The whole grid: the `figures` slice, then the `ablation` slice.
pub fn default_grid() -> Vec<Cell> {
    [figures_slice(), ablation_slice()].concat()
}

/// What one cell's run left behind.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The cell that ran.
    pub cell: Cell,
    /// The machine's counters.
    pub stats: MachineStats,
    /// The kernel's event counters.
    pub kernel: KernelStats,
    /// The PTM counters, on Copy-PTM and Select-PTM cells.
    pub ptm: Option<PtmStats>,
    /// Host wall-clock of the run, nanoseconds.
    pub wall_ns: u64,
}

/// The programs `kind` runs on `workload`: the serial baseline runs every
/// thread's lock-based program concatenated into one stream.
pub(crate) fn programs(workload: &Workload, kind: SystemKind) -> Vec<ThreadProgram> {
    let programs = workload.programs_for(kind);
    match kind {
        SystemKind::Serial => serialize_programs(&programs),
        _ => programs,
    }
}

/// Runs one cell on its already-built workload.
fn run_cell(cell: &Cell, workload: &Workload) -> CellReport {
    let start = Instant::now();
    let mut cfg = workload.machine_config();
    cfg.abort_penalty = cell.abort_penalty.unwrap_or(cfg.abort_penalty);
    let m = run(cfg, cell.kind, programs(workload, cell.kind));
    CellReport {
        cell: *cell,
        stats: m.stats().clone(),
        kernel: *m.kernel_stats(),
        ptm: m.backend().as_ptm().map(|p| *p.stats()),
        wall_ns: start.elapsed().as_nanos() as u64,
    }
}

/// Runs every cell of `grid` at `scale`, building each workload once for
/// the run of consecutive cells that share it.
pub fn run_grid(grid: &[Cell], scale: Scale) -> Vec<CellReport> {
    let mut built: Option<(CellWorkload, Workload)> = None;
    let mut reports = Vec::with_capacity(grid.len());
    for cell in grid {
        if built.as_ref().map(|b| b.0) != Some(cell.workload) {
            built = Some((cell.workload, cell.workload.build(scale)));
        }
        let (_, workload) = built.as_ref().expect("built above");
        reports.push(run_cell(cell, workload));
    }
    reports
}

/// A focused lazy-migrate measurement at the `PtmSystem` level (a
/// `Machine` always runs the stock merge-on-swap policy): overflow a page,
/// commit, then stream non-transactional writebacks over it.
pub fn lazy_migrate_replay() -> PtmStats {
    use ptm_cache::{BusTimings, SystemBus, TxLineMeta};
    use ptm_mem::{PhysicalMemory, SpecBlock, SwapStore};
    use ptm_types::{BlockIdx, FrameId, PhysBlock, TxId, WordIdx, WordMask};

    let cfg = PtmConfig {
        policy: PtmPolicy::Select,
        shadow_free: ShadowFreePolicy::LazyMigrate,
        ..PtmConfig::select()
    };
    let mut ptm = PtmSystem::new(cfg);
    let mut mem = PhysicalMemory::new(256);
    let mut bus = SystemBus::new(BusTimings::default());
    for _ in 0..16 {
        let f = mem.alloc().expect("256 frames hold 16 pages");
        ptm.on_page_alloc(f);
    }
    for round in 0..16u32 {
        let tx = TxId(u64::from(round));
        ptm.begin(tx, None);
        let block = PhysBlock::new(FrameId(round % 16), BlockIdx((round % 64) as u8));
        let mut meta = TxLineMeta::new(tx);
        meta.record_write(WordIdx(0));
        let spec = SpecBlock {
            data: [round as u8; 64],
            written: WordMask(1),
        };
        ptm.on_tx_eviction(&meta, block, Some(&spec), false, &mut mem, 0, &mut bus)
            .expect("free frames back the shadow page");
        ptm.commit(tx, &mut mem, &mut SwapStore::new(), 100, &mut bus);
        // Non-transactional writeback drains the shadow.
        ptm.on_nontx_dirty_writeback(block, &mut mem);
    }
    *ptm.stats()
}

/// One whole run of the grid: every cell's report, plus the lazy-migrate
/// replay the shadow-freeing ablation compares against.
#[derive(Debug, Clone)]
pub struct Paper {
    /// The problem scale the kernels ran at.
    pub scale: Scale,
    /// One report per grid cell, in grid order.
    pub reports: Vec<CellReport>,
    /// The counters of [`lazy_migrate_replay`].
    pub lazy_migrate: PtmStats,
}

impl Paper {
    /// The report of `kind` on `workload` at `penalty`.
    ///
    /// # Panics
    ///
    /// Panics if the grid has no such cell.
    fn find(&self, w: CellWorkload, kind: SystemKind, penalty: Option<u64>) -> &CellReport {
        let key = |r: &&CellReport| (r.cell.workload, r.cell.kind, r.cell.abort_penalty);
        let found = self.reports.iter().find(|r| key(r) == (w, kind, penalty));
        found.unwrap_or_else(|| panic!("no {} cell on {}", kind.label(), w.name()))
    }

    fn cell(&self, workload: CellWorkload, kind: SystemKind) -> &MachineStats {
        &self.find(workload, kind, None).stats
    }

    fn kernel(&self, kernel: &'static str, kind: SystemKind) -> &CellReport {
        self.find(CellWorkload::Splash2(kernel), kind, None)
    }

    /// The % speedup of `r` over its workload's serial cell, if `r` is
    /// not that cell and the grid has one.
    fn speedup(&self, r: &CellReport) -> Option<f64> {
        let w = r.cell.workload;
        let serial = |s: &&CellReport| (s.cell.workload, s.cell.kind) == (w, SystemKind::Serial);
        let serial = self
            .reports
            .iter()
            .find(serial)
            .filter(|s| s.cell != r.cell)?;
        Some(speedup_percent(serial.stats.cycles, r.stats.cycles))
    }

    /// Every ordering claim with whether this run meets it.
    pub fn claims(&self) -> Vec<(&'static str, bool)> {
        CLAIMS
            .iter()
            .map(|&(claim, holds)| (claim, holds(self)))
            .collect()
    }

    fn table1(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let scale = self.scale;
        writeln!(
            f,
            "Table 1 — transactional execution behaviour (scale: {scale:?})"
        )?;
        f.write_str(TABLE1_HEAD)?;
        for p in TABLE1 {
            let (r, k) = (&self.kernel(p.0, SEL).stats, self.kernel(p.0, SEL).kernel);
            let mop = Some(r.mops_per_evict()).filter(|m| m.is_finite());
            writeln!(
                f,
                "{:<7} {:>6} ({:>5}) {:>5} ({:>4}) {:>6} ({:>6}) {:>6} ({:>5}) {:>6} ({:>6}) {:>6} ({:>5}) {:>6.1}% ({:>4.1}%) {:>8.1} ({:>6.1})",
                p.0,
                r.commits, p.1,
                r.aborts, p.2,
                k.exceptions, p.3,
                k.context_switches, p.4,
                r.pages.len(), p.5,
                r.tx_write_pages.len(), p.6,
                r.conservative_overhead() * 100.0, p.7,
                mop.unwrap_or(99999.0), p.9,
            )?;
        }
        f.write_str(TABLE1_FOOT)?;
        for p in TABLE1 {
            // "Ideal": shadow pages live at any instant if each
            // transaction's shadows were reclaimed the moment it commits —
            // the average dirty pages per transaction times the
            // concurrency, over the footprint.
            let r = self.kernel(p.0, SEL);
            let (pages, dirty) = (r.stats.pages.len() as f64, r.ptm.unwrap_or_default());
            let ideal = match r.stats.pages.len() {
                0 => 0.0,
                _ => (dirty.avg_tx_dirty_pages() * 4.0 / pages * 100.0).min(100.0),
            };
            writeln!(
                f,
                "  {:<7} ideal = {ideal:>5.1}%  (paper: {:.1}%)",
                p.0, p.8
            )?;
        }
        Ok(())
    }

    /// One speedup figure: a row per kernel with a bar per system, then
    /// the Average row; `extra` adds a last column (its header and each
    /// kernel's entry).
    fn speedups(
        &self,
        f: &mut Formatter<'_>,
        systems: &[SystemKind],
        extra: Option<(&str, &dyn Fn(&'static str) -> String)>,
    ) -> fmt::Result {
        write!(f, "{:<8}", "app")?;
        for s in systems {
            write!(f, "{:>14}", s.label())?;
        }
        match extra {
            Some((header, _)) => writeln!(f, "{header:>14}")?,
            None => writeln!(f)?,
        }
        let mut columns = vec![Vec::new(); systems.len()];
        for kernel in KERNELS {
            write!(f, "{kernel:<8}")?;
            for (column, &kind) in columns.iter_mut().zip(systems) {
                let pct = self
                    .speedup(self.kernel(kernel, kind))
                    .expect("serial cell");
                write!(f, "{pct:>13.0}%")?;
                column.push(pct);
            }
            writeln!(f, "{}", extra.map_or(String::new(), |e| e.1(kernel)))?;
        }
        write!(f, "{:<8}", "Average")?;
        for column in &columns {
            write!(f, "{:>13.0}%", average(column))?;
        }
        writeln!(f)
    }

    fn ablations(&self, f: &mut Formatter<'_>) -> fmt::Result {
        use CellWorkload::*;
        use SystemKind::{CopyPtm, LogTm, Serial};
        let (overflow, contended) = (SyntheticOverflowing(7), SyntheticContended(7));
        f.write_str(COPY_SEL_HEAD)?;
        let rows = [
            ("low contention", SyntheticLowLong),
            ("medium contention", overflow),
        ];
        for (label, w) in rows.into_iter().chain([("high contention", contended)]) {
            let [copy, sel] = [CopyPtm, SEL].map(|kind| self.cell(w, kind));
            writeln!(
                f,
                "{label:<24} {:>12} {:>12} {:>9} {:>9}",
                copy.cycles, sel.cycles, copy.aborts, sel.aborts
            )?;
        }

        f.write_str(SHADOW_HEAD)?;
        let m = self
            .find(SyntheticOverflowing(21), SEL, None)
            .ptm
            .unwrap_or_default();
        writeln!(
            f,
            "merge-on-swap : shadows allocated={} freed={} peak={}",
            m.shadow_allocs, m.shadow_frees, m.peak_shadow_pages
        )?;
        let l = &self.lazy_migrate;
        writeln!(
            f,
            "lazy-migrate  : shadows allocated={} freed={} migrations={}\n",
            l.shadow_allocs, l.shadow_frees, l.lazy_migrations
        )?;

        // The stock machine uses the paper's 512/2048 sizes and nothing
        // here shrinks them: every miss is a hardware walk of the
        // in-memory structures at those sizes.
        f.write_str(VTS_HEAD)?;
        let vts = self.find(SyntheticOverflowing(3), SEL, None);
        let s = vts.ptm.unwrap_or_default();
        let (spt, spt_all) = (s.spt_cache_hits, s.spt_cache_hits + s.spt_cache_misses);
        let (tav, tav_all) = (s.tav_cache_hits, s.tav_cache_hits + s.tav_cache_misses);
        let pct = |hits, all: u64| hits as f64 / all.max(1) as f64 * 100.0;
        let (spt_pct, tav_pct, walk) = (pct(spt, spt_all), pct(tav, tav_all), s.tav_walk_nodes);
        write!(f, "SPT cache: {spt}/{spt_all} hits ({spt_pct:.1}%) | ")?;
        writeln!(
            f,
            "TAV cache: {tav}/{tav_all} hits ({tav_pct:.1}%) | walk nodes: {walk}"
        )?;
        // The serial-overhead sanity number: four transactional streams
        // against the same work on one.
        let serial = self.cell(SyntheticOverflowing(3), Serial).cycles;
        let (tm, speedup) = (vts.stats.cycles, self.speedup(vts).expect("serial cell"));
        writeln!(f, "serial={serial} sel-ptm(4p)={tm} speedup={speedup:.0}%")?;

        f.write_str(LOGTM_HEAD)?;
        let rows = [
            ("low contention", SyntheticLow),
            ("overflow heavy", overflow),
        ];
        for (label, w) in rows.into_iter().chain([("high contention", contended)]) {
            let [log, sel, copy] = [LogTm, SEL, CopyPtm].map(|kind| self.cell(w, kind));
            writeln!(
                f,
                "{label:<24} {:>12} {:>12} {:>12} {:>10} {:>10}",
                log.cycles, sel.cycles, copy.cycles, log.aborts, sel.aborts
            )?;
        }

        f.write_str(LOGTM_FOOT)?;
        for penalty in PENALTIES {
            let r = &self.find(SyntheticContended(13), SEL, Some(penalty)).stats;
            writeln!(f, "{penalty:>10} {:>12} {:>9}", r.cycles, r.aborts)?;
        }
        f.write_str(PENALTY_FOOT)
    }
}

/// The listings EXPERIMENTS.md quotes: Table 1, Figure 4, Figure 5 and
/// the ablations, one blank line apart.
impl fmt::Display for Paper {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let scale = self.scale;
        self.table1(f)?;
        writeln!(
            f,
            "\nFigure 4 — % speedup over one thread (scale: {scale:?})\n"
        )?;
        let figure4 = [&SystemKind::figure4()[..], &[SystemKind::LogTm]].concat();
        self.speedups(f, &figure4, None)?;
        writeln!(f, "{FIGURE4_FOOT}")?;
        writeln!(
            f,
            "Figure 5 — word-granularity conflict detection (scale: {scale:?})\n"
        )?;
        // The abort delta that explains the gain: block → word everywhere.
        let aborts = |kernel: &'static str| {
            let [blk, wd] = [SEL, WORD].map(|kind| self.kernel(kernel, kind).stats.aborts);
            format!("{blk:>8} → {wd:<4}")
        };
        self.speedups(f, &SystemKind::figure5(), Some(("blk aborts", &aborts)))?;
        writeln!(f, "{FIGURE5_FOOT}")?;
        self.ablations(f)
    }
}

/// Whether `kind`'s bar on `kernel` is at least `other`'s: the same
/// serial baseline, so no more cycles.
fn at_least(p: &Paper, kernel: &'static str, kind: SystemKind, other: SystemKind) -> bool {
    p.kernel(kernel, kind).stats.cycles <= p.kernel(kernel, other).stats.cycles
}

/// Copy-PTM's extra cycles over Sel-PTM's on `workload`, relative to
/// Sel-PTM's.
fn copy_gap(p: &Paper, workload: CellWorkload) -> f64 {
    let cycles = |kind| p.cell(workload, kind).cycles as f64;
    let (copy, sel) = (cycles(SystemKind::CopyPtm), cycles(SEL));
    (copy - sel) / sel
}

/// A claim: its text and the test of whether a run meets it.
type Claim = (&'static str, fn(&Paper) -> bool);

/// The orderings EXPERIMENTS.md reports as reproduced, each checked on
/// every run above Tiny scale.
const CLAIMS: [Claim; 5] = [
    ("Sel-PTM >= Copy-PTM >= VC-VTM >= VTM on every kernel", |p| {
        use SystemKind::{CopyPtm, VictimVtm, Vtm};
        let order = [SEL, CopyPtm, VictimVtm, Vtm];
        let ordered = |k| order.windows(2).all(|w| at_least(p, k, w[0], w[1]));
        KERNELS.into_iter().all(ordered)
    }),
    ("VTM is the lowest TM bar on fft and ocean", |p| {
        let tm = FIGURE_SYSTEMS.map(|s| s.1).into_iter().filter(|s| s.is_transactional());
        let lowest = |k| tm.clone().all(|kind| at_least(p, k, kind, SystemKind::Vtm));
        ["fft", "ocean"].into_iter().all(lowest)
    }),
    ("radix has block-mode aborts and no word-mode aborts", |p| {
        let aborts = |g| p.kernel("radix", SystemKind::SelectPtm(g)).stats.aborts;
        let word = [Granularity::WordCache, Granularity::WordCacheMem];
        aborts(Granularity::Block) > 0 && word.into_iter().all(|g| aborts(g) == 0)
    }),
    ("Table 1 commits: ocean > lu > radix >= water > fft", |p| {
        let c = KERNELS.map(|k| p.kernel(k, SEL).stats.commits);
        let [fft, lu, radix, ocean, water] = c;
        ocean > lu && lu > radix && radix >= water && water > fft
    }),
    ("Copy-PTM cycles >= Sel-PTM cycles on every ablation row, with a larger gap overflow-heavy than at low contention", |p| {
        let ablation = p.reports.iter().filter(|r| r.cell.slice == "ablation");
        let mut copy = ablation.filter(|r| r.cell.kind == SystemKind::CopyPtm);
        let widest = copy_gap(p, CellWorkload::SyntheticOverflowing(7));
        copy.all(|r| copy_gap(p, r.cell.workload) >= 0.0)
            && widest > copy_gap(p, CellWorkload::SyntheticLowLong)
    }),
];

/// Holds the run to every ordering claim. Tiny's kernels are too
/// small to reproduce the paper's orderings (lu commits fewer
/// transactions than fft), so the claims bind from Small up.
///
/// # Panics
///
/// Panics naming every claim that does not hold.
pub fn check(paper: &Paper) {
    let broken: Vec<_> = paper
        .claims()
        .into_iter()
        .filter(|c| !c.1)
        .map(|c| c.0)
        .collect();
    let scale = paper.scale;
    let tiny = scale == Scale::Tiny;
    assert!(
        tiny || broken.is_empty(),
        "claims broken at {scale:?}: {}",
        broken.join("; ")
    );
}

impl CellReport {
    /// The counters as `(key, value)` in report order: the machine's and
    /// the kernel's, then the PTM's on PTM cells.
    fn counters(&self) -> Vec<crate::Counter> {
        let (s, k) = (&self.stats, &self.kernel);
        let mut c = vec![
            ("cycles", s.cycles),
            ("commits", s.commits),
            ("aborts", s.aborts),
            ("mem_ops", s.mem_ops),
            ("l2_evictions", s.l2_evictions),
            ("exceptions", k.exceptions),
            ("context_switches", k.context_switches),
            ("pages", s.pages.len() as u64),
            ("tx_write_pages", s.tx_write_pages.len() as u64),
        ];
        if let Some(p) = &self.ptm {
            c.extend([
                ("ptm_commits", p.commits),
                ("tx_dirty_page_sum", p.tx_dirty_page_sum),
                ("shadow_allocs", p.shadow_allocs),
                ("shadow_frees", p.shadow_frees),
                ("max_shadow_pages", p.peak_shadow_pages),
                ("spt_cache_hits", p.spt_cache_hits),
                ("spt_cache_misses", p.spt_cache_misses),
                ("tav_cache_hits", p.tav_cache_hits),
                ("tav_cache_misses", p.tav_cache_misses),
                ("tav_walk_nodes", p.tav_walk_nodes),
            ]);
        }
        c
    }

    fn write(&self, o: &mut Obj, speedup: Option<f64>) {
        let c = &self.cell;
        o.field("slice", c.slice)
            .field("family", c.family)
            .field("workload", c.workload.name())
            .field("system", c.kind.label())
            .field("abort_penalty", c.abort_penalty);
        for (key, value) in self.counters() {
            o.field(key, value);
        }
        o.field("speedup_pct", speedup.map(|s| Fixed(s, 1)))
            .field("wall_ns", self.wall_ns);
    }
}

/// One slice's counters, folded into totals by `fold_totals`.
fn slice_totals(reports: &[CellReport], slice: &str) -> Vec<crate::Counter> {
    let cells = reports.iter().filter(|r| r.cell.slice == slice);
    crate::fold_totals(cells.map(CellReport::counters))
}

/// Renders the `BENCH_paper.json` report.
pub fn render(paper: &Paper) -> String {
    json::object(|o| {
        crate::meta::provenance(o);
        o.field("scale", format!("{:?}", paper.scale));
        o.obj("claims", |c| {
            for (claim, holds) in paper.claims() {
                c.field(claim, holds);
            }
        });
        let lazy = &paper.lazy_migrate;
        o.obj("lazy_migrate", |l| {
            l.field("shadow_allocs", lazy.shadow_allocs)
                .field("shadow_frees", lazy.shadow_frees)
                .field("migrations", lazy.lazy_migrations);
        });
        o.arr("cells", |a| {
            for r in &paper.reports {
                a.obj(|c| r.write(c, paper.speedup(r)));
            }
        });
        crate::write_totals(o, &SLICES, |slice| slice_totals(&paper.reports, slice));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn broken(p: &Paper) -> Vec<&'static str> {
        p.claims()
            .into_iter()
            .filter(|c| !c.1)
            .map(|c| c.0)
            .collect()
    }

    #[test]
    fn grid_runs_each_cell_once_and_each_workload_in_one_run() {
        let grid = default_grid();
        let count = |slice| grid.iter().filter(|c| c.slice == slice).count();
        assert_eq!((count("figures"), count("ablation")), (45, 18));
        for (i, c) in grid.iter().enumerate() {
            let key = |d: &Cell| (d.workload, d.kind, d.abort_penalty);
            let (name, later) = (c.workload.name(), &grid[i + 1..]);
            assert!(
                later.iter().all(|d| key(d) != key(c)),
                "{name} {} twice",
                c.kind
            );
            // run_grid builds a workload once per run of equal cells.
            let mut after = later.iter().skip_while(|d| d.workload == c.workload);
            assert!(after.all(|d| d.workload != c.workload), "{name} is split");
        }
    }

    /// The whole grid at Tiny: every listing prints, every cell renders,
    /// and the claims hold but Table 1's commit ordering, which is why
    /// Tiny does not bind them. Swapping two bars breaks one more claim.
    #[test]
    fn tiny_grid_prints_renders_and_claims_catch_two_swapped_bars() {
        let grid = default_grid();
        let reports = run_grid(&grid, Scale::Tiny);
        let lazy_migrate = lazy_migrate_replay();
        assert_eq!(lazy_migrate.lazy_migrations, 16);
        let mut paper = Paper {
            scale: Scale::Tiny,
            reports,
            lazy_migrate,
        };
        let listing = paper.to_string();
        for head in ["Table 1", "Figure 4", "Figure 5", "— abort-penalty"] {
            assert_eq!(listing.matches(head).count(), 1, "{head}");
        }
        let json = render(&paper);
        assert_eq!(json.matches("\"slice\": ").count(), grid.len());
        assert_eq!(
            json.matches("\"speedup_pct\": null").count(),
            5 + 17,
            "serial, ablation"
        );

        let commits = CLAIMS[3].0;
        assert_eq!(broken(&paper), [commits]);
        check(&paper);
        paper.scale = Scale::Small;
        let err = std::panic::catch_unwind(|| check(&paper)).expect_err("claim 4 broke");
        let msg = err.downcast_ref::<String>().expect("message");
        assert!(msg.contains(commits), "{msg}");

        // Swap Copy-PTM's and VC-VTM's bars on ocean.
        let ocean = |kind| {
            let cell = |r: &CellReport| {
                (r.cell.workload, r.cell.kind) == (CellWorkload::Splash2("ocean"), kind)
            };
            paper.reports.iter().position(cell).expect("cell")
        };
        let (copy, vc) = (ocean(SystemKind::CopyPtm), ocean(SystemKind::VictimVtm));
        let cycles = (
            paper.reports[copy].stats.cycles,
            paper.reports[vc].stats.cycles,
        );
        (
            paper.reports[vc].stats.cycles,
            paper.reports[copy].stats.cycles,
        ) = cycles;
        assert_eq!(broken(&paper), [CLAIMS[0].0, commits]);
    }
}
