//! The simulator workloads, `paper` and `faulted`: a grid of
//! (kernel, system) cells, each a fresh machine run to completion on one
//! thread.
//!
//! A run builds the cells' inputs several times (set-up), runs one
//! warm-up pass that also checks every cell against the serial-replay
//! oracle and the stats identities, then times whole passes. Simulated
//! counters must repeat exactly on every pass.

use crate::report::{put, put_sampled, put_trace, ratio, Checks, Outcome};
use crate::stats::median;
use crate::trace::{per_root_s, Span, Tracer};
use crate::{peak_rss_mb, Size, SETUPS};
use ptm_sim::{
    check_invariants, diff_against_machine, serialize_programs, speedup_percent, FaultAction,
    FaultEvent, FaultPlan, Machine, SystemKind, ThreadProgram,
};
use ptm_types::{Fnv1a64, Granularity};
use ptm_workloads::{splash2, synthetic, Workload};
use std::time::Instant;

/// The Table 1 / Figure 4 / Figure 5 systems, serial baseline first, each
/// with the metric its run time is reported under.
const PAPER_KINDS: [(SystemKind, &str); 8] = [
    (SystemKind::Serial, "sim.run_s.serial"),
    (SystemKind::Locks, "sim.run_s.locks"),
    (SystemKind::Vtm, "sim.run_s.vtm"),
    (SystemKind::VictimVtm, "sim.run_s.vc-vtm"),
    (SystemKind::CopyPtm, "sim.run_s.copy-ptm"),
    (
        SystemKind::SelectPtm(Granularity::Block),
        "sim.run_s.sel-ptm",
    ),
    (
        SystemKind::SelectPtm(Granularity::WordCache),
        "sim.run_s.wd-cache",
    ),
    (
        SystemKind::SelectPtm(Granularity::WordCacheMem),
        "sim.run_s.wd-cache-mem",
    ),
];

/// The systems with paging and exhaustion recovery, run under faults.
const FAULTED_KINDS: [SystemKind; 3] = [
    SystemKind::CopyPtm,
    SystemKind::SelectPtm(Granularity::Block),
    SystemKind::SelectPtm(Granularity::WordCacheMem),
];

/// The paper's Figure 4 "Average" Sel-PTM bar.
const PAPER_SEL_PTM_SPEEDUP_PCT: f64 = 220.0;

/// Span tag of a system: its `sim.run_s.<tag>` suffix.
fn tag(kind: SystemKind) -> &'static str {
    PAPER_KINDS
        .iter()
        .find(|(k, _)| *k == kind)
        .map_or("logtm", |(_, metric)| {
            metric.trim_start_matches("sim.run_s.")
        })
}

/// One (kernel, system) machine to run, with its fault plan under
/// `faulted`. A machine consumes its programs, so every run clones them
/// from the kernel's workload.
struct Cell<'w> {
    w: &'w Workload,
    kind: SystemKind,
    plan: Option<FaultPlan>,
}

impl Cell<'_> {
    fn programs(&self) -> Vec<ThreadProgram> {
        if self.kind == SystemKind::Serial {
            serialize_programs(&self.w.programs_for(SystemKind::Serial))
        } else {
            self.w.programs_for(self.kind)
        }
    }

    fn label(&self) -> String {
        format!("{}/{}", self.w.name, self.kind.label())
    }
}

/// `paper` or `faulted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// The paper's 40 cells through `Machine::run`.
    Paper,
    /// 21 PTM cells through `Machine::run_with_faults`, each under its own
    /// fault plan.
    Faulted,
}

/// The kernels a grid runs.
fn build_apps(grid: Grid, size: &Size, seed: u64) -> Vec<Workload> {
    let mut apps = splash2(size.scale);
    if grid == Grid::Faulted {
        apps.push(synthetic::overflowing(seed));
        apps.push(synthetic::contended(seed));
    }
    apps
}

/// Seeds the fault plans. Plans are fixed per cell, not drawn from the run
/// seed: a drawn plan can stretch one cell's simulated clock a
/// hundredfold (a long memory squeeze), so simulated cycles per host
/// second moved by a third from seed to seed. The run seed varies the
/// synthetic kernels' inputs.
const PLAN_SEED: u64 = 0xF4117;

/// The grid's cells; under `faulted`, cell `i` runs the plan of seed
/// `(PLAN_SEED, i)`.
fn cells(grid: Grid, apps: &[Workload]) -> Vec<Cell<'_>> {
    let kinds: Vec<SystemKind> = match grid {
        Grid::Paper => PAPER_KINDS.iter().map(|&(k, _)| k).collect(),
        Grid::Faulted => FAULTED_KINDS.to_vec(),
    };
    apps.iter()
        .flat_map(|w| kinds.iter().map(move |&kind| (w, kind)))
        .enumerate()
        .map(|(i, (w, kind))| Cell {
            w,
            kind,
            plan: (grid == Grid::Faulted).then(|| fault_plan(cell_seed(i))),
        })
        .collect()
}

/// Mixes a cell index into [`PLAN_SEED`] (splitmix64 finalizer).
fn cell_seed(cell: usize) -> u64 {
    let mut z = PLAN_SEED.wrapping_add((cell as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Background faults drawn from `seed` over a long horizon, plus fixed early
/// resource pressure so even the shortest cell sees a drained frame pool,
/// a capped TAV arena, hot-page swap-outs on a slow swap device and an
/// abort storm.
fn fault_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::from_seed(seed, 40_000, 12);
    let mut push = |step: u64, action: FaultAction| plan.events.push(FaultEvent { step, action });
    push(1, FaultAction::DelaySwapIns { delay: 800 });
    push(150, FaultAction::SqueezeMemory { leave: 0 });
    push(700, FaultAction::ReleaseMemory);
    push(900, FaultAction::CapTavArena { slack: 0 });
    push(1_300, FaultAction::UncapTavArena);
    for i in 0..6u64 {
        push(300 + i * 400, FaultAction::SwapOutHotPage { nth: i as u8 });
    }
    push(1_500, FaultAction::AbortStorm { count: 2 });
    plan.normalize();
    plan
}

const N_COUNTERS: usize = 36;

/// Simulated counters of one machine, in [`COUNTERS`] order.
type Counters = [u64; N_COUNTERS];

/// Counter names; `_`-prefixed ones only feed ratios and checks.
const COUNTERS: [&str; N_COUNTERS] = [
    "sim.cycles",
    "sim.mem_ops",
    "sim.commits",
    "sim.aborts",
    "sim.stall_cycles",
    "_tlb_hits",
    "_tlb_misses",
    "cache.l2_misses",
    "cache.l2_evictions",
    "kernel.context_switches",
    "kernel.exceptions",
    "kernel.swap_ins",
    "kernel.swap_outs",
    "bus.onchip_transactions",
    "bus.mem_accesses",
    "bus.wait_cycles",
    "bus.mem_wait_cycles",
    "_conflict_fast",
    "_conflict_slow",
    "_spt_hits",
    "_spt_misses",
    "_tav_hits",
    "_tav_misses",
    "ptm.tav_walk_nodes",
    "ptm.overflows",
    "ptm.shadow_allocs",
    "ptm.backup_copies",
    "ptm.restore_copies",
    "ptm.exhaustion_aborts",
    "ptm.tx_swap_outs",
    "ptm.tx_swap_ins",
    "vtm.commit_copy_blocks",
    "_xadc_hits",
    "_xadc_misses",
    "vtm.overflow_conflicts",
    "_checksum",
];

fn counters(m: &Machine) -> Counters {
    let s = m.stats();
    let k = m.kernel_stats();
    let b = m.bus_stats();
    let p = m.backend().as_ptm().map(|p| *p.stats()).unwrap_or_default();
    let v = m.backend().as_vtm().map(|v| *v.stats()).unwrap_or_default();
    let mut h = Fnv1a64::new();
    for c in m.checksums() {
        h.write_u64(c);
    }
    [
        s.cycles,
        s.mem_ops,
        s.commits,
        s.aborts,
        s.stall_cycles,
        s.tlb_hits,
        s.tlb_misses,
        s.l2_misses,
        s.l2_evictions,
        k.context_switches,
        k.exceptions,
        k.swap_ins,
        k.swap_outs,
        b.onchip_transactions,
        b.mem_accesses,
        b.bus_wait_cycles,
        b.mem_wait_cycles,
        p.conflict_checks_fast,
        p.conflict_checks_slow,
        p.spt_cache_hits,
        p.spt_cache_misses,
        p.tav_cache_hits,
        p.tav_cache_misses,
        p.tav_walk_nodes,
        p.overflows(),
        p.shadow_allocs,
        p.backup_copies,
        p.restore_copies,
        p.exhaustion_aborts,
        p.tx_swap_outs,
        p.tx_swap_ins,
        v.commit_copy_blocks,
        v.xadc_hits,
        v.xadc_misses,
        v.overflow_conflicts,
        h.finish(),
    ]
}

/// Sum of counter `name` over all cells of a pass.
fn total(cells: &[Counters], name: &str) -> f64 {
    let i = COUNTERS
        .iter()
        .position(|&c| c == name)
        .expect("known counter");
    cells.iter().map(|c| c[i] as f64).sum()
}

/// Host times of one timed pass.
struct Pass {
    /// Nanoseconds inside `run` / `run_with_faults`, per cell.
    run_ns: Vec<u64>,
    /// Nanoseconds for the whole pass, machine construction included.
    wall_ns: u64,
}

impl Pass {
    /// Seconds spent simulating.
    fn run_s(&self) -> f64 {
        self.run_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Runs one machine to completion; returns it with its `run` wall time.
fn run_cell(cell: &Cell, tracer: &Tracer) -> (Machine, u64) {
    let tag = tag(cell.kind);
    let programs = cell.programs();
    let mut m = tracer.tagged("sim.new", tag, || {
        Machine::new(cell.w.machine_config(), cell.kind, programs)
    });
    let start = Instant::now();
    match &cell.plan {
        None => tracer.tagged("sim.run", tag, || m.run()),
        Some(p) => tracer.tagged("sim.run_with_faults", tag, || m.run_with_faults(p)),
    }
    let ns = start.elapsed().as_nanos() as u64;
    (m, ns)
}

/// Runs `passes` timed passes, comparing every cell's counters with the
/// warm-up pass's.
fn timed_passes(
    cells: &[Cell],
    passes: usize,
    reference: &[Counters],
    tracer: Tracer,
    checks: &mut Checks,
) -> (Vec<Pass>, Vec<Span>) {
    let mut out = Vec::with_capacity(passes);
    for p in 0..passes {
        let mut run_ns = Vec::with_capacity(cells.len());
        let start = Instant::now();
        tracer.span("bench.pass", || {
            for (cell, want) in cells.iter().zip(reference) {
                tracer.span("bench.cell", || {
                    let (m, ns) = run_cell(cell, &tracer);
                    run_ns.push(ns);
                    checks.expect(counters(&m) == *want, || {
                        format!(
                            "{}: pass {p} counters differ from the warm-up pass",
                            cell.label()
                        )
                    });
                });
            }
        });
        checks.attempted += cells.len() as u64;
        out.push(Pass {
            run_ns,
            wall_ns: start.elapsed().as_nanos() as u64,
        });
    }
    (out, tracer.into_spans())
}

/// The oracle checks of one finished cell.
fn check_cell(cell: &Cell, m: &Machine, checks: &mut Checks) {
    let mismatches = diff_against_machine(m, &cell.programs());
    checks.expect(mismatches.is_empty(), || {
        format!(
            "{}: {} words differ from the serial replay, first {:?}",
            cell.label(),
            mismatches.len(),
            mismatches.first()
        )
    });
    if let Err(e) = check_invariants(m) {
        checks.fail(1, format!("{}: {e}", cell.label()));
    }
}

/// Runs a simulator workload; see the module docs.
pub fn run(grid: Grid, seed: u64, size: &Size, trace: bool, out: &mut Outcome) {
    // Set-up: build the kernels' inputs and construct every cell's machine,
    // several times; the last build is kept.
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut new_s = Vec::new();
    let mut apps = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        apps = build_apps(grid, size, seed);
        build_s.push(start.elapsed().as_secs_f64());
        let mut in_new = 0.0;
        for c in cells(grid, &apps) {
            let programs = c.programs();
            let t = Instant::now();
            let m = Machine::new(c.w.machine_config(), c.kind, programs);
            in_new += t.elapsed().as_secs_f64();
            drop(m);
        }
        new_s.push(in_new);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let cells = cells(grid, &apps);

    // Warm-up pass, checked against the oracle outside any timed region.
    let mut reference = Vec::with_capacity(cells.len());
    let mut oracle_s = 0.0;
    let mut speedups = Vec::new();
    let mut serial_cycles = 0;
    for cell in &cells {
        let (m, _) = run_cell(cell, &Tracer::off());
        let t = Instant::now();
        check_cell(cell, &m, &mut out.checks);
        oracle_s += t.elapsed().as_secs_f64();
        let cycles = m.stats().cycles;
        match cell.kind {
            SystemKind::Serial => serial_cycles = cycles,
            SystemKind::SelectPtm(Granularity::Block) if grid == Grid::Paper => {
                speedups.push(speedup_percent(serial_cycles, cycles));
            }
            _ => {}
        }
        reference.push(counters(&m));
    }
    out.checks.attempted += cells.len() as u64;

    let (untraced, _) = timed_passes(
        &cells,
        size.passes,
        &reference,
        Tracer::off(),
        &mut out.checks,
    );
    let peak_rss_mb = peak_rss_mb();

    // Every timed value starts from each cell's median `run` time over the
    // passes, so a slow spell of the host that hits a few cells of one
    // pass moves nothing. Per-pass values are kept as the samples.
    let cell_s = |p: &Pass, c: usize| p.run_ns[c] as f64 / 1e9;
    let per_cell_s: Vec<f64> = (0..cells.len())
        .map(|c| median(&untraced.iter().map(|p| cell_s(p, c)).collect::<Vec<_>>()))
        .collect();
    // Simulated cycles per host second is the median over cells: a fault
    // plan that stretches one cell's simulated clock a hundredfold (a long
    // memory squeeze) cannot move it.
    let cycle_rate = |secs: &dyn Fn(usize) -> f64| {
        let rates: Vec<f64> = (0..cells.len())
            .map(|c| ratio(total(&reference[c..=c], "sim.cycles"), secs(c)))
            .collect();
        median(&rates)
    };
    let cycle_rates = untraced
        .iter()
        .map(|p| cycle_rate(&|c| cell_s(p, c)))
        .collect();
    let commits = total(&reference, "sim.commits");
    let tx_rates = untraced.iter().map(|p| ratio(commits, p.run_s())).collect();
    // A request here is one cell's simulation; its latency is the cell's
    // `run` time.
    let per_pass_p50 = untraced
        .iter()
        .map(|p| {
            median(
                &(0..cells.len())
                    .map(|c| cell_s(p, c) * 1e3)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let e2e = &mut out.end_to_end;
    let cycles_per_s = cycle_rate(&|c| per_cell_s[c]);
    put_sampled(e2e, "sim_cycles_per_s", cycles_per_s, cycle_rates);
    let tx_per_s = ratio(commits, per_cell_s.iter().sum());
    put_sampled(e2e, "tx_per_s", tx_per_s, tx_rates);
    put_sampled(
        e2e,
        "latency_p50_ms",
        median(&per_cell_s) * 1e3,
        per_pass_p50,
    );
    put_sampled(e2e, "setup_s", median(&setup_s), setup_s);
    put(e2e, "peak_rss_mb", peak_rss_mb);

    let sel_ptm = ratio(speedups.iter().sum(), speedups.len() as f64);
    if grid == Grid::Paper {
        out.info.push((
            "sel_ptm_speedup_pct",
            format!("{sel_ptm} (paper: {PAPER_SEL_PTM_SPEEDUP_PCT}; unvalidated at this scale)"),
        ));
    }
    out.sizes.push(("cells", cells.len().to_string()));
    out.sizes.push(("scale", format!("{:?}", size.scale)));
    out.sizes.push(("timed_passes", size.passes.to_string()));
    out.sizes.push(("setups", SETUPS.to_string()));
    let plans: Vec<&FaultPlan> = cells.iter().filter_map(|c| c.plan.as_ref()).collect();
    if !plans.is_empty() {
        let events: usize = plans.iter().map(|p| p.events.len()).sum();
        let mut digest = Fnv1a64::new();
        plans.iter().for_each(|p| digest.write_u64(p.digest()));
        out.sizes.push(("fault_events", events.to_string()));
        out.sizes
            .push(("fault_plans_digest", format!("{:016x}", digest.finish())));
    }
    if !trace {
        return;
    }

    let (traced, spans) = timed_passes(
        &cells,
        size.passes,
        &reference,
        Tracer::on(),
        &mut out.checks,
    );
    let pl = &mut out.per_layer;
    let sum = |name: &str| total(&reference, name);
    for name in COUNTERS.into_iter().filter(|n| !n.starts_with('_')) {
        put(pl, name, sum(name));
    }
    let frac = |hit: &str, miss: &str| ratio(sum(hit), sum(hit) + sum(miss));
    put(pl, "sim.tlb_hit_frac", frac("_tlb_hits", "_tlb_misses"));
    put(
        pl,
        "ptm.conflict_checks",
        sum("_conflict_fast") + sum("_conflict_slow"),
    );
    put(
        pl,
        "ptm.conflict_fast_frac",
        frac("_conflict_fast", "_conflict_slow"),
    );
    put(
        pl,
        "ptm.spt_cache_hit_frac",
        frac("_spt_hits", "_spt_misses"),
    );
    put(
        pl,
        "ptm.tav_cache_hit_frac",
        frac("_tav_hits", "_tav_misses"),
    );
    put(pl, "vtm.xadc_hit_frac", frac("_xadc_hits", "_xadc_misses"));
    put(pl, "sim.sel_ptm_speedup_pct", sel_ptm);
    put_sampled(pl, "workloads.build_s", median(&build_s), build_s);
    put_sampled(pl, "sim.new_s", median(&new_s), new_s);
    put(pl, "sim.oracle_s", oracle_s);

    let per_pass = |name: &str, tag: Option<&str>| per_root_s(&spans, "bench.pass", name, tag);
    let plus =
        |a: Vec<f64>, b: Vec<f64>| -> Vec<f64> { a.iter().zip(b).map(|(x, y)| x + y).collect() };
    let run_s = per_pass("sim.run", None);
    let faulted_s = per_pass("sim.run_with_faults", None);
    let in_sim = median(&plus(run_s.clone(), faulted_s.clone()));
    put_sampled(pl, "sim.run_s", median(&run_s), run_s);
    put_sampled(pl, "sim.run_with_faults_s", median(&faulted_s), faulted_s);
    for (kind, metric) in PAPER_KINDS {
        let t = Some(tag(kind));
        let s = plus(per_pass("sim.run", t), per_pass("sim.run_with_faults", t));
        put_sampled(pl, metric, median(&s), s);
    }
    put(
        pl,
        "sim.ns_per_cycle",
        ratio(in_sim * 1e9, sum("sim.cycles")),
    );
    put(
        pl,
        "sim.ns_per_mem_op",
        ratio(in_sim * 1e9, sum("sim.mem_ops")),
    );
    let wall =
        |passes: &[Pass]| median(&passes.iter().map(|p| p.wall_ns as f64).collect::<Vec<_>>());
    put_trace(pl, &spans, wall(&traced), wall(&untraced));
    out.spans = spans;
}
