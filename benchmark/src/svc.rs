//! The service workloads, `svc-zipf` and `svc-durable-hot`.
//!
//! The untraced run drives the threaded [`Service`] in a closed loop: the
//! benchmark's one client thread keeps [`CLIENTS`] transactions in
//! flight and submits the next one from the stream whenever a receipt
//! comes back. Every delivered block is checked against a reference
//! ledger, a plain array indexed by account that folds every transfer.
//!
//! The traced run drives the same blocks synchronously through the
//! public pipeline calls (`Journal::accept/seal/commit/force`,
//! `run_block`, `fold_deltas`) in the order `Engine::flush` makes them,
//! once untraced and once traced, and must reproduce the threaded run's
//! receipts and balances.
//!
//! `svc-durable-hot` also crashes the pipeline a quarter of the way
//! through the stream and recovers the journal image.

use crate::report::{put, put_sampled, put_trace, ratio, Checks, Outcome};
use crate::stats::{equal_windows, median, quantile, quantile_sorted, sorted};
use crate::trace::{total_s, Tracer};
use crate::{peak_rss_mb, Size, SETUPS};
use ptm_mem::logdev::{LogDevConfig, LogDevStats, LogFaultPlan};
use ptm_service::{
    fold_deltas, recover, replay, run_block, run_stream_with_crash, BlockOutcome, BlockStats,
    CrashRun, ForcePolicy, Journal, JournalConfig, JournalStats, Receipt, ReceiptStatus, Service,
    ServiceConfig, ServiceCrashImage, ServiceCrashPlan, ServiceRecovery, Strategy,
};
use ptm_types::{FastMap, Fnv1a64};
use ptm_workloads::service::generate;
use ptm_workloads::{ClientTx, ServiceWorkloadConfig};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// `svc-zipf` or `svc-durable-hot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// 2 shards, s=0.9, 20% read-only, no journal.
    Zipf,
    /// 4 shards, s=1.2, 5% read-only, group-commit journal, then recovery.
    DurableHot,
}

/// Transactions per block; every block but the last seals on this size.
const MAX_BATCH: usize = 256;

/// Closed-loop clients: transactions kept in flight.
const CLIENTS: usize = 512;

/// Size of the account space.
const ACCOUNTS: u64 = 2_000_000;

/// Equal-count windows the throughput is summarised over.
const WINDOWS: usize = 10;

/// Share of the stream served before measuring starts.
const WARMUP_FRAC: f64 = 0.05;

/// How long the generator waits for a block before declaring the service
/// stuck.
const STALL_LIMIT: Duration = Duration::from_secs(60);

fn configs(mode: Mode, seed: u64, size: &Size) -> (ServiceConfig, ServiceWorkloadConfig) {
    let (shards, skew, read_only_pct) = match mode {
        Mode::Zipf => (2, 0.9, 20),
        Mode::DurableHot => (4, 1.2, 5),
    };
    let mut cfg = ServiceConfig::new(ACCOUNTS, shards).with_strategy(Strategy::Sequential);
    cfg.max_batch = MAX_BATCH;
    if mode == Mode::DurableHot {
        cfg = cfg.with_journal(JournalConfig {
            policy: ForcePolicy::Group(4),
            dev: LogDevConfig::realistic(),
            faults: LogFaultPlan::none(),
        });
    }
    let stream = ServiceWorkloadConfig {
        accounts: ACCOUNTS,
        skew,
        seed,
        txs: size.txs,
        read_only_pct,
    };
    (cfg, stream)
}

/// The reference ledger: every transfer folded into a plain array indexed
/// by account, kept apart from the service's own balance table and fold.
/// Dense, so the client thread never stalls growing it.
struct Ledger {
    balances: Vec<u32>,
    receipted: Vec<bool>,
}

impl Ledger {
    fn new(accounts: u64, txs: usize) -> Self {
        Ledger {
            balances: vec![0; accounts as usize],
            receipted: vec![false; txs],
        }
    }

    fn balance(&self, account: u64) -> u32 {
        self.balances[account as usize]
    }

    fn apply(&mut self, tx: &ClientTx) {
        if !tx.read_only {
            let from = &mut self.balances[tx.from as usize];
            *from = from.wrapping_sub(tx.amount);
            let to = &mut self.balances[tx.to as usize];
            *to = to.wrapping_add(tx.amount);
        }
    }

    /// Checks one delivered block: one receipt per transaction, of the
    /// right kind, read-only balances as of the previous block boundary.
    /// Then folds the block's transfers.
    fn check_block(&mut self, stream: &[ClientTx], receipts: &[Receipt], checks: &mut Checks) {
        let mut transfers = Vec::with_capacity(receipts.len());
        for r in receipts {
            let Some(tx) = stream.get(r.tx_id as usize) else {
                checks.fail(1, format!("receipt for unknown tx {}", r.tx_id));
                continue;
            };
            if std::mem::replace(&mut self.receipted[r.tx_id as usize], true) {
                checks.fail(1, format!("second receipt for tx {}", r.tx_id));
                continue;
            }
            match (tx.read_only, r.status) {
                (true, ReceiptStatus::ReadOnly { balance }) => {
                    let want = self.balance(tx.from);
                    checks.expect(balance == want, || {
                        format!("tx {}: read {balance}, reference {want}", tx.id)
                    });
                }
                (false, ReceiptStatus::Committed { .. }) => transfers.push(tx),
                (_, status) => checks.fail(1, format!("tx {}: wrong receipt {status:?}", tx.id)),
            }
        }
        for tx in transfers {
            self.apply(tx);
        }
    }

    /// Counts transactions that never got a receipt.
    fn check_all_receipted(&self, checks: &mut Checks) {
        let missing = self.receipted.iter().filter(|&&r| !r).count() as u64;
        if missing > 0 {
            checks.fail(missing, format!("{missing} transactions got no receipt"));
        }
    }

    fn sorted_nonzero(&self) -> Vec<(u64, u32)> {
        (0u64..)
            .zip(self.balances.iter().copied())
            .filter(|&(_, b)| b != 0)
            .collect()
    }
}

/// Compares final balances with the reference, counting differing
/// accounts.
fn check_balances(what: &str, got: &[(u64, u32)], want: &[(u64, u32)], checks: &mut Checks) {
    if got != want {
        let got: HashMap<u64, u32> = got.iter().copied().collect();
        let want: HashMap<u64, u32> = want.iter().copied().collect();
        let only_got = got.keys().filter(|a| !want.contains_key(a));
        let differ = want
            .keys()
            .chain(only_got)
            .filter(|a| got.get(a) != want.get(a))
            .count();
        checks.fail(differ as u64, format!("{what}: {differ} balances differ"));
    }
}

/// A fingerprint of one block's receipts.
fn digest(receipts: &[Receipt]) -> u64 {
    let mut h = Fnv1a64::new();
    for r in receipts {
        h.write_u64(r.tx_id);
        h.write_u64(r.shard as u64);
        match r.status {
            ReceiptStatus::Committed { seq, at } => {
                h.write_u64(1);
                h.write_u64(seq);
                h.write_u64(at);
            }
            ReceiptStatus::ReadOnly { balance } => {
                h.write_u64(2);
                h.write_u64(u64::from(balance));
            }
            ReceiptStatus::Validated { ok } => {
                h.write_u64(3);
                h.write_u64(u64::from(ok));
            }
        }
    }
    h.finish()
}

/// One block as the closed-loop client received it.
struct Delivered {
    /// Nanoseconds from the first submit to the block's arrival.
    at_ns: u64,
    stats: BlockStats,
    digest: u64,
    /// Offset of its receipts in [`Served::ack_ms`].
    first: usize,
}

/// What the threaded closed-loop run measured.
struct Served {
    blocks: Vec<Delivered>,
    /// Submit-to-receipt latency, per receipt in arrival order.
    ack_ms: Vec<f64>,
    /// Time inside `Service::submit`, per call.
    submit_ns: Vec<f64>,
    shed: u64,
    balances: Vec<(u64, u32)>,
    journal: Option<JournalStats>,
    shard_cycles: u64,
}

/// Drives `svc` in a closed loop over `stream`; see the module docs.
fn serve(
    mut svc: Service,
    stream: &[ClientTx],
    clients: usize,
    ledger: &mut Ledger,
    checks: &mut Checks,
) -> Served {
    let n = stream.len();
    let origin = Instant::now();
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let mut sent_ns = vec![0u64; n];
    let mut out = Served {
        blocks: Vec::with_capacity(n / MAX_BATCH + 2),
        ack_ms: Vec::with_capacity(n),
        submit_ns: Vec::with_capacity(n),
        shed: 0,
        balances: Vec::new(),
        journal: None,
        shard_cycles: 0,
    };
    let mut next = 0;
    let send = |count: usize, next: &mut usize, sent_ns: &mut [u64], out: &mut Served| {
        let end = (*next + count).min(n);
        for (id, tx) in stream.iter().enumerate().take(end).skip(*next) {
            let t = now_ns();
            if svc.submit(*tx).is_err() {
                out.shed += 1;
            }
            sent_ns[id] = t;
            out.submit_ns.push((now_ns() - t) as f64);
        }
        *next = end;
    };
    send(clients, &mut next, &mut sent_ns, &mut out);
    let mut received = 0;
    while received + (out.shed as usize) < n {
        let outcome: BlockOutcome = match svc.outcomes().recv_timeout(STALL_LIMIT) {
            Ok(o) => o,
            Err(e) => {
                checks.fail(1, format!("no block within {STALL_LIMIT:?}: {e}"));
                break;
            }
        };
        let at_ns = now_ns();
        let k = outcome.receipts.len();
        // Each receipt frees its client, which sends the next transaction.
        send(k, &mut next, &mut sent_ns, &mut out);
        let first = out.ack_ms.len();
        for r in &outcome.receipts {
            let sent = sent_ns.get(r.tx_id as usize).copied().unwrap_or(at_ns);
            out.ack_ms.push(at_ns.saturating_sub(sent) as f64 / 1e6);
        }
        ledger.check_block(stream, &outcome.receipts, checks);
        out.blocks.push(Delivered {
            at_ns,
            digest: digest(&outcome.receipts),
            stats: outcome.stats,
            first,
        });
        received += k;
    }
    if out.shed > 0 {
        checks.fail(out.shed, format!("{} submissions shed", out.shed));
    }
    match svc.shutdown() {
        Ok(report) => {
            out.balances = report.balances;
            out.journal = report.journal;
            out.shard_cycles = report.shard_cycles;
        }
        Err(e) => checks.fail(1, e.to_string()),
    }
    out
}

/// What a synchronous run of the pipeline produced.
struct SyncRun {
    digests: Vec<u64>,
    balances: Vec<(u64, u32)>,
    journal: Option<(JournalStats, LogDevStats)>,
    wall_s: f64,
}

/// Drives `stream`, cut into blocks of `sizes`, through the pipeline's
/// public calls in `Engine::flush` order.
fn run_sync(cfg: &ServiceConfig, stream: &[ClientTx], sizes: &[usize], tracer: &Tracer) -> SyncRun {
    // The run forces where the policy would, so each force is a span
    // of its own; a lazy journal plus those forces writes the same bytes.
    let force_every = cfg.journal.map_or(0, |j| match j.policy {
        ForcePolicy::Eager => 1,
        ForcePolicy::Group(n) => n.max(1),
        ForcePolicy::Lazy => 0,
    });
    let mut journal = cfg.journal.map(|j| {
        Journal::new(JournalConfig {
            policy: ForcePolicy::Lazy,
            ..j
        })
    });
    let mut balances: FastMap<u64, u32> = FastMap::default();
    let mut digests = Vec::with_capacity(sizes.len());
    let mut unforced = 0;
    let mut pos = 0;
    let start = Instant::now();
    for (seq, &k) in sizes.iter().enumerate() {
        let block = &stream[pos..pos + k];
        pos += k;
        let seq = seq as u64;
        tracer.span("bench.block", || {
            if let Some(j) = journal.as_mut() {
                tracer.span("journal.accept", || {
                    block.iter().for_each(|tx| j.accept(tx))
                });
                tracer.span("journal.seal", || j.seal(seq, k as u32));
            }
            let outcome = tracer.span("service.run_block", || run_block(cfg, block, &balances));
            if let Some(j) = journal.as_mut() {
                tracer.span("journal.commit", || j.commit(seq, &outcome.deltas));
                unforced += 1;
                if unforced == force_every {
                    unforced = 0;
                    tracer.span("journal.force", || j.force());
                }
            }
            tracer.span("service.fold_deltas", || {
                fold_deltas(&mut balances, &outcome.deltas)
            });
            digests.push(digest(&outcome.receipts));
        });
    }
    if let Some(j) = journal.as_mut() {
        // Clean shutdown forces once more.
        tracer.span("journal.force", || j.force());
    }
    let wall_s = start.elapsed().as_secs_f64();
    let mut balances: Vec<(u64, u32)> = balances.into_iter().filter(|&(_, b)| b != 0).collect();
    balances.sort_unstable();
    SyncRun {
        digests,
        balances,
        journal: journal.map(|j| (*j.stats(), *j.dev_stats())),
        wall_s,
    }
}

/// Checks a synchronous run against the threaded run.
fn check_sync(what: &str, d: &SyncRun, served: &Served, checks: &mut Checks) {
    let differ = d
        .digests
        .iter()
        .zip(&served.blocks)
        .filter(|(a, b)| **a != b.digest)
        .count()
        + d.digests.len().abs_diff(served.blocks.len());
    if differ > 0 {
        checks.fail(
            differ as u64,
            format!("{what}: {differ} blocks' receipts differ from the service's"),
        );
    }
    check_balances(what, &d.balances, &served.balances, checks);
    let stats = d.journal.map(|(s, _)| s);
    checks.expect(stats == served.journal, || {
        format!(
            "{what}: journal counters {stats:?} differ from the service's {:?}",
            served.journal
        )
    });
}

/// Recovery measurements.
struct Recovered {
    image: ServiceCrashImage,
    first: ServiceRecovery,
    replay_s: Vec<f64>,
    recover_s: Vec<f64>,
}

/// Crashes the pipeline a quarter of the way through `stream`, recovers
/// the image `repeats` times and the recovered image once more, checking
/// each.
fn crash_and_recover(
    cfg: &ServiceConfig,
    stream: &[ClientTx],
    repeats: usize,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Option<Recovered> {
    let steps = stream.len() + 4 * stream.len().div_ceil(MAX_BATCH);
    let plan = ServiceCrashPlan {
        at_step: steps as u64 / 4,
    };
    let image = match tracer.span("service.run_stream_with_crash", || {
        run_stream_with_crash(*cfg, stream, Some(plan))
    }) {
        CrashRun::Crashed(image) => image,
        CrashRun::Completed(_) => {
            checks.fail(1, "the crash plan never fired".into());
            return None;
        }
    };
    let mut replay_s = Vec::new();
    let mut recover_s = Vec::new();
    let mut first: Option<ServiceRecovery> = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        tracer.span("recovery.replay", || replay(&image.journal.bytes));
        replay_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let rec = tracer.span("recovery.recover", || recover(cfg, &image.journal));
        recover_s.push(t.elapsed().as_secs_f64());
        checks.attempted += rec.report.txs_recovered;
        match &first {
            None => {
                check_recovery(&image, &rec, stream, cfg.accounts, checks);
                first = Some(rec);
            }
            Some(f) => checks.expect(f.balances == rec.balances, || {
                "recovering one image twice gave different balances".into()
            }),
        }
    }
    let first = first?;
    // Recovering the recovered image re-executes nothing.
    let again = recover(cfg, &first.crash_image());
    checks.expect(
        again.report.blocks_reexecuted == 0
            && again.report.tail_txs == 0
            && again.balances == first.balances
            && again.report.txs_recovered == first.report.txs_recovered,
        || format!("second recovery is not a no-op: {:?}", again.report),
    );
    Some(Recovered {
        image,
        first,
        replay_s,
        recover_s,
    })
}

/// The recovered transactions are a prefix of the stream that holds every
/// acked one, committed receipts match the dead service's, and balances
/// equal the reference fold of that prefix.
fn check_recovery(
    image: &ServiceCrashImage,
    rec: &ServiceRecovery,
    stream: &[ClientTx],
    accounts: u64,
    checks: &mut Checks,
) {
    let ids: Vec<u64> = rec
        .outcomes
        .iter()
        .flat_map(|o| o.receipts.iter().map(|r| r.tx_id))
        .collect();
    let k = ids.len();
    checks.expect(ids.iter().copied().eq(0..k as u64), || {
        "recovered transactions are not a prefix of the stream".into()
    });
    checks.expect(k >= 1 && k <= stream.len(), || {
        format!("recovered {k} transactions")
    });
    let lost_acks = image.acked.iter().filter(|&&id| id >= k as u64).count() as u64;
    if lost_acks > 0 {
        checks.fail(
            lost_acks,
            format!("{lost_acks} acked transactions were not recovered"),
        );
    }
    for d in &image.delivered {
        let same = rec
            .outcomes
            .get(d.block_seq as usize)
            .is_some_and(|o| o.receipts == d.receipts);
        checks.expect(same, || {
            format!("block {} receipts changed in recovery", d.block_seq)
        });
    }
    checks.expect(rec.report.delta_mismatches == 0, || {
        format!(
            "{} journaled deltas disagree with re-execution",
            rec.report.delta_mismatches
        )
    });
    let mut reference = Ledger::new(accounts, 0);
    stream.iter().take(k).for_each(|tx| reference.apply(tx));
    check_balances(
        "recovery",
        &rec.balances,
        &reference.sorted_nonzero(),
        checks,
    );
}

/// Runs a service workload; see the module docs.
pub fn run(mode: Mode, seed: u64, size: &Size, trace: bool, out: &mut Outcome) {
    let (cfg, wcfg) = configs(mode, seed, size);
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut started = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let stream = generate(&wcfg);
        generate_s.push(start.elapsed().as_secs_f64());
        let mut svc = Service::start(cfg);
        setup_s.push(start.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            started = Some((stream, svc));
        } else if let Err(e) = svc.shutdown() {
            out.checks.fail(1, e.to_string());
        }
    }
    let (stream, svc) = started.expect("at least one set-up");

    let checks = &mut out.checks;
    let mut ledger = Ledger::new(ACCOUNTS, stream.len());
    let served = serve(svc, &stream, CLIENTS, &mut ledger, checks);
    let peak_rss_mb = peak_rss_mb();
    checks.attempted += stream.len() as u64;
    ledger.check_all_receipted(checks);
    check_balances(
        "service",
        &served.balances,
        &ledger.sorted_nonzero(),
        checks,
    );
    if mode == Mode::DurableHot && !trace {
        crash_and_recover(&cfg, &stream, 1, &Tracer::off(), checks);
    }

    // Measure the blocks after the warm-up share, without the final
    // partial one, in equal-count windows.
    let blocks = &served.blocks;
    let mut seen = 0;
    let warm = blocks
        .iter()
        .position(|b| {
            seen += b.stats.txs;
            seen as f64 >= WARMUP_FRAC * stream.len() as f64
        })
        .map_or(1, |i| i + 1);
    let end = blocks.len().saturating_sub(1);
    let measured = &blocks[warm.min(end)..end];
    let acks_of = |bs: &[Delivered]| match (bs.first(), bs.last()) {
        (Some(a), Some(z)) => &served.ack_ms[a.first..z.first + z.stats.txs],
        _ => &[][..],
    };
    let counts: Vec<usize> = measured.iter().map(|b| b.stats.txs).collect();
    let (mut tx_rates, mut cycle_rates, mut p50) = (vec![], vec![], vec![]);
    let mut min_window = usize::MAX;
    let mut window_start_ns = blocks
        .get(warm.min(end).wrapping_sub(1))
        .map_or(0, |b| b.at_ns);
    for w in equal_windows(&counts, WINDOWS) {
        let win = &measured[w];
        let end_ns = win.last().map_or(window_start_ns, |b| b.at_ns);
        let secs = end_ns.saturating_sub(window_start_ns) as f64 / 1e9;
        window_start_ns = end_ns;
        let txs: usize = win.iter().map(|b| b.stats.txs).sum();
        let cycles: u64 = win.iter().map(|b| b.stats.max_shard_cycles).sum();
        tx_rates.push(ratio(txs as f64, secs));
        cycle_rates.push(ratio(cycles as f64, secs));
        let acks = sorted(acks_of(win));
        p50.push(quantile_sorted(&acks, 0.5));
        min_window = min_window.min(acks.len());
    }
    let pooled = sorted(acks_of(measured));
    let e2e = &mut out.end_to_end;
    put_sampled(e2e, "tx_per_s", median(&tx_rates), tx_rates);
    put_sampled(e2e, "sim_cycles_per_s", median(&cycle_rates), cycle_rates);
    put_sampled(e2e, "latency_p50_ms", quantile_sorted(&pooled, 0.5), p50);
    put_sampled(e2e, "setup_s", median(&setup_s), setup_s);
    put(e2e, "peak_rss_mb", peak_rss_mb);
    // The tail is reported, not gated: it is set by how much of the run
    // the host spent in a slow spell, which varies far more between runs
    // than any bound allows.
    let info = [
        ("ack_p99_ms", quantile_sorted(&pooled, 0.99).to_string()),
        ("ack_p999_ms", quantile_sorted(&pooled, 0.999).to_string()),
        (
            "ack_max_ms",
            pooled.last().copied().unwrap_or(0.0).to_string(),
        ),
        ("ack_samples", pooled.len().to_string()),
        ("ack_samples_smallest_window", min_window.to_string()),
    ];
    out.info.extend(info);
    out.sizes.extend([
        ("txs", stream.len().to_string()),
        ("accounts", ACCOUNTS.to_string()),
        ("skew", wcfg.skew.to_string()),
        ("read_only_pct", wcfg.read_only_pct.to_string()),
        ("shards", cfg.shards.to_string()),
        ("max_batch", cfg.max_batch.to_string()),
        ("clients", CLIENTS.to_string()),
        ("windows", WINDOWS.to_string()),
        ("setups", SETUPS.to_string()),
        (
            "journal",
            cfg.journal.map_or("none".into(), |j| j.policy.label()),
        ),
    ]);
    if !trace {
        return;
    }

    // Per-layer: counts from the threaded run, times from the traced
    // synchronous run, with an untraced one as the overhead baseline.
    let sizes: Vec<usize> = blocks.iter().map(|b| b.stats.txs).collect();
    let plain = run_sync(&cfg, &stream, &sizes, &Tracer::off());
    check_sync("untraced synchronous run", &plain, &served, &mut out.checks);
    let tracer = Tracer::on();
    let traced = run_sync(&cfg, &stream, &sizes, &tracer);
    check_sync("traced synchronous run", &traced, &served, &mut out.checks);
    out.checks.attempted += 2 * stream.len() as u64;
    let recovered = match mode {
        Mode::DurableHot => crash_and_recover(&cfg, &stream, 3, &tracer, &mut out.checks),
        Mode::Zipf => None,
    };
    let spans = tracer.into_spans();

    let pl = &mut out.per_layer;
    put_sampled(pl, "workloads.generate_s", median(&generate_s), generate_s);
    put(pl, "ingest.submit_ns_p50", median(&served.submit_ns));
    let waits: Vec<f64> = measured
        .iter()
        .flat_map(|b| {
            let exec_ms = b.stats.wall_ns as f64 / 1e6;
            acks_of(std::slice::from_ref(b))
                .iter()
                .map(move |a| a - exec_ms)
        })
        .collect();
    let waits = sorted(&waits);
    put(pl, "ingest.queue_wait_ms_p50", quantile_sorted(&waits, 0.5));
    put(
        pl,
        "ingest.queue_wait_ms_p99",
        quantile_sorted(&waits, 0.99),
    );
    put(pl, "ingest.shed", served.shed as f64);
    let partial = blocks[..end]
        .iter()
        .filter(|b| b.stats.txs < MAX_BATCH)
        .count();
    put(pl, "ingest.partial_blocks", partial as f64);
    let exec: Vec<f64> = measured
        .iter()
        .map(|b| b.stats.wall_ns as f64 / 1e6)
        .collect();
    put(pl, "block.exec_ms_p50", quantile(&exec, 0.5));
    put(pl, "block.exec_ms_p99", quantile(&exec, 0.99));
    let sum = |f: fn(&BlockStats) -> u64| blocks.iter().map(|b| f(&b.stats)).sum::<u64>() as f64;
    let (commits, aborts) = (sum(|s| s.commits), sum(|s| s.aborts));
    put(pl, "block.abort_rate", ratio(aborts, commits + aborts));
    put(pl, "block.shard_cycles", served.shard_cycles as f64);
    let skew_max = blocks
        .iter()
        .map(|b| b.stats.shard_skew)
        .fold(0.0, f64::max);
    put(pl, "block.shard_skew_max", skew_max);
    put(
        pl,
        "block.cross_shard_frac",
        ratio(sum(|s| s.cross_shard), sum(|s| s.transfers as u64)),
    );
    put(
        pl,
        "block.ro_fastpath_frac",
        ratio(sum(|s| s.read_only_hits), sum(|s| s.txs as u64)),
    );
    for (metric, span) in [
        ("block.run_s", "service.run_block"),
        ("block.fold_s", "service.fold_deltas"),
        ("journal.accept_s", "journal.accept"),
        ("journal.seal_s", "journal.seal"),
        ("journal.commit_s", "journal.commit"),
        ("journal.force_s", "journal.force"),
    ] {
        put(pl, metric, total_s(&spans, span, None));
    }
    if let Some((j, dev)) = &traced.journal {
        let records = j.accept_records + j.seal_records + j.commit_records;
        put(pl, "journal.records", records as f64);
        put(pl, "journal.forces", j.forces as f64);
        put(pl, "journal.retries", j.retries as f64);
        put(pl, "journal.throttle_cycles", j.throttle_cycles as f64);
        put(pl, "logdev.bytes_appended", dev.bytes_appended as f64);
        put(
            pl,
            "logdev.backpressure_waits",
            dev.backpressure_waits as f64,
        );
    }
    if let Some(r) = recovered {
        let reexec: Vec<f64> = r
            .recover_s
            .iter()
            .zip(&r.replay_s)
            .map(|(a, b)| a - b)
            .collect();
        put_sampled(pl, "recovery.recover_s", median(&r.recover_s), r.recover_s);
        put_sampled(pl, "recovery.replay_s", median(&r.replay_s), r.replay_s);
        put_sampled(pl, "recovery.reexec_s", median(&reexec), reexec);
        let rep = &r.first.report;
        put(pl, "recovery.records_scanned", rep.records_scanned as f64);
        put(pl, "recovery.blocks_replayed", rep.blocks_replayed as f64);
        put(
            pl,
            "recovery.blocks_reexecuted",
            rep.blocks_reexecuted as f64,
        );
        put(
            pl,
            "recovery.journal_bytes",
            r.image.journal.bytes.len() as f64,
        );
    }
    put_trace(pl, &spans, traced.wall_s, plain.wall_s);
    out.spans = spans;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    fn small(mode: Mode) -> (ServiceConfig, Vec<ClientTx>) {
        let size = Size {
            txs: 3_000,
            ..Size::tiny(Workload::SvcZipf)
        };
        let (cfg, wcfg) = configs(mode, 3, &size);
        (cfg, generate(&wcfg))
    }

    #[test]
    fn traced_sync_run_reproduces_the_threaded_service() {
        for mode in [Mode::Zipf, Mode::DurableHot] {
            let (cfg, stream) = small(mode);
            let mut checks = Checks::default();
            let mut ledger = Ledger::new(cfg.accounts, stream.len());
            let served = serve(Service::start(cfg), &stream, 64, &mut ledger, &mut checks);
            ledger.check_all_receipted(&mut checks);
            assert_eq!(checks.failed, 0, "{mode:?}: {:?}", checks.messages);
            let sizes: Vec<usize> = served.blocks.iter().map(|b| b.stats.txs).collect();
            let tracer = Tracer::on();
            let traced = run_sync(&cfg, &stream, &sizes, &tracer);
            let digests: Vec<u64> = served.blocks.iter().map(|b| b.digest).collect();
            assert_eq!(traced.digests, digests, "{mode:?}: receipts");
            assert_eq!(traced.balances, served.balances, "{mode:?}: balances");
            assert_eq!(
                traced.journal.map(|(s, _)| s),
                served.journal,
                "{mode:?}: journal"
            );
            let spans = tracer.into_spans();
            let journaled = spans.iter().any(|s| s.name == "journal.force");
            assert_eq!(journaled, mode == Mode::DurableHot, "{mode:?}");
        }
    }

    #[test]
    fn ledger_catches_wrong_and_missing_receipts() {
        let (cfg, stream) = small(Mode::Zipf);
        let block = &stream[..200];
        let mut outcome = run_block(&cfg, block, &FastMap::default());
        let mut checks = Checks::default();
        Ledger::new(cfg.accounts, block.len()).check_block(block, &outcome.receipts, &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.messages);

        let probe = outcome
            .receipts
            .iter()
            .position(|r| matches!(r.status, ReceiptStatus::ReadOnly { .. }))
            .expect("the stream has read-only probes");
        outcome.receipts[probe].status = ReceiptStatus::ReadOnly { balance: 12_345 };
        let dropped = outcome.receipts.pop();
        let mut ledger = Ledger::new(cfg.accounts, block.len());
        ledger.check_block(block, &outcome.receipts, &mut checks);
        ledger.check_all_receipted(&mut checks);
        assert_eq!(checks.failed, 2, "{:?}", checks.messages);
        assert!(dropped.is_some());
    }
}
