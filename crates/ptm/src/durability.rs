//! The durability seam: log-force policies and checksummed record framing
//! over the write-behind [`LogDevice`].
//!
//! HTPM/DUMBO-style durable transactional memory persists three things
//! through the log device: per-transaction **commit records** (the
//! durability point), **undo payloads** (the committed pre-image of a block
//! the first time a transaction's dirty write overflows to memory) and
//! **redo payloads** (the words a commit publishes from its speculative
//! buffers). [`DurableLog`] owns the device and a [`ForcePolicy`] deciding
//! when commit records are *forced* (flush barrier) rather than left
//! write-behind:
//!
//! * [`ForcePolicy::Eager`] — force on every writing commit; a committed
//!   transaction's record is always durable, at full flush latency per
//!   commit.
//! * [`ForcePolicy::Lazy`] — never force; commit latency is minimal but a
//!   crash may lose the records (not the data — PTM's metadata tables are
//!   write-through, see DESIGN.md decisions 19/22) of recent commits.
//! * [`ForcePolicy::Group`] — force every N-th writing commit, amortizing
//!   the flush.
//!
//! Read-only transactions take the DUMBO fast path regardless of policy:
//! they wrote nothing, so they append no record and never force.
//!
//! Eager-versioning backends (LogTM) put the log in **WAL mode**
//! ([`DurableLog::set_wal`]): their stores update memory in place, so the
//! word pre-image ([`LogRecordKind::WordUndo`]) must be durable *before*
//! the store — each word-undo append is forced, as is the abort record
//! that voids a retried incarnation's pre-images. Commit records keep the
//! configured force policy; commit-ness is recovered from the durable
//! T-State table, so a lost lazy commit record costs an observation, not
//! data.
//!
//! Every record is framed with a 16-byte header and an FNV-1a checksum
//! trailer ([`ptm_types::rng::Fnv1a64`]), so [`scan_records`] can detect
//! torn tails and holes left by reordered or torn in-flight appends. The
//! scan is **bounded**: it stops at the first invalid record instead of
//! hunting the tail for salvageable frames — everything past the cut is
//! counted, not trusted (see `ISSUE` satellite on bounded tail scans).
//!
//! Device refusals are absorbed here so callers never see them:
//! [`DurableLog`] retries transient errors with exponential backoff and
//! waits out stall windows, charging the cycles to the caller's commit.
//! Both loops are bounded by device construction
//! ([`ptm_mem::logdev::MAX_CONSECUTIVE_TRANSIENTS`], one stall window per
//! record), proven by the `max_append_attempts` counter staying at or below
//! [`MAX_LOG_RETRIES`].

use ptm_mem::logdev::{LogAppendError, LogDevConfig, LogDevStats, LogDevice, LogFaultPlan};
use ptm_types::rng::Fnv1a64;
use ptm_types::{
    BlockIdx, Cycle, FastMap, FastSet, PhysAddr, PhysBlock, ProcessId, TxId, Vpn, BLOCK_SIZE,
};

/// Record-frame magic ("PTLG" little-endian).
pub const RECORD_MAGIC: u32 = 0x474C_5450;

/// Frame header bytes: magic (4) + kind (1) + reserved (1) + payload length
/// (2) + transaction id (8).
pub const RECORD_HEADER: usize = 16;

/// Frame trailer bytes: the FNV-1a checksum of header + payload.
pub const RECORD_TRAILER: usize = 8;

/// Hard bound on append attempts for one record. The device bounds
/// consecutive transient rejections and deals at most one stall window per
/// record, so `stall + transients + success` fits well under this; crossing
/// it is a device-model bug, not bad luck.
pub const MAX_LOG_RETRIES: u32 = 8;

/// Base cycles of the exponential backoff after a transient append error.
const BACKOFF_BASE: Cycle = 32;

/// When a commit record must be forced to durable media.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForcePolicy {
    /// Force on every writing commit.
    Eager,
    /// Never force; records ride write-behind.
    Lazy,
    /// Force every N-th writing commit (N ≥ 1; `Group(1)` behaves like
    /// `Eager`).
    Group(u32),
}

impl ForcePolicy {
    /// The canonical report label (`eager`, `lazy`, `group4`, …).
    pub fn label(&self) -> String {
        match self {
            ForcePolicy::Eager => "eager".to_string(),
            ForcePolicy::Lazy => "lazy".to_string(),
            ForcePolicy::Group(n) => format!("group{n}"),
        }
    }
}

impl std::fmt::Display for ForcePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// What a log record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogRecordKind {
    /// A transaction committed (the durability point when forced).
    Commit,
    /// A transaction aborted (its undo/redo records are void).
    Abort,
    /// Committed pre-image of a block a live transaction dirtied in memory.
    Undo,
    /// Words a commit published from its speculative buffers.
    Redo,
    /// Pre-image of one word an eager-versioning (LogTM) store updated in
    /// place — forced before the store lands (WAL mode).
    WordUndo,
    /// Service journal: a client transaction was accepted at the frontend.
    /// The service's ingest journal shares this frame format (and
    /// [`scan_records`]) so its recovery inherits the same torn-tail and
    /// hole detection as the machine-level log.
    SvcAccept,
    /// Service journal: the preceding accepted transactions were sealed
    /// into a block.
    SvcSeal,
    /// Service journal: a sealed block executed; the payload carries its
    /// redo deltas (the block's durability point when forced).
    SvcCommit,
}

impl LogRecordKind {
    fn to_byte(self) -> u8 {
        match self {
            LogRecordKind::Commit => 1,
            LogRecordKind::Abort => 2,
            LogRecordKind::Undo => 3,
            LogRecordKind::Redo => 4,
            LogRecordKind::WordUndo => 5,
            LogRecordKind::SvcAccept => 6,
            LogRecordKind::SvcSeal => 7,
            LogRecordKind::SvcCommit => 8,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(LogRecordKind::Commit),
            2 => Some(LogRecordKind::Abort),
            3 => Some(LogRecordKind::Undo),
            4 => Some(LogRecordKind::Redo),
            5 => Some(LogRecordKind::WordUndo),
            6 => Some(LogRecordKind::SvcAccept),
            7 => Some(LogRecordKind::SvcSeal),
            8 => Some(LogRecordKind::SvcCommit),
            _ => None,
        }
    }
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// What the record describes.
    pub kind: LogRecordKind,
    /// The transaction it belongs to.
    pub tx: TxId,
    /// Kind-specific payload (see the `encode_*_payload` helpers).
    pub payload: Vec<u8>,
}

/// Frames a record: header, payload, FNV-1a checksum trailer.
pub fn encode_record(kind: LogRecordKind, tx: TxId, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= u16::MAX as usize, "payload fits the frame");
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len() + RECORD_TRAILER);
    out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    out.push(kind.to_byte());
    out.push(0);
    out.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    out.extend_from_slice(&tx.0.to_le_bytes());
    out.extend_from_slice(payload);
    let mut h = Fnv1a64::new();
    h.write_bytes(&out);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out
}

/// The undo payload: which committed block image was captured, and where
/// its page lived virtually (so recovery can re-read the recovered value
/// through the normal committed-read path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndoPayload {
    /// Owning process of the page.
    pub pid: ProcessId,
    /// Virtual page number.
    pub vpn: Vpn,
    /// Block within the page.
    pub block: BlockIdx,
    /// The committed pre-image.
    pub data: [u8; BLOCK_SIZE],
}

/// Encodes an [`UndoPayload`].
pub fn encode_undo_payload(p: &UndoPayload) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + BLOCK_SIZE);
    out.extend_from_slice(&p.pid.0.to_le_bytes());
    out.push(p.block.0);
    out.push(0);
    out.extend_from_slice(&p.vpn.0.to_le_bytes());
    out.extend_from_slice(&p.data);
    out
}

/// Checksums an encoded undo payload. [`DurableLog`] keeps this per
/// current (latest-incarnation) undo append and recovery recomputes it per
/// scanned record, so reconciliation can skip pre-images that an abort
/// already voided instead of miscounting them as corruption.
pub fn undo_payload_checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Decodes an [`UndoPayload`]; `None` if the payload is malformed.
pub fn decode_undo_payload(bytes: &[u8]) -> Option<UndoPayload> {
    if bytes.len() != 12 + BLOCK_SIZE {
        return None;
    }
    Some(UndoPayload {
        pid: ProcessId(u16::from_le_bytes(bytes[0..2].try_into().ok()?)),
        block: BlockIdx(bytes[2]),
        vpn: Vpn(u64::from_le_bytes(bytes[4..12].try_into().ok()?)),
        data: bytes[12..].try_into().ok()?,
    })
}

/// Encodes a word-undo payload: the physical word address plus its
/// pre-transaction value.
pub fn encode_word_undo_payload(pa: PhysAddr, old: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&pa.0.to_le_bytes());
    out.extend_from_slice(&old.to_le_bytes());
    out
}

/// Decodes a word-undo payload; `None` if the payload is malformed.
pub fn decode_word_undo_payload(bytes: &[u8]) -> Option<(PhysAddr, u32)> {
    if bytes.len() != 12 {
        return None;
    }
    Some((
        PhysAddr(u64::from_le_bytes(bytes[0..8].try_into().ok()?)),
        u32::from_le_bytes(bytes[8..12].try_into().ok()?),
    ))
}

/// Encodes a redo payload: the block plus each `(word, value)` published.
pub fn encode_redo_payload(block: PhysBlock, words: &[(u8, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + words.len() * 5);
    out.extend_from_slice(&block.frame().0.to_le_bytes());
    out.push(block.index().0);
    out.push(words.len() as u8);
    out.extend_from_slice(&[0, 0]);
    for (w, v) in words {
        out.push(*w);
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// The result of a bounded scan over a device image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogScan {
    /// Records that validated, in log order.
    pub records: Vec<LogRecord>,
    /// Byte length of the valid prefix (truncate the image here).
    pub valid_len: usize,
    /// Records that began after the valid prefix but failed validation.
    /// The scan is bounded — it does not resync past the first bad frame —
    /// so this counts `1` for the frame at the cut (plus nothing behind
    /// it); `bytes_discarded` accounts for the rest.
    pub records_discarded: u64,
    /// Frames whose header parsed but whose checksum did not match
    /// (a subset of `records_discarded`).
    pub checksum_mismatches: u64,
    /// Bytes past the valid prefix (zero-filled holes included).
    pub bytes_discarded: u64,
}

/// Scans a device image for valid records. Bounded single forward pass:
/// stops at the first frame that fails magic, length or checksum
/// validation and discards everything after it (a hole's zero bytes fail
/// the magic check, so anything behind a hole is unreachable — exactly the
/// contiguous-prefix durability a log gives you).
pub fn scan_records(bytes: &[u8]) -> LogScan {
    let mut scan = LogScan::default();
    let mut pos = 0;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            break;
        }
        if rest.iter().all(|b| *b == 0) {
            // Clean zero tail: unwritten media, nothing was torn here.
            break;
        }
        let Some(frame) = try_decode(rest) else {
            // A frame started here but does not validate: torn append,
            // lost hole or corrupt trailer. Stop — bounded scan.
            scan.records_discarded += 1;
            if header_plausible(rest) {
                scan.checksum_mismatches += 1;
            }
            break;
        };
        let (record, framed_len) = frame;
        scan.records.push(record);
        pos += framed_len;
        scan.valid_len = pos;
    }
    scan.bytes_discarded = (bytes.len() - scan.valid_len) as u64;
    scan
}

/// Whether the bytes open with a syntactically valid header (used to
/// distinguish a checksum mismatch from structural garbage).
fn header_plausible(bytes: &[u8]) -> bool {
    bytes.len() >= RECORD_HEADER
        && bytes[0..4] == RECORD_MAGIC.to_le_bytes()
        && LogRecordKind::from_byte(bytes[4]).is_some()
}

/// Decodes one frame from the front of `bytes`; `None` if it fails any
/// validation. Returns the record and its framed length.
fn try_decode(bytes: &[u8]) -> Option<(LogRecord, usize)> {
    if bytes.len() < RECORD_HEADER + RECORD_TRAILER {
        return None;
    }
    if bytes[0..4] != RECORD_MAGIC.to_le_bytes() {
        return None;
    }
    let kind = LogRecordKind::from_byte(bytes[4])?;
    let len = u16::from_le_bytes(bytes[6..8].try_into().ok()?) as usize;
    let framed = RECORD_HEADER + len + RECORD_TRAILER;
    if bytes.len() < framed {
        return None;
    }
    let mut h = Fnv1a64::new();
    h.write_bytes(&bytes[..RECORD_HEADER + len]);
    let stored = u64::from_le_bytes(bytes[RECORD_HEADER + len..framed].try_into().ok()?);
    if h.finish() != stored {
        return None;
    }
    let tx = TxId(u64::from_le_bytes(bytes[8..16].try_into().ok()?));
    Some((
        LogRecord {
            kind,
            tx,
            payload: bytes[RECORD_HEADER..RECORD_HEADER + len].to_vec(),
        },
        framed,
    ))
}

/// Durable-log configuration: the policy plus the device underneath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// When commit records are forced.
    pub policy: ForcePolicy,
    /// Device geometry and latencies.
    pub dev: LogDevConfig,
    /// Device fault injection.
    pub faults: LogFaultPlan,
}

impl DurabilityConfig {
    /// Eager forcing over a zero-cost, fault-free device — the
    /// configuration that must be bit-identical to a volatile run.
    pub fn zero_cost_eager() -> Self {
        DurabilityConfig {
            policy: ForcePolicy::Eager,
            dev: LogDevConfig::zero_cost(),
            faults: LogFaultPlan::none(),
        }
    }
}

/// Caller-side durability counters (device counters live in
/// [`LogDevStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurStats {
    /// Commit records appended.
    pub commit_records: u64,
    /// Abort records appended.
    pub abort_records: u64,
    /// Undo payloads appended.
    pub undo_records: u64,
    /// Redo payloads appended.
    pub redo_records: u64,
    /// Word pre-images appended by eager-versioning stores (WAL mode).
    pub word_undo_records: u64,
    /// Read-only commits that skipped the log entirely (DUMBO fast path).
    pub ro_fastpath_commits: u64,
    /// Forces issued by the policy.
    pub policy_forces: u64,
    /// Forces issued by WAL mode (word-undo and abort appends), on top of
    /// whatever the commit policy forces.
    pub wal_forces: u64,
    /// Extra cycles charged to commits (appends, forces, backoff, stall
    /// waits) — the commit-latency cost of durability.
    pub commit_latency_cycles: u64,
    /// Transient-error retries performed.
    pub log_retries: u64,
    /// Cycles spent in exponential backoff after transient errors.
    pub backoff_cycles: u64,
    /// Times a commit was deferred or an append waited because the device
    /// stalled (graceful throttling, never deadlock).
    pub throttle_events: u64,
    /// Cycles spent throttled on device stalls.
    pub throttle_cycles: u64,
    /// Worst attempts needed for one append — the bounded-retry proof:
    /// never exceeds [`MAX_LOG_RETRIES`].
    pub max_append_attempts: u32,
}

/// The durable log a machine writes through: device + policy + per-
/// transaction write tracking for the read-only fast path.
#[derive(Debug, Clone)]
pub struct DurableLog {
    policy: ForcePolicy,
    dev: LogDevice,
    /// Transactions that wrote (any speculative write). Read-only commits
    /// are exactly the ones never inserted here.
    wrote: FastSet<TxId>,
    /// Blocks already undo-logged per live transaction (one pre-image per
    /// (tx, block), like a real undo log).
    undo_logged: FastMap<TxId, FastSet<PhysBlock>>,
    /// Checksums of the *current* undo payloads per transaction — the ones
    /// logged since the transaction's latest begin. An abort voids them
    /// (the retry re-captures fresh pre-images under the same `TxId`), so
    /// recovery can tell a live incarnation's pre-image from a stale one
    /// left by an earlier aborted incarnation.
    undo_sums: FastMap<TxId, Vec<u64>>,
    /// Transactions that committed via the read-only fast path (no record
    /// appended). Harness bookkeeping for log reconciliation: without it, a
    /// fast-path commit is indistinguishable from a lost commit record.
    ro_committed: FastSet<TxId>,
    /// Writing commits since the last policy force (group commit).
    commits_since_force: u32,
    /// Write-ahead mode for eager-versioning backends: word-undo and abort
    /// appends are forced regardless of the commit policy.
    wal: bool,
    stats: DurStats,
}

impl DurableLog {
    /// Creates a durable log.
    pub fn new(cfg: DurabilityConfig) -> Self {
        DurableLog {
            policy: cfg.policy,
            dev: LogDevice::new(cfg.dev, cfg.faults),
            wrote: FastSet::default(),
            undo_logged: FastMap::default(),
            undo_sums: FastMap::default(),
            ro_committed: FastSet::default(),
            commits_since_force: 0,
            wal: false,
            stats: DurStats::default(),
        }
    }

    /// The active force policy.
    pub fn policy(&self) -> ForcePolicy {
        self.policy
    }

    /// Switches write-ahead mode on or off (see [`DurableLog::wal`]'s
    /// field docs). Eager-versioning machines set it before running.
    pub fn set_wal(&mut self, wal: bool) {
        self.wal = wal;
    }

    /// Whether the log runs in write-ahead mode.
    pub fn wal(&self) -> bool {
        self.wal
    }

    /// Caller-side counters.
    pub fn stats(&self) -> &DurStats {
        &self.stats
    }

    /// Device counters.
    pub fn dev_stats(&self) -> &LogDevStats {
        self.dev.stats()
    }

    /// Marks `tx` as having written (disqualifies the read-only fast
    /// path).
    pub fn note_tx_write(&mut self, tx: TxId) {
        self.wrote.insert(tx);
    }

    /// Whether `tx` has written so far.
    pub fn tx_wrote(&self, tx: TxId) -> bool {
        self.wrote.contains(&tx)
    }

    /// Commit admission: a writing commit must not start while the device
    /// is stalled — the caller throttles (re-polls later) instead. Returns
    /// the deadline when blocked. Read-only commits never block (they
    /// touch no device).
    pub fn commit_blocked(&mut self, tx: TxId, now: Cycle) -> Option<Cycle> {
        if !self.tx_wrote(tx) {
            return None;
        }
        self.dev.poll(now);
        let until = self.dev.stalled_until(now)?;
        self.stats.throttle_events += 1;
        self.stats.throttle_cycles += until - now;
        Some(until)
    }

    /// Appends the committed pre-image of `block` for `tx` if this is the
    /// first time the transaction dirties it in memory. Write-behind: the
    /// returned cycles are backpressure/retry costs only.
    pub fn append_undo(
        &mut self,
        tx: TxId,
        block: PhysBlock,
        payload: UndoPayload,
        now: Cycle,
    ) -> Cycle {
        if !self.undo_logged.entry(tx).or_default().insert(block) {
            return 0;
        }
        let bytes = encode_undo_payload(&payload);
        self.undo_sums
            .entry(tx)
            .or_default()
            .push(undo_payload_checksum(&bytes));
        let rec = encode_record(LogRecordKind::Undo, tx, &bytes);
        self.stats.undo_records += 1;
        self.append_retrying(&rec, now)
    }

    /// Appends the pre-image of one word an eager-versioning store is about
    /// to overwrite in place, and forces it durable — the write-ahead rule:
    /// memory must never get ahead of the undo record it would take to roll
    /// the store back, or a crash strands a live transaction's write with
    /// no way to retire it. Returns the cycles charged to the store.
    pub fn append_word_undo(&mut self, tx: TxId, pa: PhysAddr, old: u32, now: Cycle) -> Cycle {
        let rec = encode_record(
            LogRecordKind::WordUndo,
            tx,
            &encode_word_undo_payload(pa, old),
        );
        self.stats.word_undo_records += 1;
        let mut lat = self.append_retrying(&rec, now);
        self.stats.wal_forces += 1;
        lat += self.dev.force(now + lat);
        lat
    }

    /// Appends the redo payload of one committed speculative buffer.
    pub fn append_redo(
        &mut self,
        tx: TxId,
        block: PhysBlock,
        words: &[(u8, u32)],
        now: Cycle,
    ) -> Cycle {
        let rec = encode_record(LogRecordKind::Redo, tx, &encode_redo_payload(block, words));
        self.stats.redo_records += 1;
        self.append_retrying(&rec, now)
    }

    /// Commits `tx`: read-only transactions skip the log entirely; writing
    /// transactions append a commit record and force per policy. Returns
    /// the cycles to add to the commit's latency.
    pub fn commit_tx(&mut self, tx: TxId, thread: u32, now: Cycle) -> Cycle {
        self.undo_logged.remove(&tx);
        self.undo_sums.remove(&tx);
        if !self.wrote.remove(&tx) {
            self.stats.ro_fastpath_commits += 1;
            self.ro_committed.insert(tx);
            return 0;
        }
        let mut payload = Vec::with_capacity(12);
        payload.extend_from_slice(&thread.to_le_bytes());
        payload.extend_from_slice(&now.to_le_bytes());
        let rec = encode_record(LogRecordKind::Commit, tx, &payload);
        self.stats.commit_records += 1;
        let mut lat = self.append_retrying(&rec, now);
        self.commits_since_force += 1;
        let force = match self.policy {
            ForcePolicy::Eager => true,
            ForcePolicy::Lazy => false,
            ForcePolicy::Group(n) => self.commits_since_force >= n,
        };
        if force {
            self.commits_since_force = 0;
            self.stats.policy_forces += 1;
            lat += self.dev.force(now + lat);
        }
        self.stats.commit_latency_cycles += lat;
        lat
    }

    /// Aborts `tx`: appends an abort record if the transaction ever wrote,
    /// voiding its undo/redo records for the scan's reconciliation.
    /// Write-behind normally; forced in WAL mode.
    pub fn abort_tx(&mut self, tx: TxId, now: Cycle) -> Cycle {
        self.undo_logged.remove(&tx);
        self.undo_sums.remove(&tx);
        if !self.wrote.remove(&tx) {
            return 0;
        }
        let rec = encode_record(LogRecordKind::Abort, tx, &[]);
        self.stats.abort_records += 1;
        let mut lat = self.append_retrying(&rec, now);
        if self.wal {
            // WAL mode: the abort voids the incarnation's word-undo records,
            // and a retry re-logs fresh pre-images under the same `TxId` —
            // recovery must never see the new records without the abort that
            // retired the old ones, so the void is forced like the records
            // it voids.
            self.stats.wal_forces += 1;
            lat += self.dev.force(now + lat);
        }
        lat
    }

    /// The crash-boundary device image.
    pub fn crash_image(&self, now: Cycle) -> ptm_mem::LogImage {
        self.dev.crash_image(now)
    }

    /// Transactions that committed read-only (no record by design).
    pub fn ro_committed(&self) -> &FastSet<TxId> {
        &self.ro_committed
    }

    /// Checksums of the undo payloads that are current (logged by the
    /// latest incarnation) per still-live transaction. Recovery verifies
    /// only matching undo records; earlier incarnations' pre-images are
    /// stale by design, not corruption.
    pub fn undo_checksums(&self) -> &FastMap<TxId, Vec<u64>> {
        &self.undo_sums
    }

    /// Appends one framed record, absorbing transient errors (exponential
    /// backoff) and stall windows (wait out the deadline). Returns the
    /// cycles the append cost. Bounded: panics past [`MAX_LOG_RETRIES`]
    /// attempts, which the device's fault bounds make unreachable.
    fn append_retrying(&mut self, record: &[u8], now: Cycle) -> Cycle {
        let mut lat: Cycle = 0;
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            assert!(
                attempts <= MAX_LOG_RETRIES,
                "log append did not settle within {MAX_LOG_RETRIES} attempts — the device's \
                 transient/stall bounds guarantee this cannot happen"
            );
            match self.dev.append(record, now + lat) {
                Ok(wait) => {
                    self.stats.max_append_attempts = self.stats.max_append_attempts.max(attempts);
                    return lat + wait;
                }
                Err(LogAppendError::Transient) => {
                    let backoff = BACKOFF_BASE << (attempts - 1).min(6);
                    self.stats.log_retries += 1;
                    self.stats.backoff_cycles += backoff;
                    lat += backoff;
                }
                Err(LogAppendError::Stalled { until }) => {
                    let wait = until.saturating_sub(now + lat).max(1);
                    self.stats.throttle_events += 1;
                    self.stats.throttle_cycles += wait;
                    lat += wait;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_types::FrameId;

    #[test]
    fn record_round_trips_through_the_frame() {
        let payload = vec![1, 2, 3, 4, 5];
        let bytes = encode_record(LogRecordKind::Commit, TxId(42), &payload);
        let scan = scan_records(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].kind, LogRecordKind::Commit);
        assert_eq!(scan.records[0].tx, TxId(42));
        assert_eq!(scan.records[0].payload, payload);
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(scan.records_discarded, 0);
        assert_eq!(scan.checksum_mismatches, 0);
    }

    #[test]
    fn undo_payload_round_trips() {
        let p = UndoPayload {
            pid: ProcessId(3),
            vpn: Vpn(0x1234_5678),
            block: BlockIdx(17),
            data: [0xAB; BLOCK_SIZE],
        };
        assert_eq!(decode_undo_payload(&encode_undo_payload(&p)), Some(p));
        assert_eq!(decode_undo_payload(&[0; 5]), None);
    }

    #[test]
    fn torn_tail_is_discarded_with_counts_and_scan_is_bounded() {
        let mut bytes = Vec::new();
        for i in 0..5u64 {
            bytes.extend_from_slice(&encode_record(LogRecordKind::Redo, TxId(i), &[7; 10]));
        }
        let good = encode_record(LogRecordKind::Commit, TxId(9), &[1; 12]);
        // Record 6 is torn: only a prefix persisted, rest zero-filled, and a
        // perfectly valid record sits *behind* the tear.
        let torn_at = bytes.len();
        let mut torn = encode_record(LogRecordKind::Undo, TxId(5), &[9; 76]);
        let keep = torn.len() / 2;
        for b in &mut torn[keep..] {
            *b = 0;
        }
        bytes.extend_from_slice(&torn);
        bytes.extend_from_slice(&good);

        let scan = scan_records(&bytes);
        assert_eq!(scan.records.len(), 5, "scan stops at the tear — bounded");
        assert_eq!(scan.valid_len, torn_at);
        assert_eq!(scan.records_discarded, 1);
        assert_eq!(scan.checksum_mismatches, 1, "torn frame kept its header");
        assert_eq!(scan.bytes_discarded, (bytes.len() - torn_at) as u64);
    }

    #[test]
    fn clean_zero_tail_is_not_a_discard() {
        let mut bytes = encode_record(LogRecordKind::Abort, TxId(1), &[]);
        let len = bytes.len();
        bytes.extend_from_slice(&[0; 64]);
        let scan = scan_records(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, len);
        assert_eq!(scan.records_discarded, 0);
        assert_eq!(scan.checksum_mismatches, 0);
        assert_eq!(scan.bytes_discarded, 64);
    }

    #[test]
    fn corrupt_byte_fails_the_checksum() {
        let mut bytes = encode_record(LogRecordKind::Commit, TxId(3), &[5; 8]);
        bytes[RECORD_HEADER + 2] ^= 0xFF;
        let scan = scan_records(&bytes);
        assert!(scan.records.is_empty());
        assert_eq!(scan.checksum_mismatches, 1);
        assert_eq!(scan.records_discarded, 1);
    }

    #[test]
    fn read_only_commits_skip_the_log() {
        let mut log = DurableLog::new(DurabilityConfig::zero_cost_eager());
        assert_eq!(log.commit_tx(TxId(1), 0, 100), 0);
        assert_eq!(log.stats().ro_fastpath_commits, 1);
        assert_eq!(log.stats().commit_records, 0);
        assert_eq!(log.dev_stats().appends, 0);
    }

    #[test]
    fn writing_commits_append_and_force_eagerly() {
        let mut log = DurableLog::new(DurabilityConfig::zero_cost_eager());
        log.note_tx_write(TxId(1));
        let block = PhysBlock::new(FrameId(0), BlockIdx(1));
        log.append_redo(TxId(1), block, &[(0, 7)], 50);
        assert_eq!(log.commit_tx(TxId(1), 0, 100), 0, "zero-cost device");
        assert_eq!(log.stats().commit_records, 1);
        assert_eq!(log.stats().redo_records, 1);
        assert_eq!(log.stats().policy_forces, 1);
        let img = log.crash_image(100);
        let scan = scan_records(&img.bytes);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[1].kind, LogRecordKind::Commit);
    }

    #[test]
    fn group_commit_forces_every_nth() {
        let mut log = DurableLog::new(DurabilityConfig {
            policy: ForcePolicy::Group(3),
            ..DurabilityConfig::zero_cost_eager()
        });
        for i in 0..7u64 {
            log.note_tx_write(TxId(i));
            log.commit_tx(TxId(i), 0, 10 * i);
        }
        assert_eq!(log.stats().policy_forces, 2, "forces at commits 3 and 6");
    }

    #[test]
    fn undo_records_are_deduplicated_per_tx_block() {
        let mut log = DurableLog::new(DurabilityConfig::zero_cost_eager());
        let block = PhysBlock::new(FrameId(4), BlockIdx(2));
        let p = UndoPayload {
            pid: ProcessId(0),
            vpn: Vpn(9),
            block: BlockIdx(2),
            data: [1; BLOCK_SIZE],
        };
        log.note_tx_write(TxId(8));
        log.append_undo(TxId(8), block, p.clone(), 0);
        log.append_undo(TxId(8), block, p, 0);
        assert_eq!(log.stats().undo_records, 1);
    }

    #[test]
    fn word_undo_payload_round_trips() {
        let bytes = encode_word_undo_payload(PhysAddr(0xDEAD_BEEF_0123), 42);
        assert_eq!(
            decode_word_undo_payload(&bytes),
            Some((PhysAddr(0xDEAD_BEEF_0123), 42))
        );
        assert_eq!(decode_word_undo_payload(&bytes[..7]), None);
    }

    #[test]
    fn wal_mode_forces_word_undo_and_abort_appends() {
        let mut log = DurableLog::new(DurabilityConfig {
            policy: ForcePolicy::Lazy,
            ..DurabilityConfig::zero_cost_eager()
        });
        log.set_wal(true);
        log.note_tx_write(TxId(1));
        log.append_word_undo(TxId(1), PhysAddr(64), 7, 10);
        log.append_word_undo(TxId(1), PhysAddr(68), 9, 20);
        log.abort_tx(TxId(1), 30);
        assert_eq!(log.stats().word_undo_records, 2);
        assert_eq!(log.stats().abort_records, 1);
        assert_eq!(log.stats().wal_forces, 3, "every WAL append forces");
        assert_eq!(log.stats().policy_forces, 0, "lazy policy never forces");
        let scan = scan_records(&log.crash_image(30).bytes);
        assert_eq!(
            scan.records.iter().map(|r| r.kind).collect::<Vec<_>>(),
            vec![
                LogRecordKind::WordUndo,
                LogRecordKind::WordUndo,
                LogRecordKind::Abort
            ]
        );
    }

    #[test]
    fn transients_are_absorbed_with_bounded_backoff() {
        let faults = LogFaultPlan {
            transient_pct: 100,
            stall_pct: 0,
            ..LogFaultPlan::from_seed(21)
        };
        let mut log = DurableLog::new(DurabilityConfig {
            policy: ForcePolicy::Eager,
            dev: LogDevConfig::zero_cost(),
            faults,
        });
        log.note_tx_write(TxId(1));
        let lat = log.commit_tx(TxId(1), 0, 1_000);
        assert!(lat > 0, "backoff cycles were charged");
        assert!(log.stats().log_retries > 0);
        assert!(log.stats().max_append_attempts <= MAX_LOG_RETRIES);
        assert_eq!(log.stats().commit_records, 1, "the record landed");
    }
}
