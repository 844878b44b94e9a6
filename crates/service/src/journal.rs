//! The durable ingest journal: accepted client transactions, sealed-block
//! boundaries and executed-block redo deltas, framed with the machine
//! log's checksummed record format and written through the same
//! write-behind [`LogDevice`].
//!
//! # Record stream
//!
//! The journal is an ARIES-style redo log of the frontend pipeline:
//!
//! * [`LogRecordKind::SvcAccept`] — one per admitted client transaction,
//!   appended *before* the ack. The payload is the full [`ClientTx`], so
//!   replay can rebuild every block's input.
//! * [`LogRecordKind::SvcSeal`] — the preceding `count` un-sealed accepts
//!   became block `seq`. Appended before the block executes.
//! * [`LogRecordKind::SvcCommit`] — block `seq` executed; the payload
//!   carries its net ledger deltas (chunked when a block touches more
//!   accounts than one frame holds). A block is **committed** iff all its
//!   commit chunks sit in the scan-valid prefix; this is the block's
//!   durability point when forced.
//!
//! # Force policy and ack semantics
//!
//! [`ForcePolicy`] decides when block commits force a flush barrier
//! (`Eager` = every block, `Group(n)` = every n-th, `Lazy` = never). A
//! force drains the device's in-flight queue, so every record appended
//! before it — accepts included — lands in the scan-valid prefix of any
//! later crash image. Acks ride the same barrier: a client id moves from
//! *pending* to *durably acked* at the first force after its accept
//! record, and the crash oracle holds the service to exactly that set —
//! an acked transaction must survive recovery; a pending one may be lost
//! with the tail. Under `Lazy` nothing is ever durably acked, which is
//! the policy's documented trade.
//!
//! Device refusals are absorbed by the loop [`DurableLog`] uses too,
//! [`append_retrying`]: transient errors retry under exponential backoff,
//! stall windows are waited out, both on the journal's logical cycle
//! clock, bounded by [`MAX_LOG_RETRIES`].
//!
//! [`DurableLog`]: ptm_core::durability::DurableLog
//! [`MAX_LOG_RETRIES`]: ptm_core::durability::MAX_LOG_RETRIES

use crate::config::JournalConfig;
use ptm_core::durability::{
    append_retrying, encode_record, scan_records, ForcePolicy, LogRecordKind,
};
use ptm_mem::logdev::{LogDevStats, LogDevice, LogImage};
use ptm_types::{Cycle, TxId};
use ptm_workloads::ClientTx;

/// One folded ledger delta: `(account id, wrapping u32 delta)`.
type AccountDelta = (u64, u32);

/// A decoded commit chunk: `(chunk index, chunk count, deltas)`.
type CommitChunk = (u16, u16, Vec<AccountDelta>);

/// Net ledger deltas per commit-record chunk. One frame's payload holds
/// up to `(u16::MAX - 8) / 12 = 5460`; staying well under keeps frames
/// comfortably inside one device segment.
const COMMIT_CHUNK: usize = 4096;

/// Caller-side journal counters (device counters live in [`LogDevStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Accept records appended.
    pub accept_records: u64,
    /// Seal records appended.
    pub seal_records: u64,
    /// Commit-record chunks appended.
    pub commit_records: u64,
    /// Forces issued by the policy (plus the shutdown force).
    pub forces: u64,
    /// Client transactions durably acked (accept record behind a force).
    pub acked_txs: u64,
    /// Transient-error retries performed.
    pub retries: u64,
    /// Cycles spent in exponential backoff after transient errors.
    pub backoff_cycles: u64,
    /// Appends that waited out a device stall window.
    pub throttle_events: u64,
    /// Cycles spent throttled on device stalls.
    pub throttle_cycles: u64,
    /// Worst attempts needed for one append — the bounded-retry proof:
    /// never exceeds [`ptm_core::durability::MAX_LOG_RETRIES`].
    pub max_append_attempts: u32,
}

/// The service's durable ingest journal: a [`LogDevice`] plus the force
/// policy, a logical cycle clock, and the count of durably acked accepts
/// the crash oracle checks.
#[derive(Debug, Clone)]
pub struct Journal {
    policy: ForcePolicy,
    dev: LogDevice,
    /// Logical cycle clock: advances on every append, backoff and stall
    /// wait, so the device's latency/fault model sees monotone time.
    now: Cycle,
    /// Records appended so far (journal sequence numbers `0..records`).
    records: u64,
    /// Records covered by the last force: every record with a lower
    /// sequence number is in the scan-valid prefix of any crash image.
    forced_records: u64,
    /// Block commits since the last force (group commit).
    commits_since_force: u32,
    stats: JournalStats,
}

impl Journal {
    /// Opens a fresh journal.
    pub fn new(cfg: JournalConfig) -> Self {
        Journal {
            policy: cfg.policy,
            dev: LogDevice::new(cfg.dev, cfg.faults),
            now: 0,
            records: 0,
            forced_records: 0,
            commits_since_force: 0,
            stats: JournalStats::default(),
        }
    }

    /// Reopens a journal over the scan-valid prefix of a crash image, as
    /// [`replay`] decoded it. The device resumes its append offsets and
    /// fault-decision stream past the recovered records, so recovery's own
    /// appends see the same fault model the original run did.
    pub fn reopen(cfg: JournalConfig, valid_prefix: Vec<u8>, records: u64) -> Self {
        Journal {
            policy: cfg.policy,
            dev: LogDevice::reopen(cfg.dev, cfg.faults, valid_prefix, records),
            now: 0,
            records,
            // The prefix survived the crash, which is the only durability
            // a force ever promises.
            forced_records: records,
            commits_since_force: 0,
            stats: JournalStats::default(),
        }
    }

    /// The active force policy.
    pub fn policy(&self) -> ForcePolicy {
        self.policy
    }

    /// Caller-side counters.
    pub fn stats(&self) -> &JournalStats {
        &self.stats
    }

    /// Device counters.
    pub fn dev_stats(&self) -> &LogDevStats {
        self.dev.stats()
    }

    /// The logical cycle clock.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Journals one accepted client transaction. The ack it backs becomes
    /// durable at the next force.
    pub fn accept(&mut self, tx: &ClientTx) {
        let rec = encode_record(
            LogRecordKind::SvcAccept,
            TxId(tx.id),
            &encode_accept_payload(tx),
        );
        self.stats.accept_records += 1;
        self.append_retrying(&rec);
    }

    /// Journals a seal: the preceding `count` un-sealed accepts became
    /// block `block_seq`.
    pub fn seal(&mut self, block_seq: u64, count: u32) {
        let rec = encode_record(
            LogRecordKind::SvcSeal,
            TxId(block_seq),
            &count.to_le_bytes(),
        );
        self.stats.seal_records += 1;
        self.append_retrying(&rec);
    }

    /// Journals block `block_seq`'s execution with its net ledger deltas
    /// (the redo payload recovery folds instead of re-folding a
    /// re-execution), then forces per policy.
    pub fn commit(&mut self, block_seq: u64, deltas: &[(u64, u32)]) {
        let chunks = deltas.chunks(COMMIT_CHUNK).count().max(1) as u16;
        for (i, chunk) in split_chunks(deltas).enumerate() {
            let rec = encode_record(
                LogRecordKind::SvcCommit,
                TxId(block_seq),
                &encode_commit_payload(i as u16, chunks, chunk),
            );
            self.stats.commit_records += 1;
            self.append_retrying(&rec);
        }
        self.commits_since_force += 1;
        if self.policy.forces(self.commits_since_force) {
            self.force();
        }
    }

    /// Forces the device: drains in-flight appends behind a flush barrier
    /// and promotes every pending accept to durably acked. Acks are
    /// therefore always the oldest accepts, so a count names them.
    pub fn force(&mut self) {
        self.commits_since_force = 0;
        self.stats.forces += 1;
        let wait = self.dev.force(self.now);
        self.now += wait + 1;
        self.forced_records = self.records;
        self.stats.acked_txs = self.stats.accept_records;
    }

    /// Records (by journal sequence number) covered by the last force.
    pub fn forced_records(&self) -> u64 {
        self.forced_records
    }

    /// Records appended so far; the next append gets this sequence number.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The crash-boundary device image: the durable prefix plus whatever
    /// the fault plan decides about in-flight appends (early, torn, lost).
    pub fn crash_image(&self) -> LogImage {
        self.dev.crash_image(self.now)
    }

    /// Appends one framed record through [`append_retrying`] on the
    /// logical clock, adding the retry counters to the journal's stats.
    fn append_retrying(&mut self, record: &[u8]) {
        let a = append_retrying(&mut self.dev, record, self.now);
        self.now += a.cycles + 1;
        self.records += 1;
        self.stats.retries += a.retries;
        self.stats.backoff_cycles += a.backoff_cycles;
        self.stats.throttle_events += a.throttle_events;
        self.stats.throttle_cycles += a.throttle_cycles;
        self.stats.max_append_attempts = self.stats.max_append_attempts.max(a.attempts);
    }
}

/// Yields the delta chunks of a commit record; an empty delta list still
/// yields one (empty) chunk so every executed block leaves a commit
/// record.
fn split_chunks(deltas: &[(u64, u32)]) -> impl Iterator<Item = &[(u64, u32)]> {
    let empty = deltas.is_empty();
    deltas
        .chunks(COMMIT_CHUNK)
        .chain(std::iter::once([].as_slice()).filter(move |_| empty))
}

/// Encodes an accept payload: the full client transaction.
fn encode_accept_payload(tx: &ClientTx) -> Vec<u8> {
    let mut out = Vec::with_capacity(29);
    out.extend_from_slice(&tx.id.to_le_bytes());
    out.extend_from_slice(&tx.from.to_le_bytes());
    out.extend_from_slice(&tx.to.to_le_bytes());
    out.extend_from_slice(&tx.amount.to_le_bytes());
    out.push(tx.read_only as u8);
    out
}

/// Decodes an accept payload; `None` if malformed.
fn decode_accept_payload(bytes: &[u8]) -> Option<ClientTx> {
    if bytes.len() != 29 {
        return None;
    }
    Some(ClientTx {
        id: u64::from_le_bytes(bytes[0..8].try_into().ok()?),
        from: u64::from_le_bytes(bytes[8..16].try_into().ok()?),
        to: u64::from_le_bytes(bytes[16..24].try_into().ok()?),
        amount: u32::from_le_bytes(bytes[24..28].try_into().ok()?),
        read_only: bytes[28] != 0,
    })
}

/// Encodes one commit-record chunk: chunk index, chunk count, delta count,
/// then the `(account, wrapping delta)` pairs.
fn encode_commit_payload(chunk: u16, chunks: u16, deltas: &[(u64, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + deltas.len() * 12);
    out.extend_from_slice(&chunk.to_le_bytes());
    out.extend_from_slice(&chunks.to_le_bytes());
    out.extend_from_slice(&(deltas.len() as u32).to_le_bytes());
    for &(acct, d) in deltas {
        out.extend_from_slice(&acct.to_le_bytes());
        out.extend_from_slice(&d.to_le_bytes());
    }
    out
}

/// Decodes one commit-record chunk; `None` if malformed.
fn decode_commit_payload(bytes: &[u8]) -> Option<CommitChunk> {
    if bytes.len() < 8 {
        return None;
    }
    let chunk = u16::from_le_bytes(bytes[0..2].try_into().ok()?);
    let chunks = u16::from_le_bytes(bytes[2..4].try_into().ok()?);
    let count = u32::from_le_bytes(bytes[4..8].try_into().ok()?) as usize;
    if bytes.len() != 8 + count * 12 {
        return None;
    }
    let mut deltas = Vec::with_capacity(count);
    for i in 0..count {
        let at = 8 + i * 12;
        deltas.push((
            u64::from_le_bytes(bytes[at..at + 8].try_into().ok()?),
            u32::from_le_bytes(bytes[at + 8..at + 12].try_into().ok()?),
        ));
    }
    Some((chunk, chunks, deltas))
}

/// One block reconstructed from the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredBlock {
    /// Block sequence number from its seal record.
    pub seq: u64,
    /// The client transactions sealed into it, in accept order.
    pub txs: Vec<ClientTx>,
    /// Its journaled net ledger deltas, if all commit chunks survived;
    /// `None` = sealed-but-uncommitted, recovery must (re-)execute it.
    pub deltas: Option<Vec<(u64, u32)>>,
}

/// What [`replay`] reconstructs from a journal crash image.
#[derive(Debug, Clone, Default)]
pub struct JournalReplay {
    /// Blocks in seal order; committed ones carry their deltas.
    pub blocks: Vec<RecoveredBlock>,
    /// Accepts after the last seal — the tail recovery re-seals.
    pub tail: Vec<ClientTx>,
    /// One past the highest sealed block sequence number.
    pub next_block_seq: u64,
    /// Scan-valid records (the reopen sequence base).
    pub records: u64,
    /// Byte length of the scan-valid prefix (the reopen image).
    pub valid_len: usize,
    /// Frames discarded at the scan cut.
    pub records_discarded: u64,
    /// Discarded frames that failed their checksum (torn appends).
    pub checksum_mismatches: u64,
    /// Bytes past the valid prefix.
    pub bytes_discarded: u64,
    /// Structurally valid frames whose journal-level payload or ordering
    /// was malformed; replay stops at the first one (bounded, like the
    /// scan itself).
    pub malformed_records: u64,
}

/// Replays a journal image: scans the checksummed frames (bounded, torn
/// tails discarded) and folds the record stream back into blocks. The
/// valid prefix is cut at the last record that *made sense* — a frame
/// that validates but decodes to an impossible journal state (a seal
/// counting more accepts than exist, an orphan commit) truncates there,
/// exactly like a torn frame would.
pub fn replay(bytes: &[u8]) -> JournalReplay {
    let scan = scan_records(bytes);
    let mut out = JournalReplay {
        records_discarded: scan.records_discarded,
        checksum_mismatches: scan.checksum_mismatches,
        bytes_discarded: scan.bytes_discarded,
        ..JournalReplay::default()
    };
    let mut pos = 0usize; // bytes consumed by records replayed so far
    let mut pending_chunks: Vec<(u64, u16, Vec<AccountDelta>)> = Vec::new();
    for rec in &scan.records {
        let framed = ptm_core::durability::RECORD_HEADER
            + rec.payload.len()
            + ptm_core::durability::RECORD_TRAILER;
        let ok = match rec.kind {
            LogRecordKind::SvcAccept => match decode_accept_payload(&rec.payload) {
                Some(tx) => {
                    out.tail.push(tx);
                    true
                }
                None => false,
            },
            LogRecordKind::SvcSeal => {
                let count = rec
                    .payload
                    .as_slice()
                    .try_into()
                    .map(u32::from_le_bytes)
                    .ok();
                match count {
                    Some(count) if (count as usize) <= out.tail.len() && count > 0 => {
                        let at = out.tail.len() - count as usize;
                        out.blocks.push(RecoveredBlock {
                            seq: rec.tx.0,
                            txs: out.tail.split_off(at),
                            deltas: None,
                        });
                        out.next_block_seq = out.next_block_seq.max(rec.tx.0 + 1);
                        true
                    }
                    _ => false,
                }
            }
            LogRecordKind::SvcCommit => match decode_commit_payload(&rec.payload) {
                Some((chunk, chunks, deltas)) if chunk < chunks => {
                    if chunk == 0 {
                        // A fresh run abandons any partial one: recovery
                        // re-commits a block whose first commit run was cut
                        // by the crash, and the stale chunks must not poison
                        // the re-commit.
                        pending_chunks.clear();
                    }
                    let seq = rec.tx.0;
                    let known = out.blocks.iter().any(|b| b.seq == seq);
                    let coherent = known
                        && pending_chunks.len() == chunk as usize
                        && pending_chunks
                            .iter()
                            .all(|&(s, c, _)| s == seq && c == chunks);
                    if coherent {
                        pending_chunks.push((seq, chunks, deltas));
                        if pending_chunks.len() == chunks as usize {
                            let mut all = Vec::new();
                            for (_, _, mut d) in pending_chunks.drain(..) {
                                all.append(&mut d);
                            }
                            let block = out
                                .blocks
                                .iter_mut()
                                .find(|b| b.seq == seq)
                                .expect("checked above");
                            block.deltas = Some(all);
                        }
                        true
                    } else {
                        false
                    }
                }
                _ => false,
            },
            // A machine-level record in the service journal is a framing
            // confusion upstream; stop trusting the stream here.
            _ => false,
        };
        if !ok {
            out.malformed_records += 1;
            break;
        }
        pos += framed;
        out.records += 1;
    }
    // An incomplete commit-chunk run is not a committed block; the chunks
    // already counted as replayed records stay in the prefix (they are
    // valid frames), the block simply re-executes.
    out.valid_len = pos;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_core::durability::MAX_LOG_RETRIES;
    use ptm_mem::logdev::LogFaultPlan;

    fn tx(id: u64) -> ClientTx {
        ClientTx {
            id,
            from: id * 3 + 1,
            to: id * 7 + 2,
            amount: 10 + id as u32,
            read_only: id.is_multiple_of(5) && id > 0,
        }
    }

    #[test]
    fn accept_payload_round_trips() {
        for id in 0..8 {
            let t = tx(id);
            assert_eq!(decode_accept_payload(&encode_accept_payload(&t)), Some(t));
        }
        assert_eq!(decode_accept_payload(&[0; 10]), None);
    }

    #[test]
    fn commit_payload_round_trips_and_chunks() {
        let deltas: Vec<(u64, u32)> = (0..10_000u64).map(|a| (a, a as u32)).collect();
        let mut j = Journal::new(JournalConfig::zero_cost_eager());
        for t in (0..3).map(tx) {
            j.accept(&t);
        }
        j.seal(0, 3);
        j.commit(0, &deltas);
        assert_eq!(j.stats().commit_records, 3, "10k deltas span 3 chunks");
        let rep = replay(&j.crash_image().bytes);
        assert_eq!(rep.blocks.len(), 1);
        assert_eq!(rep.blocks[0].deltas.as_deref(), Some(deltas.as_slice()));
        assert_eq!(rep.malformed_records, 0);
    }

    #[test]
    fn journal_round_trips_blocks_and_tail() {
        let mut j = Journal::new(JournalConfig::zero_cost_eager());
        for t in (0..5).map(tx) {
            j.accept(&t);
        }
        j.seal(0, 5);
        j.commit(0, &[(1, 5), (2, 7u32.wrapping_neg())]);
        for t in (5..7).map(tx) {
            j.accept(&t);
        }
        let rep = replay(&j.crash_image().bytes);
        assert_eq!(rep.blocks.len(), 1);
        assert_eq!(rep.blocks[0].seq, 0);
        assert_eq!(rep.blocks[0].txs, (0..5).map(tx).collect::<Vec<_>>());
        assert_eq!(
            rep.blocks[0].deltas,
            Some(vec![(1, 5), (2, 7u32.wrapping_neg())])
        );
        assert_eq!(rep.tail, (5..7).map(tx).collect::<Vec<_>>());
        assert_eq!(rep.next_block_seq, 1);
        assert_eq!(rep.records, j.records());
    }

    #[test]
    fn acks_become_durable_only_at_forces() {
        let cfg = JournalConfig::zero_cost_eager().with_policy(ForcePolicy::Group(2));
        let mut j = Journal::new(cfg);
        for t in (0..4).map(tx) {
            j.accept(&t);
        }
        j.seal(0, 4);
        j.commit(0, &[]);
        assert_eq!(
            j.stats().acked_txs,
            0,
            "group(2): first commit doesn't force"
        );
        for t in (4..6).map(tx) {
            j.accept(&t);
        }
        j.seal(1, 2);
        j.commit(1, &[]);
        assert_eq!(j.stats().acked_txs, 6, "second commit forces all");
        assert_eq!(j.stats().forces, 1);
    }

    #[test]
    fn empty_block_still_leaves_a_commit_record() {
        let mut j = Journal::new(JournalConfig::zero_cost_eager());
        j.accept(&tx(0));
        j.seal(0, 1);
        j.commit(0, &[]);
        let rep = replay(&j.crash_image().bytes);
        assert_eq!(rep.blocks[0].deltas, Some(vec![]));
    }

    #[test]
    fn replay_truncates_at_an_orphan_commit() {
        let mut j = Journal::new(JournalConfig::zero_cost_eager());
        j.accept(&tx(0));
        j.seal(0, 1);
        // A commit for a block never sealed: structurally valid frame,
        // journal-level nonsense. Replay must stop there.
        let rec = encode_record(
            LogRecordKind::SvcCommit,
            TxId(99),
            &encode_commit_payload(0, 1, &[(5, 5)]),
        );
        j.append_retrying(&rec);
        j.force();
        let rep = replay(&j.crash_image().bytes);
        assert_eq!(rep.blocks.len(), 1);
        assert_eq!(rep.blocks[0].deltas, None, "orphan commit not applied");
        assert_eq!(rep.malformed_records, 1);
        assert_eq!(rep.records, 2, "prefix ends before the orphan");
    }

    #[test]
    fn faulted_device_appends_stay_bounded() {
        for seed in [1u64, 2, 6, 7, 9, 13] {
            let cfg = JournalConfig::zero_cost_eager().with_faults(LogFaultPlan::from_seed(seed));
            let mut j = Journal::new(cfg);
            for t in (0..32).map(tx) {
                j.accept(&t);
            }
            j.seal(0, 32);
            j.commit(0, &[(1, 1)]);
            assert!(
                j.stats().max_append_attempts <= MAX_LOG_RETRIES,
                "seed {seed}"
            );
            assert_eq!(j.stats().accept_records, 32);
            // Everything before the eager force is scan-valid.
            let rep = replay(&j.crash_image().bytes);
            assert_eq!(rep.blocks.len(), 1, "seed {seed}");
            assert_eq!(rep.blocks[0].txs.len(), 32, "seed {seed}");
            assert!(rep.blocks[0].deltas.is_some(), "seed {seed}");
        }
    }

    #[test]
    fn reopened_journal_resumes_past_the_recovered_prefix() {
        let cfg = JournalConfig::zero_cost_eager();
        let mut j = Journal::new(cfg);
        for t in (0..3).map(tx) {
            j.accept(&t);
        }
        j.seal(0, 3);
        j.commit(0, &[(1, 2)]);
        let img = j.crash_image();
        let rep = replay(&img.bytes);
        let mut j2 = Journal::reopen(cfg, img.bytes[..rep.valid_len].to_vec(), rep.records);
        assert_eq!(j2.forced_records(), rep.records, "prefix counts as forced");
        j2.accept(&tx(3));
        j2.seal(1, 1);
        j2.commit(1, &[(9, 9)]);
        let rep2 = replay(&j2.crash_image().bytes);
        assert_eq!(rep2.blocks.len(), 2);
        assert_eq!(rep2.blocks[1].deltas, Some(vec![(9, 9)]));
        assert_eq!(rep2.next_block_seq, 2);
    }
}
