//! Per-thread programs: an operation stream with transaction-aware rewind.

use crate::ops::Op;
use ptm_types::{ProcessId, ThreadId, TxId};
use std::sync::Arc;

/// A thread's operation stream plus its execution cursor.
///
/// Nothing ever changes the operations, so the stream is shared: cloning a
/// program copies its cursor and bumps a reference count, and every machine
/// a workload builds runs the same allocation.
///
/// On abort the program *rewinds* to the outermost `Begin` — the simulator's
/// equivalent of restoring the register checkpoint — and re-executes with
/// the **same** transaction identifier, as the paper requires (§4.4.3).
///
/// # Examples
///
/// ```
/// use ptm_sim::{Op, ThreadProgram};
/// use ptm_types::{ProcessId, ThreadId, VirtAddr};
///
/// let prog = ThreadProgram::new(
///     ProcessId(0),
///     ThreadId(0),
///     vec![Op::Read(VirtAddr::new(0x1000))],
/// );
/// assert!(!prog.is_finished());
/// assert_eq!(prog.current(), Some(Op::Read(VirtAddr::new(0x1000))));
/// ```
#[derive(Debug, Clone)]
pub struct ThreadProgram {
    pid: ProcessId,
    thread: ThreadId,
    ops: Arc<[Op]>,
    pc: usize,
    /// Index of the outermost `Begin` of the transaction in flight.
    tx_begin_pc: Option<usize>,
    /// The transaction id in flight (kept across aborts).
    cur_tx: Option<TxId>,
    /// Flattened nesting depth, mirrored from the T-State for quick access.
    nest: u32,
    /// Aborted attempts of the current transaction.
    attempts: u32,
}

impl ThreadProgram {
    /// Creates a program at its first operation. A `Vec` is copied into a
    /// shared stream once; an `Arc<[Op]>` is shared as it is.
    pub fn new(pid: ProcessId, thread: ThreadId, ops: impl Into<Arc<[Op]>>) -> Self {
        ThreadProgram {
            pid,
            thread,
            ops: ops.into(),
            pc: 0,
            tx_begin_pc: None,
            cur_tx: None,
            nest: 0,
            attempts: 0,
        }
    }

    /// The owning process.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The thread identifier.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// The operation at the cursor, or `None` at end of program.
    pub fn current(&self) -> Option<Op> {
        self.ops.get(self.pc).copied()
    }

    /// Whether the program has run to completion.
    pub fn is_finished(&self) -> bool {
        self.pc >= self.ops.len()
    }

    /// Total number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` for an empty program.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Advances past the current operation.
    pub fn advance(&mut self) {
        self.pc += 1;
    }

    /// The transaction currently in flight, if any.
    pub fn cur_tx(&self) -> Option<TxId> {
        self.cur_tx
    }

    /// The execution cursor (operation index).
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Program index of the in-flight transaction's outermost `Begin`.
    pub fn tx_begin_pc(&self) -> Option<usize> {
        self.tx_begin_pc
    }

    /// The operation at an arbitrary index (the reference executor replays
    /// committed ranges through this).
    pub fn op_at(&self, pc: usize) -> Option<Op> {
        self.ops.get(pc).copied()
    }

    /// The whole operation stream.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Current flattened nesting depth.
    pub fn nest(&self) -> u32 {
        self.nest
    }

    /// Aborted attempts of the in-flight transaction.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Records an outermost transaction begin at the current cursor. Returns
    /// `true` if this is a *retry* of an aborted transaction (the identifier
    /// must be reused).
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already in flight (nested begins go
    /// through [`ThreadProgram::enter_nested`]).
    pub fn begin_outer(&mut self, tx: TxId) -> bool {
        assert_eq!(self.nest, 0, "outer begin while nested");
        let retry = self.cur_tx == Some(tx) && self.tx_begin_pc == Some(self.pc);
        if !retry {
            self.attempts = 0;
        }
        self.tx_begin_pc = Some(self.pc);
        self.cur_tx = Some(tx);
        self.nest = 1;
        retry
    }

    /// Enters a nested (flattened) transaction level.
    ///
    /// # Panics
    ///
    /// Panics outside a transaction.
    pub fn enter_nested(&mut self) {
        assert!(self.nest > 0, "nested begin outside a transaction");
        self.nest += 1;
    }

    /// Leaves one nesting level; returns `true` when the outermost level
    /// ended (commit point).
    ///
    /// # Panics
    ///
    /// Panics on unbalanced `End`.
    pub fn leave(&mut self) -> bool {
        assert!(self.nest > 0, "unbalanced transaction end");
        self.nest -= 1;
        self.nest == 0
    }

    /// Completes the in-flight transaction (after a commit).
    pub fn finish_tx(&mut self) {
        self.tx_begin_pc = None;
        self.cur_tx = None;
        self.nest = 0;
        self.attempts = 0;
    }

    /// Rewinds to the outermost `Begin` after an abort; the transaction id
    /// is retained for the retry.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is in flight.
    pub fn rewind(&mut self) {
        let begin = self.tx_begin_pc.expect("rewind outside a transaction");
        self.pc = begin;
        self.nest = 0;
        self.attempts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_types::VirtAddr;

    fn begin() -> Op {
        Op::Begin {
            ordered: None,
            lock: VirtAddr::new(0),
        }
    }

    fn prog(ops: Vec<Op>) -> ThreadProgram {
        ThreadProgram::new(ProcessId(0), ThreadId(0), ops)
    }

    #[test]
    fn sequential_execution() {
        let mut p = prog(vec![Op::Compute(1), Op::Compute(2)]);
        assert_eq!(p.current(), Some(Op::Compute(1)));
        p.advance();
        assert_eq!(p.current(), Some(Op::Compute(2)));
        p.advance();
        assert!(p.is_finished());
        assert_eq!(p.current(), None);
    }

    #[test]
    fn begin_end_lifecycle() {
        let mut p = prog(vec![begin(), Op::Compute(1), Op::End]);
        let retry = p.begin_outer(TxId(5));
        assert!(!retry);
        assert_eq!(p.cur_tx(), Some(TxId(5)));
        p.advance(); // past begin
        p.advance(); // past compute
        assert!(p.leave(), "outermost end");
        p.finish_tx();
        assert_eq!(p.cur_tx(), None);
    }

    #[test]
    fn nested_flattening() {
        let mut p = prog(vec![begin(), begin(), Op::End, Op::End]);
        p.begin_outer(TxId(1));
        p.advance();
        p.enter_nested();
        p.advance();
        assert!(!p.leave(), "inner end does not commit");
        p.advance();
        assert!(p.leave(), "outer end commits");
    }

    #[test]
    fn rewind_restores_begin_and_keeps_id() {
        let mut p = prog(vec![begin(), Op::Compute(1), Op::End]);
        p.begin_outer(TxId(9));
        p.advance();
        p.advance();
        p.rewind();
        assert_eq!(p.current(), Some(begin()));
        assert_eq!(p.attempts(), 1);
        // Re-executing the begin is flagged as a retry.
        assert!(p.begin_outer(TxId(9)));
        assert_eq!(p.attempts(), 1, "retry does not reset the attempt count");
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_end_panics() {
        let mut p = prog(vec![Op::End]);
        p.leave();
    }

    #[test]
    #[should_panic(expected = "rewind outside")]
    fn rewind_without_tx_panics() {
        let mut p = prog(vec![Op::Compute(1)]);
        p.rewind();
    }
}
