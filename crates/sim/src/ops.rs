//! The operation stream executed by simulated cores.
//!
//! Workloads compile to per-thread sequences of [`Op`]s. Addresses are
//! virtual; transaction boundaries are explicit `Begin`/`End` markers (the
//! paper's added ISA instructions, §6.1). Data-dependent updates are
//! expressed as read-modify-write deltas ([`Op::Rmw`]) so that a transaction
//! replayed after an abort still computes meaningful values and functional
//! invariants (conserved sums, histogram totals) remain checkable.

use ptm_types::VirtAddr;
use std::fmt;
use std::num::NonZeroU32;

/// Commit-ordering constraint for ordered transactions (§2.2): transactions
/// in the same group must commit in ascending `seq` order.
///
/// The pair is packed into four non-zero bytes, so an [`Op::Begin`] with
/// or without one keeps [`Op`] at 16 bytes: the group fills the top 8 bits
/// and `seq + 1` the low 24. [`OrderedSeq::new`] refuses pairs outside
/// that range.
///
/// # Examples
///
/// ```
/// use ptm_sim::OrderedSeq;
///
/// let o = OrderedSeq::new(3, 41).unwrap();
/// assert_eq!((o.group(), o.seq()), (3, 41));
/// assert!(OrderedSeq::new(OrderedSeq::MAX_GROUP + 1, 0).is_none());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct OrderedSeq(NonZeroU32);

/// Bits of the packed tag that hold `seq + 1`.
const SEQ_BITS: u32 = 24;
const SEQ_MASK: u32 = (1 << SEQ_BITS) - 1;

impl OrderedSeq {
    /// The largest group number a tag can carry.
    pub const MAX_GROUP: u32 = u32::MAX >> SEQ_BITS;
    /// The largest sequence number a tag can carry.
    pub const MAX_SEQ: u64 = SEQ_MASK as u64 - 1;

    /// The tag for position `seq` of ordered group `group`, or `None` when
    /// either lies past [`MAX_GROUP`](Self::MAX_GROUP) or
    /// [`MAX_SEQ`](Self::MAX_SEQ).
    pub fn new(group: u32, seq: u64) -> Option<Self> {
        if group > Self::MAX_GROUP || seq > Self::MAX_SEQ {
            return None;
        }
        NonZeroU32::new(group << SEQ_BITS | (seq as u32 + 1)).map(OrderedSeq)
    }

    /// The ordered loop this transaction belongs to.
    pub fn group(self) -> u32 {
        self.0.get() >> SEQ_BITS
    }

    /// Position in the programmer-defined commit order.
    pub fn seq(self) -> u64 {
        u64::from((self.0.get() & SEQ_MASK) - 1)
    }
}

impl fmt::Debug for OrderedSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedSeq")
            .field("group", &self.group())
            .field("seq", &self.seq())
            .finish()
    }
}

/// One operation of a thread's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Transaction begin. `ordered` constrains the commit order; `lock`
    /// names the fine-grained lock the *lock-based* execution mode acquires
    /// for this region instead of running it transactionally.
    Begin {
        /// Ordered-commit constraint, if this is an ordered transaction.
        ordered: Option<OrderedSeq>,
        /// Lock protecting this region under lock-based execution.
        lock: VirtAddr,
    },
    /// Transaction end (commit of the outermost level).
    End,
    /// Load a 4-byte word.
    Read(VirtAddr),
    /// Store a constant to a 4-byte word.
    Write(VirtAddr, u32),
    /// Read-modify-write: load the word, add the (wrapping) delta, store.
    Rmw(VirtAddr, i32),
    /// Busy computation for the given number of cycles.
    Compute(u32),
    /// Barrier synchronization: every thread must arrive at barrier `id`
    /// before any proceeds. SPLASH-2 kernels are barrier-synchronized
    /// between phases; the paper removed the *locks*, not the barriers.
    /// Each static barrier instance must use a fresh id. Not allowed inside
    /// a transaction.
    Barrier(u32),
}

// Workloads hold whole op streams for a run; every variant fits 16 bytes.
const _: () = assert!(std::mem::size_of::<Op>() == 16);

impl Op {
    /// The virtual address this operation touches, if it is a memory op.
    pub fn addr(&self) -> Option<VirtAddr> {
        match self {
            Op::Read(a) | Op::Write(a, _) | Op::Rmw(a, _) => Some(*a),
            _ => None,
        }
    }

    /// Whether this operation writes memory.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write(..) | Op::Rmw(..))
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Begin {
                ordered: Some(o), ..
            } => write!(f, "begin[{}#{}]", o.group(), o.seq()),
            Op::Begin { ordered: None, .. } => write!(f, "begin"),
            Op::End => write!(f, "end"),
            Op::Read(a) => write!(f, "ld {a}"),
            Op::Write(a, v) => write!(f, "st {a} <- {v}"),
            Op::Rmw(a, d) => write!(f, "rmw {a} += {d}"),
            Op::Compute(c) => write!(f, "compute {c}"),
            Op::Barrier(id) => write!(f, "barrier {id}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_extraction() {
        assert_eq!(Op::Read(VirtAddr::new(8)).addr(), Some(VirtAddr::new(8)));
        assert_eq!(Op::Compute(5).addr(), None);
        assert_eq!(Op::End.addr(), None);
    }

    #[test]
    fn write_classification() {
        assert!(Op::Write(VirtAddr::new(0), 1).is_write());
        assert!(Op::Rmw(VirtAddr::new(0), -1).is_write());
        assert!(!Op::Read(VirtAddr::new(0)).is_write());
    }

    #[test]
    fn display_formats() {
        let b = Op::Begin {
            ordered: OrderedSeq::new(1, 2),
            lock: VirtAddr::new(0),
        };
        assert_eq!(format!("{b}"), "begin[1#2]");
        assert_eq!(format!("{}", Op::End), "end");
    }

    #[test]
    fn ordered_tag_round_trips_its_whole_range_and_refuses_past_it() {
        let max = (OrderedSeq::MAX_GROUP, OrderedSeq::MAX_SEQ);
        assert_eq!(max, (255, (1 << 24) - 2));
        for (group, seq) in [(0, 0), (0, max.1), (max.0, 0), max, (7, 12345)] {
            let o = OrderedSeq::new(group, seq).expect("in range");
            assert_eq!((o.group(), o.seq()), (group, seq));
        }
        assert_eq!(OrderedSeq::new(max.0 + 1, 0), None);
        assert_eq!(OrderedSeq::new(0, max.1 + 1), None);
        assert_eq!(OrderedSeq::new(u32::MAX, u64::MAX), None);
        assert_eq!(std::mem::size_of::<Option<OrderedSeq>>(), 4);
    }
}
