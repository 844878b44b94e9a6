//! Ordered-transaction commit gating (§2.2).
//!
//! Ordered transactions within a group must commit in ascending sequence
//! order: a transaction reaching its `End` before its turn stalls until
//! every lower sequence number in the group has committed.

use crate::ops::OrderedSeq;

/// Tracks, per ordered group, the next sequence number allowed to commit.
///
/// # Examples
///
/// ```
/// use ptm_sim::ops::OrderedSeq;
/// use ptm_sim::ordered::OrderedGate;
///
/// let mut gate = OrderedGate::new();
/// let first = OrderedSeq::new(0, 0).unwrap();
/// let second = OrderedSeq::new(0, 1).unwrap();
/// assert!(!gate.may_commit(second));
/// assert!(gate.may_commit(first));
/// gate.committed(first);
/// assert!(gate.may_commit(second));
/// ```
#[derive(Debug, Default)]
pub struct OrderedGate {
    next: ptm_types::FastMap<u32, u64>,
}

impl OrderedGate {
    /// Creates an empty gate (every group starts at sequence 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the transaction with this constraint may commit now.
    pub fn may_commit(&self, seq: OrderedSeq) -> bool {
        self.next_in(seq.group()) == seq.seq()
    }

    /// Records a commit, unblocking the group's next sequence number.
    ///
    /// # Panics
    ///
    /// Panics on out-of-order commit — the gate exists to prevent exactly
    /// that, so a violation is a simulator bug.
    pub fn committed(&mut self, seq: OrderedSeq) {
        let next = self.next.entry(seq.group()).or_insert(0);
        assert_eq!(
            *next,
            seq.seq(),
            "out-of-order commit in group {}",
            seq.group()
        );
        *next += 1;
    }

    /// The next sequence number expected to commit in `group`.
    pub fn next_in(&self, group: u32) -> u64 {
        self.next.get(&group).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(group: u32, seq: u64) -> OrderedSeq {
        OrderedSeq::new(group, seq).unwrap()
    }

    #[test]
    fn groups_are_independent() {
        let mut g = OrderedGate::new();
        g.committed(tag(0, 0));
        assert!(g.may_commit(tag(1, 0)));
        assert!(!g.may_commit(tag(1, 1)));
        assert_eq!(g.next_in(0), 1);
    }

    #[test]
    fn sequence_advances_in_order() {
        let mut g = OrderedGate::new();
        for s in 0..5 {
            let seq = tag(7, s);
            assert!(g.may_commit(seq));
            g.committed(seq);
        }
        assert_eq!(g.next_in(7), 5);
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_commit_panics() {
        let mut g = OrderedGate::new();
        g.committed(tag(0, 3));
    }
}
