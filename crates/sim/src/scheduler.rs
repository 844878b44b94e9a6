//! The canonical-order scheduler: an index-min heap over core `ready_at`
//! times.
//!
//! [`Machine::run`](crate::machine::Machine::run) processes cores in global
//! time order — smallest `ready_at` first, ties broken by lowest core index
//! (the order a stable `min_by_key` scan produces). The heap replaces that
//! O(cores) scan per step with an O(log cores) update.
//!
//! Entries are keyed lexicographically by `(ready_at, core)`; every key is
//! unique (one entry per core), so ordering is total and deterministic.

use ptm_types::Cycle;

/// An index-min binary heap of `(ready_at, core)` pairs with a position map
/// for O(log n) re-keying of an arbitrary core.
///
/// # Examples
///
/// ```
/// use ptm_sim::scheduler::ReadyHeap;
///
/// let mut h = ReadyHeap::new(3);
/// h.upsert(0, 10);
/// h.upsert(1, 5);
/// h.upsert(2, 10);
/// assert_eq!(h.peek(), Some((5, 1)));
/// h.upsert(1, 40); // re-key
/// assert_eq!(h.peek(), Some((10, 0)), "ties break toward the lowest core");
/// h.remove(0);
/// assert_eq!(h.peek(), Some((10, 2)));
/// ```
#[derive(Debug, Clone)]
pub struct ReadyHeap {
    /// Heap array of `(ready_at, core)`, min at index 0.
    heap: Vec<(Cycle, usize)>,
    /// `pos[core]` = heap index + 1; 0 means the core is not in the heap.
    pos: Vec<usize>,
}

impl ReadyHeap {
    /// An empty heap sized for `cores` cores.
    pub fn new(cores: usize) -> Self {
        ReadyHeap {
            heap: Vec::with_capacity(cores),
            pos: vec![0; cores],
        }
    }

    /// Number of cores currently queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no cores are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `core` is queued.
    pub fn contains(&self, core: usize) -> bool {
        self.pos[core] != 0
    }

    /// The earliest `(ready_at, core)`, without removing it.
    pub fn peek(&self) -> Option<(Cycle, usize)> {
        self.heap.first().copied()
    }

    /// The second-earliest key: the smaller of the root's two children (the
    /// heap property puts the runner-up there). The run-ahead dispatcher
    /// keeps stepping the current core while its key stays strictly below
    /// this bound, skipping all heap traffic for same-core bursts.
    #[inline]
    pub fn runner_up(&self) -> Option<(Cycle, usize)> {
        match (self.heap.get(1), self.heap.get(2)) {
            (Some(&l), Some(&r)) => Some(l.min(r)),
            (Some(&l), None) => Some(l),
            _ => None,
        }
    }

    /// Inserts `core` with key `ready_at`, or re-keys it if already queued.
    pub fn upsert(&mut self, core: usize, ready_at: Cycle) {
        match self.pos[core] {
            0 => {
                self.heap.push((ready_at, core));
                let i = self.heap.len() - 1;
                self.pos[core] = i + 1;
                self.sift_up(i);
            }
            p => {
                let i = p - 1;
                let old = self.heap[i].0;
                self.heap[i].0 = ready_at;
                if (ready_at, core) < (old, core) {
                    self.sift_up(i);
                } else {
                    self.sift_down(i);
                }
            }
        }
    }

    /// Removes `core` from the heap (no-op if absent).
    pub fn remove(&mut self, core: usize) {
        let p = self.pos[core];
        if p == 0 {
            return;
        }
        let i = p - 1;
        let last = self.heap.len() - 1;
        self.heap.swap(i, last);
        self.pos[self.heap[i].1] = i + 1;
        self.pos[core] = 0;
        self.heap.pop();
        if i < self.heap.len() {
            // The swapped-in entry may violate either direction.
            self.sift_up(i);
            self.sift_down(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.key(i) < self.key(parent) {
                self.swap_entries(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut smallest = i;
            if l < self.heap.len() && self.key(l) < self.key(smallest) {
                smallest = l;
            }
            if r < self.heap.len() && self.key(r) < self.key(smallest) {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.swap_entries(i, smallest);
            i = smallest;
        }
    }

    #[inline]
    fn key(&self, i: usize) -> (Cycle, usize) {
        self.heap[i]
    }

    #[inline]
    fn swap_entries(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].1] = a + 1;
        self.pos[self.heap[b].1] = b + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the `min_by_key` scan the heap replaces.
    fn scan_min(ready: &[Option<Cycle>]) -> Option<(Cycle, usize)> {
        ready
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|r| (r, i)))
            .min()
    }

    #[test]
    fn matches_min_by_key_scan_under_random_updates() {
        // Deterministic xorshift stream: no external RNG needed.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 9;
        let mut heap = ReadyHeap::new(n);
        let mut ready: Vec<Option<Cycle>> = vec![None; n];
        for _ in 0..5_000 {
            let core = (rnd() % n as u64) as usize;
            match rnd() % 4 {
                0 => {
                    heap.remove(core);
                    ready[core] = None;
                }
                _ => {
                    let t = rnd() % 1_000;
                    heap.upsert(core, t);
                    ready[core] = Some(t);
                }
            }
            assert_eq!(heap.peek(), scan_min(&ready));
            assert_eq!(heap.len(), ready.iter().flatten().count());
            // The runner-up must be the scan's second-smallest key.
            let second = {
                let mut keys: Vec<(Cycle, usize)> = ready
                    .iter()
                    .enumerate()
                    .filter_map(|(i, r)| r.map(|r| (r, i)))
                    .collect();
                keys.sort();
                keys.get(1).copied()
            };
            assert_eq!(heap.runner_up(), second);
        }
    }

    #[test]
    fn ties_break_toward_lowest_core_index() {
        let mut h = ReadyHeap::new(4);
        for core in (0..4).rev() {
            h.upsert(core, 7);
        }
        assert_eq!(h.peek(), Some((7, 0)));
        h.remove(0);
        assert_eq!(h.peek(), Some((7, 1)));
        h.upsert(0, 7);
        assert_eq!(h.peek(), Some((7, 0)), "re-inserted core 0 wins the tie");
    }

    #[test]
    fn upsert_rekeys_in_both_directions() {
        let mut h = ReadyHeap::new(3);
        h.upsert(0, 10);
        h.upsert(1, 20);
        h.upsert(2, 30);
        h.upsert(2, 1); // decrease
        assert_eq!(h.peek(), Some((1, 2)));
        h.upsert(2, 100); // increase
        assert_eq!(h.peek(), Some((10, 0)));
        h.remove(0);
        h.remove(1);
        assert_eq!(h.peek(), Some((100, 2)));
        h.remove(2);
        assert!(h.is_empty());
        h.remove(2); // removing an absent core is a no-op
        assert!(h.is_empty());
    }
}
