//! The canonical-order scheduler: an index-min heap over core `ready_at`
//! times, and the one step driver every run goes through.
//!
//! The machine processes cores in global time order — smallest `ready_at`
//! first, ties broken by lowest core index (the order a stable
//! `min_by_key` scan produces). The heap replaces that O(cores) scan per
//! step with an O(log cores) update.
//!
//! Entries are keyed lexicographically by `(ready_at, core)`; every key is
//! unique (one entry per core), so ordering is total and deterministic.

use crate::backend::Backend;
use crate::faults::{FaultInjector, FaultPlan};
use crate::machine::{trace_progress, Machine};
use ptm_types::Cycle;

/// With `PTM_TRACE_PROGRESS` set, the driver dumps every core's position to
/// stderr each time this many steps have run.
const TRACE_EVERY: u64 = 20_000_000;

impl Machine {
    /// The loop behind [`Machine::run`], [`Machine::run_with_faults`] and
    /// [`Machine::run_until_crash`]: steps cores in canonical order until
    /// every program finishes or `stop_at` steps have run, firing `plan`'s
    /// events before the step whose index they carry (and those due after
    /// the last step). Releases what the plan still holds, finalizes stats
    /// and returns the steps taken. Panics if progress stops.
    pub(crate) fn drive(&mut self, plan: &FaultPlan, stop_at: u64) -> u64 {
        let mut faults = FaultInjector::new(plan);
        let limit = self.progress_limit();
        let trace_progress = trace_progress();
        let mut heap = ReadyHeap::new(self.cores.len());
        self.sync_all(&mut heap);
        let mut guard: u64 = 0;
        while guard < stop_at {
            if faults.apply_due(self, guard) {
                // Events mutate ready times, finish/abort threads, and
                // migrate programs across cores: re-key every core rather
                // than tracking the blast radius of each action.
                self.sync_all(&mut heap);
            }
            let Some((_, idx)) = heap.peek() else { break };
            // The one per-step compare: the progress guard, the next fault
            // event, the crash stop and the trace mark all fold into it.
            let mut next_break = limit.min(faults.next_due()).min(stop_at);
            if trace_progress {
                next_break = next_break.min((guard / TRACE_EVERY + 1) * TRACE_EVERY);
            }
            // Run-ahead dispatch: keep stepping this core while its key stays
            // strictly below the heap's runner-up, no cross-core effect needs
            // re-keying, and the program has more work. Every iteration steps
            // exactly the core a peek would have yielded — heap traffic is
            // skipped, not reordered — so the schedule is canonical-order
            // identical to the one-step-per-peek loop.
            loop {
                self.step(idx);
                guard += 1;
                if guard >= next_break
                    || !self.ready_dirty.is_empty()
                    || self.cores[idx].prog.is_finished()
                {
                    break;
                }
                match heap.runner_up() {
                    // (ready_at, core) keys are unique, so strict less-than
                    // is exactly "still the global minimum".
                    Some(bound) if (self.cores[idx].ready_at, idx) > bound => break,
                    _ => {}
                }
            }
            self.sync_heap(&mut heap, idx);
            if trace_progress && guard.is_multiple_of(TRACE_EVERY) {
                let pcs: Vec<_> = self
                    .cores
                    .iter()
                    .map(|c| (c.prog.thread().0, c.prog.pc(), c.ready_at))
                    .collect();
                eprintln!("[progress] steps={guard} {pcs:?}");
            }
            if guard >= limit {
                self.progress_panic();
            }
        }
        faults.teardown(self);
        self.finalize_stats();
        guard
    }

    /// The step budget after which a run is declared stuck.
    fn progress_limit(&self) -> u64 {
        200_000_000u64
            .saturating_add(self.cores.iter().map(|c| c.prog.len() as u64).sum::<u64>() * 10_000)
    }

    /// Panics with the full per-core + live-transaction state dump.
    fn progress_panic(&self) -> ! {
        let state: Vec<String> = self
            .cores
            .iter()
            .map(|c| {
                format!(
                    "pc={}/{} ready={} tx={:?} op={:?}",
                    c.prog.pc(),
                    c.prog.len(),
                    c.ready_at,
                    c.prog.cur_tx(),
                    c.prog.current()
                )
            })
            .collect();
        let live = match &self.backend {
            Backend::Ptm(p) => p.tstate().live_transactions(),
            _ => Vec::new(),
        };
        let owners: Vec<_> = live
            .iter()
            .map(|t| (*t, self.tx_owner.get(t).copied()))
            .collect();
        panic!("machine stopped making progress: {state:#?} live={owners:?}");
    }

    /// Re-keys every core: queued if unfinished, absent otherwise.
    fn sync_all(&mut self, heap: &mut ReadyHeap) {
        self.ready_dirty.clear();
        for i in 0..self.cores.len() {
            self.sync_heap_core(heap, i);
        }
    }

    /// Re-keys `idx` plus any cores a cross-core effect (abort penalty,
    /// migration swap) touched during the last step.
    fn sync_heap(&mut self, heap: &mut ReadyHeap, idx: usize) {
        self.sync_heap_core(heap, idx);
        while let Some(d) = self.ready_dirty.pop() {
            self.sync_heap_core(heap, d);
        }
    }

    fn sync_heap_core(&self, heap: &mut ReadyHeap, core: usize) {
        if self.cores[core].prog.is_finished() {
            heap.remove(core);
        } else {
            heap.upsert(core, self.cores[core].ready_at);
        }
    }
}

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
