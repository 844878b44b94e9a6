//! On-chip bus and main-memory timing model.
//!
//! The paper's platform (§6.1): "a high speed on-chip bus connecting the
//! four CPUs and the on-chip memory controller with a minimum round-trip
//! latency of 20 cycles" and "access to main memory has a minimum latency of
//! 200 cycles, but up to three requests can be pipelined simultaneously."
//!
//! The model is occupancy-based: the bus serializes transactions (each holds
//! the bus for a short arbitration/address window), and memory is a bank of
//! three pipelined slots. Background traffic — VTM's commit copy-back, PTM's
//! Copy-PTM eviction copies — consumes the same resources, which is exactly
//! the contention effect Figure 4 turns on.

use ptm_types::Cycle;
use std::fmt;

/// Latency parameters for the bus/memory model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusTimings {
    /// Minimum round-trip latency of an on-chip bus transaction.
    pub onchip_round_trip: Cycle,
    /// Cycles a transaction occupies the shared bus (arbitration + address +
    /// data beats), creating contention between cores.
    pub bus_occupancy: Cycle,
    /// Minimum main-memory access latency.
    pub mem_latency: Cycle,
    /// Number of memory requests that can be in flight simultaneously.
    pub mem_pipeline: usize,
}

impl Default for BusTimings {
    fn default() -> Self {
        BusTimings {
            onchip_round_trip: 20,
            bus_occupancy: 4,
            mem_latency: 200,
            mem_pipeline: 3,
        }
    }
}

/// Occupancy counters for the shared bus and the memory pipeline.
///
/// All methods take `now` (the requester's current cycle) and return the
/// *completion* cycle of the operation; they advance internal busy-until
/// state so later requests see the contention.
///
/// # Examples
///
/// ```
/// use ptm_cache::SystemBus;
///
/// let mut bus = SystemBus::new(Default::default());
/// let t1 = bus.onchip_transfer(0);
/// assert_eq!(t1, 20);
/// // A second transaction at the same instant waits for the bus.
/// let t2 = bus.onchip_transfer(0);
/// assert!(t2 > t1 - 20 + 4);
/// ```
#[derive(Debug, Clone)]
pub struct SystemBus {
    timings: BusTimings,
    bus_free_at: Cycle,
    mem_slots: Vec<Cycle>,
    stats: BusStats,
}

/// Traffic counters for the bus/memory model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// On-chip (cache-to-cache or cache-to-controller) transactions.
    pub onchip_transactions: u64,
    /// Main-memory accesses (demand or background).
    pub mem_accesses: u64,
    /// Cycles requesters spent waiting for the bus to free up.
    pub bus_wait_cycles: u64,
    /// Cycles requesters spent waiting for a memory pipeline slot.
    pub mem_wait_cycles: u64,
}

impl SystemBus {
    /// Creates an idle bus with the given timings.
    pub fn new(timings: BusTimings) -> Self {
        SystemBus {
            bus_free_at: 0,
            mem_slots: vec![0; timings.mem_pipeline.max(1)],
            timings,
            stats: BusStats::default(),
        }
    }

    /// The configured timings.
    pub fn timings(&self) -> &BusTimings {
        &self.timings
    }

    /// Performs an on-chip bus transaction (snoop round, cache-to-cache
    /// transfer) starting no earlier than `now`; returns its completion
    /// cycle.
    pub fn onchip_transfer(&mut self, now: Cycle) -> Cycle {
        let start = self.acquire_bus(now);
        self.stats.onchip_transactions += 1;
        start + self.timings.onchip_round_trip
    }

    /// Performs a main-memory access (fill or writeback) starting no earlier
    /// than `now`. The request first takes the bus to reach the controller,
    /// then occupies one of the pipelined memory slots.
    pub fn mem_access(&mut self, now: Cycle) -> Cycle {
        let issued = self.acquire_bus(now);
        self.slot_access(issued)
    }

    /// A memory access issued *from* the memory controller itself (VTS TAV
    /// walks, XADT walks, commit copy traffic): no front-side bus trip, but
    /// it still competes for the memory pipeline.
    pub fn controller_mem_access(&mut self, now: Cycle) -> Cycle {
        self.slot_access(now)
    }

    /// Drains a burst of `n` chained controller-side accesses in one call:
    /// each access issues at the completion of the previous one, exactly as
    /// if [`Self::controller_mem_access`] were called `n` times in a loop.
    /// Walk costs (VTS TAV walks, summary rebuilds) arrive as a count, so
    /// batching the charge keeps the per-event call out of the hot loop
    /// while leaving slot state and statistics bit-identical.
    pub fn controller_mem_accesses(&mut self, now: Cycle, n: u32) -> Cycle {
        let mut done = now;
        for _ in 0..n {
            done = self.slot_access(done);
        }
        done
    }

    fn slot_access(&mut self, issued: Cycle) -> Cycle {
        let slot = self
            .mem_slots
            .iter_mut()
            .min()
            .expect("at least one memory slot");
        let start = issued.max(*slot);
        self.stats.mem_wait_cycles += start - issued;
        let done = start + self.timings.mem_latency;
        // The slot frees when the access completes; throughput is limited to
        // `mem_pipeline` concurrent accesses.
        *slot = done;
        self.stats.mem_accesses += 1;
        done
    }

    fn acquire_bus(&mut self, now: Cycle) -> Cycle {
        let start = now.max(self.bus_free_at);
        self.stats.bus_wait_cycles += start - now;
        self.bus_free_at = start + self.timings.bus_occupancy;
        start
    }

    /// Traffic statistics.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }
}

impl fmt::Display for BusStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "onchip={} mem={} bus-wait={} mem-wait={}",
            self.onchip_transactions, self.mem_accesses, self.bus_wait_cycles, self.mem_wait_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn onchip_latency_is_minimum_round_trip() {
        let mut bus = SystemBus::new(BusTimings::default());
        assert_eq!(bus.onchip_transfer(100), 120);
    }

    #[test]
    fn bus_serializes_concurrent_transactions() {
        let mut bus = SystemBus::new(BusTimings::default());
        let a = bus.onchip_transfer(0);
        let b = bus.onchip_transfer(0);
        assert_eq!(a, 20);
        assert_eq!(b, 24, "second waits one occupancy window");
        assert_eq!(bus.stats().bus_wait_cycles, 4);
    }

    #[test]
    fn memory_latency_includes_bus_trip() {
        let mut bus = SystemBus::new(BusTimings::default());
        let done = bus.mem_access(0);
        assert_eq!(done, 200, "bus acquired at 0, memory 200 cycles");
        assert_eq!(bus.stats().mem_accesses, 1);
    }

    #[test]
    fn memory_pipelines_three_requests() {
        let mut bus = SystemBus::new(BusTimings::default());
        // Controller-side accesses skip the bus so we see raw slot behavior.
        let d1 = bus.controller_mem_access(0);
        let d2 = bus.controller_mem_access(0);
        let d3 = bus.controller_mem_access(0);
        let d4 = bus.controller_mem_access(0);
        assert_eq!(d1, 200);
        assert_eq!(d2, 200);
        assert_eq!(d3, 200);
        assert_eq!(d4, 400, "fourth request waits for a slot");
        assert_eq!(bus.stats().mem_wait_cycles, 200);
    }

    #[test]
    fn batched_controller_accesses_match_loop() {
        let mut a = SystemBus::new(BusTimings::default());
        let mut b = SystemBus::new(BusTimings::default());
        // Interleave bursts with demand traffic; both orders must agree.
        for (now, n) in [(0u64, 4u32), (150, 1), (900, 3), (901, 0)] {
            let mut done_loop = now;
            for _ in 0..n {
                done_loop = a.controller_mem_access(done_loop);
            }
            let done_batch = b.controller_mem_accesses(now, n);
            assert_eq!(done_loop, done_batch);
            assert_eq!(a.mem_access(done_loop), b.mem_access(done_batch));
            assert_eq!(a.stats(), b.stats());
        }
    }

    #[test]
    fn idle_bus_resets_no_contention() {
        let mut bus = SystemBus::new(BusTimings::default());
        bus.onchip_transfer(0);
        let later = bus.onchip_transfer(1000);
        assert_eq!(later, 1020, "no residual contention after idle gap");
    }

    #[test]
    fn custom_timings_respected() {
        let mut bus = SystemBus::new(BusTimings {
            onchip_round_trip: 10,
            bus_occupancy: 2,
            mem_latency: 50,
            mem_pipeline: 1,
        });
        assert_eq!(bus.onchip_transfer(0), 10);
        let d1 = bus.controller_mem_access(0);
        let d2 = bus.controller_mem_access(0);
        assert_eq!(d1, 50);
        assert_eq!(d2, 100, "single slot serializes");
    }
}
