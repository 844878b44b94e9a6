//! The pluggable concurrency-control backend of the machine.

use crate::kernel::Kernel;
use crate::locks::LockTable;
use crate::logtm::LogTmSystem;
use ptm_core::{PtmConfig, PtmSystem};
use ptm_mem::PhysicalMemory;
use ptm_types::{FrameId, Granularity, PhysAddr, ProcessId, TxId, VirtAddr, WORD_SIZE};
use ptm_vtm::{VtmConfig, VtmSystem};
use std::fmt;

/// Which system to run — the x-axis families of Figures 4 and 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Single-threaded / uncontrolled execution (the speedup baseline's
    /// denominator, and the mode used when a workload has one thread).
    Serial,
    /// Fine-grained lock-based execution (`4p` in the figures).
    Locks,
    /// Baseline VTM.
    Vtm,
    /// Victim-cache VTM (`VC-VTM`).
    VictimVtm,
    /// Copy-PTM.
    CopyPtm,
    /// Select-PTM at the given conflict granularity (`Block` is the Figure 4
    /// configuration; the word granularities are Figure 5's `wd:cache` and
    /// `wd:cache+mem`).
    SelectPtm(Granularity),
    /// LogTM-style eager versioning with stall-preferring resolution — an
    /// extension beyond the paper's evaluated systems (§5.2 related work).
    /// Bounded: no paging or migration support, as in the original.
    LogTm,
}

impl SystemKind {
    /// The display label the paper's figures use.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Serial => "serial",
            SystemKind::Locks => "4p-locks",
            SystemKind::Vtm => "VTM",
            SystemKind::VictimVtm => "VC-VTM",
            SystemKind::CopyPtm => "Copy-PTM",
            SystemKind::SelectPtm(Granularity::Block) => "Sel-PTM",
            SystemKind::SelectPtm(Granularity::WordCache) => "wd:cache",
            SystemKind::SelectPtm(Granularity::WordCacheMem) => "wd:cache+mem",
            SystemKind::LogTm => "LogTM",
        }
    }

    /// Whether this mode executes `Begin`/`End` as transactions (as opposed
    /// to locks or nothing).
    pub fn is_transactional(self) -> bool {
        matches!(
            self,
            SystemKind::Vtm
                | SystemKind::VictimVtm
                | SystemKind::CopyPtm
                | SystemKind::SelectPtm(_)
                | SystemKind::LogTm
        )
    }

    /// The conflict granularity this mode runs at.
    pub fn granularity(self) -> Granularity {
        match self {
            SystemKind::SelectPtm(g) => g,
            _ => Granularity::Block,
        }
    }

    /// All five Figure 4 systems, in the paper's bar order.
    pub fn figure4() -> [SystemKind; 5] {
        [
            SystemKind::Locks,
            SystemKind::Vtm,
            SystemKind::VictimVtm,
            SystemKind::CopyPtm,
            SystemKind::SelectPtm(Granularity::Block),
        ]
    }

    /// The Figure 5 configurations, in the paper's bar order.
    pub fn figure5() -> [SystemKind; 4] {
        [
            SystemKind::Locks,
            SystemKind::SelectPtm(Granularity::Block),
            SystemKind::SelectPtm(Granularity::WordCache),
            SystemKind::SelectPtm(Granularity::WordCacheMem),
        ]
    }
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a conflicting request does. Every conflict the machine detects —
/// in a remote cache, in a migrated local line or in the overflow
/// structures — ends in one of these, applied in one place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// No conflict: proceed.
    Proceed,
    /// NACK: retry after a delay (LogTM; the owner is expected to finish).
    Stall,
    /// The requester loses: it aborts itself.
    SelfAbort,
    /// The owners lose: abort them and proceed.
    AbortOwners(Vec<TxId>),
}

impl Resolution {
    /// PTM's and VTM's rule: the oldest transaction wins (§4.4.3) and a
    /// non-transactional requester always wins (§2.3.3).
    pub(crate) fn oldest_wins(requester: Option<TxId>, owners: Vec<TxId>) -> Resolution {
        match requester {
            Some(me) if !owners.iter().all(|o| me.wins_against(*o)) => Resolution::SelfAbort,
            _ => Resolution::AbortOwners(owners),
        }
    }
}

/// The backend instance owned by a machine.
// One Backend exists per machine and it never moves after construction, so
// the variant size spread costs nothing; boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Backend {
    /// No concurrency control (serial execution).
    Serial,
    /// Fine-grained locks.
    Locks(LockTable),
    /// PTM (Copy or Select per its configuration).
    Ptm(PtmSystem),
    /// VTM (baseline or victim-cache per its configuration).
    Vtm(VtmSystem),
    /// LogTM-style eager versioning (extension).
    LogTm(LogTmSystem),
}

impl Backend {
    /// Instantiates the backend for a system kind.
    pub fn for_kind(kind: SystemKind) -> Backend {
        match kind {
            SystemKind::Serial => Backend::Serial,
            SystemKind::Locks => Backend::Locks(LockTable::new()),
            SystemKind::Vtm => Backend::Vtm(VtmSystem::new(VtmConfig::baseline())),
            SystemKind::VictimVtm => Backend::Vtm(VtmSystem::new(VtmConfig::victim())),
            SystemKind::CopyPtm => Backend::Ptm(PtmSystem::new(PtmConfig::copy())),
            SystemKind::SelectPtm(g) => {
                Backend::Ptm(PtmSystem::new(PtmConfig::select_with_granularity(g)))
            }
            SystemKind::LogTm => Backend::LogTm(LogTmSystem::new()),
        }
    }

    /// The PTM system, if this backend is PTM.
    pub fn as_ptm(&self) -> Option<&PtmSystem> {
        match self {
            Backend::Ptm(p) => Some(p),
            _ => None,
        }
    }

    /// The VTM system, if this backend is VTM.
    pub fn as_vtm(&self) -> Option<&VtmSystem> {
        match self {
            Backend::Vtm(v) => Some(v),
            _ => None,
        }
    }

    /// The LogTM system, if this backend is LogTM.
    pub fn as_logtm(&self) -> Option<&LogTmSystem> {
        match self {
            Backend::LogTm(l) => Some(l),
            _ => None,
        }
    }

    /// Clones only the durable subset of the backend for a crash image.
    ///
    /// PTM's VTS caches and deferred-cleanup queue are volatile controller
    /// state (DESIGN decision 19) and are reset to empty in the copy; every
    /// other backend keeps its full write-through state.
    pub fn durable_clone(&self) -> Backend {
        match self {
            Backend::Ptm(p) => Backend::Ptm(p.durable_clone()),
            other => other.clone(),
        }
    }

    /// Whether any transactional block has overflowed the caches.
    pub fn has_overflows(&self) -> bool {
        match self {
            Backend::Ptm(p) => p.has_overflows(),
            Backend::Vtm(v) => v.has_overflows(),
            Backend::LogTm(l) => l.has_overflows(),
            _ => false,
        }
    }

    /// The one arbiter for a conflict between `requester` and the live
    /// `owners`: LogTM's stall-preferring rule, otherwise oldest-wins.
    pub(crate) fn arbitrate(&mut self, requester: Option<TxId>, owners: Vec<TxId>) -> Resolution {
        match self {
            Backend::LogTm(l) => l.arbitrate(requester, owners),
            _ => Resolution::oldest_wins(requester, owners),
        }
    }

    /// Reads the committed value of a word as the coherent, non-speculative
    /// world would see it, from a live machine's or a crash image's
    /// kernel and memory.
    pub(crate) fn read_committed(
        &self,
        kernel: &Kernel,
        mem: &PhysicalMemory,
        pid: ProcessId,
        va: VirtAddr,
    ) -> u32 {
        if let Some(frame) = kernel.frame_of(pid, va.vpn()) {
            let pa = PhysAddr::from_frame(frame, va.page_offset());
            return match self {
                Backend::Ptm(p) => {
                    let f = p.committed_frame(pa.block());
                    mem.read_word(PhysAddr::from_frame(f, pa.page_offset()))
                }
                _ => mem.read_word(pa),
            };
        }
        // Swapped-out pages are still part of the committed state: their
        // home image lives in the swap store, and for PTM the SIT says
        // whether a block's committed version was left in the shadow image
        // instead (§3.5).
        let Some(slot) = kernel.swap_slot_of(pid, va.vpn()) else {
            return 0; // Never mapped: untouched memory reads as zero.
        };
        let img_slot = match self {
            Backend::Ptm(p) => {
                let idx = PhysAddr::from_frame(FrameId(0), va.page_offset())
                    .block()
                    .index();
                p.committed_swap_slot(slot, idx)
            }
            _ => slot,
        };
        let img = kernel.swap.peek(img_slot);
        let off = va.page_offset();
        u32::from_le_bytes(img[off..off + WORD_SIZE].try_into().expect("word in page"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_core::PtmPolicy;

    #[test]
    fn labels_match_paper_figures() {
        assert_eq!(SystemKind::Locks.label(), "4p-locks");
        assert_eq!(SystemKind::SelectPtm(Granularity::Block).label(), "Sel-PTM");
        assert_eq!(
            SystemKind::SelectPtm(Granularity::WordCacheMem).label(),
            "wd:cache+mem"
        );
    }

    #[test]
    fn figure_lists_are_ordered_like_the_paper() {
        let f4 = SystemKind::figure4();
        assert_eq!(f4[0], SystemKind::Locks);
        assert_eq!(f4[4], SystemKind::SelectPtm(Granularity::Block));
        let f5 = SystemKind::figure5();
        assert_eq!(f5[1].granularity(), Granularity::Block);
        assert_eq!(f5[3].granularity(), Granularity::WordCacheMem);
    }

    #[test]
    fn backend_instantiation_matches_kind() {
        assert!(Backend::for_kind(SystemKind::CopyPtm).as_ptm().is_some());
        assert!(Backend::for_kind(SystemKind::VictimVtm).as_vtm().is_some());
        assert!(matches!(
            Backend::for_kind(SystemKind::Serial),
            Backend::Serial
        ));
        let copy = Backend::for_kind(SystemKind::CopyPtm);
        assert_eq!(copy.as_ptm().unwrap().config().policy, PtmPolicy::Copy);
    }

    #[test]
    fn transactional_classification() {
        assert!(!SystemKind::Locks.is_transactional());
        assert!(!SystemKind::Serial.is_transactional());
        assert!(SystemKind::Vtm.is_transactional());
        assert!(SystemKind::CopyPtm.is_transactional());
    }
}
