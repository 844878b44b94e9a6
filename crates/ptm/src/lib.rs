//! Page-based Transactional Memory (PTM) — the primary contribution of
//! *"Unbounded Page-Based Transactional Memory"* (ASPLOS 2006), reproduced
//! as a library.
//!
//! PTM virtualizes a hardware transactional memory past cache overflow,
//! context switches, paging and inter-process shared memory by pairing each
//! overflowing physical page (the *home page*) with a *shadow page* and
//! keeping per-page bit-vector bookkeeping in virtual-memory-adjacent
//! structures:
//!
//! * [`spt::ShadowPageTable`] / [`sit::SwapIndexTable`] — per-page anchor
//!   (shadow pointer, selection vector, TAV list head), indexed by physical
//!   page number while resident and by swap index while paged out;
//! * [`tav::TavArena`] — Transaction Access Vector nodes, one per
//!   (transaction × page), linked horizontally per page and vertically per
//!   transaction;
//! * [`tstate::TStateTable`] — per-transaction status for atomic logical
//!   commit/abort followed by lazy cleanup;
//! * [`vts`] — the Virtual Transaction Supervisor's SPT/TAV caches in the
//!   memory controller, modeled as LRU presence trackers that charge
//!   realistic walk costs on misses;
//! * [`system::PtmSystem`] — the orchestrating type implementing both
//!   **Copy-PTM** (speculative data in the home page, backup copy on first
//!   dirty overflow, restore on abort) and **Select-PTM** (selection vectors,
//!   zero-copy commit *and* abort).
//!
//! # Examples
//!
//! ```
//! use ptm_core::{PtmConfig, PtmSystem};
//! use ptm_types::{FrameId, TxId};
//!
//! let mut ptm = PtmSystem::new(PtmConfig::select());
//! ptm.on_page_alloc(FrameId(0));
//! ptm.begin(TxId(0), None);
//! assert!(ptm.is_live(TxId(0)));
//! assert!(!ptm.has_overflows());
//! ```

pub mod config;
pub mod durability;
pub mod recovery;
pub mod sit;
pub mod spt;
pub mod stats;
pub mod system;
pub mod tav;
pub mod tstate;
pub mod vts;

pub use config::{PtmConfig, PtmPolicy, ShadowFreePolicy};
pub use durability::{
    scan_records, undo_payload_checksum, DurStats, DurabilityConfig, DurableLog, ForcePolicy,
    LogRecord, LogRecordKind, UndoPayload,
};
pub use recovery::{recover, recover_log, tear_youngest_tav_tail, RecoveryStats};
pub use stats::PtmStats;
pub use system::{AccessKind, ConflictOutcome, Exhaustion, PtmSystem, SwapOut};
pub use tstate::TxStatus;
