//! Execution-driven CMP simulator for the PTM reproduction.
//!
//! This crate ties the substrates together into the paper's evaluation
//! platform (§6.1): four single-issue in-order cores with private L1/L2
//! caches on a snoopy MOESI bus, a memory controller hosting the VTS (PTM)
//! or the XADT machinery (VTM), an OS model with page tables, TLB, demand
//! paging and system-event injection — all driving one of six execution
//! modes ([`SystemKind`]): serial, fine-grained locks, VTM, Victim-VTM,
//! Copy-PTM, and Select-PTM at three conflict granularities.
//!
//! Workloads are per-thread [`ThreadProgram`]s of [`Op`]s; the
//! [`runner`] module provides the Figure 4 "% speedup over one thread"
//! computation, and [`mod@reference`] checks value-level serializability of
//! every run against a serial replay in commit order.
//!
//! # Examples
//!
//! ```
//! use ptm_sim::{Machine, MachineConfig, Op, SystemKind, ThreadProgram};
//! use ptm_types::{ProcessId, ThreadId, VirtAddr};
//!
//! let lock = VirtAddr::new(0x9000);
//! let prog = ThreadProgram::new(ProcessId(0), ThreadId(0), vec![
//!     Op::Begin { ordered: None, lock },
//!     Op::Rmw(VirtAddr::new(0x1000), 5),
//!     Op::End,
//! ]);
//! let mut m = Machine::new(MachineConfig::default(), SystemKind::SelectPtm(Default::default()), vec![prog]);
//! m.run();
//! assert_eq!(m.stats().commits, 1);
//! assert_eq!(m.read_committed(ProcessId(0), VirtAddr::new(0x1000)), 5);
//! ```

pub mod backend;
pub mod crash;
pub mod faults;
pub mod kernel;
pub mod locks;
pub mod logtm;
pub mod machine;
pub mod ops;
pub mod ordered;
pub mod program;
pub mod reference;
pub mod runner;
pub mod scheduler;
pub mod stats;

pub use backend::{Backend, SystemKind};
pub use crash::{CrashImage, CrashPlan};
pub use faults::{assert_invariants, check_invariants, FaultAction, FaultEvent, FaultPlan};
pub use kernel::{Kernel, KernelConfig, KernelStats, Translation};
pub use machine::{Machine, MachineConfig};
pub use ops::{Op, OrderedSeq};
pub use program::ThreadProgram;
pub use reference::{assert_serializable, crash_reference, diff_against_machine, serial_reference};
pub use runner::{run, serialize_programs, speedup_percent, speedup_vs_serial};
pub use scheduler::ReadyHeap;
pub use stats::{CommittedTx, MachineStats};
