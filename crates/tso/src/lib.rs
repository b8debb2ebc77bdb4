//! # esr-tso — timestamp-ordering ESR (the paper's Figure 3 algorithm)
//!
//! The scheduler/transaction-manager/data-manager core of the prototype
//! (§4–§6). Concurrency control is timestamp ordering with **strict
//! ordering**: conflicting operations that merely arrive while earlier
//! work is uncommitted *wait*; operations that arrive *late* (with a
//! timestamp older than work already performed) abort their transaction,
//! which the client immediately restarts with a fresh timestamp. Strict
//! ordering plus shadow paging keeps recovery trivial — no logs, no
//! cascading rollbacks.
//!
//! ESR enhances exactly three rejection points of the standard
//! algorithm. Each relaxed operation is admitted only if the
//! inconsistency `d` it views/exports passes the bottom-up bound checks
//! of [`esr_core::ledger::Ledger`]:
//!
//! 1. **Late query read** — the query's timestamp is older than the
//!    object's last committed write. `d = |present − proper|`.
//! 2. **Query read of uncommitted data** — a concurrent update holds the
//!    object's write slot. Same `d`; on success the query proceeds
//!    *without waiting* (this is where most of the extra concurrency
//!    comes from).
//! 3. **Late update write vs. query read** — the write's timestamp is
//!    older than the object's last *query* read. `d` is the maximum
//!    inconsistency exported to any registered uncommitted query reader,
//!    `max_r |new − proper_r|` (§5.2; the `Sum` alternative of Wu et al.
//!    is available behind [`config::ExportRule`] for ablation).
//!
//! Everything else — late update reads, late writes vs. update reads or
//! committed writes, write/write conflicts — behaves exactly as strict
//! TO: wait if merely concurrent, abort if late.
//!
//! The crate exposes a synchronous, reentrant [`kernel::Kernel`]:
//! drivers (the threaded server in `esr-server`, the discrete-event
//! simulator in `esr-sim`, or plain test code) call
//! `begin`/`read`/`write`/`commit`/`abort` and are handed back any
//! operations that a commit or abort has woken.

#[cfg(feature = "capture")]
pub mod capture;
pub mod config;
pub mod durability;
pub mod kernel;
pub mod obs;
pub mod outcome;
pub mod stats;
pub mod waitq;

pub use config::{ExportRule, HistoryMissPolicy, KernelConfig};
pub use durability::Durability;
pub use kernel::{Kernel, KernelError};
pub use obs::{KernelHistograms, KernelObs, TxnEvent, TxnEventKind};
pub use outcome::{
    AbortReason, CommitInfo, OpOutcome, OpResponse, Operation, PendingOp, TxnEndResponse,
};
pub use stats::{KernelStats, MonitorSnapshot, StatsSnapshot};
