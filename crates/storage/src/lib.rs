//! # esr-storage — the prototype's main-memory data manager
//!
//! §6 of the paper: *"Objects are defined in a simple way, each has an
//! id, a value associated with it, and the respective OIL and OEL. The
//! database is maintained in the main memory on the server side …
//! writing an object is simulated by changing its value in memory."*
//!
//! Beyond the id/value/limits triple, each object carries the state the
//! ESR control mechanisms of §5 need:
//!
//! * a ring of the **last N committed writes** (N = 20 in the paper,
//!   derived from the ratio of query to update durations) with their
//!   timestamps, used to find a read's *proper* value — the value it
//!   would have seen with no concurrent updates ([`history`]);
//! * the **maximum read timestamps**, kept separately for query and
//!   update readers, because relaxation case 3 applies only when "the
//!   last read was from a query ET" (§4);
//! * the set of **uncommitted query readers** with their proper values,
//!   consulted when a write computes the inconsistency it would export
//!   (§5.2, Figure 6);
//! * a single **uncommitted write slot** with the pre-image (shadow
//!   paging, §6): strict ordering admits at most one uncommitted writer
//!   per object, and an abort restores the shadow value instead of
//!   rolling back through a log.
//!
//! [`table::ObjectTable`] holds one [`parking_lot::Mutex`] per object so
//! independent objects never contend, and [`catalog`] boots a database
//! the way the prototype's start-up data file did.

pub mod catalog;
pub mod history;
pub mod object;
pub mod pager;
pub mod table;
pub mod wal;

pub use catalog::{CatalogConfig, LimitAssignment};
pub use history::{CommittedWrite, HistoryRing, ProperValue};
pub use object::{ObjectState, QueryReader, UncommittedWrite};
pub use pager::{recover_paged, PageCacheSnapshot, PagedHeap, PagedRecovered, PagerConfig};
pub use table::ObjectTable;
pub use wal::{recover, DurabilitySink, Recovered, Wal, WalOptions, WalRecord};

/// The paper's history depth: the values of "the last 20 writes on each
/// object" are retained for proper-value lookup (§5.1).
pub const PAPER_HISTORY_DEPTH: usize = 20;
