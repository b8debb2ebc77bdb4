//! One-call boot of a *durable* server: recover, open the log, attach
//! it to a kernel, and start the server.
//!
//! `esr-tcpd --data-dir` and the crash-recovery tests share this path,
//! so the recovery sequence under test is exactly the one the daemon
//! runs:
//!
//! 1. [`esr_storage::wal::recover`] (resident) or
//!    [`esr_storage::recover_paged`] (paged) rebuilds committed state
//!    from the newest valid checkpoint or directory snapshot plus the
//!    log tail (truncating any torn record) — or from the catalog on
//!    first boot;
//! 2. a fresh [`Wal`] segment is opened at the recovered sequence;
//! 3. the kernel is built over the recovered table, its transaction-id
//!    counter raised past every journaled id, and the sink attached;
//! 4. the server reference clock is based *above* the largest
//!    recovered timestamp (plus [`CLOCK_EPOCH_MARGIN_MICROS`]), so a
//!    restart cannot stamp new transactions before pre-crash commits
//!    and strand them in perpetual aborts.

use crate::server::{Server, ServerConfig};
use esr_core::hierarchy::HierarchySchema;
use esr_storage::catalog::CatalogConfig;
use esr_storage::table::ObjectTable;
use esr_storage::wal::{recover, Wal, WalOptions};
use esr_storage::{recover_paged, PagerConfig};
use esr_tso::{Kernel, KernelConfig};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Safety margin added above the largest recovered timestamp tick when
/// deriving the restarted reference-clock epoch. Covers the residual
/// error of pre-crash client clock corrections (~RTT/2 each), which can
/// place issued timestamps slightly ahead of the server reference.
pub const CLOCK_EPOCH_MARGIN_MICROS: u64 = 1_000_000;

/// What recovery found, reported alongside the started server.
#[derive(Debug, Clone, Copy)]
pub struct RecoverySummary {
    /// Redo records replayed on top of the checkpoint/catalog base.
    pub replayed: u64,
    /// Whether a torn log tail was found and truncated.
    pub torn_tail: bool,
    /// Whether any durable state existed (false on first boot).
    pub had_state: bool,
    /// First transaction id the restarted kernel will assign.
    pub next_txn: u64,
    /// The reference-clock epoch the server was started with.
    pub clock_epoch_micros: u64,
}

/// What either recovery shape hands the common boot tail.
struct Recovered {
    table: ObjectTable,
    next_seq: u64,
    next_txn: u64,
    max_ts_ticks: u64,
    replayed: u64,
    torn_tail: bool,
    had_state: bool,
}

/// Recover from `data_dir`, open the log, and start a durable server.
///
/// `config.clock_epoch_micros` is treated as a *minimum*: the effective
/// epoch is raised to clear every recovered timestamp.
///
/// With [`ServerConfig::cache_pages`] set, the object table is backed
/// by the paged heap: recovery goes through
/// [`esr_storage::recover_paged`] (a fresh directory streams the catalog
/// into pages without building the table in memory; a resident-built
/// directory migrates from its newest checkpoint on first paged boot,
/// one-way), reads pin pages through the buffer pool, and
/// checkpoints flush dirty pages incrementally instead of snapshotting
/// the whole table.
pub fn start_durable(
    data_dir: impl AsRef<Path>,
    catalog: &CatalogConfig,
    schema: HierarchySchema,
    kernel_config: KernelConfig,
    config: ServerConfig,
    wal_opts: WalOptions,
) -> io::Result<(Server, RecoverySummary)> {
    start_durable_with(
        data_dir,
        catalog,
        schema,
        kernel_config,
        config,
        wal_opts,
        |wal| wal as Arc<dyn esr_storage::wal::DurabilitySink>,
    )
}

/// [`start_durable`] with a hook that wraps the opened [`Wal`] before
/// it is attached to the kernel as the durability sink. A replication
/// hub uses this to interpose its shipping sink — every committed
/// record is published to subscribers at the moment it is appended,
/// and the durable watermark advances with the group-commit fsync —
/// without the kernel knowing replication exists.
pub fn start_durable_with(
    data_dir: impl AsRef<Path>,
    catalog: &CatalogConfig,
    schema: HierarchySchema,
    kernel_config: KernelConfig,
    mut config: ServerConfig,
    wal_opts: WalOptions,
    wrap: impl FnOnce(Arc<Wal>) -> Arc<dyn esr_storage::wal::DurabilitySink>,
) -> io::Result<(Server, RecoverySummary)> {
    let data_dir = data_dir.as_ref();
    let rec = match config.cache_pages {
        Some(cache_pages) => {
            let pager_cfg = PagerConfig {
                cache_pages,
                torn_page_after: config.page_torn_after,
                ..PagerConfig::default()
            };
            let r = recover_paged(data_dir, catalog, &pager_cfg)?;
            Recovered {
                table: ObjectTable::paged(Arc::new(r.heap)),
                next_seq: r.next_seq,
                next_txn: r.next_txn,
                max_ts_ticks: r.max_ts_ticks,
                replayed: r.replayed,
                torn_tail: r.torn_tail,
                had_state: r.had_state,
            }
        }
        None => {
            let r = recover(data_dir, catalog)?;
            Recovered {
                table: ObjectTable::new(r.states),
                next_seq: r.next_seq,
                next_txn: r.next_txn,
                max_ts_ticks: r.max_ts_ticks,
                replayed: r.replayed,
                torn_tail: r.torn_tail,
                had_state: r.had_state,
            }
        }
    };
    let wal = Wal::open(data_dir, rec.next_seq, wal_opts)?;
    if rec.had_state {
        wal.note_recovery();
    }
    let kernel = Kernel::new(rec.table, schema, kernel_config);
    kernel.restore_next_txn(rec.next_txn);
    kernel.enable_durability(wrap(Arc::new(wal)));
    if rec.had_state {
        config.clock_epoch_micros = config
            .clock_epoch_micros
            .max(rec.max_ts_ticks + CLOCK_EPOCH_MARGIN_MICROS);
    }
    let summary = RecoverySummary {
        replayed: rec.replayed,
        torn_tail: rec.torn_tail,
        had_state: rec.had_state,
        next_txn: rec.next_txn,
        clock_epoch_micros: config.clock_epoch_micros,
    };
    Ok((Server::start(kernel, config), summary))
}
