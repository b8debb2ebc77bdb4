//! The kernel's durability attachment: write-ahead logging of commits
//! and quiesced checkpoints, layered *around* the in-memory commit
//! path rather than into it.
//!
//! Two ordering obligations connect the volatile kernel to the redo
//! log, and this module owns the locks that discharge them:
//!
//! 1. **Append order = install order.** Recovery replays records in
//!    log order through the same [`esr_storage::object`] machinery the
//!    live path uses, so for any object the log must list values in
//!    the order they were installed. The `order` mutex is held across
//!    a committing update's whole install loop *and* its log append,
//!    making `(install sequence, append sequence)` a single atomic
//!    unit. Commits of disjoint objects still overlap everywhere else
//!    — in the wait, in validation, and in the group-commit fsync.
//! 2. **Checkpoints see no mid-commit state.** [`Durability::checkpoint`]
//!    takes the `gate` write-side; committing updates hold the read
//!    side across their install loop. A snapshot therefore observes
//!    every commit either fully installed or not at all (an occupied
//!    uncommitted-writer slot is fine: the snapshot takes the shadow).
//!
//! The mutex/rwlock here are `std::sync` deliberately: the in-tree
//! `parking_lot` shim provides only a `Mutex`, and a poisoned
//! durability lock must recover (a panicking worker must not wedge
//! every later commit or checkpoint).

use esr_clock::Timestamp;
use esr_core::ids::TxnId;
use esr_core::value::Value;
use esr_core::ObjectId;
use esr_storage::table::ObjectTable;
use esr_storage::wal::{snapshots, DurabilitySink, ObjectSnapshot};
use std::io;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// A kernel's attached durability state: the sink plus the two locks
/// described in the module docs.
pub struct Durability {
    sink: Arc<dyn DurabilitySink>,
    /// Serializes install-loop + log-append units across committers.
    order: Mutex<()>,
    /// Read: a committing update's install loop. Write: a checkpoint.
    gate: RwLock<()>,
}

impl std::fmt::Debug for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durability")
            .field("appended_seq", &self.sink.appended_seq())
            .finish()
    }
}

impl Durability {
    /// Wrap a sink for kernel attachment.
    pub fn new(sink: Arc<dyn DurabilitySink>) -> Self {
        Durability {
            sink,
            order: Mutex::new(()),
            gate: RwLock::new(()),
        }
    }

    /// The underlying sink.
    pub fn sink(&self) -> &Arc<dyn DurabilitySink> {
        &self.sink
    }

    /// Run a committing update's install loop under the commit gate
    /// (read side) and the append-order mutex. `install` performs the
    /// per-object commits and returns what was written; if anything
    /// was, it is appended to the log *before* the order mutex drops,
    /// and the record's sequence number is returned. The caller — not
    /// this function — waits for the fsync watermark, so the locks are
    /// never held across disk I/O.
    pub fn install_ordered(
        &self,
        txn: TxnId,
        ts: Timestamp,
        install: impl FnOnce() -> (u64, Vec<(ObjectId, Value)>),
    ) -> (Option<u64>, Vec<(ObjectId, Value)>) {
        let _gate = self.gate.read().unwrap_or_else(PoisonError::into_inner);
        let _order = self.order.lock().unwrap_or_else(PoisonError::into_inner);
        let (exported, writes) = install();
        if writes.is_empty() {
            // A blind update that never wrote (or whose writes were all
            // skipped) leaves no durable trace.
            return (None, writes);
        }
        let seq = self.sink.append_commit(txn, ts, exported, &writes);
        (Some(seq), writes)
    }

    /// Quiesce commits and write a checkpoint covering everything
    /// appended so far. Returns the covered sequence number.
    ///
    /// A resident table streams every object into a checkpoint file,
    /// straight from the live table — no copy of it is assembled, so a
    /// checkpoint costs the process a fixed buffer whatever the table's
    /// size. A paged table checkpoints *incrementally*: flush the dirty
    /// pages, persist the small directory snapshot, and prune the log
    /// segments the snapshot covers — work proportional to what changed
    /// since the last checkpoint, not to the database size.
    pub fn checkpoint(&self, table: &ObjectTable, next_txn: u64) -> io::Result<u64> {
        let _gate = self.gate.write().unwrap_or_else(PoisonError::into_inner);
        let seq = self.sink.appended_seq();
        self.sink.sync_to(seq);
        match table.pager() {
            Some(heap) => {
                heap.checkpoint(seq, next_txn)?;
                self.sink.prune_segments(seq)?;
            }
            None => self
                .sink
                .write_checkpoint(seq, next_txn, &mut snapshots(table))?,
        }
        Ok(seq)
    }

    /// Quiesce commits and capture a consistent full-table snapshot for
    /// shipping to a replica whose watermark fell behind the pruned log.
    /// Nothing is written locally; the returned sequence number is the
    /// durable watermark the snapshot covers, so the receiver resumes
    /// the stream from `seq + 1`.
    ///
    /// `next_txn` is sampled *while the commit gate is held*, so the
    /// returned id watermark is exactly consistent with the snapshotted
    /// state — a commit racing the snapshot cannot inflate it (which
    /// would make a later-promoted replica skip transaction ids).
    pub fn quiesced_snapshot(
        &self,
        table: &ObjectTable,
        next_txn: impl FnOnce() -> u64,
    ) -> (u64, u64, Vec<ObjectSnapshot>) {
        let _gate = self.gate.write().unwrap_or_else(PoisonError::into_inner);
        let seq = self.sink.appended_seq();
        self.sink.sync_to(seq);
        let next_txn = next_txn();
        (seq, next_txn, snapshots(table).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::ids::SiteId;
    use std::sync::atomic::{AtomicU64, Ordering};

    type RecordedCommit = (TxnId, Vec<(ObjectId, Value)>);

    /// An in-memory sink that records call order.
    #[derive(Default)]
    struct FakeSink {
        appended: AtomicU64,
        synced: AtomicU64,
        records: Mutex<Vec<RecordedCommit>>,
        checkpoints: AtomicU64,
        /// Snapshots drained from checkpoint sources.
        objects: AtomicU64,
    }

    impl DurabilitySink for FakeSink {
        fn append_commit(
            &self,
            txn: TxnId,
            _ts: Timestamp,
            _exported: u64,
            writes: &[(ObjectId, Value)],
        ) -> u64 {
            self.records.lock().unwrap().push((txn, writes.to_vec()));
            self.appended.fetch_add(1, Ordering::SeqCst) + 1
        }
        fn sync_to(&self, seq: u64) {
            self.synced.fetch_max(seq, Ordering::SeqCst);
        }
        fn appended_seq(&self) -> u64 {
            self.appended.load(Ordering::SeqCst)
        }
        fn write_checkpoint(
            &self,
            _seq: u64,
            _next_txn: u64,
            objects: &mut dyn ExactSizeIterator<Item = ObjectSnapshot>,
        ) -> io::Result<()> {
            self.objects
                .fetch_add(objects.count() as u64, Ordering::SeqCst);
            self.checkpoints.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
        fn shutdown_sink(&self) {}
    }

    fn ts(t: u64) -> Timestamp {
        Timestamp::new(t, SiteId(1))
    }

    #[test]
    fn empty_installs_append_nothing() {
        let d = Durability::new(Arc::new(FakeSink::default()));
        let (seq, writes) = d.install_ordered(TxnId(1), ts(1), || (0, Vec::new()));
        assert_eq!(seq, None);
        assert!(writes.is_empty());
        assert_eq!(d.sink().appended_seq(), 0);
    }

    #[test]
    fn installs_append_in_order_and_return_seqs() {
        let d = Durability::new(Arc::new(FakeSink::default()));
        let (a, _) = d.install_ordered(TxnId(1), ts(1), || (0, vec![(ObjectId(0), 5)]));
        let (b, _) = d.install_ordered(TxnId(2), ts(2), || (0, vec![(ObjectId(0), 6)]));
        assert_eq!(a, Some(1));
        assert_eq!(b, Some(2));
    }

    #[test]
    fn checkpoint_syncs_everything_appended() {
        let table = esr_storage::CatalogConfig {
            n_objects: 2,
            ..Default::default()
        }
        .build();
        let sink = Arc::new(FakeSink::default());
        let d = Durability::new(Arc::clone(&sink) as Arc<dyn DurabilitySink>);
        d.install_ordered(TxnId(1), ts(1), || (0, vec![(ObjectId(0), 5)]));
        let covered = d.checkpoint(&table, 7).unwrap();
        assert_eq!(covered, 1);
        assert_eq!(sink.synced.load(Ordering::SeqCst), 1);
        assert_eq!(sink.checkpoints.load(Ordering::SeqCst), 1);
        assert_eq!(sink.objects.load(Ordering::SeqCst), 2, "fed from the table");
    }
}
