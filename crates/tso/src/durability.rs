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
//!    Because every append happens under it, the unit also knows its
//!    record's sequence number *before* it installs, and stamps it on
//!    each page it installs into: a paged table keeps that page cached
//!    until the log is durable through it (WAL-before-page).
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
    /// per-object commits, stamping each install with the sequence
    /// number it is handed ([`ObjectGuard::cover`]), and returns what
    /// was written; if anything was, it is appended to the log *before*
    /// the order mutex drops, under exactly that sequence number, which
    /// is returned. The caller — not this function — waits for the
    /// fsync watermark, so the locks are never held across disk I/O.
    ///
    /// [`ObjectGuard::cover`]: esr_storage::table::ObjectGuard::cover
    pub fn install_ordered(
        &self,
        txn: TxnId,
        ts: Timestamp,
        install: impl FnOnce(u64) -> (u64, Vec<(ObjectId, Value)>),
    ) -> (Option<u64>, Vec<(ObjectId, Value)>) {
        let _gate = self.gate.read().unwrap_or_else(PoisonError::into_inner);
        let _order = self.order.lock().unwrap_or_else(PoisonError::into_inner);
        // Every append to this sink happens here, under `order`, so the
        // next one takes the seq after the current head.
        let next = self.sink.appended_seq() + 1;
        let (exported, writes) = install(next);
        if writes.is_empty() {
            // A blind update that never wrote (or whose writes were all
            // skipped) leaves no durable trace.
            return (None, writes);
        }
        let seq = self.sink.append_commit(txn, ts, exported, &writes);
        debug_assert_eq!(seq, next, "an append bypassed the order mutex");
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
            Some(heap) => self
                .sink
                .checkpoint_with(seq, &mut || heap.checkpoint(seq, next_txn))?,
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

    /// An in-memory sink that records call order. Its durable watermark
    /// moves only when someone calls `sync_to`, so a test can hold it
    /// back.
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
        fn durable_seq(&self) -> u64 {
            self.synced.load(Ordering::SeqCst)
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
        let (seq, writes) = d.install_ordered(TxnId(1), ts(1), |_| (0, Vec::new()));
        assert_eq!(seq, None);
        assert!(writes.is_empty());
        assert_eq!(d.sink().appended_seq(), 0);
    }

    #[test]
    fn installs_append_in_order_and_return_seqs() {
        let d = Durability::new(Arc::new(FakeSink::default()));
        let (a, _) = d.install_ordered(TxnId(1), ts(1), |seq| {
            assert_eq!(seq, 1, "the installer learns its record's seq");
            (0, vec![(ObjectId(0), 5)])
        });
        let (b, _) = d.install_ordered(TxnId(2), ts(2), |seq| {
            assert_eq!(seq, 2);
            (0, vec![(ObjectId(0), 6)])
        });
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
        d.install_ordered(TxnId(1), ts(1), |_| (0, vec![(ObjectId(0), 5)]));
        let covered = d.checkpoint(&table, 7).unwrap();
        assert_eq!(covered, 1);
        assert_eq!(sink.synced.load(Ordering::SeqCst), 1);
        assert_eq!(sink.checkpoints.load(Ordering::SeqCst), 1);
        assert_eq!(sink.objects.load(Ordering::SeqCst), 2, "fed from the table");
    }

    /// 64 objects in pages of a paged table whose one shard caches two
    /// frames, so touching every object evicts every page; and the
    /// table's dirty write-back count.
    fn tiny_paged_table(tag: &str) -> (ObjectTable, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("esr-tso-durability-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let states = esr_storage::CatalogConfig {
            n_objects: 64,
            ..Default::default()
        }
        .build_states();
        let cfg = esr_storage::PagerConfig {
            page_size: 512,
            cache_pages: 2,
            shards: 1,
            ..Default::default()
        };
        let heap = esr_storage::PagedHeap::create(&dir, states, 0, 1, &cfg).unwrap();
        (ObjectTable::paged(Arc::new(heap)), dir)
    }

    fn touch_every_object(table: &ObjectTable) {
        for i in 0..64 {
            let _ = table.lock(ObjectId(i)).value;
        }
    }

    fn cache(table: &ObjectTable) -> esr_storage::PageCacheSnapshot {
        table.page_cache_stats().expect("paged")
    }

    /// Regression: the install → append window. A committer installs
    /// page P under the order mutex, and before its record N + 1 is
    /// appended a query's miss evicts P. The parent synced the log to
    /// its *head* (N, already durable) and wrote P holding N + 1's
    /// values — a crash then recovered half a transaction. P must stay
    /// cached until N + 1 is durable.
    #[test]
    fn a_page_is_never_written_before_the_record_it_installed_is_durable() {
        let (table, dir) = tiny_paged_table("window");
        let sink = Arc::new(FakeSink::default());
        table.pager().unwrap().attach_wal(Arc::clone(&sink) as _);
        let d = Durability::new(Arc::clone(&sink) as Arc<dyn DurabilitySink>);
        let commit = |txn: u64, value: Value, seq: u64| {
            let mut o = table.lock(ObjectId(0));
            o.apply_write(TxnId(txn), ts(txn), value);
            assert!(o.commit_write(TxnId(txn)));
            o.cover(seq);
            (0, vec![(ObjectId(0), value)])
        };
        // Record N = 1, durable.
        let (n, _) = d.install_ordered(TxnId(1), ts(1), |seq| commit(1, 7, seq));
        sink.sync_to(n.unwrap());
        // Record N + 1: install, then evict everything before appending.
        let (n1, _) = d.install_ordered(TxnId(2), ts(2), |seq| {
            let w = commit(2, 4242, seq);
            touch_every_object(&table);
            assert_eq!(
                cache(&table).dirty_flushes,
                0,
                "page written holding record {seq}, which is not even appended"
            );
            assert!(cache(&table).undurable_skips > 0, "P was a candidate");
            w
        });
        assert_eq!(n1, Some(2));
        touch_every_object(&table);
        assert_eq!(cache(&table).dirty_flushes, 0, "appended is not durable");
        sink.sync_to(2);
        touch_every_object(&table);
        assert_eq!(cache(&table).dirty_flushes, 1, "durable: P may go now");
        assert_eq!(table.lock(ObjectId(0)).value, 4242, "and reloads intact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The kernel's install loop stamps what it commits: a page holding
    /// a committed write stays cached until the commit is durable, while
    /// a query's reader-list mutations never hold a page back.
    #[test]
    fn kernel_commits_hold_their_pages_until_durable_and_queries_do_not() {
        use crate::kernel::Kernel;
        use crate::outcome::OpOutcome;
        use esr_core::bounds::Limit;
        use esr_core::ids::TxnKind;
        use esr_core::spec::TxnBounds;
        let (table, dir) = tiny_paged_table("kernel");
        let k = Kernel::with_defaults(table);
        let sink = Arc::new(FakeSink::default());
        k.enable_durability(Arc::clone(&sink) as _);

        let q = k.begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited), ts(5));
        for i in 0..64 {
            let r = k.read(q, ObjectId(i)).unwrap();
            assert!(matches!(r.outcome, OpOutcome::Value(_)), "{r:?}");
        }
        assert!(k.commit(q).unwrap().durable_seq.is_none());
        assert_eq!(cache(k.table()).undurable_skips, 0, "nothing to wait for");
        let flushed = cache(k.table()).dirty_flushes;
        assert!(flushed > 0, "reader lists dirty pages, and they go freely");

        let t = k.begin(TxnKind::Update, TxnBounds::export(Limit::Unlimited), ts(10));
        let r = k.write(t, ObjectId(0), 99).unwrap();
        assert!(matches!(r.outcome, OpOutcome::Written), "{r:?}");
        // Flush the page's pre-commit image so only the install is dirty.
        touch_every_object(k.table());
        let flushed = cache(k.table()).dirty_flushes;
        let seq = k.commit(t).unwrap().durable_seq.expect("logged");
        touch_every_object(k.table());
        assert_eq!(
            cache(k.table()).dirty_flushes,
            flushed,
            "record {seq} not durable"
        );
        sink.sync_to(seq);
        touch_every_object(k.table());
        assert_eq!(cache(k.table()).dirty_flushes, flushed + 1);
        assert_eq!(k.table().lock(ObjectId(0)).value, 99);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
