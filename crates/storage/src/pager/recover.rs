//! Paged crash recovery: a directory snapshot plus the WAL tail,
//! replayed *through the buffer pool*.
//!
//! The resident path rebuilds a full in-memory table; here the base
//! state stays on disk. Recovery opens the heap from the newest valid
//! directory snapshot, then replays every log record past the
//! snapshot's covered sequence by pinning the touched objects — the
//! ordinary cache-miss machinery pages their extents in, and eviction
//! keeps memory bounded even when the tail touches more objects than
//! the cache holds. Replay may flush dirty pages; that is safe
//! mid-recovery because copy-on-write placement leaves the snapshot's
//! extents untouched, so a crash *during* recovery just replays the
//! same tail again.
//!
//! A directory without a pager snapshot is either fresh or was built by
//! resident mode, and both boot through one path. The base is the
//! newest valid resident checkpoint, or else the catalog's pristine
//! states; [`PagedHeap::create`] streams it into pages and writes a
//! directory snapshot at the base's sequence, the legacy checkpoints are
//! deleted (the snapshot supersedes them, and the resident recovery
//! refuses pager-built directories outright), and the WAL tail replays
//! through the pool exactly as it does for a reopened heap. A fresh
//! database therefore never exists as a whole table in memory.

use super::{PagedHeap, PagerConfig};
use crate::catalog::CatalogConfig;
use crate::wal::checkpoint::{self, Loaded};
use crate::wal::recover::{remove_tmp_files, replay_segments};
use std::fs;
use std::io;
use std::path::Path;

/// The outcome of [`recover_paged`]: a live heap plus the counters a
/// restarting server needs (mirrors [`crate::wal::Recovered`]).
#[derive(Debug)]
pub struct PagedRecovered {
    /// The recovered heap, ready to back an object table.
    pub heap: PagedHeap,
    /// First transaction id the restarted kernel may assign.
    pub next_txn: u64,
    /// First log sequence number the restarted WAL will assign.
    pub next_seq: u64,
    /// Largest timestamp tick observed; the restarted clock must start
    /// above this.
    pub max_ts_ticks: u64,
    /// Redo records replayed on top of the snapshot base.
    pub replayed: u64,
    /// Whether a torn WAL tail was found (and truncated away).
    pub torn_tail: bool,
    /// Whether any durable state existed at all (false on first boot).
    pub had_state: bool,
}

/// Rebuild committed state from `dir` into a paged heap. Handles all
/// three directory shapes — fresh, resident-built (migrates), and
/// pager-built — behind one call.
pub fn recover_paged(
    dir: impl AsRef<Path>,
    catalog: &CatalogConfig,
    cfg: &PagerConfig,
) -> io::Result<PagedRecovered> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    remove_tmp_files(dir)?;

    let (heap, had_base) = match PagedHeap::open(dir, cfg)? {
        Some(heap) => (heap, true),
        None => bootstrap(dir, catalog, cfg)?,
    };

    let scan = replay_segments(dir, heap.base_seq(), |rec| {
        for &(oid, value) in &rec.writes {
            let mut g = heap.pin_object(oid);
            g.apply_write(rec.txn, rec.ts, value);
            let committed = g.commit_write(rec.txn);
            debug_assert!(committed, "replayed write must commit");
        }
    })?;
    heap.note_ts_ticks(scan.max_record_ticks);

    Ok(PagedRecovered {
        next_txn: heap.boot_next_txn().max(1).max(scan.max_txn_plus_one),
        next_seq: scan.last_seq + 1,
        max_ts_ticks: heap.max_ts_ticks(),
        replayed: scan.replayed,
        torn_tail: scan.torn_tail,
        had_state: had_base || scan.saw_bytes,
        heap,
    })
}

/// Write the first heap of a directory that has no pager snapshot, from
/// the newest valid resident checkpoint or else the catalog, at that
/// base's sequence and `next_txn`; then delete the legacy checkpoints.
/// Also returns whether a checkpoint was found.
fn bootstrap(
    dir: &Path,
    catalog: &CatalogConfig,
    cfg: &PagerConfig,
) -> io::Result<(PagedHeap, bool)> {
    let (heap, had_checkpoint) = match checkpoint::load_latest(dir)? {
        Some(Loaded {
            seq,
            next_txn,
            states,
        }) => (PagedHeap::create(dir, states, seq, next_txn, cfg)?, true),
        None => (PagedHeap::create(dir, catalog.states(), 0, 1, cfg)?, false),
    };
    checkpoint::remove_all(dir)?;
    Ok((heap, had_checkpoint))
}

#[cfg(test)]
mod tests {
    use super::super::{directory, file};
    use super::*;
    use crate::wal::tests::tempdir;
    use crate::wal::{crc32, recover};
    use crate::wal::{DurabilitySink, Wal, WalOptions};
    use crate::ObjectTable;
    use esr_clock::Timestamp;
    use esr_core::ids::{ObjectId, SiteId, TxnId};

    fn catalog(n: u32) -> CatalogConfig {
        CatalogConfig {
            n_objects: n,
            ..CatalogConfig::default()
        }
    }

    fn small_cfg() -> PagerConfig {
        PagerConfig {
            page_size: 512,
            cache_pages: 4,
            shards: 1,
            ..PagerConfig::default()
        }
    }

    fn ts(t: u64) -> Timestamp {
        Timestamp::new(t, SiteId(1))
    }

    #[test]
    fn fresh_directory_bootstraps_a_heap_from_the_catalog() {
        let dir = tempdir("prec-fresh");
        let rec = recover_paged(&dir, &catalog(16), &small_cfg()).unwrap();
        assert!(!rec.had_state);
        assert_eq!(rec.next_seq, 1);
        assert_eq!(rec.next_txn, 1);
        assert_eq!(rec.heap.len(), 16);
        let expect = catalog(16).build_states();
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(rec.heap.pin_object(ObjectId(i as u32)).value, want.value);
        }
        // A second recovery opens the snapshot written at bootstrap.
        drop(rec);
        let rec2 = recover_paged(&dir, &catalog(16), &small_cfg()).unwrap();
        assert!(rec2.had_state);
        assert_eq!(rec2.replayed, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_tail_replays_through_the_pool() {
        let dir = tempdir("prec-tail");
        {
            let rec = recover_paged(&dir, &catalog(64), &small_cfg()).unwrap();
            let wal = Wal::open(&dir, rec.next_seq, WalOptions::default()).unwrap();
            // Log commits *without* checkpointing the heap: a crash now
            // must recover them purely from the tail — and 64 objects
            // through a 4-frame cache forces paging during replay.
            for i in 0..64u64 {
                let seq = wal.append_commit(
                    TxnId(i + 1),
                    ts(i + 10),
                    i,
                    &[(ObjectId(i as u32), 5_000 + i as i64)],
                );
                wal.sync_to(seq);
            }
        }
        let rec = recover_paged(&dir, &catalog(64), &small_cfg()).unwrap();
        assert_eq!(rec.replayed, 64);
        assert_eq!(rec.next_seq, 65);
        assert_eq!(rec.next_txn, 65);
        assert!(rec.max_ts_ticks >= 73);
        for i in 0..64u32 {
            assert_eq!(
                rec.heap.pin_object(ObjectId(i)).value,
                5_000 + i as i64,
                "object {i}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn directory_snapshot_skips_covered_records() {
        let dir = tempdir("prec-ckpt");
        {
            let rec = recover_paged(&dir, &catalog(8), &small_cfg()).unwrap();
            let wal = Wal::open(&dir, rec.next_seq, WalOptions::default()).unwrap();
            for i in 1..=4u64 {
                let seq =
                    wal.append_commit(TxnId(i), ts(i), i - 1, &[(ObjectId(0), 100 + i as i64)]);
                wal.sync_to(seq);
                let mut g = rec.heap.pin_object(ObjectId(0));
                g.apply_write(TxnId(i), ts(i), 100 + i as i64);
                assert!(g.commit_write(TxnId(i)));
            }
            rec.heap.checkpoint(4, 5).unwrap();
            // One post-checkpoint commit.
            let seq = wal.append_commit(TxnId(5), ts(5), 4, &[(ObjectId(1), 777)]);
            wal.sync_to(seq);
        }
        let rec = recover_paged(&dir, &catalog(8), &small_cfg()).unwrap();
        assert_eq!(rec.replayed, 1, "only the post-snapshot record replays");
        assert_eq!(rec.heap.pin_object(ObjectId(0)).value, 104);
        assert_eq!(rec.heap.pin_object(ObjectId(1)).value, 777);
        assert_eq!(rec.next_txn, 6);
        assert_eq!(rec.next_seq, 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resident_directory_migrates_and_legacy_recover_then_refuses() {
        let dir = tempdir("prec-migrate");
        {
            // Build a resident-mode directory: checkpoint + tail.
            let table = ObjectTable::new(catalog(4).build_states());
            let wal = Wal::open(&dir, 1, WalOptions::default()).unwrap();
            for i in 1..=2u64 {
                let seq = wal.append_commit(TxnId(i), ts(i), 0, &[(ObjectId(0), i as i64)]);
                wal.sync_to(seq);
                let mut g = table.lock(ObjectId(0));
                g.apply_write(TxnId(i), ts(i), i as i64);
                g.commit_write(TxnId(i));
            }
            wal.write_checkpoint(2, 3, &mut checkpoint::snapshots(&table))
                .unwrap();
            let seq = wal.append_commit(TxnId(3), ts(3), 0, &[(ObjectId(2), 42)]);
            wal.sync_to(seq);
        }
        let rec = recover_paged(&dir, &catalog(4), &small_cfg()).unwrap();
        assert!(rec.had_state);
        assert_eq!(rec.heap.pin_object(ObjectId(0)).value, 2);
        assert_eq!(rec.heap.pin_object(ObjectId(2)).value, 42);
        assert_eq!(rec.next_txn, 4);
        assert!(
            checkpoint::load_latest(&dir).unwrap().is_none(),
            "legacy checkpoints deleted after migration"
        );
        // The resident recovery must now refuse this directory.
        let err = recover::recover(&dir, &catalog(4)).unwrap_err();
        assert!(err.to_string().contains("recover_paged"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_in_paged_mode() {
        let dir = tempdir("prec-torn");
        {
            let rec = recover_paged(&dir, &catalog(2), &small_cfg()).unwrap();
            let wal = Wal::open(&dir, rec.next_seq, WalOptions::default()).unwrap();
            for i in 1..=3u64 {
                let seq = wal.append_commit(TxnId(i), ts(i), 0, &[(ObjectId(0), i as i64)]);
                wal.sync_to(seq);
            }
        }
        let (path, _) = crate::wal::list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 2).unwrap();
        drop(f);

        let rec = recover_paged(&dir, &catalog(2), &small_cfg()).unwrap();
        assert!(rec.torn_tail);
        assert_eq!(rec.replayed, 2, "torn record 3 must not replay");
        assert_eq!(rec.heap.pin_object(ObjectId(0)).value, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The bytes a fresh bootstrap writes, pinned. The benchmark's
    /// frozen `page_cache_under_pressure` hit band (0.75–0.85 on
    /// `paged_mixed`) is calibrated to this layout: any change to slot
    /// size or page packing moves the hit rate out of it, so the pager
    /// must keep writing these exact bytes.
    #[test]
    fn fresh_bootstrap_writes_the_pinned_layout() {
        let dir = tempdir("prec-golden");
        drop(recover_paged(&dir, &catalog(512), &small_cfg()).unwrap());
        let heap = fs::read(dir.join(file::HEAP_FILE)).unwrap();
        let (snap, _) = directory::list_snapshots(&dir).unwrap().pop().unwrap();
        let snap = fs::read(snap).unwrap();
        assert_eq!((heap.len(), crc32(&heap)), (262_144, 0x46ee_def9));
        assert_eq!((snap.len(), crc32(&snap)), (6_734, 0x7437_067b));
        let _ = fs::remove_dir_all(&dir);
    }

    /// `paged_mixed`'s database (`esr-tcpd --objects 60000 --value
    /// 5000`, default pager) is 5 000 logical pages: twenty times its
    /// 256-page cache. The benchmark's frozen hit band assumes exactly
    /// this ratio.
    #[test]
    fn paged_mixed_catalog_packs_into_5000_pages() {
        let dir = tempdir("prec-5000");
        let catalog = CatalogConfig {
            n_objects: 60_000,
            value_lo: 5_000,
            value_hi: 5_000,
            ..CatalogConfig::default()
        };
        let rec = recover_paged(&dir, &catalog, &PagerConfig::default()).unwrap();
        assert_eq!(rec.heap.logical_pages(), 5_000);
        drop(rec);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Log `n` commits, one per object `i % objects`, without touching
    /// any table: a crash now leaves them only in the WAL.
    fn log_commits(dir: &Path, first_seq: u64, n: u64, objects: u64) {
        let wal = Wal::open(dir, first_seq, WalOptions::default()).unwrap();
        for i in 0..n {
            let seq = first_seq + i;
            wal.append_commit(
                TxnId(seq),
                ts(seq + 10),
                i,
                &[(ObjectId((seq % objects) as u32), 9_000 + seq as i64)],
            );
            wal.sync_to(seq);
        }
    }

    #[test]
    fn resident_wal_without_a_checkpoint_migrates_with_every_record() {
        let dir = tempdir("prec-logonly");
        log_commits(&dir, 1, 20, 8);
        let rec = recover_paged(&dir, &catalog(8), &small_cfg()).unwrap();
        assert!(rec.had_state);
        assert_eq!(rec.replayed, 20);
        assert_eq!((rec.next_seq, rec.next_txn), (21, 21));
        assert_eq!(rec.max_ts_ticks, 30);
        for k in 0..8u64 {
            let last = 20 - (20 - k) % 8; // the newest seq with seq % 8 == k
            assert_eq!(
                rec.heap.pin_object(ObjectId(k as u32)).value,
                9_000 + last as i64
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupt_newest_checkpoint_falls_back_to_the_older_one() {
        let dir = tempdir("prec-ckpt-fallback");
        let table = ObjectTable::new(catalog(4).build_states());
        let commit = |wal: &Wal, i: u64| {
            let seq = wal.append_commit(TxnId(i), ts(i), 0, &[(ObjectId(0), 100 + i as i64)]);
            wal.sync_to(seq);
            let mut g = table.lock(ObjectId(0));
            g.apply_write(TxnId(i), ts(i), 100 + i as i64);
            assert!(g.commit_write(TxnId(i)));
        };
        let wal = Wal::open(&dir, 1, WalOptions::default()).unwrap();
        commit(&wal, 1);
        commit(&wal, 2);
        checkpoint::write_checkpoint(&dir, 2, 3, &mut checkpoint::snapshots(&table)).unwrap();
        let (older, _) = checkpoint::list_checkpoints(&dir).unwrap().pop().unwrap();
        let older_bytes = fs::read(&older).unwrap();
        commit(&wal, 3);
        // The newer checkpoint prunes the older one; put it back, then
        // damage the newer.
        checkpoint::write_checkpoint(&dir, 3, 4, &mut checkpoint::snapshots(&table)).unwrap();
        fs::write(&older, older_bytes).unwrap();
        let (newest, seq) = checkpoint::list_checkpoints(&dir).unwrap().pop().unwrap();
        assert_eq!(seq, 3);
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, bytes).unwrap();
        commit(&wal, 4);
        drop(wal);

        let rec = recover_paged(&dir, &catalog(4), &small_cfg()).unwrap();
        assert_eq!(rec.heap.base_seq(), 2, "the older checkpoint is the base");
        assert_eq!(rec.replayed, 2, "records 3 and 4 replay on top of it");
        assert_eq!(rec.heap.pin_object(ObjectId(0)).value, 104);
        assert_eq!(rec.next_txn, 5);
        assert!(checkpoint::list_checkpoints(&dir).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovering_twice_without_a_paged_checkpoint_replays_the_same_tail() {
        let dir = tempdir("prec-twice");
        log_commits(&dir, 1, 30, 16);
        let values = |rec: &PagedRecovered| -> Vec<_> {
            (0..16u32)
                .map(|i| {
                    let g = rec.heap.pin_object(ObjectId(i));
                    (g.value, g.committed_wts, g.history.len())
                })
                .collect()
        };
        let first = recover_paged(&dir, &catalog(16), &small_cfg()).unwrap();
        let (v1, r1) = (values(&first), first.replayed);
        drop(first);
        let second = recover_paged(&dir, &catalog(16), &small_cfg()).unwrap();
        assert!(second.had_state);
        assert_eq!(r1, 30);
        assert_eq!(second.replayed, r1);
        assert_eq!(values(&second), v1);
        let _ = fs::remove_dir_all(&dir);
    }
}
