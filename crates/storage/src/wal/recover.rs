//! Crash recovery: rebuild the committed database from the newest
//! valid checkpoint plus the log tail.
//!
//! The sequence is classic redo-only ARIES-lite, shaped by shadow
//! paging (nothing uncommitted ever reaches the log, so there is no
//! undo pass):
//!
//! 1. load the newest checkpoint that passes its checksum (corrupt or
//!    missing → older checkpoint → the catalog's pristine states);
//! 2. scan every segment in start-sequence order, **truncating** the
//!    first torn or corrupt record and everything after it in that
//!    file — those records were never acknowledged, because commit
//!    replies are gated on [`super::Wal::sync_to`];
//! 3. replay records with `seq` greater than the checkpoint's through
//!    the ordinary [`ObjectState::apply_write`] /
//!    [`ObjectState::commit_write`] machinery, so recovered objects are
//!    bit-for-bit what the live path would have produced;
//! 4. report the next transaction id (so retried `End`s resolve to
//!    `Unknown` rather than colliding with a reused id) and the largest
//!    recovered timestamp tick (so the restarted site clock can resume
//!    *above* every pre-crash timestamp instead of aborting forever).

use super::checkpoint::{self, Loaded};
use super::{decode_segment, list_segments, Tail, WalRecord};
use crate::catalog::CatalogConfig;
use crate::object::ObjectState;
use std::fs::{self, OpenOptions};
use std::io;
use std::path::Path;

/// The outcome of [`recover`]: everything a restarting server needs to
/// resume exactly where the crash left the *acknowledged* prefix.
#[derive(Debug)]
pub struct Recovered {
    /// The committed object states, in id order.
    pub states: Vec<ObjectState>,
    /// First transaction id the restarted kernel may assign.
    pub next_txn: u64,
    /// First log sequence number the restarted WAL will assign.
    pub next_seq: u64,
    /// Largest timestamp tick observed in the recovered state; the
    /// restarted clock must start above this.
    pub max_ts_ticks: u64,
    /// Redo records replayed on top of the base state.
    pub replayed: u64,
    /// Whether a torn tail was found (and truncated away).
    pub torn_tail: bool,
    /// Whether any durable state existed at all (false on first boot).
    pub had_state: bool,
}

/// Rebuild committed state from `dir`. When the directory holds no
/// durable state this returns the catalog's pristine database, so a
/// first boot and a restart share one code path.
pub fn recover(dir: impl AsRef<Path>, catalog: &CatalogConfig) -> io::Result<Recovered> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    remove_tmp_files(dir)?;
    if crate::pager::directory::any_snapshot(dir) {
        // A pager-built directory checkpoints pages, not object
        // snapshots; replaying its WAL tail over the catalog would
        // silently lose everything the directory snapshot covers.
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "data directory was built by the pager; recover with recover_paged",
        ));
    }

    let ckpt = checkpoint::load_latest(dir)?;
    let mut had_state = ckpt.is_some();
    let (mut states, base_seq, mut next_txn) = match ckpt {
        Some(Loaded {
            seq,
            next_txn,
            states,
        }) => (states, seq, next_txn.max(1)),
        None => (catalog.build_states(), 0, 1),
    };

    let scan = replay_segments(dir, base_seq, |rec| replay_record(&mut states, rec))?;
    had_state = had_state || scan.saw_bytes;
    next_txn = next_txn.max(scan.max_txn_plus_one);

    let max_state_ticks = states
        .iter()
        .flat_map(|s| {
            [
                s.committed_wts.ticks,
                s.max_query_rts.ticks,
                s.max_update_rts.ticks,
            ]
        })
        .max()
        .unwrap_or(0);

    Ok(Recovered {
        states,
        next_txn,
        next_seq: scan.last_seq + 1,
        max_ts_ticks: max_state_ticks.max(scan.max_record_ticks),
        replayed: scan.replayed,
        torn_tail: scan.torn_tail,
        had_state,
    })
}

/// Delete the debris of interrupted atomic writes (`.tmp` files).
pub(crate) fn remove_tmp_files(dir: &Path) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "tmp") {
            let _ = fs::remove_file(path);
        }
    }
    Ok(())
}

/// What one pass over the log segments found.
#[derive(Debug, Default)]
pub(crate) struct SegmentScan {
    /// Highest replayed sequence (== `base_seq` if nothing replayed).
    pub(crate) last_seq: u64,
    /// Records handed to `apply`.
    pub(crate) replayed: u64,
    /// A torn or corrupt tail was found (and truncated away).
    pub(crate) torn_tail: bool,
    /// Any segment held bytes at all.
    pub(crate) saw_bytes: bool,
    /// Largest timestamp tick among replayed records.
    pub(crate) max_record_ticks: u64,
    /// One past the largest replayed transaction id.
    pub(crate) max_txn_plus_one: u64,
}

/// Scan every segment in order, truncate torn tails, and hand each
/// record with `seq > base_seq` to `apply`. Shared by the resident and
/// the paged recovery paths.
pub(crate) fn replay_segments(
    dir: &Path,
    base_seq: u64,
    mut apply: impl FnMut(&WalRecord),
) -> io::Result<SegmentScan> {
    let mut scan = SegmentScan {
        last_seq: base_seq,
        ..SegmentScan::default()
    };
    for (path, _start) in list_segments(dir)? {
        let bytes = fs::read(&path)?;
        if !bytes.is_empty() {
            scan.saw_bytes = true;
        }
        let (records, tail) = decode_segment(&bytes);
        if let Tail::Torn { valid_bytes } = tail {
            // Those bytes were never acknowledged: commit replies wait
            // for the fsync watermark. Truncate so the file is clean if
            // we crash again before writing anything new.
            scan.torn_tail = true;
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(valid_bytes)?;
            f.sync_all()?;
        }
        for rec in records {
            if rec.seq <= base_seq {
                // A crash can land between checkpoint publication and
                // old-segment pruning; the checkpoint already covers
                // these records.
                continue;
            }
            assert!(
                rec.seq > scan.last_seq,
                "wal sequence regressed: {} after {}",
                rec.seq,
                scan.last_seq
            );
            scan.last_seq = rec.seq;
            scan.max_record_ticks = scan.max_record_ticks.max(rec.ts.ticks);
            scan.max_txn_plus_one = scan.max_txn_plus_one.max(rec.txn.0 + 1);
            apply(&rec);
            scan.replayed += 1;
        }
    }
    Ok(scan)
}

/// Apply one redo record through the live write machinery.
fn replay_record(states: &mut [ObjectState], rec: &WalRecord) {
    for &(oid, value) in &rec.writes {
        let state = states
            .get_mut(oid.0 as usize)
            .unwrap_or_else(|| panic!("wal record touches unknown object {oid:?}"));
        debug_assert_eq!(state.id, oid);
        state.apply_write(rec.txn, rec.ts, value);
        let committed = state.commit_write(rec.txn);
        debug_assert!(committed, "replayed write must commit");
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::tempdir;
    use super::super::{DurabilitySink, Wal, WalOptions};
    use super::*;
    use crate::wal::checkpoint::snapshots;
    use crate::ObjectTable;
    use esr_clock::Timestamp;
    use esr_core::ids::{ObjectId, SiteId, TxnId};

    fn catalog(n: u32) -> CatalogConfig {
        CatalogConfig {
            n_objects: n,
            ..CatalogConfig::default()
        }
    }

    fn ts(t: u64) -> Timestamp {
        Timestamp::new(t, SiteId(1))
    }

    #[test]
    fn fresh_directory_recovers_to_the_catalog() {
        let dir = tempdir("rec-fresh");
        let rec = recover(&dir, &catalog(16)).unwrap();
        assert!(!rec.had_state);
        assert!(!rec.torn_tail);
        assert_eq!(rec.next_txn, 1);
        assert_eq!(rec.next_seq, 1);
        assert_eq!(rec.replayed, 0);
        let expect: Vec<_> = catalog(16).build_states();
        assert_eq!(rec.states.len(), 16);
        for (got, want) in rec.states.iter().zip(&expect) {
            assert_eq!(got.value, want.value);
            assert_eq!(got.oil, want.oil);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_only_recovery_replays_every_committed_write() {
        let dir = tempdir("rec-log");
        {
            let wal = Wal::open(&dir, 1, WalOptions::default()).unwrap();
            for i in 1..=10u64 {
                let seq = wal.append_commit(
                    TxnId(i),
                    ts(i * 10),
                    i,
                    &[(ObjectId((i % 4) as u32), 1_000_000 + i as i64)],
                );
                wal.sync_to(seq);
            }
        }
        let rec = recover(&dir, &catalog(4)).unwrap();
        assert!(rec.had_state);
        assert_eq!(rec.replayed, 10);
        assert_eq!(rec.next_seq, 11);
        assert_eq!(rec.next_txn, 11);
        assert_eq!(rec.max_ts_ticks, 100);
        // Object 2 last written by txn 10 (10 % 4 == 2).
        assert_eq!(rec.states[2].value, 1_000_010);
        assert_eq!(rec.states[2].committed_wts, ts(100));
        // History rings hold the replayed writes.
        assert!(!rec.states[2].history.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_acknowledged_prefix_survives() {
        let dir = tempdir("rec-torn");
        {
            let wal = Wal::open(&dir, 1, WalOptions::default()).unwrap();
            for i in 1..=5u64 {
                let seq = wal.append_commit(TxnId(i), ts(i), 0, &[(ObjectId(0), i as i64)]);
                wal.sync_to(seq);
            }
        }
        // Tear the last record by hand: drop the final 3 bytes.
        let (path, _) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let rec = recover(&dir, &catalog(1)).unwrap();
        assert!(rec.torn_tail);
        assert_eq!(rec.replayed, 4, "torn record 5 must not replay");
        assert_eq!(rec.states[0].value, 4);
        assert_eq!(rec.next_seq, 5, "seq 5 was lost and may be reassigned");

        // Second recovery sees a clean file (the tail was truncated).
        let rec2 = recover(&dir, &catalog(1)).unwrap();
        assert!(!rec2.torn_tail);
        assert_eq!(rec2.replayed, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_plus_tail_skips_records_the_checkpoint_covers() {
        let dir = tempdir("rec-ckpt");
        let table = ObjectTable::new(catalog(2).build_states());
        let wal = Wal::open(&dir, 1, WalOptions::default()).unwrap();
        // Two committed writes, both logged and applied.
        for i in 1..=2u64 {
            let seq = wal.append_commit(TxnId(i), ts(i), 0, &[(ObjectId(0), 100 + i as i64)]);
            wal.sync_to(seq);
            let mut g = table.lock(ObjectId(0));
            g.apply_write(TxnId(i), ts(i), 100 + i as i64);
            g.commit_write(TxnId(i));
        }
        // Checkpoint covering seq 2; segments rotate and prune.
        wal.write_checkpoint(2, 3, &mut snapshots(&table)).unwrap();
        // One more commit after the checkpoint.
        let seq = wal.append_commit(TxnId(3), ts(3), 0, &[(ObjectId(1), 555)]);
        wal.sync_to(seq);
        drop(wal);

        let rec = recover(&dir, &catalog(2)).unwrap();
        assert_eq!(rec.replayed, 1, "only the post-checkpoint record replays");
        assert_eq!(rec.states[0].value, 102);
        assert_eq!(rec.states[1].value, 555);
        assert_eq!(rec.next_txn, 4);
        assert_eq!(rec.next_seq, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_checkpoint_and_prune_does_not_double_apply() {
        let dir = tempdir("rec-dup");
        let table = ObjectTable::new(catalog(1).build_states());
        {
            let wal = Wal::open(&dir, 1, WalOptions::default()).unwrap();
            let seq = wal.append_commit(TxnId(1), ts(1), 0, &[(ObjectId(0), 42)]);
            wal.sync_to(seq);
            let mut g = table.lock(ObjectId(0));
            g.apply_write(TxnId(1), ts(1), 42);
            g.commit_write(TxnId(1));
        }
        // Simulate "checkpoint published, prune never ran": write the
        // checkpoint file directly, leaving the covering segment behind.
        checkpoint::write_checkpoint(&dir, 1, 2, &mut snapshots(&table)).unwrap();
        let rec = recover(&dir, &catalog(1)).unwrap();
        assert_eq!(rec.replayed, 0, "covered record must be skipped");
        assert_eq!(rec.states[0].value, 42);
        assert_eq!(
            rec.states[0].history.newest().ts,
            ts(1),
            "no duplicate history entry"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_injector_kills_the_process_mid_record() {
        // The injector calls process::abort, so exercise it in a
        // subprocess: re-run this test binary with a marker env var.
        if std::env::var_os("ESR_WAL_TORN_CHILD").is_some() {
            let dir = std::env::var("ESR_WAL_TORN_DIR").unwrap();
            let wal = Wal::open(
                &dir,
                1,
                WalOptions {
                    torn_write_after: Some(3),
                },
            )
            .unwrap();
            for i in 1..=3u64 {
                let seq = wal.append_commit(TxnId(i), ts(i), 0, &[(ObjectId(0), i as i64)]);
                wal.sync_to(seq); // never returns for i == 3
            }
            unreachable!("the injector must have aborted");
        }

        let dir = tempdir("rec-inject");
        let exe = std::env::current_exe().unwrap();
        let status = std::process::Command::new(exe)
            .args([
                "wal::recover::tests::torn_write_injector_kills_the_process_mid_record",
                "--exact",
                "--nocapture",
            ])
            .env("ESR_WAL_TORN_CHILD", "1")
            .env("ESR_WAL_TORN_DIR", &dir)
            .status()
            .unwrap();
        assert!(!status.success(), "child must die at the torn write");

        let rec = recover(&dir, &catalog(1)).unwrap();
        assert!(rec.torn_tail, "half-written record is a torn tail");
        assert_eq!(rec.replayed, 2, "acked records 1..=2 survive");
        assert_eq!(rec.states[0].value, 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
