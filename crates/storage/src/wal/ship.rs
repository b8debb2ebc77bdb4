//! Log shipping support: read durable records back off disk for
//! replication, and persist the small replication *epoch* that fences
//! a resurrected primary.
//!
//! The replication hub streams the WAL to subscribers. Recent records
//! come from its in-memory cache; a subscriber that reconnects from an
//! old watermark is served by re-reading the on-disk segments through
//! [`read_records_from`]. Segments are pruned at checkpoints, so a
//! sufficiently stale watermark may no longer be on disk — that case
//! returns `None` and the hub falls back to shipping a full snapshot,
//! installed on the replica side via [`install_snapshot_dir`].
//!
//! The epoch file (`epoch.esr`) holds one `u64`. A primary serves the
//! log under its persisted epoch; promotion bumps it. Subscribers
//! persist the highest epoch they have followed and refuse streams
//! from any lower one, which is what makes a SIGKILLed-and-resurrected
//! old primary harmless: its epoch is stale, so no replica applies its
//! records (see DESIGN.md §16).
//!
//! Everything here does file I/O and therefore lives in the WAL
//! module, the one sanctioned I/O site (`wal-io` lint).

use super::checkpoint::{self, ObjectSnapshot};
use super::recover::remove_tmp_files;
use super::{decode_segment, list_segments, WalRecord};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// Name of the persisted replication-epoch file inside a data dir.
const EPOCH_FILE: &str = "epoch.esr";

/// Read every durable record with `from_seq <= seq <= upto` back from
/// the on-disk segments, in sequence order.
///
/// Returns `None` when the requested range is no longer fully on disk
/// (the records up to some checkpoint were pruned): the caller must
/// fall back to a snapshot. An empty `Vec` is the normal answer when
/// `from_seq > upto` (nothing to read yet).
///
/// Reading races benignly with the live flusher: records at the tail
/// that are mid-write decode as a torn tail and are skipped, which is
/// fine because the caller only asks for `upto <=` the durable
/// watermark — everything below it is fully written and fsynced.
pub fn read_records_from(
    dir: impl AsRef<Path>,
    from_seq: u64,
    upto: u64,
) -> io::Result<Option<Vec<WalRecord>>> {
    let dir = dir.as_ref();
    if from_seq > upto {
        return Ok(Some(Vec::new()));
    }
    let segments = list_segments(dir)?;
    // Segment files are named by the first sequence number they can
    // contain; after a prune at checkpoint seq C every surviving file
    // starts at C+1 or later. If the oldest surviving start is past
    // `from_seq`, the range was pruned.
    match segments.first() {
        Some((_, oldest_start)) if *oldest_start > from_seq => return Ok(None),
        Some(_) => {}
        None => return Ok(None),
    }
    let mut out = Vec::new();
    let mut next = from_seq;
    for (path, start) in segments {
        if start > upto {
            break;
        }
        // A segment deleted between listing and reading was pruned
        // under us; the gap check below converts that into `None`.
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        let (records, _tail) = decode_segment(&bytes);
        for rec in records {
            if rec.seq < next {
                continue;
            }
            if rec.seq > upto {
                return Ok(Some(out));
            }
            if rec.seq != next {
                // A hole below the durable watermark means the range
                // is not reconstructible from disk anymore.
                return Ok(None);
            }
            out.push(rec);
            next += 1;
        }
    }
    if next <= upto {
        return Ok(None);
    }
    Ok(Some(out))
}

/// Read the persisted replication epoch, `0` when none was written.
pub fn read_epoch(dir: impl AsRef<Path>) -> io::Result<u64> {
    let path = dir.as_ref().join(EPOCH_FILE);
    let mut buf = String::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_string(&mut buf)?;
            buf.trim()
                .parse()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{path:?}: {e}")))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(e),
    }
}

/// Persist the replication epoch atomically (write-tmp, fsync, rename).
pub fn write_epoch(dir: impl AsRef<Path>, epoch: u64) -> io::Result<()> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("{EPOCH_FILE}.tmp"));
    let path = dir.join(EPOCH_FILE);
    {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        writeln!(f, "{epoch}")?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    // Make the rename itself durable.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Replace a replica's durable state with a shipped snapshot: delete
/// every WAL segment and checkpoint, then persist `objects` as a
/// checkpoint covering `seq`, the new base. The caller re-runs its
/// normal recovery afterwards (which sees exactly a freshly
/// checkpointed directory) and resubscribes from `seq + 1`.
///
/// The epoch file is left alone — fencing state must survive a
/// snapshot install.
pub fn install_snapshot_dir(
    dir: impl AsRef<Path>,
    seq: u64,
    next_txn: u64,
    objects: Vec<ObjectSnapshot>,
) -> io::Result<()> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    remove_tmp_files(dir)?;
    for (path, _) in list_segments(dir)? {
        let _ = fs::remove_file(path);
    }
    checkpoint::remove_all(dir)?;
    checkpoint::write_checkpoint(dir, seq, next_txn, &mut objects.into_iter()).map(drop)
}

#[cfg(test)]
mod tests {
    use super::super::tests::tempdir;
    use super::super::{DurabilitySink, Wal, WalOptions};
    use super::*;
    use crate::catalog::CatalogConfig;
    use crate::wal::recover;
    use esr_clock::Timestamp;
    use esr_core::ids::{ObjectId, SiteId, TxnId};

    fn ts(t: u64) -> Timestamp {
        Timestamp::new(t, SiteId(1))
    }

    #[test]
    fn reads_back_the_durable_range() {
        let dir = tempdir("ship-read");
        let wal = Wal::open(&dir, 1, WalOptions::default()).unwrap();
        for i in 1..=5u64 {
            wal.append_commit(TxnId(i), ts(i), 0, &[(ObjectId(0), i as i64)]);
        }
        wal.sync_to(5);
        let recs = read_records_from(&dir, 2, 4).unwrap().unwrap();
        assert_eq!(recs.iter().map(|r| r.seq).collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(read_records_from(&dir, 6, 5).unwrap().unwrap(), []);
        // Beyond what exists on disk: not reconstructible.
        assert_eq!(read_records_from(&dir, 4, 9).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruned_range_reports_none() {
        let dir = tempdir("ship-pruned");
        let wal = Wal::open(&dir, 1, WalOptions::default()).unwrap();
        for i in 1..=2u64 {
            wal.append_commit(TxnId(i), ts(i), 0, &[(ObjectId(0), i as i64)]);
        }
        wal.sync_to(2);
        // Checkpoint-style prune: everything appended so far is covered,
        // later appends land in the fresh segment.
        wal.prune_segments(2).unwrap();
        for i in 3..=4u64 {
            wal.append_commit(TxnId(i), ts(i), 0, &[(ObjectId(0), i as i64)]);
        }
        wal.sync_to(4);
        assert_eq!(read_records_from(&dir, 1, 4).unwrap(), None);
        let recs = read_records_from(&dir, 3, 4).unwrap().unwrap();
        assert_eq!(recs.iter().map(|r| r.seq).collect::<Vec<_>>(), [3, 4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_round_trips_and_defaults_to_zero() {
        let dir = tempdir("ship-epoch");
        assert_eq!(read_epoch(&dir).unwrap(), 0);
        write_epoch(&dir, 7).unwrap();
        assert_eq!(read_epoch(&dir).unwrap(), 7);
        write_epoch(&dir, 8).unwrap();
        assert_eq!(read_epoch(&dir).unwrap(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_install_resets_the_directory() {
        let dir = tempdir("ship-install");
        let wal = Wal::open(&dir, 1, WalOptions::default()).unwrap();
        for i in 1..=3u64 {
            wal.append_commit(TxnId(i), ts(i), 0, &[(ObjectId(0), i as i64)]);
        }
        wal.sync_to(3);
        wal.shutdown();
        drop(wal);
        write_epoch(&dir, 2).unwrap();
        let catalog = CatalogConfig {
            n_objects: 2,
            value_lo: 50,
            value_hi: 50,
            ..CatalogConfig::default()
        };
        let states = catalog.build_states();
        let objects = states.iter().map(ObjectSnapshot::capture).collect();
        install_snapshot_dir(&dir, 9, 10, objects).unwrap();
        let rec = recover(&dir, &catalog).unwrap();
        assert_eq!(rec.next_seq, 10);
        assert_eq!(rec.next_txn, 10);
        assert_eq!(rec.replayed, 0);
        // The fencing epoch survives the wipe.
        assert_eq!(read_epoch(&dir).unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
