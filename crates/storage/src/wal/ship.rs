//! Log shipping support: read durable records back off disk for
//! replication, and persist the small replication *epoch* that fences
//! a resurrected primary.
//!
//! The replication hub streams the WAL to subscribers. Recent records
//! come from its in-memory cache; a subscriber behind the cache is
//! served by one forward pass over the on-disk segments through
//! [`stream_records_from`]. Segments are pruned at checkpoints, so a
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
use super::{list_segments, SegmentReader, WalRecord};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

/// Name of the persisted replication-epoch file inside a data dir.
const EPOCH_FILE: &str = "epoch.esr";

/// Stream every durable record with `from_seq <= seq <= upto` off the
/// on-disk segments to `each`, in sequence order, in one forward pass:
/// each segment that can hold part of the range is opened once and
/// decoded through a fixed buffer as it is read, so the caller holds
/// only what it keeps of the records it is handed. An error from `each`
/// ends the pass and is returned.
///
/// Returns the number of segment files read, or `None` when the range
/// is no longer fully on disk (the records up to some checkpoint were
/// pruned): the caller must fall back to a snapshot. Records already
/// handed to `each` by then are a valid prefix of the range.
///
/// Reading races benignly with the live flusher: records at the tail
/// that are mid-write decode as a torn tail and end the segment, which
/// is fine because the caller only asks for `upto <=` the durable
/// watermark — everything below it is fully written and fsynced.
pub fn stream_records_from(
    dir: impl AsRef<Path>,
    from_seq: u64,
    upto: u64,
    each: &mut dyn FnMut(WalRecord) -> io::Result<()>,
) -> io::Result<Option<u64>> {
    if from_seq > upto {
        return Ok(Some(0));
    }
    let segments = list_segments(dir.as_ref())?;
    // Segment files are named by the first sequence number they can
    // contain; after a prune at checkpoint seq C every surviving file
    // starts at C+1 or later. If the oldest surviving start is past
    // `from_seq`, the range was pruned.
    match segments.first() {
        Some((_, oldest_start)) if *oldest_start <= from_seq => {}
        _ => return Ok(None),
    }
    // A segment holds records below the next one's start, so every
    // segment before the last one starting at or below `from_seq` lies
    // wholly below the range.
    let first = segments
        .iter()
        .rposition(|(_, start)| *start <= from_seq)
        .expect("the oldest segment starts at or below from_seq");
    let mut next = from_seq;
    let mut read = 0u64;
    for (path, start) in &segments[first..] {
        if *start > upto || next > upto {
            break;
        }
        // A segment deleted between listing and reading was pruned
        // under us; the gap check below converts that into `None`.
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        read += 1;
        let mut records = SegmentReader::new(BufReader::with_capacity(SEGMENT_READ_BUF, file));
        while let Some(rec) = records.next_record()? {
            if rec.seq < next {
                continue;
            }
            if rec.seq > upto {
                break;
            }
            if rec.seq != next {
                // A hole below the durable watermark means the range
                // is not reconstructible from disk anymore.
                return Ok(None);
            }
            next += 1;
            each(rec)?;
        }
    }
    Ok((next > upto).then_some(read))
}

/// Read buffer of one cold segment pass.
const SEGMENT_READ_BUF: usize = 64 << 10;

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

    /// The seqs one pass hands over, with the segment files it read.
    fn stream(dir: &Path, from: u64, upto: u64) -> Option<(Vec<u64>, u64)> {
        let mut seqs = Vec::new();
        let read = stream_records_from(dir, from, upto, &mut |r| {
            seqs.push(r.seq);
            Ok(())
        })
        .unwrap();
        read.map(|n| (seqs, n))
    }

    fn append(wal: &Wal, seqs: std::ops::RangeInclusive<u64>) {
        let last = *seqs.end();
        for i in seqs {
            wal.append_commit(TxnId(i), ts(i), 0, &[(ObjectId(0), i as i64)]);
        }
        assert!(wal.sync_to(last));
    }

    #[test]
    fn reads_back_the_durable_range() {
        let dir = tempdir("ship-read");
        let wal = Wal::open(&dir, 1, WalOptions::default()).unwrap();
        append(&wal, 1..=5);
        assert_eq!(stream(&dir, 2, 4), Some((vec![2, 3, 4], 1)));
        assert_eq!(stream(&dir, 6, 5), Some((vec![], 0)));
        // Beyond what exists on disk: not reconstructible.
        assert_eq!(stream(&dir, 4, 9), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_pass_reads_each_segment_of_the_range_once() {
        let dir = tempdir("ship-segments");
        // Three incarnations of the log: segments starting at 1, 4, 7.
        for (start, end) in [(1, 3), (4, 6), (7, 9)] {
            let wal = Wal::open(&dir, start, WalOptions::default()).unwrap();
            append(&wal, start..=end);
        }
        assert_eq!(list_segments(&dir).unwrap().len(), 3);
        assert_eq!(stream(&dir, 2, 8), Some(((2..=8).collect(), 3)));
        // A range starting in the middle segment skips the one below it,
        // and one ending there leaves the one above it unopened.
        assert_eq!(stream(&dir, 5, 9), Some(((5..=9).collect(), 2)));
        assert_eq!(stream(&dir, 4, 5), Some((vec![4, 5], 1)));
        // The caller's error ends the pass.
        let mut handed = 0;
        let err = stream_records_from(&dir, 1, 9, &mut |_| {
            handed += 1;
            Err(io::Error::other("peer went away"))
        });
        assert!(err.is_err());
        assert_eq!(handed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruned_range_reports_none() {
        let dir = tempdir("ship-pruned");
        let wal = Wal::open(&dir, 1, WalOptions::default()).unwrap();
        append(&wal, 1..=2);
        // Checkpoint-style prune: everything appended so far is covered,
        // later appends land in the fresh segment.
        wal.prune_segments(2).unwrap();
        append(&wal, 3..=4);
        assert_eq!(stream(&dir, 1, 4), None);
        assert_eq!(stream(&dir, 3, 4), Some((vec![3, 4], 1)));
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
