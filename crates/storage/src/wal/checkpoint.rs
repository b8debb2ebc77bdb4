//! Checkpoints: periodic snapshots of committed object state that
//! bound recovery time and let the log be pruned.
//!
//! A checkpoint captures, per object, everything recovery needs that
//! redo records cannot rebuild: the committed value, the committed /
//! read high-water timestamps, the history ring (for proper-value
//! lookups after restart), and the object limits. Volatile state —
//! uncommitted writers and registered query readers — is deliberately
//! *not* captured: the transactions owning it die with the process,
//! and a restarted client's retried `End` is answered `Unknown`.
//!
//! The kernel quiesces commits (its commit gate) before snapshotting,
//! so the uncommitted-writer slot may be occupied but can never be
//! mid-commit: the snapshot takes the **shadow** value in that case,
//! which is exactly the committed state.
//!
//! ## On-disk format
//!
//! `checkpoint-<seq>.esrck` = 8-byte magic, a CRC-32 of the payload,
//! then the [`esr_core::codec`] encoding of the struct
//! `{ seq: u64, next_txn: u64, objects: Vec<ObjectSnapshot> }`:
//!
//! ```text
//! +----------+--------------+-------------------------------------------+
//! | ESRCKPT1 | crc32 u32 LE | map(3) "seq" u64 "next_txn" u64           |
//! |          |              | "objects" seq(n) ObjectSnapshot × n       |
//! +----------+--------------+-------------------------------------------+
//! ```
//!
//! ## Streaming
//!
//! The table is the largest message this program ever encodes, so it is
//! never built as one value in either direction. [`write_checkpoint`]
//! emits the headers by hand and then encodes one [`ObjectSnapshot`] at
//! a time into a buffer it empties every [`FLUSH_BYTES`], folding the
//! bytes into a rolling CRC as they go to the file, and patches the CRC
//! in at the end. [`load_latest`] checks the CRC in one pass over the file and
//! decodes in a second, one object subtree at a time through a window
//! of [`WINDOW_BYTES`], straight into [`ObjectState`]s. Neither side
//! allocates in proportion to the number of objects (the recovered
//! state vector aside), whatever the ring depth: a checkpoint costs the
//! process twice [`FLUSH_BYTES`], a restart the recovered table plus
//! [`WINDOW_BYTES`]. The bytes are exactly `codec::to_bytes` of the
//! struct above — the format has one version and one writer.
//!
//! Atomicity comes from the write path, not the format: the file is
//! assembled under a `.tmp` name, fsynced, renamed into place, and the
//! directory fsynced; a failed write removes its `.tmp`. Recovery
//! ignores `.tmp` leftovers and skips any checkpoint whose checksum
//! fails, falling back to the next older one (or the catalog).

use super::Crc32;
use crate::history::HistoryRing;
use crate::object::ObjectState;
use crate::table::ObjectTable;
use esr_clock::Timestamp;
use esr_core::bounds::Limit;
use esr_core::codec::{self, CodecError};
use esr_core::ids::ObjectId;
use esr_core::value::Value;
use serde::{Deserialize, Serialize};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"ESRCKPT1";

/// Bytes before the payload: magic, then the payload's CRC-32.
const HEADER_BYTES: usize = 12;

/// The writer hands its buffer to the file whenever an object leaves it
/// at least this full. The buffer is allocated at twice this, so an
/// object of up to [`FLUSH_BYTES`] never makes it grow.
const FLUSH_BYTES: usize = 64 << 10;

/// The reader's window over the file: refilled to this size whenever
/// fewer than [`LOW_WATER_BYTES`] remain undecoded in it.
const WINDOW_BYTES: usize = 256 << 10;
const LOW_WATER_BYTES: usize = WINDOW_BYTES / 4;

/// Largest encoding of one object either side accepts (about a thousand
/// times a 20-deep ring). The writer refuses to produce what the reader
/// would refuse to load; the reader stops widening its window here, so
/// a corrupt length cannot make it swallow the file.
const MAX_OBJECT_BYTES: usize = 1 << 20;

/// Durable per-object state at checkpoint time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectSnapshot {
    /// The object's id.
    pub id: ObjectId,
    /// The committed value (the shadow, if an uncommitted writer held
    /// the slot when the snapshot was taken).
    pub value: Value,
    /// Timestamp of the newest committed write.
    pub committed_wts: Timestamp,
    /// Query-read high-water mark.
    pub max_query_rts: Timestamp,
    /// Update-read high-water mark.
    pub max_update_rts: Timestamp,
    /// The proper-value history ring, including its intactness flag.
    pub history: HistoryRing,
    /// Object import limit.
    pub oil: Limit,
    /// Object export limit.
    pub oel: Limit,
}

impl ObjectSnapshot {
    /// Capture one object's committed state.
    pub fn capture(state: &ObjectState) -> Self {
        let value = match &state.uncommitted {
            Some(u) => u.shadow,
            None => state.value,
        };
        ObjectSnapshot {
            id: state.id,
            value,
            committed_wts: state.committed_wts,
            max_query_rts: state.max_query_rts,
            max_update_rts: state.max_update_rts,
            history: state.history.clone(),
            oil: state.oil,
            oel: state.oel,
        }
    }

    /// Rebuild a live object from this snapshot. The uncommitted slot
    /// and reader set start empty: their owners did not survive the
    /// restart.
    pub fn restore(self) -> ObjectState {
        ObjectState {
            id: self.id,
            value: self.value,
            committed_wts: self.committed_wts,
            max_query_rts: self.max_query_rts,
            max_update_rts: self.max_update_rts,
            history: self.history,
            uncommitted: None,
            readers: Vec::new(),
            oil: self.oil,
            oel: self.oel,
        }
    }
}

/// Snapshot every object of the table in id order, one at a time as the
/// iterator is advanced: each step takes that object's lock, captures
/// it and lets go. The caller must have quiesced commits (the kernel's
/// commit gate) for as long as it drains the iterator, so the
/// per-object snapshots compose into a consistent committed state.
pub fn snapshots(table: &ObjectTable) -> impl ExactSizeIterator<Item = ObjectSnapshot> + '_ {
    (0..table.len()).map(|i| ObjectSnapshot::capture(&table.lock(ObjectId(i as u32))))
}

fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq:020}.esrck"))
}

/// The payload up to the first object: the struct's map header, its two
/// scalar fields, and the header of the `objects` sequence.
fn put_preamble(out: &mut Vec<u8>, seq: u64, next_txn: u64, n_objects: usize) {
    codec::put_map_header(out, 3);
    codec::put_key(out, "seq");
    codec::encode_into(&seq, out);
    codec::put_key(out, "next_txn");
    codec::encode_into(&next_txn, out);
    codec::put_key(out, "objects");
    codec::put_seq_header(out, n_objects);
}

/// [`put_preamble`] read back: `(seq, next_txn, claimed object count)`.
fn take_preamble(buf: &[u8], pos: &mut usize) -> Result<(u64, u64, usize), CodecError> {
    let expect = |ok: bool| {
        ok.then_some(())
            .ok_or_else(|| CodecError("not a checkpoint".into()))
    };
    expect(codec::take_map_header(buf, pos)? == 3)?;
    expect(codec::take_key(buf, pos)? == "seq")?;
    let seq = codec::decode_next(buf, pos)?;
    expect(codec::take_key(buf, pos)? == "next_txn")?;
    let next_txn = codec::decode_next(buf, pos)?;
    expect(codec::take_key(buf, pos)? == "objects")?;
    Ok((seq, next_txn, codec::take_seq_header(buf, pos)?))
}

/// Write a checkpoint covering everything up to `seq` atomically: tmp
/// file, fsync, rename, directory fsync; then delete older checkpoints.
/// `objects` is drained one snapshot at a time (see the module docs).
/// Returns the size of the file. On any error the `.tmp` is removed —
/// a disk that is full must not get fuller by one table image per
/// attempt.
pub(crate) fn write_checkpoint(
    dir: &Path,
    seq: u64,
    next_txn: u64,
    objects: &mut dyn ExactSizeIterator<Item = ObjectSnapshot>,
) -> io::Result<u64> {
    let final_path = checkpoint_path(dir, seq);
    let tmp_path = final_path.with_extension("esrck.tmp");
    let written = stream_to(&tmp_path, seq, next_txn, objects).and_then(|bytes| {
        fs::rename(&tmp_path, &final_path)?;
        Ok(bytes)
    });
    if written.is_err() {
        let _ = fs::remove_file(&tmp_path);
    }
    let bytes = written?;
    // The rename itself must be durable before the old checkpoint (and
    // the segments it covers) may be deleted.
    File::open(dir)?.sync_all()?;
    for (path, older) in list_checkpoints(dir)? {
        if older < seq {
            let _ = fs::remove_file(path);
        }
    }
    Ok(bytes)
}

/// Stream one whole checkpoint file to `path` and fsync it.
fn stream_to(
    path: &Path,
    seq: u64,
    next_txn: u64,
    objects: &mut dyn ExactSizeIterator<Item = ObjectSnapshot>,
) -> io::Result<u64> {
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(path)?;
    let n_objects = objects.len();
    let mut buf = Vec::with_capacity(2 * FLUSH_BYTES);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&[0; 4]); // the CRC, patched in below
    put_preamble(&mut buf, seq, next_txn, n_objects);

    let mut crc = Crc32::new();
    let mut total = 0u64;
    // The CRC does not cover the header, which leads the first flush.
    let mut uncovered = HEADER_BYTES;
    let mut flush = |buf: &mut Vec<u8>| -> io::Result<()> {
        crc.update(&buf[std::mem::take(&mut uncovered)..]);
        file.write_all(buf)?;
        total += buf.len() as u64;
        buf.clear();
        Ok(())
    };
    let mut count = 0usize;
    for object in objects {
        let start = buf.len();
        codec::encode_into(&object, &mut buf);
        if buf.len() - start > MAX_OBJECT_BYTES {
            return Err(invalid(format!(
                "object {} encodes to {} bytes; a checkpoint holds at most {MAX_OBJECT_BYTES} per object",
                object.id,
                buf.len() - start
            )));
        }
        count += 1;
        if buf.len() >= FLUSH_BYTES {
            flush(&mut buf)?;
        }
    }
    if count != n_objects {
        return Err(invalid(format!(
            "checkpoint source announced {n_objects} objects and yielded {count}"
        )));
    }
    flush(&mut buf)?;
    file.seek(SeekFrom::Start(MAGIC.len() as u64))?;
    file.write_all(&crc.finish().to_le_bytes())?;
    file.sync_all()?;
    Ok(total)
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// All checkpoint files in `dir`, sorted oldest-first by sequence.
pub(crate) fn list_checkpoints(dir: &Path) -> io::Result<Vec<(PathBuf, u64)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(seq) = name
            .strip_prefix("checkpoint-")
            .and_then(|r| r.strip_suffix(".esrck"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((path, seq));
        }
    }
    out.sort_by_key(|(_, s)| *s);
    Ok(out)
}

/// Delete every checkpoint file in `dir`. Called once after migrating
/// a resident-mode directory to the pager, whose directory snapshot
/// supersedes them, and before installing a shipped snapshot.
pub(crate) fn remove_all(dir: &Path) -> io::Result<()> {
    for (path, _) in list_checkpoints(dir)? {
        let _ = fs::remove_file(path);
    }
    Ok(())
}

/// A checkpoint read back: replaying records with `seq > self.seq` on
/// top of `states` reproduces the committed database.
#[derive(Debug)]
pub(crate) struct Loaded {
    /// Highest log sequence number the checkpoint covers.
    pub(crate) seq: u64,
    /// The kernel's next transaction id at checkpoint time; restored so
    /// post-recovery transactions can never reuse a pre-crash id.
    pub(crate) next_txn: u64,
    /// Every object, restored, in id order.
    pub(crate) states: Vec<ObjectState>,
}

/// Load the newest checkpoint that passes validation, silently
/// skipping corrupt or unreadable ones (an interrupted write leaves
/// only a `.tmp`, which is never listed; a damaged file falls back to
/// the next older checkpoint or, ultimately, the catalog).
pub(crate) fn load_latest(dir: &Path) -> io::Result<Option<Loaded>> {
    let mut candidates = list_checkpoints(dir)?;
    candidates.reverse(); // newest first
    Ok(candidates.iter().find_map(|(path, _)| load(path)))
}

/// A sliding window over a checkpoint file's payload, so that decoding
/// never holds more of the file than [`WINDOW_BYTES`] (one oversized
/// object aside).
struct Window {
    file: File,
    buf: Vec<u8>,
    /// Start of the undecoded bytes in `buf`.
    pos: usize,
    /// Payload bytes still in the file, after what `buf` holds.
    unread: u64,
}

impl Window {
    /// Payload bytes not yet decoded, in the window and in the file.
    fn undecoded(&self) -> u64 {
        (self.buf.len() - self.pos) as u64 + self.unread
    }

    /// Make at least `want` undecoded bytes available, or all there is.
    fn fill(&mut self, want: usize) -> io::Result<()> {
        let have = self.buf.len() - self.pos;
        if have >= want || self.unread == 0 {
            return Ok(());
        }
        self.buf.drain(..self.pos);
        self.pos = 0;
        let room = want.max(WINDOW_BYTES) - have;
        let take = usize::try_from(self.unread).map_or(room, |u| u.min(room));
        self.buf.resize(have + take, 0);
        self.file.read_exact(&mut self.buf[have..])?;
        self.unread -= take as u64;
        Ok(())
    }

    /// Decode the next element. A failure with more of the file to come
    /// may only mean the element straddles the window's end, so widen
    /// the window and try again — up to [`MAX_OBJECT_BYTES`], after
    /// which the failure is the file's.
    fn next<T>(
        &mut self,
        decode: impl Fn(&[u8], &mut usize) -> Result<T, CodecError>,
    ) -> Option<T> {
        let mut want = LOW_WATER_BYTES;
        loop {
            self.fill(want).ok()?;
            let mut end = self.pos;
            match decode(&self.buf, &mut end) {
                Ok(value) => {
                    self.pos = end;
                    return Some(value);
                }
                Err(_) if self.unread > 0 && want < MAX_OBJECT_BYTES => want *= 2,
                Err(_) => return None,
            }
        }
    }
}

/// Read one checkpoint file; `None` for anything but a file this
/// module's writer produced, whole.
fn load(path: &Path) -> Option<Loaded> {
    let mut file = File::open(path).ok()?;
    let payload_len = file
        .metadata()
        .ok()?
        .len()
        .checked_sub(HEADER_BYTES as u64)?;
    let mut header = [0u8; HEADER_BYTES];
    file.read_exact(&mut header).ok()?;
    let (magic, crc) = header.split_at(MAGIC.len());
    if magic != MAGIC {
        return None;
    }

    // Pass one: the checksum, before a single length in the payload is
    // believed.
    let mut seen = Crc32::new();
    io::copy(&mut file, &mut seen).ok()?;
    if seen.finish().to_le_bytes() != crc {
        return None;
    }

    // Pass two: decode through the window.
    file.seek(SeekFrom::Start(HEADER_BYTES as u64)).ok()?;
    let mut window = Window {
        file,
        buf: Vec::new(),
        pos: 0,
        unread: payload_len,
    };
    let (seq, next_txn, n_objects) = window.next(take_preamble)?;
    // An object costs far more than a byte, so a count beyond the bytes
    // left is forged; an honest one is still only trusted for a bounded
    // reservation.
    if n_objects as u64 > window.undecoded() {
        return None;
    }
    let mut states = Vec::with_capacity(n_objects.min(codec::MAX_PREALLOC));
    for i in 0..n_objects {
        let object: ObjectSnapshot = window.next(codec::decode_next)?;
        if object.id.index() != i {
            return None; // the table indexes by id: dense and in order
        }
        states.push(object.restore());
    }
    (window.undecoded() == 0).then_some(Loaded {
        seq,
        next_txn,
        states,
    })
}

#[cfg(test)]
mod tests {
    use super::super::crc32;
    use super::super::tests::tempdir;
    use super::*;
    use crate::catalog::CatalogConfig;
    use esr_core::ids::{SiteId, TxnId};

    /// The checkpoint as one value, the way it was encoded before the
    /// writer streamed: `codec::to_bytes` of this struct *is* the
    /// payload format, and the tests below hold the streamed bytes to
    /// it.
    #[derive(Serialize)]
    struct Checkpoint {
        seq: u64,
        next_txn: u64,
        objects: Vec<ObjectSnapshot>,
    }

    /// The whole file, by the expression the one-shot writer used.
    fn one_shot_file(seq: u64, next_txn: u64, table: &ObjectTable) -> Vec<u8> {
        let payload = codec::to_bytes(&Checkpoint {
            seq,
            next_txn,
            objects: snapshots(table).collect(),
        });
        [&MAGIC[..], &crc32(&payload).to_le_bytes(), &payload].concat()
    }

    /// Checkpoint `table` as the kernel does: streamed from the live
    /// table.
    fn write_table(dir: &Path, seq: u64, next_txn: u64, table: &ObjectTable) -> io::Result<u64> {
        write_checkpoint(dir, seq, next_txn, &mut snapshots(table))
    }

    fn ts(t: u64) -> Timestamp {
        Timestamp::new(t, SiteId(1))
    }

    fn commit(table: &ObjectTable, id: u32, txn: u64, value: Value) {
        let mut g = table.lock(ObjectId(id));
        g.apply_write(TxnId(txn), ts(txn), value);
        assert!(g.commit_write(TxnId(txn)));
    }

    /// Eight objects, one in each state a snapshot has to get right:
    /// 0 committed once, 1 with an in-flight write (shadow taken),
    /// 2 written past its ring's depth (oldest entries evicted, no
    /// longer intact), the rest pristine.
    fn sample_table() -> ObjectTable {
        let table = CatalogConfig {
            n_objects: 8,
            history_depth: 4,
            ..CatalogConfig::default()
        }
        .build();
        commit(&table, 0, 1, 4321);
        table.lock(ObjectId(1)).apply_write(TxnId(2), ts(11), 7777); // left uncommitted
        for i in 0..9 {
            commit(&table, 2, 10 + i, 100 + i as Value);
        }
        table
    }

    fn loaded_snapshots(loaded: &Loaded) -> Vec<ObjectSnapshot> {
        loaded.states.iter().map(ObjectSnapshot::capture).collect()
    }

    #[test]
    fn snapshot_takes_shadow_for_uncommitted_writers() {
        let table = sample_table();
        let objects: Vec<_> = snapshots(&table).collect();
        assert_eq!(objects[0].value, 4321);
        let pristine = CatalogConfig {
            n_objects: 8,
            ..CatalogConfig::default()
        }
        .build();
        assert_eq!(
            objects[1].value,
            pristine.lock(ObjectId(1)).value,
            "uncommitted write must not leak into the snapshot"
        );
        let restored = objects[1].clone().restore();
        assert!(restored.uncommitted.is_none());
        assert!(restored.readers.is_empty());
    }

    #[test]
    fn checkpoint_round_trips_through_disk() {
        let dir = tempdir("ckpt-rt");
        let table = sample_table();
        write_table(&dir, 42, 3, &table).unwrap();
        let back = load_latest(&dir).unwrap().expect("checkpoint present");
        assert_eq!((back.seq, back.next_txn), (42, 3));
        assert_eq!(
            loaded_snapshots(&back),
            snapshots(&table).collect::<Vec<_>>()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The format is pinned: the streamed file is, byte for byte, the
    /// file the one-shot expression produces — for the small table with
    /// a committed, an in-flight and a ring-evicted object, for a table
    /// that takes many buffer flushes, and for objects larger than the
    /// buffer — and its reported size is the file's.
    #[test]
    fn streamed_file_is_byte_identical_to_the_one_shot_encoding() {
        let many = CatalogConfig {
            n_objects: 3000,
            ..CatalogConfig::default()
        }
        .build();
        for i in 0..3000 {
            commit(&many, i, 1 + u64::from(i), Value::from(i) - 1500);
        }
        let deep = CatalogConfig {
            n_objects: 3,
            history_depth: 4000,
            ..CatalogConfig::default()
        }
        .build();
        for i in 0..4000 {
            commit(&deep, 1, 1 + i, i as Value);
        }
        for (tag, table) in [("small", sample_table()), ("many", many), ("deep", deep)] {
            let dir = tempdir("ckpt-pin");
            let bytes = write_table(&dir, 42, 3, &table).unwrap();
            let file = fs::read(checkpoint_path(&dir, 42)).unwrap();
            assert_eq!(bytes, file.len() as u64, "{tag}");
            assert!(
                file == one_shot_file(42, 3, &table),
                "{tag}: streamed bytes differ from the one-shot encoding"
            );
            let back = load_latest(&dir).unwrap().expect(tag);
            assert_eq!(
                loaded_snapshots(&back),
                snapshots(&table).collect::<Vec<_>>()
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// A file written by the one-shot expression — any data directory
    /// the parent commit left behind — loads through the streaming
    /// reader.
    #[test]
    fn file_written_by_the_old_expression_loads() {
        let dir = tempdir("ckpt-old");
        let table = sample_table();
        fs::write(checkpoint_path(&dir, 7), one_shot_file(7, 9, &table)).unwrap();
        let back = load_latest(&dir).unwrap().expect("old file loads");
        assert_eq!((back.seq, back.next_txn), (7, 9));
        assert_eq!(
            loaded_snapshots(&back),
            snapshots(&table).collect::<Vec<_>>()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn newer_checkpoint_replaces_older_and_prunes_it() {
        let dir = tempdir("ckpt-rotate");
        let table = sample_table();
        write_table(&dir, 42, 3, &table).unwrap();
        write_table(&dir, 99, 17, &table).unwrap();
        assert_eq!(list_checkpoints(&dir).unwrap().len(), 1);
        let back = load_latest(&dir).unwrap().unwrap();
        assert_eq!((back.seq, back.next_txn), (99, 17));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_older_valid_one() {
        let dir = tempdir("ckpt-corrupt");
        write_table(&dir, 42, 3, &sample_table()).unwrap();
        // Forge a "newer" checkpoint with a bad checksum by hand (the
        // pruning in write_checkpoint would otherwise delete the old
        // one, which is exactly why pruning happens only after a
        // *valid* write).
        let mut bytes = fs::read(checkpoint_path(&dir, 42)).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        fs::write(checkpoint_path(&dir, 100), &bytes).unwrap();
        let back = load_latest(&dir).unwrap().expect("older survives");
        assert_eq!(back.seq, 42);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Hostile bytes, exhaustively for a small file: cut it at every
    /// offset and flip every bit. The loader never panics and always
    /// falls back to the older valid checkpoint.
    #[test]
    fn every_truncation_and_bit_flip_falls_back_to_the_older_checkpoint() {
        let dir = tempdir("ckpt-hostile");
        write_table(&dir, 42, 3, &sample_table()).unwrap();
        let good = fs::read(checkpoint_path(&dir, 42)).unwrap();
        let newer = checkpoint_path(&dir, 100);
        let survives = |bytes: &[u8], what: &str| {
            fs::write(&newer, bytes).unwrap();
            let back = load_latest(&dir).unwrap().expect("older survives");
            assert_eq!(back.seq, 42, "{what}");
        };
        for cut in 0..good.len() {
            survives(&good[..cut], &format!("cut at {cut}"));
        }
        let mut bytes = good.clone();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                bytes[i] ^= 1 << bit;
                survives(&bytes, &format!("bit {bit} of byte {i}"));
                bytes[i] ^= 1 << bit;
            }
        }
        // And the untouched copy is the one that loads.
        fs::write(&newer, &good).unwrap();
        assert_eq!(load_latest(&dir).unwrap().unwrap().seq, 42);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Forgeries that *pass* the checksum: lengths and shapes a hostile
    /// or buggy writer could claim. Each is refused, and none makes the
    /// reader reserve what the claim says.
    #[test]
    fn checksummed_forgeries_are_refused_without_trusting_their_lengths() {
        let dir = tempdir("ckpt-forged");
        let table = sample_table();
        let objects: Vec<u8> = snapshots(&table)
            .flat_map(|o| codec::to_bytes(&o))
            .collect();
        let file = |payload: &[u8]| [&MAGIC[..], &crc32(payload).to_le_bytes(), payload].concat();
        let with_count = |n: usize, tail: &[u8]| {
            let mut p = Vec::new();
            put_preamble(&mut p, 5, 6, n);
            p.extend_from_slice(&objects);
            p.extend_from_slice(tail);
            file(&p)
        };
        let path = checkpoint_path(&dir, 5);
        let refused = |bytes: Vec<u8>, what: &str| {
            fs::write(&path, bytes).unwrap();
            assert!(load_latest(&dir).unwrap().is_none(), "{what}");
        };
        // The honest file, assembled the same way, loads.
        fs::write(&path, with_count(8, &[])).unwrap();
        assert_eq!(load_latest(&dir).unwrap().expect("honest").states.len(), 8);

        refused(with_count(usize::MAX, &[]), "count of usize::MAX");
        refused(with_count(1 << 40, &[]), "count far beyond the file");
        refused(with_count(9, &[]), "one object more than present");
        refused(with_count(7, &[]), "one object fewer: trailing bytes");
        refused(with_count(8, &[0]), "a trailing byte");
        // Objects out of id order.
        let mut swapped = Vec::new();
        put_preamble(&mut swapped, 5, 6, 8);
        let mut snaps: Vec<_> = snapshots(&table).collect();
        snaps.swap(3, 4);
        for o in &snaps {
            codec::encode_into(o, &mut swapped);
        }
        refused(file(&swapped), "ids out of order");
        // A key whose length runs off the end, a preamble of the wrong
        // shape, and an empty payload.
        let mut long_key = Vec::new();
        codec::put_map_header(&mut long_key, 3);
        long_key.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
        refused(file(&long_key), "key length beyond the file");
        refused(file(&codec::to_bytes(&(5u64, 6u64))), "not a checkpoint");
        refused(file(&[]), "empty payload");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A failed write must not leave its `.tmp` behind: with a new name
    /// every five seconds a full disk would otherwise get fuller by one
    /// table image per attempt.
    #[test]
    fn failed_write_removes_its_tmp_and_keeps_the_older_checkpoint() {
        let dir = tempdir("ckpt-fail");
        let table = sample_table();
        write_table(&dir, 42, 3, &table).unwrap();
        // The rename target exists as a non-empty directory, so the
        // rename — the last step that can fail — does.
        let target = checkpoint_path(&dir, 50);
        fs::create_dir(&target).unwrap();
        fs::write(target.join("occupied"), b"x").unwrap();
        write_table(&dir, 50, 4, &table).expect_err("rename onto a directory");
        // So does an object source that yields fewer than it announced
        // — the first step that can.
        struct Short(u32);
        impl Iterator for Short {
            type Item = ObjectSnapshot;
            fn next(&mut self) -> Option<ObjectSnapshot> {
                None
            }
        }
        impl ExactSizeIterator for Short {
            fn len(&self) -> usize {
                self.0 as usize
            }
        }
        write_checkpoint(&dir, 60, 4, &mut Short(3)).expect_err("short source");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&target).unwrap();
        assert_eq!(load_latest(&dir).unwrap().expect("older survives").seq, 42);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_alien_files_are_ignored() {
        let dir = tempdir("ckpt-alien");
        fs::write(checkpoint_path(&dir, 5), b"ESR").unwrap(); // truncated
        fs::write(dir.join("checkpoint-junk.esrck"), b"?").unwrap(); // unparsable seq
        fs::write(dir.join("notes.txt"), b"hello").unwrap();
        assert!(load_latest(&dir).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
