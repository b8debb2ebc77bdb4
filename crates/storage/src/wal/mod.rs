//! Write-ahead log: redo-only durability underneath the object table.
//!
//! The shadow-paging design (§6) admits at most one uncommitted writer
//! per object and publishes values to the history ring only at commit,
//! so the commit-time ring append is the natural redo record: one
//! [`WalRecord`] per committed *update* transaction, carrying the
//! transaction id, its commit timestamp, every `(object, value)` it
//! installed, and the inconsistency it exported. Queries and aborts
//! leave no durable trace — a query modifies nothing, and an abort
//! restores the shadow value *before* anything was logged.
//!
//! ## On-disk format
//!
//! Segment files `wal-<startseq>.esrlog` hold length-prefixed,
//! checksummed records:
//!
//! ```text
//! +-------------+--------------+---------------------+
//! | len: u32 LE | crc32: u32 LE| payload: len bytes  |
//! +-------------+--------------+---------------------+
//! ```
//!
//! The payload is the [`esr_core::codec`] encoding of a [`WalRecord`] —
//! the same self-describing bytes the wire protocol speaks, so the log
//! is readable with the transport's tooling. A reader stops at the
//! first record whose length prefix is implausible, whose checksum
//! fails, or whose bytes are truncated: that is the *torn tail* of a
//! crash mid-write, and recovery truncates it (those records were never
//! acknowledged — the server gates every commit reply on
//! [`Wal::sync_to`]).
//!
//! ## Group commit
//!
//! [`Wal::append_commit`] only encodes into an in-memory buffer and
//! returns a sequence number; a dedicated flusher thread swaps the
//! buffer out, writes it, and issues **one** fsync for every record
//! that accumulated while the previous fsync was in flight. Committing
//! workers block in [`Wal::sync_to`] until the flusher's durable
//! watermark passes their record — many commits, one disk round trip.
//!
//! This module (and its submodules) is the only place in the
//! determinism-bearing crates allowed to perform file I/O; the
//! `wal-io` lint in `esr-analysis` enforces that boundary.

pub mod checkpoint;
pub mod recover;
pub mod ship;

pub use checkpoint::{snapshots, ObjectSnapshot};
pub use recover::{recover, Recovered};
pub use ship::{install_snapshot_dir, read_epoch, stream_records_from, write_epoch};

use esr_clock::Timestamp;
use esr_core::codec;
use esr_core::ids::{ObjectId, TxnId};
use esr_core::value::Value;
use esr_obs::HistogramSnapshot;
use serde::{Deserialize, Serialize};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Upper bound on one record's payload, mirroring the wire frame cap: a
/// corrupt length prefix must not trigger an unbounded allocation.
pub const MAX_RECORD: u32 = 1 << 20;

/// One redo record: everything a committed update transaction
/// installed, in the order it was installed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Monotonic log sequence number (1-based, dense).
    pub seq: u64,
    /// The committing transaction.
    pub txn: TxnId,
    /// Its commit timestamp.
    pub ts: Timestamp,
    /// Total inconsistency the transaction exported (the ledger's
    /// final figure), journaled so recovered histories keep their
    /// epsilon accounting.
    pub exported: u64,
    /// The values installed, one entry per written object.
    pub writes: Vec<(ObjectId, Value)>,
}

/// The durability interface the kernel drives. `esr-tso` holds an
/// `Arc<dyn DurabilitySink>` so tests (and the deterministic simulator)
/// can substitute an in-memory fake for the real [`Wal`].
pub trait DurabilitySink: Send + Sync {
    /// Journal one committed update; returns its sequence number.
    fn append_commit(
        &self,
        txn: TxnId,
        ts: Timestamp,
        exported: u64,
        writes: &[(ObjectId, Value)],
    ) -> u64;
    /// Block until every record up to `seq` is durable, and say whether
    /// it became so: `false` once the log has failed or been shut down
    /// short of `seq`, and nothing will ever make it durable.
    fn sync_to(&self, seq: u64) -> bool;
    /// Highest sequence number handed out so far.
    fn appended_seq(&self) -> u64;
    /// Highest sequence number known durable, without waiting: the
    /// pager writes back only pages whose newest install this covers.
    /// Default: [`appended_seq`](DurabilitySink::appended_seq), for
    /// in-memory sinks whose records are "durable" once appended.
    fn durable_seq(&self) -> u64 {
        self.appended_seq()
    }
    /// Persist a checkpoint covering every record up to `seq` and
    /// rotate/prune segments. `objects` yields every object in id order
    /// and is drained one snapshot at a time — feed it from the live
    /// table ([`snapshots`]) under whatever lock quiesces commits; no
    /// copy of the table is ever assembled.
    fn write_checkpoint(
        &self,
        seq: u64,
        next_txn: u64,
        objects: &mut dyn ExactSizeIterator<Item = ObjectSnapshot>,
    ) -> io::Result<()>;
    /// The paged checkpoint path, *instead of* [`write_checkpoint`]:
    /// run `write` — which persists a durable snapshot of everything up
    /// to `upto` and returns the bytes it wrote — timed into the same
    /// checkpoint series, then rotate to a fresh segment and delete the
    /// segments the snapshot covers. Default: just `write`, for
    /// in-memory sinks without segmented storage.
    ///
    /// [`write_checkpoint`]: DurabilitySink::write_checkpoint
    fn checkpoint_with(
        &self,
        _upto: u64,
        write: &mut dyn FnMut() -> io::Result<u64>,
    ) -> io::Result<()> {
        write().map(drop)
    }
    /// Everything the sink reports about itself, in one call (see
    /// [`SinkReport`]). Default: nothing, for in-memory sinks.
    fn report(&self) -> SinkReport {
        SinkReport::default()
    }
    /// Flush everything pending and stop background work. Idempotent.
    fn shutdown_sink(&self);
}

/// What a [`DurabilitySink`] reports about itself: the scalars a
/// `ServerStats` snapshot carries at its top level (wire format, so
/// they cannot nest) and every distribution the sink declares.
#[derive(Debug, Clone, Default)]
pub struct SinkReport {
    /// Total bytes appended to the log by this process.
    pub wal_bytes: u64,
    /// Recoveries performed (0 on a fresh boot, 1 after a restart that
    /// found durable state).
    pub recoveries: u64,
    /// Whether the log has failed for good (a write or fsync error):
    /// no later commit will ever be reported durable.
    pub failed: bool,
    /// The sink's histograms under their declared names
    /// ([`WalHistograms::HISTOGRAMS`] for a [`Wal`]).
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

esr_obs::histograms! {
    /// The distributions a [`Wal`] measures.
    pub struct WalHistograms {
        /// One `fdatasync` of the log segment by the group-commit flusher,
        /// in microseconds.
        fsync_micros = "fsync_micros",
        /// Time spent writing one checkpoint, in microseconds — commits
        /// are quiesced for all of it (the kernel's commit gate on a
        /// primary, the engine lock on a replica).
        checkpoint_micros = "checkpoint_micros",
        /// Bytes each checkpoint wrote: the checkpoint file, or a paged
        /// heap's dirty pages plus its directory snapshot.
        checkpoint_bytes = "checkpoint_bytes",
    }
}

/// Fault-injection knobs, used by the crash tests and `esr-tcpd`'s
/// hidden `--wal-torn-after` flag.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalOptions {
    /// When `Some(n)`: the flusher writes only *half* of record `n`'s
    /// bytes, fsyncs that torn prefix, and aborts the process — a
    /// deterministic stand-in for losing power mid-write.
    pub torn_write_after: Option<u64>,
}

/// The current segment file.
struct Segment {
    file: File,
}

/// Append state: records encoded but not yet handed to the flusher.
struct Pending {
    /// Encoded frames awaiting the flusher. *Not* necessarily in seq
    /// order: sequence numbers are reserved atomically before encoding,
    /// so a fast encoder can push seq 7 before a slow one pushes 6. The
    /// flusher reorders; on-disk order is always seq order.
    frames: Vec<(u64, Vec<u8>)>,
    /// Set by [`Wal::shutdown`]; the flusher drains and exits.
    stopping: bool,
}

struct Shared {
    dir: PathBuf,
    /// Highest seq ever reserved. Reservation is a lock-free
    /// `fetch_add`, so record encoding happens *outside* the pending
    /// lock — under load, committers serialize only on a vector push.
    appended: AtomicU64,
    pending: Mutex<Pending>,
    /// Signals the flusher that work (or shutdown) arrived.
    work: Condvar,
    /// Durable watermark: every record with `seq <=` this survived an
    /// fsync.
    flushed: Mutex<u64>,
    /// Signals committers waiting in [`Wal::sync_to`].
    flushed_cv: Condvar,
    /// The open segment; its lock serializes file writes against
    /// checkpoint-time rotation.
    segment: Mutex<Segment>,
    bytes: AtomicU64,
    recoveries: AtomicU64,
    /// Latched by the flusher when a write or fsync fails; it then
    /// exits, so the durable watermark never moves again.
    failed: AtomicBool,
    hist: WalHistograms,
    torn_write_after: Option<u64>,
}

/// The write-ahead log handle. Cloneable via `Arc`; owns the group-
/// commit flusher thread, which [`Wal::shutdown`] (or drop) joins.
pub struct Wal {
    shared: Arc<Shared>,
    flusher: Mutex<Option<JoinHandle<()>>>,
    stopped: AtomicBool,
}

/// Lock helper: this crate's WAL must survive a panicking peer thread
/// (poisoning would otherwise wedge every later commit).
fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Wal {
    /// Open (or create) the log in `dir`, with `next_seq` the first
    /// sequence number this incarnation will assign — callers obtain it
    /// from [`recover`], which also truncates any torn tail left by a
    /// crash. A fresh segment file is started; prior segments stay
    /// until the next checkpoint prunes them.
    pub fn open(dir: impl Into<PathBuf>, next_seq: u64, opts: WalOptions) -> io::Result<Wal> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let segment = open_segment(&dir, next_seq)?;
        let shared = Arc::new(Shared {
            dir,
            appended: AtomicU64::new(next_seq.saturating_sub(1)),
            pending: Mutex::new(Pending {
                frames: Vec::new(),
                stopping: false,
            }),
            work: Condvar::new(),
            flushed: Mutex::new(next_seq.saturating_sub(1)),
            flushed_cv: Condvar::new(),
            segment: Mutex::new(segment),
            bytes: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            hist: WalHistograms::default(),
            torn_write_after: opts.torn_write_after,
        });
        let flusher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("esr-wal-flush".into())
                .spawn(move || flusher_loop(&shared))
                .expect("spawn wal flusher")
        };
        Ok(Wal {
            shared,
            flusher: Mutex::new(Some(flusher)),
            stopped: AtomicBool::new(false),
        })
    }

    /// Record that this log was opened by a recovery from existing
    /// durable state (drives the `esr_recoveries` gauge).
    pub fn note_recovery(&self) {
        self.shared.recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Rotate to a fresh segment for post-checkpoint appends, then
    /// delete the segments whose records a durable snapshot of
    /// everything up to `upto` covers.
    pub(crate) fn prune_segments(&self, upto: u64) -> io::Result<()> {
        let mut seg = lock(&self.shared.segment);
        let fresh = open_segment(&self.shared.dir, upto + 1)?;
        let _old = std::mem::replace(&mut *seg, fresh);
        drop(seg);
        for (path, start) in list_segments(&self.shared.dir)? {
            if start <= upto {
                let _ = fs::remove_file(path);
            }
        }
        Ok(())
    }

    /// Flush everything pending, stop the flusher, and join it.
    /// Idempotent; also run by drop.
    pub fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut p = lock(&self.shared.pending);
            p.stopping = true;
            self.shared.work.notify_all();
        }
        if let Some(h) = lock(&self.flusher).take() {
            let _ = h.join();
        }
        // Wake any committer still parked in sync_to (its record is
        // either durable by now or was never flushed before shutdown).
        self.shared.flushed_cv.notify_all();
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.shared.dir)
            .field("appended", &self.appended_seq())
            .field("bytes", &self.shared.bytes)
            .finish()
    }
}

impl DurabilitySink for Wal {
    fn append_commit(
        &self,
        txn: TxnId,
        ts: Timestamp,
        exported: u64,
        writes: &[(ObjectId, Value)],
    ) -> u64 {
        // Reserve the sequence number lock-free, then encode outside
        // the pending lock: concurrent committers serialize only on the
        // final vector push, not on serialization work.
        //
        // A reserved seq MUST reach the pending buffer: the flusher
        // writes records in dense seq order, so a permanent gap (a
        // committer panicking mid-encode) would park the reorder map
        // forever and wedge every later commit and checkpoint. The
        // guard plugs the hole on unwind with an empty tombstone
        // record — a no-op for recovery (no writes to replay), but it
        // keeps the on-disk sequence dense and the flusher moving.
        struct Reservation<'a> {
            shared: &'a Shared,
            seq: u64,
            txn: TxnId,
            ts: Timestamp,
            armed: bool,
        }
        impl Drop for Reservation<'_> {
            fn drop(&mut self) {
                if !self.armed {
                    return;
                }
                let frame = encode_record(&WalRecord {
                    seq: self.seq,
                    txn: self.txn,
                    ts: self.ts,
                    exported: 0,
                    writes: Vec::new(),
                });
                self.shared
                    .bytes
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
                let mut p = lock(&self.shared.pending);
                p.frames.push((self.seq, frame));
                drop(p);
                self.shared.work.notify_all();
            }
        }
        let seq = self.shared.appended.fetch_add(1, Ordering::AcqRel) + 1;
        let mut guard = Reservation {
            shared: &self.shared,
            seq,
            txn,
            ts,
            armed: true,
        };
        let frame = encode_record(&WalRecord {
            seq,
            txn,
            ts,
            exported,
            writes: writes.to_vec(),
        });
        guard.armed = false;
        self.shared
            .bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        let mut p = lock(&self.shared.pending);
        p.frames.push((seq, frame));
        drop(p);
        self.shared.work.notify_all();
        seq
    }

    fn sync_to(&self, seq: u64) -> bool {
        let mut durable = lock(&self.shared.flushed);
        while *durable < seq {
            // A latched failure (announced under this lock by `fail`) or
            // a shutdown: nothing more will flush.
            if self.shared.failed.load(Ordering::SeqCst) || self.stopped.load(Ordering::SeqCst) {
                return false;
            }
            let (guard, _) = self
                .shared
                .flushed_cv
                .wait_timeout(durable, std::time::Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            durable = guard;
        }
        true
    }

    fn appended_seq(&self) -> u64 {
        self.shared.appended.load(Ordering::Acquire)
    }

    fn durable_seq(&self) -> u64 {
        *lock(&self.shared.flushed)
    }

    fn write_checkpoint(
        &self,
        seq: u64,
        next_txn: u64,
        objects: &mut dyn ExactSizeIterator<Item = ObjectSnapshot>,
    ) -> io::Result<()> {
        // The caller (the kernel's checkpoint entry point) holds the
        // commit gate, so no appends are in flight; drain what's left.
        self.checkpoint_with(seq, &mut || {
            let head = self.appended_seq();
            if !self.sync_to(head) {
                return Err(not_durable(head));
            }
            checkpoint::write_checkpoint(&self.shared.dir, seq, next_txn, &mut *objects)
        })
    }

    fn checkpoint_with(
        &self,
        upto: u64,
        write: &mut dyn FnMut() -> io::Result<u64>,
    ) -> io::Result<()> {
        let t0 = Instant::now();
        let bytes = write()?;
        // Everything logged so far is covered by the checkpoint.
        self.prune_segments(upto)?;
        self.shared.hist.checkpoint_bytes.record(bytes);
        self.shared
            .hist
            .checkpoint_micros
            .record_duration(t0.elapsed());
        Ok(())
    }

    fn report(&self) -> SinkReport {
        SinkReport {
            wal_bytes: self.shared.bytes.load(Ordering::Relaxed),
            recoveries: self.shared.recoveries.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::SeqCst),
            histograms: self.shared.hist.snapshots(),
        }
    }

    fn shutdown_sink(&self) {
        self.shutdown();
    }
}

/// How long a *busy* flusher lingers for straggling commits before it
/// fsyncs: commits that arrive inside the window share the disk round
/// trip instead of waiting a whole extra fsync. Idle appends (nothing
/// else accumulated since the last flush) skip the window entirely, so
/// a lone commit still hits the platter immediately.
const GROUP_WINDOW: std::time::Duration = std::time::Duration::from_micros(150);

/// The group-commit loop: drain the pending buffer into a reorder map,
/// write the contiguous seq prefix, one fsync, publish the durable
/// watermark, repeat.
///
/// The reorder map absorbs the append path's race: sequence numbers are
/// reserved before encoding, so frames can arrive out of order, but a
/// record may only be written once every *earlier* record is on disk —
/// the durable watermark (and recovery's strictly-increasing scan)
/// requires on-disk order to be seq order. A gap parks its successors
/// in the map; the missing frame's committer is mid-`append_commit` and
/// delivers it promptly — or, if it panics mid-encode, its unwind guard
/// delivers an empty tombstone record for the reserved seq, so a gap is
/// always transient.
fn flusher_loop(shared: &Shared) {
    let mut next_to_write = *lock(&shared.flushed) + 1;
    let mut reorder: std::collections::BTreeMap<u64, Vec<u8>> = std::collections::BTreeMap::new();
    let mut last_batch_len = 0usize;
    loop {
        let stopping = {
            let mut p = lock(&shared.pending);
            loop {
                reorder.extend(p.frames.drain(..));
                if p.stopping || reorder.contains_key(&next_to_write) {
                    break;
                }
                p = shared.work.wait(p).unwrap_or_else(PoisonError::into_inner);
            }
            p.stopping
        };
        if last_batch_len >= 2 && !stopping {
            // Busy: commits are arriving faster than fsyncs complete.
            // Linger briefly so stragglers board this batch.
            std::thread::sleep(GROUP_WINDOW);
            let mut p = lock(&shared.pending);
            reorder.extend(p.frames.drain(..));
        }
        let mut batch: Vec<(u64, Vec<u8>)> = Vec::new();
        while let Some(frame) = reorder.remove(&next_to_write) {
            batch.push((next_to_write, frame));
            next_to_write += 1;
        }
        last_batch_len = batch.len();
        if batch.is_empty() {
            if stopping {
                // Drained (any residue after a gap belongs to a
                // committer that died mid-append: never acknowledged).
                return;
            }
            continue;
        }
        let last_seq = batch.last().map(|(s, _)| *s).expect("non-empty batch");
        {
            let mut seg = lock(&shared.segment);
            for (seq, frame) in &batch {
                if shared.torn_write_after == Some(*seq) {
                    // Crash injection: half the record reaches the
                    // platter, then the process dies mid-fsync.
                    let _ = seg.file.write_all(&frame[..frame.len() / 2]);
                    let _ = seg.file.sync_data();
                    std::process::abort();
                }
                if let Err(e) = seg.file.write_all(frame) {
                    return fail(shared, "write", *seq, &e);
                }
            }
            let t0 = Instant::now();
            if let Err(e) = seg.file.sync_data() {
                return fail(shared, "fdatasync", last_seq, &e);
            }
            shared.hist.fsync_micros.record_duration(t0.elapsed());
        }
        {
            let mut durable = lock(&shared.flushed);
            *durable = last_seq;
            shared.flushed_cv.notify_all();
        }
    }
}

/// The flusher's exit on an I/O error. A full or failing disk is fatal
/// for a redo log — better to stop acknowledging commits than to ack
/// and lose — but it must not be quiet: say why, once, latch the flag
/// `Stats` and `/metrics` report as `wal_failed`, and release every
/// committer parked in [`Wal::sync_to`] with "not durable". The latch is
/// set under the watermark lock, so no waiter can check it and then
/// sleep through the wake-up.
fn fail(shared: &Shared, what: &str, seq: u64, e: &io::Error) {
    eprintln!(
        "esr-wal: {what} failed at record {seq} in {}: {e}; \
         no further commit will be acknowledged",
        shared.dir.display()
    );
    let _durable = lock(&shared.flushed);
    shared.failed.store(true, Ordering::SeqCst);
    shared.flushed_cv.notify_all();
}

/// The error for work that needed every record up to `seq` durable and
/// found the log failed or shut down short of it.
pub fn not_durable(seq: u64) -> io::Error {
    io::Error::other(format!(
        "write-ahead log failed or stopped before record {seq} was durable"
    ))
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

/// Encode one record with its length prefix and checksum.
fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let payload = codec::to_bytes(rec);
    assert!(
        payload.len() as u64 <= MAX_RECORD as u64,
        "wal record exceeds {MAX_RECORD} bytes"
    );
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// How a segment scan ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tail {
    /// EOF landed exactly on a record boundary.
    Clean,
    /// The bytes from `valid_bytes` on are a torn or corrupt record;
    /// recovery truncates the file there.
    Torn { valid_bytes: u64 },
}

/// Decodes a segment's records one at a time from any byte source,
/// holding only the record in hand: the payload buffer is reused, and
/// it grows with the bytes that actually arrive, never ahead of them on
/// the word of a length prefix.
pub(crate) struct SegmentReader<R> {
    src: R,
    /// Bytes of complete, checksummed records read so far.
    valid_bytes: u64,
    payload: Vec<u8>,
}

impl<R: Read> SegmentReader<R> {
    pub(crate) fn new(src: R) -> Self {
        SegmentReader {
            src,
            valid_bytes: 0,
            payload: Vec::new(),
        }
    }

    /// The next complete, checksummed record; `None` at the end of the
    /// source or at the first torn or corrupt record, which
    /// [`SegmentReader::valid_bytes`] then marks.
    pub(crate) fn next_record(&mut self) -> io::Result<Option<WalRecord>> {
        let mut head = [0u8; 8];
        match self.src.read_exact(&mut head) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
        if len > MAX_RECORD {
            return Ok(None);
        }
        self.payload.clear();
        (&mut self.src)
            .take(u64::from(len))
            .read_to_end(&mut self.payload)?;
        if self.payload.len() != len as usize || crc32(&self.payload) != crc {
            return Ok(None);
        }
        match codec::from_bytes::<WalRecord>(&self.payload) {
            Ok(rec) => {
                self.valid_bytes += 8 + u64::from(len);
                Ok(Some(rec))
            }
            Err(_) => Ok(None),
        }
    }

    /// Bytes of complete, checksummed records read so far: where a torn
    /// tail begins, once [`SegmentReader::next_record`] has said `None`.
    pub(crate) fn valid_bytes(&self) -> u64 {
        self.valid_bytes
    }
}

/// Decode every complete, checksummed record in `bytes`.
pub(crate) fn decode_segment(bytes: &[u8]) -> (Vec<WalRecord>, Tail) {
    let mut reader = SegmentReader::new(bytes);
    let mut records = Vec::new();
    // Reading a slice fails only by running out, which is `Ok(None)`.
    while let Ok(Some(rec)) = reader.next_record() {
        records.push(rec);
    }
    let tail = match reader.valid_bytes() {
        n if n == bytes.len() as u64 => Tail::Clean,
        valid_bytes => Tail::Torn { valid_bytes },
    };
    (records, tail)
}

// ---------------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------------

fn segment_path(dir: &Path, start_seq: u64) -> PathBuf {
    dir.join(format!("wal-{start_seq:020}.esrlog"))
}

fn open_segment(dir: &Path, start_seq: u64) -> io::Result<Segment> {
    let path = segment_path(dir, start_seq);
    let file = OpenOptions::new().create(true).append(true).open(&path)?;
    Ok(Segment { file })
}

/// All segment files in `dir`, sorted by their start sequence number.
pub(crate) fn list_segments(dir: &Path) -> io::Result<Vec<(PathBuf, u64)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(start) = name
            .strip_prefix("wal-")
            .and_then(|r| r.strip_suffix(".esrlog"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((path, start));
        }
    }
    out.sort_by_key(|(_, s)| *s);
    Ok(out)
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), table-driven — no external dependency.
// ---------------------------------------------------------------------------

fn crc_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    })
}

/// A CRC-32 (IEEE 802.3) taken over bytes as they stream past.
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let table = crc_table();
        let mut c = self.0;
        for &b in bytes {
            c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    pub(crate) fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// A sink for `io::copy`: checksum a file without holding it.
impl Write for Crc32 {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.update(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// CRC-32 (IEEE 802.3) of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use esr_core::ids::SiteId;

    fn ts(t: u64) -> Timestamp {
        Timestamp::new(t, SiteId(1))
    }

    fn rec(seq: u64) -> WalRecord {
        WalRecord {
            seq,
            txn: TxnId(seq * 7),
            ts: ts(seq * 100),
            exported: seq * 3,
            writes: vec![(ObjectId(0), seq as i64), (ObjectId(1), -(seq as i64))],
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip_through_segment_bytes() {
        let mut bytes = Vec::new();
        for seq in 1..=5 {
            bytes.extend_from_slice(&encode_record(&rec(seq)));
        }
        let (records, tail) = decode_segment(&bytes);
        assert_eq!(tail, Tail::Clean);
        assert_eq!(records.len(), 5);
        assert_eq!(records[2], rec(3));
    }

    #[test]
    fn torn_tail_is_detected_and_prefix_survives() {
        let mut bytes = Vec::new();
        for seq in 1..=3 {
            bytes.extend_from_slice(&encode_record(&rec(seq)));
        }
        let full = bytes.len() as u64;
        let torn_frame = encode_record(&rec(4));
        bytes.extend_from_slice(&torn_frame[..torn_frame.len() / 2]);
        let (records, tail) = decode_segment(&bytes);
        assert_eq!(records.len(), 3);
        assert_eq!(tail, Tail::Torn { valid_bytes: full });
    }

    #[test]
    fn corrupt_checksum_stops_the_scan() {
        let mut bytes = encode_record(&rec(1));
        let mut second = encode_record(&rec(2));
        let n = second.len();
        second[n - 1] ^= 0xFF; // flip a payload byte; crc now mismatches
        let cut = bytes.len() as u64;
        bytes.extend_from_slice(&second);
        let (records, tail) = decode_segment(&bytes);
        assert_eq!(records.len(), 1);
        assert_eq!(tail, Tail::Torn { valid_bytes: cut });
    }

    #[test]
    fn hostile_length_prefix_is_a_torn_tail_not_an_allocation() {
        let mut bytes = encode_record(&rec(1));
        let cut = bytes.len() as u64;
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd len
        bytes.extend_from_slice(&[0u8; 12]);
        let (records, tail) = decode_segment(&bytes);
        assert_eq!(records.len(), 1);
        assert_eq!(tail, Tail::Torn { valid_bytes: cut });
    }

    #[test]
    fn group_commit_appends_sync_and_survive_reopen() {
        let dir = tempdir("wal-group");
        {
            let wal = Wal::open(&dir, 1, WalOptions::default()).unwrap();
            let mut last = 0;
            for seq in 1..=20u64 {
                let r = rec(seq);
                last = wal.append_commit(r.txn, r.ts, r.exported, &r.writes);
                assert_eq!(last, seq);
            }
            wal.sync_to(last);
            assert!(wal.report().wal_bytes > 0);
            wal.shutdown();
            wal.shutdown(); // idempotent
        }
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.len(), 1);
        let bytes = fs::read(&segs[0].0).unwrap();
        let (records, tail) = decode_segment(&bytes);
        assert_eq!(tail, Tail::Clean);
        assert_eq!(records.len(), 20);
        assert_eq!(records[19], rec(20));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_seq_follows_the_flusher() {
        let dir = tempdir("wal-durable");
        let wal = Wal::open(&dir, 5, WalOptions::default()).unwrap();
        assert_eq!(wal.durable_seq(), 4, "a reopened log starts durable");
        let mut last = 0;
        for seq in 5..=9u64 {
            let r = rec(seq);
            last = wal.append_commit(r.txn, r.ts, r.exported, &r.writes);
            assert!(wal.durable_seq() <= last, "never ahead of the appends");
        }
        wal.sync_to(last);
        assert_eq!(wal.durable_seq(), 9);
        wal.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_flushes_pending_records() {
        let dir = tempdir("wal-drop");
        {
            let wal = Wal::open(&dir, 1, WalOptions::default()).unwrap();
            let r = rec(1);
            wal.append_commit(r.txn, r.ts, r.exported, &r.writes);
            // No sync_to: drop must still drain the buffer.
        }
        let segs = list_segments(&dir).unwrap();
        let (records, _) = decode_segment(&fs::read(&segs[0].0).unwrap());
        assert_eq!(records.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Regression: a committer panicking between its seq reservation
    /// and the pending-buffer push (here: the MAX_RECORD assert inside
    /// encode_record) must not leave a permanent gap that parks the
    /// flusher's reorder map and wedges every later commit.
    #[test]
    fn panicking_append_does_not_wedge_later_commits() {
        let dir = tempdir("wal-panic-gap");
        let wal = Arc::new(Wal::open(&dir, 1, WalOptions::default()).unwrap());
        // Well over MAX_RECORD once encoded: encode_record panics after
        // seq 1 was already reserved.
        let huge: Vec<(ObjectId, i64)> = (0..200_000u32).map(|i| (ObjectId(i), 1)).collect();
        {
            let wal = Arc::clone(&wal);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                wal.append_commit(TxnId(1), ts(1), 0, &huge);
            }));
            assert!(r.is_err(), "oversized record must panic");
        }
        // Seq 1 is plugged by the tombstone, so seq 2 becomes durable.
        let seq = wal.append_commit(TxnId(2), ts(2), 0, &[(ObjectId(0), 5)]);
        assert_eq!(seq, 2);
        wal.sync_to(seq);
        wal.shutdown();
        let segs = list_segments(&dir).unwrap();
        let (records, tail) = decode_segment(&fs::read(&segs[0].0).unwrap());
        assert_eq!(tail, Tail::Clean);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 1);
        assert!(records[0].writes.is_empty(), "gap filled by a tombstone");
        assert_eq!(records[1].seq, 2);
        assert_eq!(records[1].writes, vec![(ObjectId(0), 5)]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Regression: a flusher that hit an I/O error used to `return`
    /// without a word; then it latched `failed` but left every committer
    /// parked in `sync_to` until shutdown, which nothing ever reached.
    /// The latch alone must release every waiter, saying "not durable".
    #[test]
    fn flusher_io_error_is_latched_and_releases_every_waiter_not_durable() {
        let dir = tempdir("wal-failed");
        let wal = Arc::new(Wal::open(&dir, 1, WalOptions::default()).unwrap());
        assert!(!wal.report().failed);
        // A read-only handle in the segment's place: the next write
        // fails with EBADF, whoever runs the test.
        let path = list_segments(&dir).unwrap().pop().unwrap().0;
        lock(&wal.shared.segment).file = File::open(path).unwrap();
        let seq = wal.append_commit(TxnId(1), ts(1), 0, &[(ObjectId(0), 5)]);
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || tx.send(wal.sync_to(seq)).unwrap())
        };
        let durable = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a failed log left its committer parked");
        assert!(!durable, "acked a lost record");
        assert!(wal.report().failed);
        assert_eq!((wal.appended_seq(), wal.durable_seq()), (1, 0));
        assert!(!wal.sync_to(seq), "a later waiter is refused at once");
        let head = wal.appended_seq();
        let checkpoint =
            wal.write_checkpoint(head, 2, &mut Vec::<ObjectSnapshot>::new().into_iter());
        assert!(checkpoint.is_err(), "nor may a checkpoint cover it");
        waiter.join().unwrap();
        wal.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appenders_get_dense_unique_seqs() {
        let dir = tempdir("wal-conc");
        let wal = Arc::new(Wal::open(&dir, 1, WalOptions::default()).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let wal = Arc::clone(&wal);
            handles.push(std::thread::spawn(move || {
                let mut seqs = Vec::new();
                for i in 0..50u64 {
                    let seq = wal.append_commit(
                        TxnId(t * 1000 + i),
                        ts(t * 1000 + i),
                        0,
                        &[(ObjectId(0), i as i64)],
                    );
                    wal.sync_to(seq);
                    seqs.push(seq);
                }
                seqs
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let expect: Vec<u64> = (1..=200).collect();
        assert_eq!(all, expect, "seqs must be dense and unique");
        wal.shutdown();
        let (records, tail) =
            decode_segment(&fs::read(&list_segments(&dir).unwrap()[0].0).unwrap());
        assert_eq!(tail, Tail::Clean);
        assert_eq!(records.len(), 200);
        // On-disk order equals seq order (appends serialize in the
        // pending buffer).
        assert!(records.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A scratch dir under the target-adjacent temp root.
    pub(crate) fn tempdir(tag: &str) -> PathBuf {
        let pid = std::process::id();
        let n = {
            use std::sync::atomic::{AtomicU64, Ordering};
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            COUNTER.fetch_add(1, Ordering::Relaxed)
        };
        let dir = std::env::temp_dir().join(format!("esr-wal-test-{tag}-{pid}-{n}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }
}
