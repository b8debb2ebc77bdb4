//! The primary's shipping hub: publish appended records, stream them
//! to subscribers.
//!
//! The hub never has its own durability path — it *interposes* on the
//! primary's. [`ReplicationHub::make_sink`] wraps the opened
//! [`Wal`] in a [`ReplSink`] that the kernel uses as its
//! [`DurabilitySink`]; every `append_commit` is mirrored into an
//! in-memory ship cache and every `sync_to` publishes the log's durable
//! watermark to the senders. Sender threads therefore ship exactly the
//! acknowledged prefix of the log: a record a subscriber receives was
//! fsynced on the primary first.
//!
//! ## What the hub holds
//!
//! The ship cache exists for a subscriber that keeps up, and a live one
//! lags by a handful of records. So it is bounded in bytes, not records:
//! [`SHIP_CACHE_BYTES`] of the newest records, each charged its
//! estimated wire size ([`record_wire_cost`]), the oldest evicted first.
//! That is thousands of times a live subscriber's lag whatever the width
//! of the write sets, and a fixed few MiB of the primary's memory.
//!
//! A subscriber behind the cache (a replica restarting, or stalled long
//! enough) takes a *cold episode*: its sender streams the range below the
//! cache's oldest record off the segment files in one forward pass
//! ([`stream_records_from`]) — each segment read once, records shipped in
//! [`MAX_RECORD_BATCH_BYTES`] batches as they decode, one batch held at a
//! time — and then rejoins the cache. When even the files no longer
//! reach back far enough (a checkpoint pruned them), it takes a quiesced
//! full-table snapshot through the kernel's checkpoint gate and ships
//! that, then resumes the stream above it.

use super::{
    record_wire_cost, ReplFrame, ReplRequest, MAX_RECORD_BATCH, MAX_RECORD_BATCH_BYTES,
    MAX_REPL_FRAME, MAX_SNAPSHOT_CHUNK, REPL_PROTOCOL_VERSION,
};
use crate::frame::{write_frame, write_frame_limit, FrameError, FrameReader};
use crate::listen::{accept_until_stopped, wake};
use esr_clock::Timestamp;
use esr_core::ids::TxnId;
use esr_core::value::Value;
use esr_core::ObjectId;
use esr_server::{ReplicaPeerRow, ReplicationStats, Server};
use esr_storage::wal::{
    stream_records_from, DurabilitySink, ObjectSnapshot, SinkReport, Wal, WalRecord,
};
use esr_tso::Kernel;
use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread;
use std::time::Duration;

/// Byte budget of the in-memory ship cache, in [`record_wire_cost`]
/// units: about 13 000 two-write records. Subscribers further behind
/// read the segment files instead.
pub const SHIP_CACHE_BYTES: usize = 4 << 20;

/// How long a caught-up sender waits for new durable records before
/// emitting a heartbeat.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);

/// Socket timeouts for the handshake read and all frame writes: a
/// stuck subscriber is disconnected, not waited on.
const PEER_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// One live subscriber's progress gauge, kept for `ServerStats`.
struct PeerGauge {
    peer: String,
    sent_seq: AtomicU64,
}

/// The newest records appended through the sink, dense and in sequence
/// order, within a byte budget.
struct ShipCache {
    records: VecDeque<WalRecord>,
    /// Sum of [`record_wire_cost`] over `records`; never above `budget`.
    bytes: usize,
    budget: usize,
}

impl ShipCache {
    fn new(budget: usize) -> ShipCache {
        ShipCache {
            records: VecDeque::new(),
            bytes: 0,
            budget,
        }
    }

    /// Mirror one appended record, evicting the oldest until the cache
    /// is back within budget (a record over budget on its own is not
    /// kept). A record that does not extend the run restarts it: the
    /// kernel appends in sequence order, and the cache must stay dense
    /// for [`ShipCache::get`]; a miss costs only a cold read.
    fn push(&mut self, rec: WalRecord) {
        if self
            .records
            .back()
            .is_some_and(|last| last.seq + 1 != rec.seq)
        {
            self.records.clear();
            self.bytes = 0;
        }
        self.bytes += record_wire_cost(&rec);
        self.records.push_back(rec);
        while self.bytes > self.budget {
            let oldest = self
                .records
                .pop_front()
                .expect("bytes are charged to records");
            self.bytes -= record_wire_cost(&oldest);
        }
    }

    fn get(&self, seq: u64) -> Option<&WalRecord> {
        let offset = seq.checked_sub(self.records.front()?.seq)?;
        self.records.get(usize::try_from(offset).ok()?)
    }

    /// The last record a subscriber at `next` must read cold, when
    /// `next` is below the cache: everything up to the cache's oldest
    /// record, or up to `durable` when the cache holds nothing above
    /// `next` at all.
    fn cold_upto(&self, next: u64, durable: u64) -> u64 {
        match self.records.front() {
            Some(oldest) if oldest.seq > next => (oldest.seq - 1).min(durable),
            _ => durable,
        }
    }
}

/// Watermarks + ship cache, under one lock with one condvar.
struct HubState {
    /// Highest fsynced sequence published to senders; they never ship
    /// beyond it.
    durable: u64,
    /// Highest sequence appended through the sink (and so offered to
    /// the cache). `durable` never passes it.
    mirrored: u64,
    cache: ShipCache,
    /// Set by `shutdown_sink` / `ReplicationHub::shutdown`.
    stopping: bool,
}

struct HubShared {
    dir: PathBuf,
    epoch: u64,
    state: Mutex<HubState>,
    work: Condvar,
    kernel: OnceLock<Arc<Kernel>>,
    peers: Mutex<Vec<Arc<PeerGauge>>>,
    /// Segment files read by finished cold episodes.
    cold_reads: AtomicU64,
    stop: AtomicBool,
}

impl HubShared {
    fn lock_state(&self) -> std::sync::MutexGuard<'_, HubState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn replication_stats(&self) -> ReplicationStats {
        let (durable, cache_bytes, cache_records) = {
            let st = self.lock_state();
            (st.durable, st.cache.bytes, st.cache.records.len())
        };
        let peers = self
            .peers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|p| {
                let sent = p.sent_seq.load(Ordering::Relaxed);
                ReplicaPeerRow {
                    peer: p.peer.clone(),
                    sent_seq: sent,
                    lag_records: durable.saturating_sub(sent),
                }
            })
            .collect();
        ReplicationStats {
            role: "primary".into(),
            epoch: self.epoch,
            durable_seq: durable,
            received_seq: durable,
            applied_seq: durable,
            ship_cache_bytes: cache_bytes as u64,
            ship_cache_records: cache_records as u64,
            cold_reads: self.cold_reads.load(Ordering::Relaxed),
            peers,
            ..ReplicationStats::default()
        }
    }
}

/// The primary side of replication: owns the fencing epoch, the ship
/// cache, and the subscriber listener.
pub struct ReplicationHub {
    shared: Arc<HubShared>,
    listen: Mutex<Option<thread::JoinHandle<()>>>,
    addr: Mutex<Option<std::net::SocketAddr>>,
}

impl ReplicationHub {
    /// Create a hub over `data_dir`, establishing the fencing epoch:
    /// the persisted epoch (1 on first boot), bumped by one when
    /// `promote` is set. The resulting epoch is persisted before any
    /// subscriber can connect, so a crash immediately after promotion
    /// still comes back fenced-forward.
    pub fn new(data_dir: impl Into<PathBuf>, promote: bool) -> io::Result<ReplicationHub> {
        let dir = data_dir.into();
        let stored = esr_storage::wal::read_epoch(&dir)?;
        let epoch = if promote { stored + 1 } else { stored.max(1) };
        if epoch != stored {
            std::fs::create_dir_all(&dir)?;
            esr_storage::wal::write_epoch(&dir, epoch)?;
        }
        Ok(ReplicationHub {
            shared: Arc::new(HubShared {
                dir,
                epoch,
                state: Mutex::new(HubState {
                    durable: 0,
                    mirrored: 0,
                    cache: ShipCache::new(SHIP_CACHE_BYTES),
                    stopping: false,
                }),
                work: Condvar::new(),
                kernel: OnceLock::new(),
                peers: Mutex::new(Vec::new()),
                cold_reads: AtomicU64::new(0),
                stop: AtomicBool::new(false),
            }),
            listen: Mutex::new(None),
            addr: Mutex::new(None),
        })
    }

    /// The fencing epoch this hub serves at.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch
    }

    /// Wrap the primary's opened log in the shipping sink. Also seeds
    /// the durable watermark from the recovered sequence, so a
    /// subscriber can immediately ask for pre-restart records (served
    /// from the segment files).
    pub fn make_sink(&self, wal: Arc<Wal>) -> Arc<dyn DurabilitySink> {
        {
            let mut st = self.shared.lock_state();
            st.durable = st.durable.max(wal.appended_seq());
            st.mirrored = st.mirrored.max(st.durable);
        }
        Arc::new(ReplSink {
            wal,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Attach the booted server: its kernel enables the
    /// quiesced-snapshot fallback for subscribers behind the pruned log,
    /// and the hub's state becomes the `replication` block of every
    /// stats snapshot the server assembles.
    pub fn attach(&self, server: &Server) {
        let _ = self.shared.kernel.set(Arc::clone(server.kernel()));
        let shared = Arc::clone(&self.shared);
        server
            .rpc_handle()
            .register_stats(move |stats| stats.replication = Some(shared.replication_stats()));
    }

    /// Start accepting subscribers on `listener`. Returns the bound
    /// address.
    pub fn serve(&self, listener: TcpListener) -> io::Result<std::net::SocketAddr> {
        let addr = listener.local_addr()?;
        *self.addr.lock().unwrap_or_else(PoisonError::into_inner) = Some(addr);
        let shared = Arc::clone(&self.shared);
        let handle = thread::Builder::new()
            .name("esr-repl-hub".into())
            .spawn(move || accept_loop(shared, listener))
            .expect("spawn hub accept thread");
        *self.listen.lock().unwrap_or_else(PoisonError::into_inner) = Some(handle);
        Ok(addr)
    }

    /// Stop the accept loop and wake every sender so it can exit.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        {
            let mut st = self.shared.lock_state();
            st.stopping = true;
        }
        self.shared.work.notify_all();
        if let Some(addr) = *self.addr.lock().unwrap_or_else(PoisonError::into_inner) {
            wake(addr);
        }
        if let Some(h) = self
            .listen
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            let _ = h.join();
        }
    }
}

impl Drop for ReplicationHub {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The [`DurabilitySink`] the kernel drives on a shipping primary:
/// delegates everything to the real [`Wal`], mirroring appends into
/// the ship cache and publishing the fsync watermark to senders.
pub struct ReplSink {
    wal: Arc<Wal>,
    shared: Arc<HubShared>,
}

impl DurabilitySink for ReplSink {
    fn append_commit(
        &self,
        txn: TxnId,
        ts: Timestamp,
        exported: u64,
        writes: &[(ObjectId, Value)],
    ) -> u64 {
        let seq = self.wal.append_commit(txn, ts, exported, writes);
        let rec = WalRecord {
            seq,
            txn,
            ts,
            exported,
            writes: writes.to_vec(),
        };
        let mut st = self.shared.lock_state();
        st.mirrored = st.mirrored.max(seq);
        st.cache.push(rec);
        seq
    }

    fn sync_to(&self, seq: u64) -> bool {
        let synced = self.wal.sync_to(seq);
        // Publish what the log made durable, never what was asked for: a
        // failed or stopped log returns short of `seq`. Capped at what
        // the sink has mirrored, so a sender never finds a durable record
        // the append path has not offered to the cache yet.
        let durable = self.wal.durable_seq();
        let mut st = self.shared.lock_state();
        let durable = durable.min(st.mirrored);
        if durable > st.durable {
            st.durable = durable;
            drop(st);
            self.shared.work.notify_all();
        }
        synced
    }

    fn appended_seq(&self) -> u64 {
        self.wal.appended_seq()
    }

    fn durable_seq(&self) -> u64 {
        self.wal.durable_seq()
    }

    fn write_checkpoint(
        &self,
        seq: u64,
        next_txn: u64,
        objects: &mut dyn ExactSizeIterator<Item = ObjectSnapshot>,
    ) -> io::Result<()> {
        self.wal.write_checkpoint(seq, next_txn, objects)
    }

    fn checkpoint_with(
        &self,
        upto: u64,
        write: &mut dyn FnMut() -> io::Result<u64>,
    ) -> io::Result<()> {
        self.wal.checkpoint_with(upto, write)
    }

    fn report(&self) -> SinkReport {
        self.wal.report()
    }

    fn shutdown_sink(&self) {
        self.wal.shutdown_sink();
        let mut st = self.shared.lock_state();
        st.stopping = true;
        drop(st);
        self.shared.work.notify_all();
    }
}

fn accept_loop(shared: Arc<HubShared>, listener: TcpListener) {
    accept_until_stopped(
        &shared.stop,
        || listener.accept(),
        |(stream, peer)| {
            let shared = Arc::clone(&shared);
            let _ = thread::Builder::new()
                .name("esr-repl-send".into())
                .spawn(move || {
                    let _ = serve_subscriber(&shared, stream, peer.to_string());
                });
        },
    );
}

/// What the state machine tells a sender to do next.
enum Fetch {
    /// Consecutive durable records starting at the cursor.
    Records(Vec<WalRecord>, u64),
    /// The cursor is below the cache: `[cursor, upto]` is a cold episode
    /// for the segment files.
    Cold(u64),
    /// Caught up and the wait timed out.
    Heartbeat(u64),
    /// The hub is stopping.
    Stop,
}

fn next_batch(shared: &HubShared, next: u64) -> Fetch {
    let mut st = shared.lock_state();
    loop {
        if st.stopping || shared.stop.load(Ordering::SeqCst) {
            return Fetch::Stop;
        }
        if st.durable >= next {
            if st.cache.get(next).is_none() {
                return Fetch::Cold(st.cache.cold_upto(next, st.durable));
            }
            let upto = st.durable.min(next + (MAX_RECORD_BATCH as u64) - 1);
            let mut records = Vec::new();
            let mut bytes = 0usize;
            let mut seq = next;
            while seq <= upto {
                match st.cache.get(seq) {
                    Some(r) => {
                        // Bound the batch by estimated encoded size, not
                        // just count: write sets are unbounded, and a
                        // batch that overshoots the frame cap would ship
                        // nothing at all. A single over-target record
                        // still goes out alone.
                        let cost = record_wire_cost(r);
                        if !records.is_empty() && bytes + cost > MAX_RECORD_BATCH_BYTES {
                            break;
                        }
                        bytes += cost;
                        records.push(r.clone());
                        seq += 1;
                    }
                    None => break,
                }
            }
            return Fetch::Records(records, st.durable);
        }
        let (guard, timeout) = shared
            .work
            .wait_timeout(st, HEARTBEAT_EVERY)
            .unwrap_or_else(PoisonError::into_inner);
        st = guard;
        if timeout.timed_out() {
            return Fetch::Heartbeat(st.durable);
        }
    }
}

fn serve_subscriber(shared: &HubShared, mut stream: TcpStream, peer: String) -> io::Result<()> {
    stream.set_read_timeout(Some(PEER_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(PEER_IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let ReplRequest::Subscribe {
        version,
        epoch,
        from_seq,
    } = match FrameReader::new(&stream).read::<ReplRequest>() {
        Ok(req) => req,
        Err(_) => return Ok(()),
    };
    if version != REPL_PROTOCOL_VERSION {
        return Ok(());
    }
    if epoch > shared.epoch {
        // The subscriber has adopted a newer fence: *we* are the stale
        // primary. Refuse to feed it.
        let _ = write_frame(
            &mut stream,
            &ReplFrame::Fenced {
                epoch: shared.epoch,
            },
        );
        return Ok(());
    }
    write_frame(
        &mut stream,
        &ReplFrame::Accept {
            epoch: shared.epoch,
        },
    )
    .map_err(frame_io)?;

    let gauge = Arc::new(PeerGauge {
        peer,
        sent_seq: AtomicU64::new(from_seq.saturating_sub(1)),
    });
    shared
        .peers
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(Arc::clone(&gauge));
    let result = stream_records(shared, &mut stream, from_seq, &gauge);
    shared
        .peers
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .retain(|p| !Arc::ptr_eq(p, &gauge));
    result
}

fn stream_records(
    shared: &HubShared,
    stream: &mut TcpStream,
    mut next: u64,
    gauge: &PeerGauge,
) -> io::Result<()> {
    loop {
        match next_batch(shared, next) {
            Fetch::Stop => return Ok(()),
            Fetch::Heartbeat(durable) => {
                write_frame_limit(
                    stream,
                    &ReplFrame::Heartbeat {
                        durable_seq: durable,
                    },
                    MAX_REPL_FRAME,
                )
                .map_err(frame_io)?;
            }
            Fetch::Records(records, durable_seq) => {
                next = records.last().map(|r| r.seq + 1).unwrap_or(next);
                send_records(stream, records, durable_seq).map_err(frame_io)?;
                gauge.sent_seq.store(next - 1, Ordering::Relaxed);
            }
            Fetch::Cold(upto) => {
                if !ship_cold(shared, stream, &mut next, upto, gauge)? {
                    // Pruned (or unreadable as a contiguous run): the
                    // checkpoint that pruned it covers the state — ship
                    // a quiesced snapshot instead.
                    match send_snapshot(shared, stream)? {
                        Some(resume) => {
                            next = resume;
                            gauge.sent_seq.store(next - 1, Ordering::Relaxed);
                        }
                        // Kernel not attached yet (mid-boot): breathe.
                        None => thread::sleep(Duration::from_millis(20)),
                    }
                }
            }
        }
    }
}

/// One cold episode: ship `[*next, upto]` off the segment files in one
/// forward pass, a batch at a time as records decode (bounded by count
/// and estimated size like the hot path's), advancing `*next` and the
/// peer's gauge with each batch sent. Returns `false` when the files no
/// longer hold the range, after shipping whatever prefix they did.
fn ship_cold(
    shared: &HubShared,
    stream: &mut TcpStream,
    next: &mut u64,
    upto: u64,
    gauge: &PeerGauge,
) -> io::Result<bool> {
    let durable_seq = shared.lock_state().durable;
    let from = *next;
    let mut batch: Vec<WalRecord> = Vec::new();
    let mut bytes = 0usize;
    let mut ship = |batch: &mut Vec<WalRecord>| -> io::Result<()> {
        let Some(last) = batch.last().map(|r| r.seq) else {
            return Ok(());
        };
        send_records(stream, std::mem::take(batch), durable_seq).map_err(frame_io)?;
        *next = last + 1;
        gauge.sent_seq.store(last, Ordering::Relaxed);
        Ok(())
    };
    let read = stream_records_from(&shared.dir, from, upto, &mut |rec| {
        let cost = record_wire_cost(&rec);
        if batch.len() == MAX_RECORD_BATCH
            || (!batch.is_empty() && bytes + cost > MAX_RECORD_BATCH_BYTES)
        {
            ship(&mut batch)?;
            bytes = 0;
        }
        bytes += cost;
        batch.push(rec);
        Ok(())
    })?;
    ship(&mut batch)?;
    if let Some(segments) = read {
        shared.cold_reads.fetch_add(segments, Ordering::Relaxed);
    }
    Ok(read.is_some())
}

/// Ship one run of records, splitting recursively when the encoded
/// frame overshoots the channel cap. Batch building already bounds the
/// estimated size, so the split is defense in depth for an estimate
/// the codec outgrew — and [`write_frame_limit`] writes *nothing* on
/// [`FrameError::Oversize`], so a retry with halves never corrupts the
/// stream. A single record too large for [`MAX_REPL_FRAME`] cannot be
/// shipped at all; that tears the subscriber down loudly instead of
/// wedging in silence.
fn send_records(
    stream: &mut TcpStream,
    records: Vec<WalRecord>,
    durable_seq: u64,
) -> Result<(), FrameError> {
    let frame = ReplFrame::Records {
        records,
        durable_seq,
    };
    match write_frame_limit(stream, &frame, MAX_REPL_FRAME) {
        Err(FrameError::Oversize(n)) => {
            let ReplFrame::Records { mut records, .. } = frame else {
                unreachable!("frame was built as Records above");
            };
            if records.len() <= 1 {
                let seq = records.first().map(|r| r.seq).unwrap_or(0);
                eprintln!(
                    "esr-repl: record seq {seq} encodes to {n} bytes, \
                     over the {MAX_REPL_FRAME}-byte replication frame cap; \
                     the subscriber cannot be fed past it"
                );
                return Err(FrameError::Oversize(n));
            }
            let rest = records.split_off(records.len() / 2);
            send_records(stream, records, durable_seq)?;
            send_records(stream, rest, durable_seq)
        }
        other => other,
    }
}

/// Take a quiesced snapshot through the kernel's checkpoint gate and
/// ship it. Returns the sequence the stream resumes at, or `None` when
/// the kernel has not been attached yet.
fn send_snapshot(shared: &HubShared, stream: &mut TcpStream) -> io::Result<Option<u64>> {
    let Some(kernel) = shared.kernel.get() else {
        return Ok(None);
    };
    let Some(durability) = kernel.durability() else {
        return Ok(None);
    };
    // `next_txn` is sampled by `quiesced_snapshot` while the commit
    // gate is still held, so the id watermark shipped with the snapshot
    // matches exactly the state the snapshot covers.
    let (seq, next_txn, objects) =
        durability.quiesced_snapshot(kernel.table(), || kernel.next_txn())?;
    for chunk in objects.chunks(MAX_SNAPSHOT_CHUNK) {
        write_frame_limit(
            stream,
            &ReplFrame::SnapshotChunk {
                objects: chunk.to_vec(),
            },
            MAX_REPL_FRAME,
        )
        .map_err(frame_io)?;
    }
    write_frame_limit(
        stream,
        &ReplFrame::SnapshotDone {
            next_seq: seq + 1,
            next_txn,
        },
        MAX_REPL_FRAME,
    )
    .map_err(frame_io)?;
    Ok(Some(seq + 1))
}

fn frame_io(e: FrameError) -> io::Error {
    match e {
        FrameError::Io(e) => e,
        other => io::Error::other(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::ids::SiteId;

    fn rec(seq: u64, writes: usize) -> WalRecord {
        WalRecord {
            seq,
            txn: TxnId(seq),
            ts: Timestamp::new(seq, SiteId(0)),
            exported: 0,
            writes: (0..writes as u32).map(|o| (ObjectId(o), 1)).collect(),
        }
    }

    fn seqs(cache: &ShipCache) -> Vec<u64> {
        cache.records.iter().map(|r| r.seq).collect()
    }

    #[test]
    fn the_ship_cache_stays_within_its_byte_budget_and_evicts_oldest_first() {
        // Two-write records cost 320; a budget of 1 000 holds three.
        let mut cache = ShipCache::new(1_000);
        for seq in 1..=3 {
            cache.push(rec(seq, 2));
        }
        assert_eq!((seqs(&cache), cache.bytes), (vec![1, 2, 3], 960));
        for seq in 4..=20 {
            cache.push(rec(seq, 2));
            assert!(cache.bytes <= 1_000);
            let held: usize = cache.records.iter().map(record_wire_cost).sum();
            assert_eq!(held, cache.bytes);
        }
        assert_eq!(seqs(&cache), [18, 19, 20], "the newest stay");
        assert_eq!(cache.get(19).map(|r| r.seq), Some(19));
        assert!(cache.get(17).is_none() && cache.get(21).is_none());
        // A wide record pushes out as many small ones as it needs.
        cache.push(rec(21, 20)); // 896
        assert_eq!((seqs(&cache), cache.bytes), (vec![21], 896));
        // One over budget on its own is not kept at all.
        cache.push(rec(22, 40));
        assert_eq!((seqs(&cache), cache.bytes), (vec![], 0));
    }

    #[test]
    fn the_ship_cache_stays_dense_and_names_the_cold_range_below_it() {
        let mut cache = ShipCache::new(10_000);
        assert_eq!(cache.cold_upto(1, 9), 9, "empty: everything is cold");
        for seq in 5..=8 {
            cache.push(rec(seq, 2));
        }
        assert_eq!(cache.cold_upto(1, 8), 4, "up to the oldest cached");
        assert_eq!(cache.cold_upto(2, 3), 3, "never past the durable mark");
        // A record that does not extend the run restarts it.
        cache.push(rec(12, 2));
        assert_eq!(seqs(&cache), [12]);
        assert_eq!(cache.cold_upto(9, 12), 11);
    }
}
