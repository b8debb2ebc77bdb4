//! The primary's shipping hub: publish appended records, stream them
//! to subscribers.
//!
//! The hub never has its own durability path — it *interposes* on the
//! primary's. [`ReplicationHub::make_sink`] wraps the opened
//! [`Wal`] in a [`ReplSink`] that the kernel uses as its
//! [`DurabilitySink`]; every `append_commit` is mirrored into a
//! bounded in-memory ship cache and every `sync_to` advances the
//! durable watermark subscribers are allowed to see. Sender threads
//! therefore ship exactly the acknowledged prefix of the log: a record
//! a subscriber receives was fsynced on the primary first.
//!
//! When a subscriber asks for a suffix the cache no longer holds
//! (restart long after the fact, cache eviction under load), the
//! sender falls back to reading the segment files
//! ([`read_records_from`]); when even the files no longer reach back
//! far enough (a checkpoint pruned them), it takes a quiesced
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
    read_records_from, DurabilitySink, ObjectSnapshot, SinkReport, Wal, WalRecord,
};
use esr_tso::Kernel;
use std::collections::BTreeMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread;
use std::time::Duration;

/// Records retained in the in-memory ship cache. Subscribers further
/// behind than this read the segment files instead.
const SHIP_CACHE_CAP: usize = 65_536;

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

/// Watermark + ship cache, under one lock with one condvar.
struct HubState {
    /// Highest fsynced sequence; senders never ship beyond it.
    durable: u64,
    /// Recently appended records, keyed by sequence.
    cache: BTreeMap<u64, WalRecord>,
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
    stop: AtomicBool,
}

impl HubShared {
    fn lock_state(&self) -> std::sync::MutexGuard<'_, HubState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn replication_stats(&self) -> ReplicationStats {
        let durable = self.lock_state().durable;
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
                    cache: BTreeMap::new(),
                    stopping: false,
                }),
                work: Condvar::new(),
                kernel: OnceLock::new(),
                peers: Mutex::new(Vec::new()),
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

    /// Replication stats for the primary role.
    pub fn replication_stats(&self) -> ReplicationStats {
        self.shared.replication_stats()
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
        st.cache.insert(seq, rec);
        while st.cache.len() > SHIP_CACHE_CAP {
            st.cache.pop_first();
        }
        seq
    }

    fn sync_to(&self, seq: u64) {
        self.wal.sync_to(seq);
        let mut st = self.shared.lock_state();
        if seq > st.durable {
            st.durable = seq;
            drop(st);
            self.shared.work.notify_all();
        }
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
    /// The cache is cold for `[cursor, upto]`; read the segment files.
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
            let upto = st.durable.min(next + (MAX_RECORD_BATCH as u64) - 1);
            let mut records = Vec::new();
            let mut bytes = 0usize;
            let mut seq = next;
            while seq <= upto {
                match st.cache.get(&seq) {
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
            if records.is_empty() {
                return Fetch::Cold(upto);
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
                match read_records_from(&shared.dir, next, upto)? {
                    Some(records) if !records.is_empty() => {
                        let durable_seq = shared.lock_state().durable;
                        next = records.last().map(|r| r.seq + 1).unwrap_or(next);
                        // The cold read is count-bounded; re-chunk it by
                        // encoded size like the hot path does.
                        let mut run: Vec<WalRecord> = Vec::new();
                        let mut bytes = 0usize;
                        for rec in records {
                            let cost = record_wire_cost(&rec);
                            if !run.is_empty() && bytes + cost > MAX_RECORD_BATCH_BYTES {
                                send_records(stream, std::mem::take(&mut run), durable_seq)
                                    .map_err(frame_io)?;
                                bytes = 0;
                            }
                            bytes += cost;
                            run.push(rec);
                        }
                        if !run.is_empty() {
                            send_records(stream, run, durable_seq).map_err(frame_io)?;
                        }
                        gauge.sent_seq.store(next - 1, Ordering::Relaxed);
                    }
                    // Pruned (or unreadable as a contiguous run): the
                    // checkpoint that pruned it covers the state — ship
                    // a quiesced snapshot instead.
                    _ => match send_snapshot(shared, stream)? {
                        Some(resume) => {
                            next = resume;
                            gauge.sent_seq.store(next - 1, Ordering::Relaxed);
                        }
                        // Kernel not attached yet (mid-boot): breathe.
                        None => thread::sleep(Duration::from_millis(20)),
                    },
                }
            }
        }
    }
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
        durability.quiesced_snapshot(kernel.table(), || kernel.next_txn());
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
