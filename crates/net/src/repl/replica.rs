//! The backup side: ingest the shipped log, apply it durably, track
//! divergence.
//!
//! A [`ReplicaNode`] is a small database of its own. It boots through
//! the ordinary WAL recovery path over its data directory, so a
//! SIGKILLed replica restarts exactly like a SIGKILLed primary —
//! checkpoint plus log tail — and then resubscribes to the primary
//! from the sequence it recovered, deduplicating anything the stream
//! re-sends.
//!
//! Two threads per node:
//!
//! - the **receiver** owns the connection: subscribe (with the epoch
//!   handshake of the module docs), ingest frames, and *eagerly*
//!   update the per-object primary-shadow array the moment a record
//!   arrives — divergence accounting needs the primary's committed
//!   value even while the local apply lags. Ingest is strictly
//!   sequence-gated: duplicates are dropped, a gap tears the
//!   connection down and resubscribes from the watermark (the log is
//!   dense, so a gap can only mean a broken stream).
//! - the **applier** drains a bounded queue in sequence order, applies
//!   each record's writes through the same [`ObjectState`] machinery
//!   recovery replay uses, and appends the record to the replica's
//!   *own* WAL (same sequence numbers — the log is literally
//!   replicated), syncing and checkpointing on a cadence. The test
//!   hooks [`ReplicaNode::pause_apply`]/[`ReplicaNode::resume_apply`]
//!   freeze this thread to hold a node at a known staleness.
//!
//! The node's table is resident (snapshot install replaces the whole
//! directory with a shipped checkpoint, which is a resident-format
//! artifact); larger-than-RAM replicas would ship the page files
//! instead, which this module does not attempt.
//!
//! [`ObjectState`]: esr_storage::object::ObjectState

use super::{ReplFrame, ReplRequest, MAX_REPL_FRAME, REPL_PROTOCOL_VERSION};
use crate::frame::{write_frame, FrameError, FrameReader};
use esr_core::hierarchy::HierarchySchema;
use esr_core::value::{distance, Value};
use esr_core::ObjectId;
use esr_server::{ReplicationStats, ServerStats, StatsSource};
use esr_storage::catalog::CatalogConfig;
use esr_storage::table::ObjectTable;
use esr_storage::wal::{
    install_snapshot_dir, read_epoch, recover, snapshots, write_epoch, DurabilitySink,
    ObjectSnapshot, Wal, WalOptions, WalRecord,
};
use esr_tso::capture::{EventKind, EventLog, History};
use esr_tso::KernelConfig;
use std::collections::VecDeque;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Bound on ingested-but-unapplied records. A full queue blocks the
/// receiver (backpressure into the socket), never grows.
const APPLY_QUEUE_CAP: usize = 65_536;

/// Records between fsync batches on the replica's own log.
const SYNC_EVERY: u64 = 64;

/// Reconnect backoff bounds.
const BACKOFF_MIN: Duration = Duration::from_millis(50);
const BACKOFF_MAX: Duration = Duration::from_secs(2);

/// How recently the primary must have been heard from for the node to
/// count as *fresh* ([`ReplicaNode::fresh`]). The hub heartbeats every
/// 200 ms, so this allows ~10 missed beats before strict reads start
/// parking — generous enough for scheduler hiccups, tight enough that
/// a partitioned replica cannot keep passing its frozen shadow off as
/// zero divergence for long.
const FRESH_CONTACT_MICROS: u64 = 2_000_000;

/// How a replica node is configured.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// The replica's own data directory (WAL + checkpoints + epoch).
    pub data_dir: PathBuf,
    /// Address of the primary's replication listener.
    pub primary: String,
    /// Catalog for first boot (must match the primary's).
    pub catalog: CatalogConfig,
    /// The hierarchy replica reads charge bounds over (must match the
    /// primary's).
    pub schema: HierarchySchema,
    /// Apply-side records between checkpoints (0 = no periodic
    /// checkpoints; the log grows until shutdown).
    pub checkpoint_every: u64,
    /// Test hook: sleep this long before applying each record, to make
    /// staleness reproducible.
    pub apply_delay_micros: u64,
}

/// The replica's durable machinery, swapped wholesale on snapshot
/// install.
struct Engine {
    table: ObjectTable,
    wal: Arc<Wal>,
    /// The primary's committed value per object, updated at ingest.
    shadow: Vec<Value>,
    /// Highest record applied to `table` and appended to `wal`.
    applied_seq: u64,
    /// Highest transaction id seen (for checkpoint `next_txn`).
    max_txn: u64,
    /// Records applied since the last checkpoint.
    since_checkpoint: u64,
}

fn boot_engine(cfg: &ReplicaConfig) -> io::Result<Engine> {
    let rec = recover(&cfg.data_dir, &cfg.catalog)?;
    let wal = Arc::new(Wal::open(
        &cfg.data_dir,
        rec.next_seq,
        WalOptions::default(),
    )?);
    if rec.had_state {
        wal.note_recovery();
    }
    let table = ObjectTable::new(rec.states);
    let shadow = table.values();
    Ok(Engine {
        table,
        wal,
        shadow,
        applied_seq: rec.next_seq - 1,
        max_txn: rec.next_txn.saturating_sub(1),
        since_checkpoint: 0,
    })
}

struct NodeShared {
    cfg: ReplicaConfig,
    engine: Mutex<Engine>,
    /// Ingested records awaiting apply, with their arrival instant
    /// (feeds the lag-age gauge).
    queue: Mutex<VecDeque<(WalRecord, Instant)>>,
    queue_cv: Condvar,
    /// Highest record ingested (shadow watermark).
    received: AtomicU64,
    /// Highest record applied (data watermark).
    applied: AtomicU64,
    /// The primary's advertised durable watermark.
    primary_durable: AtomicU64,
    /// The fencing epoch this node has adopted (persisted).
    epoch: AtomicU64,
    connected: AtomicBool,
    /// Micros since `start` at which the last replication frame was
    /// ingested (0 = never). Freshness gating reads this.
    last_contact: AtomicU64,
    /// Latched when a primary refused us or presented a stale epoch.
    saw_stale_primary: AtomicBool,
    /// Latched when the durable engine is known broken — a snapshot
    /// install failed *after* the old WAL was shut down, so applying
    /// anything further would append to a dead log. Both threads stop;
    /// the node needs a restart.
    poisoned: AtomicBool,
    apply_paused: AtomicBool,
    stop: AtomicBool,
    /// Replica-read capture, fed by the serve front end.
    capture: Arc<EventLog>,
    start: Instant,
}

impl NodeShared {
    fn lock_engine(&self) -> std::sync::MutexGuard<'_, Engine> {
        self.engine.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<(WalRecord, Instant)>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A live replica: receiver + applier threads over a recovered engine.
pub struct ReplicaNode {
    shared: Arc<NodeShared>,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl ReplicaNode {
    /// Recover the local directory and start the replication pipeline.
    pub fn start(cfg: ReplicaConfig) -> io::Result<Arc<ReplicaNode>> {
        let engine = boot_engine(&cfg)?;
        let epoch = read_epoch(&cfg.data_dir)?;
        let received = engine.applied_seq;
        let shared = Arc::new(NodeShared {
            cfg,
            engine: Mutex::new(engine),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            received: AtomicU64::new(received),
            applied: AtomicU64::new(received),
            primary_durable: AtomicU64::new(0),
            epoch: AtomicU64::new(epoch),
            connected: AtomicBool::new(false),
            last_contact: AtomicU64::new(0),
            saw_stale_primary: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            apply_paused: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            capture: Arc::new(EventLog::bounded(65_536)),
            start: Instant::now(),
        });
        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name("esr-repl-recv".into())
                    .spawn(move || receiver_loop(&shared))
                    .expect("spawn receiver"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name("esr-repl-apply".into())
                    .spawn(move || apply_loop(&shared))
                    .expect("spawn applier"),
            );
        }
        Ok(Arc::new(ReplicaNode {
            shared,
            threads: Mutex::new(threads),
        }))
    }

    /// Stop both threads, flush the local log, and join.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        let handles: Vec<_> = self
            .threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
        let eng = self.shared.lock_engine();
        eng.wal.sync_to(eng.wal.appended_seq());
        eng.wal.shutdown();
    }

    /// Test hook: freeze the applier (ingest continues, so divergence
    /// grows while the data copy stays put).
    pub fn pause_apply(&self) {
        self.shared.apply_paused.store(true, Ordering::SeqCst);
    }

    /// Undo [`ReplicaNode::pause_apply`].
    pub fn resume_apply(&self) {
        self.shared.apply_paused.store(false, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
    }

    /// Highest record ingested from the stream.
    pub fn received_seq(&self) -> u64 {
        self.shared.received.load(Ordering::SeqCst)
    }

    /// Highest record applied to the local data copy.
    pub fn applied_seq(&self) -> u64 {
        self.shared.applied.load(Ordering::SeqCst)
    }

    /// The fencing epoch this node has adopted.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }

    /// Whether the receiver currently holds an accepted subscription.
    pub fn connected(&self) -> bool {
        self.shared.connected.load(Ordering::SeqCst)
    }

    /// Whether the node's divergence accounting is currently *trustworthy
    /// and complete*: connected, recently fed (a frame within the 2 s
    /// freshness window), ingested up to the primary's advertised
    /// durable watermark, and not poisoned. When this is false the
    /// shadow is frozen at the last known primary state, so a measured
    /// divergence of zero proves nothing — strict (all-zero-bound) reads
    /// must not be admitted on it.
    pub fn fresh(&self) -> bool {
        if !self.connected() || self.poisoned() {
            return false;
        }
        let last = self.shared.last_contact.load(Ordering::SeqCst);
        if last == 0 {
            return false;
        }
        let now = self.shared.start.elapsed().as_micros() as u64;
        now.saturating_sub(last) <= FRESH_CONTACT_MICROS
            && self.received_seq() >= self.shared.primary_durable.load(Ordering::SeqCst)
    }

    /// Whether the durable engine was poisoned by a failed snapshot
    /// install (the old WAL was already shut down, so nothing further
    /// can be made durable). A poisoned node stops replicating and
    /// refuses strict reads; it must be restarted.
    pub fn poisoned(&self) -> bool {
        self.shared.poisoned.load(Ordering::SeqCst)
    }

    /// Whether this node has refused (or been refused by) a primary
    /// whose epoch was behind its own — the fencing tripwire.
    pub fn saw_stale_primary(&self) -> bool {
        self.shared.saw_stale_primary.load(Ordering::SeqCst)
    }

    /// The replica's local committed value of `obj`.
    pub fn value(&self, obj: ObjectId) -> Value {
        self.shared.lock_engine().table.with(obj, |s| s.value)
    }

    /// The primary's committed value of `obj` per the shipped shadow.
    pub fn shadow(&self, obj: ObjectId) -> Value {
        self.shared.lock_engine().shadow[obj.0 as usize]
    }

    /// Sum over all objects of `distance(local, shadow)`.
    pub fn divergence_total(&self) -> u64 {
        let eng = self.shared.lock_engine();
        let values = eng.table.values();
        values
            .iter()
            .zip(eng.shadow.iter())
            .map(|(&v, &s)| distance(v, s))
            .sum()
    }

    /// One read's admission inputs, under a single engine lock:
    /// `(local value, primary shadow, store-side OIL)`.
    pub(crate) fn read_state(&self, obj: ObjectId) -> (Value, Value, esr_core::bounds::Limit) {
        let eng = self.shared.lock_engine();
        let (local, oil) = eng.table.with(obj, |s| (s.value, s.oil));
        (local, eng.shadow[obj.0 as usize], oil)
    }

    /// Number of objects in the replicated table.
    pub fn n_objects(&self) -> usize {
        self.shared.lock_engine().table.len()
    }

    /// The hierarchy the node charges bounds over.
    pub fn schema(&self) -> &HierarchySchema {
        &self.shared.cfg.schema
    }

    /// Microseconds since node start — the reference clock the serve
    /// front end answers time exchanges with.
    pub(crate) fn reference_micros(&self) -> u64 {
        self.shared.start.elapsed().as_micros() as u64
    }

    /// Records ingested but not yet applied.
    pub fn lag_records(&self) -> u64 {
        self.received_seq().saturating_sub(self.applied_seq())
    }

    /// Age of the oldest unapplied record, in microseconds.
    pub fn lag_micros(&self) -> u64 {
        self.shared
            .lock_queue()
            .front()
            .map(|(_, at)| at.elapsed().as_micros() as u64)
            .unwrap_or(0)
    }

    /// The captured history of this node's replica reads, in the shape
    /// `esr-checker` replays.
    pub fn capture_history(&self) -> History {
        History {
            schema: self.shared.cfg.schema.clone(),
            config: KernelConfig::default(),
            events: self.shared.capture.events(),
        }
    }

    /// Replication stats for the replica role.
    pub fn replication_stats(&self) -> ReplicationStats {
        let received = self.received_seq();
        let applied = self.applied_seq();
        let (divergence_total, divergence_groups) = self.divergence_by_group();
        ReplicationStats {
            role: "replica".into(),
            epoch: self.epoch(),
            durable_seq: self.shared.primary_durable.load(Ordering::SeqCst),
            received_seq: received,
            applied_seq: applied,
            lag_records: received.saturating_sub(applied),
            lag_micros: self.lag_micros(),
            divergence_total,
            divergence_groups,
            peers: Vec::new(),
        }
    }

    /// Total divergence plus a per-top-level-group breakdown.
    pub fn divergence_by_group(&self) -> (u64, Vec<(String, u64)>) {
        let schema = &self.shared.cfg.schema;
        let eng = self.shared.lock_engine();
        let values = eng.table.values();
        let mut total = 0u64;
        let mut groups: Vec<(String, u64)> = schema
            .groups()
            .map(|(_, name)| (name.to_owned(), 0))
            .collect();
        for (i, (&v, &s)) in values.iter().zip(eng.shadow.iter()).enumerate() {
            let d = distance(v, s);
            if d == 0 {
                continue;
            }
            total += d;
            let node = schema.node_of(ObjectId(i as u32));
            if let Some(name) = schema.name_of(node) {
                if let Some(slot) = groups.iter_mut().find(|(n, _)| n == name) {
                    slot.1 += d;
                }
            }
        }
        (total, groups)
    }
}

impl StatsSource for ReplicaNode {
    /// Everything a replica reports about itself, for the wire `Stats`
    /// reply and `/metrics` alike: its replication state and its own
    /// log's report (bytes, recoveries, failure latch, and the fsync and
    /// checkpoint distributions). There is no kernel here, so the
    /// kernel's share stays zero.
    fn stats(&self) -> ServerStats {
        let mut stats = ServerStats {
            replication: Some(self.replication_stats()),
            ..ServerStats::default()
        };
        stats.add_sink(self.shared.lock_engine().wal.report());
        stats
    }
}

impl Drop for ReplicaNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

/// Stamp "the primary just spoke to us" for freshness gating.
fn note_contact(shared: &NodeShared) {
    let now = shared.start.elapsed().as_micros() as u64;
    shared.last_contact.fetch_max(now.max(1), Ordering::SeqCst);
}

fn receiver_loop(shared: &Arc<NodeShared>) {
    let mut backoff = BACKOFF_MIN;
    while !shared.stop.load(Ordering::SeqCst) && !shared.poisoned.load(Ordering::SeqCst) {
        match run_connection(shared) {
            Ok(made_progress) if made_progress => backoff = BACKOFF_MIN,
            _ => {}
        }
        shared.connected.store(false, Ordering::SeqCst);
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        thread::sleep(backoff);
        backoff = (backoff * 2).min(BACKOFF_MAX);
    }
    shared.connected.store(false, Ordering::SeqCst);
}

/// One connection's lifetime. `Ok(true)` when at least one frame was
/// ingested (resets the reconnect backoff).
fn run_connection(shared: &Arc<NodeShared>) -> io::Result<bool> {
    let addr = shared
        .cfg
        .primary
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "primary address"))?;
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let my_epoch = shared.epoch.load(Ordering::SeqCst);
    write_frame(
        &mut &stream,
        &ReplRequest::Subscribe {
            version: REPL_PROTOCOL_VERSION,
            epoch: my_epoch,
            from_seq: shared.received.load(Ordering::SeqCst) + 1,
        },
    )
    .map_err(frame_io)?;
    let mut frames = FrameReader::with_cap(&stream, MAX_REPL_FRAME);
    match frames.read::<ReplFrame>().map_err(frame_io)? {
        ReplFrame::Accept { epoch } => {
            if epoch < my_epoch {
                // A primary behind our fence: a resurrected
                // pre-failover corpse. Never apply its records.
                shared.saw_stale_primary.store(true, Ordering::SeqCst);
                return Ok(false);
            }
            if epoch > my_epoch {
                write_epoch(&shared.cfg.data_dir, epoch)?;
                shared.epoch.store(epoch, Ordering::SeqCst);
            }
        }
        ReplFrame::Fenced { .. } => {
            // We presented a newer epoch than the primary's: same
            // story from the other side.
            shared.saw_stale_primary.store(true, Ordering::SeqCst);
            return Ok(false);
        }
        _ => return Ok(false),
    }
    shared.connected.store(true, Ordering::SeqCst);
    note_contact(shared);

    let mut progressed = false;
    let mut snapshot: Option<Vec<ObjectSnapshot>> = None;
    loop {
        if shared.stop.load(Ordering::SeqCst) || shared.poisoned.load(Ordering::SeqCst) {
            return Ok(progressed);
        }
        let frame = match frames.read::<ReplFrame>() {
            Ok(f) => f,
            Err(FrameError::Timeout) => continue,
            Err(_) => return Ok(progressed),
        };
        progressed = true;
        note_contact(shared);
        match frame {
            ReplFrame::Heartbeat { durable_seq } => {
                shared
                    .primary_durable
                    .fetch_max(durable_seq, Ordering::SeqCst);
            }
            ReplFrame::Records {
                records,
                durable_seq,
            } => {
                shared
                    .primary_durable
                    .fetch_max(durable_seq, Ordering::SeqCst);
                for rec in records {
                    let received = shared.received.load(Ordering::SeqCst);
                    if rec.seq <= received {
                        // Duplicate (stream replay after reconnect).
                        continue;
                    }
                    if rec.seq != received + 1 {
                        // A gap in a dense log: the stream is broken.
                        // Tear down and resubscribe from the watermark.
                        return Ok(progressed);
                    }
                    if !ingest(shared, rec) {
                        return Ok(progressed);
                    }
                }
            }
            ReplFrame::SnapshotChunk { objects } => {
                snapshot.get_or_insert_with(Vec::new).extend(objects);
            }
            ReplFrame::SnapshotDone { next_seq, next_txn } => {
                install_snapshot(
                    shared,
                    snapshot.take().unwrap_or_default(),
                    next_seq,
                    next_txn,
                )?;
            }
            ReplFrame::Accept { .. } | ReplFrame::Fenced { .. } => return Ok(progressed),
        }
    }
}

/// Eagerly publish the record's writes to the shadow array, advance
/// the received watermark, and enqueue for apply (blocking while the
/// queue is full). Returns `false` when interrupted by shutdown.
fn ingest(shared: &Arc<NodeShared>, rec: WalRecord) -> bool {
    {
        let mut eng = shared.lock_engine();
        for &(obj, value) in &rec.writes {
            eng.shadow[obj.0 as usize] = value;
        }
    }
    shared.received.store(rec.seq, Ordering::SeqCst);
    let mut q = shared.lock_queue();
    while q.len() >= APPLY_QUEUE_CAP {
        if shared.stop.load(Ordering::SeqCst) || shared.poisoned.load(Ordering::SeqCst) {
            return false;
        }
        let (guard, _) = shared
            .queue_cv
            .wait_timeout(q, Duration::from_millis(100))
            .unwrap_or_else(PoisonError::into_inner);
        q = guard;
    }
    q.push_back((rec, Instant::now()));
    drop(q);
    shared.queue_cv.notify_all();
    true
}

/// Replace the whole durable state with a shipped snapshot and re-boot
/// the engine from it.
fn install_snapshot(
    shared: &Arc<NodeShared>,
    objects: Vec<ObjectSnapshot>,
    next_seq: u64,
    next_txn: u64,
) -> io::Result<()> {
    {
        let mut q = shared.lock_queue();
        q.clear();
    }
    shared.queue_cv.notify_all();
    let mut eng = shared.lock_engine();
    eng.wal.shutdown();
    // Past this point the old WAL is dead. If the install or the
    // re-boot fails, the engine must not keep running over it — the
    // applier would keep acknowledging records into a log that can no
    // longer flush (silent durability loss). Poison the node instead:
    // both threads stop, strict reads are refused, and the operator
    // restarts through the ordinary recovery path.
    let installed = install_snapshot_dir(&shared.cfg.data_dir, next_seq - 1, next_txn, objects)
        .and_then(|()| boot_engine(&shared.cfg));
    match installed {
        Ok(fresh_engine) => {
            *eng = fresh_engine;
            shared.received.store(next_seq - 1, Ordering::SeqCst);
            shared.applied.store(next_seq - 1, Ordering::SeqCst);
            Ok(())
        }
        Err(e) => {
            shared.poisoned.store(true, Ordering::SeqCst);
            shared.connected.store(false, Ordering::SeqCst);
            drop(eng);
            shared.queue_cv.notify_all();
            eprintln!(
                "esr-repl: snapshot install failed after the local WAL was shut down \
                 ({e}); replica poisoned — restart it to recover"
            );
            Err(e)
        }
    }
}

// ---------------------------------------------------------------------------
// Applier
// ---------------------------------------------------------------------------

fn apply_loop(shared: &Arc<NodeShared>) {
    let mut unsynced = 0u64;
    loop {
        if shared.stop.load(Ordering::SeqCst) || shared.poisoned.load(Ordering::SeqCst) {
            break;
        }
        if shared.apply_paused.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(1));
            continue;
        }
        let popped = {
            let mut q = shared.lock_queue();
            match q.pop_front() {
                Some(pair) => {
                    drop(q);
                    // Wake a receiver blocked on a full queue.
                    shared.queue_cv.notify_all();
                    Some(pair)
                }
                None => {
                    let (guard, _) = shared
                        .queue_cv
                        .wait_timeout(q, Duration::from_millis(100))
                        .unwrap_or_else(PoisonError::into_inner);
                    drop(guard);
                    None
                }
            }
        };
        let Some((rec, _arrived)) = popped else {
            // Idle moment: opportunistically flush the log.
            if unsynced > 0 {
                let eng = shared.lock_engine();
                eng.wal.sync_to(eng.applied_seq);
                drop(eng);
                unsynced = 0;
            }
            continue;
        };
        if shared.cfg.apply_delay_micros > 0 {
            thread::sleep(Duration::from_micros(shared.cfg.apply_delay_micros));
        }
        let mut eng = shared.lock_engine();
        if rec.seq != eng.applied_seq + 1 {
            // Stale against a snapshot install that happened between
            // pop and apply; the snapshot already covers it.
            continue;
        }
        for &(obj, value) in &rec.writes {
            eng.table.with(obj, |s| {
                s.apply_write(rec.txn, rec.ts, value);
                let committed = s.commit_write(rec.txn);
                debug_assert!(committed, "replicated write must commit");
            });
        }
        let local_seq = eng
            .wal
            .append_commit(rec.txn, rec.ts, rec.exported, &rec.writes);
        debug_assert_eq!(local_seq, rec.seq, "replica log must mirror the primary's");
        eng.applied_seq = rec.seq;
        eng.max_txn = eng.max_txn.max(rec.txn.0);
        eng.since_checkpoint += 1;
        unsynced += 1;
        let checkpoint_due =
            shared.cfg.checkpoint_every > 0 && eng.since_checkpoint >= shared.cfg.checkpoint_every;
        if unsynced >= SYNC_EVERY || checkpoint_due {
            eng.wal.sync_to(eng.applied_seq);
            unsynced = 0;
        }
        if checkpoint_due {
            // Streamed from the live table under the engine lock, which
            // is this node's commit gate. A failure is not fatal — the
            // log still holds everything — so it is surfaced and
            // retried after the next `checkpoint_every` records.
            let written = eng.wal.write_checkpoint(
                eng.applied_seq,
                eng.max_txn + 1,
                &mut snapshots(&eng.table),
            );
            if let Err(e) = written {
                eprintln!("esr-repl: checkpoint failed: {e}");
            }
            eng.since_checkpoint = 0;
        }
        drop(eng);
        shared.applied.store(rec.seq, Ordering::SeqCst);
    }
    // Drain nothing further; flush what was applied.
    let eng = shared.lock_engine();
    eng.wal.sync_to(eng.applied_seq);
}

/// Record a replica read into the capture stream (called by the serve
/// front end with the admission already done).
pub(crate) fn record_capture(node: &ReplicaNode, kind: EventKind) {
    node.shared.capture.record(kind);
}

fn frame_io(e: FrameError) -> io::Error {
    match e {
        FrameError::Io(e) => e,
        other => io::Error::other(other.to_string()),
    }
}
