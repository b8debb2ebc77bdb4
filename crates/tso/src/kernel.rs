//! The ESR kernel: scheduler + transaction manager + data manager.
//!
//! Drivers interact with the kernel through five entry points mirroring
//! the prototype's operations (§6): [`Kernel::begin`], [`Kernel::read`],
//! [`Kernel::write`], [`Kernel::commit`], [`Kernel::abort`] — plus
//! [`Kernel::resume`] for operations a previous response woke up.
//!
//! # Concurrency
//!
//! The kernel is fully thread-safe. The transaction registry and the
//! wait queues are both **sharded** (fixed power-of-two shard arrays;
//! registry shards keyed by `TxnId` hash, wait-queue shards keyed by
//! `ObjectId` hash — see [`KernelConfig::shards`]), so concurrent
//! transactions on different shards never contend on kernel-global
//! state. Lock order is unchanged from the single-lock layout:
//! `txn-registry shard (brief) → transaction state → one object →
//! wait-queue shard`, and **no code path ever holds two object locks —
//! or two locks of the same shard array — at once**: abort/commit
//! cleanup walks objects one at a time after releasing the operation's
//! object, and the cross-shard wait-queue scrub in `abort_cleanup`
//! locks wait-queue shards strictly one at a time. Waits park only
//! under younger-waits-for-older, so the wait-for relation follows
//! timestamp order and cannot deadlock.

use crate::config::{ExportRule, HistoryMissPolicy, KernelConfig};
use crate::obs::KernelObs;
use crate::outcome::{
    AbortReason, CommitInfo, OpOutcome, OpResponse, Operation, PendingOp, TxnEndResponse,
};
use crate::stats::{KernelStats, StatsSnapshot};
use crate::waitq::WaitQueue;
use esr_clock::Timestamp;
use esr_core::aggregate::AggregateTracker;
use esr_core::error::ViolationLevel;
use esr_core::hierarchy::HierarchySchema;
use esr_core::ids::{ObjectId, TxnId, TxnKind};
use esr_core::ledger::Ledger;
use esr_core::spec::{Direction, TxnBounds};
use esr_core::value::{distance, Value};
use esr_storage::history::ProperValue;
use esr_storage::object::ObjectState;
use esr_storage::table::ObjectTable;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Driver-side usage errors (not transaction aborts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The transaction id is not active (never begun, or already ended).
    UnknownTxn(TxnId),
    /// The object id is outside the database.
    UnknownObject(ObjectId),
    /// A query ET attempted a write; queries are read-only (§1).
    QueryCannotWrite(TxnId),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::UnknownTxn(t) => write!(f, "unknown transaction {t}"),
            KernelError::UnknownObject(o) => write!(f, "unknown object {o}"),
            KernelError::QueryCannotWrite(t) => {
                write!(f, "query ET {t} attempted a write")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// Per-transaction bookkeeping.
#[derive(Debug)]
struct TxnState {
    id: TxnId,
    ts: Timestamp,
    kind: TxnKind,
    ledger: Ledger,
    /// Min/max views per object, for §5.3.2 aggregate queries.
    agg: AggregateTracker,
    /// Objects this query registered as a reader on (dedup at cleanup).
    read_objs: Vec<ObjectId>,
    /// Objects this update holds uncommitted writes on (deduped).
    written_objs: Vec<ObjectId>,
    reads: u64,
    writes: u64,
    /// Lease deadline on the kernel's driver-advanced clock
    /// ([`Kernel::set_now`]); renewed by every submitted operation.
    /// Only meaningful when [`KernelConfig::lease_micros`] is non-zero.
    lease_deadline: u64,
    /// Set by the reaper after it removed this transaction from the
    /// registry. An in-flight operation that cloned the registry handle
    /// before the reap observes this after locking the state and fails
    /// with `UnknownTxn` instead of touching rolled-back state.
    reaped: bool,
}

impl TxnState {
    fn commit_info(&self) -> CommitInfo {
        CommitInfo {
            inconsistency: self.ledger.total(),
            inconsistent_ops: self.ledger.inconsistent_charges(),
            reads: self.reads,
            writes: self.writes,
            written: Vec::new(),
        }
    }
}

/// One transaction-registry shard.
type TxnShard = Mutex<HashMap<TxnId, Arc<Mutex<TxnState>>>>;

/// Multiplier of the Fibonacci (multiply-shift) shard hash: ids are
/// assigned sequentially, so the raw low bits would put bursts of
/// concurrent transactions on neighbouring shards; the golden-ratio
/// multiply decorrelates them.
const SHARD_HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// The timestamp-ordering ESR kernel.
pub struct Kernel {
    table: ObjectTable,
    schema: HierarchySchema,
    config: KernelConfig,
    /// Transaction registry, sharded by `TxnId` hash. Each entry is an
    /// `Arc` so the brief shard lock is released before the per-txn
    /// state lock is taken.
    txn_shards: Box<[TxnShard]>,
    /// Wait queues, sharded by `ObjectId` hash. Each shard owns the
    /// queues of its objects *and* the `TxnId → ObjectId` reverse index
    /// entries for those queues; a transaction parked on objects in
    /// several shards has an index entry in each.
    wait_shards: Box<[Mutex<WaitQueue>]>,
    /// `shard count − 1`; the count is a power of two.
    shard_mask: u64,
    next_txn: AtomicU64,
    /// The lease clock, in microseconds on a driver-defined timeline
    /// (wall-derived for the live server, virtual for the simulator).
    /// The kernel never reads a real clock; see [`Kernel::set_now`].
    now_micros: AtomicU64,
    stats: KernelStats,
    /// Optional event log for offline conformance checking; a leaf in
    /// the lock order (events are recorded with object locks held).
    #[cfg(feature = "capture")]
    capture: std::sync::OnceLock<Arc<crate::capture::EventLog>>,
    /// Optional live observability surface (latency histograms, event
    /// ring). Also a leaf in the lock order; until enabled, every hook
    /// costs one atomic load.
    obs: std::sync::OnceLock<Arc<KernelObs>>,
    /// Optional durability attachment (write-ahead log + checkpoint
    /// locks). Its commit gate and order mutex slot into the documented
    /// hierarchy between the transaction-state lock and the object
    /// locks (state → gate → order → object → waitq); both are owned
    /// and acquired by [`crate::durability::Durability::install_ordered`],
    /// never open-coded here.
    durability: std::sync::OnceLock<Arc<crate::durability::Durability>>,
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("objects", &self.table.len())
            .field("config", &self.config)
            .finish()
    }
}

impl Kernel {
    /// A kernel over `table` with the given hierarchy and configuration.
    pub fn new(table: ObjectTable, schema: HierarchySchema, config: KernelConfig) -> Self {
        let shards = config.shard_count();
        debug_assert!(shards.is_power_of_two());
        Kernel {
            table,
            schema,
            config,
            txn_shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            wait_shards: (0..shards).map(|_| Mutex::new(WaitQueue::new())).collect(),
            shard_mask: shards as u64 - 1,
            next_txn: AtomicU64::new(1),
            now_micros: AtomicU64::new(0),
            stats: KernelStats::new(),
            #[cfg(feature = "capture")]
            capture: std::sync::OnceLock::new(),
            obs: std::sync::OnceLock::new(),
            durability: std::sync::OnceLock::new(),
        }
    }

    /// A kernel with the paper's default configuration and the two-level
    /// hierarchy.
    pub fn with_defaults(table: ObjectTable) -> Self {
        Self::new(table, HierarchySchema::two_level(), KernelConfig::default())
    }

    /// The underlying object table.
    pub fn table(&self) -> &ObjectTable {
        &self.table
    }

    /// The group hierarchy.
    pub fn schema(&self) -> &HierarchySchema {
        &self.schema
    }

    /// The active configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Attach (or retrieve) the event log. Idempotent: the first call
    /// creates the log; later calls return the same one. Events are only
    /// recorded after this has been called.
    #[cfg(feature = "capture")]
    pub fn enable_capture(&self) -> Arc<crate::capture::EventLog> {
        Arc::clone(
            self.capture
                .get_or_init(|| Arc::new(crate::capture::EventLog::new())),
        )
    }

    /// Attach (or retrieve) the event log in bounded streaming mode:
    /// at most `capacity` events are retained, so capture on a
    /// long-running server stays bounded by the consumer's lag instead
    /// of growing with history length. Tail it with
    /// [`crate::capture::EventLog::tail`]. If a (full-history) log was
    /// already attached, it is switched to the bounded mode.
    #[cfg(feature = "capture")]
    pub fn enable_capture_bounded(&self, capacity: usize) -> Arc<crate::capture::EventLog> {
        let log = self.enable_capture();
        log.set_capacity(Some(capacity));
        log
    }

    /// The attached event log, if capture has been enabled.
    #[cfg(feature = "capture")]
    pub fn capture_log(&self) -> Option<Arc<crate::capture::EventLog>> {
        self.capture.get().cloned()
    }

    /// A self-contained history (schema + config + events) for the
    /// offline checker, if capture has been enabled.
    #[cfg(feature = "capture")]
    pub fn capture_history(&self) -> Option<crate::capture::History> {
        self.capture.get().map(|log| crate::capture::History {
            schema: self.schema.clone(),
            config: self.config,
            events: log.events(),
        })
    }

    /// Record one event if a log is attached. The closure only runs when
    /// capture is live, so hot paths pay a single atomic load otherwise.
    #[cfg(feature = "capture")]
    #[inline]
    fn record(&self, f: impl FnOnce() -> crate::capture::EventKind) {
        if let Some(log) = self.capture.get() {
            log.record(f());
        }
    }

    /// Attach (or retrieve) the live observability surface. Idempotent:
    /// the first call creates it; later calls return the same one.
    /// Latencies and events are only recorded after this has been
    /// called, and observing never changes a kernel decision (see the
    /// driver-equivalence test).
    pub fn enable_obs(&self) -> Arc<KernelObs> {
        Arc::clone(self.obs.get_or_init(|| Arc::new(KernelObs::new())))
    }

    /// [`Kernel::enable_obs`], measuring durations on `clock` instead
    /// of the wall clock. Deterministic drivers (the simulator, a
    /// virtual-time server) attach their manual time source here so an
    /// obs-on run replays bit-identically. If a surface already exists
    /// its clock is kept (attachment is first-wins, like `enable_obs`).
    pub fn enable_obs_with_clock(&self, clock: Arc<dyn esr_clock::TimeSource>) -> Arc<KernelObs> {
        Arc::clone(
            self.obs
                .get_or_init(|| Arc::new(KernelObs::with_clock(clock))),
        )
    }

    /// The attached observability surface, if enabled.
    pub fn obs(&self) -> Option<Arc<KernelObs>> {
        self.obs.get().cloned()
    }

    /// Attach a durability sink (write-ahead log). First-wins, like
    /// [`Kernel::enable_obs`]: if a sink is already attached the
    /// existing attachment is kept and returned. Once attached, every
    /// committing update appends a redo record before its install
    /// locks release; the *driver* must gate the client-visible commit
    /// acknowledgement on [`TxnEndResponse::durable_seq`] via the
    /// sink's `sync_to`.
    pub fn enable_durability(
        &self,
        sink: Arc<dyn esr_storage::wal::DurabilitySink>,
    ) -> Arc<crate::durability::Durability> {
        if let Some(heap) = self.table.pager() {
            // The pool must be able to wait on the log before writing
            // back a dirty page (WAL-before-page).
            heap.attach_wal(Arc::clone(&sink));
        }
        Arc::clone(
            self.durability
                .get_or_init(|| Arc::new(crate::durability::Durability::new(sink))),
        )
    }

    /// The durability attachment, if one is enabled.
    pub fn durability(&self) -> Option<Arc<crate::durability::Durability>> {
        self.durability.get().cloned()
    }

    /// Quiesce commits and write a checkpoint covering every record
    /// appended so far. No-op (returns `None`) without a durability
    /// attachment.
    pub fn checkpoint(&self) -> std::io::Result<Option<u64>> {
        match self.durability.get() {
            Some(d) => d
                .checkpoint(&self.table, self.next_txn.load(Ordering::Relaxed))
                .map(Some),
            None => Ok(None),
        }
    }

    /// Raise the next transaction id to at least `next`. Recovery calls
    /// this with the id after the largest ever journaled, so a
    /// restarted server can neither reuse a pre-crash id (a retried
    /// `End` for a crashed transaction must resolve to `UnknownTxn`,
    /// not alias a live one) nor collide new transactions with
    /// recovered history.
    pub fn restore_next_txn(&self, next: u64) {
        self.next_txn.fetch_max(next, Ordering::Relaxed);
    }

    /// The id the next transaction will be assigned. A shipped snapshot
    /// records this so the receiving replica, if later promoted,
    /// continues the id sequence instead of aliasing history.
    pub fn next_txn(&self) -> u64 {
        self.next_txn.load(Ordering::Relaxed)
    }

    /// The registry shard owning `txn`.
    #[inline]
    fn txn_shard(&self, txn: TxnId) -> &TxnShard {
        let h = txn.0.wrapping_mul(SHARD_HASH) >> 32;
        &self.txn_shards[(h & self.shard_mask) as usize]
    }

    /// The wait-queue shard owning `obj`.
    #[inline]
    fn wait_shard(&self, obj: ObjectId) -> &Mutex<WaitQueue> {
        let h = u64::from(obj.0).wrapping_mul(SHARD_HASH) >> 32;
        &self.wait_shards[(h & self.shard_mask) as usize]
    }

    /// The effective shard count of both shard arrays.
    pub fn shards(&self) -> usize {
        self.txn_shards.len()
    }

    /// Current wait-queue depth (total parked operations). O(shards)
    /// with an O(1) read per shard; safe to poll from a metrics
    /// endpoint. Concurrent parks/releases make this a point-in-time
    /// approximation, exactly as the single-lock gauge was.
    pub fn waitq_depth(&self) -> usize {
        self.wait_shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Number of currently active transactions (summed across registry
    /// shards).
    pub fn active_txns(&self) -> usize {
        self.txn_shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Advance the lease clock. The kernel never reads a wall clock
    /// itself: the driver supplies "now" in microseconds on whatever
    /// timeline it reaps on (the live server derives it from its
    /// reference clock; the simulator stores virtual time). Monotonicity
    /// is the driver's responsibility — a stale store merely delays
    /// reaping, it never aborts a renewed transaction.
    pub fn set_now(&self, micros: u64) {
        self.now_micros.store(micros, Ordering::Relaxed);
    }

    /// The lease clock's current value (last [`Kernel::set_now`]).
    pub fn now_micros(&self) -> u64 {
        self.now_micros.load(Ordering::Relaxed)
    }

    /// Renew `t`'s lease against the lease clock. Called with the state
    /// lock held by every operation submission; a no-op (and outcome-
    /// neutral) when leases are disabled.
    #[inline]
    fn renew_lease(&self, t: &mut TxnState) {
        if self.config.lease_micros > 0 {
            t.lease_deadline = self
                .now_micros
                .load(Ordering::Relaxed)
                .saturating_add(self.config.lease_micros);
        }
    }

    /// Begin a transaction with an externally generated timestamp
    /// (timestamps are assigned when transactions begin, §4).
    ///
    /// # Panics
    /// Panics if the bound direction contradicts the transaction kind
    /// (an import spec on an update ET or vice versa) — that is a driver
    /// bug, not a runtime condition.
    pub fn begin(&self, kind: TxnKind, bounds: TxnBounds, ts: Timestamp) -> TxnId {
        let expected = Direction::for_kind(kind);
        assert_eq!(
            bounds.direction, expected,
            "bounds direction {:?} does not match transaction kind {kind}",
            bounds.direction
        );
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed));
        #[cfg(feature = "capture")]
        self.record(|| crate::capture::EventKind::Begin {
            txn: id,
            kind,
            ts,
            bounds: bounds.clone(),
        });
        let lease_deadline = if self.config.lease_micros > 0 {
            self.now_micros
                .load(Ordering::Relaxed)
                .saturating_add(self.config.lease_micros)
        } else {
            0
        };
        let state = TxnState {
            id,
            ts,
            kind,
            ledger: Ledger::new(&self.schema, &bounds),
            agg: AggregateTracker::new(),
            read_objs: Vec::new(),
            written_objs: Vec::new(),
            reads: 0,
            writes: 0,
            lease_deadline,
            reaped: false,
        };
        self.txn_shard(id)
            .lock()
            .insert(id, Arc::new(Mutex::new(state)));
        self.stats.begins.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.note_begin(id, kind);
        }
        id
    }

    fn txn_handle(&self, txn: TxnId) -> Result<Arc<Mutex<TxnState>>, KernelError> {
        self.txn_shard(txn)
            .lock()
            .get(&txn)
            .cloned()
            .ok_or(KernelError::UnknownTxn(txn))
    }

    fn check_object(&self, obj: ObjectId) -> Result<(), KernelError> {
        if self.table.contains(obj) {
            Ok(())
        } else {
            Err(KernelError::UnknownObject(obj))
        }
    }

    /// Submit a read.
    pub fn read(&self, txn: TxnId, obj: ObjectId) -> Result<OpResponse, KernelError> {
        let t0 = self.obs.get().map(|o| o.now_micros());
        let res = self.read_inner(txn, obj);
        if let (Some(t0), Some(obs)) = (t0, self.obs.get()) {
            obs.op_service.record(obs.now_micros().saturating_sub(t0));
        }
        res
    }

    fn read_inner(&self, txn: TxnId, obj: ObjectId) -> Result<OpResponse, KernelError> {
        self.check_object(obj)?;
        let handle = self.txn_handle(txn)?;
        let mut t = handle.lock();
        if t.reaped {
            return Err(KernelError::UnknownTxn(txn));
        }
        self.renew_lease(&mut t);
        match t.kind {
            TxnKind::Query => Ok(self.query_read(&mut t, obj)),
            TxnKind::Update => Ok(self.update_read(&mut t, obj)),
        }
    }

    /// Submit a write (update ETs only).
    pub fn write(
        &self,
        txn: TxnId,
        obj: ObjectId,
        value: Value,
    ) -> Result<OpResponse, KernelError> {
        let t0 = self.obs.get().map(|o| o.now_micros());
        let res = self.write_inner(txn, obj, value);
        if let (Some(t0), Some(obs)) = (t0, self.obs.get()) {
            obs.op_service.record(obs.now_micros().saturating_sub(t0));
        }
        res
    }

    fn write_inner(
        &self,
        txn: TxnId,
        obj: ObjectId,
        value: Value,
    ) -> Result<OpResponse, KernelError> {
        self.check_object(obj)?;
        let handle = self.txn_handle(txn)?;
        let mut t = handle.lock();
        if t.reaped {
            return Err(KernelError::UnknownTxn(txn));
        }
        if t.kind != TxnKind::Update {
            return Err(KernelError::QueryCannotWrite(txn));
        }
        self.renew_lease(&mut t);
        Ok(self.update_write(&mut t, obj, value))
    }

    /// Resubmit an operation released from a wait queue.
    pub fn resume(&self, pending: PendingOp) -> Result<OpResponse, KernelError> {
        match pending.op {
            Operation::Read(obj) => self.read(pending.txn, obj),
            Operation::Write(obj, v) => self.write(pending.txn, obj, v),
        }
    }

    /// Commit a transaction.
    pub fn commit(&self, txn: TxnId) -> Result<TxnEndResponse, KernelError> {
        let handle = self.remove_txn(txn)?;
        let t = handle.lock();
        let mut info = t.commit_info();
        let mut woken = Vec::new();
        let mut durable_seq = None;
        match t.kind {
            TxnKind::Update => {
                // `seq`: the redo record these installs will be logged
                // under (0 without a sink), stamped for WAL-before-page.
                let install = |seq: u64, info: &mut CommitInfo, woken: &mut Vec<PendingOp>| {
                    for &obj in dedup(&t.written_objs).iter() {
                        let mut o = self.table.lock(obj);
                        if o.commit_write(t.id) {
                            o.cover(seq);
                            info.written.push((obj, o.value));
                            self.wake_waiters(&mut o, woken);
                        }
                    }
                };
                match self.durability.get() {
                    // With a sink attached, the install loop and the
                    // redo-record append run as one ordered unit so
                    // recovery replays values in install order.
                    Some(d) => {
                        let (seq, written) = d.install_ordered(t.id, t.ts, |seq| {
                            install(seq, &mut info, &mut woken);
                            (info.inconsistency, std::mem::take(&mut info.written))
                        });
                        info.written = written;
                        durable_seq = seq;
                    }
                    None => install(0, &mut info, &mut woken),
                }
                self.stats.commits_update.fetch_add(1, Ordering::Relaxed);
            }
            TxnKind::Query => {
                for &obj in dedup(&t.read_objs).iter() {
                    self.table.lock(obj).remove_reader(t.id);
                }
                self.stats.commits_query.fetch_add(1, Ordering::Relaxed);
            }
        }
        #[cfg(feature = "capture")]
        self.record(|| crate::capture::EventKind::Commit {
            txn: t.id,
            info: info.clone(),
        });
        if let Some(obs) = self.obs.get() {
            obs.note_commit(t.id, info.inconsistency);
        }
        Ok(TxnEndResponse {
            info: Some(info),
            woken,
            durable_seq,
        })
    }

    /// Abort a transaction explicitly (client-initiated).
    pub fn abort(&self, txn: TxnId) -> Result<TxnEndResponse, KernelError> {
        let handle = self.remove_txn(txn)?;
        let mut t = handle.lock();
        #[cfg(feature = "capture")]
        self.record(|| crate::capture::EventKind::Abort {
            txn: t.id,
            reason: None,
        });
        if let Some(obs) = self.obs.get() {
            obs.note_abort(t.id, "client".into());
        }
        let woken = self.abort_cleanup(&mut t);
        Ok(TxnEndResponse {
            info: None,
            woken,
            durable_seq: None,
        })
    }

    /// Reaper-initiated abort of one transaction (lease expiry or
    /// connection orphaning). Identical to [`Kernel::abort`] — the same
    /// rollback, waiter wakeup, and wait-queue scrub — but recorded with
    /// [`AbortReason::Reaped`] and counted in `reaped_txns`, and the
    /// state is flagged so an operation racing the reap fails with
    /// `UnknownTxn` instead of touching rolled-back state.
    pub fn reap(&self, txn: TxnId) -> Result<TxnEndResponse, KernelError> {
        let handle = self.remove_txn(txn)?;
        let mut t = handle.lock();
        Ok(self.finish_reap(&mut t))
    }

    /// Abort every transaction whose lease deadline has passed on the
    /// lease clock ([`Kernel::set_now`]). Returns one entry per reaped
    /// transaction; the driver must resume each response's `woken` list
    /// and answer any client still parked on the reaped transaction.
    /// Empty (and O(shards)) when leases are disabled.
    pub fn reap_expired(&self) -> Vec<(TxnId, TxnEndResponse)> {
        if self.config.lease_micros == 0 {
            return Vec::new();
        }
        let now = self.now_micros.load(Ordering::Relaxed);
        // Snapshot the candidates under brief shard locks; the per-txn
        // deadline check happens under the state lock afterwards, so a
        // transaction renewed (or ended) between snapshot and check is
        // left alone.
        let mut candidates = Vec::new();
        for shard in self.txn_shards.iter() {
            let guard = shard.lock();
            candidates.extend(guard.iter().map(|(&id, s)| (id, Arc::clone(s))));
        }
        // Registry maps iterate in hasher order; sort so the reap order
        // (and thus the wake cascade) is identical across runs and
        // shard layouts — reaping must stay outcome-neutral.
        candidates.sort_unstable_by_key(|&(id, _)| id);
        let mut reaped = Vec::new();
        for (id, state) in candidates {
            if state.lock().lease_deadline > now {
                continue;
            }
            // Expired at the snapshot: remove it, then re-check under
            // the state lock in case a late operation renewed it.
            let Ok(handle) = self.remove_txn(id) else {
                continue; // committed or aborted since the snapshot
            };
            let mut t = handle.lock();
            if t.lease_deadline > now {
                self.txn_shard(id).lock().insert(id, Arc::clone(&handle));
                continue;
            }
            let end = self.finish_reap(&mut t);
            reaped.push((id, end));
        }
        reaped
    }

    /// Shared tail of [`Kernel::reap`]/[`Kernel::reap_expired`]: called
    /// with the state locked, after registry removal.
    fn finish_reap(&self, t: &mut TxnState) -> TxnEndResponse {
        t.reaped = true;
        #[cfg(feature = "capture")]
        self.record(|| crate::capture::EventKind::Abort {
            txn: t.id,
            reason: Some(AbortReason::Reaped),
        });
        if let Some(obs) = self.obs.get() {
            obs.note_abort(t.id, AbortReason::Reaped.to_string());
        }
        self.stats.reaped_txns.fetch_add(1, Ordering::Relaxed);
        let woken = self.abort_cleanup(t);
        TxnEndResponse {
            info: None,
            woken,
            durable_seq: None,
        }
    }

    fn remove_txn(&self, txn: TxnId) -> Result<Arc<Mutex<TxnState>>, KernelError> {
        self.txn_shard(txn)
            .lock()
            .remove(&txn)
            .ok_or(KernelError::UnknownTxn(txn))
    }

    /// Roll back a transaction's effects. Called with the state locked
    /// and *no object lock held*; locks objects one at a time.
    fn abort_cleanup(&self, t: &mut TxnState) -> Vec<PendingOp> {
        let mut woken = Vec::new();
        match t.kind {
            TxnKind::Update => {
                for &obj in dedup(&t.written_objs).iter() {
                    let mut o = self.table.lock(obj);
                    if o.abort_write(t.id) {
                        self.wake_waiters(&mut o, &mut woken);
                    }
                }
                self.stats.aborts_update.fetch_add(1, Ordering::Relaxed);
            }
            TxnKind::Query => {
                for &obj in dedup(&t.read_objs).iter() {
                    self.table.lock(obj).remove_reader(t.id);
                }
                self.stats.aborts_query.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Defensive: a transaction the kernel aborts cannot have parked
        // operations (its client is blocked on the aborting call), but
        // an externally-driven abort might race a wake. The transaction
        // may have parked on objects owned by any wait-queue shard, so
        // scrub them all — one shard at a time, never two at once, so
        // the lock order stays a single wait-queue lock at the tail.
        for shard in self.wait_shards.iter() {
            shard.lock().remove_txn(t.id);
        }
        woken
    }

    /// Kernel-initiated abort in response to a rejected operation.
    /// The transaction is removed from the registry and cleaned up.
    fn abort_now(&self, t: &mut TxnState, reason: AbortReason) -> OpResponse {
        match &reason {
            AbortReason::LateRead => {
                self.stats.late_read_aborts.fetch_add(1, Ordering::Relaxed);
            }
            AbortReason::LateWriteVsCommittedWrite | AbortReason::LateWriteVsUpdateRead => {
                self.stats.late_write_aborts.fetch_add(1, Ordering::Relaxed);
            }
            AbortReason::BoundViolation(v) => {
                let ctr = match v.level {
                    ViolationLevel::Object(_) => &self.stats.violations_object,
                    ViolationLevel::Group(_) => &self.stats.violations_group,
                    ViolationLevel::Transaction => &self.stats.violations_transaction,
                };
                ctr.fetch_add(1, Ordering::Relaxed);
            }
            AbortReason::HistoryMiss => {
                self.stats.history_misses.fetch_add(1, Ordering::Relaxed);
            }
            AbortReason::Reaped => {
                // Reaps go through `finish_reap`, never through a
                // rejected operation; keep the counter honest anyway.
                debug_assert!(false, "Reaped must not reach abort_now");
                self.stats.reaped_txns.fetch_add(1, Ordering::Relaxed);
            }
        }
        #[cfg(feature = "capture")]
        self.record(|| crate::capture::EventKind::Abort {
            txn: t.id,
            reason: Some(reason.clone()),
        });
        if let Some(obs) = self.obs.get() {
            obs.note_abort(t.id, reason.to_string());
        }
        self.txn_shard(t.id).lock().remove(&t.id);
        let woken = self.abort_cleanup(t);
        OpResponse {
            outcome: OpOutcome::Aborted(reason),
            woken,
        }
    }

    /// Hand every waiter parked on `o` back to the driver. Called with
    /// the object lock held so no wakeup can be lost.
    fn wake_waiters(&self, o: &mut ObjectState, woken: &mut Vec<PendingOp>) {
        let released = self.wait_shard(o.id).lock().release(o.id);
        if !released.is_empty() {
            self.stats
                .wakes
                .fetch_add(released.len() as u64, Ordering::Relaxed);
            if let Some(obs) = self.obs.get() {
                for p in &released {
                    obs.note_wake(p.txn, o.id);
                }
            }
            woken.extend(released);
        }
    }

    /// Park `op`; caller decided to wait while holding the object lock.
    ///
    /// Parking pauses the transaction's lease: a parked operation is
    /// blocked on the *server* (an older uncommitted writer), not on a
    /// stalled client, and the client cannot renew while its one
    /// outstanding op is withheld. The renewal in `read`/`write` restores
    /// a finite deadline when the op resumes.
    fn park(&self, o: &ObjectState, t: &mut TxnState, op: Operation) -> OpResponse {
        debug_assert_eq!(op.object(), o.id);
        let txn = t.id;
        if self.config.lease_micros > 0 {
            t.lease_deadline = u64::MAX;
        }
        #[cfg(feature = "capture")]
        self.record(|| crate::capture::EventKind::Wait { txn, obj: o.id });
        if let Some(obs) = self.obs.get() {
            obs.note_park(txn, o.id);
        }
        self.stats.waits.fetch_add(1, Ordering::Relaxed);
        self.wait_shard(o.id).lock().park(PendingOp { txn, op });
        OpResponse::only(OpOutcome::Wait)
    }

    /// Resolve the proper value for a reader at `ts`, applying the
    /// history-miss policy. `Err(())` means the transaction must abort.
    fn proper_for(&self, o: &ObjectState, ts: Timestamp) -> Result<Value, ()> {
        match o.proper_value_at(ts) {
            ProperValue::Exact(v) => Ok(v),
            ProperValue::Approximate(v) => {
                self.stats.history_misses.fetch_add(1, Ordering::Relaxed);
                match self.config.history_miss {
                    HistoryMissPolicy::Approximate => Ok(v),
                    HistoryMissPolicy::Abort => Err(()),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Query reads: standard TO plus relaxation cases 1 and 2.
    // ------------------------------------------------------------------

    fn query_read(&self, t: &mut TxnState, obj: ObjectId) -> OpResponse {
        let ts = t.ts;
        let mut o = self.table.lock(obj);

        let uncommitted = o.uncommitted_by_other(t.id).copied();
        let late = ts < o.committed_wts;

        if uncommitted.is_none() && !late {
            // Standard-TO read: the newest committed write is not newer
            // than the query, so present == proper and d == 0.
            let v = o.value;
            o.note_query_read(t.id, ts, v);
            #[cfg(feature = "capture")]
            self.record(|| crate::capture::EventKind::QueryRead {
                txn: t.id,
                obj,
                present: v,
                proper: v,
                d: 0,
                case1: false,
                case2: false,
                oil: o.oil,
            });
            drop(o);
            t.read_objs.push(obj);
            t.reads += 1;
            t.agg.record(obj, v);
            self.stats.reads.fetch_add(1, Ordering::Relaxed);
            return OpResponse::only(OpOutcome::Value(v));
        }

        // Relaxed path — case 1 (late vs committed write), case 2
        // (uncommitted data from a concurrent update), or both.
        let proper = match self.proper_for(&o, ts) {
            Ok(p) => p,
            Err(()) => {
                drop(o);
                return self.abort_now(t, AbortReason::HistoryMiss);
            }
        };
        let present = o.value;
        let mut d = distance(present, proper);
        if uncommitted.is_some() {
            // Optional guard against the writer aborting under us
            // (§5.1's "add the maximum change" mitigation; 0 by default).
            d = d.saturating_add(self.config.import_padding);
        }

        // The admitting level must be read *before* the charge lands
        // (the walk compares headroom against current accumulators).
        #[cfg(feature = "obs-events")]
        let admit_level = self
            .obs
            .get()
            .map(|_| t.ledger.binding_level(obj, d, o.oil));
        match t.ledger.try_charge(obj, d, o.oil) {
            Ok(()) => {
                #[cfg(feature = "obs-events")]
                if let (Some(obs), Some(level)) = (self.obs.get(), admit_level) {
                    obs.push_event(
                        t.id,
                        crate::obs::TxnEventKind::Relax {
                            case: if uncommitted.is_some() { 2 } else { 1 },
                            d,
                            level,
                        },
                    );
                }
                o.note_query_read(t.id, ts, proper);
                #[cfg(feature = "capture")]
                self.record(|| crate::capture::EventKind::QueryRead {
                    txn: t.id,
                    obj,
                    present,
                    proper,
                    d,
                    case1: late,
                    case2: uncommitted.is_some(),
                    oil: o.oil,
                });
                drop(o);
                t.read_objs.push(obj);
                t.reads += 1;
                t.agg.record_with_proper(obj, present, proper);
                self.stats.reads.fetch_add(1, Ordering::Relaxed);
                if d > 0 {
                    self.stats
                        .inconsistent_reads
                        .fetch_add(1, Ordering::Relaxed);
                }
                OpResponse::only(OpOutcome::Value(present))
            }
            Err(violation) => {
                // The bound says no. If the blocker is merely a
                // concurrent (older) uncommitted write, fall back to the
                // strict-ordering wait; once the writer resolves, the
                // read is re-evaluated. If the read is late regardless,
                // waiting cannot help: abort and restart.
                if let Some(u) = uncommitted {
                    if ts > u.ts {
                        return self.park(&o, t, Operation::Read(obj));
                    }
                }
                drop(o);
                if late {
                    self.abort_now(t, AbortReason::BoundViolation(violation))
                } else {
                    // Not late vs committed data; the only obstacle was
                    // an uncommitted write from a *younger* transaction.
                    // After it commits this read would be late, so abort
                    // now (younger-waits-for-older keeps waits acyclic).
                    self.abort_now(t, AbortReason::LateRead)
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Update reads: strictly consistent (no relaxation).
    // ------------------------------------------------------------------

    fn update_read(&self, t: &mut TxnState, obj: ObjectId) -> OpResponse {
        let ts = t.ts;
        let o = self.table.lock(obj);

        if let Some(u) = o.uncommitted_by_other(t.id) {
            if ts > u.ts {
                // Concurrent, not late: wait for the older writer.
                let op = Operation::Read(obj);
                return self.park(&o, t, op);
            }
            // Older than the uncommitted writer: once it commits this
            // read is late. Abort immediately.
            drop(o);
            return self.abort_now(t, AbortReason::LateRead);
        }
        if ts < o.committed_wts {
            drop(o);
            return self.abort_now(t, AbortReason::LateRead);
        }
        // Reads its own uncommitted write, if any, since the in-place
        // value *is* the transaction's view.
        let v = o.value;
        let mut o = o;
        o.note_update_read(ts);
        #[cfg(feature = "capture")]
        self.record(|| crate::capture::EventKind::UpdateRead {
            txn: t.id,
            obj,
            value: v,
        });
        drop(o);
        t.reads += 1;
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        OpResponse::only(OpOutcome::Value(v))
    }

    // ------------------------------------------------------------------
    // Update writes: standard TO plus relaxation case 3.
    // ------------------------------------------------------------------

    fn update_write(&self, t: &mut TxnState, obj: ObjectId, value: Value) -> OpResponse {
        let ts = t.ts;
        let mut o = self.table.lock(obj);

        if let Some(u) = o.uncommitted_by_other(t.id) {
            if ts > u.ts {
                // Strict ordering admits one uncommitted writer at a
                // time; younger writers queue behind it.
                let op = Operation::Write(obj, value);
                return self.park(&o, t, op);
            }
            drop(o);
            return self.abort_now(t, AbortReason::LateWriteVsCommittedWrite);
        }
        if ts < o.max_update_rts {
            // A consistent read with a newer timestamp has already seen
            // the pre-state. Never relaxable (§4: the last read must be
            // "from a query ET" for case 3 to apply).
            drop(o);
            return self.abort_now(t, AbortReason::LateWriteVsUpdateRead);
        }
        if ts < o.committed_wts {
            if self.config.thomas_write_rule {
                #[cfg(feature = "capture")]
                self.record(|| crate::capture::EventKind::WriteSkipped {
                    txn: t.id,
                    obj,
                    value,
                });
                drop(o);
                t.writes += 1;
                self.stats.thomas_skips.fetch_add(1, Ordering::Relaxed);
                return OpResponse::only(OpOutcome::WriteSkipped);
            }
            drop(o);
            return self.abort_now(t, AbortReason::LateWriteVsCommittedWrite);
        }

        if ts < o.max_query_rts {
            // Case 3: some query ET with a newer timestamp has read this
            // object. In a serial order by timestamp that query should
            // have seen this write; executing it exports inconsistency
            // to every registered uncommitted query reader (§5.2).
            let d = match self.config.export_rule {
                ExportRule::MaxOverReaders => o
                    .readers
                    .iter()
                    .map(|r| distance(value, r.proper))
                    .max()
                    .unwrap_or(0),
                ExportRule::SumOverReaders => o
                    .readers
                    .iter()
                    .map(|r| distance(value, r.proper))
                    .fold(0u64, u64::saturating_add),
            };
            #[cfg(feature = "obs-events")]
            let admit_level = self
                .obs
                .get()
                .map(|_| t.ledger.binding_level(obj, d, o.oel));
            match t.ledger.try_charge(obj, d, o.oel) {
                Ok(()) => {
                    #[cfg(feature = "obs-events")]
                    if let (Some(obs), Some(level)) = (self.obs.get(), admit_level) {
                        obs.push_event(t.id, crate::obs::TxnEventKind::Relax { case: 3, d, level });
                    }
                    o.apply_write(t.id, ts, value);
                    #[cfg(feature = "capture")]
                    self.record(|| crate::capture::EventKind::Write {
                        txn: t.id,
                        obj,
                        value,
                        d,
                        case3: true,
                        readers: o
                            .readers
                            .iter()
                            .map(|r| crate::capture::ReaderView {
                                txn: r.txn,
                                proper: r.proper,
                            })
                            .collect(),
                        oel: o.oel,
                    });
                    drop(o);
                    t.written_objs.push(obj);
                    t.writes += 1;
                    self.stats.writes.fetch_add(1, Ordering::Relaxed);
                    if d > 0 {
                        self.stats
                            .inconsistent_writes
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    OpResponse::only(OpOutcome::Written)
                }
                Err(violation) => {
                    drop(o);
                    self.abort_now(t, AbortReason::BoundViolation(violation))
                }
            }
        } else {
            // Plain TO write.
            o.apply_write(t.id, ts, value);
            #[cfg(feature = "capture")]
            self.record(|| crate::capture::EventKind::Write {
                txn: t.id,
                obj,
                value,
                d: 0,
                case3: false,
                readers: Vec::new(),
                oel: o.oel,
            });
            drop(o);
            t.written_objs.push(obj);
            t.writes += 1;
            self.stats.writes.fetch_add(1, Ordering::Relaxed);
            OpResponse::only(OpOutcome::Written)
        }
    }

    /// Inspect an active transaction's accumulated inconsistency
    /// (`None` if the transaction is not active).
    pub fn imported_or_exported(&self, txn: TxnId) -> Option<u64> {
        let h = self.txn_handle(txn).ok()?;
        let g = h.lock();
        Some(g.ledger.total())
    }

    /// Evaluate an aggregate over everything a query has read so far,
    /// enforcing the TIL at aggregate time (§5.3.2). Returns the
    /// aggregate's result interval, or aborts the transaction if the
    /// result inconsistency exceeds the transaction's root limit.
    pub fn check_aggregate(
        &self,
        txn: TxnId,
        kind: esr_core::aggregate::AggregateKind,
    ) -> Result<Result<esr_core::aggregate::ResultBounds, OpResponse>, KernelError> {
        let handle = self.txn_handle(txn)?;
        let mut t = handle.lock();
        if t.reaped {
            return Err(KernelError::UnknownTxn(txn));
        }
        let til = t.ledger.limit(esr_core::hierarchy::NodeId::ROOT);
        match t.agg.check_result(kind, til) {
            Ok(bounds) => Ok(Ok(bounds)),
            Err(v) => Ok(Err(self.abort_now(&mut t, AbortReason::BoundViolation(v)))),
        }
    }
}

/// Sorted, deduplicated copy of an object list (cleanup helper).
fn dedup(objs: &[ObjectId]) -> Vec<ObjectId> {
    let mut v = objs.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::bounds::Limit;
    use esr_core::ids::SiteId;
    use esr_storage::catalog::CatalogConfig;

    fn ts(t: u64) -> Timestamp {
        Timestamp::new(t, SiteId(0))
    }

    fn table_with(values: &[Value]) -> ObjectTable {
        CatalogConfig::default().build_with_values(values)
    }

    fn kernel_with(values: &[Value]) -> Kernel {
        Kernel::with_defaults(table_with(values))
    }

    fn begin_query(k: &Kernel, til: Limit, at: u64) -> TxnId {
        k.begin(TxnKind::Query, TxnBounds::import(til), ts(at))
    }

    fn begin_update(k: &Kernel, tel: Limit, at: u64) -> TxnId {
        k.begin(TxnKind::Update, TxnBounds::export(tel), ts(at))
    }

    fn must_value(r: Result<OpResponse, KernelError>) -> Value {
        match r.unwrap().outcome {
            OpOutcome::Value(v) => v,
            other => panic!("expected value, got {other:?}"),
        }
    }

    fn must_written(r: Result<OpResponse, KernelError>) {
        match r.unwrap().outcome {
            OpOutcome::Written => {}
            other => panic!("expected written, got {other:?}"),
        }
    }

    fn must_abort(r: Result<OpResponse, KernelError>) -> AbortReason {
        match r.unwrap().outcome {
            OpOutcome::Aborted(reason) => reason,
            other => panic!("expected abort, got {other:?}"),
        }
    }

    fn must_wait(r: Result<OpResponse, KernelError>) {
        match r.unwrap().outcome {
            OpOutcome::Wait => {}
            other => panic!("expected wait, got {other:?}"),
        }
    }

    const OBJ: ObjectId = ObjectId(0);

    // ------------------------------------------------------------------
    // Plain timestamp-ordering behaviour (no relaxation needed).
    // ------------------------------------------------------------------

    #[test]
    fn read_write_commit_roundtrip() {
        let k = kernel_with(&[5000, 6000]);
        let u = begin_update(&k, Limit::ZERO, 10);
        assert_eq!(must_value(k.read(u, OBJ)), 5000);
        must_written(k.write(u, OBJ, 5500));
        // Read-your-writes.
        assert_eq!(must_value(k.read(u, OBJ)), 5500);
        let end = k.commit(u).unwrap();
        let info = end.info.unwrap();
        assert_eq!(info.reads, 2);
        assert_eq!(info.writes, 1);
        assert_eq!(info.inconsistency, 0);
        assert_eq!(k.table().lock(OBJ).value, 5500);
        assert!(k.table().is_quiescent());
        assert_eq!(k.active_txns(), 0);
    }

    #[test]
    fn abort_restores_shadow_values() {
        let k = kernel_with(&[5000]);
        let u = begin_update(&k, Limit::ZERO, 10);
        must_written(k.write(u, OBJ, 9999));
        assert_eq!(k.table().lock(OBJ).value, 9999);
        let end = k.abort(u).unwrap();
        assert!(end.info.is_none());
        assert_eq!(k.table().lock(OBJ).value, 5000);
        assert!(k.table().is_quiescent());
        assert_eq!(k.stats().aborts_update, 1);
    }

    #[test]
    fn late_update_read_aborts() {
        let k = kernel_with(&[5000]);
        // Writer at ts 20 commits first.
        let u1 = begin_update(&k, Limit::ZERO, 20);
        must_written(k.write(u1, OBJ, 6000));
        let _ = k.commit(u1).unwrap();
        // Update reader at ts 10 is late.
        let u2 = begin_update(&k, Limit::ZERO, 10);
        assert_eq!(must_abort(k.read(u2, OBJ)), AbortReason::LateRead);
        assert_eq!(k.stats().late_read_aborts, 1);
        assert_eq!(k.active_txns(), 0);
    }

    #[test]
    fn late_write_vs_committed_write_aborts() {
        let k = kernel_with(&[5000]);
        let u1 = begin_update(&k, Limit::ZERO, 20);
        must_written(k.write(u1, OBJ, 6000));
        let _ = k.commit(u1).unwrap();
        let u2 = begin_update(&k, Limit::at_most(100_000), 10);
        assert_eq!(
            must_abort(k.write(u2, OBJ, 7000)),
            AbortReason::LateWriteVsCommittedWrite
        );
    }

    #[test]
    fn thomas_write_rule_skips_instead() {
        let table = table_with(&[5000]);
        let config = KernelConfig {
            thomas_write_rule: true,
            ..KernelConfig::default()
        };
        let k = Kernel::new(table, HierarchySchema::two_level(), config);
        let u1 = begin_update(&k, Limit::ZERO, 20);
        must_written(k.write(u1, OBJ, 6000));
        let _ = k.commit(u1).unwrap();
        let u2 = begin_update(&k, Limit::ZERO, 10);
        match k.write(u2, OBJ, 7000).unwrap().outcome {
            OpOutcome::WriteSkipped => {}
            other => panic!("expected skip, got {other:?}"),
        }
        assert_eq!(k.stats().thomas_skips, 1);
        let _ = k.commit(u2).unwrap();
        assert_eq!(k.table().lock(OBJ).value, 6000); // skipped write lost
    }

    #[test]
    fn late_write_vs_update_read_aborts_even_with_bounds() {
        let k = kernel_with(&[5000]);
        // Consistent (update) read at ts 30.
        let u1 = begin_update(&k, Limit::Unlimited, 30);
        assert_eq!(must_value(k.read(u1, OBJ)), 5000);
        // Writer at ts 20 is late vs that read; case 3 does NOT apply
        // because the last read was not from a query ET.
        let u2 = begin_update(&k, Limit::Unlimited, 20);
        assert_eq!(
            must_abort(k.write(u2, OBJ, 1)),
            AbortReason::LateWriteVsUpdateRead
        );
        assert_eq!(k.stats().late_write_aborts, 1);
        let _ = k.commit(u1).unwrap();
    }

    #[test]
    fn write_write_conflict_younger_waits() {
        let k = kernel_with(&[5000]);
        let u1 = begin_update(&k, Limit::ZERO, 10);
        must_written(k.write(u1, OBJ, 6000));
        let u2 = begin_update(&k, Limit::ZERO, 20);
        must_wait(k.write(u2, OBJ, 7000));
        assert_eq!(k.stats().waits, 1);
        // u1 commits; u2's write is woken and succeeds on resume.
        let end = k.commit(u1).unwrap();
        assert_eq!(end.woken.len(), 1);
        let resumed = k.resume(end.woken[0]).unwrap();
        assert_eq!(resumed.outcome, OpOutcome::Written);
        let _ = k.commit(u2).unwrap();
        assert_eq!(k.table().lock(OBJ).value, 7000);
        assert_eq!(k.stats().wakes, 1);
    }

    #[test]
    fn write_write_conflict_older_aborts() {
        let k = kernel_with(&[5000]);
        let u1 = begin_update(&k, Limit::ZERO, 20);
        must_written(k.write(u1, OBJ, 6000));
        let u2 = begin_update(&k, Limit::ZERO, 10);
        assert_eq!(
            must_abort(k.write(u2, OBJ, 7000)),
            AbortReason::LateWriteVsCommittedWrite
        );
        let _ = k.commit(u1).unwrap();
    }

    #[test]
    fn update_read_waits_for_older_writer_and_sees_committed_value() {
        let k = kernel_with(&[5000]);
        let u1 = begin_update(&k, Limit::ZERO, 10);
        must_written(k.write(u1, OBJ, 6000));
        let u2 = begin_update(&k, Limit::ZERO, 20);
        must_wait(k.read(u2, OBJ));
        let end = k.commit(u1).unwrap();
        assert_eq!(end.woken.len(), 1);
        assert_eq!(must_value(k.resume(end.woken[0])), 6000);
    }

    #[test]
    fn update_read_waits_then_writer_aborts_sees_old_value() {
        let k = kernel_with(&[5000]);
        let u1 = begin_update(&k, Limit::ZERO, 10);
        must_written(k.write(u1, OBJ, 6000));
        let u2 = begin_update(&k, Limit::ZERO, 20);
        must_wait(k.read(u2, OBJ));
        let end = k.abort(u1).unwrap();
        assert_eq!(end.woken.len(), 1);
        assert_eq!(must_value(k.resume(end.woken[0])), 5000);
    }

    #[test]
    fn update_read_older_than_uncommitted_writer_aborts() {
        let k = kernel_with(&[5000]);
        let u1 = begin_update(&k, Limit::ZERO, 20);
        must_written(k.write(u1, OBJ, 6000));
        let u2 = begin_update(&k, Limit::ZERO, 10);
        assert_eq!(must_abort(k.read(u2, OBJ)), AbortReason::LateRead);
        let _ = k.commit(u1).unwrap();
    }

    // ------------------------------------------------------------------
    // Case 1: late query read of committed data.
    // ------------------------------------------------------------------

    #[test]
    fn case1_sr_aborts_late_query_read() {
        let k = kernel_with(&[5000]);
        let u = begin_update(&k, Limit::ZERO, 20);
        must_written(k.write(u, OBJ, 6000));
        let _ = k.commit(u).unwrap();
        let q = begin_query(&k, Limit::ZERO, 10);
        match must_abort(k.read(q, OBJ)) {
            AbortReason::BoundViolation(v) => {
                assert_eq!(v.level, ViolationLevel::Transaction);
                assert_eq!(v.attempted, 1000); // |6000 - 5000|
            }
            other => panic!("expected bound violation, got {other:?}"),
        }
        assert_eq!(k.stats().violations_transaction, 1);
    }

    #[test]
    fn case1_esr_admits_late_query_read_within_til() {
        let k = kernel_with(&[5000]);
        let u = begin_update(&k, Limit::Unlimited, 20);
        must_written(k.write(u, OBJ, 6000));
        let _ = k.commit(u).unwrap();
        let q = begin_query(&k, Limit::at_most(1000), 10);
        // Reads the *present* value (not a multiversion read of 5000!).
        assert_eq!(must_value(k.read(q, OBJ)), 6000);
        assert_eq!(k.imported_or_exported(q), Some(1000));
        let end = k.commit(q).unwrap();
        let info = end.info.unwrap();
        assert_eq!(info.inconsistency, 1000);
        assert_eq!(info.inconsistent_ops, 1);
        assert_eq!(k.stats().inconsistent_reads, 1);
    }

    #[test]
    fn case1_oil_rejects_before_til() {
        let values = [5000];
        let table = table_with(&values);
        table.set_all_limits(Limit::at_most(500), Limit::Unlimited);
        let k = Kernel::with_defaults(table);
        let u = begin_update(&k, Limit::Unlimited, 20);
        must_written(k.write(u, OBJ, 6000));
        let _ = k.commit(u).unwrap();
        let q = begin_query(&k, Limit::at_most(100_000), 10);
        match must_abort(k.read(q, OBJ)) {
            AbortReason::BoundViolation(v) => {
                assert_eq!(v.level, ViolationLevel::Object(OBJ));
                assert_eq!(v.limit, Limit::at_most(500));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(k.stats().violations_object, 1);
    }

    #[test]
    fn case1_til_accumulates_across_objects() {
        let k = kernel_with(&[5000, 5000]);
        let u = begin_update(&k, Limit::Unlimited, 20);
        must_written(k.write(u, ObjectId(0), 5600));
        must_written(k.write(u, ObjectId(1), 5600));
        let _ = k.commit(u).unwrap();
        let q = begin_query(&k, Limit::at_most(1000), 10);
        assert_eq!(must_value(k.read(q, ObjectId(0))), 5600); // d=600
        match must_abort(k.read(q, ObjectId(1))) {
            AbortReason::BoundViolation(v) => {
                assert_eq!(v.level, ViolationLevel::Transaction);
                assert_eq!(v.attempted, 1200);
            }
            other => panic!("{other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Case 2: query read of uncommitted data.
    // ------------------------------------------------------------------

    #[test]
    fn case2_sr_query_waits_behind_uncommitted_write() {
        let k = kernel_with(&[5000]);
        let u = begin_update(&k, Limit::ZERO, 10);
        must_written(k.write(u, OBJ, 6000));
        let q = begin_query(&k, Limit::ZERO, 20);
        must_wait(k.read(q, OBJ));
        let end = k.commit(u).unwrap();
        assert_eq!(end.woken.len(), 1);
        // After the writer commits the query is no longer late (its ts
        // 20 > writer ts 10) and reads the committed value with d = 0.
        assert_eq!(must_value(k.resume(end.woken[0])), 6000);
        let _ = k.commit(q).unwrap();
        assert_eq!(k.stats().inconsistent_reads, 0);
    }

    #[test]
    fn case2_esr_query_reads_uncommitted_without_waiting() {
        let k = kernel_with(&[5000]);
        let u = begin_update(&k, Limit::Unlimited, 10);
        must_written(k.write(u, OBJ, 6000));
        let q = begin_query(&k, Limit::at_most(2000), 20);
        // No wait: reads the dirty value, importing d = 1000.
        assert_eq!(must_value(k.read(q, OBJ)), 6000);
        assert_eq!(k.imported_or_exported(q), Some(1000));
        assert_eq!(k.stats().waits, 0);
        assert_eq!(k.stats().inconsistent_reads, 1);
        let _ = k.commit(u).unwrap();
        let _ = k.commit(q).unwrap();
    }

    #[test]
    fn case2_query_older_than_writer_views_uncommitted_too() {
        // Query ts 5 < writer ts 10: present (uncommitted) vs proper
        // (initial) still measures d correctly.
        let k = kernel_with(&[5000]);
        let u = begin_update(&k, Limit::Unlimited, 10);
        must_written(k.write(u, OBJ, 6000));
        let q = begin_query(&k, Limit::at_most(2000), 5);
        assert_eq!(must_value(k.read(q, OBJ)), 6000);
        let _ = k.commit(u).unwrap();
        let _ = k.commit(q).unwrap();
    }

    #[test]
    fn case2_query_older_than_writer_over_budget_aborts_not_waits() {
        let k = kernel_with(&[5000]);
        let u = begin_update(&k, Limit::Unlimited, 10);
        must_written(k.write(u, OBJ, 6000));
        // Query at ts 5 with zero budget: waiting cannot help (after the
        // writer commits the read would be late with the same d), so the
        // kernel aborts immediately.
        let q = begin_query(&k, Limit::ZERO, 5);
        assert_eq!(must_abort(k.read(q, OBJ)), AbortReason::LateRead);
        assert_eq!(k.stats().waits, 0);
        let _ = k.commit(u).unwrap();
    }

    #[test]
    fn case2_wait_then_writer_aborts_read_sees_restored_value() {
        let k = kernel_with(&[5000]);
        let u = begin_update(&k, Limit::ZERO, 10);
        must_written(k.write(u, OBJ, 6000));
        let q = begin_query(&k, Limit::ZERO, 20);
        must_wait(k.read(q, OBJ));
        let end = k.abort(u).unwrap();
        assert_eq!(end.woken.len(), 1);
        assert_eq!(must_value(k.resume(end.woken[0])), 5000);
        let _ = k.commit(q).unwrap();
    }

    #[test]
    fn case2_import_padding_guards_dirty_reads() {
        let table = table_with(&[5000]);
        let config = KernelConfig {
            import_padding: 5000,
            ..KernelConfig::default()
        };
        let k = Kernel::new(table, HierarchySchema::two_level(), config);
        let u = begin_update(&k, Limit::Unlimited, 10);
        must_written(k.write(u, OBJ, 6000));
        // d = 1000 + 5000 padding = 6000 > TIL 2000 ⇒ cannot read dirty;
        // falls back to the strict wait.
        let q = begin_query(&k, Limit::at_most(2000), 20);
        must_wait(k.read(q, OBJ));
        let end = k.commit(u).unwrap();
        // After commit, no padding applies (data committed): d = 1000.
        assert_eq!(must_value(k.resume(end.woken[0])), 6000);
        let _ = k.commit(q).unwrap();
    }

    // ------------------------------------------------------------------
    // Case 3: late update write vs query reads.
    // ------------------------------------------------------------------

    /// Sets up: query Q (ts 30) read the object; update U (ts 20) then
    /// writes it — late with respect to Q's read.
    fn case3_setup(til: Limit, tel: Limit) -> (Kernel, TxnId, TxnId) {
        let k = kernel_with(&[5000]);
        let q = begin_query(&k, til, 30);
        assert_eq!(must_value(k.read(q, OBJ)), 5000);
        let u = begin_update(&k, tel, 20);
        (k, q, u)
    }

    #[test]
    fn case3_sr_aborts_late_write_vs_query_read() {
        let (k, _q, u) = case3_setup(Limit::Unlimited, Limit::ZERO);
        match must_abort(k.write(u, OBJ, 6000)) {
            AbortReason::BoundViolation(v) => {
                assert_eq!(v.level, ViolationLevel::Transaction);
                assert_eq!(v.attempted, 1000);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn case3_esr_admits_late_write_within_tel() {
        let (k, q, u) = case3_setup(Limit::Unlimited, Limit::at_most(1000));
        must_written(k.write(u, OBJ, 6000));
        assert_eq!(k.imported_or_exported(u), Some(1000));
        assert_eq!(k.stats().inconsistent_writes, 1);
        let _ = k.commit(u).unwrap();
        let end = k.commit(q).unwrap();
        assert_eq!(end.info.unwrap().inconsistency, 0); // import side unaffected
    }

    #[test]
    fn case3_oel_rejects_at_object_level() {
        let values = [5000];
        let table = table_with(&values);
        table.set_all_limits(Limit::Unlimited, Limit::at_most(500));
        let k = Kernel::with_defaults(table);
        let q = begin_query(&k, Limit::Unlimited, 30);
        assert_eq!(must_value(k.read(q, OBJ)), 5000);
        let u = begin_update(&k, Limit::at_most(100_000), 20);
        match must_abort(k.write(u, OBJ, 6000)) {
            AbortReason::BoundViolation(v) => {
                assert_eq!(v.level, ViolationLevel::Object(OBJ));
            }
            other => panic!("{other:?}"),
        }
        let _ = k.commit(q).unwrap();
    }

    #[test]
    fn case3_export_d_is_max_over_readers_by_default() {
        // Two readers with different proper values: q1 is an admitted
        // *late* reader (case 1) whose proper value predates the last
        // committed write; q2 is a normal reader.
        let k = kernel_with(&[5000]);
        let u0 = begin_update(&k, Limit::Unlimited, 20);
        must_written(k.write(u0, OBJ, 5200));
        let _ = k.commit(u0).unwrap();
        let q1 = begin_query(&k, Limit::Unlimited, 15);
        assert_eq!(must_value(k.read(q1, OBJ)), 5200); // proper 5000 (d=200)
        let q2 = begin_query(&k, Limit::Unlimited, 30);
        assert_eq!(must_value(k.read(q2, OBJ)), 5200); // proper 5200
                                                       // Late writer at ts 25: newer than the committed write (20) but
                                                       // older than q2's read (30) ⇒ case 3.
        let u = begin_update(&k, Limit::at_most(10_000), 25);
        // d = max(|6000-5000|, |6000-5200|) = 1000 (not 1800 = sum).
        must_written(k.write(u, OBJ, 6000));
        assert_eq!(k.imported_or_exported(u), Some(1000));
        let _ = k.abort(u).unwrap();
        let _ = k.commit(q1).unwrap();
        let _ = k.commit(q2).unwrap();
    }

    #[test]
    fn case3_export_rule_sum_is_more_conservative() {
        let table = table_with(&[5000]);
        let config = KernelConfig {
            export_rule: ExportRule::SumOverReaders,
            ..KernelConfig::default()
        };
        let k = Kernel::new(table, HierarchySchema::two_level(), config);
        let q1 = begin_query(&k, Limit::Unlimited, 30);
        let q2 = begin_query(&k, Limit::Unlimited, 31);
        assert_eq!(must_value(k.read(q1, OBJ)), 5000);
        assert_eq!(must_value(k.read(q2, OBJ)), 5000);
        let u = begin_update(&k, Limit::at_most(1500), 20);
        // Sum rule: d = 1000 + 1000 = 2000 > TEL 1500 ⇒ abort; the max
        // rule would have admitted it (d = 1000).
        match must_abort(k.write(u, OBJ, 6000)) {
            AbortReason::BoundViolation(v) => assert_eq!(v.attempted, 2000),
            other => panic!("{other:?}"),
        }
        let _ = k.commit(q1).unwrap();
        let _ = k.commit(q2).unwrap();
    }

    #[test]
    fn case3_committed_readers_no_longer_count() {
        let k = kernel_with(&[5000]);
        let q = begin_query(&k, Limit::Unlimited, 30);
        assert_eq!(must_value(k.read(q, OBJ)), 5000);
        let _ = k.commit(q).unwrap(); // reader departs...
        let u = begin_update(&k, Limit::ZERO, 20);
        // ...but max_query_rts is sticky, so this is still case 3 with
        // an empty reader list ⇒ d = 0 ⇒ admitted even at TEL 0.
        must_written(k.write(u, OBJ, 6000));
        let _ = k.commit(u).unwrap();
        assert_eq!(k.stats().inconsistent_writes, 0);
    }

    // ------------------------------------------------------------------
    // History and proper values.
    // ------------------------------------------------------------------

    #[test]
    fn proper_value_walks_back_through_history() {
        let k = kernel_with(&[1000]);
        // Commit writes at ts 10, 20, 30.
        for (i, at) in [(1u64, 10u64), (2, 20), (3, 30)] {
            let u = begin_update(&k, Limit::Unlimited, at);
            must_written(k.write(u, OBJ, 1000 + i as i64 * 100));
            let _ = k.commit(u).unwrap();
        }
        // Query at ts 25: proper is the ts-20 write (1200); present is
        // 1300 ⇒ d = 100.
        let q = begin_query(&k, Limit::at_most(100), 25);
        assert_eq!(must_value(k.read(q, OBJ)), 1300);
        assert_eq!(k.imported_or_exported(q), Some(100));
        let _ = k.commit(q).unwrap();
    }

    #[test]
    fn history_miss_policy_abort() {
        let catalog = CatalogConfig {
            history_depth: 2,
            ..CatalogConfig::default()
        };
        let table = catalog.build_with_values(&[1000]);
        let config = KernelConfig {
            history_miss: HistoryMissPolicy::Abort,
            ..KernelConfig::default()
        };
        let k = Kernel::new(table, HierarchySchema::two_level(), config);
        // Three committed writes evict the seed and the first write.
        for at in [10u64, 20, 30] {
            let u = begin_update(&k, Limit::Unlimited, at);
            must_written(k.write(u, OBJ, at as i64 * 100));
            let _ = k.commit(u).unwrap();
        }
        // Query older than everything retained.
        let q = begin_query(&k, Limit::Unlimited, 5);
        assert_eq!(must_abort(k.read(q, OBJ)), AbortReason::HistoryMiss);
        assert!(k.stats().history_misses >= 1);
    }

    // ------------------------------------------------------------------
    // Hierarchical bounds through the kernel.
    // ------------------------------------------------------------------

    #[test]
    fn group_limits_are_enforced_bottom_up() {
        let mut b = HierarchySchema::builder();
        let g = b.group("hot");
        b.attach_range(0..2, g);
        let schema = b.build();
        let table = table_with(&[5000, 5000, 5000]);
        let k = Kernel::new(table, schema, KernelConfig::default());
        // Make all three objects diverge by 600 each.
        let u = begin_update(&k, Limit::Unlimited, 20);
        for i in 0..3u32 {
            must_written(k.write(u, ObjectId(i), 5600));
        }
        let _ = k.commit(u).unwrap();
        // Query with TIL 10_000 but group "hot" limited to 1_000.
        let bounds =
            TxnBounds::import(Limit::at_most(10_000)).with_group("hot", Limit::at_most(1_000));
        let q = k.begin(TxnKind::Query, bounds, ts(10));
        assert_eq!(must_value(k.read(q, ObjectId(0))), 5600); // hot: 600
        assert_eq!(must_value(k.read(q, ObjectId(2))), 5600); // root-only: 600
        match must_abort(k.read(q, ObjectId(1))) {
            AbortReason::BoundViolation(v) => {
                assert_eq!(v.level, ViolationLevel::Group("hot".into()));
                assert_eq!(v.attempted, 1200);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(k.stats().violations_group, 1);
    }

    #[test]
    fn per_object_override_via_bounds() {
        let k = kernel_with(&[5000]);
        let u = begin_update(&k, Limit::Unlimited, 20);
        must_written(k.write(u, OBJ, 5600));
        let _ = k.commit(u).unwrap();
        let bounds =
            TxnBounds::import(Limit::at_most(10_000)).with_object(OBJ, Limit::at_most(100));
        let q = k.begin(TxnKind::Query, bounds, ts(10));
        match must_abort(k.read(q, OBJ)) {
            AbortReason::BoundViolation(v) => {
                assert_eq!(v.level, ViolationLevel::Object(OBJ));
                assert_eq!(v.limit, Limit::at_most(100));
            }
            other => panic!("{other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Aggregates (§5.3.2).
    // ------------------------------------------------------------------

    #[test]
    fn aggregate_check_passes_and_aborts() {
        use esr_core::aggregate::AggregateKind;
        let k = kernel_with(&[5000, 7000]);
        let u = begin_update(&k, Limit::Unlimited, 20);
        must_written(k.write(u, ObjectId(0), 6000));
        let _ = k.commit(u).unwrap();
        // TIL 2000: the dynamic read check admits d=1000; the average's
        // result inconsistency is 500 ⇒ also fine.
        let q = begin_query(&k, Limit::at_most(2000), 10);
        assert_eq!(must_value(k.read(q, ObjectId(0))), 6000);
        assert_eq!(must_value(k.read(q, ObjectId(1))), 7000);
        let b = k
            .check_aggregate(q, AggregateKind::Average)
            .unwrap()
            .expect("within bounds");
        assert_eq!(b.inconsistency, 250); // |6000-5000| / (2 * 2)
        let _ = k.commit(q).unwrap();

        // Same reads under a TIL that admits the raw read (d=1000) but
        // whose average bound would fail only with a tighter limit:
        let u = begin_update(&k, Limit::Unlimited, 40);
        must_written(k.write(u, ObjectId(0), 7000));
        let _ = k.commit(u).unwrap();
        let q = begin_query(&k, Limit::at_most(1000), 30);
        assert_eq!(must_value(k.read(q, ObjectId(0))), 7000); // d = 1000
        match k.check_aggregate(q, AggregateKind::Sum).unwrap() {
            Err(resp) => match resp.outcome {
                OpOutcome::Aborted(AbortReason::BoundViolation(_)) => {}
                other => panic!("{other:?}"),
            },
            Ok(b) => {
                // Sum half-width = 500 ≤ 1000 is fine — accept that too;
                // the point is exercised below with a zero TIL.
                assert_eq!(b.inconsistency, 500);
                let _ = k.commit(q).unwrap();
            }
        }
    }

    #[test]
    fn aggregate_violation_aborts_txn() {
        use esr_core::aggregate::AggregateKind;
        let k = kernel_with(&[5000]);
        let u = begin_update(&k, Limit::Unlimited, 20);
        must_written(k.write(u, OBJ, 6000));
        let _ = k.commit(u).unwrap();
        let q = begin_query(&k, Limit::at_most(1000), 10);
        assert_eq!(must_value(k.read(q, OBJ)), 6000);
        // Zero room at aggregate time? Re-check against the root limit:
        // the tracker spread is 1000, half-width 500 ≤ 1000 ⇒ passes.
        assert!(k.check_aggregate(q, AggregateKind::Sum).unwrap().is_ok());
        let _ = k.commit(q).unwrap();

        // Now a query whose *aggregate* bound fails: two reads of the
        // same object seeing different values.
        let q = begin_query(&k, Limit::at_most(100), 30);
        assert_eq!(must_value(k.read(q, OBJ)), 6000);
        let u = begin_update(&k, Limit::Unlimited, 40);
        must_written(k.write(u, OBJ, 9000));
        let _ = k.commit(u).unwrap();
        // Second read of the same object: late? No — q.ts=30 < wts=40 ⇒
        // case 1, d = |9000-6000| = 3000 > TIL ⇒ the read itself aborts.
        match must_abort(k.read(q, OBJ)) {
            AbortReason::BoundViolation(_) => {}
            other => panic!("{other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Driver-error handling.
    // ------------------------------------------------------------------

    #[test]
    fn unknown_txn_and_object_are_errors() {
        let k = kernel_with(&[1]);
        assert_eq!(
            k.read(TxnId(999), OBJ).unwrap_err(),
            KernelError::UnknownTxn(TxnId(999))
        );
        let q = begin_query(&k, Limit::ZERO, 10);
        assert_eq!(
            k.read(q, ObjectId(5)).unwrap_err(),
            KernelError::UnknownObject(ObjectId(5))
        );
        assert_eq!(
            k.write(q, OBJ, 1).unwrap_err(),
            KernelError::QueryCannotWrite(q)
        );
        // Double-commit: second is UnknownTxn.
        let _ = k.commit(q).unwrap();
        assert!(matches!(k.commit(q), Err(KernelError::UnknownTxn(_))));
    }

    #[test]
    #[should_panic(expected = "does not match transaction kind")]
    fn mismatched_bounds_direction_panics() {
        let k = kernel_with(&[1]);
        let _ = k.begin(TxnKind::Query, TxnBounds::export(Limit::ZERO), ts(1));
    }

    #[test]
    fn kernel_error_display() {
        assert!(KernelError::UnknownTxn(TxnId(1))
            .to_string()
            .contains("txn#1"));
        assert!(KernelError::UnknownObject(ObjectId(2))
            .to_string()
            .contains("obj#2"));
        assert!(KernelError::QueryCannotWrite(TxnId(3))
            .to_string()
            .contains("write"));
    }

    // ------------------------------------------------------------------
    // The headline guarantee: a committed query's result is within TIL
    // of a consistent value.
    // ------------------------------------------------------------------

    #[test]
    fn committed_query_sum_is_within_til_of_consistent_sum() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = 16u32;
        let init = 5000i64;
        let k = kernel_with(&vec![init; n as usize]);
        let consistent_sum = (n as i64) * init;
        let til = 2_000u64;
        let mut rng = StdRng::seed_from_u64(7);
        let mut clock = 100u64;

        for _round in 0..200 {
            clock += 10;
            // A transfer update: moves an amount from one object to
            // another, preserving the global sum.
            let a = ObjectId(rng.gen_range(0..n));
            let b = ObjectId(rng.gen_range(0..n));
            let amt = rng.gen_range(1..500i64);
            let u = begin_update(&k, Limit::Unlimited, clock);
            let mut ok = true;
            let va = match k.read(u, a).unwrap().outcome {
                OpOutcome::Value(v) => v,
                _ => {
                    ok = false;
                    0
                }
            };
            if ok {
                let vb = match k.read(u, b).unwrap().outcome {
                    OpOutcome::Value(v) => v,
                    _ => {
                        ok = false;
                        0
                    }
                };
                if ok && a != b {
                    ok &= k.write(u, a, va - amt).unwrap().outcome.is_done();
                    if ok {
                        ok &= k.write(u, b, vb + amt).unwrap().outcome.is_done();
                    }
                }
            }
            if ok {
                // Interleave: start a query *before* committing, so it
                // may see dirty data.
                clock += 1;
                let q = begin_query(&k, Limit::at_most(til), clock);
                let mut sum = 0i64;
                let mut q_ok = true;
                for i in 0..n {
                    match k.read(q, ObjectId(i)).unwrap().outcome {
                        OpOutcome::Value(v) => sum += v,
                        OpOutcome::Wait => {
                            q_ok = false;
                            let _ = k.abort(q).unwrap();
                            break;
                        }
                        OpOutcome::Aborted(_) => {
                            q_ok = false;
                            break;
                        }
                        _ => unreachable!(),
                    }
                }
                let _ = k.commit(u).unwrap();
                if q_ok {
                    let _ = k.commit(q).unwrap();
                    let dev = (sum - consistent_sum).unsigned_abs();
                    assert!(dev <= til, "query sum {sum} deviates {dev} > TIL {til}");
                }
            } else {
                let _ = k.abort(u).unwrap();
            }
        }
        assert!(k.table().is_quiescent());
        assert_eq!(k.table().sum_values(), consistent_sum as i128);
    }

    // ------------------------------------------------------------------
    // Threaded smoke test: many clients against one kernel.
    // ------------------------------------------------------------------

    #[test]
    fn concurrent_clients_preserve_invariants() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::sync::atomic::AtomicU64 as Clock;

        let n = 8u32;
        let init = 5000i64;
        let k = Arc::new(kernel_with(&vec![init; n as usize]));
        let clock = Arc::new(Clock::new(1));
        let consistent_sum = (n as i64) * init;
        let mut handles = Vec::new();

        for t in 0..4u64 {
            let k = Arc::clone(&k);
            let clock = Arc::clone(&clock);
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                let mut committed = 0;
                while committed < 50 {
                    let ts_val = clock.fetch_add(1, Ordering::Relaxed);
                    let a = ObjectId(rng.gen_range(0..n));
                    let b = ObjectId(rng.gen_range(0..n));
                    if a == b {
                        continue;
                    }
                    let amt = rng.gen_range(1..100i64);
                    let u = k.begin(
                        TxnKind::Update,
                        TxnBounds::export(Limit::Unlimited),
                        Timestamp::new(ts_val, SiteId(t as u16)),
                    );
                    // Run to completion, resuming waits inline by
                    // polling (test-only: real drivers block).
                    let script = [Operation::Read(a), Operation::Read(b)];
                    let mut vals = Vec::new();
                    let mut aborted = false;
                    for op in script {
                        let resp = k.resume(PendingOp { txn: u, op }).unwrap();
                        for w in resp.woken {
                            // Cross-wakes: some other thread's op. This
                            // simple test never parks (unlimited
                            // bounds ⇒ queries don't park; updates may).
                            let _ = w;
                        }
                        match resp.outcome {
                            OpOutcome::Value(v) => vals.push(v),
                            OpOutcome::Aborted(_) => {
                                aborted = true;
                                break;
                            }
                            OpOutcome::Wait => {
                                // Give up on this attempt: abort and
                                // retry with a fresh timestamp.
                                let end = k.abort(u).unwrap();
                                assert!(end.info.is_none());
                                aborted = true;
                                break;
                            }
                            _ => unreachable!(),
                        }
                    }
                    if aborted {
                        continue;
                    }
                    let w1 = k.write(u, a, vals[0] - amt).unwrap();
                    if !w1.outcome.is_done() {
                        if w1.outcome == OpOutcome::Wait {
                            let _ = k.abort(u).unwrap();
                        }
                        continue;
                    }
                    let w2 = k.write(u, b, vals[1] + amt).unwrap();
                    if !w2.outcome.is_done() {
                        if w2.outcome == OpOutcome::Wait {
                            let _ = k.abort(u).unwrap();
                        }
                        continue;
                    }
                    let _ = k.commit(u).unwrap();
                    committed += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(k.table().is_quiescent(), "leaked uncommitted state");
        assert_eq!(
            k.table().sum_values(),
            consistent_sum as i128,
            "transfers must conserve the total"
        );
        assert_eq!(k.active_txns(), 0);
    }

    // ------------------------------------------------------------------
    // Leases and reaping.
    // ------------------------------------------------------------------

    fn kernel_with_lease(values: &[Value], lease_micros: u64) -> Kernel {
        let config = KernelConfig {
            lease_micros,
            ..KernelConfig::default()
        };
        Kernel::new(table_with(values), HierarchySchema::two_level(), config)
    }

    #[test]
    fn leases_disabled_never_reap() {
        let k = kernel_with(&[5000]);
        let u = begin_update(&k, Limit::ZERO, 10);
        must_written(k.write(u, OBJ, 6000));
        k.set_now(u64::MAX);
        assert!(k.reap_expired().is_empty());
        assert_eq!(k.active_txns(), 1);
        let _ = k.commit(u).unwrap();
    }

    #[test]
    fn expired_txn_is_reaped_and_rolled_back() {
        let k = kernel_with_lease(&[5000], 100);
        let u = begin_update(&k, Limit::ZERO, 10);
        must_written(k.write(u, OBJ, 9999));
        k.set_now(101); // write renewed at now=0 ⇒ deadline 100
        let reaped = k.reap_expired();
        assert_eq!(reaped.len(), 1);
        assert_eq!(reaped[0].0, u);
        assert!(reaped[0].1.info.is_none());
        assert_eq!(k.table().lock(OBJ).value, 5000, "shadow value restored");
        assert!(k.table().is_quiescent());
        assert_eq!(k.active_txns(), 0);
        assert_eq!(k.waitq_depth(), 0);
        assert_eq!(k.stats().reaped_txns, 1);
        assert_eq!(k.stats().aborts_update, 1, "reap goes via the abort path");
        // Further operations on the reaped transaction are driver errors.
        assert_eq!(k.read(u, OBJ).unwrap_err(), KernelError::UnknownTxn(u));
        assert!(matches!(k.commit(u), Err(KernelError::UnknownTxn(_))));
    }

    #[test]
    fn renewal_defers_reaping() {
        let k = kernel_with_lease(&[5000], 100);
        let u = begin_update(&k, Limit::ZERO, 10);
        k.set_now(90);
        assert_eq!(must_value(k.read(u, OBJ)), 5000); // renews to 190
        k.set_now(150);
        assert!(k.reap_expired().is_empty(), "renewed lease not yet due");
        k.set_now(191);
        assert_eq!(k.reap_expired().len(), 1);
        assert_eq!(k.active_txns(), 0);
    }

    #[test]
    fn waiter_behind_reaped_writer_is_woken() {
        let k = kernel_with_lease(&[5000], 100);
        let u1 = begin_update(&k, Limit::ZERO, 10);
        must_written(k.write(u1, OBJ, 6000)); // deadline 100
        k.set_now(50);
        let u2 = begin_update(&k, Limit::ZERO, 20);
        must_wait(k.write(u2, OBJ, 7000)); // parked behind u1; deadline 150
        k.set_now(120); // u1 expired, u2 not
        let reaped = k.reap_expired();
        assert_eq!(reaped.len(), 1);
        assert_eq!(reaped[0].0, u1);
        let woken = &reaped[0].1.woken;
        assert_eq!(woken.len(), 1, "u2's parked write must be released");
        assert_eq!(woken[0].txn, u2);
        let resumed = k.resume(woken[0]).unwrap();
        assert_eq!(resumed.outcome, OpOutcome::Written);
        let _ = k.commit(u2).unwrap();
        assert_eq!(k.table().lock(OBJ).value, 7000);
        assert!(k.table().is_quiescent());
        assert_eq!(k.waitq_depth(), 0);
    }

    #[test]
    fn targeted_reap_scrubs_parked_ops_of_the_reaped_txn() {
        // u2 parks behind u1; reaping u2 (the *waiter*) must drop its
        // wait-queue entry so u1's later commit wakes nobody stale.
        let k = kernel_with_lease(&[5000], 1_000_000);
        let u1 = begin_update(&k, Limit::ZERO, 10);
        must_written(k.write(u1, OBJ, 6000));
        let u2 = begin_update(&k, Limit::ZERO, 20);
        must_wait(k.write(u2, OBJ, 7000));
        assert_eq!(k.waitq_depth(), 1);
        let end = k.reap(u2).unwrap();
        assert!(end.woken.is_empty());
        assert_eq!(k.waitq_depth(), 0, "reaped txn's parked op scrubbed");
        assert_eq!(k.stats().reaped_txns, 1);
        let end = k.commit(u1).unwrap();
        assert!(end.woken.is_empty(), "no stale wakeup for the reaped txn");
        assert!(k.table().is_quiescent());
        assert_eq!(k.active_txns(), 0);
    }

    #[test]
    fn parked_waiter_is_not_reaped_while_blocked() {
        // u2 parks behind u1 and then "goes quiet" — but a parked op is
        // withheld by the server, so its lease is paused, not expiring.
        // Only the genuinely stalled u1 is reaped; u2 resumes and its
        // lease restarts from the resume instant.
        let k = kernel_with_lease(&[5000], 100);
        let u1 = begin_update(&k, Limit::ZERO, 10); // deadline 100
        must_written(k.write(u1, OBJ, 6000));
        let u2 = begin_update(&k, Limit::ZERO, 20);
        must_wait(k.write(u2, OBJ, 7000)); // lease paused while parked

        k.set_now(10_000); // far past both nominal deadlines
        let reaped = k.reap_expired();
        assert_eq!(reaped.len(), 1, "only the stalled writer is reaped");
        assert_eq!(reaped[0].0, u1);
        let woken = &reaped[0].1.woken;
        assert_eq!(woken.len(), 1);
        let resumed = k.resume(woken[0]).unwrap();
        assert_eq!(resumed.outcome, OpOutcome::Written);
        // The resume renewed u2's lease from now=10_000; it expires at
        // 10_100, not before.
        assert!(k.reap_expired().is_empty());
        k.set_now(10_101);
        assert_eq!(k.reap_expired().len(), 1);
        assert!(k.table().is_quiescent());
        assert_eq!(k.active_txns(), 0);
    }

    #[test]
    fn reap_unknown_txn_is_an_error() {
        let k = kernel_with_lease(&[5000], 100);
        assert!(matches!(
            k.reap(TxnId(42)),
            Err(KernelError::UnknownTxn(TxnId(42)))
        ));
        // Double reap: second attempt errors, counters stay consistent.
        let u = begin_update(&k, Limit::ZERO, 10);
        let _ = k.reap(u).unwrap();
        assert!(matches!(k.reap(u), Err(KernelError::UnknownTxn(_))));
        assert_eq!(k.stats().reaped_txns, 1);
    }
}
