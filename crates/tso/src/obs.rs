//! Live kernel observability: latency histograms and transaction
//! event tracing.
//!
//! Unlike the [`stats`](crate::stats) counters (always on, monotonic)
//! and the [`capture`](crate::capture) log (complete history for the
//! offline checker), this layer answers *operational* questions about a
//! running kernel — where does time go, what are the tails — without
//! perturbing its decisions:
//!
//! - **histograms** ([`esr_obs::LatencyHistogram`]): op service time,
//!   park duration (wait-queue residence), and end-to-end transaction
//!   latency, all in microseconds; recording is relaxed atomics only;
//! - **event ring** (`obs-events` feature): a bounded drop-oldest trace
//!   of begin/park/wake/relax/commit/abort per transaction, each relax
//!   event carrying the inconsistency `d` and the hierarchy level whose
//!   bound actually admitted it ([`Ledger::binding_level`]).
//!
//! Attachment mirrors capture: [`Kernel::enable_obs`] installs a
//! [`KernelObs`] once; until then every hot-path hook is a single
//! atomic load that finds nothing to do. A driver-equivalence test
//! (`tests/obs_equivalence.rs`) asserts kernel outcomes are bit-equal
//! with the layer on and off.
//!
//! [`Kernel::enable_obs`]: crate::kernel::Kernel::enable_obs
//! [`Ledger::binding_level`]: esr_core::ledger::Ledger::binding_level

use esr_clock::{SystemTimeSource, TimeSource};
use esr_core::error::ViolationLevel;
use esr_core::ids::{ObjectId, TxnId, TxnKind};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Capacity of the per-kernel transaction event ring.
#[cfg(feature = "obs-events")]
pub const EVENT_RING_CAPACITY: usize = 4096;

/// One traced transaction lifecycle event.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnEvent {
    /// The transaction this event belongs to.
    pub txn: TxnId,
    /// What happened.
    pub kind: TxnEventKind,
}

/// The traced event kinds. `Relax` covers the paper's three cases:
/// 1 = late query read over committed data, 2 = query read of
/// uncommitted data, 3 = late update write exporting to query readers.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnEventKind {
    /// Transaction began.
    Begin {
        /// Query or update ET.
        kind: TxnKind,
    },
    /// An operation parked on an object's wait queue.
    Park {
        /// The contended object.
        obj: ObjectId,
    },
    /// A parked operation was released back to the driver.
    Wake {
        /// The object it was parked on.
        obj: ObjectId,
        /// Park duration on the obs clock (wall-derived by default,
        /// virtual under the simulator).
        waited_micros: u64,
    },
    /// A relaxation case admitted inconsistency.
    Relax {
        /// Paper case number (1, 2, or 3). A late read of uncommitted
        /// data reports case 2 (the uncommitted view dominates).
        case: u8,
        /// The inconsistency charged.
        d: u64,
        /// The hierarchy level whose bound had the least headroom —
        /// the one that *admitted* the charge most narrowly.
        level: ViolationLevel,
    },
    /// Transaction committed.
    Commit {
        /// Total accumulated inconsistency at commit.
        inconsistency: u64,
    },
    /// Transaction aborted.
    Abort {
        /// Human-readable cause ("client", "late read", a bound
        /// violation description, …).
        reason: String,
    },
}

esr_obs::histograms! {
    /// The kernel's latency distributions, in microseconds on the obs
    /// clock.
    pub struct KernelHistograms {
        /// Service time of every `read`/`write` call, including parked and
        /// aborted outcomes (the decision itself is the service).
        op_service = "kernel_op_service_micros",
        /// Time operations spent parked on wait queues.
        park_wait = "kernel_park_wait_micros",
        /// End-to-end latency of committed transactions (begin → commit).
        txn_latency = "kernel_txn_latency_micros",
    }
}

/// The kernel's observability surface: its latency histograms plus
/// (feature-gated) the transaction event ring. One instance per
/// kernel, shared via `Arc`.
pub struct KernelObs {
    /// The declared distributions. `KernelObs` derefs to them, so the
    /// kernel's recording sites read `obs.op_service.record(..)` as they
    /// always have.
    hist: KernelHistograms,
    /// The clock every duration is measured on. Wall-derived by default
    /// ([`SystemTimeSource`]); drivers that need determinism (the
    /// simulator, virtual-time servers) attach their own
    /// [`TimeSource`] so obs-on runs replay bit-identically. The kernel
    /// itself never reads a raw wall clock.
    clock: Arc<dyn TimeSource>,
    /// Begin instants (clock micros) of live transactions.
    started: Mutex<HashMap<TxnId, u64>>,
    /// Park instants (clock micros) of currently-parked operations. A
    /// transaction has at most one in-flight operation, so TxnId
    /// suffices as the key.
    parked: Mutex<HashMap<TxnId, u64>>,
    #[cfg(feature = "obs-events")]
    events: esr_obs::EventRing<TxnEvent>,
}

impl KernelObs {
    /// A fresh, empty observability surface on the wall clock.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(SystemTimeSource::new()))
    }

    /// A fresh surface whose durations are measured on `clock`.
    pub fn with_clock(clock: Arc<dyn TimeSource>) -> Self {
        KernelObs {
            hist: KernelHistograms::default(),
            clock,
            started: Mutex::new(HashMap::new()),
            parked: Mutex::new(HashMap::new()),
            #[cfg(feature = "obs-events")]
            events: esr_obs::EventRing::new(EVENT_RING_CAPACITY),
        }
    }

    /// The current reading of the surface's clock, in microseconds.
    /// The kernel brackets its op-service measurements with this.
    #[inline]
    pub fn now_micros(&self) -> u64 {
        self.clock.raw_micros()
    }

    /// Append to the event ring (no-op without the `obs-events`
    /// feature).
    #[inline]
    pub fn push_event(&self, txn: TxnId, kind: TxnEventKind) {
        #[cfg(feature = "obs-events")]
        self.events.push(TxnEvent { txn, kind });
        #[cfg(not(feature = "obs-events"))]
        let _ = (txn, kind);
    }

    /// Copy out the retained events, oldest first.
    #[cfg(feature = "obs-events")]
    pub fn events(&self) -> Vec<TxnEvent> {
        self.events.to_vec()
    }

    /// Events evicted from the ring so far.
    #[cfg(feature = "obs-events")]
    pub fn events_dropped(&self) -> u64 {
        self.events.dropped()
    }

    /// A transaction began now.
    pub fn note_begin(&self, txn: TxnId, kind: TxnKind) {
        self.started.lock().insert(txn, self.now_micros());
        self.push_event(txn, TxnEventKind::Begin { kind });
    }

    /// An operation parked now.
    pub fn note_park(&self, txn: TxnId, obj: ObjectId) {
        self.parked.lock().insert(txn, self.now_micros());
        self.push_event(txn, TxnEventKind::Park { obj });
    }

    /// A parked operation was released; records its park duration.
    pub fn note_wake(&self, txn: TxnId, obj: ObjectId) {
        let waited = self.parked.lock().remove(&txn);
        let micros = waited.map_or(0, |t0| self.now_micros().saturating_sub(t0));
        if waited.is_some() {
            self.park_wait.record(micros);
        }
        self.push_event(
            txn,
            TxnEventKind::Wake {
                obj,
                waited_micros: micros,
            },
        );
    }

    /// A transaction committed; records its end-to-end latency.
    pub fn note_commit(&self, txn: TxnId, inconsistency: u64) {
        if let Some(t0) = self.started.lock().remove(&txn) {
            self.txn_latency
                .record(self.now_micros().saturating_sub(t0));
        }
        self.parked.lock().remove(&txn);
        self.push_event(txn, TxnEventKind::Commit { inconsistency });
    }

    /// A transaction aborted; drops its timing state.
    pub fn note_abort(&self, txn: TxnId, reason: String) {
        self.started.lock().remove(&txn);
        self.parked.lock().remove(&txn);
        self.push_event(txn, TxnEventKind::Abort { reason });
    }
}

impl std::ops::Deref for KernelObs {
    type Target = KernelHistograms;

    fn deref(&self) -> &KernelHistograms {
        &self.hist
    }
}

impl Default for KernelObs {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for KernelObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelObs")
            .field("hist", &self.hist)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_records_txn_latency() {
        let obs = KernelObs::new();
        obs.note_begin(TxnId(1), TxnKind::Query);
        obs.note_commit(TxnId(1), 0);
        assert_eq!(obs.txn_latency.count(), 1);
        // An unknown transaction records nothing.
        obs.note_commit(TxnId(99), 0);
        assert_eq!(obs.txn_latency.count(), 1);
    }

    #[test]
    fn wake_records_park_duration_once() {
        let obs = KernelObs::new();
        obs.note_park(TxnId(2), ObjectId(7));
        obs.note_wake(TxnId(2), ObjectId(7));
        assert_eq!(obs.park_wait.count(), 1);
        // Waking the same (no longer parked) txn again records nothing.
        obs.note_wake(TxnId(2), ObjectId(7));
        assert_eq!(obs.park_wait.count(), 1);
    }

    #[test]
    fn abort_clears_timing_state() {
        let obs = KernelObs::new();
        obs.note_begin(TxnId(3), TxnKind::Update);
        obs.note_park(TxnId(3), ObjectId(1));
        obs.note_abort(TxnId(3), "late read".into());
        obs.note_commit(TxnId(3), 0); // stale commit: no latency sample
        assert_eq!(obs.txn_latency.count(), 0);
        assert_eq!(obs.park_wait.count(), 0);
    }

    #[cfg(feature = "obs-events")]
    #[test]
    fn event_ring_traces_lifecycle() {
        let obs = KernelObs::new();
        obs.note_begin(TxnId(5), TxnKind::Query);
        obs.push_event(
            TxnId(5),
            TxnEventKind::Relax {
                case: 1,
                d: 40,
                level: ViolationLevel::Transaction,
            },
        );
        obs.note_commit(TxnId(5), 40);
        let events = obs.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0].kind,
            TxnEventKind::Begin {
                kind: TxnKind::Query
            }
        );
        assert!(matches!(
            events[1].kind,
            TxnEventKind::Relax { case: 1, d: 40, .. }
        ));
        assert_eq!(events[2].kind, TxnEventKind::Commit { inconsistency: 40 });
    }
}
