//! Wire protocol between connections and the server.
//!
//! The reply types ([`BeginReply`], [`OpReply`], [`EndReply`]) derive
//! serde so a network transport (`esr-net`) can frame them onto a
//! socket unchanged; [`Request`] itself is *not* serializable because it
//! carries the reply routing ([`ReplySink`]) — a transport sends a
//! serializable request body and attaches its own sink on the server
//! side.

use crossbeam::channel::Sender;
use esr_clock::Timestamp;
use esr_core::ids::{TxnId, TxnKind};
use esr_core::spec::TxnBounds;
use esr_obs::HistogramSnapshot;
use esr_storage::PageCacheSnapshot;
use esr_tso::{AbortReason, CommitInfo, Operation, StatsSnapshot};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Server reply to a begin.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BeginReply {
    /// The transaction was admitted under this id.
    Started(TxnId),
    /// The server could not start a transaction (shutting down, …).
    Error(String),
}

/// Server reply to a read/write.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpReply {
    /// Read result.
    Value(i64),
    /// Write applied (or skipped under the Thomas rule).
    Written,
    /// The transaction was aborted by the system.
    Aborted(AbortReason),
    /// Driver-level error (unknown object, query write, …).
    Error(String),
}

/// Server reply to a commit/abort.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EndReply {
    /// Committed with this summary.
    Committed(CommitInfo),
    /// Aborted (client-initiated) successfully.
    Aborted,
    /// The server has no such transaction: it never began, or it
    /// already ended (e.g. the reply to an earlier `End` was lost in
    /// transit and this is the retry). Permanent — the client must drop
    /// its local handle; retrying can never succeed.
    Unknown(TxnId),
    /// Any other driver-level error. The transaction may still be live
    /// server-side, so the client keeps its handle to retry or abort.
    Error(String),
}

/// A latency histogram snapshot under its metric name (e.g.
/// `kernel_txn_latency_micros`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NamedHistogram {
    /// Metric name, snake_case with a unit suffix.
    pub name: String,
    /// The snapshot.
    pub hist: HistogramSnapshot,
}

/// Counters of a live conformance monitor tailing the capture stream
/// (`esr-tcpd --monitor`). All gauges reflect the monitor thread's last
/// published snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorSnapshot {
    /// Error-level conformance diagnostics found so far. Zero on a
    /// healthy server; any other value means the kernel's ESR claims
    /// failed validation (or the stream gapped).
    pub violations: u64,
    /// Capture events the monitor has processed.
    pub events: u64,
    /// Stream discontinuities observed.
    pub gaps: u64,
    /// Events evicted from the capture log before the monitor read them.
    pub missed_events: u64,
    /// Transactions currently live in the monitor's replay engine.
    pub live_txns: u64,
    /// Update transactions currently held in the conflict graph.
    pub graph_nodes: u64,
    /// Objects with retained access-log entries.
    pub tracked_objects: u64,
    /// Total retained access-log entries (the memory-bound gauge).
    pub retained_entries: u64,
}

/// One subscribed replica, as seen from the primary's shipping hub.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaPeerRow {
    /// The subscriber's remote address.
    pub peer: String,
    /// Highest log sequence number shipped to this subscriber.
    pub sent_seq: u64,
    /// Records the subscriber still trails the durable watermark by.
    pub lag_records: u64,
}

/// Replication state, reported by both roles: a primary describes its
/// shipping hub (epoch, durable watermark, subscribed peers); a replica
/// describes its apply pipeline (received/applied watermarks, lag, and
/// the divergence of its local copy from the shipped primary shadow).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicationStats {
    /// `"primary"` or `"replica"`.
    pub role: String,
    /// The fencing epoch this node operates under.
    pub epoch: u64,
    /// Primary: highest fsynced log sequence. Replica: the primary's
    /// advertised durable watermark (0 until the first heartbeat).
    pub durable_seq: u64,
    /// Replica: highest record ingested from the stream (shadow
    /// watermark). Primary: equal to `durable_seq`.
    pub received_seq: u64,
    /// Replica: highest record applied to the local data copy and its
    /// own log. Primary: equal to `durable_seq`.
    pub applied_seq: u64,
    /// Records known to exist but not yet applied locally.
    pub lag_records: u64,
    /// Age of the oldest ingested-but-unapplied record, in microseconds
    /// (0 when fully caught up).
    pub lag_micros: u64,
    /// Sum over all objects of `distance(local value, primary shadow)`.
    pub divergence_total: u64,
    /// The same divergence, broken down by top-level hierarchy group.
    pub divergence_groups: Vec<(String, u64)>,
    /// Primary only: one row per live subscriber.
    pub peers: Vec<ReplicaPeerRow>,
}

/// Everything a live server reports about itself: kernel counters,
/// gauges, and latency histograms. Serializable, so the TCP transport
/// ships it to remote clients unchanged.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// The kernel's monotonic counters.
    pub kernel: StatsSnapshot,
    /// Currently active transactions (gauge).
    pub active_txns: u64,
    /// Operations parked on kernel wait queues right now (gauge).
    pub waitq_depth: u64,
    /// Requests currently being served (gauge).
    pub in_flight: i64,
    /// Client-marked request resends observed by the transport
    /// (idempotent retries after lost replies, reconnects, or busy
    /// rejects). Absent in snapshots from pre-retry servers.
    #[serde(default)]
    pub retries: u64,
    /// Bytes appended to the write-ahead log by this process (0 when no
    /// durability sink is attached). Absent in snapshots from
    /// pre-durability servers.
    #[serde(default)]
    pub wal_bytes: u64,
    /// Crash recoveries this process performed at startup (0 on a fresh
    /// boot or without durability). Absent in snapshots from
    /// pre-durability servers.
    #[serde(default)]
    pub recoveries: u64,
    /// The write-ahead log hit an I/O error and stopped: commits are no
    /// longer being acknowledged and the daemon needs its disk fixed
    /// and a restart. Absent in snapshots from servers that wedged
    /// quietly instead.
    #[serde(default)]
    pub wal_failed: bool,
    /// Live conformance-monitor counters (`None` unless the server runs
    /// with `--monitor`). Absent in snapshots from pre-monitor servers.
    #[serde(default)]
    pub monitor: Option<MonitorSnapshot>,
    /// Buffer-pool counters (`None` unless the object table is backed
    /// by the paged heap, i.e. the server was started with a page-cache
    /// budget). Absent in snapshots from pre-pager servers.
    #[serde(default)]
    pub page_cache: Option<PageCacheSnapshot>,
    /// Replication state (`None` unless the node ships or applies a
    /// replication stream). Absent in snapshots from pre-replication
    /// servers.
    #[serde(default)]
    pub replication: Option<ReplicationStats>,
    /// All latency histograms: per-request-kind service time, plus the
    /// kernel's op-service, park-wait, and txn-latency distributions.
    pub histograms: Vec<NamedHistogram>,
}

impl ServerStats {
    /// Look up a histogram by metric name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.hist)
    }
}

/// Server reply to a stats request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StatsReply {
    /// The snapshot.
    Stats(Box<ServerStats>),
    /// The server could not answer (shutting down, …).
    Error(String),
}

/// A one-shot reply destination.
///
/// The in-process [`crate::Connection`] blocks on a bounded channel; a
/// network transport instead registers a *hook* that frames the reply
/// onto the right socket with its correlation id. Serving threads and
/// the parked-operation table route replies through this type without
/// knowing which kind of client is on the other end.
pub enum ReplySink<T> {
    /// Reply over an in-process channel (the receiver blocks on it).
    Channel(Sender<T>),
    /// Reply through an arbitrary one-shot hook (network transports).
    Hook(Box<dyn FnOnce(T) + Send>),
}

impl<T> ReplySink<T> {
    /// A sink that sends into an in-process channel.
    pub fn channel(tx: Sender<T>) -> Self {
        ReplySink::Channel(tx)
    }

    /// A sink that invokes `f` with the reply exactly once.
    pub fn hook(f: impl FnOnce(T) + Send + 'static) -> Self {
        ReplySink::Hook(Box::new(f))
    }

    /// Deliver the reply, consuming the sink. Returns `false` if an
    /// in-process receiver has gone away (hooks always report `true`).
    pub fn send(self, value: T) -> bool {
        match self {
            ReplySink::Channel(tx) => tx.send(value).is_ok(),
            ReplySink::Hook(f) => {
                f(value);
                true
            }
        }
    }
}

impl<T> fmt::Debug for ReplySink<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplySink::Channel(_) => f.write_str("ReplySink::Channel"),
            ReplySink::Hook(_) => f.write_str("ReplySink::Hook"),
        }
    }
}

/// A request from a connection.
#[derive(Debug)]
pub enum Request {
    /// Begin a transaction; the client generated the timestamp (§6:
    /// timestamps come from the client sites' corrected clocks).
    Begin {
        /// Query or update.
        kind: TxnKind,
        /// The transaction's bound specification.
        bounds: TxnBounds,
        /// Client-generated timestamp.
        ts: Timestamp,
        /// Reply sink.
        reply: ReplySink<BeginReply>,
    },
    /// A read or write. The reply is withheld while the operation waits
    /// (strict ordering) and sent once it completes or aborts.
    Op {
        /// The transaction.
        txn: TxnId,
        /// The operation.
        op: Operation,
        /// Reply sink.
        reply: ReplySink<OpReply>,
    },
    /// A pipelined batch of operations from one transaction, submitted
    /// in a single request and answered with one correlated reply per
    /// operation, in submission order. Ops are driven sequentially
    /// (they belong to one transaction, so they cannot run
    /// concurrently); an op that parks suspends the batch until its
    /// wakeup, and an abort fails the remaining ops without touching
    /// the kernel. At most [`MAX_BATCH`] ops per batch.
    Batch {
        /// The transaction.
        txn: TxnId,
        /// The operations, in execution order.
        ops: Vec<Operation>,
        /// Reply sink; receives exactly `ops.len()` replies.
        reply: ReplySink<Vec<OpReply>>,
    },
    /// Commit or abort.
    End {
        /// The transaction.
        txn: TxnId,
        /// `true` for commit.
        commit: bool,
        /// Reply sink.
        reply: ReplySink<EndReply>,
    },
    /// Report kernel counters, gauges, and latency histograms.
    Stats {
        /// Reply sink.
        reply: ReplySink<StatsReply>,
    },
}

/// Upper bound on operations per [`Request::Batch`]. Keeps a single
/// frame's work (and its reply vector) bounded; transports reject
/// larger batches before they reach the kernel.
pub const MAX_BATCH: usize = 1024;

impl Request {
    /// Answer a request that will not be served (shutdown drain, a
    /// request arriving after shutdown) with an explicit error instead
    /// of a dropped channel.
    pub fn reject(self, reason: &str) {
        match self {
            Request::Begin { reply, .. } => {
                reply.send(BeginReply::Error(reason.to_owned()));
            }
            Request::Op { reply, .. } => {
                reply.send(OpReply::Error(reason.to_owned()));
            }
            Request::Batch { ops, reply, .. } => {
                reply.send(vec![OpReply::Error(reason.to_owned()); ops.len()]);
            }
            Request::End { reply, .. } => {
                reply.send(EndReply::Error(reason.to_owned()));
            }
            Request::Stats { reply } => {
                reply.send(StatsReply::Error(reason.to_owned()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn channel_sink_delivers() {
        let (tx, rx) = bounded(1);
        assert!(ReplySink::channel(tx).send(OpReply::Written));
        assert_eq!(rx.recv().unwrap(), OpReply::Written);
    }

    #[test]
    fn channel_sink_reports_dropped_receiver() {
        let (tx, rx) = bounded::<OpReply>(1);
        drop(rx);
        assert!(!ReplySink::channel(tx).send(OpReply::Written));
    }

    #[test]
    fn hook_sink_runs_once() {
        let hit = Arc::new(AtomicBool::new(false));
        let h = Arc::clone(&hit);
        let sink = ReplySink::hook(move |v: OpReply| {
            assert_eq!(v, OpReply::Written);
            h.store(true, Ordering::SeqCst);
        });
        assert!(sink.send(OpReply::Written));
        assert!(hit.load(Ordering::SeqCst));
    }

    #[test]
    fn reject_answers_every_request_kind() {
        let (btx, brx) = bounded(1);
        Request::Begin {
            kind: TxnKind::Query,
            bounds: TxnBounds::import(esr_core::bounds::Limit::ZERO),
            ts: Timestamp::ZERO,
            reply: ReplySink::channel(btx),
        }
        .reject("closing");
        assert_eq!(brx.recv().unwrap(), BeginReply::Error("closing".into()));

        let (otx, orx) = bounded(1);
        Request::Op {
            txn: TxnId(1),
            op: Operation::Read(esr_core::ids::ObjectId(0)),
            reply: ReplySink::channel(otx),
        }
        .reject("closing");
        assert_eq!(orx.recv().unwrap(), OpReply::Error("closing".into()));

        let (batx, barx) = bounded(1);
        Request::Batch {
            txn: TxnId(1),
            ops: vec![
                Operation::Read(esr_core::ids::ObjectId(0)),
                Operation::Write(esr_core::ids::ObjectId(1), 7),
            ],
            reply: ReplySink::channel(batx),
        }
        .reject("closing");
        assert_eq!(
            barx.recv().unwrap(),
            vec![
                OpReply::Error("closing".into()),
                OpReply::Error("closing".into())
            ],
            "a rejected batch answers every op"
        );

        let (etx, erx) = bounded(1);
        Request::End {
            txn: TxnId(1),
            commit: true,
            reply: ReplySink::channel(etx),
        }
        .reject("closing");
        assert_eq!(erx.recv().unwrap(), EndReply::Error("closing".into()));
    }
}
