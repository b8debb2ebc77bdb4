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
use esr_obs::{HistogramSnapshot, MetricDesc, MetricKind};
use esr_storage::wal::SinkReport;
use esr_storage::PageCacheSnapshot;
pub use esr_tso::MonitorSnapshot;
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

esr_obs::metrics! {
    /// One subscribed replica, as seen from the primary's shipping hub;
    /// on `/metrics` each series carries a `peer` label.
    #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct ReplicaPeerRow {
        fields {
            /// The subscriber's remote address.
            pub peer: String,
        }
        series "esr_replication_peer_" {
            /// Highest log sequence number shipped to this subscriber.
            gauge sent_seq,
            /// Durable records not yet sent to this subscriber.
            gauge lag_records,
        }
    }
}

esr_obs::metrics! {
    /// Replication state, reported by both roles: a primary describes its
    /// shipping hub (epoch, durable watermark, subscribed peers); a replica
    /// describes its apply pipeline (received/applied watermarks, lag, and
    /// the divergence of its local copy from the shipped primary shadow).
    #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct ReplicationStats {
        fields {
            /// `"primary"` or `"replica"`.
            pub role: String,
        }
        series "esr_replica_" {
            /// The fencing epoch this node serves or follows.
            gauge epoch,
            /// Primary: highest fsynced log sequence. Replica: the primary's
            /// advertised durable watermark (0 until the first heartbeat).
            gauge durable_seq,
            /// Replica: highest record ingested from the stream (shadow
            /// watermark). Primary: equal to `durable_seq`.
            gauge received_seq,
            /// Replica: highest record applied to the local data copy and its
            /// own log. Primary: equal to `durable_seq`.
            gauge applied_seq,
            /// Records received but not yet applied locally.
            gauge lag_records,
            /// Age of the oldest ingested-but-unapplied record, in microseconds
            /// (0 when fully caught up).
            gauge lag_micros,
            /// Sum over all objects of `distance(local value, primary shadow)`.
            gauge divergence_total,
            /// Primary: bytes held by the ship cache, in estimated wire
            /// size (bounded by the hub's byte budget).
            #[serde(default)]
            gauge ship_cache_bytes,
            /// Primary: records held by the ship cache.
            #[serde(default)]
            gauge ship_cache_records,
            /// Primary: log segment files read to catch up subscribers
            /// behind the ship cache — one per segment per cold episode.
            #[serde(default)]
            counter cold_reads,
        }
        fields {
            /// The same divergence, broken down by top-level hierarchy group
            /// (`esr_replica_divergence{group=..}` on `/metrics`).
            pub divergence_groups: Vec<(String, u64)>,
            /// Primary only: one row per live subscriber.
            pub peers: Vec<ReplicaPeerRow>,
        }
    }
}

esr_obs::metrics! {
    /// Everything a live server reports about itself: kernel counters,
    /// gauges, and latency histograms. Serializable, so the TCP transport
    /// ships it to remote clients unchanged; a `#[serde(default)]` field
    /// is one that snapshots from servers older than it do not carry.
    #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct ServerStats {
        fields {
            /// The kernel's monotonic counters.
            pub kernel: StatsSnapshot,
        }
        series "esr_" {
            /// Currently active transactions.
            gauge active_txns,
            /// Operations parked on kernel wait queues right now.
            gauge waitq_depth,
            /// Requests currently being served.
            gauge in_flight: i64,
            /// Client-marked request resends observed by the transport
            /// (retries after lost replies, reconnects, or busy rejects).
            #[serde(default)]
            counter retries,
            /// Bytes appended to the write-ahead log by this process (0
            /// without a durability sink).
            #[serde(default)]
            gauge wal_bytes,
            /// Crash recoveries this process performed at startup (0 on a
            /// fresh boot or without durability).
            #[serde(default)]
            gauge recoveries,
            /// 1 once the write-ahead log has hit an I/O error and stopped
            /// acknowledging commits: fix the disk and restart.
            #[serde(default)]
            gauge wal_failed: bool,
        }
        fields {
            /// The conformance monitor's counters (`--monitor` only).
            #[serde(default)]
            pub monitor: Option<MonitorSnapshot>,
            /// Buffer-pool counters (only when the object table is backed
            /// by the paged heap, i.e. started with a page-cache budget).
            #[serde(default)]
            pub page_cache: Option<PageCacheSnapshot>,
            /// Replication state (only on a node that ships or applies a
            /// replication stream).
            #[serde(default)]
            pub replication: Option<ReplicationStats>,
            /// Every declared latency histogram: the server's, the
            /// kernel's and the durability sink's.
            pub histograms: Vec<NamedHistogram>,
        }
    }
}

impl ReplicationStats {
    /// The `divergence_groups` breakdown as a series, one sample per
    /// `group` label.
    pub const DIVERGENCE_BY_GROUP: MetricDesc = MetricDesc {
        name: "esr_replica_divergence",
        kind: MetricKind::Gauge,
        help: "Divergence between local values and primary shadows, by hierarchy group.",
    };
}

impl ServerStats {
    /// Look up a histogram by metric name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.hist)
    }

    /// Append a declared histogram set's snapshots (`snapshots()` of a
    /// struct declared with `esr_obs::histograms!`).
    pub fn add_histograms(&mut self, snapshots: Vec<(&'static str, HistogramSnapshot)>) {
        self.histograms
            .extend(snapshots.into_iter().map(|(name, hist)| NamedHistogram {
                name: name.to_owned(),
                hist,
            }));
    }

    /// Fold in a durability sink's report: the log's scalars and its
    /// histograms. The one place a [`SinkReport`] meets the wire format,
    /// used by a primary's snapshot and by a replica node (a log, no
    /// kernel) alike.
    pub fn add_sink(&mut self, report: SinkReport) {
        self.wal_bytes = report.wal_bytes;
        self.recoveries = report.recoveries;
        self.wal_failed = report.failed;
        self.add_histograms(report.histograms);
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
