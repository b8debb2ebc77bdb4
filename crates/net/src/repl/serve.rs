//! The replica's read-only front end: epsilon-bounded queries against
//! the local copy, over the ordinary wire protocol.
//!
//! A replica speaks the same [`WireRequest`]/[`WireReply`] frames the
//! primary does, so any `esr-net` client can point at it unchanged —
//! but it admits only query transactions. Every read is charged
//! `d = distance(local value, primary shadow)` against the query's
//! hierarchical bounds through the same [`Ledger`] the kernel uses:
//! the inconsistency a replica read imports *is* the replica's
//! divergence on that object, measured against the eagerly shipped
//! committed value. A read whose charge would blow a bound is not
//! failed permanently — the replica busy-rejects it with a retry-after
//! hint scaled to the apply lag, so the client's existing
//! park-and-retry machinery waits out the catch-up. A query with
//! all-zero bounds therefore succeeds only on a fully caught-up
//! replica: ESR degenerates to SR exactly as it should.
//!
//! ## Divergence is measured against the last *heard* primary state
//!
//! The shadow freezes when the replication link is down, so a
//! partitioned replica measures divergence against the primary state
//! it last heard — nonzero-budget reads are charged honestly against
//! that state and stay within their advertised bounds *relative to
//! it*, which is the strongest claim an async replica can make while
//! cut off. All-zero bounds claim more (exact equality with the
//! primary's committed state), so strict reads are additionally gated
//! on [`ReplicaNode::fresh`]: a disconnected or stale-linked replica
//! busy-rejects them rather than passing its frozen shadow off as
//! zero divergence.
//!
//! Once a caller has attached a capture log
//! ([`ReplicaNode::enable_capture`]), every admitted read is recorded as
//! an [`EventKind::ReplicaRead`] event, so cross-site histories can be
//! replayed through `esr-checker` against the advertised bounds. Until
//! then no event is even built.
//!
//! [`Ledger`]: esr_core::ledger::Ledger

use super::replica::ReplicaNode;
use crate::conn::{Connections, ReplyPort, WRITE_TIMEOUT};
use crate::listen::{accept_until_stopped, wake};
use crate::msg::{ReplyBody, RequestBody, WireReply, WireRequest};
use crate::server::busy_reject;
use esr_core::ids::{TxnId, TxnKind};
use esr_core::ledger::Ledger;
use esr_core::value::distance;
use esr_server::{
    BeginReply, EndReply, OpReply, StatsReply, StatsSource, BATCH_TOO_LARGE, MAX_BATCH,
};
use esr_tso::capture::EventKind;
use esr_tso::{CommitInfo, Operation};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;

/// The stable error message for writes (and update transactions)
/// against a replica.
pub const READ_ONLY_ERROR: &str = "replica is read-only";

/// Cap on the busy-reject retry hint: even a deeply lagged replica
/// asks clients to re-poll within this.
const MAX_RETRY_HINT_MICROS: u64 = 200_000;

/// Microseconds of retry hint per record of apply lag.
const RETRY_HINT_PER_RECORD_MICROS: u64 = 50;

/// Shared across all of one replica's serving connections.
struct ServeShared {
    node: Arc<ReplicaNode>,
    /// Site ids handed to clients. Replica sites start high so their
    /// timestamps are visibly distinct from primary-issued ones in
    /// merged traces.
    site_counter: AtomicU64,
    /// Query transaction ids, node-local.
    txn_counter: AtomicU64,
    stop: AtomicBool,
    /// One thread per client connection, as on the primary.
    conns: Arc<Connections>,
}

/// A listening replica front end.
pub struct ReplicaServer {
    shared: Arc<ServeShared>,
    addr: SocketAddr,
    accept: Mutex<Option<thread::JoinHandle<()>>>,
}

impl ReplicaServer {
    /// Serve read-only queries for `node` on `listener`.
    pub fn start(node: Arc<ReplicaNode>, listener: TcpListener) -> io::Result<ReplicaServer> {
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServeShared {
            node,
            site_counter: AtomicU64::new(0),
            txn_counter: AtomicU64::new(1),
            stop: AtomicBool::new(false),
            conns: Arc::default(),
        });
        let accept_shared = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("esr-replica-serve".into())
            .spawn(move || accept_loop(accept_shared, listener))
            .expect("spawn replica accept thread");
        Ok(ReplicaServer {
            shared,
            addr,
            accept: Mutex::new(Some(handle)),
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The node this front end serves.
    pub fn node(&self) -> &Arc<ReplicaNode> {
        &self.shared.node
    }

    /// Stop accepting, then wake and join every connection's thread.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        wake(self.addr);
        if let Some(h) = self
            .accept
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            let _ = h.join();
        }
        self.shared.conns.close();
    }
}

impl Drop for ReplicaServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: Arc<ServeShared>, listener: TcpListener) {
    accept_until_stopped(
        &shared.stop,
        || listener.accept(),
        |(stream, _)| {
            let conn_shared = Arc::clone(&shared);
            shared
                .conns
                .spawn("esr-replica-conn", stream, move |stream| {
                    conn_loop(&conn_shared, stream)
                });
        },
    );
}

/// Per-transaction serving state.
struct TxnState {
    ledger: Ledger,
    reads: u64,
    /// All-zero (strictly serializable) bounds: reads additionally
    /// require the node to be fresh, because a frozen shadow cannot
    /// attest zero divergence.
    strict: bool,
}

/// One connection's thread: every request is answered before the next
/// is read (a replica parks nothing), through the same loop and port as
/// on the primary.
fn conn_loop(shared: &ServeShared, stream: TcpStream) {
    let Ok(port) = ReplyPort::new(stream, Some(WRITE_TIMEOUT)) else {
        return;
    };
    let mut txns: HashMap<TxnId, TxnState> = HashMap::new();
    port.serve_requests(|req: WireRequest| {
        let body = dispatch(shared, &mut txns, req.body);
        port.send(&WireReply { id: req.id, body });
    });
    // Orphan-reap: a dropped connection aborts its open queries, and
    // the capture stream says so.
    for (txn, _) in txns.drain() {
        shared
            .node
            .record(|| EventKind::Abort { txn, reason: None });
    }
}

fn dispatch(
    shared: &ServeShared,
    txns: &mut HashMap<TxnId, TxnState>,
    body: RequestBody,
) -> ReplyBody {
    let node = &shared.node;
    match body {
        RequestBody::Hello => {
            let site = 0x8000 + (shared.site_counter.fetch_add(1, Ordering::SeqCst) % 0x7FFF);
            ReplyBody::Welcome { site: site as u16 }
        }
        RequestBody::TimeExchange => ReplyBody::Time {
            micros: node.reference_micros(),
        },
        RequestBody::Begin { kind, bounds, ts } => {
            if kind != TxnKind::Query {
                return ReplyBody::Begin(BeginReply::Error(READ_ONLY_ERROR.into()));
            }
            let txn = TxnId(shared.txn_counter.fetch_add(1, Ordering::SeqCst));
            let ledger = Ledger::new(node.schema(), &bounds);
            let strict = bounds.is_serializable();
            node.record(|| EventKind::Begin {
                txn,
                kind,
                ts,
                bounds,
            });
            txns.insert(
                txn,
                TxnState {
                    ledger,
                    reads: 0,
                    strict,
                },
            );
            ReplyBody::Begin(BeginReply::Started(txn))
        }
        RequestBody::Op { txn, op } => ReplyBody::Op(run_op(node, txns, txn, &op)),
        RequestBody::Batch { txn, ops } => run_batch(node, txns, txn, &ops),
        RequestBody::End { txn, commit } => {
            let Some(state) = txns.remove(&txn) else {
                return ReplyBody::End(EndReply::Unknown(txn));
            };
            if commit {
                let info = CommitInfo {
                    inconsistency: state.ledger.total(),
                    inconsistent_ops: state.ledger.inconsistent_charges(),
                    reads: state.reads,
                    writes: 0,
                    written: Vec::new(),
                };
                node.record(|| EventKind::Commit {
                    txn,
                    info: info.clone(),
                });
                ReplyBody::End(EndReply::Committed(info))
            } else {
                node.record(|| EventKind::Abort { txn, reason: None });
                ReplyBody::End(EndReply::Aborted)
            }
        }
        RequestBody::Stats => ReplyBody::Stats(StatsReply::Stats(Box::new(node.stats()))),
    }
}

/// The busy-reject hint for an over-budget read: proportional to the
/// apply lag (more lag, longer wait), clamped to the park machinery's
/// usual range.
fn retry_hint(node: &ReplicaNode) -> u64 {
    (node.lag_records() * RETRY_HINT_PER_RECORD_MICROS)
        .clamp(crate::server::BUSY_RETRY_BASE_MICROS, MAX_RETRY_HINT_MICROS)
}

fn run_op(
    node: &Arc<ReplicaNode>,
    txns: &mut HashMap<TxnId, TxnState>,
    txn: TxnId,
    op: &Operation,
) -> OpReply {
    let Some(state) = txns.get_mut(&txn) else {
        return OpReply::Error(format!("unknown transaction {txn}"));
    };
    match *op {
        Operation::Read(obj) => {
            if obj.0 as usize >= node.n_objects() {
                return OpReply::Error(format!("unknown object {obj}"));
            }
            if state.strict && !node.fresh() {
                // A frozen shadow cannot attest zero divergence: a
                // strict read on a cut-off replica parks rather than
                // serving arbitrarily stale data as "exact".
                return OpReply::Error(busy_reject(retry_hint(node)));
            }
            let (local, shadow, oil) = node.read_state(obj);
            let d = distance(local, shadow);
            match state.ledger.try_charge(obj, d, oil) {
                Ok(()) => {
                    state.reads += 1;
                    node.record(|| EventKind::ReplicaRead {
                        txn,
                        obj,
                        local,
                        shadow,
                        d,
                        lag: node.lag_records(),
                        oil,
                    });
                    OpReply::Value(local)
                }
                Err(_) => OpReply::Error(busy_reject(retry_hint(node))),
            }
        }
        Operation::Write(_, _) => OpReply::Error(READ_ONLY_ERROR.into()),
    }
}

/// All-or-nothing batch admission: pre-charge every read on a trial
/// ledger; only if the whole batch clears does it commit to the real
/// one. A failing batch answers every op with the same busy reject so
/// the client backs off and resends the batch intact.
fn run_batch(
    node: &Arc<ReplicaNode>,
    txns: &mut HashMap<TxnId, TxnState>,
    txn: TxnId,
    ops: &[Operation],
) -> ReplyBody {
    if ops.len() > MAX_BATCH {
        return ReplyBody::Error(BATCH_TOO_LARGE.into());
    }
    let Some(state) = txns.get_mut(&txn) else {
        return ReplyBody::Error(format!("unknown transaction {txn}"));
    };
    if state.strict && !node.fresh() && ops.iter().any(|op| matches!(op, Operation::Read(_))) {
        let busy = busy_reject(retry_hint(node));
        return ReplyBody::Batch(ops.iter().map(|_| OpReply::Error(busy.clone())).collect());
    }
    let mut trial = state.ledger.clone();
    let mut planned = Vec::with_capacity(ops.len());
    for op in ops {
        match *op {
            Operation::Read(obj) => {
                if obj.0 as usize >= node.n_objects() {
                    return ReplyBody::Batch(
                        ops.iter()
                            .map(|_| OpReply::Error(format!("unknown object {obj}")))
                            .collect(),
                    );
                }
                let (local, shadow, oil) = node.read_state(obj);
                let d = distance(local, shadow);
                if trial.try_charge(obj, d, oil).is_err() {
                    let busy = busy_reject(retry_hint(node));
                    return ReplyBody::Batch(
                        ops.iter().map(|_| OpReply::Error(busy.clone())).collect(),
                    );
                }
                planned.push((obj, local, shadow, d, oil));
            }
            Operation::Write(_, _) => {
                return ReplyBody::Batch(
                    ops.iter()
                        .map(|_| OpReply::Error(READ_ONLY_ERROR.into()))
                        .collect(),
                );
            }
        }
    }
    state.ledger = trial;
    state.reads += planned.len() as u64;
    let lag = node.lag_records();
    let replies = planned
        .into_iter()
        .map(|(obj, local, shadow, d, oil)| {
            node.record(|| EventKind::ReplicaRead {
                txn,
                obj,
                local,
                shadow,
                d,
                lag,
                oil,
            });
            OpReply::Value(local)
        })
        .collect();
    ReplyBody::Batch(replies)
}
