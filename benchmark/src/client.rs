//! The closed-loop client: one connection, zero think time, one
//! generated transaction after another.
//!
//! A transaction the system aborts restarts at once with a fresh
//! timestamp, at most [`MAX_RESTARTS`] times; then, or on any transport
//! error or timeout, it counts as failed. From the
//! [`PAUSE_FROM_RESTART`]-th restart on, a short seeded random pause
//! comes first: two closed loops that restart at once re-read each
//! other's write sets in lockstep, and timestamp ordering then aborts
//! both for ever. Response time runs from the first `Begin` sent to the
//! commit acknowledged, restarts, pauses and busy-retries included.

use crate::gen::{Rng, Stream, TxnSpec, WriteVal};
use crate::trace::Tracer;
use esr_core::bounds::Limit;
use esr_core::ids::{ObjectId, TxnKind};
use esr_core::spec::TxnBounds;
use esr_net::{NetClientConfig, TcpConnection};
use esr_server::OpReply;
use esr_tso::{CommitInfo, Operation};
use esr_txn::{Session, SessionError};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Restarts after which a transaction counts as failed.
pub const MAX_RESTARTS: u32 = 50;

/// The restart from which a random pause of up to
/// `PAUSE_STEP_MICROS × restarts` precedes the next attempt.
const PAUSE_FROM_RESTART: u32 = 3;
const PAUSE_STEP_MICROS: u32 = 100;

/// Sends per call: the first plus resends that honour busy-reject retry
/// hints (a lagging replica parks over-budget reads this way).
const CALL_ATTEMPTS: u32 = 64;

/// Consecutive failed transactions after which a client gives up rather
/// than spin against a dead daemon.
const GIVE_UP_AFTER: u32 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    StrictQuery,
    RelaxedQuery,
    Update,
}

/// One committed transaction.
#[derive(Debug, Clone, Copy)]
pub struct TxnRecord {
    /// Commit acknowledged, nanoseconds since the run's epoch.
    pub end_ns: u64,
    pub latency_ns: u64,
    pub class: Class,
    pub restarts: u32,
    pub rpcs: u32,
}

/// Times one attempt's RPCs when the transaction is traced.
struct Calls<'a> {
    tracer: Option<&'a mut Tracer>,
    epoch: Instant,
    attempt: u64,
    txn: u64,
    rpcs: u32,
}

impl Calls<'_> {
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.rpcs += 1;
        match &mut self.tracer {
            None => f(),
            Some(tracer) => {
                let start = self.epoch.elapsed().as_nanos() as u64;
                let out = f();
                let end = self.epoch.elapsed().as_nanos() as u64;
                tracer.leaf(self.attempt, self.txn, name, start, end);
                out
            }
        }
    }
}

pub struct Client {
    pub index: usize,
    conn: TcpConnection,
    stream: Stream,
    per_op: bool,
    epoch: Instant,
    next_txn: u64,
    /// Draws the restart pauses.
    pauses: Rng,
    /// Time `TcpConnection::connect` took, Cristian exchanges included.
    pub handshake_us: f64,
    /// Last acknowledged value of every object this client wrote.
    pub acked: HashMap<u32, i64>,
    /// The writes of an update cut off by a transport error: they may
    /// or may not have committed.
    pub in_flight: Option<Vec<(u32, i64)>>,
    pub records: Vec<TxnRecord>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the first few failed transactions failed.
    pub failures: Vec<String>,
    pub commits: u64,
    /// Commits whose `CommitInfo` broke the transaction's own bound.
    pub violations: Vec<String>,
    pub tracer: Tracer,
}

impl Client {
    pub fn connect(
        index: usize,
        addr: SocketAddr,
        stream: Stream,
        per_op: bool,
        epoch: Instant,
        retry: bool,
    ) -> Result<Client, String> {
        let config = NetClientConfig {
            // Without retries a killed daemon surfaces at once instead
            // of after a reconnect back-off.
            call_attempts: if retry { CALL_ATTEMPTS } else { 1 },
            connect_attempts: if retry { 5 } else { 1 },
            retry_seed: index as u64,
            ..NetClientConfig::default()
        };
        let t0 = Instant::now();
        let conn = TcpConnection::connect_with(addr, config)
            .map_err(|e| format!("client {index} cannot connect to {addr}: {e}"))?;
        Ok(Client {
            index,
            conn,
            stream,
            per_op,
            epoch,
            next_txn: 0,
            pauses: Rng::new(0x9a05e ^ index as u64),
            handshake_us: t0.elapsed().as_nanos() as f64 / 1e3,
            acked: HashMap::new(),
            in_flight: None,
            records: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            commits: 0,
            violations: Vec::new(),
            tracer: Tracer::new(index as u64 + 1),
        })
    }

    /// Requests this connection resent (busy rejects, on an unfaulted run).
    pub fn resends(&self) -> u64 {
        self.conn.retries()
    }

    /// Swap in another stream (the measured one, after the preload).
    pub fn set_stream(&mut self, stream: Stream) {
        self.stream = stream;
    }

    /// Run transactions back to back until `stop` is set.
    pub fn run_until(&mut self, stop: &AtomicBool, trace_on: &AtomicBool) {
        let mut failures_in_a_row = 0;
        while !stop.load(Ordering::Relaxed) && failures_in_a_row < GIVE_UP_AFTER {
            match self.run_one(trace_on.load(Ordering::Relaxed)) {
                Ok(()) => failures_in_a_row = 0,
                Err(_) => failures_in_a_row += 1,
            }
        }
    }

    /// Run the stream's next transaction to its commit. `Err` means it
    /// failed (and was counted as such).
    pub fn run_one(&mut self, trace: bool) -> Result<(), SessionError> {
        let spec = self.stream.next_txn();
        self.next_txn += 1;
        self.attempted += 1;
        let txn = (self.index as u64 + 1) << 48 | self.next_txn;
        let txn_span = if trace { self.tracer.open() } else { 0 };
        let t0 = self.epoch.elapsed().as_nanos() as u64;
        let mut restarts = 0;
        let mut rpcs = 0;
        let outcome = loop {
            let attempt_span = if trace { self.tracer.open() } else { 0 };
            let a0 = if trace { self.epoch.elapsed().as_nanos() as u64 } else { 0 };
            let mut calls = Calls {
                tracer: trace.then_some(&mut self.tracer),
                epoch: self.epoch,
                attempt: attempt_span,
                txn,
                rpcs: 0,
            };
            let mut written = Vec::with_capacity(spec.writes.len());
            let result = attempt(&mut self.conn, &spec, self.per_op, &mut calls, &mut written);
            rpcs += calls.rpcs;
            if trace {
                let now = self.epoch.elapsed().as_nanos() as u64;
                self.tracer.close(attempt_span, txn_span, txn, "attempt", a0, now);
            }
            match result {
                Ok(info) => break Ok((info, written)),
                Err(e) if e.is_retryable() && restarts < MAX_RESTARTS => {
                    restarts += 1;
                    if restarts >= PAUSE_FROM_RESTART {
                        let micros = self.pauses.below(PAUSE_STEP_MICROS * restarts);
                        std::thread::sleep(Duration::from_micros(u64::from(micros)));
                    }
                }
                Err(e) => {
                    if spec.update {
                        self.in_flight = Some(written);
                    }
                    break Err(e);
                }
            }
        };
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        if trace {
            self.tracer.close(txn_span, 0, txn, "txn", t0, end_ns);
        }
        match outcome {
            Ok((info, written)) => {
                self.commits += 1;
                self.acked.extend(written);
                if !spec.update && info.inconsistency > spec.limit {
                    self.violations.push(format!(
                        "query with TIL {} committed with inconsistency {}",
                        spec.limit, info.inconsistency
                    ));
                }
                let class = match (spec.update, spec.limit) {
                    (true, _) => Class::Update,
                    (false, 0) => Class::StrictQuery,
                    (false, _) => Class::RelaxedQuery,
                };
                self.records.push(TxnRecord {
                    end_ns,
                    latency_ns: end_ns - t0,
                    class,
                    restarts,
                    rpcs,
                });
                Ok(())
            }
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 3 {
                    self.failures.push(format!("after {restarts} restarts: {e}"));
                }
                if self.conn.in_txn() {
                    let _ = self.conn.abort();
                }
                Err(e)
            }
        }
    }

    /// Values of `objects` read by strict queries of at most 1000 reads
    /// each, in order.
    pub fn read_all(&mut self, objects: impl Iterator<Item = u32>) -> Result<Vec<i64>, String> {
        let ids: Vec<u32> = objects.collect();
        let mut values = Vec::with_capacity(ids.len());
        for chunk in ids.chunks(1000) {
            let fail =
                |what: &str, e: &dyn std::fmt::Display| format!("strict read-back: {what}: {e}");
            self.conn
                .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
                .map_err(|e| fail("begin", &e))?;
            let ops = chunk.iter().map(|&o| Operation::Read(ObjectId(o))).collect();
            for reply in self.conn.batch(ops).map_err(|e| fail("batch", &e))? {
                match reply {
                    OpReply::Value(v) => values.push(v),
                    other => return Err(fail("read", &format!("{other:?}"))),
                }
            }
            let info = self.conn.commit().map_err(|e| fail("commit", &e))?;
            if info.inconsistency != 0 {
                return Err(fail("commit", &"a strict query imported inconsistency"));
            }
        }
        Ok(values)
    }

    /// Whether the daemon refuses an update transaction (a replica must).
    pub fn update_is_refused(&mut self) -> bool {
        let refused = self.conn.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO)).is_err();
        if !refused {
            let _ = self.conn.abort();
        }
        refused
    }

    /// The daemon's live stats over the wire.
    pub fn server_stats(&mut self) -> Result<esr_server::ServerStats, String> {
        self.conn.server_stats().map_err(|e| format!("Stats request failed: {e}"))
    }
}

/// One attempt: `Begin`, the operations (one RPC each, or one `Batch`),
/// `End`. The writes sent are left in `written`, whatever the outcome.
fn attempt(
    conn: &mut TcpConnection,
    spec: &TxnSpec,
    per_op: bool,
    calls: &mut Calls<'_>,
    written: &mut Vec<(u32, i64)>,
) -> Result<CommitInfo, SessionError> {
    let limit = Limit::at_most(spec.limit);
    let (kind, bounds) = if spec.update {
        (TxnKind::Update, TxnBounds::export(limit))
    } else {
        (TxnKind::Query, TxnBounds::import(limit))
    };
    calls.call("rpc.begin", || conn.begin(kind, bounds))?;
    if per_op {
        let mut values = Vec::with_capacity(spec.reads.len());
        for &obj in &spec.reads {
            values.push(calls.call("rpc.op", || conn.read(ObjectId(obj)))?);
        }
        for &(obj, val) in &spec.writes {
            let value = match val {
                WriteVal::Const(v) => v,
                WriteVal::ReadPlus { read, delta } => values[read] + delta,
            };
            written.push((obj, value));
            calls.call("rpc.op", || conn.write(ObjectId(obj), value))?;
        }
    } else {
        let mut ops: Vec<Operation> =
            spec.reads.iter().map(|&o| Operation::Read(ObjectId(o))).collect();
        for &(obj, val) in &spec.writes {
            let WriteVal::Const(value) = val else {
                unreachable!("a batched write cannot depend on a read of its own batch");
            };
            written.push((obj, value));
            ops.push(Operation::Write(ObjectId(obj), value));
        }
        let replies = calls.call("rpc.batch", || conn.batch(ops))?;
        if let Some(reason) = replies.iter().find_map(|r| match r {
            OpReply::Aborted(reason) => Some(reason.clone()),
            _ => None,
        }) {
            return Err(SessionError::Aborted(reason));
        }
        if let Some(OpReply::Error(e)) = replies.iter().find(|r| matches!(r, OpReply::Error(_))) {
            return Err(SessionError::Backend(e.clone()));
        }
    }
    calls.call("rpc.end", || conn.commit())
}
