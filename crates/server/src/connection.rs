//! A client connection: one site, one synchronous request stream.

use crate::proto::{BeginReply, EndReply, OpReply, ReplySink, Request};
use crossbeam::channel::{bounded, Receiver};
use esr_clock::TimestampGenerator;
use esr_core::ids::{ObjectId, TxnId, TxnKind};
use esr_core::spec::TxnBounds;
use esr_core::value::Value;
use esr_tso::{CommitInfo, Operation};
use esr_txn::{Session, SessionError};
use std::sync::Arc;
use std::time::Duration;

/// A client-side handle implementing [`Session`].
///
/// Requests are synchronous: each call runs one request against the
/// server on the calling thread ([`crate::RpcHandle::serve`], the path a
/// socket request takes) and blocks on its reply — exactly the paper's
/// synchronous RPC. An operation that the server parks (strict-ordering
/// wait) simply blocks this thread until the commit or abort that
/// releases it answers it from its own thread. The optional
/// `rpc_latency` reproduces the paper's 17–20 ms per-call cost.
pub struct Connection {
    serve: Serve,
    clock: Arc<TimestampGenerator>,
    rpc_latency: Option<Duration>,
    current: Option<TxnId>,
}

/// How a connection reaches its server: [`crate::RpcHandle::serve`],
/// or a script in this module's tests.
pub(crate) type Serve = Box<dyn Fn(Request) + Send + Sync>;

impl Connection {
    pub(crate) fn new(
        serve: Serve,
        clock: Arc<TimestampGenerator>,
        rpc_latency: Option<Duration>,
    ) -> Self {
        Connection {
            serve,
            clock,
            rpc_latency,
            current: None,
        }
    }

    /// The site this connection stamps timestamps with.
    pub fn site(&self) -> esr_core::ids::SiteId {
        self.clock.site()
    }

    /// The current transaction, if any.
    pub fn current_txn(&self) -> Option<TxnId> {
        self.current
    }

    fn simulate_rpc(&self) {
        if let Some(lat) = self.rpc_latency {
            std::thread::sleep(lat);
        }
    }

    fn current(&self) -> Result<TxnId, SessionError> {
        self.current.ok_or(SessionError::NoTransaction)
    }

    /// One synchronous RPC: run `req` and wait for the reply its sink
    /// receives, now or when a parked operation is woken.
    fn call<T>(&self, req: Request, reply: Receiver<T>) -> Result<T, SessionError> {
        (self.serve)(req);
        let reply = reply
            .recv()
            .map_err(|_| SessionError::Backend("server dropped the reply".into()))?;
        self.simulate_rpc();
        Ok(reply)
    }

    fn submit_op(&mut self, op: Operation) -> Result<OpReply, SessionError> {
        let txn = self.current()?;
        let (tx, rx) = bounded(1);
        let reply = ReplySink::channel(tx);
        self.call(Request::Op { txn, op, reply }, rx)
    }

    /// End the current transaction. `current` is cleared unless the
    /// reply is an `EndReply::Error`: a `Committed`/`Aborted` ended the
    /// transaction, and an `Unknown` means the server has no such
    /// transaction at all (it already ended — keeping the handle would
    /// make every later `begin` fail forever). Only `Error` leaves the
    /// transaction alive server-side with the handle intact to retry
    /// the commit or abort it.
    fn submit_end(&mut self, commit: bool) -> Result<EndReply, SessionError> {
        let txn = self.current()?;
        let (tx, rx) = bounded(1);
        let reply = ReplySink::channel(tx);
        let reply = self.call(Request::End { txn, commit, reply }, rx)?;
        if !matches!(reply, EndReply::Error(_)) {
            self.current = None;
        }
        Ok(reply)
    }
}

impl Session for Connection {
    fn begin(&mut self, kind: TxnKind, bounds: TxnBounds) -> Result<(), SessionError> {
        if self.current.is_some() {
            return Err(SessionError::Backend(
                "begin while a transaction is in progress".into(),
            ));
        }
        let ts = self.clock.next();
        let (tx, rx) = bounded(1);
        let begin = Request::Begin {
            kind,
            bounds,
            ts,
            reply: ReplySink::channel(tx),
        };
        match self.call(begin, rx)? {
            BeginReply::Started(id) => {
                self.current = Some(id);
                Ok(())
            }
            BeginReply::Error(e) => Err(SessionError::Backend(e)),
        }
    }

    fn read(&mut self, obj: ObjectId) -> Result<Value, SessionError> {
        match self.submit_op(Operation::Read(obj))? {
            OpReply::Value(v) => Ok(v),
            OpReply::Aborted(r) => {
                self.current = None;
                Err(SessionError::Aborted(r))
            }
            OpReply::Written => Err(SessionError::Backend("read answered as write".into())),
            OpReply::Error(e) => Err(SessionError::Backend(e)),
        }
    }

    fn write(&mut self, obj: ObjectId, value: Value) -> Result<(), SessionError> {
        match self.submit_op(Operation::Write(obj, value))? {
            OpReply::Written => Ok(()),
            OpReply::Aborted(r) => {
                self.current = None;
                Err(SessionError::Aborted(r))
            }
            OpReply::Value(_) => Err(SessionError::Backend("write answered as read".into())),
            OpReply::Error(e) => Err(SessionError::Backend(e)),
        }
    }

    fn commit(&mut self) -> Result<CommitInfo, SessionError> {
        match self.submit_end(true)? {
            EndReply::Committed(info) => Ok(info),
            EndReply::Aborted => Err(SessionError::Backend("commit answered as abort".into())),
            EndReply::Unknown(t) => Err(SessionError::Backend(format!(
                "transaction {t} unknown to the server (already ended?)"
            ))),
            EndReply::Error(e) => Err(SessionError::Backend(e)),
        }
    }

    fn abort(&mut self) -> Result<(), SessionError> {
        match self.submit_end(false)? {
            EndReply::Aborted => Ok(()),
            EndReply::Committed(_) => Err(SessionError::Backend("abort answered as commit".into())),
            EndReply::Unknown(t) => Err(SessionError::Backend(format!(
                "transaction {t} unknown to the server (already ended?)"
            ))),
            EndReply::Error(e) => Err(SessionError::Backend(e)),
        }
    }

    fn in_txn(&self) -> bool {
        self.current.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_clock::ManualTimeSource;
    use esr_core::bounds::Limit;
    use esr_core::ids::SiteId;
    use parking_lot::Mutex;

    /// A scripted fake server: answers each request with the next reply
    /// from the script, so error paths the real kernel makes hard to
    /// reach (an `EndReply::Error`) are exercised deterministically.
    fn scripted_connection(script: Vec<ScriptReply>) -> Connection {
        let script = Mutex::new(script.into_iter());
        let serve = move |req| match (req, script.lock().next()) {
            (Request::Begin { reply, .. }, Some(ScriptReply::Begin(r))) => {
                reply.send(r);
            }
            (Request::End { reply, .. }, Some(ScriptReply::End(r))) => {
                reply.send(r);
            }
            (Request::Op { reply, .. }, Some(ScriptReply::Op(r))) => {
                reply.send(r);
            }
            (req, r) => panic!("script mismatch: {req:?} vs {r:?}"),
        };
        let clock = Arc::new(TimestampGenerator::new(
            SiteId(1),
            Arc::new(ManualTimeSource::starting_at(1)),
        ));
        Connection::new(Box::new(serve), clock, None)
    }

    #[derive(Debug)]
    enum ScriptReply {
        Begin(BeginReply),
        Op(OpReply),
        End(EndReply),
    }

    #[test]
    fn end_error_keeps_transaction_handle() {
        let mut c = scripted_connection(vec![
            ScriptReply::Begin(BeginReply::Started(TxnId(9))),
            ScriptReply::End(EndReply::Error("transient".into())),
            ScriptReply::End(EndReply::Error("still transient".into())),
            ScriptReply::End(EndReply::Committed(CommitInfo {
                inconsistency: 0,
                inconsistent_ops: 0,
                reads: 0,
                writes: 0,
                written: Vec::new(),
            })),
        ]);
        c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
            .unwrap();
        // A failed commit must NOT strand the transaction: the handle
        // stays so the client can retry the commit or abort.
        assert!(matches!(c.commit(), Err(SessionError::Backend(_))));
        assert!(c.in_txn(), "EndReply::Error must keep `current`");
        assert_eq!(c.current_txn(), Some(TxnId(9)));
        // An abort that errors also keeps the handle…
        assert!(matches!(c.abort(), Err(SessionError::Backend(_))));
        assert!(c.in_txn());
        // …and a successful retry finally clears it.
        assert!(c.commit().is_ok());
        assert!(!c.in_txn());
    }

    #[test]
    fn unknown_txn_reply_releases_the_handle() {
        // The lost-commit-reply scenario: the server ended the txn but
        // the client never saw it, so the retried End answers Unknown.
        // The handle must be dropped — keeping it would make this
        // connection refuse every future `begin`, forever.
        let mut c = scripted_connection(vec![
            ScriptReply::Begin(BeginReply::Started(TxnId(4))),
            ScriptReply::End(EndReply::Unknown(TxnId(4))),
            ScriptReply::Begin(BeginReply::Started(TxnId(5))),
        ]);
        c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
            .unwrap();
        match c.commit() {
            Err(SessionError::Backend(m)) => assert!(m.contains("unknown"), "{m}"),
            other => panic!("{other:?}"),
        }
        assert!(!c.in_txn(), "EndReply::Unknown must clear `current`");
        // …and the connection is still usable.
        c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
            .unwrap();
        assert_eq!(c.current_txn(), Some(TxnId(5)));
    }

    #[test]
    fn successful_end_clears_handle() {
        let mut c = scripted_connection(vec![
            ScriptReply::Begin(BeginReply::Started(TxnId(1))),
            ScriptReply::End(EndReply::Aborted),
        ]);
        c.begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
            .unwrap();
        c.abort().unwrap();
        assert!(!c.in_txn());
    }

    #[test]
    fn begin_error_reported_without_entering_txn() {
        let mut c = scripted_connection(vec![ScriptReply::Begin(BeginReply::Error(
            "server shut down".into(),
        ))]);
        match c.begin(TxnKind::Query, TxnBounds::import(Limit::ZERO)) {
            Err(SessionError::Backend(m)) => assert!(m.contains("shut down")),
            other => panic!("{other:?}"),
        }
        assert!(!c.in_txn());
    }

    #[test]
    fn op_error_keeps_transaction_active() {
        let mut c = scripted_connection(vec![
            ScriptReply::Begin(BeginReply::Started(TxnId(2))),
            ScriptReply::Op(OpReply::Error("unknown object".into())),
        ]);
        c.begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
            .unwrap();
        assert!(matches!(
            c.read(ObjectId(99)),
            Err(SessionError::Backend(_))
        ));
        assert!(c.in_txn(), "driver-level op error is not a txn end");
    }
}
