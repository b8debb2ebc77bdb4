//! Integration tests for the pipelined `Request::Batch` path, driven
//! through `RpcHandle::serve` the way a transport's connection thread
//! drives it.

use crossbeam::channel::bounded;
use esr_core::bounds::Limit;
use esr_core::ids::{ObjectId, TxnId, TxnKind};
use esr_core::spec::TxnBounds;
use esr_server::{
    OpReply, ReplySink, Request, Server, ServerConfig, BATCH_FAILED, BATCH_TOO_LARGE, MAX_BATCH,
};
use esr_storage::catalog::CatalogConfig;
use esr_tso::{Kernel, Operation};
use esr_txn::Session;
use std::time::Duration;

fn server_with(values: &[i64], config: ServerConfig) -> Server {
    let table = CatalogConfig::default().build_with_values(values);
    Server::start(Kernel::with_defaults(table), config)
}

/// Serve a batch on this thread through the transport handle and wait
/// for its reply.
fn run_batch(server: &Server, txn: TxnId, ops: Vec<Operation>) -> Vec<OpReply> {
    let (tx, rx) = bounded(1);
    server.rpc_handle().serve(Request::Batch {
        txn,
        ops,
        reply: ReplySink::channel(tx),
    });
    rx.recv().expect("batch reply")
}

#[test]
fn batch_answers_each_op_in_order() {
    let server = server_with(&[100, 200, 300], ServerConfig::default());
    let mut c = server.connect();
    c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    let txn = c.current_txn().unwrap();
    let replies = run_batch(
        &server,
        txn,
        vec![
            Operation::Read(ObjectId(0)),
            Operation::Write(ObjectId(1), 777),
            Operation::Read(ObjectId(1)),
            Operation::Read(ObjectId(2)),
        ],
    );
    assert_eq!(
        replies,
        vec![
            OpReply::Value(100),
            OpReply::Written,
            OpReply::Value(777),
            OpReply::Value(300),
        ]
    );
    c.commit().unwrap();
    assert_eq!(server.kernel().table().lock(ObjectId(1)).value, 777);
}

#[test]
fn empty_batch_answers_immediately() {
    let server = server_with(&[100], ServerConfig::default());
    let mut c = server.connect();
    c.begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
        .unwrap();
    let txn = c.current_txn().unwrap();
    assert_eq!(run_batch(&server, txn, Vec::new()), Vec::new());
    c.commit().unwrap();
}

#[test]
fn oversize_batch_is_rejected_without_touching_the_kernel() {
    let server = server_with(&[100], ServerConfig::default());
    let mut c = server.connect();
    c.begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
        .unwrap();
    let txn = c.current_txn().unwrap();
    let n = MAX_BATCH + 1;
    let replies = run_batch(&server, txn, vec![Operation::Read(ObjectId(0)); n]);
    assert_eq!(replies.len(), n, "one reply per submitted op");
    assert!(replies
        .iter()
        .all(|r| *r == OpReply::Error(BATCH_TOO_LARGE.to_owned())));
    // The kernel never saw the batch: no reads were recorded.
    c.commit().unwrap();
    assert_eq!(server.kernel().stats().reads, 0);
}

#[test]
fn batch_error_fails_remaining_ops_without_submitting_them() {
    let server = server_with(&[100, 200], ServerConfig::default());
    let mut c = server.connect();
    // A query writing is a driver-level error; the transaction itself
    // survives, but the batch pipeline stops there.
    c.begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
        .unwrap();
    let txn = c.current_txn().unwrap();
    let replies = run_batch(
        &server,
        txn,
        vec![
            Operation::Read(ObjectId(0)),
            Operation::Write(ObjectId(1), 5),
            Operation::Read(ObjectId(1)),
        ],
    );
    assert_eq!(replies[0], OpReply::Value(100));
    assert!(
        matches!(&replies[1], OpReply::Error(e) if !e.is_empty()),
        "query write must error: {:?}",
        replies[1]
    );
    assert_eq!(replies[2], OpReply::Error(BATCH_FAILED.to_owned()));
    // Only the first op reached the kernel.
    assert_eq!(server.kernel().stats().reads, 1);
    c.commit().unwrap();
}

#[test]
fn batch_with_parked_op_resumes_on_wake_without_holding_its_thread() {
    // `serve` runs on this thread: if a parked batch held the thread
    // that serves it, `serve` would not return and the commit below,
    // which must wake it, would never be sent.
    let server = server_with(&[100, 200], ServerConfig::default());
    let mut writer = server.connect();
    writer
        .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    writer.write(ObjectId(0), 175).unwrap();

    let mut reader = server.connect();
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .unwrap();
    let txn = reader.current_txn().unwrap();
    // Op 1 completes; op 2 parks on the uncommitted write; op 3 runs
    // only after the wake.
    let (tx, rx) = bounded(1);
    server.rpc_handle().serve(Request::Batch {
        txn,
        ops: vec![
            Operation::Read(ObjectId(1)),
            Operation::Read(ObjectId(0)),
            Operation::Read(ObjectId(1)),
        ],
        reply: ReplySink::channel(tx),
    });
    assert!(
        rx.try_recv().is_err(),
        "batch reply must be withheld while an op is parked"
    );
    writer.commit().unwrap();
    let replies = rx
        .recv_timeout_like(Duration::from_secs(10))
        .expect("batch completes after the wake");
    assert_eq!(
        replies,
        vec![
            OpReply::Value(200),
            OpReply::Value(175),
            OpReply::Value(200),
        ]
    );
    reader.commit().unwrap();
}

/// `recv` with a coarse timeout so a regression deadlocks the test
/// visibly instead of hanging CI forever.
trait RecvTimeoutLike<T> {
    fn recv_timeout_like(&self, timeout: Duration) -> Result<T, ()>;
}

impl<T: Send + 'static> RecvTimeoutLike<T> for crossbeam::channel::Receiver<T> {
    fn recv_timeout_like(&self, timeout: Duration) -> Result<T, ()> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match self.try_recv() {
                Ok(v) => return Ok(v),
                Err(_) if std::time::Instant::now() >= deadline => return Err(()),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}
