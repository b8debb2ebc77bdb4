//! Loom model of the pipelined-batch driving-flag hand-off.
//!
//! A parked batch's `BatchState.driving` flag arbitrates between two
//! threads: the one that dispatched the parking operation (checking
//! "did my op complete?" after `dispatch_op` returns) and the one whose
//! commit/abort fires the parked op's wake hook. The hook must
//! take over driving exactly when the original driver has parked the
//! batch (`driving == false`), and merely record its reply when it
//! races the driver's check — two drivers running `run_batch`
//! concurrently would double-submit operations and double-send the
//! reply. The model races the blocking writer's end, served on the
//! writer's thread, against the batch driver, a thread of the test's own
//! calling `RpcHandle::serve` as a transport's connection thread does,
//! and asserts one complete, in-order reply set.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`; run via the `loom`
//! stage of `ci.sh`.
#![cfg(loom)]

use crossbeam::channel::bounded;
use esr_core::bounds::Limit;
use esr_core::ids::{ObjectId, TxnKind};
use esr_core::spec::TxnBounds;
use esr_server::{OpReply, ReplySink, Request, Server, ServerConfig};
use esr_storage::catalog::CatalogConfig;
use esr_tso::{Kernel, Operation};
use esr_txn::Session;
use std::time::Duration;

fn server_with(values: &[i64]) -> Server {
    let table = CatalogConfig::default().build_with_values(values);
    Server::start(Kernel::with_defaults(table), ServerConfig::default())
}

/// `recv` with a coarse deadline so a lost hand-off fails the model
/// visibly instead of hanging the loom sweep.
fn recv_within<T>(rx: &crossbeam::channel::Receiver<T>, timeout: Duration) -> T {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        match rx.try_recv() {
            Ok(v) => return v,
            Err(_) if std::time::Instant::now() >= deadline => {
                panic!("batch reply lost: no thread drove the batch to completion")
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Serve a batch on a thread of its own. The reply arrives on the
/// channel once every op has completed; the thread ends when `serve`
/// returns, with the batch answered or parked.
fn submit_batch(
    server: &Server,
    txn: esr_core::ids::TxnId,
    ops: Vec<Operation>,
) -> (
    crossbeam::channel::Receiver<Vec<OpReply>>,
    loom::thread::JoinHandle<()>,
) {
    let (tx, rx) = bounded(1);
    let rpc = server.rpc_handle();
    let serving = loom::thread::spawn(move || {
        rpc.serve(Request::Batch {
            txn,
            ops,
            reply: ReplySink::channel(tx),
        })
    });
    (rx, serving)
}

/// The committing writer's wake races the batch driver's park check.
/// Whichever side ends up driving, the client must receive exactly one
/// reply vector with every op answered in submission order.
#[test]
fn commit_wake_hands_off_driving_exactly_once() {
    loom::model(|| {
        let server = server_with(&[100, 200]);
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
        // Op 2 parks on the uncommitted write iff it is dispatched
        // before the commit lands; both orders are valid schedules and
        // must converge on the same replies.
        let (rx, serving) = submit_batch(
            &server,
            txn,
            vec![
                Operation::Read(ObjectId(1)),
                Operation::Read(ObjectId(0)),
                Operation::Read(ObjectId(1)),
            ],
        );
        loom::explore();
        writer.commit().unwrap();
        serving.join().expect("the serving thread panicked");

        let replies = recv_within(&rx, Duration::from_secs(10));
        assert_eq!(
            replies,
            vec![
                OpReply::Value(200),
                OpReply::Value(175),
                OpReply::Value(200),
            ]
        );
        assert!(
            rx.try_recv().is_err(),
            "the reply sink must be taken exactly once"
        );
        reader.commit().unwrap();
        assert_eq!(server.kernel().active_txns(), 0);
        assert_eq!(server.kernel().waitq_depth(), 0);
    });
}

/// Same hand-off through the abort wake path: the woken read must see
/// the rolled-back shadow value, never the aborted write.
#[test]
fn abort_wake_hands_off_driving_exactly_once() {
    loom::model(|| {
        let server = server_with(&[100, 200]);
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
        let (rx, serving) = submit_batch(
            &server,
            txn,
            vec![Operation::Read(ObjectId(0)), Operation::Read(ObjectId(1))],
        );
        loom::explore();
        writer.abort().unwrap();
        serving.join().expect("the serving thread panicked");

        let replies = recv_within(&rx, Duration::from_secs(10));
        assert_eq!(
            replies,
            vec![OpReply::Value(100), OpReply::Value(200)],
            "woken read sees the shadow value, not the aborted write"
        );
        reader.commit().unwrap();
        assert_eq!(server.kernel().active_txns(), 0);
        assert_eq!(server.kernel().waitq_depth(), 0);
        assert_eq!(server.kernel().table().lock(ObjectId(0)).value, 100);
    });
}
