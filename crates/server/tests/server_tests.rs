//! Integration tests for the threaded client/server system.

use esr_core::bounds::Limit;
use esr_core::ids::{ObjectId, TxnKind};
use esr_core::spec::TxnBounds;
use esr_server::{ConnectError, Server, ServerConfig, SHUTDOWN_ERROR};
use esr_storage::catalog::CatalogConfig;
use esr_tso::{AbortReason, Kernel};
use esr_txn::{parse_program, run_with_retry, Session, SessionError};
use std::time::Duration;

fn server_with(values: &[i64], config: ServerConfig) -> Server {
    let table = CatalogConfig::default().build_with_values(values);
    Server::start(Kernel::with_defaults(table), config)
}

#[test]
fn basic_update_through_connection() {
    let server = server_with(&[100, 200], ServerConfig::default());
    let mut c = server.connect();
    c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    assert_eq!(c.read(ObjectId(0)).unwrap(), 100);
    c.write(ObjectId(1), 250).unwrap();
    let info = c.commit().unwrap();
    assert_eq!(info.reads, 1);
    assert_eq!(info.writes, 1);
    assert_eq!(server.kernel().table().lock(ObjectId(1)).value, 250);
}

#[test]
fn waiting_operation_blocks_until_commit() {
    let server = server_with(&[100], ServerConfig::default());
    let mut writer = server.connect();
    writer
        .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    writer.write(ObjectId(0), 175).unwrap();

    // A second client's read must block until the writer commits.
    let mut reader = server.connect();
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .unwrap();
    let handle = std::thread::spawn(move || {
        let v = reader.read(ObjectId(0)).unwrap();
        reader.commit().unwrap();
        v
    });
    // Give the reader time to park.
    std::thread::sleep(Duration::from_millis(50));
    assert!(!handle.is_finished(), "reader should be blocked");
    writer.commit().unwrap();
    assert_eq!(handle.join().unwrap(), 175);
}

#[test]
fn waiting_operation_released_by_abort() {
    let server = server_with(&[100], ServerConfig::default());
    let mut writer = server.connect();
    writer
        .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    writer.write(ObjectId(0), 999).unwrap();
    let mut reader = server.connect();
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .unwrap();
    let handle = std::thread::spawn(move || {
        let v = reader.read(ObjectId(0)).unwrap();
        reader.commit().unwrap();
        v
    });
    std::thread::sleep(Duration::from_millis(50));
    writer.abort().unwrap();
    assert_eq!(handle.join().unwrap(), 100); // shadow value restored
}

#[test]
fn esr_query_reads_through_uncommitted_update_without_blocking() {
    let server = server_with(&[100], ServerConfig::default());
    let mut writer = server.connect();
    writer
        .begin(TxnKind::Update, TxnBounds::export(Limit::Unlimited))
        .unwrap();
    writer.write(ObjectId(0), 175).unwrap();

    let mut reader = server.connect();
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::at_most(100)))
        .unwrap();
    // No other thread will commit; if this read blocked the test would
    // hang. ESR admits it immediately with d = 75.
    assert_eq!(reader.read(ObjectId(0)).unwrap(), 175);
    let info = reader.commit().unwrap();
    assert_eq!(info.inconsistency, 75);
    assert_eq!(info.inconsistent_ops, 1);
    writer.commit().unwrap();
}

#[test]
fn zero_bound_late_read_aborts_across_connections() {
    let server = server_with(&[100], ServerConfig::default());
    // A query that begins first (older timestamp)…
    let mut reader = server.connect();
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .unwrap();
    // …then an update begins, writes, and commits (newer timestamp).
    let mut writer = server.connect();
    writer
        .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    writer.write(ObjectId(0), 140).unwrap();
    writer.commit().unwrap();
    // The query's read is now late with d = 40 > 0.
    match reader.read(ObjectId(0)) {
        Err(SessionError::Aborted(AbortReason::BoundViolation(_))) => {}
        other => panic!("{other:?}"),
    }
    assert!(!reader.in_txn());
}

#[test]
fn transaction_programs_run_against_the_server() {
    let server = server_with(&[100, 200, 0], ServerConfig::default());
    let mut c = server.connect();
    let p =
        parse_program("BEGIN Update TEL = 1000\nt1 = Read 0\nt2 = Read 1\nWrite 2 , t1+t2\nCOMMIT")
            .unwrap();
    let got = run_with_retry(&p, &mut c, 10).unwrap();
    assert!(got.output.committed);
    assert_eq!(server.kernel().table().lock(ObjectId(2)).value, 300);
}

#[test]
fn skewed_clients_are_corrected_into_synchrony() {
    // Virtual time makes the correction exchange exact and the test
    // fully deterministic.
    let server = server_with(
        &[100],
        ServerConfig {
            virtual_time: true,
            ..ServerConfig::default()
        },
    );
    // Two minutes apart, the paper's extreme.
    let mut fast = server.connect_with_skew(120_000_000);
    let mut slow = server.connect_with_skew(-120_000_000);
    // The correction factor must bring both into the same ballpark:
    // run a serial pair of transactions — slow client's later txn must
    // not be branded "late" by two minutes of skew.
    fast.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    fast.write(ObjectId(0), 150).unwrap();
    fast.commit().unwrap();
    slow.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    // Without correction this read would be 2 minutes late and abort.
    assert_eq!(slow.read(ObjectId(0)).unwrap(), 150);
    slow.write(ObjectId(0), 160).unwrap();
    slow.commit().unwrap();
    assert_eq!(server.kernel().table().lock(ObjectId(0)).value, 160);
}

#[test]
fn rpc_latency_is_applied() {
    let server = server_with(
        &[1],
        ServerConfig {
            rpc_latency: Some(Duration::from_millis(10)),
            ..ServerConfig::default()
        },
    );
    let mut c = server.connect();
    let t0 = std::time::Instant::now();
    c.begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
        .unwrap();
    let _ = c.read(ObjectId(0)).unwrap();
    c.commit().unwrap();
    // Begin + read + commit = 3 synchronous calls ≥ 30 ms.
    assert!(t0.elapsed() >= Duration::from_millis(30));
}

#[test]
fn concurrent_transfer_clients_preserve_the_invariant() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let n = 16u32;
    let init = 5_000i64;
    let server = server_with(&vec![init; n as usize], ServerConfig::default());
    let expected: i128 = n as i128 * init as i128;

    let mut handles = Vec::new();
    for t in 0..4u64 {
        let mut c = server.connect();
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(t);
            let mut committed = 0u32;
            let mut attempts = 0u32;
            while committed < 30 && attempts < 10_000 {
                attempts += 1;
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                let amt = rng.gen_range(1..100i64);
                if c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
                    .is_err()
                {
                    continue;
                }
                let step = (|| -> Result<(), SessionError> {
                    let va = c.read(ObjectId(a))?;
                    let vb = c.read(ObjectId(b))?;
                    c.write(ObjectId(a), va - amt)?;
                    c.write(ObjectId(b), vb + amt)?;
                    c.commit()?;
                    Ok(())
                })();
                match step {
                    Ok(()) => committed += 1,
                    Err(e) => {
                        assert!(e.is_retryable(), "unexpected failure: {e}");
                        if c.in_txn() {
                            let _ = c.abort();
                        }
                    }
                }
            }
            assert_eq!(committed, 30, "starved after {attempts} attempts");
        }));
    }

    // Meanwhile, audit queries with a finite TIL observe bounded error.
    let mut auditor = server.connect();
    let til = 5_000u64;
    for _ in 0..20 {
        if auditor
            .begin(TxnKind::Query, TxnBounds::import(Limit::at_most(til)))
            .is_err()
        {
            continue;
        }
        let mut sum: i128 = 0;
        let mut ok = true;
        for i in 0..n {
            match auditor.read(ObjectId(i)) {
                Ok(v) => sum += v as i128,
                Err(e) => {
                    assert!(e.is_retryable(), "{e}");
                    ok = false;
                    if auditor.in_txn() {
                        let _ = auditor.abort();
                    }
                    break;
                }
            }
        }
        if ok && auditor.commit().is_ok() {
            let dev = (sum - expected).unsigned_abs();
            assert!(
                dev <= til as u128,
                "audit sum {sum} deviates {dev} > TIL {til}"
            );
        }
    }

    for h in handles {
        h.join().unwrap();
    }
    assert!(server.kernel().table().is_quiescent());
    assert_eq!(server.kernel().table().sum_values(), expected);
}

#[test]
fn server_shutdown_disconnects_clients() {
    let mut server = server_with(&[1], ServerConfig::default());
    let mut c = server.connect();
    server.shutdown();
    match c.begin(TxnKind::Query, TxnBounds::import(Limit::ZERO)) {
        Err(SessionError::Backend(m)) => assert!(m.contains("down"), "{m}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn parked_reads_are_woken_by_a_commit_processed_on_another_thread() {
    // One parked reader per object, each parked by its own thread; the
    // single End request that frees them all runs on the writer's
    // thread, so every wakeup crosses threads: the committing thread
    // drains the wait queues and replies on channels belonging to
    // operations other threads parked.
    const OBJS: u32 = 6;
    let server = server_with(&[100; OBJS as usize], ServerConfig::default());
    let mut writer = server.connect();
    writer
        .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    for i in 0..OBJS {
        writer.write(ObjectId(i), 500 + i as i64).unwrap();
    }
    let mut handles = Vec::new();
    for i in 0..OBJS {
        let mut reader = server.connect();
        reader
            .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
            .unwrap();
        handles.push(std::thread::spawn(move || {
            let v = reader.read(ObjectId(i)).unwrap();
            reader.commit().unwrap();
            v
        }));
    }
    std::thread::sleep(Duration::from_millis(100));
    for h in &handles {
        assert!(!h.is_finished(), "all readers should be parked");
    }
    writer.commit().unwrap();
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), 500 + i as i64);
    }
}

#[test]
fn shutdown_answers_parked_operations_with_explicit_error() {
    let mut server = server_with(&[100], ServerConfig::default());
    let mut writer = server.connect();
    writer
        .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    writer.write(ObjectId(0), 999).unwrap();
    let mut reader = server.connect();
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .unwrap();
    let handle = std::thread::spawn(move || reader.read(ObjectId(0)));
    std::thread::sleep(Duration::from_millis(100));
    assert!(!handle.is_finished(), "reader should be parked");
    // Shutting down with an operation still parked must *answer* it
    // with the shutdown error, not drop its reply channel.
    server.shutdown();
    match handle.join().unwrap() {
        Err(SessionError::Backend(m)) => assert_eq!(m, SHUTDOWN_ERROR),
        other => panic!("parked read should see the shutdown error: {other:?}"),
    }
}

#[test]
fn site_ids_are_refused_not_recycled_when_exhausted() {
    // Virtual time keeps the 65k correction handshakes cheap and
    // deterministic.
    let server = server_with(
        &[1],
        ServerConfig {
            virtual_time: true,
            ..ServerConfig::default()
        },
    );
    let mut last = None;
    for _ in 0..u16::MAX {
        match server.try_connect_with_skew(0) {
            Ok(c) => last = Some(c),
            Err(e) => panic!("allocation failed early: {e}"),
        }
    }
    // The id space (1..=65535; 0 is the server) is now exhausted: the
    // counter must refuse, not wrap around onto live sites.
    assert!(matches!(
        server.try_connect_with_skew(0),
        Err(ConnectError::SitesExhausted)
    ));
    // The last successfully connected client still works.
    let mut c = last.unwrap();
    c.begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
        .unwrap();
    assert_eq!(c.read(ObjectId(0)).unwrap(), 1);
    c.commit().unwrap();
}

#[test]
fn reaper_aborts_stalled_txn_and_unwedges_waiter() {
    // A client that begins an update, writes, and then stalls forever
    // would — without leases — wedge every waiter parked behind its
    // uncommitted write. The reaper must abort it (virtual-time lease)
    // and let the waiter complete against the restored value.
    let table = CatalogConfig::default().build_with_values(&[100]);
    let kernel = Kernel::new(
        table,
        esr_core::hierarchy::HierarchySchema::two_level(),
        esr_tso::KernelConfig {
            lease_micros: 10_000, // 10 virtual milliseconds
            ..esr_tso::KernelConfig::default()
        },
    );
    let server = Server::start(
        kernel,
        ServerConfig {
            virtual_time: true,
            reap_interval: Duration::from_millis(2),
            ..ServerConfig::default()
        },
    );

    let mut stalled = server.connect();
    stalled
        .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    stalled.write(ObjectId(0), 999).unwrap();
    // …and the client never speaks again.

    // A second client parks behind the stalled writer.
    let mut reader = server.connect();
    reader
        .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    let handle = std::thread::spawn(move || {
        let v = reader.read(ObjectId(0)).unwrap();
        reader.commit().unwrap();
        v
    });
    std::thread::sleep(Duration::from_millis(50));
    assert!(!handle.is_finished(), "reader should be parked");

    // Advance virtual time past the lease; the (wall-clock-ticking)
    // reaper picks it up within a few intervals.
    server.manual_clock().unwrap().advance(20_000);
    assert_eq!(
        handle.join().unwrap(),
        100,
        "waiter must see the rolled-back value after the reap"
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.kernel().active_txns() != 0 {
        assert!(std::time::Instant::now() < deadline, "reap did not drain");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.kernel().stats();
    assert_eq!(stats.reaped_txns, 1);
    assert_eq!(server.kernel().waitq_depth(), 0);
    assert!(server.kernel().table().is_quiescent());

    // The stalled client's eventual commit resolves as Unknown — a
    // typed "the transaction is permanently gone", not a hang.
    match stalled.commit() {
        Err(SessionError::Backend(m)) => assert!(m.contains("unknown"), "{m}"),
        other => panic!("expected unknown-txn error, got {other:?}"),
    }
}

#[test]
fn orphan_reap_releases_transactions_and_wakes_waiters() {
    // Leases OFF: orphan reaping via the RPC handle must still work —
    // connection loss is definite evidence, no expiry wait applies.
    let server = server_with(&[100], ServerConfig::default());
    let mut orphaned = server.connect();
    orphaned
        .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    orphaned.write(ObjectId(0), 999).unwrap();
    let txn = esr_core::ids::TxnId(1);

    let mut reader = server.connect();
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .unwrap();
    let handle = std::thread::spawn(move || {
        let v = reader.read(ObjectId(0)).unwrap();
        reader.commit().unwrap();
        v
    });
    std::thread::sleep(Duration::from_millis(50));
    assert!(!handle.is_finished(), "reader should be parked");

    // The transport notices the connection died and reaps its txns.
    let rpc = server.rpc_handle();
    assert_eq!(rpc.reap_orphans(&[txn]), 1);
    assert_eq!(handle.join().unwrap(), 100);
    assert_eq!(rpc.reap_orphans(&[txn]), 0, "double reap is a no-op");
    assert_eq!(server.kernel().stats().reaped_txns, 1);
    assert_eq!(server.kernel().active_txns(), 0);
    assert!(server.kernel().table().is_quiescent());
}

#[test]
fn serve_after_shutdown_answers_the_shutdown_error() {
    use crossbeam::channel::bounded;
    use esr_server::{BeginReply, ReplySink, Request, StatsReply};

    let mut server = server_with(&[100], ServerConfig::default());
    let rpc = server.rpc_handle();
    server.shutdown();
    let (tx, rx) = bounded(1);
    rpc.serve(Request::Begin {
        kind: TxnKind::Query,
        bounds: TxnBounds::import(Limit::ZERO),
        ts: esr_clock::Timestamp::ZERO,
        reply: ReplySink::channel(tx),
    });
    assert_eq!(
        rx.recv().unwrap(),
        BeginReply::Error(SHUTDOWN_ERROR.to_owned())
    );
    let (tx, rx) = bounded(1);
    rpc.serve(Request::Stats {
        reply: ReplySink::channel(tx),
    });
    assert_eq!(
        rx.recv().unwrap(),
        StatsReply::Error(SHUTDOWN_ERROR.to_owned())
    );
    assert_eq!(server.kernel().active_txns(), 0, "nothing began");
}

#[test]
fn shutdown_waits_for_the_request_in_service() {
    use crossbeam::channel::bounded;
    use esr_server::{BeginReply, ReplySink, Request};

    // A transport's thread is inside `serve`, delivering a reply, when
    // shutdown starts. Shutdown must not get past it: until `serve`
    // returns the request may still commit or park.
    let mut server = server_with(&[100], ServerConfig::default());
    let rpc = server.rpc_handle();
    let (in_service_tx, in_service_rx) = bounded(1);
    let (release_tx, release_rx) = bounded::<()>(1);
    let serving = std::thread::spawn(move || {
        rpc.serve(Request::Begin {
            kind: TxnKind::Query,
            bounds: TxnBounds::import(Limit::ZERO),
            ts: esr_clock::Timestamp::ZERO,
            reply: ReplySink::hook(move |r| {
                in_service_tx.send(r).unwrap();
                release_rx.recv().unwrap();
            }),
        })
    });
    assert!(matches!(
        in_service_rx.recv().unwrap(),
        BeginReply::Started(_)
    ));
    let (down_tx, down_rx) = std::sync::mpsc::channel();
    let stopping = std::thread::spawn(move || {
        server.shutdown();
        down_tx.send(()).unwrap();
        server
    });
    assert!(
        down_rx.recv_timeout(Duration::from_millis(200)).is_err(),
        "shutdown returned with a request still in service"
    );
    release_tx.send(()).unwrap();
    serving.join().unwrap();
    down_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown completes once the request has");
    drop(stopping.join().unwrap());
}
