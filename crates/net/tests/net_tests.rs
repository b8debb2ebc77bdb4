//! Integration tests for the TCP transport: loopback servers, real
//! sockets, concurrent clients, graceful shutdown.

use esr_core::bounds::Limit;
use esr_core::ids::{ObjectId, TxnKind};
use esr_core::spec::TxnBounds;
use esr_net::{NetClientConfig, TcpConnection, TcpServer};
use esr_server::OpReply;
use esr_server::{Server, ServerConfig};
use esr_storage::catalog::CatalogConfig;
use esr_tso::{Kernel, Operation};
use esr_txn::{parse_program, run_with_retry, Session, SessionError};
use std::time::Duration;

fn tcp_server_with(values: &[i64], workers: usize) -> TcpServer {
    let table = CatalogConfig::default().build_with_values(values);
    let server = Server::start(
        Kernel::with_defaults(table),
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    );
    TcpServer::bind(server, "127.0.0.1:0").expect("bind loopback")
}

fn client(tcp: &TcpServer) -> TcpConnection {
    TcpConnection::connect(tcp.local_addr()).expect("connect")
}

#[test]
fn tcp_update_lifecycle_and_sites() {
    let tcp = tcp_server_with(&[100, 200], 4);
    let mut a = client(&tcp);
    let mut b = client(&tcp);
    assert_ne!(a.site(), b.site(), "each connection gets its own site");

    a.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    assert!(a.in_txn());
    assert_eq!(a.read(ObjectId(0)).unwrap(), 100);
    a.write(ObjectId(1), 250).unwrap();
    let info = a.commit().unwrap();
    assert_eq!(info.reads, 1);
    assert_eq!(info.writes, 1);
    assert!(!a.in_txn());
    assert_eq!(tcp.server().kernel().table().lock(ObjectId(1)).value, 250);

    // The second client observes the committed state.
    b.begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
        .unwrap();
    assert_eq!(b.read(ObjectId(1)).unwrap(), 250);
    b.commit().unwrap();
}

#[test]
fn tcp_parked_read_is_woken_by_commit_from_another_socket() {
    let tcp = tcp_server_with(&[100], 4);
    let mut writer = client(&tcp);
    writer
        .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    writer.write(ObjectId(0), 175).unwrap();

    // A strict (zero-bound) reader on a different socket parks on the
    // uncommitted write; the reply is withheld on the wire until the
    // writer's End — arriving over yet another exchange — wakes it.
    let mut reader = client(&tcp);
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .unwrap();
    let handle = std::thread::spawn(move || {
        let v = reader.read(ObjectId(0)).unwrap();
        reader.commit().unwrap();
        v
    });
    std::thread::sleep(Duration::from_millis(100));
    assert!(!handle.is_finished(), "reader should be parked server-side");
    writer.commit().unwrap();
    assert_eq!(handle.join().unwrap(), 175);
}

#[test]
fn tcp_shutdown_answers_parked_operation_with_explicit_error() {
    let mut tcp = tcp_server_with(&[100], 2);
    let mut writer = client(&tcp);
    writer
        .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    writer.write(ObjectId(0), 999).unwrap();

    let mut reader = client(&tcp);
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .unwrap();
    let handle = std::thread::spawn(move || reader.read(ObjectId(0)));
    std::thread::sleep(Duration::from_millis(100));
    assert!(!handle.is_finished(), "reader should be parked");

    // Shutdown must *answer* the parked read with the shutdown error —
    // flushed to the socket before the connection closes — instead of
    // leaving the client to infer failure from a dropped connection.
    tcp.shutdown();
    match handle.join().unwrap() {
        Err(SessionError::Backend(m)) => {
            assert!(m.contains("shut down"), "expected explicit error, got: {m}")
        }
        other => panic!("parked read should fail with Backend: {other:?}"),
    }
}

#[test]
fn tcp_and_in_process_drivers_agree_on_the_same_script() {
    // The same esr-txn program runs over the in-process Connection and
    // over TcpConnection against identically-initialised servers; both
    // sessions must produce identical outcomes.
    const SCRIPT: &str = "BEGIN Update TEL = 1000\n\
                          t1 = Read 0\n\
                          t2 = Read 1\n\
                          Write 2 , t1 + t2\n\
                          Write 0 , t1 - 7\n\
                          output ( \"double\" , t1 * 2 )\n\
                          COMMIT";
    let program = parse_program(SCRIPT).unwrap();

    let in_proc_server = {
        let table = CatalogConfig::default().build_with_values(&[100, 200, 0]);
        Server::start(Kernel::with_defaults(table), ServerConfig::default())
    };
    let mut in_proc = in_proc_server.connect();
    let got_local = run_with_retry(&program, &mut in_proc, 10).unwrap();

    let tcp = tcp_server_with(&[100, 200, 0], 4);
    let mut remote = client(&tcp);
    let got_tcp = run_with_retry(&program, &mut remote, 10).unwrap();

    assert_eq!(got_local.output.committed, got_tcp.output.committed);
    assert_eq!(got_local.output.outputs, got_tcp.output.outputs);
    assert_eq!(got_local.output.env, got_tcp.output.env);
    let (li, ti) = (
        got_local.output.info.as_ref().unwrap(),
        got_tcp.output.info.as_ref().unwrap(),
    );
    assert_eq!(li.reads, ti.reads);
    assert_eq!(li.writes, ti.writes);
    assert_eq!(li.inconsistency, ti.inconsistency);
    assert_eq!(li.written, ti.written);

    // And the resulting database states agree object by object. (One
    // table lock at a time: the storage layer asserts lock ordering.)
    for i in 0..3 {
        let local = in_proc_server.kernel().table().lock(ObjectId(i)).value;
        let remote = tcp.server().kernel().table().lock(ObjectId(i)).value;
        assert_eq!(local, remote, "object {i} diverged between drivers");
    }
}

/// The tier-1 loopback smoke test: 8 concurrent TCP clients hammer the
/// kernel through real sockets with no injected sleeps, preserving the
/// transfer invariant. Bounded work (fixed commit quota per client)
/// keeps it fast and flake-free.
#[test]
fn loopback_smoke_eight_clients_preserve_invariant() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const CLIENTS: usize = 8;
    const COMMITS_PER_CLIENT: u32 = 15;
    let n = 16u32;
    let init = 5_000i64;
    let tcp = tcp_server_with(&vec![init; n as usize], 4);
    let expected: i128 = n as i128 * init as i128;

    let mut handles = Vec::new();
    for t in 0..CLIENTS as u64 {
        let addr = tcp.local_addr();
        handles.push(std::thread::spawn(move || {
            let mut c = TcpConnection::connect(addr).expect("connect");
            let mut rng = StdRng::seed_from_u64(t);
            let mut committed = 0u32;
            let mut attempts = 0u32;
            while committed < COMMITS_PER_CLIENT && attempts < 10_000 {
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
            assert_eq!(
                committed, COMMITS_PER_CLIENT,
                "starved after {attempts} attempts"
            );
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(tcp.server().kernel().table().is_quiescent());
    assert_eq!(tcp.server().kernel().table().sum_values(), expected);
}

#[test]
fn unknown_txn_end_does_not_wedge_the_connection() {
    // Two clients race an End for the same transaction id — the moral
    // equivalent of a commit whose reply was lost and retried after the
    // server already ended the transaction. The loser gets a permanent
    // "unknown transaction" answer and MUST drop its local handle:
    // before the typed EndReply::Unknown variant the handle survived
    // every End error, so this connection would refuse all later
    // begins, forever.
    let tcp = tcp_server_with(&[100], 2);
    let mut a = client(&tcp);
    a.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    a.commit().unwrap();
    // Re-enter a transaction, then end it out-of-band via a second
    // in-process connection issuing the raw End for the same txn.
    a.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    let txn = a.current_txn().unwrap();
    let end = tcp.server().kernel().abort(txn).expect("out-of-band abort");
    assert!(end.woken.is_empty(), "nothing was parked on this txn");
    // `a`'s own commit now finds the transaction gone…
    match a.commit() {
        Err(SessionError::Backend(m)) => assert!(m.contains("unknown"), "{m}"),
        other => panic!("{other:?}"),
    }
    // …and the connection recovers instead of being bricked.
    assert!(!a.in_txn(), "Unknown end reply must clear the handle");
    a.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    assert_eq!(a.read(ObjectId(0)).unwrap(), 100);
    a.commit().unwrap();
}

#[test]
fn skewed_tcp_client_is_corrected_by_the_handshake() {
    let tcp = tcp_server_with(&[100], 4);
    // Two minutes fast and two minutes slow, the paper's extreme.
    let mut fast = TcpConnection::connect_with(
        tcp.local_addr(),
        NetClientConfig {
            skew_micros: 120_000_000,
            ..NetClientConfig::default()
        },
    )
    .unwrap();
    let mut slow = TcpConnection::connect_with(
        tcp.local_addr(),
        NetClientConfig {
            skew_micros: -120_000_000,
            ..NetClientConfig::default()
        },
    )
    .unwrap();
    fast.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    fast.write(ObjectId(0), 150).unwrap();
    fast.commit().unwrap();
    // Without correction the slow site's timestamps would be two
    // minutes in the past and every strict read would abort as late,
    // forever. Corrected, only the residual (~RTT/2) skew remains, so
    // a handful of retries must suffice.
    let mut done = false;
    for _ in 0..50 {
        slow.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
            .unwrap();
        let step = (|| -> Result<(), SessionError> {
            assert_eq!(slow.read(ObjectId(0))?, 150);
            slow.write(ObjectId(0), 160)?;
            slow.commit()?;
            Ok(())
        })();
        match step {
            Ok(()) => {
                done = true;
                break;
            }
            Err(e) => {
                assert!(e.is_retryable(), "unexpected failure: {e}");
                if slow.in_txn() {
                    let _ = slow.abort();
                }
            }
        }
    }
    assert!(done, "slow client never committed despite correction");
    assert_eq!(tcp.server().kernel().table().lock(ObjectId(0)).value, 160);
}

#[test]
fn shutdown_of_wildcard_bound_listeners_returns_promptly() {
    // Binding 0.0.0.0 means local_addr() is not directly connectable on
    // every platform; each listener's accept-loop wake-up must target
    // the loopback with the bound port instead of hanging the join. All
    // four listeners of the crate are bound that way, used once through
    // the loopback, and shut down; a hung join trips the watchdog
    // instead of hanging the test binary.
    use esr_core::hierarchy::HierarchySchema;
    use esr_net::{MetricsServer, ReplicaConfig, ReplicaNode, ReplicaServer, ReplicationHub};
    use std::net::TcpListener;
    use std::sync::Arc;

    let scratch = |tag: &str| {
        let dir =
            std::env::temp_dir().join(format!("esr-net-wildcard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let (hub_dir, replica_dir) = (scratch("hub"), scratch("replica"));
    let dirs = [hub_dir.clone(), replica_dir.clone()];
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let wildcard = || TcpListener::bind("0.0.0.0:0").expect("bind wildcard");

        let table = CatalogConfig::default().build_with_values(&[1]);
        let server = Server::start(Kernel::with_defaults(table), ServerConfig::default());
        let mut tcp = TcpServer::bind(server, "0.0.0.0:0").expect("bind wildcard");
        assert!(tcp.local_addr().ip().is_unspecified());
        let mut c = TcpConnection::connect(("127.0.0.1", tcp.local_addr().port()))
            .expect("connect loopback");
        c.begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
            .unwrap();
        c.commit().unwrap();

        let mut metrics = MetricsServer::bind("0.0.0.0:0", Arc::new(tcp.server().rpc_handle()))
            .expect("bind wildcard");
        assert!(metrics.local_addr().ip().is_unspecified());

        let hub = ReplicationHub::new(&hub_dir, false).expect("hub");
        let hub_addr = hub.serve(wildcard()).expect("serve subscribers");
        assert!(hub_addr.ip().is_unspecified());
        let node = ReplicaNode::start(ReplicaConfig {
            data_dir: replica_dir,
            primary: format!("127.0.0.1:{}", hub_addr.port()),
            catalog: CatalogConfig {
                n_objects: 1,
                ..CatalogConfig::default()
            },
            schema: HierarchySchema::two_level(),
            checkpoint_every: 0,
            apply_delay_micros: 0,
        })
        .expect("replica node");
        while hub.replication_stats().peers.is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
        let replica = ReplicaServer::start(Arc::clone(&node), wildcard()).expect("replica server");
        assert!(replica.addr().ip().is_unspecified());
        let mut r = TcpConnection::connect(("127.0.0.1", replica.addr().port()))
            .expect("connect replica loopback");
        r.begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
            .unwrap();
        r.commit().unwrap();

        replica.shutdown();
        node.shutdown();
        hub.shutdown();
        metrics.shutdown();
        tcp.shutdown();
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a wildcard-bound listener hung in shutdown (or the test thread panicked)");
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn disconnecting_returns_the_site_id_for_reuse() {
    // Connection churn must not consume the 16-bit site space: when a
    // connection goes away its thread releases the Hello-allocated id,
    // and a later connection receives it again.
    let tcp = tcp_server_with(&[1], 2);
    let first_site = client(&tcp).site(); // connect, read id, drop
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        // The release happens when the server-side thread observes the
        // EOF of the dropped connection, so poll briefly. Connections
        // that drew a fresh id are themselves dropped and recycled.
        let c = client(&tcp);
        if c.site() == first_site {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "site id {first_site:?} was never recycled"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn stats_travel_the_wire_and_match_the_kernel() {
    let tcp = tcp_server_with(&[100, 200], 4);
    let mut c = client(&tcp);
    c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    assert_eq!(c.read(ObjectId(0)).unwrap(), 100);
    c.write(ObjectId(1), 300).unwrap();
    c.commit().unwrap();

    let stats = c.server_stats().expect("stats over the wire");
    assert_eq!(stats.kernel.commits_update, 1);
    assert_eq!(stats.kernel.reads, 1);
    assert_eq!(stats.kernel.writes, 1);
    assert_eq!(stats.active_txns, 0);
    assert_eq!(stats.waitq_depth, 0);
    // One txn-latency sample per commit, shipped as a histogram
    // snapshot and still summarizable client-side.
    let txn_latency = stats
        .histogram("kernel_txn_latency_micros")
        .expect("kernel histogram crossed the wire");
    assert_eq!(txn_latency.count, 1);
    assert!(txn_latency.p99() >= txn_latency.p50());
    // Request instrumentation crossed too. The serving thread records
    // its sample just *after* sending the reply, so a fast client can
    // snapshot before the last record lands — poll until the two ops
    // appear.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let ops = c
            .server_stats()
            .unwrap()
            .histogram("server_op_service_micros")
            .expect("server histogram crossed the wire")
            .count;
        assert!(ops <= 2, "phantom op samples: {ops}");
        if ops == 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "op samples never recorded"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // And the remote snapshot agrees with the server's own view.
    assert_eq!(tcp.server().stats().kernel, stats.kernel);

    // The client measured every RPC it made (handshake + clock
    // exchanges + 5 protocol calls + stats).
    let rpc = c.rpc_latency();
    assert!(rpc.count >= 7, "rpc histogram undercounted: {}", rpc.count);
    assert!(rpc.max >= rpc.p50());
}

#[test]
fn wire_stats_of_a_monitored_shipping_primary_equal_metrics() {
    // A primary with a replication hub and the conformance monitor: the
    // blocks only they can fill in must reach a remote client, and the
    // three views — in-process, wire `Stats`, `/metrics` — must be one
    // value. (The monitor and replication blocks used to be overlaid
    // only inside a closure built for the HTTP endpoint, so the wire
    // reply carried `None` for both.)
    use esr_core::hierarchy::HierarchySchema;
    use esr_net::{
        render_metrics, ConformanceMonitor, MetricsServer, MonitorConfig, ReplicaConfig,
        ReplicaNode, ReplicationHub,
    };
    use esr_server::start_durable_with;
    use esr_storage::wal::WalOptions;
    use esr_tso::KernelConfig;
    use std::io::{Read as _, Write as _};
    use std::sync::Arc;

    let scratch = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("esr-net-parity-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let (pdir, rdir) = (scratch("primary"), scratch("replica"));
    let catalog = CatalogConfig {
        n_objects: 2,
        ..CatalogConfig::default()
    };
    let hub = Arc::new(ReplicationHub::new(&pdir, false).unwrap());
    let (server, _) = start_durable_with(
        &pdir,
        &catalog,
        HierarchySchema::two_level(),
        KernelConfig::default(),
        ServerConfig::default(),
        WalOptions::default(),
        |wal| hub.make_sink(wal),
    )
    .unwrap();
    hub.attach(&server);
    let hub_addr = hub
        .serve(std::net::TcpListener::bind("127.0.0.1:0").unwrap())
        .unwrap();
    let mut monitor = ConformanceMonitor::spawn(server.kernel(), MonitorConfig::default());
    monitor.report_to(&server.rpc_handle());
    let mut tcp = TcpServer::bind(server, "127.0.0.1:0").unwrap();
    let mut metrics =
        MetricsServer::bind("127.0.0.1:0", Arc::new(tcp.server().rpc_handle())).unwrap();
    let node = ReplicaNode::start(ReplicaConfig {
        data_dir: rdir.clone(),
        primary: hub_addr.to_string(),
        catalog,
        schema: HierarchySchema::two_level(),
        checkpoint_every: 0,
        apply_delay_micros: 0,
    })
    .unwrap();

    let mut c = client(&tcp);
    c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    c.write(ObjectId(0), 7).unwrap();
    c.commit().unwrap();

    // Quiesce: the commit shipped, the monitor consumed its three
    // events, and the serving thread recorded the commit's service time
    // (it does so just after handing the reply over).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let s = c.server_stats().expect("stats over the wire");
        let shipped = s
            .replication
            .as_ref()
            .is_some_and(|r| r.peers.len() == 1 && r.peers[0].sent_seq == r.durable_seq);
        let checked = s.monitor.is_some_and(|m| m.events == 3);
        let recorded = s.histogram("server_end_service_micros").unwrap().count == 1;
        if shipped && checked && recorded {
            break s;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "primary never quiesced: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let replication = stats.replication.as_ref().expect("hub block on the wire");
    assert_eq!(replication.role, "primary");
    assert_eq!(replication.durable_seq, 1);
    assert_eq!(replication.peers[0].lag_records, 0);
    assert_eq!(
        stats.monitor.expect("monitor block on the wire").violations,
        0
    );

    let mut conn = std::net::TcpStream::connect(metrics.local_addr()).unwrap();
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    let body = response.split_once("\r\n\r\n").expect("http body").1;
    // Only `in_flight` may differ between views taken in one quiesced
    // instant: a wire `Stats` request counts itself, and the serving
    // thread un-counts it just after the reply has left.
    let settled = |mut s: esr_server::ServerStats| {
        s.in_flight = 0;
        s
    };
    let stats = settled(stats);
    let expected = render_metrics(&stats);
    let differing: Vec<(&str, &str)> = body
        .lines()
        .zip(expected.lines())
        .filter(|(got, want)| got != want && !want.starts_with("esr_in_flight "))
        .collect();
    assert!(differing.is_empty(), "/metrics vs wire: {differing:#?}");
    assert_eq!(body.lines().count(), expected.lines().count());
    assert_eq!(stats, settled(tcp.server().stats()));

    node.shutdown();
    metrics.shutdown();
    monitor.shutdown();
    hub.shutdown();
    tcp.shutdown();
    for dir in [pdir, rdir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn metrics_endpoint_serves_a_live_server() {
    use esr_net::MetricsServer;
    use std::io::{Read as _, Write as _};
    use std::sync::Arc;

    let tcp = tcp_server_with(&[50, 60], 2);
    let mut metrics =
        MetricsServer::bind("127.0.0.1:0", Arc::new(tcp.server().rpc_handle())).unwrap();

    let mut c = client(&tcp);
    c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    c.write(ObjectId(0), 55).unwrap();
    c.commit().unwrap();

    let mut conn = std::net::TcpStream::connect(metrics.local_addr()).unwrap();
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(
        response.contains("esr_kernel_commits_update_total 1"),
        "{response}"
    );
    assert!(response.contains("esr_waitq_depth 0"), "{response}");
    assert!(
        response.contains("esr_kernel_txn_latency_micros{quantile=\"0.99\"}"),
        "{response}"
    );
    // Robustness gauges are exported even when nothing failed.
    assert!(response.contains("esr_active_txns 0"), "{response}");
    assert!(
        response.contains("esr_kernel_reaped_txns_total 0"),
        "{response}"
    );
    assert!(response.contains("esr_retries_total 0"), "{response}");
    metrics.shutdown();
}

#[test]
fn tcp_client_errors_cleanly_after_server_shutdown() {
    let mut tcp = tcp_server_with(&[1], 2);
    let mut c = client(&tcp);
    tcp.shutdown();
    let cfgd = NetClientConfig::default();
    // The socket is closed; the next call must fail with a clear error
    // within the bounded retry budget, not hang.
    let t0 = std::time::Instant::now();
    match c.begin(TxnKind::Query, TxnBounds::import(Limit::ZERO)) {
        Err(SessionError::Backend(_)) => {}
        other => panic!("{other:?}"),
    }
    assert!(t0.elapsed() < cfgd.read_timeout * cfgd.reply_attempts);
}

#[test]
fn tcp_batch_pipelines_ops_in_one_frame() {
    let tcp = tcp_server_with(&[100, 200, 300], 4);
    let mut c = client(&tcp);
    c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    let replies = c
        .batch(vec![
            Operation::Read(ObjectId(0)),
            Operation::Write(ObjectId(1), 555),
            Operation::Read(ObjectId(1)),
        ])
        .unwrap();
    assert_eq!(
        replies,
        vec![OpReply::Value(100), OpReply::Written, OpReply::Value(555)]
    );
    c.commit().unwrap();
    assert_eq!(tcp.server().kernel().table().lock(ObjectId(1)).value, 555);
}

#[test]
fn tcp_batch_with_parked_op_completes_after_wake() {
    let tcp = tcp_server_with(&[100, 200], 4);
    let mut writer = client(&tcp);
    writer
        .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    writer.write(ObjectId(0), 175).unwrap();

    // The strict reader's second op parks on the uncommitted write;
    // the whole batch reply frame is withheld until the commit —
    // arriving on a different socket — wakes it.
    let mut reader = client(&tcp);
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .unwrap();
    let handle = std::thread::spawn(move || {
        reader
            .batch(vec![
                Operation::Read(ObjectId(1)),
                Operation::Read(ObjectId(0)),
            ])
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(100));
    assert!(!handle.is_finished(), "batch should be parked server-side");
    writer.commit().unwrap();
    assert_eq!(
        handle.join().unwrap(),
        vec![OpReply::Value(200), OpReply::Value(175)]
    );
}

#[test]
fn tcp_batch_aborted_txn_clears_the_client_handle() {
    let tcp = tcp_server_with(&[100], 4);
    // An older writer's uncommitted value makes a younger strict
    // reader park; aborting the writer wakes the reader, whose zero
    // import bound then cannot absorb … actually simpler: force a
    // late-read abort by reading behind a committed younger write.
    let mut young = client(&tcp);
    young
        .begin(TxnKind::Update, TxnBounds::export(Limit::Unlimited))
        .unwrap();
    young.write(ObjectId(0), 500).unwrap();
    young.commit().unwrap();

    // A strict query stamped *before* that commit is late. Its batch
    // must report the abort and fail the remaining op, and the client
    // must drop its transaction handle.
    let mut old = client(&tcp);
    old.begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .unwrap();
    // Manufacture lateness: impossible to control timestamps over TCP
    // directly, so instead observe whichever outcome the race allows —
    // the invariant under test is reply correlation plus handle
    // hygiene, valid in both cases.
    let replies = old
        .batch(vec![
            Operation::Read(ObjectId(0)),
            Operation::Read(ObjectId(0)),
        ])
        .unwrap();
    assert_eq!(replies.len(), 2, "every op answered");
    match &replies[0] {
        OpReply::Aborted(_) => {
            assert!(
                matches!(&replies[1], OpReply::Error(e) if e.contains("batch")),
                "remaining op fails after abort: {:?}",
                replies[1]
            );
            assert!(!old.in_txn(), "abort must clear the client handle");
        }
        OpReply::Value(v) => {
            assert_eq!(*v, 500);
            assert_eq!(replies[1], OpReply::Value(500));
            assert!(old.in_txn());
            old.commit().unwrap();
        }
        other => panic!("unexpected first reply: {other:?}"),
    }
}

#[test]
fn killed_connection_is_orphan_reaped_and_unwedges_waiter() {
    // A client crashes mid-transaction with an uncommitted write. The
    // server-side reader observes the dead socket and orphan-reaps the
    // transaction: its effects roll back and a strict reader parked
    // behind the write is released — no leases required, connection
    // death is evidence enough.
    let tcp = tcp_server_with(&[100], 4);
    let mut doomed = client(&tcp);
    doomed
        .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    doomed.write(ObjectId(0), 999).unwrap();

    let mut reader = client(&tcp);
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .unwrap();
    let handle = std::thread::spawn(move || {
        let v = reader.read(ObjectId(0)).unwrap();
        reader.commit().unwrap();
        v
    });
    std::thread::sleep(Duration::from_millis(100));
    assert!(!handle.is_finished(), "reader should be parked server-side");

    drop(doomed); // the crash

    assert_eq!(
        handle.join().unwrap(),
        100,
        "waiter must see the rolled-back value, not the orphan's write"
    );
    let kernel = tcp.server().kernel();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while kernel.active_txns() != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "orphaned transaction never reaped"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(kernel.stats().reaped_txns, 1);
    assert_eq!(kernel.waitq_depth(), 0);
    assert!(kernel.table().is_quiescent());
    assert_eq!(kernel.table().lock(ObjectId(0)).value, 100);
}

#[test]
fn wire_retry_flags_are_counted_by_the_server() {
    use esr_net::frame::{write_frame, FrameReader};
    use esr_net::{ReplyBody, RequestBody, WireReply, WireRequest};

    let tcp = tcp_server_with(&[1], 2);
    let mut raw = std::net::TcpStream::connect(tcp.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut replies = FrameReader::new(raw.try_clone().unwrap());
    for (id, retry) in [(1u64, false), (2, true), (3, true)] {
        write_frame(
            &mut raw,
            &WireRequest {
                id,
                retry,
                body: RequestBody::TimeExchange,
            },
        )
        .unwrap();
        let reply: WireReply = replies.read().unwrap();
        assert_eq!(reply.id, id);
        assert!(matches!(reply.body, ReplyBody::Time { .. }));
    }
    assert_eq!(tcp.server().stats().retries, 2);
}

#[test]
fn sixteen_clients_commit_without_a_resend() {
    // Each connection's own thread runs its requests: nothing between
    // the socket and the kernel can fill up, so the server neither
    // refuses nor queues sixteen socket clients, and no request is ever
    // sent twice.
    const CLIENTS: u32 = 16;
    const ROUNDS: u32 = 20;
    let tcp = tcp_server_with(&[0; CLIENTS as usize], 1);
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let addr = tcp.local_addr();
            std::thread::spawn(move || {
                let mut c = TcpConnection::connect(addr).expect("connect");
                // Each client owns one object, so timestamp ordering
                // has nothing to abort.
                for round in 0..ROUNDS {
                    c.begin(TxnKind::Update, TxnBounds::export(Limit::Unlimited))
                        .unwrap();
                    c.write(ObjectId(i), round as i64).unwrap();
                    c.commit().unwrap();
                }
                c.retries()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 0, "a request was resent");
    }
    let stats = tcp.server().stats();
    assert_eq!(stats.kernel.commits_update, (CLIENTS * ROUNDS) as u64);
    assert_eq!(stats.retries, 0);
}

#[test]
fn repeated_hello_on_one_socket_holds_one_site() {
    // A site id per `Hello`, released only at disconnect, let one socket
    // exhaust the 16-bit site space for everybody. A connection has one
    // site; asking again answers with it.
    use esr_net::frame::{encode_frame, FrameReader, MAX_FRAME};
    use esr_net::{ReplyBody, RequestBody, WireReply, WireRequest};
    use std::io::Write as _;

    const HELLOS: u64 = 70_000;
    const PIPELINED: u64 = 1_000;
    let tcp = tcp_server_with(&[1], 2);
    let mut raw = std::net::TcpStream::connect(tcp.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut replies = FrameReader::new(raw.try_clone().unwrap());
    let mut site = None;
    for chunk in 0..HELLOS / PIPELINED {
        let ids = chunk * PIPELINED..(chunk + 1) * PIPELINED;
        let mut frames = Vec::new();
        for id in ids.clone() {
            let hello = WireRequest {
                id,
                retry: false,
                body: RequestBody::Hello,
            };
            encode_frame(&hello, MAX_FRAME, &mut frames).unwrap();
        }
        raw.write_all(&frames).unwrap();
        for id in ids {
            let reply: WireReply = replies.read().unwrap();
            assert_eq!(reply.id, id);
            match reply.body {
                ReplyBody::Welcome { site: s } => assert_eq!(*site.get_or_insert(s), s),
                other => panic!("Hello {id} answered with {other:?}"),
            }
        }
    }
    let other = client(&tcp);
    assert_ne!(
        Some(other.site().0),
        site,
        "two live connections, two sites"
    );
}

#[test]
fn a_peer_that_never_reads_delays_nobody_and_is_severed() {
    // A connection's own thread may wait for its peer (here: four
    // seconds a write); no other thread may. The peer parks a read behind
    // another connection's write, then pipelines requests and reads
    // nothing until its thread is stuck writing to it. The thread whose
    // commit wakes the parked read must be free again at once — the
    // reply is left for the stuck thread — and when that thread's wait
    // runs out the connection is severed and its transaction rolled
    // back.
    use esr_net::frame::{encode_frame, write_frame, FrameReader, MAX_FRAME};
    use esr_net::{NetServerConfig, ReplyBody, RequestBody, WireReply, WireRequest};
    use esr_server::BeginReply;
    use std::io::{Read as _, Write as _};

    const OWN_THREAD_WAITS: Duration = Duration::from_secs(4);
    const OTHERS_WAIT_AT_MOST: Duration = Duration::from_secs(1);
    const FLOOD: u64 = 50_000;

    let table = CatalogConfig::default().build_with_values(&[100]);
    let server = Server::start(Kernel::with_defaults(table), ServerConfig::default());
    let config = NetServerConfig {
        write_timeout: Some(OWN_THREAD_WAITS),
    };
    let tcp = TcpServer::bind_with(server, "127.0.0.1:0", config).expect("bind loopback");
    let mut writer = client(&tcp);
    writer
        .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    writer.write(ObjectId(0), 175).unwrap();

    let mut raw = std::net::TcpStream::connect(tcp.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut replies = FrameReader::new(raw.try_clone().unwrap());
    let mut call = |id: u64, body: RequestBody| -> ReplyBody {
        let request = WireRequest {
            id,
            retry: false,
            body,
        };
        write_frame(&mut raw, &request).unwrap();
        replies.read::<WireReply>().unwrap().body
    };
    let ReplyBody::Welcome { site } = call(1, RequestBody::Hello) else {
        panic!("no Welcome");
    };
    let ReplyBody::Time { micros } = call(2, RequestBody::TimeExchange) else {
        panic!("no Time");
    };
    // A strict query stamped after the writer's update: its read of the
    // uncommitted write parks.
    let begin = RequestBody::Begin {
        kind: TxnKind::Query,
        bounds: TxnBounds::import(Limit::ZERO),
        ts: esr_clock::Timestamp::new(micros + 1_000_000, esr_core::ids::SiteId(site)),
    };
    let ReplyBody::Begin(BeginReply::Started(txn)) = call(3, begin) else {
        panic!("no Started");
    };
    let mut flood = Vec::new();
    let read = RequestBody::Op {
        txn,
        op: Operation::Read(ObjectId(0)),
    };
    let parked = WireRequest {
        id: 4,
        retry: false,
        body: read,
    };
    encode_frame(&parked, MAX_FRAME, &mut flood).unwrap();
    // The retry flag makes the server count each request it gets to.
    for id in 5..5 + FLOOD {
        let stats = WireRequest {
            id,
            retry: true,
            body: RequestBody::Stats,
        };
        encode_frame(&stats, MAX_FRAME, &mut flood).unwrap();
    }
    let mut flooder = raw.try_clone().unwrap();
    let flooding = std::thread::spawn(move || flooder.write_all(&flood));

    // Stuck: the thread has served some of the flood, not all of it, and
    // serves no more.
    let kernel = tcp.server().kernel();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let mut served = (0, 0);
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = tcp.server().stats().retries;
        if now > 0 && (now, now) == served {
            break;
        }
        served = (served.1, now);
        assert!(
            std::time::Instant::now() < deadline,
            "the peer's thread never blocked ({now} of {FLOOD} replies written)"
        );
    }
    assert!(served.1 < FLOOD, "the flood fitted in the socket buffers");
    assert_eq!(kernel.waitq_depth(), 1, "the peer's read is parked");

    // The commit wakes the parked read on the writer's thread, before
    // the commit's own reply goes out: the commit and the writer's next
    // transaction show whether that thread waited.
    let t0 = std::time::Instant::now();
    writer.commit().unwrap();
    writer
        .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .unwrap();
    assert_eq!(writer.read(ObjectId(0)).unwrap(), 175);
    writer.commit().unwrap();
    assert!(
        t0.elapsed() < OTHERS_WAIT_AT_MOST,
        "the committing thread waited {:?} for somebody else's peer",
        t0.elapsed()
    );

    // The peer still reads nothing, so its own thread's wait runs out
    // (a write that got part of a reply out before it timed out is
    // followed by one that gets nothing out): the connection is severed
    // and its transaction is gone. The woken read completed (its reply
    // was left in the outbox of a connection that never took it); the
    // query itself is reaped.
    let deadline = t0 + 3 * OWN_THREAD_WAITS + Duration::from_secs(5);
    while kernel.active_txns() != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the stuck connection's transaction was never reaped"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // What the peer finds when it finally looks: the replies that were
    // buffered for it, then the end of the connection.
    let mut sink = vec![0u8; 1 << 16];
    loop {
        match raw.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("the stuck connection was not severed: {e}"),
        }
    }
    let _ = flooding.join().unwrap();
    assert_eq!(kernel.stats().reaped_txns, 1);
    assert_eq!(kernel.table().lock(ObjectId(0)).value, 175);
}

#[test]
fn two_transactions_on_one_socket_are_answered_from_two_threads_at_once() {
    // The wire protocol lets a peer run several transactions on one
    // socket. Here one of them has a read parked behind another
    // connection's write while the other keeps the connection's own
    // thread busy answering pipelined reads; the commit that wakes the
    // parked read answers it from the committer's thread, in the middle
    // of that. The peer reads all along, so it must get every reply and
    // never be cut, round after round.
    use esr_net::frame::{encode_frame, FrameReader, MAX_FRAME};
    use esr_net::{ReplyBody, RequestBody, WireReply, WireRequest};
    use esr_server::{BeginReply, EndReply};
    use std::io::Write as _;
    use std::sync::mpsc::{channel, Receiver};

    const ROUNDS: u32 = 200;
    const PIPELINED: u64 = 300;
    const BACKGROUND: ObjectId = ObjectId(ROUNDS);

    /// The multiplexing peer: requests go out on `raw`, and a thread of
    /// its own reads every reply as it comes.
    struct Peer {
        raw: std::net::TcpStream,
        replies: Receiver<WireReply>,
        next_id: u64,
    }
    impl Peer {
        /// Append a request to `out`; its correlation id.
        fn frame(&mut self, body: RequestBody, out: &mut Vec<u8>) -> u64 {
            self.next_id += 1;
            let request = WireRequest {
                id: self.next_id,
                retry: false,
                body,
            };
            encode_frame(&request, MAX_FRAME, out).unwrap();
            self.next_id
        }
        fn next_reply(&self) -> WireReply {
            self.replies
                .recv_timeout(Duration::from_secs(20))
                .expect("a peer that reads was cut, or a reply was never written")
        }
        fn call(&mut self, body: RequestBody) -> ReplyBody {
            let mut out = Vec::new();
            let id = self.frame(body, &mut out);
            self.raw.write_all(&out).unwrap();
            let reply = self.next_reply();
            assert_eq!(reply.id, id);
            reply.body
        }
        fn begin(&mut self, ts: esr_clock::Timestamp, bounds: TxnBounds) -> esr_core::ids::TxnId {
            let kind = TxnKind::Query;
            match self.call(RequestBody::Begin { kind, bounds, ts }) {
                ReplyBody::Begin(BeginReply::Started(txn)) => txn,
                other => panic!("no Started: {other:?}"),
            }
        }
        fn commit(&mut self, txn: esr_core::ids::TxnId) {
            let end = self.call(RequestBody::End { txn, commit: true });
            assert!(matches!(end, ReplyBody::End(EndReply::Committed(_))));
        }
    }

    let tcp = tcp_server_with(&[100; ROUNDS as usize + 1], 4);
    let kernel = tcp.server().kernel();
    let mut writer = client(&tcp);

    let raw = std::net::TcpStream::connect(tcp.local_addr()).unwrap();
    let (reply_tx, replies) = channel();
    let reading = {
        let mut frames = FrameReader::new(raw.try_clone().unwrap());
        std::thread::spawn(move || {
            while let Ok(reply) = frames.read::<WireReply>() {
                if reply_tx.send(reply).is_err() {
                    break;
                }
            }
        })
    };
    let mut peer = Peer {
        raw,
        replies,
        next_id: 0,
    };
    let ReplyBody::Welcome { site } = peer.call(RequestBody::Hello) else {
        panic!("no Welcome");
    };
    let ReplyBody::Time { micros } = peer.call(RequestBody::TimeExchange) else {
        panic!("no Time");
    };
    // Stamped well after anything the writer will stamp: every strict
    // read below finds the writer's update older than itself, and waits.
    let stamp = |n: u32| {
        esr_clock::Timestamp::new(micros + 60_000_000 + n as u64, esr_core::ids::SiteId(site))
    };
    // The transaction that keeps the connection's own thread busy.
    let busy = peer.begin(stamp(0), TxnBounds::import(Limit::Unlimited));

    for round in 0..ROUNDS {
        let contended = ObjectId(round);
        writer
            .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
            .unwrap();
        writer.write(contended, 1_000 + round as i64).unwrap();
        let strict = peer.begin(stamp(1 + round), TxnBounds::import(Limit::ZERO));

        let mut burst = Vec::new();
        let read = |txn, obj| RequestBody::Op {
            txn,
            op: Operation::Read(obj),
        };
        let parked = peer.frame(read(strict, contended), &mut burst);
        for _ in 0..PIPELINED {
            peer.frame(read(busy, BACKGROUND), &mut burst);
        }
        peer.raw.write_all(&burst).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while kernel.waitq_depth() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the read never parked"
            );
            std::thread::yield_now();
        }
        writer.commit().unwrap();

        let mut woken = None;
        for _ in 0..=PIPELINED {
            let reply = peer.next_reply();
            let ReplyBody::Op(OpReply::Value(v)) = reply.body else {
                panic!("round {round}: {:?}", reply.body);
            };
            if reply.id == parked {
                woken = Some(v);
            } else {
                assert_eq!(v, 100);
            }
        }
        assert_eq!(woken, Some(1_000 + round as i64), "round {round}");
        peer.commit(strict);
    }
    peer.commit(busy);

    let stats = kernel.stats();
    assert_eq!(stats.waits, ROUNDS as u64, "every strict read parked");
    assert_eq!(stats.wakes, ROUNDS as u64);
    assert_eq!(stats.reaped_txns, 0, "nobody was cut");
    assert_eq!(stats.aborts(), 0);
    drop(peer);
    drop(tcp);
    reading.join().unwrap();
}
