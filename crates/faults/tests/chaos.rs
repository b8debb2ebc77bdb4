//! Chaos suite: the real TCP stack (server + client) driven through the
//! fault-injecting proxy, asserting the robustness claims end to end —
//! no hangs (every test body runs under a wall-clock deadline), no
//! leaked transactions or stranded waiters (gauges drain to zero once
//! the dust settles), no double commits (the begin/commit/abort
//! conservation law holds), and recovery through leases, orphan
//! reaping, and idempotent retry.

use esr_core::bounds::Limit;
use esr_core::hierarchy::HierarchySchema;
use esr_core::ids::{ObjectId, TxnKind};
use esr_core::spec::TxnBounds;
use esr_faults::{FaultPlan, FaultProxy};
use esr_net::{NetClientConfig, TcpConnection, TcpServer};
use esr_server::{Server, ServerConfig, ServerStats};
use esr_storage::catalog::CatalogConfig;
use esr_tso::{Kernel, KernelConfig};
use esr_txn::Session;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A TCP server over `values` with transaction leases on.
fn leased_server(values: &[i64], lease: Duration) -> TcpServer {
    let table = CatalogConfig::default().build_with_values(values);
    let kernel = Kernel::new(
        table,
        HierarchySchema::two_level(),
        KernelConfig {
            lease_micros: lease.as_micros() as u64,
            ..KernelConfig::default()
        },
    );
    let server = Server::start(
        kernel,
        ServerConfig {
            reap_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        },
    );
    TcpServer::bind(server, "127.0.0.1:0").expect("bind loopback")
}

/// Client tuned for chaos: short, bounded waits and generous resends,
/// so faults surface as retries or typed errors instead of multi-minute
/// stalls.
fn chaos_client(addr: SocketAddr, seed: u64) -> std::io::Result<TcpConnection> {
    TcpConnection::connect_with(
        addr,
        NetClientConfig {
            connect_attempts: 10,
            backoff: Duration::from_millis(5),
            read_timeout: Duration::from_millis(50),
            reply_attempts: 20, // ≤ 1 s blocked per call
            call_attempts: 8,
            retry_backoff: Duration::from_millis(2),
            retry_seed: seed,
            ..NetClientConfig::default()
        },
    )
}

/// Run `f` under a wall-clock deadline; a hang fails the test instead
/// of wedging the suite.
fn with_deadline<F: FnOnce() + Send + 'static>(limit: Duration, f: F) {
    let body = std::thread::spawn(f);
    let t0 = Instant::now();
    while !body.is_finished() {
        assert!(
            t0.elapsed() < limit,
            "chaos run exceeded its {limit:?} deadline: something hung"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    body.join().expect("chaos body panicked");
}

/// Poll until every transaction and parked operation is gone (leases
/// and orphan reaping must get there on their own), then return the
/// settled stats.
fn drain(tcp: &TcpServer, limit: Duration) -> ServerStats {
    let t0 = Instant::now();
    loop {
        let s = tcp.server().stats();
        if s.active_txns == 0 && s.waitq_depth == 0 {
            return s;
        }
        assert!(
            t0.elapsed() < limit,
            "server did not drain: {} transactions active, {} ops parked",
            s.active_txns,
            s.waitq_depth
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Every begun transaction must end exactly once — committed, aborted,
/// or reaped (reaps count as aborts). Holding after a drain rules out
/// both leaks and double ends.
fn assert_conservation(stats: &ServerStats) {
    let k = &stats.kernel;
    assert_eq!(
        k.begins,
        k.commits() + k.aborts(),
        "begin/end conservation violated: {} begun, {} committed, {} aborted",
        k.begins,
        k.commits(),
        k.aborts()
    );
}

/// One update transaction; `Ok(true)` on definite commit, `Ok(false)`
/// on a tolerated failure (txn aborted/reaped/ambiguous). The
/// connection is left ready for the next attempt or replaced.
fn try_update(
    conn: &mut TcpConnection,
    addr: SocketAddr,
    seed: u64,
    obj: ObjectId,
    value: i64,
) -> bool {
    if conn.in_txn() {
        let _ = conn.abort();
    }
    if conn.in_txn() {
        // Even the abort could not settle (e.g. reply timeout); a fresh
        // connection abandons the old site, which the server reaps.
        match chaos_client(addr, seed) {
            Ok(fresh) => *conn = fresh,
            Err(_) => return false,
        }
    }
    if conn
        .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .is_err()
    {
        return false;
    }
    if conn.read(obj).is_err() || conn.write(obj, value).is_err() {
        let _ = conn.abort();
        return false;
    }
    conn.commit().is_ok()
}

/// Read one object's committed value through a fresh query transaction.
fn query_value(conn: &mut TcpConnection, obj: ObjectId) -> i64 {
    conn.begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
        .unwrap();
    let v = conn.read(obj).unwrap();
    conn.commit().unwrap();
    v
}

/// An all-zero plan must be invisible: transactions run exactly as if
/// connected directly, and the proxy counts only forwards.
#[test]
fn transparent_proxy_preserves_transactions() {
    with_deadline(Duration::from_secs(60), || {
        let tcp = leased_server(&[100, 200], Duration::from_secs(5));
        let proxy = FaultProxy::bind(tcp.local_addr(), FaultPlan::default()).unwrap();
        let mut conn = chaos_client(proxy.local_addr(), 1).unwrap();
        for i in 0..5 {
            assert!(
                try_update(&mut conn, proxy.local_addr(), 1, ObjectId(0), 100 + i),
                "clean relay failed a transaction"
            );
        }
        assert_eq!(query_value(&mut conn, ObjectId(0)), 104);
        drop(conn);
        let stats = drain(&tcp, Duration::from_secs(10));
        assert_conservation(&stats);
        let f = proxy.stats();
        assert!(f.forwarded > 0);
        assert_eq!(
            (f.dropped, f.duplicated, f.delayed, f.truncated, f.killed),
            (0, 0, 0, 0, 0)
        );
    });
}

/// A transaction whose client goes silent (no kill, no disconnect — the
/// connection stays open) is lease-reaped; the client's next use of it
/// gets a typed unknown-transaction answer and can move on.
#[test]
fn idle_transaction_is_lease_reaped_over_tcp() {
    with_deadline(Duration::from_secs(60), || {
        let tcp = leased_server(&[100], Duration::from_millis(300));
        let mut conn = chaos_client(tcp.local_addr(), 2).unwrap();
        conn.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
            .unwrap();
        conn.write(ObjectId(0), 999).unwrap();
        // Silence well past the lease: the reaper frees the transaction
        // and rolls the write back.
        std::thread::sleep(Duration::from_millis(1200));
        let err = conn.commit().expect_err("reaped txn cannot commit");
        assert!(
            err.to_string().contains("unknown"),
            "expected a typed unknown-transaction answer, got: {err}"
        );
        assert!(!conn.in_txn(), "the unknown answer must clear the handle");
        // The client recovers on the same connection.
        assert!(try_update(&mut conn, tcp.local_addr(), 2, ObjectId(0), 150));
        assert_eq!(query_value(&mut conn, ObjectId(0)), 150);
        drop(conn);
        let stats = drain(&tcp, Duration::from_secs(10));
        assert!(stats.kernel.reaped_txns >= 1, "nothing was reaped");
        assert_conservation(&stats);
    });
}

/// Connections cut every N frames: the retry policy reconnects and
/// resends; most transactions complete despite running over several
/// short-lived connections, and nothing leaks.
#[test]
fn connection_kills_are_survived_by_idempotent_retry() {
    with_deadline(Duration::from_secs(120), || {
        let tcp = leased_server(&[100, 200], Duration::from_secs(1));
        let plan = FaultPlan {
            kill_after_frames: Some(20),
            ..FaultPlan::default()
        };
        let proxy = FaultProxy::bind(tcp.local_addr(), plan).unwrap();
        let mut conn = chaos_client(proxy.local_addr(), 3).unwrap();
        let mut definite = 0;
        for i in 0..12 {
            if try_update(&mut conn, proxy.local_addr(), 3, ObjectId(0), 300 + i) {
                definite += 1;
            }
        }
        drop(conn);
        let stats = drain(&tcp, Duration::from_secs(15));
        assert_conservation(&stats);
        // Each kill can cost at most the transaction it interrupts; the
        // rest must ride the reconnect-and-resend path to completion.
        assert!(definite >= 6, "only {definite}/12 transactions committed");
        assert!(
            stats.kernel.commits_update >= definite,
            "client saw {} commits, server {}",
            definite,
            stats.kernel.commits_update
        );
        assert!(proxy.stats().killed >= 1, "the kill plan never fired");
        assert!(stats.retries >= 1, "no request was ever resent");
    });
}

/// The full mix — drops, duplicates, delays, truncations — against
/// concurrent clients. The run must terminate, drain, and conserve
/// transactions; the proxy must demonstrably have injected faults.
#[test]
fn chaos_mix_preserves_invariants() {
    with_deadline(Duration::from_secs(180), || {
        let tcp = leased_server(&[100; 8], Duration::from_millis(400));
        let plan = FaultPlan {
            seed: 0xC4A05,
            grace_frames: 16, // let handshakes through; fault the traffic
            drop_ppm: 30_000,
            dup_ppm: 20_000,
            delay_ppm: 10_000,
            delay: Duration::from_millis(30),
            truncate_ppm: 10_000,
            ..FaultPlan::default()
        };
        let proxy = FaultProxy::bind(tcp.local_addr(), plan).unwrap();
        let addr = proxy.local_addr();

        let workers: Vec<_> = (0..3u64)
            .map(|w| {
                std::thread::spawn(move || {
                    let mut committed = 0u64;
                    let Ok(mut conn) = chaos_client(addr, w) else {
                        return committed;
                    };
                    for i in 0..10 {
                        // Each worker owns one object, so the only
                        // adversity is the injected faults, not
                        // timestamp-ordering conflicts.
                        let obj = ObjectId(w as u32);
                        if try_update(&mut conn, addr, w, obj, 1000 + i) {
                            committed += 1;
                        }
                    }
                    committed
                })
            })
            .collect();
        let mut committed = 0u64;
        for w in workers {
            committed += w.join().expect("worker panicked");
        }
        let stats = drain(&tcp, Duration::from_secs(20));
        assert_conservation(&stats);
        // Every commit a client observed definitely happened (the
        // server may have more: commits whose replies were lost).
        assert!(
            stats.kernel.commits_update >= committed,
            "clients saw {} commits, server only {}",
            committed,
            stats.kernel.commits_update
        );
        let f = proxy.stats();
        assert!(
            f.dropped + f.duplicated + f.delayed + f.truncated > 0,
            "the chaos plan injected nothing: {f:?}"
        );
        assert!(
            stats.kernel.commits_update > 0,
            "no transaction survived the chaos"
        );
        assert!(
            stats.kernel.reaped_txns + stats.retries > 0,
            "no recovery machinery was ever exercised"
        );
    });
}

/// Handshakes severed at the worst moments — after the `Hello` frame
/// but before the `Welcome` reply, mid-frame, and proxy-killed — must
/// all return their site ids to the allocator. A leak here is invisible
/// to any single test but exhausts the 16-bit site space under
/// connection churn; the regression check is that after heavy severing
/// a fresh connection still obtains the *lowest* site id, which only
/// happens if every severed connection's id was recycled.
#[test]
fn severed_handshakes_return_site_ids_to_the_pool() {
    use esr_net::{frame, RequestBody, WireRequest};
    use std::io::Write;
    use std::net::TcpStream;

    with_deadline(Duration::from_secs(60), || {
        let tcp = leased_server(&[100], Duration::from_secs(5));
        let addr = tcp.local_addr();

        // Baseline: the first connection gets the lowest id and returns
        // it on drop.
        let conn = chaos_client(addr, 7).unwrap();
        let baseline = conn.site();
        drop(conn);

        // Sever after a complete Hello, before reading Welcome: the
        // server has already allocated the id when the socket dies.
        for _ in 0..16 {
            let mut sock = TcpStream::connect(addr).unwrap();
            frame::write_frame(
                &mut sock,
                &WireRequest {
                    id: 1,
                    retry: false,
                    body: RequestBody::Hello,
                },
            )
            .unwrap();
            drop(sock); // no read: the Welcome reply hits a dead peer
        }
        // Sever mid-frame: a torn length prefix must not wedge a reader
        // (or strand an id — none was allocated yet).
        for _ in 0..8 {
            let mut sock = TcpStream::connect(addr).unwrap();
            let _ = sock.write_all(&[0x10, 0x00]);
            drop(sock);
        }
        // Sever through the proxy: handshake relayed, then both legs
        // killed at once.
        let proxy = FaultProxy::bind(addr, FaultPlan::default()).unwrap();
        for _ in 0..4 {
            let mut sock = TcpStream::connect(proxy.local_addr()).unwrap();
            frame::write_frame(
                &mut sock,
                &WireRequest {
                    id: 1,
                    retry: false,
                    body: RequestBody::Hello,
                },
            )
            .unwrap();
            proxy.kill_all();
        }

        // Every severed id must come back. The allocator hands out the
        // lowest free id, so a fresh connection reclaiming the baseline
        // id proves the pool returned to its starting state.
        let t0 = Instant::now();
        loop {
            let conn = chaos_client(addr, 8).unwrap();
            let site = conn.site();
            drop(conn);
            if site == baseline {
                break;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(15),
                "site ids leaked: fresh connection got {site:?}, baseline was {baseline:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        drop(proxy);
        let stats = drain(&tcp, Duration::from_secs(10));
        assert_conservation(&stats);
    });
}

/// The server's `esr_retries` counter is incremented exactly once per
/// retry-flagged frame it receives, so it can never exceed the number
/// of resends the client actually performed (reconnect handshakes are
/// deliberately unflagged). Double counting — e.g. counting a retried
/// request again when its reply hook fires — would break this
/// inequality under connection kills.
#[test]
fn retry_accounting_is_not_double_counted() {
    with_deadline(Duration::from_secs(120), || {
        let tcp = leased_server(&[100, 200], Duration::from_secs(1));
        let plan = FaultPlan {
            kill_after_frames: Some(20),
            ..FaultPlan::default()
        };
        let proxy = FaultProxy::bind(tcp.local_addr(), plan).unwrap();
        let mut conn = chaos_client(proxy.local_addr(), 11).unwrap();
        for i in 0..12 {
            let _ = try_update(&mut conn, proxy.local_addr(), 11, ObjectId(1), 700 + i);
        }
        let client_resends = conn.retries();
        drop(conn);
        let stats = drain(&tcp, Duration::from_secs(15));
        assert_conservation(&stats);
        assert!(client_resends >= 1, "the kill plan forced no resends");
        assert!(
            stats.retries <= client_resends,
            "server counted {} retries but the client only resent {} times",
            stats.retries,
            client_resends
        );
    });
}

/// A stall shorter than the client's reply budget is absorbed as
/// latency: the blocked call completes once the partition heals.
#[test]
fn short_stall_is_absorbed_within_the_timeout_budget() {
    with_deadline(Duration::from_secs(60), || {
        let tcp = leased_server(&[100], Duration::from_secs(5));
        let proxy = FaultProxy::bind(tcp.local_addr(), FaultPlan::default()).unwrap();
        let mut conn = chaos_client(proxy.local_addr(), 5).unwrap();
        proxy.stall();
        let t0 = Instant::now();
        let handle = {
            let addr = proxy.local_addr();
            std::thread::spawn(move || {
                let ok = try_update(&mut conn, addr, 5, ObjectId(0), 123);
                (ok, conn)
            })
        };
        std::thread::sleep(Duration::from_millis(300));
        assert!(!handle.is_finished(), "stalled call finished early");
        proxy.unstall();
        let (ok, mut conn) = handle.join().unwrap();
        assert!(ok, "transaction failed across the stall");
        assert!(t0.elapsed() >= Duration::from_millis(300));
        assert_eq!(query_value(&mut conn, ObjectId(0)), 123);
        drop(conn);
        let stats = drain(&tcp, Duration::from_secs(10));
        assert_conservation(&stats);
    });
}
