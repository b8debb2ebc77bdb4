//! Process-kill crash recovery: SIGKILL the real `esr-tcpd` daemon at
//! seeded points (including mid-fsync via the torn-write injector),
//! restart it on the same data directory, and check the durability
//! contract from the only vantage point that matters — the client's:
//!
//! - **no lost committed write**: every commit the client was told
//!   succeeded is present after restart;
//! - **no double commit / no invented state**: the recovered value is
//!   one the client actually attempted, never ahead of the last
//!   attempt, and monotone in commit order;
//! - a retried `End` for a pre-crash transaction resolves to the typed
//!   [`EndReply::Unknown`], not a hang, an error string, or a phantom
//!   second commit.

use esr_core::bounds::Limit;
use esr_core::ids::{ObjectId, TxnKind};
use esr_core::spec::TxnBounds;
use esr_faults::proc::{cleanup_dir, scratch_dir, ServerProc, ServerProcOptions};
use esr_net::{frame, ReplyBody, RequestBody, TcpConnection, WireReply, WireRequest};
use esr_server::EndReply;
use esr_txn::Session;
use std::net::TcpStream;
use std::time::Duration;

fn tcpd() -> &'static str {
    env!("CARGO_BIN_EXE_esr-tcpd")
}

fn opts(dir: &std::path::Path) -> ServerProcOptions {
    ServerProcOptions::new(tcpd(), dir)
}

fn connect(addr: std::net::SocketAddr) -> TcpConnection {
    TcpConnection::connect(addr).expect("connect to daemon")
}

/// One sequential writer; the server is SIGKILLed after `kill_after`
/// acknowledged commits, with one more commit typically in flight.
/// After restart the recovered value must be an attempted one, at
/// least as new as the last acknowledged one.
fn kill_after_n_commits(kill_after: usize, tag: &str) {
    let dir = scratch_dir(tag);
    let mut server = ServerProc::spawn(&opts(&dir)).expect("spawn daemon");
    let mut c = connect(server.addr());

    let mut acked: i64 = 0; // 0 = initial value era
    for i in 1..=kill_after as i64 {
        c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
            .unwrap();
        c.write(ObjectId(0), 10_000 + i).unwrap();
        c.commit().unwrap();
        acked = i;
    }
    // One more transaction left mid-flight (written, not committed),
    // then the power goes out.
    c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    c.write(ObjectId(0), 10_000 + kill_after as i64 + 1)
        .unwrap();
    server.kill().expect("SIGKILL daemon");
    drop(c);

    let server = ServerProc::spawn(&opts(&dir)).expect("restart daemon");
    let mut c = connect(server.addr());
    c.begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
        .unwrap();
    let v = c.read(ObjectId(0)).unwrap();
    c.commit().unwrap();

    let era = if v == 1000 { 0 } else { v - 10_000 };
    assert!(
        v == 1000 || (10_001..=10_000 + kill_after as i64 + 1).contains(&v),
        "recovered value {v} was never written"
    );
    assert!(
        era >= acked,
        "lost committed write: acked era {acked}, recovered era {era}"
    );
    drop(c);
    drop(server);
    cleanup_dir(&dir);
}

#[test]
fn kill_after_first_commit_recovers_it() {
    kill_after_n_commits(1, "kill-1");
}

#[test]
fn kill_after_several_commits_recovers_all() {
    kill_after_n_commits(7, "kill-7");
}

/// The torn-write case: the daemon's own injector aborts the process
/// midway through writing (and fsyncing) record N. Recovery must
/// truncate the torn tail and keep every acknowledged commit.
#[test]
fn torn_write_mid_fsync_truncates_and_recovers() {
    let dir = scratch_dir("torn");
    let mut armed = opts(&dir);
    armed.wal_torn_after = Some(4);
    let mut server = ServerProc::spawn(&armed).expect("spawn armed daemon");
    let mut c = connect(server.addr());

    let mut acked = 0i64;
    for i in 1..=10i64 {
        c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
            .unwrap();
        if c.write(ObjectId(0), 10_000 + i).is_err() {
            break; // server died mid-run
        }
        match c.commit() {
            Ok(_) => acked = i,
            Err(_) => break, // the abort landed during this commit
        }
    }
    assert!(
        server.wait_exit(Duration::from_secs(30)),
        "injector must abort the daemon"
    );
    assert!(acked < 4, "record 4 can never be acknowledged");
    drop(c);

    let server = ServerProc::spawn(&opts(&dir)).expect("restart after torn write");
    let mut c = connect(server.addr());
    c.begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
        .unwrap();
    let v = c.read(ObjectId(0)).unwrap();
    c.commit().unwrap();
    let era = if v == 1000 { 0 } else { v - 10_000 };
    assert!(
        era >= acked,
        "lost committed write across torn tail: acked {acked}, recovered {era}"
    );
    assert!(
        era <= 4,
        "torn record 4 (or later) must not replay, got era {era}"
    );
    drop(c);
    drop(server);
    cleanup_dir(&dir);
}

/// A client whose commit reply was lost retries `End` against the
/// restarted server. The transaction id no longer exists there (and,
/// because recovery raises `next_txn` past every journaled id, can
/// never be reassigned), so the retry resolves to the typed `Unknown`
/// — the client learns the outcome is indeterminate instead of
/// hanging or double-committing.
#[test]
fn retried_end_after_restart_resolves_unknown() {
    let dir = scratch_dir("retry-end");
    let mut server = ServerProc::spawn(&opts(&dir)).expect("spawn daemon");
    let mut c = connect(server.addr());

    // A committed transaction (so its id is journaled) …
    c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    c.write(ObjectId(1), 777).unwrap();
    c.commit().unwrap();
    // … and an open one whose End will race the crash.
    c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    c.write(ObjectId(2), 888).unwrap();
    let open_txn = c.current_txn().expect("open transaction id");
    server.kill().expect("SIGKILL daemon");
    drop(c);

    let server = ServerProc::spawn(&opts(&dir)).expect("restart daemon");
    // Speak the wire protocol directly: Hello, then a retry-flagged End
    // for the pre-crash transaction.
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    let mut replies = frame::FrameReader::new(sock.try_clone().unwrap());
    frame::write_frame(
        &mut sock,
        &WireRequest {
            id: 1,
            retry: false,
            body: RequestBody::Hello,
        },
    )
    .unwrap();
    let welcome: WireReply = replies.read().unwrap();
    assert!(matches!(welcome.body, ReplyBody::Welcome { .. }));
    frame::write_frame(
        &mut sock,
        &WireRequest {
            id: 2,
            retry: true,
            body: RequestBody::End {
                txn: open_txn,
                commit: true,
            },
        },
    )
    .unwrap();
    let reply: WireReply = replies.read().unwrap();
    match reply.body {
        ReplyBody::End(EndReply::Unknown(t)) => assert_eq!(t, open_txn),
        other => panic!("expected EndReply::Unknown, got {other:?}"),
    }
    drop(server);
    cleanup_dir(&dir);
}

/// Repeated kill/restart cycles on one directory: state stays monotone
/// and the daemon recovers every time (checkpoints from earlier cycles
/// compose with later log tails).
#[test]
fn repeated_kill_restart_cycles_accumulate_state() {
    let dir = scratch_dir("cycles");
    let mut expected = Vec::new();
    for cycle in 0..4i64 {
        let mut o = opts(&dir);
        o.checkpoint_secs = if cycle % 2 == 0 { 1 } else { 0 };
        let mut server = ServerProc::spawn(&o).expect("spawn daemon");
        let mut c = connect(server.addr());
        c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
            .unwrap();
        c.write(ObjectId(cycle as u32), 5_000 + cycle).unwrap();
        c.commit().unwrap();
        expected.push((ObjectId(cycle as u32), 5_000 + cycle));
        if cycle == 1 {
            // Give a periodic checkpoint from cycle 0's cadence a chance
            // to be the base of the next recovery.
            std::thread::sleep(Duration::from_millis(1200));
        }
        server.kill().expect("SIGKILL daemon");
        drop(c);
    }
    let server = ServerProc::spawn(&opts(&dir)).expect("final restart");
    let mut c = connect(server.addr());
    c.begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
        .unwrap();
    for &(obj, want) in &expected {
        assert_eq!(c.read(obj).unwrap(), want, "cycle value for {obj:?}");
    }
    c.commit().unwrap();
    drop(c);
    drop(server);
    cleanup_dir(&dir);
}

/// Group commit across connections: eight of them commit at once.
/// Each committer waits for its log sync on its connection's own
/// thread, so a sync can gather up to eight commits; what it gathered
/// is printed (it is timing, and not asserted). The contract is the usual one: SIGKILL
/// mid-run, and every commit a client was told succeeded is there
/// after the restart.
#[test]
fn eight_concurrent_committers_lose_no_acknowledged_commit() {
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Arc;

    const CONNECTIONS: usize = 8;
    const ACKS_BEFORE_KILL: i64 = 25;
    let dir = scratch_dir("group-commit");
    let mut server = ServerProc::spawn(&opts(&dir)).expect("spawn daemon");
    let acked: Arc<Vec<AtomicI64>> =
        Arc::new((0..CONNECTIONS).map(|_| AtomicI64::new(0)).collect());
    let clients: Vec<_> = (0..CONNECTIONS)
        .map(|k| {
            let addr = server.addr();
            let acked = Arc::clone(&acked);
            std::thread::spawn(move || {
                let mut c = connect(addr);
                // One object per client, until the daemon dies under it.
                for i in 1i64.. {
                    let done = c
                        .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
                        .and_then(|()| c.write(ObjectId(k as u32), 10_000 + i))
                        .and_then(|()| c.commit());
                    if done.is_err() {
                        return i; // the attempt the crash cut off
                    }
                    acked[k].store(i, Ordering::SeqCst);
                }
                unreachable!("the loop ends when the daemon is killed");
            })
        })
        .collect();
    while acked
        .iter()
        .any(|a| a.load(Ordering::SeqCst) < ACKS_BEFORE_KILL)
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = connect(server.addr())
        .server_stats()
        .expect("stats before the kill");
    let syncs = stats.histogram("fsync_micros").map_or(0, |h| h.count);
    eprintln!(
        "group commit, {CONNECTIONS} connections: {} commits in {syncs} syncs = {:.2} commits per fsync",
        stats.kernel.commits_update,
        stats.kernel.commits_update as f64 / syncs.max(1) as f64
    );
    server.kill().expect("SIGKILL daemon");
    let attempted: Vec<i64> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    let server = ServerProc::spawn(&opts(&dir)).expect("restart daemon");
    let mut c = connect(server.addr());
    c.begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
        .unwrap();
    for k in 0..CONNECTIONS {
        let v = c.read(ObjectId(k as u32)).unwrap();
        let era = if v == 1000 { 0 } else { v - 10_000 };
        let acked = acked[k].load(Ordering::SeqCst);
        assert!(
            (acked..=attempted[k]).contains(&era),
            "client {k}: acknowledged {acked}, attempted {}, recovered {era}",
            attempted[k]
        );
    }
    c.commit().unwrap();
    drop(c);
    drop(server);
    cleanup_dir(&dir);
}
