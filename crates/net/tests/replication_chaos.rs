//! Replication chaos: the shipping link through the seeded fault
//! proxy, snapshot catch-up past a pruned log, and real-process
//! SIGKILL failover with epoch fencing.
//!
//! The acceptance bar (ISSUE 10): under seeded link faults and
//! repeated primary/replica SIGKILL, no replica serves a read that
//! exceeds its advertised bounds (checker-verified cross-site replay),
//! no split-brain after promotion, and every replica converges to the
//! primary's committed state once faults stop.

use esr_checker::{check_replicated, ReplicatedCapture};
use esr_core::bounds::Limit;
use esr_core::hierarchy::HierarchySchema;
use esr_core::ids::{ObjectId, TxnKind};
use esr_core::spec::TxnBounds;
use esr_core::value::Value;
use esr_faults::proc::{cleanup_dir, scratch_dir, ServerProc, ServerProcOptions};
use esr_faults::{FaultPlan, FaultProxy};
use esr_net::{
    NetClientConfig, ReplicaConfig, ReplicaNode, ReplicaServer, ReplicationHub, TcpConnection,
    TcpServer,
};
use esr_server::{start_durable_with, ServerConfig};
use esr_storage::catalog::CatalogConfig;
use esr_storage::wal::WalOptions;
use esr_tso::KernelConfig;
use esr_txn::Session;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const VALUE: Value = 1_000;
const TCPD: &str = env!("CARGO_BIN_EXE_esr-tcpd");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esr-rchaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn catalog(n: u32) -> CatalogConfig {
    CatalogConfig {
        n_objects: n,
        value_lo: VALUE,
        value_hi: VALUE,
        ..CatalogConfig::default()
    }
}

struct Primary {
    tcp: TcpServer,
    hub: Arc<ReplicationHub>,
    repl_addr: std::net::SocketAddr,
}

fn start_primary(dir: &Path, n_objects: u32) -> Primary {
    let hub = Arc::new(ReplicationHub::new(dir, false).unwrap());
    let (server, _) = start_durable_with(
        dir,
        &catalog(n_objects),
        HierarchySchema::two_level(),
        KernelConfig::default(),
        ServerConfig::default(),
        WalOptions::default(),
        |wal| hub.make_sink(wal),
    )
    .unwrap();
    server.kernel().enable_capture();
    hub.attach(&server);
    let repl_addr = hub
        .serve(TcpListener::bind("127.0.0.1:0").unwrap())
        .unwrap();
    let tcp = TcpServer::bind(server, "127.0.0.1:0").unwrap();
    Primary {
        tcp,
        hub,
        repl_addr,
    }
}

fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn commit_update(conn: &mut TcpConnection, obj: ObjectId, value: Value) {
    conn.begin(TxnKind::Update, TxnBounds::export(Limit::Unlimited))
        .unwrap();
    conn.write(obj, value).unwrap();
    conn.commit().unwrap();
}

/// The shipping link through the seeded fault proxy: dropped and
/// truncated subscribe frames, repeated whole-link kills and stall
/// windows while the primary commits — and the replica still converges
/// and never over-serves, checker-verified.
#[test]
fn shipping_link_survives_seeded_chaos() {
    let pdir = scratch("link-p");
    let rdir = scratch("link-r");
    let n = 8u32;
    let primary = start_primary(&pdir, n);

    // The replica is the proxy's client: its Subscribe frames draw
    // seeded drop/truncate fates; shipped records die with the
    // connection on kills and truncations.
    let proxy = Arc::new(
        FaultProxy::bind(
            primary.repl_addr,
            FaultPlan {
                seed: 0xE5_0010,
                drop_ppm: 120_000,
                truncate_ppm: 120_000,
                ..FaultPlan::default()
            },
        )
        .unwrap(),
    );
    let node = ReplicaNode::start(ReplicaConfig {
        data_dir: rdir.clone(),
        primary: proxy.local_addr().to_string(),
        catalog: catalog(n),
        schema: HierarchySchema::two_level(),
        checkpoint_every: 0,
        apply_delay_micros: 0,
    })
    .unwrap();
    node.enable_capture();
    let rserver =
        ReplicaServer::start(Arc::clone(&node), TcpListener::bind("127.0.0.1:0").unwrap()).unwrap();

    // Chaos thread: sever every live link and stall delivery in
    // bursts while the writer commits.
    let stop_chaos = Arc::new(AtomicBool::new(false));
    let chaos = {
        let stop = Arc::clone(&stop_chaos);
        let proxy = Arc::clone(&proxy);
        std::thread::spawn(move || {
            let mut i = 0u32;
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(37));
                proxy.kill_all();
                if i.is_multiple_of(3) {
                    proxy.stall();
                    std::thread::sleep(Duration::from_millis(25));
                    proxy.unstall();
                }
                i += 1;
            }
        })
    };

    // Budgeted stale reads are served throughout; every committed reply
    // is bounded by construction, and the capture replay re-verifies
    // each charge offline.
    let stop_reads = Arc::new(AtomicBool::new(false));
    let reader_handle = {
        let stop = Arc::clone(&stop_reads);
        let addr = rserver.addr();
        std::thread::spawn(move || {
            let mut served = 0u64;
            let mut conn = TcpConnection::connect_with(
                addr,
                NetClientConfig {
                    call_attempts: 2,
                    ..NetClientConfig::default()
                },
            )
            .unwrap();
            while !stop.load(Ordering::SeqCst) {
                if conn
                    .begin(TxnKind::Query, TxnBounds::import(Limit::at_most(500)))
                    .is_ok()
                {
                    let ok = conn.read(ObjectId(0)).is_ok();
                    if ok && conn.commit().is_ok() {
                        served += 1;
                    } else if conn.in_txn() {
                        let _ = conn.abort();
                    }
                }
                std::thread::sleep(Duration::from_millis(3));
            }
            served
        })
    };

    let mut writer = TcpConnection::connect(primary.tcp.local_addr()).unwrap();
    let commits = 120u64;
    for i in 0..commits {
        let obj = ObjectId((i % n as u64) as u32);
        commit_update(&mut writer, obj, VALUE + i as Value);
        std::thread::sleep(Duration::from_millis(2));
    }

    // Faults off; the replica must converge from wherever chaos left it.
    stop_chaos.store(true, Ordering::SeqCst);
    chaos.join().unwrap();
    wait_until("replica to converge", Duration::from_secs(30), || {
        node.applied_seq() >= commits
    });
    assert_eq!(node.divergence_total(), 0);
    for i in 0..n {
        let obj = ObjectId(i);
        assert_eq!(
            node.value(obj),
            primary.tcp.server().kernel().table().lock(obj).value,
            "object {i} diverged after chaos"
        );
    }
    stop_reads.store(true, Ordering::SeqCst);
    let served = reader_handle.join().unwrap();
    assert!(served > 0, "no replica read was ever served under chaos");

    let stats = proxy.stats();
    assert!(
        stats.killed > 0,
        "chaos injected nothing: {stats:?} — the test proved nothing"
    );

    // Cross-site replay: every read the replica served under chaos was
    // charged exactly and stayed within its advertised bounds.
    let capture = ReplicatedCapture {
        primary: primary.tcp.server().kernel().capture_history().unwrap(),
        replicas: vec![node.capture_history().expect("capture enabled")],
        initial: vec![VALUE; n as usize],
    };
    let report = check_replicated(&capture);
    assert!(report.is_clean(), "diagnostics: {:?}", report.diagnostics);

    rserver.shutdown();
    node.shutdown();
    drop(proxy); // Drop severs the relay and stops the accept loop.
    primary.hub.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// A replica subscribing after the primary checkpointed, pruned its
/// log, and restarted (empty ship cache, unreadable early segments)
/// gets a quiesced snapshot, then tails live records from the
/// snapshot's watermark.
#[test]
fn late_replica_catches_up_via_snapshot_after_prune() {
    let pdir = scratch("snap-p");
    let rdir = scratch("snap-r");
    let n = 4u32;

    {
        let mut primary = start_primary(&pdir, n);
        let mut writer = TcpConnection::connect(primary.tcp.local_addr()).unwrap();
        for i in 0..20 {
            commit_update(&mut writer, ObjectId(i % n), VALUE + i as Value);
        }
        // Checkpoint + prune: records 1..=20 are no longer readable
        // from the log segments.
        let kernel = Arc::clone(primary.tcp.server().kernel());
        let d = kernel.durability().expect("durable primary");
        let seq = d.checkpoint(kernel.table(), kernel.next_txn()).unwrap();
        assert_eq!(seq, 20);
        primary.hub.shutdown();
        primary.tcp.shutdown();
    }

    // Restart: the hub's in-memory record cache is gone, the durable
    // watermark is re-seeded at 20 from recovery, and a from_seq=1
    // subscriber *must* take the snapshot path.
    let primary = start_primary(&pdir, n);
    let node = ReplicaNode::start(ReplicaConfig {
        data_dir: rdir.clone(),
        primary: primary.repl_addr.to_string(),
        catalog: catalog(n),
        schema: HierarchySchema::two_level(),
        checkpoint_every: 0,
        apply_delay_micros: 0,
    })
    .unwrap();
    wait_until("snapshot install", Duration::from_secs(15), || {
        node.applied_seq() >= 20
    });
    let kernel = Arc::clone(primary.tcp.server().kernel());
    for i in 0..n {
        let obj = ObjectId(i);
        assert_eq!(node.value(obj), kernel.table().lock(obj).value);
    }

    // Live tail after the snapshot: new commits still ship.
    let mut writer = TcpConnection::connect(primary.tcp.local_addr()).unwrap();
    commit_update(&mut writer, ObjectId(0), VALUE + 999);
    wait_until("live tail after snapshot", Duration::from_secs(15), || {
        node.applied_seq() >= 21
    });
    assert_eq!(node.value(ObjectId(0)), VALUE + 999);
    assert_eq!(node.divergence_total(), 0);

    node.shutdown();
    primary.hub.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

// ---------------------------------------------------------------------
// Real-process chaos: SIGKILL, restart, promote, fence.
// ---------------------------------------------------------------------

fn stats_of(addr: std::net::SocketAddr) -> esr_server::ReplicationStats {
    let mut conn = TcpConnection::connect(addr).unwrap();
    conn.server_stats()
        .unwrap()
        .replication
        .expect("replica stats carry replication")
}

fn read_one(addr: std::net::SocketAddr, obj: ObjectId, bounds: TxnBounds) -> Value {
    let mut conn = TcpConnection::connect(addr).unwrap();
    conn.begin(TxnKind::Query, bounds).unwrap();
    let v = conn.read(obj).unwrap();
    conn.commit().unwrap();
    v
}

/// SIGKILL the replica mid-stream; a restart from the same directory
/// recovers its local WAL, resubscribes from its watermark, and
/// converges.
#[test]
fn replica_sigkill_restart_catches_up() {
    let pdir = scratch_dir("rkill-p");
    let rdir = scratch_dir("rkill-r");
    let mut popts = ServerProcOptions::new(TCPD, &pdir);
    popts.repl = true;
    let primary = ServerProc::spawn(&popts).unwrap();
    let repl_addr = primary.repl_addr().unwrap();

    let mut ropts = ServerProcOptions::new(TCPD, &rdir);
    ropts.replica_of = Some(repl_addr.to_string());
    let mut replica = ServerProc::spawn(&ropts).unwrap();

    let mut writer = TcpConnection::connect(primary.addr()).unwrap();
    for i in 0..5 {
        commit_update(&mut writer, ObjectId(0), VALUE + i);
    }
    wait_until("first batch applied", Duration::from_secs(15), || {
        stats_of(replica.addr()).applied_seq >= 5
    });
    // Give the idle apply loop a beat to fsync its local WAL, then
    // murder it.
    std::thread::sleep(Duration::from_millis(400));
    replica.kill().unwrap();

    for i in 5..10 {
        commit_update(&mut writer, ObjectId(0), VALUE + i);
    }
    let replica = ServerProc::spawn(&ropts).unwrap();
    wait_until(
        "restarted replica catch-up",
        Duration::from_secs(15),
        || stats_of(replica.addr()).applied_seq >= 10,
    );
    assert_eq!(
        read_one(replica.addr(), ObjectId(0), TxnBounds::import(Limit::ZERO)),
        VALUE + 9
    );

    drop(replica);
    drop(primary);
    cleanup_dir(&pdir);
    cleanup_dir(&rdir);
}

/// Primary SIGKILL → promote the replica's directory as the new
/// primary (epoch bump) → a resurrected old primary is fenced: a
/// replica that followed the new epoch refuses the stale corpse, so
/// its writes can never split the log.
#[test]
fn promote_fences_resurrected_primary() {
    let adir = scratch_dir("fence-a"); // old primary
    let bdir = scratch_dir("fence-b"); // replica → promoted primary
    let cdir = scratch_dir("fence-c"); // replica following the new epoch

    let mut popts = ServerProcOptions::new(TCPD, &adir);
    popts.repl = true;
    let mut old_primary = ServerProc::spawn(&popts).unwrap();
    let old_repl = old_primary.repl_addr().unwrap();

    let mut bopts = ServerProcOptions::new(TCPD, &bdir);
    bopts.replica_of = Some(old_repl.to_string());
    let mut b = ServerProc::spawn(&bopts).unwrap();

    let mut writer = TcpConnection::connect(old_primary.addr()).unwrap();
    commit_update(&mut writer, ObjectId(0), VALUE + 10);
    commit_update(&mut writer, ObjectId(1), VALUE + 20);
    wait_until("replica to mirror", Duration::from_secs(15), || {
        stats_of(b.addr()).applied_seq >= 2
    });
    assert_eq!(stats_of(b.addr()).epoch, 1);
    std::thread::sleep(Duration::from_millis(400)); // idle fsync
    drop(writer);

    // The primary dies. Promote the replica's directory: epoch 1 → 2.
    old_primary.kill().unwrap();
    b.kill().unwrap();
    let mut new_opts = ServerProcOptions::new(TCPD, &bdir);
    new_opts.repl = true;
    new_opts.promote = true;
    let new_primary = ServerProc::spawn(&new_opts).unwrap();
    let new_repl = new_primary.repl_addr().unwrap();

    // Failover completes: the promoted primary serves the old
    // primary's committed state and accepts new commits.
    let mut writer = TcpConnection::connect(new_primary.addr()).unwrap();
    let mut probe = TcpConnection::connect(new_primary.addr()).unwrap();
    probe
        .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .unwrap();
    assert_eq!(probe.read(ObjectId(0)).unwrap(), VALUE + 10);
    assert_eq!(probe.read(ObjectId(1)).unwrap(), VALUE + 20);
    probe.commit().unwrap();
    commit_update(&mut writer, ObjectId(0), VALUE + 30);

    // A replica follows the new primary and adopts epoch 2.
    let mut copts = ServerProcOptions::new(TCPD, &cdir);
    copts.replica_of = Some(new_repl.to_string());
    let mut c = ServerProc::spawn(&copts).unwrap();
    wait_until("epoch-2 replica to mirror", Duration::from_secs(15), || {
        let s = stats_of(c.addr());
        s.epoch == 2 && s.applied_seq >= 3
    });
    assert_eq!(
        read_one(c.addr(), ObjectId(0), TxnBounds::import(Limit::ZERO)),
        VALUE + 30
    );
    std::thread::sleep(Duration::from_millis(400)); // idle fsync
    c.kill().unwrap();

    // The old primary rises from the dead at epoch 1 and even takes a
    // write. Its log is now a divergent fork of history.
    let old_primary = ServerProc::spawn(&popts).unwrap();
    let mut rogue = TcpConnection::connect(old_primary.addr()).unwrap();
    commit_update(&mut rogue, ObjectId(0), VALUE + 666);

    // Re-point the epoch-2 replica at the corpse: it must refuse to
    // follow (fenced), keep its epoch-2 state, and import nothing.
    let mut copts2 = ServerProcOptions::new(TCPD, &cdir);
    copts2.replica_of = Some(old_primary.repl_addr().unwrap().to_string());
    let c = ServerProc::spawn(&copts2).unwrap();
    std::thread::sleep(Duration::from_secs(2)); // plenty of reconnect attempts
    let s = stats_of(c.addr());
    assert_eq!(s.epoch, 2, "replica must keep the promoted epoch");
    assert_eq!(
        s.applied_seq, 3,
        "no record from the fenced fork may be applied"
    );
    assert_eq!(
        read_one(c.addr(), ObjectId(0), TxnBounds::import(Limit::Unlimited)),
        VALUE + 30,
        "split-brain: the fenced fork's write leaked into the replica"
    );

    drop(c);
    drop(old_primary);
    drop(new_primary);
    cleanup_dir(&adir);
    cleanup_dir(&bdir);
    cleanup_dir(&cdir);
}
