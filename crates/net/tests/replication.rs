//! In-process wire replication tests: a real durable primary streaming
//! WAL records over a real socket to real [`ReplicaNode`]s, with
//! epsilon-bounded reads served by [`ReplicaServer`] over the ordinary
//! client protocol.
//!
//! Covers the PR's budget-edge obligations ("ESR degenerates to SR" on
//! a caught-up replica; group-straddling queries charge the correct
//! GIL), the live Prometheus export of the replication gauges, the
//! model-equivalence property against the in-process `esr-replica`
//! twin, and cross-site capture replay through `esr-checker`.

use esr_checker::{check_replicated, ReplicatedCapture};
use esr_clock::Timestamp;
use esr_core::bounds::Limit;
use esr_core::hierarchy::HierarchySchema;
use esr_core::ids::{ObjectId, SiteId, TxnId, TxnKind};
use esr_core::spec::TxnBounds;
use esr_core::value::Value;
use esr_net::repl::hub::SHIP_CACHE_BYTES;
use esr_net::{
    is_busy_error, MetricsServer, NetClientConfig, ReplicaConfig, ReplicaNode, ReplicaServer,
    ReplicationHub, TcpConnection, TcpServer,
};
use esr_replica::{LogEntry, Replica};
use esr_server::{start_durable_with, ReplicationStats, ServerConfig};
use esr_storage::catalog::CatalogConfig;
use esr_storage::wal::{DurabilitySink, Wal, WalOptions};
use esr_tso::capture::EventKind;
use esr_tso::KernelConfig;
use esr_txn::{Session, SessionError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const VALUE: Value = 1_000;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esr-repl-{tag}-{}", std::process::id()));
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

/// A wire primary: durable server + shipping hub + TCP front end.
struct Primary {
    tcp: TcpServer,
    hub: Arc<ReplicationHub>,
    repl_addr: std::net::SocketAddr,
}

fn start_primary(dir: &Path, schema: HierarchySchema, n_objects: u32) -> Primary {
    let hub = Arc::new(ReplicationHub::new(dir, false).unwrap());
    let (server, _) = start_durable_with(
        dir,
        &catalog(n_objects),
        schema,
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

fn start_node(
    dir: &Path,
    primary: &Primary,
    schema: HierarchySchema,
    n_objects: u32,
) -> Arc<ReplicaNode> {
    ReplicaNode::start(ReplicaConfig {
        data_dir: dir.to_path_buf(),
        primary: primary.repl_addr.to_string(),
        catalog: catalog(n_objects),
        schema,
        checkpoint_every: 0,
        apply_delay_micros: 0,
    })
    .unwrap()
}

fn serve(node: &Arc<ReplicaNode>) -> ReplicaServer {
    ReplicaServer::start(Arc::clone(node), TcpListener::bind("127.0.0.1:0").unwrap()).unwrap()
}

/// A replica node with its read front end, capturing every read it
/// serves for the cross-site checker.
fn start_replica(
    dir: &Path,
    primary: &Primary,
    schema: HierarchySchema,
    n_objects: u32,
) -> (Arc<ReplicaNode>, ReplicaServer) {
    let node = start_node(dir, primary, schema, n_objects);
    node.enable_capture();
    let server = serve(&node);
    (node, server)
}

/// The primary's replication block, as its wire `Stats` reports it.
fn hub_stats(primary: &Primary) -> ReplicationStats {
    primary
        .tcp
        .server()
        .stats()
        .replication
        .expect("an attached hub reports replication")
}

fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Commit one single-object update on the primary through the wire.
fn commit_update(conn: &mut TcpConnection, obj: ObjectId, value: Value) {
    conn.begin(TxnKind::Update, TxnBounds::export(Limit::Unlimited))
        .unwrap();
    conn.write(obj, value).unwrap();
    conn.commit().unwrap();
}

/// Commit one update writing `value` to every one of `n` objects.
fn commit_wide(conn: &mut TcpConnection, n: u32, value: Value) {
    conn.begin(TxnKind::Update, TxnBounds::export(Limit::Unlimited))
        .unwrap();
    for chunk in (0..n).collect::<Vec<_>>().chunks(1024) {
        let ops = chunk
            .iter()
            .map(|&o| esr_tso::Operation::Write(ObjectId(o), value))
            .collect();
        for reply in conn.batch(ops).unwrap() {
            assert!(
                matches!(reply, esr_server::OpReply::Written),
                "write refused: {reply:?}"
            );
        }
    }
    conn.commit().unwrap();
}

/// A client that surfaces busy rejects instead of retrying forever.
fn impatient(addr: std::net::SocketAddr) -> TcpConnection {
    TcpConnection::connect_with(
        addr,
        NetClientConfig {
            call_attempts: 2,
            ..NetClientConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn wire_replica_converges_and_strict_reads_degenerate_to_sr() {
    let pdir = scratch("conv-p");
    let rdir = scratch("conv-r");
    let primary = start_primary(&pdir, HierarchySchema::two_level(), 4);
    let (node, rserver) = start_replica(&rdir, &primary, HierarchySchema::two_level(), 4);

    let mut writer = TcpConnection::connect(primary.tcp.local_addr()).unwrap();
    commit_update(&mut writer, ObjectId(0), VALUE + 50);
    commit_update(&mut writer, ObjectId(1), VALUE - 30);

    wait_until(
        "replica to apply both commits",
        Duration::from_secs(10),
        || node.applied_seq() >= 2,
    );
    assert_eq!(node.divergence_total(), 0);

    // A zero-bound (strictly serializable) query served locally by the
    // caught-up replica sees exactly the primary's committed state.
    let mut reader = TcpConnection::connect(rserver.addr()).unwrap();
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .unwrap();
    assert_eq!(reader.read(ObjectId(0)).unwrap(), VALUE + 50);
    assert_eq!(reader.read(ObjectId(1)).unwrap(), VALUE - 30);
    let info = reader.commit().unwrap();
    assert_eq!(info.inconsistency, 0);
    assert_eq!(info.reads, 2);

    // Updates are refused outright.
    let err = reader
        .begin(TxnKind::Update, TxnBounds::export(Limit::Unlimited))
        .unwrap_err();
    match err {
        SessionError::Backend(msg) => assert!(msg.contains("read-only"), "{msg}"),
        other => panic!("unexpected error {other:?}"),
    }

    rserver.shutdown();
    node.shutdown();
    primary.hub.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn all_zero_bounds_succeed_only_on_a_caught_up_replica() {
    let pdir = scratch("zero-p");
    let rdir = scratch("zero-r");
    let primary = start_primary(&pdir, HierarchySchema::two_level(), 2);
    let (node, rserver) = start_replica(&rdir, &primary, HierarchySchema::two_level(), 2);
    wait_until("replica to connect", Duration::from_secs(10), || {
        node.connected()
    });

    // Freeze the apply thread, then commit: the shadow (control
    // metadata) arrives eagerly while the data copy lags.
    node.pause_apply();
    let mut writer = TcpConnection::connect(primary.tcp.local_addr()).unwrap();
    commit_update(&mut writer, ObjectId(0), VALUE + 25);
    wait_until("shadow to arrive", Duration::from_secs(10), || {
        node.received_seq() >= 1
    });
    assert_eq!(node.applied_seq(), 0, "apply is paused");
    assert_eq!(node.divergence_total(), 25);

    // Strict query on the lagged replica: busy-rejected (parked), not
    // served with stale data.
    let mut reader = impatient(rserver.addr());
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .unwrap();
    match reader.read(ObjectId(0)).unwrap_err() {
        SessionError::Backend(msg) => assert!(is_busy_error(&msg), "{msg}"),
        other => panic!("unexpected error {other:?}"),
    }
    reader.abort().unwrap();

    // A query with exactly enough budget is served the stale value and
    // charged the divergence it imported.
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::at_most(25)))
        .unwrap();
    assert_eq!(reader.read(ObjectId(0)).unwrap(), VALUE);
    let info = reader.commit().unwrap();
    assert_eq!(info.inconsistency, 25);
    assert_eq!(info.inconsistent_ops, 1);

    // Catch up; the strict query now succeeds: ESR degenerates to SR.
    node.resume_apply();
    wait_until("replica to catch up", Duration::from_secs(10), || {
        node.applied_seq() >= 1
    });
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .unwrap();
    assert_eq!(reader.read(ObjectId(0)).unwrap(), VALUE + 25);
    assert_eq!(reader.commit().unwrap().inconsistency, 0);

    rserver.shutdown();
    node.shutdown();
    primary.hub.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

fn grouped_schema() -> HierarchySchema {
    let mut b = HierarchySchema::builder();
    let left = b.group("left");
    let right = b.group("right");
    b.attach(ObjectId(0), left);
    b.attach(ObjectId(1), left);
    b.attach(ObjectId(2), right);
    b.attach(ObjectId(3), right);
    b.build()
}

#[test]
fn group_straddling_query_charges_the_correct_gil() {
    let pdir = scratch("gil-p");
    let rdir = scratch("gil-r");
    let schema = grouped_schema();
    let primary = start_primary(&pdir, schema.clone(), 4);
    let (node, rserver) = start_replica(&rdir, &primary, schema, 4);
    wait_until("replica to connect", Duration::from_secs(10), || {
        node.connected()
    });

    node.pause_apply();
    let mut writer = TcpConnection::connect(primary.tcp.local_addr()).unwrap();
    commit_update(&mut writer, ObjectId(0), VALUE + 10); // left diverges by 10
    commit_update(&mut writer, ObjectId(2), VALUE + 20); // right diverges by 20
    wait_until("shadows to arrive", Duration::from_secs(10), || {
        node.received_seq() >= 2
    });
    let (total, by_group) = node.divergence_by_group();
    assert_eq!(total, 30);
    let get = |name: &str| {
        by_group
            .iter()
            .find(|(g, _)| g == name)
            .map(|(_, d)| *d)
            .unwrap()
    };
    assert_eq!(get("left"), 10);
    assert_eq!(get("right"), 20);

    // A straddling query with per-group budgets sized exactly: each
    // read must charge its own group's GIL, not the other's.
    let mut bounds = TxnBounds::import(Limit::Unlimited);
    bounds.groups.insert("left".into(), Limit::at_most(10));
    bounds.groups.insert("right".into(), Limit::at_most(20));
    let mut reader = impatient(rserver.addr());
    reader.begin(TxnKind::Query, bounds.clone()).unwrap();
    assert_eq!(reader.read(ObjectId(0)).unwrap(), VALUE);
    assert_eq!(reader.read(ObjectId(2)).unwrap(), VALUE);
    let info = reader.commit().unwrap();
    assert_eq!(info.inconsistency, 30);

    // Tighten only the right group below its divergence: the left read
    // still clears (10 ≤ 10 — its budget was not consumed by the right
    // group's charge), the right read busy-parks.
    let mut tight = TxnBounds::import(Limit::Unlimited);
    tight.groups.insert("left".into(), Limit::at_most(10));
    tight.groups.insert("right".into(), Limit::at_most(19));
    reader.begin(TxnKind::Query, tight).unwrap();
    assert_eq!(reader.read(ObjectId(0)).unwrap(), VALUE);
    match reader.read(ObjectId(2)).unwrap_err() {
        SessionError::Backend(msg) => assert!(is_busy_error(&msg), "{msg}"),
        other => panic!("unexpected error {other:?}"),
    }
    reader.abort().unwrap();

    // And the converse: a left budget below 10 rejects the left read
    // even though the transaction-level budget is unlimited.
    let mut tight_left = TxnBounds::import(Limit::Unlimited);
    tight_left.groups.insert("left".into(), Limit::at_most(9));
    reader.begin(TxnKind::Query, tight_left).unwrap();
    match reader.read(ObjectId(0)).unwrap_err() {
        SessionError::Backend(msg) => assert!(is_busy_error(&msg), "{msg}"),
        other => panic!("unexpected error {other:?}"),
    }
    reader.abort().unwrap();
    node.resume_apply();

    rserver.shutdown();
    node.shutdown();
    primary.hub.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn replication_gauges_are_exported_live() {
    let pdir = scratch("metrics-p");
    let rdir = scratch("metrics-r");
    let schema = grouped_schema();
    let primary = start_primary(&pdir, schema.clone(), 4);
    let (node, rserver) = start_replica(&rdir, &primary, schema, 4);
    wait_until("replica to connect", Duration::from_secs(10), || {
        node.connected()
    });

    node.pause_apply();
    let mut writer = TcpConnection::connect(primary.tcp.local_addr()).unwrap();
    commit_update(&mut writer, ObjectId(0), VALUE + 7);
    wait_until("shadow to arrive", Duration::from_secs(10), || {
        node.received_seq() >= 1
    });

    // The replica daemon serves the node's own stats, exactly like
    // `esr-tcpd --replica-of` does: replication state plus its log's
    // health flag and distributions.
    let mut metrics = MetricsServer::bind("127.0.0.1:0", Arc::clone(&node) as _).unwrap();
    let body = http_get(metrics.local_addr());
    assert!(body.contains("esr_replica_lag_records 1"), "{body}");
    assert!(body.contains("esr_wal_failed 0"), "{body}");
    assert!(body.contains("esr_checkpoint_micros_count 0"), "{body}");
    assert!(body.contains("esr_checkpoint_bytes_count 0"), "{body}");
    assert!(body.contains("esr_replica_lag_micros"), "{body}");
    assert!(body.contains("esr_replica_divergence_total 7"), "{body}");
    assert!(
        body.contains("esr_replica_divergence{group=\"left\"} 7"),
        "{body}"
    );
    assert!(
        body.contains("esr_replica_divergence{group=\"right\"} 0"),
        "{body}"
    );
    assert!(body.contains("esr_replica_received_seq 1"), "{body}");
    assert!(body.contains("esr_replica_applied_seq 0"), "{body}");

    // The wire Stats RPC carries the same rows.
    let mut reader = TcpConnection::connect(rserver.addr()).unwrap();
    let stats = reader.server_stats().unwrap();
    let repl = stats.replication.expect("replica stats carry replication");
    assert_eq!(repl.role, "replica");
    assert_eq!(repl.received_seq, 1);
    assert_eq!(repl.applied_seq, 0);
    assert_eq!(repl.divergence_total, 7);

    // The primary's hub reports its peer rows and its ship cache.
    let hub = hub_stats(&primary);
    assert_eq!(hub.role, "primary");
    assert_eq!(hub.durable_seq, 1);
    assert_eq!(hub.peers.len(), 1);
    assert_eq!(hub.ship_cache_records, 1);
    assert!(hub.ship_cache_bytes > 0);
    assert_eq!(hub.cold_reads, 0, "a live subscriber never reads cold");

    node.resume_apply();
    wait_until("replica to catch up", Duration::from_secs(10), || {
        node.applied_seq() >= 1
    });
    metrics.shutdown();
    rserver.shutdown();
    node.shutdown();
    primary.hub.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

fn http_get(addr: std::net::SocketAddr) -> String {
    use std::io::{Read, Write};
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    response
}

/// Satellite 1: the wire replica fed a committed-write sequence reaches
/// the same data copy and divergence ledger as the in-process
/// `esr-replica` model, across seeds.
#[test]
fn wire_replica_matches_in_process_model_across_seeds() {
    for seed in 0..4u64 {
        let pdir = scratch(&format!("model-p{seed}"));
        let rdir = scratch(&format!("model-r{seed}"));
        let n = 6u32;
        let primary = start_primary(&pdir, HierarchySchema::two_level(), n);
        let (node, rserver) = start_replica(&rdir, &primary, HierarchySchema::two_level(), n);
        wait_until("replica to connect", Duration::from_secs(10), || {
            node.connected()
        });

        let mut model = Replica::new(&vec![VALUE; n as usize]);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut writer = TcpConnection::connect(primary.tcp.local_addr()).unwrap();
        let mut committed = 0u64;

        // Phase 1: live application.
        for t in 0..10u64 {
            let obj = ObjectId(rng.gen_range(0..n));
            let value = VALUE + rng.gen_range(-100..=100i64);
            commit_update(&mut writer, obj, value);
            committed += 1;
            model.enqueue(LogEntry {
                obj,
                ts: Timestamp::new(t + 1, SiteId(0)),
                value,
            });
        }
        model.pump_all();
        wait_until("phase-1 apply", Duration::from_secs(10), || {
            node.applied_seq() >= committed
        });
        for i in 0..n {
            let obj = ObjectId(i);
            assert_eq!(node.value(obj), model.value(obj), "seed {seed} obj {i}");
            assert_eq!(node.shadow(obj), model.primary_value(obj));
        }
        assert_eq!(node.divergence_total() as u128, model.total_divergence());

        // Phase 2: a lagging replica — shadows flow, data does not.
        // The divergence ledgers must agree while lagged.
        node.pause_apply();
        for t in 10..20u64 {
            let obj = ObjectId(rng.gen_range(0..n));
            let value = VALUE + rng.gen_range(-100..=100i64);
            commit_update(&mut writer, obj, value);
            committed += 1;
            model.enqueue(LogEntry {
                obj,
                ts: Timestamp::new(t + 1, SiteId(0)),
                value,
            });
        }
        wait_until("phase-2 shadows", Duration::from_secs(10), || {
            node.received_seq() >= committed
        });
        for i in 0..n {
            let obj = ObjectId(i);
            assert_eq!(node.value(obj), model.value(obj), "seed {seed} obj {i}");
            assert_eq!(node.shadow(obj), model.primary_value(obj));
        }
        assert_eq!(node.divergence_total() as u128, model.total_divergence());

        // Phase 3: both catch up; divergence returns to zero.
        node.resume_apply();
        model.pump_all();
        wait_until("phase-3 apply", Duration::from_secs(10), || {
            node.applied_seq() >= committed
        });
        for i in 0..n {
            let obj = ObjectId(i);
            assert_eq!(node.value(obj), model.value(obj), "seed {seed} obj {i}");
        }
        assert_eq!(node.divergence_total(), 0);
        assert_eq!(model.total_divergence(), 0);

        rserver.shutdown();
        node.shutdown();
        primary.hub.shutdown();
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&rdir);
    }
}

/// Cross-site capture replay: primary commits + replica query imports,
/// validated end-to-end by `esr-checker` — and a tampered capture is
/// caught.
#[test]
fn cross_site_capture_replays_clean_and_tamper_is_caught() {
    let pdir = scratch("cap-p");
    let rdir = scratch("cap-r");
    let n = 4u32;
    let primary = start_primary(&pdir, HierarchySchema::two_level(), n);
    let (node, rserver) = start_replica(&rdir, &primary, HierarchySchema::two_level(), n);
    wait_until("replica to connect", Duration::from_secs(10), || {
        node.connected()
    });

    node.pause_apply();
    let mut writer = TcpConnection::connect(primary.tcp.local_addr()).unwrap();
    commit_update(&mut writer, ObjectId(0), VALUE + 40);
    wait_until("shadow to arrive", Duration::from_secs(10), || {
        node.received_seq() >= 1
    });

    // One bounded stale read, one caught-up strict read.
    let mut reader = TcpConnection::connect(rserver.addr()).unwrap();
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::at_most(40)))
        .unwrap();
    assert_eq!(reader.read(ObjectId(0)).unwrap(), VALUE);
    assert_eq!(reader.commit().unwrap().inconsistency, 40);
    node.resume_apply();
    wait_until("replica to catch up", Duration::from_secs(10), || {
        node.applied_seq() >= 1
    });
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .unwrap();
    assert_eq!(reader.read(ObjectId(0)).unwrap(), VALUE + 40);
    reader.commit().unwrap();

    let capture = ReplicatedCapture {
        primary: primary
            .tcp
            .server()
            .kernel()
            .capture_history()
            .expect("capture enabled"),
        replicas: vec![node.capture_history().expect("capture enabled")],
        initial: vec![VALUE; n as usize],
    };
    let report = check_replicated(&capture);
    assert!(
        report.is_clean(),
        "cross-site replay diagnostics: {:?}",
        report.diagnostics
    );

    // Tamper: pretend the stale read was measured against a shadow the
    // primary never committed — the honesty check must catch it.
    let mut tampered = capture.clone();
    for ev in &mut tampered.replicas[0].events {
        if let esr_tso::capture::EventKind::ReplicaRead { shadow, d, .. } = &mut ev.kind {
            if *d > 0 {
                *shadow = VALUE + 1; // not a committed primary value
                *d = 1;
            }
        }
    }
    let report = check_replicated(&tampered);
    assert!(!report.is_clean(), "tampered capture must not verify");

    rserver.shutdown();
    node.shutdown();
    primary.hub.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// Regression: a catch-up batch whose records hold large write sets
/// must not wedge replication. Before batches were bounded by encoded
/// size (and the replication channel's frame cap raised), a subscriber
/// behind a run of wide-write-set records was handed one frame
/// exceeding the 1 MiB protocol cap; the send failed, the subscriber
/// reconnected from the same watermark, and the hub deterministically
/// rebuilt the identical oversize batch forever.
#[test]
fn wide_write_set_backlog_ships_without_wedging() {
    let pdir = scratch("wide-p");
    let rdir = scratch("wide-r");
    let n = 2_000u32;
    let primary = start_primary(&pdir, HierarchySchema::two_level(), n);

    // 256 commits, each writing every object: a backlog encoding to
    // several MB, its tail in the ship cache when the replica arrives.
    let mut writer = TcpConnection::connect(primary.tcp.local_addr()).unwrap();
    let commits = 256u64;
    for i in 0..commits {
        commit_wide(&mut writer, n, VALUE + i as Value);
    }

    // Subscribe from scratch: the whole backlog must stream through
    // size-bounded batches instead of one unshippable frame.
    let (node, rserver) = start_replica(&rdir, &primary, HierarchySchema::two_level(), n);
    wait_until("backlog to ship and apply", Duration::from_secs(30), || {
        node.applied_seq() >= commits
    });
    assert_eq!(node.divergence_total(), 0);
    assert_eq!(node.value(ObjectId(0)), VALUE + (commits - 1) as Value);
    assert_eq!(node.value(ObjectId(n - 1)), VALUE + (commits - 1) as Value);

    rserver.shutdown();
    node.shutdown();
    primary.hub.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// The ship cache holds at most its byte budget, and a subscriber
/// behind it catches up from the segment files in one cold episode —
/// every segment of the range read once, not once per 512 records —
/// and then rides the cache: later records ship without another read.
#[test]
fn a_subscriber_behind_the_cache_catches_up_in_one_pass_then_rides_the_cache() {
    let pdir = scratch("cold-p");
    let rdir = scratch("cold-r");
    let n = 1_000u32;
    // Segment one: records a previous incarnation of the primary logged,
    // now on disk only (a restart empties the cache).
    let old = 50u64;
    {
        let wal = Wal::open(&pdir, 1, WalOptions::default()).unwrap();
        for seq in 1..=old {
            let ts = Timestamp::new(seq, SiteId(0));
            wal.append_commit(TxnId(seq), ts, 0, &[(ObjectId(0), VALUE + seq as Value)]);
        }
        assert!(wal.sync_to(old));
    }
    // Segment two: commits of every object, well past the cache's budget
    // (each is charged ~32 KB, so the budget holds about 130).
    let primary = start_primary(&pdir, HierarchySchema::two_level(), n);
    let mut writer = TcpConnection::connect(primary.tcp.local_addr()).unwrap();
    let wide = 200u64;
    for i in 0..wide {
        commit_wide(&mut writer, n, VALUE + i as Value);
    }
    let hub = hub_stats(&primary);
    assert_eq!(hub.durable_seq, old + wide);
    assert!(hub.ship_cache_bytes <= SHIP_CACHE_BYTES as u64, "{hub:?}");
    assert!(
        hub.ship_cache_records > 0 && hub.ship_cache_records < wide,
        "the budget evicts the oldest and keeps the newest: {hub:?}"
    );
    assert_eq!(hub.cold_reads, 0);

    let node = start_node(&rdir, &primary, HierarchySchema::two_level(), n);
    wait_until(
        "the backlog to ship and apply",
        Duration::from_secs(60),
        || node.applied_seq() >= old + wide,
    );
    assert_eq!(
        hub_stats(&primary).cold_reads,
        2,
        "one cold episode reads each of the two segments once"
    );
    for i in 0..5 {
        commit_update(&mut writer, ObjectId(1), VALUE + i);
    }
    wait_until("live records to ship", Duration::from_secs(10), || {
        node.applied_seq() >= old + wide + 5
    });
    assert_eq!(hub_stats(&primary).cold_reads, 2, "back on the hot path");
    assert_eq!(node.value(ObjectId(1)), VALUE + 4);
    assert_eq!(node.value(ObjectId(n - 1)), VALUE + (wide - 1) as Value);
    assert_eq!(node.divergence_total(), 0);
    assert!(node.capture_history().is_none(), "no log was attached");

    node.shutdown();
    primary.hub.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// A replica records its reads only once a caller attaches a log; until
/// then there is no history and no event is kept.
#[test]
fn replica_reads_are_captured_only_once_a_log_is_attached() {
    let pdir = scratch("attach-p");
    let rdir = scratch("attach-r");
    let primary = start_primary(&pdir, HierarchySchema::two_level(), 2);
    let node = start_node(&rdir, &primary, HierarchySchema::two_level(), 2);
    let rserver = serve(&node);
    wait_until("replica to connect", Duration::from_secs(10), || {
        node.connected() && node.fresh()
    });
    let mut reader = TcpConnection::connect(rserver.addr()).unwrap();
    let read_once = |reader: &mut TcpConnection| {
        reader
            .begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
            .unwrap();
        assert_eq!(reader.read(ObjectId(0)).unwrap(), VALUE);
        reader.commit().unwrap();
    };
    read_once(&mut reader);
    assert!(node.capture_history().is_none());

    let log = node.enable_capture();
    assert!(log.is_empty(), "nothing recorded before the attach");
    read_once(&mut reader);
    let kinds: Vec<_> = node
        .capture_history()
        .expect("attached")
        .events
        .iter()
        .map(|e| match e.kind {
            EventKind::Begin { .. } => "begin",
            EventKind::ReplicaRead { .. } => "read",
            EventKind::Commit { .. } => "commit",
            _ => "other",
        })
        .collect();
    assert_eq!(kinds, ["begin", "read", "commit"]);
    assert!(Arc::ptr_eq(&log, &node.enable_capture()), "one log");

    rserver.shutdown();
    node.shutdown();
    primary.hub.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// Regression: a partitioned replica's shadow freezes, so it *measures*
/// zero divergence no matter how far the primary has moved. Strict
/// (all-zero-bound) reads must park on a cut-off replica instead of
/// passing frozen state off as exact; bounded reads stay served against
/// the last known primary state.
#[test]
fn strict_reads_park_when_the_link_is_down() {
    let pdir = scratch("part-p");
    let rdir = scratch("part-r");
    let primary = start_primary(&pdir, HierarchySchema::two_level(), 2);
    let (node, rserver) = start_replica(&rdir, &primary, HierarchySchema::two_level(), 2);

    let mut writer = TcpConnection::connect(primary.tcp.local_addr()).unwrap();
    commit_update(&mut writer, ObjectId(0), VALUE + 5);
    wait_until("replica to catch up", Duration::from_secs(10), || {
        node.applied_seq() >= 1 && node.fresh()
    });

    // Sever the link for good: the hub (and its listener) go away.
    primary.hub.shutdown();
    wait_until("replica to notice the cut", Duration::from_secs(10), || {
        !node.connected()
    });
    // The frozen ledger *claims* full consistency — that is exactly the
    // lie the freshness gate exists for.
    assert_eq!(node.divergence_total(), 0);
    assert_eq!(node.lag_records(), 0);
    assert!(!node.fresh());

    // Strict read: busy-parked, not served.
    let mut reader = impatient(rserver.addr());
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .unwrap();
    match reader.read(ObjectId(0)).unwrap_err() {
        SessionError::Backend(msg) => assert!(is_busy_error(&msg), "{msg}"),
        other => panic!("unexpected error {other:?}"),
    }
    reader.abort().unwrap();

    // A bounded read is still served from the last known primary state.
    reader
        .begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
        .unwrap();
    assert_eq!(reader.read(ObjectId(0)).unwrap(), VALUE + 5);
    reader.commit().unwrap();

    rserver.shutdown();
    node.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// Two replicas fed by one primary both converge and serve.
#[test]
fn two_replicas_converge_independently() {
    let pdir = scratch("two-p");
    let r1dir = scratch("two-r1");
    let r2dir = scratch("two-r2");
    let primary = start_primary(&pdir, HierarchySchema::two_level(), 2);
    let (n1, s1) = start_replica(&r1dir, &primary, HierarchySchema::two_level(), 2);
    let (n2, s2) = start_replica(&r2dir, &primary, HierarchySchema::two_level(), 2);

    let mut writer = TcpConnection::connect(primary.tcp.local_addr()).unwrap();
    for i in 0..5 {
        commit_update(&mut writer, ObjectId(0), VALUE + i);
    }
    for node in [&n1, &n2] {
        wait_until("replica to apply", Duration::from_secs(10), || {
            node.applied_seq() >= 5
        });
        assert_eq!(node.value(ObjectId(0)), VALUE + 4);
        assert_eq!(node.divergence_total(), 0);
    }
    assert_eq!(hub_stats(&primary).peers.len(), 2);

    for (server, node) in [(&s1, &n1), (&s2, &n2)] {
        let mut reader = TcpConnection::connect(server.addr()).unwrap();
        reader
            .begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
            .unwrap();
        assert_eq!(reader.read(ObjectId(0)).unwrap(), VALUE + 4);
        reader.commit().unwrap();
        drop(reader);
        let _ = node;
    }

    s1.shutdown();
    s2.shutdown();
    n1.shutdown();
    n2.shutdown();
    primary.hub.shutdown();
    for d in [&pdir, &r1dir, &r2dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}
