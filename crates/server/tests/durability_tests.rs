//! Durability integration: commit acknowledgements survive restart,
//! clean shutdown checkpoints, and every background thread joins.

use esr_core::bounds::Limit;
use esr_core::hierarchy::HierarchySchema;
use esr_core::ids::{ObjectId, TxnKind};
use esr_core::spec::TxnBounds;
use esr_server::{start_durable, Server, ServerConfig};
use esr_storage::catalog::CatalogConfig;
use esr_storage::wal::WalOptions;
use esr_tso::KernelConfig;
use esr_txn::Session;
use std::path::PathBuf;
use std::time::Duration;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esr-server-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn catalog(n: u32) -> CatalogConfig {
    CatalogConfig {
        n_objects: n,
        ..CatalogConfig::default()
    }
}

fn boot(dir: &PathBuf, n: u32, config: ServerConfig) -> (Server, esr_server::RecoverySummary) {
    start_durable(
        dir,
        &catalog(n),
        HierarchySchema::two_level(),
        KernelConfig::default(),
        config,
        WalOptions::default(),
    )
    .unwrap()
}

/// An acknowledged commit is on disk: kill the in-memory state (drop
/// without clean checkpoint replay being required — the log has it),
/// reboot from the same directory, and the value is there.
#[test]
fn acknowledged_commits_survive_restart() {
    let dir = tempdir("restart");
    {
        let (server, summary) = boot(&dir, 4, ServerConfig::default());
        assert!(!summary.had_state);
        assert_eq!(summary.replayed, 0);
        let mut c = server.connect();
        c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
            .unwrap();
        c.write(ObjectId(0), 111_111).unwrap();
        c.write(ObjectId(3), -5).unwrap();
        c.commit().unwrap();
        drop(c);
        // Server drops here: clean shutdown (final checkpoint + WAL join).
    }
    let (server, summary) = boot(&dir, 4, ServerConfig::default());
    assert!(summary.had_state);
    assert_eq!(
        summary.replayed, 0,
        "clean shutdown checkpointed; no replay needed"
    );
    assert_eq!(server.kernel().table().lock(ObjectId(0)).value, 111_111);
    assert_eq!(server.kernel().table().lock(ObjectId(3)).value, -5);
    // Stats surface the durability counters.
    let stats = server.stats();
    assert_eq!(stats.recoveries, 1);
    // And the restarted server still takes new transactions.
    let mut c = server.connect();
    c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    c.write(ObjectId(1), 42).unwrap();
    c.commit().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The log alone (no checkpoint) is enough: simulate a crash by
/// leaking the server so no final checkpoint is written, then recover.
#[test]
fn log_replay_rebuilds_state_after_unclean_stop() {
    let dir = tempdir("unclean");
    {
        let (server, _) = boot(&dir, 4, ServerConfig::default());
        let mut c = server.connect();
        for i in 0..5i64 {
            c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
                .unwrap();
            c.write(ObjectId(0), 1000 + i).unwrap();
            c.commit().unwrap();
        }
        drop(c);
        // Crash: never run shutdown. The sink's fsync already covered
        // every acknowledged commit, so forgetting the process loses
        // nothing. (The WAL flusher thread is detached with the leak;
        // it idles on a condvar and cannot touch the new boot's state.)
        std::mem::forget(server);
    }
    let (server, summary) = boot(&dir, 4, ServerConfig::default());
    assert!(summary.had_state);
    assert_eq!(summary.replayed, 5, "all five commits replay from the log");
    assert_eq!(server.kernel().table().lock(ObjectId(0)).value, 1004);
    assert!(
        summary.next_txn > 5,
        "journaled txn ids must not be reusable (got {})",
        summary.next_txn
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restart epoch: the recovered server's new commits must carry
/// timestamps above every pre-crash commit, or timestamp ordering
/// would abort them forever.
#[test]
fn restarted_clock_resumes_above_recovered_timestamps() {
    let dir = tempdir("epoch");
    {
        let (server, _) = boot(&dir, 2, ServerConfig::default());
        let mut c = server.connect();
        c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
            .unwrap();
        c.write(ObjectId(0), 7).unwrap();
        c.commit().unwrap();
    }
    let (server, summary) = boot(&dir, 2, ServerConfig::default());
    let pre_crash_wts = server.kernel().table().lock(ObjectId(0)).committed_wts;
    assert!(summary.clock_epoch_micros > pre_crash_wts.ticks);
    // A write to the same object must succeed, not abort as "late".
    let mut c = server.connect();
    c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    c.write(ObjectId(0), 8).unwrap();
    c.commit().unwrap();
    let post = server.kernel().table().lock(ObjectId(0));
    assert_eq!(post.value, 8);
    assert!(post.committed_wts > pre_crash_wts);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Periodic checkpoints prune the log: after enough commits and an
/// interval, a reboot replays only the post-checkpoint tail.
#[test]
fn periodic_checkpoints_bound_replay() {
    let dir = tempdir("periodic");
    {
        let config = ServerConfig {
            checkpoint_interval: Some(Duration::from_millis(20)),
            ..ServerConfig::default()
        };
        let (server, _) = boot(&dir, 2, config);
        let mut c = server.connect();
        for i in 0..20i64 {
            c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
                .unwrap();
            c.write(ObjectId(0), i).unwrap();
            c.commit().unwrap();
        }
        drop(c);
        // Let at least one periodic checkpoint land, then crash.
        std::thread::sleep(Duration::from_millis(120));
        // The stall each one cost and the size of its file are on the
        // stats, beside the log's own health.
        let stats = server.stats();
        let stalls = stats
            .histogram("checkpoint_micros")
            .expect("stall histogram");
        let sizes = stats.histogram("checkpoint_bytes").expect("size histogram");
        assert!(stalls.count >= 1, "no checkpoint was timed");
        assert!(sizes.count >= 1, "no checkpoint was sized");
        assert!(sizes.max > 100, "two objects take more than {}", sizes.max);
        assert!(!stats.wal_failed);
        std::mem::forget(server);
    }
    let (server, summary) = boot(&dir, 2, ServerConfig::default());
    assert!(
        summary.replayed < 20,
        "a periodic checkpoint should cover most of the log, replayed {}",
        summary.replayed
    );
    assert_eq!(server.kernel().table().lock(ObjectId(0)).value, 19);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A paged checkpoint flushes dirty pages and a directory snapshot
/// instead of writing a checkpoint file; it is timed and sized into the
/// same two series (they used to stay empty on a paged daemon).
#[test]
fn paged_checkpoints_are_timed_and_sized() {
    let dir = tempdir("paged-ckpt");
    let config = ServerConfig {
        cache_pages: Some(4),
        ..ServerConfig::default()
    };
    let (server, _) = boot(&dir, 64, config);
    let mut c = server.connect();
    for i in 0..8u32 {
        c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
            .unwrap();
        c.write(ObjectId(i * 8), i64::from(i)).unwrap();
        c.commit().unwrap();
    }
    assert!(server.kernel().checkpoint().unwrap().is_some());
    let stats = server.stats();
    assert_eq!(stats.histogram("checkpoint_micros").unwrap().count, 1);
    let sizes = stats.histogram("checkpoint_bytes").unwrap();
    assert_eq!(sizes.count, 1);
    assert!(
        sizes.max > 100,
        "pages and a directory: {} bytes",
        sizes.max
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Watchdog regression for shutdown joins: dropping a server with every
/// background thread alive — lease reaper, checkpointer, WAL
/// group-commit flusher — must terminate promptly. A hung join (e.g. a
/// stop flag checked before the park instead of after, or a flusher
/// waiting on a condvar nobody signals) trips the watchdog instead of
/// hanging the whole test binary.
#[test]
fn drop_joins_every_background_thread_within_watchdog() {
    let dir = tempdir("watchdog");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let dir2 = dir.clone();
    std::thread::spawn(move || {
        let config = ServerConfig {
            checkpoint_interval: Some(Duration::from_secs(3600)), // parked long
            reap_interval: Duration::from_secs(3600),             // parked long
            ..ServerConfig::default()
        };
        let (server, _) = start_durable(
            &dir2,
            &catalog(2),
            HierarchySchema::two_level(),
            KernelConfig {
                lease_micros: 60_000_000, // leases on → reaper spawned
                ..KernelConfig::default()
            },
            config,
            WalOptions::default(),
        )
        .unwrap();
        // Commit once so the WAL flusher has seen real work.
        let mut c = server.connect();
        c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
            .unwrap();
        c.write(ObjectId(0), 1).unwrap();
        c.commit().unwrap();
        drop(c);
        drop(server); // must join reaper + checkpointer + WAL
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server drop hung: a background thread was not joined");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a log whose disk fails makes the daemon refuse commits,
/// not wedge. The flusher used to latch `failed` and leave every waiter
/// parked: the first `End` below never answered, a checkpoint held the
/// commit gate for ever (so every later update commit blocked), and
/// `Server::shutdown` hung joining the checkpointer. The log's segment
/// is `/dev/full`, where every write fails with ENOSPC.
#[cfg(target_os = "linux")]
#[test]
fn a_failed_log_refuses_commits_instead_of_wedging_the_daemon() {
    use esr_storage::wal::Wal;
    use esr_tso::Kernel;
    use std::sync::Arc;

    let dir = tempdir("dev-full");
    std::os::unix::fs::symlink("/dev/full", dir.join(format!("wal-{:020}.esrlog", 1))).unwrap();
    let wal_dir = dir.clone();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let wal = Wal::open(&wal_dir, 1, WalOptions::default()).unwrap();
        let kernel = Kernel::with_defaults(catalog(4).build());
        kernel.enable_durability(Arc::new(wal));
        let config = ServerConfig {
            checkpoint_interval: Some(Duration::from_millis(10)),
            ..ServerConfig::default()
        };
        let server = Server::start(kernel, config);
        for value in [1, 2] {
            let mut c = server.connect();
            c.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
                .unwrap();
            c.write(ObjectId(0), value).unwrap();
            let err = c.commit().expect_err("acknowledged a commit the log lost");
            assert!(err.to_string().contains("durable"), "{err}");
            // A checkpoint may not cover what the log lost, and fails
            // rather than parking under the commit gate.
            assert!(server.kernel().checkpoint().is_err());
        }
        assert!(server.stats().wal_failed);
        drop(server); // joins the checkpointer, then stops the log
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a failed log wedged the daemon");
    worker.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
