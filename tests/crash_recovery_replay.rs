//! Crash recovery under the conformance checker: a captured run is
//! interrupted by a simulated crash (the server is leaked, never shut
//! down, so nothing is flushed beyond what group commit already
//! fsynced), the write-ahead log is recovered, and a second captured
//! run continues from the recovered state.
//!
//! The claims under test:
//!
//! - the post-crash history replays **clean** through `esr-checker` —
//!   recovery reconstructs object state (values, write timestamps,
//!   proper-value history, epsilon ledgers) faithfully enough that the
//!   continuation violates no ordering rule or epsilon bound;
//! - conservation holds on both sides of the crash: every begun
//!   transaction ends exactly once per kernel lifetime (the crash
//!   itself ends nothing — in-flight transactions simply vanish with
//!   the process, exactly like the in-memory state they touched);
//! - every commit acknowledged before the crash is visible after it.

use esr::checker::check_history;
use esr::server::{Server, ServerConfig};
use esr::storage::catalog::CatalogConfig;
use esr::storage::{recover, Wal, WalOptions};
use esr::tso::{Kernel, KernelConfig};
use esr_core::bounds::Limit;
use esr_core::hierarchy::HierarchySchema;
use esr_core::ids::{ObjectId, TxnKind};
use esr_core::spec::TxnBounds;
use esr_txn::Session;
use std::path::PathBuf;
use std::sync::Arc;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esr-replay-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn catalog() -> CatalogConfig {
    CatalogConfig {
        n_objects: 8,
        value_lo: 5_000,
        value_hi: 5_000,
        ..CatalogConfig::default()
    }
}

/// Build a durable, capture-enabled kernel on `dir` (recovering
/// whatever a previous life left there) and start a server over it.
fn boot(dir: &std::path::Path) -> (Server, u64) {
    let rec = recover(dir, &catalog()).expect("recover");
    let wal = Wal::open(dir, rec.next_seq, WalOptions::default()).expect("open wal");
    let replayed = rec.replayed;
    let kernel = Kernel::new(
        esr::storage::table::ObjectTable::new(rec.states),
        HierarchySchema::two_level(),
        KernelConfig::default(),
    );
    kernel.restore_next_txn(rec.next_txn);
    kernel.enable_capture();
    kernel.enable_durability(Arc::new(wal));
    (
        Server::start(
            kernel,
            ServerConfig {
                clock_epoch_micros: rec.max_ts_ticks + 1_000_000,
                ..ServerConfig::default()
            },
        ),
        replayed,
    )
}

#[test]
fn post_crash_history_replays_clean_through_the_checker() {
    let dir = tempdir("checker");

    // Phase 1: updates and bounded queries, then a crash with no
    // shutdown (the server and its kernel are deliberately leaked).
    let (server, replayed) = boot(&dir);
    assert_eq!(replayed, 0, "fresh directory replayed records");
    let mut acked = Vec::new();
    for i in 0..6i64 {
        let mut c = server.connect();
        c.begin(TxnKind::Update, TxnBounds::export(Limit::at_most(500)))
            .unwrap();
        let obj = ObjectId((i % 4) as u32);
        let v = c.read(obj).unwrap();
        c.write(obj, v + 100).unwrap();
        c.commit().unwrap();
        acked.push((obj, v + 100));
    }
    let mut q = server.connect();
    q.begin(TxnKind::Query, TxnBounds::import(Limit::at_most(1_000)))
        .unwrap();
    for i in 0..4 {
        q.read(ObjectId(i)).unwrap();
    }
    q.commit().unwrap();
    // One transaction is mid-flight when the crash hits: begun and
    // written but never ended. It must neither survive nor leak.
    let mut orphan = server.connect();
    orphan
        .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    orphan.write(ObjectId(7), 1).unwrap();

    let pre = server.kernel().stats();
    let pre_history = server.kernel().capture_history().expect("capture on");
    // Phase-1 conservation *minus* the in-flight orphan.
    assert_eq!(pre.begins, pre.commits() + pre.aborts() + 1);
    let report = check_history(&pre_history);
    assert!(report.is_clean(), "pre-crash history dirty:\n{report}");
    std::mem::forget(orphan);
    std::mem::forget(server); // crash: no checkpoint, no clean shutdown

    // Phase 2: recover and continue under capture.
    let (server, replayed) = boot(&dir);
    assert_eq!(replayed, 6, "every acked commit must be in the log");
    let mut c = server.connect();
    c.begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
        .unwrap();
    for &(obj, want) in acked.iter().rev().take(4) {
        assert_eq!(c.read(obj).unwrap(), want, "lost acked write to {obj:?}");
    }
    assert_eq!(
        c.read(ObjectId(7)).unwrap(),
        5_000,
        "the in-flight orphan's write must not survive the crash"
    );
    c.commit().unwrap();
    // More updates on the recovered state, including objects the
    // pre-crash run wrote (their recovered history rings and write
    // timestamps must admit new timestamp-ordered traffic).
    for i in 0..6i64 {
        let mut c = server.connect();
        c.begin(TxnKind::Update, TxnBounds::export(Limit::at_most(500)))
            .unwrap();
        let obj = ObjectId((i % 4) as u32);
        let v = c.read(obj).unwrap();
        c.write(obj, v + 10).unwrap();
        c.commit().unwrap();
    }
    let post = server.kernel().stats();
    assert_eq!(
        post.begins,
        post.commits() + post.aborts(),
        "post-crash conservation violated"
    );
    assert!(post.commits_update >= 6, "recovered kernel refused updates");
    let history = server.kernel().capture_history().expect("capture on");
    let report = check_history(&history);
    assert!(
        report.is_clean(),
        "post-crash continuation failed conformance:\n{report}"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
