//! Crash recovery with the paged buffer pool under the conformance
//! checker: the same contract `crash_recovery_replay.rs` pins for the
//! resident table, re-proven with the object table behind the pager —
//! under deliberate eviction pressure (a cache of two frames over an
//! eight-page database), so dirty write-backs, reload-after-eviction,
//! and the WAL-before-page invariant are all on the hot path when the
//! "power" goes out.
//!
//! The claims under test:
//!
//! - recovery from a paged directory (snapshot + log tail) reconstructs
//!   object state faithfully enough that a captured continuation
//!   replays **clean** through `esr-checker`;
//! - every acknowledged commit survives the crash; an in-flight orphan
//!   does not — even when its uncommitted write was evicted to disk
//!   (shadowed) before the crash;
//! - an *incremental* checkpoint (dirty-page flush + directory
//!   snapshot) composes with the log tail: after a checkpoint, only
//!   post-checkpoint records replay on the next boot.

use esr::checker::check_history;
use esr::server::{Server, ServerConfig};
use esr::storage::catalog::CatalogConfig;
use esr::storage::table::ObjectTable;
use esr::storage::{recover_paged, PagerConfig, Wal, WalOptions};
use esr::tso::{Kernel, KernelConfig};
use esr_core::bounds::Limit;
use esr_core::hierarchy::HierarchySchema;
use esr_core::ids::{ObjectId, TxnKind};
use esr_core::spec::TxnBounds;
use esr_txn::Session;
use std::path::PathBuf;
use std::sync::Arc;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esr-pager-replay-{tag}-{}", std::process::id()));
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

/// Tiny pages, one shard, two frames: every transaction faults pages
/// in and evicts others out.
fn pager_config() -> PagerConfig {
    PagerConfig {
        page_size: 512,
        cache_pages: 2,
        shards: 1,
        ..PagerConfig::default()
    }
}

/// Build a durable, capture-enabled, *paged* kernel on `dir` and start
/// a server over it — the same sequence `start_durable` runs with a
/// cache budget, plus capture.
fn boot(dir: &std::path::Path) -> (Server, u64) {
    let rec = recover_paged(dir, &catalog(), &pager_config()).expect("recover paged");
    let wal = Wal::open(dir, rec.next_seq, WalOptions::default()).expect("open wal");
    let replayed = rec.replayed;
    let kernel = Kernel::new(
        ObjectTable::paged(Arc::new(rec.heap)),
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

/// `n` update transactions bumping objects round-robin; returns the
/// acked (object, value) pairs.
fn run_updates(server: &Server, n: i64, bump: i64) -> Vec<(ObjectId, i64)> {
    let mut acked = Vec::new();
    for i in 0..n {
        let mut c = server.connect();
        c.begin(TxnKind::Update, TxnBounds::export(Limit::at_most(500)))
            .unwrap();
        let obj = ObjectId((i % 8) as u32);
        let v = c.read(obj).unwrap();
        c.write(obj, v + bump).unwrap();
        c.commit().unwrap();
        acked.push((obj, v + bump));
    }
    acked
}

#[test]
fn paged_post_crash_history_replays_clean_through_the_checker() {
    let dir = tempdir("checker");

    // Phase 1: updates under eviction pressure, an in-flight orphan,
    // then a crash with no shutdown (server and kernel leaked — only
    // what group commit fsynced survives).
    let (server, replayed) = boot(&dir);
    assert_eq!(replayed, 0, "fresh directory replayed records");
    let acked = run_updates(&server, 12, 100);
    let stats = server
        .kernel()
        .table()
        .page_cache_stats()
        .expect("paged table");
    assert!(
        stats.evictions > 0,
        "phase 1 must churn the cache: {stats:?}"
    );
    let mut orphan = server.connect();
    orphan
        .begin(TxnKind::Update, TxnBounds::export(Limit::ZERO))
        .unwrap();
    orphan.write(ObjectId(7), 1).unwrap();
    // Force the orphan's *uncommitted* write out to disk: a query scan
    // over every object evicts page 7, shadow and all. Recovery must
    // still roll it back (epoch sanitization).
    let mut scan = server.connect();
    scan.begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
        .unwrap();
    for i in 0..8 {
        scan.read(ObjectId(i)).unwrap();
    }
    scan.commit().unwrap();

    let pre_history = server.kernel().capture_history().expect("capture on");
    let report = check_history(&pre_history);
    assert!(report.is_clean(), "pre-crash history dirty:\n{report}");
    std::mem::forget(orphan);
    std::mem::forget(server); // crash: no checkpoint, no clean shutdown

    // Phase 2: recover, verify, checkpoint incrementally, keep going,
    // crash again.
    let (server, replayed) = boot(&dir);
    assert_eq!(replayed, 12, "every acked commit must be in the log");
    let mut c = server.connect();
    c.begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
        .unwrap();
    for &(obj, want) in acked.iter().rev().take(8) {
        assert_eq!(c.read(obj).unwrap(), want, "lost acked write to {obj:?}");
    }
    c.commit().unwrap();
    let before_ckpt = run_updates(&server, 6, 10);
    // The incremental checkpoint: flush dirty pages, snapshot the
    // directory, prune the log.
    server.kernel().checkpoint().expect("checkpoint");
    let after_ckpt = run_updates(&server, 5, 10);
    let history = server.kernel().capture_history().expect("capture on");
    let report = check_history(&history);
    assert!(
        report.is_clean(),
        "post-crash continuation failed conformance:\n{report}"
    );
    std::mem::forget(server); // second crash

    // Phase 3: only the post-checkpoint tail replays; everything is
    // still there.
    let (server, replayed) = boot(&dir);
    assert_eq!(
        replayed, 5,
        "an incremental checkpoint must absorb the records before it"
    );
    let mut c = server.connect();
    c.begin(TxnKind::Query, TxnBounds::import(Limit::Unlimited))
        .unwrap();
    for &(obj, want) in after_ckpt.iter().rev().take(8) {
        assert_eq!(c.read(obj).unwrap(), want, "lost post-ckpt write");
    }
    assert_eq!(
        c.read(ObjectId(7)).unwrap(),
        // Object 7 saw: phase-1 rounds at +100 (indices 7 of 12 → one
        // hit) plus phase-2 rounds at +10; recompute from the acked
        // lists rather than hard-coding.
        last_value_for(ObjectId(7), &[&acked, &before_ckpt, &after_ckpt], 5_000),
        "orphan write must not survive; committed history must"
    );
    c.commit().unwrap();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The last acked value for `obj` across the phases, or `initial`.
fn last_value_for(obj: ObjectId, phases: &[&Vec<(ObjectId, i64)>], initial: i64) -> i64 {
    phases
        .iter()
        .flat_map(|p| p.iter())
        .filter(|(o, _)| *o == obj)
        .map(|&(_, v)| v)
        .next_back()
        .unwrap_or(initial)
}
