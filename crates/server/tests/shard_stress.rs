//! Multi-threaded stress over the sharded kernel: many driver threads
//! hammering a tiny hot-key set through in-process connections, so
//! parks, wakes, cross-thread commits, and abort-retries all race
//! across registry and wait-queue shards. The monotonic counters must
//! balance exactly and every queue must drain — lost wakeups,
//! double-completions, or leaked registry entries all break the
//! invariants below.

use esr_core::bounds::Limit;
use esr_core::ids::{ObjectId, TxnKind};
use esr_core::spec::TxnBounds;
use esr_server::{Connection, Server, ServerConfig};
use esr_storage::catalog::CatalogConfig;
use esr_tso::{Kernel, KernelConfig};
use esr_txn::{Session, SessionError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const THREADS: usize = 8;
const TXNS_PER_THREAD: usize = 150;
/// Hot-key workload: every transaction touches a handful of objects so
/// conflicts (waits, late aborts) are the norm, not the exception.
const HOT_OBJECTS: u32 = 5;

/// Tiny deterministic per-thread generator (xorshift); no shared rng,
/// no locking in the driver loop.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Every thread's first transaction meets the same hot key, so parks and
/// wakes happen on every run rather than when the random mix happens to
/// collide. Thread 0 holds an uncommitted write on object 0 while the
/// others, begun after it (later timestamps), read it strictly and park;
/// it commits once one of them is parked. Returns whether the
/// transaction committed.
fn first_txn_meets_the_hot_key(
    t: usize,
    conn: &mut Connection,
    start: &Barrier,
    kernel: &Kernel,
) -> bool {
    if t == 0 {
        conn.begin(TxnKind::Update, TxnBounds::export(Limit::Unlimited))
            .expect("begin never fails");
        conn.write(ObjectId(0), 7)
            .expect("the first write meets no one");
        start.wait();
        let deadline = Instant::now() + Duration::from_secs(10);
        while kernel.waitq_depth() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        conn.commit().expect("the writer commits");
        return true;
    }
    start.wait();
    conn.begin(TxnKind::Query, TxnBounds::import(Limit::ZERO))
        .expect("begin never fails");
    match conn.read(ObjectId(0)) {
        Ok(_) => {
            conn.commit().expect("a strict query commits");
            true
        }
        Err(SessionError::Aborted(_)) => false,
        Err(e) => panic!("unexpected session error: {e:?}"),
    }
}

#[test]
fn stress_hot_keys_across_shards_preserves_invariants() {
    let values: Vec<i64> = (0..HOT_OBJECTS as i64).map(|i| 1_000 * (i + 1)).collect();
    let table = CatalogConfig::default().build_with_values(&values);
    let kernel = Kernel::new(
        table,
        esr_core::hierarchy::HierarchySchema::two_level(),
        KernelConfig {
            shards: 16,
            ..KernelConfig::default()
        },
    );
    let server = Server::start(kernel, ServerConfig::default());

    let attempted = Arc::new(AtomicU64::new(0));
    let committed = Arc::new(AtomicU64::new(0));
    let aborted = Arc::new(AtomicU64::new(0));

    let start = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let mut conn = server.connect();
            let attempted = Arc::clone(&attempted);
            let committed = Arc::clone(&committed);
            let aborted = Arc::clone(&aborted);
            let start = Arc::clone(&start);
            let kernel = Arc::clone(server.kernel());
            std::thread::spawn(move || {
                attempted.fetch_add(1, Ordering::Relaxed);
                let outcome = if first_txn_meets_the_hot_key(t, &mut conn, &start, &kernel) {
                    &committed
                } else {
                    &aborted
                };
                outcome.fetch_add(1, Ordering::Relaxed);
                let mut rng = Lcg(0x9E3779B9 + t as u64 * 0x10001);
                for _ in 1..TXNS_PER_THREAD {
                    let is_query = rng.below(100) < 50;
                    let begun = if is_query {
                        // Mix of strict (parks behind writers) and
                        // relaxed (reads through them) queries.
                        let til = if rng.below(2) == 0 {
                            Limit::ZERO
                        } else {
                            Limit::Unlimited
                        };
                        conn.begin(TxnKind::Query, TxnBounds::import(til))
                    } else {
                        conn.begin(TxnKind::Update, TxnBounds::export(Limit::Unlimited))
                    };
                    begun.expect("begin never fails");
                    attempted.fetch_add(1, Ordering::Relaxed);
                    let n_ops = 1 + rng.below(4);
                    let mut aborted_early = false;
                    for _ in 0..n_ops {
                        let obj = ObjectId(rng.below(HOT_OBJECTS as u64) as u32);
                        let res = if is_query || rng.below(2) == 0 {
                            conn.read(obj).map(|_| ())
                        } else {
                            conn.write(obj, rng.below(100_000) as i64)
                        };
                        match res {
                            Ok(()) => {}
                            Err(SessionError::Aborted(_)) => {
                                aborted.fetch_add(1, Ordering::Relaxed);
                                aborted_early = true;
                                break;
                            }
                            Err(e) => panic!("unexpected session error: {e:?}"),
                        }
                    }
                    if aborted_early {
                        continue;
                    }
                    if rng.below(100) < 90 {
                        match conn.commit() {
                            Ok(_) => {
                                committed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("commit failed: {e:?}"),
                        }
                    } else {
                        conn.abort().expect("client abort succeeds");
                        aborted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("driver thread panicked");
    }

    let stats = server.kernel().stats();
    let attempted = attempted.load(Ordering::Relaxed);
    assert_eq!(attempted, (THREADS * TXNS_PER_THREAD) as u64);
    assert_eq!(stats.begins, attempted, "every begin reached the kernel");
    // Conservation: every transaction ended exactly one way.
    assert_eq!(
        stats.commits_query + stats.commits_update + stats.aborts_query + stats.aborts_update,
        stats.begins,
        "commits + aborts must equal begins: {stats:?}"
    );
    // Client-side tallies agree with the kernel's.
    assert_eq!(
        stats.commits_query + stats.commits_update,
        committed.load(Ordering::Relaxed)
    );
    assert_eq!(
        stats.aborts_query + stats.aborts_update,
        aborted.load(Ordering::Relaxed)
    );
    // Quiescence: nothing parked, nothing still registered — a leaked
    // wait-queue entry or registry shard entry shows up here.
    assert_eq!(server.kernel().waitq_depth(), 0, "wait queues must drain");
    assert_eq!(server.kernel().active_txns(), 0, "registry must drain");
    // The hot-key workload must actually have contended.
    assert!(stats.waits > 0, "expected parks under hot keys: {stats:?}");
    assert!(stats.wakes > 0, "expected wakes under hot keys: {stats:?}");
}
