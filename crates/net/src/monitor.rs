//! Live conformance monitoring for the networked server.
//!
//! [`ConformanceMonitor::spawn`] attaches a bounded capture log to the
//! kernel and runs an [`esr_checker::EsrMonitor`] on its own thread,
//! tailing the event stream with a [`CaptureCursor`]. The checker's
//! memory stays bounded by the active-transaction window (consumed
//! prefixes are truncated, committed graph prefixes are pruned), so the
//! monitor can ride along with an arbitrarily long-running `esr-tcpd`.
//!
//! Findings surface in two ways:
//!
//! - a [`MonitorSnapshot`] published under a mutex, which
//!   [`ConformanceMonitor::report_to`] makes the `monitor` block of every
//!   [`esr_server::ServerStats`] — scraping `esr_conformance_violations`
//!   is the production-facing signal;
//! - rate-limited `eprintln!` lines for the first diagnostics of each
//!   window, so a violating server is diagnosable from its log without
//!   the stderr volume scaling with the violation rate.
//!
//! The monitor is an observer, not an enforcer: it never blocks the
//! kernel (the capture log's mutex is a leaf, polls are batched), and a
//! lagging monitor loses old events — counted in `missed_events` — in
//! preference to stalling admission.

use esr_checker::EsrMonitor;
use esr_server::{MonitorSnapshot, RpcHandle};
use esr_tso::capture::EventKind;
use esr_tso::Kernel;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for a [`ConformanceMonitor`].
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Capture-log retention bound: how far the monitor may lag before
    /// the kernel evicts unread events (reported, never silent).
    pub capacity: usize,
    /// Maximum events consumed per poll.
    pub batch: usize,
    /// Sleep between polls when the stream is drained.
    pub idle: Duration,
    /// Minimum interval between violation log lines; diagnostics inside
    /// the window are counted and summarized at the next line.
    pub log_interval: Duration,
    /// Testing hook: after this many observed events, inject one
    /// synthetic out-of-protocol event so the violation path (metrics
    /// gauge, stderr line) can be exercised end to end.
    pub plant_violation_after: Option<u64>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            capacity: 65_536,
            batch: 1024,
            idle: Duration::from_millis(2),
            log_interval: Duration::from_secs(1),
            plant_violation_after: None,
        }
    }
}

struct Shared {
    snapshot: Mutex<MonitorSnapshot>,
}

/// Handle to the monitor thread. Dropping it stops the thread.
pub struct ConformanceMonitor {
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ConformanceMonitor {
    /// Attach a bounded capture log to `kernel` and start checking its
    /// event stream on a dedicated thread.
    ///
    /// Must be called before traffic starts: events admitted before the
    /// log attaches are simply never captured, and a monitor that joins
    /// mid-history would misreport already-running transactions.
    pub fn spawn(kernel: &Arc<Kernel>, config: MonitorConfig) -> ConformanceMonitor {
        let log = kernel.enable_capture_bounded(config.capacity.max(1));
        let mut cursor = log.tail();
        let mut checker = EsrMonitor::new(kernel.schema().clone(), *kernel.config());
        let shared = Arc::new(Shared {
            snapshot: Mutex::new(MonitorSnapshot::default()),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("esr-monitor".into())
                .spawn(move || {
                    let mut planted = config.plant_violation_after;
                    let mut logger = RateLimitedLog::new(config.log_interval);
                    loop {
                        let batch = cursor.poll(config.batch.max(1));
                        let drained = batch.is_empty();
                        if batch.missed > 0 {
                            checker.note_missed(batch.missed);
                        }
                        checker.ingest(&batch.events);
                        if let Some(after) = planted {
                            if checker.stats().events >= after {
                                // A write by a transaction that never
                                // began: unambiguously out of protocol.
                                checker.inject(&EventKind::UpdateRead {
                                    txn: esr_core::ids::TxnId(u64::MAX),
                                    obj: esr_core::ids::ObjectId(0),
                                    value: 0,
                                });
                                planted = None;
                            }
                        }
                        for diag in checker.take_diagnostics() {
                            if diag.is_error() {
                                logger.report(&diag);
                            }
                        }
                        *shared.snapshot.lock() = checker.stats();
                        if stop.load(Ordering::Relaxed) {
                            // One final drained poll already happened;
                            // exit with the published snapshot current.
                            if drained {
                                return;
                            }
                            continue;
                        }
                        if drained {
                            std::thread::park_timeout(config.idle);
                        }
                    }
                })
                .expect("spawn conformance monitor thread")
        };
        ConformanceMonitor {
            shared,
            stop,
            handle: Some(handle),
        }
    }

    /// The latest published counters (what the metrics endpoint exports).
    pub fn snapshot(&self) -> MonitorSnapshot {
        *self.shared.snapshot.lock()
    }

    /// Make the latest published counters the `monitor` block of every
    /// snapshot `server` assembles — in process, on the wire and on
    /// `/metrics` alike.
    pub fn report_to(&self, server: &RpcHandle) {
        let shared = Arc::clone(&self.shared);
        server.register_stats(move |stats| stats.monitor = Some(*shared.snapshot.lock()));
    }

    /// Stop the monitor thread after it drains whatever the capture log
    /// still holds. Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

impl Drop for ConformanceMonitor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Stderr reporter that prints at most one diagnostic per interval and
/// rolls everything in between into a suppression count, so a violation
/// storm costs bounded log volume.
struct RateLimitedLog {
    interval: Duration,
    last: Option<Instant>,
    suppressed: u64,
}

impl RateLimitedLog {
    fn new(interval: Duration) -> Self {
        RateLimitedLog {
            interval,
            last: None,
            suppressed: 0,
        }
    }

    fn report(&mut self, diag: &impl std::fmt::Display) {
        let now = Instant::now();
        let due = match self.last {
            None => true,
            Some(t) => now.duration_since(t) >= self.interval,
        };
        if !due {
            self.suppressed += 1;
            return;
        }
        if self.suppressed > 0 {
            eprintln!(
                "esr-monitor: violation: {diag} ({} more suppressed)",
                self.suppressed
            );
        } else {
            eprintln!("esr-monitor: violation: {diag}");
        }
        self.suppressed = 0;
        self.last = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_clock::Timestamp;
    use esr_core::bounds::Limit;
    use esr_core::ids::{ObjectId, SiteId, TxnKind};
    use esr_core::spec::TxnBounds;
    use esr_storage::catalog::CatalogConfig;
    use esr_tso::Kernel;

    fn kernel() -> Arc<Kernel> {
        let values: Vec<i64> = (0..8).map(|i| 1_000 + i * 37).collect();
        Arc::new(Kernel::with_defaults(
            CatalogConfig::default().build_with_values(&values),
        ))
    }

    #[test]
    fn monitor_tracks_a_clean_workload_and_drains_on_shutdown() {
        let k = kernel();
        let mut mon = ConformanceMonitor::spawn(
            &k,
            MonitorConfig {
                idle: Duration::from_millis(1),
                ..MonitorConfig::default()
            },
        );
        let mut txns = 0u64;
        for i in 0..200u64 {
            let ts = Timestamp::new(i + 1, SiteId(0));
            let txn = k.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO), ts);
            let obj = ObjectId((i % 8) as u32);
            let r = k.read(txn, obj).expect("read");
            assert!(!matches!(r.outcome, esr_tso::OpOutcome::Wait));
            let w = k.write(txn, obj, 2_000 + i as i64).expect("write");
            assert!(!matches!(w.outcome, esr_tso::OpOutcome::Wait));
            let _ = k.commit(txn).expect("commit");
            txns += 1;
        }
        mon.shutdown();
        let snap = mon.snapshot();
        // Begin + read + write + commit per transaction, all consumed.
        assert_eq!(snap.events, txns * 4, "{snap:?}");
        assert_eq!(snap.violations, 0, "{snap:?}");
        assert_eq!(snap.gaps, 0, "{snap:?}");
        assert_eq!(snap.missed_events, 0, "{snap:?}");
        assert_eq!(snap.live_txns, 0, "{snap:?}");
        assert_eq!(snap.graph_nodes, 0, "{snap:?}");
        // The serial prefix is fully pruned: nothing retained.
        assert_eq!(snap.retained_entries, 0, "{snap:?}");
    }

    #[test]
    fn planted_violation_fires_the_gauge() {
        let k = kernel();
        let mut mon = ConformanceMonitor::spawn(
            &k,
            MonitorConfig {
                idle: Duration::from_millis(1),
                plant_violation_after: Some(0),
                ..MonitorConfig::default()
            },
        );
        // One real event so the monitor loop runs at least once.
        let ts = Timestamp::new(1, SiteId(0));
        let txn = k.begin(TxnKind::Update, TxnBounds::export(Limit::ZERO), ts);
        let _ = k.commit(txn).expect("commit");
        mon.shutdown();
        let snap = mon.snapshot();
        assert!(snap.violations >= 1, "{snap:?}");
    }
}
