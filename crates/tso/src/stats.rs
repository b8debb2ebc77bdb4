//! Kernel counters — the raw material for every figure in §8.

use serde::{Deserialize, Serialize};

esr_obs::metrics! {
    /// A point-in-time copy of the kernel counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct StatsSnapshot / KernelStats {
        series "esr_kernel_" {
            /// Transactions begun.
            counter begins,
            /// Query ETs committed.
            counter commits_query,
            /// Update ETs committed.
            counter commits_update,
            /// Query ETs aborted (each abort is a retry from the client's
            /// point of view — the Figure 9 metric counts these).
            counter aborts_query,
            /// Update ETs aborted.
            counter aborts_update,
            /// Read operations executed successfully (including reads of
            /// transactions that later abort — Figure 10 counts wasted work).
            counter reads,
            /// Write operations executed successfully.
            counter writes,
            /// Reads admitted despite viewing non-zero inconsistency
            /// (relaxation cases 1 and 2) — Figure 8.
            counter inconsistent_reads,
            /// Writes admitted despite exporting non-zero inconsistency
            /// (relaxation case 3) — Figure 8.
            counter inconsistent_writes,
            /// Operations parked on a wait queue.
            counter waits,
            /// Parked operations released by commits/aborts.
            counter wakes,
            /// Aborts caused by an object-level bound (OIL/OEL).
            counter violations_object,
            /// Aborts caused by a group-level bound (GIL/GEL).
            counter violations_group,
            /// Aborts caused by the transaction-level bound (TIL/TEL).
            counter violations_transaction,
            /// Aborts from late reads.
            counter late_read_aborts,
            /// Aborts from late writes.
            counter late_write_aborts,
            /// Proper-value lookups that fell off the bounded history.
            counter history_misses,
            /// Writes skipped under the Thomas write rule (ablation only).
            counter thomas_skips,
            /// Transactions aborted by the reaper (lease expiry or
            /// connection orphaning). Also counted in the plain abort
            /// counters, since reaping goes through the normal abort path.
            counter reaped_txns,
        }
    }
}

impl StatsSnapshot {
    /// Total commits.
    pub fn commits(&self) -> u64 {
        self.commits_query + self.commits_update
    }

    /// Total aborts (= retries, since clients resubmit until commit).
    pub fn aborts(&self) -> u64 {
        self.aborts_query + self.aborts_update
    }

    /// Total executed operations, reads plus writes (Figure 10).
    pub fn operations(&self) -> u64 {
        self.reads + self.writes
    }

    /// Successful inconsistent operations (Figure 8).
    pub fn inconsistent_ops(&self) -> u64 {
        self.inconsistent_reads + self.inconsistent_writes
    }

    /// Average operations executed per *committed* transaction,
    /// including work wasted in aborted attempts (Figure 13).
    pub fn ops_per_commit(&self) -> f64 {
        if self.commits() == 0 {
            0.0
        } else {
            self.operations() as f64 / self.commits() as f64
        }
    }
}

esr_obs::metrics! {
    /// Counters of a conformance monitor tailing this kernel's capture
    /// stream (`esr-checker`'s `EsrMonitor`, run live by `esr-tcpd
    /// --monitor`): what the monitor reports about itself, declared here
    /// so the checker that fills it in and the server snapshot that
    /// carries it share one type.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct MonitorSnapshot {
        series "esr_monitor_" {
            /// Error-level conformance diagnostics found so far. Zero on a
            /// healthy server; any other value means the kernel's ESR claims
            /// failed validation (or the stream gapped).
            gauge violations = "esr_conformance_violations",
            /// Capture events the monitor has processed.
            counter events,
            /// Capture stream sequence discontinuities observed.
            counter gaps,
            /// Events evicted from the capture log before the monitor read them.
            counter missed_events,
            /// Transactions currently live in the monitor's replay engine.
            gauge live_txns,
            /// Update transactions currently held in the conflict graph.
            gauge graph_nodes,
            /// Objects with retained access-log entries.
            gauge tracked_objects,
            /// Total retained access-log entries (the monitor's memory bound).
            gauge retained_entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn snapshot_reflects_increments() {
        let live = KernelStats::new();
        live.reads.fetch_add(3, Ordering::Relaxed);
        live.commits_query.fetch_add(2, Ordering::Relaxed);
        live.commits_update.fetch_add(1, Ordering::Relaxed);
        let s = live.snapshot();
        assert_eq!(s.reads, 3);
        assert_eq!(s.commits(), 3);
        assert_eq!(s.operations(), 3);
    }

    #[test]
    fn since_isolates_window() {
        let live = KernelStats::new();
        live.reads.fetch_add(10, Ordering::Relaxed);
        let warmup = live.snapshot();
        live.reads.fetch_add(5, Ordering::Relaxed);
        live.writes.fetch_add(2, Ordering::Relaxed);
        let end = live.snapshot();
        let window = end.since(&warmup);
        assert_eq!(window.reads, 5);
        assert_eq!(window.writes, 2);
        assert_eq!(window.operations(), 7);
    }

    #[test]
    fn derived_metrics() {
        let s = StatsSnapshot {
            commits_query: 4,
            commits_update: 6,
            aborts_query: 1,
            aborts_update: 2,
            reads: 80,
            writes: 20,
            inconsistent_reads: 7,
            inconsistent_writes: 3,
            ..StatsSnapshot::default()
        };
        assert_eq!(s.commits(), 10);
        assert_eq!(s.aborts(), 3);
        assert_eq!(s.inconsistent_ops(), 10);
        assert!((s.ops_per_commit() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn ops_per_commit_handles_zero() {
        assert_eq!(StatsSnapshot::default().ops_per_commit(), 0.0);
    }

    #[test]
    fn since_saturates() {
        let a = StatsSnapshot {
            reads: 1,
            ..Default::default()
        };
        let b = StatsSnapshot {
            reads: 5,
            ..Default::default()
        };
        assert_eq!(a.since(&b).reads, 0);
    }
}
