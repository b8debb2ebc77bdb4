//! From what a run measured to its named metrics.
//!
//! Sources: **S** = wire `Stats` delta over the measured phase, **C** =
//! the client side of the benchmark (records, spans, `/proc`). The
//! **P** metrics come from `layers.rs`.

use crate::client::{Class, TxnRecord};
use crate::stats::{hist_delta, median, sliced_percentile_us, Metric};
use crate::trace::Span;
use esr_obs::HistogramSnapshot;
use esr_server::ServerStats;
use std::collections::BTreeMap;
use std::time::Duration;

pub type Metrics = BTreeMap<String, Metric>;

/// Everything read at one instant of the run.
pub struct Sample {
    pub at_ns: u64,
    pub stats: ServerStats,
    /// CPU time of all daemons, microseconds.
    pub cpu_us: u64,
    /// Bytes all daemons sent to the storage layer.
    pub write_bytes: u64,
    /// Peak resident set of all daemons so far, kB.
    pub peak_rss_kb: u64,
}

/// Replica gauges read once per slice.
pub struct ReplTick {
    /// Seconds since the previous tick.
    pub seconds: f64,
    pub applied_seq: u64,
    pub lag_records: u64,
    pub lag_micros: u64,
    pub divergence: u64,
    /// Update commits on the primary the replica has not yet received.
    pub ship_lag: u64,
}

/// What the ticker gathered while the clients ran.
pub struct Measured {
    pub start: Sample,
    pub end: Sample,
    /// Nanoseconds since the epoch at which slice 0 began.
    pub slices_from_ns: u64,
    pub slices: u64,
    /// Length of one slice.
    pub slice: Duration,
    pub stats_rpc_us: Vec<f64>,
    pub repl: Vec<ReplTick>,
}

impl Measured {
    /// `(end_ns, value)` samples grouped by the slice they ended in.
    fn by_slice<T>(&self, samples: impl Iterator<Item = (u64, T)>) -> Vec<Vec<T>> {
        let mut out: Vec<Vec<T>> = (0..self.slices).map(|_| Vec::new()).collect();
        for (end_ns, value) in samples {
            let slice = end_ns.saturating_sub(self.slices_from_ns) / self.slice.as_nanos() as u64;
            if end_ns >= self.slices_from_ns && slice < self.slices {
                out[slice as usize].push(value);
            }
        }
        out
    }

    /// A histogram of the daemon's cut down to the measured phase.
    fn hist(&self, name: &str) -> HistogramSnapshot {
        let of = |s: &Sample| s.stats.histogram(name).cloned().unwrap_or_default();
        hist_delta(&of(&self.end), &of(&self.start))
    }
}

/// What the clients add up to over their whole life.
pub struct ClientTotals {
    pub attempted: u64,
    pub failed: u64,
    pub commits: u64,
    pub resends: u64,
    /// The same two for the clients reading on the replica.
    pub replica_commits: u64,
    pub replica_resends: u64,
}

/// What the checks measured on the side.
#[derive(Default)]
pub struct SideTimes {
    pub handshakes_us: Vec<f64>,
    pub restart_ms: f64,
    pub catchup_ms: f64,
    /// Size of the primary's data directory at the end of the measured
    /// phase, and the objects it holds (0 when not durable).
    pub disk_bytes: u64,
    pub objects: u64,
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn is_update(r: &TxnRecord) -> bool {
    r.class == Class::Update
}

/// Response-time percentile `q` of the committed transactions that pass
/// `keep`, by slice.
fn latency(m: &Measured, records: &[TxnRecord], keep: fn(&TxnRecord) -> bool, q: f64) -> Metric {
    let kept = records.iter().filter(|r| keep(r));
    sliced_percentile_us(&m.by_slice(kept.map(|r| (r.end_ns, r.latency_ns))), q)
}

/// Commits per second of each slice.
fn slice_rates(m: &Measured, records: &[TxnRecord]) -> Vec<f64> {
    m.by_slice(records.iter().map(|r| (r.end_ns, ())))
        .iter()
        .map(|s| s.len() as f64 / m.slice.as_secs_f64())
        .collect()
}

/// The commits acknowledged between the two samples.
fn in_window<'a>(
    m: &'a Measured,
    records: &'a [TxnRecord],
) -> impl Iterator<Item = &'a TxnRecord> + Clone {
    records.iter().filter(|r| (m.start.at_ns..m.end.at_ns).contains(&r.end_ns))
}

fn insert_all(
    into: &mut Metrics,
    rows: impl IntoIterator<Item = (String, f64, &'static str, u64)>,
) {
    for (name, value, unit, n) in rows {
        into.insert(name, Metric::whole(value, unit, n));
    }
}

pub fn end_to_end(m: &Measured, records: &[TxnRecord], setup_s: &[f64]) -> Metrics {
    let commits = in_window(m, records).count() as u64;
    let mut out = Metrics::new();
    out.insert("setup_s".to_owned(), Metric::over(setup_s, "s", setup_s.len() as u64));
    out.insert("txn_per_s".to_owned(), Metric::over(&slice_rates(m, records), "1/s", commits));
    out.insert("query_p50_us".to_owned(), latency(m, records, |r| !is_update(r), 0.50));
    out.insert("query_p95_us".to_owned(), latency(m, records, |r| !is_update(r), 0.95));
    out.insert("update_p50_us".to_owned(), latency(m, records, is_update, 0.50));
    out.insert("update_p95_us".to_owned(), latency(m, records, is_update, 0.95));
    insert_all(
        &mut out,
        [
            (
                "server_cpu_us_per_txn".to_owned(),
                ratio(m.end.cpu_us - m.start.cpu_us, commits),
                "us",
                commits,
            ),
            ("server_rss_mb".to_owned(), m.end.peak_rss_kb as f64 / 1024.0, "MB", 1),
        ],
    );
    out
}

/// The per-layer metrics every run can compute: `Stats` deltas and
/// client-side counts.
pub fn per_layer(
    m: &Measured,
    records: &[TxnRecord],
    totals: &ClientTotals,
    side: &SideTimes,
) -> Metrics {
    let mut out = Metrics::new();
    let window = m.end.stats.kernel.since(&m.start.stats.kernel);
    let commits = window.commits();
    let updates = window.commits_update;
    let mut rows: Vec<(String, f64, &'static str, u64)> = Vec::new();
    let mut row = |name: &str, value: f64, unit: &'static str, n: u64| {
        rows.push((name.to_owned(), value, unit, n));
    };

    // server, tso: the daemon's own histograms and counters (S)
    for kind in ["begin", "op", "batch", "end"] {
        let h = m.hist(&format!("server_{kind}_service_micros"));
        row(&format!("server.{kind}_service_p50_us"), h.p50() as f64, "us", h.count);
    }
    let end_service = m.hist("server_end_service_micros");
    row("server.end_service_p95_us", end_service.p95() as f64, "us", end_service.count);
    let op_wait = m.hist("server_op_queue_wait_micros");
    let end_wait = m.hist("server_end_queue_wait_micros");
    row("server.op_queue_wait_p50_us", op_wait.p50() as f64, "us", op_wait.count);
    row("server.op_queue_wait_p95_us", op_wait.p95() as f64, "us", op_wait.count);
    row("server.end_queue_wait_p50_us", end_wait.p50() as f64, "us", end_wait.count);
    let op_service = m.hist("kernel_op_service_micros");
    let park = m.hist("kernel_park_wait_micros");
    row("tso.op_service_p50_us", op_service.p50() as f64, "us", op_service.count);
    row("tso.park_wait_p50_us", park.p50() as f64, "us", park.count);
    row("tso.park_wait_p95_us", park.p95() as f64, "us", park.count);
    for (name, count) in [
        ("aborts", window.aborts()),
        ("waits", window.waits),
        ("late_read_aborts", window.late_read_aborts),
        ("late_write_aborts", window.late_write_aborts),
        ("inconsistent_ops", window.inconsistent_ops()),
        ("violations_object", window.violations_object),
        ("violations_transaction", window.violations_transaction),
        ("history_misses", window.history_misses),
        ("ops", window.operations()),
    ] {
        row(&format!("tso.{name}_per_commit"), ratio(count, commits), "count", commits);
    }
    let retry_frames = m.end.stats.retries - m.start.stats.retries;
    row("net.busy_rejects_per_commit", ratio(retry_frames, commits), "count", commits);
    row("net.resends_per_commit", ratio(totals.resends, totals.commits), "count", totals.commits);

    // storage (S, and C for what /proc and the directory say)
    let fsyncs = m.hist("fsync_micros");
    let wal_bytes = m.end.stats.wal_bytes - m.start.stats.wal_bytes;
    let client_updates = in_window(m, records).filter(|r| is_update(r)).count() as u64;
    let disk_writes = m.end.write_bytes - m.start.write_bytes;
    row("storage.fsync_p50_us", fsyncs.p50() as f64, "us", fsyncs.count);
    row("storage.fsync_p95_us", fsyncs.p95() as f64, "us", fsyncs.count);
    row("storage.commits_per_fsync", ratio(updates, fsyncs.count), "count", fsyncs.count);
    row("storage.wal_bytes_per_commit", ratio(wal_bytes, updates), "B", updates);
    row(
        "storage.disk_write_kb_per_commit",
        ratio(disk_writes, client_updates) / 1024.0,
        "KB",
        client_updates,
    );
    row("storage.restart_ms", side.restart_ms, "ms", u64::from(side.restart_ms > 0.0));
    row("storage.disk_bytes_per_object", ratio(side.disk_bytes, side.objects), "B", side.objects);
    if let (Some(a), Some(b)) = (&m.start.stats.page_cache, &m.end.stats.page_cache) {
        let (hits, misses) = (b.hits - a.hits, b.misses - a.misses);
        row("storage.page_hit_rate", ratio(hits, hits + misses), "share", hits + misses);
        row("storage.page_misses_per_commit", ratio(misses, commits), "count", commits);
        row(
            "storage.page_evictions_per_commit",
            ratio(b.evictions - a.evictions, commits),
            "count",
            commits,
        );
        row(
            "storage.page_dirty_flushes_per_commit",
            ratio(b.dirty_flushes - a.dirty_flushes, commits),
            "count",
            commits,
        );
    }

    // replication: the replica's gauges, one reading per slice (S)
    if !m.repl.is_empty() {
        let p95 = |gauge: fn(&ReplTick) -> u64| {
            let mut v: Vec<u64> = m.repl.iter().map(gauge).collect();
            v.sort_unstable();
            v[(v.len() * 95).div_ceil(100).clamp(1, v.len()) - 1] as f64
        };
        let ticks = m.repl.len() as u64;
        // The first tick has no predecessor to difference against.
        let apply: Vec<f64> = m
            .repl
            .windows(2)
            .map(|t| (t[1].applied_seq - t[0].applied_seq) as f64 / t[1].seconds)
            .collect();
        let asked = totals.replica_resends + totals.replica_commits;
        row("net.repl_apply_per_s", median(&apply), "1/s", apply.len() as u64);
        row("net.repl_lag_records_p95", p95(|t| t.lag_records), "count", ticks);
        row("net.repl_lag_p95_us", p95(|t| t.lag_micros), "us", ticks);
        row("net.repl_divergence_p95", p95(|t| t.divergence), "count", ticks);
        row("net.repl_peer_lag_records_p95", p95(|t| t.ship_lag), "count", ticks);
        row("net.repl_reject_share", ratio(totals.replica_resends, asked), "share", asked);
        row("net.repl_catchup_ms", side.catchup_ms, "ms", 1);
    }

    // clock, obs, txn (C)
    let handshakes = side.handshakes_us.len() as u64;
    row("clock.handshake_us", median(&side.handshakes_us), "us", handshakes);
    row("obs.stats_rpc_us", median(&m.stats_rpc_us), "us", m.stats_rpc_us.len() as u64);
    let per_commit = |keep: fn(&TxnRecord) -> bool, count: fn(&TxnRecord) -> u32| {
        let kept = in_window(m, records).filter(|r| keep(r));
        let n = kept.clone().count() as u64;
        (ratio(kept.map(|r| u64::from(count(r))).sum(), n), n)
    };
    let strict = |r: &TxnRecord| r.class == Class::StrictQuery;
    let relaxed = |r: &TxnRecord| r.class == Class::RelaxedQuery;
    for (name, keep, count) in [
        (
            "txn.restarts_per_commit",
            (|_| true) as fn(&TxnRecord) -> bool,
            (|r| r.restarts) as fn(&TxnRecord) -> u32,
        ),
        ("txn.rpcs_per_commit", |_| true, |r| r.rpcs),
        ("txn.strict_restarts_per_commit", strict, |r| r.restarts),
        ("txn.relaxed_restarts_per_commit", relaxed, |r| r.restarts),
    ] {
        let (value, n) = per_commit(keep, count);
        row(name, value, "count", n);
    }
    row("txn.failed_share", ratio(totals.failed, totals.attempted), "share", totals.attempted);
    insert_all(&mut out, rows);
    for (name, keep, q) in [
        ("txn.strict_query_p50_us", strict as fn(&TxnRecord) -> bool, 0.50),
        ("txn.strict_query_p95_us", strict, 0.95),
        ("txn.relaxed_query_p50_us", relaxed, 0.50),
        ("txn.relaxed_query_p95_us", relaxed, 0.95),
        ("txn.update_p99_us", is_update, 0.99),
    ] {
        out.insert(name.to_owned(), latency(m, records, keep, q));
    }
    out
}

/// The client-span metrics of a traced run, added to `layer`: RPC round
/// trips by call kind, what the wire adds to them, and what tracing cost.
/// `rpcs` are the spans of the primary's clients: the replica keeps no
/// server-side histograms to set them against.
pub fn traced(
    layer: &mut Metrics,
    m: &Measured,
    records: &[TxnRecord],
    rpcs: &[&Span],
    per_op: bool,
) {
    for (metric, span, q) in [
        ("net.rpc_begin_p50_us", "rpc.begin", 0.50),
        ("net.rpc_op_p50_us", "rpc.op", 0.50),
        ("net.rpc_op_p95_us", "rpc.op", 0.95),
        ("net.rpc_batch_p50_us", "rpc.batch", 0.50),
        ("net.rpc_end_p50_us", "rpc.end", 0.50),
        ("net.rpc_end_p95_us", "rpc.end", 0.95),
    ] {
        let named = rpcs.iter().filter(|s| s.name == span);
        let mut by_slice = m.by_slice(named.map(|s| (s.end_ns, s.dur_ns())));
        // Only every other slice is traced; the empty ones carry no vote.
        by_slice.retain(|s| !s.is_empty());
        layer.insert(metric.to_owned(), sliced_percentile_us(&by_slice, q));
    }
    // What the wire and the transport threads add to the call that
    // carries operations: round trip minus the server's own account.
    let kind = if per_op { "op" } else { "batch" };
    let round_trip = &layer[&format!("net.rpc_{kind}_p50_us")];
    let overhead = round_trip.value
        - m.hist(&format!("server_{kind}_queue_wait_micros")).p50() as f64
        - m.hist(&format!("server_{kind}_service_micros")).p50() as f64;
    let overhead = Metric::whole(overhead, "us", round_trip.n);
    layer.insert("net.overhead_op_p50_us".to_owned(), overhead);

    // Tracing alternates by slice: even slices traced, odd ones not.
    let rates = slice_rates(m, records);
    let rate = |traced: bool| {
        let picked: Vec<f64> = rates
            .iter()
            .enumerate()
            .filter(|(slice, _)| (slice % 2 == 0) == traced)
            .map(|(_, v)| *v)
            .collect();
        (median(&picked), picked.len() as u64)
    };
    let ((with, n), (without, _)) = (rate(true), rate(false));
    let share = if without > 0.0 { 1.0 - with / without } else { 0.0 };
    layer.insert("trace.overhead_share".to_owned(), Metric::whole(share, "share", n));
}
