//! Plain-HTTP metrics endpoint: the live observability layer's window
//! into a running server.
//!
//! [`MetricsServer`] answers `GET` requests with a Prometheus-style
//! text exposition ([`render_metrics`]) of the server's kernel
//! counters, gauges, and latency-histogram summaries. It speaks just
//! enough HTTP/1.1 for `curl` and a Prometheus scrape — one request
//! per connection, `Connection: close` — with no HTTP dependency,
//! matching the offline build constraint.
//!
//! The endpoint is read-only and outcome-neutral: rendering snapshots
//! relaxed atomics and never touches kernel state, so scraping a loaded
//! server cannot perturb the schedule it is measuring.

use crate::listen::{accept_until_stopped, wake};
use esr_obs::TextExposition;
use esr_server::ServerStats;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Supplies a fresh [`ServerStats`] per scrape.
pub type StatsSource = Arc<dyn Fn() -> ServerStats + Send + Sync>;

/// A minimal HTTP server exposing [`render_metrics`] at every `GET`
/// path. One thread, one request per connection; scrapes are fast
/// (snapshot + render) so serialization is fine.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (port 0 lets the OS pick) and serve metrics rendered
    /// from `source` until [`MetricsServer::shutdown`] or drop.
    pub fn bind(addr: impl ToSocketAddrs, source: StatsSource) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("esr-metrics".into())
                .spawn(move || accept_loop(listener, source, stop))
                .expect("spawn metrics thread")
        };
        Ok(MetricsServer {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (with the OS-assigned port when bound to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving. Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        wake(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, source: StatsSource, stop: Arc<AtomicBool>) {
    accept_until_stopped(
        &stop,
        || listener.accept(),
        |(stream, _)| {
            // A scrape is served inline on the accept thread; timeouts
            // keep a silent or stalled peer from wedging the endpoint.
            let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
            let _ = serve_one(stream, &source);
        },
    );
}

/// Read one HTTP request head and answer it.
fn serve_one(mut stream: TcpStream, source: &StatsSource) -> io::Result<()> {
    let head = read_request_head(&mut stream)?;
    let response = match head.split_whitespace().next() {
        Some("GET") => {
            let body = render_metrics(&(source)());
            http_response("200 OK", &body)
        }
        Some(_) => http_response("405 Method Not Allowed", "only GET is supported\n"),
        None => http_response("400 Bad Request", "empty request\n"),
    };
    stream.write_all(response.as_bytes())
}

/// Read until the blank line ending the request head, bounded to 8 KiB
/// (a scrape request has no business being larger).
fn read_request_head(stream: &mut TcpStream) -> io::Result<String> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while head.len() < 8192 {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                head.push(byte[0]);
                if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
                    break;
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(String::from_utf8_lossy(&head).into_owned())
}

fn http_response(status: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Render a [`ServerStats`] snapshot as Prometheus-style text: kernel
/// counters (`esr_kernel_*_total`), gauges, and a summary per latency
/// histogram.
pub fn render_metrics(stats: &ServerStats) -> String {
    let k = &stats.kernel;
    let mut e = TextExposition::new();
    e.counter("esr_kernel_begins", "Transactions begun", k.begins)
        .counter(
            "esr_kernel_commits_query",
            "Query transactions committed",
            k.commits_query,
        )
        .counter(
            "esr_kernel_commits_update",
            "Update transactions committed",
            k.commits_update,
        )
        .counter(
            "esr_kernel_aborts_query",
            "Query transactions aborted",
            k.aborts_query,
        )
        .counter(
            "esr_kernel_aborts_update",
            "Update transactions aborted",
            k.aborts_update,
        )
        .counter("esr_kernel_reads", "Read operations executed", k.reads)
        .counter("esr_kernel_writes", "Write operations executed", k.writes)
        .counter(
            "esr_kernel_inconsistent_reads",
            "Reads admitted while viewing non-zero inconsistency (cases 1 and 2)",
            k.inconsistent_reads,
        )
        .counter(
            "esr_kernel_inconsistent_writes",
            "Writes admitted while exporting non-zero inconsistency (case 3)",
            k.inconsistent_writes,
        )
        .counter(
            "esr_kernel_waits",
            "Operations parked on a wait queue",
            k.waits,
        )
        .counter(
            "esr_kernel_wakes",
            "Parked operations released by commits or aborts",
            k.wakes,
        )
        .counter(
            "esr_kernel_violations_object",
            "Aborts from an object-level bound (OIL/OEL)",
            k.violations_object,
        )
        .counter(
            "esr_kernel_violations_group",
            "Aborts from a group-level bound (GIL/GEL)",
            k.violations_group,
        )
        .counter(
            "esr_kernel_violations_transaction",
            "Aborts from the transaction-level bound (TIL/TEL)",
            k.violations_transaction,
        )
        .counter(
            "esr_kernel_late_read_aborts",
            "Aborts from late reads",
            k.late_read_aborts,
        )
        .counter(
            "esr_kernel_late_write_aborts",
            "Aborts from late writes",
            k.late_write_aborts,
        )
        .counter(
            "esr_kernel_reaped_txns",
            "Transactions aborted by the reaper (lease expiry or connection orphaning)",
            k.reaped_txns,
        )
        .counter(
            "esr_retries",
            "Client-marked request resends observed by the transport",
            stats.retries,
        )
        .gauge(
            "esr_active_txns",
            "Currently active transactions",
            stats.active_txns as i64,
        )
        .gauge(
            "esr_waitq_depth",
            "Operations parked on kernel wait queues right now",
            stats.waitq_depth as i64,
        )
        .gauge(
            "esr_in_flight",
            "Requests currently being served",
            stats.in_flight,
        )
        .gauge(
            "esr_wal_bytes",
            "Bytes appended to the write-ahead log by this process",
            stats.wal_bytes as i64,
        )
        .gauge(
            "esr_recoveries",
            "Crash recoveries performed at startup",
            stats.recoveries as i64,
        )
        .gauge(
            "esr_wal_failed",
            "1 once the write-ahead log has hit an I/O error and stopped acknowledging commits",
            i64::from(stats.wal_failed),
        );
    if let Some(m) = &stats.monitor {
        e.gauge(
            "esr_conformance_violations",
            "Error-level diagnostics from the live conformance monitor (0 = clean)",
            m.violations as i64,
        )
        .counter(
            "esr_monitor_events",
            "Capture events processed by the conformance monitor",
            m.events,
        )
        .counter(
            "esr_monitor_gaps",
            "Capture stream sequence discontinuities observed",
            m.gaps,
        )
        .counter(
            "esr_monitor_missed_events",
            "Capture events evicted before the monitor could read them",
            m.missed_events,
        )
        .gauge(
            "esr_monitor_live_txns",
            "Transactions live in the monitor's replay engine",
            m.live_txns as i64,
        )
        .gauge(
            "esr_monitor_graph_nodes",
            "Update transactions held in the monitor's conflict graph",
            m.graph_nodes as i64,
        )
        .gauge(
            "esr_monitor_tracked_objects",
            "Objects with retained access-log entries in the monitor",
            m.tracked_objects as i64,
        )
        .gauge(
            "esr_monitor_retained_entries",
            "Access-log entries retained by the monitor (its memory bound)",
            m.retained_entries as i64,
        );
    }
    if let Some(c) = &stats.page_cache {
        e.counter(
            "esr_page_cache_hits",
            "Object pins satisfied from a cached page frame",
            c.hits,
        )
        .counter(
            "esr_page_cache_misses",
            "Object pins that had to read the heap file",
            c.misses,
        )
        .counter(
            "esr_page_cache_evictions",
            "Page frames evicted by the CLOCK sweep to make room",
            c.evictions,
        )
        .counter(
            "esr_page_cache_dirty_flushes",
            "Dirty page write-backs (evictions and incremental checkpoints)",
            c.dirty_flushes,
        )
        .gauge(
            "esr_page_cache_resident_pages",
            "Heap pages currently decoded in the buffer pool",
            c.resident_pages as i64,
        )
        .gauge(
            "esr_page_cache_resident_bytes",
            "Bytes of heap-file extent currently cached",
            c.resident_bytes as i64,
        )
        .gauge(
            "esr_page_cache_capacity_pages",
            "Configured buffer-pool capacity, in pages",
            c.capacity_pages as i64,
        );
    }
    if let Some(r) = &stats.replication {
        e.gauge(
            "esr_replica_epoch",
            "Primary epoch this node serves or follows",
            r.epoch as i64,
        )
        .gauge(
            "esr_replica_received_seq",
            "Highest log sequence received from the primary",
            r.received_seq as i64,
        )
        .gauge(
            "esr_replica_applied_seq",
            "Highest log sequence applied to the local copy",
            r.applied_seq as i64,
        )
        .gauge(
            "esr_replica_lag_records",
            "Log records received but not yet applied locally",
            r.lag_records as i64,
        )
        .gauge(
            "esr_replica_lag_micros",
            "Age of the oldest unapplied log record (microseconds)",
            r.lag_micros as i64,
        )
        .gauge(
            "esr_replica_divergence_total",
            "Total divergence between local values and primary shadows",
            r.divergence_total as i64,
        )
        .labeled_gauge(
            "esr_replica_divergence",
            "Divergence between local values and primary shadows, by hierarchy group",
            "group",
            &r.divergence_groups
                .iter()
                .map(|(g, d)| (g.clone(), *d as i64))
                .collect::<Vec<_>>(),
        )
        .labeled_gauge(
            "esr_replication_peer_lag_records",
            "Records the primary has durable but has not yet sent to each subscriber",
            "peer",
            &r.peers
                .iter()
                .map(|p| (p.peer.clone(), p.lag_records as i64))
                .collect::<Vec<_>>(),
        );
    }
    for h in &stats.histograms {
        // The unit is the name's suffix (`_micros`, `_bytes`).
        e.summary(&format!("esr_{}", h.name), "Distribution", &h.hist);
    }
    e.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_obs::LatencyHistogram;
    use esr_server::{MonitorSnapshot, NamedHistogram};
    use esr_tso::StatsSnapshot;

    fn sample_stats() -> ServerStats {
        let h = LatencyHistogram::new();
        h.record(100);
        h.record(200);
        ServerStats {
            kernel: StatsSnapshot {
                begins: 10,
                commits_query: 4,
                commits_update: 3,
                waits: 2,
                ..StatsSnapshot::default()
            },
            active_txns: 3,
            waitq_depth: 2,
            in_flight: 1,
            retries: 6,
            wal_bytes: 4096,
            recoveries: 1,
            wal_failed: true,
            monitor: Some(MonitorSnapshot {
                violations: 0,
                events: 12345,
                live_txns: 4,
                retained_entries: 17,
                ..MonitorSnapshot::default()
            }),
            page_cache: Some(esr_server::PageCacheSnapshot {
                hits: 900,
                misses: 100,
                evictions: 42,
                dirty_flushes: 33,
                resident_pages: 64,
                resident_bytes: 1 << 20,
                capacity_pages: 64,
            }),
            replication: Some(esr_server::ReplicationStats {
                role: "replica".into(),
                epoch: 2,
                durable_seq: 120,
                received_seq: 118,
                applied_seq: 110,
                lag_records: 8,
                lag_micros: 1500,
                divergence_total: 9,
                divergence_groups: vec![("g0".into(), 9), ("g1".into(), 0)],
                peers: vec![esr_server::ReplicaPeerRow {
                    peer: "127.0.0.1:9999".into(),
                    sent_seq: 100,
                    lag_records: 20,
                }],
            }),
            histograms: vec![NamedHistogram {
                name: "kernel_txn_latency_micros".into(),
                hist: h.snapshot(),
            }],
        }
    }

    #[test]
    fn render_covers_counters_gauges_and_summaries() {
        let text = render_metrics(&sample_stats());
        assert!(text.contains("esr_kernel_begins_total 10"));
        assert!(text.contains("esr_kernel_commits_query_total 4"));
        assert!(text.contains("esr_waitq_depth 2"));
        assert!(text.contains("esr_in_flight 1"));
        assert!(text.contains("esr_kernel_reaped_txns_total 0"));
        assert!(text.contains("esr_retries_total 6"));
        assert!(text.contains("esr_wal_bytes 4096"));
        assert!(text.contains("esr_recoveries 1"));
        assert!(text.contains("esr_wal_failed 1"));
        assert!(text.contains("esr_conformance_violations 0"));
        assert!(text.contains("esr_monitor_events_total 12345"));
        assert!(text.contains("esr_monitor_live_txns 4"));
        assert!(text.contains("esr_monitor_retained_entries 17"));
        assert!(text.contains("esr_page_cache_hits_total 900"));
        assert!(text.contains("esr_page_cache_misses_total 100"));
        assert!(text.contains("esr_page_cache_evictions_total 42"));
        assert!(text.contains("esr_page_cache_dirty_flushes_total 33"));
        assert!(text.contains("esr_page_cache_resident_bytes 1048576"));
        assert!(text.contains("esr_page_cache_capacity_pages 64"));
        assert!(text.contains("esr_kernel_txn_latency_micros{quantile=\"0.5\"}"));
        assert!(text.contains("esr_kernel_txn_latency_micros_count 2"));
        assert!(text.contains("esr_replica_epoch 2"));
        assert!(text.contains("esr_replica_lag_records 8"));
        assert!(text.contains("esr_replica_lag_micros 1500"));
        assert!(text.contains("esr_replica_divergence_total 9"));
        assert!(text.contains("esr_replica_divergence{group=\"g0\"} 9"));
        assert!(text.contains("esr_replica_divergence{group=\"g1\"} 0"));
        assert!(text.contains("esr_replication_peer_lag_records{peer=\"127.0.0.1:9999\"} 20"));
    }

    #[test]
    fn http_response_frames_body() {
        let r = http_response("200 OK", "hello\n");
        assert!(r.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(r.contains("Content-Length: 6\r\n"));
        assert!(r.ends_with("\r\n\r\nhello\n"));
    }

    #[test]
    fn metrics_server_answers_http_get() {
        let stats: StatsSource = Arc::new(sample_stats);
        let mut srv = MetricsServer::bind("127.0.0.1:0", stats).unwrap();
        let addr = srv.local_addr();

        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(
            response.contains("esr_kernel_begins_total 10"),
            "{response}"
        );

        // Non-GET requests are refused, not crashed on.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");

        srv.shutdown();
        srv.shutdown(); // idempotent
    }
}
