//! Plain-HTTP metrics endpoint: the live observability layer's window
//! into a running server.
//!
//! [`MetricsServer`] answers `GET` requests with a Prometheus-style
//! text exposition ([`render_metrics`]) of a [`ServerStats`] snapshot:
//! every series some snapshot struct declares, walked from its
//! descriptor table — nothing is named here twice. It speaks just
//! enough HTTP/1.1 for `curl` and a Prometheus scrape — one request
//! per connection, `Connection: close` — with no HTTP dependency,
//! matching the offline build constraint.
//!
//! The endpoint is read-only and outcome-neutral: rendering snapshots
//! relaxed atomics and never touches kernel state, so scraping a loaded
//! server cannot perturb the schedule it is measuring.

use crate::listen::{accept_until_stopped, wake};
use esr_obs::TextExposition;
use esr_server::{
    PageCacheSnapshot, ReplicaPeerRow, ReplicationStats, ServerStats, ServiceHistograms,
    StatsSource,
};
use esr_storage::wal::WalHistograms;
use esr_tso::{KernelHistograms, MonitorSnapshot, StatsSnapshot};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
    /// from `source` — a primary's `RpcHandle`, a `ReplicaNode` — until
    /// [`MetricsServer::shutdown`] or drop.
    pub fn bind(
        addr: impl ToSocketAddrs,
        source: Arc<dyn StatsSource>,
    ) -> io::Result<MetricsServer> {
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

fn accept_loop(listener: TcpListener, source: Arc<dyn StatsSource>, stop: Arc<AtomicBool>) {
    accept_until_stopped(
        &stop,
        || listener.accept(),
        |(stream, _)| {
            // A scrape is served inline on the accept thread; timeouts
            // keep a silent or stalled peer from wedging the endpoint.
            let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
            let _ = serve_one(stream, &*source);
        },
    );
}

/// Read one HTTP request head and answer it.
fn serve_one(mut stream: TcpStream, source: &dyn StatsSource) -> io::Result<()> {
    let head = read_request_head(&mut stream)?;
    let response = match head.split_whitespace().next() {
        Some("GET") => {
            let body = render_metrics(&source.stats());
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

/// Every histogram a snapshot can carry, by declaring struct.
const HISTOGRAM_SETS: [&[esr_obs::HistogramDesc]; 3] = [
    ServiceHistograms::HISTOGRAMS,
    KernelHistograms::HISTOGRAMS,
    WalHistograms::HISTOGRAMS,
];

/// Render a [`ServerStats`] snapshot as Prometheus-style text: each
/// declared group that is present (`esr_kernel_*_total`, the `esr_*`
/// server gauges, `esr_monitor_*`, `esr_page_cache_*`, `esr_replica_*`
/// and the per-peer `esr_replication_peer_*`), the per-group divergence
/// gauge, and a summary per histogram under its declared help.
pub fn render_metrics(stats: &ServerStats) -> String {
    let mut e = TextExposition::new();
    e.group(StatsSnapshot::METRICS, &stats.kernel.values())
        .group(ServerStats::METRICS, &stats.values());
    if let Some(m) = &stats.monitor {
        e.group(MonitorSnapshot::METRICS, &m.values());
    }
    if let Some(c) = &stats.page_cache {
        e.group(PageCacheSnapshot::METRICS, &c.values());
    }
    if let Some(r) = &stats.replication {
        let groups: Vec<_> = r
            .divergence_groups
            .iter()
            .map(|(group, d)| (group.as_str(), [*d]))
            .collect();
        let peers: Vec<_> = r
            .peers
            .iter()
            .map(|p| (p.peer.as_str(), p.values()))
            .collect();
        e.group(ReplicationStats::METRICS, &r.values())
            .labeled_group(&[ReplicationStats::DIVERGENCE_BY_GROUP], "group", &groups)
            .labeled_group(ReplicaPeerRow::METRICS, "peer", &peers);
    }
    for h in &stats.histograms {
        // The unit is the name's suffix (`_micros`, `_bytes`).
        let help = HISTOGRAM_SETS
            .into_iter()
            .flatten()
            .find(|d| d.name == h.name)
            .map_or("Undeclared distribution", |d| d.help);
        e.summary(&format!("esr_{}", h.name), help, &h.hist);
    }
    e.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_obs::LatencyHistogram;
    use esr_server::NamedHistogram;

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
            // Series added after the goldens stay at their defaults
            // here: the golden frame must decode to exactly this.
            page_cache: Some(PageCacheSnapshot {
                hits: 900,
                misses: 100,
                evictions: 42,
                dirty_flushes: 33,
                resident_pages: 64,
                resident_bytes: 1 << 20,
                capacity_pages: 64,
                ..PageCacheSnapshot::default()
            }),
            replication: Some(ReplicationStats {
                role: "replica".into(),
                epoch: 2,
                durable_seq: 120,
                received_seq: 118,
                applied_seq: 110,
                lag_records: 8,
                lag_micros: 1500,
                divergence_total: 9,
                divergence_groups: vec![("g0".into(), 9), ("g1".into(), 0)],
                peers: vec![ReplicaPeerRow {
                    peer: "127.0.0.1:9999".into(),
                    sent_seq: 100,
                    lag_records: 20,
                }],
                ..ReplicationStats::default()
            }),
            histograms: vec![NamedHistogram {
                name: "kernel_txn_latency_micros".into(),
                hist: h.snapshot(),
            }],
        }
    }

    /// `sample_stats()` as commit 251d76a, the last before the
    /// descriptor tables, encoded and rendered it. They pin
    /// compatibility, not today's bytes: every later server must decode
    /// that frame and still render every series of that exposition,
    /// and adding a series edits neither file.
    const FRAME_251D76A_HEX: &str = include_str!("../tests/golden/stats_frame_251d76a.hex");
    const METRICS_251D76A: &str = include_str!("../tests/golden/metrics_251d76a.txt");

    #[test]
    fn a_stats_frame_from_251d76a_decodes_with_new_fields_defaulted() {
        // Field names and `#[serde(default)]`s are the wire format: old
        // servers, old clients and the frozen benchmark speak this.
        let hex = FRAME_251D76A_HEX.trim();
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
            .collect();
        let decoded: ServerStats = crate::frame::from_bytes(&bytes).expect("old frame decodes");
        assert_eq!(decoded, sample_stats());

        // A pre-retry, pre-durability, pre-monitor, pre-pager,
        // pre-replication server sent only these; the rest default.
        #[derive(serde::Serialize)]
        struct OldServerStats {
            kernel: StatsSnapshot,
            active_txns: u64,
            waitq_depth: u64,
            in_flight: i64,
            histograms: Vec<NamedHistogram>,
        }
        let new = sample_stats();
        let old = crate::frame::to_bytes(&OldServerStats {
            kernel: new.kernel,
            active_txns: new.active_txns,
            waitq_depth: new.waitq_depth,
            in_flight: new.in_flight,
            histograms: new.histograms.clone(),
        });
        let decoded: ServerStats = crate::frame::from_bytes(&old).expect("defaults fill in");
        assert_eq!(
            decoded,
            ServerStats {
                kernel: new.kernel,
                active_txns: new.active_txns,
                waitq_depth: new.waitq_depth,
                in_flight: new.in_flight,
                histograms: new.histograms,
                ..ServerStats::default()
            }
        );
    }

    #[test]
    fn every_series_251d76a_rendered_is_still_rendered() {
        // Name, type and value of every series; `# HELP` texts are the
        // declared doc comments and free to change, as are new lines.
        let now = render_metrics(&sample_stats());
        let now: std::collections::HashSet<&str> = now.lines().collect();
        let missing: Vec<&str> = METRICS_251D76A
            .lines()
            .filter(|l| !l.starts_with("# HELP") && !now.contains(l))
            .collect();
        assert!(missing.is_empty(), "no longer rendered: {missing:#?}");
    }

    #[test]
    fn every_declared_field_renders_its_value_exactly_once() {
        // Every numeric field distinct (no `..default()`: a new field
        // must be given a value here), so a series that is dropped,
        // duplicated or wired to the wrong field shows.
        let stats = ServerStats {
            kernel: StatsSnapshot {
                begins: 101,
                commits_query: 102,
                commits_update: 103,
                aborts_query: 104,
                aborts_update: 105,
                reads: 106,
                writes: 107,
                inconsistent_reads: 108,
                inconsistent_writes: 109,
                waits: 110,
                wakes: 111,
                violations_object: 112,
                violations_group: 113,
                violations_transaction: 114,
                late_read_aborts: 115,
                late_write_aborts: 116,
                history_misses: 117,
                thomas_skips: 118,
                reaped_txns: 119,
            },
            active_txns: 201,
            waitq_depth: 202,
            in_flight: 203,
            retries: 204,
            wal_bytes: 205,
            recoveries: 206,
            wal_failed: true,
            monitor: Some(MonitorSnapshot {
                violations: 301,
                events: 302,
                gaps: 303,
                missed_events: 304,
                live_txns: 305,
                graph_nodes: 306,
                tracked_objects: 307,
                retained_entries: 308,
            }),
            page_cache: Some(PageCacheSnapshot {
                hits: 401,
                misses: 402,
                evictions: 403,
                dirty_flushes: 404,
                undurable_skips: 405,
                resident_pages: 406,
                resident_bytes: 407,
                capacity_pages: 408,
            }),
            replication: Some(ReplicationStats {
                role: "primary".into(),
                epoch: 501,
                durable_seq: 502,
                received_seq: 503,
                applied_seq: 504,
                lag_records: 505,
                lag_micros: 506,
                divergence_total: 507,
                ship_cache_bytes: 511,
                ship_cache_records: 512,
                cold_reads: 513,
                divergence_groups: vec![("g0".into(), 508)],
                peers: vec![ReplicaPeerRow {
                    peer: "p".into(),
                    sent_seq: 509,
                    lag_records: 510,
                }],
            }),
            histograms: Vec::new(),
        };
        let text = render_metrics(&stats);
        let rendered = |v: u64| {
            text.lines()
                .filter(|l| !l.starts_with('#') && l.ends_with(&format!(" {v}")))
                .count()
        };
        let values = (101..=119)
            .chain(201..=206)
            .chain([1]) // wal_failed
            .chain(301..=308)
            .chain(401..=408)
            .chain(501..=513);
        for v in values {
            assert_eq!(rendered(v), 1, "value {v} in:\n{text}");
        }
        // And no summary says "Distribution" any more.
        let with_hist = render_metrics(&sample_stats());
        assert!(with_hist.contains(
            "# HELP esr_kernel_txn_latency_micros End-to-end latency of committed transactions"
        ));
    }

    #[test]
    fn readme_lists_every_declared_series() {
        let readme = include_str!("../../../README.md");
        let scalars = [
            StatsSnapshot::METRICS,
            ServerStats::METRICS,
            MonitorSnapshot::METRICS,
            PageCacheSnapshot::METRICS,
            ReplicationStats::METRICS,
            ReplicaPeerRow::METRICS,
            &[ReplicationStats::DIVERGENCE_BY_GROUP],
        ];
        let names = scalars
            .iter()
            .flat_map(|set| set.iter().map(|d| d.name.to_owned()))
            .chain(
                HISTOGRAM_SETS
                    .into_iter()
                    .flatten()
                    .map(|d| format!("esr_{}", d.name)),
            );
        let missing: Vec<String> = names
            .filter(|n| !readme.contains(&format!("`{n}`")))
            .collect();
        assert!(
            missing.is_empty(),
            "README.md (\"Observing a live server\") does not list: {missing:#?}"
        );
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
        struct Fixed;
        impl StatsSource for Fixed {
            fn stats(&self) -> ServerStats {
                sample_stats()
            }
        }
        let mut srv = MetricsServer::bind("127.0.0.1:0", Arc::new(Fixed)).unwrap();
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
