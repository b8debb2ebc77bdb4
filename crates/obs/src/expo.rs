//! Prometheus-style text exposition.
//!
//! [`TextExposition`] renders declared groups of counters and gauges
//! ([`MetricDesc`] tables with their values) and histogram snapshots
//! into the plain-text format scraped by Prometheus and read
//! comfortably by humans (`# HELP` / `# TYPE` headers, summaries with
//! `quantile` labels plus `_sum`/`_count` series).

use crate::declare::{MetricDesc, MetricKind};
use crate::hist::HistogramSnapshot;
use std::fmt::Write as _;

/// Incremental builder for a text-exposition payload.
#[derive(Debug, Default)]
pub struct TextExposition {
    out: String,
}

impl TextExposition {
    /// An empty payload.
    pub fn new() -> Self {
        TextExposition { out: String::new() }
    }

    /// A declared group: each descriptor with its value, in order — a
    /// snapshot's `METRICS` with its `values()`. Counters render
    /// unsigned, gauges signed; the help is the declared doc comment.
    pub fn group(&mut self, descs: &[MetricDesc], values: &[u64]) -> &mut Self {
        self.labeled_group(descs, "", &[("", values)])
    }

    /// A declared group with one sample per row and series, labelled
    /// `key="row label"` — e.g. per-subscriber replication progress as
    /// `name{peer="addr"} value`. Label values are escaped per the
    /// exposition format (backslash, quote, newline). No rows still
    /// emits the HELP/TYPE headers, so scrapers see the series exist.
    pub fn labeled_group<V: AsRef<[u64]>>(
        &mut self,
        descs: &[MetricDesc],
        key: &str,
        rows: &[(&str, V)],
    ) -> &mut Self {
        for (i, d) in descs.iter().enumerate() {
            let (name, help) = (d.name, d.help.trim());
            let kind = match d.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
            };
            let _ = writeln!(self.out, "# HELP {name} {help}");
            let _ = writeln!(self.out, "# TYPE {name} {kind}");
            for (label, values) in rows {
                let labels = if key.is_empty() {
                    String::new()
                } else {
                    format!("{{{key}=\"{}\"}}", escape_label(label))
                };
                let v = values.as_ref()[i];
                let _ = match d.kind {
                    MetricKind::Counter => writeln!(self.out, "{name}{labels} {v}"),
                    MetricKind::Gauge => writeln!(self.out, "{name}{labels} {}", v as i64),
                };
            }
        }
        self
    }

    /// A latency summary from a histogram snapshot: quantile series
    /// (0.5 / 0.9 / 0.95 / 0.99), `_max`, `_sum`, and `_count`. `help` is
    /// trimmed, like a group's, so a declared doc comment passes as is.
    pub fn summary(&mut self, name: &str, help: &str, snap: &HistogramSnapshot) -> &mut Self {
        let _ = writeln!(self.out, "# HELP {name} {}", help.trim());
        let _ = writeln!(self.out, "# TYPE {name} summary");
        for (label, q) in [("0.5", 0.50), ("0.9", 0.90), ("0.95", 0.95), ("0.99", 0.99)] {
            let _ = writeln!(
                self.out,
                "{name}{{quantile=\"{label}\"}} {}",
                snap.quantile(q)
            );
        }
        let _ = writeln!(self.out, "{name}_max {}", snap.max);
        let _ = writeln!(self.out, "{name}_sum {}", snap.sum);
        let _ = writeln!(self.out, "{name}_count {}", snap.count);
        self
    }

    /// The accumulated payload.
    pub fn render(&self) -> &str {
        &self.out
    }

    /// Consume the builder, returning the payload.
    pub fn into_string(self) -> String {
        self.out
    }
}

fn escape_label(label: &str) -> String {
    label
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;

    const DESCS: &[MetricDesc] = &[
        MetricDesc {
            name: "esr_commits_total",
            kind: MetricKind::Counter,
            help: " Committed transactions.",
        },
        MetricDesc {
            name: "esr_in_flight",
            kind: MetricKind::Gauge,
            help: " Requests in service.",
        },
    ];

    #[test]
    fn group_renders_each_descriptor_with_its_value() {
        let mut e = TextExposition::new();
        e.group(DESCS, &[u64::MAX, -3i64 as u64]);
        assert_eq!(
            e.render(),
            "# HELP esr_commits_total Committed transactions.\n\
             # TYPE esr_commits_total counter\n\
             esr_commits_total 18446744073709551615\n\
             # HELP esr_in_flight Requests in service.\n\
             # TYPE esr_in_flight gauge\n\
             esr_in_flight -3\n"
        );
    }

    #[test]
    fn labeled_group_renders_one_sample_per_row_and_series() {
        let mut e = TextExposition::new();
        e.labeled_group(DESCS, "peer", &[("a\"b\\c", [1, 2]), ("d", [3, 4])]);
        let s = e.render();
        assert!(s.contains(
            "# TYPE esr_commits_total counter\n\
             esr_commits_total{peer=\"a\\\"b\\\\c\"} 1\n\
             esr_commits_total{peer=\"d\"} 3\n"
        ));
        assert!(s.contains("esr_in_flight{peer=\"a\\\"b\\\\c\"} 2\nesr_in_flight{peer=\"d\"} 4\n"));

        let mut empty = TextExposition::new();
        empty.labeled_group::<[u64; 2]>(DESCS, "peer", &[]);
        assert!(empty.render().contains("# TYPE esr_in_flight gauge"));
        assert!(!empty.render().contains("esr_in_flight{"));
    }

    #[test]
    fn summary_has_quantiles_sum_count() {
        let h = LatencyHistogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        let mut e = TextExposition::new();
        e.summary("esr_rpc_micros", "RPC round-trip", &h.snapshot());
        let s = e.render();
        assert!(s.contains("# TYPE esr_rpc_micros summary"));
        assert!(s.contains("esr_rpc_micros{quantile=\"0.5\"}"));
        assert!(s.contains("esr_rpc_micros{quantile=\"0.99\"}"));
        assert!(s.contains("esr_rpc_micros_sum 100"));
        assert!(s.contains("esr_rpc_micros_count 4"));
        assert!(s.contains("esr_rpc_micros_max 40"));
    }

    #[test]
    fn empty_summary_renders_zeroes() {
        let mut e = TextExposition::new();
        e.summary("x", "empty", &HistogramSnapshot::new());
        assert!(e.render().contains("x_count 0"));
    }
}
