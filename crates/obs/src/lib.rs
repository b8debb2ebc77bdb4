//! `esr-obs` — live observability primitives for the ESR stack.
//!
//! The paper this repository reproduces is a *measurement* paper: its
//! contribution is latency and throughput curves under varying
//! inconsistency bounds. This crate provides the instruments those
//! measurements rest on, designed so that observing the system does
//! not perturb it:
//!
//! - [`LatencyHistogram`] — lock-free log-bucketed (HDR-style)
//!   histograms with fixed memory, relaxed-atomic recording, and
//!   mergeable serializable [`HistogramSnapshot`]s exposing
//!   p50/p90/p95/p99/max;
//! - [`Gauge`] — O(1) current-value instruments (in-flight requests,
//!   wait-queue depth);
//! - [`EventRing`] — bounded drop-oldest buffers for per-transaction
//!   event traces (feature-gated at the call sites, diagnostic rather
//!   than hot-path);
//! - [`TextExposition`] — Prometheus-style text rendering for the
//!   `--metrics-addr` HTTP endpoint;
//! - [`metrics!`] and [`histograms!`] — the one place a series is
//!   declared: live cells, snapshot struct and the [`MetricDesc`] /
//!   [`HistogramDesc`] table the exposition walks, from one line each.
//!
//! Everything here is deliberately dependency-light and transport
//! agnostic: the kernel, server, and network layers own *what* to
//! measure; this crate owns *how*.

pub mod declare;
pub mod expo;
pub mod gauge;
pub mod hist;
pub mod ring;

pub use declare::{HistogramDesc, MetricDesc, MetricKind};
pub use expo::TextExposition;
pub use gauge::Gauge;
pub use hist::{bucket_bounds, bucket_index, HistogramSnapshot, LatencyHistogram, BUCKET_COUNT};
pub use ring::{DrainedEvents, EventRing};
