//! Request observability: service time per request kind, and an
//! in-flight gauge.
//!
//! A request is served by the thread that brought it — a socket's
//! connection thread, or the caller of an in-process connection — and
//! crosses no queue, so there is no queue wait to report. The serving
//! thread records how long it spent on the request (service time,
//! handing the reply to its sink included), bucketed by request kind.
//! Together with the kernel's own histograms this separates the places
//! a transaction spends time: in the server, in the kernel, and parked
//! on a wait queue.

use esr_obs::Gauge;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Which histogram a request lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// `Request::Begin`
    Begin,
    /// `Request::Op`
    Op,
    /// `Request::Batch`
    Batch,
    /// `Request::End`
    End,
}

esr_obs::histograms! {
    /// Service time per request kind: how long the serving thread spent
    /// on a request, handing the reply to its sink included.
    pub struct ServiceHistograms {
        /// Service time of `Begin` requests, in microseconds.
        begin = "server_begin_service_micros",
        /// Service time of `Op` requests (one read or write), in
        /// microseconds; a parked operation counts up to the park.
        op = "server_op_service_micros",
        /// Service time of `Batch` requests, in microseconds.
        batch = "server_batch_service_micros",
        /// Service time of `End` requests, in microseconds — on a durable
        /// server this includes the wait for the commit record's fsync.
        end = "server_end_service_micros",
    }
}

/// Always-on server instrumentation, shared by all serving threads.
#[derive(Debug, Default)]
pub struct ServerObs {
    /// The declared distributions.
    pub service: ServiceHistograms,
    /// Requests currently being serviced.
    in_flight: Gauge,
    /// Requests a client marked as resends (idempotent retries after a
    /// lost reply, a reconnect, or a busy-reject backoff). Counted by
    /// the transport when the retry flag arrives on the wire.
    retries: AtomicU64,
}

impl ServerObs {
    /// Fresh, empty instrumentation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one serviced request.
    pub fn record(&self, kind: RequestKind, service: Duration) {
        let hist = match kind {
            RequestKind::Begin => &self.service.begin,
            RequestKind::Op => &self.service.op,
            RequestKind::Batch => &self.service.batch,
            RequestKind::End => &self.service.end,
        };
        hist.record_duration(service);
    }

    /// The in-flight gauge (incremented while a request is serviced).
    pub fn in_flight(&self) -> &Gauge {
        &self.in_flight
    }

    /// Count one client-marked retry.
    pub fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Total client-marked retries observed.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_routes_by_kind() {
        let obs = ServerObs::new();
        obs.record(RequestKind::Op, Duration::from_micros(50));
        obs.record(RequestKind::End, Duration::from_micros(50));
        let hists = obs.service.snapshots();
        let count_of = |name: &str| {
            hists
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| s.count)
                .unwrap()
        };
        assert_eq!(count_of("server_op_service_micros"), 1);
        assert_eq!(count_of("server_begin_service_micros"), 0);
        assert_eq!(count_of("server_end_service_micros"), 1);
    }

    #[test]
    fn in_flight_gauge_round_trips() {
        let obs = ServerObs::new();
        obs.in_flight().inc();
        assert_eq!(obs.in_flight().get(), 1);
        obs.in_flight().dec();
        assert_eq!(obs.in_flight().get(), 0);
    }

    #[test]
    fn retries_accumulate() {
        let obs = ServerObs::new();
        assert_eq!(obs.retries(), 0);
        obs.note_retry();
        obs.note_retry();
        assert_eq!(obs.retries(), 2);
    }
}
