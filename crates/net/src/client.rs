//! The network client: a [`Session`] over a framed TCP socket.
//!
//! [`TcpConnection`] is the remote twin of `esr-server`'s in-process
//! `Connection`: the same synchronous five-operation RPC surface, but
//! with a *measured* round trip instead of a simulated one. A
//! transaction program runs over either unchanged.
//!
//! On connect the client performs the §6 handshake for real: a `Hello`
//! obtains the site id, then a burst of Cristian-style time exchanges
//! estimates the correction factor — the reference reading is assumed
//! mid-flight, so half the measured round trip is added, and the sample
//! with the shortest round trip wins (preemption between the two local
//! readings can only inflate a sample's error, never shrink it).
//!
//! Failure policy: connecting retries with exponential backoff;
//! request writes are bounded by a socket write timeout; reply reads
//! are bounded by a per-attempt read timeout times a configured number
//! of attempts (parked operations legitimately wait long — each read
//! retry just re-arms the wait, it never resends).
//!
//! Requests *are* resent — but only when it is safe:
//!
//! - **Transport failure** (write failed, peer closed, codec
//!   desynchronisation): the client backs off with jitter, reconnects
//!   (re-dial + fresh handshake), and resends the request with the
//!   wire `retry` flag set. This is idempotent by protocol, not by
//!   deduplication: the dead connection's transactions are
//!   orphan-reaped server-side, so a resent `Begin` starts fresh, a
//!   resent `Op`/`End` for a reaped transaction resolves to a typed
//!   unknown-transaction answer, and a resent `End` whose original
//!   reply was lost resolves via `EndReply::Unknown` — the server never
//!   commits twice.
//! - **Busy reject**: a replica answered a read its budget cannot
//!   cover yet with a retry-after hint scaled to its apply lag; the
//!   client sleeps that long (plus jitter) and resends on the same
//!   connection.
//! - **Reply timeout** is *not* retried: the request may be parked on a
//!   kernel wait queue, and resending it would duplicate the
//!   operation. The correlation id discipline means a stale reply to
//!   an abandoned call is recognised and discarded instead of being
//!   mistaken for the current one.

use crate::frame::{encode_frame, FrameError, FrameReader, MAX_FRAME};
use crate::msg::{ReplyBody, RequestBody, WireReply, WireRequest};
use crate::server::{busy_retry_after_micros, is_busy_error, BUSY_RETRY_BASE_MICROS};
use esr_clock::{CorrectionFactor, SkewedSource, SystemTimeSource, TimeSource, TimestampGenerator};
use esr_core::ids::{ObjectId, SiteId, TxnId, TxnKind};
use esr_core::spec::TxnBounds;
use esr_core::value::Value;
use esr_obs::{HistogramSnapshot, LatencyHistogram};
use esr_server::{BeginReply, EndReply, OpReply, ServerStats, StatsReply};
use esr_tso::{CommitInfo, Operation};
use esr_txn::{Session, SessionError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client transport configuration.
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// Connection attempts before giving up (each failure backs off
    /// exponentially from [`NetClientConfig::backoff`]).
    pub connect_attempts: u32,
    /// Initial backoff between connect attempts; doubles per retry.
    pub backoff: Duration,
    /// Socket read timeout per receive attempt.
    pub read_timeout: Duration,
    /// Socket write timeout for sending one request frame.
    pub write_timeout: Duration,
    /// Receive attempts per call before the call is abandoned. The
    /// longest a call may block is `reply_attempts × read_timeout` —
    /// sized generously so an operation parked behind a slow writer
    /// (strict ordering) is not misreported as a dead server.
    pub reply_attempts: u32,
    /// Time-exchange samples for the correction factor estimate.
    pub clock_samples: u32,
    /// Artificial skew applied to the local clock before correction —
    /// reproduces the paper's up-to-two-minutes-apart site clocks in
    /// demos and tests.
    pub skew_micros: i64,
    /// Total send attempts per call: the first try plus up to
    /// `call_attempts − 1` resends after a transport failure (with
    /// reconnect) or a busy reject (with backoff). `1` disables
    /// resending entirely. Reply timeouts are never resent — the
    /// request may be parked on a wait queue, alive and well.
    pub call_attempts: u32,
    /// Initial pause before a transport-failure resend; doubles per
    /// consecutive resend of the same call, plus up to 50 % seeded
    /// jitter so a herd of clients does not reconnect in lockstep. Busy
    /// resends use the server's retry-after hint instead.
    pub retry_backoff: Duration,
    /// Seed for the retry jitter. Fixed default keeps tests
    /// deterministic; vary it per client in load experiments.
    pub retry_seed: u64,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        NetClientConfig {
            connect_attempts: 5,
            backoff: Duration::from_millis(50),
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(5),
            reply_attempts: 240, // × 500 ms = 2 min worst-case wait
            clock_samples: 8,
            skew_micros: 0,
            call_attempts: 3,
            retry_backoff: Duration::from_millis(10),
            retry_seed: 0x00dd_ba11,
        }
    }
}

/// A client-side [`Session`] over TCP. One connection is one site: it
/// owns the site id the server allocated in the handshake and a
/// corrected local clock that stamps its transactions.
pub struct TcpConnection {
    /// The socket: replies are read through the buffer, requests are
    /// written to the stream under it.
    frames: FrameReader<TcpStream>,
    /// The buffer every request is encoded into.
    out: Vec<u8>,
    /// Resolved server addresses, kept for reconnects.
    addrs: Vec<SocketAddr>,
    config: NetClientConfig,
    clock: Arc<TimestampGenerator>,
    next_id: u64,
    current: Option<TxnId>,
    /// Jitter source for retry backoff.
    rng: SmallRng,
    /// Requests resent by the retry policy (transport failures and busy
    /// rejects), mirrored server-side by the `retries` stats gauge.
    retries: u64,
    /// Measured round trip of every RPC this connection issued,
    /// including time an operation spent parked server-side.
    rpc_latency: LatencyHistogram,
}

/// How one send/receive cycle failed.
enum CallError {
    /// The stream can no longer be trusted (write failed, peer closed,
    /// codec desynchronisation). A reconnect plus resend may succeed.
    Transport(String),
    /// The call failed but the connection is intact (reply timeout,
    /// protocol violation). Never resent.
    Terminal(String),
}

impl CallError {
    fn into_message(self) -> String {
        match self {
            CallError::Transport(e) | CallError::Terminal(e) => e,
        }
    }
}

/// Dial with bounded exponential-backoff retries and arm the socket
/// timeouts. Shared by the initial connect and every reconnect.
fn dial(addrs: &[SocketAddr], config: &NetClientConfig) -> io::Result<TcpStream> {
    let mut delay = config.backoff;
    let mut last_err = None;
    for attempt in 0..config.connect_attempts {
        if attempt > 0 {
            std::thread::sleep(delay);
            delay = delay.saturating_mul(2);
        }
        match TcpStream::connect(addrs) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(config.read_timeout))?;
                stream.set_write_timeout(Some(config.write_timeout))?;
                return Ok(stream);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("at least one attempt ran"))
}

/// `body` as it is first sent: not a resend, its correlation id stamped
/// by [`TcpConnection::call_once`] when the frame goes out.
fn first_send(body: RequestBody) -> WireRequest {
    WireRequest {
        id: 0,
        retry: false,
        body,
    }
}

/// If `reply` is a busy reject, the backoff to honour before resending
/// (the server's hint, or the base when an old server sent no hint).
fn busy_hint_micros(reply: &ReplyBody) -> Option<u64> {
    let msg = match reply {
        ReplyBody::Begin(BeginReply::Error(e)) => e,
        ReplyBody::Op(OpReply::Error(e)) => e,
        ReplyBody::End(EndReply::Error(e)) => e,
        ReplyBody::Stats(StatsReply::Error(e)) => e,
        ReplyBody::Error(e) => e,
        // A rejected batch answers every op with the same error.
        ReplyBody::Batch(replies) => match replies.first() {
            Some(OpReply::Error(e)) => e,
            _ => return None,
        },
        _ => return None,
    };
    if is_busy_error(msg) {
        Some(busy_retry_after_micros(msg).unwrap_or(BUSY_RETRY_BASE_MICROS))
    } else {
        None
    }
}

impl TcpConnection {
    /// Connect to a [`crate::TcpServer`], retrying with exponential
    /// backoff, and run the site/clock handshake.
    pub fn connect(addr: impl ToSocketAddrs + Clone) -> io::Result<TcpConnection> {
        TcpConnection::connect_with(addr, NetClientConfig::default())
    }

    /// [`TcpConnection::connect`] with explicit configuration.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: NetClientConfig,
    ) -> io::Result<TcpConnection> {
        assert!(config.connect_attempts >= 1, "need at least one attempt");
        assert!(config.reply_attempts >= 1, "need at least one attempt");
        assert!(config.call_attempts >= 1, "need at least one attempt");
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::other("address resolved to nothing"));
        }
        let frames = FrameReader::new(dial(&addrs, &config)?);
        let rng = SmallRng::seed_from_u64(config.retry_seed);
        let mut conn = TcpConnection {
            frames,
            out: Vec::new(),
            addrs,
            config,
            // Placeholder until the handshake delivers the real site id.
            clock: Arc::new(TimestampGenerator::new(
                SiteId(0),
                Arc::new(SystemTimeSource::new()),
            )),
            next_id: 1,
            current: None,
            rng,
            retries: 0,
            rpc_latency: LatencyHistogram::new(),
        };
        conn.handshake().map_err(io::Error::other)?;
        Ok(conn)
    }

    /// Obtain the site id and estimate the correction factor. Uses the
    /// non-retrying call primitive: `reconnect` runs the handshake, so
    /// a retrying handshake would recurse.
    fn handshake(&mut self) -> Result<(), String> {
        let site = match self
            .call_once(&mut first_send(RequestBody::Hello))
            .map_err(CallError::into_message)?
        {
            ReplyBody::Welcome { site } => SiteId(site),
            ReplyBody::Error(e) => return Err(format!("handshake refused: {e}")),
            other => return Err(format!("handshake answered with {other:?}")),
        };
        // A site clock (epoch base + skew): `SystemTimeSource` reads
        // micros since its own creation, so a bare negative skew would
        // saturate at zero and freeze the clock. The correction factor
        // estimated below absorbs the epoch base along with the skew.
        let local: Arc<dyn TimeSource> = Arc::new(SkewedSource::site_clock(
            SystemTimeSource::new(),
            self.config.skew_micros,
        ));
        // Cristian exchange, best (shortest round trip) of N samples.
        let mut best: Option<(u64, i64)> = None;
        for _ in 0..self.config.clock_samples.max(1) {
            let t0 = Instant::now();
            let server_micros = match self
                .call_once(&mut first_send(RequestBody::TimeExchange))
                .map_err(CallError::into_message)?
            {
                ReplyBody::Time { micros } => micros,
                other => return Err(format!("time exchange answered with {other:?}")),
            };
            let rtt = t0.elapsed().as_micros() as u64;
            let local_now = local.raw_micros() as i64;
            let offset = server_micros as i64 + (rtt / 2) as i64 - local_now;
            if best.is_none_or(|(b, _)| rtt < b) {
                best = Some((rtt, offset));
            }
        }
        let offset = best.expect("at least one sample").1;
        self.clock = Arc::new(TimestampGenerator::with_correction(
            site,
            local,
            CorrectionFactor::from_offset(offset),
        ));
        Ok(())
    }

    /// The site this connection stamps timestamps with.
    pub fn site(&self) -> SiteId {
        self.clock.site()
    }

    /// The current transaction, if any.
    pub fn current_txn(&self) -> Option<TxnId> {
        self.current
    }

    /// Snapshot of this connection's measured RPC round trips
    /// (microseconds), one sample per call — the real-network analogue
    /// of the paper's 17–20 ms synchronous RPC cost.
    pub fn rpc_latency(&self) -> HistogramSnapshot {
        self.rpc_latency.snapshot()
    }

    /// Fetch the server's live stats (kernel counters, gauges, latency
    /// histograms) over the wire.
    pub fn server_stats(&mut self) -> Result<ServerStats, SessionError> {
        match self.call(RequestBody::Stats)? {
            ReplyBody::Stats(StatsReply::Stats(stats)) => Ok(*stats),
            ReplyBody::Stats(StatsReply::Error(e)) | ReplyBody::Error(e) => {
                Err(SessionError::Backend(e))
            }
            other => Err(SessionError::Backend(format!(
                "stats answered with {other:?}"
            ))),
        }
    }

    /// Total requests this connection resent under the retry policy.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// One synchronous RPC under the retry policy: transport failures
    /// reconnect and resend, busy rejects back off and resend, anything
    /// else surfaces after the first attempt. Resends carry the wire
    /// `retry` flag so the server can count them.
    fn call(&mut self, body: RequestBody) -> Result<ReplyBody, SessionError> {
        let mut request = first_send(body);
        let mut resends = 0u32;
        let mut backoff = self.config.retry_backoff;
        loop {
            let out_of_attempts = resends + 1 >= self.config.call_attempts;
            match self.call_once(&mut request) {
                Ok(reply) => {
                    let Some(hint) = busy_hint_micros(&reply) else {
                        return Ok(reply);
                    };
                    if out_of_attempts {
                        // Bounded: surface the busy error through the
                        // normal reply mapping.
                        return Ok(reply);
                    }
                    // Busy reject: the connection is fine, the server
                    // cannot answer yet. Honour its retry-after hint.
                    std::thread::sleep(self.jittered(Duration::from_micros(hint)));
                }
                Err(CallError::Terminal(e)) => return Err(SessionError::Backend(e)),
                Err(CallError::Transport(e)) => {
                    if out_of_attempts {
                        return Err(SessionError::Backend(e));
                    }
                    std::thread::sleep(self.jittered(backoff));
                    backoff = backoff.saturating_mul(2);
                    if let Err(re) = self.reconnect() {
                        return Err(SessionError::Backend(format!(
                            "{e}; reconnect failed: {re}"
                        )));
                    }
                }
            }
            resends += 1;
            self.retries += 1;
            request.retry = true;
        }
    }

    /// `base` plus up to 50 % seeded jitter.
    fn jittered(&mut self, base: Duration) -> Duration {
        let micros = (base.as_micros() as u64).max(1);
        base + Duration::from_micros(self.rng.gen_range(0..micros / 2 + 1))
    }

    /// Re-dial the stored server address and redo the handshake. The
    /// server orphan-reaps whatever the broken connection left behind;
    /// this side keeps `current` so the in-flight call can resend and
    /// collect its typed answer (aborted / unknown transaction).
    fn reconnect(&mut self) -> Result<(), String> {
        // A new reader with the new stream: bytes buffered from the old
        // one belong to a conversation that is over.
        self.frames = FrameReader::new(dial(&self.addrs, &self.config).map_err(|e| e.to_string())?);
        self.handshake()
    }

    /// One send/receive cycle, no resends: stamp the request with the
    /// next correlation id and send it, then receive until the reply
    /// with that id arrives. Replies with a *smaller* id belong to calls
    /// already abandoned by a timeout and are discarded; the number of
    /// receive attempts is bounded.
    fn call_once(&mut self, request: &mut WireRequest) -> Result<ReplyBody, CallError> {
        let id = self.next_id;
        self.next_id += 1;
        request.id = id;
        let t0 = Instant::now();
        // Any write failure leaves the stream possibly mid-frame, so
        // even a timeout is a transport error here.
        self.out.clear();
        encode_frame(request, MAX_FRAME, &mut self.out)
            .and_then(|()| Ok(self.frames.get_ref().write_all(&self.out)?))
            .map_err(|e| CallError::Transport(format!("request write failed: {e}")))?;
        let mut attempts = 0u32;
        loop {
            match self.frames.read::<WireReply>() {
                Ok(reply) if reply.id == id => {
                    self.rpc_latency.record_duration(t0.elapsed());
                    return Ok(reply.body);
                }
                Ok(reply) if reply.id < id => continue, // stale; discard
                Ok(reply) => {
                    return Err(CallError::Terminal(format!(
                        "protocol error: reply id {} from the future (at {id})",
                        reply.id
                    )));
                }
                Err(FrameError::Timeout) => {
                    attempts += 1;
                    if attempts >= self.config.reply_attempts {
                        return Err(CallError::Terminal(format!(
                            "RPC timed out after {attempts} × {:?}",
                            self.config.read_timeout
                        )));
                    }
                }
                Err(FrameError::Closed) => {
                    return Err(CallError::Transport("server closed the connection".into()));
                }
                Err(e) => {
                    return Err(CallError::Transport(format!("reply read failed: {e}")));
                }
            }
        }
    }

    /// Pipeline `ops` to the server in one frame and receive their
    /// correlated replies in one frame — the RPC-amortization the
    /// source paper's bottleneck analysis calls for (one ≈17–20 ms
    /// round trip per *batch* instead of per op). The replies arrive
    /// in submission order, one per op; like a single parked op, the
    /// whole batch's reply is withheld until every op completes. If
    /// any op reports the transaction aborted, the local handle is
    /// cleared, mirroring [`Session::read`]/[`Session::write`].
    pub fn batch(&mut self, ops: Vec<Operation>) -> Result<Vec<OpReply>, SessionError> {
        let txn = self.current.ok_or(SessionError::NoTransaction)?;
        let sent = ops.len();
        let replies = match self.call(RequestBody::Batch { txn, ops })? {
            ReplyBody::Batch(replies) => replies,
            ReplyBody::Error(e) => return Err(SessionError::Backend(e)),
            other => {
                return Err(SessionError::Backend(format!(
                    "batch answered with {other:?}"
                )))
            }
        };
        if replies.len() != sent {
            return Err(SessionError::Backend(format!(
                "protocol error: batch of {sent} ops answered with {} replies",
                replies.len()
            )));
        }
        if replies.iter().any(|r| matches!(r, OpReply::Aborted(_))) {
            self.current = None;
        }
        Ok(replies)
    }

    fn submit_op(&mut self, op: Operation) -> Result<OpReply, SessionError> {
        let txn = self.current.ok_or(SessionError::NoTransaction)?;
        match self.call(RequestBody::Op { txn, op })? {
            ReplyBody::Op(reply) => Ok(reply),
            ReplyBody::Error(e) => Err(SessionError::Backend(e)),
            other => Err(SessionError::Backend(format!("op answered with {other:?}"))),
        }
    }

    /// Mirrors the in-process connection: `current` is cleared unless
    /// the reply is an `EndReply::Error` (the only case in which the
    /// transaction may still be alive server-side, leaving the handle
    /// for a retry or abort). `Unknown` in particular *must* clear it:
    /// when a commit's reply is lost to a timeout after the server
    /// ended the transaction, the retried `End` answers `Unknown`, and
    /// keeping the handle would wedge this connection permanently —
    /// every later `begin` refused, with no way out.
    fn submit_end(&mut self, commit: bool) -> Result<EndReply, SessionError> {
        let txn = self.current.ok_or(SessionError::NoTransaction)?;
        let reply = match self.call(RequestBody::End { txn, commit })? {
            ReplyBody::End(reply) => reply,
            ReplyBody::Error(e) => return Err(SessionError::Backend(e)),
            other => {
                return Err(SessionError::Backend(format!(
                    "end answered with {other:?}"
                )))
            }
        };
        if !matches!(reply, EndReply::Error(_)) {
            self.current = None;
        }
        Ok(reply)
    }
}

impl Session for TcpConnection {
    fn begin(&mut self, kind: TxnKind, bounds: TxnBounds) -> Result<(), SessionError> {
        if self.current.is_some() {
            return Err(SessionError::Backend(
                "begin while a transaction is in progress".into(),
            ));
        }
        let ts = self.clock.next();
        match self.call(RequestBody::Begin { kind, bounds, ts })? {
            ReplyBody::Begin(BeginReply::Started(id)) => {
                self.current = Some(id);
                Ok(())
            }
            ReplyBody::Begin(BeginReply::Error(e)) | ReplyBody::Error(e) => {
                Err(SessionError::Backend(e))
            }
            other => Err(SessionError::Backend(format!(
                "begin answered with {other:?}"
            ))),
        }
    }

    fn read(&mut self, obj: ObjectId) -> Result<Value, SessionError> {
        match self.submit_op(Operation::Read(obj))? {
            OpReply::Value(v) => Ok(v),
            OpReply::Aborted(r) => {
                self.current = None;
                Err(SessionError::Aborted(r))
            }
            OpReply::Written => Err(SessionError::Backend("read answered as write".into())),
            OpReply::Error(e) => Err(SessionError::Backend(e)),
        }
    }

    fn write(&mut self, obj: ObjectId, value: Value) -> Result<(), SessionError> {
        match self.submit_op(Operation::Write(obj, value))? {
            OpReply::Written => Ok(()),
            OpReply::Aborted(r) => {
                self.current = None;
                Err(SessionError::Aborted(r))
            }
            OpReply::Value(_) => Err(SessionError::Backend("write answered as read".into())),
            OpReply::Error(e) => Err(SessionError::Backend(e)),
        }
    }

    fn commit(&mut self) -> Result<CommitInfo, SessionError> {
        match self.submit_end(true)? {
            EndReply::Committed(info) => Ok(info),
            EndReply::Aborted => Err(SessionError::Backend("commit answered as abort".into())),
            EndReply::Unknown(t) => Err(SessionError::Backend(format!(
                "transaction {t} unknown to the server (already ended, or an earlier \
                 commit reply was lost)"
            ))),
            EndReply::Error(e) => Err(SessionError::Backend(e)),
        }
    }

    fn abort(&mut self) -> Result<(), SessionError> {
        match self.submit_end(false)? {
            EndReply::Aborted => Ok(()),
            EndReply::Committed(_) => Err(SessionError::Backend("abort answered as commit".into())),
            EndReply::Unknown(t) => Err(SessionError::Backend(format!(
                "transaction {t} unknown to the server (already ended, or an earlier \
                 commit reply was lost)"
            ))),
            EndReply::Error(e) => Err(SessionError::Backend(e)),
        }
    }

    fn in_txn(&self) -> bool {
        self.current.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_bound_every_wait() {
        let c = NetClientConfig::default();
        assert!(c.connect_attempts >= 1);
        assert!(c.reply_attempts >= 1);
        assert!(c.read_timeout > Duration::ZERO);
        assert!(c.write_timeout > Duration::ZERO);
    }

    #[test]
    fn connect_gives_up_after_bounded_retries() {
        // Nothing listens on this port (bound but not accepting would
        // accept; use an address that refuses quickly instead).
        let cfg = NetClientConfig {
            connect_attempts: 2,
            backoff: Duration::from_millis(1),
            ..NetClientConfig::default()
        };
        let t0 = Instant::now();
        // Port 1 on localhost: virtually guaranteed closed -> refused.
        let r = TcpConnection::connect_with("127.0.0.1:1", cfg);
        assert!(r.is_err());
        // Two attempts with 1 ms + 2 ms backoff should fail fast, not
        // hang on some unbounded internal retry.
        assert!(t0.elapsed() < Duration::from_secs(10));
    }
}
