//! The socket-accepting server front end.
//!
//! A [`TcpServer`] wraps a running [`esr_server::Server`] and bridges
//! framed socket requests into its worker/kernel dispatch. Each
//! accepted connection gets two threads:
//!
//! - a **reader** that decodes [`WireRequest`] frames and submits them
//!   through the server's [`RpcHandle`], attaching a hook
//!   [`ReplySink`] that routes the eventual reply — *whenever* it
//!   fires — back to this connection's writer with the request's
//!   correlation id;
//! - a **writer** that drains a queue of [`WireReply`]s onto the
//!   socket.
//!
//! Workers therefore never block on a socket: completing an operation
//! (including waking one parked on a kernel wait queue from a commit
//! processed on *any* worker) is an in-memory channel send. The hook
//! for a parked operation keeps the writer alive until it fires, so a
//! wakeup arriving minutes later still reaches the right socket.
//!
//! Shutdown is graceful in the protocol sense: queued requests and
//! parked operations are answered with an explicit shutdown error (by
//! [`esr_server::Server::shutdown`]) and flushed to the sockets before
//! the connections close — remote clients observe a reported failure,
//! not a reset.

use crate::frame::{read_frame, write_frame};
use crate::listen::{accept_until_stopped, wake};
use crate::msg::{ReplyBody, RequestBody, WireReply, WireRequest};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use esr_core::ids::{SiteId, TxnId};
use esr_server::{
    BeginReply, EndReply, OpReply, ReplySink, Request, RpcHandle, Server, SubmitError, BUSY_ERROR,
    MAX_BATCH, SHUTDOWN_ERROR,
};
use parking_lot::Mutex;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Transport-side server configuration.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Per-socket write timeout. A peer that stops reading must not
    /// wedge a writer thread forever.
    pub write_timeout: Option<Duration>,
    /// When set, log (stderr) a rate-limited warning — at most one per
    /// this interval — each time the request queue rejects work as
    /// busy. `None` (the default) keeps the transport silent; the
    /// `esr-tcpd` daemon turns it on.
    pub warn_on_overload: Option<Duration>,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            write_timeout: Some(Duration::from_secs(5)),
            warn_on_overload: None,
        }
    }
}

/// First retry-after hint handed to a client when the request queue
/// rejects as busy; doubles per *consecutive* busy reject (a shared
/// signal of sustained overload) up to [`BUSY_RETRY_MAX_MICROS`].
pub const BUSY_RETRY_BASE_MICROS: u64 = 1_000;

/// Cap on the busy retry-after hint (one second).
pub const BUSY_RETRY_MAX_MICROS: u64 = 1_000_000;

/// Shared-across-connections overload signal. Consecutive busy rejects
/// grow the retry-after hint (load-adaptive backoff: the deeper the
/// overload, the further clients are pushed away); any successfully
/// queued request resets it.
struct OverloadState {
    consecutive: std::sync::atomic::AtomicU32,
    last_warn: Mutex<Option<std::time::Instant>>,
}

impl OverloadState {
    fn new() -> Self {
        OverloadState {
            consecutive: std::sync::atomic::AtomicU32::new(0),
            last_warn: Mutex::new(None),
        }
    }

    /// Record one busy reject and return the hint to send.
    fn busy_hint_micros(&self) -> u64 {
        let n = self.consecutive.fetch_add(1, Ordering::Relaxed);
        (BUSY_RETRY_BASE_MICROS << n.min(32)).min(BUSY_RETRY_MAX_MICROS)
    }

    /// A request made it into the queue; the burst is over.
    fn calm(&self) {
        self.consecutive.store(0, Ordering::Relaxed);
    }

    /// Rate-limited warning gate: true at most once per `every`.
    fn should_warn(&self, every: Duration) -> bool {
        let mut last = self.last_warn.lock();
        let now = std::time::Instant::now();
        match *last {
            Some(prev) if now.duration_since(prev) < every => false,
            _ => {
                *last = Some(now);
                true
            }
        }
    }
}

/// Format the busy reject sent to clients: the stable [`BUSY_ERROR`]
/// prefix plus a machine-readable retry-after hint. Shared with the
/// replica read path, whose over-budget rejects use the same
/// park-and-retry machinery.
pub(crate) fn busy_reject(hint_micros: u64) -> String {
    format!("{BUSY_ERROR}; retry-after-micros={hint_micros}")
}

/// Parse the retry-after hint out of a busy reject produced by
/// [`busy_reject`]. `None` for non-busy errors or pre-hint servers
/// (whose rejects are the bare [`BUSY_ERROR`]).
pub fn busy_retry_after_micros(message: &str) -> Option<u64> {
    let rest = message.strip_prefix(BUSY_ERROR)?;
    let hint = rest.strip_prefix("; retry-after-micros=")?;
    hint.parse().ok()
}

/// Returns true for any busy reject, with or without a retry-after
/// hint. The check is a prefix match so the hint suffix (and future
/// suffixes) never break older clients.
pub fn is_busy_error(message: &str) -> bool {
    message.starts_with(BUSY_ERROR)
}

/// Capacity of each connection's reply queue (reader/worker hooks →
/// writer). Far beyond anything a live peer can have outstanding (the
/// request queue feeding the workers is itself bounded, and parked
/// operations produce at most one reply each); it only fills when the
/// peer has stopped draining its socket for a long time.
pub const REPLY_QUEUE_CAP: usize = 8192;

/// A connection's bounded path back to its writer thread. Reply hooks
/// (which run on worker threads) enqueue through [`ReplyQueue::send`]:
/// a full queue means the peer has stopped reading, so the connection
/// is severed instead of buffering without bound or blocking a worker.
struct ReplyQueue {
    tx: Sender<WireReply>,
    /// Clone of the accepted socket, used only to sever a connection
    /// whose reply queue overflowed (the reader then exits and
    /// orphan-reaps as for any dead connection).
    stream: TcpStream,
}

impl ReplyQueue {
    fn send(&self, reply: WireReply) {
        match self.tx.try_send(reply) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                // The peer is not draining replies; treat it as gone.
                // Dropping this reply is safe: the client's bounded
                // retry machinery observes the dead connection, and the
                // reader's exit path rolls back its live transactions.
                let _ = self.stream.shutdown(Shutdown::Both);
            }
            Err(TrySendError::Disconnected(_)) => {} // writer gone
        }
    }
}

/// The transactions a connection has begun and not yet ended — the set
/// to orphan-reap when the connection dies. Maintained *advisorily* by
/// the reply hooks (a commit that raced the disconnect just makes the
/// reap a no-op), with a `dead` flag closing the race where a `Begin`
/// reply fires after the reader already drained the set.
struct ConnTxns {
    live: Mutex<std::collections::HashSet<TxnId>>,
    dead: AtomicBool,
}

impl ConnTxns {
    fn new() -> Self {
        ConnTxns {
            live: Mutex::new(std::collections::HashSet::new()),
            dead: AtomicBool::new(false),
        }
    }

    /// A `Begin` on this connection was admitted as `txn`.
    fn note_begun(&self, txn: TxnId, rpc: &RpcHandle) {
        self.live.lock().insert(txn);
        if self.dead.load(Ordering::SeqCst) {
            // The reader exited between the submit and this reply; it
            // will never see the id, so reap here instead of leaking.
            self.reap_all(rpc);
        }
    }

    /// `txn` ended (commit, abort, kernel abort, or Unknown).
    fn note_ended(&self, txn: TxnId) {
        self.live.lock().remove(&txn);
    }

    /// The connection is gone: abort everything it left behind.
    fn mark_dead(&self, rpc: &RpcHandle) {
        self.dead.store(true, Ordering::SeqCst);
        self.reap_all(rpc);
    }

    fn reap_all(&self, rpc: &RpcHandle) {
        let orphans: Vec<TxnId> = {
            let mut live = self.live.lock();
            live.drain().collect()
        };
        if !orphans.is_empty() {
            rpc.reap_orphans(&orphans);
        }
    }
}

/// A TCP front end over a running [`Server`].
pub struct TcpServer {
    inner: Server,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl TcpServer {
    /// Bind `addr` and start accepting connections for `server`.
    /// `addr` may carry port 0 to let the OS pick; see
    /// [`TcpServer::local_addr`].
    pub fn bind(server: Server, addr: impl ToSocketAddrs) -> io::Result<TcpServer> {
        TcpServer::bind_with(server, addr, NetServerConfig::default())
    }

    /// [`TcpServer::bind`] with explicit transport configuration.
    pub fn bind_with(
        server: Server,
        addr: impl ToSocketAddrs,
        config: NetServerConfig,
    ) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let rpc = server.rpc_handle();
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let threads = Arc::clone(&threads);
            std::thread::Builder::new()
                .name("esr-net-accept".into())
                .spawn(move || accept_loop(listener, rpc, config, stop, conns, threads))
                .expect("spawn accept thread")
        };
        Ok(TcpServer {
            inner: server,
            addr,
            stop,
            accept: Some(accept),
            conns,
            threads,
        })
    }

    /// The bound address (with the OS-assigned port when bound to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped server (kernel stats, in-process connections).
    pub fn server(&self) -> &Server {
        &self.inner
    }

    /// Stop accepting, shut the inner server down (answering queued and
    /// parked requests with an explicit error), flush those replies to
    /// the sockets, and close every connection. Idempotent; also run by
    /// `Drop`.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        wake(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Answer everything in flight with SHUTDOWN_ERROR. The hook
        // sinks enqueue onto the per-connection writers, which are
        // still running and flush the errors out.
        self.inner.shutdown();
        // Readers see EOF (write halves stay open so writers can
        // flush); each reader then drops its queue sender, and each
        // writer exits once the queue drains.
        for stream in self.conns.lock().drain(..) {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let handles: Vec<JoinHandle<()>> = self.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    rpc: RpcHandle,
    config: NetServerConfig,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let overload = Arc::new(OverloadState::new());
    let mut next_conn = 0u64;
    let on_conn = |(stream, _): (TcpStream, SocketAddr)| {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(config.write_timeout);
        conns
            .lock()
            .push(stream.try_clone().expect("clone accepted socket"));
        let writer_stream = stream.try_clone().expect("clone accepted socket");
        let (reply_tx, reply_rx) = bounded::<WireReply>(REPLY_QUEUE_CAP);
        let reply_queue = Arc::new(ReplyQueue {
            tx: reply_tx,
            stream: stream.try_clone().expect("clone accepted socket"),
        });
        let rpc = rpc.clone();
        let overload = Arc::clone(&overload);
        let warn_every = config.warn_on_overload;
        let conn_id = next_conn;
        next_conn += 1;
        let writer = std::thread::Builder::new()
            .name(format!("esr-net-writer-{conn_id}"))
            .spawn(move || writer_loop(writer_stream, reply_rx))
            .expect("spawn connection writer");
        let reader = std::thread::Builder::new()
            .name(format!("esr-net-reader-{conn_id}"))
            .spawn(move || reader_loop(stream, rpc, reply_queue, overload, warn_every))
            .expect("spawn connection reader");
        let mut reg = threads.lock();
        reg.push(writer);
        reg.push(reader);
    };
    accept_until_stopped(&stop, || listener.accept(), on_conn);
}

/// Drain the connection's reply queue onto the socket. Exits when every
/// queue sender (the reader plus any still-unfired reply hooks) is gone
/// and the queue is empty, or on the first write failure.
fn writer_loop(mut stream: TcpStream, replies: Receiver<WireReply>) {
    while let Ok(reply) = replies.recv() {
        if write_frame(&mut stream, &reply).is_err() {
            return; // peer gone; remaining replies have nowhere to go
        }
    }
}

/// Decode requests and feed them to the worker pool, attaching reply
/// hooks that carry the correlation id back to this connection's
/// writer. When the loop exits — EOF, codec failure, shutdown — every
/// site id this connection obtained via `Hello` is returned to the
/// allocator (so connection churn cannot exhaust the 16-bit id space),
/// and every transaction the connection begun but never ended is
/// orphan-reaped: its kernel effects are rolled back and any other
/// client parked behind its uncommitted writes is woken, so a crashed
/// client cannot wedge survivors.
fn reader_loop(
    mut stream: TcpStream,
    rpc: RpcHandle,
    replies: Arc<ReplyQueue>,
    overload: Arc<OverloadState>,
    warn_every: Option<Duration>,
) {
    let mut hello_sites: Vec<SiteId> = Vec::new();
    let txns = Arc::new(ConnTxns::new());
    // Loop until the first read failure. Closed: orderly EOF.
    // Io/Codec/Oversize: the stream can no longer be trusted to be
    // frame-aligned, so drop it; the client's bounded retries surface
    // the failure.
    while let Ok(req) = read_frame::<WireRequest>(&mut stream) {
        let id = req.id;
        if req.retry {
            rpc.note_retry();
        }
        let reply_to = |body: ReplyBody| {
            replies.send(WireReply { id, body });
        };
        match req.body {
            RequestBody::Hello => match rpc.alloc_site() {
                Ok(site) => {
                    hello_sites.push(site);
                    reply_to(ReplyBody::Welcome { site: site.0 });
                }
                Err(e) => reply_to(ReplyBody::Error(e.to_string())),
            },
            RequestBody::TimeExchange => reply_to(ReplyBody::Time {
                micros: rpc.reference_micros(),
            }),
            RequestBody::Begin { kind, bounds, ts } => {
                let tx = Arc::clone(&replies);
                let txns = Arc::clone(&txns);
                let hook_rpc = rpc.clone();
                let sink = ReplySink::hook(move |r| {
                    if let BeginReply::Started(txn) = &r {
                        txns.note_begun(*txn, &hook_rpc);
                    }
                    tx.send(WireReply {
                        id,
                        body: ReplyBody::Begin(r),
                    });
                });
                submit(
                    &rpc,
                    Request::Begin {
                        kind,
                        bounds,
                        ts,
                        reply: sink,
                    },
                    &overload,
                    warn_every,
                );
            }
            RequestBody::Op { txn, op } => {
                let tx = Arc::clone(&replies);
                let txns = Arc::clone(&txns);
                let sink = ReplySink::hook(move |r| {
                    if matches!(r, OpReply::Aborted(_)) {
                        txns.note_ended(txn);
                    }
                    tx.send(WireReply {
                        id,
                        body: ReplyBody::Op(r),
                    });
                });
                submit(
                    &rpc,
                    Request::Op {
                        txn,
                        op,
                        reply: sink,
                    },
                    &overload,
                    warn_every,
                );
            }
            RequestBody::Batch { txn, ops } => {
                // Reject oversize batches at the transport edge: the
                // frame decoder already bounds the frame, but a frame
                // full of tiny ops could still exceed the op cap.
                if ops.len() > MAX_BATCH {
                    reply_to(ReplyBody::Error(format!(
                        "batch of {} ops exceeds the {MAX_BATCH}-op limit",
                        ops.len()
                    )));
                    continue;
                }
                let tx = Arc::clone(&replies);
                let txns = Arc::clone(&txns);
                let sink = ReplySink::hook(move |r: Vec<OpReply>| {
                    if r.iter().any(|op| matches!(op, OpReply::Aborted(_))) {
                        txns.note_ended(txn);
                    }
                    tx.send(WireReply {
                        id,
                        body: ReplyBody::Batch(r),
                    });
                });
                submit(
                    &rpc,
                    Request::Batch {
                        txn,
                        ops,
                        reply: sink,
                    },
                    &overload,
                    warn_every,
                );
            }
            RequestBody::End { txn, commit } => {
                let tx = Arc::clone(&replies);
                let txns = Arc::clone(&txns);
                let sink = ReplySink::hook(move |r: EndReply| {
                    // Error is the one reply after which the transaction
                    // may still be live server-side.
                    if !matches!(r, EndReply::Error(_)) {
                        txns.note_ended(txn);
                    }
                    tx.send(WireReply {
                        id,
                        body: ReplyBody::End(r),
                    });
                });
                submit(
                    &rpc,
                    Request::End {
                        txn,
                        commit,
                        reply: sink,
                    },
                    &overload,
                    warn_every,
                );
            }
            RequestBody::Stats => {
                let tx = Arc::clone(&replies);
                let sink = ReplySink::hook(move |r| {
                    tx.send(WireReply {
                        id,
                        body: ReplyBody::Stats(r),
                    });
                });
                submit(&rpc, Request::Stats { reply: sink }, &overload, warn_every);
            }
        }
    }
    txns.mark_dead(&rpc);
    for site in hello_sites {
        rpc.release_site(site);
    }
}

/// Queue a request; if the queue is full or the server is gone, answer
/// through the request's own sink so the remote client gets an explicit
/// busy/shutdown error instead of a silently dropped frame. Busy
/// rejects carry a load-adaptive retry-after hint and optionally log a
/// rate-limited overload warning.
fn submit(rpc: &RpcHandle, req: Request, overload: &OverloadState, warn_every: Option<Duration>) {
    match rpc.submit(req) {
        Ok(()) => overload.calm(),
        Err(SubmitError::Busy(req)) => {
            let hint = overload.busy_hint_micros();
            if let Some(every) = warn_every {
                if overload.should_warn(every) {
                    eprintln!(
                        "esr-net: request queue full; rejecting with retry-after {hint}\u{b5}s"
                    );
                }
            }
            req.reject(&busy_reject(hint));
        }
        Err(SubmitError::Down(req)) => req.reject(SHUTDOWN_ERROR),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_server_config_defaults_bound_writes() {
        let c = NetServerConfig::default();
        assert!(c.write_timeout.is_some());
    }

    #[test]
    fn frame_error_is_displayed() {
        let e = crate::frame::FrameError::Oversize(123);
        assert!(e.to_string().contains("123"));
    }

    #[test]
    fn busy_rejects_round_trip_their_hint() {
        let msg = busy_reject(4_000);
        assert!(is_busy_error(&msg));
        assert_eq!(busy_retry_after_micros(&msg), Some(4_000));
        // Pre-hint servers send the bare prefix: busy, but no hint.
        assert!(is_busy_error(BUSY_ERROR));
        assert_eq!(busy_retry_after_micros(BUSY_ERROR), None);
        assert!(!is_busy_error("some other failure"));
        assert_eq!(busy_retry_after_micros("some other failure"), None);
    }

    #[test]
    fn busy_hint_doubles_until_calm_then_resets() {
        let o = OverloadState::new();
        assert_eq!(o.busy_hint_micros(), BUSY_RETRY_BASE_MICROS);
        assert_eq!(o.busy_hint_micros(), BUSY_RETRY_BASE_MICROS * 2);
        assert_eq!(o.busy_hint_micros(), BUSY_RETRY_BASE_MICROS * 4);
        o.calm();
        assert_eq!(o.busy_hint_micros(), BUSY_RETRY_BASE_MICROS);
        // A sustained burst saturates at the cap instead of shifting
        // past 64 bits.
        for _ in 0..80 {
            assert!(o.busy_hint_micros() <= BUSY_RETRY_MAX_MICROS);
        }
        assert_eq!(o.busy_hint_micros(), BUSY_RETRY_MAX_MICROS);
    }

    #[test]
    fn overload_warning_is_rate_limited() {
        let o = OverloadState::new();
        let every = Duration::from_secs(3600);
        assert!(o.should_warn(every));
        assert!(!o.should_warn(every), "second warning inside the window");
        assert!(o.should_warn(Duration::ZERO), "window elapsed");
    }

    #[test]
    fn conn_txns_track_begun_and_ended() {
        // Pure set mechanics (the reap path needs a server and is
        // covered by the integration tests): ended txns are forgotten.
        let t = ConnTxns::new();
        t.live.lock().insert(TxnId(1));
        t.live.lock().insert(TxnId(2));
        t.note_ended(TxnId(1));
        assert_eq!(t.live.lock().len(), 1);
        assert!(t.live.lock().contains(&TxnId(2)));
    }
}
