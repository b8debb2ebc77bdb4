//! The socket-accepting server front end.
//!
//! A [`TcpServer`] wraps a running [`esr_server::Server`] and runs
//! framed socket requests against its kernel. Each accepted connection
//! gets **one thread**, and that thread is the request's thread: it
//! reads a [`WireRequest`] frame, runs it to completion through the
//! server's [`RpcHandle::serve`], and the reply is written to the
//! socket before `serve` returns — no queue and no second thread
//! between the socket and the kernel. Backpressure is TCP's own: a
//! connection has at most one request in service, and what its peer
//! sends meanwhile waits in the socket buffer.
//!
//! The exception is an operation that parks on a kernel wait queue:
//! `serve` returns without a reply and the thread goes back to reading
//! (the `End` that wakes the operation may arrive on this very socket).
//! Every request carries a hook [`ReplySink`] that frames the reply
//! with the request's correlation id and writes it to the connection's
//! socket — *whenever* and on *whichever thread* it fires. A parked
//! operation is therefore answered by the thread whose commit, abort or
//! reap woke it; the hook keeps the connection's state alive until then,
//! so a wakeup arriving minutes later still reaches the right socket.
//! What a thread may wait for when it writes to a connection that is
//! not its own is the rule of `ReplyPort::send`: nothing.
//!
//! Shutdown is graceful in the protocol sense: requests that arrive
//! late and parked operations are answered with an explicit shutdown
//! error (by [`esr_server::Server::shutdown`]) before the connections
//! close — remote clients observe a reported failure, not a reset.

use crate::conn::{Connections, ReplyPort, WRITE_TIMEOUT};
use crate::listen::{accept_until_stopped, wake};
use crate::msg::{ReplyBody, RequestBody, WireReply, WireRequest};
use esr_core::ids::{SiteId, TxnId};
use esr_server::{
    BeginReply, EndReply, OpReply, ReplySink, Request, RpcHandle, Server, BUSY_ERROR, MAX_BATCH,
};
use parking_lot::Mutex;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Transport-side server configuration.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Per-socket write timeout: how long a connection's own thread
    /// waits for its peer to take a reply before giving the connection
    /// up. A peer that stops reading must not hold the thread for ever.
    pub write_timeout: Option<Duration>,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            write_timeout: Some(WRITE_TIMEOUT),
        }
    }
}

/// The retry-after a client assumes for a busy reject that carries no
/// hint, and the least a replica ever asks for.
pub const BUSY_RETRY_BASE_MICROS: u64 = 1_000;

/// Format a busy reject: the stable [`BUSY_ERROR`] prefix plus a
/// machine-readable retry-after hint. Sent by the replica read path for
/// a read its budget cannot cover yet; the client's back-off and resend
/// wait out the catch-up.
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

/// Everything the reply hooks of one connection share, behind one
/// `Arc`: where replies go, the server they came from, and the
/// transactions the connection has begun and not yet ended — the set to
/// orphan-reap when it dies. The set is maintained *advisorily* by the
/// hooks (a commit that raced the disconnect just makes the reap a
/// no-op).
struct Conn {
    port: ReplyPort,
    rpc: RpcHandle,
    live: Mutex<std::collections::HashSet<TxnId>>,
}

impl Conn {
    fn reply(&self, id: u64, body: ReplyBody) {
        self.port.send(&WireReply { id, body });
    }

    /// `txn` ended (commit, abort, kernel abort, or Unknown).
    fn note_ended(&self, txn: TxnId) {
        self.live.lock().remove(&txn);
    }
}

/// A TCP front end over a running [`Server`].
pub struct TcpServer {
    inner: Server,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Connections>,
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
        let conns = Arc::new(Connections::default());
        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let on_conn = move |(stream, _): (TcpStream, SocketAddr)| {
                let rpc = rpc.clone();
                conns.spawn("esr-net-conn", stream, move |stream| {
                    serve_connection(stream, rpc, config.write_timeout)
                });
            };
            std::thread::Builder::new()
                .name("esr-net-accept".into())
                .spawn(move || accept_until_stopped(&stop, || listener.accept(), on_conn))
                .expect("spawn accept thread")
        };
        Ok(TcpServer {
            inner: server,
            addr,
            stop,
            accept: Some(accept),
            conns,
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

    /// Stop accepting, shut the inner server down (which waits for the
    /// requests in service and answers parked operations with an
    /// explicit error, written to their sockets), and close every
    /// connection. Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        wake(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.inner.shutdown();
        // A request read from now on is answered SHUTDOWN_ERROR by
        // `serve`; then its thread sees EOF and ends.
        self.conns.close();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One connection's thread, from accept to hang-up. When the request
/// loop exits — EOF, codec failure, severed, shutdown — the site id the
/// connection obtained via `Hello` is returned to the allocator (so
/// connection churn cannot exhaust the 16-bit id space), and every
/// transaction the connection begun but never ended is orphan-reaped:
/// its kernel effects are rolled back and any other client parked
/// behind its uncommitted writes is woken, so a crashed client cannot
/// wedge survivors.
fn serve_connection(stream: TcpStream, rpc: RpcHandle, write_timeout: Option<Duration>) {
    let Ok(port) = ReplyPort::new(stream, write_timeout) else {
        return;
    };
    let conn = Arc::new(Conn {
        port,
        rpc,
        live: Mutex::new(std::collections::HashSet::new()),
    });
    let mut site: Option<SiteId> = None;
    conn.port
        .serve_requests(|req| handle(&conn, req, &mut site));
    // `Begin` is answered on this thread, so no transaction can join
    // the set after this drain.
    let orphans: Vec<TxnId> = conn.live.lock().drain().collect();
    if !orphans.is_empty() {
        conn.rpc.reap_orphans(&orphans);
    }
    if let Some(site) = site {
        conn.rpc.release_site(site);
    }
}

/// Run one request. Each kernel request gets a hook that carries the
/// correlation id back to this connection's socket.
fn handle(conn: &Arc<Conn>, req: WireRequest, site: &mut Option<SiteId>) {
    let id = req.id;
    if req.retry {
        conn.rpc.note_retry();
    }
    let c = Arc::clone(conn);
    match req.body {
        // One site per connection: a repeated `Hello` is answered with
        // the site already held, or one socket could drain the id space.
        RequestBody::Hello => match site.map_or_else(|| conn.rpc.alloc_site(), Ok) {
            Ok(held) => {
                *site = Some(held);
                conn.reply(id, ReplyBody::Welcome { site: held.0 });
            }
            Err(e) => conn.reply(id, ReplyBody::Error(e.to_string())),
        },
        RequestBody::TimeExchange => conn.reply(
            id,
            ReplyBody::Time {
                micros: conn.rpc.reference_micros(),
            },
        ),
        RequestBody::Begin { kind, bounds, ts } => conn.rpc.serve(Request::Begin {
            kind,
            bounds,
            ts,
            reply: ReplySink::hook(move |r| {
                if let BeginReply::Started(txn) = &r {
                    c.live.lock().insert(*txn);
                }
                c.reply(id, ReplyBody::Begin(r));
            }),
        }),
        RequestBody::Op { txn, op } => conn.rpc.serve(Request::Op {
            txn,
            op,
            reply: ReplySink::hook(move |r| {
                if matches!(r, OpReply::Aborted(_)) {
                    c.note_ended(txn);
                }
                c.reply(id, ReplyBody::Op(r));
            }),
        }),
        // Oversize batches are rejected at the transport edge: the
        // frame decoder already bounds the frame, but a frame full of
        // tiny ops could still exceed the op cap.
        RequestBody::Batch { ops, .. } if ops.len() > MAX_BATCH => conn.reply(
            id,
            ReplyBody::Error(format!(
                "batch of {} ops exceeds the {MAX_BATCH}-op limit",
                ops.len()
            )),
        ),
        RequestBody::Batch { txn, ops } => conn.rpc.serve(Request::Batch {
            txn,
            ops,
            reply: ReplySink::hook(move |r: Vec<OpReply>| {
                if r.iter().any(|op| matches!(op, OpReply::Aborted(_))) {
                    c.note_ended(txn);
                }
                c.reply(id, ReplyBody::Batch(r));
            }),
        }),
        RequestBody::End { txn, commit } => conn.rpc.serve(Request::End {
            txn,
            commit,
            reply: ReplySink::hook(move |r: EndReply| {
                // Error is the one reply after which the transaction
                // may still be live server-side.
                if !matches!(r, EndReply::Error(_)) {
                    c.note_ended(txn);
                }
                c.reply(id, ReplyBody::End(r));
            }),
        }),
        RequestBody::Stats => conn.rpc.serve(Request::Stats {
            reply: ReplySink::hook(move |r| c.reply(id, ReplyBody::Stats(r))),
        }),
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
        // The text deployed clients match, spelled out.
        let reject = "server busy (request queue full); retry-after-micros=2000";
        assert!(is_busy_error(reject));
        assert_eq!(busy_retry_after_micros(reject), Some(2000));
        // Pre-hint servers send the bare prefix: busy, but no hint.
        assert!(is_busy_error(BUSY_ERROR));
        assert_eq!(busy_retry_after_micros(BUSY_ERROR), None);
        assert!(!is_busy_error("some other failure"));
        assert_eq!(busy_retry_after_micros("some other failure"), None);
    }
}
