//! One thread per accepted connection, for both request front ends of
//! this crate (`TcpServer`, `ReplicaServer`): the registry that starts,
//! wakes and joins those threads, the loop each of them runs, and the
//! write half through which replies reach the peer.

use crate::frame::{encode_frame, FrameReader, MAX_FRAME};
use crate::msg::{WireReply, WireRequest};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::thread::{JoinHandle, ThreadId};
use std::time::Duration;

/// How long a connection's own thread may wait for its peer to take a
/// reply, unless the front end configures otherwise. A peer that stops
/// reading must not hold the thread for ever.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The shortest timeout a socket takes: what "at once" means for a
/// thread that is not the connection's own (see [`ReplyPort`]).
const AT_ONCE: Duration = Duration::from_micros(1);

/// How many encoded bytes may wait in a connection's outbox before one
/// more reply severs it. Replies wait there only while some thread is
/// writing to the socket, so a backlog this long means that thread is
/// stuck on a peer that does not read.
const OUTBOX_CAP: usize = 256 * 1024;

/// What a connection's two reply buffers shrink back to after a long
/// reply.
const WRITE_BUF: usize = 4096;

/// The live connections of one listener and the threads serving them.
#[derive(Default)]
pub(crate) struct Connections {
    state: Mutex<Registry>,
}

#[derive(Default)]
struct Registry {
    next_id: u64,
    /// A handle on every live connection's socket, to wake its thread
    /// at shutdown. The thread removes its own entry when it ends, so
    /// connection churn does not accumulate descriptors.
    live: HashMap<u64, TcpStream>,
    threads: Vec<JoinHandle<()>>,
}

impl Connections {
    /// Run `serve` for `stream` on a thread of its own, named
    /// `name-<n>`. A connection that cannot be registered (no
    /// descriptor or thread left) is dropped; the listener goes on.
    pub(crate) fn spawn(
        self: &Arc<Self>,
        name: &str,
        stream: TcpStream,
        serve: impl FnOnce(TcpStream) + Send + 'static,
    ) {
        let Ok(waker) = stream.try_clone() else {
            return;
        };
        let mut state = self.state.lock();
        let id = state.next_id;
        state.next_id += 1;
        let registry = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name(format!("{name}-{id}"))
            .spawn(move || {
                serve(stream);
                registry.state.lock().live.remove(&id);
            });
        let Ok(thread) = spawned else {
            return;
        };
        state.live.insert(id, waker);
        let (done, running) = std::mem::take(&mut state.threads)
            .into_iter()
            .partition(|t| t.is_finished());
        state.threads = running;
        state.threads.push(thread);
        drop(state);
        join_all(done);
    }

    /// Wake every connection's thread out of its read and join them
    /// all. Only the read halves are shut: a thread in the middle of a
    /// reply finishes writing it, sees EOF, and ends. The listener's
    /// accept loop must have stopped, so nothing is added meanwhile.
    pub(crate) fn close(&self) {
        let threads = {
            let mut state = self.state.lock();
            for stream in state.live.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
            std::mem::take(&mut state.threads)
        };
        join_all(threads);
    }
}

fn join_all(threads: Vec<JoinHandle<()>>) {
    for t in threads {
        let _ = t.join();
    }
}

/// A connection's socket as its replies see it.
///
/// The thread that completes an operation sends its reply, so replies
/// come from two kinds of thread: the connection's **own** (the one that
/// reads its requests, and created this port) and **any other** — one
/// that answers an operation of this connection parked until that
/// thread's commit, abort, reap or shutdown woke it. A peer that
/// multiplexes transactions on one socket gets both at once.
///
/// Every reply is encoded into the connection's outbox, and then the
/// sender tries to become the writer: whoever holds the write lock
/// empties the outbox into the socket, and looks again after letting go,
/// so a reply queued while somebody else was writing is written by that
/// somebody. What a thread may wait for on the way:
///
/// - the connection's own thread waits for the write lock (its holder
///   never waits, see next) and on the socket, up to the write timeout;
/// - any other thread waits for nothing. If the lock is taken it leaves
///   its reply in the outbox; if it gets the lock, the socket buffer
///   takes everything queued at once or the connection is severed.
///
/// A connection is severed when its peer does not keep up with its own
/// replies: the own thread's write timed out, another thread found the
/// socket buffer full, or the outbox overflowed behind a stuck writer.
/// Its thread then sees the dead socket, ends, and the connection's
/// transactions are rolled back. A slow peer can therefore hold up only
/// the thread that serves it.
pub(crate) struct ReplyPort {
    stream: TcpStream,
    owner: ThreadId,
    write_timeout: Option<Duration>,
    /// Encoded replies not yet written, in the order they go out. Held
    /// for one encode or one swap, never across a write.
    outbox: Mutex<Vec<u8>>,
    /// The write lock, and under it the (empty) buffer the outbox is
    /// swapped with for a write. Held across the socket write only,
    /// never across a call into the ESR kernel; `outbox` nests inside
    /// it.
    writing: Mutex<Vec<u8>>,
}

impl ReplyPort {
    /// The port of the connection the calling thread serves.
    pub(crate) fn new(stream: TcpStream, write_timeout: Option<Duration>) -> io::Result<ReplyPort> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(write_timeout)?;
        Ok(ReplyPort {
            stream,
            owner: std::thread::current().id(),
            write_timeout,
            outbox: Mutex::new(Vec::new()),
            writing: Mutex::new(Vec::new()),
        })
    }

    /// Send `reply` to the peer — written before this returns, or left
    /// to the thread that is writing now — or sever the connection (and
    /// return `false`).
    pub(crate) fn send(&self, reply: &WireReply) -> bool {
        let queued = {
            let mut outbox = self.outbox.lock();
            outbox.len() <= OUTBOX_CAP && encode_frame(reply, MAX_FRAME, &mut outbox).is_ok()
        };
        let sent = queued && self.flush();
        if !sent {
            self.sever();
        }
        sent
    }

    /// Write the outbox out, unless another thread is doing that.
    /// `false` if the socket did not take it.
    fn flush(&self) -> bool {
        let own = std::thread::current().id() == self.owner;
        loop {
            let writing = if own {
                Some(self.writing.lock())
            } else {
                self.writing.try_lock()
            };
            // Taken: its holder looks at the outbox again once it lets go.
            let Some(mut frames) = writing else {
                return true;
            };
            std::mem::swap(&mut *frames, &mut *self.outbox.lock());
            let written = if own {
                (&self.stream).write_all(&frames).is_ok()
            } else {
                frames.is_empty() || self.write_at_once(&frames)
            };
            frames.clear();
            frames.shrink_to(WRITE_BUF);
            drop(frames);
            if !written {
                return false;
            }
            if self.outbox.lock().is_empty() {
                return true;
            }
        }
    }

    /// Hand `frames` to the socket buffer whole, now, or report failure.
    /// The send timeout belongs to the socket, not to the caller; the
    /// write lock is held, so no other write runs under the shortened
    /// one.
    fn write_at_once(&self, frames: &[u8]) -> bool {
        let _ = self.stream.set_write_timeout(Some(AT_ONCE));
        let sent = matches!((&self.stream).write(frames), Ok(n) if n == frames.len());
        let _ = self.stream.set_write_timeout(self.write_timeout);
        sent
    }

    /// Shut both halves: the connection's thread fails its next read or
    /// its current write and ends.
    fn sever(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// The loop of the connection's own thread: decode requests until
    /// the stream ends and give each to `handle`, which answers through
    /// this port — before it returns, or later from whichever thread
    /// completes the operation. The loop ends on the first read failure.
    /// Closed: orderly EOF. Io/Codec/Oversize: the stream can no longer
    /// be trusted to be frame-aligned, so it is dropped; the client's
    /// bounded retries surface the failure.
    pub(crate) fn serve_requests(&self, mut handle: impl FnMut(WireRequest)) {
        let mut frames = FrameReader::new(&self.stream);
        while let Ok(req) = frames.read::<WireRequest>() {
            handle(req);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ReplyBody;
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    /// A connected pair: the accepted end (the server's) and the peer.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (accepted, peer)
    }

    fn small_reply(id: u64) -> WireReply {
        WireReply {
            id,
            body: ReplyBody::Time { micros: id },
        }
    }

    fn big_reply(id: u64) -> WireReply {
        WireReply {
            id,
            body: ReplyBody::Error("z".repeat(60_000)),
        }
    }

    #[test]
    fn another_thread_never_waits_for_a_peer_that_does_not_read() {
        let (accepted, mut peer) = socket_pair();
        // The port belongs to a thread that is not this one, and its own
        // thread would wait half a minute for the peer.
        let port = std::thread::spawn(move || {
            ReplyPort::new(accepted, Some(Duration::from_secs(30))).unwrap()
        })
        .join()
        .unwrap();
        // The peer reads nothing: the socket buffers fill and the first
        // reply the kernel cannot take whole severs the connection.
        let t0 = Instant::now();
        let mut sent = 0u64;
        while sent < 10_000 && port.send(&big_reply(sent)) {
            sent += 1;
        }
        assert!(sent < 10_000, "600 MB were never going to fit in a socket");
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "{sent} sends took {:?}: some of them waited for the peer",
            t0.elapsed()
        );
        // The peer drains what was buffered and then sees the connection
        // end, not a reply cut short and followed by another.
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut frames = FrameReader::new(&peer);
        let mut got = 0u64;
        while let Ok(reply) = frames.read::<WireReply>() {
            assert_eq!(reply.id, got, "whole replies, in order");
            got += 1;
        }
        assert_eq!(got, sent, "every reply reported sent, and no other");
        let mut rest = Vec::new();
        let _ = peer.read_to_end(&mut rest);
    }

    #[test]
    fn replies_behind_a_stuck_writer_queue_up_to_the_cap_and_then_sever() {
        let (accepted, mut peer) = socket_pair();
        let port = std::thread::spawn(move || ReplyPort::new(accepted, None).unwrap())
            .join()
            .unwrap();
        // The own thread, stuck in a write for as long as this test runs.
        let stuck_writer = port.writing.lock();
        let t0 = Instant::now();
        let mut queued = 0;
        while port.send(&big_reply(queued)) {
            queued += 1;
            assert!(queued < 100, "the outbox has no bound");
        }
        assert!(queued > 0, "a taken write lock alone must not sever");
        assert!(t0.elapsed() < Duration::from_secs(5), "waited for the lock");
        drop(stuck_writer);
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(peer.read(&mut byte).unwrap(), 0, "severed: EOF, no bytes");
    }

    #[test]
    fn replies_from_two_threads_at_once_both_arrive() {
        // A peer with two transactions on one socket: in every round the
        // connection's own thread and another one answer it at the same
        // moment, and then both fall silent until it has read the two
        // replies. Whichever thread found the write lock taken left its
        // reply to the other, so a reply nobody writes stops the rounds.
        const ROUNDS: u64 = 10_000;
        let (accepted, peer) = socket_pair();
        let round = Arc::new(AtomicU64::new(0));
        let writer = |port: Arc<ReplyPort>, who: u64, round: Arc<AtomicU64>| {
            (0..ROUNDS).all(|n| {
                while round.load(Ordering::Acquire) < n {
                    std::thread::yield_now();
                }
                port.send(&small_reply(2 * n + who))
            })
        };
        let (port_tx, port_rx) = std::sync::mpsc::channel();
        let own = {
            let round = Arc::clone(&round);
            std::thread::spawn(move || {
                let port = Arc::new(ReplyPort::new(accepted, None).unwrap());
                port_tx.send(Arc::clone(&port)).unwrap();
                writer(port, 0, round)
            })
        };
        let port = port_rx.recv().unwrap();
        let foreign = {
            let round = Arc::clone(&round);
            std::thread::spawn(move || writer(port, 1, round))
        };
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut frames = FrameReader::new(&peer);
        for n in 0..ROUNDS {
            let a: WireReply = frames.read().expect("a reply was cut or never written");
            let b: WireReply = frames.read().expect("a reply was cut or never written");
            let mut ids = [a.id, b.id];
            ids.sort_unstable();
            assert_eq!(ids, [2 * n, 2 * n + 1]);
            round.store(n + 1, Ordering::Release);
        }
        assert!(own.join().unwrap());
        assert!(foreign.join().unwrap());
    }

    #[test]
    fn finished_connections_leave_the_registry() {
        let conns = Arc::new(Connections::default());
        let (accepted, peer) = socket_pair();
        conns.spawn("test-conn", accepted, |stream| {
            let port = ReplyPort::new(stream, None).unwrap();
            port.serve_requests(|_| {});
        });
        assert_eq!(conns.state.lock().live.len(), 1);
        drop(peer);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !conns.state.lock().live.is_empty() {
            assert!(Instant::now() < deadline, "the thread never deregistered");
            std::thread::sleep(Duration::from_millis(5));
        }
        // A parked one is woken and joined by close().
        let (accepted, _peer) = socket_pair();
        conns.spawn("test-conn", accepted, |stream| {
            let port = ReplyPort::new(stream, None).unwrap();
            port.serve_requests(|_| {});
        });
        conns.close();
        assert!(conns.state.lock().live.is_empty());
        assert!(conns.state.lock().threads.is_empty());
    }
}
