//! Length-prefixed binary framing of serde values.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! +----------------+---------------------+
//! | len: u32 LE    | payload: len bytes  |
//! +----------------+---------------------+
//! ```
//!
//! The payload is the compact binary encoding of the serde data model
//! from [`esr_core::codec`] (shared with the storage write-ahead log,
//! which journals redo records in the same bytes); this module owns
//! only the *framing*: the length prefix, the socket I/O (one buffer
//! per stream, set up once — none per message), and the frame-size cap.
//!
//! Frames larger than [`MAX_FRAME`] are rejected on both ends: a
//! corrupt or malicious length prefix must not trigger an unbounded
//! allocation.

use esr_core::codec::{self, CodecError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Read, Write};

pub use esr_core::codec::MAX_DEPTH;

/// Upper bound on one frame's payload. Protocol messages are tiny
/// (tens of bytes); a megabyte leaves room for pathological bound
/// specifications without admitting unbounded allocations.
pub const MAX_FRAME: u32 = 1 << 20;

/// Why encoding, decoding, or frame I/O failed.
#[derive(Debug)]
pub enum FrameError {
    /// The socket read timed out *between* frames — no bytes of the
    /// next frame were consumed, so the stream is still aligned and the
    /// caller may safely retry.
    Timeout,
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// Transport failure (mid-frame timeout, reset, …). The stream can
    /// no longer be trusted to be frame-aligned.
    Io(io::Error),
    /// The bytes were read but did not decode to the expected message.
    Codec(String),
    /// A length prefix exceeded the channel's frame cap ([`MAX_FRAME`]
    /// unless the writer or [`FrameReader`] was given a different one).
    Oversize(u32),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Timeout => f.write_str("read timed out waiting for a frame"),
            FrameError::Closed => f.write_str("connection closed"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Codec(m) => write!(f, "codec error: {m}"),
            FrameError::Oversize(n) => write!(f, "frame of {n} bytes exceeds the channel cap"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> Self {
        FrameError::Codec(e.0)
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Serialize a value to its frame payload (no length prefix).
pub fn to_bytes<T: Serialize>(value: &T) -> Vec<u8> {
    codec::to_bytes(value)
}

/// Deserialize a frame payload produced by [`to_bytes`].
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, FrameError> {
    codec::from_bytes(bytes).map_err(FrameError::from)
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Write one value as a frame. The frame is assembled in memory and
/// written with a single `write_all`, so a successful return means the
/// peer will observe a complete frame.
pub fn write_frame<T: Serialize>(w: &mut impl Write, value: &T) -> Result<(), FrameError> {
    write_frame_limit(w, value, MAX_FRAME)
}

/// [`write_frame`] with an explicit payload cap instead of
/// [`MAX_FRAME`]. Channels that legitimately carry bulk payloads (the
/// replication log stream, whose records hold whole write sets) raise
/// the cap rather than fragmenting; both ends must agree on it. An
/// [`FrameError::Oversize`] return means *nothing* was written — the
/// stream is still frame-aligned and the caller may split and resend.
pub fn write_frame_limit<T: Serialize>(
    w: &mut impl Write,
    value: &T,
    cap: u32,
) -> Result<(), FrameError> {
    let mut frame = Vec::with_capacity(64);
    encode_frame(value, cap, &mut frame)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Append one frame — length prefix and payload — to `out`, which a
/// caller that writes many frames keeps and reuses. On
/// [`FrameError::Oversize`] `out` is left as it was.
pub fn encode_frame<T: Serialize>(
    value: &T,
    cap: u32,
    out: &mut Vec<u8>,
) -> Result<(), FrameError> {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    codec::encode_into(value, out);
    let len = u32::try_from(out.len() - at - 4).unwrap_or(u32::MAX);
    if len > cap {
        out.truncate(at);
        return Err(FrameError::Oversize(len));
    }
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// What a [`FrameReader`]'s buffer starts at and shrinks back to. Protocol
/// messages are tens of bytes; a longer frame grows the buffer for as
/// long as it is being read.
const READ_BUF: usize = 4096;

/// Reads frames from `R` through a buffer it owns and reuses: a frame
/// that has arrived whole costs one `read` call, and frames a peer
/// pipelined behind it are served from the buffer with none.
///
/// The contract of [`FrameReader::read`]:
///
/// - [`FrameError::Timeout`] only when the read timed out with no byte
///   of the next frame consumed — the stream is still frame-aligned and
///   the read may be retried;
/// - [`FrameError::Closed`] only for EOF at a frame boundary;
/// - a timeout or EOF after any byte of a frame is a hard
///   [`FrameError::Io`] — the peer stalled or died mid-frame;
/// - [`FrameError::Oversize`] for a length prefix above the channel's
///   cap, before the buffer grows by a byte. The cap bounds what a
///   corrupt or malicious prefix can make this side allocate, so it
///   should be as small as the channel's honest traffic allows.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    cap: u32,
    /// `buf[start..end]` is input read but not yet returned.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    /// A reader with the default [`MAX_FRAME`] payload cap.
    pub fn new(inner: R) -> Self {
        FrameReader::with_cap(inner, MAX_FRAME)
    }

    /// A reader with an explicit payload cap; both ends of a channel
    /// must agree on it.
    pub fn with_cap(inner: R, cap: u32) -> Self {
        FrameReader {
            inner,
            cap,
            buf: vec![0; READ_BUF],
            start: 0,
            end: 0,
        }
    }

    /// The underlying stream (the write half of a socket, say).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Read one frame and decode it.
    pub fn read<T: Deserialize>(&mut self) -> Result<T, FrameError> {
        self.fill(4)?;
        let header = self.buf[self.start..self.start + 4]
            .try_into()
            .expect("fill buffered four bytes");
        let len = u32::from_le_bytes(header);
        if len > self.cap {
            return Err(FrameError::Oversize(len));
        }
        let total = 4 + len as usize;
        self.fill(total)?;
        let value = from_bytes(&self.buf[self.start + 4..self.start + total]);
        self.start += total;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > READ_BUF {
                self.buf = vec![0; READ_BUF];
            }
        }
        value
    }

    /// Buffer at least the first `need` bytes of the next frame.
    fn fill(&mut self, need: usize) -> Result<(), FrameError> {
        while self.end - self.start < need {
            if self.start + need > self.buf.len() {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
                if need > self.buf.len() {
                    self.buf.resize(need, 0);
                }
            }
            let mid_frame = self.end > self.start;
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(0) if mid_frame => {
                    return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into())
                }
                Ok(0) => return Err(FrameError::Closed),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if is_timeout(&e) && !mid_frame => return Err(FrameError::Timeout),
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{ReplyBody, RequestBody, WireReply, WireRequest};
    use esr_clock::Timestamp;
    use esr_core::bounds::Limit;
    use esr_core::ids::{ObjectId, SiteId, TxnId, TxnKind};
    use esr_core::spec::TxnBounds;
    use esr_server::{BeginReply, EndReply, OpReply};
    use esr_tso::{AbortReason, CommitInfo, Operation};

    fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).expect("decodes");
        assert_eq!(back, v);
    }

    #[test]
    fn requests_round_trip() {
        let mut bounds = TxnBounds::import(Limit::at_most(10_000));
        bounds
            .groups
            .insert("company".into(), Limit::at_most(4_000));
        bounds.objects.insert(ObjectId(3), Limit::ZERO);
        round_trip(WireRequest {
            id: 42,
            retry: false,
            body: RequestBody::Begin {
                kind: TxnKind::Query,
                bounds,
                ts: Timestamp::new(123_456, SiteId(7)),
            },
        });
        round_trip(WireRequest {
            id: 43,
            retry: true,
            body: RequestBody::Op {
                txn: TxnId(9),
                op: Operation::Write(ObjectId(1), -77),
            },
        });
        round_trip(WireRequest {
            id: 44,
            retry: true,
            body: RequestBody::End {
                txn: TxnId(9),
                commit: true,
            },
        });
        round_trip(WireRequest {
            id: 0,
            retry: false,
            body: RequestBody::Hello,
        });
        round_trip(WireRequest {
            id: 1,
            retry: false,
            body: RequestBody::TimeExchange,
        });
    }

    #[test]
    fn pre_retry_request_frames_still_decode() {
        // A frame from a client built before the retry flag existed has
        // no `retry` key; it must decode with `retry == false`.
        #[derive(Serialize)]
        struct OldWireRequest {
            id: u64,
            body: RequestBody,
        }
        let bytes = to_bytes(&OldWireRequest {
            id: 7,
            body: RequestBody::Hello,
        });
        let req: WireRequest = from_bytes(&bytes).unwrap();
        assert_eq!(req.id, 7);
        assert!(!req.retry);
        assert_eq!(req.body, RequestBody::Hello);
    }

    #[test]
    fn replies_round_trip() {
        round_trip(WireReply {
            id: 1,
            body: ReplyBody::Welcome { site: 65_535 },
        });
        round_trip(WireReply {
            id: 2,
            body: ReplyBody::Time {
                micros: u64::MAX / 2,
            },
        });
        round_trip(WireReply {
            id: 3,
            body: ReplyBody::Begin(BeginReply::Started(TxnId(88))),
        });
        round_trip(WireReply {
            id: 4,
            body: ReplyBody::Op(OpReply::Value(-5)),
        });
        round_trip(WireReply {
            id: 5,
            body: ReplyBody::Op(OpReply::Aborted(AbortReason::LateRead)),
        });
        round_trip(WireReply {
            id: 6,
            body: ReplyBody::End(EndReply::Committed(CommitInfo {
                inconsistency: 75,
                inconsistent_ops: 1,
                reads: 3,
                writes: 2,
                written: vec![(ObjectId(0), 10), (ObjectId(4), -2)],
            })),
        });
        round_trip(WireReply {
            id: 7,
            body: ReplyBody::End(EndReply::Unknown(TxnId(12))),
        });
        round_trip(WireReply {
            id: 8,
            body: ReplyBody::Error("server shut down".into()),
        });
    }

    #[test]
    fn frame_io_round_trips_over_a_buffer() {
        let mut buf: Vec<u8> = Vec::new();
        let msg = WireReply {
            id: 9,
            body: ReplyBody::Op(OpReply::Written),
        };
        write_frame(&mut buf, &msg).unwrap();
        let mut frames = FrameReader::new(std::io::Cursor::new(buf));
        let back: WireReply = frames.read().unwrap();
        assert_eq!(back, msg);
        // A second read hits clean EOF.
        match frames.read::<WireReply>() {
            Err(FrameError::Closed) => {}
            other => panic!("{other:?}"),
        }
    }

    /// A scripted stream: each step is one `read` call's outcome.
    enum Step {
        Data(Vec<u8>),
        TimedOut,
    }

    struct Scripted {
        steps: std::collections::VecDeque<Step>,
        reads: usize,
    }

    impl Scripted {
        fn new(steps: Vec<Step>) -> Self {
            Scripted {
                steps: steps.into(),
                reads: 0,
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            match self.steps.pop_front() {
                Some(Step::Data(bytes)) => {
                    assert!(bytes.len() <= out.len(), "script outruns the buffer");
                    out[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Step::TimedOut) => Err(io::ErrorKind::WouldBlock.into()),
                None => Ok(0),
            }
        }
    }

    fn reply(id: u64) -> WireReply {
        WireReply {
            id,
            body: ReplyBody::Error("x".repeat(id as usize)),
        }
    }

    fn framed(msgs: &[WireReply]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for m in msgs {
            encode_frame(m, MAX_FRAME, &mut bytes).unwrap();
        }
        bytes
    }

    #[test]
    fn a_frame_split_across_reads_at_any_offset_decodes() {
        let msgs = [reply(3), reply(40)];
        let bytes = framed(&msgs);
        for cut in 1..bytes.len() {
            let (a, b) = bytes.split_at(cut);
            let mut frames = FrameReader::new(Scripted::new(vec![
                Step::Data(a.to_vec()),
                Step::Data(b.to_vec()),
            ]));
            for m in &msgs {
                assert_eq!(&frames.read::<WireReply>().unwrap(), m, "cut at {cut}");
            }
            assert!(matches!(
                frames.read::<WireReply>(),
                Err(FrameError::Closed)
            ));
        }
    }

    #[test]
    fn frames_delivered_by_one_read_cost_one_read() {
        let msgs = [reply(1), reply(2), reply(3)];
        let mut frames = FrameReader::new(Scripted::new(vec![Step::Data(framed(&msgs))]));
        for m in &msgs {
            assert_eq!(&frames.read::<WireReply>().unwrap(), m);
        }
        assert_eq!(frames.get_ref().reads, 1);
    }

    #[test]
    fn a_timeout_is_retryable_at_a_boundary_and_fatal_inside_a_frame() {
        let bytes = framed(&[reply(5)]);
        let (head, tail) = bytes.split_at(6);
        let mut frames = FrameReader::new(Scripted::new(vec![
            Step::TimedOut,
            Step::Data(bytes.clone()),
            Step::TimedOut,
            Step::Data(head.to_vec()),
            Step::TimedOut,
            Step::Data(tail.to_vec()),
        ]));
        assert!(matches!(
            frames.read::<WireReply>(),
            Err(FrameError::Timeout)
        ));
        assert_eq!(frames.read::<WireReply>().unwrap(), reply(5));
        // Between two frames again: still nothing consumed.
        assert!(matches!(
            frames.read::<WireReply>(),
            Err(FrameError::Timeout)
        ));
        // Six bytes into the next frame the same timeout is not.
        match frames.read::<WireReply>() {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversize_frames_are_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.extend_from_slice(&[0; 16]);
        let mut frames = FrameReader::new(std::io::Cursor::new(buf));
        match frames.read::<WireReply>() {
            Err(FrameError::Oversize(n)) => assert_eq!(n, MAX_FRAME + 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(frames.buf.len(), READ_BUF, "the prefix bought no memory");
    }

    #[test]
    fn a_long_frame_grows_the_buffer_only_while_it_is_read() {
        let big = WireReply {
            id: 1,
            body: ReplyBody::Error("y".repeat(3 * READ_BUF)),
        };
        let mut frames = FrameReader::new(std::io::Cursor::new(framed(&[big.clone(), reply(2)])));
        assert_eq!(frames.read::<WireReply>().unwrap(), big);
        assert_eq!(frames.read::<WireReply>().unwrap(), reply(2));
        assert_eq!(frames.buf.len(), READ_BUF);
    }

    #[test]
    fn frame_caps_are_per_channel() {
        let msg = WireReply {
            id: 1,
            body: ReplyBody::Error("x".repeat(64)),
        };
        // A writer with a tiny cap refuses before touching the stream.
        let mut buf: Vec<u8> = Vec::new();
        match write_frame_limit(&mut buf, &msg, 8) {
            Err(FrameError::Oversize(_)) => {}
            other => panic!("{other:?}"),
        }
        assert!(buf.is_empty(), "an oversize write must write nothing");
        // A raised cap round-trips what the default would also carry,
        // and a reader holding the small cap refuses the same bytes.
        write_frame_limit(&mut buf, &msg, 1 << 24).unwrap();
        let back: WireReply = FrameReader::with_cap(std::io::Cursor::new(&buf), 1 << 24)
            .read()
            .unwrap();
        assert_eq!(back, msg);
        match FrameReader::with_cap(std::io::Cursor::new(&buf), 8).read::<WireReply>() {
            Err(FrameError::Oversize(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_payloads_are_codec_errors() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(
            &mut buf,
            &WireReply {
                id: 1,
                body: ReplyBody::Error("x".into()),
            },
        )
        .unwrap();
        buf.truncate(buf.len() - 1);
        match FrameReader::new(std::io::Cursor::new(buf)).read::<WireReply>() {
            Err(FrameError::Io(_)) => {} // EOF mid-frame
            other => panic!("{other:?}"),
        }
        // Corrupt tag inside an otherwise complete frame: the hostile-
        // input suite (deep nesting, claim inflation) lives with the
        // codec in esr-core; the transport keeps the error-mapping check.
        let bad = vec![99u8];
        match from_bytes::<WireReply>(&bad) {
            Err(FrameError::Codec(m)) => assert!(m.contains("tag")),
            other => panic!("{other:?}"),
        }
    }
}
