//! Compact binary encoding of the serde data model.
//!
//! One byte of tag per node, LEB128 varints for integers (zigzag for
//! signed), length-prefixed UTF-8 for strings. This is the same
//! self-describing postcard/bincode niche — no schema in the bytes, the
//! `Deserialize` impl re-shapes the tree — while staying independent of
//! any external crate.
//!
//! The codec started life inside `esr-net`'s frame layer and moved here
//! so that *storage* (the write-ahead log serializes redo records in
//! exactly this encoding) can share one wire format with the transport
//! without `esr-storage` depending on `esr-net`. `esr_net::frame`
//! re-exports everything below; the framing (length prefix, socket
//! I/O, `MAX_FRAME`) stays in the transport, which is the only layer
//! that deals in frames.
//!
//! Decoding is hardened against hostile input: nesting is capped at
//! [`MAX_DEPTH`] (a tiny frame of nested one-element sequences must not
//! recurse through the caller's stack) and collection claims are
//! validated against the remaining bytes before any reservation.

use serde::{Content, Deserialize, Serialize};
use std::fmt;

/// Upper bound on the nesting depth of a decoded value. The protocol's
/// messages nest a handful of levels (envelope → enum → struct → seq of
/// tuples); 64 leaves an order-of-magnitude margin. Without this cap a
/// small hostile payload of nested one-element sequences (two bytes per
/// level) would drive the recursive decoder through the reader
/// thread's stack and abort the whole process.
pub const MAX_DEPTH: usize = 64;

/// Largest element count a sequence/map claim may pre-reserve. Claims
/// are validated against the remaining bytes, but one byte of payload
/// can claim one *element* (tens of bytes of `Content`), so reserving
/// the full claim would let a large payload pin far more memory than
/// its byte length suggests — per nesting level. Honest oversized
/// collections still decode; the vector just grows past this on push.
pub const MAX_PREALLOC: usize = 4096;

/// Node tags of the binary Content encoding.
pub(crate) const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_I64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
pub(crate) const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;

/// Why a payload failed to decode (or re-shape) into the expected
/// value. Purely a bytes-level error: transport concerns (timeouts,
/// truncated sockets, oversize frames) belong to the framing layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err(msg: impl Into<String>) -> CodecError {
    CodecError(msg.into())
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = *buf.get(*pos).ok_or_else(|| err("truncated varint"))?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            // Reject non-canonical encodings that would overflow u64.
            if shift == 63 && byte > 1 {
                return Err(err("varint overflows u64"));
            }
            return Ok(v);
        }
    }
    Err(err("varint longer than 10 bytes"))
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// Content <-> bytes
// ---------------------------------------------------------------------------

fn encode_content(c: &Content, out: &mut Vec<u8>) {
    match c {
        Content::Null => out.push(TAG_NULL),
        Content::Bool(false) => out.push(TAG_FALSE),
        Content::Bool(true) => out.push(TAG_TRUE),
        Content::U64(v) => {
            out.push(TAG_U64);
            put_varint(out, *v);
        }
        Content::I64(v) => {
            out.push(TAG_I64);
            put_varint(out, zigzag(*v));
        }
        Content::F64(v) => {
            out.push(TAG_F64);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Content::Str(s) => {
            out.push(TAG_STR);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Content::Seq(items) => {
            out.push(TAG_SEQ);
            put_varint(out, items.len() as u64);
            for item in items {
                encode_content(item, out);
            }
        }
        Content::Map(entries) => {
            out.push(TAG_MAP);
            put_varint(out, entries.len() as u64);
            for (k, v) in entries {
                put_varint(out, k.len() as u64);
                out.extend_from_slice(k.as_bytes());
                encode_content(v, out);
            }
        }
    }
}

/// Read one length-prefixed UTF-8 string (a `TAG_STR` body or a map
/// key), borrowed from `buf`. The length is checked against the bytes
/// present before anything is sliced.
pub fn take_key<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a str, CodecError> {
    let len = get_varint(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| err("truncated string"))?;
    let s = std::str::from_utf8(&buf[*pos..end]).map_err(|_| err("invalid UTF-8"))?;
    *pos = end;
    Ok(s)
}

fn decode_content(buf: &[u8], pos: &mut usize, depth: usize) -> Result<Content, CodecError> {
    if depth >= MAX_DEPTH {
        return Err(err(format!("value nests deeper than {MAX_DEPTH} levels")));
    }
    let tag = *buf.get(*pos).ok_or_else(|| err("truncated tag"))?;
    *pos += 1;
    Ok(match tag {
        TAG_NULL => Content::Null,
        TAG_FALSE => Content::Bool(false),
        TAG_TRUE => Content::Bool(true),
        TAG_U64 => Content::U64(get_varint(buf, pos)?),
        TAG_I64 => Content::I64(unzigzag(get_varint(buf, pos)?)),
        TAG_F64 => {
            let end = *pos + 8;
            let bytes: [u8; 8] = buf
                .get(*pos..end)
                .ok_or_else(|| err("truncated f64"))?
                .try_into()
                .expect("slice length checked");
            *pos = end;
            Content::F64(f64::from_le_bytes(bytes))
        }
        TAG_STR => Content::Str(take_key(buf, pos)?.to_owned()),
        TAG_SEQ => {
            let n = get_varint(buf, pos)? as usize;
            // Each element costs at least one byte; cap before reserving.
            if n > buf.len() - *pos {
                return Err(err("sequence length exceeds frame"));
            }
            // The claim bounds elements, not bytes: reserve only up to
            // MAX_PREALLOC and let push() grow honest large sequences.
            let mut items = Vec::with_capacity(n.min(MAX_PREALLOC));
            for _ in 0..n {
                items.push(decode_content(buf, pos, depth + 1)?);
            }
            Content::Seq(items)
        }
        TAG_MAP => {
            let n = get_varint(buf, pos)? as usize;
            // Each entry costs at least two bytes (empty-key varint plus
            // the value's tag).
            if n > (buf.len() - *pos) / 2 {
                return Err(err("map length exceeds frame"));
            }
            let mut entries = Vec::with_capacity(n.min(MAX_PREALLOC));
            for _ in 0..n {
                let k = take_key(buf, pos)?.to_owned();
                let v = decode_content(buf, pos, depth + 1)?;
                entries.push((k, v));
            }
            Content::Map(entries)
        }
        other => return Err(err(format!("unknown content tag {other}"))),
    })
}

/// Serialize a value to its codec bytes (no length prefix).
pub fn to_bytes<T: Serialize>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_into(value, &mut out);
    out
}

/// Append a value's codec bytes to `out`, so a caller that frames the
/// payload (length prefix, checksum) builds the whole frame in one
/// buffer it can reuse.
pub fn encode_into<T: Serialize>(value: &T, out: &mut Vec<u8>) {
    encode_content(&value.to_content(), out);
}

/// Deserialize a payload produced by [`to_bytes`].
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut pos = 0;
    let value = decode_next(bytes, &mut pos)?;
    if pos != bytes.len() {
        return Err(err(format!(
            "{} trailing bytes after value",
            bytes.len() - pos
        )));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Streaming: container headers written and read by hand
// ---------------------------------------------------------------------------
//
// A message too large to build as one value (the resident checkpoint is
// the whole table) is written as hand-emitted map/sequence headers with
// one [`encode_into`] per element in between, and read back the same
// way with one [`decode_next`] per element. The bytes are exactly what
// [`to_bytes`] of the whole value would be.

/// Open a map of `entries` entries; each entry is a [`put_key`]
/// followed by one encoded value.
pub fn put_map_header(out: &mut Vec<u8>, entries: usize) {
    out.push(TAG_MAP);
    put_varint(out, entries as u64);
}

/// Open a sequence of `items` encoded values.
pub fn put_seq_header(out: &mut Vec<u8>, items: usize) {
    out.push(TAG_SEQ);
    put_varint(out, items as u64);
}

/// A map entry's key (a struct's field name).
pub fn put_key(out: &mut Vec<u8>, key: &str) {
    put_varint(out, key.len() as u64);
    out.extend_from_slice(key.as_bytes());
}

fn take_header(buf: &[u8], pos: &mut usize, tag: u8, what: &str) -> Result<usize, CodecError> {
    match buf.get(*pos) {
        Some(&t) if t == tag => *pos += 1,
        Some(_) => return Err(err(format!("expected a {what}"))),
        None => return Err(err("truncated tag")),
    }
    usize::try_from(get_varint(buf, pos)?).map_err(|_| err(format!("{what} length overflows")))
}

/// Read a map header. The entry count is the writer's *claim*: a
/// streaming caller holds only a window of the message, so it — not
/// this function — must check the claim against the bytes that are
/// really there before reserving anything.
pub fn take_map_header(buf: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    take_header(buf, pos, TAG_MAP, "map")
}

/// Read a sequence header; the count is a claim, as for
/// [`take_map_header`].
pub fn take_seq_header(buf: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    take_header(buf, pos, TAG_SEQ, "sequence")
}

/// Decode the one value that starts at `*pos` and advance past it:
/// [`from_bytes`] for an element of a stream. Only that element's
/// subtree is ever built.
pub fn decode_next<T: Deserialize>(buf: &[u8], pos: &mut usize) -> Result<T, CodecError> {
    let mut end = *pos;
    let content = decode_content(buf, &mut end, 0)?;
    let value = T::from_content(&content).map_err(|e| err(e.to_string()))?;
    *pos = end;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).expect("decodes");
        assert_eq!(back, v);
    }

    #[test]
    fn varints_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        for v in [i64::MIN, -300, -1, 0, 1, 300, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn primitives_and_collections_round_trip() {
        round_trip(());
        round_trip(true);
        round_trip(-42i64);
        round_trip(u64::MAX);
        round_trip(1.5f64);
        round_trip("hello".to_string());
        round_trip(vec![vec![1u64, 2], vec![3]]);
        round_trip(Some(vec![("k".to_string(), -1i64)]));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&7u64);
        bytes.push(0);
        match from_bytes::<u64>(&bytes) {
            Err(CodecError(m)) => assert!(m.contains("trailing"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn corrupt_tag_is_a_codec_error() {
        match from_bytes::<u64>(&[99u8]) {
            Err(CodecError(m)) => assert!(m.contains("tag"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hostile_deep_nesting_is_rejected_not_a_stack_overflow() {
        // Nested one-element sequences, two bytes per level: tiny on the
        // wire, but an uncapped recursive decoder would recurse once per
        // level and blow the calling thread's stack.
        let levels = 100_000;
        let mut payload = Vec::with_capacity(2 * levels + 1);
        for _ in 0..levels {
            payload.push(TAG_SEQ);
            payload.push(1); // varint count = 1
        }
        payload.push(TAG_NULL);
        match from_bytes::<Vec<u64>>(&payload) {
            Err(CodecError(m)) => assert!(m.contains("nests deeper"), "{m}"),
            other => panic!("{other:?}"),
        }
        // Nesting within the cap still decodes.
        round_trip(vec![vec![vec![1u64, 2], vec![3]], vec![]]);
    }

    #[test]
    fn honest_sequences_longer_than_the_prealloc_cap_decode() {
        let big: Vec<u64> = (0..(MAX_PREALLOC as u64 * 4)).collect();
        round_trip(big);
    }

    #[test]
    fn streamed_containers_are_the_bytes_of_the_whole_value() {
        let rows: Vec<Vec<i64>> = vec![vec![1, -2], vec![], vec![300]];
        let mut seq = Vec::new();
        put_seq_header(&mut seq, rows.len());
        for row in &rows {
            encode_into(row, &mut seq);
        }
        assert_eq!(seq, to_bytes(&rows));

        let map: std::collections::BTreeMap<String, u64> =
            [("a".to_string(), 1), ("next_txn".to_string(), 1 << 40)].into();
        let mut streamed = Vec::new();
        put_map_header(&mut streamed, map.len());
        for (k, v) in &map {
            put_key(&mut streamed, k);
            encode_into(v, &mut streamed);
        }
        assert_eq!(streamed, to_bytes(&map));

        // And back, an element at a time.
        let mut pos = 0;
        assert_eq!(take_seq_header(&seq, &mut pos).unwrap(), 3);
        for row in &rows {
            assert_eq!(&decode_next::<Vec<i64>>(&seq, &mut pos).unwrap(), row);
        }
        assert_eq!(pos, seq.len());
        let mut pos = 0;
        assert_eq!(take_map_header(&streamed, &mut pos).unwrap(), 2);
        assert_eq!(take_key(&streamed, &mut pos).unwrap(), "a");
        assert_eq!(decode_next::<u64>(&streamed, &mut pos).unwrap(), 1);
        assert_eq!(take_key(&streamed, &mut pos).unwrap(), "next_txn");
        assert_eq!(decode_next::<u64>(&streamed, &mut pos).unwrap(), 1 << 40);
        assert_eq!(pos, streamed.len());
    }

    #[test]
    fn stream_readers_refuse_wrong_tags_truncation_and_forged_key_lengths() {
        let seq = to_bytes(&vec![7u64]);
        assert!(take_map_header(&seq, &mut 0).is_err(), "a sequence");
        assert!(take_seq_header(&[], &mut 0).is_err(), "empty");
        assert!(take_seq_header(&[TAG_SEQ, 0x80], &mut 0).is_err(), "cut");
        // A header's count is returned as claimed, not believed.
        let mut forged = vec![TAG_SEQ];
        put_varint(&mut forged, u64::MAX);
        assert_eq!(take_seq_header(&forged, &mut 0).unwrap() as u64, u64::MAX);
        // A key length beyond the buffer is an error before any slice.
        let mut key = Vec::new();
        put_varint(&mut key, u64::MAX);
        key.extend_from_slice(b"seq");
        assert!(take_key(&key, &mut 0).is_err());
        // A failed element leaves the position where it was, so a
        // caller holding a partial window can refill and retry.
        let whole = to_bytes(&vec![1u64, 2, 3]);
        let mut pos = 0;
        assert!(decode_next::<Vec<u64>>(&whole[..whole.len() - 1], &mut pos).is_err());
        assert_eq!(pos, 0);
        assert!(decode_next::<String>(&whole, &mut pos).is_err(), "shape");
        assert_eq!(pos, 0);
    }

    #[test]
    fn hostile_sequence_length_is_rejected() {
        // TAG_SEQ claiming u64::MAX elements in a 3-byte payload must
        // not try to reserve that much.
        let mut payload = vec![TAG_SEQ];
        put_varint(&mut payload, u64::MAX);
        match from_bytes::<Vec<u64>>(&payload) {
            Err(CodecError(m)) => assert!(m.contains("exceeds")),
            other => panic!("{other:?}"),
        }
    }
}
