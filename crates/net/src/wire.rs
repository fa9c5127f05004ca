//! The byte-level layer: primitive encode/decode and length-prefixed
//! frames.
//!
//! Everything on the wire is hand-rolled (the build environment has no
//! registry access, so no serde): big-endian fixed-width integers, `f64`s
//! as their IEEE-754 bit patterns (so estimates survive the wire
//! *bit-identically*), and length-prefixed UTF-8 strings.
//!
//! A frame is
//!
//! ```text
//! ┌────────────────┬─────────┬──────────────────┐
//! │ length: u32 BE │ tag: u8 │ payload bytes    │
//! └────────────────┴─────────┴──────────────────┘
//! ```
//!
//! where `length` counts the tag byte plus the payload (so a valid frame
//! always has `length ≥ 1`). Frames longer than the configured maximum are
//! rejected *before* any allocation, so a hostile length prefix cannot make
//! the peer reserve gigabytes. Every malformed input — truncation, trailing
//! bytes, bad UTF-8, unknown tags or enum discriminants, oversized
//! declarations — is a typed [`WireError`] or [`FrameError`]; decoding
//! never panics.

use std::io::{Read, Write};

/// Version stamp exchanged in the `hello` handshake; bumped on any
/// incompatible frame or payload change. Version 2 added the trace option
/// to count specs, the exposition string to stats frames, and the
/// `metrics`/`trace` verbs. Version 3 added the `delta` and `watch` verbs
/// (versioned graphs with live re-emission), their `delta-ok` /
/// `watch-chunk` responses, and the cache-evictions field in stats frames.
/// Version 4 retired the `batch` verb (tag `0x03`, now an unknown tag) and
/// the batches-submitted field of stats frames. Version 5 made the `stats`
/// answer the exposition string alone and retired the `metrics` verb (tags
/// `0x08`/`0x89`, now unknown tags).
pub const PROTOCOL_VERSION: u32 = 5;

/// Default cap on `length` (tag + payload bytes) accepted per frame.
pub const DEFAULT_MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// A malformed payload (or frame header) detected while decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before a fixed-width field or declared length.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// The payload had bytes left over after the last field — a framing
    /// bug or a version skew, either way not this message.
    TrailingBytes {
        /// Bytes left unconsumed.
        remaining: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A frame tag outside the protocol's request/response sets.
    BadTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// An enum discriminant outside the known range.
    BadEnum {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending discriminant.
        value: u8,
    },
    /// A declared collection/string length exceeds the bytes that follow —
    /// rejected before allocating.
    LengthOverflow {
        /// The declared element or byte count.
        declared: usize,
        /// The maximum the remaining payload could hold.
        max: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, available } => write!(
                f,
                "truncated payload: needed {needed} more bytes, {available} available"
            ),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after the last field")
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadTag { tag } => write!(f, "unknown frame tag 0x{tag:02x}"),
            WireError::BadEnum { what, value } => {
                write!(f, "unknown {what} discriminant {value}")
            }
            WireError::LengthOverflow { declared, max } => write!(
                f,
                "declared length {declared} exceeds the {max} bytes that follow"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a big-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern (big-endian `u64`): the
/// round trip is bit-exact, which is what lets the wire protocol promise
/// bit-identical estimates.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a `bool` as one byte (`0`/`1`).
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, v as u8);
}

/// Appends a length-prefixed (`u32`) UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a length-prefixed (`u32` count) list of `u64`s.
pub fn put_u64s(buf: &mut Vec<u8>, vs: &[u64]) {
    put_u32(buf, vs.len() as u32);
    for &v in vs {
        put_u64(buf, v);
    }
}

/// A cursor over one payload; every read is bounds-checked and returns a
/// typed [`WireError`] instead of panicking.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`; any byte other than `0`/`1` is a [`WireError::BadEnum`].
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(WireError::BadEnum {
                what: "bool",
                value,
            }),
        }
    }

    /// Reads a length-prefixed UTF-8 string. The declared length is checked
    /// against the remaining bytes before anything is copied.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(WireError::LengthOverflow {
                declared: len,
                max: self.remaining(),
            });
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Reads a length-prefixed list of `u64`s. The declared count is
    /// validated against the remaining bytes before the vector is sized.
    pub fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let count = self.u32()? as usize;
        let max = self.remaining() / 8;
        if count > max {
            return Err(WireError::LengthOverflow {
                declared: count,
                max,
            });
        }
        (0..count).map(|_| self.u64()).collect()
    }

    /// Asserts the payload was fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }
}

/// One frame as read off the socket: the tag byte plus the raw payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawFrame {
    /// The frame tag (see [`crate::proto`] for the assignments).
    pub tag: u8,
    /// The undecoded payload bytes.
    pub payload: Vec<u8>,
}

/// A failure while reading a frame off a stream.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The read timeout elapsed with no byte of a new frame started —
    /// an *idle* tick, not corruption; connection loops use it to poll
    /// their shutdown flag.
    IdleTimeout,
    /// The stream ended inside a frame header or body: the peer vanished
    /// mid-frame (distinct from a clean EOF *between* frames, which
    /// [`read_frame`] reports as `Ok(None)`).
    Truncated {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// The length prefix exceeds the configured maximum frame length.
    TooLarge {
        /// The declared length.
        len: usize,
        /// The configured cap.
        max: usize,
    },
    /// A zero-length frame (a frame must at least carry its tag byte).
    Empty,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::IdleTimeout => write!(f, "read timed out between frames"),
            FrameError::Truncated { expected, got } => {
                write!(
                    f,
                    "stream ended mid-frame: expected {expected} bytes, got {got}"
                )
            }
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Empty => write!(f, "zero-length frame"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Whether an I/O error is a read-timeout expiry (both kinds occur in the
/// wild depending on platform).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads exactly `buf.len()` bytes, reporting how many arrived before an
/// EOF or error cut the frame short.
///
/// Read-timeout expiries mid-frame are retried, not failed: the socket's
/// read timeout is the server's *idle poll interval* (100 ms by default),
/// and a TCP retransmission after one lost packet routinely stalls a
/// healthy connection longer than that. A peer that truly vanished is
/// detected by the OS (reset/EOF), and a shutdown closes the socket, which
/// also lands here as EOF — so waiting does not leak connections.
fn read_exact_counted(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    expected: buf.len(),
                    got: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame boundary,
/// [`FrameError::IdleTimeout`] when the read timeout fires before any byte
/// of a new frame, and a typed error for every malformed input.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Option<RawFrame>, FrameError> {
    // The first byte is read alone so a timeout *between* frames (idle
    // connection) is distinguishable from one *inside* a frame (truncation).
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Err(FrameError::IdleTimeout),
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let mut rest = [0u8; 3];
    read_exact_counted(r, &mut rest)?;
    let len = u32::from_be_bytes([first[0], rest[0], rest[1], rest[2]]) as usize;
    if len == 0 {
        return Err(FrameError::Empty);
    }
    if len > max_len {
        return Err(FrameError::TooLarge { len, max: max_len });
    }
    let mut body = vec![0u8; len];
    read_exact_counted(r, &mut body)?;
    let tag = body[0];
    body.remove(0);
    Ok(Some(RawFrame { tag, payload: body }))
}

/// Writes one frame (length prefix, tag, payload) with one `write_all` and
/// flushes nothing — callers flush once per logical message. On an
/// unbuffered socket each write is a syscall, and with Nagle on, a header
/// written apart from its payload can wait for a delayed ACK.
///
/// # Errors
/// The transport's I/O errors; an oversized payload is reported as
/// [`std::io::ErrorKind::InvalidInput`] without writing anything.
pub fn write_frame(
    w: &mut impl Write,
    tag: u8,
    payload: &[u8],
    max_len: usize,
) -> std::io::Result<()> {
    let len = payload.len() + 1;
    if len > max_len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds the {max_len}-byte limit"),
        ));
    }
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_be_bytes());
    frame.push(tag);
    frame.extend_from_slice(payload);
    w.write_all(&frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NAN);
        put_bool(&mut buf, true);
        put_str(&mut buf, "héllo");
        put_u64s(&mut buf, &[1, 2, 3]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        // Bit-exact f64s: -0.0 keeps its sign bit, NaN keeps its payload.
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.u64s().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_overflow_are_typed_errors() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(
            r.u32(),
            Err(WireError::Truncated {
                needed: 4,
                available: 2
            })
        );
        // A string length promising more than the payload holds.
        let mut buf = Vec::new();
        put_u32(&mut buf, 1000);
        buf.push(b'x');
        assert_eq!(
            Reader::new(&buf).str(),
            Err(WireError::LengthOverflow {
                declared: 1000,
                max: 1
            })
        );
        // A u64 list count that cannot fit.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(matches!(
            Reader::new(&buf).u64s(),
            Err(WireError::LengthOverflow { .. })
        ));
        // Non-UTF-8 string bytes.
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(Reader::new(&buf).str(), Err(WireError::BadUtf8));
        // Trailing garbage.
        let r = Reader::new(&[0]);
        assert_eq!(r.finish(), Err(WireError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 0x42, b"abc", DEFAULT_MAX_FRAME_LEN).unwrap();
        write_frame(&mut wire, 0x01, b"", DEFAULT_MAX_FRAME_LEN).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let a = read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        assert_eq!((a.tag, a.payload.as_slice()), (0x42, b"abc".as_slice()));
        let b = read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        assert_eq!((b.tag, b.payload.as_slice()), (0x01, b"".as_slice()));
        // Clean EOF at the boundary.
        assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .is_none());
    }

    /// A `Write` that keeps what it is given and counts the calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// One frame is one write to the transport — one syscall on a socket —
    /// carrying the length prefix, the tag and the payload.
    #[test]
    fn a_frame_is_one_write() {
        let payload = b"one write per frame";
        let mut counted = CountingWriter::default();
        write_frame(&mut counted, 0x42, payload, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(counted.writes, 1);
        let mut expected = ((payload.len() + 1) as u32).to_be_bytes().to_vec();
        expected.push(0x42);
        expected.extend_from_slice(payload);
        assert_eq!(counted.bytes, expected);
        write_frame(&mut counted, 0x01, b"", DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(counted.writes, 2);
        assert_eq!(&counted.bytes[expected.len()..], &[0, 0, 0, 1, 0x01]);
    }

    #[test]
    fn oversized_truncated_and_empty_frames_are_rejected() {
        // Oversized: rejected from the header alone, nothing allocated.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(1024u32 + 1).to_be_bytes());
        wire.push(0x01);
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(wire), 1024),
            Err(FrameError::TooLarge {
                len: 1025,
                max: 1024
            })
        ));
        // Zero length.
        let wire = 0u32.to_be_bytes().to_vec();
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(wire), 1024),
            Err(FrameError::Empty)
        ));
        // Body shorter than declared.
        let mut wire = Vec::new();
        wire.extend_from_slice(&10u32.to_be_bytes());
        wire.extend_from_slice(&[0x01, 0x02]);
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(wire), 1024),
            Err(FrameError::Truncated {
                expected: 10,
                got: 2
            })
        ));
        // Header itself cut short.
        let wire = vec![0x00, 0x00];
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(wire), 1024),
            Err(FrameError::Truncated { .. })
        ));
        // Writing an oversized frame fails without emitting bytes.
        let mut out = Vec::new();
        assert!(write_frame(&mut out, 0x01, &[0u8; 64], 8).is_err());
        assert!(out.is_empty());
    }
}
