//! A tiny little-endian byte codec for checkpoint serialization.
//!
//! Checkpoints must be stable across platforms and releases, so every
//! component serializes its mutable state through this one codec instead of
//! ad-hoc `unsafe` casts or text formats. The encoding is deliberately
//! primitive — fixed-width little-endian integers, `u32`-length-prefixed
//! sequences, IEEE-754 bit patterns for floats — because primitive formats
//! are the easiest to keep bit-identical forever.
//!
//! # Examples
//!
//! ```
//! use baryon_sim::wire::{Reader, Writer};
//!
//! let mut w = Writer::new();
//! w.u64(42);
//! w.str("hello");
//! w.f64(0.25);
//! let bytes = w.into_bytes();
//!
//! let mut r = Reader::new(&bytes);
//! assert_eq!(r.u64().unwrap(), 42);
//! assert_eq!(r.str().unwrap(), "hello");
//! assert_eq!(r.f64().unwrap(), 0.25);
//! assert!(r.finish().is_ok());
//! ```

use std::error::Error;
use std::fmt;

/// A malformed or truncated wire payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the requested field.
    UnexpectedEof {
        /// Bytes requested beyond the end.
        needed: usize,
        /// Bytes remaining.
        available: usize,
    },
    /// A boolean byte was neither 0 nor 1.
    BadBool(u8),
    /// A length prefix exceeds the sanity bound for its collection.
    BadLength(u64),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// An enum discriminant byte had no matching variant.
    BadTag(u8),
    /// Bytes were left over after the last expected field.
    TrailingBytes(usize),
    /// A string field holding a JSON document did not parse or validate.
    BadDocument(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, available } => {
                write!(
                    f,
                    "unexpected end of payload: need {needed} bytes, {available} left"
                )
            }
            WireError::BadBool(b) => write!(f, "invalid boolean byte {b:#04x}"),
            WireError::BadLength(n) => write!(f, "implausible length prefix {n}"),
            WireError::BadUtf8 => f.write_str("string field is not valid UTF-8"),
            WireError::BadTag(t) => write!(f, "unknown discriminant {t:#04x}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after last field"),
            WireError::BadDocument(e) => write!(f, "embedded document: {e}"),
        }
    }
}

impl Error for WireError {}

/// Upper bound on any single length prefix: a checkpointed collection never
/// legitimately holds more than this many elements at simulation scales, so
/// anything larger is a corrupt or hostile payload and is rejected before
/// allocation.
const MAX_LEN: u64 = 1 << 32;

/// An append-only encoder producing the wire byte stream.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (checkpoints must not depend on the
    /// host word size).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (NaN-safe round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a boolean as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a `u32`-length-prefixed raw byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a sequence length prefix; follow with `len` encoded elements.
    pub fn seq(&mut self, len: usize) {
        self.u64(len as u64);
    }

    /// Appends an `Option` tag byte (0 = `None`, 1 = `Some`); when `Some`,
    /// follow with the payload fields.
    pub fn opt(&mut self, present: bool) {
        self.bool(present);
    }
}

/// A cursor decoding the wire byte stream produced by [`Writer`].
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over an encoded payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a `usize` encoded as `u64`.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::BadLength(v))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a boolean byte, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadBool(b)),
        }
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Reads a `u32`-length-prefixed raw byte vector.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a sequence length prefix, rejecting implausible lengths.
    pub fn seq(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        if v > MAX_LEN {
            return Err(WireError::BadLength(v));
        }
        usize::try_from(v).map_err(|_| WireError::BadLength(v))
    }

    /// Reads an `Option` tag byte.
    pub fn opt(&mut self) -> Result<bool, WireError> {
        self.bool()
    }

    /// Asserts the whole payload was consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }
}

/// Lower-case hex encoding of a wire payload, for transports that only
/// carry UTF-8 text (JSON response bodies). Two characters per byte; no
/// prefix, no separators.
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xF) as usize] as char);
    }
    out
}

/// Decodes [`to_hex`] output back into bytes. Accepts upper- or
/// lower-case digits.
///
/// # Errors
///
/// [`WireError::BadLength`] on odd-length input, [`WireError::BadTag`] on
/// a non-hex character (carrying the offending byte).
pub fn from_hex(text: &str) -> Result<Vec<u8>, WireError> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err(WireError::BadLength(bytes.len() as u64));
    }
    let digit = |c: u8| -> Result<u8, WireError> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(WireError::BadTag(c)),
        }
    };
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((digit(pair[0])? << 4) | digit(pair[1])?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.u128(u128::MAX / 3);
        w.usize(123_456);
        w.f64(-0.125);
        w.bool(true);
        w.bool(false);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.usize().unwrap(), 123_456);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn hex_round_trip_and_rejection() {
        assert_eq!(to_hex(&[]), "");
        assert_eq!(to_hex(&[0x00, 0xAB, 0xFF]), "00abff");
        assert_eq!(from_hex("00abff").unwrap(), vec![0x00, 0xAB, 0xFF]);
        assert_eq!(from_hex("00ABFF").unwrap(), vec![0x00, 0xAB, 0xFF]);
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
        for i in 0..=255u8 {
            let bytes = vec![i, i.wrapping_mul(31)];
            assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        }
        assert_eq!(from_hex("abc"), Err(WireError::BadLength(3)));
        assert_eq!(from_hex("zz"), Err(WireError::BadTag(b'z')));
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = Writer::new();
        w.f64(nan);
        let bytes = w.into_bytes();
        let back = Reader::new(&bytes).f64().unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn string_and_bytes_round_trip() {
        let mut w = Writer::new();
        w.str("checkpoint ✓");
        w.bytes(&[1, 2, 3]);
        w.bytes(&[]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.str().unwrap(), "checkpoint ✓");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.bytes().unwrap(), Vec::<u8>::new());
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_typed_eof() {
        let mut w = Writer::new();
        w.u64(7);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert_eq!(
            r.u64(),
            Err(WireError::UnexpectedEof {
                needed: 8,
                available: 5
            })
        );
    }

    #[test]
    fn bad_bool_and_trailing_bytes_rejected() {
        let mut r = Reader::new(&[2]);
        assert_eq!(r.bool(), Err(WireError::BadBool(2)));
        let r = Reader::new(&[0, 0]);
        assert_eq!(r.finish(), Err(WireError::TrailingBytes(2)));
    }

    #[test]
    fn implausible_seq_length_rejected() {
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).seq(),
            Err(WireError::BadLength(_))
        ));
    }

    #[test]
    fn errors_display() {
        for e in [
            WireError::UnexpectedEof {
                needed: 8,
                available: 2,
            },
            WireError::BadBool(9),
            WireError::BadLength(u64::MAX),
            WireError::BadUtf8,
            WireError::BadTag(0xFF),
            WireError::TrailingBytes(3),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
