//! Minimal little-endian binary encoding.
//!
//! The paper's heap image is a bespoke on-disk format; we keep ours
//! dependency-free and versioned, decoded through [`ByteReader`].
//! [`ByteWriter`] is public because it is the one encoder of every byte
//! format in the workspace: heap images here, and the fleet's reports,
//! snapshots, WAL records, frames and network messages (`xt_fleet::frame`
//! re-exports it beside its offset-reporting `Reader`).

use std::error::Error;
use std::fmt;

/// An append-only little-endian encoder.
///
/// # Example
///
/// ```
/// use xt_image::{ByteReader, ByteWriter};
///
/// let mut w = ByteWriter::new();
/// w.u32(7);
/// w.bytes(b"hi");
/// let buf = w.into_bytes();
/// let mut r = ByteReader::new(&buf);
/// assert_eq!(r.u32().unwrap(), 7);
/// assert_eq!(r.take(2).unwrap(), b"hi");
/// assert!(r.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Creates an empty writer with room for `capacity` bytes.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
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

    /// Appends a boolean as one byte: exactly 0 or 1.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a `u32` element count or byte length.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `cap`: the matching decoder rejects such a
    /// prefix, so writing one is an encoder bug, not a remote condition.
    pub fn count(&mut self, n: usize, cap: u32) {
        assert!(
            n <= cap as usize,
            "length {n} exceeds the wire cap {cap} (encoder bug)"
        );
        self.u32(n as u32);
    }

    /// Appends `v` behind its `u32` length prefix (capped as in
    /// [`ByteWriter::count`]).
    pub fn blob(&mut self, v: &[u8], cap: u32) {
        self.count(v.len(), cap);
        self.bytes(v);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes (length is *not* encoded).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Number of bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes encoding, returning the buffer.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImageDecodeError {
    /// Input ended before the announced structure was complete.
    UnexpectedEof {
        /// Byte offset at which more data was needed, or of the element
        /// count that announced more than the input holds.
        at: usize,
    },
    /// The magic number did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion {
        /// Version found in the input.
        found: u32,
    },
    /// A field held an impossible value.
    BadField {
        /// Which field.
        field: &'static str,
        /// Byte offset of the field.
        at: usize,
    },
}

impl ImageDecodeError {
    /// The byte offset the error points at (magic and version sit at
    /// the fixed offsets 0 and 4).
    #[must_use]
    pub fn offset(&self) -> usize {
        match self {
            ImageDecodeError::UnexpectedEof { at } | ImageDecodeError::BadField { at, .. } => *at,
            ImageDecodeError::BadMagic => 0,
            ImageDecodeError::BadVersion { .. } => 4,
        }
    }
}

impl fmt::Display for ImageDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageDecodeError::UnexpectedEof { at } => {
                write!(f, "unexpected end of image data at byte {at}")
            }
            ImageDecodeError::BadMagic => write!(f, "not a heap image (bad magic)"),
            ImageDecodeError::BadVersion { found } => {
                write!(f, "unsupported heap image version {found}")
            }
            ImageDecodeError::BadField { field, at } => {
                write!(f, "invalid value for field {field} at byte {at}")
            }
        }
    }
}

impl Error for ImageDecodeError {}

/// A cursor-based little-endian decoder matching [`ByteWriter`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte buffer.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when fully consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The current byte offset.
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Consumes a `u32` element count, rejecting one whose elements
    /// could not fit in the bytes left at `min_record` bytes each —
    /// before the caller sizes an allocation by it.
    ///
    /// # Errors
    ///
    /// [`ImageDecodeError::UnexpectedEof`], at the count's own offset
    /// when the count announces more than the input holds.
    pub fn count(&mut self, min_record: usize) -> Result<usize, ImageDecodeError> {
        let at = self.pos;
        let n = self.u32()? as usize;
        if n.saturating_mul(min_record) > self.remaining() {
            return Err(ImageDecodeError::UnexpectedEof { at });
        }
        Ok(n)
    }

    /// Consumes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`ImageDecodeError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ImageDecodeError> {
        if self.remaining() < n {
            return Err(ImageDecodeError::UnexpectedEof { at: self.pos });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consumes one byte.
    ///
    /// # Errors
    ///
    /// [`ImageDecodeError::UnexpectedEof`] at end of input.
    pub fn u8(&mut self) -> Result<u8, ImageDecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Consumes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`ImageDecodeError::UnexpectedEof`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, ImageDecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Consumes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`ImageDecodeError::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, ImageDecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Consumes an `f64` stored as its bit pattern.
    ///
    /// # Errors
    ///
    /// [`ImageDecodeError::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn f64(&mut self) -> Result<f64, ImageDecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_types() {
        let mut w = ByteWriter::new();
        w.u8(0xAB);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(0.25);
        w.bytes(&[1, 2, 3]);
        w.u128(u128::MAX - 2);
        w.bool(true);
        w.blob(b"xy", 2);
        assert_eq!(w.len(), 1 + 4 + 8 + 8 + 3 + 16 + 1 + 4 + 2);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), 0.25);
        assert_eq!(r.take(3).unwrap(), &[1, 2, 3]);
        assert_eq!(r.take(16).unwrap(), &(u128::MAX - 2).to_le_bytes());
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.count(1).unwrap(), 2);
        assert_eq!(r.take(2).unwrap(), b"xy");
        assert!(r.is_empty());
    }

    #[test]
    fn eof_is_reported_with_position() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.u8().unwrap(), 1);
        let err = r.u32().unwrap_err();
        assert_eq!(err, ImageDecodeError::UnexpectedEof { at: 1 });
        assert!(err.to_string().contains("byte 1"));
    }

    #[test]
    #[should_panic(expected = "exceeds the wire cap")]
    fn over_cap_length_is_an_encoder_bug() {
        ByteWriter::new().blob(b"abc", 2);
    }

    #[test]
    fn count_rejects_more_elements_than_bytes_left() {
        let mut r = ByteReader::new(&[0, 3, 0, 0, 0, 9, 9, 9, 9, 9]);
        r.u8().unwrap();
        assert_eq!(
            r.count(2).unwrap_err(),
            ImageDecodeError::UnexpectedEof { at: 1 }
        );
    }

    #[test]
    fn empty_writer_is_empty() {
        assert!(ByteWriter::new().is_empty());
        assert!(ByteReader::new(&[]).is_empty());
    }
}
