//! Bounds-checked little-endian binary primitives under a magic+version
//! header.
//!
//! The binary format exists for the payloads JSON handles badly: cache
//! snapshots are mostly `f64` bit patterns and small integers, and they
//! must round-trip **bit-identically** — including NaN payloads and ±∞,
//! which the JSON emitter collapses to `null`. Floats therefore travel
//! as raw IEEE-754 bits ([`Writer::put_f64`] / [`Reader::take_f64`]),
//! never through a decimal representation.
//!
//! A document starts with [`MAGIC`] and a `u32` format version
//! ([`crate::FORMAT_VERSION`]); [`Reader::open`] verifies both, so stale
//! files fail loudly instead of decoding garbage.

use crate::FORMAT_VERSION;

/// The four magic bytes every binary document starts with.
pub const MAGIC: [u8; 4] = *b"SGWB";

/// A decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The document ended before the declared content did.
    Truncated {
        /// Byte offset where more input was needed.
        offset: usize,
    },
    /// The document does not start with [`MAGIC`].
    BadMagic,
    /// The document declares a format version this decoder does not know.
    UnsupportedVersion(u32),
    /// The bytes decoded, but violate the format's invariants.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { offset } => {
                write!(
                    f,
                    "truncated document (needed more bytes at offset {offset})"
                )
            }
            WireError::BadMagic => write!(f, "not a sega-wire binary document (bad magic)"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported wire format version {v} (decoder knows {FORMAT_VERSION})"
                )
            }
            WireError::Malformed(m) => write!(f, "malformed document: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// An append-only binary encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with the [`MAGIC`] + [`FORMAT_VERSION`] header
    /// already written.
    pub fn with_header() -> Writer {
        let mut w = Writer::default();
        w.buf.extend_from_slice(&MAGIC);
        w.put_u32(FORMAT_VERSION);
        w
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bit pattern. NaN payloads,
    /// signed zeros and infinities all round-trip exactly.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes verbatim (the caller owns any length framing —
    /// see [`Reader::take_bytes`] for the matching read).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far (e.g. to fingerprint a record).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// A bounds-checked binary decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`, **without** a header
    /// check (for embedded records).
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Opens a document: verifies [`MAGIC`], reads the version and
    /// rejects versions newer than this decoder.
    ///
    /// # Errors
    ///
    /// [`WireError::BadMagic`] / [`WireError::UnsupportedVersion`] /
    /// [`WireError::Truncated`].
    pub fn open(buf: &'a [u8]) -> Result<Reader<'a>, WireError> {
        if buf.len() < MAGIC.len() || buf[..MAGIC.len()] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let mut r = Reader {
            buf,
            pos: MAGIC.len(),
        };
        let version = r.take_u32()?;
        if version != FORMAT_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(WireError::Truncated { offset: self.pos })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when the document ends first; same for
    /// every other `take_*`.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`].
    pub fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`].
    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` from its raw bit pattern.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`].
    pub fn take_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads exactly `n` raw bytes (the counterpart of
    /// [`Writer::put_bytes`]; e.g. an embedded document whose length the
    /// caller already decoded).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`].
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] / [`WireError::Malformed`] on invalid
    /// UTF-8.
    pub fn take_str(&mut self) -> Result<String, WireError> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".to_owned()))
    }

    /// True when every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::with_header();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_str("geometry → objectives");
        w.put_str("");
        let bytes = w.finish();
        let mut r = Reader::open(&bytes).unwrap();
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_str().unwrap(), "geometry → objectives");
        assert_eq!(r.take_str().unwrap(), "");
        assert!(r.is_at_end());
    }

    #[test]
    fn non_finite_floats_round_trip_bit_identically() {
        let payload_nan = f64::from_bits(0x7ff8_0000_0000_beef);
        let values = [
            0.0,
            -0.0,
            1.5,
            f64::NAN,
            payload_nan,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ];
        let mut w = Writer::with_header();
        for v in values {
            w.put_f64(v);
        }
        let bytes = w.finish();
        let mut r = Reader::open(&bytes).unwrap();
        for v in values {
            assert_eq!(r.take_f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn header_violations_are_rejected() {
        assert_eq!(Reader::open(b"").unwrap_err(), WireError::BadMagic);
        assert_eq!(Reader::open(b"JSON").unwrap_err(), WireError::BadMagic);
        let mut w = Writer::default();
        w.buf.extend_from_slice(&MAGIC);
        w.put_u32(99);
        assert_eq!(
            Reader::open(&w.finish()).unwrap_err(),
            WireError::UnsupportedVersion(99)
        );
        // Magic alone, version missing.
        assert!(matches!(
            Reader::open(&MAGIC).unwrap_err(),
            WireError::Truncated { .. }
        ));
    }

    #[test]
    fn truncation_is_detected_not_panicked() {
        let mut w = Writer::with_header();
        w.put_str("abcdef");
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let short = &bytes[..cut];
            if let Ok(mut r) = Reader::open(short) {
                assert!(matches!(
                    r.take_str().unwrap_err(),
                    WireError::Truncated { .. }
                ));
            }
        }
    }
}
