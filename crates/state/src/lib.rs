//! Binary run-state codec shared by every crate that can checkpoint itself.
//!
//! Checkpoint/restore of a running emulation must be **bitwise-exact**: a
//! restored run has to continue on the identical float trajectory, so all
//! values round-trip by bit pattern (`f64::to_bits`) and the format is a
//! plain little-endian byte stream with no text round-trip anywhere.
//!
//! The stream is self-describing only as far as crash safety needs:
//!
//! * a 4-byte magic and a `u32` format version up front, checked by
//!   [`StateReader::new`] ([`StateError::BadMagic`],
//!   [`StateError::UnsupportedVersion`]);
//! * length-prefixed arrays with a hard element cap, so a torn or corrupt
//!   record cannot ask for a multi-gigabyte allocation
//!   ([`StateError::BadLength`]);
//! * [`StateReader::finish`], which fails with
//!   [`StateError::TrailingBytes`] when the reader consumed less than the
//!   writer wrote.
//!
//! Values carry no per-section tags: a reader that disagrees with its
//! writer about the field order decodes whatever bytes sit there, until a
//! capped length, an out-of-range value ([`StateError::BadValue`]), the
//! end of the stream or `finish` stops it.
//!
//! Large, mostly-zero byte arrays (emulated memories) go through a zero-run
//! RLE ([`StateWriter::bytes_rle`]) — a 16 MiB idle memory image costs a few
//! dozen bytes on the wire.
//!
//! The crate also owns how durable files are framed: [`AppendLog`] is the
//! one checksummed append log behind every one of them.

use std::error::Error;
use std::fmt;

mod log;

pub use log::{AppendLog, LogReplay};

/// 64-bit FNV-1a: a small, dependency-free hash whose value is defined by
/// the algorithm alone — unlike `DefaultHasher`, it cannot drift between
/// compiler releases, so on-disk cache keys stay valid. Content keys, the
/// fleet's rendezvous scoring and the [`AppendLog`] checksum all use it.
#[inline]
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues a 64-bit FNV-1a hash from a prior state:
/// `fnv1a64_fold(fnv1a64(a), b) == fnv1a64(a ++ b)`, which lets a content
/// key be chained from per-segment prefix states.
#[inline]
#[must_use]
pub fn fnv1a64_fold(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hard cap on a single decoded array, in elements. A window checkpoint of
/// the mega mesh (110k cells) is a few MB; anything asking for more than
/// this is a corrupt or hostile record.
const MAX_ELEMS: u64 = 1 << 28;

/// Decoding error.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum StateError {
    /// The stream did not start with the expected 4-byte magic.
    BadMagic {
        /// Magic the reader expected.
        expected: [u8; 4],
        /// Bytes actually found (zero-padded if the stream is shorter).
        found: [u8; 4],
    },
    /// The format version is newer than this build understands.
    UnsupportedVersion {
        /// Version found in the stream.
        found: u32,
        /// Highest version this build can decode.
        supported: u32,
    },
    /// The stream ended in the middle of a value.
    UnexpectedEof {
        /// Byte offset at which more data was needed.
        offset: usize,
    },
    /// An array length exceeded the sanity cap or the expected size.
    BadLength {
        /// Length found in the stream.
        found: u64,
        /// Maximum the reader would accept.
        max: u64,
    },
    /// A decoded value was outside its legal range (enum discriminant,
    /// boolean, register index…).
    BadValue {
        /// What was being decoded.
        what: &'static str,
        /// The offending raw value.
        value: u64,
    },
    /// Decoding finished with bytes left over — the writer wrote more than
    /// the reader consumed.
    TrailingBytes {
        /// Number of undecoded bytes.
        remaining: usize,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::BadMagic { expected, found } => {
                write!(
                    f,
                    "bad state magic: expected {:?}, found {:?}",
                    String::from_utf8_lossy(expected),
                    String::from_utf8_lossy(found)
                )
            }
            StateError::UnsupportedVersion { found, supported } => {
                write!(f, "state format version {found} is newer than supported {supported}")
            }
            StateError::UnexpectedEof { offset } => {
                write!(f, "state stream truncated at byte {offset}")
            }
            StateError::BadLength { found, max } => {
                write!(f, "state array length {found} exceeds limit {max}")
            }
            StateError::BadValue { what, value } => {
                write!(f, "state value out of range: {what} = {value}")
            }
            StateError::TrailingBytes { remaining } => {
                write!(f, "state stream has {remaining} undecoded trailing bytes")
            }
        }
    }
}

impl Error for StateError {}

/// Append-only encoder for one checkpoint stream.
#[derive(Clone, Debug)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// Starts a stream with a 4-byte magic and a format version.
    pub fn new(magic: [u8; 4], version: u32) -> StateWriter {
        let mut w = StateWriter { buf: Vec::with_capacity(256) };
        w.buf.extend_from_slice(&magic);
        w.u32(version);
        w
    }

    /// Finishes the stream and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` by bit pattern (bitwise round-trip, NaN included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed `f64` slice by bit pattern.
    pub fn f64_slice(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.u64(x.to_bits());
        }
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn u64_slice(&mut self, v: &[u64]) {
        self.usize(v.len());
        for &x in v {
            self.u64(x);
        }
    }

    /// Writes a length-prefixed `u32` slice.
    pub fn u32_slice(&mut self, v: &[u32]) {
        self.usize(v.len());
        for &x in v {
            self.u32(x);
        }
    }

    /// Writes a length-prefixed raw byte slice (no compression).
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a byte slice with zero-run RLE: total length, then chunks of
    /// either a zero run (`0u8`, run length) or a literal run (`1u8`, run
    /// length, bytes). Runs shorter than 16 zeros are not worth a chunk
    /// header and stay literal.
    pub fn bytes_rle(&mut self, v: &[u8]) {
        const MIN_ZERO_RUN: usize = 16;
        self.usize(v.len());
        let mut i = 0;
        while i < v.len() {
            if v[i] == 0 {
                let mut j = i;
                while j < v.len() && v[j] == 0 {
                    j += 1;
                }
                if j - i >= MIN_ZERO_RUN {
                    self.u8(0);
                    self.usize(j - i);
                    i = j;
                    continue;
                }
            }
            // Literal run: up to the next long zero run (or the end).
            let start = i;
            while i < v.len() {
                if v[i] == 0 {
                    let mut j = i;
                    while j < v.len() && v[j] == 0 {
                        j += 1;
                    }
                    if j - i >= MIN_ZERO_RUN {
                        break;
                    }
                    i = j;
                } else {
                    i += 1;
                }
            }
            self.u8(1);
            self.usize(i - start);
            self.buf.extend_from_slice(&v[start..i]);
        }
    }
}

/// Decoder for a stream produced by [`StateWriter`].
#[derive(Clone, Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Opens a stream, checking the magic and version. Returns the reader
    /// and the version found (always `<= supported_version`).
    ///
    /// # Errors
    ///
    /// Returns [`StateError::BadMagic`] or [`StateError::UnsupportedVersion`].
    pub fn new(
        buf: &'a [u8],
        magic: [u8; 4],
        supported_version: u32,
    ) -> Result<(StateReader<'a>, u32), StateError> {
        let mut found = [0u8; 4];
        for (i, b) in buf.iter().take(4).enumerate() {
            found[i] = *b;
        }
        if buf.len() < 4 || found != magic {
            return Err(StateError::BadMagic { expected: magic, found });
        }
        let mut r = StateReader { buf, pos: 4 };
        let version = r.u32()?;
        if version > supported_version {
            return Err(StateError::UnsupportedVersion { found: version, supported: supported_version });
        }
        Ok((r, version))
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Checks that the stream is fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::TrailingBytes`] if bytes remain.
    pub fn finish(&self) -> Result<(), StateError> {
        if self.remaining() != 0 {
            return Err(StateError::TrailingBytes { remaining: self.remaining() });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        if self.buf.len() - self.pos < n {
            return Err(StateError::UnexpectedEof { offset: self.buf.len() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::UnexpectedEof`] if the stream is exhausted.
    pub fn u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool (must be 0 or 1).
    ///
    /// # Errors
    ///
    /// Returns [`StateError::BadValue`] on any other byte.
    pub fn bool(&mut self) -> Result<bool, StateError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(StateError::BadValue { what: "bool", value: u64::from(v) }),
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::UnexpectedEof`] if the stream is exhausted.
    pub fn u32(&mut self) -> Result<u32, StateError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::UnexpectedEof`] if the stream is exhausted.
    pub fn u64(&mut self) -> Result<u64, StateError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `usize` written by [`StateWriter::usize`], capped for sanity.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::BadLength`] beyond the element cap.
    pub fn usize(&mut self) -> Result<usize, StateError> {
        let v = self.u64()?;
        if v > MAX_ELEMS {
            return Err(StateError::BadLength { found: v, max: MAX_ELEMS });
        }
        Ok(v as usize)
    }

    /// Reads an `f64` by bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::UnexpectedEof`] if the stream is exhausted.
    pub fn f64(&mut self) -> Result<f64, StateError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed `f64` vector.
    ///
    /// # Errors
    ///
    /// Propagates length and EOF errors.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, StateError> {
        let n = self.usize()?;
        let mut v = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            v.push(self.f64()?);
        }
        Ok(v)
    }

    /// Reads a length-prefixed `f64` vector that must have exactly `n`
    /// elements (sized by the live object being restored into).
    ///
    /// # Errors
    ///
    /// Returns [`StateError::BadLength`] on a size mismatch.
    pub fn f64_vec_exact(&mut self, n: usize) -> Result<Vec<f64>, StateError> {
        let found = self.usize()?;
        if found != n {
            return Err(StateError::BadLength { found: found as u64, max: n as u64 });
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.f64()?);
        }
        Ok(v)
    }

    /// Reads a length-prefixed `u64` vector.
    ///
    /// # Errors
    ///
    /// Propagates length and EOF errors.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, StateError> {
        let n = self.usize()?;
        let mut v = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            v.push(self.u64()?);
        }
        Ok(v)
    }

    /// Reads a length-prefixed `u32` vector.
    ///
    /// # Errors
    ///
    /// Propagates length and EOF errors.
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, StateError> {
        let n = self.usize()?;
        let mut v = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            v.push(self.u32()?);
        }
        Ok(v)
    }

    /// Reads a length-prefixed raw byte vector.
    ///
    /// # Errors
    ///
    /// Propagates length and EOF errors.
    pub fn bytes(&mut self) -> Result<Vec<u8>, StateError> {
        let n = self.usize()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a zero-run RLE byte array written by [`StateWriter::bytes_rle`].
    ///
    /// # Errors
    ///
    /// Returns [`StateError::BadLength`] if the chunks do not reassemble to
    /// the prefixed length, [`StateError::BadValue`] on an unknown chunk kind.
    pub fn bytes_rle(&mut self) -> Result<Vec<u8>, StateError> {
        let total = self.usize()?;
        let mut v = vec![0u8; total];
        let mut at = 0usize;
        while at < total {
            let kind = self.u8()?;
            let run = self.usize()?;
            if run > total - at {
                return Err(StateError::BadLength { found: run as u64, max: (total - at) as u64 });
            }
            match kind {
                0 => {} // already zeroed
                1 => v[at..at + run].copy_from_slice(self.take(run)?),
                k => return Err(StateError::BadValue { what: "rle chunk kind", value: u64::from(k) }),
            }
            at += run;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TSTT";

    #[test]
    fn primitives_round_trip_bitwise() {
        let mut w = StateWriter::new(MAGIC, 1);
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.usize(42);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.f64(1.0 / 3.0);
        let bytes = w.into_bytes();

        let (mut r, version) = StateReader::new(&bytes, MAGIC, 1).unwrap();
        assert_eq!(version, 1);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.f64().unwrap().to_bits(), (1.0f64 / 3.0).to_bits());
        r.finish().unwrap();
    }

    #[test]
    fn slices_round_trip() {
        let f = [1.5, -2.25, f64::INFINITY];
        let u = [0u64, 9, u64::MAX];
        let x = [3u32, 0, 0xFFFF_FFFF];
        let mut w = StateWriter::new(MAGIC, 1);
        w.f64_slice(&f);
        w.u64_slice(&u);
        w.u32_slice(&x);
        w.bytes(b"hello");
        let bytes = w.into_bytes();
        let (mut r, _) = StateReader::new(&bytes, MAGIC, 1).unwrap();
        assert_eq!(r.f64_vec().unwrap(), f.to_vec());
        assert_eq!(r.u64_vec().unwrap(), u.to_vec());
        assert_eq!(r.u32_vec().unwrap(), x.to_vec());
        assert_eq!(r.bytes().unwrap(), b"hello");
        r.finish().unwrap();
    }

    #[test]
    fn rle_round_trips_and_compresses_zeros() {
        let mut data = vec![0u8; 1 << 16];
        data[100] = 7;
        data[40_000] = 1;
        data[40_001] = 2;
        let mut w = StateWriter::new(MAGIC, 1);
        w.bytes_rle(&data);
        let bytes = w.into_bytes();
        assert!(bytes.len() < 200, "mostly-zero 64 KiB should RLE to <200 B, got {}", bytes.len());
        let (mut r, _) = StateReader::new(&bytes, MAGIC, 1).unwrap();
        assert_eq!(r.bytes_rle().unwrap(), data);
        r.finish().unwrap();
    }

    #[test]
    fn rle_handles_dense_and_edge_data() {
        for data in [
            vec![],
            vec![1u8, 2, 3],
            vec![0u8; 3],
            (0..=255u8).cycle().take(5000).collect::<Vec<_>>(),
            {
                let mut v = vec![9u8; 100];
                v.extend_from_slice(&[0u8; 15]); // short zero run stays literal
                v.extend_from_slice(&[8u8; 10]);
                v.extend_from_slice(&[0u8; 1000]);
                v.push(1);
                v
            },
        ] {
            let mut w = StateWriter::new(MAGIC, 1);
            w.bytes_rle(&data);
            let bytes = w.into_bytes();
            let (mut r, _) = StateReader::new(&bytes, MAGIC, 1).unwrap();
            assert_eq!(r.bytes_rle().unwrap(), data);
            r.finish().unwrap();
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let w = StateWriter::new(MAGIC, 3);
        let bytes = w.into_bytes();
        assert!(matches!(
            StateReader::new(&bytes, *b"XXXX", 3),
            Err(StateError::BadMagic { .. })
        ));
        assert!(matches!(
            StateReader::new(&bytes, MAGIC, 2),
            Err(StateError::UnsupportedVersion { found: 3, supported: 2 })
        ));
        assert!(matches!(StateReader::new(b"TS", MAGIC, 1), Err(StateError::BadMagic { .. })));
    }

    #[test]
    fn truncation_is_typed() {
        let mut w = StateWriter::new(MAGIC, 1);
        w.u32(1);
        w.u64(5);
        let bytes = w.into_bytes();
        let (mut r, _) = StateReader::new(&bytes[..bytes.len() - 2], MAGIC, 1).unwrap();
        assert_eq!(r.u32().unwrap(), 1);
        assert!(matches!(r.u64(), Err(StateError::UnexpectedEof { .. })));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = StateWriter::new(MAGIC, 1);
        w.u32(1);
        w.u32(2);
        let bytes = w.into_bytes();
        let (mut r, _) = StateReader::new(&bytes, MAGIC, 1).unwrap();
        assert_eq!(r.u32().unwrap(), 1);
        assert!(matches!(r.finish(), Err(StateError::TrailingBytes { remaining: 4 })));
    }

    #[test]
    fn exact_vec_checks_length() {
        let mut w = StateWriter::new(MAGIC, 1);
        w.f64_slice(&[1.0, 2.0]);
        let bytes = w.into_bytes();
        let (mut r, _) = StateReader::new(&bytes, MAGIC, 1).unwrap();
        assert!(matches!(r.f64_vec_exact(3), Err(StateError::BadLength { found: 2, max: 3 })));
    }

    #[test]
    fn length_cap_rejects_huge_allocations() {
        let mut w = StateWriter::new(MAGIC, 1);
        w.u64(u64::MAX); // a "length" that must be rejected before allocating
        let bytes = w.into_bytes();
        let (mut r, _) = StateReader::new(&bytes, MAGIC, 1).unwrap();
        assert!(matches!(r.usize(), Err(StateError::BadLength { .. })));
    }
}
