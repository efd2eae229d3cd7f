//! Versioned binary snapshot codec.
//!
//! Checkpoint/restore has to be bit-exact and dependency-free, so the
//! format is hand-rolled: little-endian fixed-width integers, `f64` as raw
//! IEEE-754 bits, length-prefixed byte strings, and an outer envelope of
//!
//! ```text
//! magic (8 B) | version (u32) | payload_len (u64) | fnv1a64(payload) | payload
//! ```
//!
//! Every read is bounds-checked and returns a typed [`SnapError`] — a
//! corrupt, truncated, or version-mismatched snapshot must never panic,
//! only fail loudly so callers can fall back to restart-from-scratch.
//!
//! The codec deliberately has no reflection or schema: each component
//! writes and reads its own fields in a fixed order, so the byte stream is
//! exactly as stable as the component code that produced it, and the
//! envelope version is bumped whenever any component's layout changes.

use crate::time::{SimDuration, SimTime};
use core::fmt;

/// Magic bytes opening every snapshot envelope.
pub const SNAP_MAGIC: [u8; 8] = *b"HCCSNAP\0";

/// Current snapshot format version. Bump on any layout change; old
/// versions are rejected, never migrated (a checkpoint is a cache of
/// re-runnable work, not an archive).
pub const SNAP_VERSION: u32 = 1;

/// Envelope header size: magic + version + payload length + checksum.
pub const SNAP_HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Typed decode failure. All malformed-input paths land here — no decode
/// path is allowed to panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the field being read.
    Eof,
    /// The envelope does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The envelope's format version is not the one this build writes.
    BadVersion {
        /// Version found in the envelope header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The envelope header promises more payload bytes than are present.
    Truncated,
    /// The payload checksum does not match the header.
    Checksum,
    /// A field decoded to a value that cannot be valid state.
    Corrupt(&'static str),
    /// The live state cannot be checkpointed right now (e.g. an enabled
    /// observability layer holds unbounded history the format excludes).
    /// A save-side refusal, not a decode failure.
    Unsupported(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Eof => write!(f, "snapshot ended mid-field"),
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::BadVersion { found, expected } => {
                write!(f, "snapshot format v{found} (this build reads v{expected})")
            }
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::Checksum => write!(f, "snapshot checksum mismatch"),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapError::Unsupported(what) => write!(f, "cannot checkpoint: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit hash — the snapshot checksum and the digest primitive the
/// test suite uses for metric comparison.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Append-only snapshot payload writer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The raw payload (no envelope).
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }

    /// Wrap the payload in the versioned, checksummed envelope.
    pub fn into_envelope(self) -> Vec<u8> {
        let payload = self.buf;
        let mut out = Vec::with_capacity(SNAP_HEADER_LEN + payload.len());
        out.extend_from_slice(&SNAP_MAGIC);
        out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a_64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write an `f64` as its raw IEEE-754 bits (bit-exact round trip,
    /// including NaN payloads and signed zeros).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write a [`SimTime`].
    pub fn time(&mut self, t: SimTime) {
        self.u64(t.as_nanos());
    }

    /// Write a [`SimDuration`].
    pub fn duration(&mut self, d: SimDuration) {
        self.u64(d.as_nanos());
    }

    /// Write a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Write an `Option` as a presence byte plus the value.
    pub fn opt<T>(&mut self, v: &Option<T>, mut enc: impl FnMut(&T, &mut SnapWriter)) {
        match v {
            Some(x) => {
                self.bool(true);
                enc(x, self);
            }
            None => self.bool(false),
        }
    }

    /// Write a slice as a length prefix plus each element.
    pub fn seq<T>(&mut self, items: &[T], mut enc: impl FnMut(&T, &mut SnapWriter)) {
        self.usize(items.len());
        for it in items {
            enc(it, self);
        }
    }
}

/// Bounds-checked snapshot payload reader.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over a raw payload (no envelope).
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Validate an envelope (magic, version, length, checksum) and return
    /// a reader positioned at the start of its payload.
    pub fn open(data: &'a [u8]) -> Result<Self, SnapError> {
        if data.len() < SNAP_HEADER_LEN {
            // Too short even for the header: distinguish "not a snapshot
            // at all" from "snapshot cut off mid-header".
            if data.len() >= 8 && data[..8] != SNAP_MAGIC {
                return Err(SnapError::BadMagic);
            }
            return Err(SnapError::Truncated);
        }
        if data[..8] != SNAP_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion {
                found: version,
                expected: SNAP_VERSION,
            });
        }
        let payload_len = u64::from_le_bytes(data[12..20].try_into().expect("8 bytes"));
        let checksum = u64::from_le_bytes(data[20..28].try_into().expect("8 bytes"));
        let payload = &data[SNAP_HEADER_LEN..];
        if (payload.len() as u64) < payload_len {
            return Err(SnapError::Truncated);
        }
        if (payload.len() as u64) > payload_len {
            return Err(SnapError::Corrupt("trailing bytes after payload"));
        }
        if fnv1a_64(payload) != checksum {
            return Err(SnapError::Checksum);
        }
        Ok(SnapReader::new(payload))
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole payload has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Error unless every payload byte was consumed — a decode that leaves
    /// trailing bytes read a different layout than the writer wrote.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(SnapError::Corrupt("unconsumed payload bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 B")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 B")))
    }

    /// Read a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("16 B"),
        ))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 B")))
    }

    /// Read a `u64` written as a `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt("usize overflow"))
    }

    /// Read a collection length, bounded so a corrupt length cannot drive
    /// an enormous allocation: each element needs at least `min_elem_bytes`
    /// payload bytes, so any honest length fits in what remains.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(SnapError::Corrupt("length exceeds payload"));
        }
        Ok(n)
    }

    /// Read an `f64` from raw bits.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `bool`; anything but 0/1 is corruption.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool out of range")),
        }
    }

    /// Read a [`SimTime`].
    pub fn time(&mut self) -> Result<SimTime, SnapError> {
        Ok(SimTime::from_nanos(self.u64()?))
    }

    /// Read a [`SimDuration`].
    pub fn duration(&mut self) -> Result<SimDuration, SnapError> {
        Ok(SimDuration::from_nanos(self.u64()?))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.len(1)?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| SnapError::Corrupt("invalid utf-8"))
    }

    /// Read an `Option` written by [`SnapWriter::opt`].
    pub fn opt<T>(
        &mut self,
        mut dec: impl FnMut(&mut SnapReader<'a>) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        if self.bool()? {
            Ok(Some(dec(self)?))
        } else {
            Ok(None)
        }
    }

    /// Read a sequence written by [`SnapWriter::seq`] into a `Vec`.
    pub fn seq<T>(
        &mut self,
        min_elem_bytes: usize,
        mut dec: impl FnMut(&mut SnapReader<'a>) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        let n = self.len(min_elem_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(dec(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.u128(u128::MAX - 5);
        w.i64(-42);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        w.time(SimTime::from_nanos(123));
        w.duration(SimDuration::from_nanos(456));
        w.str("héllo");
        w.opt(&Some(9u64), |v, w| w.u64(*v));
        w.opt(&None::<u64>, |v, w| w.u64(*v));
        w.seq(&[1u64, 2, 3], |v, w| w.u64(*v));
        let payload = w.into_payload();
        let mut r = SnapReader::new(&payload);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u128().unwrap(), u128::MAX - 5);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.time().unwrap(), SimTime::from_nanos(123));
        assert_eq!(r.duration().unwrap(), SimDuration::from_nanos(456));
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.opt(|r| r.u64()).unwrap(), Some(9));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), None);
        assert_eq!(r.seq(8, |r| r.u64()).unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn envelope_round_trip_and_rejections() {
        let mut w = SnapWriter::new();
        w.u64(0x1234_5678_9ABC_DEF0);
        let env = w.into_envelope();
        // Clean round trip.
        let mut r = SnapReader::open(&env).unwrap();
        assert_eq!(r.u64().unwrap(), 0x1234_5678_9ABC_DEF0);
        r.finish().unwrap();
        // Bad magic.
        let mut bad = env.clone();
        bad[0] ^= 0xFF;
        assert_eq!(SnapReader::open(&bad).unwrap_err(), SnapError::BadMagic);
        // Version mismatch.
        let mut bad = env.clone();
        bad[8] = bad[8].wrapping_add(1);
        assert!(matches!(
            SnapReader::open(&bad),
            Err(SnapError::BadVersion { .. })
        ));
        // Truncation at every prefix length: typed error, never a panic.
        for cut in 0..env.len() {
            assert!(SnapReader::open(&env[..cut]).is_err(), "cut={cut}");
        }
        // Any single flipped payload bit trips the checksum.
        let mut bad = env.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(SnapReader::open(&bad).unwrap_err(), SnapError::Checksum);
        // Trailing garbage is rejected too.
        let mut bad = env.clone();
        bad.push(0);
        assert!(SnapReader::open(&bad).is_err());
    }

    #[test]
    fn reads_past_end_are_typed_errors() {
        let mut r = SnapReader::new(&[1, 2, 3]);
        assert_eq!(r.u64(), Err(SnapError::Eof));
        let mut r = SnapReader::new(&[]);
        assert_eq!(r.u8(), Err(SnapError::Eof));
        // A huge claimed length must not allocate.
        let mut w = SnapWriter::new();
        w.u64(u64::MAX / 2);
        let payload = w.into_payload();
        let mut r = SnapReader::new(&payload);
        assert!(matches!(r.seq(8, |r| r.u64()), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so snapshot checksums (and test digests) never drift.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"hostcc"), fnv1a_64(b"hostcc"));
        assert_ne!(fnv1a_64(b"hostcc"), fnv1a_64(b"hostcd"));
    }
}
