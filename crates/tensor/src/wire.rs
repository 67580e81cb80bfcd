//! Little-endian wire codec shared by every on-disk and on-the-wire
//! format in the workspace: optimizer state blobs, model and serving
//! artifacts (`model_io`), datasets (`dp_data::io`), training
//! checkpoints, serving frames, and the checksummed allreduce messages
//! of the fault-tolerant ring.
//!
//! The format is deliberately primitive — fixed-width little-endian
//! integers and IEEE-754 `f64` bits, length-prefixed vectors — so a
//! reader can validate structure (truncation, implausible lengths)
//! before touching the payload, and a CRC-32 trailer can validate the
//! payload before anything is deserialized into live state. Every
//! length prefix is checked against the bytes actually left in the
//! stream before anything is allocated for it.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Decode failure. Carries enough context to say *where* a stream went
/// bad, which matters when a checkpoint is rejected after a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended before the requested field.
    Truncated {
        /// Byte offset at which the read was attempted.
        at: usize,
        /// Bytes the field needed.
        needed: usize,
    },
    /// The CRC-32 trailer did not match the payload.
    BadCrc {
        /// Checksum stored in the stream.
        stored: u32,
        /// Checksum recomputed over the payload.
        computed: u32,
    },
    /// A structurally invalid value (implausible length, bad tag, …).
    Invalid(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { at, needed } => {
                write!(f, "truncated stream: needed {needed} bytes at offset {at}")
            }
            WireError::BadCrc { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            WireError::Invalid(msg) => write!(f, "invalid data: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Every decode failure is `InvalidData` to the file-level loaders.
impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Write `bytes` to `path` crash-safely: they go to a temporary sibling
/// (`<path>.tmp`) that is then renamed over the destination, so a
/// reader sees either the previous file or the new one, never a torn
/// one.
pub fn save_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    fs::write(tmp, bytes)?;
    fs::rename(tmp, path)
}

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = build_crc_table();

/// CRC-32 (IEEE 802.3 polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append-only little-endian encoder.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its little-endian IEEE-754 bits.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed `f64` vector.
    pub fn f64_vec(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }

    /// Append a length-prefixed `i16` vector.
    pub fn i16_vec(&mut self, v: &[i16]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Append a length-prefixed `i32` vector.
    pub fn i32_vec(&mut self, v: &[i32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append raw bytes with no length prefix (magic numbers, nested
    /// pre-encoded blobs whose length is carried elsewhere).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Consume the writer, appending a CRC-32 trailer over everything
    /// written so far. Readers validate with [`Reader::verify_crc`].
    pub fn into_bytes_with_crc(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.u32(crc);
        self.buf
    }
}

/// Cursor-based little-endian decoder over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Check and strip a CRC-32 trailer: the final 4 bytes must equal
    /// the CRC-32 of everything before them. Returns a reader over the
    /// payload (trailer excluded).
    pub fn new_verifying_crc(buf: &'a [u8]) -> Result<Self, WireError> {
        if buf.len() < 4 {
            return Err(WireError::Truncated { at: 0, needed: 4 });
        }
        let (payload, trailer) = buf.split_at(buf.len() - 4);
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let computed = crc32(payload);
        if stored != computed {
            return Err(WireError::BadCrc { stored, computed });
        }
        Ok(Reader { buf: payload, pos: 0 })
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left in the stream.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { at: self.pos, needed: n });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Read an `f64` from its little-endian bits.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        let s = self.take(8)?;
        Ok(f64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Read a `u64` count of elements that each occupy at least
    /// `min_bytes` further bytes of the stream, and fail unless the
    /// stream still holds that many — the bound every length prefix
    /// passes before anything is allocated or looped over for it. A
    /// count whose byte size overflows is [`WireError::Invalid`]; one
    /// the stream is too short for is [`WireError::Truncated`].
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, WireError> {
        let n = self.u64()?;
        let needed = usize::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(min_bytes))
            .ok_or_else(|| WireError::Invalid(format!("implausible element count {n}")))?;
        if self.remaining() < needed {
            return Err(WireError::Truncated { at: self.pos, needed });
        }
        Ok(n as usize)
    }

    /// Read `n` packed `W`-byte little-endian values.
    fn packed<const W: usize, T>(
        &mut self,
        n: usize,
        from_le: fn([u8; W]) -> T,
    ) -> Result<Vec<T>, WireError> {
        let bytes = n
            .checked_mul(W)
            .ok_or_else(|| WireError::Invalid(format!("implausible element count {n}")))?;
        Ok(self.take(bytes)?.chunks_exact(W).map(|c| from_le(c.try_into().unwrap())).collect())
    }

    /// Read `n` packed `f64`s with no length prefix.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, WireError> {
        self.packed(n, f64::from_le_bytes)
    }

    /// Read a length-prefixed `f64` vector.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.count(8)?;
        self.packed(n, f64::from_le_bytes)
    }

    /// Read a length-prefixed `i16` vector.
    pub fn i16_vec(&mut self) -> Result<Vec<i16>, WireError> {
        let n = self.count(2)?;
        self.packed(n, i16::from_le_bytes)
    }

    /// Read a length-prefixed `i32` vector.
    pub fn i32_vec(&mut self) -> Result<Vec<i32>, WireError> {
        let n = self.count(4)?;
        self.packed(n, i32::from_le_bytes)
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// Read `n` raw bytes with no length prefix.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Borrow the little-endian bytes of `n` packed `f64`s without
    /// copying or allocating — the zero-copy read path for bulk numeric
    /// payloads (wire frames carrying positions or forces). The slice
    /// is length-validated up front; decode individual values with
    /// [`f64_at`].
    pub fn f64_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let bytes = n.checked_mul(8).ok_or_else(|| {
            WireError::Invalid(format!("implausible f64 count {n}"))
        })?;
        self.take(bytes)
    }

    /// Borrow the little-endian bytes of `n` packed `u32`s without
    /// copying (wire frames carrying type-id arrays). Decode individual
    /// values with [`u32_at`].
    pub fn u32_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let bytes = n.checked_mul(4).ok_or_else(|| {
            WireError::Invalid(format!("implausible u32 count {n}"))
        })?;
        self.take(bytes)
    }

    /// Fail unless the stream is fully consumed (trailing garbage is
    /// as suspicious as truncation in a checkpoint).
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Invalid(format!(
                "{} trailing bytes after end of structure",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// The `i`-th `f64` of a packed little-endian slice obtained from
/// [`Reader::f64_bytes`].
///
/// # Panics
/// Panics when `8 * (i + 1)` exceeds the slice (the reader validated
/// the total length at decode time, so an in-range index cannot).
pub fn f64_at(bytes: &[u8], i: usize) -> f64 {
    let s = &bytes[8 * i..8 * i + 8];
    f64::from_le_bytes(s.try_into().unwrap())
}

/// The `i`-th `u32` of a packed little-endian slice obtained from
/// [`Reader::u32_bytes`].
///
/// # Panics
/// Panics when `4 * (i + 1)` exceeds the slice.
pub fn u32_at(bytes: &[u8], i: usize) -> u32 {
    let s = &bytes[4 * i..4 * i + 4];
    u32::from_le_bytes(s.try_into().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_types() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(-0.125);
        w.f64_vec(&[1.0, f64::MIN_POSITIVE, -3.5e300]);
        w.bytes(b"hello");
        let buf = w.into_bytes();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.f64_vec().unwrap(), vec![1.0, f64::MIN_POSITIVE, -3.5e300]);
        assert_eq!(r.bytes().unwrap(), b"hello");
        r.expect_end().unwrap();
    }

    #[test]
    fn crc_trailer_roundtrip_and_detection() {
        let mut w = Writer::new();
        w.f64_vec(&[0.5, 1.5, 2.5]);
        let mut buf = w.into_bytes_with_crc();

        let mut r = Reader::new_verifying_crc(&buf).unwrap();
        assert_eq!(r.f64_vec().unwrap(), vec![0.5, 1.5, 2.5]);
        r.expect_end().unwrap();

        // Any single bit flip must be detected.
        buf[10] ^= 0x40;
        assert!(matches!(
            Reader::new_verifying_crc(&buf),
            Err(WireError::BadCrc { .. })
        ));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn truncated_stream_reports_offset() {
        let mut w = Writer::new();
        w.u32(1);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        r.u32().unwrap();
        assert_eq!(r.u64(), Err(WireError::Truncated { at: 4, needed: 8 }));
    }

    #[test]
    fn zero_copy_views_roundtrip_and_validate_length() {
        let mut w = Writer::new();
        w.u16(0xBEEF);
        for v in [1.5f64, -2.25, 1e300] {
            w.f64(v);
        }
        for v in [7u32, 0, u32::MAX] {
            w.u32(v);
        }
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        let fb = r.f64_bytes(3).unwrap();
        assert_eq!(f64_at(fb, 0), 1.5);
        assert_eq!(f64_at(fb, 1), -2.25);
        assert_eq!(f64_at(fb, 2), 1e300);
        let ub = r.u32_bytes(3).unwrap();
        assert_eq!(u32_at(ub, 0), 7);
        assert_eq!(u32_at(ub, 2), u32::MAX);
        r.expect_end().unwrap();

        // A short stream fails with Truncated, and an overflowing count
        // fails with Invalid instead of wrapping.
        let mut r = Reader::new(&buf);
        assert!(matches!(r.f64_bytes(1 << 40), Err(WireError::Truncated { .. })));
        assert!(matches!(r.f64_bytes(usize::MAX / 4), Err(WireError::Invalid(_))));
    }

    #[test]
    fn implausible_length_rejected() {
        let mut w = Writer::new();
        w.u64(u64::MAX / 2);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.f64_vec(), Err(WireError::Invalid(_))));
    }

    /// A length prefix is believed only as far as the stream behind it
    /// reaches: nothing is reserved for elements that are not there.
    #[test]
    fn length_prefix_is_bounded_by_the_remaining_stream() {
        let mut w = Writer::new();
        w.u64(1 << 26); // 512 MiB of f64s, were it honest
        w.f64(1.0);
        let buf = w.into_bytes();
        let needed = |r: Result<(), WireError>| match r {
            Err(WireError::Truncated { at: 8, needed }) => needed,
            other => panic!("expected Truncated at 8, got {other:?}"),
        };
        assert_eq!(needed(Reader::new(&buf).f64_vec().map(drop)), 8 << 26);
        assert_eq!(needed(Reader::new(&buf).i32_vec().map(drop)), 4 << 26);
        assert_eq!(needed(Reader::new(&buf).i16_vec().map(drop)), 2 << 26);
        assert_eq!(needed(Reader::new(&buf).bytes().map(drop)), 1 << 26);
        assert_eq!(needed(Reader::new(&buf).count(48).map(drop)), 48 << 26);
    }

    #[test]
    fn integer_vectors_roundtrip() {
        let mut w = Writer::new();
        w.i16_vec(&[i16::MIN, -1, 0, 2047]);
        w.i32_vec(&[i32::MAX, -7]);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.i16_vec().unwrap(), vec![i16::MIN, -1, 0, 2047]);
        assert_eq!(r.i32_vec().unwrap(), vec![i32::MAX, -7]);
        r.expect_end().unwrap();
    }

    #[test]
    fn save_atomic_replaces_the_file_and_leaves_no_temporary() {
        let path = std::env::temp_dir().join(format!("dp_wire_atomic_{}.bin", std::process::id()));
        save_atomic(&path, b"first").unwrap();
        save_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists());
        std::fs::remove_file(&path).unwrap();
    }
}
