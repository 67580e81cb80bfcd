//! Little-endian wire codec shared by every on-disk and on-the-wire
//! format in the workspace, and the one owner of record framing: every
//! persisted or framed record (models, serving tiers, datasets, training
//! checkpoints, serving frames) is a [`Record`], whose codec writes and
//! reads only the body.
//!
//! The field codec is deliberately primitive — fixed-width
//! little-endian integers and IEEE-754 `f64` bits, length-prefixed
//! vectors — so a reader can validate structure (truncation, implausible
//! lengths) before touching the payload. Every length prefix is checked
//! against the bytes actually left in the stream before anything is
//! allocated for it.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

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

/// One framed-record format.
///
/// ```text
/// magic [u8; 4] | version u32 (u16 for DPWF) | body | crc32 u32
/// ```
///
/// This build writes `version` and reads every version from 1 up to
/// it. Versions from `crc_from` on end in a CRC-32 trailer over every
/// byte before it; older ones end at their body. A body's layout does
/// not depend on its version.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    magic: [u8; 4],
    version: u32,
    crc_from: u32,
    u16_version: bool,
}

impl Record {
    /// A format with a `u32` version field.
    pub const fn new(magic: [u8; 4], version: u32, crc_from: u32) -> Record {
        Record { magic, version, crc_from, u16_version: false }
    }

    /// The same format with a `u16` version field.
    pub const fn with_u16_version(self) -> Record {
        Record { u16_version: true, ..self }
    }

    fn header_len(&self) -> usize {
        if self.u16_version { 6 } else { 8 }
    }

    fn name(&self) -> String {
        String::from_utf8_lossy(&self.magic).into_owned()
    }

    /// A writer holding the record header; append the body, then
    /// [`Record::seal`] it.
    pub fn writer(&self) -> Writer {
        let mut w = Writer::new();
        w.raw(&self.magic);
        if self.u16_version {
            w.u16(self.version as u16);
        } else {
            w.u32(self.version);
        }
        w
    }

    /// The finished record: the CRC-32 trailer is appended when the
    /// written version carries one.
    pub fn seal(&self, w: Writer) -> Vec<u8> {
        if self.version >= self.crc_from {
            w.into_bytes_with_crc()
        } else {
            w.into_bytes()
        }
    }

    /// Decode one record: the header is read whole and its magic and
    /// version checked, the CRC trailer verified when the version
    /// carries one, `body` run over what lies between, and every byte
    /// must be consumed — trailing bytes are as suspect as truncation.
    pub fn decode<'a, T>(
        &self,
        buf: &'a [u8],
        body: impl FnOnce(&mut Reader<'a>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let header = Reader::new(buf).raw(self.header_len())?;
        if header[..4] != self.magic {
            return Err(WireError::Invalid(format!(
                "bad magic {:02x?} (expected {})",
                &header[..4],
                self.name()
            )));
        }
        let version = if self.u16_version {
            u32::from(u16::from_le_bytes([header[4], header[5]]))
        } else {
            u32::from_le_bytes([header[4], header[5], header[6], header[7]])
        };
        if !(1..=self.version).contains(&version) {
            return Err(WireError::Invalid(format!(
                "unsupported {} version {version} (this build reads 1 to {})",
                self.name(),
                self.version
            )));
        }
        let mut r = if version >= self.crc_from {
            Reader::new_verifying_crc(buf)?
        } else {
            Reader::new(buf)
        };
        r.raw(self.header_len())?;
        let value = body(&mut r)?;
        r.expect_end()?;
        Ok(value)
    }

    /// Write an encoded record to `path` so that a crash or power loss
    /// at any point leaves either the previous file or the whole new
    /// one: the bytes go to `<path>.tmp` and are synced to the device
    /// before that file is renamed over `path`, and the parent
    /// directory is synced after the rename so the rename itself is
    /// durable once this returns `Ok`.
    pub fn save(&self, path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
        debug_assert!(bytes.starts_with(&self.magic), "{} record expected", self.name());
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        fs::File::open(dir)?.sync_all()
    }

    /// Read `path` and [`Record::decode`] it with `body`.
    pub fn load<T>(
        &self,
        path: impl AsRef<Path>,
        body: impl for<'b> FnOnce(&mut Reader<'b>) -> Result<T, WireError>,
    ) -> io::Result<T> {
        Ok(self.decode(&fs::read(path)?, body)?)
    }
}

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table
/// and `CRC_TABLES[k][i]` advances `CRC_TABLES[k - 1][i]` by one zero
/// byte, so eight table lookups fold eight input bytes at once.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// CRC-32 (IEEE 802.3 polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The one-lookup-per-byte loop: the oracle [`crc32`] is held to.
#[cfg(test)]
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
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

    /// Make room for `additional` more bytes, so a writer whose final
    /// length is known up front grows its buffer once.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
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

    /// Append a length-prefixed `f64` vector: the buffer grows once,
    /// then each value's bits are copied into place.
    pub fn f64_vec(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        let start = self.buf.len();
        self.buf.resize(start + 8 * v.len(), 0);
        for (dst, x) in self.buf[start..].chunks_exact_mut(8).zip(v) {
            dst.copy_from_slice(&x.to_le_bytes());
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
    /// written so far. Readers validate with [`Reader::new_verifying_crc`].
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
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..1 << 20)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        // Every length across the 8-byte boundary, at every alignment.
        for off in 0..8 {
            for len in 0..=72 {
                let d = &bytes[off..off + len];
                assert_eq!(crc32(d), crc32_bytewise(d), "offset {off}, length {len}");
            }
        }
        assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "1 MiB");
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
}
