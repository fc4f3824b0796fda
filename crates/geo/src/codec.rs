//! Little-endian binary codec substrate for the snapshot persistence layer.
//!
//! Every serialized artifact in the workspace (`InfluenceSets`,
//! `InvertedIndex`, `PositionBlocks`, `IQuadTree`, and the `.mc2s` snapshot
//! container in `mc2ls-serve`) encodes through this module so the byte
//! layout is pinned once: **all integers and floats are little-endian**,
//! lengths are `u64`, and every decode path returns a typed
//! [`CodecError`] — corrupt or truncated input must never panic.
//!
//! The writer/reader pair is deliberately minimal: a growable byte buffer
//! on the write side and a bounds-checked cursor over a borrowed slice on
//! the read side. No reflection, no self-describing format — each artifact
//! owns its field order and checks its own invariants after decoding.

use std::fmt;

/// Typed decoding failure. Every variant carries enough context to report
/// *where* the input stopped making sense without any panic machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a read of `need` bytes at `offset` completed.
    Truncated {
        /// Byte offset the read started at.
        offset: usize,
        /// Bytes the read needed.
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// A decoded value violates a structural invariant of the artifact.
    Invalid(&'static str),
    /// A decoded length does not fit the platform's `usize` or exceeds the
    /// remaining input (a corrupt length prefix, not a short buffer).
    BadLength {
        /// What was being decoded.
        what: &'static str,
        /// The length the input claimed.
        claimed: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { offset, need, have } => write!(
                f,
                "truncated input: need {need} bytes at offset {offset}, {have} remain"
            ),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
            CodecError::BadLength { what, claimed } => {
                write!(f, "implausible length {claimed} while decoding {what}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Growable little-endian byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer pre-sized for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Finishes and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a `usize` as `u64` (lossless on every supported platform).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends raw bytes (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64` length prefix followed by the slice's `u32`s.
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_len(vs.len());
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// Appends a `u64` length prefix followed by the slice's `f64`s.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_len(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Appends a `u64` length prefix followed by UTF-8 bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.put_bytes(s.as_bytes());
    }
}

/// Bounds-checked little-endian cursor over a borrowed byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`CodecError::Invalid`] unless the whole input was
    /// consumed — trailing garbage is a corruption signal, not padding.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Invalid("trailing bytes after the last field"))
        }
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                offset: self.pos,
                need: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads an `f64` from its little-endian IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u64` length prefix and checks it is plausible: it must fit
    /// `usize` and the remaining input must hold at least `elem_size`
    /// bytes per element, so a corrupt prefix fails *here* with
    /// [`CodecError::BadLength`] instead of attempting a huge allocation.
    pub fn get_len(&mut self, what: &'static str, elem_size: usize) -> Result<usize, CodecError> {
        let claimed = self.get_u64()?;
        let len = usize::try_from(claimed).map_err(|_| CodecError::BadLength { what, claimed })?;
        let need = len.checked_mul(elem_size);
        match need {
            Some(bytes) if bytes <= self.remaining() => Ok(len),
            _ => Err(CodecError::BadLength { what, claimed }),
        }
    }

    /// Reads a length-prefixed `u32` slice.
    pub fn get_u32_vec(&mut self, what: &'static str) -> Result<Vec<u32>, CodecError> {
        let len = self.get_len(what, 4)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_u32()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `f64` slice.
    pub fn get_f64_vec(&mut self, what: &'static str) -> Result<Vec<f64>, CodecError> {
        let len = self.get_len(what, 8)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_string(&mut self, what: &'static str) -> Result<String, CodecError> {
        let len = self.get_len(what, 1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("string is not UTF-8"))
    }

    /// Reads a length-prefixed `u32` array **without copying**: the
    /// returned [`U32View`] borrows the element bytes directly from the
    /// input slice. The wire layout is identical to
    /// [`ByteWriter::put_u32_slice`] / [`ByteReader::get_u32_vec`]; only
    /// the ownership differs.
    pub fn get_u32_view(&mut self, what: &'static str) -> Result<U32View<'a>, CodecError> {
        let len = self.get_len(what, 4)?;
        // `get_len` proved `len * 4 <= remaining`, so neither the multiply
        // nor the take can fail here.
        let bytes = self.take(len * 4)?;
        Ok(U32View { bytes, len })
    }
}

/// A zero-copy view of a little-endian `u32` array borrowed from encoded
/// bytes (the element payload of [`ByteWriter::put_u32_slice`]).
///
/// Element access decodes through [`u32::from_le_bytes`] on a 4-byte
/// chunk — safe Rust, no alignment requirement on the backing slice, and
/// on little-endian targets it compiles to a plain load. This is the
/// substrate of the snapshot zero-copy load path: CSR offset/id arrays are
/// *viewed* in place instead of being copied into owned `Vec<u32>`s.
#[derive(Debug, Clone, Copy)]
pub struct U32View<'a> {
    /// Exactly `4 * len` bytes.
    bytes: &'a [u8],
    len: usize,
}

impl<'a> U32View<'a> {
    /// A view over `bytes`, which must hold a whole number of `u32`s.
    pub fn over(bytes: &'a [u8]) -> Result<U32View<'a>, CodecError> {
        if !bytes.len().is_multiple_of(4) {
            return Err(CodecError::Invalid("u32 view over a non-multiple-of-4"));
        }
        Ok(U32View {
            bytes,
            len: bytes.len() / 4,
        })
    }

    /// Number of `u32` elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element `i`. Panics when `i >= len()`, like slice indexing.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        let mut a = [0u8; 4];
        a.copy_from_slice(&self.bytes[4 * i..4 * i + 4]);
        u32::from_le_bytes(a)
    }

    /// Iterates the elements of `start..end` in order. Panics when the
    /// range is out of bounds, like slice indexing.
    #[inline]
    pub fn iter_range(&self, start: usize, end: usize) -> impl Iterator<Item = u32> + 'a {
        self.bytes[4 * start..4 * end]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
    }

    /// Iterates all elements in order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        self.iter_range(0, self.len)
    }

    /// Copies the elements into an owned vector.
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes` —
/// the per-section checksum of the `.mc2s` snapshot container.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Slicing-by-8 lookup tables for the reflected polynomial `0xEDB88320`,
/// generated at compile time. `CRC32_TABLES[0]` is the classic bytewise
/// table; `CRC32_TABLES[k][i]` advances the CRC of byte `i` through `k`
/// further zero bytes, so eight table lookups fold eight input bytes at
/// once. With per-section CRC on every snapshot save and load,
/// checksumming must not dominate a load that no longer decodes payloads.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            let mask = 0u32.wrapping_sub(c & 1);
            c = (c >> 1) ^ (0xEDB8_8320 & mask);
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Streaming CRC-32 state update: feed `state = 0xFFFF_FFFF`, then chunks,
/// then XOR the result with `0xFFFF_FFFF` (what [`crc32`] does in one go).
/// Eight bytes per step (slicing-by-8), then a bytewise tail; any split of
/// the input into chunks gives the same result.
pub fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ t[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.1);
        w.put_str("héllo");
        w.put_u32_slice(&[1, 2, 3]);
        w.put_f64_slice(&[0.5, f64::MAX]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8(), Ok(7));
        assert_eq!(r.get_u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.get_u64(), Ok(u64::MAX - 1));
        assert_eq!(r.get_f64().map(f64::to_bits), Ok((-0.1f64).to_bits()));
        assert_eq!(r.get_string("s"), Ok("héllo".to_string()));
        assert_eq!(r.get_u32_vec("v"), Ok(vec![1, 2, 3]));
        assert_eq!(r.get_f64_vec("f"), Ok(vec![0.5, f64::MAX]));
        assert_eq!(r.expect_end(), Ok(()));
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = ByteWriter::new();
        w.put_u64(12);
        let mut bytes = w.into_bytes();
        bytes.truncate(5);
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_u64(),
            Err(CodecError::Truncated {
                offset: 0,
                need: 8,
                have: 5
            })
        ));
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // claims ~1.8e19 u32 elements
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let err = r.get_u32_vec("ids").unwrap_err();
        assert!(matches!(err, CodecError::BadLength { what: "ids", .. }));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8(), Ok(1));
        assert!(r.expect_end().is_err());
        assert_eq!(r.get_u8(), Ok(2));
        assert_eq!(r.expect_end(), Ok(()));
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The classic CRC-32 check: crc32("123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Streaming in chunks equals one-shot.
        let mut state = 0xFFFF_FFFFu32;
        state = crc32_update(state, b"1234");
        state = crc32_update(state, b"56789");
        assert_eq!(state ^ 0xFFFF_FFFF, 0xCBF4_3926);
    }

    /// The textbook bit-at-a-time CRC-32, independent of the tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &b in bytes {
            state ^= u32::from(b);
            for _ in 0..8 {
                let mask = 0u32.wrapping_sub(state & 1);
                state = (state >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        state ^ 0xFFFF_FFFF
    }

    fn pseudo_random_bytes(n: usize, mut seed: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                // lint:allow(narrowing-cast): keeps the low byte on purpose
                (seed >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn slicing_by_8_agrees_with_the_bitwise_reference() {
        let buf = pseudo_random_bytes(80, 0x9E37_79B9_7F4A_7C15);
        // Every short length at every alignment: the 8-byte body, the
        // bytewise tail and their seam.
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
        for (n, seed) in [(4099usize, 1u64), (65_536, 2), (1 << 20, 3)] {
            let big = pseudo_random_bytes(n, seed);
            assert_eq!(crc32(&big), crc32_bitwise(&big), "len {n}");
        }
    }

    #[test]
    fn crc32_update_is_split_invariant() {
        let buf = pseudo_random_bytes(200, 0xDEAD_BEEF);
        let whole = crc32(&buf);
        for cut in 0..=buf.len() {
            let state = crc32_update(0xFFFF_FFFF, &buf[..cut]);
            assert_eq!(
                crc32_update(state, &buf[cut..]) ^ 0xFFFF_FFFF,
                whole,
                "cut {cut}"
            );
        }
        // Three-way splits, including empty and sub-word pieces.
        for a in (0..buf.len()).step_by(7) {
            for b in (a..buf.len()).step_by(11) {
                let mut state = crc32_update(0xFFFF_FFFF, &buf[..a]);
                state = crc32_update(state, &buf[a..b]);
                state = crc32_update(state, &buf[b..]);
                assert_eq!(state ^ 0xFFFF_FFFF, whole, "cuts {a} {b}");
            }
        }
    }

    #[test]
    fn u32_view_reads_in_place_and_matches_the_owned_decode() {
        let vs: Vec<u32> = (0..37).map(|i| (i * 0x0101_0101) ^ 0xA5).collect();
        let mut w = ByteWriter::new();
        w.put_u32_slice(&vs);
        w.put_u8(0xEE); // trailing field the view must not swallow
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        let view = r.get_u32_view("vs").unwrap();
        assert_eq!(view.len(), vs.len());
        assert_eq!(view.to_vec(), vs);
        assert_eq!(view.get(0), vs[0]);
        assert_eq!(view.get(36), vs[36]);
        assert_eq!(view.iter_range(5, 9).collect::<Vec<_>>(), vs[5..9]);
        assert_eq!(r.get_u8(), Ok(0xEE));
        assert_eq!(r.expect_end(), Ok(()));

        // The owned decode of the same bytes agrees.
        let mut r2 = ByteReader::new(&bytes);
        assert_eq!(r2.get_u32_vec("vs").unwrap(), vs);
    }

    #[test]
    fn u32_view_rejects_bad_lengths() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_u32_view("vs"),
            Err(CodecError::BadLength { what: "vs", .. })
        ));
        assert!(U32View::over(&[1, 2, 3]).is_err());
        assert_eq!(U32View::over(&[1, 0, 0, 0]).unwrap().get(0), 1);
    }

    #[test]
    fn negative_zero_and_nan_bits_survive() {
        let mut w = ByteWriter::new();
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.get_f64().map(f64::to_bits), Ok(f64::NAN.to_bits()));
    }
}
