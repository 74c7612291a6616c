//! The bounded little-endian byte codec every binary format of the
//! repository is written in: `uwlz` serving frames (`uw-serve`'s `wire`),
//! `uwCM` campaign manifests ([`crate::manifest`]) and `uwRD` recording
//! directories (`uw-eval`'s `replay`).
//!
//! [`Reader`] never reads past its buffer. Every read checks the bytes
//! left before it slices, a claimed element count is checked against the
//! bytes left before anything is allocated ([`Reader::count`]), strings
//! must be UTF-8, one-byte codes must name an entry of their table
//! ([`Reader::code`]), and [`Reader::finish`] rejects trailing bytes. Any
//! fault is one [`CodecError`] naming the field, its byte offset and the
//! [`Fault`]; each format maps it into its own error type in one place.
//! The `put_*` writers are the matching encoders, and [`crc32`] is the
//! checksum `uwlz` frames carry.
//!
//! Integers are little-endian and `f64` values travel as their IEEE-754
//! bits, so NaN payloads and signed zeros survive a round trip.

use std::fmt;

/// What was wrong with a field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The input ends inside the field.
    Truncated {
        /// Bytes the field needs.
        need: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// An element count claims more entries than the bytes left could hold.
    Count {
        /// The claimed count.
        claimed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// A string is not valid UTF-8.
    NotUtf8,
    /// A one-byte code names no entry of its table.
    UnknownCode(u8),
    /// A value does not fit the type or length prefix it travels in.
    OutOfRange(u64),
    /// Bytes remain after the last field.
    Trailing(usize),
}

/// A fault at one field of an encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Name of the field being read or written.
    pub field: &'static str,
    /// Byte offset at which the fault was found.
    pub offset: usize,
    /// What was wrong.
    pub fault: Fault,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at offset {}: ", self.field, self.offset)?;
        match &self.fault {
            Fault::Truncated { need, have } => {
                write!(f, "truncated, need {need} bytes, {have} left")
            }
            Fault::Count { claimed, remaining } => {
                write!(f, "{claimed} entries claimed, only {remaining} bytes left")
            }
            Fault::NotUtf8 => write!(f, "not UTF-8"),
            Fault::UnknownCode(code) => write!(f, "unknown code {code}"),
            Fault::OutOfRange(v) => write!(f, "{v} out of range"),
            Fault::Trailing(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

fn error(field: &'static str, offset: usize, fault: Fault) -> CodecError {
    CodecError {
        field,
        offset,
        fault,
    }
}

/// Width of a string's length prefix, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prefix {
    /// One byte: strings up to 255 bytes.
    U8 = 1,
    /// Two bytes: strings up to 65,535 bytes.
    U16 = 2,
    /// Four bytes.
    U32 = 4,
}

/// A bounds-checked cursor over one encoding.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], CodecError> {
        let have = self.remaining();
        if have < n {
            return Err(error(field, self.pos, Fault::Truncated { need: n, have }));
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], CodecError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N, field)?);
        Ok(out)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, field: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, field)?[0])
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, field: &'static str) -> Result<u16, CodecError> {
        self.array(field).map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, field: &'static str) -> Result<u32, CodecError> {
        self.array(field).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, field: &'static str) -> Result<u64, CodecError> {
        self.array(field).map(u64::from_le_bytes)
    }

    /// A `u64` that must fit a `usize`.
    #[inline]
    pub fn usize(&mut self, field: &'static str) -> Result<usize, CodecError> {
        let at = self.pos;
        let v = self.u64(field)?;
        usize::try_from(v).map_err(|_| error(field, at, Fault::OutOfRange(v)))
    }

    /// An `f64` from its IEEE-754 bits.
    #[inline]
    pub fn f64(&mut self, field: &'static str) -> Result<f64, CodecError> {
        self.u64(field).map(f64::from_bits)
    }

    /// A `bool` byte: exactly 0 or 1.
    #[inline]
    pub fn bool(&mut self, field: &'static str) -> Result<bool, CodecError> {
        self.code(&[false, true], field)
    }

    /// A one-byte code: the entry of `table` at that index.
    pub fn code<T: Copy>(&mut self, table: &[T], field: &'static str) -> Result<T, CodecError> {
        let at = self.pos;
        let code = self.u8(field)?;
        table
            .get(code as usize)
            .copied()
            .ok_or_else(|| error(field, at, Fault::UnknownCode(code)))
    }

    /// A UTF-8 string behind a length prefix of width `prefix`. The
    /// length is checked against the bytes left before anything is copied.
    #[inline]
    pub fn str(&mut self, prefix: Prefix, field: &'static str) -> Result<String, CodecError> {
        let mut len = [0; 8];
        len[..prefix as usize].copy_from_slice(self.take(prefix as usize, field)?);
        let at = self.pos;
        let bytes = self.take(u64::from_le_bytes(len) as usize, field)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| error(field, at, Fault::NotUtf8))
    }

    /// Checks a claimed count of `entry_bytes`-byte entries against the
    /// bytes left, so a lying count is rejected before it sizes an
    /// allocation. Returns the count.
    #[inline]
    pub fn count(
        &self,
        claimed: usize,
        entry_bytes: usize,
        field: &'static str,
    ) -> Result<usize, CodecError> {
        let remaining = self.remaining();
        if claimed.saturating_mul(entry_bytes) > remaining {
            return Err(error(field, self.pos, Fault::Count { claimed, remaining }));
        }
        Ok(claimed)
    }

    /// Ends the read: every byte must have been consumed. `field` names
    /// what the encoding should have ended with.
    #[inline]
    pub fn finish(&self, field: &'static str) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(error(field, self.pos, Fault::Trailing(n))),
        }
    }
}

/// Appends a little-endian `u16`.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bits.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a `bool` byte.
#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// Appends `v`'s one-byte code: its index in `table`. Tables list every
/// variant of their enum, so this panics only on an incomplete table.
pub fn put_code<T: PartialEq + fmt::Debug>(out: &mut Vec<u8>, table: &[T], v: &T) {
    let code = table.iter().position(|t| t == v);
    out.push(code.unwrap_or_else(|| panic!("{v:?} has no code in {table:?}")) as u8);
}

/// Appends `s` behind a length prefix of width `prefix`; a string too
/// long for its prefix is an [`Fault::OutOfRange`] error.
#[inline]
pub fn put_str(
    out: &mut Vec<u8>,
    prefix: Prefix,
    field: &'static str,
    s: &str,
) -> Result<(), CodecError> {
    let width = prefix as usize;
    let len = s.len() as u64;
    if len >> (8 * width) != 0 {
        return Err(error(field, out.len(), Fault::OutOfRange(len)));
    }
    out.extend_from_slice(&len.to_le_bytes()[..width]);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// IEEE CRC-32 (reflected polynomial 0xEDB88320), bitwise — the inputs
/// are small enough that a lookup table would be vanity.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 check: crc32(b"123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_reader_round_trips_its_writer() {
        let mut out = Vec::new();
        out.push(7);
        put_u16(&mut out, 0xBEEF);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.0);
        put_bool(&mut out, true);
        put_code(&mut out, &['a', 'b', 'c'], &'c');
        put_str(&mut out, Prefix::U8, "s8", "π").unwrap();
        put_str(&mut out, Prefix::U16, "s16", "").unwrap();
        put_str(&mut out, Prefix::U32, "s32", "uwlz").unwrap();
        let mut r = Reader::new(&out);
        assert_eq!(r.u8("u8"), Ok(7));
        assert_eq!(r.u16("u16"), Ok(0xBEEF));
        assert_eq!(r.u32("u32"), Ok(0xDEAD_BEEF));
        assert_eq!(r.usize("usize"), Ok(usize::MAX - 1));
        assert_eq!(r.f64("f64").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.bool("bool"), Ok(true));
        assert_eq!(r.code(&['a', 'b', 'c'], "code"), Ok('c'));
        assert_eq!(r.str(Prefix::U8, "s8").as_deref(), Ok("π"));
        assert_eq!(r.str(Prefix::U16, "s16").as_deref(), Ok(""));
        assert_eq!(r.str(Prefix::U32, "s32").as_deref(), Ok("uwlz"));
        r.finish("end").unwrap();
    }

    #[test]
    fn faults_name_the_field_and_offset() {
        let bytes = [2, 0xFF, 9, 0, 0, 0];
        let mut r = Reader::new(&bytes);
        let err = r.code(&[(), ()], "flag").unwrap_err();
        assert_eq!((err.field, err.offset), ("flag", 0));
        assert_eq!(err.fault, Fault::UnknownCode(2));
        let err = r.str(Prefix::U8, "name").unwrap_err();
        assert_eq!(
            (err.offset, err.fault),
            (2, Fault::Truncated { need: 255, have: 4 })
        );
        let mut r = Reader::new(&bytes[2..]);
        let n = r.u8("count").unwrap() as usize;
        assert_eq!(
            r.count(n, 1, "table").unwrap_err().to_string(),
            "table at offset 1: 9 entries claimed, only 3 bytes left"
        );
        assert_eq!(r.count(3, 1, "table"), Ok(3));
        assert_eq!(r.finish("end").unwrap_err().fault, Fault::Trailing(3));
        let mut r = Reader::new(&[1, 0xC3]);
        assert_eq!(r.str(Prefix::U8, "utf8").unwrap_err().fault, Fault::NotUtf8);
        let long = "x".repeat(256);
        let err = put_str(&mut vec![0; 3], Prefix::U8, "slug", &long).unwrap_err();
        assert_eq!((err.offset, err.fault), (3, Fault::OutOfRange(256)));
    }
}
