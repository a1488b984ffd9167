//! The one byte reader every binary decoder in the workspace goes through.
//!
//! [`Get`] is a checked cursor over a `&[u8]`: every read either returns
//! a value or a typed [`DecodeError`], never panics, and never trusts a
//! length prefix further than the input could back it. The wire codec
//! (`wire`), the write-ahead-log records and snapshots (`persist`) and the
//! broker frames (`evs_broker::proto`) all decode through it; the one
//! writer they share is the vendored `bytes::BufMut`.
//!
//! Integers are fixed-width, except where a format opts into [`Get::var`]:
//! canonical LEB128, written by [`put_var`]. The wire's token and data
//! frames do. A data batch writes its one configuration once and each
//! message's `seq` as a step above the one before, so it can only say one
//! configuration in strictly ascending `seq`.
//!
//! Caps are the caller's to state. [`Get::count`] takes the largest
//! element count the format allows and the fewest bytes one element can
//! occupy, so a collection is presized from what the input can hold, not
//! from what a hostile prefix claims.

use bytes::BufMut;
use core::fmt;

/// Sanity cap for any single length prefix (collections, payloads).
pub const MAX_LEN: u64 = 1 << 24;

/// Why a buffer did not decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// An enum tag byte had no corresponding variant, or a value or a
    /// collection was not in its canonical form.
    BadTag {
        /// Which enum (or ordering rule) was being decoded.
        what: &'static str,
        /// The offending tag value (0 for an ordering violation).
        tag: u8,
    },
    /// A length prefix exceeded the cap its format states.
    OversizedLength {
        /// The claimed length.
        len: u64,
    },
    /// The value decoded but left unconsumed bytes behind.
    TrailingBytes {
        /// How many bytes were left.
        remaining: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of frame"),
            DecodeError::BadTag { what, tag } => write!(f, "invalid tag {tag} for {what}"),
            DecodeError::OversizedLength { len } => write!(f, "length {len} exceeds frame limit"),
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after frame")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Result of a decode step.
pub type Result<T> = std::result::Result<T, DecodeError>;

/// A checked read cursor over a byte slice, in one byte order: `BE` is
/// false (the default) for little-endian, true for big-endian.
///
/// The reads are `#[inline]`: decoders in other modules call them once
/// per field, and small-message decode is on the ring's hot path.
#[derive(Clone, Debug)]
pub struct Get<'a, const BE: bool = false> {
    buf: &'a [u8],
}

impl<'a> Get<'a> {
    /// A cursor whose integers are little-endian (the wire and the WAL).
    pub fn le(buf: &'a [u8]) -> Self {
        Get { buf }
    }
}

impl<'a> Get<'a, true> {
    /// A cursor whose integers are big-endian (the broker frames).
    pub fn be(buf: &'a [u8]) -> Self {
        Get { buf }
    }
}

impl<'a, const BE: bool> Get<'a, BE> {
    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Splits the next `n` bytes off the front, as a view into the input.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, rest) = self
            .buf
            .split_at_checked(n)
            .ok_or(DecodeError::UnexpectedEof)?;
        self.buf = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, rest) = self
            .buf
            .split_first_chunk()
            .ok_or(DecodeError::UnexpectedEof)?;
        self.buf = rest;
        Ok(*head)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        self.array().map(u8::from_le_bytes)
    }

    /// A boolean spelled `0` or `1`; any other byte is an error, so every
    /// accepted input re-encodes to itself.
    #[inline]
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what: "bool", tag }),
        }
    }

    /// A `u32` in the cursor's byte order.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        let raw = self.array()?;
        Ok(if BE {
            u32::from_be_bytes(raw)
        } else {
            u32::from_le_bytes(raw)
        })
    }

    /// A `u64` in the cursor's byte order.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        let raw = self.array()?;
        Ok(if BE {
            u64::from_be_bytes(raw)
        } else {
            u64::from_le_bytes(raw)
        })
    }

    /// A `u64` in unsigned LEB128: seven bits a byte, the least
    /// significant group first, the high bit set on every byte but the
    /// last. Only the shortest spelling is accepted — no final zero group
    /// after the first byte, no tenth byte above 1, no eleventh byte — so
    /// every accepted input re-encodes to itself through [`put_var`].
    #[inline]
    pub fn var(&mut self) -> Result<u64> {
        // Most fields of a data frame fit one byte.
        if let [b @ 0..=0x7f, rest @ ..] = self.buf {
            self.buf = rest;
            return Ok(u64::from(*b));
        }
        self.long_var()
    }

    /// [`Get::var`] past its first byte.
    fn long_var(&mut self) -> Result<u64> {
        let mut v = 0;
        for (i, &b) in self.buf.iter().enumerate().take(10) {
            if (i == 9 && b > 1) || (i > 0 && b == 0) {
                return Err(DecodeError::BadTag {
                    what: "canonical LEB128 u64",
                    tag: b,
                });
            }
            v |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                self.buf = &self.buf[i + 1..];
                return Ok(v);
            }
        }
        Err(DecodeError::UnexpectedEof)
    }

    /// A `u32` element count or byte length, checked twice: against `max`,
    /// the cap the caller's format states, and against the input — `n`
    /// elements of at least `min_elem_bytes` each must fit in what is
    /// left. The returned count is therefore a safe presize: at most
    /// `remaining / min_elem_bytes`.
    #[inline]
    pub fn count(&mut self, max: u64, min_elem_bytes: usize) -> Result<usize> {
        let n = u64::from(self.u32()?);
        self.fitting(n, max, min_elem_bytes)
    }

    /// [`Get::count`] for a count written as a [`Get::var`].
    #[inline]
    pub fn var_count(&mut self, max: u64, min_elem_bytes: usize) -> Result<usize> {
        let n = self.var()?;
        self.fitting(n, max, min_elem_bytes)
    }

    #[inline]
    fn fitting(&self, n: u64, max: u64, min_elem_bytes: usize) -> Result<usize> {
        if n > max {
            return Err(DecodeError::OversizedLength { len: n });
        }
        let n = n as usize;
        if n.saturating_mul(min_elem_bytes) > self.buf.len() {
            return Err(DecodeError::UnexpectedEof);
        }
        Ok(n)
    }

    /// Ends the decode: every byte must have been read.
    #[inline]
    pub fn finish(&self) -> Result<()> {
        match self.buf.len() {
            0 => Ok(()),
            remaining => Err(DecodeError::TrailingBytes { remaining }),
        }
    }
}

/// Appends `v` as the LEB128 integer [`Get::var`] reads: one byte below
/// 128, ten at most.
#[inline]
pub fn put_var(out: &mut impl BufMut, mut v: u64) {
    if v < 0x80 {
        out.put_u8(v as u8);
        return;
    }
    let mut buf = [0; 10];
    let mut n = 0;
    while v >= 0x80 {
        buf[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    buf[n] = v as u8;
    out.put_slice(&buf[..=n]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_both_byte_orders_and_rejects_truncation() {
        let bytes = [1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0];
        let mut le = Get::le(&bytes);
        assert_eq!((le.u32(), le.u64()), (Ok(1), Ok(2)));
        le.finish().unwrap();
        let mut be = Get::be(&bytes);
        assert_eq!(be.u32(), Ok(1 << 24));
        assert_eq!(be.u32(), Ok(2 << 24));
        assert_eq!(be.u64(), Err(DecodeError::UnexpectedEof));
        assert_eq!(be.remaining(), 4, "a failed read consumes nothing");
        assert_eq!(
            be.finish(),
            Err(DecodeError::TrailingBytes { remaining: 4 })
        );
    }

    #[test]
    fn bool_is_strict() {
        assert_eq!(Get::le(&[1]).bool(), Ok(true));
        assert_eq!(
            Get::le(&[2]).bool(),
            Err(DecodeError::BadTag {
                what: "bool",
                tag: 2
            })
        );
    }

    #[test]
    fn var_round_trips_at_every_width() {
        let mut out = Vec::new();
        for shift in 0..64 {
            for v in [1u64 << shift, (1 << shift) - 1, u64::MAX >> shift] {
                out.clear();
                put_var(&mut out, v);
                assert_eq!(
                    out.len(),
                    (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
                );
                let mut g = Get::le(&out);
                assert_eq!(g.var(), Ok(v));
                g.finish().unwrap();
            }
        }
    }

    #[test]
    fn var_refuses_every_spelling_but_the_shortest() {
        let bad = |what: &[u8], tag| {
            let mut g = Get::le(what);
            assert_eq!(
                g.var(),
                Err(DecodeError::BadTag {
                    what: "canonical LEB128 u64",
                    tag
                }),
                "{what:02x?}"
            );
            assert_eq!(g.remaining(), what.len(), "a failed read consumes nothing");
        };
        // Overlong: 1 spelled in two bytes, 0 in two.
        bad(&[0x81, 0x00], 0);
        bad(&[0x80, 0x00], 0);
        // Bit 64 and above in the tenth byte, and an eleventh byte.
        let mut max = [0xff; 10];
        max[9] = 0x01;
        assert_eq!(Get::le(&max).var(), Ok(u64::MAX));
        max[9] = 0x02;
        bad(&max, 2);
        let mut eleven = [0x80; 11];
        eleven[10] = 0x01;
        bad(&eleven, 0x80);
        // Truncation mid-integer.
        assert_eq!(Get::le(&[0x80]).var(), Err(DecodeError::UnexpectedEof));
        assert_eq!(Get::le(&[]).var(), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn count_is_bounded_by_the_cap_and_by_the_input() {
        // Three 4-byte elements announced, twelve bytes behind them.
        let mut ok = vec![3, 0, 0, 0];
        ok.extend_from_slice(&[0; 12]);
        assert_eq!(Get::le(&ok).count(3, 4), Ok(3));
        assert_eq!(
            Get::le(&ok).count(2, 4),
            Err(DecodeError::OversizedLength { len: 3 })
        );
        assert_eq!(Get::le(&ok).count(3, 5), Err(DecodeError::UnexpectedEof));
        // A hostile prefix on an empty body presizes nothing.
        assert_eq!(
            Get::le(&[0xff, 0xff, 0xff, 0x00]).count(MAX_LEN, 1),
            Err(DecodeError::UnexpectedEof)
        );
    }
}
