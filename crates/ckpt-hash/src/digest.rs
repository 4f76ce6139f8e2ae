//! The 128-bit digest value type.

use std::fmt;

/// A 128-bit digest, stored as two little-endian 64-bit halves.
///
/// This is a plain-old-data type (`Copy`, no padding surprises for the two
/// `u64` fields) so it can be stored densely in flattened Merkle-tree arrays
/// and in the lock-free distinct-hash map, mirroring how the paper keeps
/// 16-byte Murmur3 digests in GPU global memory.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Digest128 {
    /// Low 64 bits.
    pub h1: u64,
    /// High 64 bits.
    pub h2: u64,
}

impl Digest128 {
    /// The all-zero digest. Murmur3 maps the empty input with seed 0 to this
    /// value; the distinct-hash map treats it as a normal key (slot emptiness
    /// is tracked by a separate state byte, see `gpu_sim::distinct_map`).
    pub const ZERO: Digest128 = Digest128 { h1: 0, h2: 0 };

    /// Construct from the two 64-bit halves.
    #[inline]
    pub const fn new(h1: u64, h2: u64) -> Self {
        Digest128 { h1, h2 }
    }

    /// Construct from 16 little-endian bytes.
    #[inline]
    pub fn from_bytes(bytes: &[u8; 16]) -> Self {
        let h1 = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let h2 = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        Digest128 { h1, h2 }
    }

    /// Serialize to 16 little-endian bytes.
    #[inline]
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[0..8].copy_from_slice(&self.h1.to_le_bytes());
        out[8..16].copy_from_slice(&self.h2.to_le_bytes());
        out
    }

    /// The digest as a single `u128` (`h2` in the high bits).
    #[inline]
    pub const fn as_u128(self) -> u128 {
        (self.h2 as u128) << 64 | self.h1 as u128
    }

    /// Whether this is the all-zero digest.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.h1 == 0 && self.h2 == 0
    }

    /// Lower-case hex rendering (32 chars), high byte first, matching the
    /// conventional rendering of MD5 / Murmur3 digests.
    pub fn to_hex(self) -> String {
        self.to_bytes().iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Digest128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest128({})", self.to_hex())
    }
}

impl fmt::Display for Digest128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<u128> for Digest128 {
    #[inline]
    fn from(v: u128) -> Self {
        Digest128 {
            h1: v as u64,
            h2: (v >> 64) as u64,
        }
    }
}

impl From<Digest128> for u128 {
    #[inline]
    fn from(d: Digest128) -> Self {
        d.as_u128()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_round_trip() {
        let d = Digest128::new(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
        assert_eq!(Digest128::from_bytes(&d.to_bytes()), d);
    }

    #[test]
    fn u128_round_trip() {
        let v: u128 = 0xDEAD_BEEF_CAFE_BABE_0123_4567_89AB_CDEF;
        assert_eq!(u128::from(Digest128::from(v)), v);
    }

    #[test]
    fn zero_sentinel() {
        assert!(Digest128::ZERO.is_zero());
        assert!(!Digest128::new(1, 0).is_zero());
        assert!(!Digest128::new(0, 1).is_zero());
    }

    #[test]
    fn hex_rendering() {
        let d = Digest128::from_bytes(&[
            0xd4, 0x1d, 0x8c, 0xd9, 0x8f, 0x00, 0xb2, 0x04, 0xe9, 0x80, 0x09, 0x98, 0xec, 0xf8,
            0x42, 0x7e,
        ]);
        assert_eq!(d.to_hex(), "d41d8cd98f00b204e9800998ecf8427e");
    }

    #[test]
    fn byte_order_is_little_endian_per_half() {
        let d = Digest128::new(0x01, 0x02);
        let b = d.to_bytes();
        assert_eq!(b[0], 0x01);
        assert_eq!(b[8], 0x02);
    }
}
