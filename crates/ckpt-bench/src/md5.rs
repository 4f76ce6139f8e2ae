//! MD5 (RFC 1321), implemented from scratch.
//!
//! The paper cites MD5 as the canonical *slow* cryptographic hash whose cost
//! would bottleneck de-duplication throughput (§2.4). It lives here, beside
//! the hash-function ablation (A1 in `DESIGN.md`) that quantifies that claim.
//! Do not use this for security purposes; MD5 is cryptographically broken —
//! here it only serves as a throughput comparison point.

use ckpt_hash::{Digest128, Hasher128};
use std::sync::OnceLock;

/// RFC 1321 MD5.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Md5;

/// Per-round left-rotate amounts (RFC 1321 §3.4).
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, // round 1
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, // round 2
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, // round 3
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, // round 4
];

/// The sine-derived constant table: `K[i] = floor(2^32 * |sin(i + 1)|)`.
///
/// Computed once at first use, exactly as RFC 1321 defines it, rather than
/// transcribing 64 magic numbers.
fn k_table() -> &'static [u32; 64] {
    static K: OnceLock<[u32; 64]> = OnceLock::new();
    K.get_or_init(|| {
        let mut k = [0u32; 64];
        for (i, slot) in k.iter_mut().enumerate() {
            *slot = (((i as f64 + 1.0).sin().abs()) * 4294967296.0) as u32;
        }
        k
    })
}

/// MD5 of `data`. The 16 output bytes are returned in digest order (the order
/// they are conventionally rendered in hex).
pub fn md5(data: &[u8]) -> Digest128 {
    let k = k_table();
    let mut a0: u32 = 0x6745_2301;
    let mut b0: u32 = 0xefcd_ab89;
    let mut c0: u32 = 0x98ba_dcfe;
    let mut d0: u32 = 0x1032_5476;

    // Message padding: 0x80, zeros, then the 64-bit little-endian bit length.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut padded = Vec::with_capacity(data.len() + 72);
    padded.extend_from_slice(data);
    padded.push(0x80);
    while padded.len() % 64 != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&bit_len.to_le_bytes());
    debug_assert_eq!(padded.len() % 64, 0);

    for chunk in padded.chunks_exact(64) {
        let mut m = [0u32; 16];
        for (j, w) in m.iter_mut().enumerate() {
            *w = u32::from_le_bytes(chunk[j * 4..j * 4 + 4].try_into().unwrap());
        }

        let (mut a, mut b, mut c, mut d) = (a0, b0, c0, d0);
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            b = b.wrapping_add(
                a.wrapping_add(f)
                    .wrapping_add(k[i])
                    .wrapping_add(m[g])
                    .rotate_left(S[i]),
            );
            a = tmp;
        }

        a0 = a0.wrapping_add(a);
        b0 = b0.wrapping_add(b);
        c0 = c0.wrapping_add(c);
        d0 = d0.wrapping_add(d);
    }

    let mut out = [0u8; 16];
    out[0..4].copy_from_slice(&a0.to_le_bytes());
    out[4..8].copy_from_slice(&b0.to_le_bytes());
    out[8..12].copy_from_slice(&c0.to_le_bytes());
    out[12..16].copy_from_slice(&d0.to_le_bytes());
    Digest128::from_bytes(&out)
}

impl Hasher128 for Md5 {
    #[inline]
    fn hash_seeded(&self, data: &[u8], seed: u32) -> Digest128 {
        // MD5 has no seed parameter; fold the seed in as a prefix so seeded
        // digests remain distinct (only used by tests and the ablation).
        if seed == 0 {
            md5(data)
        } else {
            let mut buf = Vec::with_capacity(data.len() + 4);
            buf.extend_from_slice(&seed.to_le_bytes());
            buf.extend_from_slice(data);
            md5(&buf)
        }
    }

    fn name(&self) -> &'static str {
        "md5"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_test_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(md5(input).to_hex(), *expected, "input {:?}", input);
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56/64-byte padding boundaries must all hash
        // without panicking and produce distinct digests.
        let data = [0x5au8; 130];
        let mut seen = std::collections::HashSet::new();
        for n in 50..=70 {
            assert!(seen.insert(md5(&data[..n])), "collision at len {n}");
        }
    }

    #[test]
    fn seeded_digests_differ_from_unseeded() {
        let h = Md5;
        assert_ne!(h.hash_seeded(b"data", 0), h.hash_seeded(b"data", 1));
        assert_eq!(h.hash_seeded(b"data", 0), md5(b"data"));
    }
}
