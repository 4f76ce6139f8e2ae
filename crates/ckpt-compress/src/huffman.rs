//! Canonical Huffman coding over byte symbols (the entropy stage of the
//! Deflate-like and Zstd-like codecs).
//!
//! Encoded block layout: varint raw length, 256 nibble-packed code lengths
//! (128 bytes), then the LSB-first bit stream. Code lengths are limited to
//! [`MAX_BITS`]; skewed distributions are flattened (frequencies halved)
//! until the limit holds, which costs a fraction of a percent of ratio and
//! keeps the decoder table small.

use crate::bitio::{BitReader, BitWriter};
use crate::lz::{get_declared_len, put_varint};
use crate::CorruptStream;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Maximum code length.
pub const MAX_BITS: u32 = 15;

/// Compute length-limited canonical code lengths for the given frequencies.
///
/// Returns all-zero lengths when fewer than one symbol occurs; a single
/// occurring symbol gets length 1.
pub fn code_lengths(freqs: &[u64; 256]) -> [u8; 256] {
    let mut lens = [0u8; 256];
    let used: Vec<usize> = (0..256).filter(|&s| freqs[s] > 0).collect();
    if used.is_empty() {
        return lens;
    }
    if used.len() == 1 {
        lens[used[0]] = 1;
        return lens;
    }

    let mut f: Vec<u64> = used.iter().map(|&s| freqs[s]).collect();
    loop {
        // Standard heap-built Huffman tree over the used symbols.
        // Heap items: (weight, node id). Internal nodes get ids ≥ used.len().
        let n = f.len();
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = f
            .iter()
            .enumerate()
            .map(|(i, &w)| Reverse((w, i)))
            .collect();
        let mut parent = vec![usize::MAX; 2 * n - 1];
        let mut next_id = n;
        while heap.len() > 1 {
            let Reverse((wa, a)) = heap.pop().unwrap();
            let Reverse((wb, b)) = heap.pop().unwrap();
            parent[a] = next_id;
            parent[b] = next_id;
            heap.push(Reverse((wa + wb, next_id)));
            next_id += 1;
        }
        // Depth of each leaf = chain length to the root.
        let mut max_len = 0u32;
        let mut depths = vec![0u8; n];
        for (i, depth) in depths.iter_mut().enumerate() {
            let mut d = 0u32;
            let mut p = i;
            while parent[p] != usize::MAX {
                p = parent[p];
                d += 1;
            }
            *depth = d as u8;
            max_len = max_len.max(d);
        }
        if max_len <= MAX_BITS {
            for (k, &s) in used.iter().enumerate() {
                lens[s] = depths[k];
            }
            return lens;
        }
        // Flatten the distribution and retry.
        for w in f.iter_mut() {
            *w = (*w).div_ceil(2);
        }
    }
}

/// Assign canonical codes (MSB-first values) from code lengths.
/// Returns `(code, len)` per symbol.
pub fn canonical_codes(lens: &[u8; 256]) -> [(u16, u8); 256] {
    let mut codes = [(0u16, 0u8); 256];
    // Count codes per length.
    let mut bl_count = [0u16; (MAX_BITS + 1) as usize];
    for &l in lens.iter() {
        bl_count[l as usize] += 1;
    }
    bl_count[0] = 0;
    // First code of each length. u32 arithmetic so adversarial (corrupt)
    // length tables cannot overflow; valid tables always fit 15 bits.
    let mut next_code = [0u32; (MAX_BITS + 2) as usize];
    let mut code = 0u32;
    for bits in 1..=MAX_BITS as usize {
        code = (code + bl_count[bits - 1] as u32) << 1;
        next_code[bits] = code;
    }
    for s in 0..256 {
        let l = lens[s] as usize;
        if l > 0 {
            codes[s] = (next_code[l] as u16, l as u8);
            next_code[l] += 1;
        }
    }
    codes
}

#[inline]
fn reverse_bits(v: u16, n: u8) -> u16 {
    v.reverse_bits() >> (16 - n)
}

/// Encode `data` as a self-contained Huffman block.
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut freqs = [0u64; 256];
    for &b in data {
        freqs[b as usize] += 1;
    }
    let lens = code_lengths(&freqs);
    let codes = canonical_codes(&lens);

    let mut out = Vec::with_capacity(data.len() / 2 + 140);
    put_varint(&mut out, data.len() as u64);
    for pair in lens.chunks_exact(2) {
        out.push(pair[0] | (pair[1] << 4));
    }
    let mut w = BitWriter::new();
    for &b in data {
        let (code, len) = codes[b as usize];
        // Canonical codes are MSB-first; the bit stream is LSB-first, so
        // write the code reversed and the decoder's peek sees it in order.
        w.write(reverse_bits(code, len) as u64, len as u32);
    }
    out.extend_from_slice(&w.finish());
    out
}

/// Decode a block produced by [`encode`] that holds at most `max_len`
/// symbols; one that declares more is corrupt.
pub fn decode(data: &[u8], max_len: usize) -> Result<Vec<u8>, CorruptStream> {
    let mut pos = 0usize;
    let raw_len = get_declared_len(data, &mut pos, max_len)?;
    if pos + 128 > data.len() {
        return Err(CorruptStream("huffman length table truncated"));
    }
    let mut lens = [0u8; 256];
    for s in 0..128 {
        let b = data[pos + s];
        lens[2 * s] = b & 0x0f;
        lens[2 * s + 1] = b >> 4;
    }
    pos += 128;

    if raw_len == 0 {
        return Ok(Vec::new());
    }

    // Build a flat lookup: MAX_BITS peeked bits -> (symbol, len).
    let codes = canonical_codes(&lens);
    let mut table = vec![(0u16, 0u8); 1 << MAX_BITS];
    let mut any = false;
    for (s, &(code, len)) in codes.iter().enumerate() {
        if len == 0 {
            continue;
        }
        any = true;
        let rev = reverse_bits(code, len);
        // All peeked patterns whose low `len` bits equal `rev`.
        let step = 1u32 << len;
        let mut p = rev as u32;
        while p < (1 << MAX_BITS) {
            table[p as usize] = (s as u16, len);
            p += step;
        }
    }
    if !any {
        return Err(CorruptStream("huffman block with data but no codes"));
    }

    let mut r = BitReader::new(&data[pos..]);
    let mut out = Vec::with_capacity(raw_len);
    for _ in 0..raw_len {
        let peeked = r.peek(MAX_BITS) as usize;
        let (sym, len) = table[peeked];
        if len == 0 {
            return Err(CorruptStream("huffman invalid code"));
        }
        r.consume(len as u32)
            .map_err(|_| CorruptStream("huffman bit stream exhausted"))?;
        out.push(sym as u8);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn skewed_text_compresses() {
        let data = b"aaaaaaaaaabbbbbcccdde".repeat(500);
        let packed = encode(&data);
        // Entropy ≈ 2 bits/byte on this alphabet: expect ~4x reduction
        // (header included).
        assert!(packed.len() < data.len() / 3, "packed {}", packed.len());
        assert_eq!(decode(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn single_symbol_input() {
        let data = vec![7u8; 10_000];
        let packed = encode(&data);
        assert!(packed.len() < 1400); // 1 bit per symbol + header
        assert_eq!(decode(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn empty_input() {
        let packed = encode(&[]);
        assert_eq!(decode(&packed, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn uniform_bytes_round_trip() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let packed = encode(&data);
        assert_eq!(decode(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn length_limit_holds_on_fibonacci_frequencies() {
        // Fibonacci frequencies generate maximally skewed code lengths —
        // the classic worst case for depth limits.
        let mut freqs = [0u64; 256];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut().take(40) {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lens = code_lengths(&freqs);
        assert!(lens.iter().all(|&l| l as u32 <= MAX_BITS));
        // Kraft inequality: the lengths must form a valid prefix code.
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft {kraft}");
    }

    #[test]
    fn corrupt_blocks_rejected() {
        let data = b"hello hello hello".to_vec();
        let packed = encode(&data);
        assert!(decode(&packed[..10], data.len()).is_err());
        // A block claiming data but with an all-zero code table.
        let mut bogus = Vec::new();
        put_varint(&mut bogus, 5);
        bogus.extend_from_slice(&[0u8; 128]);
        assert!(decode(&bogus, 5).is_err());
    }

    proptest! {
        #[test]
        fn round_trip_any(data in prop::collection::vec(any::<u8>(), 0..4096)) {
            let packed = encode(&data);
            prop_assert_eq!(decode(&packed, data.len()).unwrap(), data);
        }

        #[test]
        fn round_trip_skewed(data in prop::collection::vec(0u8..5, 0..4096)) {
            let packed = encode(&data);
            prop_assert_eq!(decode(&packed, data.len()).unwrap(), data);
        }

        #[test]
        fn lengths_always_form_prefix_code(
            counts in prop::collection::vec(0u64..100_000, 256)
        ) {
            let mut freqs = [0u64; 256];
            freqs.copy_from_slice(&counts);
            let lens = code_lengths(&freqs);
            let kraft: f64 =
                lens.iter().filter(|&&l| l > 0).map(|&l| 2f64.powi(-(l as i32))).sum();
            prop_assert!(kraft <= 1.0 + 1e-9);
            // Every used symbol gets a code; unused symbols get none
            // (except the degenerate single-symbol case).
            let used = counts.iter().filter(|&&c| c > 0).count();
            if used >= 2 {
                for s in 0..256 {
                    prop_assert_eq!(lens[s] > 0, counts[s] > 0);
                }
            }
        }
    }
}
