//! Fixed-size chunking of checkpoint buffers.
//!
//! The paper splits each checkpoint into fine-grain chunks of tens to
//! hundreds of bytes (32–512 B in the evaluation) and hashes each chunk. The
//! final chunk may be shorter when the data length is not a multiple of the
//! chunk size.

use ckpt_hash::{Digest128, Hasher128};
use gpu_sim::TILE;
use std::ops::Range;

/// Chunking geometry for a checkpoint buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunking {
    data_len: usize,
    chunk_size: usize,
}

impl Chunking {
    /// The paper requires the chunk size to exceed twice the 16-byte digest
    /// size, "so long as the chunk size exceeds 32 bytes, the cost of
    /// computing an inner node is lower than that of a leaf node" (§2.4).
    pub const MIN_CHUNK_SIZE: usize = 32;

    /// Create a chunking of `data_len > 0` bytes into chunks of `chunk_size`.
    ///
    /// # Panics
    /// If `data_len == 0` or `chunk_size < MIN_CHUNK_SIZE`.
    pub fn new(data_len: usize, chunk_size: usize) -> Self {
        assert!(data_len > 0, "cannot checkpoint an empty buffer");
        assert!(
            chunk_size >= Self::MIN_CHUNK_SIZE,
            "chunk size {chunk_size} below minimum {}",
            Self::MIN_CHUNK_SIZE
        );
        Chunking {
            data_len,
            chunk_size,
        }
    }

    #[inline]
    pub fn data_len(&self) -> usize {
        self.data_len
    }

    #[inline]
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Number of chunks (last one possibly partial).
    #[inline]
    pub fn n_chunks(&self) -> usize {
        self.data_len.div_ceil(self.chunk_size)
    }

    /// Byte range `[start, end)` of chunk `c`.
    #[inline]
    pub fn byte_range(&self, c: usize) -> (usize, usize) {
        debug_assert!(c < self.n_chunks());
        let start = c * self.chunk_size;
        let end = (start + self.chunk_size).min(self.data_len);
        (start, end)
    }

    /// Byte range `[start, end)` of the chunk run `[c_lo, c_hi)`.
    #[inline]
    pub fn byte_range_of_chunks(&self, c_lo: usize, c_hi: usize) -> (usize, usize) {
        debug_assert!(c_lo < c_hi && c_hi <= self.n_chunks());
        (
            c_lo * self.chunk_size,
            (c_hi * self.chunk_size).min(self.data_len),
        )
    }

    /// The bytes of chunk `c` within `data`.
    #[inline]
    pub fn chunk<'d>(&self, data: &'d [u8], c: usize) -> &'d [u8] {
        let (a, b) = self.byte_range(c);
        &data[a..b]
    }

    /// Chunk digests of one kernel tile (the chunk run `tile`, at most
    /// [`TILE`] long) of `data`: one batch call into `out`, whose filled
    /// prefix is returned.
    #[inline]
    pub(crate) fn hash_tile<'o>(
        &self,
        hasher: &dyn Hasher128,
        data: &[u8],
        tile: &Range<usize>,
        out: &'o mut [Digest128; TILE],
    ) -> &'o [Digest128] {
        let (lo, hi) = self.byte_range_of_chunks(tile.start, tile.end);
        let out = &mut out[..tile.len()];
        hasher.hash_chunks(&data[lo..hi], self.chunk_size, 0, out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_multiple() {
        let ck = Chunking::new(256, 64);
        assert_eq!(ck.n_chunks(), 4);
        assert_eq!(ck.byte_range(0), (0, 64));
        assert_eq!(ck.byte_range(3), (192, 256));
    }

    #[test]
    fn trailing_partial_chunk() {
        let ck = Chunking::new(100, 64);
        assert_eq!(ck.n_chunks(), 2);
        assert_eq!(ck.byte_range(1), (64, 100));
    }

    #[test]
    fn buffer_smaller_than_one_chunk() {
        let ck = Chunking::new(10, 32);
        assert_eq!(ck.n_chunks(), 1);
        assert_eq!(ck.byte_range(0), (0, 10));
    }

    #[test]
    #[should_panic(expected = "below minimum")]
    fn rejects_tiny_chunks() {
        Chunking::new(100, 16);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty_buffer() {
        Chunking::new(0, 64);
    }

    #[test]
    fn chunk_slicing() {
        let data: Vec<u8> = (0..100u8).collect();
        let ck = Chunking::new(100, 32);
        assert_eq!(ck.chunk(&data, 0), &data[0..32]);
        assert_eq!(ck.chunk(&data, 3), &data[96..100]);
    }

    proptest! {
        #[test]
        fn ranges_tile_the_buffer(len in 1usize..100_000, cs in 32usize..512) {
            let ck = Chunking::new(len, cs);
            let mut cursor = 0;
            for c in 0..ck.n_chunks() {
                let (a, b) = ck.byte_range(c);
                prop_assert_eq!(a, cursor);
                prop_assert!(b > a);
                prop_assert!(b - a <= cs);
                cursor = b;
            }
            prop_assert_eq!(cursor, len);
        }

        #[test]
        fn run_range_matches_individual_ranges(len in 1usize..50_000, cs in 32usize..256) {
            let ck = Chunking::new(len, cs);
            let n = ck.n_chunks();
            let lo = 0;
            let hi = n;
            let (a, b) = ck.byte_range_of_chunks(lo, hi);
            prop_assert_eq!(a, ck.byte_range(lo).0);
            prop_assert_eq!(b, ck.byte_range(hi - 1).1);
        }
    }
}
