//! Hashing primitives for GPU-accelerated de-duplication.
//!
//! The de-duplication engine compares data chunks by their 128-bit digests.
//! The paper uses the non-cryptographic MurmurHash3 x64-128 function because
//! its throughput is high enough not to bottleneck de-duplication, unlike
//! cryptographic functions such as MD5 (§2.4 of the paper). [`Murmur3`] is
//! that production hash; the cryptographic comparison points of ablation A1
//! (MD5, SHA-256) live with the experiment in `ckpt-bench`.
//!
//! Hash functions implement the [`Hasher128`] trait and produce a
//! [`Digest128`], a plain-old-data 128-bit value that can live inside lock-free
//! hash-table slots and flattened Merkle-tree arrays.
//!
//! Chunk grids are hashed a tile at a time through
//! [`Hasher128::hash_chunks`]; Murmur3's runs eight chunks per step, on
//! AVX-512 vectors where the CPU reports `avx512f` and `avx512dq` and on
//! portable interleaved lanes elsewhere, with the same digests either way
//! ([`murmur3`]).

pub mod digest;
pub mod murmur3;

pub use digest::Digest128;
pub use murmur3::Murmur3;

/// A 128-bit digest function over byte strings.
///
/// Implementations must be pure functions of `(data, seed)`: the same input
/// always produces the same digest, on every thread, so digests computed by
/// concurrent de-duplication kernels are directly comparable.
pub trait Hasher128: Send + Sync {
    /// Hash `data` with the given seed.
    fn hash_seeded(&self, data: &[u8], seed: u32) -> Digest128;

    /// Hash `data` with seed 0 (the default used for chunk digests).
    #[inline]
    fn hash(&self, data: &[u8]) -> Digest128 {
        self.hash_seeded(data, 0)
    }

    /// Hash the chunk grid of `data` in one call: `out[i]` receives the
    /// digest [`hash_seeded`](Self::hash_seeded) gives chunk `i` of
    /// `data.chunks(chunk_size)` (the last one may be short). This is how the
    /// per-chunk hashing kernels hash — a tile of chunks per call — so an
    /// implementation can overlap the work of neighbouring chunks; the
    /// default hashes them one after another.
    ///
    /// # Panics
    /// If `chunk_size` is zero or `out.len()` is not the number of chunks,
    /// `data.len().div_ceil(chunk_size)`.
    fn hash_chunks(&self, data: &[u8], chunk_size: usize, seed: u32, out: &mut [Digest128]) {
        assert_chunk_grid(data, chunk_size, out);
        for (digest, chunk) in out.iter_mut().zip(data.chunks(chunk_size)) {
            *digest = self.hash_seeded(chunk, seed);
        }
    }

    /// Combine two child digests into a parent digest (Merkle-tree inner node).
    ///
    /// The default implementation hashes the concatenation of the two raw
    /// digests, which is exactly what the paper does for inner nodes: the
    /// parent's hash is `H(left || right)`.
    #[inline]
    fn combine(&self, left: &Digest128, right: &Digest128) -> Digest128 {
        let mut buf = [0u8; 32];
        self.combine_with(left, right, &mut buf)
    }

    /// [`combine`](Self::combine) with a caller-provided concatenation
    /// buffer, producing the identical digest. Hot loops that combine many
    /// digest pairs (interior Merkle levels, salted collision probes) thread
    /// one scratch array through the whole kernel chunk instead of
    /// materializing a fresh buffer per pair.
    #[inline]
    fn combine_with(
        &self,
        left: &Digest128,
        right: &Digest128,
        scratch: &mut [u8; 32],
    ) -> Digest128 {
        scratch[..16].copy_from_slice(&left.to_bytes());
        scratch[16..].copy_from_slice(&right.to_bytes());
        self.hash(&scratch[..])
    }

    /// Human-readable name, used in benchmark reports.
    fn name(&self) -> &'static str;
}

/// The documented panics of [`Hasher128::hash_chunks`].
fn assert_chunk_grid(data: &[u8], chunk_size: usize, out: &[Digest128]) {
    assert!(chunk_size > 0, "chunk size must be positive");
    assert_eq!(
        out.len(),
        data.len().div_ceil(chunk_size),
        "hash_chunks: one output digest per chunk"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_is_order_sensitive() {
        let h = Murmur3;
        let a = h.hash(b"left chunk");
        let b = h.hash(b"right chunk");
        assert_ne!(h.combine(&a, &b), h.combine(&b, &a));
    }

    #[test]
    fn combine_matches_manual_concatenation() {
        let h = Murmur3;
        let a = h.hash(b"aaaa");
        let b = h.hash(b"bbbb");
        let mut cat = Vec::new();
        cat.extend_from_slice(&a.to_bytes());
        cat.extend_from_slice(&b.to_bytes());
        assert_eq!(h.combine(&a, &b), h.hash(&cat));
    }

    #[test]
    fn combine_with_reused_scratch_matches_combine() {
        let h = Murmur3;
        let mut scratch = [0xAAu8; 32]; // deliberately dirty
        let digests: Vec<Digest128> = (0..16u64).map(|i| h.hash(&i.to_le_bytes())).collect();
        for pair in digests.windows(2) {
            assert_eq!(
                h.combine_with(&pair[0], &pair[1], &mut scratch),
                h.combine(&pair[0], &pair[1])
            );
        }
    }
}
