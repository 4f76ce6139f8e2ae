//! MurmurHash3 x64-128 (Austin Appleby, public domain reference `MurmurHash3.cpp`).
//!
//! This is the hash function the paper uses for chunk digests: a fast
//! non-cryptographic 128-bit hash whose computational cost is low enough that
//! hashing is memory-bandwidth-bound rather than compute-bound on a GPU.
//!
//! On the host one hash state is a serial multiply/rotate chain, so hashing
//! a grid of small chunks one at a time is latency-bound. [`Murmur3`]'s
//! [`hash_chunks`](Hasher128::hash_chunks) therefore advances eight chunks
//! side by side; the scalar [`murmur3_x64_128`] shares its block round and
//! finalizer, and remains the path for everything the lanes do not take —
//! above all the frame checksum, one state over a whole multi-megabyte
//! record, which it streams a cache line at a time behind a software
//! prefetch so a verify of bytes nobody has touched runs near copy speed.

use crate::{Digest128, Hasher128};

const C1: u64 = 0x87c3_7b91_1142_53d5;
const C2: u64 = 0x4cf5_ad43_2745_937f;

/// MurmurHash3 x64-128.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Murmur3;

#[inline(always)]
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

/// One body round: fold the 16-byte block `(k1, k2)` into the state.
#[inline(always)]
fn mix_block(h1: &mut u64, h2: &mut u64, mut k1: u64, mut k2: u64) {
    k1 = k1.wrapping_mul(C1);
    k1 = k1.rotate_left(31);
    k1 = k1.wrapping_mul(C2);
    *h1 ^= k1;

    *h1 = h1.rotate_left(27);
    *h1 = h1.wrapping_add(*h2);
    *h1 = h1.wrapping_mul(5).wrapping_add(0x52dc_e729);

    k2 = k2.wrapping_mul(C2);
    k2 = k2.rotate_left(33);
    k2 = k2.wrapping_mul(C1);
    *h2 ^= k2;

    *h2 = h2.rotate_left(31);
    *h2 = h2.wrapping_add(*h1);
    *h2 = h2.wrapping_mul(5).wrapping_add(0x3849_5ab5);
}

/// Finalization: fold in the input length and avalanche both halves.
#[inline(always)]
fn finalize(mut h1: u64, mut h2: u64, len: usize) -> Digest128 {
    h1 ^= len as u64;
    h2 ^= len as u64;
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    Digest128 { h1, h2 }
}

#[inline(always)]
fn le_words(block: &[u8]) -> (u64, u64) {
    (
        u64::from_le_bytes(block[0..8].try_into().unwrap()),
        u64::from_le_bytes(block[8..16].try_into().unwrap()),
    )
}

/// How far ahead of the line being mixed the scalar body prefetches, and
/// the input length from which it walks lines at all.
///
/// One state is a serial chain, so it cannot hide a cache miss the way the
/// lane kernel's eight do: reading a frame no one has touched yet (a tier
/// read verifies 5 MB records straight out of cold memory) it waits on
/// every line — 1.9 GB/s on the 2-vCPU reference host, against 5.5 GB/s for
/// the same loop over cached bytes. Measured there on 16 × 5 MB cold
/// buffers: 256 B ahead 2.5 GB/s, 512 B 3.3, 1 KiB 4.2, 2 KiB 4.7, and flat
/// at 4.7 from there to 16 KiB; cached throughput is the same at every
/// setting. 4 KiB sits in the middle of that plateau. An input shorter than
/// the look-ahead could only prefetch past its own end, so it keeps the
/// plain block loop — which is every 128-byte chunk call.
const STREAM_AHEAD: usize = 4 << 10;

/// Cache-line size: the step both kernels prefetch by, and the streaming
/// body walks by.
const LINE: usize = 64;

/// Ask for the cache line at `ahead` (x86-64; elsewhere nothing). Callers
/// compute `ahead` with `wrapping_add`, so it may lie past the end of the
/// buffer being hashed, or of its allocation. Public for the other serial
/// chains of misses in the workspace (the historical record's probes).
#[inline(always)]
pub fn prefetch(ahead: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint: it never faults and reads nothing
    // architecturally, whatever address it is given.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(ahead.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ahead;
}

/// Fold every whole cache line of `body` into the state, prefetching
/// [`STREAM_AHEAD`] bytes ahead of the line being mixed; returns what is
/// left (fewer than [`LINE`] bytes). Out of line, so the short-input path —
/// one call per 128-byte chunk — keeps the frame and register pressure it
/// had before this loop existed; a streamed input pays one call per input.
#[inline(never)]
fn mix_lines<'a>(h1: &mut u64, h2: &mut u64, body: &'a [u8]) -> &'a [u8] {
    let mut lines = body.chunks_exact(LINE);
    for line in &mut lines {
        prefetch(line.as_ptr().wrapping_add(STREAM_AHEAD));
        for block in line.chunks_exact(16) {
            let (k1, k2) = le_words(block);
            mix_block(h1, h2, k1, k2);
        }
    }
    lines.remainder()
}

/// Fold the up-to-15 bytes after the last whole block into the state.
#[inline(always)]
fn mix_tail(h1: &mut u64, h2: &mut u64, tail: &[u8]) {
    let mut k1: u64 = 0;
    let mut k2: u64 = 0;
    // Fall-through switch from the reference implementation, expressed as
    // explicit byte accumulation.
    for (i, &b) in tail.iter().enumerate().rev() {
        if i >= 8 {
            k2 |= (b as u64) << ((i - 8) * 8);
        } else {
            k1 |= (b as u64) << (i * 8);
        }
    }
    if tail.len() > 8 {
        k2 = k2.wrapping_mul(C2);
        k2 = k2.rotate_left(33);
        k2 = k2.wrapping_mul(C1);
        *h2 ^= k2;
    }
    if !tail.is_empty() {
        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(31);
        k1 = k1.wrapping_mul(C2);
        *h1 ^= k1;
    }
}

/// Hash `data` with `seed`, returning the 128-bit digest.
///
/// Matches the reference `MurmurHash3_x64_128` byte-for-byte (verified by the
/// SMHasher verification test below). Inputs of at least `STREAM_AHEAD`
/// bytes are walked a cache line at a time behind a software prefetch; the
/// digest does not depend on which walk an input takes.
pub fn murmur3_x64_128(data: &[u8], seed: u32) -> Digest128 {
    let len = data.len();
    let (mut body, tail) = data.split_at(len / 16 * 16);

    let mut h1 = seed as u64;
    let mut h2 = seed as u64;

    if len >= STREAM_AHEAD {
        body = mix_lines(&mut h1, &mut h2, body);
    }
    // Body: 16-byte blocks.
    for block in body.chunks_exact(16) {
        let (k1, k2) = le_words(block);
        mix_block(&mut h1, &mut h2, k1, k2);
    }
    // Tail: up to 15 remaining bytes.
    mix_tail(&mut h1, &mut h2, tail);

    finalize(h1, h2, len)
}

/// Chunks hashed side by side by the batch kernel. One Murmur3 state is a
/// serial multiply/rotate chain; eight independent ones keep the multiplier
/// and enough loads busy to stream a snapshot that is not in cache.
const LANES: usize = 8;

/// How far ahead of the block being mixed the batch kernel prefetches.
const PREFETCH_AHEAD: usize = 8 << 10;

/// Hash `LANES` consecutive `chunk_size`-byte chunks of `group`, one state
/// per chunk, all states advanced one block at a time.
#[inline]
fn hash_lanes(group: &[u8], chunk_size: usize, seed: u32, out: &mut [Digest128]) {
    debug_assert!(chunk_size.is_multiple_of(16) && group.len() == LANES * chunk_size);
    debug_assert_eq!(out.len(), LANES);
    let lanes: [&[u8]; LANES] = std::array::from_fn(|l| &group[l * chunk_size..][..chunk_size]);
    let mut h1 = [seed as u64; LANES];
    let mut h2 = [seed as u64; LANES];
    for at in (0..chunk_size).step_by(16) {
        for l in 0..LANES {
            if at.is_multiple_of(LINE) {
                prefetch(lanes[l].as_ptr().wrapping_add(at + PREFETCH_AHEAD));
            }
            let (k1, k2) = le_words(&lanes[l][at..at + 16]);
            mix_block(&mut h1[l], &mut h2[l], k1, k2);
        }
    }
    for l in 0..LANES {
        out[l] = finalize(h1[l], h2[l], chunk_size);
    }
}

impl Hasher128 for Murmur3 {
    #[inline]
    fn hash_seeded(&self, data: &[u8], seed: u32) -> Digest128 {
        murmur3_x64_128(data, seed)
    }

    /// Full chunks whose size is a multiple of the 16-byte block go through
    /// the eight-lane interleaved kernel, a group at a time; the groups'
    /// remainder, a trailing partial chunk and every other chunk size take
    /// [`murmur3_x64_128`]. Digests are those of the per-chunk call.
    fn hash_chunks(&self, data: &[u8], chunk_size: usize, seed: u32, out: &mut [Digest128]) {
        crate::assert_chunk_grid(data, chunk_size, out);
        let mut done = 0;
        if chunk_size.is_multiple_of(16) {
            let group = LANES * chunk_size;
            for (bytes, digests) in data.chunks_exact(group).zip(out.chunks_exact_mut(LANES)) {
                hash_lanes(bytes, chunk_size, seed, digests);
                done += LANES;
            }
        }
        let rest = data[done * chunk_size..].chunks(chunk_size);
        for (digest, chunk) in out[done..].iter_mut().zip(rest) {
            *digest = murmur3_x64_128(chunk, seed);
        }
    }

    /// The two digests are exactly the two 16-byte blocks of `left || right`,
    /// so their words feed the body rounds directly; `scratch` is not touched.
    #[inline]
    fn combine_with(
        &self,
        left: &Digest128,
        right: &Digest128,
        _scratch: &mut [u8; 32],
    ) -> Digest128 {
        let (mut h1, mut h2) = (0, 0);
        mix_block(&mut h1, &mut h2, left.h1, left.h2);
        mix_block(&mut h1, &mut h2, right.h1, right.h2);
        finalize(h1, h2, 32)
    }

    fn name(&self) -> &'static str {
        "murmur3-x64-128"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Murmur3 through the trait's *default* `hash_chunks` and
    /// `combine_with`: the per-chunk reference both overrides must equal.
    struct PerChunk;

    impl Hasher128 for PerChunk {
        fn hash_seeded(&self, data: &[u8], seed: u32) -> Digest128 {
            murmur3_x64_128(data, seed)
        }
        fn name(&self) -> &'static str {
            "murmur3-per-chunk"
        }
    }

    /// The plain 16-byte-block loop the scalar body was before it learned
    /// to stream: the reference [`murmur3_x64_128`] must equal on every
    /// input, whichever walk the input's length selects.
    fn murmur3_blockwise(data: &[u8], seed: u32) -> Digest128 {
        let (mut h1, mut h2) = (seed as u64, seed as u64);
        for block in data.chunks_exact(16) {
            let (k1, k2) = le_words(block);
            mix_block(&mut h1, &mut h2, k1, k2);
        }
        mix_tail(&mut h1, &mut h2, &data[data.len() / 16 * 16..]);
        finalize(h1, h2, data.len())
    }

    #[test]
    fn streaming_body_equals_the_block_loop_at_every_small_length() {
        // Every length up to a line past the threshold: all 16 tail
        // lengths on both walks, every count of whole lines before the
        // remainder, and the first lengths the line walk takes.
        let data = pattern(STREAM_AHEAD + 2 * LINE + 16, 0x51ed);
        for len in 0..=data.len() {
            for seed in [0, CHUNK_HASH_SEED] {
                assert_eq!(
                    murmur3_x64_128(&data[..len], seed),
                    murmur3_blockwise(&data[..len], seed),
                    "len {len} seed {seed:#x}"
                );
            }
        }
    }

    #[test]
    fn streaming_body_equals_the_block_loop_at_every_alignment() {
        // Megabyte inputs starting 0..64 bytes into their allocation and
        // ending flush with it, so the line walk sees every alignment and
        // its last `STREAM_AHEAD / LINE` prefetches all point past the end
        // of the allocation.
        let buf = pattern((1 << 20) + LINE, 0xa11c);
        for off in 0..LINE {
            let data = &buf[off..];
            assert_eq!(
                murmur3_x64_128(data, off as u32),
                murmur3_blockwise(data, off as u32),
                "offset {off}"
            );
        }
    }

    /// Sizes on both sides of the lane kernel's precondition: 100 is not a
    /// multiple of the 16-byte block, the others are.
    const CHUNK_SIZES: [usize; 6] = [32, 48, 100, 128, 512, 4096];
    /// The seed `ckpt-runtime`'s rank-dedup index hashes its grid with.
    const CHUNK_HASH_SEED: u32 = 0x5244_4858;

    fn pattern(len: usize, salt: u64) -> Vec<u8> {
        let mut x = salt | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    fn batch(hasher: &dyn Hasher128, data: &[u8], cs: usize, seed: u32) -> Vec<Digest128> {
        // Pre-filled with a value no digest below takes, so a slot the
        // kernel skipped shows.
        let mut out = vec![Digest128::new(!0, !0); data.len().div_ceil(cs)];
        hasher.hash_chunks(data, cs, seed, &mut out);
        out
    }

    fn assert_batch_is_per_chunk(data: &[u8], cs: usize, seed: u32) {
        let want: Vec<Digest128> = data.chunks(cs).map(|c| murmur3_x64_128(c, seed)).collect();
        assert_eq!(batch(&Murmur3, data, cs, seed), want, "lanes: cs {cs}");
        assert_eq!(batch(&PerChunk, data, cs, seed), want, "default: cs {cs}");
    }

    #[test]
    fn hash_chunks_equals_per_chunk_hashing_on_fixed_shapes() {
        for cs in CHUNK_SIZES {
            // Empty, under one chunk, fewer chunks than lanes, exact lane
            // groups, a group plus stragglers, and ragged last chunks.
            let lens = [
                0,
                1,
                cs - 1,
                cs,
                cs + 1,
                (LANES - 1) * cs,
                LANES * cs,
                LANES * cs + 1,
                (LANES + 1) * cs,
                2 * LANES * cs,
                (2 * LANES + 3) * cs + cs / 2,
                64 * cs,
                65 * cs + 7,
            ];
            for (i, len) in lens.into_iter().enumerate() {
                let data = pattern(len, (cs * 131 + i) as u64);
                for seed in [0, CHUNK_HASH_SEED, 0xdead_beef] {
                    assert_batch_is_per_chunk(&data, cs, seed);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn hash_chunks_equals_per_chunk_hashing(
            size in 0usize..CHUNK_SIZES.len(),
            n_full in 0usize..40,
            ragged in 0usize..4096,
            seed in any::<u32>(),
            salt in any::<u64>(),
        ) {
            let cs = CHUNK_SIZES[size];
            let data = pattern(n_full * cs + ragged % cs, salt);
            assert_batch_is_per_chunk(&data, cs, seed);
        }

        #[test]
        fn streaming_body_equals_the_block_loop(
            len in prop_oneof![
                0usize..2 * STREAM_AHEAD,
                STREAM_AHEAD - 2 * LINE..STREAM_AHEAD + 2 * LINE,
                (2usize << 20)..(3 << 20),
            ],
            off in 0usize..LINE,
            seed in any::<u32>(),
            salt in any::<u64>(),
        ) {
            let buf = pattern(off + len, salt);
            let data = &buf[off..];
            prop_assert_eq!(murmur3_x64_128(data, seed), murmur3_blockwise(data, seed));
        }

        #[test]
        fn combine_with_equals_the_trait_default(
            l in (any::<u64>(), any::<u64>()),
            r in (any::<u64>(), any::<u64>()),
        ) {
            let (left, right) = (Digest128::new(l.0, l.1), Digest128::new(r.0, r.1));
            let mut dirty = [0xAAu8; 32];
            let want = PerChunk.combine_with(&left, &right, &mut [0x55u8; 32]);
            prop_assert_eq!(Murmur3.combine_with(&left, &right, &mut dirty), want);
            prop_assert_eq!(Murmur3.combine(&left, &right), want);
        }
    }

    #[test]
    #[should_panic(expected = "one output digest per chunk")]
    fn hash_chunks_rejects_a_short_output() {
        let data = pattern(LANES * 128, 1);
        Murmur3.hash_chunks(&data, 128, 0, &mut [Digest128::ZERO; LANES - 1]);
    }

    #[test]
    #[should_panic(expected = "one output digest per chunk")]
    fn default_hash_chunks_rejects_a_long_output() {
        let data = pattern(3 * 128 + 5, 1);
        PerChunk.hash_chunks(&data, 128, 0, &mut [Digest128::ZERO; 5]);
    }

    /// The SMHasher constant with every key the lane kernel accepts (length
    /// a positive multiple of 16) hashed by it: the key is laid out as
    /// `LANES + 1` equal chunks, so lanes and the scalar straggler must agree
    /// before the lane digest enters the verification buffer.
    #[test]
    fn smhasher_verification_constant_through_the_batch_path() {
        let through_lanes = |key: &[u8], seed: u32| {
            let grid = key.repeat(LANES + 1);
            let digests = batch(&Murmur3, &grid, key.len(), seed);
            assert!(
                digests.iter().all(|d| *d == digests[0]),
                "len {}",
                key.len()
            );
            digests[0]
        };
        let mut key = [0u8; 256];
        let mut hashes = Vec::with_capacity(256 * 16);
        for i in 0..256 {
            key[i] = i as u8;
            let seed = (256 - i) as u32;
            let d = match i {
                0 => murmur3_x64_128(&[], seed),
                _ => through_lanes(&key[..i], seed),
            };
            hashes.extend_from_slice(&d.to_bytes());
        }
        let fin = through_lanes(&hashes, 0);
        let verification = u32::from_le_bytes(fin.to_bytes()[..4].try_into().unwrap());
        assert_eq!(verification, 0x6384_BA69, "got {verification:#010x}");
    }

    #[test]
    fn empty_input_seed_zero_is_zero() {
        // Well-known property of the reference implementation.
        assert_eq!(murmur3_x64_128(b"", 0), Digest128::ZERO);
    }

    #[test]
    fn empty_input_nonzero_seed_is_not_zero() {
        assert_ne!(murmur3_x64_128(b"", 1), Digest128::ZERO);
    }

    /// The SMHasher verification test: hash keys {[0], [0,1], ... [0..254]}
    /// with seeds 256-len, concatenate the digests, hash the concatenation
    /// with seed 0, and compare the first 4 LE bytes against the published
    /// verification constant for MurmurHash3_x64_128.
    #[test]
    fn smhasher_verification_constant() {
        const EXPECTED: u32 = 0x6384_BA69;
        let mut key = [0u8; 256];
        let mut hashes = Vec::with_capacity(255 * 16);
        for i in 0..256 {
            key[i] = i as u8;
            let d = murmur3_x64_128(&key[..i], (256 - i) as u32);
            hashes.extend_from_slice(&d.to_bytes());
        }
        let fin = murmur3_x64_128(&hashes, 0);
        let verification = u32::from_le_bytes(fin.to_bytes()[..4].try_into().unwrap());
        assert_eq!(
            verification, EXPECTED,
            "got {verification:#010x}, expected {EXPECTED:#010x}"
        );
    }

    #[test]
    fn all_tail_lengths_are_distinct() {
        // Exercise every tail-length code path (0..=15 residual bytes).
        let data = [0xabu8; 64];
        let mut seen = std::collections::HashSet::new();
        for n in 0..=48 {
            assert!(
                seen.insert(murmur3_x64_128(&data[..n], 7)),
                "collision at len {n}"
            );
        }
    }

    #[test]
    fn seed_changes_digest() {
        let d0 = murmur3_x64_128(b"some chunk of checkpoint data", 0);
        let d1 = murmur3_x64_128(b"some chunk of checkpoint data", 1);
        assert_ne!(d0, d1);
    }

    #[test]
    fn deterministic_across_calls() {
        let data: Vec<u8> = (0..1024u32)
            .map(|i| i.wrapping_mul(2654435761) as u8)
            .collect();
        assert_eq!(murmur3_x64_128(&data, 42), murmur3_x64_128(&data, 42));
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let mut data = vec![0u8; 128];
        let base = murmur3_x64_128(&data, 0);
        for byte in 0..data.len() {
            data[byte] ^= 1;
            assert_ne!(
                murmur3_x64_128(&data, 0),
                base,
                "flip at byte {byte} undetected"
            );
            data[byte] ^= 1;
        }
    }
}
