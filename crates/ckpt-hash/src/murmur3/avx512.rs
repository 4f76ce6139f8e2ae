//! The eight-lane batch kernel on AVX-512: the eight chunks of a group are
//! the eight 64-bit lanes of one vector, so each lane runs the portable
//! kernel's state chain and all eight advance in the same instructions.
//!
//! The portable lanes interleave eight scalar chains, and every one of their
//! 64-bit multiplies goes through the core's one scalar multiplier. Here a
//! key multiply is one `vpmullq` for all eight lanes, a rotate one `vprolq`,
//! and `h·5` a shift and an add, so the state chain itself holds no
//! multiply. The eight chunks lie `chunk_size` bytes apart, so each 64-byte
//! segment (four blocks) is loaded row by row, one row per chunk, and
//! transposed into the four blocks' `k1` and `k2` vectors. A 16-, 32- or
//! 48-byte tail per chunk is gathered a block at a time.
//!
//! Digests equal the portable kernel's and [`murmur3_x64_128`]'s; the
//! module's tests hold the three against each other.
//!
//! [`murmur3_x64_128`]: super::murmur3_x64_128

use std::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_i64gather_epi64, _mm512_loadu_si512, _mm512_mullo_epi64,
    _mm512_permutex2var_epi64, _mm512_rol_epi64, _mm512_set1_epi64, _mm512_setr_epi64,
    _mm512_slli_epi64, _mm512_srli_epi64, _mm512_storeu_si512, _mm512_unpackhi_epi64,
    _mm512_unpacklo_epi64, _mm512_xor_si512,
};

use super::{prefetch, prefetch_ahead, C1, C2, LANES, LINE};
use crate::Digest128;

/// Whether this CPU runs the wide kernel: the 64-bit lane multiply is
/// AVX-512DQ, everything else AVX-512F.
#[inline]
pub(super) fn detected() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
}

/// Hash the whole groups of [`LANES`] `chunk_size`-byte chunks in `data`
/// into `out`, one digest per chunk.
///
/// `chunk_size` is a positive multiple of 16, and `data` holds exactly
/// `out.len()` chunks in whole groups. Callable only where [`detected`]
/// holds.
#[target_feature(enable = "avx512f,avx512dq")]
pub(super) fn hash_groups(data: &[u8], chunk_size: usize, seed: u32, out: &mut [Digest128]) {
    debug_assert!(chunk_size > 0 && chunk_size.is_multiple_of(16));
    debug_assert!(out.len().is_multiple_of(LANES) && data.len() == out.len() * chunk_size);
    let group = LANES * chunk_size;
    for (bytes, digests) in data.chunks_exact(group).zip(out.chunks_exact_mut(LANES)) {
        hash_group(bytes, chunk_size, seed, digests);
    }
}

/// One group: lane `l` hashes `group[l * chunk_size..][..chunk_size]`.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
fn hash_group(group: &[u8], chunk_size: usize, seed: u32, out: &mut [Digest128]) {
    assert_eq!(group.len(), LANES * chunk_size);
    let base = group.as_ptr();
    let mut h1 = _mm512_set1_epi64(seed as i64);
    let mut h2 = h1;

    let segments = chunk_size / LINE * LINE;
    let ahead = prefetch_ahead(chunk_size);
    for at in (0..segments).step_by(LINE) {
        let mut rows = [h1; LANES];
        for (l, row) in rows.iter_mut().enumerate() {
            let line = base.wrapping_add(l * chunk_size + at);
            prefetch(line.wrapping_add(ahead));
            // SAFETY: the features were detected before the kernel was
            // entered, and the 64 bytes at `l * chunk_size + at` lie inside
            // `group`: `at + LINE <= segments <= chunk_size`, and `group`
            // holds `LANES * chunk_size` bytes (asserted above). An
            // unaligned load has no alignment requirement. (The prefetch
            // above may point past `group`; a prefetch never faults.)
            *row = unsafe { _mm512_loadu_si512(line.cast()) };
        }
        let (k1, k2) = transpose(&rows);
        for b in 0..4 {
            mix_block(&mut h1, &mut h2, k1[b], k2[b]);
        }
    }

    // The tail, 16 to 48 bytes a chunk: gather block by block, lane `l`
    // from `l * chunk_size` bytes past the block's address in chunk 0.
    let stride = chunk_size as i64;
    let offsets = _mm512_setr_epi64(
        0,
        stride,
        2 * stride,
        3 * stride,
        4 * stride,
        5 * stride,
        6 * stride,
        7 * stride,
    );
    for at in (segments..chunk_size).step_by(16) {
        let block = base.wrapping_add(at);
        if at == segments {
            for l in 0..LANES {
                prefetch(block.wrapping_add(l * chunk_size + ahead));
            }
        }
        // SAFETY: the features were detected before the kernel was
        // entered, and lane `l` reads the 16 bytes at
        // `l * chunk_size + at`, inside `group`: `at + 16 <= chunk_size`
        // and `group` holds `LANES * chunk_size` bytes. A gather has no
        // alignment requirement at scale 1.
        let (k1, k2) = unsafe {
            (
                _mm512_i64gather_epi64::<1>(offsets, block.cast()),
                _mm512_i64gather_epi64::<1>(offsets, block.wrapping_add(8).cast()),
            )
        };
        mix_block(&mut h1, &mut h2, k1, k2);
    }

    let (h1, h2) = finalize(h1, h2, chunk_size);
    let (mut w1, mut w2) = ([0u64; LANES], [0u64; LANES]);
    // SAFETY: the features were detected before the kernel was entered,
    // and each store writes 64 bytes, exactly one `[u64; LANES]`.
    unsafe {
        _mm512_storeu_si512(w1.as_mut_ptr().cast(), h1);
        _mm512_storeu_si512(w2.as_mut_ptr().cast(), h2);
    }
    for (l, digest) in out.iter_mut().enumerate() {
        *digest = Digest128::new(w1[l], w2[l]);
    }
}

/// Turn eight rows, row `l` the 64 bytes of chunk `l` at one offset, into
/// the `k1` and `k2` vectors of the segment's four blocks, lane `l` of each
/// from row `l`.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose(rows: &[__m512i; LANES]) -> ([__m512i; 4], [__m512i; 4]) {
    // A row is `k1 k2` of blocks 0..4. Interleaving two rows' even (odd)
    // words gives the two lanes' `k1` (`k2`) of every block, lanes paired.
    let [r0, r1, r2, r3, r4, r5, r6, r7] = *rows;
    let k1 = [
        _mm512_unpacklo_epi64(r0, r1),
        _mm512_unpacklo_epi64(r2, r3),
        _mm512_unpacklo_epi64(r4, r5),
        _mm512_unpacklo_epi64(r6, r7),
    ];
    let k2 = [
        _mm512_unpackhi_epi64(r0, r1),
        _mm512_unpackhi_epi64(r2, r3),
        _mm512_unpackhi_epi64(r4, r5),
        _mm512_unpackhi_epi64(r6, r7),
    ];
    (blocks(k1), blocks(k2))
}

/// From four vectors that each hold one word of blocks 0..4 for a pair of
/// lanes (lanes 0–1, 2–3, 4–5, 6–7; a vector reads
/// `b0 b0 b1 b1 b2 b2 b3 b3`), build one vector per block with all eight
/// lanes in order.
#[inline]
#[target_feature(enable = "avx512f")]
fn blocks(pairs: [__m512i; 4]) -> [__m512i; 4] {
    // Two pairs of lanes into four lanes (`b0 ×4, b1 ×4`, then
    // `b2 ×4, b3 ×4`): lanes 0–3, then lanes 4–7.
    let blocks01 = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    let blocks23 = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    let low01 = _mm512_permutex2var_epi64(pairs[0], blocks01, pairs[1]);
    let low23 = _mm512_permutex2var_epi64(pairs[0], blocks23, pairs[1]);
    let high01 = _mm512_permutex2var_epi64(pairs[2], blocks01, pairs[3]);
    let high23 = _mm512_permutex2var_epi64(pairs[2], blocks23, pairs[3]);
    // Lanes 0–3 beside lanes 4–7, one block a vector.
    let first = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
    let second = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
    [
        _mm512_permutex2var_epi64(low01, first, high01),
        _mm512_permutex2var_epi64(low01, second, high01),
        _mm512_permutex2var_epi64(low23, first, high23),
        _mm512_permutex2var_epi64(low23, second, high23),
    ]
}

/// `h * 5 + n` in every lane, with no multiply.
#[inline]
#[target_feature(enable = "avx512f")]
fn times5_plus(h: __m512i, n: u64) -> __m512i {
    let h5 = _mm512_add_epi64(_mm512_slli_epi64::<2>(h), h);
    _mm512_add_epi64(h5, _mm512_set1_epi64(n as i64))
}

/// [`super::mix_block`] in every lane.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
fn mix_block(h1: &mut __m512i, h2: &mut __m512i, k1: __m512i, k2: __m512i) {
    let (c1, c2) = (_mm512_set1_epi64(C1 as i64), _mm512_set1_epi64(C2 as i64));
    let k1 = _mm512_mullo_epi64(_mm512_rol_epi64::<31>(_mm512_mullo_epi64(k1, c1)), c2);
    *h1 = _mm512_xor_si512(*h1, k1);
    *h1 = _mm512_add_epi64(_mm512_rol_epi64::<27>(*h1), *h2);
    *h1 = times5_plus(*h1, 0x52dc_e729);

    let k2 = _mm512_mullo_epi64(_mm512_rol_epi64::<33>(_mm512_mullo_epi64(k2, c2)), c1);
    *h2 = _mm512_xor_si512(*h2, k2);
    *h2 = _mm512_add_epi64(_mm512_rol_epi64::<31>(*h2), *h1);
    *h2 = times5_plus(*h2, 0x3849_5ab5);
}

/// [`super::fmix64`] in every lane.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
fn fmix64(mut k: __m512i) -> __m512i {
    k = _mm512_xor_si512(k, _mm512_srli_epi64::<33>(k));
    k = _mm512_mullo_epi64(k, _mm512_set1_epi64(0xff51_afd7_ed55_8ccd_u64 as i64));
    k = _mm512_xor_si512(k, _mm512_srli_epi64::<33>(k));
    k = _mm512_mullo_epi64(k, _mm512_set1_epi64(0xc4ce_b9fe_1a85_ec53_u64 as i64));
    _mm512_xor_si512(k, _mm512_srli_epi64::<33>(k))
}

/// [`super::finalize`] in every lane, every lane `len` bytes long.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
fn finalize(mut h1: __m512i, mut h2: __m512i, len: usize) -> (__m512i, __m512i) {
    let len = _mm512_set1_epi64(len as i64);
    h1 = _mm512_xor_si512(h1, len);
    h2 = _mm512_xor_si512(h2, len);
    h1 = _mm512_add_epi64(h1, h2);
    h2 = _mm512_add_epi64(h2, h1);
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 = _mm512_add_epi64(h1, h2);
    h2 = _mm512_add_epi64(h2, h1);
    (h1, h2)
}
