//! Device-wide collective primitives: exclusive scan and segmented gather.
//!
//! The paper's serialization step "pre-calculates offsets in the consolidated
//! difference and assigns GPU threads to parallelize the data transfers"
//! (§2.1). Pre-calculating offsets is an exclusive prefix sum over region
//! lengths; the data movement is a segmented gather where a *team* of threads
//! cooperates on each region so accesses coalesce (§2.4). Both are implemented
//! here as two-pass blocked parallel algorithms, the same decomposition a GPU
//! implementation uses across thread blocks.

use rayon::prelude::*;

/// Minimum elements per parallel block; below this, sequential is faster.
const SCAN_BLOCK: usize = 16 * 1024;

/// Exclusive prefix sum: `out[i] = sum(input[..i])`. Returns the grand total.
///
/// Two-pass blocked scan: (1) per-block sums in parallel, (2) sequential scan
/// of the (few) block sums, (3) per-block exclusive scans seeded with the
/// block offsets, in parallel. This mirrors the standard GPU scan
/// decomposition (block-local scan + block-offset fix-up).
pub fn exclusive_scan(input: &[u64], out: &mut [u64]) -> u64 {
    assert_eq!(input.len(), out.len(), "scan input/output length mismatch");
    let n = input.len();
    if n == 0 {
        return 0;
    }
    if n <= SCAN_BLOCK {
        let mut acc = 0u64;
        for i in 0..n {
            out[i] = acc;
            acc += input[i];
        }
        return acc;
    }

    let n_blocks = n.div_ceil(SCAN_BLOCK);
    // Pass 1: block sums.
    let mut block_sums: Vec<u64> = input
        .par_chunks(SCAN_BLOCK)
        .map(|chunk| chunk.iter().sum())
        .collect();
    debug_assert_eq!(block_sums.len(), n_blocks);

    // Pass 2: exclusive scan of block sums (cheap, sequential).
    let mut acc = 0u64;
    for s in block_sums.iter_mut() {
        let v = *s;
        *s = acc;
        acc += v;
    }
    let total = acc;

    // Pass 3: block-local exclusive scans with offsets.
    out.par_chunks_mut(SCAN_BLOCK)
        .zip(input.par_chunks(SCAN_BLOCK))
        .zip(block_sums.par_iter())
        .for_each(|((out_chunk, in_chunk), &offset)| {
            let mut acc = offset;
            for (o, &v) in out_chunk.iter_mut().zip(in_chunk) {
                *o = acc;
                acc += v;
            }
        });
    total
}

/// Stream compaction: collect the indices `i` where `flags[i] != 0`, in
/// ascending order — the standard GPU pattern for building output lists
/// without locks (flag kernel → exclusive scan → scatter kernel). This is
/// how the de-duplication pipeline emits its region lists.
pub fn compact_indices(flags: &[u8]) -> Vec<u32> {
    let ones: Vec<u64> = flags.iter().map(|&f| (f != 0) as u64).collect();
    let mut offsets = vec![0u64; flags.len()];
    let total = exclusive_scan(&ones, &mut offsets) as usize;

    let mut out = vec![0u32; total];
    {
        let slots = &mut out[..];
        // Scatter in parallel: each flagged index writes its own slot.
        use std::sync::atomic::{AtomicU32, Ordering};
        // SAFETY: AtomicU32 has the same layout as u32; each slot is written
        // by exactly one flagged index (offsets are unique).
        let atomic_slots = unsafe {
            std::slice::from_raw_parts(slots.as_mut_ptr() as *const AtomicU32, slots.len())
        };
        flags.par_iter().enumerate().for_each(|(i, &f)| {
            if f != 0 {
                atomic_slots[offsets[i] as usize].store(i as u32, Ordering::Relaxed);
            }
        });
    }
    out
}

/// Stream compaction over a predicate: collect the indices `i in 0..n` where
/// `pred(i)`, in ascending order, without materializing a flag array.
///
/// Blocked three-pass structure (per-block count → scan of block counts →
/// per-block writes into disjoint output ranges), the same decomposition as
/// [`compact_indices`] but with the predicate evaluated in-register — the
/// fused form the de-duplication pipeline uses to emit region lists straight
/// from settled label arrays.
pub fn compact_where<P>(n: usize, pred: P) -> Vec<u32>
where
    P: Fn(usize) -> bool + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if n <= SCAN_BLOCK {
        return (0..n).filter(|&i| pred(i)).map(|i| i as u32).collect();
    }

    let n_blocks = n.div_ceil(SCAN_BLOCK);
    // Pass 1: per-block survivor counts, one block (already `SCAN_BLOCK`
    // items) per executor chunk.
    let counts: Vec<u64> = (0..n_blocks)
        .into_par_iter()
        .with_max_len(1)
        .map(|b| {
            let lo = b * SCAN_BLOCK;
            let hi = (lo + SCAN_BLOCK).min(n);
            (lo..hi).filter(|&i| pred(i)).count() as u64
        })
        .collect();

    // Pass 2: block output offsets (cheap, sequential).
    let mut offsets = vec![0u64; n_blocks];
    let total = exclusive_scan(&counts, &mut offsets) as usize;

    // Pass 3: each block writes its own disjoint output range.
    let mut out = vec![0u32; total];
    let mut parts: Vec<&mut [u32]> = Vec::with_capacity(n_blocks);
    let mut rest = &mut out[..];
    for &c in &counts {
        let (head, tail) = rest.split_at_mut(c as usize);
        parts.push(head);
        rest = tail;
    }
    parts.into_par_iter().enumerate().for_each(|(b, part)| {
        let lo = b * SCAN_BLOCK;
        let hi = (lo + SCAN_BLOCK).min(n);
        let mut k = 0usize;
        for i in lo..hi {
            if pred(i) {
                part[k] = i as u32;
                k += 1;
            }
        }
        debug_assert_eq!(k, part.len());
    });
    out
}

/// A source region to gather: `(offset, len)` into the source buffer.
pub type Segment = (usize, usize);

/// Gather scattered `segments` of `src` into `dst` contiguously, in segment
/// order. Returns the number of bytes written. `dst` must be at least the sum
/// of segment lengths.
///
/// Each segment is copied by its own task ("team"), so a large region's copy
/// is one streaming memcpy — the coalesced-team-copy optimization from §2.4.
pub fn segmented_gather(src: &[u8], segments: &[Segment], dst: &mut [u8]) -> usize {
    // Pre-compute destination offsets (the scan the paper describes).
    let lens: Vec<u64> = segments.iter().map(|&(_, len)| len as u64).collect();
    let mut offsets = vec![0u64; segments.len()];
    let total = exclusive_scan(&lens, &mut offsets) as usize;
    assert!(
        dst.len() >= total,
        "gather destination too small: {} < {total}",
        dst.len()
    );

    // Partition `dst` into one disjoint mutable slice per segment.
    let mut parts: Vec<&mut [u8]> = Vec::with_capacity(segments.len());
    let mut rest = &mut dst[..total];
    for &len in lens.iter() {
        let (head, tail) = rest.split_at_mut(len as usize);
        parts.push(head);
        rest = tail;
    }

    parts
        .into_par_iter()
        .zip(segments.par_iter())
        .for_each(|(part, &(off, len))| {
            part.copy_from_slice(&src[off..off + len]);
        });
    total
}

/// Scatter `src` (contiguous, in segment order) back out to `segments` of
/// `dst` — the inverse of [`segmented_gather`], used on restore.
pub fn segmented_scatter(src: &[u8], segments: &[Segment], dst: &mut [u8]) -> usize {
    let total: usize = segments.iter().map(|&(_, len)| len).sum();
    assert!(
        src.len() >= total,
        "scatter source too small: {} < {total}",
        src.len()
    );

    // Destination segments may be arbitrary; to stay safe we sort an index by
    // offset and verify disjointness, then split `dst` into disjoint parts.
    let mut order: Vec<usize> = (0..segments.len()).collect();
    order.sort_unstable_by_key(|&i| segments[i].0);
    for w in order.windows(2) {
        let (a_off, a_len) = segments[w[0]];
        let (b_off, _) = segments[w[1]];
        assert!(a_off + a_len <= b_off, "scatter segments overlap");
    }

    // Compute source offsets per segment (in original order).
    let lens: Vec<u64> = segments.iter().map(|&(_, len)| len as u64).collect();
    let mut src_offsets = vec![0u64; segments.len()];
    exclusive_scan(&lens, &mut src_offsets);

    // Split dst by ascending offset.
    let mut parts: Vec<(usize, &mut [u8])> = Vec::with_capacity(segments.len());
    let mut consumed = 0usize;
    let mut rest = dst;
    for &i in &order {
        let (off, len) = segments[i];
        let (_, tail) = rest.split_at_mut(off - consumed);
        let (head, tail) = tail.split_at_mut(len);
        parts.push((i, head));
        consumed = off + len;
        rest = tail;
    }

    parts.into_par_iter().for_each(|(i, part)| {
        let s = src_offsets[i] as usize;
        part.copy_from_slice(&src[s..s + part.len()]);
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_empty() {
        let mut out = [];
        assert_eq!(exclusive_scan(&[], &mut out), 0);
    }

    #[test]
    fn scan_small_matches_reference() {
        let input = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let mut out = [0u64; 8];
        let total = exclusive_scan(&input, &mut out);
        assert_eq!(out, [0, 3, 4, 8, 9, 14, 23, 25]);
        assert_eq!(total, 31);
    }

    #[test]
    fn scan_large_matches_sequential() {
        let n = SCAN_BLOCK * 3 + 17;
        let input: Vec<u64> = (0..n as u64).map(|i| i % 7).collect();
        let mut par = vec![0u64; n];
        let total = exclusive_scan(&input, &mut par);

        let mut acc = 0u64;
        for i in 0..n {
            assert_eq!(par[i], acc, "mismatch at {i}");
            acc += input[i];
        }
        assert_eq!(total, acc);
    }

    #[test]
    fn compact_collects_flagged_indices_in_order() {
        let mut flags = vec![0u8; 10_000];
        let expect: Vec<u32> = (0..10_000).filter(|i| i % 7 == 3 || i % 113 == 0).collect();
        for &i in &expect {
            flags[i as usize] = 1;
        }
        assert_eq!(compact_indices(&flags), expect);
    }

    #[test]
    fn compact_edge_cases() {
        assert!(compact_indices(&[]).is_empty());
        assert!(compact_indices(&[0, 0, 0]).is_empty());
        assert_eq!(compact_indices(&[1, 1, 1]), vec![0, 1, 2]);
        assert_eq!(compact_indices(&[0, 2, 0, 255]), vec![1, 3]);
    }

    #[test]
    fn compact_where_matches_compact_indices() {
        let n = SCAN_BLOCK * 2 + 31;
        let flags: Vec<u8> = (0..n).map(|i| (i % 5 == 0 || i % 977 == 3) as u8).collect();
        assert_eq!(compact_where(n, |i| flags[i] != 0), compact_indices(&flags));
    }

    #[test]
    fn compact_where_edge_cases() {
        assert!(compact_where(0, |_| true).is_empty());
        assert!(compact_where(100, |_| false).is_empty());
        assert_eq!(compact_where(3, |_| true), vec![0, 1, 2]);
        let n = SCAN_BLOCK + 1;
        assert_eq!(compact_where(n, |i| i == n - 1), vec![(n - 1) as u32]);
    }

    #[test]
    fn gather_reassembles_in_order() {
        let src: Vec<u8> = (0..=255u8).collect();
        let segments = [(10usize, 3usize), (0, 2), (200, 5)];
        let mut dst = vec![0u8; 10];
        let n = segmented_gather(&src, &segments, &mut dst);
        assert_eq!(n, 10);
        assert_eq!(&dst[..10], &[10, 11, 12, 0, 1, 200, 201, 202, 203, 204]);
    }

    #[test]
    fn gather_empty_segments() {
        let src = [1u8, 2, 3];
        let mut dst = vec![0u8; 0];
        assert_eq!(segmented_gather(&src, &[], &mut dst), 0);
    }

    #[test]
    fn scatter_inverts_gather() {
        let src: Vec<u8> = (0..100u8).collect();
        let segments = [(5usize, 10usize), (40, 7), (80, 20)];
        let total: usize = segments.iter().map(|s| s.1).sum();
        let mut packed = vec![0u8; total];
        segmented_gather(&src, &segments, &mut packed);

        let mut restored = vec![0u8; 100];
        segmented_scatter(&packed, &segments, &mut restored);
        for &(off, len) in &segments {
            assert_eq!(&restored[off..off + len], &src[off..off + len]);
        }
    }

    #[test]
    fn scatter_unsorted_segments() {
        // Segment order in the diff need not be ascending by offset.
        let packed = [9u8, 8, 7, 6];
        let segments = [(6usize, 2usize), (0, 2)]; // out of order
        let mut dst = vec![0u8; 8];
        segmented_scatter(&packed, &segments, &mut dst);
        assert_eq!(dst, [7, 6, 0, 0, 0, 0, 9, 8]);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn scatter_rejects_overlap() {
        let packed = [0u8; 4];
        let segments = [(0usize, 3usize), (2, 1)];
        let mut dst = vec![0u8; 8];
        segmented_scatter(&packed, &segments, &mut dst);
    }

    #[test]
    fn gather_large_parallel_path() {
        let src: Vec<u8> = (0..(SCAN_BLOCK * 2)).map(|i| i as u8).collect();
        let segments: Vec<Segment> = (0..1000).map(|i| (i * 17, 13)).collect();
        let total: usize = 1000 * 13;
        let mut dst = vec![0u8; total];
        segmented_gather(&src, &segments, &mut dst);
        for (k, &(off, len)) in segments.iter().enumerate() {
            assert_eq!(&dst[k * 13..k * 13 + len], &src[off..off + len]);
        }
    }
}
