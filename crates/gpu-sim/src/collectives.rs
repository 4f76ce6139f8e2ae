//! Device-wide collective primitives: stream compaction and segmented
//! gather.
//!
//! The paper's serialization step "pre-calculates offsets in the consolidated
//! difference and assigns GPU threads to parallelize the data transfers"
//! (§2.1). The data movement is a segmented gather where a *team* of threads
//! cooperates on each region so accesses coalesce (§2.4); its offsets are a
//! prefix over the region lengths, taken in order as the destination is
//! split. Stream compaction is the blocked three-pass algorithm a GPU
//! implementation runs across thread blocks (per-block counts, their prefix,
//! per-block writes).

use rayon::prelude::*;

/// Minimum elements per parallel block; below this, sequential is faster.
const SCAN_BLOCK: usize = 16 * 1024;

/// Stream compaction over a predicate: collect the indices `i in 0..n` where
/// `pred(i)`, in ascending order, without materializing a flag array.
///
/// Blocked three-pass structure (per-block count → scan of block counts →
/// per-block writes into disjoint output ranges) — the standard GPU way to
/// build output lists without locks, with the predicate evaluated
/// in-register instead of read from a flag array. The de-duplication
/// pipeline emits its region lists this way, straight from settled label
/// arrays.
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

    // Pass 2: block output offsets (cheap, sequential) — each block's
    // range follows the ranges of the blocks before it.
    let total = counts.iter().sum::<u64>() as usize;

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
    let total: usize = segments.iter().map(|&(_, len)| len).sum();
    assert!(
        dst.len() >= total,
        "gather destination too small: {} < {total}",
        dst.len()
    );

    // Partition `dst` into one disjoint mutable slice per segment, in
    // segment order: each starts where the ones before it end (the offsets
    // the paper pre-calculates).
    let mut parts: Vec<&mut [u8]> = Vec::with_capacity(segments.len());
    let mut rest = &mut dst[..total];
    for &(_, len) in segments {
        let (head, tail) = rest.split_at_mut(len);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: flag → exclusive prefix sum → scatter, over a
    /// materialized flag array.
    fn compact_indices(flags: &[u8]) -> Vec<u32> {
        let mut offsets = vec![0usize; flags.len()];
        let mut total = 0;
        for (offset, &f) in offsets.iter_mut().zip(flags) {
            *offset = total;
            total += (f != 0) as usize;
        }
        let mut out = vec![0u32; total];
        for (i, &f) in flags.iter().enumerate() {
            if f != 0 {
                out[offsets[i]] = i as u32;
            }
        }
        out
    }

    #[test]
    fn compact_collects_flagged_indices_in_order() {
        let expect: Vec<u32> = (0..10_000).filter(|i| i % 7 == 3 || i % 113 == 0).collect();
        let mut flags = vec![0u8; 10_000];
        for &i in &expect {
            flags[i as usize] = 1;
        }
        assert_eq!(compact_where(flags.len(), |i| flags[i] != 0), expect);
        assert_eq!(compact_indices(&flags), expect);
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
