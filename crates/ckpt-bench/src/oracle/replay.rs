//! Sequential replay of a record of incremental diffs — the **oracle**.
//!
//! Production code restores through [`ckpt_dedup::restart`]. This module
//! is the independent reference that engine is tested against
//! (differential proptests, the fault matrix, the `restart_latency`
//! baseline): a direct transcription of the paper's procedure that
//! materializes every version in order. It must stay independent — no
//! resolution logic is shared with the engine.
//!
//! "To restore a checkpoint from the differences, it is enough to start from
//! the first-time occurrences, then fill the fixed duplicates and finally
//! assemble the shifted duplicates from the corresponding checkpoint ID
//! (which can be a previous checkpoint or the current checkpoint to be
//! restored)" (§2.2).
//!
//! Concretely, version `k` is materialized as: clone version `k-1` (this
//! realizes every fixed duplicate), write the first-occurrence payload into
//! its regions, then resolve shifted duplicates by copying from the
//! referenced checkpoint's materialized buffer. Shifted duplicates that
//! reference the *current* checkpoint may depend on one another (a region
//! can duplicate data that itself sits under another shifted region), so
//! they are applied with a chunk-granularity readiness fixpoint; the
//! emission rules guarantee the dependency graph is acyclic, so the loop
//! always makes progress on well-formed diffs.

use ckpt_dedup::diff::{bitmap, Diff, MethodKind, ShiftRegion};
use ckpt_dedup::{Chunking, RestoreError, TreeShape};

/// Materialize every version of a record.
pub fn restore_record(diffs: &[Diff]) -> Result<Vec<Vec<u8>>, RestoreError> {
    restore_record_from(0, diffs)
}

/// Materialize every version of a record whose first checkpoint id is
/// `base` — non-zero for a compacted chain whose records below a rebase
/// point were garbage-collected. Version `k` of the result is checkpoint
/// `base + k`; references below `base` are
/// [`RestoreError::RefBelowBase`].
///
/// Every restored version stays in memory, because a shifted duplicate
/// may reference any earlier checkpoint.
pub fn restore_record_from(base: u32, diffs: &[Diff]) -> Result<Vec<Vec<u8>>, RestoreError> {
    let mut versions: Vec<Vec<u8>> = Vec::with_capacity(diffs.len());
    for (index, diff) in diffs.iter().enumerate() {
        if diff.ckpt_id as usize != base as usize + index {
            return Err(RestoreError::OutOfOrder {
                index,
                ckpt_id: diff.ckpt_id,
            });
        }
        let head = &diffs[0];
        if head.kind != diff.kind {
            return Err(RestoreError::MixedKinds {
                expected: head.kind,
                found: diff.kind,
            });
        }
        if head.data_len != diff.data_len || head.chunk_size != diff.chunk_size {
            return Err(RestoreError::GeometryChanged);
        }
        let prev = versions.last().map(Vec::as_slice);
        let buf = match diff.kind {
            MethodKind::Full => restore_full(diff)?,
            MethodKind::Basic => restore_basic(diff, prev)?,
            MethodKind::List | MethodKind::Tree => restore_regions(diff, prev, &versions, base)?,
        };
        versions.push(buf);
    }
    Ok(versions)
}

/// Copy `regions` — `(dst_offset, len, payload_offset)` triples, already
/// bounds-checked and with pairwise disjoint destinations (a table that
/// writes a chunk twice is rejected first) — from `payload` into `buf`.
///
/// Above a size threshold the buffer is split into one mutable slice per
/// region and the copies run on the thread pool; each region is a single
/// streaming memcpy, mirroring the serializer's team-gather.
fn copy_regions(buf: &mut [u8], payload: &[u8], regions: &[(usize, usize, usize)]) {
    use rayon::prelude::*;
    /// Below this many payload bytes the split/scheduling overhead wins.
    const PAR_MIN_BYTES: usize = 64 * 1024;

    let total: usize = regions.iter().map(|r| r.1).sum();
    if total < PAR_MIN_BYTES {
        for &(d, len, s) in regions {
            buf[d..d + len].copy_from_slice(&payload[s..s + len]);
        }
        return;
    }
    let mut order: Vec<usize> = (0..regions.len()).collect();
    order.sort_unstable_by_key(|&i| regions[i].0);

    // Split the buffer into disjoint parts in ascending destination order.
    let mut parts: Vec<(&mut [u8], usize)> = Vec::with_capacity(regions.len());
    let mut consumed = 0usize;
    let mut rest = buf;
    for &i in &order {
        let (d, len, s) = regions[i];
        let (_, tail) = rest.split_at_mut(d - consumed);
        let (head, tail) = tail.split_at_mut(len);
        parts.push((head, s));
        consumed = d + len;
        rest = tail;
    }
    parts.into_par_iter().for_each(|(part, s)| {
        let len = part.len();
        part.copy_from_slice(&payload[s..s + len]);
    });
}

fn restore_full(diff: &Diff) -> Result<Vec<u8>, RestoreError> {
    if diff.payload.len() != diff.data_len as usize {
        return Err(RestoreError::PayloadTruncated {
            ckpt_id: diff.ckpt_id,
        });
    }
    Ok(diff.payload.to_vec())
}

fn restore_basic(diff: &Diff, prev: Option<&[u8]>) -> Result<Vec<u8>, RestoreError> {
    let payload = &diff.payload;
    let ck = Chunking::new(diff.data_len as usize, diff.chunk_size as usize);
    let mut buf = match prev {
        Some(p) => p.to_vec(),
        None => vec![0u8; diff.data_len as usize],
    };
    let mut regions: Vec<(usize, usize, usize)> = Vec::new();
    let mut cursor = 0usize;
    for c in 0..ck.n_chunks() {
        if bitmap::get(&diff.bitmap, c) {
            let (a, b) = ck.byte_range(c);
            let len = b - a;
            if cursor + len > payload.len() {
                return Err(RestoreError::PayloadTruncated {
                    ckpt_id: diff.ckpt_id,
                });
            }
            regions.push((a, len, cursor));
            cursor += len;
        }
    }
    copy_regions(&mut buf, payload, &regions);
    Ok(buf)
}

fn restore_regions(
    diff: &Diff,
    prev: Option<&[u8]>,
    versions: &[Vec<u8>],
    base: u32,
) -> Result<Vec<u8>, RestoreError> {
    let data_len = diff.data_len as usize;
    let ck = Chunking::new(data_len, diff.chunk_size as usize);
    let shape = TreeShape::new(ck.n_chunks());

    // Fixed duplicates: everything not covered by a region keeps the
    // previous checkpoint's content.
    let mut buf = match prev {
        Some(p) => p.to_vec(),
        None => vec![0u8; data_len],
    };

    // A well-formed table writes each chunk at most once: `claim` marks a
    // region's chunks and rejects a region that meets an earlier one.
    let mut written = vec![false; ck.n_chunks()];
    let mut claim = |node: u32| {
        let (clo, chi) = shape.chunk_range(node as usize);
        if let Some(twice) = written[clo..chi].iter().position(|&w| w) {
            return Err(RestoreError::RegionsOverlap {
                ckpt_id: diff.ckpt_id,
                chunk: (clo + twice) as u32,
            });
        }
        written[clo..chi].fill(true);
        Ok((clo, chi))
    };

    // First occurrences: payload slices in region-table order. Validate the
    // whole table first, then copy all regions in parallel.
    let payload = &diff.payload;
    let mut regions: Vec<(usize, usize, usize)> = Vec::with_capacity(diff.first_regions.len());
    let mut cursor = 0usize;
    for &node in &diff.first_regions {
        let (clo, chi) = claim(node)?;
        let (a, b) = ck.byte_range_of_chunks(clo, chi);
        let len = b - a;
        if cursor + len > payload.len() {
            return Err(RestoreError::PayloadTruncated {
                ckpt_id: diff.ckpt_id,
            });
        }
        regions.push((a, len, cursor));
        cursor += len;
    }
    copy_regions(&mut buf, payload, &regions);

    // Shifted duplicates. Chunk-granularity readiness: chunks under a
    // not-yet-applied same-checkpoint shift region are stale until that
    // region is copied in.
    let mut ready = vec![true; ck.n_chunks()];
    for s in &diff.shift_regions {
        let (clo, chi) = claim(s.node)?;
        ready[clo..chi].fill(false);
    }

    let mut pending: Vec<&ShiftRegion> = diff.shift_regions.iter().collect();
    while !pending.is_empty() {
        let before = pending.len();
        pending.retain(|s| {
            let (dlo, dhi) = shape.chunk_range(s.node as usize);
            let (slo, shi) = shape.chunk_range(s.ref_node as usize);
            if s.ref_ckpt == diff.ckpt_id {
                // Same-checkpoint source: wait until its chunks are ready.
                if !ready[slo..shi].iter().all(|&r| r) {
                    return true; // keep pending
                }
                let (sa, sb) = ck.byte_range_of_chunks(slo, shi);
                let (da, db) = ck.byte_range_of_chunks(dlo, dhi);
                if sb - sa != db - da {
                    return true; // reported below as span mismatch
                }
                let src = buf[sa..sb].to_vec();
                buf[da..db].copy_from_slice(&src);
            } else {
                // Historical source: the referenced version is materialized
                // (indexed relative to the record base for compacted chains).
                let Some(src_ver) = s
                    .ref_ckpt
                    .checked_sub(base)
                    .and_then(|i| versions.get(i as usize))
                else {
                    return true; // reported below as unresolvable/forward
                };
                let (sa, sb) = ck.byte_range_of_chunks(slo, shi);
                let (da, db) = ck.byte_range_of_chunks(dlo, dhi);
                if sb - sa != db - da {
                    return true;
                }
                buf[da..db].copy_from_slice(&src_ver[sa..sb]);
            }
            ready[dlo..dhi].fill(true);
            false // applied
        });
        if pending.len() == before {
            // Distinguish error causes for the first stuck region.
            let s = pending[0];
            if s.ref_ckpt > diff.ckpt_id {
                return Err(RestoreError::ForwardReference {
                    ckpt_id: diff.ckpt_id,
                    ref_ckpt: s.ref_ckpt,
                });
            }
            if s.ref_ckpt < base {
                return Err(RestoreError::RefBelowBase {
                    ckpt_id: diff.ckpt_id,
                    ref_ckpt: s.ref_ckpt,
                    base,
                });
            }
            let (dlo, dhi) = shape.chunk_range(s.node as usize);
            let (slo, shi) = shape.chunk_range(s.ref_node as usize);
            if dhi - dlo != shi - slo {
                return Err(RestoreError::SpanMismatch {
                    node: s.node,
                    ref_node: s.ref_node,
                });
            }
            return Err(RestoreError::UnresolvableShifts {
                ckpt_id: diff.ckpt_id,
                remaining: pending.len(),
            });
        }
    }
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_diff(ckpt_id: u32, data_len: u64) -> Diff {
        Diff {
            kind: MethodKind::Tree,
            ckpt_id,
            data_len,
            chunk_size: 32,
            first_regions: Vec::new(),
            shift_regions: Vec::new(),
            bitmap: Default::default(),
            payload: Default::default(),
        }
    }

    #[test]
    fn full_record_restores() {
        let mk = |id: u32, fill: u8| Diff {
            kind: MethodKind::Full,
            ckpt_id: id,
            data_len: 64,
            chunk_size: 32,
            first_regions: Vec::new(),
            shift_regions: Vec::new(),
            bitmap: Default::default(),
            payload: vec![fill; 64].into(),
        };
        let versions = restore_record(&[mk(0, 1), mk(1, 2)]).unwrap();
        assert_eq!(versions[0], vec![1u8; 64]);
        assert_eq!(versions[1], vec![2u8; 64]);
    }

    #[test]
    fn rejects_out_of_order() {
        let mut d = tree_diff(5, 64);
        d.first_regions = vec![0];
        d.payload = vec![0; 64].into();
        let err = restore_record(&[d]).unwrap_err();
        assert!(matches!(err, RestoreError::OutOfOrder { ckpt_id: 5, .. }));
    }

    #[test]
    fn rejects_mixed_kinds() {
        let d0 = Diff {
            kind: MethodKind::Full,
            ckpt_id: 0,
            data_len: 64,
            chunk_size: 32,
            first_regions: Vec::new(),
            shift_regions: Vec::new(),
            bitmap: Default::default(),
            payload: vec![0; 64].into(),
        };
        let d1 = tree_diff(1, 64);
        let err = restore_record(&[d0, d1]).unwrap_err();
        assert!(matches!(err, RestoreError::MixedKinds { .. }));
    }

    #[test]
    fn rejects_truncated_payload() {
        // Root region of a 2-chunk tree claims 64 bytes, payload has 10.
        let mut d = tree_diff(0, 64);
        d.first_regions = vec![0];
        d.payload = vec![0; 10].into();
        let err = restore_record(&[d]).unwrap_err();
        assert!(matches!(err, RestoreError::PayloadTruncated { ckpt_id: 0 }));
    }

    #[test]
    fn same_ckpt_shift_chain_resolves() {
        // 4 chunks; region table: chunk 0 (leaf 3) first-occurrence;
        // leaf 4 shifts from leaf 3; leaf 5 shifts from leaf 4's data —
        // but references must target the map's canonical node (leaf 3);
        // instead build a genuine chain: 5 references 4, 4 references 3.
        // The fixpoint must order them correctly even though 5 precedes 4
        // in the table.
        let mut d = tree_diff(0, 128);
        d.first_regions = vec![3, 6]; // leaf 3 = chunk 0; leaf 6 = chunk 3
        d.shift_regions = vec![
            ShiftRegion {
                node: 5,
                ref_node: 4,
                ref_ckpt: 0,
            }, // chunk 2 <- chunk 1
            ShiftRegion {
                node: 4,
                ref_node: 3,
                ref_ckpt: 0,
            }, // chunk 1 <- chunk 0
        ];
        d.payload = [[7u8; 32], [9u8; 32]].concat().into();
        let v = restore_record(std::slice::from_ref(&d)).unwrap();
        assert_eq!(&v[0][0..32], &[7u8; 32]);
        assert_eq!(&v[0][32..64], &[7u8; 32]);
        assert_eq!(&v[0][64..96], &[7u8; 32]);
        assert_eq!(&v[0][96..128], &[9u8; 32]);
    }

    #[test]
    fn detects_unresolvable_cycle() {
        let mut d = tree_diff(0, 128);
        d.first_regions = vec![3, 6];
        d.payload = vec![0; 64].into();
        d.shift_regions = vec![
            ShiftRegion {
                node: 4,
                ref_node: 5,
                ref_ckpt: 0,
            },
            ShiftRegion {
                node: 5,
                ref_node: 4,
                ref_ckpt: 0,
            },
        ];
        let err = restore_record(&[d]).unwrap_err();
        assert!(matches!(
            err,
            RestoreError::UnresolvableShifts { remaining: 2, .. }
        ));
    }

    #[test]
    fn cross_ckpt_shift_reads_old_version() {
        // ckpt 0: full content via root region; ckpt 1: chunk 0 becomes
        // ckpt 0's chunk 3 content, rest fixed.
        let mut d0 = tree_diff(0, 128);
        d0.first_regions = vec![0];
        d0.payload = Vec::from_iter((0..128u8).map(|i| i / 32)).into(); // chunks 0,1,2,3
        let mut d1 = tree_diff(1, 128);
        d1.shift_regions = vec![ShiftRegion {
            node: 3,
            ref_node: 6,
            ref_ckpt: 0,
        }];
        let versions = restore_record(&[d0, d1]).unwrap();
        assert_eq!(&versions[1][0..32], &[3u8; 32]);
        assert_eq!(&versions[1][32..], &versions[0][32..]);
    }

    #[test]
    fn forward_reference_rejected() {
        let mut d = tree_diff(0, 64);
        d.first_regions = vec![1]; // chunk 0
        d.payload = vec![0; 32].into();
        d.shift_regions = vec![ShiftRegion {
            node: 2,
            ref_node: 1,
            ref_ckpt: 9,
        }];
        let err = restore_record(&[d]).unwrap_err();
        assert!(matches!(
            err,
            RestoreError::ForwardReference { ref_ckpt: 9, .. }
        ));
    }
}
