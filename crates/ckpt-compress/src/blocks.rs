//! Deterministic block-parallel container around any [`Codec`].
//!
//! The flush pipeline compresses whole checkpoint objects on the host
//! work-stealing pool. A single `codec.compress(object)` call would
//! serialize that work on one worker, so this module splits the input into
//! fixed-size blocks, compresses each block independently with
//! `par_chunks`, and concatenates the results behind a small table of
//! contents. Block boundaries are a pure function of the input length and
//! the block size — never of the thread count — so the container bytes are
//! bit-identical at 1, 2, or N threads, and decompression parallelizes the
//! same way.
//!
//! Wire format (all integers little-endian):
//!
//! ```text
//! [n_blocks u32][block_size u32]
//! n_blocks × [comp_len u32][raw_len u32]     table of contents
//! n_blocks × comp_len bytes                  block payloads, in order
//! ```
//!
//! A block whose compressed form would not *shrink* is stored raw
//! (`comp_len == raw_len` marks a stored block), so the container never
//! expands the payload beyond the table-of-contents overhead — the `Store`
//! fallback the adaptive tier policy relies on.

use crate::{Codec, CorruptStream};
use rayon::prelude::*;

/// Default block size for object compression: large enough to amortize
/// per-block codec setup, small enough that a multi-megabyte checkpoint
/// object fans out across the pool.
pub const DEFAULT_BLOCK_SIZE: usize = 256 * 1024;

/// Container header: block count + block size.
const CONTAINER_HEADER: usize = 8;
/// Per-block table entry: compressed length + raw length.
const TOC_ENTRY: usize = 8;

/// Fixed container overhead for an input of `len` bytes at `block_size`.
pub fn container_overhead(len: usize, block_size: usize) -> usize {
    CONTAINER_HEADER + len.div_ceil(block_size.max(1)) * TOC_ENTRY
}

/// Compress `data` into a self-contained block container. Blocks compress
/// in parallel on the shared pool; output bytes are independent of the
/// thread count.
pub fn compress_blocks(codec: &dyn Codec, data: &[u8], block_size: usize) -> Vec<u8> {
    assert!(block_size > 0, "block_size must be positive");
    let blocks: Vec<Vec<u8>> = data
        .par_chunks(block_size)
        .map(|raw| {
            let packed = codec.compress(raw);
            // Store-fallback per block: never grow a block.
            if packed.len() < raw.len() {
                packed
            } else {
                raw.to_vec()
            }
        })
        .collect();
    let n_blocks = data.len().div_ceil(block_size);
    debug_assert_eq!(blocks.len(), n_blocks);
    let body: usize = blocks.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(CONTAINER_HEADER + n_blocks * TOC_ENTRY + body);
    out.extend_from_slice(&(n_blocks as u32).to_le_bytes());
    out.extend_from_slice(&(block_size as u32).to_le_bytes());
    for (i, packed) in blocks.iter().enumerate() {
        let raw_len = block_size.min(data.len() - i * block_size);
        out.extend_from_slice(&(packed.len() as u32).to_le_bytes());
        out.extend_from_slice(&(raw_len as u32).to_le_bytes());
    }
    for packed in &blocks {
        out.extend_from_slice(packed);
    }
    out
}

/// Invert [`compress_blocks`]. Every table entry is validated against the
/// remaining buffer *before* any block is decoded or any output allocated,
/// so a corrupt length field fails typed instead of over-allocating.
pub fn decompress_blocks(codec: &dyn Codec, data: &[u8]) -> Result<Vec<u8>, CorruptStream> {
    if data.len() < CONTAINER_HEADER {
        return Err(CorruptStream("block container shorter than its header"));
    }
    let n_blocks = u32::from_le_bytes(data[0..4].try_into().unwrap()) as usize;
    let block_size = u32::from_le_bytes(data[4..8].try_into().unwrap()) as usize;
    if block_size == 0 && n_blocks > 0 {
        return Err(CorruptStream("zero block size with nonzero block count"));
    }
    let toc_end = CONTAINER_HEADER
        .checked_add(
            n_blocks
                .checked_mul(TOC_ENTRY)
                .ok_or(CorruptStream("block count overflows the table of contents"))?,
        )
        .ok_or(CorruptStream("block count overflows the table of contents"))?;
    if data.len() < toc_end {
        return Err(CorruptStream("table of contents truncated"));
    }
    // Validate the whole table before decoding: every entry in bounds,
    // every raw length within one block, payload bytes exactly accounted.
    let mut entries = Vec::with_capacity(n_blocks);
    let mut offset = toc_end;
    for i in 0..n_blocks {
        let at = CONTAINER_HEADER + i * TOC_ENTRY;
        let comp_len = u32::from_le_bytes(data[at..at + 4].try_into().unwrap()) as usize;
        let raw_len = u32::from_le_bytes(data[at + 4..at + 8].try_into().unwrap()) as usize;
        if raw_len > block_size || (i + 1 < n_blocks && raw_len != block_size) {
            return Err(CorruptStream("block raw length exceeds the block size"));
        }
        if comp_len > raw_len {
            return Err(CorruptStream(
                "block compressed length exceeds its raw length",
            ));
        }
        if comp_len > data.len() - offset {
            return Err(CorruptStream("block payload extends past the container"));
        }
        entries.push((offset, comp_len, raw_len));
        offset += comp_len;
    }
    if offset != data.len() {
        return Err(CorruptStream("trailing bytes after the last block"));
    }
    // One block per executor chunk: under a slice's default minimum a
    // container of fewer than 1 024 blocks would decode on one thread.
    let parts: Vec<Result<Vec<u8>, CorruptStream>> = entries
        .par_iter()
        .with_max_len(1)
        .map(|&(off, comp_len, raw_len)| {
            let packed = &data[off..off + comp_len];
            let raw = if comp_len == raw_len {
                packed.to_vec() // stored block
            } else {
                codec.decompress(packed, raw_len)?
            };
            if raw.len() != raw_len {
                return Err(CorruptStream("block decoded to the wrong length"));
            }
            Ok(raw)
        })
        .collect();
    let mut out = Vec::with_capacity(entries.iter().map(|e| e.2).sum());
    for part in parts {
        out.extend_from_slice(&part?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{all_codecs, ZstdLike};

    #[test]
    fn round_trips_across_block_boundaries() {
        let codec = ZstdLike::default();
        let data: Vec<u8> = (0..300_000u32)
            .flat_map(|i| (i / 9).to_le_bytes())
            .collect();
        for block_size in [1, 7, 4096, DEFAULT_BLOCK_SIZE, data.len(), data.len() * 2] {
            let packed = compress_blocks(&codec, &data, block_size);
            assert_eq!(
                decompress_blocks(&codec, &packed).unwrap(),
                data,
                "block_size {block_size}"
            );
        }
    }

    #[test]
    fn empty_input_is_a_bare_header() {
        let codec = ZstdLike::default();
        let packed = compress_blocks(&codec, &[], DEFAULT_BLOCK_SIZE);
        assert_eq!(packed.len(), CONTAINER_HEADER);
        assert_eq!(
            decompress_blocks(&codec, &packed).unwrap(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn container_never_expands_beyond_overhead() {
        // Incompressible bytes: every block falls back to stored form.
        let data: Vec<u8> = (0..100_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        for codec in all_codecs() {
            let packed = compress_blocks(&*codec, &data, 16 * 1024);
            assert!(
                packed.len() <= data.len() + container_overhead(data.len(), 16 * 1024),
                "{} grew the container to {}",
                codec.name(),
                packed.len()
            );
            assert_eq!(decompress_blocks(&*codec, &packed).unwrap(), data);
        }
    }

    #[test]
    fn output_is_thread_count_independent() {
        let codec = ZstdLike::default();
        let data: Vec<u8> = (0..1_000_000u32).map(|i| ((i / 40) % 97) as u8).collect();
        let mut outputs = Vec::new();
        for threads in [1, 2, 8] {
            rayon::set_active_threads(threads);
            outputs.push(compress_blocks(&codec, &data, DEFAULT_BLOCK_SIZE));
        }
        rayon::set_active_threads(0);
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    #[test]
    fn forged_inner_length_is_corrupt_before_anything_is_reserved() {
        // The table of contents is honest; the block's own stream opens
        // with a forged varint length. The codec must hear the table's
        // `raw_len` and refuse, not reserve what the stream declares.
        let data = vec![7u8; 1000];
        // (The other codecs open with fixed-width fields.)
        let lz_codecs: [&dyn Codec; 4] = [
            &crate::Lz4Like::default(),
            &crate::SnappyLike::default(),
            &crate::DeflateLike::default(),
            &ZstdLike::default(),
        ];
        for codec in lz_codecs {
            let packed = compress_blocks(codec, &data, DEFAULT_BLOCK_SIZE);
            let inner = &packed[CONTAINER_HEADER + TOC_ENTRY..];
            let mut pos = 0;
            assert_eq!(crate::lz::get_varint(inner, &mut pos).unwrap(), 1000);
            for forged in [u64::MAX, (1 << 46) - 1, 1001] {
                let mut stream = Vec::new();
                crate::lz::put_varint(&mut stream, forged);
                stream.extend_from_slice(&inner[pos..]);
                let mut bad = packed[..CONTAINER_HEADER + TOC_ENTRY].to_vec();
                bad[CONTAINER_HEADER..CONTAINER_HEADER + 4]
                    .copy_from_slice(&(stream.len() as u32).to_le_bytes());
                bad.extend_from_slice(&stream);
                assert_eq!(
                    decompress_blocks(codec, &bad),
                    Err(CorruptStream("declared length exceeds its ceiling")),
                    "{} with a declared length of {forged}",
                    codec.name()
                );
            }
        }
    }

    #[test]
    fn corrupt_tables_fail_typed_not_panic() {
        let codec = ZstdLike::default();
        let data = vec![7u8; 100_000];
        let packed = compress_blocks(&codec, &data, 16 * 1024);
        // Truncations at every prefix length parse as errors, never panic.
        for keep in 0..packed.len().min(64) {
            assert!(decompress_blocks(&codec, &packed[..keep]).is_err());
        }
        // A table entry claiming a huge raw length must not allocate it.
        let mut bad = packed.clone();
        bad[CONTAINER_HEADER + 4..CONTAINER_HEADER + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decompress_blocks(&codec, &bad).is_err());
        // A block count far past the buffer fails the bounds check.
        let mut bad = packed.clone();
        bad[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decompress_blocks(&codec, &bad).is_err());
    }
}
