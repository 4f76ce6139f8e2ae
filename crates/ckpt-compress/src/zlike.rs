//! Deflate-like and Zstd-like codecs: LZ77 parsing plus a canonical-Huffman
//! entropy stage over the literal stream.
//!
//! Both share one container format and differ only in their match-finder
//! tuning, mirroring the real algorithms' relationship (Zstd searches a much
//! larger window more thoroughly, so it finds more redundancy at higher
//! compute cost):
//!
//! ```text
//! varint raw_len | varint n_seq
//! varint lit_block_len | huffman(literal bytes)
//! per sequence: varint lit_len, varint match_len, varint offset
//! ```

use crate::huffman;
use crate::lz::{
    copy_match, find_sequences, get_declared_len, get_varint, put_varint, MatchConfig,
};
use crate::{Codec, CorruptStream};

fn compress_with(cfg: &MatchConfig, data: &[u8]) -> Vec<u8> {
    let seqs = find_sequences(data, cfg);

    // Literal stream: concatenation of all sequences' literal runs.
    let mut literals = Vec::new();
    for s in &seqs {
        literals.extend_from_slice(&data[s.lit_start..s.lit_start + s.lit_len]);
    }
    let lit_block = huffman::encode(&literals);

    let mut out = Vec::with_capacity(lit_block.len() + seqs.len() * 4 + 16);
    put_varint(&mut out, data.len() as u64);
    put_varint(&mut out, seqs.len() as u64);
    put_varint(&mut out, lit_block.len() as u64);
    out.extend_from_slice(&lit_block);
    for s in &seqs {
        put_varint(&mut out, s.lit_len as u64);
        put_varint(&mut out, s.match_len as u64);
        put_varint(&mut out, s.offset as u64);
    }
    out
}

fn decompress_with(data: &[u8], max_len: usize) -> Result<Vec<u8>, CorruptStream> {
    let mut pos = 0usize;
    let raw_len = get_declared_len(data, &mut pos, max_len)?;
    let n_seq = get_varint(data, &mut pos)? as usize;
    let lit_block_len = get_varint(data, &mut pos)? as usize;
    if lit_block_len > data.len() - pos {
        return Err(CorruptStream("literal block truncated"));
    }
    // The literals are a subsequence of the output.
    let literals = huffman::decode(&data[pos..pos + lit_block_len], raw_len)?;
    pos += lit_block_len;

    let mut out = Vec::with_capacity(raw_len);
    let mut lit_pos = 0usize;
    for _ in 0..n_seq {
        let lit_len = get_varint(data, &mut pos)? as usize;
        let match_len = get_varint(data, &mut pos)? as usize;
        let offset = get_varint(data, &mut pos)? as usize;
        if lit_len > literals.len() - lit_pos {
            return Err(CorruptStream("literal stream exhausted"));
        }
        out.extend_from_slice(&literals[lit_pos..lit_pos + lit_len]);
        lit_pos += lit_len;
        if match_len > 0 {
            if offset == 0 || offset > out.len() {
                return Err(CorruptStream("offset out of range"));
            }
            if match_len > raw_len.saturating_sub(out.len()) {
                return Err(CorruptStream("match overruns block"));
            }
            copy_match(&mut out, offset, match_len);
        }
    }
    if out.len() != raw_len {
        return Err(CorruptStream("length mismatch"));
    }
    Ok(out)
}

/// Deflate-like codec (32 KiB window LZSS + Huffman literals).
#[derive(Debug, Clone, Copy)]
pub struct DeflateLike {
    cfg: MatchConfig,
}

impl Default for DeflateLike {
    fn default() -> Self {
        DeflateLike {
            cfg: MatchConfig::deflate(),
        }
    }
}

impl Codec for DeflateLike {
    fn name(&self) -> &'static str {
        "deflate"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        compress_with(&self.cfg, data)
    }

    fn decompress(&self, data: &[u8], max_len: usize) -> Result<Vec<u8>, CorruptStream> {
        decompress_with(data, max_len)
    }

    fn flops_per_byte(&self) -> f64 {
        20.0
    }
}

/// Zstd-like codec (1 MiB window, deep chains + Huffman literals).
#[derive(Debug, Clone, Copy)]
pub struct ZstdLike {
    cfg: MatchConfig,
}

impl Default for ZstdLike {
    fn default() -> Self {
        ZstdLike {
            cfg: MatchConfig::zstd(),
        }
    }
}

impl Codec for ZstdLike {
    fn name(&self) -> &'static str {
        "zstd"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        compress_with(&self.cfg, data)
    }

    fn decompress(&self, data: &[u8], max_len: usize) -> Result<Vec<u8>, CorruptStream> {
        decompress_with(data, max_len)
    }

    fn flops_per_byte(&self) -> f64 {
        12.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn text_round_trip_both() {
        let data =
            b"the paper proposes a merkle tree based incremental checkpointing method ".repeat(200);
        for codec in [&DeflateLike::default() as &dyn Codec, &ZstdLike::default()] {
            let packed = codec.compress(&data);
            assert!(
                packed.len() < data.len() / 8,
                "{}: {}",
                codec.name(),
                packed.len()
            );
            assert_eq!(codec.decompress(&packed, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn zstd_beats_deflate_beyond_deflate_window() {
        // Redundancy at > 32 KiB distance is invisible to the deflate-like
        // window but visible to the zstd-like one.
        let block: Vec<u8> = (0..48_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 9) as u8)
            .collect();
        let mut data = block.clone();
        data.extend_from_slice(&block);
        let d = DeflateLike::default().compress(&data).len();
        let z = ZstdLike::default().compress(&data).len();
        assert!(z < d * 3 / 4, "zstd {z} vs deflate {d}");
        assert_eq!(
            ZstdLike::default()
                .decompress(&ZstdLike::default().compress(&data), data.len())
                .unwrap(),
            data
        );
    }

    #[test]
    fn entropy_stage_helps_on_skewed_literals() {
        // Incompressible by LZ (no repeats) but highly skewed bytes.
        let data: Vec<u8> = (0..30_000u32)
            .map(|i| {
                let r = i.wrapping_mul(2654435761) >> 24;
                if r < 200 {
                    b'a'
                } else {
                    (r % 256) as u8
                }
            })
            .collect();
        let packed = DeflateLike::default().compress(&data);
        assert!(packed.len() < data.len() * 2 / 3, "packed {}", packed.len());
        assert_eq!(
            DeflateLike::default()
                .decompress(&packed, data.len())
                .unwrap(),
            data
        );
    }

    #[test]
    fn corrupt_container_rejected() {
        let data = b"abc".repeat(100);
        let packed = DeflateLike::default().compress(&data);
        assert!(DeflateLike::default()
            .decompress(&packed[..5], data.len())
            .is_err());
        let mut broken = packed.clone();
        let n = broken.len();
        broken.truncate(n - 2);
        assert!(DeflateLike::default()
            .decompress(&broken, data.len())
            .is_err());
    }

    #[test]
    fn forged_inner_lengths_fail_typed() {
        // An honest 100-byte declaration around one sequence whose fields,
        // and whose literal block's own length, are forged in turn.
        let stream = |lit_block_len: Option<u64>, lit_decl: u64, lit_len: u64, match_len: u64| {
            let mut lit_block = Vec::new();
            put_varint(&mut lit_block, lit_decl);
            lit_block.extend_from_slice(&huffman::encode(b"abcd")[1..]);
            let mut s = Vec::new();
            put_varint(&mut s, 100);
            put_varint(&mut s, 1);
            put_varint(&mut s, lit_block_len.unwrap_or(lit_block.len() as u64));
            s.extend_from_slice(&lit_block);
            for v in [lit_len, match_len, 4] {
                put_varint(&mut s, v);
            }
            s
        };
        assert_eq!(
            decompress_with(&stream(None, 4, 4, 96), 100).unwrap().len(),
            100
        );
        for (forged, why) in [
            (stream(Some(u64::MAX), 4, 4, 96), "literal block truncated"),
            (
                stream(None, (1 << 46) - 1, 4, 96),
                "declared length exceeds its ceiling",
            ),
            (stream(None, 4, u64::MAX, 96), "literal stream exhausted"),
            (stream(None, 4, 4, u64::MAX), "match overruns block"),
            (stream(None, 4, 4, 97), "match overruns block"),
        ] {
            assert_eq!(decompress_with(&forged, 100), Err(CorruptStream(why)));
        }
    }

    proptest! {
        #[test]
        fn round_trip_any(data in prop::collection::vec(any::<u8>(), 0..4096)) {
            for codec in [&DeflateLike::default() as &dyn Codec, &ZstdLike::default()] {
                let packed = codec.compress(&data);
                prop_assert_eq!(codec.decompress(&packed, data.len()).unwrap(), data.clone());
            }
        }

        #[test]
        fn round_trip_structured(vals in prop::collection::vec(0u32..50, 0..1024)) {
            let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            for codec in [&DeflateLike::default() as &dyn Codec, &ZstdLike::default()] {
                let packed = codec.compress(&data);
                prop_assert_eq!(codec.decompress(&packed, data.len()).unwrap(), data.clone());
            }
        }
    }
}
