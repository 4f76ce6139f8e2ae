//! LZ4-like codec: byte-aligned LZ77 with the classic token format.
//!
//! Block layout: varint uncompressed length, then sequences of
//! `token | literals | offset(u16) | extensions`. The token packs the
//! literal length in its high nibble and `match_len - 4` in its low nibble;
//! value 15 in either nibble chains into 255-valued extension bytes, exactly
//! like real LZ4. The final sequence carries literals only (offset omitted).

use crate::lz::{copy_match, find_sequences, get_declared_len, put_varint, MatchConfig};
use crate::{Codec, CorruptStream};

/// LZ4-like byte-aligned LZ codec.
#[derive(Debug, Clone, Copy)]
pub struct Lz4Like {
    cfg: MatchConfig,
}

impl Default for Lz4Like {
    fn default() -> Self {
        Lz4Like {
            cfg: MatchConfig::lz4(),
        }
    }
}

const MIN_MATCH: usize = 4;

fn put_len(out: &mut Vec<u8>, mut extra: usize) {
    // Extension bytes after a nibble of 15: 255* then the remainder.
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn get_len(data: &[u8], pos: &mut usize, nibble: usize) -> Result<usize, CorruptStream> {
    let mut len = nibble;
    if nibble == 15 {
        loop {
            if *pos >= data.len() {
                return Err(CorruptStream("lz4 length extension truncated"));
            }
            let b = data[*pos];
            *pos += 1;
            len += b as usize;
            if b != 255 {
                break;
            }
        }
    }
    Ok(len)
}

impl Codec for Lz4Like {
    fn name(&self) -> &'static str {
        "lz4"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        put_varint(&mut out, data.len() as u64);
        let seqs = find_sequences(data, &self.cfg);
        for (k, s) in seqs.iter().enumerate() {
            let last = k == seqs.len() - 1;
            debug_assert_eq!(last, s.match_len == 0);
            let lit_nib = s.lit_len.min(15);
            let match_nib = if last {
                0
            } else {
                (s.match_len - MIN_MATCH).min(15)
            };
            out.push(((lit_nib as u8) << 4) | match_nib as u8);
            if lit_nib == 15 {
                put_len(&mut out, s.lit_len - 15);
            }
            out.extend_from_slice(&data[s.lit_start..s.lit_start + s.lit_len]);
            if !last {
                debug_assert!(s.offset > 0 && s.offset <= 0xFFFF);
                out.extend_from_slice(&(s.offset as u16).to_le_bytes());
                if match_nib == 15 {
                    put_len(&mut out, s.match_len - MIN_MATCH - 15);
                }
            }
        }
        out
    }

    fn decompress(&self, data: &[u8], max_len: usize) -> Result<Vec<u8>, CorruptStream> {
        let mut pos = 0usize;
        let raw_len = get_declared_len(data, &mut pos, max_len)?;
        let mut out = Vec::with_capacity(raw_len);
        while out.len() < raw_len {
            if pos >= data.len() {
                return Err(CorruptStream("lz4 block truncated"));
            }
            let token = data[pos];
            pos += 1;
            let lit_len = get_len(data, &mut pos, (token >> 4) as usize)?;
            if pos + lit_len > data.len() {
                return Err(CorruptStream("lz4 literals truncated"));
            }
            out.extend_from_slice(&data[pos..pos + lit_len]);
            pos += lit_len;
            if out.len() >= raw_len {
                break; // final literal-only sequence
            }
            if pos + 2 > data.len() {
                return Err(CorruptStream("lz4 offset truncated"));
            }
            let offset = u16::from_le_bytes(data[pos..pos + 2].try_into().unwrap()) as usize;
            pos += 2;
            let match_len = get_len(data, &mut pos, (token & 0x0f) as usize)? + MIN_MATCH;
            if offset == 0 || offset > out.len() {
                return Err(CorruptStream("lz4 offset out of range"));
            }
            if out.len() + match_len > raw_len {
                return Err(CorruptStream("lz4 match overruns block"));
            }
            copy_match(&mut out, offset, match_len);
        }
        if out.len() != raw_len {
            return Err(CorruptStream("lz4 length mismatch"));
        }
        Ok(out)
    }

    fn flops_per_byte(&self) -> f64 {
        6.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn codec() -> Lz4Like {
        Lz4Like::default()
    }

    #[test]
    fn text_round_trip_and_shrinks() {
        let data = b"incremental checkpointing with gpu-accelerated de-duplication ".repeat(100);
        let packed = codec().compress(&data);
        assert!(packed.len() < data.len() / 5);
        assert_eq!(codec().decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn long_literal_runs_use_extensions() {
        // > 15 literals forces nibble escape.
        let data: Vec<u8> = (0..1000u32)
            .map(|i| (i.wrapping_mul(97) % 251) as u8)
            .collect();
        let packed = codec().compress(&data);
        assert_eq!(codec().decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn long_match_runs_use_extensions() {
        let data = vec![3u8; 5000];
        let packed = codec().compress(&data);
        assert!(packed.len() < 64);
        assert_eq!(codec().decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn corrupt_offset_rejected() {
        // literal token 0 + match with offset 0.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 100);
        bytes.push(0x00); // 0 literals, match_len nibble 0 (=4)
        bytes.extend_from_slice(&0u16.to_le_bytes());
        assert!(codec().decompress(&bytes, 100).is_err());
    }

    #[test]
    fn truncation_never_panics_and_never_fabricates() {
        let data = b"hello world hello world hello world".to_vec();
        let packed = codec().compress(&data);
        for cut in 0..packed.len() {
            // Every truncation must either error or yield a prefix-exact
            // reconstruction (the final literal-only token is redundant when
            // a match already reached raw_len, so full equality is legal for
            // the last byte). It must never panic or return wrong bytes.
            if let Ok(out) = codec().decompress(&packed[..cut], data.len()) {
                assert_eq!(out, data, "cut {cut} produced wrong bytes");
                assert!(cut >= packed.len() - 1, "early cut {cut} decoded fully");
            }
        }
        assert!(codec().decompress(&[], data.len()).is_err());
    }

    proptest! {
        #[test]
        fn round_trip_any(data in prop::collection::vec(any::<u8>(), 0..4096)) {
            let packed = codec().compress(&data);
            prop_assert_eq!(codec().decompress(&packed, data.len()).unwrap(), data);
        }

        #[test]
        fn round_trip_low_entropy(data in prop::collection::vec(0u8..3, 0..4096)) {
            let packed = codec().compress(&data);
            prop_assert_eq!(codec().decompress(&packed, data.len()).unwrap(), data);
        }
    }
}
