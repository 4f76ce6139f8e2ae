//! Snappy-like codec: single-probe greedy LZ77 with tag bytes.
//!
//! Tuned like Snappy: speed over ratio — the match finder probes one hash
//! slot only. Element framing: tag byte `t`:
//! * `t & 1 == 0` — literal run of `(t >> 1) + 1` bytes (1..=128);
//! * `t & 1 == 1` — copy of `((t >> 1) & 0x3f) + 4` bytes (4..=67) from a
//!   little-endian `u16` offset that follows.
//!
//! Block prefix: varint uncompressed length.

use crate::lz::{copy_match, find_sequences, get_declared_len, put_varint, MatchConfig};
use crate::{Codec, CorruptStream};

/// Snappy-like fast LZ codec.
#[derive(Debug, Clone, Copy)]
pub struct SnappyLike {
    cfg: MatchConfig,
}

impl Default for SnappyLike {
    fn default() -> Self {
        SnappyLike {
            cfg: MatchConfig::snappy(),
        }
    }
}

const MIN_COPY: usize = 4;
const MAX_COPY: usize = 67;
const MAX_LIT: usize = 128;

impl Codec for SnappyLike {
    fn name(&self) -> &'static str {
        "snappy"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        debug_assert!(self.cfg.max_match <= MAX_COPY);
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        put_varint(&mut out, data.len() as u64);
        for s in find_sequences(data, &self.cfg) {
            // Literals, 128 at a time.
            let mut lit = &data[s.lit_start..s.lit_start + s.lit_len];
            while !lit.is_empty() {
                let n = lit.len().min(MAX_LIT);
                out.push(((n - 1) as u8) << 1);
                out.extend_from_slice(&lit[..n]);
                lit = &lit[n..];
            }
            if s.match_len > 0 {
                debug_assert!((MIN_COPY..=MAX_COPY).contains(&s.match_len));
                out.push((((s.match_len - MIN_COPY) as u8) << 1) | 1);
                out.extend_from_slice(&(s.offset as u16).to_le_bytes());
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
                return Err(CorruptStream("snappy block truncated"));
            }
            let tag = data[pos];
            pos += 1;
            if tag & 1 == 0 {
                let n = ((tag >> 1) as usize) + 1;
                if pos + n > data.len() {
                    return Err(CorruptStream("snappy literals truncated"));
                }
                out.extend_from_slice(&data[pos..pos + n]);
                pos += n;
            } else {
                let n = (((tag >> 1) & 0x3f) as usize) + MIN_COPY;
                if pos + 2 > data.len() {
                    return Err(CorruptStream("snappy offset truncated"));
                }
                let offset = u16::from_le_bytes(data[pos..pos + 2].try_into().unwrap()) as usize;
                pos += 2;
                if offset == 0 || offset > out.len() {
                    return Err(CorruptStream("snappy offset out of range"));
                }
                copy_match(&mut out, offset, n);
            }
        }
        if out.len() != raw_len {
            return Err(CorruptStream("snappy length mismatch"));
        }
        Ok(out)
    }

    fn flops_per_byte(&self) -> f64 {
        4.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn codec() -> SnappyLike {
        SnappyLike::default()
    }

    #[test]
    fn repetitive_shrinks() {
        let data = b"0123456789abcdef".repeat(200);
        let packed = codec().compress(&data);
        assert!(packed.len() < data.len() / 3);
        assert_eq!(codec().decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn weaker_than_lz4_on_text() {
        // Sanity: the family ordering the docs promise.
        let data: Vec<u8> = (0..20_000u32)
            .flat_map(|i| format!("record {} value {}\n", i % 100, i % 7).into_bytes())
            .collect();
        let sn = codec().compress(&data).len();
        let lz = crate::Lz4Like::default().compress(&data).len();
        assert!(lz <= sn, "lz4 {} vs snappy {}", lz, sn);
    }

    #[test]
    fn bad_tag_stream_rejected() {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 50);
        bytes.push(0x01); // copy of 4 from offset...
        bytes.extend_from_slice(&9999u16.to_le_bytes()); // before start
        assert!(codec().decompress(&bytes, 50).is_err());
    }

    proptest! {
        #[test]
        fn round_trip_any(data in prop::collection::vec(any::<u8>(), 0..4096)) {
            let packed = codec().compress(&data);
            prop_assert_eq!(codec().decompress(&packed, data.len()).unwrap(), data);
        }

        #[test]
        fn round_trip_runs(data in prop::collection::vec(0u8..2, 0..4096)) {
            let packed = codec().compress(&data);
            prop_assert_eq!(codec().decompress(&packed, data.len()).unwrap(), data);
        }
    }
}
