//! LZ4-like codec: byte-aligned LZ77 with the classic token format.
//!
//! Block layout: varint uncompressed length, then sequences of
//! `token | literals | offset(u16) | extensions`. The token packs the
//! literal length in its high nibble and `match_len - 4` in its low nibble;
//! value 15 in either nibble chains into 255-valued extension bytes, exactly
//! like real LZ4. The final sequence carries literals only (offset omitted).

use crate::lz::{find_sequences, get_declared_len, put_varint, MatchConfig};
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

/// Width of the decoder's fixed copies: one 16-byte load and store.
const STEP: usize = 16;

/// The first [`STEP`] bytes of `src`, as one fixed-width word.
fn word(src: &[u8]) -> [u8; STEP] {
    src[..STEP].try_into().expect("STEP bytes of room")
}

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
        let raw_len = get_declared_len(data, &mut 0, max_len)?;
        let mut out = vec![0; raw_len];
        self.decompress_into(data, &mut out)?;
        Ok(out)
    }

    /// Literals and matches of at most `STEP` (16) bytes are one fixed-width
    /// load and store, where the input and `out` both have `STEP` bytes of
    /// room: the bytes past the sequence's end are garbage that the next
    /// sequence overwrites, as every byte of `out` is written in order. A
    /// match that overlaps its own output keeps the doubling copy.
    fn decompress_into(&self, data: &[u8], out: &mut [u8]) -> Result<(), CorruptStream> {
        let mut pos = 0usize;
        let raw_len = get_declared_len(data, &mut pos, out.len())?;
        if raw_len != out.len() {
            return Err(CorruptStream("block decoded to the wrong length"));
        }
        let mut op = 0usize;
        while op < raw_len {
            if pos >= data.len() {
                return Err(CorruptStream("lz4 block truncated"));
            }
            let token = data[pos];
            pos += 1;
            let lit_len = get_len(data, &mut pos, (token >> 4) as usize)?;
            if lit_len > data.len() - pos {
                return Err(CorruptStream("lz4 literals truncated"));
            }
            if lit_len > raw_len - op {
                return Err(CorruptStream("lz4 length mismatch"));
            }
            let (src, dst) = (&data[pos..], &mut out[op..]);
            if lit_len <= STEP && src.len() >= STEP && dst.len() >= STEP {
                dst[..STEP].copy_from_slice(&word(src));
            } else {
                dst[..lit_len].copy_from_slice(&src[..lit_len]);
            }
            pos += lit_len;
            op += lit_len;
            if op == raw_len {
                break; // final literal-only sequence
            }
            if data.len() - pos < 2 {
                return Err(CorruptStream("lz4 offset truncated"));
            }
            let offset = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
            pos += 2;
            let match_len = get_len(data, &mut pos, (token & 0x0f) as usize)? + MIN_MATCH;
            if offset == 0 || offset > op {
                return Err(CorruptStream("lz4 offset out of range"));
            }
            if match_len > raw_len - op {
                return Err(CorruptStream("lz4 match overruns block"));
            }
            let from = op - offset;
            if match_len > offset {
                // Everything from `from` on is periodic in `offset`: each
                // pass copies all of it, and the pattern doubles.
                let end = op + match_len;
                let mut at = op;
                while at < end {
                    let n = (at - from).min(end - at);
                    out.copy_within(from..from + n, at);
                    at += n;
                }
            } else if match_len <= STEP && raw_len - op >= STEP {
                // The word is loaded whole before it is stored; for an
                // offset under `STEP` it runs into the output's own bytes,
                // but only its first `match_len <= offset` are kept.
                let w = word(&out[from..]);
                out[op..op + STEP].copy_from_slice(&w);
            } else {
                out.copy_within(from..from + match_len, op);
            }
            op += match_len;
        }
        Ok(())
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

    /// The decoder `decompress_into` replaced, kept as its oracle: it grows
    /// a `Vec` a sequence at a time and copies every match through
    /// `lz::copy_match`.
    fn oracle(data: &[u8], max_len: usize) -> Result<Vec<u8>, CorruptStream> {
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
            crate::lz::copy_match(&mut out, offset, match_len);
        }
        if out.len() != raw_len {
            return Err(CorruptStream("lz4 length mismatch"));
        }
        Ok(out)
    }

    /// `decompress` returns the oracle's bytes or both fail, and so does
    /// `decompress_into` for an output of `max_len` bytes, which only a
    /// stream of exactly that length fills.
    fn agrees(stream: &[u8], max_len: usize) {
        let (new, old) = (codec().decompress(stream, max_len), oracle(stream, max_len));
        match (&new, &old) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "decoder {new:?}, oracle {old:?}"),
        }
        let mut out = vec![0xa5; max_len];
        match (codec().decompress_into(stream, &mut out), old) {
            (Ok(()), Ok(b)) => prop_assert_eq!(out, b),
            (Err(_), Ok(b)) => prop_assert_ne!(b.len(), max_len, "into refused a whole stream"),
            (Ok(()), Err(e)) => prop_assert!(false, "into decoded what the oracle refused: {e}"),
            (Err(_), Err(_)) => {}
        }
    }

    /// A stream of `lits` literal bytes, then a match at `offset` of `len`
    /// bytes, then `tail` literal bytes, declaring `declared` bytes.
    fn forged(lits: usize, offset: u16, len: usize, tail: usize, declared: u64) -> Vec<u8> {
        let mut s = Vec::new();
        put_varint(&mut s, declared);
        let nib = (len - MIN_MATCH).min(15);
        s.push(((lits.min(15) as u8) << 4) | nib as u8);
        if lits >= 15 {
            put_len(&mut s, lits - 15);
        }
        s.extend((0..lits).map(|i| (i * 31 + 7) as u8));
        s.extend_from_slice(&offset.to_le_bytes());
        if nib == 15 {
            put_len(&mut s, len - MIN_MATCH - 15);
        }
        s.push((tail.min(15) as u8) << 4);
        if tail >= 15 {
            put_len(&mut s, tail - 15);
        }
        s.extend((0..tail).map(|i| (i * 13 + 1) as u8));
        s
    }

    #[test]
    fn overlapping_matches_and_forged_offsets_agree_with_the_oracle() {
        for offset in 1..=17u16 {
            for len in 4..=40 {
                for tail in [0, 3, 16, 40] {
                    let lits = offset as usize;
                    let raw = (lits + len + tail) as u64;
                    let stream = forged(lits, offset, len, tail, raw);
                    let expect = oracle(&stream, raw as usize).unwrap();
                    assert_eq!(expect.len() as u64, raw);
                    agrees(&stream, raw as usize);
                    for declared in [raw - 1, raw + 1] {
                        agrees(&forged(lits, offset, len, tail, declared), raw as usize + 1);
                    }
                    // Offset 0, one past the output, and the largest.
                    for bad in [0, offset + 1, u16::MAX] {
                        let stream = forged(lits, bad, len, tail, raw);
                        assert!(oracle(&stream, raw as usize).is_err());
                        agrees(&stream, raw as usize);
                    }
                }
            }
        }
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
        fn decoder_matches_the_oracle_on_random_streams(
            stream in prop::collection::vec(any::<u8>(), 0..512),
            max_len in 0usize..4096,
        ) {
            agrees(&stream, max_len);
        }

        /// Every byte of a real stream mutated, every truncation, and the
        /// declared length one short and one long.
        #[test]
        fn decoder_matches_the_oracle_on_forged_streams(
            bytes in prop::collection::vec(any::<u8>(), 0..1500),
            alphabet in 1u8..=255,
            flip in 1u8..=255,
        ) {
            // A small alphabet makes long matches, a large one long literals.
            let data: Vec<u8> = bytes.iter().map(|b| b % alphabet).collect();
            let packed = codec().compress(&data);
            let n = data.len();
            agrees(&packed, n);
            for at in 0..packed.len() {
                let mut bad = packed.clone();
                bad[at] ^= flip;
                agrees(&bad, n);
                agrees(&bad, n + 64);
            }
            for cut in 0..packed.len() {
                agrees(&packed[..cut], n);
            }
            let mut pos = 0;
            crate::lz::get_varint(&packed, &mut pos).unwrap();
            for declared in [n.wrapping_sub(1), n + 1] {
                let mut bad = Vec::new();
                put_varint(&mut bad, declared as u64);
                bad.extend_from_slice(&packed[pos..]);
                agrees(&bad, n);
                agrees(&bad, n + 1);
            }
        }

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
