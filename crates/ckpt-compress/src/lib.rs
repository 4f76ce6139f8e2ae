//! Lossless compressors standing in for the nvCOMP baselines of §3.2.
//!
//! The paper compares its de-duplication method against "several lossless
//! compression algorithms included with the open-source nvCOMP library":
//! LZ4, Snappy, Cascaded, Bitcomp, Deflate and Zstd. nvCOMP is a
//! closed-source CUDA library, so this crate implements from-scratch members
//! of the same algorithmic families:
//!
//! | nvCOMP codec | This crate | Family |
//! |---|---|---|
//! | LZ4 | [`Lz4Like`] | byte-aligned LZ77, 64 KiB window, token format |
//! | Snappy | [`SnappyLike`] | fast greedy LZ77, no chains, tag bytes |
//! | Cascaded | [`Cascaded`] | delta + run-length + bit-packing on `u32` lanes |
//! | Bitcomp | [`Bitcomp`] | frame-based bit-packing of `u32` lanes |
//! | Deflate | [`DeflateLike`] | LZSS + canonical Huffman entropy stage |
//! | Zstd | [`ZstdLike`] | large-window LZ77 + canonical Huffman |
//! | (RLE) | [`Rle`] | PackBits-style run-length coding |
//!
//! What matters for reproducing Figure 5 is the *family behaviour*: these
//! codecs exploit only redundancy **within** one checkpoint, so their ratio
//! is flat in the checkpoint count, while de-duplication exploits the whole
//! record and improves with frequency. The implementations favour clarity
//! and correct round-trips over ratio tuning; their relative ordering
//! (Zstd-like ≥ Deflate-like ≥ LZ4-like ≥ Snappy-like on most data) matches
//! the originals'.
//!
//! ```
//! use ckpt_compress::{Codec, ZstdLike};
//! let codec = ZstdLike::default();
//! let data = b"abcabcabcabcabcabc".repeat(10);
//! let packed = codec.compress(&data);
//! assert!(packed.len() < data.len());
//! assert_eq!(codec.decompress(&packed, data.len()).unwrap(), data);
//! ```

pub mod bitio;
pub mod bitpack;
pub mod blocks;
pub mod cascaded;
pub mod huffman;
pub mod lz;
pub mod lz4like;
pub mod rle;
pub mod snappylike;
pub mod zlike;

pub use bitpack::Bitcomp;
pub use cascaded::Cascaded;
pub use lz4like::Lz4Like;
pub use rle::Rle;
pub use snappylike::SnappyLike;
pub use zlike::{DeflateLike, ZstdLike};

/// Decompression failure: the input is not a valid stream for the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptStream(pub &'static str);

impl std::fmt::Display for CorruptStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt compressed stream: {}", self.0)
    }
}

impl std::error::Error for CorruptStream {}

/// A lossless block codec.
pub trait Codec: Send + Sync {
    /// Short identifier used in benchmark tables ("lz4", "zstd", …).
    fn name(&self) -> &'static str;

    /// Compress `data` into a self-contained block.
    fn compress(&self, data: &[u8]) -> Vec<u8>;

    /// Invert [`compress`](Self::compress). `max_len` is the most the
    /// caller knows the block may hold (its length, when recorded beside
    /// it): a stream that declares or would produce more is corrupt, and
    /// is refused before any memory is reserved for it.
    fn decompress(&self, data: &[u8], max_len: usize) -> Result<Vec<u8>, CorruptStream>;

    /// [`decompress`](Self::decompress) into caller-owned memory: `block`
    /// must decode to exactly `out.len()` bytes, and a stream that declares
    /// or produces any other length is corrupt. What `out` holds after an
    /// error is unspecified. The default decompresses and copies.
    fn decompress_into(&self, block: &[u8], out: &mut [u8]) -> Result<(), CorruptStream> {
        let raw = self.decompress(block, out.len())?;
        if raw.len() != out.len() {
            return Err(CorruptStream("block decoded to the wrong length"));
        }
        out.copy_from_slice(&raw);
        Ok(())
    }

    /// Approximate compression cost in ALU-op-equivalents per input byte,
    /// used by the benchmark harness to model GPU compression throughput.
    /// Calibrated loosely to nvCOMP's published throughput ordering.
    fn flops_per_byte(&self) -> f64 {
        8.0
    }
}

/// All codecs, in the order the paper's Figure 5 legend lists them.
pub fn all_codecs() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(Lz4Like::default()),
        Box::new(SnappyLike::default()),
        Box::new(Cascaded),
        Box::new(Bitcomp),
        Box::new(DeflateLike::default()),
        Box::new(ZstdLike::default()),
        Box::new(Rle),
    ]
}

/// Stable wire-format identifiers for each codec (the codec byte of a
/// compressed frame). `0` is reserved for "no compression".
pub fn codec_id(name: &str) -> Option<u8> {
    match name {
        "lz4" => Some(1),
        "snappy" => Some(2),
        "cascaded" => Some(3),
        "bitcomp" => Some(4),
        "deflate" => Some(5),
        "zstd" => Some(6),
        "rle" => Some(7),
        _ => None,
    }
}

/// Instantiate a codec from its wire identifier.
pub fn codec_by_id(id: u8) -> Option<Box<dyn Codec>> {
    match id {
        1 => Some(Box::new(Lz4Like::default())),
        2 => Some(Box::new(SnappyLike::default())),
        3 => Some(Box::new(Cascaded)),
        4 => Some(Box::new(Bitcomp)),
        5 => Some(Box::new(DeflateLike::default())),
        6 => Some(Box::new(ZstdLike::default())),
        7 => Some(Box::new(Rle)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_codecs_roundtrip_mixed_data() {
        let mut data = Vec::new();
        data.extend(std::iter::repeat_n(0u8, 1000)); // runs
        data.extend((0..1000u32).flat_map(|i| (i / 7).to_le_bytes())); // counters
        data.extend(b"the quick brown fox ".repeat(50)); // text
        data.extend((0..997u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)); // noise

        for codec in all_codecs() {
            let packed = codec.compress(&data);
            let back = codec.decompress(&packed, data.len()).unwrap_or_else(|e| {
                panic!("{} failed to decompress its own output: {e}", codec.name())
            });
            assert_eq!(back, data, "{} round trip", codec.name());
        }
    }

    #[test]
    fn all_codecs_handle_empty_input() {
        for codec in all_codecs() {
            let packed = codec.compress(&[]);
            assert_eq!(
                codec.decompress(&packed, 0).unwrap(),
                Vec::<u8>::new(),
                "{}",
                codec.name()
            );
        }
    }

    #[test]
    fn every_codec_refuses_a_stream_that_holds_more_than_its_ceiling() {
        let mut data = vec![0u8; 700];
        data.extend((0..400u32).flat_map(|i| (i / 3).to_le_bytes()));
        data.extend(b"abcabcabd".repeat(30));
        for codec in all_codecs() {
            let packed = codec.compress(&data);
            assert_eq!(codec.decompress(&packed, data.len()).unwrap(), data);
            for max_len in [data.len() - 1, data.len() / 2, 0] {
                assert!(
                    codec.decompress(&packed, max_len).is_err(),
                    "{} produced past a ceiling of {max_len}",
                    codec.name()
                );
            }
        }
    }

    #[test]
    fn codec_names_are_unique() {
        let names: Vec<_> = all_codecs().iter().map(|c| c.name()).collect();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn codec_ids_round_trip() {
        for codec in all_codecs() {
            let id = codec_id(codec.name()).expect("registered id");
            assert_ne!(id, 0, "{}", codec.name());
            let back = codec_by_id(id).expect("instantiable");
            assert_eq!(back.name(), codec.name());
        }
        assert!(codec_id("nope").is_none());
        assert!(codec_by_id(0).is_none());
        assert!(codec_by_id(99).is_none());
    }

    #[test]
    fn compressible_data_actually_shrinks() {
        let data = vec![42u8; 100_000];
        for codec in all_codecs() {
            let packed = codec.compress(&data);
            assert!(
                packed.len() < data.len() / 10,
                "{} only reached {} bytes on constant input",
                codec.name(),
                packed.len()
            );
        }
    }
}
