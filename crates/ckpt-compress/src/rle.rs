//! PackBits-style run-length coding.
//!
//! Control byte `c`:
//! * `c < 128`  — literal run: the next `c + 1` bytes are copied verbatim;
//! * `c ≥ 128`  — repeat run: the next byte repeats `c - 126` times
//!   (run lengths 2..=129).
//!
//! Worst case (no runs) costs one control byte per 128 literals (< 1%
//! expansion). GDV counter arrays, which are mostly zero early in a run,
//! compress extremely well.

use crate::{Codec, CorruptStream};

/// PackBits-style run-length codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rle;

const MAX_LITERAL: usize = 128;
const MAX_RUN: usize = 129;

impl Codec for Rle {
    fn name(&self) -> &'static str {
        "rle"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 4 + 16);
        let mut i = 0;
        let mut lit_start = 0;

        let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
            let mut s = from;
            while s < to {
                let n = (to - s).min(MAX_LITERAL);
                out.push((n - 1) as u8);
                out.extend_from_slice(&data[s..s + n]);
                s += n;
            }
        };

        while i < data.len() {
            // Measure the run starting at i.
            let b = data[i];
            let mut run = 1;
            while i + run < data.len() && data[i + run] == b && run < MAX_RUN {
                run += 1;
            }
            if run >= 2 {
                flush_literals(&mut out, lit_start, i);
                out.push((run + 126) as u8);
                out.push(b);
                i += run;
                lit_start = i;
            } else {
                i += 1;
            }
        }
        flush_literals(&mut out, lit_start, data.len());
        out
    }

    fn decompress(&self, data: &[u8], max_len: usize) -> Result<Vec<u8>, CorruptStream> {
        let mut out = Vec::with_capacity((data.len() * 2).min(max_len));
        let mut i = 0;
        while i < data.len() {
            let c = data[i] as usize;
            i += 1;
            let n = if c < 128 { c + 1 } else { c - 126 };
            if n > max_len - out.len() {
                return Err(CorruptStream("rle output exceeds its ceiling"));
            }
            if c < 128 {
                if i + n > data.len() {
                    return Err(CorruptStream("rle literal run past end"));
                }
                out.extend_from_slice(&data[i..i + n]);
                i += n;
            } else {
                if i >= data.len() {
                    return Err(CorruptStream("rle repeat run missing byte"));
                }
                let b = data[i];
                i += 1;
                out.extend(std::iter::repeat_n(b, n));
            }
        }
        Ok(out)
    }

    fn flops_per_byte(&self) -> f64 {
        2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constant_run() {
        let data = vec![7u8; 1000];
        let packed = Rle.compress(&data);
        assert!(packed.len() <= 2 * 1000_usize.div_ceil(MAX_RUN) + 2);
        assert_eq!(Rle.decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn incompressible_expands_less_than_one_percent() {
        let data: Vec<u8> = (0..10_000u32)
            .map(|i| (i.wrapping_mul(97) % 251) as u8)
            .collect();
        let packed = Rle.compress(&data);
        assert!(packed.len() <= data.len() + data.len() / 100 + 2);
        assert_eq!(Rle.decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn two_byte_runs_are_encoded() {
        let data = b"aabbccddee".to_vec();
        let packed = Rle.compress(&data);
        assert_eq!(Rle.decompress(&packed, data.len()).unwrap(), data);
        assert_eq!(packed.len(), 10); // five repeat runs of 2, each 2 bytes
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        assert!(Rle.decompress(&[5], 6).is_err()); // literal run of 6 with no bytes
        assert!(Rle.decompress(&[200], 74).is_err()); // repeat run missing byte
    }

    proptest! {
        #[test]
        fn round_trip(data in prop::collection::vec(any::<u8>(), 0..4096)) {
            let packed = Rle.compress(&data);
            prop_assert_eq!(Rle.decompress(&packed, data.len()).unwrap(), data);
        }

        #[test]
        fn round_trip_runny(data in prop::collection::vec(0u8..4, 0..4096)) {
            let packed = Rle.compress(&data);
            prop_assert_eq!(Rle.decompress(&packed, data.len()).unwrap(), data);
        }
    }
}
