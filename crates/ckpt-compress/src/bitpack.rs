//! Bitcomp-like frame-based bit packing.
//!
//! Interprets the buffer as little-endian `u32` lanes (GDV counters are
//! small non-negative integers, the sweet spot for this codec). Each frame
//! of 256 lanes stores a reference value (the frame minimum) and packs
//! `value - min` with the frame's worst-case bit width. Trailing bytes that
//! do not fill a lane are stored raw.
//!
//! Frame header: 6 bits of width + 32 bits of minimum; payload: `width`
//! bits per lane.

use crate::bitio::{BitReader, BitWriter};
use crate::{Codec, CorruptStream};

const FRAME: usize = 256;

/// Bitcomp-like integer bit-packing codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bitcomp;

fn width_of(v: u32) -> u32 {
    32 - v.leading_zeros()
}

impl Codec for Bitcomp {
    fn name(&self) -> &'static str {
        "bitcomp"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let n_lanes = data.len() / 4;
        let tail = &data[n_lanes * 4..];

        let mut w = BitWriter::new();
        // Stream header: lane count (u32) and tail length (2 bits worth 0..3).
        w.write(n_lanes as u64, 32);
        w.write(tail.len() as u64, 2);
        for &b in tail {
            w.write(b as u64, 8);
        }

        let mut lanes = data[..n_lanes * 4]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()));
        let mut frame = Vec::with_capacity(FRAME);
        loop {
            frame.clear();
            frame.extend(lanes.by_ref().take(FRAME));
            if frame.is_empty() {
                break;
            }
            let min = *frame.iter().min().unwrap();
            let width = frame.iter().map(|&v| width_of(v - min)).max().unwrap();
            w.write(width as u64, 6);
            w.write(min as u64, 32);
            for &v in &frame {
                w.write((v - min) as u64, width);
            }
            if frame.len() < FRAME {
                break;
            }
        }
        w.finish()
    }

    fn decompress(&self, data: &[u8], max_len: usize) -> Result<Vec<u8>, CorruptStream> {
        let mut r = BitReader::new(data);
        let n_lanes = r.read(32)? as usize;
        let tail_len = r.read(2)? as usize;
        if n_lanes * 4 + tail_len > max_len {
            return Err(CorruptStream("bitcomp declared length exceeds its ceiling"));
        }
        let mut tail = [0u8; 3];
        for t in tail.iter_mut().take(tail_len) {
            *t = r.read(8)? as u8;
        }

        let mut out = Vec::with_capacity(n_lanes * 4 + tail_len);
        let mut remaining = n_lanes;
        while remaining > 0 {
            let width = r.read(6)? as u32;
            if width > 32 {
                return Err(CorruptStream("bitcomp width > 32"));
            }
            let min = r.read(32)? as u32;
            let in_frame = remaining.min(FRAME);
            for _ in 0..in_frame {
                let delta = r.read(width)? as u32;
                let v = min.wrapping_add(delta);
                out.extend_from_slice(&v.to_le_bytes());
            }
            remaining -= in_frame;
        }
        out.extend_from_slice(&tail[..tail_len]);
        Ok(out)
    }

    fn flops_per_byte(&self) -> f64 {
        1.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_counters_pack_tightly() {
        // 10k u32 counters in 0..16: ≤ 4 bits each + headers ≈ 5 KiB
        // versus 40 KiB raw.
        let data: Vec<u8> = (0..10_000u32)
            .flat_map(|i| (i % 16).to_le_bytes())
            .collect();
        let packed = Bitcomp.compress(&data);
        assert!(
            packed.len() < data.len() / 7,
            "packed {} bytes",
            packed.len()
        );
        assert_eq!(Bitcomp.decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn constant_lanes_take_zero_width() {
        let data: Vec<u8> = std::iter::repeat_n(123456u32.to_le_bytes(), 1024)
            .flatten()
            .collect();
        let packed = Bitcomp.compress(&data);
        // 4 frames × 38-bit headers + stream header ≈ 24 bytes.
        assert!(packed.len() < 40, "packed {} bytes", packed.len());
        assert_eq!(Bitcomp.decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn unaligned_tail_round_trips() {
        let mut data: Vec<u8> = (0..100u32).flat_map(|i| i.to_le_bytes()).collect();
        data.extend_from_slice(&[0xaa, 0xbb, 0xcc]);
        let packed = Bitcomp.compress(&data);
        assert_eq!(Bitcomp.decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn tiny_inputs() {
        for n in 0..9usize {
            let data: Vec<u8> = (0..n as u8).collect();
            let packed = Bitcomp.compress(&data);
            assert_eq!(
                Bitcomp.decompress(&packed, data.len()).unwrap(),
                data,
                "len {n}"
            );
        }
    }

    #[test]
    fn full_range_values() {
        let data: Vec<u8> = [0u32, u32::MAX, 1, u32::MAX - 1, 1 << 31]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let packed = Bitcomp.compress(&data);
        assert_eq!(Bitcomp.decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn forged_lane_count_is_refused_before_it_is_reserved() {
        // 2³² − 1 lanes declared by an 8-byte stream.
        assert_eq!(
            Bitcomp.decompress(&[0xff; 8], 1 << 20),
            Err(CorruptStream("bitcomp declared length exceeds its ceiling"))
        );
    }

    #[test]
    fn truncated_stream_rejected() {
        let data: Vec<u8> = (0..100u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut packed = Bitcomp.compress(&data);
        packed.truncate(packed.len() / 2);
        assert!(Bitcomp.decompress(&packed, data.len()).is_err());
    }

    proptest! {
        #[test]
        fn round_trip(data in prop::collection::vec(any::<u8>(), 0..2048)) {
            let packed = Bitcomp.compress(&data);
            prop_assert_eq!(Bitcomp.decompress(&packed, data.len()).unwrap(), data);
        }

        #[test]
        fn round_trip_counters(vals in prop::collection::vec(0u32..1000, 0..600)) {
            let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            let packed = Bitcomp.compress(&data);
            prop_assert_eq!(Bitcomp.decompress(&packed, data.len()).unwrap(), data);
        }
    }
}
