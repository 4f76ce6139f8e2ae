//! nvCOMP-Cascaded-like codec: delta → run-length → bit-packing on `u32`
//! lanes.
//!
//! Structured numeric data (sorted ids, slowly-growing counters) turns into
//! long runs after delta coding; the run values and run lengths are then
//! bit-packed with the [`crate::Bitcomp`] frame packer. Deltas are
//! zigzag-encoded so negative steps stay small.

use crate::bitpack::Bitcomp;
use crate::{Codec, CorruptStream};

/// Cascaded codec: delta + RLE + bit-packing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cascaded;

// Deltas are computed with wrapping 32-bit arithmetic (so any u32 pair has a
// well-defined delta) and zigzag-coded so small negative steps stay small.
#[inline]
fn zigzag(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

#[inline]
fn unzigzag(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(data: &[u8], pos: &mut usize) -> Result<u32, CorruptStream> {
    if *pos + 4 > data.len() {
        return Err(CorruptStream("cascaded header truncated"));
    }
    let v = u32::from_le_bytes(data[*pos..*pos + 4].try_into().unwrap());
    *pos += 4;
    Ok(v)
}

impl Codec for Cascaded {
    fn name(&self) -> &'static str {
        "cascaded"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let n_lanes = data.len() / 4;
        let tail = &data[n_lanes * 4..];

        // Stage 1: delta (zigzag-coded, wrapping).
        let mut prev: u32 = 0;
        let mut deltas = Vec::with_capacity(n_lanes);
        for c in data[..n_lanes * 4].chunks_exact(4) {
            let v = u32::from_le_bytes(c.try_into().unwrap());
            deltas.push(zigzag(v.wrapping_sub(prev) as i32));
            prev = v;
        }

        // Stage 2: run-length over the delta stream.
        let mut values: Vec<u8> = Vec::new();
        let mut counts: Vec<u8> = Vec::new();
        let mut n_runs: u32 = 0;
        let mut i = 0;
        while i < deltas.len() {
            let v = deltas[i];
            let mut run = 1u32;
            while i + (run as usize) < deltas.len() && deltas[i + run as usize] == v {
                run += 1;
            }
            put_u32(&mut values, v);
            put_u32(&mut counts, run);
            n_runs += 1;
            i += run as usize;
        }

        // Stage 3: bit-pack the run values and run lengths.
        let packed_values = Bitcomp.compress(&values);
        let packed_counts = Bitcomp.compress(&counts);

        let mut out = Vec::with_capacity(packed_values.len() + packed_counts.len() + 24);
        put_u32(&mut out, n_lanes as u32);
        put_u32(&mut out, n_runs);
        out.push(tail.len() as u8);
        out.extend_from_slice(tail);
        put_u32(&mut out, packed_values.len() as u32);
        out.extend_from_slice(&packed_values);
        out.extend_from_slice(&packed_counts);
        out
    }

    fn decompress(&self, data: &[u8], max_len: usize) -> Result<Vec<u8>, CorruptStream> {
        let mut pos = 0usize;
        let n_lanes = get_u32(data, &mut pos)? as usize;
        let n_runs = get_u32(data, &mut pos)? as usize;
        if pos >= data.len() && !(n_lanes == 0 && pos == data.len()) {
            return Err(CorruptStream("cascaded header truncated"));
        }
        let tail_len = if pos < data.len() {
            let t = data[pos] as usize;
            pos += 1;
            t
        } else {
            return Err(CorruptStream("cascaded header truncated"));
        };
        if tail_len > 3 || pos + tail_len > data.len() {
            return Err(CorruptStream("cascaded tail truncated"));
        }
        // (Each run covers at least one lane.)
        if n_lanes * 4 + tail_len > max_len || n_runs > n_lanes {
            return Err(CorruptStream(
                "cascaded declared length exceeds its ceiling",
            ));
        }
        let tail = &data[pos..pos + tail_len];
        pos += tail_len;
        let pv_len = get_u32(data, &mut pos)? as usize;
        if pos + pv_len > data.len() {
            return Err(CorruptStream("cascaded values truncated"));
        }
        let values = Bitcomp.decompress(&data[pos..pos + pv_len], n_runs * 4)?;
        let counts = Bitcomp.decompress(&data[pos + pv_len..], n_runs * 4)?;
        if values.len() != n_runs * 4 || counts.len() != n_runs * 4 {
            return Err(CorruptStream("cascaded run arrays inconsistent"));
        }

        let mut out = Vec::with_capacity(n_lanes * 4 + tail_len);
        let mut prev: u32 = 0;
        let mut produced = 0usize;
        for r in 0..n_runs {
            let v = u32::from_le_bytes(values[r * 4..r * 4 + 4].try_into().unwrap());
            let count = u32::from_le_bytes(counts[r * 4..r * 4 + 4].try_into().unwrap()) as usize;
            let delta = unzigzag(v) as u32;
            produced += count;
            if produced > n_lanes {
                return Err(CorruptStream("cascaded produced too many lanes"));
            }
            for _ in 0..count {
                prev = prev.wrapping_add(delta);
                out.extend_from_slice(&prev.to_le_bytes());
            }
        }
        if produced != n_lanes {
            return Err(CorruptStream("cascaded lane count mismatch"));
        }
        out.extend_from_slice(tail);
        Ok(out)
    }

    fn flops_per_byte(&self) -> f64 {
        3.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zigzag_round_trip() {
        for v in [-5i32, -1, 0, 1, 5, i32::MAX, i32::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v, "value {v}");
        }
    }

    #[test]
    fn arithmetic_sequence_collapses() {
        // 0, 3, 6, 9 ... constant delta -> one run.
        let data: Vec<u8> = (0..10_000u32).flat_map(|i| (i * 3).to_le_bytes()).collect();
        let packed = Cascaded.compress(&data);
        assert!(packed.len() < 100, "packed {} bytes", packed.len());
        assert_eq!(Cascaded.decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn step_counters_compress_well() {
        // Counter array where long stretches share a value (GDV-like).
        let data: Vec<u8> = (0..10_000u32)
            .flat_map(|i| (i / 500).to_le_bytes())
            .collect();
        let packed = Cascaded.compress(&data);
        assert!(packed.len() < data.len() / 50);
        assert_eq!(Cascaded.decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn unaligned_tail() {
        let mut data: Vec<u8> = (0..40u32).flat_map(|i| i.to_le_bytes()).collect();
        data.extend_from_slice(&[1, 2]);
        let packed = Cascaded.compress(&data);
        assert_eq!(Cascaded.decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn wrapping_values_round_trip() {
        let data: Vec<u8> = [u32::MAX, 0, u32::MAX, 5]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let packed = Cascaded.compress(&data);
        assert_eq!(Cascaded.decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn forged_run_count_is_refused_before_it_is_produced() {
        // One honest lane, one run — whose count says 2³² − 1.
        let mut forged = Vec::new();
        put_u32(&mut forged, 1); // n_lanes
        put_u32(&mut forged, 1); // n_runs
        forged.push(0); // tail_len
        let values = Bitcomp.compress(&zigzag(5).to_le_bytes());
        put_u32(&mut forged, values.len() as u32);
        forged.extend_from_slice(&values);
        forged.extend_from_slice(&Bitcomp.compress(&u32::MAX.to_le_bytes()));
        assert_eq!(
            Cascaded.decompress(&forged, 4),
            Err(CorruptStream("cascaded produced too many lanes"))
        );
    }

    #[test]
    fn truncation_rejected() {
        let data: Vec<u8> = (0..100u32).flat_map(|i| i.to_le_bytes()).collect();
        let packed = Cascaded.compress(&data);
        for cut in [0, 3, 8, packed.len() - 1] {
            assert!(
                Cascaded.decompress(&packed[..cut], data.len()).is_err(),
                "cut {cut}"
            );
        }
    }

    proptest! {
        #[test]
        fn round_trip(data in prop::collection::vec(any::<u8>(), 0..2048)) {
            let packed = Cascaded.compress(&data);
            prop_assert_eq!(Cascaded.decompress(&packed, data.len()).unwrap(), data);
        }
    }
}
