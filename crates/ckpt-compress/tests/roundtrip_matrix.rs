//! Round-trip matrix: every codec × every input shape that has bitten a
//! compressor somewhere — empty, single byte, all-identical runs,
//! incompressible noise, and multi-megabyte buffers — plus the store
//! fallback property of the block container (a codec that would expand a
//! payload never does so through [`ckpt_compress::blocks`]).

use ckpt_compress::blocks::{compress_blocks, container_overhead, decompress_blocks};
use ckpt_compress::{all_codecs, Codec};
use proptest::prelude::*;

fn assert_roundtrip(codec: &dyn Codec, data: &[u8], label: &str) {
    let packed = codec.compress(data);
    let back = codec
        .decompress(&packed, data.len())
        .unwrap_or_else(|e| panic!("{} failed on {label}: {e}", codec.name()));
    assert_eq!(back, data, "{} corrupted {label}", codec.name());
}

/// Deterministic pseudo-random bytes (xorshift-mixed counter): effectively
/// incompressible for every codec family in this crate.
fn noise(len: usize, seed: u32) -> Vec<u8> {
    (0..len as u32)
        .map(|i| {
            let mut x = i.wrapping_mul(2654435761).wrapping_add(seed);
            x ^= x >> 15;
            x = x.wrapping_mul(0x2c1b3c6d);
            x ^= x >> 12;
            (x >> 8) as u8
        })
        .collect()
}

#[test]
fn fixed_shape_matrix() {
    let four_mib = 4 * 1024 * 1024 + 37; // off a power of two on purpose
    let shapes: Vec<(&str, Vec<u8>)> = vec![
        ("empty", Vec::new()),
        ("single byte", vec![0xa5]),
        ("two identical", vec![7, 7]),
        ("all-identical 1 MiB", vec![42u8; 1 << 20]),
        ("incompressible 256 KiB", noise(256 * 1024, 1)),
        (
            "4 MiB+ counters",
            (0..four_mib as u32 / 4)
                .flat_map(|i| (i / 11).to_le_bytes())
                .chain([9u8; 1])
                .collect(),
        ),
        ("4 MiB+ noise", noise(four_mib, 2)),
    ];
    for codec in all_codecs() {
        for (label, data) in &shapes {
            assert_roundtrip(&*codec, data, label);
        }
    }
}

#[test]
fn store_fallback_bounds_expansion() {
    // Shapes chosen to expand under at least some codec when compressed
    // naively; through the block container the overhead is bounded by the
    // table of contents regardless of the codec's behaviour.
    let shapes: Vec<Vec<u8>> = vec![
        vec![0x5b],
        noise(100, 3),
        noise(64 * 1024 + 13, 4),
        noise(1 << 20, 5),
    ];
    let block = 16 * 1024;
    for codec in all_codecs() {
        for data in &shapes {
            let packed = compress_blocks(&*codec, data, block);
            assert!(
                packed.len() <= data.len() + container_overhead(data.len(), block),
                "{}: container {} exceeds input {} + overhead {}",
                codec.name(),
                packed.len(),
                data.len(),
                container_overhead(data.len(), block)
            );
            assert_eq!(
                decompress_blocks(&*codec, &packed, data.len()).unwrap(),
                *data
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_buffers_roundtrip_every_codec(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        for codec in all_codecs() {
            assert_roundtrip(&*codec, &data, "proptest buffer");
        }
    }

    #[test]
    fn structured_buffers_roundtrip_every_codec(
        stride in 1usize..64,
        modulus in 1u32..300,
        len in 0usize..40_000,
    ) {
        let data: Vec<u8> = (0..len as u32).map(|i| ((i / stride as u32) % modulus) as u8).collect();
        for codec in all_codecs() {
            assert_roundtrip(&*codec, &data, "structured buffer");
            let packed = compress_blocks(&*codec, &data, 4096);
            prop_assert!(packed.len() <= data.len() + container_overhead(data.len(), 4096));
            prop_assert_eq!(decompress_blocks(&*codec, &packed, data.len()).unwrap(), data.clone());
        }
    }
}
