//! Post-dedup object compression for the flush path.
//!
//! De-duplicated records still carry first-occurrence chunk payloads that
//! compress well, and at scale the modeled SSD/PFS write time — not host
//! hashing — dominates end-to-end checkpoint latency. This module shrinks
//! bytes-on-wire *inside the flusher*, off the producer's critical path:
//! the submit fast path stages raw bytes in host memory exactly as before,
//! and the background drain compresses each object on the shared
//! work-stealing pool (a [`ckpt_compress::blocks`] container, so one
//! object fans out across workers) before it hops to the SSD or PFS.
//!
//! # Policy
//!
//! [`CompressionPolicy`] picks the codec per object:
//!
//! * `Off` — codec 0 everywhere; byte-identical to the pre-compression
//!   runtime.
//! * `Fixed(codec)` — every object through one codec, still with the
//!   store fallback when the container would not shrink it.
//! * `Adaptive` — sample the object's first [`SAMPLE_LEN`] bytes through
//!   the candidates (`ZstdLike`, `Lz4Like`, `Cascaded`), estimate the
//!   ratio, and pick the candidate maximizing estimated bytes saved per
//!   unit of encode cost (`(1 − ratio) / flops_per_byte`); if even the
//!   best sample ratio clears [`STORE_RATIO`], store uncompressed. The
//!   trials run cheapest first and skip a candidate that cannot win, so a
//!   compressible object rarely pays for the costliest one.
//!
//! Either way an object whose container fails to shrink below its raw size
//! (frame extension included) is stored with codec 0 — compression can
//! reorder the flush economics but never inflate a tier.

use crate::tier::StoredObject;
use ckpt_compress::blocks::{compress_blocks, DEFAULT_BLOCK_SIZE};
use ckpt_compress::{codec_by_id, Codec};
use ckpt_dedup::frame::FRAME_EXT_LEN;
use ckpt_telemetry::{Gauge, LazyCounter, Registry};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Sampled prefix per object for adaptive codec selection.
pub const SAMPLE_LEN: usize = 64 * 1024;

/// Sample compression ratio (compressed/raw) above which adaptive mode
/// stores the object uncompressed: the modeled write-time win would not
/// cover the decode cost on restore.
pub const STORE_RATIO: f64 = 0.95;

/// Objects smaller than this skip selection and compression outright: the
/// frame extension plus container overhead eats the win.
pub const MIN_COMPRESS_LEN: usize = 1024;

/// Candidate codec ids for adaptive selection, in the order a tied score
/// goes by: ZstdLike (6), Lz4Like (1), Cascaded (3). They are listed
/// costliest first and probed in reverse — Cascaded (3 flops/B), Lz4Like
/// (6), ZstdLike (12) — and a candidate that cannot beat the best score so
/// far is not probed.
pub const ADAPTIVE_CANDIDATES: [u8; 3] = [6, 1, 3];

/// Per-object codec selection for the flush path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompressionPolicy {
    /// No compression (the pre-compression runtime, byte for byte).
    #[default]
    Off,
    /// One codec for every object (by wire id, see
    /// [`ckpt_compress::codec_by_id`]).
    Fixed(u8),
    /// Sample-based per-object selection among [`ADAPTIVE_CANDIDATES`].
    Adaptive,
}

impl CompressionPolicy {
    /// Parse a CLI/bench spelling: `off`, `adaptive`, or a codec name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" | "none" => Some(CompressionPolicy::Off),
            "adaptive" => Some(CompressionPolicy::Adaptive),
            name => ckpt_compress::codec_id(name).map(CompressionPolicy::Fixed),
        }
    }

    pub fn label(&self) -> String {
        match self {
            CompressionPolicy::Off => "off".into(),
            CompressionPolicy::Adaptive => "adaptive".into(),
            CompressionPolicy::Fixed(id) => codec_by_id(*id)
                .map(|c| c.name().to_string())
                .unwrap_or_else(|| format!("codec{id}")),
        }
    }
}

/// `compress/*` telemetry. Every metric registers lazily on its first
/// event, so runs with compression off (or no compressed frames read)
/// export exactly the pre-existing schema.
///
/// | metric | kind | meaning |
/// |---|---|---|
/// | `compress/bytes_in` | counter | uncompressed bytes entering the encoder |
/// | `compress/bytes_out` | counter | stored bytes leaving it (incl. store fallbacks) |
/// | `compress/ratio_pct` | gauge | cumulative `100·bytes_out/bytes_in` |
/// | `compress/select_ns` | counter | adaptive sampling time |
/// | `compress/encode_ns` | counter | container encode time (pool-parallel) |
/// | `compress/decode_ns` | counter | container decode time on reads |
/// | `compress/objects/<codec>` | counter | objects stored per codec (`store` = fallback) |
pub struct CompressMetrics {
    /// For the gauge and the per-codec counters, whose names are dynamic.
    registry: Option<Arc<Registry>>,
    bytes_in: LazyCounter,
    bytes_out: LazyCounter,
    ratio_pct: OnceLock<Arc<Gauge>>,
    select_ns: LazyCounter,
    encode_ns: LazyCounter,
    decode_ns: LazyCounter,
}

impl CompressMetrics {
    pub fn bound(registry: Arc<Registry>) -> Self {
        Self::over(Some(registry))
    }

    /// A sink that counts nothing (chains built without telemetry).
    pub fn detached() -> Self {
        Self::over(None)
    }

    fn over(registry: Option<Arc<Registry>>) -> Self {
        let lazy = |name| LazyCounter::new(registry.as_ref(), name);
        CompressMetrics {
            bytes_in: lazy("compress/bytes_in"),
            bytes_out: lazy("compress/bytes_out"),
            ratio_pct: OnceLock::new(),
            select_ns: lazy("compress/select_ns"),
            encode_ns: lazy("compress/encode_ns"),
            decode_ns: lazy("compress/decode_ns"),
            registry,
        }
    }

    fn on_select(&self, ns: u64) {
        self.select_ns.add(ns);
    }

    fn on_encode(&self, codec_label: &str, bytes_in: u64, bytes_out: u64, ns: u64) {
        let Some(reg) = self.registry.as_ref() else {
            return;
        };
        self.bytes_in.add(bytes_in);
        self.bytes_out.add(bytes_out);
        self.encode_ns.add(ns);
        reg.counter(&format!("compress/objects/{codec_label}"))
            .inc();
        let total_in = self.bytes_in.get().max(1);
        self.ratio_pct
            .get_or_init(|| reg.gauge("compress/ratio_pct"))
            .set((self.bytes_out.get() * 100 / total_in) as i64);
    }

    /// Record one container decode (called from the tier read path).
    pub fn on_decode(&self, ns: u64) {
        self.decode_ns.add(ns);
    }
}

/// The flusher's encoder: applies a [`CompressionPolicy`] to raw staged
/// payloads, producing [`StoredObject`]s ready for the lower tiers.
pub struct CompressionEngine {
    policy: CompressionPolicy,
    metrics: Arc<CompressMetrics>,
}

impl CompressionEngine {
    pub fn new(policy: CompressionPolicy, metrics: Arc<CompressMetrics>) -> Self {
        CompressionEngine { policy, metrics }
    }

    pub fn policy(&self) -> CompressionPolicy {
        self.policy
    }

    pub fn enabled(&self) -> bool {
        self.policy != CompressionPolicy::Off
    }

    /// Encode one raw object (or plain payload) according to the policy.
    /// Infallible: any path that cannot shrink the payload hands `raw`
    /// back untouched — with the frame it carries, if it was read out of a
    /// tier, so storing it again mints nothing.
    pub fn encode(&self, raw: impl Into<StoredObject>) -> StoredObject {
        let raw: StoredObject = raw.into();
        debug_assert!(!raw.is_compressed(), "encode takes raw objects");
        let payload = raw.payload();
        let len = payload.len() as u64;
        let codec_id = match self.policy {
            CompressionPolicy::Off => return raw,
            _ if payload.len() < MIN_COMPRESS_LEN => None,
            CompressionPolicy::Fixed(id) => Some(id).filter(|id| codec_by_id(*id).is_some()),
            CompressionPolicy::Adaptive => self.select(payload),
        };
        let Some(codec_id) = codec_id else {
            self.metrics.on_encode("store", len, len, 0);
            return raw;
        };
        let codec = codec_by_id(codec_id).expect("validated codec id");
        #[expect(
            clippy::disallowed_methods,
            reason = "times the flush stage's encode into `compress/encode_ns`"
        )]
        let t0 = Instant::now();
        #[expect(
            clippy::disallowed_methods,
            reason = "the flush stage: the one compression of a stored object"
        )]
        let container = compress_blocks(&*codec, payload, DEFAULT_BLOCK_SIZE);
        let ns = t0.elapsed().as_nanos() as u64;
        // Object-level store fallback: the container (plus the frame's
        // uncompressed-length extension) must beat the raw payload.
        if container.len() + FRAME_EXT_LEN >= payload.len() {
            self.metrics.on_encode("store", len, len, ns);
            return raw;
        }
        let stored = (container.len() + FRAME_EXT_LEN) as u64;
        self.metrics.on_encode(codec.name(), len, stored, ns);
        StoredObject::encoded(codec_id, len, container)
    }

    /// Adaptive selection: compress a prefix sample through the candidates
    /// and score `(1 − ratio) / flops_per_byte` — estimated bytes saved per
    /// unit encode cost. Returns `None` when storing wins.
    fn select(&self, payload: &[u8]) -> Option<u8> {
        #[expect(
            clippy::disallowed_methods,
            reason = "times adaptive selection into `compress/select_ns`"
        )]
        let t0 = Instant::now();
        let sample = &payload[..payload.len().min(SAMPLE_LEN)];
        #[expect(
            clippy::disallowed_methods,
            reason = "adaptive selection compresses a sample through each candidate"
        )]
        let best = best_candidate(|codec| {
            codec.compress(sample).len() as f64 / sample.len().max(1) as f64
        });
        self.metrics.on_select(t0.elapsed().as_nanos() as u64);
        best.filter(|&(_, ratio)| ratio < STORE_RATIO)
            .map(|(id, _)| id)
    }
}

/// The candidate of the highest score `(1 − ratio) / flops_per_byte` over
/// the sample ratios `trial` measures, a tie going to the earliest in
/// [`ADAPTIVE_CANDIDATES`], with its ratio. Candidates are tried cheapest
/// first — the list reversed — and the trials stop at the first whose
/// ceiling — its score at ratio 0, `1 / flops_per_byte` — is below the best
/// score so far: neither it nor a costlier one can win. The choice is the
/// one trying every candidate makes.
fn best_candidate(mut trial: impl FnMut(&dyn Codec) -> f64) -> Option<(u8, f64)> {
    let mut best: Option<(u8, f64, f64)> = None; // (id, score, ratio)
    for &id in ADAPTIVE_CANDIDATES.iter().rev() {
        let codec = codec_by_id(id).expect("registered candidate");
        let cost = codec.flops_per_byte().max(1.0);
        if best.is_some_and(|(_, score, _)| 1.0 / cost < score) {
            break;
        }
        let ratio = trial(&*codec);
        let score = (1.0 - ratio) / cost;
        if best.is_none_or(|(_, s, _)| score >= s) {
            best = Some((id, score, ratio));
        }
    }
    best.map(|(id, _, ratio)| (id, ratio))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(policy: CompressionPolicy) -> (CompressionEngine, Arc<Registry>) {
        let reg = Arc::new(Registry::new());
        let metrics = Arc::new(CompressMetrics::bound(Arc::clone(&reg)));
        (CompressionEngine::new(policy, metrics), reg)
    }

    fn counters(vals: &[u32]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed as u8
            })
            .collect()
    }

    #[test]
    fn off_policy_is_a_passthrough_with_no_metrics() {
        let (eng, reg) = engine(CompressionPolicy::Off);
        let data = counters(&(0..100_000).map(|i| i / 9).collect::<Vec<_>>());
        let obj = eng.encode(data.clone());
        assert_eq!(obj.codec(), 0);
        assert_eq!(*obj.payload(), data);
        // Lazy metrics: the schema must not grow when compression is off.
        assert!(!reg.snapshot_json().contains("compress/"));
    }

    #[test]
    fn fixed_policy_compresses_and_counts() {
        let (eng, reg) = engine(CompressionPolicy::Fixed(6));
        let data = counters(&(0..100_000).map(|i| i / 9).collect::<Vec<_>>());
        let obj = eng.encode(data.clone());
        assert_eq!(obj.codec(), 6);
        assert_eq!(obj.uncompressed_len(), data.len() as u64);
        assert!(obj.payload().len() < data.len() / 2);
        assert_eq!(obj.decode().unwrap(), data);
        let json = reg.snapshot_json();
        for key in [
            "compress/bytes_in",
            "compress/bytes_out",
            "compress/ratio_pct",
            "compress/encode_ns",
            "compress/objects/zstd",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(reg.gauge("compress/ratio_pct").get() < 100);
    }

    #[test]
    fn incompressible_objects_fall_back_to_store() {
        let (eng, reg) = engine(CompressionPolicy::Fixed(6));
        let noise = noise(50_000, 0x1234_5678);
        let obj = eng.encode(noise.clone());
        assert_eq!(obj.codec(), 0, "noise must not be stored compressed");
        assert_eq!(*obj.payload(), noise);
        assert_eq!(reg.counter("compress/objects/store").get(), 1);
    }

    #[test]
    fn adaptive_picks_a_codec_on_counters_and_store_on_noise() {
        let (eng, _reg) = engine(CompressionPolicy::Adaptive);
        let data = counters(&(0..200_000).map(|i| i / 11).collect::<Vec<_>>());
        let obj = eng.encode(data.clone());
        assert_ne!(obj.codec(), 0, "counter lanes are compressible");
        assert_eq!(obj.decode().unwrap(), data);

        let noise = noise(200_000, 0x9e37_79b9);
        let obj = eng.encode(noise.clone());
        assert_eq!(obj.codec(), 0);
        assert_eq!(*obj.payload(), noise);
    }

    #[test]
    fn tiny_objects_skip_compression() {
        let (eng, reg) = engine(CompressionPolicy::Adaptive);
        let obj = eng.encode(vec![0u8; MIN_COMPRESS_LEN - 1]);
        assert_eq!(obj.codec(), 0);
        assert_eq!(reg.counter("compress/objects/store").get(), 1);
        assert_eq!(reg.counter("compress/select_ns").get(), 0);
    }

    /// The selection before its trials were pruned, kept as the oracle of
    /// `pruned_selection_matches_the_exhaustive_oracle`: every candidate
    /// tried in [`ADAPTIVE_CANDIDATES`] order, the first best score kept.
    fn exhaustive(mut trial: impl FnMut(&dyn Codec) -> f64) -> Option<(u8, f64)> {
        let mut best: Option<(u8, f64, f64)> = None;
        for id in ADAPTIVE_CANDIDATES {
            let codec = codec_by_id(id).expect("registered candidate");
            let ratio = trial(&*codec);
            let score = (1.0 - ratio) / codec.flops_per_byte().max(1.0);
            if best.is_none_or(|(_, s, _)| score > s) {
                best = Some((id, score, ratio));
            }
        }
        best.map(|(id, _, ratio)| (id, ratio))
    }

    /// A selection over the sample ratios its trial closure measures.
    type Selection = fn(&mut dyn FnMut(&dyn Codec) -> f64) -> Option<(u8, f64)>;

    /// A rank-dedup entry table: 13-byte slots whose chunk index mostly
    /// counts up, as `cluster_full`'s records carry.
    fn table(slots: usize, mut seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(slots * 13);
        let mut chunk = 0u32;
        for i in 0..slots as u32 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            if seed.is_multiple_of(41) {
                chunk = (seed >> 20) as u32 % 60_000;
            }
            out.push(1);
            out.extend_from_slice(&(seed as u32 >> 30).to_le_bytes());
            out.extend_from_slice(&(i / 600).to_le_bytes());
            out.extend_from_slice(&chunk.to_le_bytes());
            chunk += 1;
        }
        out
    }

    proptest::proptest! {
        /// Pruned selection against trying every candidate: the same codec
        /// and ratio, and never more trials — over real samples (noise,
        /// counters, zeros, entry tables, and mixes of them) and over
        /// crafted ratios whose scores tie exactly: dyadic `x` puts ratio
        /// `1 − k·x` on the codec of `k·3` flops/B, so any subset of the
        /// three scores `x / 3`.
        #[test]
        fn pruned_selection_matches_the_exhaustive_oracle(
            kind in 0u64..6,
            len in 1024usize..20_000,
            seed in proptest::prelude::any::<u64>(),
            x64 in 1u64..24,
            tied in 0u64..8,
        ) {
            let mixed = |a: Vec<u8>, b: Vec<u8>| -> Vec<u8> {
                a[..len / 2].iter().chain(&b[len / 2..]).copied().collect()
            };
            let counter = |len: usize| {
                counters(&(0..len as u32 / 4 + 1).map(|i| i / (1 + seed as u32 % 13)).collect::<Vec<_>>())
            };
            let data = match kind {
                0 => noise(len, seed | 1),
                1 => counter(len),
                2 => vec![0u8; len],
                3 => table(len / 13 + 1, seed | 1),
                _ => mixed(noise(len, seed | 1), table(len / 13 + 1, seed | 1)),
            };
            let trials = |select: Selection| {
                let mut tried = 0;
                let best = select(&mut |codec: &dyn Codec| {
                    tried += 1;
                    codec.compress(&data).len() as f64 / data.len() as f64
                });
                (best, tried)
            };
            let (pruned, pruned_tried) = trials(|t| best_candidate(t));
            let (oracle, oracle_tried) = trials(|t| exhaustive(t));
            proptest::prop_assert_eq!(pruned, oracle, "kind {} len {}", kind, len);
            proptest::prop_assert!(pruned_tried <= oracle_tried);

            // Crafted: the codecs in `tied` score x / 3 exactly, the others
            // a seeded ratio.
            // A third of the cases at x = 1/4, where ZstdLike's ceiling
            // 1/12 meets the tied score exactly.
            let x = x64.min(16) as f64 / 64.0;
            let crafted = |codec: &dyn Codec| -> f64 {
                let k = codec.flops_per_byte() / 3.0;
                let bit = match codec.name() {
                    "cascaded" => 1,
                    "lz4" => 2,
                    _ => 4,
                };
                if tied & bit != 0 {
                    1.0 - k * x
                } else {
                    (seed >> (bit * 8)) as u8 as f64 / 255.0
                }
            };
            proptest::prop_assert_eq!(
                best_candidate(crafted),
                exhaustive(crafted),
                "x {} tied {:b}", x, tied
            );
        }
    }

    #[test]
    fn policy_parsing_round_trips() {
        assert_eq!(
            CompressionPolicy::parse("off"),
            Some(CompressionPolicy::Off)
        );
        assert_eq!(
            CompressionPolicy::parse("adaptive"),
            Some(CompressionPolicy::Adaptive)
        );
        assert_eq!(
            CompressionPolicy::parse("zstd"),
            Some(CompressionPolicy::Fixed(6))
        );
        assert_eq!(CompressionPolicy::parse("nope"), None);
        assert_eq!(CompressionPolicy::Fixed(6).label(), "zstd");
        assert_eq!(CompressionPolicy::Adaptive.label(), "adaptive");
    }
}
