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
//!   each candidate (`ZstdLike`, `Lz4Like`, `Cascaded`), estimate the
//!   ratio, and pick the candidate maximizing estimated bytes saved per
//!   unit of encode cost (`(1 − ratio) / flops_per_byte`); if even the
//!   best sample ratio clears [`STORE_RATIO`], store uncompressed.
//!
//! Either way an object whose container fails to shrink below its raw size
//! (frame extension included) is stored with codec 0 — compression can
//! reorder the flush economics but never inflate a tier.

use crate::tier::StoredObject;
use ckpt_compress::blocks::{compress_blocks, DEFAULT_BLOCK_SIZE};
use ckpt_compress::codec_by_id;
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

/// Candidate codec ids for adaptive selection, probed in this order:
/// ZstdLike (6), Lz4Like (1), Cascaded (3).
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
        let t0 = Instant::now();
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

    /// Adaptive selection: compress a prefix sample through each candidate
    /// and score `(1 − ratio) / flops_per_byte` — estimated bytes saved per
    /// unit encode cost. Returns `None` when storing wins.
    fn select(&self, payload: &[u8]) -> Option<u8> {
        let t0 = Instant::now();
        let sample = &payload[..payload.len().min(SAMPLE_LEN)];
        let mut best: Option<(u8, f64, f64)> = None; // (id, score, ratio)
        for id in ADAPTIVE_CANDIDATES {
            let codec = codec_by_id(id).expect("registered candidate");
            let packed = codec.compress(sample);
            let ratio = packed.len() as f64 / sample.len().max(1) as f64;
            let score = (1.0 - ratio) / codec.flops_per_byte().max(1.0);
            if best.is_none_or(|(_, s, _)| score > s) {
                best = Some((id, score, ratio));
            }
        }
        self.metrics.on_select(t0.elapsed().as_nanos() as u64);
        best.filter(|&(_, _, ratio)| ratio < STORE_RATIO)
            .map(|(id, _, _)| id)
    }
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
