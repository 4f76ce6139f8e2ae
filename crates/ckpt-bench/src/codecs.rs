//! Compressor baselines as checkpoint runners (the nvCOMP rows of Fig. 5).
//!
//! Each checkpoint is compressed independently — compression sees only
//! *spatial* redundancy within one snapshot, never the record's temporal
//! redundancy, which is the structural disadvantage Figure 5 demonstrates.
//! Modeled GPU time = a compression kernel (roofline with the codec's
//! flop/byte cost) plus one device-to-host transfer of the compressed bytes,
//! mirroring how the de-duplication methods are accounted.

use crate::report::{f, table_only, Row, Value::*};
use ckpt_compress::Codec;
use ckpt_runtime::{CompressMetrics, CompressionEngine, CompressionPolicy};
use ckpt_telemetry::{StageBreakdown, StageSample};
use gpu_sim::{Device, KernelCost};
use std::sync::Arc;

/// Aggregate result of running one method over a snapshot sequence —
/// the common currency of every figure.
#[derive(Debug, Clone)]
pub struct MeasuredRecord {
    pub name: String,
    /// Σ original bytes (excluding-first aggregation already applied where
    /// the experiment calls for it).
    pub uncompressed: u64,
    /// Σ stored bytes.
    pub stored: u64,
    /// Σ metadata bytes (0 for compressors / Full).
    pub metadata: u64,
    pub modeled_sec: f64,
    pub measured_sec: f64,
    /// Stage-wise sum of the per-checkpoint breakdowns (same aggregation
    /// window as the scalar fields). Compressors report one `total` stage.
    pub breakdown: StageBreakdown,
}

impl MeasuredRecord {
    pub fn ratio(&self) -> f64 {
        self.uncompressed as f64 / self.stored.max(1) as f64
    }

    pub fn modeled_throughput(&self) -> f64 {
        self.uncompressed as f64 / self.modeled_sec.max(1e-12)
    }

    pub fn measured_throughput(&self) -> f64 {
        self.uncompressed as f64 / self.measured_sec.max(1e-12)
    }

    /// The record's report fields (the `methods[]` schema of
    /// `BENCH_fig5.json`, plus the throughputs the human tables show).
    pub fn row(&self) -> Row {
        vec![
            f("name", Text(self.name.clone())),
            f("uncompressed_bytes", Bytes(self.uncompressed)),
            f("stored_bytes", Bytes(self.stored)),
            f("metadata_bytes", Bytes(self.metadata)),
            f("ratio", Ratio(self.ratio())),
            f("modeled_sec", Seconds(self.modeled_sec)),
            f("measured_sec", Seconds(self.measured_sec)),
            table_only("modeled_tp", Rate(self.modeled_throughput())),
            table_only("measured_tp", Rate(self.measured_throughput())),
        ]
    }
}

/// Run a compressor over a snapshot sequence. `skip_first` drops the initial
/// checkpoint from the aggregate (§3.2's frequency-scenario aggregation).
pub fn run_codec(codec: &dyn Codec, snapshots: &[Vec<u8>], skip_first: bool) -> MeasuredRecord {
    let device = Device::a100();
    let mut uncompressed = 0u64;
    let mut stored = 0u64;
    let mut modeled = 0.0f64;
    let mut measured = 0.0f64;
    for (k, snap) in snapshots.iter().enumerate() {
        let before = device.metrics().modeled_sec();
        let t0 = std::time::Instant::now();
        let packed = codec.compress(snap);
        let wall = t0.elapsed().as_secs_f64();
        // Model the GPU compression kernel + consolidated transfer.
        let cost = KernelCost {
            bytes_read: snap.len() as u64,
            bytes_written: packed.len() as u64,
            flops: (snap.len() as f64 * codec.flops_per_byte()) as u64,
        };
        device.parallel_for("compress", 0, cost, |_| {});
        device.account_d2h_bytes(packed.len() as u64);
        if skip_first && k == 0 {
            continue;
        }
        uncompressed += snap.len() as u64;
        stored += packed.len() as u64;
        modeled += device.metrics().modeled_sec() - before;
        measured += wall;
    }
    MeasuredRecord {
        name: codec.name().to_string(),
        uncompressed,
        stored,
        metadata: 0,
        modeled_sec: modeled,
        measured_sec: measured,
        breakdown: StageBreakdown {
            method: codec.name().to_string(),
            ckpt_id: 0,
            stages: vec![StageSample {
                name: "total",
                measured_sec: measured,
                modeled_sec: modeled,
            }],
            total_measured_sec: measured,
            total_modeled_sec: modeled,
        },
    }
}

/// Run a de-duplication method over a snapshot sequence into the same
/// currency as [`run_codec`]. A `compression` other than `Off` passes each
/// encoded diff through the runtime's flush stage (`--compress`): `stored`
/// counts what a tier would hold, and the encode adds measured time but no
/// modeled device time — the flusher runs it on the host pool.
pub fn run_dedup(
    method: &mut dyn ckpt_dedup::Checkpointer,
    name: &str,
    snapshots: &[Vec<u8>],
    skip_first: bool,
    compression: CompressionPolicy,
) -> MeasuredRecord {
    let engine = CompressionEngine::new(compression, Arc::new(CompressMetrics::detached()));
    let mut uncompressed = 0u64;
    let mut stored = 0u64;
    let mut metadata = 0u64;
    let mut modeled = 0.0f64;
    let mut measured = 0.0f64;
    let mut breakdown = StageBreakdown::default();
    for (k, snap) in snapshots.iter().enumerate() {
        let out = method.checkpoint(snap);
        let (stored_len, encode_sec) = if engine.enabled() {
            let record = out.diff.encode();
            let t0 = std::time::Instant::now();
            let stored_len = engine.encode(record).stored_len();
            (stored_len, t0.elapsed().as_secs_f64())
        } else {
            (out.stats.stored_bytes, 0.0)
        };
        if skip_first && k == 0 {
            continue;
        }
        uncompressed += out.stats.uncompressed_bytes;
        stored += stored_len;
        metadata += out.stats.metadata_bytes;
        modeled += out.stats.modeled_sec;
        measured += out.stats.measured_sec + encode_sec;
        breakdown.accumulate(&out.breakdown);
    }
    breakdown.method = name.to_string();
    MeasuredRecord {
        name: name.to_string(),
        uncompressed,
        stored,
        metadata,
        modeled_sec: modeled,
        measured_sec: measured,
        breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_compress::ZstdLike;
    use ckpt_dedup::prelude::*;

    fn snapshots() -> Vec<Vec<u8>> {
        // Slowly mutating buffer: dedup-friendly and compressible.
        let mut data: Vec<u8> = (0..32_768u32).map(|i| ((i / 64) % 40) as u8).collect();
        let mut out = vec![data.clone()];
        for k in 1..4 {
            for j in 0..16 {
                data[k * 1000 + j * 8] ^= 0x11;
            }
            out.push(data.clone());
        }
        out
    }

    #[test]
    fn codec_record_accounts_all_checkpoints() {
        let snaps = snapshots();
        let rec = run_codec(&ZstdLike::default(), &snaps, false);
        assert_eq!(rec.uncompressed, (snaps.len() * snaps[0].len()) as u64);
        assert!(rec.ratio() > 2.0);
        assert!(rec.modeled_sec > 0.0);

        let rec_skip = run_codec(&ZstdLike::default(), &snaps, true);
        assert_eq!(
            rec_skip.uncompressed,
            ((snaps.len() - 1) * snaps[0].len()) as u64
        );
    }

    #[test]
    fn dedup_beats_compression_on_temporal_redundancy() {
        let snaps = snapshots();
        let zstd = run_codec(&ZstdLike::default(), &snaps, true);
        let mut tree = TreeCheckpointer::new(gpu_sim::Device::a100(), TreeConfig::new(64));
        let dedup = run_dedup(&mut tree, "Tree", &snaps, true, CompressionPolicy::Off);
        assert!(
            dedup.ratio() > zstd.ratio(),
            "tree {:.1} vs zstd {:.1} on near-identical snapshots",
            dedup.ratio(),
            zstd.ratio()
        );
    }
}
