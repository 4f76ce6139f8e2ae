//! The four compared checkpointing methods.
//!
//! * [`full::FullCheckpointer`] — baseline: always store everything.
//! * [`basic::BasicCheckpointer`] — hash chunks, compare position-wise with
//!   the previous checkpoint, store a bitmap plus changed chunks.
//! * [`list::ListCheckpointer`] — the paper's method *without* metadata
//!   compaction: full per-chunk first-occurrence / shifted-duplicate lists.
//! * [`tree::TreeCheckpointer`] — the paper's contribution: Merkle-tree
//!   compacted metadata (Algorithm 1).
//!
//! Tree and List are one checkpointer body (`pipeline.rs`: leaf pass →
//! region building → reference resolution → serialization) that differs
//! only in its region-building step; `tree.rs` and `list.rs` hold their
//! step. [`tree_naive`] is a third step, ablation A3's single-stage sweep,
//! kept here because it needs the crate-private passes. Basic and Full have
//! bodies of their own. The sequential oracle the pipeline is checked
//! against shares no logic with it and lives outside this crate
//! (`ckpt_bench::oracle::SerialTreeCheckpointer`).
//!
//! All share the [`Checkpointer`] trait so experiments can sweep methods
//! uniformly, all parallel code paths run through the `gpu-sim` device so
//! their modeled cost is comparable, and [`new_checkpointer`] is the one
//! place a [`MethodKind`] becomes a checkpointer.

pub mod basic;
pub mod full;
pub(crate) mod leaf_pass;
pub mod list;
pub(crate) mod pipeline;
pub mod tree;
pub mod tree_naive;

use crate::diff::{Diff, MethodKind};
use crate::stats::CheckpointStats;
use ckpt_telemetry::{StageBreakdown, StageClock, StageSample};
use gpu_sim::{Device, DistinctMap};

/// Build the checkpointer for `kind`. Basic and Full read only
/// `config.chunk_size`.
pub fn new_checkpointer(
    kind: MethodKind,
    device: Device,
    config: tree::TreeConfig,
) -> Box<dyn Checkpointer> {
    match kind {
        MethodKind::Tree => Box::new(tree::TreeCheckpointer::new(device, config)),
        MethodKind::List => Box::new(list::ListCheckpointer::new(device, config)),
        MethodKind::Basic => Box::new(basic::BasicCheckpointer::new(device, config.chunk_size)),
        MethodKind::Full => Box::new(full::FullCheckpointer::new(device, config.chunk_size)),
    }
}

/// One checkpoint's outputs: the encoded diff, its statistics, and the
/// per-stage attribution of where the checkpoint's time went.
#[derive(Debug, Clone)]
pub struct CheckpointOutput {
    pub diff: Diff,
    pub stats: CheckpointStats,
    /// Stage-by-stage measured and modeled time for this checkpoint. The
    /// paper's methods (Tree, List, Basic) report real pipeline stages
    /// (`leaf_hash`, `first_ocur_wave`, `shift_dupl_wave`,
    /// `metadata_compact`, `gather_serialize`, `d2h`); the remaining
    /// baselines report a single `total` stage. Stage modeled times sum to
    /// `total_modeled_sec` by construction.
    pub breakdown: StageBreakdown,
}

impl CheckpointOutput {
    /// Wrap a diff + stats whose method is not stage-instrumented: the
    /// breakdown degenerates to one `total` stage mirroring the stats.
    pub(crate) fn with_total_breakdown(diff: Diff, stats: CheckpointStats) -> Self {
        let breakdown = StageBreakdown {
            method: stats.method.name().to_string(),
            ckpt_id: stats.ckpt_id,
            stages: vec![StageSample {
                name: "total",
                measured_sec: stats.measured_sec,
                modeled_sec: stats.modeled_sec,
            }],
            total_measured_sec: stats.measured_sec,
            total_modeled_sec: stats.modeled_sec,
        };
        CheckpointOutput {
            diff,
            stats,
            breakdown,
        }
    }
}

impl CheckpointStats {
    /// Statistics of one checkpoint from the diff it produced: sizes come
    /// off the diff, the region/chunk counts from the method, and `elapsed`
    /// is [`Timer::stop`]'s `(measured, modeled)` seconds.
    pub(crate) fn of(
        diff: &Diff,
        n_first: u64,
        n_shift: u64,
        n_fixed_chunks: u64,
        (measured_sec, modeled_sec): (f64, f64),
    ) -> CheckpointStats {
        CheckpointStats {
            method: diff.kind,
            ckpt_id: diff.ckpt_id,
            uncompressed_bytes: diff.data_len,
            stored_bytes: diff.stored_bytes() as u64,
            metadata_bytes: diff.metadata_bytes() as u64,
            payload_bytes: diff.payload.len() as u64,
            n_first,
            n_shift,
            n_fixed_chunks,
            measured_sec,
            modeled_sec,
        }
    }
}

/// Steady-state memory counters for one checkpointer: the device arena's
/// lease/allocation tallies plus the historical record's reset/rebuild
/// counts. The zero-allocation tests assert that after a warm-up checkpoint
/// `arena_misses` and `map_rehash_rebuilds` stay flat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Bytes handed out by the device arena (hits and misses).
    pub device_bytes_leased: u64,
    /// Bytes of fresh device backing storage allocated (misses only).
    pub device_bytes_allocated: u64,
    /// Arena leases satisfied without allocating.
    pub arena_hits: u64,
    /// Arena leases that allocated or grew storage.
    pub arena_misses: u64,
    /// O(1) generation-bump resets of the historical record.
    pub map_generation_bumps: u64,
    /// Capacity-growth rebuilds of the historical record.
    pub map_rehash_rebuilds: u64,
}

impl MemoryStats {
    /// The device arena's tallies plus the historical record's, for a
    /// method that keeps one.
    pub(crate) fn of(device: &Device, map: Option<&DistinctMap>) -> MemoryStats {
        let a = device.arena().stats();
        MemoryStats {
            device_bytes_leased: a.bytes_leased,
            device_bytes_allocated: a.bytes_allocated,
            arena_hits: a.hits,
            arena_misses: a.misses,
            map_generation_bumps: map.map_or(0, |m| m.generation_bumps()),
            map_rehash_rebuilds: map.map_or(0, |m| m.rehash_rebuilds()),
        }
    }
}

/// A checkpointing method with internal state accumulated across a record.
///
/// Implementations require every checkpoint in a record to have the same
/// byte length (the paper's workload checkpoints a fixed-size GDV array);
/// they panic otherwise.
pub trait Checkpointer: Send {
    /// Method identifier.
    fn kind(&self) -> MethodKind;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Capture the next checkpoint of `data`, producing its diff and stats.
    fn checkpoint(&mut self, data: &[u8]) -> CheckpointOutput;

    /// Capture the next checkpoint as a **rebase record**: a self-contained
    /// checkpoint that references no earlier checkpoint, while keeping the
    /// record's checkpoint ids consecutive. After a rebase at id *r*, a
    /// restore of any checkpoint ≥ *r* only needs records `r..`, so once it
    /// is durable the runtime's `compact_below` may garbage-collect
    /// everything below *r* (chain compaction). Methods with historical state suppress fixed-duplicate
    /// detection and reset their hash record for this one checkpoint; the
    /// default is correct for methods whose every checkpoint is already
    /// self-contained (Full).
    fn rebase_checkpoint(&mut self, data: &[u8]) -> CheckpointOutput {
        self.checkpoint(data)
    }

    /// Bytes of device memory held by the method's persistent state (hash
    /// record, trees, label arrays) — the space overhead the paper discusses
    /// in §2.1.
    fn device_state_bytes(&self) -> usize {
        0
    }

    /// Start a new checkpoint record without tearing down device state:
    /// checkpoint ids restart at 0 and the historical record is reset (an
    /// O(1) generation bump, pre-sized from the outgoing record's occupancy)
    /// while arenas, trees and label arrays stay warm. The scaling benchmark
    /// uses this to sweep thread counts over one persistent checkpointer.
    fn reset_record(&mut self) {
        panic!("{} does not support record reset", self.name());
    }

    /// Steady-state memory counters (zeros for methods without device
    /// scratch or a historical record).
    fn memory_stats(&self) -> MemoryStats {
        MemoryStats::default()
    }
}

/// Book-keeping shared by the method implementations: wall-clock and modeled
/// time around one `checkpoint()` call.
pub(crate) struct Timer {
    start: std::time::Instant,
    modeled_before: f64,
}

impl Timer {
    pub(crate) fn start(device: &Device) -> Self {
        Timer {
            #[expect(
                clippy::disallowed_methods,
                reason = "a checkpoint's measured wall time"
            )]
            start: std::time::Instant::now(),
            modeled_before: device.metrics().modeled_sec(),
        }
    }

    /// (measured_sec, modeled_sec) elapsed since `start`.
    pub(crate) fn stop(self, device: &Device) -> (f64, f64) {
        (
            self.start.elapsed().as_secs_f64(),
            device.metrics().modeled_sec() - self.modeled_before,
        )
    }
}

/// A [`StageClock`] bound to a device: each `mark` closes the running stage,
/// attributing wall time plus the delta of the device's modeled clock since
/// the previous mark. Because consecutive deltas tile the checkpoint, the
/// per-stage modeled times sum to the total exactly.
pub(crate) struct StageRecorder<'d> {
    device: &'d Device,
    clock: StageClock,
}

impl<'d> StageRecorder<'d> {
    pub(crate) fn start(device: &'d Device) -> Self {
        StageRecorder {
            device,
            clock: StageClock::start(device.metrics().modeled_sec()),
        }
    }

    pub(crate) fn mark(&mut self, stage: &'static str) {
        self.clock.mark(stage, self.device.metrics().modeled_sec());
    }

    pub(crate) fn finish(self, method: MethodKind, ckpt_id: u32) -> StageBreakdown {
        self.clock
            .finish(method.name(), ckpt_id, self.device.metrics().modeled_sec())
    }
}
