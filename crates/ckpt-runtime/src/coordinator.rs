//! Multi-rank strong-scaling harness (the Fig. 6 experiment).
//!
//! "Each process checkpoints independently, but multiple GPUs copying data
//! to a shared CPU can impact performance. We measure the sum of the first
//! ten checkpoints for all processes. Throughput is measured by taking the
//! sum of 10 checkpoints and dividing it by the maximum runtime spent on
//! de-duplication across all processes" (§3.3).
//!
//! Each rank gets its own simulated device whose host-link contention is set
//! to the number of co-located GPUs on its node (8 per ThetaGPU node), its
//! own checkpointer state, and a share of one [`AsyncRuntime`].

use crate::chain::TierChain;
use crate::pipeline::CheckpointPipeline;
use crate::runtime::AsyncRuntime;
use ckpt_dedup::prelude::*;
use gpu_sim::Device;
use std::sync::Arc;

/// When the coordinator emits a **rebase** checkpoint: a self-contained
/// record that references nothing earlier, so it is a legal restart chain
/// head and every record below it becomes garbage-collectable. Bounds the
/// chain a restart must walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RebasePolicy {
    /// The chain grows unboundedly for the lifetime of the run.
    Never,
    /// Rebase every `n`-th checkpoint after the last rebase point.
    EveryN(u32),
    /// Rebase when the modeled restart read time of the accumulated chain
    /// (chain bytes over PFS bandwidth) exceeds this budget.
    RestoreBudget { modeled_sec: f64 },
}

impl RebasePolicy {
    /// Decide at distance `since` checkpoints after the last rebase point,
    /// with `chain_bytes` stored since then, read back at `read_bps`.
    fn due(&self, since: u32, chain_bytes: u64, read_bps: f64) -> bool {
        match *self {
            RebasePolicy::Never => false,
            RebasePolicy::EveryN(n) => since >= n.max(1),
            RebasePolicy::RestoreBudget { modeled_sec } => {
                chain_bytes as f64 / read_bps > modeled_sec
            }
        }
    }
}

/// Configuration of one strong-scaling run.
#[derive(Debug, Clone, Copy)]
pub struct ScalingConfig {
    /// Fig. 6 compares Tree vs Full.
    pub method: MethodKind,
    pub n_ranks: usize,
    /// GPUs per node (PCIe contenders); ThetaGPU has 8.
    pub gpus_per_node: usize,
    pub chunk_size: usize,
    /// Chain-compaction policy (see [`RebasePolicy`]).
    pub rebase: RebasePolicy,
}

/// Per-rank outcome.
#[derive(Debug)]
pub struct RankReport {
    pub rank: u32,
    pub stats: RecordStats,
    /// Modeled device seconds spent producing + transferring diffs.
    pub modeled_sec: f64,
    pub measured_sec: f64,
    /// Rebase records this rank emitted (see [`RebasePolicy`]).
    pub rebases: u32,
    /// Records garbage-collected below the last durable rebase point.
    pub gc_evicted: usize,
}

/// Aggregate outcome of a scaling run.
#[derive(Debug)]
pub struct ScalingReport {
    pub method: MethodKind,
    pub n_ranks: usize,
    /// Σ original checkpoint bytes over all ranks and checkpoints (what Full
    /// would store).
    pub total_full_bytes: u64,
    /// Σ stored diff bytes (Fig. 6a's y-axis).
    pub total_stored_bytes: u64,
    /// max over ranks of modeled de-duplication time (Fig. 6b denominator).
    pub max_rank_modeled_sec: f64,
    pub max_rank_measured_sec: f64,
    pub ranks: Vec<RankReport>,
}

impl ScalingReport {
    /// Fig. 6a metric: total checkpoint size reduction vs Full.
    pub fn size_reduction(&self) -> f64 {
        self.total_full_bytes as f64 / self.total_stored_bytes.max(1) as f64
    }

    /// Fig. 6b metric (modeled): aggregate de-duplication throughput.
    pub fn modeled_throughput(&self) -> f64 {
        self.total_full_bytes as f64 / self.max_rank_modeled_sec.max(1e-12)
    }

    /// Fig. 6b metric on measured wall time.
    pub fn measured_throughput(&self) -> f64 {
        self.total_full_bytes as f64 / self.max_rank_measured_sec.max(1e-12)
    }
}

/// Run the scaling experiment. `snapshots_for(rank)` supplies each rank's
/// checkpoint sequence (each rank owns an equal partition of the problem, so
/// per-rank data shrinks as ranks grow — strong scaling).
///
/// Each rank submits through its own [`CheckpointPipeline`], so checkpoint
/// *k*'s encode + host staging overlaps checkpoint *k+1*'s de-duplication —
/// the double-buffered tail the telemetry's `pipeline/*` series records.
pub fn run_scaling<F>(
    cfg: ScalingConfig,
    runtime: &Arc<AsyncRuntime>,
    snapshots_for: F,
) -> ScalingReport
where
    F: Fn(u32) -> Vec<Vec<u8>> + Sync,
{
    let contenders = cfg.n_ranks.min(cfg.gpus_per_node).max(1) as u32;
    let reports: Vec<RankReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.n_ranks as u32)
            .map(|rank| {
                let snapshots_for = &snapshots_for;
                s.spawn(move || {
                    let device = Device::a100();
                    device.set_contenders(contenders);
                    let mut method =
                        new_checkpointer(cfg.method, device, TreeConfig::new(cfg.chunk_size));
                    let snapshots = snapshots_for(rank);
                    let mut stats = RecordStats::new();
                    let pipe = CheckpointPipeline::new(Arc::clone(runtime));
                    let read_bps = runtime.tiers().pfs.config().bandwidth_bps;
                    let mut last_rebase = 0u32;
                    let mut chain_bytes = 0u64;
                    let mut rebases = 0u32;
                    let t0 = std::time::Instant::now();
                    for (k, snap) in snapshots.iter().enumerate() {
                        let k = k as u32;
                        let due = k > 0 && cfg.rebase.due(k - last_rebase, chain_bytes, read_bps);
                        let out = if due {
                            rebases += 1;
                            last_rebase = k;
                            chain_bytes = 0;
                            method.rebase_checkpoint(snap)
                        } else {
                            method.checkpoint(snap)
                        };
                        chain_bytes += out.stats.stored_bytes;
                        stats.push(out.stats);
                        let diff = out.diff;
                        pipe.submit_with(rank, k, Box::new(move || diff.encode()));
                    }
                    let measured_sec = t0.elapsed().as_secs_f64();
                    let pstats = pipe.close();
                    assert_eq!(pstats.aborted, 0, "rank {rank}: host staging full");
                    // Chain compaction: only after the rebase record is
                    // durable may the records below it be dropped — a crash
                    // in between must still find a restorable chain. With a
                    // redundancy group, the rebase record's *group encoding*
                    // must be durable too before GC advances, or a rank loss
                    // right after compaction would leave the group unable to
                    // rebuild the only legal chain head.
                    let gc_evicted = if last_rebase > 0 {
                        runtime.wait_durable(&[(rank, last_rebase)]);
                        runtime.wait_redundancy_durable(&[(rank, last_rebase)]);
                        let n = compact_below(runtime.tiers(), rank, last_rebase);
                        if let Some(red) = runtime.tiers().redundancy() {
                            red.compact_below(rank, last_rebase);
                        }
                        n
                    } else {
                        0
                    };
                    RankReport {
                        rank,
                        modeled_sec: stats.total_modeled_sec(),
                        measured_sec,
                        stats,
                        rebases,
                        gc_evicted,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    });

    let total_full_bytes = reports.iter().map(|r| r.stats.total_uncompressed()).sum();
    let total_stored_bytes = reports.iter().map(|r| r.stats.total_stored()).sum();
    let max_rank_modeled_sec = reports.iter().map(|r| r.modeled_sec).fold(0.0f64, f64::max);
    let max_rank_measured_sec = reports
        .iter()
        .map(|r| r.measured_sec)
        .fold(0.0f64, f64::max);
    ScalingReport {
        method: cfg.method,
        n_ranks: cfg.n_ranks,
        total_full_bytes,
        total_stored_bytes,
        max_rank_modeled_sec,
        max_rank_measured_sec,
        ranks: reports,
    }
}

/// Garbage-collect every record of `rank` below a **durable** rebase
/// point: evict ids `0..rebase_id` from all tiers. The caller must have
/// confirmed durability of `(rank, rebase_id)` first — compaction that
/// races a crash must err on keeping the old chain (see the
/// kill-during-compaction crash schedule). Returns evictions performed.
pub fn compact_below(tiers: &TierChain, rank: u32, rebase_id: u32) -> usize {
    // Cluster-dedup GC floor: an object another rank still references
    // remotely must outlive this rank's rebase — evicting it would turn
    // those references dangling. The index releases this rank's own
    // outbound edges, retires claims into what *will* be evicted, and
    // names what must stay.
    let pinned = tiers
        .rank_dedup_index()
        .map(|ix| ix.compact_below(rank, rebase_id))
        .unwrap_or_default();
    let mut evicted = 0;
    for tier in [&tiers.pfs, &tiers.ssd, &tiers.host] {
        for (r, k) in tier.resident() {
            if r == rank && k < rebase_id && !pinned.contains(&(r, k)) && tier.evict((r, k)) {
                evicted += 1;
            }
        }
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::restore_rank;

    fn snapshots(rank: u32, n: usize, len: usize) -> Vec<Vec<u8>> {
        // Sparse updates per checkpoint, deterministic per rank.
        let mut data: Vec<u8> = (0..len)
            .map(|i| ((i as u64 * 31 + rank as u64 * 7) % 251) as u8)
            .collect();
        let mut out = vec![data.clone()];
        for k in 1..n {
            for j in 0..len / 200 {
                let at = (k * 911 + j * 53 + rank as usize) % len;
                data[at] = data[at].wrapping_add(1);
            }
            out.push(data.clone());
        }
        out
    }

    #[test]
    fn tree_beats_full_at_every_rank_count() {
        for n_ranks in [1usize, 4] {
            let rt_tree = Arc::new(AsyncRuntime::new());
            let rt_full = Arc::new(AsyncRuntime::new());
            let mk = |method| ScalingConfig {
                method,
                n_ranks,
                gpus_per_node: 8,
                chunk_size: 64,
                rebase: RebasePolicy::Never,
            };
            let tree = run_scaling(mk(MethodKind::Tree), &rt_tree, |r| snapshots(r, 5, 64_000));
            let full = run_scaling(mk(MethodKind::Full), &rt_full, |r| snapshots(r, 5, 64_000));
            assert_eq!(tree.total_full_bytes, full.total_full_bytes);
            assert!(
                tree.total_stored_bytes < full.total_stored_bytes / 2,
                "ranks {n_ranks}: tree {} vs full {}",
                tree.total_stored_bytes,
                full.total_stored_bytes
            );
            assert!(tree.size_reduction() > 2.0);
            assert!((full.size_reduction() - 1.0).abs() < 0.01);
        }
    }

    #[test]
    fn every_rank_record_restores_through_the_runtime() {
        let rt = Arc::new(AsyncRuntime::new());
        let cfg = ScalingConfig {
            method: MethodKind::Tree,
            n_ranks: 4,
            gpus_per_node: 8,
            chunk_size: 64,
            rebase: RebasePolicy::Never,
        };
        let report = run_scaling(cfg, &rt, |r| snapshots(r, 4, 32_000));
        assert_eq!(report.ranks.len(), 4);
        let ids: Vec<(u32, u32)> = (0..4u32)
            .flat_map(|r| (0..4u32).map(move |k| (r, k)))
            .collect();
        rt.wait_durable(&ids);
        for rank in 0..4u32 {
            let (base, versions) = restore_rank(rt.tiers(), rank).unwrap();
            assert_eq!(base, 0);
            let expect = snapshots(rank, 4, 32_000);
            assert_eq!(versions, expect, "rank {rank}");
        }
    }

    #[test]
    fn rebase_policy_compacts_and_still_restores_latest() {
        let rt = Arc::new(AsyncRuntime::new());
        let cfg = ScalingConfig {
            method: MethodKind::Tree,
            n_ranks: 2,
            gpus_per_node: 8,
            chunk_size: 64,
            rebase: RebasePolicy::EveryN(3),
        };
        let report = run_scaling(cfg, &rt, |r| snapshots(r, 8, 32_000));
        for rr in &report.ranks {
            // Checkpoints 3 and 6 are rebase points; everything below the
            // last durable rebase (id 6) was garbage-collected.
            assert_eq!(rr.rebases, 2, "rank {}", rr.rank);
            assert!(rr.gc_evicted > 0, "rank {}", rr.rank);
        }
        for rank in 0..2u32 {
            let (base, versions) = restore_rank(rt.tiers(), rank).unwrap();
            assert_eq!(base, 6, "rank {rank}");
            let expect = snapshots(rank, 8, 32_000);
            assert_eq!(versions.len(), 2);
            assert_eq!(&versions[0], &expect[6], "rank {rank}");
            assert_eq!(&versions[1], &expect[7], "rank {rank}");
        }
    }

    #[test]
    fn contention_reflects_gpus_per_node() {
        // Same work, more contenders -> larger modeled time per rank.
        let rt1 = Arc::new(AsyncRuntime::new());
        let rt8 = Arc::new(AsyncRuntime::new());
        let base = ScalingConfig {
            method: MethodKind::Full,
            n_ranks: 2,
            gpus_per_node: 1,
            chunk_size: 64,
            rebase: RebasePolicy::Never,
        };
        let crowded = ScalingConfig {
            gpus_per_node: 8,
            n_ranks: 8,
            ..base
        };
        let solo = run_scaling(base, &rt1, |r| snapshots(r, 3, 100_000));
        let packed = run_scaling(crowded, &rt8, |r| snapshots(r, 3, 100_000));
        let solo_rank = solo.max_rank_modeled_sec;
        let packed_rank = packed.max_rank_modeled_sec;
        assert!(
            packed_rank > 2.5 * solo_rank,
            "8-way contention {packed_rank} vs solo {solo_rank}"
        );
    }
}
