//! Concurrency stress: many ranks submitting while the flusher races a
//! randomly-timed crash; recovery must always yield a clean durable prefix
//! per rank that restores bit-exactly.

// A test drives threads, clocks, files and codecs directly; the rules of
// `clippy.toml` hold production code.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use ckpt_bench::oracle::restore_rank;
use gpu_dedup_ckpt::dedup::prelude::*;
use gpu_dedup_ckpt::gpu_sim::Device;
use gpu_dedup_ckpt::runtime::{AsyncRuntime, ObjectStatus, RuntimeConfig, TierChain, TierConfig};

fn rank_snapshots(rank: u32, n: usize) -> Vec<Vec<u8>> {
    let len = 16 * 1024;
    let mut data: Vec<u8> = (0..len)
        .map(|i| ((i as u64 * 31 + rank as u64 * 1009) % 251) as u8)
        .collect();
    let mut out = vec![data.clone()];
    for k in 1..n {
        for j in 0..24 {
            let at = (k * 769 + j * 331 + rank as usize * 7) % len;
            data[at] = data[at].wrapping_add(1);
        }
        out.push(data.clone());
    }
    out
}

#[test]
fn concurrent_ranks_with_racing_crash_recover_cleanly() {
    for round in 0..6u64 {
        let rt = AsyncRuntime::new();
        let n_ranks = 6u32;
        let n_ckpts = 8usize;

        // Producers run concurrently; the main thread kills the runtime at a
        // pseudo-random moment.
        std::thread::scope(|s| {
            for rank in 0..n_ranks {
                let rt = &rt;
                s.spawn(move || {
                    let mut m = TreeCheckpointer::new(Device::a100(), TreeConfig::new(64));
                    for (k, snap) in rank_snapshots(rank, n_ckpts).iter().enumerate() {
                        let diff = m.checkpoint(snap).diff;
                        // After a crash, staging may be full/dead — both are
                        // legitimate outcomes for a dying node.
                        let _ = rt.submit(rank, k as u32, diff.encode());
                        std::thread::yield_now();
                    }
                });
            }
            // Crash at a round-dependent point part-way through.
            std::thread::sleep(std::time::Duration::from_micros(200 * round + 50));
            rt.kill();
        });

        let recovered = rt.recover();
        let mut total_durable = 0usize;
        for (rank, prefix) in &recovered {
            total_durable += prefix.len();
            // Every recovered prefix must decode and restore exactly to the
            // rank's original snapshots.
            if prefix.is_empty() {
                continue;
            }
            let (base, versions) = restore_rank(rt.tiers(), *rank)
                .unwrap_or_else(|e| panic!("round {round} rank {rank}: {e}"));
            assert_eq!(base, 0, "round {round} rank {rank}");
            let originals = rank_snapshots(*rank, n_ckpts);
            for (k, v) in versions.iter().enumerate() {
                assert_eq!(v, &originals[k], "round {round} rank {rank} version {k}");
            }
        }
        // Sanity: the crash landed somewhere meaningful at least sometimes.
        eprintln!("round {round}: {total_durable} durable checkpoints across ranks");
    }
}

/// Kill the runtime while a throttled flusher is mid-drain, at two
/// `time_scale` settings, and reconcile the recovery report's per-status
/// totals against the telemetry counters: every submitted object is
/// accounted for exactly once, and (fault-free) the verified count equals
/// the durable counter while everything else is lost-volatile.
#[test]
fn kill_during_drain_reconciles_report_with_telemetry() {
    for &time_scale in &[0.5f64, 2.0] {
        // A slow SSD hop (~3.2 ms modeled per 16 KB object, scaled) so the
        // crash reliably lands while objects are still staged in flight.
        let tiers = TierChain::with_configs(
            TierConfig::host(),
            TierConfig {
                name: "ssd",
                bandwidth_bps: 5e6,
                capacity: u64::MAX,
            },
            TierConfig::pfs(),
        );
        let rt = AsyncRuntime::start(RuntimeConfig {
            tiers,
            time_scale,
            ..Default::default()
        });
        let n_ranks = 4u32;
        let n_ckpts = 6usize;
        std::thread::scope(|s| {
            for rank in 0..n_ranks {
                let rt = &rt;
                s.spawn(move || {
                    let mut m = TreeCheckpointer::new(Device::a100(), TreeConfig::new(64));
                    for (k, snap) in rank_snapshots(rank, n_ckpts).iter().enumerate() {
                        let _ = rt.submit(rank, k as u32, m.checkpoint(snap).diff.encode());
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
            rt.kill();
        });

        let report = rt.recover_report();
        let reg = rt.telemetry();
        let submitted = reg.counter("runtime/submitted").get();
        let durable = reg.counter("runtime/durable").get();

        // Every accepted submission is classified exactly once.
        assert_eq!(report.total_objects() as u64, submitted);
        assert_eq!(
            report.total_verified() + report.total_repaired() + report.total_lost(),
            report.total_objects()
        );
        // Fault-free: nothing corrupt, nothing repaired; the durable copies
        // all verify, and the remainder died in volatile tiers.
        assert_eq!(
            report.total(ObjectStatus::LostCorrupt),
            0,
            "scale {time_scale}"
        );
        assert_eq!(report.total_repaired(), 0, "scale {time_scale}");
        assert_eq!(
            report.total_verified() as u64,
            durable,
            "scale {time_scale}"
        );
        assert_eq!(
            report.total(ObjectStatus::LostVolatile) as u64,
            submitted - durable,
            "scale {time_scale}"
        );
        assert!(report.total_durable_prefix() <= report.total_verified());
        // Integrity counters saw at least one verification per durable
        // object during recovery.
        assert!(reg.counter("integrity/frames_verified").get() >= durable);
        assert_eq!(reg.counter("integrity/frames_corrupt").get(), 0);

        // And the durable prefixes themselves restore bit-exactly.
        for rr in &report.ranks {
            if rr.prefix_len == 0 {
                continue;
            }
            let (base, versions) = restore_rank(rt.tiers(), rr.rank).unwrap();
            assert_eq!(base, 0, "scale {time_scale} rank {}", rr.rank);
            let originals = rank_snapshots(rr.rank, n_ckpts);
            for (k, v) in versions.iter().enumerate().take(rr.prefix_len) {
                assert_eq!(v, &originals[k], "scale {time_scale} rank {} v{k}", rr.rank);
            }
        }
        eprintln!(
            "scale {time_scale}: {submitted} submitted, {durable} durable, {} lost",
            report.total_lost()
        );
    }
}

#[test]
fn graceful_shutdown_drains_everything() {
    let rt = AsyncRuntime::new();
    let n_ranks = 8u32;
    let n_ckpts = 6usize;
    std::thread::scope(|s| {
        for rank in 0..n_ranks {
            let rt = &rt;
            s.spawn(move || {
                let mut m = TreeCheckpointer::new(Device::a100(), TreeConfig::new(64));
                for (k, snap) in rank_snapshots(rank, n_ckpts).iter().enumerate() {
                    rt.submit(rank, k as u32, m.checkpoint(snap).diff.encode())
                        .unwrap();
                }
            });
        }
    });
    let ids: Vec<_> = (0..n_ranks)
        .flat_map(|r| (0..n_ckpts as u32).map(move |k| (r, k)))
        .collect();
    rt.wait_durable(&ids);
    for rank in 0..n_ranks {
        let (base, versions) = restore_rank(rt.tiers(), rank).unwrap();
        assert_eq!(base, 0);
        assert_eq!(versions.len(), n_ckpts);
        assert_eq!(versions, rank_snapshots(rank, n_ckpts));
    }
    rt.shutdown();
}
