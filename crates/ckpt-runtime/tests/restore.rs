//! The restore engine and the lineage it reads, held against the
//! sequential-replay oracle (`ckpt_bench::oracle::restore_rank`), which
//! lives in `ckpt-bench`, a crate that depends on this one.

use ckpt_bench::oracle::restore_rank;
use ckpt_dedup::prelude::*;
use ckpt_dedup::Diff;
use ckpt_runtime::{LineageError, TierChain};

mod restore {
    use super::*;
    use ckpt_runtime::restore_rank_latest_parallel;

    fn run_chain(rebase_at: Option<u32>) -> (TierChain, Vec<Vec<u8>>) {
        run_chain_of(8192, rebase_at)
    }

    /// Six Tree checkpoints of `len` bytes that repeat every 241 bytes, so
    /// the first record is self-similar (same-record shifts).
    fn run_chain_of(len: u32, rebase_at: Option<u32>) -> (TierChain, Vec<Vec<u8>>) {
        let tiers = TierChain::new();
        let dev = gpu_sim::Device::a100();
        let mut ckpt = TreeCheckpointer::new(dev, TreeConfig::new(64));
        let mut data: Vec<u8> = (0..len).map(|i| (i % 241) as u8).collect();
        let mut snapshots = Vec::new();
        for k in 0..6u32 {
            if k > 0 {
                let len = data.len();
                for j in 0..96 {
                    data[(k as usize * 997 + j * 13) % len] ^= 0x5a;
                }
            }
            snapshots.push(data.clone());
            let out = if rebase_at == Some(k) {
                ckpt.rebase_checkpoint(&data)
            } else {
                ckpt.checkpoint(&data)
            };
            tiers.pfs.put((0, k), out.diff.encode()).unwrap();
        }
        (tiers, snapshots)
    }

    /// One output slice, and three: the runtime's restore sweeps each
    /// visit's slices on the pool or in order as its reader keeps up, which
    /// this does not control; it checks only that the bytes and every
    /// counter equal the engine's fed from memory.
    #[test]
    fn parallel_matches_sequential_and_counts_telemetry() {
        use ckpt_dedup::restart::{restore_version_single_pass, SLICE_CHUNKS};
        for len in [8192, (2 * SLICE_CHUNKS as u32 + 300) * 64] {
            let (tiers, snapshots) = run_chain_of(len, None);
            let device = gpu_sim::Device::a100();
            let registry = ckpt_telemetry::Registry::new();
            let out = restore_rank_latest_parallel(&tiers, &device, 0, Some(&registry)).unwrap();
            assert_eq!(out.version, 5);
            assert_eq!(&out.data, snapshots.last().unwrap());
            let (base, oracle) = restore_rank(&tiers, 0).unwrap();
            assert_eq!(out.version as usize, base as usize + oracle.len() - 1);
            assert_eq!(Some(&out.data), oracle.last());
            let diffs: Vec<Diff> = (0..6)
                .map(|k| Diff::decode(&tiers.pfs.get((0, k)).unwrap()).unwrap())
                .collect();
            let (_, stats) = restore_version_single_pass(&device, 0, &diffs, 5).unwrap();
            assert_eq!(out.stats, stats, "{len} bytes");
            let json = registry.snapshot_json();
            for key in ["restore/chains_restored", "restore/records_read"] {
                assert!(json.contains(key), "missing {key} in {json}");
            }
            // The walk runs down to checkpoint 0, the chain's floor: every
            // record is read, and the reader reads nothing below it.
            let (read, fetched) = walk_counts(&registry);
            assert_eq!(read, 6);
            assert!((read..=read + 1).contains(&fetched), "fetched {fetched}");
        }
    }

    fn walk_counts(registry: &ckpt_telemetry::Registry) -> (u64, u64) {
        (
            registry.counter("restore/records_read").get(),
            registry.counter("restore/records_fetched").get(),
        )
    }

    /// Sixteen Tree records; the top one rewrites every chunk — its first
    /// half is the one below's fresh first half moved by a chunk, its
    /// second half new — so the walk ends on record 14, which is not
    /// self-contained, while the reader is still reading below it.
    #[test]
    fn read_ahead_past_an_early_end_is_bounded() {
        use ckpt_runtime::READ_AHEAD;
        const LEN: usize = 8192;
        let tiers = TierChain::new();
        let mut ckpt = TreeCheckpointer::new(gpu_sim::Device::a100(), TreeConfig::new(64));
        let mut noise = 0x2545_f491_4f6c_dd1du64;
        let mut fresh = |bytes: &mut [u8]| {
            for b in bytes {
                noise ^= noise << 13;
                noise ^= noise >> 7;
                noise ^= noise << 17;
                *b = noise as u8;
            }
        };
        let mut data: Vec<u8> = (0..LEN).map(|i| (i % 241) as u8).collect();
        for k in 0..16u32 {
            match k {
                0 => {}
                14 => fresh(&mut data[..LEN / 2]),
                15 => {
                    data[..LEN / 2].rotate_left(64);
                    fresh(&mut data[LEN / 2..]);
                }
                _ => data[k as usize * 389 % LEN] ^= 0x5a,
            }
            tiers
                .pfs
                .put((0, k), ckpt.checkpoint(&data).diff.encode())
                .unwrap();
        }
        let device = gpu_sim::Device::a100();
        let registry = ckpt_telemetry::Registry::new();
        let out = restore_rank_latest_parallel(&tiers, &device, 0, Some(&registry)).unwrap();
        assert_eq!((out.version, &out.data), (15, &data));
        let (_, oracle) = restore_rank(&tiers, 0).unwrap();
        assert_eq!(Some(&out.data), oracle.last());
        let (read, fetched) = walk_counts(&registry);
        assert_eq!((read, out.stats.records_visited), (2, 2));
        assert!(
            (read..=read + READ_AHEAD as u64 + 1).contains(&fetched),
            "read {read}, fetched {fetched}"
        );
    }

    #[test]
    fn full_top_record_is_the_only_locate() {
        let tiers = TierChain::new();
        let mut ckpt = FullCheckpointer::new(gpu_sim::Device::a100(), 64);
        let mut data: Vec<u8> = (0..4096u32).map(|i| (i % 239) as u8).collect();
        for k in 0..4u32 {
            data[k as usize * 7] ^= 0x33;
            tiers
                .pfs
                .put((0, k), ckpt.checkpoint(&data).diff.encode())
                .unwrap();
        }
        let registry = ckpt_telemetry::Registry::new();
        let device = gpu_sim::Device::a100();
        let out = restore_rank_latest_parallel(&tiers, &device, 0, Some(&registry)).unwrap();
        assert_eq!((out.version, &out.data), (3, &data));
        assert_eq!(walk_counts(&registry), (1, 1));
    }

    #[test]
    fn rebase_record_stops_the_prefetch_walk() {
        let (tiers, snapshots) = run_chain(Some(4));
        let device = gpu_sim::Device::a100();
        let registry = ckpt_telemetry::Registry::new();
        let out = restore_rank_latest_parallel(&tiers, &device, 0, Some(&registry)).unwrap();
        assert_eq!(&out.data, snapshots.last().unwrap());
        assert!(
            out.stats.records_visited <= 2,
            "walk must stop at the rebase record, visited {}",
            out.stats.records_visited
        );
        // Records 5 and 4 and nothing below: the rebase record is known to
        // end the walk before anything under it is asked for.
        assert_eq!(walk_counts(&registry), (2, 2));
    }

    #[test]
    fn shared_referenced_record_is_fetched_once_per_restore() {
        use ckpt_runtime::{FaultPlan, OpKind};
        use ckpt_runtime::{RankDedupConfig, RankDedupEngine, RankDedupMetrics};
        // Rank 0 stores a pool of chunks once; each of rank 1's twelve Tree
        // checkpoints then overwrites one more stripe of its own state
        // with the pool's bytes — new to rank 1, already claimed by (0, 0)
        // cluster-wide — so records 1..=11 all reference that one object.
        let plan = FaultPlan::empty();
        let tiers = TierChain::with_faults(plan.clone());
        let cfg = RankDedupConfig {
            ranks: 2,
            chunk_len: 64,
        };
        let engine = RankDedupEngine::new(cfg, RankDedupMetrics::detached());
        let dev = gpu_sim::Device::a100();
        let pool: Vec<u8> = (0..8192u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let stored = TreeCheckpointer::new(dev.clone(), TreeConfig::new(64))
            .checkpoint(&pool)
            .diff
            .encode();
        tiers
            .pfs
            .put((0, 0), engine.encode((0, 0), stored))
            .unwrap();

        let mut ckpt = TreeCheckpointer::new(dev.clone(), TreeConfig::new(64));
        let mut data: Vec<u8> = (0..8192u32).map(|i| (i % 241) as u8).collect();
        for k in 0..12u32 {
            if k > 0 {
                let stripe = k as usize * 512..(k as usize + 1) * 512;
                data[stripe.clone()].copy_from_slice(&pool[stripe]);
            }
            let encoded = ckpt.checkpoint(&data).diff.encode();
            tiers
                .pfs
                .put((1, k), engine.encode((1, k), encoded))
                .unwrap();
        }
        let referers = (0..12u32)
            .filter(|&k| {
                let record = tiers.pfs.get((1, k)).unwrap();
                let index = ckpt_dedup::RecordIndex::parse(&record).unwrap();
                let into_pool = index.entries(&record).filter(
                    |e| matches!(e, ckpt_dedup::RankDedupEntry::Remote(r) if r.owner_rank == 0),
                );
                into_pool.count() > 0
            })
            .count();
        assert!(referers >= 11, "only {referers} records share the pool");

        let pfs_gets = || {
            plan.op_counts()
                .into_iter()
                .find(|(key, _)| *key == ("pfs", OpKind::Get))
                .map_or(0, |(_, n)| n)
        };
        let before = pfs_gets();
        let out = restore_rank_latest_parallel(&tiers, &dev, 1, None).unwrap();
        assert_eq!((out.version, &out.data), (11, &data));
        // Twelve records of the chain plus the one object they share.
        assert_eq!(pfs_gets() - before, 12 + 1);
    }

    #[test]
    fn compacted_chain_restores_without_the_gc_ed_prefix() {
        let (tiers, snapshots) = run_chain(Some(3));
        for k in 0..3u32 {
            assert!(tiers.pfs.evict((0, k)));
        }
        let device = gpu_sim::Device::a100();
        let out = restore_rank_latest_parallel(&tiers, &device, 0, None).unwrap();
        assert_eq!(out.version, 5);
        assert_eq!(&out.data, snapshots.last().unwrap());
    }

    /// Deep in the chain, and right under the top record, where the reader
    /// meets it first.
    #[test]
    fn hole_below_the_surviving_run_is_typed() {
        for missing in [2, 4] {
            let (tiers, _) = run_chain(None);
            assert!(tiers.pfs.evict((0, missing)));
            let device = gpu_sim::Device::a100();
            let err = restore_rank_latest_parallel(&tiers, &device, 0, None).unwrap_err();
            match err {
                LineageError::Hole {
                    rank: 0,
                    missing: m,
                    present_above,
                } if m == missing && present_above == missing + 1 => {}
                other => panic!("expected a typed hole at {missing}, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_rank_errors() {
        let tiers = TierChain::new();
        let device = gpu_sim::Device::a100();
        assert!(matches!(
            restore_rank_latest_parallel(&tiers, &device, 9, None),
            Err(LineageError::Empty)
        ));
    }
}

mod lineage {
    use super::*;
    use ckpt_runtime::{collect_record, AsyncRuntime};

    #[test]
    fn full_round_trip_through_the_runtime() {
        let rt = AsyncRuntime::new();
        let dev = gpu_sim::Device::a100();
        let mut ckpt = TreeCheckpointer::new(dev, TreeConfig::new(64));

        let mut data: Vec<u8> = (0..8192u32).map(|i| (i % 241) as u8).collect();
        let mut snapshots = Vec::new();
        let mut ids = Vec::new();
        for k in 0..4u32 {
            if k > 0 {
                let len = data.len();
                for j in 0..64 {
                    data[(k as usize * 997 + j * 13) % len] ^= 0x5a;
                }
            }
            snapshots.push(data.clone());
            let out = ckpt.checkpoint(&data);
            rt.submit(0, k, out.diff.encode()).unwrap();
            ids.push((0, k));
        }
        rt.wait_durable(&ids);

        let (base, versions) = restore_rank(rt.tiers(), 0).unwrap();
        assert_eq!(base, 0);
        assert_eq!(versions.len(), 4);
        for (v, s) in versions.iter().zip(&snapshots) {
            assert_eq!(v, s);
        }
        rt.shutdown();
    }

    #[test]
    fn empty_rank_errors() {
        let rt = AsyncRuntime::new();
        assert!(matches!(
            restore_rank(rt.tiers(), 42),
            Err(LineageError::Empty)
        ));
    }

    #[test]
    fn compacted_chain_collects_from_the_rebase_base() {
        // GC below a rebase record: ids 0–1 evicted, 2 is self-contained.
        let tiers = TierChain::new();
        let dev = gpu_sim::Device::a100();
        let mut ckpt = TreeCheckpointer::new(dev, TreeConfig::new(64));
        let mut data: Vec<u8> = (0..4096u32).map(|i| (i % 233) as u8).collect();
        let mut snapshots = Vec::new();
        for k in 0..4u32 {
            if k > 0 {
                data[k as usize * 97] ^= 0xa5;
            }
            snapshots.push(data.clone());
            let out = if k == 2 {
                ckpt.rebase_checkpoint(&data)
            } else {
                ckpt.checkpoint(&data)
            };
            tiers.pfs.put((0, k), out.diff.encode()).unwrap();
        }
        assert!(tiers.pfs.evict((0, 0)));
        assert!(tiers.pfs.evict((0, 1)));
        let (base, chain) = collect_record(&tiers, 0).unwrap();
        assert_eq!((base, chain.len()), (2, 2));
        let (base, versions) = restore_rank(&tiers, 0).unwrap();
        assert_eq!(base, 2);
        assert_eq!(versions, snapshots[2..]);
    }

    #[test]
    fn corrupt_diff_reported_with_index() {
        let rt = AsyncRuntime::new();
        rt.tiers().pfs.put((1, 0), vec![0xde, 0xad]).unwrap();
        match restore_rank(rt.tiers(), 1) {
            Err(LineageError::Decode(0, _)) => {}
            other => panic!("expected decode error, got {other:?}"),
        }
    }
}
