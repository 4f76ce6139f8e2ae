//! Large-scale smoke tests (run explicitly: `cargo test --release -- --ignored`).
//!
//! The paper operates on 3–5 GB GDV arrays; the regular test suite stays in
//! the MB range for speed. These tests push the engine to the hundreds-of-MB
//! regime — millions of chunks, multi-million-entry hash record — to verify
//! that nothing about the implementation is small-input-only: memory stays
//! bounded by the sized structures, ratios hold, and restoration is exact.

// A test drives threads, clocks, files and codecs directly; the rules of
// `clippy.toml` hold production code.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use ckpt_bench::oracle::restore_record;
use gpu_dedup_ckpt::dedup::prelude::*;
use gpu_dedup_ckpt::gpu_sim::Device;
use gpu_dedup_ckpt::runtime::{
    restore_rank_latest_parallel, AsyncRuntime, CompressionPolicy, RedundancyPolicy, RuntimeConfig,
};

/// 128 MiB, 1 M chunks at 128 B: sparse updates must keep diffs tiny and
/// restore exactly.
#[test]
#[ignore = "large: ~1 GiB RSS, tens of seconds; run with --ignored"]
fn tree_at_128_mib() {
    let len = 128 << 20;
    // High bits of a Weyl sequence: effectively unique, incompressible bytes.
    let mut data: Vec<u8> = (0..len)
        .map(|i| ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 32) as u8)
        .collect();

    let device = Device::a100();
    let mut ckpt = TreeCheckpointer::new(device.clone(), TreeConfig::new(128));
    let t0 = std::time::Instant::now();
    let d0 = ckpt.checkpoint(&data);
    eprintln!(
        "ckpt0: {} -> {} bytes in {:.2}s (modeled {:.1} ms)",
        len,
        d0.diff.stored_bytes(),
        t0.elapsed().as_secs_f64(),
        d0.stats.modeled_sec * 1e3
    );

    // Sparse updates: 0.1% of chunks.
    let mut diffs = vec![d0.diff];
    for k in 1..3u64 {
        for j in 0..1000u64 {
            let at = ((k * 1_000_003 + j * 131_071) % len as u64) as usize;
            data[at] = data[at].wrapping_add(1);
        }
        let t = std::time::Instant::now();
        let out = ckpt.checkpoint(&data);
        eprintln!(
            "ckpt{k}: stored {} bytes, ratio {:.0}x, in {:.2}s",
            out.diff.stored_bytes(),
            out.stats.ratio(),
            t.elapsed().as_secs_f64()
        );
        assert!(
            out.stats.ratio() > 100.0,
            "sparse update ratio {:.1}",
            out.stats.ratio()
        );
        diffs.push(out.diff);
    }

    // One single-pass restore of the newest version (replaying all three
    // 128 MiB versions would triple peak memory), checked at the mutated
    // offsets and over the last MiB.
    let (restored, _) = restore_version_single_pass(&device, 0, &diffs, 2).unwrap();
    for k in 0..3u64 {
        for j in 0..1000u64 {
            let at = ((k * 1_000_003 + j * 131_071) % len as u64) as usize;
            assert_eq!(restored[at], data[at], "offset {at}");
        }
    }
    let tail = len - (1 << 20);
    assert_eq!(&restored[tail..], &data[tail..]);
}

/// Multi-rank interleaved submission at the tens-of-MB scale with a kill
/// landing mid-drain: eight ranks push 4 MiB records through one
/// redundancy-enabled runtime checkpoint-major (the cluster schedule), the
/// flusher is killed while the tail of the record is still draining, and
/// afterwards every durable prefix must replay bit-exact — including a
/// fully-lost rank rebuilt from its XOR group.
#[test]
#[ignore = "large: hundreds of MB staged, seconds of drain; run with --ignored"]
fn multi_rank_interleaved_submit_survives_a_mid_drain_kill() {
    const RANKS: u32 = 8;
    const CKPTS: u32 = 4;
    let len = 4 << 20;

    // Per-rank Weyl-sequence bases with sparse per-version mutations.
    let mut snapshots: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut diffs: Vec<Vec<Vec<u8>>> = Vec::new();
    for r in 0..RANKS {
        let mut data: Vec<u8> = (0..len)
            .map(|i| ((i as u64 ^ (r as u64) << 40).wrapping_mul(0x9E3779B97F4A7C15) >> 32) as u8)
            .collect();
        let mut ckpt = TreeCheckpointer::new(Device::a100(), TreeConfig::new(128));
        let mut snaps = Vec::new();
        let mut encs = Vec::new();
        for k in 0..CKPTS as u64 {
            if k > 0 {
                for j in 0..2000u64 {
                    let at = ((k * 1_000_003 + j * 131_071 + r as u64) % len as u64) as usize;
                    data[at] = data[at].wrapping_add(1);
                }
            }
            snaps.push(data.clone());
            encs.push(ckpt.checkpoint(&data).diff.encode());
        }
        snapshots.push(snaps);
        diffs.push(encs);
    }

    let rt = AsyncRuntime::start(RuntimeConfig {
        compression: CompressionPolicy::Adaptive,
        redundancy: RedundancyPolicy::Xor { group_size: 4 },
        ..Default::default()
    });
    // Checkpoint-major interleave; kill while the last wave is draining
    // (no durability barrier first — the drain is genuinely in flight).
    let mut ids = Vec::new();
    for k in 0..CKPTS {
        for r in 0..RANKS {
            rt.submit(r, k, diffs[r as usize][k as usize].clone())
                .unwrap();
            ids.push((r, k));
        }
        if k + 2 == CKPTS {
            // Everything up to the penultimate wave must settle; the final
            // wave races the kill below.
            rt.wait_durable(&ids);
        }
    }
    rt.kill();

    let report = rt.recover_report();
    let mut durable_total = 0usize;
    for rr in &report.ranks {
        let r = rr.rank as usize;
        // At least the waves we barriered on must be durable.
        assert!(
            rr.prefix_len >= (CKPTS - 1) as usize,
            "rank {r}: drained prefix lost, got {}",
            rr.prefix_len
        );
        durable_total += rr.prefix_len;
        let decoded: Vec<gpu_dedup_ckpt::dedup::Diff> = rr
            .payloads
            .iter()
            .map(|b| gpu_dedup_ckpt::dedup::Diff::decode(b).expect("payload decodes"))
            .collect();
        let versions = restore_record(&decoded).expect("durable prefix replays");
        for (kk, v) in versions.iter().enumerate() {
            assert_eq!(v, &snapshots[r][kk], "rank {r} version {kk} not bit-exact");
        }
    }
    eprintln!(
        "mid-drain kill: {durable_total}/{} objects durable across {RANKS} ranks",
        RANKS * CKPTS
    );

    // A full node loss on rank 5 after the crash: host, SSD and PFS gone;
    // the latest durable checkpoint must come back from the XOR group.
    let lost = 5u32;
    let lost_prefix = report
        .ranks
        .iter()
        .find(|rr| rr.rank == lost)
        .map(|rr| rr.prefix_len)
        .unwrap();
    rt.wait_redundancy_durable(&ids[..(RANKS * (CKPTS - 1)) as usize]);
    rt.tiers().host.wipe_rank(lost);
    rt.tiers().ssd.wipe_rank(lost);
    rt.tiers().pfs.wipe_rank(lost);
    let device = Device::a100();
    let out = restore_rank_latest_parallel(rt.tiers(), &device, lost, None)
        .expect("lost rank restores from its group");
    assert!(out.version as usize >= lost_prefix.saturating_sub(1));
    assert_eq!(
        &out.data, &snapshots[lost as usize][out.version as usize],
        "rank {lost}: group rebuild not bit-identical at v{}",
        out.version
    );
}
