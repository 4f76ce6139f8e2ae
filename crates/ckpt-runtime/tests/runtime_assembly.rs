//! Behaviour pins for the runtime assembly: whatever `AsyncRuntime::start`
//! and the flusher's `hop` are refactored into, a runtime must keep storing
//! the same bytes, issuing the same tier operations and exporting the same
//! metric names.
//!
//! 1. `start(RuntimeConfig::default())` and `new()` export one key set, and
//!    `with_rank_dedup(..)` (kept for the frozen `bench/` package) stores
//!    what `start(..)` with the same six values stores;
//! 2. golden digests of every frame on the PFS and in the group tier after a
//!    seeded 4-rank x 4-checkpoint round, per stack the BENCH sweeps use;
//! 3. golden `FaultPlan::op_counts()` / `fired()` of a fault-free drain and
//!    of a drain whose SSD refuses every write (the degraded edge);
//! 4. every metric a faulted full-stack round registers is listed in the
//!    DESIGN.md §7 inventory.
//!
//! The digests and op counts were captured from the commit before
//! `RuntimeConfig` existed, through `with_rank_dedup`. The stored digests
//! were taken again when every writer moved to version 2 of the frame,
//! parity and rank-dedup formats (the lane-split checksum): with each
//! version and checksum field zeroed, every decoded object equalled the
//! version-1 writers' (CHANGES.md lists the old and new values).

use ckpt_dedup::prelude::*;
use ckpt_hash::{Hasher128, Murmur3};
use ckpt_runtime::tier::ObjectId;
use ckpt_runtime::{
    AsyncRuntime, CompressionPolicy, FaultKind, FaultPlan, OpKind, RankDedupConfig,
    RankDedupEngine, RankDedupMetrics, RedundancyPolicy, RuntimeConfig, SplitMix64, Tier,
    TierChain,
};
use ckpt_telemetry::{collect_keys, Registry};
use gpu_sim::Device;
use std::sync::Arc;

const CHUNK: usize = 64;
const RANKS: u32 = 4;
const CKPTS: u32 = 4;
const XOR4: RedundancyPolicy = RedundancyPolicy::Xor { group_size: 4 };

/// Encoded Tree diffs, `[rank][ckpt]`: every rank starts from the same
/// compressible 16 KiB buffer (so the cluster index finds shared chunks and
/// the compressor shrinks checkpoint 0) and drifts by rank-seeded edits.
fn diffs(seed: u64) -> Vec<Vec<Vec<u8>>> {
    let base: Vec<u8> = (0..4096u32).flat_map(|i| (i / 7).to_le_bytes()).collect();
    (0..RANKS)
        .map(|r| {
            let mut rng = SplitMix64::new(seed ^ (r as u64 + 1).wrapping_mul(0x9e37_79b9));
            let mut data = base.clone();
            let mut ckpt = TreeCheckpointer::new(Device::a100(), TreeConfig::new(CHUNK));
            (0..CKPTS)
                .map(|k| {
                    if k > 0 {
                        for _ in 0..1 + rng.next() % 16 {
                            let at = rng.next() as usize % data.len();
                            data[at] = rng.next() as u8;
                        }
                    }
                    ckpt.checkpoint(&data).diff.encode()
                })
                .collect()
        })
        .collect()
}

fn ids() -> Vec<ObjectId> {
    (0..CKPTS)
        .flat_map(|k| (0..RANKS).map(move |r| (r, k)))
        .collect()
}

/// The configuration of one stack; `rank_dedup` builds a fresh inline
/// engine bound to the same registry.
fn config(
    tiers: TierChain,
    compression: CompressionPolicy,
    redundancy: RedundancyPolicy,
    rank_dedup: bool,
) -> RuntimeConfig {
    let registry = Arc::new(Registry::new());
    let engine = rank_dedup.then(|| {
        RankDedupEngine::new(
            RankDedupConfig {
                ranks: RANKS,
                chunk_len: CHUNK,
            },
            RankDedupMetrics::bound(Arc::clone(&registry)),
        )
    });
    RuntimeConfig {
        tiers,
        registry,
        compression,
        redundancy,
        rank_dedup: engine,
        ..Default::default()
    }
}

/// Submit the whole cluster checkpoint-major and wait for both durability
/// levels.
fn round(rt: &AsyncRuntime, diffs: &[Vec<Vec<u8>>]) {
    for k in 0..CKPTS {
        for r in 0..RANKS {
            rt.submit(r, k, diffs[r as usize][k as usize].clone())
                .unwrap();
        }
    }
    rt.wait_durable(&ids());
    rt.wait_redundancy_durable(&ids());
}

/// Murmur3 of every resident frame of `tier`, concatenated in id order.
fn tier_digest(tier: &Tier) -> String {
    let mut all = Vec::new();
    for id in tier.resident() {
        all.extend_from_slice(&tier.raw(id).unwrap());
    }
    let d = Murmur3.hash_seeded(&all, 0);
    format!("{:016x}{:016x}", d.h1, d.h2)
}

/// (PFS digest, group-tier digest).
fn stored_digests(rt: &AsyncRuntime) -> (String, Option<String>) {
    let group = rt.tiers().redundancy().map(|r| tier_digest(r.group_tier()));
    (tier_digest(&rt.tiers().pfs), group)
}

#[test]
fn default_config_is_new_and_the_bench_shim_is_start() {
    let run = |rt: AsyncRuntime| {
        rt.submit(0, 0, vec![7; 4096]).unwrap();
        rt.wait_durable(&[(0, 0)]);
        let reg = Arc::clone(rt.telemetry());
        rt.shutdown();
        collect_keys(&reg.snapshot_json())
    };
    assert_eq!(
        run(AsyncRuntime::new()),
        run(AsyncRuntime::start(RuntimeConfig::default()))
    );

    let diffs = diffs(0x5eed);
    let via_start = AsyncRuntime::start(config(
        TierChain::new(),
        CompressionPolicy::Adaptive,
        XOR4,
        true,
    ));
    let c = config(TierChain::new(), CompressionPolicy::Adaptive, XOR4, true);
    let via_shim = AsyncRuntime::with_rank_dedup(
        c.tiers,
        c.time_scale,
        c.registry,
        c.compression,
        c.redundancy,
        c.rank_dedup,
    );
    round(&via_start, &diffs);
    round(&via_shim, &diffs);
    assert_eq!(stored_digests(&via_start), stored_digests(&via_shim));
}

#[test]
fn stored_bytes_match_the_parent_commit_under_every_bench_stack() {
    let diffs = diffs(0x5eed);
    let (off, adaptive) = (CompressionPolicy::Off, CompressionPolicy::Adaptive);
    for (stack, compression, redundancy, rank_dedup, pfs, group) in [
        (
            "plain",
            off,
            RedundancyPolicy::Off,
            false,
            "b70ac057e95d440f28c9dc3a7e1e96ee",
            None,
        ),
        (
            "adaptive",
            adaptive,
            RedundancyPolicy::Off,
            false,
            "db7264fd8663ad45819f405912bc2f8e",
            None,
        ),
        (
            "adaptive + xor:4",
            adaptive,
            XOR4,
            false,
            "db7264fd8663ad45819f405912bc2f8e",
            Some("53ef4282ef4e8f4173471f3a525d1d0e"),
        ),
        (
            "adaptive + xor:4 + rank-dedup",
            adaptive,
            XOR4,
            true,
            "8f40cf2aa44d8fbb584d3e9206da6270",
            Some("54ed51c112fecbaf42857ab4f06b18a1"),
        ),
    ] {
        let rt = AsyncRuntime::start(config(
            TierChain::new(),
            compression,
            redundancy,
            rank_dedup,
        ));
        round(&rt, &diffs);
        let want = (pfs.to_string(), group.map(str::to_string));
        assert_eq!(stored_digests(&rt), want, "{stack}");
        rt.shutdown();
    }
}

/// Drain three objects of rank 0 through `plan`'s chain; returns the plan's
/// op counts.
fn drained_ops(plan: &Arc<FaultPlan>) -> Vec<((&'static str, OpKind), u64)> {
    let rt = AsyncRuntime::start(config(
        TierChain::with_faults(Arc::clone(plan)),
        CompressionPolicy::Off,
        RedundancyPolicy::Off,
        false,
    ));
    for k in 0..3u32 {
        rt.submit(0, k, vec![k as u8; 256]).unwrap();
    }
    rt.wait_durable(&[(0, 0), (0, 1), (0, 2)]);
    rt.shutdown();
    plan.op_counts()
}

#[test]
fn a_drain_issues_the_parent_commits_tier_operations() {
    use OpKind::{Get, Put};
    // Fault-free: per object one staged put, one host read, one put and one
    // read on the SSD, one put on the PFS.
    let plan = FaultPlan::empty();
    assert_eq!(
        drained_ops(&plan),
        [
            (("host", Put), 3),
            (("host", Get), 3),
            (("pfs", Put), 3),
            (("ssd", Put), 3),
            (("ssd", Get), 3),
        ]
    );
    assert!(plan.fired().is_empty());

    // The SSD refuses every write: four attempts per object, then the
    // degraded host -> PFS edge — and no SSD read at all.
    let mut b = FaultPlan::builder();
    for op in 0..64 {
        b = b.on_put("ssd", op, FaultKind::TransientIo);
    }
    let plan = b.build();
    assert_eq!(
        drained_ops(&plan),
        [
            (("host", Put), 3),
            (("host", Get), 3),
            (("pfs", Put), 3),
            (("ssd", Put), 12),
        ]
    );
    let fired = plan.fired();
    assert_eq!(fired.len(), 12);
    for (ordinal, f) in fired.iter().enumerate() {
        assert_eq!(
            (f.tier, f.op, f.ordinal, f.kind),
            ("ssd", Put, ordinal as u64, FaultKind::TransientIo)
        );
    }
}

/// The backticked metric names of DESIGN.md §7 "Metric inventory", with
/// `{a,b}` alternations expanded. A `<placeholder>` segment stays as
/// written and matches any one segment.
fn design_inventory() -> Vec<String> {
    let design = include_str!("../../../DESIGN.md");
    let start = design.find("### Metric inventory").expect("§7 heading");
    let section = &design[start..];
    let section = &section[..section.find("### JSON schema").expect("next heading")];
    let mut names = Vec::new();
    for (i, span) in section.split('`').enumerate() {
        // Odd pieces sit between backticks; metric names have a `/`.
        if i % 2 == 1 && span.contains('/') && !span.contains(' ') {
            expand(span, &mut names);
        }
    }
    names
}

fn expand(pattern: &str, out: &mut Vec<String>) {
    match (pattern.find('{'), pattern.find('}')) {
        (Some(open), Some(close)) if open < close => {
            for alt in pattern[open + 1..close].split(',') {
                expand(
                    &format!("{}{alt}{}", &pattern[..open], &pattern[close + 1..]),
                    out,
                );
            }
        }
        _ => out.push(pattern.to_string()),
    }
}

fn listed(inventory: &[String], name: &str) -> bool {
    inventory.iter().any(|pattern| {
        let (p, n): (Vec<&str>, Vec<&str>) =
            (pattern.split('/').collect(), name.split('/').collect());
        p.len() == n.len()
            && p.iter()
                .zip(&n)
                .all(|(p, n)| p == n || (p.starts_with('<') && p.ends_with('>')))
    })
}

#[test]
fn every_registered_metric_is_in_the_design_inventory() {
    // One transient SSD error (a retry), one bit-flipped SSD copy (a
    // corrupt frame, quarantined) and one rank loss mid-drain, under the
    // full stack; then a recovery pass and a parallel restore so the read
    // side registers its metrics too.
    let plan = FaultPlan::builder()
        .on_put("ssd", 1, FaultKind::TransientIo)
        .on_put("ssd", 3, FaultKind::BitFlip { bit: 4321 })
        .on_put("pfs", 9, FaultKind::RankLoss { rank: 2 })
        .build();
    let cfg = config(
        TierChain::with_faults(Arc::clone(&plan)),
        CompressionPolicy::Adaptive,
        XOR4,
        true,
    );
    let registry = Arc::clone(&cfg.registry);
    let rt = AsyncRuntime::start(cfg);
    round(&rt, &diffs(0x5eed));
    assert_eq!(plan.fired().len(), 3, "all three faults fired");
    rt.kill();
    rt.recover_report();
    for rank in 0..RANKS {
        rt.restore_latest_parallel(&Device::a100(), rank)
            .expect("every rank restores (rank 2 through its group)");
    }
    for must in [
        "runtime/retries",
        "integrity/frames_corrupt",
        "redundancy/rank_losses",
        "rankdedup/claims",
        "compress/bytes_in",
        "restore/records_read",
    ] {
        assert!(registry.counter(must).get() > 0, "{must} never counted");
    }
    assert_eq!(
        registry.counter("redundancy/rank_losses").get(),
        1,
        "the one RankLoss is counted once"
    );

    let inventory = design_inventory();
    let snapshot = registry.snapshot_json();
    let unlisted: Vec<String> = collect_keys(&snapshot)
        .into_iter()
        .filter(|key| key.contains('/') && !listed(&inventory, key))
        .collect();
    assert!(
        unlisted.is_empty(),
        "registered but missing from DESIGN.md §7: {unlisted:?}"
    );
}
