//! Cluster failure schedules for cross-rank redundancy groups.
//!
//! Extends the crash-consistency harness with whole-rank node loss
//! ([`FaultKind::RankLoss`], drawn by [`FaultPlan::from_seed_clustered`])
//! over 4–8 rank clusters running partner-copy or XOR-parity redundancy.
//!
//! Invariants checked:
//!
//! 1. recovery never returns a wrong payload — every byte it hands back is
//!    identical to what was submitted (and replays to the fault-free
//!    snapshots), no matter which faults fired;
//! 2. ranks a `RankLoss` never hit are fully accounted, exactly as in the
//!    redundancy-off harness;
//! 3. a *fully* lost rank (host, SSD and PFS gone) restores its latest
//!    checkpoint from the group bit-identically to sequential fault-free
//!    replay — at 1, 2 and 8 pool threads, compression Off and Adaptive;
//! 4. two simultaneous losses inside one XOR group produce typed
//!    `LostCorrupt` outcomes, never a reconstructed-but-wrong payload.

use ckpt_dedup::prelude::*;
use ckpt_dedup::Diff;
use ckpt_runtime::rankdedup::chunk_hash;
use ckpt_runtime::tier::ObjectId;
use ckpt_runtime::{
    restore_rank_latest_parallel, AsyncRuntime, CompressionPolicy, FaultKind, FaultPlan,
    ObjectStatus, RankDedupConfig, RankDedupEngine, RankDedupMetrics, RedundancyPolicy,
    RuntimeConfig, SplitMix64, TierChain,
};
use ckpt_telemetry::Registry;
use gpu_sim::Device;
use proptest::prelude::*;
use std::sync::Arc;

const CHUNK: usize = 64;

/// Deterministic per-rank snapshot sequence (same construction as the
/// crash-consistency harness, so ground truth is reproducible from the
/// parameters alone).
fn rank_snapshots(rank: u32, len: usize, data_seed: u64, count: usize) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(data_seed ^ (rank as u64).wrapping_mul(0x9e37_79b9));
    let mut data: Vec<u8> = (0..len).map(|_| (rng.next() & 0xff) as u8).collect();
    let mut out = vec![data.clone()];
    for _ in 1..count {
        let edits = 1 + (rng.next() % 24) as usize;
        for _ in 0..edits {
            let at = (rng.next() as usize) % len;
            data[at] = (rng.next() & 0xff) as u8;
        }
        out.push(data.clone());
    }
    out
}

struct Cluster {
    ranks: u32,
    ckpts: u32,
    snapshots: Vec<Vec<Vec<u8>>>,
    diffs: Vec<Vec<Vec<u8>>>,
}

impl Cluster {
    fn build(ranks: u32, ckpts: u32, len: usize, data_seed: u64) -> Cluster {
        let mut snapshots = Vec::new();
        let mut diffs = Vec::new();
        for r in 0..ranks {
            let snaps = rank_snapshots(r, len, data_seed, ckpts as usize);
            let mut ckpt = TreeCheckpointer::new(Device::a100(), TreeConfig::new(CHUNK));
            diffs.push(
                snaps
                    .iter()
                    .map(|s| ckpt.checkpoint(s).diff.encode())
                    .collect::<Vec<_>>(),
            );
            snapshots.push(snaps);
        }
        Cluster {
            ranks,
            ckpts,
            snapshots,
            diffs,
        }
    }

    fn ids(&self) -> Vec<ObjectId> {
        (0..self.ckpts)
            .flat_map(|k| (0..self.ranks).map(move |r| (r, k)))
            .collect()
    }
}

fn make_runtime(
    plan: Arc<FaultPlan>,
    compression: CompressionPolicy,
    redundancy: RedundancyPolicy,
) -> AsyncRuntime {
    AsyncRuntime::start(RuntimeConfig {
        tiers: TierChain::with_faults(plan),
        compression,
        redundancy,
        ..Default::default()
    })
}

/// Submit the whole cluster rank-interleaved with an optional mid-schedule
/// kill, then recover. Mirrors the crash-consistency harness driver.
fn run_cluster(
    sched: &Cluster,
    plan: Arc<FaultPlan>,
    kill_after: usize,
    compression: CompressionPolicy,
    redundancy: RedundancyPolicy,
) -> (ckpt_runtime::RecoveryReport, Vec<ObjectId>) {
    let rt = make_runtime(plan, compression, redundancy);
    let mut submitted_ok: Vec<ObjectId> = Vec::new();
    let mut n = 0usize;
    let mut killed = false;
    for k in 0..sched.ckpts {
        for r in 0..sched.ranks {
            if n == kill_after && !killed {
                rt.wait_durable(&submitted_ok);
                rt.kill();
                killed = true;
            }
            n += 1;
            if rt
                .submit(r, k, sched.diffs[r as usize][k as usize].clone())
                .is_ok()
            {
                submitted_ok.push((r, k));
            }
        }
    }
    if !killed {
        rt.wait_durable(&submitted_ok);
        rt.kill();
    }
    (rt.recover_report(), submitted_ok)
}

/// Invariant 1: whatever recovery reports is bit-identical to the
/// fault-free ground truth — payloads equal the submitted bytes and the
/// durable prefix replays to the original snapshots.
fn check_payloads_bit_identical(sched: &Cluster, report: &ckpt_runtime::RecoveryReport) {
    for rr in &report.ranks {
        let r = rr.rank as usize;
        for (i, payload) in rr.payloads.iter().enumerate() {
            let k = rr.base as usize + i;
            assert_eq!(
                payload, &sched.diffs[r][k],
                "rank {r} ckpt {k}: recovered payload differs from submitted bytes"
            );
        }
        if rr.prefix_len == 0 {
            continue;
        }
        let decoded: Vec<Diff> = rr
            .payloads
            .iter()
            .map(|b| Diff::decode(b).expect("recovered payload must decode"))
            .collect();
        let versions = restore_record(&decoded).expect("durable prefix must replay");
        for (i, v) in versions.iter().enumerate() {
            assert_eq!(
                v,
                &sched.snapshots[r][rr.base as usize + i],
                "rank {r} version {} not bit-exact to fault-free replay",
                rr.base as usize + i
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Seeded cluster failure schedules: submits × RankLoss/BitFlip/torn
    /// writes/kill over 4–8 ranks. Surviving ranks' durable prefixes stay
    /// bit-identical to fault-free replay and fully accounted; recovery
    /// never fabricates a payload for anyone.
    #[test]
    fn cluster_failure_schedules_recover_bit_exact(
        ranks in 4u32..9,
        ckpts in 2u32..4,
        len in 256usize..768,
        data_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        fault_count in 0usize..12,
        kill_frac in 0u32..120,
        policy_idx in 0usize..3,
    ) {
        let redundancy = match policy_idx {
            0 => RedundancyPolicy::Off,
            1 => RedundancyPolicy::Partner,
            _ => RedundancyPolicy::Xor { group_size: 2 },
        };
        let sched = Cluster::build(ranks, ckpts, len, data_seed);
        let total = (ranks * ckpts) as usize;
        let kill_after = (kill_frac as usize * (total + 1)) / 120;
        let plan = if fault_count == 0 {
            FaultPlan::empty()
        } else {
            FaultPlan::from_seed_clustered(fault_seed, fault_count, (total * 4) as u64, ranks)
        };
        let (report, submitted_ok) =
            run_cluster(&sched, Arc::clone(&plan), kill_after, CompressionPolicy::Off, redundancy);

        check_payloads_bit_identical(&sched, &report);

        // Ranks an actually-fired RankLoss hit; everyone else must be
        // fully accounted exactly like the redundancy-off harness.
        let lost: std::collections::HashSet<u32> = plan
            .fired()
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::RankLoss { rank } => Some(rank),
                _ => None,
            })
            .collect();
        let mut surviving_submitted = 0usize;
        let mut surviving_reported = 0usize;
        for &(r, _) in &submitted_ok {
            if !lost.contains(&r) {
                surviving_submitted += 1;
            }
        }
        for rr in &report.ranks {
            if !lost.contains(&rr.rank) {
                surviving_reported += rr.objects.len();
            }
            for o in &rr.objects {
                if o.status == ObjectStatus::RestoredFromGroup {
                    prop_assert_ne!(
                        redundancy,
                        RedundancyPolicy::Off,
                        "group restore reported without a redundancy group"
                    );
                }
            }
        }
        prop_assert_eq!(
            surviving_reported, surviving_submitted,
            "surviving ranks must account every accepted object"
        );
        prop_assert!(report.total_objects() <= submitted_ok.len());
        if lost.is_empty() {
            prop_assert_eq!(report.total_objects(), submitted_ok.len());
        }
        if redundancy == RedundancyPolicy::Off {
            prop_assert_eq!(report.total_restored_from_group(), 0);
        }
    }

    /// Satellite differential: with redundancy Off, `recover_report()` is
    /// byte-for-byte identical (JSON rendering and all) to the baseline
    /// compression-eligible runtime on the crash-consistency schedules —
    /// the redundancy layer is invisible unless enabled.
    #[test]
    fn redundancy_off_is_byte_identical_to_baseline(
        ranks in 1u32..3,
        ckpts in 2u32..5,
        len in 256usize..1024,
        data_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        fault_count in 0usize..10,
        kill_frac in 0u32..120,
        adaptive in any::<bool>(),
    ) {
        let compression = if adaptive {
            CompressionPolicy::Adaptive
        } else {
            CompressionPolicy::Off
        };
        let sched = Cluster::build(ranks, ckpts, len, data_seed);
        let total = (ranks * ckpts) as usize;
        let kill_after = (kill_frac as usize * (total + 1)) / 120;
        let horizon = (total * 4) as u64;
        let mk = || {
            if fault_count == 0 {
                FaultPlan::empty()
            } else {
                FaultPlan::from_seed(fault_seed, fault_count, horizon)
            }
        };

        // Baseline: a configuration that never names redundancy.
        let plan_a = mk();
        let rt = AsyncRuntime::start(RuntimeConfig {
            tiers: TierChain::with_faults(Arc::clone(&plan_a)),
            compression,
            ..Default::default()
        });
        let mut ok_a = Vec::new();
        for k in 0..sched.ckpts {
            for r in 0..sched.ranks {
                if (k * sched.ranks + r) as usize == kill_after {
                    rt.wait_durable(&ok_a);
                    rt.kill();
                }
                if rt.submit(r, k, sched.diffs[r as usize][k as usize].clone()).is_ok() {
                    ok_a.push((r, k));
                }
            }
        }
        rt.wait_durable(&ok_a);
        rt.kill();
        let base_json = rt.recover_report().to_json();
        let base_fired = plan_a.fired();

        // Same schedule with the redundancy field spelled out, Off.
        let plan_b = mk();
        let rt = make_runtime(Arc::clone(&plan_b), compression, RedundancyPolicy::Off);
        let mut ok_b = Vec::new();
        for k in 0..sched.ckpts {
            for r in 0..sched.ranks {
                if (k * sched.ranks + r) as usize == kill_after {
                    rt.wait_durable(&ok_b);
                    rt.kill();
                }
                if rt.submit(r, k, sched.diffs[r as usize][k as usize].clone()).is_ok() {
                    ok_b.push((r, k));
                }
            }
        }
        rt.wait_durable(&ok_b);
        rt.kill();
        let off_json = rt.recover_report().to_json();

        prop_assert_eq!(base_fired, plan_b.fired(), "fault schedules diverged");
        prop_assert_eq!(ok_a, ok_b, "accepted-submission sets diverged");
        prop_assert_eq!(
            base_json, off_json,
            "redundancy Off changed the recovery report"
        );
    }
}

/// Acceptance criterion: a fully-lost rank (host, SSD *and* PFS wiped)
/// restores its latest checkpoint from the redundancy group bit-identically
/// to sequential fault-free replay — at 1, 2 and 8 pool threads, with
/// compression Off and Adaptive, under both partner and XOR policies.
#[test]
fn fully_lost_rank_restores_from_group_bit_identically() {
    let device = Device::a100();
    let sched = Cluster::build(4, 4, 4096, 2024);
    let lost = 2u32;
    let want = sched.snapshots[lost as usize].last().unwrap();
    for redundancy in [
        RedundancyPolicy::Partner,
        RedundancyPolicy::Xor { group_size: 4 },
    ] {
        for compression in [CompressionPolicy::Off, CompressionPolicy::Adaptive] {
            for threads in [1usize, 2, 8] {
                rayon::set_active_threads(threads);
                let rt = make_runtime(FaultPlan::empty(), compression, redundancy);
                let ids = sched.ids();
                for k in 0..sched.ckpts {
                    for r in 0..sched.ranks {
                        rt.submit(r, k, sched.diffs[r as usize][k as usize].clone())
                            .unwrap();
                    }
                }
                rt.wait_durable(&ids);
                rt.wait_redundancy_durable(&ids);
                rt.kill();

                // Node loss takes every local copy, durable tier included.
                rt.tiers().host.wipe_rank(lost);
                rt.tiers().ssd.wipe_rank(lost);
                rt.tiers().pfs.wipe_rank(lost);

                let out = restore_rank_latest_parallel(rt.tiers(), &device, lost, None)
                    .expect("lost rank must restore from its group");
                assert_eq!(out.version, sched.ckpts - 1);
                assert_eq!(
                    &out.data, want,
                    "{redundancy:?}/{compression:?}/{threads} threads: \
                     group restore not bit-identical to fault-free replay"
                );

                // The rebuild re-registers on the PFS and the recovery
                // report types it as group-restored.
                let report = rt.recover_report();
                let rr = report
                    .ranks
                    .iter()
                    .find(|rr| rr.rank == lost)
                    .expect("lost rank present in report");
                assert_eq!(rr.prefix_len, sched.ckpts as usize);
                assert!(rr.objects.iter().all(|o| o.status.is_durable()));
                check_payloads_bit_identical(&sched, &report);
            }
        }
    }
    rayon::set_active_threads(0);
}

/// Two simultaneous rank losses inside one XOR group: reconstruction is
/// impossible, and the report must say `LostCorrupt` for every affected
/// object — never a fabricated payload — while the other group's ranks
/// stay fully verified.
#[test]
fn xor_double_loss_is_typed_never_wrong() {
    let sched = Cluster::build(8, 3, 2048, 7);
    let rt = make_runtime(
        FaultPlan::empty(),
        CompressionPolicy::Off,
        RedundancyPolicy::Xor { group_size: 4 },
    );
    let ids = sched.ids();
    for k in 0..sched.ckpts {
        for r in 0..sched.ranks {
            rt.submit(r, k, sched.diffs[r as usize][k as usize].clone())
                .unwrap();
        }
    }
    rt.wait_durable(&ids);
    rt.wait_redundancy_durable(&ids);
    rt.kill();

    // Ranks 1 and 2 share XOR group 0; both go down completely, hosted
    // parity stripes included.
    let red = rt
        .tiers()
        .redundancy()
        .expect("redundancy attached")
        .clone();
    for lost in [1u32, 2] {
        rt.tiers().host.wipe_rank(lost);
        rt.tiers().ssd.wipe_rank(lost);
        rt.tiers().pfs.wipe_rank(lost);
        red.apply_rank_loss(lost);
    }

    let device = Device::a100();
    assert!(
        restore_rank_latest_parallel(rt.tiers(), &device, 1, None).is_err(),
        "a double loss must not restore"
    );

    let report = rt.recover_report();
    check_payloads_bit_identical(&sched, &report);
    for rr in &report.ranks {
        if rr.rank == 1 || rr.rank == 2 {
            assert_eq!(rr.prefix_len, 0, "rank {}: nothing usable remains", rr.rank);
            for o in &rr.objects {
                assert_eq!(
                    o.status,
                    ObjectStatus::LostCorrupt,
                    "rank {} ckpt {}: double loss must be typed, got {:?}",
                    rr.rank,
                    o.ckpt_id,
                    o.status
                );
            }
        } else {
            // Everyone else — including group 1 (ranks 4–7) — is intact.
            assert_eq!(rr.prefix_len, sched.ckpts as usize, "rank {}", rr.rank);
            assert!(rr
                .objects
                .iter()
                .all(|o| o.status == ObjectStatus::Verified));
        }
    }
}

/// Per-rank snapshots over one *shared* base buffer, so the cluster
/// dedup index has real cross-rank redundancy to find (version 0 is
/// identical on every rank, later versions drift by seeded edits).
fn shared_snapshots(ranks: u32, len: usize, data_seed: u64, count: usize) -> Vec<Vec<Vec<u8>>> {
    let mut rng = SplitMix64::new(data_seed);
    let base: Vec<u8> = (0..len).map(|_| (rng.next() & 0xff) as u8).collect();
    (0..ranks)
        .map(|r| {
            let mut rng = SplitMix64::new(data_seed ^ (r as u64 + 1).wrapping_mul(0x9e37_79b9));
            let mut data = base.clone();
            let mut out = vec![data.clone()];
            for _ in 1..count {
                for _ in 0..1 + (rng.next() % 16) as usize {
                    let at = (rng.next() as usize) % len;
                    data[at] = (rng.next() & 0xff) as u8;
                }
                out.push(data.clone());
            }
            out
        })
        .collect()
}

fn shared_cluster(ranks: u32, ckpts: u32, len: usize, data_seed: u64) -> Cluster {
    let snapshots = shared_snapshots(ranks, len, data_seed, ckpts as usize);
    let diffs = snapshots
        .iter()
        .map(|snaps| {
            let mut ckpt = TreeCheckpointer::new(Device::a100(), TreeConfig::new(CHUNK));
            snaps
                .iter()
                .map(|s| ckpt.checkpoint(s).diff.encode())
                .collect::<Vec<_>>()
        })
        .collect();
    Cluster {
        ranks,
        ckpts,
        snapshots,
        diffs,
    }
}

/// Faults fired against the claim exchange (`RankLoss` of a claimant,
/// transient drops, torn batches) orphan claims but never corrupt data:
/// every durable record still resolves to the original diff bytes, every
/// rank still restores bit-exact, and the dropped claims surface as typed
/// `rankdedup/orphans` — the chunks stay locally stored by their
/// claimant, never silently re-stored as someone else's.
#[test]
fn exchange_faults_orphan_claims_but_keep_prefixes_bit_exact() {
    let sched = shared_cluster(4, 3, 2048, 41);
    let plan = FaultPlan::builder()
        .on_put("exchange", 1, FaultKind::RankLoss { rank: 1 })
        .on_put("exchange", 2, FaultKind::TransientIo)
        .on_put("exchange", 4, FaultKind::TornWrite { keep_bytes: 7 })
        .build();
    let registry = Arc::new(Registry::new());
    let engine = RankDedupEngine::with_exchange(
        RankDedupConfig {
            ranks: sched.ranks,
            chunk_len: CHUNK,
        },
        RankDedupMetrics::bound(Arc::clone(&registry)),
        0xFEED,
        2,
        Some(Arc::clone(&plan)),
    );
    let rt = AsyncRuntime::start(RuntimeConfig {
        registry: Arc::clone(&registry),
        compression: CompressionPolicy::Adaptive,
        redundancy: RedundancyPolicy::Xor { group_size: 4 },
        rank_dedup: Some(engine),
        ..Default::default()
    });
    let ids = sched.ids();
    for k in 0..sched.ckpts {
        for r in 0..sched.ranks {
            rt.submit(r, k, sched.diffs[r as usize][k as usize].clone())
                .unwrap();
        }
    }
    rt.wait_durable(&ids);
    rt.wait_redundancy_durable(&ids);
    rt.rank_dedup().unwrap().quiesce();

    let dropped = plan
        .fired()
        .iter()
        .filter(|f| {
            matches!(
                f.kind,
                FaultKind::RankLoss { .. } | FaultKind::TransientIo | FaultKind::TornWrite { .. }
            )
        })
        .count();
    assert!(dropped > 0, "the schedule must actually drop batches");
    assert!(
        registry.counter("rankdedup/orphans").get() > 0,
        "dropped claim batches must be typed as orphans"
    );

    // Durable prefixes resolve to the original diffs and replay bit-exact
    // despite the orphaned claims.
    let report = rt.recover_report();
    check_payloads_bit_identical(&sched, &report);
    for rr in &report.ranks {
        assert_eq!(rr.prefix_len, sched.ckpts as usize, "rank {}", rr.rank);
    }
    let device = Device::a100();
    for r in 0..sched.ranks {
        let out = restore_rank_latest_parallel(rt.tiers(), &device, r, None).unwrap();
        assert_eq!(&out.data, sched.snapshots[r as usize].last().unwrap());
    }
    rt.kill();
}

/// Killing the exchange mid-schedule (the claim stage crashes while
/// checkpoints keep coming) drops the queued batches as orphans; records
/// submitted after the kill keep their chunks local. Durable prefixes
/// stay bit-exact, and a full rank loss afterwards still restores every
/// survivor — including one whose records reference the lost claim
/// winner — through the parity group.
#[test]
fn exchange_kill_mid_schedule_keeps_durable_prefixes_bit_exact() {
    let sched = shared_cluster(4, 4, 2048, 43);
    let registry = Arc::new(Registry::new());
    let engine = RankDedupEngine::with_exchange(
        RankDedupConfig {
            ranks: sched.ranks,
            chunk_len: CHUNK,
        },
        RankDedupMetrics::bound(Arc::clone(&registry)),
        0xBEEF,
        3,
        None,
    );
    let rt = AsyncRuntime::start(RuntimeConfig {
        registry: Arc::clone(&registry),
        compression: CompressionPolicy::Off,
        redundancy: RedundancyPolicy::Partner,
        rank_dedup: Some(Arc::clone(&engine)),
        ..Default::default()
    });
    let ids = sched.ids();
    for k in 0..sched.ckpts {
        // The exchange crashes between checkpoint rounds 1 and 2.
        if k == 2 {
            engine.kill();
        }
        for r in 0..sched.ranks {
            rt.submit(r, k, sched.diffs[r as usize][k as usize].clone())
                .unwrap();
        }
    }
    rt.wait_durable(&ids);
    rt.wait_redundancy_durable(&ids);
    assert!(
        registry.counter("rankdedup/orphans").get() > 0,
        "claims published into the dead exchange must be typed as orphans"
    );

    let report = rt.recover_report();
    check_payloads_bit_identical(&sched, &report);
    for rr in &report.ranks {
        assert_eq!(rr.prefix_len, sched.ckpts as usize, "rank {}", rr.rank);
    }

    // Rank 0 won the shared-base claims; lose it completely and restore a
    // surviving rank whose records reference it: the remotely-referenced
    // chunks must come back through the partner group before the replay.
    rt.tiers().host.wipe_rank(0);
    rt.tiers().ssd.wipe_rank(0);
    rt.tiers().pfs.wipe_rank(0);
    let device = Device::a100();
    for r in [2u32, 0] {
        let out = restore_rank_latest_parallel(rt.tiers(), &device, r, None)
            .expect("restore through the group");
        assert_eq!(
            &out.data,
            sched.snapshots[r as usize].last().unwrap(),
            "rank {r}: restore after claim-winner loss not bit-exact"
        );
    }
    rt.kill();
}

/// Everything one run of the claim exchange can show an observer.
#[derive(PartialEq, Debug)]
struct ExchangeOutcome {
    records: Vec<Vec<u8>>,
    claim_count: usize,
    /// Which rank holds the claim on each grid chunk of the shared base.
    winners: Vec<Option<u32>>,
    /// `rankdedup/{claims,remote_refs,remote_bytes_saved,orphans}`.
    counters: [u64; 4],
    restored: Vec<Vec<u8>>,
}

fn run_exchange(
    sched: &Cluster,
    seed: u64,
    window: usize,
    plan: Option<Arc<FaultPlan>>,
) -> ExchangeOutcome {
    let registry = Arc::new(Registry::new());
    let engine = RankDedupEngine::with_exchange(
        RankDedupConfig {
            ranks: sched.ranks,
            chunk_len: CHUNK,
        },
        RankDedupMetrics::bound(Arc::clone(&registry)),
        seed,
        window,
        plan,
    );
    let rt = AsyncRuntime::start(RuntimeConfig {
        registry: Arc::clone(&registry),
        rank_dedup: Some(Arc::clone(&engine)),
        ..Default::default()
    });
    let ids = sched.ids();
    for &(r, k) in &ids {
        rt.submit(r, k, sched.diffs[r as usize][k as usize].clone())
            .unwrap();
    }
    rt.wait_durable(&ids);
    engine.quiesce();
    let device = Device::a100();
    ExchangeOutcome {
        records: ids
            .iter()
            .map(|&id| {
                let stored = rt.tiers().pfs.inspect_object(id).into_object().unwrap();
                stored.payload().to_vec()
            })
            .collect(),
        claim_count: engine.index().claim_count(),
        winners: {
            let base = &sched.diffs[0][0];
            base[Diff::payload_offset(base).unwrap()..]
                .chunks(CHUNK)
                .map(|c| engine.index().lookup(chunk_hash(c)).map(|loc| loc.rank))
                .collect()
        },
        counters: ["claims", "remote_refs", "remote_bytes_saved", "orphans"]
            .map(|name| registry.counter(&format!("rankdedup/{name}")).get()),
        restored: (0..sched.ranks)
            .map(|r| {
                restore_rank_latest_parallel(rt.tiers(), &device, r, None)
                    .unwrap()
                    .data
            })
            .collect(),
    }
}

/// The exchange is a schedule, not a thread: with every rank both owning
/// shards and claiming into the others' (so own-shard commits interleave
/// with exchanged ones), a run is a pure function of `(seed, window,
/// plan)` — record bytes, index size, counters and restores repeat
/// exactly — and the seed is what picks the winners.
#[test]
fn exchange_schedule_replays_from_its_seed() {
    let sched = shared_cluster(4, 3, 2048, 47);
    let faults = |seed: u64| {
        FaultPlan::builder()
            .on_put(
                "exchange",
                seed % 3,
                FaultKind::RankLoss {
                    rank: (seed % 4) as u32,
                },
            )
            .on_put("exchange", 3 + seed % 3, FaultKind::TransientIo)
            .on_put(
                "exchange",
                6 + seed % 4,
                FaultKind::LatencySpike { micros: 50 },
            )
            .build()
    };
    for window in [0usize, 2, 5] {
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..200u64 {
            let plain = run_exchange(&sched, seed, window, None);
            assert_eq!(
                plain,
                run_exchange(&sched, seed, window, None),
                "window {window} seed {seed}"
            );
            let faulted = run_exchange(&sched, seed, window, Some(faults(seed)));
            assert_eq!(
                faulted,
                run_exchange(&sched, seed, window, Some(faults(seed))),
                "window {window} seed {seed}, faulted"
            );
            for (r, data) in plain.restored.iter().chain(&faulted.restored).enumerate() {
                let want = sched.snapshots[r % sched.ranks as usize].last().unwrap();
                assert_eq!(data, want, "window {window} seed {seed}");
            }
            assert_eq!(
                plain.counters[3] > 0,
                window > 0,
                "lost races need a window"
            );
            distinct.insert((plain.records, plain.winners));
        }
        // Window 0 commits in the claimant whatever the seed. A window
        // narrower than the four ranks sharing the base commits a seeded
        // pick between their encodes, so the seed decides who references
        // whom; at 5 every rank has encoded the base before the first
        // pick and each shard's owner has already won it.
        match window {
            0 => assert_eq!(distinct.len(), 1),
            2 => assert!(distinct.len() > 1, "the seed must matter"),
            _ => {}
        }
    }
}

/// Satellite differential: with rank-dedup *absent* (engine `None`), the
/// runtime produces a `recover_report()` whose JSON
/// is byte-for-byte the baseline redundancy runtime's on the same
/// schedules — the cluster index is invisible unless enabled.
#[test]
fn rank_dedup_off_report_json_identical_to_baseline() {
    for (data_seed, compression) in [
        (17u64, CompressionPolicy::Off),
        (18, CompressionPolicy::Adaptive),
    ] {
        let sched = Cluster::build(3, 3, 1024, data_seed);
        let run = |dedup_aware: bool| {
            let rt = if dedup_aware {
                AsyncRuntime::start(RuntimeConfig {
                    compression,
                    redundancy: RedundancyPolicy::Off,
                    rank_dedup: None,
                    ..Default::default()
                })
            } else {
                make_runtime(FaultPlan::empty(), compression, RedundancyPolicy::Off)
            };
            for k in 0..sched.ckpts {
                for r in 0..sched.ranks {
                    rt.submit(r, k, sched.diffs[r as usize][k as usize].clone())
                        .unwrap();
                }
            }
            rt.wait_durable(&sched.ids());
            rt.kill();
            rt.recover_report().to_json()
        };
        assert_eq!(
            run(false),
            run(true),
            "engine None changed the recovery report JSON"
        );
    }
}

/// A single loss in each of two *different* XOR groups is fine: both
/// ranks rebuild from their own group's survivors.
#[test]
fn one_loss_per_group_restores_both() {
    let sched = Cluster::build(8, 2, 1024, 11);
    let rt = make_runtime(
        FaultPlan::empty(),
        CompressionPolicy::Adaptive,
        RedundancyPolicy::Xor { group_size: 4 },
    );
    let ids = sched.ids();
    for k in 0..sched.ckpts {
        for r in 0..sched.ranks {
            rt.submit(r, k, sched.diffs[r as usize][k as usize].clone())
                .unwrap();
        }
    }
    rt.wait_durable(&ids);
    rt.wait_redundancy_durable(&ids);
    rt.kill();

    let red = rt
        .tiers()
        .redundancy()
        .expect("redundancy attached")
        .clone();
    for lost in [1u32, 6] {
        rt.tiers().host.wipe_rank(lost);
        rt.tiers().ssd.wipe_rank(lost);
        rt.tiers().pfs.wipe_rank(lost);
        red.apply_rank_loss(lost);
    }

    let device = Device::a100();
    for lost in [1u32, 6] {
        let out = restore_rank_latest_parallel(rt.tiers(), &device, lost, None)
            .expect("single loss per group must restore");
        assert_eq!(
            &out.data,
            sched.snapshots[lost as usize].last().unwrap(),
            "rank {lost}: group restore not bit-identical"
        );
    }
}
