//! Cluster failure schedules for cross-rank redundancy groups: whole-rank
//! node loss ([`FaultKind::RankLoss`], drawn by
//! [`FaultPlan::from_seed_clustered`]) over 4–8 rank clusters running
//! XOR-parity redundancy at group sizes 2 and 4, and faults against the
//! claim exchange of the cluster dedup index.
//!
//! Beyond the audit:
//!
//! 1. a *fully* lost rank (host, SSD and PFS gone) restores its latest
//!    checkpoint from the group bit-identically to sequential fault-free
//!    replay — at 1, 2 and 8 pool threads, compression Off and Adaptive;
//! 2. two simultaneous losses inside one XOR group produce typed
//!    `LostCorrupt` outcomes, never a reconstructed-but-wrong payload;
//! 3. a lost or faulted claim exchange orphans claims but never corrupts
//!    a record, and its schedule replays from its seed;
//! 4. redundancy Off and rank-dedup absent leave the recovery report
//!    byte-identical to a runtime that never names them.

use crate::support::{
    audit, holds, kill_point, replay_violations, run, Snapshots, Workload, CHUNK,
};
use ckpt_dedup::prelude::*;
use ckpt_dedup::Diff;
use ckpt_runtime::rankdedup::chunk_hash;
use ckpt_runtime::{
    restore_rank_latest_parallel, AsyncRuntime, ClusterDir, CompressionPolicy, FaultKind,
    FaultPlan, ObjectStatus, RankDedupConfig, RankDedupEngine, RankDedupMetrics, RedundancyPolicy,
    RuntimeConfig,
};
use ckpt_telemetry::Registry;
use gpu_sim::Device;
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

/// Independent per-rank Tree chains with up to 24 edits per version.
fn cluster(ranks: u32, ckpts: u32, len: usize, seed: u64) -> Workload {
    let snapshots = Snapshots::PerRank {
        ranks,
        ckpts,
        len,
        seed,
        edits: 24,
    };
    Workload::build(snapshots, MethodKind::Tree, None)
}

/// Tree chains over one shared base, up to 16 edits per version.
fn shared_cluster(ranks: u32, ckpts: u32, len: usize, seed: u64) -> Workload {
    let snapshots = Snapshots::Shared {
        ranks,
        ckpts,
        len,
        seed,
        edits: 16,
    };
    Workload::build(snapshots, MethodKind::Tree, None)
}

fn stack(compression: CompressionPolicy, redundancy: RedundancyPolicy) -> RuntimeConfig {
    RuntimeConfig {
        compression,
        redundancy,
        ..Default::default()
    }
}

/// Node loss: every local copy of `rank`, durable tier included.
fn lose_rank(rt: &AsyncRuntime, rank: u32) {
    rt.tiers().host.wipe_rank(rank);
    rt.tiers().ssd.wipe_rank(rank);
    rt.tiers().pfs.wipe_rank(rank);
}

/// An engine for `w`'s ranks counting into `registry`, its claim exchange
/// scheduled by `seed` and `window` and faulted by `plan`.
fn exchange(
    w: &Workload,
    registry: &Arc<Registry>,
    seed: u64,
    window: usize,
    plan: Option<Arc<FaultPlan>>,
) -> Arc<RankDedupEngine> {
    RankDedupEngine::with_exchange(
        RankDedupConfig {
            ranks: w.ranks,
            chunk_len: CHUNK,
        },
        RankDedupMetrics::bound(Arc::clone(registry)),
        seed,
        window,
        plan,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Seeded cluster failure schedules: submits × RankLoss/BitFlip/torn
    /// writes/kill over 4–8 ranks. The audit holds — surviving ranks fully
    /// accounted, recovery never fabricating a payload for anyone — and
    /// only a configured group restores anything.
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
            1 => RedundancyPolicy::Xor { group_size: 2 },
            _ => RedundancyPolicy::Xor { group_size: 4 },
        };
        let w = cluster(ranks, ckpts, len, data_seed);
        let total = (ranks * ckpts) as usize;
        let plan = if fault_count == 0 {
            FaultPlan::empty()
        } else {
            FaultPlan::from_seed_clustered(fault_seed, fault_count, (total * 4) as u64, ranks)
        };
        let cfg = stack(CompressionPolicy::Off, redundancy);
        let out = run(&w, cfg, plan, kill_point(kill_frac, total));
        holds(audit(&w, &out, fault_count));
    }

    /// With redundancy Off, `recover_report()` is byte-for-byte identical
    /// (JSON rendering and all) to a runtime that never names redundancy,
    /// on the crash schedules — the redundancy layer is invisible unless
    /// enabled.
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
        let w = cluster(ranks, ckpts, len, data_seed);
        let total = (ranks * ckpts) as usize;
        let mk = |cfg: RuntimeConfig| {
            let plan = if fault_count == 0 {
                FaultPlan::empty()
            } else {
                FaultPlan::from_seed(fault_seed, fault_count, (total * 4) as u64)
            };
            run(&w, cfg, plan, kill_point(kill_frac, total))
        };
        let base = mk(RuntimeConfig { compression, ..Default::default() });
        let off = mk(stack(compression, RedundancyPolicy::Off));
        prop_assert_eq!(base.fired(), off.fired(), "fault schedules diverged");
        prop_assert_eq!(base.accepted, off.accepted, "accepted-submission sets diverged");
        prop_assert_eq!(
            base.report.to_json(),
            off.report.to_json(),
            "redundancy Off changed the recovery report"
        );
    }
}

/// A fully-lost rank (host, SSD *and* PFS wiped) restores its latest
/// checkpoint from the redundancy group bit-identically to sequential
/// fault-free replay — at 1, 2 and 8 pool threads, with compression Off
/// and Adaptive, under XOR groups of two (the mirror) and four.
#[test]
fn fully_lost_rank_restores_from_group_bit_identically() {
    let device = Device::a100();
    let w = cluster(4, 4, 4096, 2024);
    let lost = 2u32;
    for group_size in [2, 4] {
        let redundancy = RedundancyPolicy::Xor { group_size };
        for compression in [CompressionPolicy::Off, CompressionPolicy::Adaptive] {
            for threads in [1usize, 2, 8] {
                rayon::set_active_threads(threads);
                let cfg = stack(compression, redundancy);
                let out = run(&w, cfg, FaultPlan::empty(), usize::MAX);
                lose_rank(&out.rt, lost);

                let restored = restore_rank_latest_parallel(out.rt.tiers(), &device, lost, None)
                    .expect("lost rank must restore from its group");
                assert_eq!(restored.version, w.ckpts - 1);
                assert_eq!(
                    restored.data,
                    w.latest(lost),
                    "{redundancy:?}/{compression:?}/{threads} threads: \
                     group restore not bit-identical to fault-free replay"
                );

                // The rebuild re-registers on the PFS and the recovery
                // report types it as group-restored.
                let report = out.rt.recover_report();
                let rr = report
                    .ranks
                    .iter()
                    .find(|rr| rr.rank == lost)
                    .expect("lost rank present in report");
                assert_eq!(rr.prefix_len, w.ckpts as usize);
                assert!(rr.objects.iter().all(|o| o.status.is_durable()));
                holds(replay_violations(&w, &report));
            }
        }
    }
    rayon::set_active_threads(0);
}

/// Losing `ranks` completely — their hosted parity stripes included — on
/// an XOR-4 group of 8 fault-free ranks.
fn xor4_after_losing(
    w: &Workload,
    compression: CompressionPolicy,
    ranks: [u32; 2],
) -> AsyncRuntime {
    let cfg = stack(compression, RedundancyPolicy::Xor { group_size: 4 });
    let out = run(w, cfg, FaultPlan::empty(), usize::MAX);
    let red = out
        .rt
        .tiers()
        .redundancy()
        .expect("redundancy attached")
        .clone();
    for lost in ranks {
        lose_rank(&out.rt, lost);
        red.group_tier().wipe_rank(lost);
    }
    out.rt
}

/// Two simultaneous rank losses inside one XOR group: reconstruction is
/// impossible, and the report must say `LostCorrupt` for every affected
/// object — never a fabricated payload — while the other group's ranks
/// stay fully verified.
#[test]
fn xor_double_loss_is_typed_never_wrong() {
    let w = cluster(8, 3, 2048, 7);
    // Ranks 1 and 2 share XOR group 0.
    let rt = xor4_after_losing(&w, CompressionPolicy::Off, [1, 2]);
    assert!(
        restore_rank_latest_parallel(rt.tiers(), &Device::a100(), 1, None).is_err(),
        "a double loss must not restore"
    );

    let report = rt.recover_report();
    holds(replay_violations(&w, &report));
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
            assert_eq!(rr.prefix_len, w.ckpts as usize, "rank {}", rr.rank);
            assert!(rr
                .objects
                .iter()
                .all(|o| o.status == ObjectStatus::Verified));
        }
    }
}

/// A single loss in each of two *different* XOR groups is fine: both
/// ranks rebuild from their own group's survivors.
#[test]
fn one_loss_per_group_restores_both() {
    let w = cluster(8, 2, 1024, 11);
    let rt = xor4_after_losing(&w, CompressionPolicy::Adaptive, [1, 6]);
    for lost in [1u32, 6] {
        let out = restore_rank_latest_parallel(rt.tiers(), &Device::a100(), lost, None)
            .expect("single loss per group must restore");
        assert_eq!(
            out.data,
            w.latest(lost),
            "rank {lost}: group restore not bit-identical"
        );
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
    let w = shared_cluster(4, 3, 2048, 41);
    let plan = FaultPlan::builder()
        .on_put("exchange", 1, FaultKind::RankLoss { rank: 1 })
        .on_put("exchange", 2, FaultKind::TransientIo)
        .on_put("exchange", 4, FaultKind::TornWrite { keep_bytes: 7 })
        .build();
    let registry = Arc::new(Registry::new());
    let rt = AsyncRuntime::start(RuntimeConfig {
        registry: Arc::clone(&registry),
        rank_dedup: Some(exchange(&w, &registry, 0xFEED, 2, Some(Arc::clone(&plan)))),
        ..stack(
            CompressionPolicy::Adaptive,
            RedundancyPolicy::Xor { group_size: 4 },
        )
    });
    w.submit_all(&rt);
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
    holds(replay_violations(&w, &report));
    for rr in &report.ranks {
        assert_eq!(rr.prefix_len, w.ckpts as usize, "rank {}", rr.rank);
    }
    for r in 0..w.ranks {
        let out = restore_rank_latest_parallel(rt.tiers(), &Device::a100(), r, None).unwrap();
        assert_eq!(out.data, w.latest(r));
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
    let w = shared_cluster(4, 4, 2048, 43);
    let registry = Arc::new(Registry::new());
    let engine = exchange(&w, &registry, 0xBEEF, 3, None);
    let rt = AsyncRuntime::start(RuntimeConfig {
        registry: Arc::clone(&registry),
        rank_dedup: Some(Arc::clone(&engine)),
        ..stack(
            CompressionPolicy::Off,
            RedundancyPolicy::Xor { group_size: 2 },
        )
    });
    // The exchange crashes between checkpoint rounds 1 and 2.
    w.submit_ckpts(&rt, 0..2);
    engine.kill();
    w.submit_ckpts(&rt, 2..w.ckpts);
    rt.wait_durable(&w.ids());
    rt.wait_redundancy_durable(&w.ids());
    assert!(
        registry.counter("rankdedup/orphans").get() > 0,
        "claims published into the dead exchange must be typed as orphans"
    );

    let report = rt.recover_report();
    holds(replay_violations(&w, &report));
    for rr in &report.ranks {
        assert_eq!(rr.prefix_len, w.ckpts as usize, "rank {}", rr.rank);
    }

    // Rank 0 won the shared-base claims; lose it completely and restore a
    // surviving rank whose records reference it: the remotely-referenced
    // chunks must come back through its mirror group before the replay.
    lose_rank(&rt, 0);
    for r in [2u32, 0] {
        let out = restore_rank_latest_parallel(rt.tiers(), &Device::a100(), r, None)
            .expect("restore through the group");
        assert_eq!(
            out.data,
            w.latest(r),
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
    w: &Workload,
    seed: u64,
    window: usize,
    plan: Option<Arc<FaultPlan>>,
) -> ExchangeOutcome {
    let registry = Arc::new(Registry::new());
    let engine = exchange(w, &registry, seed, window, plan);
    let rt = AsyncRuntime::start(RuntimeConfig {
        registry: Arc::clone(&registry),
        rank_dedup: Some(Arc::clone(&engine)),
        ..Default::default()
    });
    w.submit_all(&rt);
    engine.quiesce();
    let device = Device::a100();
    let base = &w.records[0][0];
    ExchangeOutcome {
        records: w
            .ids()
            .into_iter()
            .map(|id| {
                let stored = rt.tiers().pfs.inspect_object(id).into_object().unwrap();
                stored.payload().to_vec()
            })
            .collect(),
        claim_count: engine.index().claim_count(),
        winners: base[Diff::payload_offset(base).unwrap()..]
            .chunks(CHUNK)
            .map(|c| engine.index().lookup(chunk_hash(c)).map(|r| r.owner_rank))
            .collect(),
        counters: ["claims", "remote_refs", "remote_bytes_saved", "orphans"]
            .map(|name| registry.counter(&format!("rankdedup/{name}")).get()),
        restored: (0..w.ranks)
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
    let w = shared_cluster(4, 3, 2048, 47);
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
            let plain = run_exchange(&w, seed, window, None);
            assert_eq!(
                plain,
                run_exchange(&w, seed, window, None),
                "window {window} seed {seed}"
            );
            let faulted = run_exchange(&w, seed, window, Some(faults(seed)));
            assert_eq!(
                faulted,
                run_exchange(&w, seed, window, Some(faults(seed))),
                "window {window} seed {seed}, faulted"
            );
            for (r, data) in plain.restored.iter().chain(&faulted.restored).enumerate() {
                assert_eq!(
                    data,
                    w.latest(r as u32 % w.ranks),
                    "window {window} seed {seed}"
                );
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

/// With rank-dedup *absent* (engine `None`), the runtime's
/// `recover_report()` JSON is byte-for-byte a runtime's that never names
/// the field — the cluster index is invisible unless enabled.
#[test]
fn rank_dedup_off_report_json_identical_to_baseline() {
    for (data_seed, compression) in [
        (17u64, CompressionPolicy::Off),
        (18, CompressionPolicy::Adaptive),
    ] {
        let w = cluster(3, 3, 1024, data_seed);
        let json = |cfg: RuntimeConfig| {
            run(&w, cfg, FaultPlan::empty(), usize::MAX)
                .report
                .to_json()
        };
        let named = RuntimeConfig {
            rank_dedup: None,
            ..stack(compression, RedundancyPolicy::Off)
        };
        assert_eq!(
            json(stack(compression, RedundancyPolicy::Off)),
            json(named),
            "engine None changed the recovery report JSON"
        );
    }
}

/// A record directory as the version-1 writers left it (`ckpt create
/// --ranks 4 --redundancy xor:4 --rank-dedup --compress adaptive` over
/// eight snapshots), copied to a scratch directory under `tag` with its
/// group `MANIFEST` passed through `edit`.
fn v1_cluster_copy(tag: &str, edit: impl Fn(&str) -> String) -> ClusterDir {
    fn copy(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let path = entry.unwrap().path();
            let dest = to.join(path.file_name().unwrap());
            if path.is_dir() {
                copy(&path, &dest);
            } else {
                std::fs::copy(&path, &dest).unwrap();
            }
        }
    }
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/v1/cluster");
    let root = std::env::temp_dir().join(format!("faults-v1-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    copy(&fixture, &root);
    let manifest = root.join("group/MANIFEST");
    let text = std::fs::read_to_string(&manifest).unwrap();
    std::fs::write(&manifest, edit(&text)).unwrap();
    ClusterDir::new(root)
}

/// A version-1 group manifest — no `version` line, so its member
/// checksums are the serial chain's — rebuilds a fully lost rank bit-
/// identically to that rank's intact restore. The same manifest claiming
/// `version 2` reads those checksums under the lane-split fold: the
/// rebuild fails verification and the restore is a typed loss, never a
/// payload.
#[test]
fn a_version_1_manifest_rebuilds_a_lost_rank() {
    let device = Device::a100();
    let lost = 2u32;
    for claim_v2 in [false, true] {
        let dir = v1_cluster_copy(if claim_v2 { "claims-v2" } else { "as-is" }, |text| {
            assert!(!text.contains("\nversion "), "a version-1 manifest");
            match claim_v2 {
                false => text.to_string(),
                true => text.replacen('\n', "\nversion 2\n", 1),
            }
        });
        let loaded = dir.import().expect("the fixture imports");
        assert!(loaded.notes.is_empty(), "{:?}", loaded.notes);
        let intact = restore_rank_latest_parallel(&loaded.tiers, &device, lost, None)
            .expect("the intact rank restores from its own records");
        let tiers = &loaded.tiers;
        for tier in [&tiers.host, &tiers.ssd, &tiers.pfs] {
            tier.wipe_rank(lost);
        }
        let rebuilt = restore_rank_latest_parallel(tiers, &device, lost, None);
        match (claim_v2, rebuilt) {
            (false, Ok(rebuilt)) => {
                assert_eq!(rebuilt.version, intact.version);
                assert_eq!(rebuilt.data, intact.data, "group rebuild not bit-identical");
            }
            (true, Err(_)) => {}
            (claim_v2, got) => panic!(
                "manifest claiming version 2: {claim_v2}, restore ok: {}",
                got.is_ok()
            ),
        }
        let _ = std::fs::remove_dir_all(dir.root());
    }
}
