//! Differential schedules for the cluster-wide dedup index: every
//! schedule runs twice — once through the plain runtime and once with
//! rank-dedup on (one shared inline claim index across the ranks) — and
//! every observable restore must be byte-equal between the two.
//!
//! Beyond the audit's invariant 1 (recovery hands back the *original*
//! records: resolution undoes the `CKPR` rewrite exactly):
//!
//! 1. rank-dedup ON restores byte-equal to OFF for every rank, across the
//!    Tree, List and Basic methods, compression Off and Adaptive, at 1, 2
//!    and 8 pool threads;
//! 2. the same holds across a mid-chain rebase followed by chain
//!    compaction (`compact_below`), where the GC floor must pin every
//!    remotely-referenced object the compacted rank still owes the
//!    cluster;
//! 3. the shared-working-set schedules really exercise the index: the
//!    cross-rank reference counter is non-zero and the durable tier holds
//!    fewer bytes with dedup on;
//! 4. a submission the host refuses leaves no claim or reference edge;
//! 5. resolution under read faults — transient errors, a bit-flipped
//!    durable copy, a rank loss — fires the same faults, issues the same
//!    tier operations and restores the same bytes at 1, 2 and 8 pool
//!    threads;
//! 6. recovery reads each record from the tiers once, for its own
//!    verdict, and resolves every record against those reads; a target
//!    rebuilt from its group is reported so, also when a record classified
//!    before it names it.

use crate::support::{holds, replay_violations, run, Snapshots, Workload, CHUNK, METHODS};
use ckpt_dedup::frame::{RankDedupEntry, RecordIndex};
use ckpt_dedup::MethodKind;
use ckpt_runtime::{
    collect_record, compact_below, restore_rank_latest_parallel, AsyncRuntime, CompressionPolicy,
    FaultKind, FaultPlan, OpKind, RankDedupConfig, RankDedupEngine, RankDedupMetrics,
    RedundancyPolicy, RuntimeConfig, SplitMix64, TierChain, TierConfig,
};
use ckpt_telemetry::Registry;
use gpu_sim::Device;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Chains over one shared base, up to 16 edits per version.
fn shared(
    ranks: u32,
    ckpts: u32,
    len: usize,
    seed: u64,
    method_idx: usize,
    rebase_at: Option<u32>,
) -> Workload {
    let snapshots = Snapshots::Shared {
        ranks,
        ckpts,
        len,
        seed,
        edits: 16,
    };
    Workload::build(snapshots, METHODS[method_idx], rebase_at)
}

/// Submit the whole workload into a fresh runtime — with or without a
/// shared inline rank-dedup engine counting into `registry` — then
/// compact every rank's chain below `compact_at`.
fn runtime(
    w: &Workload,
    compression: CompressionPolicy,
    dedup: bool,
    registry: Arc<Registry>,
    compact_at: Option<u32>,
) -> AsyncRuntime {
    let engine = dedup.then(|| {
        RankDedupEngine::new(
            RankDedupConfig {
                ranks: w.ranks,
                chunk_len: CHUNK,
            },
            RankDedupMetrics::bound(Arc::clone(&registry)),
        )
    });
    let rt = AsyncRuntime::start(RuntimeConfig {
        registry,
        compression,
        rank_dedup: engine,
        ..Default::default()
    });
    w.submit_all(&rt);
    if let Some(at) = compact_at {
        for r in 0..w.ranks {
            compact_below(rt.tiers(), r, at);
        }
    }
    rt
}

/// Restore every rank from both runtimes at `threads` pool threads:
/// byte-equal between the two and to the latest snapshot.
fn check_restores_equal(w: &Workload, off: &AsyncRuntime, on: &AsyncRuntime, threads: usize) {
    let device = Device::a100();
    rayon::set_active_threads(threads);
    for r in 0..w.ranks {
        let a =
            restore_rank_latest_parallel(off.tiers(), &device, r, None).expect("dedup-off restore");
        let b =
            restore_rank_latest_parallel(on.tiers(), &device, r, None).expect("dedup-on restore");
        assert_eq!(a.version, b.version, "rank {r}: versions diverged");
        assert_eq!(
            a.data, b.data,
            "rank {r} @ {threads} threads: dedup-on restore differs from off"
        );
        assert_eq!(a.data, w.latest(r), "rank {r}: restore not bit-exact");
    }
    rayon::set_active_threads(0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The differential: rank-dedup ON restores byte-equal to OFF across
    /// Tree/List/Basic x Off/Adaptive x 1/2/8 threads, with and without a
    /// mid-chain rebase + compaction.
    #[test]
    fn rank_dedup_on_restores_byte_equal_to_off(
        ranks in 2u32..5,
        ckpts in 2u32..5,
        len in 512usize..1024,
        data_seed in any::<u64>(),
        method_idx in 0usize..3,
        adaptive in any::<bool>(),
        rebase in any::<bool>(),
    ) {
        let compression = if adaptive {
            CompressionPolicy::Adaptive
        } else {
            CompressionPolicy::Off
        };
        // A mid-chain rebase: the head is re-emitted self-contained and
        // everything below it garbage-collected on both runtimes.
        let rebase_at = rebase.then_some(ckpts / 2).filter(|&a| a > 0);
        let w = shared(ranks, ckpts, len, data_seed, method_idx, rebase_at);

        let reg_on = Arc::new(Registry::new());
        let off = runtime(&w, compression, false, Arc::new(Registry::new()), rebase_at);
        let on = runtime(&w, compression, true, Arc::clone(&reg_on), rebase_at);

        for threads in [1usize, 2, 8] {
            check_restores_equal(&w, &off, &on, threads);
        }

        // Version 0 is identical on every rank, so with >=2 ranks the
        // schedule must have exercised cross-rank references.
        prop_assert!(
            reg_on.counter("rankdedup/remote_refs").get() > 0,
            "shared-base schedule produced no cross-rank references"
        );

        // Recovery resolves every CKPR record back to the original record.
        // Without compaction the reports must match rank by rank; after
        // compaction the GC floor may legitimately keep a *longer* durable
        // prefix on the dedup side (pinned objects), so there each report
        // is audited on its own.
        let rep_off = off.recover_report();
        let rep_on = on.recover_report();
        holds(replay_violations(&w, &rep_off));
        holds(replay_violations(&w, &rep_on));
        for (a, b) in rep_off.ranks.iter().zip(rep_on.ranks.iter()) {
            prop_assert_eq!(a.rank, b.rank);
            if rebase_at.is_none() {
                prop_assert_eq!(a.prefix_len, b.prefix_len, "rank {} prefix", a.rank);
                prop_assert_eq!(&a.payloads, &b.payloads, "rank {} payloads", a.rank);
            }
        }
        off.kill();
        on.kill();
    }
}

/// The canonical acceptance cell, deterministic: 4 ranks over one shared
/// working set, Tree method, adaptive compression. Rank-dedup must store
/// strictly fewer durable bytes than per-rank dedup alone while restoring
/// byte-equal at 1, 2 and 8 threads — including after the claim-winning
/// rank's chain is compacted under the GC floor.
#[test]
fn shared_working_set_stores_less_and_restores_equal() {
    // The head checkpoint is a rebase record so the chains can later be
    // compacted below it.
    let w = shared(4, 3, 4096, 0xC0FFEE, 0, Some(2));
    let reg_on = Arc::new(Registry::new());
    let adaptive = CompressionPolicy::Adaptive;
    let off = runtime(&w, adaptive, false, Arc::new(Registry::new()), None);
    let on = runtime(&w, adaptive, true, Arc::clone(&reg_on), None);

    let stored = |rt: &AsyncRuntime| -> u64 {
        w.ids()
            .into_iter()
            .map(|id| {
                rt.tiers()
                    .pfs
                    .inspect_object(id)
                    .into_object()
                    .expect("durable")
                    .stored_len()
            })
            .sum()
    };
    assert!(
        stored(&on) < stored(&off),
        "cluster dedup must store fewer durable bytes ({} vs {})",
        stored(&on),
        stored(&off)
    );
    assert!(reg_on.counter("rankdedup/remote_refs").get() > 0);

    for threads in [1usize, 2, 8] {
        check_restores_equal(&w, &off, &on, threads);
    }

    // Compact the claim winner's chain below its head: the GC floor pins
    // what other ranks reference, so every restore still resolves.
    compact_below(on.tiers(), 0, w.ckpts - 1);
    compact_below(off.tiers(), 0, w.ckpts - 1);
    for threads in [1usize, 2, 8] {
        let device = Device::a100();
        rayon::set_active_threads(threads);
        for r in 0..w.ranks {
            let b = restore_rank_latest_parallel(on.tiers(), &device, r, None)
                .expect("restore after compaction");
            assert_eq!(
                b.data,
                w.latest(r),
                "rank {r}: post-compaction restore not bit-exact"
            );
        }
        rayon::set_active_threads(0);
    }
    off.kill();
    on.kill();
}

/// A chain whose configuration names `rank_dedup: None` is frame-for-frame
/// what one that never mentions the field stores: `None` must be a true
/// no-op, not a third code path.
#[test]
fn disabled_engine_is_invisible() {
    let w = shared(2, 2, 1024, 99, 0, None);
    let off = CompressionPolicy::Off;
    let a = runtime(&w, off, false, Arc::new(Registry::new()), None);
    let b = AsyncRuntime::start(RuntimeConfig::default());
    w.submit_all(&b);
    for id in w.ids() {
        let bytes = |rt: &AsyncRuntime| {
            rt.tiers()
                .pfs
                .inspect_object(id)
                .into_object()
                .expect("durable")
        };
        assert_eq!(bytes(&a), bytes(&b), "object {id:?} diverged");
    }
    a.kill();
    b.kill();
}

/// A submission the host tier refuses was already rewritten against the
/// index — claims committed, reference edges recorded — for an object no
/// tier holds. The runtime must take all of it back: otherwise the next
/// rank to see those bytes references the refused object and its own
/// healthy checkpoint restores as a typed loss.
#[test]
fn refused_submit_leaves_no_claims_or_edges_behind() {
    let mut rng = SplitMix64::new(0x5EED);
    let mut block = || -> Vec<u8> { (0..512).map(|_| (rng.next() & 0xff) as u8).collect() };
    let (a, b, c) = (block(), block(), block());
    let engine = RankDedupEngine::new(
        RankDedupConfig {
            ranks: 3,
            chunk_len: CHUNK,
        },
        RankDedupMetrics::detached(),
    );
    // Room for one 512-byte record with its table, not for two.
    let host = TierConfig {
        capacity: 1000,
        ..TierConfig::host()
    };
    let rt = AsyncRuntime::start(RuntimeConfig {
        tiers: TierChain::with_configs(host, TierConfig::ssd(), TierConfig::pfs()),
        rank_dedup: Some(Arc::clone(&engine)),
        ..Default::default()
    });
    let index = engine.index();

    rt.submit(0, 0, a.clone()).unwrap();
    rt.wait_durable(&[(0, 0)]);
    let claims_of_a = index.claim_count();
    assert_eq!(claims_of_a, 512 / CHUNK);

    // (1,0) references (0,0) for `a` and claims `b` and `c` — and is refused.
    let big = [&a[..], &b[..], &c[..]].concat();
    assert!(rt.submit(1, 0, big).is_err());
    assert_eq!(
        index.claim_count(),
        claims_of_a,
        "claims into (1,0) survive"
    );
    assert!(
        !index.is_pinned((0, 0)),
        "(1,0) still pins what it referenced"
    );

    // Rank 2 sees `b` next: nothing of its record may point into (1,0),
    // and it restores.
    rt.submit(2, 0, b.clone()).unwrap();
    rt.wait_durable(&[(2, 0)]);
    let stored = rt.tiers().pfs.inspect_object((2, 0)).into_object().unwrap();
    let record = stored.payload();
    let index = RecordIndex::parse(record).unwrap();
    assert!(index
        .entries(record)
        .all(|e| !matches!(e, RankDedupEntry::Remote(r) if r.owner_rank == 1)));
    assert_eq!(rt.tiers().locate((2, 0)), Some(b.into()));
    rt.shutdown();
}

/// The rank-dedup stack over a Mosaic cluster: adaptive compression, one
/// XOR-4 group, a shared inline claim index.
fn mosaic_stack(w: &Workload, registry: &Arc<Registry>) -> RuntimeConfig {
    let engine = RankDedupEngine::new(
        RankDedupConfig {
            ranks: w.ranks,
            chunk_len: CHUNK,
        },
        RankDedupMetrics::bound(Arc::clone(registry)),
    );
    RuntimeConfig {
        registry: Arc::clone(registry),
        compression: CompressionPolicy::Adaptive,
        redundancy: RedundancyPolicy::Xor { group_size: 4 },
        rank_dedup: Some(engine),
        ..Default::default()
    }
}

/// Faults on the reads of a Mosaic cluster of `objects` records, drawn
/// from `seed`. Every PFS put before recovery is a drain (the host and SSD
/// copies are evicted once durable), and recovery's PFS reads — one per
/// object — follow, then the restores'. From the middle of recovery's reads
/// on: three transient errors on consecutive reads — serial reads spend them on one
/// object's retries, which then rebuilds from its group — and a rank loss
/// that wipes the group stripes its rank hosts; before them, a bit-flipped
/// drain, whose object only its group can bring back.
fn read_faults(seed: u64, objects: u64) -> Arc<FaultPlan> {
    let mut rng = SplitMix64::new(seed);
    let transient = objects / 2 + rng.next() % (objects / 2);
    let loss = transient + 3 + rng.next() % 4;
    let mut plan = FaultPlan::builder()
        .on_put(
            "pfs",
            rng.next() % objects,
            FaultKind::BitFlip { bit: rng.next() },
        )
        .on_get(
            "pfs",
            loss,
            FaultKind::RankLoss {
                rank: (rng.next() % 4) as u32,
            },
        );
    for at in transient..transient + 3 {
        plan = plan.on_get("pfs", at, FaultKind::TransientIo);
    }
    plan.build()
}

/// Resolution does not depend on the pool's thread count, faults
/// included: every top record of a Mosaic cluster references twelve or
/// more records, and under seeded read faults the same faults fire, the
/// tiers see the same operations, recovery reports the same and every
/// rank restores the same bytes (or fails the same way) at 1, 2 and 8
/// pool threads. The tier step of every read runs on the calling thread
/// in first-reference order; only decoding and indexing fan out.
#[test]
fn resolution_is_independent_of_the_thread_count_under_faults() {
    let snapshots = Snapshots::Mosaic {
        ranks: 4,
        ckpts: 4,
        block: 1024,
        seed: 0x7EAD,
    };
    let w = Workload::build(snapshots, MethodKind::Full, None);
    let objects = (w.ranks * w.ckpts) as u64;
    for seed in [1u64, 5, 11] {
        let runs: Vec<_> = [1usize, 2, 8]
            .into_iter()
            .map(|threads| {
                rayon::set_active_threads(threads);
                let registry = Arc::new(Registry::new());
                let plan = read_faults(seed, objects);
                let out = run(
                    &w,
                    mosaic_stack(&w, &registry),
                    Arc::clone(&plan),
                    usize::MAX,
                );
                let report = out.report.to_json();
                holds(replay_violations(&w, &out.report));
                let restores: Vec<_> = (0..w.ranks)
                    .map(|r| {
                        restore_rank_latest_parallel(out.rt.tiers(), &Device::a100(), r, None)
                            .map(|o| (o.version, o.data))
                            .map_err(|e| e.to_string())
                    })
                    .collect();
                let counters: Vec<u64> = [
                    "integrity/frames_verified",
                    "integrity/frames_corrupt",
                    "integrity/frames_repaired",
                    "redundancy/restored_objects",
                    "redundancy/restore_failures",
                ]
                .map(|name| registry.counter(name).get())
                .to_vec();
                let top = out.rt.tiers().pfs.get((0, w.ckpts - 1));
                (
                    out.fired(),
                    plan.op_counts(),
                    report,
                    restores,
                    counters,
                    top,
                )
            })
            .collect();
        rayon::set_active_threads(0);
        for (threads, other) in [2, 8].iter().zip(&runs[1..]) {
            assert!(
                runs[0] == *other,
                "seed {seed}: {threads} threads diverged from 1:\n{:?}\nvs\n{:?}",
                (&runs[0].0, &runs[0].1, &runs[0].2, &runs[0].4),
                (&other.0, &other.1, &other.2, &other.4),
            );
        }
        // The schedule did what it is for: every kind fired, and the top
        // records are the wide ones.
        let (fired, ..) = &runs[0];
        for kind in ["TransientIo", "BitFlip", "RankLoss"] {
            assert!(
                fired
                    .iter()
                    .any(|f| format!("{:?}", f.kind).starts_with(kind)),
                "seed {seed}: no {kind} fired: {fired:?}"
            );
        }
        let top = runs[0].5.as_ref().expect("rank 0's top record is durable");
        let index = RecordIndex::parse(top).unwrap();
        let mut targets: Vec<(u32, u32)> = index
            .entries(top)
            .filter_map(|e| match e {
                RankDedupEntry::Remote(r) => Some((r.owner_rank, r.ckpt_id)),
                RankDedupEntry::Local { .. } => None,
            })
            .collect();
        targets.sort_unstable();
        targets.dedup();
        assert!(targets.len() >= 12, "{} targets", targets.len());
    }
}

/// The first target a Mosaic cluster's recovery meets before its own turn
/// (ranks ascending, each oldest first), and the record naming it.
fn early_target(w: &Workload, tiers: &TierChain) -> ((u32, u32), (u32, u32)) {
    let mut ids = w.ids();
    ids.sort_unstable();
    ids.into_iter()
        .find_map(|id| {
            let record = tiers.pfs.get(id)?;
            let index = RecordIndex::parse(&record).unwrap();
            let mut targets = index.entries(&record).filter_map(|entry| match entry {
                RankDedupEntry::Remote(r) => Some((r.owner_rank, r.ckpt_id)),
                RankDedupEntry::Local { .. } => None,
            });
            Some((targets.find(|&target| target > id)?, id))
        })
        .expect("a Mosaic record references a later rank")
}

/// The durable copy of a target named before its own turn is bit-flipped
/// after the run, and only its group can bring it back. The report names
/// it `restored_from_group`, as the same damage to any other object is
/// named: its own read condemns the copy and rebuilds it, and the record
/// naming it resolves against that rebuild. Were the resolver to read the
/// target first, it would rebuild and re-store it unreported, and the
/// target's own read would find a clean copy to call `verified`.
#[test]
fn a_target_rebuilt_from_its_group_is_reported_so() {
    let snapshots = Snapshots::Mosaic {
        ranks: 4,
        ckpts: 4,
        block: 1024,
        seed: 0x7EAD,
    };
    let w = Workload::build(snapshots, MethodKind::Full, None);
    let registry = Arc::new(Registry::new());
    let out = run(
        &w,
        mosaic_stack(&w, &registry),
        FaultPlan::builder().build(),
        usize::MAX,
    );
    holds(replay_violations(&w, &out.report));
    let tiers = out.rt.tiers();
    let (target, named_by) = early_target(&w, tiers);
    let mut framed = tiers.pfs.raw(target).unwrap().to_vec();
    let last = framed.len() - 1;
    framed[last] ^= 0x10;
    tiers.pfs.put_framed(target, framed);

    let report = out.rt.recover_report();
    holds(replay_violations(&w, &report));
    let status = |(rank, ckpt): (u32, u32)| {
        let objects = &report.ranks[rank as usize].objects;
        objects.iter().find(|o| o.ckpt_id == ckpt).unwrap().status
    };
    assert_eq!(
        (status(target).name(), status(named_by).name()),
        ("restored_from_group", "verified"),
        "target {target:?}, named by {named_by:?}"
    );
}

/// Recovery classifies a Mosaic cluster's sixteen records rank by rank,
/// oldest first, each with a tier read of its own, before it resolves any:
/// every target resolves from the read that classified it, also one named
/// before its own turn. So recovery's PFS gets are the objects, one each —
/// and the report is the one the first recovery wrote. Collecting one
/// rank's record reads its records oldest first and resolves each as it
/// goes: one get each, plus one per target named before it was read.
#[test]
fn recovery_reads_a_classified_record_once() {
    let snapshots = Snapshots::Mosaic {
        ranks: 4,
        ckpts: 4,
        block: 1024,
        seed: 0x7EAD,
    };
    let w = Workload::build(snapshots, MethodKind::Full, None);
    let registry = Arc::new(Registry::new());
    let plan = FaultPlan::builder().build();
    let out = run(
        &w,
        mosaic_stack(&w, &registry),
        Arc::clone(&plan),
        usize::MAX,
    );
    holds(replay_violations(&w, &out.report));
    let pfs_gets = || -> u64 {
        let counts = plan.op_counts();
        let gets = counts.iter().filter(|(op, _)| *op == ("pfs", OpKind::Get));
        gets.map(|(_, n)| n).sum()
    };
    let gets_of = |read: &dyn Fn()| {
        let before = pfs_gets();
        read();
        pfs_gets() - before
    };
    let recovery = gets_of(&|| assert_eq!(out.rt.recover_report().to_json(), out.report.to_json()));
    let collect: Vec<u64> = (0..w.ranks)
        .map(|rank| gets_of(&|| drop(collect_record(out.rt.tiers(), rank).unwrap())))
        .collect();

    // Reading `ids` in order and resolving each as it is read: one get
    // each, plus one per target named before it was read.
    // Rank by rank, oldest first, as recovery classifies them.
    let mut ids = w.ids();
    ids.sort_unstable();
    let records: Vec<_> = ids
        .into_iter()
        .map(|id| (id, out.rt.tiers().pfs.get(id).unwrap()))
        .collect();
    let reads = |rank: Option<u32>| {
        let mut read = HashSet::new();
        let mut gets = 0;
        for (id, record) in records
            .iter()
            .filter(|(id, _)| rank.is_none_or(|r| id.0 == r))
        {
            read.insert(*id);
            gets += 1;
            for entry in RecordIndex::parse(record).unwrap().entries(record) {
                if let RankDedupEntry::Remote(r) = entry {
                    gets += u64::from(read.insert((r.owner_rank, r.ckpt_id)));
                }
            }
        }
        gets
    };
    let objects = records.len() as u64;
    assert!(
        (objects + 1..2 * objects).contains(&reads(None)),
        "the cluster names targets before their turn, and barely shares"
    );
    assert_eq!(
        recovery, objects,
        "PFS gets of recovering {objects} objects"
    );
    for (rank, gets) in collect.into_iter().enumerate() {
        assert_eq!(
            gets,
            reads(Some(rank as u32)),
            "PFS gets collecting rank {rank}"
        );
    }
}
