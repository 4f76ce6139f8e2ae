//! Crash schedules across the Tree, List and Basic methods: seeded fault
//! plans, a kill anywhere, chain compaction around the crash, a kill inside
//! the double-buffered submit window, and the same with flush-path
//! compression on — every durability and accounting invariant must hold
//! identically whether the tiers hold raw or compressed objects.

use crate::support::{
    audit, holds, kill_point, replay_violations, run, Outcome, Snapshots, Workload, METHODS,
};
use ckpt_runtime::{
    compact_below, CompressionPolicy, FaultKind, FaultPlan, ObjectStatus, OpKind, RuntimeConfig,
    SplitMix64,
};
use ckpt_telemetry::JsonWriter;
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

/// Independent per-rank snapshots with up to 24 edits per version.
fn schedule(
    ranks: u32,
    ckpts: u32,
    len: usize,
    seed: u64,
    method_idx: usize,
    rebase_at: Option<u32>,
) -> Workload {
    let snapshots = Snapshots::PerRank {
        ranks,
        ckpts,
        len,
        seed,
        edits: 24,
    };
    Workload::build(snapshots, METHODS[method_idx], rebase_at)
}

/// `count` seeded faults over the first `4 * total` operations of a tier.
fn seeded_plan(seed: u64, count: usize, total: usize) -> Arc<FaultPlan> {
    if count == 0 {
        FaultPlan::empty()
    } else {
        FaultPlan::from_seed(seed, count, (total * 4) as u64)
    }
}

fn compressed(compression: CompressionPolicy) -> RuntimeConfig {
    RuntimeConfig {
        compression,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: any schedule of submits, faults and a crash
    /// recovers to bit-exact durable prefixes with full accounting.
    #[test]
    fn randomized_crash_schedules_recover_bit_exact(
        ranks in 1u32..3,
        ckpts in 2u32..5,
        len in 256usize..1024,
        data_seed in any::<u64>(),
        method_idx in 0usize..3,
        fault_seed in any::<u64>(),
        fault_count in 0usize..10,
        kill_frac in 0u32..120,
    ) {
        let w = schedule(ranks, ckpts, len, data_seed, method_idx, None);
        let total = (ranks * ckpts) as usize;
        let plan = seeded_plan(fault_seed, fault_count, total);
        let out = run(&w, RuntimeConfig::default(), plan, kill_point(kill_frac, total));
        holds(audit(&w, &out, fault_count));
    }

    /// Determinism: the same parameters replay to the identical recovery
    /// report and the identical fired-fault log. (Faults key on per-tier op
    /// ordinals, and each tier's op stream is single-threaded, so the whole
    /// schedule is a pure function of its parameters.)
    #[test]
    fn schedules_replay_identically(
        ckpts in 2u32..5,
        data_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        fault_count in 1usize..8,
        kill_frac in 0u32..120,
    ) {
        let w = schedule(2, ckpts, 512, data_seed, 0, None);
        let total = (2 * ckpts) as usize;
        let mk = || {
            let plan = seeded_plan(fault_seed, fault_count, total);
            run(&w, RuntimeConfig::default(), plan, kill_point(kill_frac, total))
        };
        let (a, b) = (mk(), mk());
        prop_assert_eq!(a.fired(), b.fired());
        prop_assert_eq!(&a.accepted, &b.accepted);
        let durable = |o: &Outcome| o.rt.telemetry().counter("runtime/durable").get();
        prop_assert_eq!(durable(&a), durable(&b));
        let statuses = |o: &Outcome| -> Vec<(u32, Vec<(u32, &'static str)>)> {
            o.report
                .ranks
                .iter()
                .map(|rr| {
                    (
                        rr.rank,
                        rr.objects.iter().map(|ob| (ob.ckpt_id, ob.status.name())).collect(),
                    )
                })
                .collect()
        };
        prop_assert_eq!(statuses(&a), statuses(&b));
    }
}

/// Invariant 4 as a fixed test: fault-free, crash-free schedules lose
/// nothing and restore every version bit-exact, for every method.
#[test]
fn fault_free_schedules_lose_nothing() {
    for method_idx in 0..3 {
        let w = schedule(2, 4, 700, 42 + method_idx as u64, method_idx, None);
        let out = run(&w, RuntimeConfig::default(), FaultPlan::empty(), usize::MAX);
        assert_eq!(out.report.total_lost(), 0, "method {method_idx}");
        assert_eq!(out.report.total_verified(), 8, "method {method_idx}");
        assert_eq!(out.report.total_durable_prefix(), 8, "method {method_idx}");
        assert_eq!(out.rt.telemetry().counter("runtime/durable").get(), 8);
        holds(audit(&w, &out, 0));
    }
}

/// A crash anywhere in the chain-compaction window must leave a
/// restorable chain, for every method. The protocol under test: the
/// rebase record is submitted like any checkpoint, and garbage collection
/// below it may only run after it is durable. Three kill points:
///
/// * before the rebase record drained — the original chain restores;
/// * after it is durable but before GC — the full chain restores from 0
///   (the rebase record replays in place like any diff);
/// * after GC — the compacted chain restores from the rebase base.
#[test]
fn kill_in_the_compaction_window_keeps_a_restorable_chain() {
    let rebase_at = 4u32;
    for method_idx in 0..3 {
        let w = schedule(
            1,
            6,
            700,
            7 + method_idx as u64,
            method_idx,
            Some(rebase_at),
        );

        // Kill point 1: the flusher dies before the rebase record (and
        // everything after it) drained. GC must not have run, and the
        // original prefix restores.
        let out = run(
            &w,
            RuntimeConfig::default(),
            FaultPlan::empty(),
            rebase_at as usize,
        );
        let rr = &out.report.ranks[0];
        assert_eq!(rr.base, 0, "method {method_idx}");
        assert!(
            rr.prefix_len >= rebase_at as usize,
            "method {method_idx}: pre-rebase chain lost"
        );
        holds(replay_violations(&w, &out.report));

        // Kill points 2 and 3: rebase durable; crash lands between the
        // rebase and the GC (2), then the GC runs on the recovered tiers
        // and the compacted chain must still restore (3).
        let out = run(&w, RuntimeConfig::default(), FaultPlan::empty(), usize::MAX);
        let rr = &out.report.ranks[0];
        assert_eq!((rr.base, rr.prefix_len), (0, 6), "method {method_idx}");
        holds(replay_violations(&w, &out.report));

        let evicted = compact_below(out.rt.tiers(), 0, rebase_at);
        assert!(evicted >= rebase_at as usize, "method {method_idx}");
        let report = out.rt.recover_report();
        let rr = &report.ranks[0];
        assert_eq!(
            (rr.base, rr.prefix_len),
            (rebase_at, 2),
            "method {method_idx}"
        );
        holds(replay_violations(&w, &report));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Compaction under randomized crash points: with a rebase record in
    /// the schedule and a kill landing anywhere (including between the
    /// rebase submit and the GC), whatever chain recovery reports usable
    /// replays bit-exact against the original snapshots from its base.
    #[test]
    fn randomized_compaction_crashes_keep_a_restorable_chain(
        ckpts in 4u32..7,
        rebase_frac in 0u32..100,
        len in 256usize..1024,
        data_seed in any::<u64>(),
        method_idx in 0usize..3,
        kill_frac in 0u32..120,
    ) {
        let rebase_at = 1 + rebase_frac % (ckpts - 1);
        let w = schedule(1, ckpts, len, data_seed, method_idx, Some(rebase_at));
        let kill_at = kill_point(kill_frac, ckpts as usize);
        let out = run(&w, RuntimeConfig::default(), FaultPlan::empty(), kill_at);
        holds(audit(&w, &out, 0));

        // GC below the rebase point if (and only if) it came back durable,
        // then re-check: the compacted chain must still replay bit-exact.
        let rebase_durable = out.report.ranks.first().is_some_and(|rr| {
            rr.objects
                .iter()
                .any(|o| o.ckpt_id == rebase_at && o.status.is_durable())
        });
        if rebase_durable {
            compact_below(out.rt.tiers(), 0, rebase_at);
        }
        holds(replay_violations(&w, &out.rt.recover_report()));
    }
}

/// A crash landing inside the double-buffered submit window: checkpoints
/// are handed to a [`CheckpointPipeline`](ckpt_runtime::CheckpointPipeline)
/// whose produce closures hold live device-arena leases and encode slowly
/// (so the overlap window — one tail in flight, one parked in the channel
/// — is genuinely open when the kill lands). Afterwards: no leased buffer
/// may remain outstanding, every handoff must be accounted exactly once,
/// and whatever the runtime claims durable must still replay bit-exact.
#[test]
fn kill_during_double_buffered_submit_leaks_nothing() {
    use ckpt_runtime::{AsyncRuntime, CheckpointPipeline};
    use gpu_sim::Device;
    use std::time::Duration;

    for method_idx in 0..3 {
        let w = schedule(1, 4, 600, 99 + method_idx as u64, method_idx, None);
        let rt = Arc::new(AsyncRuntime::start(RuntimeConfig::default()));
        let device = Device::a100();
        let pipe = CheckpointPipeline::new(Arc::clone(&rt));
        for k in 0..w.ckpts {
            let bytes = w.record((0, k));
            let lease = device
                .arena()
                .lease::<u8>("pipeline/encode_scratch", bytes.len().max(1));
            pipe.submit_with(
                0,
                k,
                Box::new(move || {
                    let _scratch = lease;
                    std::thread::sleep(Duration::from_millis(10));
                    bytes
                }),
            );
            if k == 1 {
                // Both buffer slots are (or were moments ago) occupied:
                // crash inside the overlap window.
                rt.kill();
            }
        }
        let stats = pipe.close();
        assert_eq!(
            stats.submitted + stats.aborted,
            w.ckpts as u64,
            "method {method_idx}: every handoff accounted exactly once"
        );
        assert_eq!(
            device.arena().outstanding(),
            0,
            "method {method_idx}: a leased arena buffer leaked across the kill"
        );
        holds(replay_violations(&w, &rt.recover_report()));
    }
}

/// The durable copy of checkpoint 2 of a single-rank chain is bit-flipped
/// (its redundant copies already evicted), so recovery must stop the
/// prefix there — and versions 0–1 must still restore bit-exact.
fn corrupt_third_durable_write(len: usize, compression: CompressionPolicy) {
    for method_idx in 0..3 {
        let w = schedule(1, 4, len, 7 + method_idx as u64, method_idx, None);
        // pfs put ordinal k is ckpt k (single rank, in-order drain).
        let plan = FaultPlan::builder()
            .on_put("pfs", 2, FaultKind::BitFlip { bit: 12345 })
            .build();
        let out = run(&w, compressed(compression), plan, usize::MAX);
        assert_eq!(
            out.report.ranks[0].prefix_len, 2,
            "method {method_idx}: prefix must stop at the corrupt ckpt"
        );
        assert_eq!(out.report.total(ObjectStatus::LostCorrupt), 1);
        // ckpt 3 is durable and verified, but unusable without ckpt 2.
        assert_eq!(out.report.total_verified(), 3);
        holds(audit(&w, &out, 1));
    }
}

/// Restore-under-corruption, per method.
#[test]
fn restore_under_corruption_per_method() {
    corrupt_third_durable_write(600, CompressionPolicy::Off);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline property with flush-path compression on. Snapshots are
    /// large enough that full checkpoints clear the min-compress threshold,
    /// so the tiers really hold compressed objects.
    #[test]
    fn randomized_crash_schedules_recover_bit_exact_compressed(
        ckpts in 2u32..5,
        data_seed in any::<u64>(),
        method_idx in 0usize..3,
        fault_seed in any::<u64>(),
        fault_count in 0usize..10,
        kill_frac in 0u32..120,
        adaptive in any::<bool>(),
    ) {
        let policy = if adaptive {
            CompressionPolicy::Adaptive
        } else {
            CompressionPolicy::Fixed(6)
        };
        let w = schedule(2, ckpts, 4096, data_seed, method_idx, None);
        let total = (2 * ckpts) as usize;
        let plan = seeded_plan(fault_seed, fault_count, total);
        let out = run(&w, compressed(policy), plan, kill_point(kill_frac, total));
        holds(audit(&w, &out, fault_count));
    }
}

/// Fault-free, crash-free compressed schedules lose nothing, restore every
/// version bit-exact for every method × policy, and never store more on
/// the durable tier than the uncompressed run.
#[test]
fn fault_free_compressed_schedules_lose_nothing_and_shrink_the_pfs() {
    for method_idx in 0..3 {
        let w = schedule(2, 4, 8192, 42 + method_idx as u64, method_idx, None);
        let mut pfs_used = Vec::new();
        for policy in [
            CompressionPolicy::Off,
            CompressionPolicy::Fixed(6),
            CompressionPolicy::Adaptive,
        ] {
            let out = run(&w, compressed(policy), FaultPlan::empty(), usize::MAX);
            pfs_used.push(out.rt.tiers().pfs.used_bytes());
            assert!(out.fired().is_empty());
            assert_eq!(out.report.total_lost(), 0, "method {method_idx}");
            holds(audit(&w, &out, 0));
        }
        assert!(
            pfs_used[1] <= pfs_used[0] && pfs_used[2] <= pfs_used[0],
            "method {method_idx}: compression inflated the PFS: {pfs_used:?}"
        );
    }
}

/// Restore-under-corruption with compression on: a bit-flipped compressed
/// durable copy is detected by its (compressed-payload) checksum,
/// quarantined, and stops the prefix exactly like an uncompressed one.
#[test]
fn restore_under_corruption_per_method_compressed() {
    corrupt_third_durable_write(4096, CompressionPolicy::Adaptive);
}

/// CI's fault matrix: three fixed seeds, each deriving one schedule —
/// 3 ranks × 5 checkpoints of 2 KiB, a seed-chosen method, fault count,
/// kill point and fault plan. Each seed's report (its configuration, the
/// fired faults, the audit's violations, the recovery report and the
/// telemetry) is written to
/// `$CARGO_TARGET_TMPDIR/fault-reports/recovery-report-<seed>.json`
/// before the verdict, so a failing seed still leaves its artifact.
#[test]
fn fault_matrix_seeds() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fault-reports");
    std::fs::create_dir_all(&dir).unwrap();
    let mut violations = Vec::new();
    for seed in [1001u64, 2002, 3003] {
        let (json, found) = fault_matrix(seed);
        std::fs::write(dir.join(format!("recovery-report-{seed}.json")), json).unwrap();
        violations.extend(found.into_iter().map(|v| format!("seed {seed}: {v}")));
    }
    holds(violations);
}

/// One seed's schedule: its report JSON and the audit's violations.
fn fault_matrix(seed: u64) -> (String, Vec<String>) {
    let (ranks, ckpts, len) = (3u32, 5u32, 2048usize);
    let mut rng = SplitMix64::new(seed);
    let total = (ranks * ckpts) as usize;
    let method = ["tree", "list", "basic"][(rng.next() % 3) as usize];
    let fault_count = 4 + (rng.next() % 8) as usize;
    let kill_after = (rng.next() as usize) % (total + 1);
    let plan = FaultPlan::from_seed(rng.next(), fault_count, (total * 4) as u64);
    let snapshots = Snapshots::PerRank {
        ranks,
        ckpts,
        len,
        seed,
        edits: 32,
    };
    let kind = ckpt_dedup::MethodKind::from_name(method).expect("named above");
    let w = Workload::build(snapshots, kind, None);
    let out = run(&w, RuntimeConfig::default(), plan, kill_after);
    let violations = audit(&w, &out, fault_count);

    let mut j = JsonWriter::new();
    j.begin_object();
    j.key("seed").u64(seed);
    j.key("ok").bool(violations.is_empty());
    j.key("config").begin_object();
    j.key("ranks").u64(ranks as u64);
    j.key("ckpts").u64(ckpts as u64);
    j.key("len").u64(len as u64);
    j.key("method").string(method);
    j.key("fault_count").u64(fault_count as u64);
    j.key("kill_after").u64(kill_after as u64);
    j.end_object();
    j.key("fired_faults").begin_array();
    for f in out.fired() {
        j.begin_object();
        j.key("tier").string(f.tier);
        j.key("op").string(match f.op {
            OpKind::Put => "put",
            OpKind::Get => "get",
        });
        j.key("ordinal").u64(f.ordinal);
        j.key("kind").string(&format!("{:?}", f.kind));
        j.end_object();
    }
    j.end_array();
    j.key("violations").begin_array();
    for v in &violations {
        j.begin_object();
        j.key("violation").string(v);
        j.end_object();
    }
    j.end_array();
    j.key("report");
    out.report.write_json(&mut j);
    j.key("metrics");
    out.rt.telemetry().write_json(&mut j);
    j.end_object();
    (j.finish(), violations)
}
